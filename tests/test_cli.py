"""Command-line surface: outputs, manifests, determinism, exit codes.
Everything runs in-process through cli.main."""

import hashlib
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from spdc_coherence import cli, joint, validation
from spdc_coherence.cli import main
from spdc_coherence.entanglement import classify
from spdc_coherence.joint import JointGrid
from spdc_coherence.params import load_params
from spdc_coherence.validation import CheckResult

ROOT = Path(__file__).resolve().parent.parent

CONFIG = "pump.w = 10\npump.k_p = 10\ncrystal.L = 1000\n"
EXIT_FACE = "pump.w = 100\npump.k_p = 10\ncrystal.L = 1000\n"


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG, encoding="utf-8")
    return str(path)


def _read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


class TestVariances:
    def test_printed_matches_json(self, cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["variances", "--config", cfg, "--out", str(out)]) == 0
        printed = {}
        for line in capsys.readouterr().out.strip().splitlines():
            key, _, val = line.partition(" = ")
            printed[key] = json.loads(val)
        assert printed == _read_json(out / "variances.json")

    def test_values(self, cfg, tmp_path, capsys):
        out = tmp_path / "out"
        main(["variances", "--config", cfg, "--out", str(out)])
        doc = _read_json(out / "variances.json")
        assert doc["variance_rho_plus"] == 200.0  # 2 w^2
        assert doc["variance_q_minus"] == pytest.approx(10.0 / (2.0 * 0.455 * 1000.0))
        assert isinstance(doc["type1"], bool)
        assert doc["correlation_momentum"] in ("correlated", "anti", "none")

    def test_manifest(self, cfg, tmp_path, capsys):
        out = tmp_path / "out"
        main(["variances", "--config", cfg, "--out", str(out)])
        man = _read_json(out / "variances_manifest.json")
        assert man["command"] == "variances"
        assert man["outputs"] == ["variances.json"]
        assert man["parameters"]["pump"]["w"] == 10.0
        assert "version" in man and "duration_s" in man

    def test_writes_the_report(self, cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["variances", "--config", cfg, "--out", str(out)]) == 0
        want = json.dumps(classify(*load_params(cfg))._asdict(), indent=1) + "\n"
        assert (out / "variances.json").read_text(encoding="utf-8") == want

    @pytest.mark.parametrize("line, name", [
        ("pump.w = 1e-160", "variance_q_plus"),
        ("crystal.L = 1e308", "variance_rho_minus"),
        ("crystal.alpha = 1e-308", "variance_rho_minus"),
    ])
    def test_out_of_range_is_refused(self, tmp_path, capsys, line, name):
        """A finite input whose variance overflows exits 2 with one line
        naming it, and writes no Infinity (not JSON) and no manifest."""
        key = line.split(" =")[0]
        kept = [ln for ln in CONFIG.splitlines() if not ln.startswith(key)]
        cfgp = tmp_path / "extreme.cfg"
        cfgp.write_text("\n".join(kept + [line]) + "\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["variances", "--config", str(cfgp), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: out of floating-point range: {name} = inf,")
        assert captured.err.count("\n") == 1
        assert not out.exists()


class TestJoint:
    def test_files_and_summary(self, cfg, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["joint", "--config", cfg, "--out", str(out), "--grid", "64"])
        assert code == 0
        assert (out / "joint_momentum_rotated.csv").exists()
        grid = JointGrid.from_json((out / "joint_momentum_rotated.json").read_text())
        assert grid.values.shape == (64, 64)
        assert "mass" in capsys.readouterr().out
        man = _read_json(out / "joint_manifest.json")
        assert man["parameters"]["model"] == {"kind": "sinc", "profile": None}
        assert man["parameters"]["grid"] == 64
        assert sorted(man["outputs"]) == [
            "joint_momentum_rotated.csv",
            "joint_momentum_rotated.json",
        ]
        assert list(man["parameters"]) == ["pump", "crystal", "space", "coords", "grid", "model"]
        assert list(man["parameters"]["pump"]) == ["w", "ell_c", "R", "k_p"]
        assert list(man["parameters"]["crystal"]) == ["L", "z0", "alpha", "beta", "k_p"]

    @pytest.mark.parametrize("model", ["sinc", "profile"])
    def test_manifest_model_matches_grid(self, cfg, tmp_path, capsys, model):
        prof = tmp_path / "stack.csv"
        prof.write_text("0,500,1\n500,1000,-1\n", encoding="utf-8")
        out = tmp_path / "out"
        extra = ["--profile", str(prof)] if model == "profile" else []
        assert main(["joint", "--config", cfg, "--out", str(out), "--grid", "64",
                     "--model", model, *extra]) == 0
        man = _read_json(out / "joint_manifest.json")
        grid = _read_json(out / "joint_momentum_rotated.json")
        assert man["parameters"]["model"] == grid["model"]
        assert grid["model"]["kind"] == model

    def test_deterministic_reruns(self, cfg, tmp_path, capsys):
        """A cold run (the minus-factor cache cleared) and a warm rerun write
        the same data bytes, and manifests that differ only in duration_s."""
        for model, space, coords, grid in (
            ("gauss", "position", "lab", "64"),
            ("sinc", "momentum", "rotated", "64"),
            ("sinc", "position", "rotated", "256"),
            ("sinc", "position", "lab", "256"),
        ):
            # the package's one cache (tests/test_exports.py guards that)
            joint._minus_marginal.cache_clear()
            outs = []
            for name in ("cold", "warm"):
                out = tmp_path / f"{model}_{space}_{coords}" / name
                assert main(["joint", "--config", cfg, "--out", str(out), "--grid", grid,
                             "--space", space, "--coords", coords, "--model", model]) == 0
                outs.append(out)
                # the cold run built its non-Gaussian factor, the warm one reused it
                assert joint._minus_marginal.cache_info().misses == (model != "gauss")
            for fname in (f"joint_{space}_{coords}.csv", f"joint_{space}_{coords}.json"):
                assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
            cold, warm = (_read_json(out / "joint_manifest.json") for out in outs)
            assert cold.pop("duration_s") >= 0.0 and warm.pop("duration_s") >= 0.0
            assert cold == warm

    def test_position_grid_blind_to_coherence(self, tmp_path, capsys):
        csvs, value_arrays = [], []
        for ell_c in ("1", "inf"):
            cfgp = tmp_path / f"c{ell_c}.cfg"
            cfgp.write_text(CONFIG + f"pump.ell_c = {ell_c}\n", encoding="utf-8")
            out = tmp_path / f"out{ell_c}"
            # default 256 cells: the heavy-tailed position window needs them
            main(["joint", "--config", str(cfgp), "--out", str(out),
                  "--space", "position"])
            csvs.append((out / "joint_position_rotated.csv").read_bytes())
            grid = JointGrid.from_json((out / "joint_position_rotated.json").read_text())
            value_arrays.append(grid.values)
        assert csvs[0] == csvs[1]
        assert np.array_equal(value_arrays[0], value_arrays[1])

    def test_grid_too_coarse_exit_code(self, tmp_path, capsys):
        cfgp = tmp_path / "wide.cfg"
        cfgp.write_text(EXIT_FACE, encoding="utf-8")
        code = main(["joint", "--config", str(cfgp), "--out", str(tmp_path / "o"),
                     "--coords", "lab", "--grid", "256"])
        assert code == 2
        err = capsys.readouterr().err
        assert "(suggested minimum count: 671)" in err

    @pytest.mark.parametrize("space,count", [("momentum", 671), ("position", 353)])
    def test_default_grid_takes_the_guards_count(self, tmp_path, capsys, space, count):
        cfgp = tmp_path / "wide.cfg"
        cfgp.write_text(EXIT_FACE, encoding="utf-8")
        out = tmp_path / "o"
        assert main(["joint", "--config", str(cfgp), "--out", str(out), "--space", space, "--coords", "lab"]) == 0
        assert capsys.readouterr().out.startswith(f"joint_{space}_lab: {count}x{count} cells, ")
        assert _read_json(out / "joint_manifest.json")["parameters"]["grid"] == count

    def test_default_grid_above_the_cap(self, tmp_path, capsys):
        cfgp = tmp_path / "wider.cfg"
        cfgp.write_text("pump.w = 1000\npump.k_p = 10\ncrystal.L = 100\n", encoding="utf-8")
        code = main(["joint", "--config", str(cfgp), "--out", str(tmp_path / "o"), "--coords", "lab"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "(suggested minimum count: 20972)" in err
        assert f"more than {joint.MAX_DEFAULT_COUNT} cells" in err


class TestPhaseDiagram:
    def test_csv_and_fractions(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["phase-diagram", "--out", str(out), "--nx", "12", "--ny", "16"])
        assert code == 0
        lines = (out / "phase_diagram.csv").read_text().splitlines()
        assert lines[0] == "x,y,type1,type2,classification"
        assert len(lines) == 12 * 16 + 1
        dual = [ln for ln in lines[1:] if ln.split(",")[2] == "1" and ln.split(",")[3] == "1"]
        assert dual == []
        assert "area fraction" in capsys.readouterr().out
        man = _read_json(out / "phase_diagram_manifest.json")
        assert man["command"] == "phase-diagram"
        assert man["parameters"]["alpha"] == 0.455

    @pytest.mark.parametrize("argv,line,sha256", [
        ([], "phase diagram 60x80, alpha=0.455: type1 area fraction 0.2625, "
             "type2 area fraction 0.1277, neither 0.6098",
         "3c28bdd89605e524ab37ef2ed28ee1c89ee08f58877ead47ffeb55ee853a2bf7"),
        (["--nx", "7", "--ny", "1"], "phase diagram 7x1, alpha=0.455: type1 area fraction 0.0000, "
                                     "type2 area fraction 0.0000, neither 1.0000",
         "2bf27f495f1ae1586112c90b414bc1d6eea8f0223456abf2cd5e838b82e2f6e7"),
    ])
    def test_pinned_output(self, argv, line, sha256, tmp_path, capsys):
        # stdout and CSV bytes as the cell-by-cell sweep wrote them
        out = tmp_path / "out"
        assert main(["phase-diagram", "--out", str(out), *argv]) == 0
        assert capsys.readouterr().out == line + "\n"
        assert hashlib.sha256((out / "phase_diagram.csv").read_bytes()).hexdigest() == sha256

    def test_bad_range(self, tmp_path, capsys):
        code = main(["phase-diagram", "--out", str(tmp_path / "o"), "--x-max", "-1"])
        assert code == 2


class TestPhasematch:
    def test_sinc_first_zero(self, cfg, tmp_path, capsys):
        out = tmp_path / "out"
        dk_max = 16.0 * math.pi / 1000.0
        code = main(["phasematch", "--config", cfg, "--out", str(out),
                     "--dk-max", str(dk_max), "--n", "17"])
        assert code == 0
        lines = (out / "phasematch_sinc.csv").read_text().splitlines()
        assert lines[0] == "delta_kappa,re_chi,im_chi,abs_chi_sq"
        assert len(lines) == 18
        # sample 2 sits exactly at dk = 2 pi / L
        dk, _, _, mod2 = lines[3].split(",")
        assert float(dk) == pytest.approx(2.0 * math.pi / 1000.0, rel=1e-9)
        assert float(mod2) < 1e-20

    def test_dc_row(self, cfg, tmp_path, capsys):
        out = tmp_path / "out"
        main(["phasematch", "--config", cfg, "--out", str(out), "--model", "gauss"])
        first = (out / "phasematch_gauss.csv").read_text().splitlines()[1]
        dk, re, im, mod2 = (float(v) for v in first.split(","))
        assert (dk, re, im, mod2) == (0.0, 1.0, 0.0, 1.0)

    def test_profile_model(self, cfg, tmp_path, capsys):
        prof = tmp_path / "stack.csv"
        prof.write_text("0,50,1\n50,100,-1\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["phasematch", "--config", cfg, "--out", str(out),
                     "--model", "profile", "--profile", str(prof), "--n", "64"])
        assert code == 0
        man = _read_json(out / "phasematch_manifest.json")
        assert man["parameters"]["model"] == {
            "kind": "profile", "profile": [[0.0, 50.0, 1.0], [50.0, 100.0, -1.0]],
        }

    def test_bad_n(self, cfg, tmp_path, capsys):
        assert main(["phasematch", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--n", "1"]) == 2


class TestValidate:
    def test_report_carries_every_field(self, tmp_path, capsys, monkeypatch):
        results = [
            CheckResult("below", True, 1e-12, 1e-9),
            CheckResult("above", True, 6.0, 0.01, comparison=">", detail="why"),
            CheckResult("broken", False, 1.0, 1e-9),
        ]
        monkeypatch.setattr(validation, "run_all", lambda: results)
        out = tmp_path / "out"
        assert main(["validate", "--out", str(out)]) == 1
        report = _read_json(out / "validate_report.json")
        assert [list(entry) for entry in report] == [list(CheckResult._fields)] * len(results)
        assert report == [r._asdict() for r in results]
        assert "validation failed at: broken" in capsys.readouterr().err


def _readme_commands():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("spdc ")]


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_runs(line, tmp_path, capsys, monkeypatch):
    """Every `spdc` line of the README's command-line block exits 0, run
    from the repository root with its outputs sent to a scratch directory."""
    argv = shlex.split(line)[1:]
    if "--out" in argv:
        i = argv.index("--out")
        del argv[i:i + 2]
    monkeypatch.chdir(ROOT)
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0


# the extreme-input matrix: each key of CONFIG's pump and crystal set to each
# value, past the float range from both ends and negative
KEYS = ("pump.w", "pump.k_p", "pump.ell_c", "pump.R", "crystal.L", "crystal.z0", "crystal.alpha")
VALUES = ("5e-324", "1e-308", "1e-300", "1e-160", "1e-100", "1e-20", "1e20", "1e100", "1e160",
          "1e300", "1e308", "1.7e308", "-1e300")
MATRIX = [(f"{key} = {value}", space, model) for key in KEYS for value in VALUES
          for space in ("momentum", "position") for model in ("sinc", "gauss")]
# these rows refuse only by naming what failed: a variance or product
# (params._closed_form), a parameter, or a grid too coarse for the factor
NAMING_KEYS = ("pump.w", "pump.ell_c", "pump.R", "crystal.alpha")
NAMES = re.compile(r"^(variance_(rho|q)_(plus|minus)|product_(pm|mp))( = |: )|^invalid parameter '|^grid too coarse: ")
# a position grid is blind to the pump's coherence: at default axes it runs
# for every valid ell_c, as at ell_c = inf
COHERENCE_BLIND = ["joint", "--space", "position"]
# the hand-picked refusals the matrix grew from: each id also runs joint --grid
# 64 at default coords, which exits 2 naming the parameter a rule refuses or
# the variance that left the float range (the L = 1e300 line, not yet)
EXTREME = {
    ("crystal.z0 = 1e300", "position", "sinc"): "invalid parameter 'z0'",  # L vanishes next to z0
    ("pump.w = 1e-300", "momentum", "sinc"): "variance_q_plus: float division by zero",
    ("pump.w = 1e-300", "position", "sinc"): "variance_rho_plus = 0.0, need a positive finite value",
    ("pump.ell_c = 1e-300", "momentum", "sinc"): "variance_q_plus: float division by zero",
    ("crystal.L = 1e300", "momentum", "sinc"): "float division by zero",
    ("crystal.L = 5e-324", "momentum", "sinc"): "invalid parameter 'L'",  # chi2 = 1/L overflows
    ("pump.w = 1e300", "momentum", "sinc"): "variance_q_plus: Numerical result out of range",
    ("pump.w = 1e-160", "momentum", "sinc"): "variance_q_plus = inf, need a positive finite value",
    ("pump.w = 1e-160", "momentum", "gauss"): "variance_q_plus = inf, need a positive finite value",
    ("crystal.alpha = 1e-308", "position", "gauss"): "variance_rho_minus = inf, need a positive finite value",
    ("pump.R = 1e-300", "momentum", "sinc"): "variance_q_plus: Numerical result out of range",
}
# every run parses with one parser: building it is most of a refused run's time
PARSER = cli._build_parser()


class TestErrorPaths:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["variances", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_config_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("pump.w = 10\npump.oops = 3\n", encoding="utf-8")
        code = main(["variances", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert ":2:" in capsys.readouterr().err

    def test_profile_flag_wiring(self, cfg, tmp_path, capsys):
        assert main(["joint", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--model", "profile"]) == 2
        prof = tmp_path / "p.csv"
        prof.write_text("0,50,1\n", encoding="utf-8")
        assert main(["joint", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--model", "sinc", "--profile", str(prof)]) == 2

    def test_nondegenerate_beta(self, tmp_path, capsys):
        cfgp = tmp_path / "beta.cfg"
        cfgp.write_text(CONFIG + "crystal.beta = 2\n", encoding="utf-8")
        code = main(["joint", "--config", str(cfgp), "--out", str(tmp_path / "o"),
                     "--model", "gauss", "--grid", "64"])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "degenerate" in err[0]

    def test_malformed_profile(self, cfg, tmp_path, capsys):
        prof = tmp_path / "p.csv"
        prof.write_text("0,50\n", encoding="utf-8")
        code = main(["phasematch", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--model", "profile", "--profile", str(prof)])
        assert code == 2

    def test_profile_typo_on_first_row(self, cfg, tmp_path, capsys):
        """A typo on line 1 is reported, not taken for a header and dropped."""
        prof = tmp_path / "p.csv"
        prof.write_text("0,5OO,1\n500,1000,-1\n", encoding="utf-8")
        code = main(["joint", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--model", "profile", "--profile", str(prof), "--grid", "64"])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "p.csv:1:" in err[0]

    @pytest.mark.parametrize("flag, value", [
        ("--alpha", "0"), ("--alpha", "-0.5"), ("--alpha", "nan"), ("--alpha", "inf"),
        ("--x-max", "nan"), ("--x-max", "inf"), ("--y-max", "nan"), ("--y-max", "inf"),
        ("--y-max", "0"), ("--nx", "0"),
    ])
    def test_phase_diagram_bad_numbers(self, tmp_path, capsys, flag, value):
        out = tmp_path / "o"
        code = main(["phase-diagram", "--out", str(out), "--nx", "4", "--ny", "4", flag, value])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (out / "phase_diagram.csv").exists()

    @pytest.mark.parametrize("line, space, model", MATRIX, ids=[
        f"{line}-{space}" + ("" if model == "sinc" else f"-{model}") for line, space, model in MATRIX
    ])
    def test_extreme_finite_config(self, tmp_path_factory, monkeypatch, capsys, line, space, model):
        """joint on both coords at --grid 16, variances once a line, on the
        pump.ell_c lines a position grid at default axes and on EXTREME's
        ids joint --grid 64: each exits 0 or 2, EXTREME's 2.  An exit 2
        prints one error line, a message (not an exception's args tuple),
        nothing else and no output directory; variances writes no non-finite
        number.  The suite turns a numpy warning into an error."""
        monkeypatch.setattr(cli, "_build_parser", lambda: PARSER)  # parse_args keeps no state
        key = line.split(" =")[0]
        # not tmp_path: making one for each of these items scans every earlier one
        run = tmp_path_factory.getbasetemp() / f"{line}-{space}-{model}"
        cfgp = Path(f"{run}.cfg")
        cfgp.write_text("\n".join([ln for ln in CONFIG.splitlines() if not ln.startswith(key)] + [line]) + "\n",
                        encoding="utf-8")
        commands = [["joint", "--space", space, "--model", model, "--coords", coords, "--grid", "16"]
                    for coords in ("rotated", "lab")]
        if (space, model) == ("momentum", "sinc"):  # variances reads neither
            commands.append(["variances"])
        if (space, model) == ("position", "sinc") and key == "pump.ell_c":
            commands.append(COHERENCE_BLIND)
        hand_picked = ["joint", "--space", space, "--model", model, "--grid", "64"]
        if (line, space, model) in EXTREME:
            commands.append(hand_picked)
        for i, argv in enumerate(commands):
            out = run / str(i)
            code = main([argv[0], "--config", str(cfgp), "--out", str(out), *argv[1:]])
            printed, err = capsys.readouterr()
            if code == 0 and err == "" and argv is not hand_picked:
                if argv[0] == "variances":
                    json.loads((out / "variances.json").read_text(encoding="utf-8"), parse_constant=pytest.fail)
                continue
            assert code == 2 and not printed and err.startswith("error: ") and err.count("\n") == 1, (argv, code, err)
            detail = err.removeprefix("error: ").removeprefix("out of floating-point range: ")
            assert detail[:1].isalpha(), (argv, err)
            assert key not in NAMING_KEYS or NAMES.search(detail), (argv, err)
            assert not detail.startswith("invalid parameter") or f"'{key.split('.')[1]}'" in detail, err
            assert argv != COHERENCE_BLIND or detail.startswith("invalid parameter 'ell_c'"), err
            assert argv is not hand_picked or detail.startswith(EXTREME[line, space, model]), err
            assert not out.exists(), argv

    @pytest.mark.parametrize("coords", ["rotated", "lab"])
    @pytest.mark.parametrize("space", ["momentum", "position"])
    def test_tiny_crystal_length(self, tmp_path, capsys, recwarn, space, coords):
        """A crystal so short that the minus factor overflows exits 2 with
        one line, and numpy warns of nothing on the way."""
        cfgp = tmp_path / "tiny.cfg"
        cfgp.write_text("pump.w = 10\npump.k_p = 10\ncrystal.L = 1e-300\n", encoding="utf-8")
        out = tmp_path / "o"
        code = main(["joint", "--config", str(cfgp), "--out", str(out), "--space", space,
                     "--coords", coords, "--grid", "64"])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: out of floating-point range: ")
        assert err[0].removeprefix("error: out of floating-point range: ")[:1].isalpha()
        assert not out.exists()
        assert len(recwarn) == 0

    def test_out_of_memory(self, cfg, tmp_path, capsys, monkeypatch):
        """A grid too large to allocate exits 2 with one line.  The fill is
        stubbed: on a host that overcommits memory a real allocation of the
        grid can succeed, and filling it would touch every page."""
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)")

        monkeypatch.setattr(cli, "evaluate_grid", too_large)
        out = tmp_path / "o"
        code = main(["joint", "--config", cfg, "--out", str(out), "--model", "gauss", "--grid", "1000000"])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: out of memory: Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)"]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_phasematch_bad_dk_max(self, cfg, tmp_path, capsys, value):
        out = tmp_path / "o"
        code = main(["phasematch", "--config", cfg, "--out", str(out), "--dk-max", value])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (out / "phasematch_sinc.csv").exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert "spdc" in capsys.readouterr().out
