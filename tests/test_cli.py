"""Command-line surface: outputs, manifests, determinism, exit codes.
Everything runs in-process through cli.main."""

import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from spdc_coherence import joint, phasematch, validation
from spdc_coherence.cli import main
from spdc_coherence.joint import JointGrid
from spdc_coherence.validation import CheckResult

ROOT = Path(__file__).resolve().parent.parent

CONFIG = "pump.w = 10\npump.k_p = 10\ncrystal.L = 1000\n"


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
        """A cold run (minus-factor caches cleared) and a warm rerun write
        the same data bytes, and manifests that differ only in duration_s."""
        for model, space, coords, grid in (
            ("gauss", "position", "lab", "64"),
            ("sinc", "momentum", "rotated", "64"),
            ("sinc", "position", "rotated", "256"),
            ("sinc", "position", "lab", "256"),
        ):
            joint._minus_marginal.cache_clear()
            phasematch._position_table.cache_clear()
            outs = []
            for name in ("cold", "warm"):
                out = tmp_path / f"{model}_{space}_{coords}" / name
                assert main(["joint", "--config", cfg, "--out", str(out), "--grid", grid,
                             "--space", space, "--coords", coords, "--model", model]) == 0
                outs.append(out)
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
        cfgp.write_text("pump.w = 100\npump.k_p = 10\ncrystal.L = 1000\n", encoding="utf-8")
        code = main(["joint", "--config", str(cfgp), "--out", str(tmp_path / "o"),
                     "--coords", "lab"])
        assert code == 2
        err = capsys.readouterr().err
        assert "suggested minimum count" in err


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

    @pytest.mark.parametrize("line, space", [
        ("crystal.z0 = 1e300", "position"),  # L vanishes next to z0
        ("pump.w = 1e-300", "momentum"),
        ("pump.ell_c = 1e-300", "momentum"),
        ("crystal.L = 1e300", "momentum"),
        ("pump.w = 1e300", "momentum"),
        ("pump.R = 1e-300", "momentum"),
    ])
    def test_extreme_finite_config(self, tmp_path, capsys, line, space):
        key = line.split(" =")[0]
        kept = [ln for ln in CONFIG.splitlines() if not ln.startswith(key)]
        cfgp = tmp_path / "extreme.cfg"
        cfgp.write_text("\n".join(kept + [line]) + "\n", encoding="utf-8")
        out = tmp_path / "o"
        code = main(["joint", "--config", str(cfgp), "--out", str(out), "--space", space,
                     "--grid", "64"])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()

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
        assert len(err) == 1 and err[0].startswith("error: out of floating-point range:")
        assert not out.exists()
        assert len(recwarn) == 0

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
