"""tools/same_bytes.py: the byte comparison of two source trees."""

import hashlib
import importlib.util
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_bytes.py"

_spec = importlib.util.spec_from_file_location("same_bytes", TOOL)
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)


def test_tree_matches_itself():
    """The working tree against itself on the exit-face config: twelve
    joint runs, every file identical, exit 0."""
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--only", "joint-exit_face-"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1].startswith("12 runs, ") and lines[-1].endswith(", 0 differ")
    files = [line.split("  ", 1)[1] for line in lines[:-1]]
    assert "joint-exit_face-position-rotated-poled_pair/joint_position_rotated.json" in files
    runs = {path.split("/", 1)[0] for path in files}
    assert len(runs) == 12 and all(f"{run}/exit_code" in files for run in runs)


def test_kernels_match_themselves():
    """The working tree's kernel digests against themselves: ten kernels,
    every file identical, exit 0, and each kernel's one call gives the
    same bytes as its 30 x 40 call."""
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--only", "kernel-"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1].startswith(f"{len(same_bytes.KERNELS)} runs, ") and lines[-1].endswith(", 0 differ")
    digest = {path: sha for sha, path in (line.split("  ", 1) for line in lines[:-1])}
    for name in same_bytes.KERNELS:
        assert digest[f"kernel-{name}/exit_code"] == hashlib.sha256(b"0\n").hexdigest()  # no exception
        assert digest[f"kernel-{name}/one_call"] == digest[f"kernel-{name}/grid_30x40"]


def test_run_without_exit_code_fails(tmp_path):
    """A tree whose cli ends the process before the worker records the run
    leaves no exit_code: exit 2, not an identical comparison."""
    pkg = tmp_path / "src" / "spdc_coherence"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text("import os\n\n\ndef main(argv):\n    os._exit(0)\n")
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(tmp_path), "--only", "phase-diagram"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.strip() == "error: no exit_code from new/phase-diagram"


def test_matrix_covers_every_command(tmp_path):
    names = [name for name, _ in same_bytes.write_inputs(ROOT, tmp_path)]
    assert len(names) == 3 * 2 * 2 * 3 + 10 + 8
    pumps = ("w_1e-160", "w_1e-300", "ell_c_1e160")  # each refused by variances and momentum joint
    assert {"phasematch-sinc", "phasematch-gauss", "phase-diagram", "validate", "variances-example",
            *(f"variances-exit_face-{n}" for n in (*pumps, "L_5e-324", "alpha_1e-308")),
            *(f"joint-momentum-{m}-exit_face-{n}" for m in ("sinc", "gauss") for n in pumps),
            "joint-position-sinc-exit_face-w_1e-300", "joint-position-gauss-exit_face-alpha_1e-308"} <= set(names)
    assert "pump.w = 1e-160\n" in (tmp_path / "exit_face-w_1e-160.cfg").read_text()
    assert (tmp_path / "exit_face-alpha_1e-308.cfg").read_text().endswith("crystal.alpha = 1e-308\n")
    # the poled pair fills the thin crystal [z0 - L, z0] = [0.6, 0.7]
    assert (tmp_path / "thin_poled_pair.csv").read_text().splitlines() == [
        f"{0.7 - 0.1!r},{0.7 - 0.05!r},1", f"{0.7 - 0.05!r},0.7,-1",
    ]


def test_timings_are_masked(tmp_path):
    for side, (duration, seconds) in {"old": ("0.123", "0.4"), "new": ("1.5e-05", "12.0")}.items():
        run = tmp_path / side / "validate"
        run.mkdir(parents=True)
        (run / "validate_manifest.json").write_text(f'{{\n "outputs": [],\n "duration_s": {duration}\n}}\n')
        (run / "stdout").write_text(f"all 11 checks passed in {seconds} s\n")
    lines, differ = same_bytes.compare(same_bytes.digests(tmp_path / "old"), same_bytes.digests(tmp_path / "new"))
    assert (len(lines), differ) == (2, [])


def test_differences_and_missing_files_are_reported():
    lines, differ = same_bytes.compare({"a": "1", "b": "2"}, {"a": "1", "b": "3", "c": "4"})
    assert differ == ["b", "c"]
    assert lines == ["1  a", "2 -> 3  b", "missing -> 4  c"]
