"""tools/same_bytes.py: the byte comparison of two source trees."""

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
    assert "joint-exit_face-momentum-lab-sinc/exit_code" in files  # exit 2 is recorded, not skipped


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
    assert len(names) == 3 * 2 * 2 * 3 + 4
    assert {"phasematch-sinc", "phasematch-gauss", "phase-diagram", "validate"} <= set(names)
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
