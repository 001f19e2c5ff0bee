"""The two scripts in scripts/ and the README's Python example run end to
end, in-process, on small inputs."""

import pathlib
import runpy
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


@pytest.mark.parametrize(
    "name,argv,expected",
    [
        ("momentum_correlation_vs_coherence.py", ["--points", "3"], "diag width"),
        ("entanglement_phase_diagram.py", ["--nx", "12", "--ny", "6"], "'#' immune witness"),
    ],
)
def test_script_runs(name, argv, expected, monkeypatch, capsys, tmp_path):
    csv_path = tmp_path / "out.csv"
    monkeypatch.setattr(sys, "argv", [name, *argv, "--csv", str(csv_path)])
    with pytest.raises(SystemExit) as exc_info:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert exc_info.value.code == 0
    assert expected in capsys.readouterr().out
    assert csv_path.read_text(encoding="utf-8").strip()


@pytest.mark.parametrize(
    "name,argv",
    [
        ("momentum_correlation_vs_coherence.py", ["--points", "1"]),
        ("momentum_correlation_vs_coherence.py", ["--w", "0"]),
        ("momentum_correlation_vs_coherence.py", ["--L", "nan"]),
        ("entanglement_phase_diagram.py", ["--nx", "0"]),
        ("entanglement_phase_diagram.py", ["--x-max", "0"]),
        ("entanglement_phase_diagram.py", ["--alpha", "nan"]),
    ],
)
def test_script_rejects_bad_input(name, argv, monkeypatch, capsys, tmp_path):
    csv_path = tmp_path / "out.csv"
    monkeypatch.setattr(sys, "argv", [name, *argv, "--csv", str(csv_path)])
    with pytest.raises(SystemExit) as exc_info:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert exc_info.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith(f"{name}: error:")
    assert not csv_path.exists()


def test_readme_python_example_runs(capsys):
    """The README's one Python block runs as written, so a renamed library
    name fails here rather than in a reader's session."""
    blocks = (ROOT / "README.md").read_text(encoding="utf-8").split("```python\n")[1:]
    assert len(blocks) == 1
    exec(compile(blocks[0].split("```", 1)[0], "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("WitnessReport(") and "# joint density, space=momentum, coords=rotated" in out
