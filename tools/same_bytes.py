#!/usr/bin/env python3
"""Compare the output bytes of two source trees of this package.

    python tools/same_bytes.py OLD_TREE NEW_TREE [--only TEXT]

Each tree's ``cli.main`` runs one fixed matrix of commands in its own
Python process, with that tree's ``src`` first on the path:

* ``joint`` for three configs (``configs/example.cfg``; an exit-face
  crystal, w = 100 um, k_p = 10 rad/um, L = 1000 um; a thin crystal,
  L = 0.1 um with z0 = 0.7 um, under a w = 0.1 um pump) x
  {momentum, position} x {rotated, lab} x {sinc, gauss, a poled pair
  filling the crystal's [z0 - L, z0]};
* ``phasematch`` for sinc and gauss on the example config;
* ``phase-diagram`` and ``validate`` at their defaults.

Every run keeps its files plus ``exit_code``, ``stdout`` and ``stderr``:
an exit code of 2 is a result like any other.  Manifests' ``duration_s``
and validate's "passed in X s" are masked before hashing.  The script
prints one SHA-256 per file (old -> new where they differ), then the
files that differ, and exits 1 on any difference, 0 when every file
matches, and 2 when a worker fails or a run left no ``exit_code``.  The
inputs and outputs live in one temporary directory, the inputs shared by
both trees; the example config is read from OLD_TREE.  ``--only TEXT``
keeps the runs whose name contains TEXT.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

# (name, config text); example.cfg is copied from the old tree
CONFIGS = {
    "exit_face": "pump.w = 100\npump.k_p = 10\ncrystal.L = 1000\n",
    "thin": "pump.w = 0.1\npump.k_p = 10\ncrystal.L = 0.1\ncrystal.z0 = 0.7\n",
}
MASKS = [
    (re.compile(rb'"duration_s": [^,\n}]+'), b'"duration_s": "*"'),
    (re.compile(rb"passed in \S+ s"), b"passed in * s"),
]


def _crystal(text: str) -> tuple[float, float]:
    # (L, z0) of a config, z0 defaulting to L: where the poled pair goes
    fields = {}
    for line in text.splitlines():
        key, eq, val = line.split("#", 1)[0].partition("=")
        if eq:
            fields[key.strip()] = float(val)
    length = fields["crystal.L"]
    return length, fields.get("crystal.z0", length)


def write_inputs(old_tree: Path, inputs: Path) -> list[tuple[str, list[str]]]:
    """Write the configs and poled-pair profiles into inputs and return
    the matrix as (run name, argv without --out)."""
    configs = {"example": (old_tree / "configs" / "example.cfg").read_text(encoding="utf-8"), **CONFIGS}
    runs = []
    for name, text in configs.items():
        cfg = inputs / f"{name}.cfg"
        cfg.write_text(text, encoding="utf-8")
        length, z0 = _crystal(text)
        lo, mid = z0 - length, z0 - 0.5 * length
        pair = inputs / f"{name}_poled_pair.csv"
        pair.write_text(f"{lo!r},{mid!r},1\n{mid!r},{z0!r},-1\n", encoding="utf-8")
        models = {
            "sinc": ["--model", "sinc"],
            "gauss": ["--model", "gauss"],
            "poled_pair": ["--model", "profile", "--profile", str(pair)],
        }
        for space in ("momentum", "position"):
            for coords in ("rotated", "lab"):
                for model, flags in models.items():
                    argv = ["joint", "--config", str(cfg), "--space", space, "--coords", coords, *flags]
                    runs.append((f"joint-{name}-{space}-{coords}-{model}", argv))
    for model in ("sinc", "gauss"):
        runs.append((f"phasematch-{model}", ["phasematch", "--config", str(inputs / "example.cfg"), "--model", model]))
    runs.append(("phase-diagram", ["phase-diagram"]))
    runs.append(("validate", ["validate"]))
    return runs


def worker(tree: Path, out: Path, matrix: Path) -> None:
    """Run the matrix through tree's cli.main, one output directory a run."""
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    from spdc_coherence import cli

    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported {cli.__file__}, not the package under {src}")
    for name, argv in json.loads(matrix.read_text(encoding="utf-8")):
        run = out / name
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = cli.main([*argv, "--out", str(run)])
            except SystemExit as exc:  # argparse rejects its input
                code = exc.code
            except Exception as exc:  # a result too: its type and message, not line numbers
                code = "exception"
                stderr.write("".join(traceback.format_exception_only(type(exc), exc)))
        run.mkdir(parents=True, exist_ok=True)
        for field, text in (("exit_code", f"{code}\n"), ("stdout", stdout.getvalue()), ("stderr", stderr.getvalue())):
            (run / field).write_text(text, encoding="utf-8")


def digests(root: Path) -> dict[str, str]:
    """SHA-256 of every file under root, masked, keyed by relative path."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        for pattern, repl in MASKS:
            data = pattern.sub(repl, data)
        out[path.relative_to(root).as_posix()] = hashlib.sha256(data).hexdigest()
    return out


def compare(old: dict[str, str], new: dict[str, str]) -> tuple[list[str], list[str]]:
    """(one line per file, the files that differ); a file missing from one
    side differs."""
    lines, differ = [], []
    for path in sorted(old.keys() | new.keys()):
        a, b = old.get(path, "missing"), new.get(path, "missing")
        lines.append(f"{a}  {path}" if a == b else f"{a} -> {b}  {path}")
        if a != b:
            differ.append(path)
    return lines, differ


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path, help="reference source tree (holds src/ and configs/)")
    ap.add_argument("new", type=Path, help="source tree to compare with it")
    ap.add_argument("--only", default="", help="keep the runs whose name contains this text")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_bytes-") as tmp:
        base = Path(tmp).resolve()
        inputs = base / "inputs"
        inputs.mkdir()
        runs = [run for run in write_inputs(args.old, inputs) if args.only in run[0]]
        if not runs:
            ap.error(f"no run name contains {args.only!r}")
        matrix = inputs / "matrix.json"
        matrix.write_text(json.dumps(runs), encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        procs = []
        for side, tree in (("old", args.old), ("new", args.new)):
            out = base / side
            out.mkdir()
            cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree.resolve()), str(out), str(matrix)]
            procs.append(subprocess.Popen(cmd, cwd=tmp, env=env))
        if any([proc.wait() != 0 for proc in procs]):  # wait for both
            print("error: a worker failed", file=sys.stderr)
            return 2
        old, new = digests(base / "old"), digests(base / "new")
        unrun = [f"{side}/{name}" for side, found in (("old", old), ("new", new))
                 for name, _ in runs if f"{name}/exit_code" not in found]
        if unrun:  # a worker that stopped early must not compare as identical
            print(f"error: no exit_code from {', '.join(unrun)}", file=sys.stderr)
            return 2
        lines, differ = compare(old, new)
    print("\n".join(lines))
    for path in differ:
        print(f"differ: {path}")
    print(f"{len(runs)} runs, {len(lines)} files, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(*map(Path, sys.argv[2:5]))
    else:
        sys.exit(main())
