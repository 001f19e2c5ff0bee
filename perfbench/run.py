#!/usr/bin/env python3
"""Benchmark of the spdc_coherence package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold_joint --seed 1 --seconds 24 --trace 0

Workloads (all closed loops with one client; see BENCHMARK.json for why
each was chosen): cold_joint, survey, lab_export, validate, or ``all``.
With ``--trace 0`` the last line of standard output is one JSON object
holding the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced pass.  ``--seconds`` sets the amount of work: it is
divided by each workload's pass cost at the seed commit to get a pass
count, so every commit runs the same passes; it defaults to BENCHMARK.json's
``run_seconds``.

Set-up is measured in several separate processes (SETUP_SAMPLES) and
reported as the median.  The package is imported from ``src/`` of the
checkout; the benchmark writes only under ``.perfbench_tmp/`` (removed on exit) and
``.perfbench_out/`` (span dumps of traced runs).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("cold_joint", "survey", "lab_export", "validate")
# set-up processes per run; lab_export's set-up builds factors for ~2.7 s
# and is steady with few samples, the others take 0.2-0.6 s and are not
SETUP_SAMPLES = {"cold_joint": 9, "survey": 9, "lab_export": 3, "validate": 9}
RUN_BUDGET_S = 170  # every process of one workload run ends within this


def tail_percentile(samples) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten
    samples above it: the (n-10)-th smallest sample.  With ten or fewer
    samples there is none; the smallest sample stands in."""
    ordered = sorted(samples)
    k = max(1, len(ordered) - 10)
    return 100.0 * k / len(ordered), ordered[k - 1]


def _worker(root: Path, args, tmp: Path, result: Path, setup_only: bool, spans: Path | None, deadline: float):
    cmd = [
        sys.executable, str(root / "perfbench" / "worker.py"),
        "--workload", args.workload_name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--tmp", str(tmp), "--result", str(result),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ)
    # one lab-fill thread in every measured pass: two fill threads on the two
    # shared cores made lab_export's op times bimodal from run to run.  The
    # traced lab_export run adds one threaded pass for thread_speedup.
    env["SPDC_THREADS"] = "1"
    env.pop("PYTHONPATH", None)
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {args.workload_name} exited {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def run_workload(root: Path, spec: dict, args) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    tmp = root / ".perfbench_tmp" / f"{args.workload_name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_SAMPLES[args.workload_name] - 1):
                probe = _worker(root, args, tmp / f"setup{k}", tmp / f"setup{k}.json", True, None, deadline)
                setups.append(probe["setup_s"])
        spans = root / ".perfbench_out" / f"spans-{args.workload_name}-seed{args.seed}.jsonl" if args.trace else None
        res = _worker(root, args, tmp / "main", tmp / "main.json", False, spans, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setups.append(res["setup_s"])

    passes = res["passes"]
    times = [t for p in passes for t in p["times"]]
    problems = [msg for p in passes for op in p["problems"] for msg in op]
    failed = sum(1 for p in passes for op in p["problems"] if op)
    attempted = len(times)
    pct, tail = tail_percentile(times)
    measured = {
        "run_s": statistics.median(sum(p["times"]) for p in passes),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    if args.trace:
        wanted = spec["per_layer"]
        measured = res["per_layer"]
    else:
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}

    name = args.workload_name
    print(f"== {name}  seed {args.seed}  trace {args.trace}  {len(passes)} passes x {len(passes[0]['times'])} ops"
          f"  SPDC_THREADS={res['threads']}")
    for key, m in metrics.items():
        print(f"{name}  {key} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{name}  op_tail_s is p{pct:.1f} of {attempted} op samples")
        print(f"{name}  setup_s samples = {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"{name}  error_rate = {failed}/{attempted} = {failed / attempted:.4g}")
    print(f"{name}  pair_reuse_share = {res['pair_reuse_share']:.4g}")
    print(f"{name}  outputs sha256 = {res['digest']}")
    for msg in problems[:10]:
        print(f"{name}  FAILED: {msg.strip()}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="spdc_coherence benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "spdc_coherence" / "__init__.py").is_file():
        print("error: run from the root of a checkout: src/spdc_coherence not found", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    results = {}
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        args.workload_name = name
        try:
            results[name] = run_workload(root, spec, args)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
