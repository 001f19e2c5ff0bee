#!/usr/bin/env python3
"""Compare the benchmark of two source trees over alternating pairs of runs.

    python tools/bench_pairs.py OLD_TREE NEW_TREE --workload W --seeds A-B [--out FILE]

For each seed from A to B, one pair of runs: each tree's own
``perfbench/run.py --workload W --seed N --trace 0`` in its own process,
with the tree as working directory.  OLD_TREE (the parent) goes first in
the 1st, 3rd, ... pair and NEW_TREE (the change) in the 2nd, 4th, ...
Each run lasts its tree's BENCHMARK.json run_seconds, as the benchmark sets.

Per end-to-end metric of OLD_TREE's BENCHMARK.json, the summary holds each
side's runs, median and quartiles (linear interpolation), ``change_won``
(pairs where the change is better, ties are not), the median change, and
the gap between the medians over the parent's interquartile distance.
A metric is ``unresolved`` when either side's interquartile distance over
its median exceeds the metric's bound: its runs spread too widely to
tell, unless ``every_change_run_better`` (no run of the change is as bad
as the parent's best).  Two readings are flagged ``low_confidence`` whatever their
spread: every validate metric, because that workload times one op per
pass and three passes a run, so run_s equals op_p50_s and rests on three
samples; and peak_rss_mb, which reads the heap's layout (where a few
small objects landed) more than the memory a workload holds.

The summary also records the error rate, the ops attempted, whether every
op passed its check, and the output digest of each run.  With ``--out``,
the workload's entry is merged into FILE (kept in BENCH_*.json layout),
so one file collects several workloads, and a second seed range of a
workload already there goes inside its entry as ``seeds_A_B``; without
it the JSON goes to standard output.  Progress goes to standard error.  Exit code 0 when
every run succeeded, 2 when a run failed or printed no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

LOW_CONFIDENCE_WORKLOADS = {
    "validate": "one op per pass and three passes a run: run_s equals op_p50_s and rests on three samples",
}
LOW_CONFIDENCE_METRICS = {
    "peak_rss_mb": "reads the heap's layout (where a few small objects landed), not the memory held",
}
DIGEST = re.compile(r"outputs sha256 = (\S+)")
RUN_TIMEOUT_S = 600


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One benchmark run of tree: its result JSON plus the output digest."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree.name}: seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    found = DIGEST.search(proc.stdout)
    result["digest"] = found.group(1) if found else None
    return result


def _sig(x: float) -> float:
    return float(f"{x:.6g}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) by linear interpolation, as numpy's percentile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize_metric(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, quartiles, wins and resolvability of one metric."""
    entry, spread = {}, {}
    for side, runs in (("parent", parent), ("change", change)):
        q1, median, q3 = quartiles(runs)
        entry[side] = {"median": _sig(median), "q1": _sig(q1), "q3": _sig(q3)}
        spread[side] = _sig((q3 - q1) / median) if median else 0.0
    won = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    (p_q1, p_med, p_q3), (_, c_med, _) = quartiles(parent), quartiles(change)
    return {
        **entry,
        "change_won": f"{won}/{len(parent)}",
        "share_won": won / len(parent),
        "median_change": f"{(c_med / p_med - 1.0) * 100.0:+.1f}%" if p_med else "n/a",
        "gap_over_parent_iqr": _sig(abs(p_med - c_med) / (p_q3 - p_q1)) if p_q3 > p_q1 else None,
        "spread_over_median": spread,
        "unresolved": any(s > bound for s in spread.values()),
        # settles an unresolved metric: no overlap between the two sides' runs
        "every_change_run_better": max(change) < min(parent) if better == "lower" else min(change) > max(parent),
        "parent_runs": parent,
        "change_runs": change,
    }


def summarize(workload: str, seeds: list[int], runs: dict, order: list[str], spec: dict) -> dict:
    """The BENCH_*.json entry of one workload from both sides' runs."""
    entry = {"pairs": len(seeds), "seeds": f"{seeds[0]}-{seeds[-1]}", "end_to_end": {}}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        summary = summarize_metric(values["parent"], values["change"], metric["better"], metric["bound"])
        if name in LOW_CONFIDENCE_METRICS:
            summary["low_confidence"] = LOW_CONFIDENCE_METRICS[name]
        entry["end_to_end"][name] = summary
    entry["error_rate"] = {
        side: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs)) for side, rs in runs.items()
    }
    entry["ops_attempted"] = {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()}
    entry["all_correct"] = all(r["correct"] for rs in runs.values() for r in rs)
    entry["first_in_pair"] = order
    entry["digests_unchanged_every_seed"] = all(
        p["digest"] == c["digest"] for p, c in zip(runs["parent"], runs["change"])
    )
    entry[f"digest_seed{seeds[0]}"] = {side: rs[0]["digest"] for side, rs in runs.items()}
    if workload in LOW_CONFIDENCE_WORKLOADS:
        entry["low_confidence"] = LOW_CONFIDENCE_WORKLOADS[workload]
    return entry


def parse_seeds(text: str) -> list[int]:
    lo, sep, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi) + 1)) if sep else [int(lo)]
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def host() -> str:
    import numpy

    return (f"{os.cpu_count()}-CPU {platform.machine()} {platform.system()}, "
            f"Python {platform.python_version()} with numpy {numpy.__version__}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path, help="the parent's source tree")
    ap.add_argument("new", type=Path, help="the change's source tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, both included")
    ap.add_argument("--out", type=Path, default=None, help="merge the workload's entry into this JSON file")
    args = ap.parse_args(argv)
    spec = json.loads((args.old / "BENCHMARK.json").read_text(encoding="utf-8"))
    trees = {"parent": args.old.resolve(), "change": args.new.resolve()}
    runs = {"parent": [], "change": []}
    order = []
    try:
        for k, seed in enumerate(args.seeds):
            sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            order.append(sides[0])
            for side in sides:
                result = run_once(trees[side], args.workload, seed)
                runs[side].append(result)
                run_s = result["metrics"].get("run_s", {}).get("value")
                print(f"{args.workload} seed {seed} {side}: run_s {run_s}", file=sys.stderr)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    entry = summarize(args.workload, args.seeds, runs, order, spec)
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out and args.out.exists() else {}
    doc["host"] = host()
    doc["method"] = (
        "tools/bench_pairs.py OLD_TREE NEW_TREE --workload <w> --seeds <A-B>: "
        "perfbench/run.py --trace 0 of each tree in its own process, the parent first in the "
        "1st, 3rd, ... pair; quartiles by linear interpolation over each side's runs; change_won "
        "counts pairs where the change is better; unresolved when either side's interquartile "
        "distance over its median exceeds the metric's BENCHMARK.json bound"
    )
    workloads = doc.setdefault("workloads", {})
    first = workloads.get(args.workload)
    if first is not None and first.get("seeds") not in (None, entry["seeds"]):
        # another seed range of a workload already in the file, held-out seeds say
        first[f"seeds_{args.seeds[0]}_{args.seeds[-1]}"] = entry
    else:
        workloads[args.workload] = entry
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
