"""One benchmark process: import the package from the checkout, set up one
workload, run its passes, and write the raw measurements as JSON.

Started by run.py; not meant to be run by hand.  Set-up time runs from the
moment run.py started this process (``--t0``, a CLOCK_MONOTONIC reading)
to the end of the workload's warm-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

# Seconds one pass takes at the seed commit on a 2-core x86 machine.
# ``--seconds`` becomes a pass count through these, so every commit runs
# the same work however fast it is.
NOMINAL_PASS_S = {"cold_joint": 12.0, "survey": 10.0, "lab_export": 5.0, "validate": 7.0}


def _import_package(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import spdc_coherence

    if Path(spdc_coherence.__file__).resolve().parent != (src / "spdc_coherence").resolve():
        raise RuntimeError(f"imported spdc_coherence from {spdc_coherence.__file__}, not from {src}")
    return spdc_coherence


def _run_ops(wl, ops, caches, tracer, traced, h):
    """Run one pass of (run, check) ops; returns op times, problems per op
    and pair keys."""
    times, problems, pairs = [], [], []
    for i, (run, check) in enumerate(ops):
        if wl.clear == "op":
            caches.clear()
        tracer.op_id = i
        tracer.active = traced
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception:  # an op that raises is a failed op, not a dead run
            times.append(time.perf_counter() - t0)
            tracer.active = False
            problems.append([traceback.format_exc(limit=3)])
            pairs.append(None)
            continue
        times.append(time.perf_counter() - t0)
        tracer.active = False
        caches.absorb()
        try:
            found, pair = check(out, h)
        except Exception:
            found, pair = [traceback.format_exc(limit=3)], None
        caches.skip()
        del out
        problems.append(found)
        pairs.append(pair)
    return times, problems, pairs


def run_pass(wl, caches, tracer, traced):
    """One pass: (op times, problems per op, output SHA-256, pair keys)."""
    h = hashlib.sha256()
    if wl.clear == "pass":
        caches.clear()
    times, problems, pairs = _run_ops(wl, wl.ops(), caches, tracer, traced, h)
    return times, problems, h.hexdigest(), pairs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    root = Path.cwd()
    pkg = _import_package(root)
    import inputs
    import spans
    import workloads

    caches = spans.CacheSet(pkg)
    tracer = spans.Tracer()
    if args.trace:
        spans.install(tracer, pkg)
    tmp = Path(args.tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](inputs.GENERATORS[args.workload](args.seed), tmp)
    wl.setup()
    if wl.clear != "never":
        caches.clear()
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    passes = []
    layer = {}
    if args.trace:
        caches.reset_totals()
        passes.append(run_pass(wl, caches, tracer, True))
        layer = _layers(tracer, caches)
        # computed, not measured: a traced-minus-untraced difference of
        # whole passes drowns a cost of a few percent in the host's drift
        recorded = len(tracer.spans)
        layer["trace.overhead_s"] = (recorded * spans.wrapper_cost()
                                     + (tracer.entries - recorded) * spans.wrapper_cost(nested=True))
        layer["trace.spans"] = recorded
        if args.spans:
            _write_spans(tracer, Path(args.spans))
        if args.workload == "lab_export":
            # the lab fill threaded, capped at the cores this process may use,
            # against the single-threaded pass above
            tracer.reset()
            single_thread = os.environ["SPDC_THREADS"]
            os.environ["SPDC_THREADS"] = str(min(4, len(os.sched_getaffinity(0))))
            try:
                passes.append(run_pass(wl, caches, tracer, True))
            finally:
                os.environ["SPDC_THREADS"] = single_thread
            threaded = tracer.by_name().get("joint.evaluate_grid", (0, 0.0, 0.0))[1]
            single = layer.get("joint.evaluate_grid.busy_s", 0.0)
            layer["joint.evaluate_grid.thread_speedup"] = single / threaded if threaded else 0.0
        tracer.uninstall()
    else:
        count = max(1, int(args.seconds // NOMINAL_PASS_S[args.workload]))
        passes = [run_pass(wl, caches, tracer, False) for _ in range(count)]

    # share of the first pass's ops that reuse a crystal/model pair already
    # seen in that pass or built at set-up
    seen = set(wl.setup_pairs)
    reused = 0
    for pair in passes[0][3]:
        reused += pair is not None and pair in seen
        seen.add(pair)
    reuse = reused / len(passes[0][3])
    layer["inputs.pair_reuse_share"] = reuse

    result.update(
        passes=[{"times": t, "problems": p} for t, p, _, _ in passes],
        digest=passes[0][2],
        pair_reuse_share=reuse,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        per_layer=layer,
        threads=os.environ.get("SPDC_THREADS"),
    )
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _layers(tracer, caches) -> dict:
    """Per-layer metrics of the traced pass."""
    caches.absorb()
    out = {}
    for name, (calls, busy, cpu) in tracer.by_name().items():
        out[f"{name}.calls"] = calls
        out[f"{name}.busy_s"] = busy
        out[f"{name}.cpu_s"] = cpu
    out.update(tracer.counts)
    out["joint.factor.hit_ratio"] = caches.hit_ratio("joint._factor_pair")
    out["phasematch.position_table.hit_ratio"] = caches.hit_ratio("phasematch._position_table")
    return out


def _write_spans(tracer, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for sid, name, t0, t1, parent, op, cpu in tracer.spans:
            fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                 "parent": parent, "op": op, "cpu": cpu}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
