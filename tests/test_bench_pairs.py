"""tools/bench_pairs.py: alternating benchmark pairs of two source trees.

The real benchmark spends over 3 s a run in its nine set-up processes, so
the tool runs here on two copies of a stub tree whose ``perfbench/run.py``
prints what the real one prints: one line per metric, the output digest,
and the result JSON last.  The stub's values depend on the seed alone, so
the two copies are the same tree."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"

STUB = textwrap.dedent('''
    import argparse, json, os, sys
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("validate", "survey"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open(os.environ["BENCH_STUB_LOG"], "a") as log:
        log.write(os.getcwd() + "\\n")
    s = args.seed
    values = {"run_s": 0.2 + 1e-3 * s, "op_p50_s": 0.1, "op_tail_s": float(s),
              "setup_s": 0.3, "peak_rss_mb": 40.0 + 0.01 * s}
    metrics = {k: {"value": v, "unit": "MB" if k == "peak_rss_mb" else "s"} for k, v in values.items()}
    print(f"{args.workload}  outputs sha256 = digest{s}")
    print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}))
''')


def _stub_tree(path: Path) -> Path:
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(STUB, encoding="utf-8")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    (path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": spec["end_to_end"]}), encoding="utf-8")
    return path


def test_tree_against_itself(tmp_path):
    old, new = _stub_tree(tmp_path / "old"), _stub_tree(tmp_path / "new")
    log = tmp_path / "calls.log"
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"workloads": {"survey": {"kept": True}}}), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(old), str(new), "--workload", "validate", "--seeds", "3-6", "--out", str(out)],
        capture_output=True, text=True, timeout=60, env={"BENCH_STUB_LOG": str(log), "PATH": ""},
    )
    assert proc.returncode == 0, proc.stderr
    # alternating order: the parent first in the 1st and 3rd pairs
    calls = [Path(line).name for line in log.read_text().splitlines()]
    assert calls == ["old", "new", "new", "old", "old", "new", "new", "old"]
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["workloads"]["survey"] == {"kept": True}  # merged, not overwritten
    entry = doc["workloads"]["validate"]
    assert entry["pairs"] == 4 and entry["seeds"] == "3-6"
    assert entry["first_in_pair"] == ["parent", "change", "parent", "change"]
    run_s = entry["end_to_end"]["run_s"]
    assert run_s["parent_runs"] == run_s["change_runs"] == pytest.approx([0.203, 0.204, 0.205, 0.206])
    assert run_s["parent"] == run_s["change"] == pytest.approx({"median": 0.2045, "q1": 0.20375, "q3": 0.20525})
    assert run_s["change_won"] == "0/4" and run_s["median_change"] == "+0.0%"
    assert not run_s["unresolved"] and not run_s["every_change_run_better"]
    # seeds 3-6: interquartile distance 1.5 over a median of 4.5 exceeds 0.25
    assert entry["end_to_end"]["op_tail_s"]["unresolved"]
    assert "low_confidence" in entry["end_to_end"]["peak_rss_mb"]
    assert "low_confidence" not in run_s and "low_confidence" in entry
    assert entry["digests_unchanged_every_seed"] and entry["digest_seed3"] == {"parent": "digest3", "change": "digest3"}
    assert entry["all_correct"] and entry["error_rate"] == {"parent": 0.0, "change": 0.0}
    # held-out seeds of the same workload nest inside its entry
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(old), str(new), "--workload", "validate", "--seeds", "11",
         "--out", str(out)],
        capture_output=True, text=True, timeout=60, env={"BENCH_STUB_LOG": str(log), "PATH": ""},
    )
    assert proc.returncode == 0, proc.stderr
    entry = json.loads(out.read_text(encoding="utf-8"))["workloads"]["validate"]
    assert entry["seeds"] == "3-6" and entry["seeds_11_11"]["end_to_end"]["run_s"]["change_won"] == "0/1"


def test_failed_run_exits_2(tmp_path):
    old = _stub_tree(tmp_path / "old")
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(old), str(old), "--workload", "cold_joint", "--seeds", "1-2"],
        capture_output=True, text=True, timeout=60, env={"BENCH_STUB_LOG": str(tmp_path / "log"), "PATH": ""},
    )
    assert proc.returncode == 2 and "exited 2" in proc.stderr
