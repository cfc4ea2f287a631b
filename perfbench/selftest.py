#!/usr/bin/env python3
"""Self-test of the benchmark: its gate, its counters and its metric set.

    python3 perfbench/selftest.py

Checks, on the short-eval workload with seed 1:
  1. a run whose pinned reference digests are corrupted counts every command
     it attempted as failed, and reports correct=false;
  2. the same run against the true digests fails nothing and reports exactly
     the end-to-end metrics of BENCHMARK.json;
  3. two counting passes over the same inputs give identical counts, and a
     traced run reports exactly the per-layer metrics;
  4. in a directory that holds only BENCHMARK.json and perfbench/, run.py
     exits non-zero without printing a result.
Exits 0 when all of them hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from pin import pin
from run import ROOT, WORK_ROOT, Run, load_metrics, measure

WORKLOAD = "short-eval"
SEED = 1


def check(condition: bool, what: str) -> bool:
    print(f"{'ok  ' if condition else 'FAIL'} {what}", file=sys.stderr)
    return condition


def main() -> int:
    e2e, layers = load_metrics()
    true = pin(WORKLOAD, SEED)
    corrupted = dict(true)
    digest = corrupted["eval_report.json"]
    corrupted["eval_report.json"] = ("0" if digest[0] != "0" else "1") + digest[1:]

    results = []
    bad = measure(WORKLOAD, SEED, 1, False, {WORKLOAD: {str(SEED): corrupted}})
    results.append(check(not bad["correct"] and bad["failed"] == bad["attempted"] > 0,
                         f"corrupted reference: {bad['failed']}/{bad['attempted']} failed"))
    good = measure(WORKLOAD, SEED, 1, False, {WORKLOAD: {str(SEED): true}})
    results.append(check(good["correct"] and good["failed"] == 0
                         and set(good["metrics"]) == set(e2e),
                         f"true reference: {good['failed']}/{good['attempted']} failed, "
                         "end-to-end metrics complete"))

    run = Run(WORKLOAD, SEED, {})
    try:
        first, _ = run.invoke("count")
        second, _ = run.invoke("count")
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    results.append(check(first is not None and first["counts"] == second["counts"],
                         "counts repeat exactly"))
    traced = measure(WORKLOAD, SEED, 1, True, {})
    results.append(check(traced["correct"] and set(traced["metrics"]) == set(layers),
                         "traced run passes the gate, per-layer metrics complete"))

    stripped = WORK_ROOT / "selftest-stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    try:
        stripped.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", stripped / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", stripped / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOAD, "--seed", str(SEED),
             "--seconds", "1", "--trace", "0"],
            cwd=stripped, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(stripped, ignore_errors=True)
    results.append(check(proc.returncode != 0 and not proc.stdout.strip(),
                         f"stripped checkout: exit {proc.returncode}, no result printed"))
    print(json.dumps({"passed": sum(results), "checks": len(results)}))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
