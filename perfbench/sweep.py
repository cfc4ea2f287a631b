#!/usr/bin/env python3
"""Run the benchmark over several seeds and workloads and summarise every metric.

    python3 perfbench/sweep.py [--seeds 1-10]

Every workload of BENCHMARK.json runs with --trace 0 and --trace 1 for each
seed, always for the run_seconds of BENCHMARK.json.  For each workload, trace
setting and metric it prints the median, the first
and third quartiles over the seeds (statistics.quantiles, n=4) and their
distance as a share of the median, next to the metric's bound, plus the
failed/attempted ratio over all runs.  This is the stability check the
benchmark must pass: every end-to-end spread but setup_s's within its bound.
With --trace 0 it also summarises the unscaled medians of wall_s and setup_s
(rows unscaled.*), to show what the calibration changes.
The last line is the same summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The line on which run.py reports the plain commands' unscaled medians.
UNSCALED = "unscaled plain "


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            values: dict[str, list] = {}
            units = {}
            attempted = failed = 0
            for seed in args.seeds:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", trace],
                    cwd=ROOT, capture_output=True, text=True,
                )
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                          f"{proc.stderr[-2000:]}", file=sys.stderr)
                    return 1
                result = json.loads(lines[-1])
                attempted += result["attempted"]
                failed += result["failed"]
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
                for line in proc.stderr.splitlines():
                    if line.startswith(UNSCALED) and trace == "0":
                        for name, value in json.loads(line[len(UNSCALED):]).items():
                            if name in ("wall_s", "setup_s"):
                                values.setdefault(f"unscaled.{name}", []).append(value)
                                units[f"unscaled.{name}"] = "s"
                print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                                 if k in ("wall_s", "setup_s", "peak_rss_mb")), file=sys.stderr)
            rows = {}
            print(f"\n{workload} --trace {trace}: fail_ratio {failed}/{attempted} "
                  f"over {len(args.seeds)} seeds")
            for name, vals in values.items():
                median = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
                spread = (q3 - q1) / median if median else 0.0
                bound = bounds.get(name)
                rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                              "unit": units[name], "bound": bound}
                print(f"  {name:28s} {median:>12.6g} {units[name]:6s} q1 {q1:<12.6g} "
                      f"q3 {q3:<12.6g} spread {spread:6.3f}"
                      + (f"  bound {bound}" if bound is not None else ""))
            summary[f"{workload}/trace{trace}"] = {
                "fail_ratio": failed / attempted if attempted else None, "metrics": rows}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
