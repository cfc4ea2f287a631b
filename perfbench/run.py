#!/usr/bin/env python3
"""coref-semscore benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run generates the workload's corpus
from the seed (see workloads.py), runs any untimed preparation, and then
drives the real CLI in a closed loop: one client, one command at a time,
every command in a fresh interpreter (child.py) with native thread pools
limited to one thread.

--trace 0  repeats the plain command for S seconds and reports the
           end-to-end metrics of BENCHMARK.json.
--trace 1  makes one counting pass, then alternates plain and traced
           commands for S seconds, and reports the per-layer metrics: the
           median self times over the traced commands, the counts of the
           counting pass, and the tracing overhead as the median of the
           differences between each traced command and the plain command
           just before it.

Times are in reference seconds.  On a host shared with other tenants the
same command's time swings by up to 1.8x, in bursts from under a second to
minutes, while its CPU time equals its wall time and no hardware counters
are exposed.  So each command also times a fixed calibration job just
before and just after itself (child.calibrate), and each of its times is
scaled by CAL_REF_S over the mean of the two.  wall_s, setup_s and
peak_rss_mb are medians over the run's commands.  Unscaled medians and
sample counts go to standard error.

Every command, untimed ones included, is attempted and gated: it fails if it
exits non-zero, if any output file or its standard output differs by a byte
from the pinned digests for this workload and seed (pins.json), from the
first passing command of the run, or if the outputs disagree with the
brute-force oracles.  A summary goes to standard error; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import ROOT, WORKLOADS, missing_sources

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
PINS = HERE / "pins.json"
WORK_ROOT = HERE / ".work"
# The run must end within 180 s, whatever the commands do.
DEADLINE_S = 170
# The calibration job's time on an idle host of the kind the baseline was
# measured on (2-vCPU x86-64 cloud VM, CPython 3.11).  Only scales the times.
CAL_REF_S = 0.05
# One process, no extra threads: numpy and scipy pools limited to one thread.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def load_metrics() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def load_pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8")) if PINS.is_file() else {}


def digests(out: Path, stdout: bytes) -> dict[str, str]:
    found = {"stdout": hashlib.sha256(stdout).hexdigest()}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        found[path.relative_to(out).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


class Gate:
    """Judges every command's outputs; counts attempts and failures."""

    def __init__(self, pinned: dict | None, check) -> None:
        self.pinned = pinned
        self.check = check
        self.reference: dict | None = None
        self.verdicts: dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0

    def judge(self, code: int | None, out: Path, found: dict, why: str) -> bool:
        self.attempted += 1
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        elif self.pinned is not None and found != self.pinned:
            problems.append("outputs differ from the pinned digests: " + ", ".join(
                sorted(k for k in found.keys() | self.pinned.keys()
                       if found.get(k) != self.pinned.get(k))))
        else:
            key = json.dumps(found, sort_keys=True)
            if key not in self.verdicts:
                oracle = self.check(out)
                problems += oracle
                self.verdicts[key] = not oracle
            elif not self.verdicts[key]:
                problems.append("outputs already failed the oracle check")
            if not problems:
                self.reference = self.reference or found
                if found != self.reference:
                    problems.append("outputs differ from this seed's first passing run")
        if problems:
            self.failed += 1
            print(f"FAILED {why}: " + "; ".join(problems[:5]), file=sys.stderr)
        return not problems


class Run:
    def __init__(self, workload: str, seed: int, pins: dict) -> None:
        self.started = time.monotonic()
        self.work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True)
        self.prepared = WORKLOADS[workload](seed, self.work)
        self.pins = pins.get(workload, {}).get(str(seed))
        self.env = {**os.environ, **CHILD_ENV}
        self.count = 0
        self.command_s = 0.0
        self.gates = {name: Gate(self._pinned(name), check)
                      for name, _, check in self.prepared.steps}
        self.gates[""] = Gate(self._pinned(""), self.prepared.check)

    def _pinned(self, step: str) -> dict | None:
        if self.pins is None:
            return None
        prefix = f"{step}/" if step else ""
        return {k[len(prefix):]: v for k, v in self.pins.items()
                if k.startswith(prefix) and (step or "/" not in k)}

    @property
    def attempted(self) -> int:
        return sum(g.attempted for g in self.gates.values())

    @property
    def failed(self) -> int:
        return sum(g.failed for g in self.gates.values())

    def invoke(self, mode: str, step: str = "") -> tuple[dict | None, dict]:
        """Run one command in a fresh interpreter; returns (result, output digests)."""
        self.count += 1
        tag = f"{self.count:03d}-{mode}"
        argv = {name: argv for name, argv, _ in self.prepared.steps}.get(
            step, self.prepared.command)
        out = self.work / (step or f"out-{tag}")
        out.mkdir()
        result_path = self.work / f"{tag}.json"
        argv = [str(out) if arg == "OUT" else arg for arg in argv]
        started = time.monotonic()
        remaining = DEADLINE_S - (started - self.started)
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), mode, str(result_path), "--", *argv],
                cwd=self.work, env=self.env, capture_output=True, timeout=max(remaining, 1),
            )
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            code, stdout, stderr = None, b"", b"timed out\n"
        self.command_s += time.monotonic() - started
        result = None
        if code == 0 and result_path.is_file():
            result = json.loads(result_path.read_text(encoding="utf-8"))
            result["scale"] = CAL_REF_S / statistics.mean(result["cal_s"])
            code = result["exit"]
        if code != 0:
            sys.stderr.write(stderr.decode(errors="replace")[-2000:])
        found = digests(out, stdout)
        if not self.gates[step].judge(code, out, found, f"{step or 'command'} {tag}"):
            result = None
        if not step:
            shutil.rmtree(out)
        return result, found

    def timed_loop(self, seconds: int, modes: tuple[str, ...]) -> dict[str, list[dict | None]]:
        """Cycle through `modes` until the commands have run for `seconds`,
        each mode at least once; the results by mode, in order, with None
        for a command that failed.  Checking the outputs takes no time from
        the budget."""
        results: dict[str, list[dict | None]] = {mode: [] for mode in modes}
        budget = self.command_s + seconds
        i = 0
        while i < len(modes) or (self.command_s < budget
                                 and time.monotonic() - self.started < DEADLINE_S - 30):
            mode = modes[i % len(modes)]
            i += 1
            results[mode].append(self.invoke(mode)[0])
        return results


def self_times(spans) -> dict[str, float]:
    """Seconds per span name: each span's duration minus what its children cover."""
    children = defaultdict(list)
    for _, parent, _, start, end in spans:
        children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for span_id, _, name, start, end in spans:
        covered = 0
        reach = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, reach)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        totals[name] += (end - start - covered) / 1e9
    return totals


# Per-layer metrics read straight off the counting pass.
COUNTED = ("ingest.bytes_out", "labeling.overlap_calls", "typed.link_pairs",
           "classic.hungarian_calls", "classic.hungarian_cells", "model.pair_calls")


def _median(values) -> float:
    """Median, or 0.0 when no command passed (the run then reports correct=false)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def _report_unscaled(label: str, results: list[dict]) -> None:
    """One line on standard error: sample count and unscaled medians, so the
    effect of the calibration can be checked (sweep.py summarises them)."""
    print(f"unscaled {label} " + json.dumps({
        "commands": len(results),
        "wall_s": _median(r["wall_s"] for r in results),
        "setup_s": _median(r["setup_s"] for r in results),
        "scale": _median(r["scale"] for r in results),
    }), file=sys.stderr)


def end_to_end(run: Run, seconds: int) -> dict:
    plain = [r for r in run.timed_loop(seconds, ("plain",))["plain"] if r]
    _report_unscaled("plain", plain)
    return {
        "wall_s": _median(r["wall_s"] * r["scale"] for r in plain),
        "setup_s": _median(r["setup_s"] * r["scale"] for r in plain),
        "peak_rss_mb": _median(r["peak_rss_kb"] / 1024 for r in plain),
    }


def per_layer(run: Run, seconds: int, units: dict) -> dict:
    counted, _ = run.invoke("count")
    counts = counted["counts"] if counted else {}
    results = run.timed_loop(seconds, ("plain", "trace"))
    pairs = [(p, t) for p, t in zip(results["plain"], results["trace"]) if p and t]
    plain = [r for r in results["plain"] if r]
    traced = [r for r in results["trace"] if r]
    _report_unscaled("plain", plain)
    _report_unscaled("traced", traced)
    layers = [(self_times(r["spans"]), r["scale"]) for r in traced]
    metrics = {name: _median(times.get(name, 0.0) * scale for times, scale in layers)
               for name, unit in units.items() if unit == "s"}

    def ratio(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts.get(den) else 0.0

    metrics.update({name: counts.get(name, 0) for name in COUNTED})
    metrics.update({
        "labeling.overlap_hit_ratio": ratio("labeling.overlap_hits", "labeling.overlap_calls"),
        "labeling.direct_ratio": ratio("labeling.direct", "labeling.mentions"),
        "gc.gen2_collections": _median(r["gen2_collections"] for r in plain),
        "trace.overhead_s": _median(t["wall_s"] * t["scale"] - p["wall_s"] * p["scale"]
                                    for p, t in pairs),
    })
    return metrics


def measure(workload: str, seed: int, seconds: int, trace: bool, pins: dict) -> dict:
    """One benchmark run; the result object printed as the last line."""
    e2e_units, layer_units = load_metrics()
    units = layer_units if trace else e2e_units
    run = Run(workload, seed, pins)
    try:
        print(f"{workload} seed {seed}: {json.dumps(run.prepared.sizes)}"
              f"{'' if run.pins else ' (no pinned digests for this seed)'}", file=sys.stderr)
        for name, _, _ in run.prepared.steps:
            run.invoke("plain", step=name)
        values = per_layer(run, seconds, units) if trace else end_to_end(run, seconds)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    for name, unit in units.items():
        print(f"  {name:28s} {values[name]:>14.6g} {unit}", file=sys.stderr)
    print(f"  fail_ratio {run.failed}/{run.attempted}", file=sys.stderr)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    missing = missing_sources()
    if missing:
        print(f"error: not a coref-semscore checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), load_pins())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
