#!/usr/bin/env python3
"""Pin the reference digests of every output file, per workload and seed.

    python3 perfbench/pin.py --seeds 0-31 [--workloads a,b]

For each workload and seed this generates the inputs, runs the preparation
steps and the command once, checks the outputs against the brute-force
oracles (see workloads.py) and records the SHA-256 of every output file and
of standard output in pins.json.  Nothing is pinned for a seed whose outputs
fail the oracles.  Run it only on a commit whose outputs are known good: a
benchmark run fails every command whose outputs differ from these pins.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import PINS, Run, load_pins
from sweep import seed_range
from workloads import WORKLOADS


def pin(workload: str, seed: int) -> dict[str, str]:
    run = Run(workload, seed, {})
    try:
        found = {}
        for name, _, _ in run.prepared.steps:
            _, step_found = run.invoke("plain", step=name)
            found.update({f"{name}/{k}": v for k, v in step_found.items()})
        _, command_found = run.invoke("plain")
        found.update(command_found)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    if run.failed:
        raise SystemExit(f"{workload} seed {seed}: outputs failed the gate, nothing pinned")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    pins = load_pins()
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            pins.setdefault(workload, {})[str(seed)] = pin(workload, seed)
            print(f"pinned {workload} seed {seed}", file=sys.stderr)
            PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
