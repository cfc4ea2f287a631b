#!/usr/bin/env python3
"""Compute the golden evaluation report for the packaged mini corpus.

The numbers come exclusively from the brute-force oracles in
tests/oracles.py (set-based overlap, pair enumeration, exhaustive cluster
alignment, exact rational pooling), not from the package under test.  The
resulting JSON must match `coref-semscore eval --gold mini_corpus.jsonl
--typed-mention --typed-link --classic` byte for byte.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import oracles  # noqa: E402

CORPUS_PATH = ROOT / "tests" / "data" / "mini_corpus.jsonl"
OUT_PATH = ROOT / "tests" / "data" / "golden_eval_report.json"


def report_text() -> str:
    """The golden report's text, computed from the corpus by the oracles."""
    with open(CORPUS_PATH, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    report = oracles.eval_report(records, gold_name=CORPUS_PATH.name)
    return json.dumps(report, indent=2, ensure_ascii=False) + "\n"


def main() -> int:
    OUT_PATH.write_text(report_text(), encoding="utf-8")
    print(f"wrote golden report -> {OUT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
