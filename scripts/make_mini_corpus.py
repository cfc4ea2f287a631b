#!/usr/bin/env python3
"""Regenerate the packaged synthetic mini corpus (tests/data/mini_corpus.jsonl).

Deterministic: a fixed seed drives the corpus generator, so the checked-in
fixture can be reproduced exactly.  Run build_golden_report.py afterwards
to refresh the golden evaluation report.
"""

import json
import random
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from corpusgen import random_corpus  # noqa: E402

SEED = 20250809
N_DOCS = 48
OUT_PATH = ROOT / "tests" / "data" / "mini_corpus.jsonl"


def corpus_text() -> str:
    """The fixture's text, one JSON record per line."""
    rng = random.Random(SEED)
    records = random_corpus(
        rng,
        N_DOCS,
        prefix="mini",
        ensure_links=True,
        ensure_direct=True,
        max_clusters=5,
        max_total_mentions=16,
    )
    classes = Counter(label for r in records for _, _, label in r["cner"])
    if len(classes) < 6:
        raise SystemExit(f"fixture needs >= 6 classes, got {sorted(classes)}")
    return "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in records)


def main() -> int:
    text = corpus_text()
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(text, encoding="utf-8")
    print(f"wrote {len(text.splitlines())} documents -> {OUT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
