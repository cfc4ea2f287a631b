"""Every single-field mutation of two corpus records reads as pinned.

tests/data/ingest_mutants.json holds the mutants that
scripts/make_ingest_mutants.py makes, each with the outcome it had when the
file was generated: the exact CorpusFormatError text, or a digest of the
document read.  Reading each mutant again must give the same outcome, and
no exception but CorpusFormatError may escape the readers.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import make_ingest_mutants  # noqa: E402

PINNED = json.loads((ROOT / "tests" / "data" / "ingest_mutants.json").read_text(encoding="utf-8"))


def test_file_holds_the_mutants_the_script_makes():
    assert PINNED["bases"] == make_ingest_mutants.BASES
    pinned = [{k: row[k] for k in ("base", "path", "op", "value") if k in row}
              for row in PINNED["mutants"]]
    assert pinned == make_ingest_mutants.mutants()
    assert len(pinned) > 1000


def test_every_mutant_reads_as_pinned():
    changed = []
    for row in PINNED["mutants"]:
        base = PINNED["bases"][row["base"]]
        got = make_ingest_mutants.outcomes(base, make_ingest_mutants.apply(base, row))
        expected = {"read": row["read"], "cner": row["cner"]}
        if got != expected:
            changed.append((row["base"], row["path"], row.get("value"), got, expected))
    assert not changed, f"{len(changed)} mutants changed outcome, first: {changed[:3]}"
