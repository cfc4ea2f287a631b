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

# sentence_boundaries that were accepted when the file was generated.  They
# are out of range or not strictly increasing on the 6-token base record, so
# the corpus reader now rejects them; the --cner reader ignores the field.
NEWLY_REJECTED = [[0, 4, 0], [4, 0], [0, 0], [0, 7], [6, 7], [-1, 1], [-1, 4], [6, 4], [7, 4],
                  [0, 6]]


def _newly_rejected(record) -> bool:
    # Compared as JSON text, so that [0, false] is not taken for [0, 0].
    return isinstance(record, dict) and json.dumps(record.get("sentence_boundaries")) in {
        json.dumps(value) for value in NEWLY_REJECTED
    }


def _replay():
    for row in PINNED["mutants"]:
        base = PINNED["bases"][row["base"]]
        record = make_ingest_mutants.apply(base, row)
        yield row, record, make_ingest_mutants.outcomes(base, record)


def test_file_holds_the_mutants_the_script_makes():
    assert PINNED["bases"] == make_ingest_mutants.BASES
    pinned = [{k: row[k] for k in ("base", "path", "op", "value") if k in row}
              for row in PINNED["mutants"]]
    assert pinned == make_ingest_mutants.mutants()
    assert len(pinned) > 1000


def test_every_mutant_reads_as_pinned():
    changed = []
    for row, record, got in _replay():
        expected = {"read": row["read"], "cner": row["cner"]}
        if _newly_rejected(record):
            continue
        if got != expected:
            changed.append((row["base"], row["path"], row.get("value"), got, expected))
    assert not changed, f"{len(changed)} mutants changed outcome, first: {changed[:3]}"


def test_out_of_order_sentence_boundaries_are_now_rejected():
    seen = []
    for row, record, got in _replay():
        if _newly_rejected(record):
            seen.append(record["sentence_boundaries"])
            assert row["read"].startswith("ok ")
            assert got["read"] == (
                "error line 1: sentence_boundaries: token indices must be strictly "
                f"increasing and in [0, 6), got {record['sentence_boundaries']!r}"
            )
            assert got["cner"] == row["cner"]
    assert sorted(seen) == sorted(NEWLY_REJECTED)
