#!/usr/bin/env python3
"""Pin the outcome of every single-field mutation of two corpus records.

Two base records, one labeled (as written by `label`) and one raw gold plus
predicted record, are mutated one field at a time: every key is deleted,
and every value, at every nested position, is swapped for other JSON types,
shifted bounds, other spans of the record, longer and shorter lists, and
other label strings.  Each mutant is read back as a one-line corpus by
read_jsonl_corpus and as a one-line --cner file by read_cner_jsonl followed
by attach_semantic_spans onto the base document.  Its outcome is the exact
CorpusFormatError text, or a digest of document_to_record on success.

The mutants, their outcomes and the base records are written to
tests/data/ingest_mutants.json, which tests/test_ingest_mutants.py replays.
The set is deterministic: no random numbers are drawn.  Any exception other
than CorpusFormatError stops the script.

    python3 scripts/make_ingest_mutants.py
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from coref_semscore.ingest import (  # noqa: E402
    CorpusFormatError,
    attach_semantic_spans,
    document_to_record,
    read_cner_jsonl,
    read_jsonl_corpus,
)

OUT_PATH = ROOT / "tests" / "data" / "ingest_mutants.json"

BASES = {
    "labeled": {
        "doc_id": "d0",
        "tokens": ["Ada", "met", "Bob", ".", "She", "left"],
        "sentence_boundaries": [0, 4],
        "gold_clusters": [[[0, 1], [4, 5]], [[2, 3]]],
        "predicted_clusters": [[[0, 1], [4, 6]], [[2, 3]]],
        "cner": [[0, 1, "PER"], [2, 3, "person"]],
        "cluster_labels": {"gold": ["PER", "PER"], "predicted": ["PER", None]},
        "mention_labels": {
            "gold": [["PER", " per "], ["PERSON"]],
            "predicted": [["PER", "PER"], [None]],
        },
        "mention_label_sources": {
            "gold": [["direct", "propagated"], ["direct"]],
            "predicted": [["direct", "propagated"], ["none"]],
        },
        "mention_overlaps": {
            "gold": [[1.0, None], [0.5]],
            "predicted": [[1.0, None], [None]],
        },
        "genre": "news",
    },
    "raw": {
        "doc_id": "d1",
        "tokens": ["It", "rained", "in", "New", "York", "today"],
        "gold_clusters": [[[0, 1], [5, 6]], [[3, 5]]],
        "predicted_clusters": [[[0, 1]], [[3, 5], [5, 6]]],
        "cner": [[3, 5, "LOC"], [1, 2, "EVENT"]],
    },
}

# Swapped in at every position: each JSON type; at top-level fields, a few
# more valid-looking values too.
_ANY = [None, True, 2.5, "", [], {}]
_TOP = [0, "PER", [0, 1]]
_LABELS = {
    "cner": ["per", " Person ", "WIDGET", "P3R"],
    "cluster_labels": ["per", " Person ", "WIDGET", "P3R"],
    "mention_labels": ["per", " Person ", "WIDGET", "P3R"],
    "mention_label_sources": ["none", "direct", "propagated", "Direct"],
}


def _paths(value, path=()):
    """Every (path, value) below the root, depth first."""
    if isinstance(value, dict):
        for key, child in value.items():
            yield path + (key,), child
            yield from _paths(child, path + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield path + (index,), child
            yield from _paths(child, path + (index,))


def _is_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(type(v) is int for v in value)


def _replacements(base: dict, path: tuple, value) -> list:
    n = len(base["tokens"])
    if path[0] == "tokens" and len(path) > 1:
        return [None, 7, ""]  # token entries must be strings
    out = _ANY + _TOP if len(path) == 1 else list(_ANY)
    if type(value) is int:
        out += [value - 1, value + 1, n, n + 1, float(value), str(value), value == 1]
    if isinstance(value, str):
        out += _LABELS.get(path[0], [])
    if isinstance(value, list):
        out += [value[:-1], value + value[:1], value[::-1]]
        if value and all(isinstance(v, list) for v in value):
            out.append([v[:-1] for v in value])
    if _is_pair(value) or (path[0] == "cner" and len(path) == 2 and isinstance(value, list)):
        start = value[0]
        out += [[value[1], value[0]], [start, start], [start, n + 1], [n, n + 1], [-1, 1],
                value[:1], value + [0]]
    if _is_pair(value) and path[-1] == 0:
        # The side's other spans: a repeat within or across clusters.
        out += [pair for _, pair in _paths(base[path[0]]) if _is_pair(pair)]
    return out


def _apply(record: dict, path: list, op: str, value=None):
    """The record with the value at path set (op "set") or removed ("delete")."""
    if not path:
        return copy.deepcopy(value)
    mutant = copy.deepcopy(record)
    parent = mutant
    for key in path[:-1]:
        parent = parent[key]
    if op == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return mutant


def mutants() -> list[dict]:
    """The deterministic mutant list: {base, path, op[, value]}."""
    out, seen = [], set()
    for name, base in BASES.items():
        candidates = [{"path": [], "op": "set", "value": v} for v in ([], "x", None, 7)]
        for path, value in _paths(base):
            if isinstance(path[-1], str):
                candidates.append({"path": list(path), "op": "delete"})
            for new in _replacements(base, path, value):
                candidates.append({"path": list(path), "op": "set", "value": new})
        for candidate in candidates:
            text = json.dumps(apply(base, candidate))
            if text != json.dumps(base) and text not in seen:
                seen.add(text)
                out.append({"base": name, **candidate})
    return out


def apply(base: dict, mutant: dict):
    """The mutated copy of base that a mutant describes."""
    return _apply(base, mutant["path"], mutant["op"], mutant.get("value"))


def _digest(doc) -> str:
    text = json.dumps(document_to_record(doc), ensure_ascii=False)
    return "ok " + hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def outcomes(base: dict, record) -> dict:
    """How the corpus reader and the --cner reader take one mutated record."""
    line = json.dumps(record, ensure_ascii=False) + "\n"
    result = {}
    try:
        result["read"] = _digest(read_jsonl_corpus(io.StringIO(line))[0])
    except CorpusFormatError as exc:
        result["read"] = f"error {exc}"
    (target,) = read_jsonl_corpus(io.StringIO(json.dumps(base) + "\n"))
    try:
        spans = read_cner_jsonl(io.StringIO(line))
        result["cner"] = _digest(attach_semantic_spans([target], spans)[0])
    except CorpusFormatError as exc:
        result["cner"] = f"error {exc}"
    return result


def main() -> int:
    rows = []
    for mutant in mutants():
        base = BASES[mutant["base"]]
        rows.append({**mutant, **outcomes(base, apply(base, mutant))})
    body = ",\n".join(json.dumps(row, ensure_ascii=False) for row in rows)
    OUT_PATH.write_text(
        '{"bases": ' + json.dumps(BASES, ensure_ascii=False)
        + ',\n "mutants": [\n' + body + "\n]}\n",
        encoding="utf-8",
    )
    errors = sum(row["read"].startswith("error") for row in rows)
    print(f"wrote {len(rows)} mutants ({errors} rejected by the corpus reader) -> {OUT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
