"""The benchmark's three workloads: inputs from a seed, commands, and oracle checks.

Every corpus comes from tests/corpusgen.py, seeded by the workload name and
the run's seed, so one seed always gives the same files.  The program sees
only those files.  Each workload also knows how to check an output directory
against the brute-force oracles in tests/oracles.py, as far as the oracles
finish in a few seconds on its shape.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/coref_semscore/cli.py", "tests/corpusgen.py", "tests/oracles.py")


def missing_sources() -> list[str]:
    """Files of the program under test that this checkout lacks."""
    return [rel for rel in REQUIRED if not (ROOT / rel).is_file()]


def _import_generators():
    for sub in ("src", "tests"):
        path = str(ROOT / sub)
        if path not in sys.path:
            sys.path.insert(0, path)
    import corpusgen
    import oracles

    return corpusgen, oracles


EVAL_ALL = ["--typed-mention", "--typed-link", "--classic"]


@dataclass
class Prepared:
    """Generated inputs and how to run and check one workload instance.

    `steps` are untimed preparation commands run once before the timed
    command, each writing to the work directory named after it; their
    outputs are gated like the timed command's.  Each command is a list of
    CLI arguments in which OUT stands for its output directory.
    """

    command: list[str]
    check: Callable[[Path], list[str]]
    sizes: dict
    steps: list[tuple[str, list[str], Callable[[Path], list[str]]]] = field(default_factory=list)


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def _pairs(clusters) -> int:
    return sum(len(c) * (len(c) - 1) // 2 for c in clusters)


def _sizes(records) -> dict:
    return {
        "docs": len(records),
        "tokens": sum(len(r["tokens"]) for r in records),
        "gold_mentions": sum(len(c) for r in records for c in r["gold_clusters"]),
        "predicted_mentions": sum(len(c) for r in records for c in r["predicted_clusters"]),
        "semantic_spans": sum(len(r["cner"]) for r in records),
        "gold_links": sum(_pairs(r["gold_clusters"]) for r in records),
    }


def _read_json(path: Path, problems: list[str]):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: unreadable: {exc}")
        return None


def _oracle_labels(records, oracles) -> dict:
    """doc_id -> side -> (assignments, cluster labels, per-mention (label, source))."""
    out = {}
    for record in records:
        cner = [tuple(t) for t in record["cner"]]
        sides = {}
        for side in ("gold", "predicted"):
            clusters = [[tuple(s) for s in c] for c in record[f"{side}_clusters"]]
            assigned = oracles.assign_side(clusters, cner)
            sides[side] = (assigned, *oracles.propagate_side(assigned))
        out[record["doc_id"]] = sides
    return out


def _check_labeled(out: Path, records, oracle_labels) -> list[str]:
    """labeled.jsonl echoes its inputs and carries the oracle's labels;
    coverage.json counts them."""
    problems: list[str] = []
    path = out / "labeled.jsonl"
    try:
        written = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    except (OSError, ValueError) as exc:
        return [f"labeled.jsonl: unreadable: {exc}"]
    if len(written) != len(records):
        return [f"labeled.jsonl: {len(written)} records, expected {len(records)}"]
    tally = {side: {"total": 0, "direct": 0, "propagated": 0} for side in ("gold", "predicted")}
    for record, got in zip(records, written):
        doc_id = record["doc_id"]
        for key in ("doc_id", "tokens", "gold_clusters", "predicted_clusters", "cner"):
            if got.get(key) != record[key]:
                problems.append(f"labeled.jsonl {doc_id}: field {key} differs from input")
        for side, (assigned, cluster_labels, rows) in oracle_labels[doc_id].items():
            expected = {
                "cluster_labels": cluster_labels,
                "mention_labels": [[label for label, _ in row] for row in rows],
                "mention_label_sources": [[source for _, source in row] for row in rows],
                "mention_overlaps": [[score for _, score in row] for row in assigned],
            }
            for key, value in expected.items():
                if (got.get(key) or {}).get(side) != value:
                    problems.append(f"labeled.jsonl {doc_id}: {key}[{side}] differs from oracle")
            for row in rows:
                for _, source in row:
                    tally[side]["total"] += 1
                    if source in ("direct", "propagated"):
                        tally[side][source] += 1
    coverage = _read_json(out / "coverage.json", problems)
    if coverage is not None:
        for side, counts in tally.items():
            if not counts["total"]:
                continue
            got = (coverage.get(side) or {}).get("overall") or {}
            for key, value in counts.items():
                if got.get(key) != value:
                    problems.append(f"coverage.json {side}.overall.{key}: "
                                    f"{got.get(key)} != oracle {value}")
    return problems


def _check_short_eval(out: Path, records, oracles) -> list[str]:
    """Typed mention and link counts, MUC and B-cubed against the oracles.

    Exhaustive CEAF does not finish on this shape, so CEAF is left to the
    pinned digests and to run-to-run byte equality.
    """
    problems: list[str] = []
    report = _read_json(out / "eval_report.json", problems)
    if report is None:
        return problems
    labeled = {
        doc_id: {side: labels[1:] for side, labels in sides.items()}
        for doc_id, sides in _oracle_labels(records, oracles).items()
    }
    expected = {
        "typed_mention": oracles.typed_report(
            *oracles.corpus_typed_counts(records, labeled, "mention"), mode="mention"
        ),
        "typed_link": oracles.typed_report(
            *oracles.corpus_typed_counts(records, labeled, "link"),
            mode="link",
            link_mention_source="predicted",
        ),
    }
    muc_r, muc_p = [0, 0], [0, 0]
    b3_p, b3_r = [Fraction(0), 0], [Fraction(0), 0]
    for record in records:
        gold = oracles._cluster_sets(record["gold_clusters"])
        pred = oracles._cluster_sets(record["predicted_clusters"])
        for acc, part in (
            (muc_r, oracles.muc_side_counts(gold, pred)),
            (muc_p, oracles.muc_side_counts(pred, gold)),
            (b3_p, oracles.b_cubed_side(pred, gold)),
            (b3_r, oracles.b_cubed_side(gold, pred)),
        ):
            acc[0] += part[0]
            acc[1] += part[1]
    for name, (p, r) in (("muc", (muc_p, muc_r)), ("b_cubed", (b3_p, b3_r))):
        precision, recall, f1 = oracles.prf(p[0], p[1], r[0], r[1])
        expected[f"classic.{name}"] = {"precision": precision, "recall": recall, "f1": f1}
    classic = report.get("classic") or {}
    got = {"typed_mention": report.get("typed_mention"), "typed_link": report.get("typed_link"),
           "classic.muc": classic.get("muc"), "classic.b_cubed": classic.get("b_cubed")}
    for key, value in expected.items():
        if got.get(key) != value:
            problems.append(f"eval_report.json {key} differs from oracle")
    return problems


def _check_full_eval(out: Path, records, oracles) -> list[str]:
    """The whole eval report, byte for byte, against the oracles."""
    expected = json.dumps(
        oracles.eval_report(records, gold_name="labeled.jsonl"), indent=2, ensure_ascii=False
    ) + "\n"
    try:
        got = (out / "eval_report.json").read_text(encoding="utf-8")
    except OSError as exc:
        return [f"eval_report.json: unreadable: {exc}"]
    return [] if got == expected else ["eval_report.json differs from the oracle report"]


def _short_eval(seed: int, work: Path) -> Prepared:
    # The A10 shape; gold and predictions in separate files, spans inline.
    corpusgen, oracles = _import_generators()
    rng = random.Random(f"short-eval/{seed}")
    records = corpusgen.random_corpus(
        rng, 600, prefix="s", n_tokens=(190, 210), max_clusters=8,
        max_total_mentions=24, ensure_links=True,
    )
    _write_jsonl(work / "gold.jsonl",
                 ({k: v for k, v in r.items() if k != "predicted_clusters"} for r in records))
    _write_jsonl(work / "pred.jsonl", ({
        "doc_id": r["doc_id"], "tokens": r["tokens"], "predicted_clusters": r["predicted_clusters"]
    } for r in records))
    return Prepared(
        command=["eval", "--gold", str(work / "gold.jsonl"), "--pred", str(work / "pred.jsonl"),
                 *EVAL_ALL, "--out", "OUT"],
        check=lambda out: _check_short_eval(out, records, oracles),
        sizes=_sizes(records),
    )


def _long_label(seed: int, work: Path) -> Prepared:
    # Long documents whose added tagger noise makes semantic spans outnumber
    # mentions, so assignment's mention x span scan dominates.
    corpusgen, oracles = _import_generators()
    rng = random.Random(f"long-label/{seed}")
    records = corpusgen.random_corpus(
        rng, 3, prefix="l", n_tokens=(4000, 5000), max_clusters=60,
        max_total_mentions=600, cner_noise=400,
    )
    _write_jsonl(work / "corpus.jsonl", records)
    labels = _oracle_labels(records, oracles)
    return Prepared(
        command=["label", "--gold", str(work / "corpus.jsonl"), "--out", "OUT"],
        check=lambda out: _check_labeled(out, records, labels),
        sizes=_sizes(records),
    )


# Documents per gold-cluster count.  The generator draws the count per
# document, and the quadratic work of a document grows several-fold from four
# clusters to one, so a plain draw of this many documents varies by a third
# from seed to seed.  Taking the same number of documents of each count keeps
# it within a few percent.
BIGCLUS_PER_COUNT = 4


def _bigclus_reeval(seed: int, work: Path) -> Prepared:
    # A few huge clusters per document, scored again from a labeled corpus:
    # the quadratic typed-link pairs and B-cubed dominate, no labeling runs.
    corpusgen, oracles = _import_generators()
    rng = random.Random(f"bigclus-reeval/{seed}")
    wanted = {k: BIGCLUS_PER_COUNT for k in (1, 2, 3, 4)}
    records: list[dict] = []
    while any(wanted.values()):
        record = corpusgen.random_record(
            rng, f"b{len(records):04d}", n_tokens=(1600, 1800), max_clusters=4,
            max_total_mentions=300, ensure_links=True,
        )
        count = len(record["gold_clusters"])
        if wanted.get(count):
            wanted[count] -= 1
            records.append(record)
    _write_jsonl(work / "corpus.jsonl", records)
    prelabel = work / "prelabel"
    labels = _oracle_labels(records, oracles)
    return Prepared(
        steps=[("prelabel", ["label", "--gold", str(work / "corpus.jsonl"), "--out", "OUT"],
                lambda out: _check_labeled(out, records, labels))],
        command=["eval", "--gold", str(prelabel / "labeled.jsonl"), *EVAL_ALL, "--out", "OUT"],
        check=lambda out: _check_full_eval(out, records, oracles),
        sizes=_sizes(records),
    )


WORKLOADS = {
    "short-eval": _short_eval,
    "long-label": _long_label,
    "bigclus-reeval": _bigclus_reeval,
}
