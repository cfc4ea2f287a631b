"""Deterministic random corpora for property and acceptance tests.

Documents are built as plain JSONL-style records first, so the same
structures feed both the package (through to_documents, which reads them
back as JSONL lines) and the brute-force oracles.  Predicted clusters are
perturbations of gold: dropped and shifted mentions, split and merged
clusters, spurious spans.
"""

from __future__ import annotations

import io
import json
import random

from coref_semscore.ingest import read_jsonl_corpus
from coref_semscore.inventory import CategoryInventory

LABELS = ["PER", "LOC", "ORG", "EVENT", "GROUP", "MEDIA", "DATETIME", "ANIMAL"]
PRONOUN_TOKENS = ["he", "she", "it", "they", "him", "her", "them", "this", "that"]


def _sample_spans(rng: random.Random, n_tokens: int) -> list[tuple[int, int]]:
    spans = []
    pos = rng.randint(0, 2)
    while pos < n_tokens:
        if rng.random() < 0.5:
            length = rng.randint(1, min(3, n_tokens - pos))
            spans.append((pos, pos + length))
            pos += length + rng.randint(0, 2)
        else:
            pos += 1
    return spans


def random_record(
    rng: random.Random,
    doc_id: str,
    n_tokens: tuple[int, int] = (24, 80),
    max_clusters: int = 5,
    max_total_mentions: int = 18,
    labels: list[str] = LABELS,
    max_labels: int | None = None,
    identity: bool = False,
    ensure_links: bool = False,
    ensure_direct: bool = False,
    cner_noise: int = 2,
) -> dict:
    n = rng.randint(*n_tokens)
    tokens = [
        rng.choice(PRONOUN_TOKENS) if rng.random() < 0.12 else f"w{rng.randrange(400):03d}"
        for _ in range(n)
    ]
    spans = _sample_spans(rng, n)
    rng.shuffle(spans)
    spans = spans[:max_total_mentions]

    k = rng.randint(1, min(max_clusters, max(1, len(spans))))
    clusters: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for span in spans:
        clusters[rng.randrange(k)].append(span)
    clusters = [sorted(c) for c in clusters if c]
    if ensure_links and not any(len(c) > 1 for c in clusters):
        if len(clusters) > 1:
            merged = sorted(clusters[0] + clusters[1])
            clusters = [merged] + clusters[2:]
        elif clusters and len(spans) >= 2:
            clusters = [sorted(spans[:2])] + [[s] for s in spans[2:]]

    active_labels = labels if max_labels is None else labels[:max_labels]
    cner: set[tuple[int, int, str]] = set()
    cluster_classes = [rng.choice(active_labels) for _ in clusters]
    for cls, cluster in zip(cluster_classes, clusters):
        for start, end in cluster:
            if end - start == 1 and tokens[start] in PRONOUN_TOKENS:
                continue
            roll = rng.random()
            if roll < 0.55:
                cner.add((start, end, cls))
            elif roll < 0.70:
                shifted_end = min(end + 1, n)
                if shifted_end > start:
                    cner.add((start, shifted_end, cls))
            elif roll < 0.78:
                cner.add((start, end, rng.choice(active_labels)))
    for _ in range(cner_noise):
        start = rng.randrange(n)
        end = min(start + rng.randint(1, 3), n)
        if end > start:
            cner.add((start, end, rng.choice(active_labels)))
    if ensure_direct:
        target = next((c for c in clusters if len(c) > 1), clusters[0] if clusters else None)
        if target is not None:
            start, end = target[0]
            cls = cluster_classes[clusters.index(target)]
            cner = {t for t in cner if (t[0], t[1]) != (start, end)}
            cner.add((start, end, cls))

    if identity:
        predicted = [list(c) for c in clusters]
    else:
        predicted = _perturb(rng, clusters, n)

    return {
        "doc_id": doc_id,
        "tokens": tokens,
        "gold_clusters": [[[s, e] for s, e in c] for c in clusters],
        "predicted_clusters": [[[s, e] for s, e in c] for c in predicted],
        "cner": [[s, e, label] for s, e, label in sorted(cner)],
    }


def _perturb(rng: random.Random, clusters, n_tokens: int):
    predicted: list[list[tuple[int, int]]] = []
    used: set[tuple[int, int]] = set()
    for cluster in clusters:
        kept = [s for s in cluster if rng.random() > 0.15]
        if not kept:
            continue
        moved = []
        for start, end in kept:
            if rng.random() < 0.12 and end + 1 <= n_tokens:
                shifted = (start + 1, end + 1)
                if shifted not in used and shifted[0] < shifted[1]:
                    moved.append(shifted)
                    used.add(shifted)
                    continue
            if (start, end) not in used:
                moved.append((start, end))
                used.add((start, end))
        if not moved:
            continue
        if len(moved) >= 3 and rng.random() < 0.2:
            cut = rng.randint(1, len(moved) - 1)
            predicted.append(sorted(moved[:cut]))
            predicted.append(sorted(moved[cut:]))
        else:
            predicted.append(sorted(moved))
    if len(predicted) >= 2 and rng.random() < 0.15:
        merged = sorted(predicted[0] + predicted[1])
        predicted = [merged] + predicted[2:]
    for _ in range(rng.randint(0, 2)):
        start = rng.randrange(n_tokens)
        end = min(start + rng.randint(1, 2), n_tokens)
        if end > start and (start, end) not in used:
            used.add((start, end))
            predicted.append([(start, end)])
    return predicted


def random_corpus(rng: random.Random, n_docs: int, prefix: str = "doc", **kwargs) -> list[dict]:
    return [random_record(rng, f"{prefix}{i:04d}", **kwargs) for i in range(n_docs)]


def to_documents(records, inventory: CategoryInventory | None = None):
    """The Documents of records, read by the package's JSONL reader from
    the lines that json.dumps makes of them."""
    lines = "".join(json.dumps(record) + "\n" for record in records)
    return read_jsonl_corpus(io.StringIO(lines), inventory)
