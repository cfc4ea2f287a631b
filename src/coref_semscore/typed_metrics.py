"""Per-class mention and link scoring over semantically labeled corpora.

Mention mode scores exact-span mention detection stratified by the
mention-level label; link mode scores unordered same-cluster mention
pairs stratified by the cluster label.  In both modes a predicted item
only earns credit against a gold item of the same class: a span (or pair)
match with a different gold class counts as a false positive for the
predicted class and a false negative for the gold class.  Unlabeled
mentions and links are excluded from the per-class counts and tallied in
a side channel instead.

Link counts come from each document's sparse gold-cluster × predicted-
cluster overlap counts (model.contingency) and the cluster sizes; no pair
is built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import fsum
from typing import Iterable, Mapping, Sequence

from .model import Cluster, Document, contingency, pair_by_doc_id

SpanPair = tuple[tuple[int, int], tuple[int, int]]

MODE_MENTION = "mention"
MODE_LINK = "link"


@dataclass(frozen=True)
class ClassScore:
    label: str
    tp: int
    fp: int
    fn: int

    @property
    def support(self) -> int:
        """Gold-side item count for this class."""
        return self.tp + self.fn

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        # 2tp / (2tp + fp + fn) is the harmonic mean of precision and
        # recall, computed in one exactly rounded division.
        denom = 2 * self.tp + self.fp + self.fn
        return 2 * self.tp / denom if denom else 0.0


def micro_score(scores: Iterable[ClassScore]) -> ClassScore:
    """Pool tp/fp/fn over classes."""
    tp = fp = fn = 0
    for score in scores:
        tp, fp, fn = tp + score.tp, fp + score.fp, fn + score.fn
    return ClassScore("micro", tp, fp, fn)


def macro_f1(scores: Iterable[ClassScore]) -> float:
    """Unweighted mean F1 over classes with gold support."""
    values = [score.f1 for score in scores if score.support > 0]
    return fsum(values) / len(values) if values else 0.0


@dataclass(frozen=True)
class TypedScoreReport:
    """Per-class scores plus pooled and averaged aggregates.

    per_class is ordered by descending gold support, then label.  The
    macro average runs over classes with gold support only; classes
    predicted by the system but absent from gold still contribute false
    positives to the micro scores and are listed separately.
    """

    mode: str
    per_class: Mapping[str, ClassScore]
    unlabeled_gold: int
    unlabeled_predicted: int
    link_mention_source: str | None = None
    containment_violations: int | None = None

    @property
    def micro(self) -> ClassScore:
        return micro_score(self.per_class.values())

    @property
    def macro_f1(self) -> float:
        return macro_f1(self.per_class.values())

    @property
    def macro_classes(self) -> list[str]:
        return sorted(label for label, s in self.per_class.items() if s.support > 0)

    @property
    def predicted_only_classes(self) -> list[str]:
        return sorted(label for label, s in self.per_class.items() if s.support == 0)


def links_of(cluster: Cluster) -> list[tuple[SpanPair, str | None]]:
    """All unordered distinct mention-span pairs of a cluster.

    Pairs are canonicalized by sorting their endpoints, carry the cluster
    label (None when unlabeled), and number k(k-1)/2 for k mentions.
    Link scoring counts pairs from cluster sizes and never builds them.
    """
    spans = sorted((m.span.start, m.span.end) for m in cluster.mentions)
    return [((a, b), cluster.cluster_label) for a, b in combinations(spans, 2)]


class _Counts:
    __slots__ = ("tp", "fp", "fn")

    def __init__(self) -> None:
        self.tp = self.fp = self.fn = 0


def _count_matches(
    gold_items: Mapping, pred_items: Mapping, counts: dict[str, _Counts]
) -> tuple[int, int]:
    """Class-matched counting of labeled items keyed by identity.

    Returns (unlabeled_gold, unlabeled_pred) side-channel tallies.
    """
    unlabeled_gold = unlabeled_pred = 0
    for item, label in pred_items.items():
        if label is None:
            unlabeled_pred += 1
        elif gold_items.get(item) == label:
            counts.setdefault(label, _Counts()).tp += 1
        else:
            counts.setdefault(label, _Counts()).fp += 1
    for item, label in gold_items.items():
        if label is None:
            unlabeled_gold += 1
        elif pred_items.get(item) != label:
            counts.setdefault(label, _Counts()).fn += 1
    return unlabeled_gold, unlabeled_pred


def _report(
    mode: str,
    scores: dict[str, ClassScore],
    unlabeled_gold: int,
    unlabeled_pred: int,
    link_mention_source: str | None = None,
    containment_violations: int | None = None,
) -> TypedScoreReport:
    ordered = dict(sorted(scores.items(), key=lambda item: (-item[1].support, item[0])))
    return TypedScoreReport(
        mode=mode,
        per_class=ordered,
        unlabeled_gold=unlabeled_gold,
        unlabeled_predicted=unlabeled_pred,
        link_mention_source=link_mention_source,
        containment_violations=containment_violations,
    )


def _mention_labels(clusters: Sequence[Cluster]) -> dict[tuple[int, int], str | None]:
    return {
        (m.span.start, m.span.end): m.assigned_label
        for cluster in clusters
        for m in cluster.mentions
    }


def typed_mention_scores(
    gold_docs: Sequence[Document], pred_docs: Sequence[Document]
) -> TypedScoreReport:
    """Exact-span mention detection per class.

    A predicted mention labeled t is a true positive when a gold mention
    with the same span carries label t as well.
    """
    counts: dict[str, _Counts] = {}
    unlabeled_gold = unlabeled_pred = 0
    for gold_doc, pred_doc in pair_by_doc_id(gold_docs, pred_docs):
        ug, up = _count_matches(
            _mention_labels(gold_doc.gold_clusters),
            _mention_labels(pred_doc.predicted_clusters),
            counts,
        )
        unlabeled_gold += ug
        unlabeled_pred += up
    scores = {label: ClassScore(label, c.tp, c.fp, c.fn) for label, c in counts.items()}
    return _report(MODE_MENTION, scores, unlabeled_gold, unlabeled_pred)


def _tally_links(clusters: Sequence[Cluster], links: Counter) -> None:
    """Add each cluster's k(k-1)/2 links to links[cluster_label]."""
    for cluster in clusters:
        k = len(cluster.mentions)
        if k > 1:
            links[cluster.cluster_label] += k * (k - 1) // 2


def typed_link_scores(
    gold_docs: Sequence[Document],
    pred_docs: Sequence[Document],
    link_mention_source: str = "predicted",
) -> TypedScoreReport:
    """Same-cluster mention pairs per class.

    A pair is a link on both sides exactly when both mentions sit in the
    same cell of the cluster-overlap table, so the true positives of
    class t are the sum of n_ij(n_ij - 1)/2 over cells whose gold and
    predicted clusters are both labeled t.  Every other link of a cluster
    labeled t is a false positive (predicted side) or a false negative
    (gold side); links of unlabeled clusters are tallied separately.

    With link_mention_source="gold" the predicted clusters are expected to
    partition a subset of the gold mention spans; spans violating that
    assumption are counted and reported, not fatal.
    """
    if link_mention_source not in ("predicted", "gold"):
        raise ValueError(f"unknown link_mention_source {link_mention_source!r}")
    tp: Counter[str] = Counter()
    gold_links: Counter[str | None] = Counter()
    pred_links: Counter[str | None] = Counter()
    violations = 0
    for gold_doc, pred_doc in pair_by_doc_id(gold_docs, pred_docs):
        gold, pred = gold_doc.gold_clusters, pred_doc.predicted_clusters
        table = contingency(gold_doc, pred_doc)
        for (i, j), n in table.items():
            label = gold[i].cluster_label
            if n > 1 and label is not None and label == pred[j].cluster_label:
                tp[label] += n * (n - 1) // 2
        _tally_links(gold, gold_links)
        _tally_links(pred, pred_links)
        if link_mention_source == "gold":
            violations += sum(len(c.mentions) for c in pred) - sum(table.values())
    unlabeled_gold = gold_links.pop(None, 0)
    unlabeled_pred = pred_links.pop(None, 0)
    scores = {
        label: ClassScore(
            label, tp[label], pred_links[label] - tp[label], gold_links[label] - tp[label]
        )
        for label in gold_links.keys() | pred_links.keys()
    }
    return _report(
        MODE_LINK,
        scores,
        unlabeled_gold,
        unlabeled_pred,
        link_mention_source=link_mention_source,
        containment_violations=violations if link_mention_source == "gold" else None,
    )
