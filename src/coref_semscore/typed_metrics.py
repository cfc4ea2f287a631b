"""Per-class mention and link scoring over semantically labeled corpora.

Mention mode scores exact-span mention detection stratified by the
mention-level label; link mode scores unordered same-cluster mention
pairs stratified by the cluster label.  In both modes a predicted item
only earns credit against a gold item of the same class: a span (or pair)
match with a different gold class counts as a false positive for the
predicted class and a false negative for the gold class.  Unlabeled
mentions and links are excluded from the per-class counts and tallied in
a side channel instead.

Both scorers take a corpus's overlap tables, one model.contingency per
document, and fold over them, so the tables a caller builds once serve
both modes and the classic metrics too: mention true positives are each
table's shared spans that agree on a label, link true positives come from
its cells, and the other counts are item counts per side.  No pair is
built.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations
from math import fsum
from typing import Iterable, Mapping, NamedTuple, Sequence

from .model import Cluster, Contingency
from .model import pair_by_doc_id  # noqa: F401 (perfbench/child.py wraps it by name)

SpanPair = tuple[tuple[int, int], tuple[int, int]]

MODE_MENTION = "mention"
MODE_LINK = "link"


class ClassScore(NamedTuple):
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


class TypedScoreReport(NamedTuple):
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
    spans = sorted((start, end) for start, end in cluster.spans)
    return [((a, b), cluster.cluster_label) for a, b in combinations(spans, 2)]


def _report(
    mode: str,
    tp: Counter[str | None],
    gold_items: Counter[str | None],
    pred_items: Counter[str | None],
    link_mention_source: str | None = None,
    containment_violations: int | None = None,
) -> TypedScoreReport:
    """Scores from each class's true positives and item counts per side.

    Every predicted item of a class that is not a true positive is a
    false positive, and every such gold item a false negative; the items
    counted under None are the unlabeled tallies.
    """
    scores = [
        ClassScore(label, tp[label], pred_items[label] - tp[label], gold_items[label] - tp[label])
        for label in gold_items.keys() | pred_items.keys()
        if label is not None
    ]
    scores.sort(key=lambda score: (-score.support, score.label))
    return TypedScoreReport(
        mode=mode,
        per_class={score.label: score for score in scores},
        unlabeled_gold=gold_items[None],
        unlabeled_predicted=pred_items[None],
        link_mention_source=link_mention_source,
        containment_violations=containment_violations,
    )


def typed_mention_scores(tables: Sequence[Contingency]) -> TypedScoreReport:
    """Exact-span mention detection per class.

    A predicted mention labeled t is a true positive when a gold mention
    with the same span carries label t as well; the overlap table counts
    those spans per label.
    """
    tp: Counter[str | None] = Counter()
    for table in tables:
        tp.update(table.agreed)
    gold_mentions = Counter(chain.from_iterable([c.labels for t in tables for c in t.gold]))
    pred_mentions = Counter(chain.from_iterable([c.labels for t in tables for c in t.pred]))
    return _report(MODE_MENTION, tp, gold_mentions, pred_mentions)


def _tally_links(clusters: Sequence[Cluster], links: Counter) -> None:
    """Add each cluster's k(k-1)/2 links to links[cluster_label]."""
    for cluster in clusters:
        k = len(cluster.spans)
        if k > 1:
            links[cluster.cluster_label] += k * (k - 1) // 2


def typed_link_scores(
    tables: Sequence[Contingency], link_mention_source: str = "predicted"
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
    for gold, pred, cells, _ in tables:
        for (i, j), n in cells.items():
            label = gold[i].cluster_label
            if n > 1 and label is not None and label == pred[j].cluster_label:
                tp[label] += n * (n - 1) // 2
        _tally_links(gold, gold_links)
        _tally_links(pred, pred_links)
        if link_mention_source == "gold":
            violations += sum(len(c.spans) for c in pred) - sum(cells.values())
    return _report(
        MODE_LINK,
        tp,
        gold_links,
        pred_links,
        link_mention_source=link_mention_source,
        containment_violations=violations if link_mention_source == "gold" else None,
    )
