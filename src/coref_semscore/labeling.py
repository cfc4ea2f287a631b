"""Two-step semantic labeling of coreference clusters, plus diagnostics.

Step one (mention assignment) aligns each mention to the best-overlapping
semantic span by token-level Jaccard similarity and keeps that span's
label when the score beats the threshold.  Step two (propagation) votes a
label per cluster over its directly labeled mentions and writes it onto
every member, pronouns included; clusters with no directly labeled
mention stay unlabeled.

Coverage, label-distribution, and reference-agreement reports live here
too, since they are all statements about labeled corpora.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from math import fsum
from pathlib import Path
from typing import IO, Iterable, Mapping, NamedTuple, Sequence, Union

from .inventory import CategoryInventory
from .model import SIDES, Cluster, Document, LabelSource, Mention, SemanticSpan, Span

# Closed-class English pronouns: personal, possessive, reflexive,
# demonstrative.  Matched case-insensitively on single-token mentions.
DEFAULT_PRONOUNS = frozenset(
    """
    i me you he him she her it we us they them
    my mine your yours his hers its our ours their theirs
    myself yourself himself herself itself ourselves yourselves themselves
    this that these those
    """.split()
)


@dataclass(frozen=True)
class LabelingConfig:
    """Knobs for assignment and propagation.

    tau is compared strictly (score > tau) unless tau_inclusive is set.
    force_cluster_label overwrites directly assigned labels that disagree
    with the voted cluster label, for pure cluster-level typing.
    """

    tau: float = 0.5
    tau_inclusive: bool = False
    force_cluster_label: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {self.tau}")


def overlap(a: Span, b: Span) -> float:
    """Token-level Jaccard similarity of two spans."""
    inter = min(a.end, b.end) - max(a.start, b.start)
    if inter <= 0:
        return 0.0
    union = (a.end - a.start) + (b.end - b.start) - inter
    return inter / union


def load_pronoun_lexicon(source: Union[str, Path, IO[str]]) -> frozenset[str]:
    """One token per line; blank lines and # comments are skipped."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    entries = set()
    for line in lines:
        word = line.strip().lower()
        if word and not word.startswith("#"):
            entries.add(word)
    return frozenset(entries)


class _SpanIndex(NamedTuple):
    """A document's semantic spans sorted by start, for window lookups."""

    ordered: tuple[SemanticSpan, ...]
    starts: list[int]
    longest: int


def _span_index(semantic_spans: Iterable[SemanticSpan]) -> _SpanIndex:
    ordered = tuple(sorted(semantic_spans, key=lambda sem: sem.span.start))
    starts = [sem.span.start for sem in ordered]
    longest = max((len(sem.span) for sem in ordered), default=0)
    return _SpanIndex(ordered, starts, longest)


def _best_alignment(mention_span: Span, index: _SpanIndex) -> tuple[str, float] | None:
    """Label and Jaccard score of the best-overlapping semantic span.

    Only the spans that start in (mention.start - longest, mention.end)
    are scored: every span that overlaps the mention starts there, since
    no span is longer than the longest.  Ties on the score prefer the span
    with the smaller start, then the smaller end, then the
    lexicographically smaller label.  That order is total, so the result
    does not depend on the order spans are visited in, and assignment is
    deterministic.
    """
    lo = bisect_right(index.starts, mention_span.start - index.longest)
    hi = bisect_left(index.starts, mention_span.end, lo)
    best_score = 0.0
    best_key: tuple[int, int, str] | None = None
    best_label: str | None = None
    for sem in index.ordered[lo:hi]:
        score = overlap(mention_span, sem.span)
        if score <= 0.0:
            continue
        key = (sem.span.start, sem.span.end, sem.label)
        if best_label is None or score > best_score or (score == best_score and key < best_key):
            best_score, best_key, best_label = score, key, sem.label
    if best_label is None:
        return None
    return best_label, best_score


_UNSEEN = object()
_NONE, _DIRECT, _PROPAGATED = LabelSource.NONE, LabelSource.DIRECT, LabelSource.PROPAGATED


def _direct(
    span: Span, cfg: LabelingConfig, index: _SpanIndex, memo: dict[Span, tuple[str, float] | None]
) -> tuple[str, float] | None:
    """The (label, overlap) a mention at `span` is directly assigned, or
    None when its best overlap does not pass tau.

    The result depends only on the span, the document's semantic spans
    and cfg, so it is computed once per span and kept in `memo`, which
    callers share across every mention of one document and one cfg.
    """
    aligned = memo.get(span, _UNSEEN)
    if aligned is _UNSEEN:
        aligned = _best_alignment(span, index)
        if aligned is not None and not (
            aligned[1] >= cfg.tau if cfg.tau_inclusive else aligned[1] > cfg.tau
        ):
            aligned = None
        memo[span] = aligned
    return aligned


def _relabel(
    cluster: Cluster, direct: Sequence[tuple[str, float] | None], label: str | None, force: bool
) -> Cluster:
    """The cluster rebuilt with `label` and its mentions' labels: the one
    place a labeled Mention or Cluster is built.

    `direct` holds the (label, overlap) each mention is directly assigned,
    or None.  A direct mention keeps its own label, or takes `label` when
    `force` is set (which needs a `label`); any other mention takes
    `label` as propagated, or is left unlabeled when `label` is None.
    """
    return Cluster(tuple([
        Mention(m.span, label if force else pair[0], _DIRECT, pair[1]) if pair is not None
        else Mention(m.span, label, _PROPAGATED) if label is not None
        else m if m.label_source is _NONE
        else Mention(m.span)
        for m, pair in zip(cluster.mentions, direct)
    ]), label)


def assign_mentions(doc: Document, cfg: LabelingConfig, side: str) -> Document:
    """Directly label mentions whose best span overlap beats the threshold.

    Replaces any previous labels on the chosen side; mentions without a
    sufficiently overlapping semantic span are left unlabeled.
    """
    index, memo = _span_index(doc.semantic_spans), {}
    return doc.with_clusters(side, [
        _relabel(c, [_direct(m.span, cfg, index, memo) for m in c.mentions], None, False)
        for c in doc.clusters(side)
    ])


def _vote(direct: Iterable[tuple[str, float] | None]) -> str | None:
    """Majority label over (label, assignment overlap) pairs, one per
    directly labeled mention; None entries, for the other mentions, are
    skipped, and with no pair at all there is no label.

    Frequency ties fall back to the highest mean assignment overlap among
    each tied label's supporting mentions, then to the lexicographically
    smallest label name.
    """
    overlaps_by_label: dict[str, list[float]] = defaultdict(list)
    for pair in direct:
        if pair is not None:
            overlaps_by_label[pair[0]].append(pair[1])
    ranked = min(
        ((-len(scores), -(fsum(scores) / len(scores)), label)
         for label, scores in overlaps_by_label.items()),
        default=None,
    )
    return None if ranked is None else ranked[2]


def propagate(doc: Document, cfg: LabelingConfig, side: str) -> Document:
    """Vote a label per cluster and write it onto every member mention.

    Directly labeled mentions keep their own label and source even when it
    disagrees with the cluster label (unless cfg.force_cluster_label).  A
    cluster with no directly labeled mention keeps no label: its cluster
    label and every propagated mention label are cleared.  Applying this
    twice changes nothing.
    """
    new_clusters = []
    for cluster in doc.clusters(side):
        direct = [
            (m.assigned_label, m.assignment_overlap) if m.label_source is _DIRECT else None
            for m in cluster.mentions
        ]
        new_clusters.append(_relabel(cluster, direct, _vote(direct), cfg.force_cluster_label))
    return doc.with_clusters(side, new_clusters)


def _label_side(
    clusters: Sequence[Cluster],
    cfg: LabelingConfig,
    index: _SpanIndex,
    memo: dict[Span, tuple[str, float] | None],
) -> list[Cluster]:
    """propagate(assign_mentions(...)) for one side's clusters, building
    each labeled Mention and Cluster once."""
    labeled = []
    for cluster in clusters:
        direct = [_direct(m.span, cfg, index, memo) for m in cluster.mentions]
        labeled.append(_relabel(cluster, direct, _vote(direct), cfg.force_cluster_label))
    return labeled


def label_document(doc: Document, cfg: LabelingConfig, sides: Sequence[str] = SIDES) -> Document:
    """Assignment then propagation on each of `sides` that has clusters.

    Equal to propagate(assign_mentions(doc, cfg, side), cfg, side) side by
    side, done in one pass: the semantic spans are indexed once, and a
    span that is a mention on both sides is aligned once.
    """
    index, memo = _span_index(doc.semantic_spans), {}
    labeled = {
        f"{side}_clusters": _label_side(clusters, cfg, index, memo)
        for side in sides
        if (clusters := doc.clusters(side))
    }
    return replace(doc, **labeled) if labeled else doc


def label_documents(
    docs: Iterable[Document],
    cfg: LabelingConfig | None = None,
    sides: Sequence[str] = SIDES,
) -> list[Document]:
    """Run assignment and propagation over a corpus, on both sides by default."""
    cfg = cfg or LabelingConfig()
    return [label_document(doc, cfg, sides) for doc in docs]


@dataclass(frozen=True)
class CoverageCounts:
    total: int
    direct: int
    propagated: int

    @property
    def unlabeled(self) -> int:
        return self.total - self.direct - self.propagated

    @property
    def direct_pct(self) -> float:
        return 100.0 * self.direct / self.total if self.total else 0.0

    @property
    def propagated_pct(self) -> float:
        return 100.0 * self.propagated / self.total if self.total else 0.0

    @property
    def any_pct(self) -> float:
        # The sum of the two bucket percentages, exactly: every mention is
        # counted in at most one bucket.
        return self.direct_pct + self.propagated_pct


@dataclass(frozen=True)
class CoverageReport:
    overall: CoverageCounts
    pronoun: CoverageCounts


def _is_pronoun(doc: Document, mention: Mention, lexicon: frozenset[str]) -> bool:
    span = mention.span
    return len(span) == 1 and doc.tokens[span.start].lower() in lexicon


def coverage(
    docs: Iterable[Document], side: str, pronouns: frozenset[str] = DEFAULT_PRONOUNS
) -> CoverageReport:
    """Fraction of mentions labeled directly vs. by propagation.

    The pronoun block restricts to single-token mentions whose lowercased
    text is in `pronouns`.
    """
    total = direct = propagated = 0
    p_total = p_direct = p_propagated = 0
    for doc in docs:
        for cluster in doc.clusters(side):
            for mention in cluster.mentions:
                is_direct = mention.label_source is LabelSource.DIRECT
                is_prop = mention.label_source is LabelSource.PROPAGATED
                total += 1
                direct += is_direct
                propagated += is_prop
                if _is_pronoun(doc, mention, pronouns):
                    p_total += 1
                    p_direct += is_direct
                    p_propagated += is_prop
    return CoverageReport(
        overall=CoverageCounts(total, direct, propagated),
        pronoun=CoverageCounts(p_total, p_direct, p_propagated),
    )


@dataclass(frozen=True)
class DistributionReport:
    """Counts and shares of mention labels over a corpus side."""

    counts: Mapping[str, int]
    total_labeled: int
    unlabeled: int
    absent_labels: tuple[str, ...]

    @property
    def shares(self) -> dict[str, float]:
        if not self.total_labeled:
            return {label: 0.0 for label in self.counts}
        return {label: count / self.total_labeled for label, count in self.counts.items()}


def distribution(
    docs: Iterable[Document],
    inventory: CategoryInventory | None = None,
    side: str = "gold",
) -> DistributionReport:
    """Label distribution over labeled mentions, plus absent inventory labels."""
    inventory = inventory or CategoryInventory.default()
    counter: Counter[str] = Counter()
    unlabeled = 0
    for doc in docs:
        for cluster in doc.clusters(side):
            for mention in cluster.mentions:
                if mention.assigned_label is None:
                    unlabeled += 1
                else:
                    counter[mention.assigned_label] += 1
    ordered = dict(sorted(counter.items(), key=lambda item: (-item[1], item[0])))
    absent = tuple(sorted(label for label in inventory.labels if label not in counter))
    return DistributionReport(
        counts=ordered,
        total_labeled=sum(counter.values()),
        unlabeled=unlabeled,
        absent_labels=absent,
    )


@dataclass(frozen=True)
class AgreementReport:
    true_positives: int
    system_labeled: int
    reference_total: int

    @property
    def precision(self) -> float:
        return self.true_positives / self.system_labeled if self.system_labeled else 0.0

    @property
    def recall(self) -> float:
        return self.true_positives / self.reference_total if self.reference_total else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


def label_agreement(
    reference: Mapping[tuple[str, int], str], docs: Sequence[Document]
) -> AgreementReport:
    """Score system cluster labels against reference labels.

    Reference keys are (doc_id, gold cluster index).  Precision is over
    system-labeled clusters that have a reference entry; recall over all
    reference entries.
    """
    by_id = {doc.doc_id: doc for doc in docs}
    tp = 0
    system_labeled = 0
    for (doc_id, cluster_index), ref_label in reference.items():
        doc = by_id.get(doc_id)
        if doc is None:
            raise KeyError(f"reference key ({doc_id!r}, {cluster_index}) matches no document")
        if not 0 <= cluster_index < len(doc.gold_clusters):
            raise KeyError(
                f"reference key ({doc_id!r}, {cluster_index}) is out of range: "
                f"document has {len(doc.gold_clusters)} gold clusters"
            )
        system_label = doc.gold_clusters[cluster_index].cluster_label
        if system_label is not None:
            system_labeled += 1
            tp += system_label == ref_label
    return AgreementReport(
        true_positives=tp,
        system_labeled=system_labeled,
        reference_total=len(reference),
    )
