"""Two-step semantic labeling of coreference clusters, plus diagnostics.

Step one (mention assignment) aligns each mention to the best-overlapping
semantic span by token-level Jaccard similarity and keeps that span's
label when the score beats the threshold.  Step two (propagation) votes a
label per cluster over its directly labeled mentions and writes it onto
every member, pronouns included; clusters with no directly labeled
mention stay unlabeled.  A cluster's mentions are its columns: labeling
reads their spans and writes their labels, sources and overlaps, through
one builder.  A label_documents pass aligns each mention span
once per document, against the document's (start, end, label) triples,
into the (label, overlap) of its direct label or None, which the gold and
predicted mentions at that span share, and writes the clusters' label
columns from those.  reuse_fault is the inverse check:
whether labels read back are these.

The coverage report lives here too; the label-distribution and
reference-agreement reports are in label_reports.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from math import fsum, inf
from pathlib import Path
from typing import IO, Iterable, NamedTuple, Sequence, Union

from .inventory import opened
from .model import (
    SIDES,
    Cluster,
    Document,
    LabelSource,
    Span,
    _checked_replace,
    _trusted_cluster,
)

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


class _LabelingFields(NamedTuple):
    tau: float
    tau_inclusive: bool
    force_cluster_label: bool


class LabelingConfig(_LabelingFields):
    """Knobs for assignment and propagation.

    tau is compared strictly (score > tau) unless tau_inclusive is set.
    force_cluster_label overwrites directly assigned labels that disagree
    with the voted cluster label, for pure cluster-level typing.  tau is
    stored as tau + 0.0, so -0.0, which labels as 0.0 does, is stored and
    reported as 0.0.
    """

    __slots__ = ()

    def __new__(
        cls, tau: float = 0.5, tau_inclusive: bool = False, force_cluster_label: bool = False
    ) -> "LabelingConfig":
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {tau}")
        return tuple.__new__(cls, (tau + 0.0, tau_inclusive, force_cluster_label))

    _replace = __replace__ = _checked_replace

    def passes(self, score: float) -> bool:
        """Whether an assignment at overlap `score` passes tau."""
        return score >= self.tau if self.tau_inclusive else score > self.tau


def overlap(a: Span, b: Span) -> float:
    """Token-level Jaccard similarity of two spans."""
    a_start, a_end = a
    b_start, b_end = b
    inter = (a_end if a_end < b_end else b_end) - (a_start if a_start > b_start else b_start)
    if inter <= 0:
        return 0.0
    return inter / (a_end - a_start + b_end - b_start - inter)


def load_pronoun_lexicon(source: Union[str, Path, IO[str]]) -> frozenset[str]:
    """One token per line; blank lines and # comments are skipped."""
    with opened(source) as handle:
        lines = handle.read().splitlines()
    entries = set()
    for line in lines:
        word = line.strip().lower()
        if word and not word.startswith("#"):
            entries.add(word)
    return frozenset(entries)


_NONE, _DIRECT, _PROPAGATED = LabelSource.NONE, LabelSource.DIRECT, LabelSource.PROPAGATED
# A mention's direct label and its overlap, or None for a mention without one.
_Direct = tuple[str, float] | None


class _Alignments(dict):
    """Span -> the (label, overlap) of a direct label for a mention at that
    span in one document, or None when its best overlap does not pass tau.

    The assignment depends only on the span, the document's semantic
    spans (its cner triples) and cfg, so a span is aligned on its first
    lookup and kept: one table serves every mention of one document, on
    both sides.
    """

    __slots__ = ("_ordered", "_starts", "_longest", "_cfg")

    def __init__(self, cner: Iterable[tuple[int, int, str]], cfg: LabelingConfig) -> None:
        self._ordered = sorted(cner)
        self._starts = [start for start, _, _ in self._ordered]
        self._longest = max([end - start for start, end, _ in self._ordered], default=0)
        self._cfg = cfg

    def __missing__(self, span: Span) -> _Direct:
        """The label and Jaccard score of the best-overlapping semantic span.

        Only the spans that start in (mention.start - longest, mention.end)
        are scored: every span that overlaps the mention starts there,
        since no span is longer than the longest.  Ties on the score
        prefer the span with the smaller start, then the smaller end, then
        the lexicographically smaller label.  The spans are visited in that
        order, which is total, so the first best score wins, the result
        does not depend on the spans' file order, and assignment is
        deterministic.
        """
        start, end = span
        lo = bisect_right(self._starts, start - self._longest)
        hi = bisect_left(self._starts, end, lo)
        best_score = 0.0
        best_label = None
        for sem_start, sem_end, label in self._ordered[lo:hi]:
            score = overlap(span, (sem_start, sem_end))
            if score > best_score:
                best_score, best_label = score, label
        aligned = None
        if best_label is not None and self._cfg.passes(best_score):
            aligned = best_label, best_score
        self[span] = aligned
        return aligned


def _relabel(cluster: Cluster, direct: Sequence[_Direct], label: str | None,
             force: bool) -> Cluster:
    """The cluster rebuilt with `label` and its mentions' labels: the one
    place a labeled Cluster is built.

    `direct` holds each mention's direct (label, overlap), or None.  A
    direct mention keeps its own label, or takes `label` when `force` is
    set (which needs a `label`); any other mention takes `label` as
    propagated, or is left unlabeled when `label` is None.  The spans are
    those of `cluster`, already checked when it was built.
    """
    other = (None, _NONE, None) if label is None else (label, _PROPAGATED, None)
    rows = [other if d is None else (label if force else d[0], _DIRECT, d[1]) for d in direct]
    return _trusted_cluster(cluster.spans, *zip(*rows), label)


def assign_mentions(doc: Document, cfg: LabelingConfig, side: str) -> Document:
    """Directly label mentions whose best span overlap beats the threshold.

    Replaces any previous labels on the chosen side; mentions without a
    sufficiently overlapping semantic span are left unlabeled.
    """
    aligned = _Alignments(doc.cner, cfg)
    return doc.with_clusters(side, [
        _relabel(c, [aligned[span] for span in c.spans], None, False)
        for c in doc.clusters(side)
    ])


def _vote(direct: Iterable[_Direct]) -> str | None:
    """Majority label over the direct (label, overlap) pairs; None
    entries, for the other mentions, are skipped, and with no direct label
    at all there is no label.

    Frequency ties fall back to the highest mean assignment overlap among
    each tied label's supporting mentions, then to the lexicographically
    smallest label name.
    """
    overlaps_by_label: dict[str, list[float]] = defaultdict(list)
    for d in direct:
        if d is not None:
            overlaps_by_label[d[0]].append(d[1])
    ranked = min(
        ((-len(scores), -(fsum(scores) / len(scores)), label)
         for label, scores in overlaps_by_label.items()),
        default=None,
    )
    return None if ranked is None else ranked[2]


def _cluster_label(direct: Sequence[_Direct]) -> str | None:
    """The label of a cluster whose mentions have the direct (label,
    overlap) pairs in `direct` (None entries are skipped): voted on only
    when the direct labels disagree, and None with no direct label."""
    labels = {d[0] for d in direct if d is not None}
    return _vote(direct) if len(labels) > 1 else labels.pop() if labels else None


def _label_cluster(cluster: Cluster, direct: Sequence[_Direct], force: bool) -> Cluster:
    """The cluster labeled from `direct` and rebuilt by _relabel."""
    return _relabel(cluster, direct, _cluster_label(direct), force)


def unlabeled_sides(docs: Sequence[Document], sides: Sequence[str]) -> list[str]:
    """Those of `sides` that have clusters but not one cluster label."""
    return [
        side for side in sides
        if any(doc.clusters(side) for doc in docs)
        and all(c.cluster_label is None for doc in docs for c in doc.clusters(side))
    ]


_NEVER = "which labeling never gives; label the unlabeled corpus"


def _at(span: Span) -> str:
    return f"at span [{span.start}, {span.end})"


def reuse_fault(doc: Document, cfg: LabelingConfig, side: str,
                respanned: str | None = None) -> str | None:
    """Why labeling `side` of `doc` under cfg would not give the labels it
    carries, or None when it would.

    A cluster with a direct label must carry _cluster_label's choice from
    its direct labels, and every other mention that label as propagated;
    under cfg.force_cluster_label every direct label must be it too.  A
    cluster with no direct label may carry any label, as hand-labeled
    clusters do, but its propagated labels must be its own.  The fault is
    that of the first cluster that breaks this; else `respanned` where it
    is given and the side has a direct label (the document's semantic
    spans are not those its labels came from); else the lowest direct
    overlap, when it fails cfg's tau test.

    Each cluster's direct labels are listed as it is walked, and the vote
    runs only where another label's count reaches the cluster label's,
    which needs the cluster label to hold at most half of them.
    """
    worst, low = None, inf
    for index, cluster in enumerate(doc.clusters(side)):
        label = cluster.cluster_label
        direct = []
        bare = None
        columns = zip(cluster.spans, cluster.labels, cluster.sources, cluster.overlaps)
        for span, assigned, source, score in columns:
            if source is _DIRECT:
                direct.append(assigned)
                if score < low:
                    worst, low = span, score
            elif source is _PROPAGATED:
                if assigned != label:
                    return (f"cluster {index} has label {label!r} and a propagated label "
                            f"{assigned!r} {_at(span)}, {_NEVER}")
            elif bare is None:
                bare = span
        if not direct:
            continue
        elif label not in direct:
            fault = f"direct labels {sorted(set(direct))!r}, {_NEVER}"
        elif ((own := direct.count(label)) * 2 <= len(direct)
              and max(map(direct.count, set(direct) - {label})) >= own
              and (vote := _vote(_direct_labels(cluster))) != label):
            fault = f"direct labels {sorted(set(direct))!r} that vote {vote!r}, {_NEVER}"
        elif cfg.force_cluster_label and own < len(direct):
            span, other = next((s, d[0]) for s, d in zip(cluster.spans, _direct_labels(cluster))
                               if d is not None and d[0] != label)
            fault = (f"a direct label {other!r} {_at(span)}, which labeling "
                     "with --force-cluster-label never gives; label the unlabeled corpus with it")
        elif bare is not None:
            fault = f"an unlabeled mention {_at(bare)}, {_NEVER}"
        else:
            continue
        return f"cluster {index} has label {label!r} and {fault}"
    if worst is not None and respanned is not None:
        return respanned
    if worst is not None and not cfg.passes(low):
        return (f"span [{worst.start}, {worst.end}) has a direct label at overlap "
                f"{low!r}, not {'>=' if cfg.tau_inclusive else '>'} tau {cfg.tau!r}; label the "
                "unlabeled corpus at this tau")
    return None


def propagate(doc: Document, cfg: LabelingConfig, side: str) -> Document:
    """Vote a label per cluster and write it onto every member mention.

    Directly labeled mentions keep their own label and source even when it
    disagrees with the cluster label (unless cfg.force_cluster_label).  A
    cluster with no directly labeled mention keeps no label: its cluster
    label and every propagated mention label are cleared.  Applying this
    twice changes nothing.
    """
    return doc.with_clusters(side, [
        _label_cluster(c, _direct_labels(c), cfg.force_cluster_label) for c in doc.clusters(side)
    ])


def _direct_labels(cluster: Cluster) -> list[_Direct]:
    """Each mention's direct (label, overlap), or None where it has none."""
    return [(label, score) if source is _DIRECT else None
            for label, source, score in zip(cluster.labels, cluster.sources, cluster.overlaps)]


def label_documents(
    docs: Iterable[Document],
    cfg: LabelingConfig | None = None,
    sides: Sequence[str] = SIDES,
) -> list[Document]:
    """Run assignment and propagation over a corpus, on both sides by default.

    Each document equals propagate(assign_mentions(doc, cfg, side), cfg,
    side) side by side, on each of `sides` that has clusters, but is
    labeled in one loop per side, in which each mention span of the
    document is aligned once.
    """
    cfg = cfg or LabelingConfig()
    labeled = []
    for doc in docs:
        aligned = _Alignments(doc.cner, cfg)
        clusters = {
            f"{side}_clusters": tuple([
                _label_cluster(c, [aligned[span] for span in c.spans], cfg.force_cluster_label)
                for c in doc.clusters(side)
            ])
            for side in sides if doc.clusters(side)
        }
        labeled.append(doc._copy(**clusters) if clusters else doc)
    return labeled


class CoverageCounts(NamedTuple):
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


class CoverageReport(NamedTuple):
    overall: CoverageCounts
    pronoun: CoverageCounts


def coverage(
    docs: Iterable[Document], side: str, pronouns: frozenset[str] = DEFAULT_PRONOUNS
) -> CoverageReport:
    """Fraction of mentions labeled directly vs. by propagation.

    The pronoun block restricts to single-token mentions whose lowercased
    text is in `pronouns`.
    """
    overall: list[LabelSource] = []
    pronoun: list[LabelSource] = []
    for doc in docs:
        for cluster in doc.clusters(side):
            overall += cluster.sources
            pronoun += [source for (start, end), source in zip(cluster.spans, cluster.sources)
                        if end - start == 1 and doc.tokens[start].lower() in pronouns]
    return CoverageReport(*(CoverageCounts(len(s), s.count(_DIRECT), s.count(_PROPAGATED))
                            for s in (overall, pronoun)))
