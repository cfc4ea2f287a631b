"""Aggregate coreference metrics: MUC, B-cubed, CEAF (phi4), CoNLL mean.

Statistics are pooled over documents the way the reference CoNLL-2012
scorer pools them, with twinless mentions counting only against their own
side's denominator.  MUC and B-cubed come from each document's sparse
gold-cluster × predicted-cluster overlap counts (model.contingency) and
the cluster sizes; no mention is scored one by one.  CEAF aligns clusters
by phi4 over their span sets.  All accumulation is done in exact rational
arithmetic and converted to float once at the end, so results are
reproducible bit-for-bit and the optimal-assignment step can be checked
against exhaustive search exactly.  Degenerate 0/0 ratios are defined as
0 (MUC on all-singleton corpora included).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .model import Cluster, Document, Span, contingency, pair_by_doc_id


@dataclass(frozen=True)
class MetricTriple:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class ClassicReport:
    muc: MetricTriple
    b_cubed: MetricTriple
    ceaf_phi4: MetricTriple

    @property
    def conll_f1(self) -> float:
        return (self.muc.f1 + self.b_cubed.f1 + self.ceaf_phi4.f1) / 3


def _ratio(num: Fraction | int, den: Fraction | int) -> Fraction:
    return Fraction(num) / den if den else Fraction(0)


def _triple(p_num, p_den, r_num, r_den) -> MetricTriple:
    p = _ratio(p_num, p_den)
    r = _ratio(r_num, r_den)
    f1 = 2 * p * r / (p + r) if p + r else Fraction(0)
    return MetricTriple(float(p), float(r), float(f1))


def _span_sets(clusters: Sequence[Cluster]) -> list[set[Span]]:
    return [{m.span for m in c.mentions} for c in clusters]


class RatioCounts(NamedTuple):
    """Numerators and denominators of a metric's precision and recall,
    pooled over documents; pooling two corpora adds them field by field."""

    p_num: Fraction | int
    p_den: int
    r_num: Fraction | int
    r_den: int


def muc_counts(gold_docs: Sequence[Document], pred_docs: Sequence[Document]) -> RatioCounts:
    """MUC counts from the cluster-overlap tables.

    A cluster contributes |C| minus the number of cells in the partition
    induced by the other side: its nonzero overlaps n_ij, plus one
    singleton cell per mention absent from the other side.  That is the
    sum of n_ij - 1 over its nonzero overlaps, so both sides share one
    numerator.  Denominators are the sums of |C| - 1.
    """
    num = p_den = r_den = 0
    for gold_doc, pred_doc in pair_by_doc_id(gold_docs, pred_docs):
        table = contingency(gold_doc, pred_doc)
        num += sum(table.values()) - len(table)
        r_den += sum(len(c.mentions) - 1 for c in gold_doc.gold_clusters)
        p_den += sum(len(c.mentions) - 1 for c in pred_doc.predicted_clusters)
    return RatioCounts(num, p_den, num, r_den)


def muc(gold_docs: Sequence[Document], pred_docs: Sequence[Document]) -> MetricTriple:
    """Link-based metric over cluster partitions."""
    return _triple(*muc_counts(gold_docs, pred_docs))


def _sum_by_size(squares: Counter[int]) -> Fraction:
    return sum((Fraction(total, size) for size, total in squares.items()), Fraction(0))


def b_cubed_counts(gold_docs: Sequence[Document], pred_docs: Sequence[Document]) -> RatioCounts:
    """B-cubed counts from the cluster-overlap tables.

    Each of the n_ij mentions shared by gold cluster i and predicted
    cluster j scores n_ij / |G_i| for recall and n_ij / |P_j| for
    precision; mentions missing from the other side score 0.  The squares
    n_ij^2 are summed as integers per cluster size over the corpus and
    divided once per distinct size, exactly.  Denominators are mention
    counts.
    """
    p_squares: Counter[int] = Counter()
    r_squares: Counter[int] = Counter()
    p_den = r_den = 0
    for gold_doc, pred_doc in pair_by_doc_id(gold_docs, pred_docs):
        gold_sizes = [len(c.mentions) for c in gold_doc.gold_clusters]
        pred_sizes = [len(c.mentions) for c in pred_doc.predicted_clusters]
        for (i, j), n in contingency(gold_doc, pred_doc).items():
            r_squares[gold_sizes[i]] += n * n
            p_squares[pred_sizes[j]] += n * n
        r_den += sum(gold_sizes)
        p_den += sum(pred_sizes)
    return RatioCounts(_sum_by_size(p_squares), p_den, _sum_by_size(r_squares), r_den)


def b_cubed(gold_docs: Sequence[Document], pred_docs: Sequence[Document]) -> MetricTriple:
    """Mention-weighted metric averaging per-mention cluster overlap."""
    return _triple(*b_cubed_counts(gold_docs, pred_docs))


def phi4(gold: set[Span], pred: set[Span]) -> Fraction:
    """Cluster similarity 2|G ∩ P| / (|G| + |P|)."""
    return Fraction(2 * len(gold & pred), len(gold) + len(pred))


def best_alignment_total(gold_sets: Sequence[set[Span]], pred_sets: Sequence[set[Span]]) -> Fraction:
    """Maximum total phi4 over one-to-one cluster alignments.

    The optimum is found on the rectangular similarity matrix with the
    Hungarian solver; the total of the chosen pairs is recomputed exactly.
    """
    if not gold_sets or not pred_sets:
        return Fraction(0)
    sims = [[phi4(g, p) for p in pred_sets] for g in gold_sets]
    matrix = np.array([[float(v) for v in row] for row in sims], dtype=float)
    rows, cols = linear_sum_assignment(matrix, maximize=True)
    return sum((sims[i][j] for i, j in zip(rows, cols)), Fraction(0))


def ceaf_phi4(gold_docs: Sequence[Document], pred_docs: Sequence[Document]) -> MetricTriple:
    """Alignment-based metric using the phi4 cluster similarity."""
    total = Fraction(0)
    n_gold = n_pred = 0
    for gold_doc, pred_doc in pair_by_doc_id(gold_docs, pred_docs):
        gold_sets = _span_sets(gold_doc.gold_clusters)
        pred_sets = _span_sets(pred_doc.predicted_clusters)
        total += best_alignment_total(gold_sets, pred_sets)
        n_gold += len(gold_sets)
        n_pred += len(pred_sets)
    return _triple(total, n_pred, total, n_gold)


def conll(gold_docs: Sequence[Document], pred_docs: Sequence[Document]) -> ClassicReport:
    """All three metrics; conll_f1 is the mean of their F1s."""
    return ClassicReport(
        muc=muc(gold_docs, pred_docs),
        b_cubed=b_cubed(gold_docs, pred_docs),
        ceaf_phi4=ceaf_phi4(gold_docs, pred_docs),
    )


def drop_singleton_clusters(
    docs: Sequence[Document], sides: Sequence[str] = ("gold", "predicted")
) -> list[Document]:
    """Remove size-1 clusters, reproducing OntoNotes-style scoring inputs."""
    out = []
    for doc in docs:
        for side in sides:
            doc = doc.with_clusters(
                side, [c for c in doc.clusters(side) if len(c.mentions) > 1]
            )
        out.append(doc)
    return out
