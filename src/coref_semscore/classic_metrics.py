"""Aggregate coreference metrics: MUC, B-cubed, CEAF (phi4), CoNLL mean.

Statistics are pooled over documents the way the reference CoNLL-2012
scorer pools them, with twinless mentions counting only against their own
side's denominator.  Each metric takes a corpus's overlap tables, one
model.contingency per document, and folds over their sparse gold-cluster
× predicted-cluster overlap counts and cluster sizes, so no mention is
scored one by one and the tables a caller builds once serve every
metric, the typed ones included.  CEAF aligns clusters
by phi4, solving the assignment exactly on each connected component of
the nonzero overlaps.  Numerators are summed as integers per distinct
denominator and brought over their least common multiple, and each of
precision, recall and F1 is one ratio of integers, converted to float by
one correctly rounded division; so results are reproducible bit-for-bit
and the optimal-assignment step can be checked against exhaustive search
exactly.  Degenerate 0/0 ratios are defined as 0 (MUC on all-singleton
corpora included).
"""

from __future__ import annotations

from collections import Counter
from math import lcm
from typing import Collection, Mapping, NamedTuple, Sequence

from .model import Cluster, Contingency, Document
from .model import pair_by_doc_id  # noqa: F401 (perfbench/child.py wraps it by name)


class MetricTriple(NamedTuple):
    precision: float
    recall: float
    f1: float


class ClassicReport(NamedTuple):
    muc: MetricTriple
    b_cubed: MetricTriple
    ceaf_phi4: MetricTriple

    @property
    def conll_f1(self) -> float:
        return (self.muc.f1 + self.b_cubed.f1 + self.ceaf_phi4.f1) / 3


class RatioCounts(NamedTuple):
    """Numerators and denominators of a metric's precision and recall,
    pooled over documents; pooling two corpora adds them field by field.

    A numerator is a Counter of denominator d -> integer total, standing
    for the exact sum of total / d; MUC's has the one denominator 1."""

    p_num: Counter[int]
    p_den: int
    r_num: Counter[int]
    r_den: int


def _ratio(num: Counter[int], den: int) -> tuple[int, int]:
    """(a, b) with a / b the exact value of num over den, b > 0; 0/0 is 0/1."""
    if not den:
        return 0, 1
    scale = lcm(*num)
    return sum(total * (scale // d) for d, total in num.items()), scale * den


def _triple(p_num, p_den, r_num, r_den) -> MetricTriple:
    """Precision a / b, recall c / d and F1 = 2pr / (p + r) = 2ac / (ad + cb),
    each a ratio of integers divided once, so each float is the correctly
    rounded value of the exact ratio."""
    a, b = _ratio(p_num, p_den)
    c, d = _ratio(r_num, r_den)
    f1_den = a * d + c * b
    return MetricTriple(a / b, c / d, 2 * a * c / f1_den if f1_den else 0.0)


def _sizes(clusters: Sequence[Cluster]) -> list[int]:
    return [len(c.spans) for c in clusters]


def muc_counts(tables: Sequence[Contingency]) -> RatioCounts:
    """MUC counts from the cluster-overlap tables.

    A cluster contributes |C| minus the number of cells in the partition
    induced by the other side: its nonzero overlaps n_ij, plus one
    singleton cell per mention absent from the other side.  That is the
    sum of n_ij - 1 over its nonzero overlaps, so both sides share one
    numerator.  Denominators are the sums of |C| - 1.
    """
    num = p_den = r_den = 0
    for gold, pred, cells, _ in tables:
        num += sum(cells.values()) - len(cells)
        r_den += sum(_sizes(gold)) - len(gold)
        p_den += sum(_sizes(pred)) - len(pred)
    links = Counter({1: num})
    return RatioCounts(links, p_den, links, r_den)


def muc(tables: Sequence[Contingency]) -> MetricTriple:
    """Link-based metric over cluster partitions."""
    return _triple(*muc_counts(tables))


def b_cubed_counts(tables: Sequence[Contingency]) -> RatioCounts:
    """B-cubed counts from the cluster-overlap tables.

    Each of the n_ij mentions shared by gold cluster i and predicted
    cluster j scores n_ij / |G_i| for recall and n_ij / |P_j| for
    precision; mentions missing from the other side score 0.  The squares
    n_ij^2 are summed as integers per cluster size over the corpus.
    Denominators are mention counts.
    """
    p_squares: Counter[int] = Counter()
    r_squares: Counter[int] = Counter()
    p_den = r_den = 0
    for gold, pred, cells, _ in tables:
        gold_sizes, pred_sizes = _sizes(gold), _sizes(pred)
        for (i, j), n in cells.items():
            r_squares[gold_sizes[i]] += n * n
            p_squares[pred_sizes[j]] += n * n
        r_den += sum(gold_sizes)
        p_den += sum(pred_sizes)
    return RatioCounts(p_squares, p_den, r_squares, r_den)


def b_cubed(tables: Sequence[Contingency]) -> MetricTriple:
    """Mention-weighted metric averaging per-mention cluster overlap."""
    return _triple(*b_cubed_counts(tables))


class Matrix(NamedTuple):
    """A dense matrix of exact numbers, as a non-empty tuple of equal-length,
    non-empty rows."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.rows) * len(self.rows[0])


def linear_sum_assignment(matrix: Matrix) -> int:
    """The greatest total of entries chosen one per row and per column,
    min(rows, columns) of them.  The arithmetic is exact, so with integer
    entries no tie is decided by rounding.

    The Hungarian method in its shortest-augmenting-path form (Jonker and
    Volgenant), which finds the least total of negated weights: rows are
    added one at a time, each by a Dijkstra search over reduced costs kept
    non-negative by row and column potentials, and the path found is
    flipped.  It needs no more rows than columns, so a taller matrix is
    transposed first; O(rows² · columns).
    """
    rows = matrix.rows
    if len(rows) > len(rows[0]):
        rows = tuple(zip(*rows))
    cost = [[-w for w in row] for row in rows]
    n, m = len(cost), len(cost[0])
    inf = float("inf")
    # 1-based rows and columns; column 0 is the search root, and owner[j]
    # is the row holding column j, 0 if it is free.
    u = [0] * (n + 1)
    v = [0] * (m + 1)
    owner = [0] * (m + 1)
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        owner[0] = i
        j0 = 0
        minv = [inf] * (m + 1)
        used = [False] * (m + 1)
        while owner[j0]:
            used[j0] = True
            i0 = owner[j0]
            row, u0 = cost[i0 - 1], u[i0]
            delta, j1 = inf, 0
            for j in range(1, m + 1):
                if not used[j]:
                    reduced = row[j - 1] - u0 - v[j]
                    if reduced < minv[j]:
                        minv[j], way[j] = reduced, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(m + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    return sum(rows[owner[j] - 1][j - 1] for j in range(1, m + 1) if owner[j])


def _components(cells: Collection[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Cells grouped into connected components, two cells being connected
    when they share a row or a column (union-find over rows and columns)."""
    parent: dict[int, int] = {}

    def find(node: int) -> int:
        parent.setdefault(node, node)
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for i, j in cells:
        parent[find(i)] = find(~j)  # columns are ~j, so they never meet a row
    groups: dict[int, list[tuple[int, int]]] = {}
    for cell in cells:
        groups.setdefault(find(cell[0]), []).append(cell)
    return list(groups.values())


def _add_alignment_totals(
    totals: Counter[int], cells: Mapping[tuple[int, int], int],
    gold_sizes: Sequence[int], pred_sizes: Sequence[int],
) -> None:
    """Add to totals, keyed by denominator, the maximum total phi4 over
    one-to-one alignments of gold and predicted clusters, given their
    nonzero overlaps n_ij and their sizes.

    phi4 is 2 n_ij / (|G_i| + |P_j|), and 0 where clusters share nothing,
    so aligned pairs worth anything lie within one connected component of
    the cells, and the optimum is the sum of each component's optimum.
    Each component's phi4 are scaled to integer weights by the lcm of
    their denominators.  A component with one row or one column can align
    only one of its pairs and adds its largest weight; any other adds the
    total that linear_sum_assignment returns.  Either total goes to
    totals[lcm].
    """
    for component in _components(cells):
        scale = lcm(*(gold_sizes[i] + pred_sizes[j] for i, j in component))
        weight = {(i, j): 2 * cells[i, j] * scale // (gold_sizes[i] + pred_sizes[j])
                  for i, j in component}
        rows = sorted({i for i, _ in component})
        cols = sorted({j for _, j in component})
        if len(rows) == 1 or len(cols) == 1:
            totals[scale] += max(weight.values())
            continue
        totals[scale] += linear_sum_assignment(
            Matrix(tuple(tuple(weight.get((i, j), 0) for j in cols) for i in rows)))


def ceaf_counts(tables: Sequence[Contingency]) -> RatioCounts:
    """CEAF-phi4 counts from the cluster-overlap tables.

    Both numerators are the corpus total of each document's best
    alignment, summed per denominator (_add_alignment_totals);
    denominators are cluster counts.
    """
    totals: Counter[int] = Counter()
    n_gold = n_pred = 0
    for gold, pred, cells, _ in tables:
        _add_alignment_totals(totals, cells, _sizes(gold), _sizes(pred))
        n_gold += len(gold)
        n_pred += len(pred)
    return RatioCounts(totals, n_pred, totals, n_gold)


def ceaf_phi4(tables: Sequence[Contingency]) -> MetricTriple:
    """Alignment-based metric using the phi4 cluster similarity."""
    return _triple(*ceaf_counts(tables))


def conll(tables: Sequence[Contingency]) -> ClassicReport:
    """All three metrics from the same overlap tables; conll_f1 is the
    mean of their F1s."""
    return ClassicReport(muc=muc(tables), b_cubed=b_cubed(tables), ceaf_phi4=ceaf_phi4(tables))


def drop_singleton_clusters(docs: Sequence[Document]) -> list[Document]:
    """Remove size-1 clusters from both sides, reproducing OntoNotes-style
    scoring inputs."""
    return [
        doc._copy(
            gold_clusters=tuple([c for c in doc.gold_clusters if len(c.spans) > 1]),
            predicted_clusters=tuple([c for c in doc.predicted_clusters if len(c.spans) > 1]),
        )
        for doc in docs
    ]
