import random
from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import best_alignment_total, doc_of, tables_of
from coref_semscore import classic_metrics
from coref_semscore.classic_metrics import (
    Matrix,
    b_cubed,
    ceaf_phi4,
    conll,
    drop_singleton_clusters,
    linear_sum_assignment,
    muc,
)
from coref_semscore.model import Span
from corpusgen import random_corpus, to_documents

def _identity_docs(seed=3, n_docs=10):
    rng = random.Random(seed)
    records = random_corpus(rng, n_docs, identity=True, ensure_links=True)
    return to_documents(records)


class TestMuc:
    def test_identity(self):
        docs = _identity_docs()
        triple = muc(tables_of(docs))
        assert (triple.precision, triple.recall, triple.f1) == (1.0, 1.0, 1.0)

    def test_split_cluster(self):
        doc = doc_of([[(0, 1), (2, 3), (4, 5)]], [[(0, 1), (2, 3)], [(4, 5)]])
        triple = muc(tables_of([doc]))
        assert triple.recall == 0.5
        assert triple.precision == 1.0
        assert triple.f1 == pytest.approx(2 / 3, abs=1e-9)

    def test_merged_singletons_degenerate(self):
        doc = doc_of([[(0, 1)], [(2, 3)]], [[(0, 1), (2, 3)]])
        triple = muc(tables_of([doc]))
        assert triple.recall == 0.0  # 0/0 convention
        assert triple.precision == 0.0
        assert triple.f1 == 0.0

    def test_pure_function_of_partitions(self):
        doc_a = doc_of([[(0, 1), (2, 3)], [(4, 5), (6, 7)]], [[(0, 1), (2, 3), (4, 5), (6, 7)]])
        doc_b = doc_of([[(4, 5), (6, 7)], [(0, 1), (2, 3)]], [[(0, 1), (2, 3), (4, 5), (6, 7)]])
        assert muc(tables_of([doc_a])) == muc(tables_of([doc_b]))

    def test_twinless_mentions_partition_alone(self):
        # predicted cluster contains a mention absent from gold
        doc = doc_of([[(0, 1), (2, 3)]], [[(0, 1), (2, 3), (8, 9)]])
        triple = muc(tables_of([doc]))
        # precision: |{(0,1),(2,3),(8,9)}| - 2 parts ({(0,1),(2,3)}; (8,9) alone) = 1, den 2
        assert triple.precision == 0.5
        assert triple.recall == 1.0


class TestBCubed:
    def test_identity(self):
        docs = _identity_docs(seed=5)
        triple = b_cubed(tables_of(docs))
        assert (triple.precision, triple.recall, triple.f1) == (1.0, 1.0, 1.0)

    def test_merge_example(self):
        doc = doc_of([[(0, 1), (2, 3)], [(4, 5)]], [[(0, 1), (2, 3), (4, 5)]])
        triple = b_cubed(tables_of([doc]))
        assert triple.precision == pytest.approx(5 / 9, abs=1e-12)
        assert triple.recall == 1.0

    def test_twinless_predicted_singleton_scores_zero_precision(self):
        doc = doc_of([[(0, 1), (2, 3)]], [[(0, 1), (2, 3)], [(8, 9)]])
        triple = b_cubed(tables_of([doc]))
        assert triple.precision == pytest.approx(2 / 3, abs=1e-12)
        assert triple.recall == 1.0


class TestCeaf:
    def test_identity(self):
        docs = _identity_docs(seed=7)
        triple = ceaf_phi4(tables_of(docs))
        assert (triple.precision, triple.recall, triple.f1) == (1.0, 1.0, 1.0)

    def test_symmetric_even_split(self):
        doc = doc_of([[(0, 1), (2, 3)], [(4, 5), (6, 7)]], [[(0, 1), (4, 5)], [(2, 3), (6, 7)]])
        triple = ceaf_phi4(tables_of([doc]))
        assert triple.precision == 0.5
        assert triple.recall == 0.5

    def test_one_gold_two_predicted(self):
        doc = doc_of([[(0, 1), (2, 3), (4, 5)]], [[(0, 1), (2, 3)], [(4, 5)]])
        triple = ceaf_phi4(tables_of([doc]))
        assert triple.recall == pytest.approx(0.8, abs=1e-9)
        assert triple.precision == pytest.approx(0.4, abs=1e-9)

    def test_phi4_values(self):
        gold = {Span(0, 1), Span(2, 3), Span(4, 5)}
        pred = {Span(0, 1), Span(2, 3)}
        assert oracles.phi4(gold, pred) == Fraction(4, 5)

    def test_solver_matches_exhaustive_search(self):
        rng = random.Random(41)
        for _ in range(60):
            records = random_corpus(rng, 1, max_clusters=6, max_total_mentions=14)
            doc = to_documents(records)[0]
            gold_sets = [frozenset(map(tuple, c.spans)) for c in doc.gold_clusters]
            pred_sets = [frozenset(map(tuple, c.spans)) for c in doc.predicted_clusters]
            solver = best_alignment_total(
                [set(map(lambda t: Span(*t), s)) for s in gold_sets],
                [set(map(lambda t: Span(*t), s)) for s in pred_sets],
            )
            exhaustive = oracles.ceaf_exhaustive_total(gold_sets, pred_sets)
            assert solver == exhaustive


@st.composite
def _overlapping_partitions(draw):
    """Gold and predicted clusters over one pool of at most 14 spans, at
    most 6 clusters a side, each side dropping some spans; dense enough
    that most documents have a component with two rows and two columns."""
    pool = [Span(2 * k, 2 * k + 1) for k in range(draw(st.integers(1, 14)))]

    def side():
        n_clusters = draw(st.integers(1, 6))
        # owner n_clusters means the span is missing from this side
        owners = draw(st.lists(st.integers(0, n_clusters), min_size=len(pool),
                               max_size=len(pool)))
        clusters = [set() for _ in range(n_clusters)]
        for span, owner in zip(pool, owners):
            if owner < n_clusters:
                clusters[owner].add(span)
        return [c for c in clusters if c]

    return side(), side()


class TestAlignmentSolver:
    @settings(max_examples=300, deadline=None)
    @given(_overlapping_partitions())
    def test_dense_overlaps_match_exhaustive_search(self, sides):
        gold, pred = sides
        # Both orientations: gold rows with predicted columns, and the reverse.
        assert best_alignment_total(gold, pred) == oracles.ceaf_exhaustive_total(gold, pred)
        assert best_alignment_total(pred, gold) == oracles.ceaf_exhaustive_total(pred, gold)

    def test_only_components_with_two_rows_and_two_columns_reach_the_solver(
        self, monkeypatch
    ):
        def spans(*ks):
            return {Span(2 * k, 2 * k + 1) for k in ks}

        gold = [
            spans(0, 1),                            # 1x1 with the first predicted cluster
            spans(*range(2, 9)),                    # 1x3: one row, three predicted columns
            spans(9, 10, 11, 12, *range(30, 38)),   # 3x1: these three gold rows share
            spans(13, 14),                          # the predicted cluster of 9..15
            spans(15),
            spans(40, 41, 42),                      # 2x2, with one empty cell
            spans(43),
        ]
        pred = [
            spans(0, 1),
            spans(2, 3, 4, 5, *range(20, 28)),
            spans(6, 7),
            spans(8),
            spans(*range(9, 16)),
            spans(40, 41),
            spans(42, 43),
        ]
        # In each star the largest overlap (4 mentions) has phi4 8/19, less
        # than the 4/9 of the 2-mention overlap, so a star must be decided
        # by phi4, not by overlap count.
        assert oracles.phi4(gold[1], pred[1]) < oracles.phi4(gold[1], pred[2])
        assert oracles.phi4(gold[2], pred[4]) < oracles.phi4(gold[3], pred[4])
        solve = classic_metrics.linear_sum_assignment
        sizes = []

        def counted_solve(matrix):
            sizes.append(matrix.size)
            return solve(matrix)

        monkeypatch.setattr(classic_metrics, "linear_sum_assignment", counted_solve)
        total = best_alignment_total(gold, pred)
        assert sizes == [4]
        assert total == oracles.ceaf_exhaustive_total(gold, pred)
        assert total == 1 + Fraction(4, 9) + Fraction(4, 9) + Fraction(4, 5) + Fraction(2, 3)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    def test_assignment_is_optimal(self, n_rows, n_cols, data):
        rows = tuple(
            tuple(data.draw(st.lists(st.integers(-9, 9), min_size=n_cols, max_size=n_cols)))
            for _ in range(n_rows)
        )
        if n_rows <= n_cols:
            totals = [sum(rows[i][j] for i, j in enumerate(perm))
                      for perm in permutations(range(n_cols), n_rows)]
        else:
            totals = [sum(rows[i][j] for j, i in enumerate(perm))
                      for perm in permutations(range(n_rows), n_cols)]
        assert linear_sum_assignment(Matrix(rows)) == max(totals)
        assert linear_sum_assignment(Matrix(tuple(zip(*rows)))) == max(totals)


class TestConll:
    def test_identity(self):
        docs = _identity_docs(seed=9)
        report = conll(tables_of(docs))
        assert report.conll_f1 == 1.0

    def test_mean_of_f1s(self):
        rng = random.Random(43)
        docs = to_documents(random_corpus(rng, 10))
        report = conll(tables_of(docs))
        mean = (report.muc.f1 + report.b_cubed.f1 + report.ceaf_phi4.f1) / 3
        assert abs(report.conll_f1 - mean) < 1e-12
        for triple in (report.muc, report.b_cubed, report.ceaf_phi4):
            assert 0.0 <= triple.precision <= 1.0
            assert 0.0 <= triple.recall <= 1.0
            assert 0.0 <= triple.f1 <= 1.0

    def test_matches_reference_oracle_on_random_corpora(self):
        rng = random.Random(47)
        records = random_corpus(rng, 20, max_clusters=5, max_total_mentions=12)
        docs = to_documents(records)
        report = conll(tables_of(docs))
        expected = oracles.classic_scores(records)
        assert (report.muc.precision, report.muc.recall, report.muc.f1) == expected["muc"]
        assert (report.b_cubed.precision, report.b_cubed.recall, report.b_cubed.f1) \
            == expected["b_cubed"]
        assert (report.ceaf_phi4.precision, report.ceaf_phi4.recall, report.ceaf_phi4.f1) \
            == expected["ceaf_phi4"]
        assert report.conll_f1 == expected["conll_f1"]


# Gold cluster sizes whose lcm, that of 1..50, exceeds 2**64.
PRIME_POWER_SIZES = (32, 27, 25, 49, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _many_sizes_corpus(rng):
    """Records whose gold clusters take every size in PRIME_POWER_SIZES, at
    most three to a document plus one small cluster, and whose predicted
    clusters, at most four to a document, regroup most gold mentions and
    some spurious ones."""
    sizes = list(PRIME_POWER_SIZES)
    rng.shuffle(sizes)
    records = []
    while sizes:
        gold_sizes = [sizes.pop() for _ in range(min(len(sizes), rng.randint(1, 3)))]
        gold_sizes.append(rng.randint(1, 3))
        n_gold = sum(gold_sizes)
        gold, start = [], 0
        for size in gold_sizes:
            gold.append([[i, i + 1] for i in range(start, start + size)])
            start += size
        kept = [i for i in range(n_gold) if rng.random() < 0.9]
        kept += [i for i in range(n_gold, n_gold + 5) if rng.random() < 0.5]
        predicted = [[] for _ in range(rng.randint(1, 4))]
        for i in kept:
            predicted[rng.randrange(len(predicted))].append([i, i + 1])
        records.append({
            "doc_id": f"d{len(records)}",
            "tokens": [f"t{i}" for i in range(n_gold + 5)],
            "gold_clusters": gold,
            "predicted_clusters": [c for c in predicted if c],
        })
    return records


class TestExactRatios:
    """Each float is the correctly rounded value of its exact ratio: equal,
    bit for bit, to float() of the oracles' Fraction arithmetic."""

    @staticmethod
    def _check(records):
        tables = tables_of(to_documents(records))
        expected = oracles.classic_scores(records)
        for name, metric in (("muc", muc), ("b_cubed", b_cubed), ("ceaf_phi4", ceaf_phi4)):
            assert [x.hex() for x in metric(tables)] == [x.hex() for x in expected[name]]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_denominators_past_64_bits(self, seed):
        records = _many_sizes_corpus(random.Random(seed))
        assert lcm(*(len(c) for r in records for c in r["gold_clusters"])) > 2**64
        self._check(records)

    @pytest.mark.parametrize("gold, predicted", [
        (None, None),
        ([], []),
        ([[[0, 1], [1, 2]]], []),
        ([], [[[0, 1], [1, 2]]]),
        ([[[0, 1]], [[1, 2]]], [[[0, 1]], [[2, 3]]]),
        ([[[0, 1], [1, 2]]], [[[2, 3], [3, 4]]]),
    ], ids=["no-documents", "no-clusters", "no-predicted", "no-gold", "all-singletons",
            "nothing-shared"])
    def test_zero_over_zero(self, gold, predicted):
        records = [] if gold is None else [{
            "doc_id": "d0", "tokens": [f"t{i}" for i in range(4)],
            "gold_clusters": gold, "predicted_clusters": predicted,
        }]
        self._check(records)


class TestSingletons:
    def test_identical_singleton_corpora(self):
        doc = doc_of([[(0, 1)], [(2, 3)]], [[(0, 1)], [(2, 3)]])
        assert b_cubed(tables_of([doc])).f1 == 1.0
        assert ceaf_phi4(tables_of([doc])).f1 == 1.0
        assert muc(tables_of([doc])).f1 == 0.0  # 0/0 convention

    def test_drop_singletons(self):
        doc = doc_of([[(0, 1), (2, 3)], [(4, 5)]], [[(0, 1), (2, 3)], [(6, 7)]])
        (stripped,) = drop_singleton_clusters([doc])
        assert len(stripped.gold_clusters) == 1
        assert len(stripped.predicted_clusters) == 1
        triple = muc(tables_of([stripped]))
        assert triple.f1 == 1.0
