"""The cluster-overlap table and the metrics derived from it.

Typed mention, typed link, MUC, B-cubed and CEAF counts are derived from
model.contingency; these tests check them against the brute-force oracles
on corpora with clusters far larger than the acceptance suite's, check
that pooling the counts of a split corpus gives the counts of the whole,
and pin down what a span repeated across clusters does.
"""

import operator
import random
from collections import Counter
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import doc_of, exact_counts, tables_of
from coref_semscore.classic_metrics import (
    b_cubed,
    b_cubed_counts,
    ceaf_counts,
    ceaf_phi4,
    conll,
    muc,
    muc_counts,
)
from coref_semscore.labeling import LabelingConfig, label_documents
from coref_semscore.model import contingency
from coref_semscore.typed_metrics import typed_link_scores, typed_mention_scores
from corpusgen import random_corpus, to_documents

CFG = LabelingConfig()

# Long documents split into at most three clusters, so clusters reach
# dozens of mentions.
BIG_CLUSTERS = dict(n_tokens=(160, 240), max_clusters=3, max_total_mentions=80, max_labels=3)


def _link_counts(report):
    per_class = {label: (s.tp, s.fp, s.fn) for label, s in report.per_class.items()}
    return per_class, report.unlabeled_gold, report.unlabeled_predicted


class TestContingency:
    def test_sparse_overlap_counts(self):
        doc = doc_of([[(0, 1), (2, 3), (4, 5)], [(6, 7)]],
                     [[(0, 1), (2, 3)], [(4, 5), (6, 7), (8, 9)]])
        assert contingency(doc).cells == {(0, 0): 2, (0, 1): 1, (1, 1): 1}

    def test_twinless_mentions_leave_no_cell(self):
        doc = doc_of([[(0, 1)]], [[(2, 3)]])
        assert contingency(doc).cells == {}

    def test_cells_sum_to_shared_spans(self):
        records = random_corpus(random.Random(5), 20, **BIG_CLUSTERS)
        for record, doc in zip(records, to_documents(records)):
            gold = {tuple(s) for c in record["gold_clusters"] for s in c}
            pred = {tuple(s) for c in record["predicted_clusters"] for s in c}
            table = contingency(doc).cells
            assert sum(table.values()) == len(gold & pred)
            assert all(n > 0 for n in table.values())


class TestRepeatedSpan:
    """A span in two clusters of one side is rejected, not resolved silently.

    Ingest already rejects such documents through validate_document; these
    are built through the API.
    """

    GOLD_REPEAT = ([[(0, 1), (2, 3)], [(2, 3), (4, 5)]], [[(0, 1), (2, 3), (4, 5)]])
    PRED_REPEAT = ([[(0, 1), (2, 3), (4, 5)]], [[(0, 1), (4, 5)], [(4, 5)]])

    @pytest.mark.parametrize("spec, side, span", [
        (GOLD_REPEAT, "gold", "[2, 3)"),
        (PRED_REPEAT, "predicted", "[4, 5)"),
    ])
    @pytest.mark.parametrize("metric", [typed_mention_scores, typed_link_scores, muc, b_cubed,
                                        ceaf_phi4, conll])
    def test_metrics_raise_naming_doc_side_and_span(self, metric, spec, side, span):
        doc = doc_of(*spec, doc_id="api7")
        with pytest.raises(ValueError) as excinfo:
            metric(tables_of([doc]))
        message = str(excinfo.value)
        assert "'api7'" in message
        assert f"{side}_clusters: span {span} appears in clusters" in message


class TestLargeClusterOracles:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_typed_link_counts_match_pair_enumeration(self, seed):
        records = random_corpus(random.Random(seed), 8, **BIG_CLUSTERS)
        docs = label_documents(to_documents(records), CFG)
        assert max(len(c.spans) for d in docs for c in d.gold_clusters) >= 30
        labeled = {r["doc_id"]: oracles.label_record(r) for r in records}
        expected, ug, up = oracles.corpus_typed_counts(records, labeled, "link")
        want = {label: (c["tp"], c["fp"], c["fn"]) for label, c in expected.items()}
        assert _link_counts(typed_link_scores(tables_of(docs))) == (want, ug, up)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_gold_source_counts_uncontained_predicted_mentions(self, seed):
        records = random_corpus(random.Random(seed), 8, **BIG_CLUSTERS)
        docs = label_documents(to_documents(records), CFG)
        expected = sum(
            len({tuple(s) for c in r["predicted_clusters"] for s in c}
                - {tuple(s) for c in r["gold_clusters"] for s in c})
            for r in records
        )
        report = typed_link_scores(tables_of(docs), link_mention_source="gold")
        assert report.containment_violations == expected

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_muc_and_b_cubed_counts_match_oracles(self, seed):
        records = random_corpus(random.Random(seed), 8, **BIG_CLUSTERS)
        docs = to_documents(records)
        want_muc, want_b3, _ = oracles.classic_counts(records)
        assert exact_counts(muc_counts(tables_of(docs))) == want_muc
        assert exact_counts(b_cubed_counts(tables_of(docs))) == want_b3

    @pytest.mark.parametrize("seed", [34, 35, 36])
    def test_ceaf_counts_match_oracles(self, seed):
        records = random_corpus(random.Random(seed), 8, **BIG_CLUSTERS)
        docs = to_documents(records)
        _, _, want_ceaf = oracles.classic_counts(records)
        assert exact_counts(ceaf_counts(tables_of(docs))) == want_ceaf


def _pooled_typed(reports):
    per_class: Counter = Counter()
    unlabeled = Counter()
    for report in reports:
        for label, score in report.per_class.items():
            per_class[label, "tp"] += score.tp
            per_class[label, "fp"] += score.fp
            per_class[label, "fn"] += score.fn
        unlabeled["gold"] += report.unlabeled_gold
        unlabeled["predicted"] += report.unlabeled_predicted
    return per_class, unlabeled


def _pooled_ratio(counts):
    return tuple(reduce(operator.add, fields) for fields in zip(*counts))


class TestAdditivity:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.data())
    def test_split_corpus_pools_to_whole(self, seed, n_docs, data):
        records = random_corpus(random.Random(seed), n_docs, n_tokens=(40, 120),
                                max_clusters=4, max_total_mentions=30, max_labels=3)
        tables = tables_of(label_documents(to_documents(records), CFG))
        cut = data.draw(st.integers(1, n_docs - 1), label="cut")
        parts = [tables[:cut], tables[cut:]]
        for score in (typed_mention_scores, typed_link_scores):
            assert _pooled_typed(score(p) for p in parts) == _pooled_typed([score(tables)])
        for counts in (muc_counts, b_cubed_counts, ceaf_counts):
            assert _pooled_ratio(counts(p) for p in parts) == tuple(counts(tables))
