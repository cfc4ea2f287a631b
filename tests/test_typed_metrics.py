import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import cluster_of, doc_of, tables_of
from coref_semscore.labeling import LabelingConfig, label_documents
from coref_semscore.model import DocumentPairingError, Span, pair_by_doc_id
from coref_semscore.typed_metrics import (
    ClassScore,
    links_of,
    macro_f1,
    micro_score,
    typed_link_scores,
    typed_mention_scores,
)
from corpusgen import random_corpus, to_documents

CFG = LabelingConfig()


def _labeled_random_docs(seed, n_docs, **kwargs):
    rng = random.Random(seed)
    records = random_corpus(rng, n_docs, **kwargs)
    return records, label_documents(to_documents(records), CFG)


class TestLinksOf:
    def test_pair_counts(self):
        assert len(links_of(cluster_of([(0, 1), (2, 3), (4, 5)], "PER"))) == 3
        assert links_of(cluster_of([(0, 1)], "PER")) == []

    def test_five_mentions_give_ten_distinct_pairs(self):
        links = links_of(cluster_of([(i, i + 1) for i in range(0, 10, 2)], "LOC"))
        assert len(links) == 10
        assert len({pair for pair, _ in links}) == 10

    def test_pairs_are_canonical_and_carry_label(self):
        links = links_of(cluster_of([(4, 5), (0, 1)], "ORG"))
        assert links == [((((0, 1)), ((4, 5))), "ORG")]

    @given(st.integers(1, 8))
    def test_binomial_count(self, k):
        cluster = cluster_of([(2 * i, 2 * i + 1) for i in range(k)], "PER")
        assert len(links_of(cluster)) == k * (k - 1) // 2


class TestClassScore:
    def test_zero_conventions(self):
        empty = ClassScore("X", 0, 0, 0)
        assert empty.precision == empty.recall == empty.f1 == 0.0

    def test_f1_zero_iff_no_tp(self):
        assert ClassScore("X", 0, 3, 2).f1 == 0.0
        assert ClassScore("X", 1, 3, 2).f1 > 0.0

    def test_f1_one_iff_clean(self):
        assert ClassScore("X", 4, 0, 0).f1 == 1.0
        assert ClassScore("X", 4, 1, 0).f1 < 1.0

    @given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40))
    def test_f1_is_harmonic_mean(self, tp, fp, fn):
        score = ClassScore("X", tp, fp, fn)
        p, r = score.precision, score.recall
        expected = 2 * p * r / (p + r) if p + r else 0.0
        assert score.f1 == pytest.approx(expected, abs=1e-12)


class TestTypedMentionScores:
    def test_identity_is_perfect(self):
        _, docs = _labeled_random_docs(7, 10, identity=True, ensure_links=True,
                                       ensure_direct=True)
        report = typed_mention_scores(tables_of(docs))
        assert report.per_class
        assert all(s.f1 == 1.0 for s in report.per_class.values())
        assert report.macro_f1 == 1.0
        assert report.micro.f1 == 1.0

    def test_partial_detection(self):
        gold = [cluster_of([(0, 1), (2, 3)], "PER")]
        pred = [cluster_of([(0, 1), (5, 6)], "PER")]
        doc = doc_of(gold, pred)
        report = typed_mention_scores(tables_of([doc]))
        score = report.per_class["PER"]
        assert (score.tp, score.fp, score.fn) == (1, 1, 1)
        assert score.precision == score.recall == score.f1 == 0.5

    def test_class_mismatch_gives_no_credit(self):
        gold = [cluster_of([(0, 1)], "PER")]
        pred = [cluster_of([(0, 1)], "LOC")]
        doc = doc_of(gold, pred)
        report = typed_mention_scores(tables_of([doc]))
        assert report.per_class["LOC"].fp == 1
        assert report.per_class["PER"].fn == 1
        assert report.micro.tp == 0

    def test_unlabeled_mentions_tallied_separately(self):
        gold = [cluster_of([(0, 1)], "PER"), cluster_of([(2, 3)])]
        pred = [cluster_of([(0, 1)], "PER"), cluster_of([(4, 5)])]
        doc = doc_of(gold, pred)
        report = typed_mention_scores(tables_of([doc]))
        assert report.unlabeled_gold == 1
        assert report.unlabeled_predicted == 1
        assert set(report.per_class) == {"PER"}

    def test_span_shift_turns_tp_into_fp_and_fn(self):
        gold = [cluster_of([(2, 4)], "PER")]
        doc_match = doc_of(gold, [cluster_of([(2, 4)], "PER")])
        doc_shift = doc_of(gold, [cluster_of([(3, 5)], "PER")])
        matched = typed_mention_scores(tables_of([doc_match])).per_class["PER"]
        shifted = typed_mention_scores(tables_of([doc_shift])).per_class["PER"]
        assert (matched.tp, matched.fp, matched.fn) == (1, 0, 0)
        assert (shifted.tp, shifted.fp, shifted.fn) == (0, 1, 1)

    def test_doc_id_mismatch(self):
        doc_a = doc_of(doc_id="a")
        doc_b = doc_of(doc_id="b")
        with pytest.raises(DocumentPairingError):
            pair_by_doc_id([doc_a], [doc_b])


class TestTypedLinkScores:
    def test_subset_cluster(self):
        gold = [cluster_of([(0, 1), (2, 3), (4, 5)], "PER")]
        pred = [cluster_of([(0, 1), (2, 3)], "PER")]
        doc = doc_of(gold, pred)
        score = typed_link_scores(tables_of([doc])).per_class["PER"]
        assert (score.tp, score.fp, score.fn) == (1, 0, 2)
        assert score.precision == 1.0
        assert score.recall == pytest.approx(1 / 3)
        assert score.f1 == 0.5

    def test_identity_is_perfect(self):
        _, docs = _labeled_random_docs(11, 10, identity=True, ensure_links=True,
                                       ensure_direct=True)
        report = typed_link_scores(tables_of(docs))
        assert report.per_class
        assert all(s.f1 == 1.0 for s in report.per_class.values())
        assert report.macro_f1 == report.micro.f1 == 1.0

    def test_merged_singletons_score_zero(self):
        gold = [cluster_of([(0, 1)], "PER"), cluster_of([(2, 3)], "PER")]
        pred = [cluster_of([(0, 1), (2, 3)], "PER")]
        doc = doc_of(gold, pred)
        score = typed_link_scores(tables_of([doc])).per_class["PER"]
        assert (score.tp, score.fp, score.fn) == (0, 1, 0)
        assert score.f1 == 0.0

    def test_singletons_contribute_no_links(self):
        gold = [cluster_of([(0, 1)], "PER")]
        doc = doc_of(gold, gold)
        report = typed_link_scores(tables_of([doc]))
        assert report.per_class == {}
        assert report.micro.tp == 0

    def test_gold_mention_source_reports_containment(self):
        gold = [cluster_of([(0, 1), (2, 3)], "PER")]
        pred = [cluster_of([(0, 1), (4, 5)], "PER")]
        doc = doc_of(gold, pred)
        report = typed_link_scores(tables_of([doc]), link_mention_source="gold")
        assert report.link_mention_source == "gold"
        assert report.containment_violations == 1
        clean = typed_link_scores(tables_of([doc]))
        assert clean.containment_violations is None

    def test_unknown_link_mention_source_is_refused(self):
        doc = doc_of([cluster_of([(0, 1), (2, 3)], "PER")])
        with pytest.raises(ValueError, match="unknown link_mention_source 'system'"):
            typed_link_scores(tables_of([doc]), "system")

    def test_unlabeled_cluster_changes_no_typed_count(self):
        records, docs = _labeled_random_docs(13, 8)
        base = typed_link_scores(tables_of(docs))
        base_mention = typed_mention_scores(tables_of(docs))
        spiked = []
        for doc in docs:
            extra = cluster_of([(0, 1), (1, 2)])
            existing = {span for c in doc.predicted_clusters for span in c.spans}
            if Span(0, 1) in existing or Span(1, 2) in existing:
                spiked.append(doc)
                continue
            spiked.append(doc.with_clusters("predicted",
                                            list(doc.predicted_clusters) + [extra]))
        after = typed_link_scores(tables_of(spiked))
        after_mention = typed_mention_scores(tables_of(spiked))
        for label, score in base.per_class.items():
            got = after.per_class[label]
            assert (got.tp, got.fp, got.fn) == (score.tp, score.fp, score.fn)
        for label, score in base_mention.per_class.items():
            got = after_mention.per_class[label]
            assert (got.tp, got.fp, got.fn) == (score.tp, score.fp, score.fn)

    def test_matches_pair_enumeration_oracle(self):
        records, docs = _labeled_random_docs(17, 30, max_clusters=6,
                                             max_total_mentions=8, max_labels=3)
        labeled = {r["doc_id"]: oracles.label_record(r) for r in records}
        expected, ug, up = oracles.corpus_typed_counts(records, labeled, "link")
        report = typed_link_scores(tables_of(docs))
        assert {l: (s.tp, s.fp, s.fn) for l, s in report.per_class.items()} == {
            l: (c["tp"], c["fp"], c["fn"]) for l, c in expected.items()
        }
        assert report.unlabeled_gold == ug
        assert report.unlabeled_predicted == up


class TestAggregates:
    def test_macro_of_perfect_and_zero(self):
        scores = [ClassScore("A", 2, 0, 0), ClassScore("B", 0, 1, 1)]
        assert macro_f1(scores) == 0.5

    def test_micro_pools_counts(self):
        scores = [ClassScore("A", 2, 0, 0), ClassScore("B", 0, 1, 1)]
        micro = micro_score(scores)
        assert (micro.tp, micro.fp, micro.fn) == (2, 1, 1)
        assert micro.precision == pytest.approx(2 / 3)
        assert micro.recall == pytest.approx(2 / 3)
        assert micro.f1 == pytest.approx(2 / 3)

    def test_single_class_macro_equals_micro(self):
        gold = [cluster_of([(0, 1), (2, 3)], "PER")]
        pred = [cluster_of([(0, 1)], "PER")]
        doc = doc_of(gold, pred)
        report = typed_mention_scores(tables_of([doc]))
        assert report.macro_f1 == report.micro.f1 == report.per_class["PER"].f1

    def test_predicted_only_classes_excluded_from_macro(self):
        gold = [cluster_of([(0, 1)], "PER")]
        pred = [cluster_of([(0, 1)], "PER"), cluster_of([(2, 3)], "LOC")]
        doc = doc_of(gold, pred)
        report = typed_mention_scores(tables_of([doc]))
        assert report.predicted_only_classes == ["LOC"]
        assert report.macro_classes == ["PER"]
        assert report.macro_f1 == 1.0
        assert report.micro.fp == 1

    def test_report_rows_sorted_by_support_then_name(self):
        _, docs = _labeled_random_docs(19, 20)
        report = typed_mention_scores(tables_of(docs))
        keys = list(report.per_class)
        sort = sorted(keys, key=lambda l: (-report.per_class[l].support, l))
        assert keys == sort


class TestRenamingInvariance:
    def test_bijection_permutes_rows_and_preserves_aggregates(self):
        _, docs = _labeled_random_docs(29, 15)
        labels = sorted({
            label
            for doc in docs
            for side in ("gold", "predicted")
            for cluster in doc.clusters(side)
            for label in cluster.labels
            if label
        })
        mapping = dict(zip(labels, ["Z" + l for l in labels]))

        def rename(doc):
            for side in ("gold", "predicted"):
                new = []
                for cluster in doc.clusters(side):
                    new.append(cluster._replace(
                        labels=[mapping.get(label) for label in cluster.labels],
                        cluster_label=mapping.get(cluster.cluster_label)))
                doc = doc.with_clusters(side, new)
            return doc

        renamed = [rename(doc) for doc in docs]
        for scorer in (typed_mention_scores, typed_link_scores):
            base = scorer(tables_of(docs))
            after = scorer(tables_of(renamed))
            assert set(after.per_class) == {mapping[l] for l in base.per_class}
            for label, score in base.per_class.items():
                got = after.per_class[mapping[label]]
                assert (got.tp, got.fp, got.fn) == (score.tp, score.fp, score.fn)
            assert after.macro_f1 == base.macro_f1
            micro_a, micro_b = base.micro, after.micro
            assert (micro_a.tp, micro_a.fp, micro_a.fn) == (micro_b.tp, micro_b.fp, micro_b.fn)
