import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from coref_semscore import labeling
from coref_semscore.ingest import document_from_record
from coref_semscore.inventory import CategoryInventory
from coref_semscore.labeling import (
    DEFAULT_PRONOUNS,
    LabelingConfig,
    assign_mentions,
    coverage,
    distribution,
    label_agreement,
    label_document,
    label_documents,
    load_pronoun_lexicon,
    overlap,
    propagate,
)
from coref_semscore.model import Cluster, Document, LabelSource, Mention, SemanticSpan, Span
from corpusgen import random_corpus, random_record, to_documents

CFG = LabelingConfig()

spans = st.tuples(st.integers(0, 40), st.integers(1, 44)).filter(lambda t: t[0] < t[1])


def _doc(tokens, clusters, cner, doc_id="d0"):
    return Document(
        doc_id=doc_id,
        tokens=tuple(tokens),
        gold_clusters=tuple(
            Cluster(tuple(Mention(span=Span(s, e)) for s, e in cluster)) for cluster in clusters
        ),
        semantic_spans=tuple(SemanticSpan(Span(s, e), label) for s, e, label in cner),
    )


def _assign_then_propagate(doc, cfg, sides=("gold", "predicted")):
    for side in sides:
        doc = propagate(assign_mentions(doc, cfg, side), cfg, side)
    return doc


def _labeled_gold(doc, cfg=CFG):
    return _assign_then_propagate(doc, cfg, ("gold",))


def _counting_overlap(monkeypatch):
    """Count calls to labeling.overlap from here on; returns the counter."""
    calls = [0]
    real_overlap = labeling.overlap

    def counted_overlap(a, b):
        calls[0] += 1
        return real_overlap(a, b)

    monkeypatch.setattr(labeling, "overlap", counted_overlap)
    return calls


@st.composite
def assignment_cases(draw):
    """A document of n tokens with clusters on both sides and semantic
    spans of any length up to n, some repeated, some repeated with another
    label, in any order."""
    n = draw(st.integers(1, 30))
    span = st.integers(0, n - 1).flatmap(lambda s: st.tuples(st.just(s), st.integers(s + 1, n)))
    labels = st.sampled_from(["PER", "LOC", "ORG"])
    cner = draw(st.lists(st.tuples(span, labels).map(lambda t: (*t[0], t[1])), max_size=12))
    if cner:
        cner += draw(st.lists(st.sampled_from(cner), max_size=3))
        relabeled = draw(st.lists(st.tuples(st.sampled_from(cner), labels), max_size=3))
        cner += [(s, e, label) for (s, e, _), label in relabeled]
    cner = draw(st.permutations(cner))
    clusters = st.lists(st.lists(span, min_size=1, max_size=4, unique=True), max_size=4)
    return n, draw(clusters), draw(clusters), cner


class TestOverlap:
    def test_identical(self):
        assert overlap(Span(3, 6), Span(3, 6)) == 1.0

    def test_half(self):
        assert overlap(Span(3, 6), Span(4, 7)) == 0.5

    def test_disjoint(self):
        assert overlap(Span(0, 2), Span(5, 7)) == 0.0

    @given(spans, spans)
    def test_matches_set_oracle_and_is_symmetric(self, a, b):
        sa, sb = Span(*a), Span(*b)
        assert overlap(sa, sb) == oracles.jaccard(a, b)
        assert overlap(sa, sb) == overlap(sb, sa)
        assert 0.0 <= overlap(sa, sb) <= 1.0

    @given(spans, spans)
    def test_extremes_characterize_identity_and_disjointness(self, a, b):
        score = overlap(Span(*a), Span(*b))
        assert (score == 1.0) == (a == b)
        assert (score == 0.0) == (a[1] <= b[0] or b[1] <= a[0])


class TestAssignMentions:
    def test_exact_cover_direct(self):
        doc = _doc(["Mr.", "Clinton", "smiled"], [[(0, 2)]], [(0, 2, "PER")])
        labeled = assign_mentions(doc, CFG, "gold")
        mention = labeled.gold_clusters[0].mentions[0]
        assert mention.assigned_label == "PER"
        assert mention.label_source is LabelSource.DIRECT
        assert mention.assignment_overlap == 1.0

    def test_pronoun_without_span_stays_unlabeled(self):
        doc = _doc(["he", "spoke"], [[(0, 1)]], [(1, 2, "EVENT")])
        labeled = assign_mentions(doc, CFG, "gold")
        mention = labeled.gold_clusters[0].mentions[0]
        assert mention.assigned_label is None
        assert mention.label_source is LabelSource.NONE

    def test_argmax_over_candidates(self):
        doc = _doc(
            ["a", "b", "c", "d"],
            [[(0, 4)]],
            [(0, 2, "LOC"), (0, 3, "ORG")],
        )
        mention = assign_mentions(doc, CFG, "gold").gold_clusters[0].mentions[0]
        assert mention.assigned_label == "ORG"
        assert mention.assignment_overlap == 0.75

    def test_strict_threshold_excludes_exact_tau(self):
        doc = _doc(["a", "b"], [[(0, 2)]], [(0, 1, "PER")])
        mention = assign_mentions(doc, CFG, "gold").gold_clusters[0].mentions[0]
        assert mention.assigned_label is None

    def test_inclusive_threshold_accepts_exact_tau(self):
        cfg = LabelingConfig(tau_inclusive=True)
        doc = _doc(["a", "b"], [[(0, 2)]], [(0, 1, "PER")])
        mention = assign_mentions(doc, cfg, "gold").gold_clusters[0].mentions[0]
        assert mention.assigned_label == "PER"
        assert mention.assignment_overlap == 0.5

    def test_span_tie_prefers_earlier_span(self):
        # both candidates overlap [1,3) at 1/3
        doc = _doc(["a", "b", "c", "d"], [[(1, 3)]],
                   [(0, 2, "ORG"), (2, 4, "LOC")])
        cfg = LabelingConfig(tau=0.2)
        mention = assign_mentions(doc, cfg, "gold").gold_clusters[0].mentions[0]
        assert mention.assigned_label == "ORG"

    def test_long_span_starting_well_before_a_short_mention(self):
        # [0, 20) overlaps [12, 18) at 6/20; the nearby [17, 19) at 1/7.
        doc = _doc(list("abcdefghijklmnopqrst"), [[(12, 18)]],
                   [(0, 20, "EVENT"), (17, 19, "PER")])
        cfg = LabelingConfig(tau=0.1)
        mention = assign_mentions(doc, cfg, "gold").gold_clusters[0].mentions[0]
        assert mention.assigned_label == "EVENT"
        assert mention.assignment_overlap == 0.3

    @settings(deadline=None)
    @given(assignment_cases())
    def test_matches_brute_force_oracle_on_spans_of_any_length(self, case):
        n, gold, predicted, cner = case
        doc = Document(
            doc_id="h0",
            tokens=tuple(f"w{i}" for i in range(n)),
            gold_clusters=tuple(
                Cluster(tuple(Mention(span=Span(s, e)) for s, e in c)) for c in gold
            ),
            predicted_clusters=tuple(
                Cluster(tuple(Mention(span=Span(s, e)) for s, e in c)) for c in predicted
            ),
            semantic_spans=tuple(SemanticSpan(Span(s, e), label) for s, e, label in cner),
        )
        for tau in (0.0, 1 / 3, 0.5, 1.0):
            for inclusive in (False, True):
                cfg = LabelingConfig(tau=tau, tau_inclusive=inclusive)
                for side, clusters in (("gold", gold), ("predicted", predicted)):
                    got = [
                        [(m.assigned_label, m.assignment_overlap) for m in c.mentions]
                        for c in assign_mentions(doc, cfg, side).clusters(side)
                    ]
                    assert got == oracles.assign_side(clusters, cner, tau, inclusive)

    def test_scores_only_spans_in_each_mentions_window(self, monkeypatch):
        record = random_record(random.Random(7), "long", n_tokens=(4000, 5000),
                               max_clusters=60, max_total_mentions=600, cner_noise=400)
        doc = document_from_record(record, CategoryInventory.default())
        calls = _counting_overlap(monkeypatch)
        assign_mentions(doc, CFG, "gold")
        cner = record["cner"]
        longest = max(e - s for s, e, _ in cner)
        mentions = [span for cluster in record["gold_clusters"] for span in cluster]
        in_window = sum(ms - longest < cs < me for ms, me in mentions for cs, _, _ in cner)
        assert calls[0] == in_window
        assert calls[0] * 100 < len(mentions) * len(cner)

    def test_raising_tau_never_adds_labels(self):
        rng = random.Random(5)
        docs = to_documents(random_corpus(rng, 10))
        previous = None
        for tau in (0.1, 0.3, 0.5, 0.7, 0.9):
            cfg = LabelingConfig(tau=tau)
            labeled = {
                (doc.doc_id, m.span.start, m.span.end)
                for doc in docs
                for cluster in assign_mentions(doc, cfg, "gold").gold_clusters
                for m in cluster.mentions
                if m.label_source is LabelSource.DIRECT
            }
            if previous is not None:
                assert labeled <= previous
            previous = labeled


class TestPropagate:
    def test_news_fixture(self, news_doc):
        labeled = _labeled_gold(news_doc)
        person, place = labeled.gold_clusters
        assert person.cluster_label == "PER"
        assert [m.label_source.value for m in person.mentions] == [
            "direct", "direct", "propagated", "propagated", "direct",
        ]
        assert all(m.assigned_label == "PER" for m in person.mentions)
        assert place.cluster_label == "LOC"
        assert [m.label_source.value for m in place.mentions] == ["direct", "direct"]

    def test_composite_fixture(self, composite_doc):
        labeled = _labeled_gold(composite_doc)
        composite = labeled.gold_clusters[2]
        assert composite.cluster_label == "PER"
        plural = composite.mentions[1]
        assert plural.assigned_label == "PER"
        assert plural.label_source is LabelSource.PROPAGATED

    def test_strict_majority(self):
        doc = _doc(
            list("abcdef"),
            [[(0, 1), (2, 3), (4, 5)]],
            [(0, 1, "PER"), (2, 3, "PER"), (4, 5, "LOC")],
        )
        labeled = _labeled_gold(doc)
        assert labeled.gold_clusters[0].cluster_label == "PER"

    def test_frequency_tie_broken_by_mean_overlap(self):
        # PER support overlap 0.6 ([0,3) vs [0,5)); LOC support overlap 0.9
        doc = _doc(
            list("abcdefghijklmnopqrst"),
            [[(0, 5), (10, 19)]],
            [(0, 3, "PER"), (10, 20, "LOC")],
        )
        labeled = _labeled_gold(doc)
        mentions = labeled.gold_clusters[0].mentions
        assert mentions[0].assignment_overlap == 0.6
        assert mentions[1].assignment_overlap == 0.9
        assert labeled.gold_clusters[0].cluster_label == "LOC"

    def test_full_tie_broken_lexicographically(self):
        doc = _doc(
            list("abcd"),
            [[(0, 1), (2, 3)]],
            [(0, 1, "ORG"), (2, 3, "EVENT")],
        )
        labeled = _labeled_gold(doc)
        assert labeled.gold_clusters[0].cluster_label == "EVENT"

    def test_pronoun_only_cluster_stays_unlabeled(self):
        doc = _doc(["he", "saw", "him"], [[(0, 1), (2, 3)]], [])
        labeled = _labeled_gold(doc)
        assert labeled.gold_clusters[0].cluster_label is None
        assert all(m.assigned_label is None for m in labeled.gold_clusters[0].mentions)

    def test_disagreeing_direct_label_kept_by_default(self):
        doc = _doc(
            list("abcdef"),
            [[(0, 1), (2, 3), (4, 5)]],
            [(0, 1, "PER"), (2, 3, "PER"), (4, 5, "LOC")],
        )
        labeled = _labeled_gold(doc)
        outlier = labeled.gold_clusters[0].mentions[2]
        assert outlier.assigned_label == "LOC"
        assert outlier.label_source is LabelSource.DIRECT

    def test_force_cluster_label_overwrites_disagreement(self):
        cfg = LabelingConfig(force_cluster_label=True)
        doc = _doc(
            list("abcdef"),
            [[(0, 1), (2, 3), (4, 5)]],
            [(0, 1, "PER"), (2, 3, "PER"), (4, 5, "LOC")],
        )
        labeled = propagate(assign_mentions(doc, cfg, "gold"), cfg, "gold")
        outlier = labeled.gold_clusters[0].mentions[2]
        assert outlier.assigned_label == "PER"
        assert outlier.label_source is LabelSource.DIRECT

    def test_idempotent(self):
        rng = random.Random(11)
        for record in random_corpus(rng, 8):
            doc = document_from_record(record, CategoryInventory.default())
            once = _labeled_gold(doc)
            twice = propagate(once, CFG, "gold")
            assert twice == once

    def test_cluster_without_direct_mention_clears_propagated_labels(self):
        stale = Cluster((
            Mention(Span(0, 1), "PER", LabelSource.PROPAGATED),
            Mention(Span(2, 3)),
        ), cluster_label="PER")
        doc = Document(doc_id="d0", tokens=("he", "saw", "him"), gold_clusters=(stale,))
        cluster = propagate(doc, CFG, "gold").gold_clusters[0]
        assert cluster.cluster_label is None
        assert [(m.assigned_label, m.label_source) for m in cluster.mentions] == [
            (None, LabelSource.NONE), (None, LabelSource.NONE)]

    def test_cluster_label_comes_from_a_direct_member(self):
        rng = random.Random(23)
        for record in random_corpus(rng, 15):
            doc = document_from_record(record, CategoryInventory.default())
            assigned = assign_mentions(doc, CFG, "gold")
            labeled = propagate(assigned, CFG, "gold")
            for before, after in zip(assigned.gold_clusters, labeled.gold_clusters):
                if after.cluster_label is None:
                    continue
                direct = {m.assigned_label for m in before.mentions
                          if m.label_source is LabelSource.DIRECT}
                assert after.cluster_label in direct
                assert all(m.assigned_label is not None for m in after.mentions)

    def test_matches_brute_force_pipeline(self):
        rng = random.Random(31)
        inventory = CategoryInventory.default()
        for record in random_corpus(rng, 25):
            doc = document_from_record(record, inventory)
            labeled = label_documents([doc], CFG)[0]
            expected = oracles.label_record(record)
            for side in ("gold", "predicted"):
                cluster_labels, mention_rows = expected[side]
                assert [c.cluster_label for c in labeled.clusters(side)] == cluster_labels
                got_rows = [
                    [(m.assigned_label, m.label_source.value) for m in c.mentions]
                    for c in labeled.clusters(side)
                ]
                assert got_rows == mention_rows


class TestLabelDocument:
    @settings(deadline=None)
    @given(
        assignment_cases(),
        st.sampled_from(["own", "copy", "mixed"]),
        st.sampled_from([None, (0.0, False), (0.3, True), (0.7, False)]),
        st.sampled_from([("gold", "predicted"), ("gold",), ("predicted",)]),
    )
    def test_equals_assign_then_propagate_side_by_side(self, case, predicted_from,
                                                        labeled_at, sides):
        n, gold, predicted, cner = case
        if predicted_from == "copy":
            predicted = gold
        elif predicted_from == "mixed":
            predicted = gold[:2] + predicted

        def clusters(spans):
            return tuple(Cluster(tuple(Mention(span=Span(s, e)) for s, e in c)) for c in spans)

        doc = Document(
            doc_id="h0",
            tokens=tuple(f"w{i}" for i in range(n)),
            gold_clusters=clusters(gold),
            predicted_clusters=clusters(predicted),
            semantic_spans=tuple(SemanticSpan(Span(s, e), label) for s, e, label in cner),
        )
        raw = doc
        if labeled_at is not None:
            tau, force = labeled_at
            doc = _assign_then_propagate(doc, LabelingConfig(tau=tau, force_cluster_label=force))
        for tau in (0.0, 0.3, 0.5, 1.0):
            for inclusive in (False, True):
                for force in (False, True):
                    cfg = LabelingConfig(tau=tau, tau_inclusive=inclusive,
                                         force_cluster_label=force)
                    labeled = label_document(doc, cfg, sides)
                    assert labeled == _assign_then_propagate(doc, cfg, sides)
                    # Labels left by an earlier config leave no trace: the
                    # result is that of labeling the unlabeled document.
                    from_raw = label_document(raw, cfg, sides)
                    for side in sides:
                        assert labeled.clusters(side) == from_raw.clusters(side)
                        assert (assign_mentions(doc, cfg, side).clusters(side)
                                == assign_mentions(raw, cfg, side).clusters(side))

    def test_span_on_both_sides_is_aligned_once(self, monkeypatch):
        record = random_record(random.Random(13), "both", n_tokens=(400, 500),
                               max_clusters=20, max_total_mentions=80, cner_noise=40)
        doc = document_from_record(record, CategoryInventory.default())
        copied = doc.with_clusters("predicted", doc.gold_clusters)
        gold_only = doc.with_clusters("predicted", ())
        calls = _counting_overlap(monkeypatch)
        label_document(gold_only, CFG)
        gold_calls, calls[0] = calls[0], 0
        labeled = label_document(copied, CFG)
        assert gold_calls > 0
        assert calls[0] == gold_calls
        assert labeled.predicted_clusters == labeled.gold_clusters


class TestCoverage:
    def test_fully_covered_corpus(self):
        doc = _doc(["a", "b", "he"], [[(0, 1), (2, 3)], [(1, 2)]],
                   [(0, 1, "PER"), (1, 2, "LOC")])
        report = coverage([_labeled_gold(doc)], "gold")
        assert report.overall.any_pct == 100.0
        assert report.overall.direct == 2
        assert report.overall.propagated == 1

    def test_pronoun_only_cluster_contributes_nothing(self):
        doc = _doc(["he", "him"], [[(0, 1), (1, 2)]], [])
        report = coverage([_labeled_gold(doc)], "gold")
        assert report.overall.direct == 0
        assert report.overall.propagated == 0
        assert report.overall.any_pct == 0.0
        assert report.pronoun.total == 2

    def test_buckets_partition_mentions(self):
        rng = random.Random(17)
        docs = label_documents(to_documents(random_corpus(rng, 20)), CFG)
        report = coverage(docs, "gold")
        counts = report.overall
        assert counts.direct + counts.propagated + counts.unlabeled == counts.total
        assert counts.any_pct == counts.direct_pct + counts.propagated_pct

    def test_pronoun_rows_restrict_to_lexicon(self):
        doc = _doc(["He", "met", "Ada"], [[(0, 1), (2, 3)]], [(2, 3, "PER")])
        report = coverage([_labeled_gold(doc)], "gold")
        assert report.overall.total == 2
        assert report.pronoun.total == 1
        assert report.pronoun.propagated == 1
        assert report.pronoun.direct == 0

    def test_empty_corpus(self):
        report = coverage([], "gold")
        assert report.overall.total == 0
        assert report.overall.any_pct == 0.0

    def test_custom_lexicon_file(self, tmp_path):
        path = tmp_path / "pronouns.txt"
        path.write_text("# demo\nthingy\n\n", encoding="utf-8")
        lexicon = load_pronoun_lexicon(path)
        assert lexicon == frozenset({"thingy"})
        assert "he" in DEFAULT_PRONOUNS

    def test_custom_lexicon_replaces_default(self):
        doc = _doc(["thingy", "Rome"], [[(0, 1), (1, 2)]], [(1, 2, "LOC")])
        docs = [_labeled_gold(doc)]
        report = coverage(docs, "gold", pronouns=frozenset({"thingy"}))
        assert report.overall == coverage(docs, "gold").overall
        assert report.pronoun.total == 1
        assert report.pronoun.propagated == 1
        assert coverage(docs, "gold").pronoun.total == 0


class TestDistribution:
    def test_counts_and_shares(self, inventory):
        doc = _doc(
            list("abcdefgh"),
            [[(0, 1), (2, 3), (4, 5)], [(6, 7)]],
            [(0, 1, "PER"), (2, 3, "PER"), (4, 5, "PER"), (6, 7, "LOC")],
        )
        report = distribution([_labeled_gold(doc)], inventory)
        assert report.counts == {"PER": 3, "LOC": 1}
        assert report.shares == {"PER": 0.75, "LOC": 0.25}
        assert "MONEY" in report.absent_labels
        assert "PER" not in report.absent_labels

    def test_empty_distribution_lists_all_labels_absent(self, inventory):
        doc = _doc(["he"], [[(0, 1)]], [])
        report = distribution([_labeled_gold(doc)], inventory)
        assert report.counts == {}
        assert report.total_labeled == 0
        assert report.unlabeled == 1
        assert len(report.absent_labels) == 29

    def test_person_dominated_fixture(self, inventory):
        rng = random.Random(3)
        records = random_corpus(rng, 10, labels=["PER"] * 8 + ["LOC", "GROUP"])
        docs = label_documents(to_documents(records), CFG)
        report = distribution(docs, inventory)
        assert max(report.counts, key=report.counts.get) == "PER"
        for label in ("MONEY", "PLANT", "LAW"):
            assert label in report.absent_labels
        assert abs(sum(report.shares.values()) - 1.0) < 1e-9


class TestLabelAgreement:
    def _labeled_docs(self):
        doc = _doc(
            list("abcdefghijklmnopqrst"),
            [[(i, i + 1)] for i in range(0, 20, 2)],
            [(i, i + 1, "PER") for i in range(0, 20, 2)],
        )
        return [_labeled_gold(doc)]

    def test_identity(self):
        docs = self._labeled_docs()
        reference = {("d0", i): "PER" for i in range(10)}
        report = label_agreement(reference, docs)
        assert report.precision == report.recall == report.f1 == 1.0

    def test_nine_of_ten(self):
        docs = self._labeled_docs()
        reference = {("d0", i): "PER" for i in range(9)}
        reference[("d0", 9)] = "LOC"
        report = label_agreement(reference, docs)
        assert report.precision == 0.9
        assert report.recall == 0.9
        assert report.f1 == pytest.approx(0.9)

    def test_unlabeled_clusters_do_not_count_toward_precision(self):
        doc = _doc(["he", "x", "Ada"], [[(0, 1)], [(2, 3)]], [(2, 3, "PER")])
        docs = [_labeled_gold(doc)]
        reference = {("d0", 0): "PER", ("d0", 1): "PER"}
        report = label_agreement(reference, docs)
        assert report.system_labeled == 1
        assert report.precision == 1.0
        assert report.recall == 0.5

    def test_unknown_reference_key(self):
        docs = self._labeled_docs()
        with pytest.raises(KeyError):
            label_agreement({("nope", 0): "PER"}, docs)
        with pytest.raises(KeyError):
            label_agreement({("d0", 99): "PER"}, docs)


class TestDeterminism:
    def test_processing_order_does_not_matter(self):
        rng = random.Random(41)
        records = random_corpus(rng, 10)
        docs = to_documents(records)
        forward = label_documents(docs, CFG)
        backward = list(reversed(label_documents(list(reversed(docs)), CFG)))
        assert forward == backward
