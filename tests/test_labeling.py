import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import cluster_of, doc_of
from coref_semscore import labeling
from coref_semscore.ingest import read_jsonl_corpus
from coref_semscore.inventory import CategoryInventory
from coref_semscore.label_reports import distribution, label_agreement
from coref_semscore.labeling import (
    DEFAULT_PRONOUNS,
    LabelingConfig,
    assign_mentions,
    coverage,
    label_documents,
    load_pronoun_lexicon,
    overlap,
    propagate,
    reuse_fault,
)
from coref_semscore.model import SIDES, Cluster, LabelSource, Span
from corpusgen import LABELS, random_corpus, random_record, to_documents

CFG = LabelingConfig()
MINI_CORPUS = Path(__file__).resolve().parent / "data" / "mini_corpus.jsonl"

spans = st.tuples(st.integers(0, 40), st.integers(1, 44)).filter(lambda t: t[0] < t[1])


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
        doc = doc_of([[(0, 2)]], cner=[(0, 2, "PER")], tokens=["Mr.", "Clinton", "smiled"])
        labeled = assign_mentions(doc, CFG, "gold")
        cluster = labeled.gold_clusters[0]
        assert cluster.labels == ("PER",)
        assert cluster.sources == (LabelSource.DIRECT,)
        assert cluster.overlaps == (1.0,)

    def test_pronoun_without_span_stays_unlabeled(self):
        doc = doc_of([[(0, 1)]], cner=[(1, 2, "EVENT")], tokens=["he", "spoke"])
        labeled = assign_mentions(doc, CFG, "gold")
        cluster = labeled.gold_clusters[0]
        assert cluster.labels == (None,)
        assert cluster.sources == (LabelSource.NONE,)

    def test_argmax_over_candidates(self):
        doc = doc_of([[(0, 4)]], cner=[(0, 2, "LOC"), (0, 3, "ORG")], tokens=["a", "b", "c", "d"])
        cluster = assign_mentions(doc, CFG, "gold").gold_clusters[0]
        assert cluster.labels == ("ORG",)
        assert cluster.overlaps == (0.75,)

    def test_strict_threshold_excludes_exact_tau(self):
        doc = doc_of([[(0, 2)]], cner=[(0, 1, "PER")], tokens=["a", "b"])
        cluster = assign_mentions(doc, CFG, "gold").gold_clusters[0]
        assert cluster.labels == (None,)

    def test_inclusive_threshold_accepts_exact_tau(self):
        cfg = LabelingConfig(tau_inclusive=True)
        doc = doc_of([[(0, 2)]], cner=[(0, 1, "PER")], tokens=["a", "b"])
        cluster = assign_mentions(doc, cfg, "gold").gold_clusters[0]
        assert cluster.labels == ("PER",)
        assert cluster.overlaps == (0.5,)

    def test_span_tie_prefers_earlier_span(self):
        # both candidates overlap [1,3) at 1/3
        doc = doc_of([[(1, 3)]], cner=[(0, 2, "ORG"), (2, 4, "LOC")], tokens=["a", "b", "c", "d"])
        cfg = LabelingConfig(tau=0.2)
        cluster = assign_mentions(doc, cfg, "gold").gold_clusters[0]
        assert cluster.labels == ("ORG",)

    def test_long_span_starting_well_before_a_short_mention(self):
        # [0, 20) overlaps [12, 18) at 6/20; the nearby [17, 19) at 1/7.
        doc = doc_of([[(12, 18)]], cner=[(0, 20, "EVENT"), (17, 19, "PER")],
                     tokens=list("abcdefghijklmnopqrst"))
        cfg = LabelingConfig(tau=0.1)
        cluster = assign_mentions(doc, cfg, "gold").gold_clusters[0]
        assert cluster.labels == ("EVENT",)
        assert cluster.overlaps == (0.3,)

    @settings(deadline=None)
    @given(assignment_cases())
    def test_matches_brute_force_oracle_on_spans_of_any_length(self, case):
        n, gold, predicted, cner = case
        doc = doc_of(gold, predicted, cner, tokens=n, doc_id="h0")
        for tau in (0.0, 1 / 3, 0.5, 1.0):
            for inclusive in (False, True):
                cfg = LabelingConfig(tau=tau, tau_inclusive=inclusive)
                for side, clusters in (("gold", gold), ("predicted", predicted)):
                    got = [
                        list(zip(c.labels, c.overlaps))
                        for c in assign_mentions(doc, cfg, side).clusters(side)
                    ]
                    assert got == oracles.assign_side(clusters, cner, tau, inclusive)

    def test_scores_only_spans_in_each_mentions_window(self, monkeypatch):
        record = random_record(random.Random(7), "long", n_tokens=(4000, 5000),
                               max_clusters=60, max_total_mentions=600, cner_noise=400)
        (doc,) = to_documents([record])
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
                (doc.doc_id, span.start, span.end)
                for doc in docs
                for cluster in assign_mentions(doc, cfg, "gold").gold_clusters
                for span, source in zip(cluster.spans, cluster.sources)
                if source is LabelSource.DIRECT
            }
            if previous is not None:
                assert labeled <= previous
            previous = labeled


class TestPropagate:
    def test_news_fixture(self, news_doc):
        labeled = _labeled_gold(news_doc)
        person, place = labeled.gold_clusters
        assert person.cluster_label == "PER"
        assert [source.value for source in person.sources] == [
            "direct", "direct", "propagated", "propagated", "direct",
        ]
        assert all(label == "PER" for label in person.labels)
        assert place.cluster_label == "LOC"
        assert [source.value for source in place.sources] == ["direct", "direct"]

    def test_composite_fixture(self, composite_doc):
        labeled = _labeled_gold(composite_doc)
        composite = labeled.gold_clusters[2]
        assert composite.cluster_label == "PER"
        assert composite.labels[1] == "PER"
        assert composite.sources[1] is LabelSource.PROPAGATED

    def test_strict_majority(self):
        doc = doc_of(
            [[(0, 1), (2, 3), (4, 5)]],
            cner=[(0, 1, "PER"), (2, 3, "PER"), (4, 5, "LOC")],
            tokens=list("abcdef"),
        )
        labeled = _labeled_gold(doc)
        assert labeled.gold_clusters[0].cluster_label == "PER"

    def test_frequency_tie_broken_by_mean_overlap(self):
        # PER support overlap 0.6 ([0,3) vs [0,5)); LOC support overlap 0.9
        doc = doc_of(
            [[(0, 5), (10, 19)]],
            cner=[(0, 3, "PER"), (10, 20, "LOC")],
            tokens=list("abcdefghijklmnopqrst"),
        )
        labeled = _labeled_gold(doc)
        assert labeled.gold_clusters[0].overlaps == (0.6, 0.9)
        assert labeled.gold_clusters[0].cluster_label == "LOC"

    def test_full_tie_broken_lexicographically(self):
        doc = doc_of(
            [[(0, 1), (2, 3)]],
            cner=[(0, 1, "ORG"), (2, 3, "EVENT")],
            tokens=list("abcd"),
        )
        labeled = _labeled_gold(doc)
        assert labeled.gold_clusters[0].cluster_label == "EVENT"

    def test_pronoun_only_cluster_stays_unlabeled(self):
        doc = doc_of([[(0, 1), (2, 3)]], tokens=["he", "saw", "him"])
        labeled = _labeled_gold(doc)
        assert labeled.gold_clusters[0].cluster_label is None
        assert all(label is None for label in labeled.gold_clusters[0].labels)

    def test_disagreeing_direct_label_kept_by_default(self):
        doc = doc_of(
            [[(0, 1), (2, 3), (4, 5)]],
            cner=[(0, 1, "PER"), (2, 3, "PER"), (4, 5, "LOC")],
            tokens=list("abcdef"),
        )
        labeled = _labeled_gold(doc)
        cluster = labeled.gold_clusters[0]  # its third mention is the outlier
        assert cluster.labels[2] == "LOC"
        assert cluster.sources[2] is LabelSource.DIRECT

    def test_force_cluster_label_overwrites_disagreement(self):
        cfg = LabelingConfig(force_cluster_label=True)
        doc = doc_of(
            [[(0, 1), (2, 3), (4, 5)]],
            cner=[(0, 1, "PER"), (2, 3, "PER"), (4, 5, "LOC")],
            tokens=list("abcdef"),
        )
        labeled = propagate(assign_mentions(doc, cfg, "gold"), cfg, "gold")
        cluster = labeled.gold_clusters[0]  # its third mention is the outlier
        assert cluster.labels[2] == "PER"
        assert cluster.sources[2] is LabelSource.DIRECT

    def test_idempotent(self):
        rng = random.Random(11)
        for record in random_corpus(rng, 8):
            (doc,) = to_documents([record])
            once = _labeled_gold(doc)
            twice = propagate(once, CFG, "gold")
            assert twice == once

    @settings(deadline=None)
    @given(assignment_cases(), st.sampled_from([0.0, 0.3, 0.5, 1.0]), st.booleans())
    def test_idempotent_on_drawn_documents(self, case, tau, inclusive):
        n, gold, predicted, cner = case
        doc = doc_of(gold, predicted, cner, tokens=n, doc_id="h0")
        for force in (False, True):
            cfg = LabelingConfig(tau, inclusive, force)
            for side in ("gold", "predicted"):
                labeled = label_documents([doc], cfg, (side,))[0]
                assert propagate(labeled, cfg, side) == labeled

    def test_cluster_without_direct_mention_clears_propagated_labels(self):
        stale = Cluster((Span(0, 1), Span(2, 3)), ("PER", None),
                        (LabelSource.PROPAGATED, LabelSource.NONE), (None, None),
                        cluster_label="PER")
        doc = doc_of([stale], tokens=["he", "saw", "him"])
        cluster = propagate(doc, CFG, "gold").gold_clusters[0]
        assert cluster.cluster_label is None
        assert list(zip(cluster.labels, cluster.sources)) == [
            (None, LabelSource.NONE), (None, LabelSource.NONE)]

    def test_cluster_label_comes_from_a_direct_member(self):
        rng = random.Random(23)
        for record in random_corpus(rng, 15):
            (doc,) = to_documents([record])
            assigned = assign_mentions(doc, CFG, "gold")
            labeled = propagate(assigned, CFG, "gold")
            for before, after in zip(assigned.gold_clusters, labeled.gold_clusters):
                if after.cluster_label is None:
                    continue
                direct = {label for label, source in zip(before.labels, before.sources)
                          if source is LabelSource.DIRECT}
                assert after.cluster_label in direct
                assert all(label is not None for label in after.labels)

    def test_matches_brute_force_pipeline(self):
        rng = random.Random(31)
        for record in random_corpus(rng, 25):
            (doc,) = to_documents([record])
            labeled = label_documents([doc], CFG)[0]
            expected = oracles.label_record(record)
            for side in ("gold", "predicted"):
                cluster_labels, mention_rows = expected[side]
                assert [c.cluster_label for c in labeled.clusters(side)] == cluster_labels
                got_rows = [
                    [(label, source.value) for label, source in zip(c.labels, c.sources)]
                    for c in labeled.clusters(side)
                ]
                assert got_rows == mention_rows

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 8), st.data())
    def test_matches_brute_force_pipeline_at_every_config(self, seed, cner_noise, data):
        record = random_record(random.Random(seed), "h0", cner_noise=cner_noise)
        # Every overlap of a mention with a semantic span is a tau at which
        # strict and inclusive tests part.
        overlaps = {oracles.jaccard(span, (start, end))
                    for side in ("gold", "predicted") for cluster in record[f"{side}_clusters"]
                    for span in cluster for start, end, _ in record["cner"]}
        tau = data.draw(st.sampled_from(sorted(overlaps | {0.0, 0.5, 1.0})))
        inclusive, force = data.draw(st.booleans()), data.draw(st.booleans())
        (doc,) = to_documents([record])
        labeled = label_documents([doc], LabelingConfig(tau, inclusive, force))[0]
        expected = oracles.label_record(record, tau, inclusive, force)
        for side in ("gold", "predicted"):
            cluster_labels, mention_rows = expected[side]
            assert [c.cluster_label for c in labeled.clusters(side)] == cluster_labels
            assert [[(label, source.value) for label, source in zip(c.labels, c.sources)]
                    for c in labeled.clusters(side)] == mention_rows


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
        doc = doc_of(gold, predicted, cner, tokens=n, doc_id="h0")
        raw = doc
        if labeled_at is not None:
            tau, force = labeled_at
            doc = _assign_then_propagate(doc, LabelingConfig(tau=tau, force_cluster_label=force))
        for tau in (0.0, 0.3, 0.5, 1.0):
            for inclusive in (False, True):
                for force in (False, True):
                    cfg = LabelingConfig(tau=tau, tau_inclusive=inclusive,
                                         force_cluster_label=force)
                    labeled = label_documents([doc], cfg, sides)[0]
                    assert labeled == _assign_then_propagate(doc, cfg, sides)
                    # Labels left by an earlier config leave no trace: the
                    # result is that of labeling the unlabeled document.
                    from_raw = label_documents([raw], cfg, sides)[0]
                    for side in sides:
                        assert labeled.clusters(side) == from_raw.clusters(side)
                        assert (assign_mentions(doc, cfg, side).clusters(side)
                                == assign_mentions(raw, cfg, side).clusters(side))

    def test_span_on_both_sides_is_aligned_once(self, monkeypatch):
        record = random_record(random.Random(13), "both", n_tokens=(400, 500),
                               max_clusters=20, max_total_mentions=80, cner_noise=40)
        (doc,) = to_documents([record])
        copied = doc.with_clusters("predicted", doc.gold_clusters)
        gold_only = doc.with_clusters("predicted", ())
        calls = _counting_overlap(monkeypatch)
        label_documents([gold_only], CFG)
        gold_calls, calls[0] = calls[0], 0
        labeled = label_documents([copied], CFG)[0]
        assert gold_calls > 0
        assert calls[0] == gold_calls
        assert labeled.predicted_clusters == labeled.gold_clusters


class TestReuseFault:
    """reuse_fault is the inverse of labeling: it finds a fault in a side
    exactly where labeling that side again would give other labels."""

    @staticmethod
    def _reusable(docs, cfg, sides=SIDES) -> bool:
        return all(reuse_fault(doc, cfg, side) is None for side in sides for doc in docs)

    def test_refuses_exactly_when_labeling_again_would_differ(self):
        # A corpus labeled at tau 0.1, reused at tau 0.1 and at every
        # stricter test: the direct overlaps are the taus where tests part.
        raw = read_jsonl_corpus(MINI_CORPUS, CategoryInventory.default())
        labeled = label_documents(raw, LabelingConfig(0.1))
        overlaps = {score for doc in labeled for side in ("gold", "predicted")
                    for c in doc.clusters(side) for score in c.overlaps} - {None}
        configs = [LabelingConfig(0.1), *(
            LabelingConfig(tau, inclusive) for tau in sorted(overlaps) for inclusive in (False, True)
        )]
        refusals = 0
        for cfg in configs:
            refused = not self._reusable(labeled, cfg)
            assert refused == (label_documents(raw, cfg) != labeled), cfg
            refusals += refused
        assert 0 < refusals < len(configs)

    @pytest.mark.parametrize("force", [False, True])
    def test_labels_of_a_run_are_reused_under_its_config(self, force):
        raw = read_jsonl_corpus(MINI_CORPUS, CategoryInventory.default())
        for tau in (0.0, 0.1, 0.5, 0.9):
            cfg = LabelingConfig(tau, force_cluster_label=force)
            assert self._reusable(label_documents(raw, cfg), cfg)

    @settings(deadline=None)
    @given(st.integers(0, 2**16), st.sampled_from([0.0, 0.1, 0.5, 0.9]), st.booleans(),
           st.booleans(), st.booleans(), st.data())
    def test_refuses_an_edited_cluster_exactly_when_labeling_would_differ(
            self, seed, tau, inclusive, labeled_forced, reused_forced, data):
        # A corpus labeled under one forcing, with one field of one cluster
        # edited, reused under the same tau and either forcing.  propagate
        # is the oracle: labeling again keeps the direct labels, so it
        # changes a cluster with a direct label exactly when that cluster
        # is not what labeling gives; a cluster with none may carry any
        # label, but its propagated labels must be its own.
        records = random_corpus(random.Random(seed), 3, ensure_links=True, ensure_direct=True)
        labeled = label_documents(to_documents(records), LabelingConfig(tau, inclusive,
                                                                       labeled_forced))
        reused = [side for side in SIDES
                  if any(c.cluster_label for doc in labeled for c in doc.clusters(side))]
        d, side, c = data.draw(st.sampled_from([
            (d, side, c) for d, doc in enumerate(labeled) for side in reused
            for c in range(len(doc.clusters(side)))]))
        clusters = list(labeled[d].clusters(side))
        cluster = clusters[c]
        edit = data.draw(st.sampled_from(["cluster label", "mention label", "mention source"]))
        if edit == "cluster label":
            clusters[c] = cluster._replace(cluster_label=data.draw(
                st.sampled_from(LABELS).filter(lambda new: new != cluster.cluster_label)))
        else:
            labels, sources, overlaps = map(list, (cluster.labels, cluster.sources,
                                                   cluster.overlaps))
            i = data.draw(st.integers(0, len(labels) - 1))
            label, source, score = labels[i], sources[i], overlaps[i]
            if edit == "mention label" and source is not LabelSource.NONE:
                label = data.draw(st.sampled_from(LABELS).filter(lambda new: new != label))
            elif edit == "mention source":
                source = data.draw(st.sampled_from([s for s in LabelSource if s is not source]))
                if label is None:
                    label = data.draw(st.sampled_from(LABELS))
                if source is LabelSource.NONE:
                    label = score = None
                elif source is LabelSource.PROPAGATED:
                    score = None
                elif score is None:
                    score = data.draw(st.sampled_from([0.95, 1.0]))
            labels[i], sources[i], overlaps[i] = label, source, score
            clusters[c] = cluster._replace(labels=labels, sources=sources, overlaps=overlaps)
        edited = list(labeled)
        edited[d] = edited[d].with_clusters(side, clusters)
        cfg = LabelingConfig(tau, inclusive, reused_forced)

        def differs(doc, side):
            return any(
                LabelSource.DIRECT in cluster.sources
                and cluster != labeled_again
                or any(source is LabelSource.PROPAGATED and label != cluster.cluster_label
                       for label, source in zip(cluster.labels, cluster.sources))
                for cluster, labeled_again in zip(doc.clusters(side),
                                                  propagate(doc, cfg, side).clusters(side)))

        expected = any(differs(doc, side) for doc in edited for side in reused)
        assert self._reusable(edited, cfg, reused) != expected


class TestSharedValues:
    """One labeling pass aligns each span once per document, with the
    result of labeling every document on its own."""

    @staticmethod
    def _corpus():
        # Short documents, so spans repeat across documents and sides.
        records = random_corpus(random.Random(31), 40, n_tokens=(10, 14), max_labels=2,
                                ensure_links=True, ensure_direct=True)
        return records, to_documents(records)

    @pytest.mark.parametrize("cfg", [CFG, LabelingConfig(0.3, True, True)])
    def test_labeling_a_labeled_corpus_again_changes_nothing(self, cfg):
        records, docs = self._corpus()
        labeled = label_documents(docs, cfg)
        again = label_documents(labeled, cfg)
        assert labeled == again == [_assign_then_propagate(doc, cfg)
                                    for doc in to_documents(records)]
        assert any(LabelSource.DIRECT in c.sources for doc in labeled for c in doc.gold_clusters)

    def test_each_span_is_aligned_once_per_document(self, monkeypatch):
        _, docs = self._corpus()
        aligned = [0]
        align = labeling._Alignments.__missing__

        def counting(table, span):
            aligned[0] += 1
            return align(table, span)

        monkeypatch.setattr(labeling._Alignments, "__missing__", counting)
        label_documents(docs, CFG)
        per_doc = [{span for side in ("gold", "predicted") for c in doc.clusters(side)
                    for span in c.spans} for doc in docs]
        assert aligned[0] == sum(map(len, per_doc))

    @pytest.mark.parametrize("cfg", [CFG, LabelingConfig(0.3, True, True)])
    def test_shared_pass_equals_documents_labeled_apart(self, cfg):
        records, docs = self._corpus()
        labeled = label_documents(docs, cfg)
        assert labeled == [_assign_then_propagate(doc, cfg) for doc in to_documents(records)]
        assert pickle.loads(pickle.dumps(labeled)) == labeled


class TestCoverage:
    def test_fully_covered_corpus(self):
        doc = doc_of([[(0, 1), (2, 3)], [(1, 2)]], cner=[(0, 1, "PER"), (1, 2, "LOC")],
                     tokens=["a", "b", "he"])
        report = coverage([_labeled_gold(doc)], "gold")
        assert report.overall.any_pct == 100.0
        assert report.overall.direct == 2
        assert report.overall.propagated == 1

    def test_pronoun_only_cluster_contributes_nothing(self):
        doc = doc_of([[(0, 1), (1, 2)]], tokens=["he", "him"])
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
        doc = doc_of([[(0, 1), (2, 3)]], cner=[(2, 3, "PER")], tokens=["He", "met", "Ada"])
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
        doc = doc_of([[(0, 1), (1, 2)]], cner=[(1, 2, "LOC")], tokens=["thingy", "Rome"])
        docs = [_labeled_gold(doc)]
        report = coverage(docs, "gold", pronouns=frozenset({"thingy"}))
        assert report.overall == coverage(docs, "gold").overall
        assert report.pronoun.total == 1
        assert report.pronoun.propagated == 1
        assert coverage(docs, "gold").pronoun.total == 0


class TestDistribution:
    def test_counts_and_shares(self, inventory):
        doc = doc_of(
            [[(0, 1), (2, 3), (4, 5)], [(6, 7)]],
            cner=[(0, 1, "PER"), (2, 3, "PER"), (4, 5, "PER"), (6, 7, "LOC")],
            tokens=list("abcdefgh"),
        )
        report = distribution([_labeled_gold(doc)], inventory)
        assert report.counts == {"PER": 3, "LOC": 1}
        assert report.shares == {"PER": 0.75, "LOC": 0.25}
        assert "MONEY" in report.absent_labels
        assert "PER" not in report.absent_labels

    def test_empty_distribution_lists_all_labels_absent(self, inventory):
        doc = doc_of([[(0, 1)]], tokens=["he"])
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
        doc = doc_of(
            [[(i, i + 1)] for i in range(0, 20, 2)],
            cner=[(i, i + 1, "PER") for i in range(0, 20, 2)],
            tokens=list("abcdefghijklmnopqrst"),
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
        assert report.f1 == 0.9

    def test_unlabeled_clusters_do_not_count_toward_precision(self):
        doc = doc_of([[(0, 1)], [(2, 3)]], cner=[(2, 3, "PER")], tokens=["he", "x", "Ada"])
        docs = [_labeled_gold(doc)]
        reference = {("d0", 0): "PER", ("d0", 1): "PER"}
        report = label_agreement(reference, docs)
        assert report.tp + report.fp == 1
        assert report.precision == 1.0
        assert report.recall == 0.5

    def test_f1_is_one_correctly_rounded_division(self):
        # tp right among s system-labeled clusters of r reference entries,
        # for every tp <= s <= r <= 12 but the empty reference: F1 is
        # 2tp / (s + r), which 2pr / (p + r) misrounds for 120 of them.
        docs = [doc_of([cluster_of([(i, i + 1)], "PER" if i < s else None) for i in range(12)],
                       doc_id=f"s{s}") for s in range(13)]
        triples = [(tp, s, r) for r in range(1, 13) for s in range(r + 1) for tp in range(s + 1)]
        for tp, s, r in triples:
            reference = {(f"s{s}", i): "PER" if i < tp else "LOC" for i in range(r)}
            score = label_agreement(reference, docs)
            assert (score.tp, score.tp + score.fp, score.support) == (tp, s, r)
            assert score.f1 == float(Fraction(2 * tp, s + r)), (tp, s, r)
        assert len(triples) == 454

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
