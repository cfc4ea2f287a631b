import copy
import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coref_semscore.inventory import CategoryInventory, UnknownLabelError
from coref_semscore.labeling import LabelingConfig, label_documents
from coref_semscore.model import (
    Cluster,
    Document,
    LabelSource,
    Mention,
    SemanticSpan,
    Span,
    _trusted_cluster,
    normalize_label,
    validate_document,
)
from oracles import token_set

spans = st.tuples(st.integers(0, 60), st.integers(1, 64)).filter(lambda t: t[0] < t[1])


def _cluster(*pairs):
    return Cluster(tuple(Mention(span=Span(s, e)) for s, e in pairs))


class TestSpan:
    def test_token_set_examples(self):
        assert token_set(Span(2, 5)) == {2, 3, 4}
        assert token_set(Span(0, 1)) == {0}
        assert token_set(Span(4, 8)) == {4, 5, 6, 7}
        assert len(token_set(Span(4, 8))) == 4

    @given(spans)
    def test_token_set_matches_half_open_interval(self, bounds):
        span = Span(*bounds)
        indices = token_set(span)
        assert len(indices) == span.end - span.start == len(span)
        assert all(span.start <= i < span.end for i in indices)

    @pytest.mark.parametrize("start,end", [(3, 3), (5, 2), (-1, 4), (0, 1.5), ("0", 1), (None, 2),
                                           (False, True), (0, True)])
    def test_rejects_degenerate_bounds(self, start, end):
        with pytest.raises(ValueError):
            Span(start, end)

    @given(spans, spans)
    def test_hash_equality_and_order_are_those_of_the_bounds_tuple(self, a, b):
        span_a, span_b = Span(*a), Span(*b)
        assert hash(span_a) == hash(a)
        assert span_a == a and a == span_a
        assert (span_a == span_b) == (a == b)
        assert (span_a < span_b) == (a < b)
        assert (span_a <= span_b) == (a <= b)
        assert sorted([span_b, span_a]) == sorted([b, a])

    def test_len_is_token_count_and_unpacking_gives_bounds(self):
        span = Span(4, 9)
        assert len(span) == 5
        start, end = span
        assert (start, end) == (span.start, span.end) == (4, 9)
        with pytest.raises(TypeError):
            reversed(span)


class TestMention:
    def test_replace_runs_checks(self):
        mention = Mention(span=Span(0, 1), assigned_label="PER",
                          label_source=LabelSource.DIRECT, assignment_overlap=0.9)
        with pytest.raises(ValueError):
            dataclasses.replace(mention, label_source=LabelSource.PROPAGATED)
        with pytest.raises(ValueError):
            dataclasses.replace(mention, assigned_label=None)
        with pytest.raises(ValueError):
            dataclasses.replace(mention, span=Span(2, 2))
        relabeled = dataclasses.replace(mention, assigned_label="LOC")
        assert relabeled.assigned_label == "LOC" and relabeled.span == mention.span

    def test_label_requires_source(self):
        with pytest.raises(ValueError):
            Mention(span=Span(0, 1), assigned_label="PER")

    def test_source_requires_label(self):
        with pytest.raises(ValueError):
            Mention(span=Span(0, 1), label_source=LabelSource.PROPAGATED)

    def test_overlap_only_for_direct(self):
        with pytest.raises(ValueError):
            Mention(span=Span(0, 1), assigned_label="PER",
                    label_source=LabelSource.PROPAGATED, assignment_overlap=0.9)
        with pytest.raises(ValueError):
            Mention(span=Span(0, 1), assigned_label="PER", label_source=LabelSource.DIRECT)
        Mention(span=Span(0, 1), assigned_label="PER",
                label_source=LabelSource.DIRECT, assignment_overlap=0.9)


class TestCluster:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one mention"):
            Cluster(())
        with pytest.raises(ValueError, match="at least one mention"):
            dataclasses.replace(_cluster((0, 2)), mentions=())

    def test_rejects_duplicate_spans(self):
        with pytest.raises(ValueError, match="duplicate mention span"):
            _cluster((0, 2), (0, 2))
        labeled = Mention(Span(0, 2), "PER", LabelSource.PROPAGATED)
        with pytest.raises(ValueError, match="duplicate mention span"):
            Cluster([Mention(Span(0, 2)), labeled])
        with pytest.raises(ValueError, match="duplicate mention span"):
            dataclasses.replace(_cluster((0, 2), (3, 4)),
                                mentions=(Mention(Span(0, 2)), labeled))

    def test_trusted_builder_builds_the_checked_value(self):
        mentions = (Mention(Span(0, 2)), Mention(Span(3, 4), "PER", LabelSource.PROPAGATED))
        checked = Cluster(iter(mentions), "PER")
        trusted = _trusted_cluster(mentions, "PER")
        assert checked.mentions == mentions
        assert trusted == checked and hash(trusted) == hash(checked)
        assert repr(trusted) == repr(checked)


class TestValidateDocument:
    def test_well_formed(self):
        doc = Document(
            doc_id="d0",
            tokens=tuple(f"t{i}" for i in range(10)),
            gold_clusters=(_cluster((0, 2), (4, 5)), _cluster((6, 8),)),
        )
        assert validate_document(doc) == []

    def test_out_of_range_span(self):
        doc = Document(doc_id="d0", tokens=("a", "b"), gold_clusters=(_cluster((0, 3),),))
        violations = validate_document(doc)
        assert len(violations) == 1
        assert "[0, 3)" in violations[0]
        assert "gold_clusters[0]" in violations[0]

    def test_span_in_two_clusters(self):
        doc = Document(
            doc_id="d0",
            tokens=tuple("abcdef"),
            gold_clusters=(_cluster((0, 2),), _cluster((3, 4), (0, 2))),
        )
        violations = validate_document(doc)
        assert len(violations) == 1
        assert "clusters 0 and 1" in violations[0]

    def test_does_not_mutate(self):
        doc = Document(doc_id="d0", tokens=("a",), gold_clusters=(_cluster((0, 1),),))
        before = doc
        validate_document(doc)
        assert doc == before

    def test_empty_doc_id(self):
        doc = Document(doc_id="", tokens=("a",))
        assert any("doc_id" in v for v in validate_document(doc))


class TestLabels:
    def test_normalize(self):
        assert normalize_label(" per ") == "PER"
        with pytest.raises(ValueError):
            normalize_label("B-PER")
        with pytest.raises(ValueError):
            normalize_label("  ")

    def test_default_inventory_shape(self):
        inv = CategoryInventory.default()
        assert len(inv) == 29
        for label in ("PER", "LOC", "ORG", "EVENT", "SUPER"):
            assert label in inv

    def test_alias_resolution(self):
        inv = CategoryInventory.default()
        assert inv.resolve("PERSON") == "PER"
        assert inv.resolve("location") == "LOC"
        assert inv.resolve("ORGANIZATION") == "ORG"
        assert inv.resolve("SUPERNATURAL") == "SUPER"
        with pytest.raises(UnknownLabelError):
            inv.resolve("WIDGET")

    def test_duplicate_labels_rejected(self):
        from coref_semscore.inventory import Category

        with pytest.raises(ValueError):
            CategoryInventory((Category("PER"), Category("PER")))


def _labeled_document():
    doc = Document(
        doc_id="d0",
        tokens=("Mr.", "Smith", "said", "he", "left", "Rome"),
        gold_clusters=(_cluster((0, 2), (3, 4)), _cluster((5, 6),)),
        predicted_clusters=(_cluster((1, 2), (3, 4)),),
        semantic_spans=(SemanticSpan(Span(0, 2), "PER"), SemanticSpan(Span(5, 6), "LOC")),
        sentence_boundaries=(0,),
        extras={"source": "demo"},
    )
    return label_documents([doc], LabelingConfig(tau=0.4))[0]


class TestValueSemantics:
    """The model is made of immutable values that survive copying."""

    @pytest.mark.parametrize("make, fields", [
        (lambda: Span(0, 1), ("start", "end")),
        (lambda: Mention(span=Span(0, 1)), ("span", "assigned_label", "label_source",
                                            "assignment_overlap")),
        (lambda: _cluster((0, 1)), ("mentions", "cluster_label")),
        (lambda: SemanticSpan(Span(0, 1), "PER"), ("span", "label")),
        (_labeled_document, ("doc_id", "tokens", "gold_clusters", "predicted_clusters",
                             "semantic_spans", "sentence_boundaries", "extras")),
    ])
    def test_fields_cannot_be_assigned(self, make, fields):
        value = make()
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))

    def test_labeled_document_survives_pickle_and_deepcopy(self):
        doc = _labeled_document()
        assert doc.gold_clusters[0].cluster_label == "PER"
        assert doc.gold_clusters[0].mentions[1].label_source is LabelSource.PROPAGATED
        for copied in (pickle.loads(pickle.dumps(doc)), copy.deepcopy(doc)):
            assert copied == doc
            assert type(copied.gold_clusters[0].mentions[0].span) is Span
            assert copied.gold_clusters[0].mentions[1].label_source is LabelSource.PROPAGATED
