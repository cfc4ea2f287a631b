import copy
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cluster_of, doc_of
from coref_semscore.classic_metrics import ClassicReport, MetricTriple
from coref_semscore.inventory import Category, CategoryInventory, UnknownLabelError
from coref_semscore.label_reports import DistributionReport
from coref_semscore.labeling import CoverageCounts, CoverageReport, LabelingConfig, label_documents
from coref_semscore.model import (
    Cluster,
    Document,
    LabelSource,
    Span,
    _trusted_cluster,
    _Value,
    normalize_label,
    validate_document,
)
from coref_semscore.typed_metrics import ClassScore, TypedScoreReport
from oracles import token_set

spans = st.tuples(st.integers(0, 60), st.integers(1, 64)).filter(lambda t: t[0] < t[1])


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


_NONE, _DIRECT, _PROPAGATED = LabelSource.NONE, LabelSource.DIRECT, LabelSource.PROPAGATED
_COLUMNS = ("spans", "labels", "sources", "overlaps")


class TestCluster:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one mention"):
            Cluster((), (), (), ())
        with pytest.raises(ValueError, match="at least one mention"):
            cluster_of([(0, 2)])._replace(spans=(), labels=(), sources=(), overlaps=())

    def test_rejects_duplicate_spans(self):
        with pytest.raises(ValueError, match="duplicate mention span"):
            cluster_of([(0, 2), (0, 2)])
        labeled = ((Span(0, 2), Span(0, 2)), (None, "PER"), (_NONE, _PROPAGATED), (None, None))
        with pytest.raises(ValueError, match="duplicate mention span"):
            Cluster(*labeled)
        with pytest.raises(ValueError, match="duplicate mention span"):
            cluster_of([(0, 2), (3, 4)])._replace(**dict(zip(_COLUMNS, labeled)))

    # One mention's (label, source, overlap), and the rule it breaks.
    @pytest.mark.parametrize("label, source, overlap, rule", [
        ("PER", _NONE, None, "assigned_label must be present iff label_source != none"),
        (None, _PROPAGATED, None, "assigned_label must be present iff label_source != none"),
        (None, _DIRECT, 0.9, "assigned_label must be present iff label_source != none"),
        ("PER", _PROPAGATED, 0.9, "assignment_overlap must be present iff label_source = direct"),
        ("PER", _DIRECT, None, "assignment_overlap must be present iff label_source = direct"),
        (None, _NONE, 0.9, "assignment_overlap must be present iff label_source = direct"),
    ], ids=["label-without-source", "propagated-without-label", "direct-without-label",
            "overlap-not-direct", "direct-without-overlap", "overlap-without-label"])
    def test_rejects_a_mention_that_breaks_the_label_rules(self, label, source, overlap, rule):
        columns = (Span(0, 1), Span(2, 3)), (None, label), (_NONE, source), (None, overlap)
        with pytest.raises(ValueError) as exc:
            Cluster(*columns)
        assert str(exc.value) == rule
        with pytest.raises(ValueError) as exc:
            cluster_of([(0, 1), (2, 3)])._replace(**dict(zip(_COLUMNS, columns)))
        assert str(exc.value) == rule

    @pytest.mark.parametrize("short", _COLUMNS)
    def test_rejects_columns_of_unequal_length(self, short):
        columns = {name: column[:1] if name == short else column for name, column in zip(
            _COLUMNS, ((Span(0, 1), Span(2, 3)), ("PER", None), (_DIRECT, _NONE), (0.9, None)))}
        with pytest.raises(ValueError, match="must be equally long"):
            Cluster(**columns)

    def test_replace_keeps_what_passes_the_rules(self):
        direct = Cluster((Span(0, 1),), ("PER",), (_DIRECT,), (0.9,), "PER")
        relabeled = direct._replace(labels=("LOC",))
        assert relabeled.labels == ("LOC",) and relabeled.spans == direct.spans
        assert relabeled.cluster_label == "PER" and relabeled != direct

    def test_trusted_builder_builds_the_checked_value_from_columns(self):
        columns = ((Span(0, 2), Span(3, 4), Span(5, 7)), (None, "PER", "LOC"),
                   (_NONE, _PROPAGATED, _DIRECT), (None, None, 0.75))
        checked = Cluster(*map(iter, columns), "PER")
        trusted = _trusted_cluster(*columns, "PER")
        for name in ("spans", "labels", "sources", "overlaps", "cluster_label"):
            assert getattr(trusted, name) == getattr(checked, name)
        assert trusted == checked and hash(trusted) == hash(checked)
        assert repr(trusted) == repr(checked)
        assert checked._values() == (*columns, "PER")


class TestDocument:
    @pytest.mark.parametrize("start, end", [(3, 1), (2, 2), (-1, 2), (0, 1.5)])
    def test_cner_bounds_are_checked_as_spans(self, start, end):
        with pytest.raises(ValueError) as exc:
            Document("d0", ["a", "b", "c", "d"], cner=[(start, end, "PER")])
        with pytest.raises(ValueError) as span_exc:
            Span(start, end)
        assert str(exc.value) == str(span_exc.value)

    def test_cner_is_stored_as_plain_triples(self):
        doc = Document("d0", ["a", "b"], cner=iter([[0, 1, "PER"], (0, 2, "LOC")]))
        assert doc.cner == ((0, 1, "PER"), (0, 2, "LOC"))
        assert {type(triple) for triple in doc.cner} == {tuple}


class TestValidateDocument:
    def test_well_formed(self):
        doc = doc_of([[(0, 2), (4, 5)], [(6, 8)]], tokens=10)
        assert validate_document(doc) == []

    def test_out_of_range_span(self):
        doc = doc_of([[(0, 3)]], tokens=["a", "b"])
        assert validate_document(doc) == ["gold_clusters[0][0]: span [0, 3) out of range (2 tokens)"]

    def test_out_of_range_semantic_span_is_named_by_its_field(self):
        doc = doc_of([[(0, 1)]], cner=[(0, 1, "LOC"), (0, 5, "PER")], tokens=["a", "b"])
        assert validate_document(doc) == ["cner[1]: span [0, 5) out of range (2 tokens)"]

    def test_span_in_two_clusters(self):
        doc = doc_of([[(0, 2)], [(3, 4), (0, 2)]], tokens=list("abcdef"))
        violations = validate_document(doc)
        assert len(violations) == 1
        assert "clusters 0 and 1" in violations[0]

    def test_does_not_mutate(self):
        doc = doc_of([[(0, 1)]], tokens=["a"])
        before = doc
        validate_document(doc)
        assert doc == before

    def test_empty_doc_id(self):
        doc = Document(doc_id="", tokens=("a",))
        assert any("doc_id" in v for v in validate_document(doc))


class TestDocumentSides:
    def test_unknown_side_is_refused(self):
        doc = Document(doc_id="d0", tokens=("a",))
        with pytest.raises(ValueError, match="unknown side 'system'"):
            doc.clusters("system")
        with pytest.raises(ValueError, match="unknown side 'system'"):
            doc.with_clusters("system", ())


class TestLabels:
    def test_normalize(self):
        assert normalize_label(" per ") == "PER"
        with pytest.raises(ValueError):
            normalize_label("B-PER")
        with pytest.raises(ValueError):
            normalize_label("  ")

    def test_default_inventory_shape(self):
        inv = CategoryInventory.default()
        assert len(inv.labels) == 29
        for label in ("PER", "LOC", "ORG", "EVENT", "SUPER"):
            assert label in inv.labels

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

    @pytest.mark.parametrize("categories", [
        (Category("LOC", "", ("ORG",)), Category("ORG")),
        (Category("ORG"), Category("LOC", "", ("ORG",))),
    ])
    def test_alias_that_is_another_label_rejected(self, categories):
        with pytest.raises(ValueError, match="alias 'ORG' of LOC is the label of category ORG"):
            CategoryInventory(categories)

    def test_alias_that_is_its_own_label_accepted(self):
        inv = CategoryInventory((Category("LOC", "", ("LOC", "PLACE")), Category("ORG")))
        assert inv.resolve("PLACE") == inv.resolve("LOC") == "LOC"


def _labeled_document():
    doc = Document(
        doc_id="d0",
        tokens=("Mr.", "Smith", "said", "he", "left", "Rome"),
        gold_clusters=(cluster_of([(0, 2), (3, 4)]), cluster_of([(5, 6)])),
        predicted_clusters=(cluster_of([(1, 2), (3, 4)]),),
        cner=((0, 2, "PER"), (5, 6, "LOC")),
        sentence_boundaries=(0,),
        extras={"source": "demo"},
    )
    return label_documents([doc], LabelingConfig(tau=0.4))[0]


def _triple():
    return MetricTriple(0.5, 0.25, 1 / 3)


def _coverage_counts():
    return CoverageCounts(10, 4, 3)


# Every value type of the package with the names of its fields.
VALUES = [
    (lambda: Span(0, 1), ("start", "end")),
    (lambda: cluster_of([(0, 1)]), ("spans", "labels", "sources", "overlaps", "cluster_label")),
    (_labeled_document, ("doc_id", "tokens", "gold_clusters", "predicted_clusters", "cner",
                         "sentence_boundaries", "extras")),
    (_triple, ("precision", "recall", "f1")),
    (lambda: ClassicReport(_triple(), _triple(), _triple()), ("muc", "b_cubed", "ceaf_phi4")),
    (lambda: ClassScore("PER", 3, 1, 2), ("label", "tp", "fp", "fn")),
    (lambda: TypedScoreReport("link", {"PER": ClassScore("PER", 3, 1, 2)}, 4, 5, "gold", 0),
     ("mode", "per_class", "unlabeled_gold", "unlabeled_predicted", "link_mention_source",
      "containment_violations")),
    (_coverage_counts, ("total", "direct", "propagated")),
    (lambda: CoverageReport(_coverage_counts(), CoverageCounts(2, 0, 1)),
     ("overall", "pronoun")),
    (lambda: DistributionReport({"PER": 3}, 3, 1, ("LOC",)),
     ("counts", "total_labeled", "unlabeled", "absent_labels")),
    (lambda: LabelingConfig(0.4, True, True), ("tau", "tau_inclusive", "force_cluster_label")),
    (lambda: Category("LOC", "places", ("LOCATION",)), ("label", "description", "aliases")),
    (CategoryInventory.default, ("categories", "_canonical", "_alias_map")),
]
# Each row's test id is the name of its type, which does not change when
# another row is added or deleted.
VALUE_TYPES = [type(make()).__name__ for make, _ in VALUES]


def _mention(spec) -> tuple:
    """The span, label, source and overlap of a mention spec."""
    bounds, source, label, score = spec
    return (Span(*bounds), None if source is LabelSource.NONE else label, source,
            score if source is LabelSource.DIRECT else None)


def _cluster(spec) -> Cluster:
    mentions, label = spec
    return Cluster(*zip(*map(_mention, mentions)), label)


def _document(spec) -> Document:
    doc_id, tokens, gold, predicted, cner, boundaries, extras = spec
    return Document(doc_id, tokens, map(_cluster, gold), map(_cluster, predicted),
                    [(*bounds, label) for bounds, label in cner], boundaries, extras)


# Specs drawn from small pools, so that two draws are often equal.
_BOUNDS = st.sampled_from([(0, 1), (1, 2), (0, 2)])
_LABELS = st.sampled_from(["PER", "LOC"])
_CLUSTER_SPECS = st.tuples(
    st.lists(st.tuples(_BOUNDS, st.sampled_from(list(LabelSource)), _LABELS,
                       st.sampled_from([0.5, 1.0])),
             min_size=1, max_size=3, unique_by=lambda mention: mention[0]),
    st.sampled_from([None, "PER"]))
_DOCUMENT_SPECS = st.tuples(
    st.sampled_from(["d0", "d1"]), st.sampled_from([("a", "b"), ("a", "b", "c")]),
    st.lists(_CLUSTER_SPECS, max_size=2), st.lists(_CLUSTER_SPECS, max_size=1),
    st.lists(st.tuples(_BOUNDS, _LABELS), max_size=2), st.sampled_from([None, (0,)]),
    st.sampled_from([{}, {"genre": "news"}]))


def _by_fields(value):
    """`value` with each model value in it replaced by its class and its
    fields, recursively: what equality compares."""
    if isinstance(value, _Value):
        return type(value), _by_fields(value._values())
    if isinstance(value, tuple):
        return tuple(map(_by_fields, value))
    return value


class TestValueSemantics:
    """The model is made of immutable values that survive copying."""

    @pytest.mark.parametrize("make, fields", VALUES, ids=VALUE_TYPES)
    def test_fields_cannot_be_assigned(self, make, fields):
        value = make()
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                delattr(value, name)

    @pytest.mark.parametrize("make, fields", VALUES, ids=VALUE_TYPES)
    def test_pickle_and_deepcopy_give_an_equal_value(self, make, fields):
        value = make()
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(copied) is type(value)
            assert copied == value
            for name in fields:
                assert getattr(copied, name) == getattr(value, name)

    def test_model_values_are_not_tuples(self):
        for make in (lambda: cluster_of([(0, 1)]), _labeled_document):
            assert not isinstance(make(), tuple)

    def test_model_values_equal_by_class_and_fields(self):
        cluster = cluster_of([(0, 1)])
        assert cluster == cluster_of([(0, 1)]) and hash(cluster) == hash(cluster_of([(0, 1)]))
        assert cluster != cluster_of([(0, 2)]) and cluster != cluster_of([(0, 1)], "PER")
        assert cluster != ((Span(0, 1),), (None,), (LabelSource.NONE,), (None,), None)
        assert doc_of(cner=[(0, 1, "PER")]) != doc_of(cner=[(0, 1, "LOC")])
        assert len({cluster_of([(0, 1)]), cluster_of([(0, 1)]), cluster_of([(0, 2)])}) == 2

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equality_of_the_stored_slots_is_that_of_the_fields(self, data):
        # Each pair's second spec is often the first, built again apart.
        def pair(specs, build):
            first = data.draw(specs)
            return build(first), build(data.draw(st.one_of(st.just(first), specs)))

        clusters, docs = pair(_CLUSTER_SPECS, _cluster), pair(_DOCUMENT_SPECS, _document)
        for a, b in (clusters, docs):
            assert (a == b) == (_by_fields(a) == _by_fields(b))
            assert (a != b) == (_by_fields(a) != _by_fields(b))
        if clusters[0] == clusters[1]:
            assert hash(clusters[0]) == hash(clusters[1])
        with pytest.raises(TypeError):
            hash(docs[0])

    def test_fields_are_the_slots_of_every_value_but_the_inventory(self):
        # The inventory derives its lookup slots from its categories.
        assert {cls.__name__ for cls in _Value.__subclasses__()
                if cls._fields != cls.__slots__} == {"CategoryInventory"}
        assert {Cluster, Document} <= set(_Value.__subclasses__())

    def test_records_are_named_tuples(self):
        assert LabelingConfig() == (0.5, False, False)
        assert tuple(_triple()) == (0.5, 0.25, 1 / 3)
        precision, recall, f1 = _triple()
        assert (precision, recall, f1) == (0.5, 0.25, 1 / 3)

    def test_inventory_equals_by_its_categories(self):
        rebuilt = CategoryInventory(list(CategoryInventory.default().categories))
        assert rebuilt == CategoryInventory.default()
        assert hash(rebuilt) == hash(CategoryInventory.default())
        assert rebuilt != CategoryInventory(rebuilt.categories[:-1])
        assert rebuilt.resolve("person") == "PER"
        assert repr(CategoryInventory((Category("PER"),))) == (
            "CategoryInventory(categories=(Category(label='PER', description='', aliases=()),))"
        )

    def test_repr_names_every_field(self):
        assert repr(cluster_of([(0, 1)])) == (
            "Cluster(spans=(Span(start=0, end=1),), labels=(None,), "
            "sources=(<LabelSource.NONE: 'none'>,), overlaps=(None,), cluster_label=None)"
        )
        assert repr(Document("d", ["a"], cner=[(0, 1, "PER")])) == (
            "Document(doc_id='d', tokens=('a',), gold_clusters=(), predicted_clusters=(), "
            "cner=((0, 1, 'PER'),), sentence_boundaries=None, extras={})"
        )
        assert repr(LabelingConfig()) == (
            "LabelingConfig(tau=0.5, tau_inclusive=False, force_cluster_label=False)"
        )

    def test_replace_runs_the_checks_of_each_checked_value(self):
        with pytest.raises(ValueError):
            LabelingConfig()._replace(tau=1.5)
        assert LabelingConfig()._replace(tau=-0.0) == LabelingConfig(0.0)
        with pytest.raises(ValueError):
            Span(0, 2)._replace(end=0)
        assert Span(0, 2)._replace(end=3) == Span(0, 3)
        with pytest.raises(ValueError, match="duplicate labels"):
            CategoryInventory.default()._replace(categories=(Category("PER"), Category("PER")))
        with pytest.raises(TypeError):
            cluster_of([(0, 1)])._replace(mentions=())

    def test_document_replace_stores_tuples(self):
        doc = _labeled_document()
        cluster = cluster_of([(0, 1)])
        changed = doc._replace(gold_clusters=[cluster], cner=iter([]))
        assert changed.gold_clusters == (cluster,)
        assert changed.cner == ()
        assert changed.predicted_clusters is doc.predicted_clusters
        assert changed.extras is doc.extras
        assert doc.gold_clusters != changed.gold_clusters

    def test_each_document_gets_its_own_extras(self):
        first, second = Document("a", ["x"]), Document("b", ["y"])
        assert first.extras == {} and first.extras is not second.extras

    def test_labeling_config_states_its_defaults_once(self):
        # The constructor's signature is the one place the defaults live;
        # field defaults, if any, must say the same.
        assert LabelingConfig() == (0.5, False, False)
        assert LabelingConfig._field_defaults in ({}, LabelingConfig()._asdict())

    def test_tau_is_stored_without_its_sign_of_zero(self):
        assert str(LabelingConfig(-0.0).tau) == "0.0"
        assert str(LabelingConfig(0).tau) == "0.0"
        with pytest.raises(ValueError):
            LabelingConfig(float("nan"))

    @pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in 3.13")
    def test_copy_replace_runs_the_checks(self):
        with pytest.raises(ValueError):
            copy.replace(LabelingConfig(), tau=2.0)
        with pytest.raises(ValueError):
            copy.replace(cluster_of([(0, 1)]), sources=(LabelSource.DIRECT,))
        with pytest.raises(ValueError):
            copy.replace(Span(0, 1), end=0)
        assert copy.replace(LabelingConfig(), tau=-0.0) == LabelingConfig(0.0)

    def test_labeled_document_survives_pickle_and_deepcopy(self):
        doc = _labeled_document()
        assert doc.gold_clusters[0].cluster_label == "PER"
        assert doc.gold_clusters[0].sources[1] is LabelSource.PROPAGATED
        for copied in (pickle.loads(pickle.dumps(doc)), copy.deepcopy(doc)):
            assert copied == doc
            assert type(copied.gold_clusters[0].spans[0]) is Span
            assert copied.gold_clusters[0].sources[1] is LabelSource.PROPAGATED
