import io
import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coref_semscore.conll2012 import _conll_records, read_conll2012
from coref_semscore.ingest import (
    CorpusFormatError,
    document_to_record,
    merge_predictions,
    read_cner_jsonl,
    read_jsonl_corpus,
    write_labeled_jsonl,
)
from coref_semscore.inventory import CategoryInventory
from coref_semscore.labeling import LabelingConfig, label_documents
from coref_semscore.model import (
    Cluster,
    Document,
    LabelSource,
    Span,
    validate_document,
)
from corpusgen import random_corpus, random_record, to_documents


def _read(lines, inventory=None):
    return read_jsonl_corpus(io.StringIO("\n".join(lines)), inventory)


class TestJsonlReader:
    def test_minimal_record(self):
        docs = _read([json.dumps({
            "doc_id": "d0",
            "tokens": ["Rome", "is", "old"],
            "gold_clusters": [[[0, 1]]],
            "cner": [[0, 1, "LOC"]],
        })])
        assert len(docs) == 1
        doc = docs[0]
        assert len(doc.gold_clusters) == 1
        assert doc.cner == ((0, 1, "LOC"),)

    def test_alias_applied_to_cner(self):
        docs = _read([json.dumps({
            "doc_id": "d0",
            "tokens": ["Obama"],
            "gold_clusters": [],
            "cner": [[0, 1, "PERSON"]],
        })])
        assert docs[0].cner == ((0, 1, "PER"),)

    @pytest.mark.parametrize("read", [read_jsonl_corpus, read_cner_jsonl])
    def test_repeated_key_names_line_and_key(self, read):
        line = '{"doc_id": "d", "tokens": ["a"], "gold_clusters": [[[0, 1]]], "gold_clusters": []}'
        with pytest.raises(CorpusFormatError) as exc:
            read(io.StringIO("\n" + line))
        assert str(exc.value) == "line 2: repeated JSON key 'gold_clusters'"

    def test_out_of_range_span_names_line_and_span(self):
        record = {"doc_id": "d0", "tokens": ["a", "b", "c", "d", "e"],
                  "gold_clusters": [[[3, 9]]]}
        with pytest.raises(CorpusFormatError) as exc:
            _read(["", json.dumps(record)])
        assert "line 2" in str(exc.value)
        assert "[3, 9)" in str(exc.value)

    @pytest.mark.parametrize("bounds", [[2, 3.7], [2, 3.0], [False, True], ["0", "1"]])
    @pytest.mark.parametrize("field, where", [
        ("gold_clusters", "gold_clusters[0][1]"),
        ("predicted_clusters", "predicted_clusters[0][1]"),
        ("cner", "cner[1]"),
    ])
    def test_non_integer_span_bound_rejected(self, field, where, bounds):
        if field == "cner":
            value = [[0, 1, "PER"], [*bounds, "PER"]]
        else:
            value = [[[3, 4], bounds]]
        record = {"doc_id": "d0", "tokens": list("abcde"), field: value}
        with pytest.raises(CorpusFormatError) as exc:
            _read(["", json.dumps(record)])
        assert f"line 2: {where}: span bounds must be integers" in str(exc.value)

    @pytest.mark.parametrize("label", [None, 7, ["PER"]])
    def test_non_string_cner_label_rejected(self, label):
        record = {"doc_id": "d0", "tokens": ["a", "b"], "cner": [[0, 1, "PER"], [1, 2, label]]}
        with pytest.raises(CorpusFormatError) as exc:
            _read([json.dumps(record)])
        assert "line 1: cner[1]: label must be a string" in str(exc.value)
        assert "unknown category label" not in str(exc.value)

    @pytest.mark.parametrize("doc_id", [None, True, 2.5, 0, [], {}, [0, 1]])
    def test_non_string_doc_id_rejected(self, doc_id):
        record = {"doc_id": doc_id, "tokens": ["a"], "cner": [[0, 1, "PER"]]}
        message = f"line 2: doc_id must be a string, got {doc_id!r}"
        with pytest.raises(CorpusFormatError, match=re.escape(message)):
            _read(["", json.dumps(record)])
        with pytest.raises(CorpusFormatError, match=re.escape(message)):
            read_cner_jsonl(io.StringIO("\n" + json.dumps(record)))

    def test_empty_doc_id_keeps_its_wording(self):
        with pytest.raises(CorpusFormatError, match="doc_id: must be non-empty"):
            _read([json.dumps({"doc_id": "", "tokens": ["a"]})])

    @pytest.mark.parametrize("token", [None, 7, 2.5, True, ["a"]])
    def test_non_string_token_rejected(self, token):
        record = {"doc_id": "d0", "tokens": ["a", token, "c"]}
        with pytest.raises(CorpusFormatError,
                           match=re.escape(f"line 1: tokens[1]: token must be a string, "
                                           f"got {token!r}")):
            _read([json.dumps(record)])

    @staticmethod
    def _one_direct_mention(score) -> str:
        return json.dumps({
            "doc_id": "d0", "tokens": ["a", "b"], "gold_clusters": [[[0, 1]]],
            "cluster_labels": {"gold": ["PER"]}, "mention_labels": {"gold": [["PER"]]},
            "mention_label_sources": {"gold": [["direct"]]},
            "mention_overlaps": {"gold": [[score]]},
        })

    @pytest.mark.parametrize("score", [0, 1, 0.0, 0.5, 1.0, -0.0])
    def test_overlap_in_unit_interval_read_as_float(self, score):
        (doc,) = _read([self._one_direct_mention(score)])
        overlap = doc.gold_clusters[0].overlaps[0]
        assert type(overlap) is float and overlap == score
        assert math.copysign(1.0, overlap) == math.copysign(1.0, score)

    @pytest.mark.parametrize("score", [True, False, 2.5, -1.0, 1.0000001, "0.5", float("nan"),
                                       float("inf")])
    def test_overlap_outside_unit_interval_rejected(self, score):
        with pytest.raises(CorpusFormatError) as exc:
            _read([self._one_direct_mention(score)])
        assert str(exc.value) == ("line 1: gold_clusters[0][0]: assignment overlap must be a "
                                  f"number in [0, 1], got {score!r}")

    @staticmethod
    def _labeled_record(doc_id: str, *mentions) -> str:
        """A record of one gold cluster labeled PER whose mentions carry
        the (label, source, overlap) triples `mentions`."""
        labels, sources, scores = zip(*mentions)
        return json.dumps({
            "doc_id": doc_id, "tokens": ["a"] * len(mentions),
            "gold_clusters": [[[i, i + 1] for i in range(len(mentions))]],
            "cluster_labels": {"gold": ["PER"]}, "mention_labels": {"gold": [labels]},
            "mention_label_sources": {"gold": [sources]}, "mention_overlaps": {"gold": [scores]},
        })

    @staticmethod
    def _last_mention(lines, where: str):
        """The label, source and overlap of the last gold mention read
        from lines, with the overlap's type and sign, or the error read
        with its location `where` cut."""
        try:
            docs = _read(lines)
        except CorpusFormatError as exc:
            assert str(exc).startswith(where)
            return str(exc)[len(where):]
        cluster = docs[-1].gold_clusters[0]
        overlap = cluster.overlaps[-1]
        return (cluster.labels[-1], cluster.sources[-1], overlap, type(overlap),
                None if overlap is None else math.copysign(1.0, overlap))

    @pytest.mark.parametrize("first", [0.0, 1.0])
    @pytest.mark.parametrize("mention", [
        *(("PER", "direct", score) for score in (
            0, 1, 0.0, 0.5, 1.0, -0.0, True, False, 2.5, -1.0, 1.0000001, "0.5", float("nan"),
            float("inf"), None, [0.5])),
        ("person", "direct", 0.5), ("PER", "propagated", None), ("PER", "propagated", 0.5),
        ("PER", "none", None), (None, "none", None), (None, "none", 0.5), (None, "direct", 0.5),
        (["PER"], "direct", 0.5), ({"PER": 1}, "direct", 0.5), (7, "direct", 0.5),
        ("P3R", "direct", 0.5), ("PER", ["direct"], 0.5), ("PER", "DIRECT", 0.5),
        ("PER", 1, 0.5), ("PER", None, None),
    ], ids=repr)
    def test_mention_after_a_checked_pair_reads_as_alone(self, first, mention):
        # The reader checks a (label, source) pair through the constructor
        # once per read.  A mention after one that has its label and source,
        # if the reader accepts that pair, or else a direct PER label, at
        # overlap `first` where direct, in its record or in the record
        # before, reads as it does alone: the same fields, overlap sign
        # included, or the same error.
        alone = self._last_mention([self._labeled_record("d0", mention)],
                                   "line 1: gold_clusters[0][0]: ")
        label, source, _ = mention
        if [label, source] in [["PER", "direct"], ["person", "direct"], ["PER", "propagated"],
                               [None, "none"]]:
            checked = (label, source, first if source == "direct" else None)
        else:
            checked = ("PER", "direct", first)
        assert self._last_mention([self._labeled_record("d0", checked, mention)],
                                  "line 1: gold_clusters[0][1]: ") == alone
        assert self._last_mention([self._labeled_record("d0", checked),
                                   self._labeled_record("d1", mention)],
                                  "line 2: gold_clusters[0][0]: ") == alone

    def test_malformed_json_reports_line(self):
        with pytest.raises(CorpusFormatError) as exc:
            _read(['{"doc_id": "d0", "tokens": ["a"]}', "{oops"])
        assert "line 2" in str(exc.value)

    def test_unknown_label_rejected(self):
        record = {"doc_id": "d0", "tokens": ["a"], "cner": [[0, 1, "WIDGET"]]}
        with pytest.raises(CorpusFormatError) as exc:
            _read([json.dumps(record)])
        assert "WIDGET" in str(exc.value)

    def test_duplicate_doc_id(self):
        record = {"doc_id": "d0", "tokens": ["a"]}
        with pytest.raises(CorpusFormatError) as exc:
            _read([json.dumps(record), json.dumps(record)])
        assert "duplicate doc_id" in str(exc.value)

    def test_preserves_document_order(self):
        records = [{"doc_id": f"d{i}", "tokens": ["a"]} for i in range(5)]
        docs = _read([json.dumps(r) for r in records])
        assert [d.doc_id for d in docs] == [f"d{i}" for i in range(5)]


def _reference_document(record: dict, inventory: CategoryInventory) -> Document:
    """A record's Document built field by field through the model's checked
    constructors, with no reader involved."""

    def clusters(side):
        raw = record.get(f"{side}_clusters", [])

        def block(key, default):
            rows = (record.get(key) or {}).get(side)
            return rows if rows is not None else [[default] * len(c) for c in raw]

        cluster_labels = (record.get("cluster_labels") or {}).get(side) or [None] * len(raw)
        return tuple(
            Cluster(
                [Span(*pair) for pair in cluster],
                [None if label is None else inventory.resolve(label) for label in labels],
                map(LabelSource, sources),
                [None if score is None else float(score) for score in scores],
                None if cluster_label is None else inventory.resolve(cluster_label),
            )
            for cluster, cluster_label, labels, sources, scores in zip(
                raw, cluster_labels, block("mention_labels", None),
                block("mention_label_sources", "none"), block("mention_overlaps", None),
            )
        )

    return Document(
        doc_id=str(record["doc_id"]),
        tokens=tuple(str(t) for t in record["tokens"]),
        gold_clusters=clusters("gold"),
        predicted_clusters=clusters("predicted"),
        cner=[(s, e, inventory.resolve(label)) for s, e, label in record["cner"]],
    )


# Faults in the labeled fields of one mention: (field, value, the source the
# mention must have, or None for any).  Some are accepted by the reader.
LABEL_FAULTS = [
    *(("mention_labels", label, None) for label in ("WIDGET", " person ", 7)),
    *(("mention_label_sources", source, None) for source in ("DIRECT", 1)),
    *(("mention_overlaps", score, "direct")
      for score in (1, -0.0, True, float("nan"), "0.5", 1.5, None)),
    ("mention_overlaps", 0.5, "propagated"),
    ("mention_labels", None, "direct"),
]


def _mention_fault(raw_label, source, overlap, inventory: CategoryInventory) -> str | None:
    """How the checked Cluster constructor words the fault of one mention's
    raw label, source and overlap, or None when it accepts them."""
    try:
        if raw_label is not None and not isinstance(raw_label, str):
            raise TypeError(f"label must be a string or null, got {raw_label!r}")
        Cluster((Span(0, 1),), (None if raw_label is None else inventory.resolve(raw_label),),
                (LabelSource(source),), (None if overlap is None else float(overlap),))
        if overlap is not None and (type(overlap) not in (int, float)
                                    or not 0.0 <= overlap <= 1.0):
            raise ValueError(f"assignment overlap must be a number in [0, 1], got {overlap!r}")
    except (TypeError, ValueError) as exc:
        return str(exc)
    return None


def _first_mention_fault(record: dict, inventory: CategoryInventory) -> str | None:
    """The first mention fault of a record, side by side, with its location."""
    faults = (
        f"{side}_clusters[{ci}][{mi}]: {fault}"
        for side in ("gold", "predicted")
        if "mention_labels" in record
        for ci in range(len(record[f"{side}_clusters"]))
        for mi, fields in enumerate(zip(*(record[key][side][ci] for key in (
            "mention_labels", "mention_label_sources", "mention_overlaps"))))
        if (fault := _mention_fault(*fields, inventory)) is not None
    )
    return next(faults, None)


@st.composite
def corpus_records(draw):
    """A corpusgen record, raw or labeled and written, with at most one of:
    a span repeated in another cluster of its side, a span that ends past
    the last token, or, in a labeled record, one of LABEL_FAULTS."""
    record = random_record(random.Random(draw(st.integers(0, 2**32 - 1))), "h0",
                           n_tokens=(4, 40), max_clusters=4, max_total_mentions=10)
    fault = draw(st.sampled_from(["none", "repeat", "out_of_range", "label"]))
    if fault == "label" or draw(st.booleans()):
        docs = label_documents(to_documents([record]), LabelingConfig())
        buffer = io.StringIO()
        write_labeled_jsonl(docs, buffer)
        record = json.loads(buffer.getvalue())
    side = draw(st.sampled_from(["gold", "predicted"]))
    clusters = record[f"{side}_clusters"]
    if fault == "none" or not clusters:
        return record
    if fault == "label":
        field, value, needs = draw(st.sampled_from(LABEL_FAULTS))
        mentions = [(ci, mi) for ci, sources in enumerate(record["mention_label_sources"][side])
                    for mi, source in enumerate(sources) if needs in (None, source)]
        if mentions:
            ci, mi = draw(st.sampled_from(mentions))
            record[field][side][ci][mi] = value
        return record
    ci = draw(st.integers(0, len(clusters) - 1))
    mi = draw(st.integers(0, len(clusters[ci]) - 1))
    if fault == "out_of_range":
        clusters[ci][mi] = [clusters[ci][mi][0], len(record["tokens"]) + draw(st.integers(1, 3))]
    elif len(clusters) > 1:
        cj = draw(st.integers(0, len(clusters) - 2))
        cj += cj >= ci
        for key in ("mention_labels", "mention_label_sources", "mention_overlaps"):
            if key in record:
                rows = record[key][side]
                rows[cj].append(rows[ci][mi])
        clusters[cj].append(clusters[ci][mi])
    return record


class TestSinglePassReader:
    @settings(max_examples=200, deadline=None)
    @given(corpus_records())
    def test_reads_the_document_built_field_by_field(self, record):
        inventory = CategoryInventory.default()
        line = json.dumps(record)
        fault = _first_mention_fault(record, inventory)
        if fault is not None:
            with pytest.raises(CorpusFormatError) as exc:
                _read([line])
            assert str(exc.value) == f"line 1: {fault}"
            return
        expected = _reference_document(record, inventory)
        violations = validate_document(expected)
        if violations:
            with pytest.raises(CorpusFormatError) as exc:
                _read([line])
            assert str(exc.value) == f"line 1: doc 'h0': {violations[0]}"
        else:
            assert _read([line]) == [expected]

    @pytest.mark.parametrize("gold, cluster_labels, error", [
        # cluster 0 repeats a span, cluster 2 holds a bad pair
        ([[[0, 1], [0, 1]], [[2, 3]], [[1, 0]]], None,
         "gold_clusters[0]: duplicate mention span within cluster"),
        ([[[0, 1]], [], [[1, 0]]], None,
         "gold_clusters[1]: cluster must contain at least one mention"),
        # a span in two clusters, then a span repeated within cluster 2
        ([[[0, 1]], [[0, 1], [2, 3]], [[2, 3], [2, 3]]], None,
         "gold_clusters[2]: duplicate mention span within cluster"),
        ([[[0, 1]], [[1, 2], [0, 1]]], None,
         "doc 'd0': gold_clusters: span [0, 1) appears in clusters 0 and 1"),
        ([[[0, 1], [0, 1]]], ["P3R"],
         "gold_clusters[0]: bad category label 'P3R': expected letters only"),
        ([[[0, 1], [0, 1]]], ["PER"],
         "gold_clusters[0]: duplicate mention span within cluster"),
    ], ids=["repeat-then-bad-pair", "empty", "across-then-within", "across", "label-first",
            "labeled-repeat"])
    def test_first_cluster_error_is_reported(self, gold, cluster_labels, error):
        record = {"doc_id": "d0", "tokens": ["a", "b", "c", "d"], "gold_clusters": gold}
        if cluster_labels is not None:
            record["cluster_labels"] = {"gold": cluster_labels}
        with pytest.raises(CorpusFormatError) as exc:
            _read([json.dumps(record)])
        assert str(exc.value) == f"line 1: {error}"

    def test_label_resolved_once_per_read(self, monkeypatch):
        inventory = CategoryInventory.default()
        calls = []
        resolve = inventory.resolve
        monkeypatch.setattr(CategoryInventory, "resolve",
                            lambda self, raw: calls.append(raw) or resolve(raw))
        records = [{"doc_id": f"d{i}", "tokens": ["a", "b"],
                    "cner": [[0, 1, "PER"], [1, 2, "person"], [0, 2, "PER"]]} for i in range(3)]
        docs = _read([json.dumps(r) for r in records], inventory)
        assert sorted(calls) == ["PER", "person"]
        assert {label for d in docs for _, _, label in d.cner} == {"PER"}

    def test_a_valid_read_equals_the_reference(self):
        # Unlabeled records, whose clusters share the unlabeled columns;
        # their semantic spans are read as triples.
        records = random_corpus(random.Random(29), 40, n_tokens=(10, 14), ensure_links=True)
        docs = _read([json.dumps(r) for r in records])
        inventory = CategoryInventory.default()
        assert docs == [_reference_document(r, inventory) for r in records]
        assert [doc.cner for doc in docs] == [tuple(map(tuple, r["cner"])) for r in records]

    def test_a_valid_labeled_read_equals_the_reference(self):
        # Few, large clusters, labeled, each column read by the fast path;
        # and a mention whose integer overlap only the checked path takes.
        records = random_corpus(random.Random(31), 6, n_tokens=(600, 700), max_clusters=4,
                                max_total_mentions=120, ensure_links=True)
        labeled = label_documents(to_documents(records), LabelingConfig())
        buffer = io.StringIO()
        write_labeled_jsonl(labeled, buffer)
        lines = buffer.getvalue().splitlines()
        lines.append(self._integer_overlap_record())
        docs = _read(lines)
        inventory = CategoryInventory.default()
        assert docs == [_reference_document(json.loads(line), inventory) for line in lines]
        assert docs[:-1] == labeled
        assert docs[-1].gold_clusters[0].overlaps == (1.0, 0.5)

    @staticmethod
    def _integer_overlap_record() -> str:
        return json.dumps({
            "doc_id": "int", "tokens": ["a", "b"], "gold_clusters": [[[0, 1], [1, 2]]],
            "predicted_clusters": [], "cner": [], "cluster_labels": {"gold": ["PER"]},
            "mention_labels": {"gold": [["PER", "PER"]]},
            "mention_label_sources": {"gold": [["direct", "direct"]]},
            "mention_overlaps": {"gold": [[1, 0.5]]},
        })

    def test_byte_order_mark_is_worded_as_before(self):
        with pytest.raises(CorpusFormatError, match=r"^line 1: invalid JSON: Unexpected UTF-8 BOM"):
            _read(['\ufeff{"doc_id": "d0", "tokens": ["a"]}'])


class TestRoundTrip:
    def test_random_corpora_round_trip_identity(self):
        rng = random.Random(7)
        docs = to_documents(random_corpus(rng, 12))
        docs = label_documents(docs, LabelingConfig())
        buffer = io.StringIO()
        write_labeled_jsonl(docs, buffer)
        buffer.seek(0)
        again = read_jsonl_corpus(buffer)
        assert again == docs

    def test_unknown_fields_preserved(self):
        record = {"doc_id": "d0", "tokens": ["a"], "genre": "news", "split": 3}
        (doc,) = to_documents([record])
        out = document_to_record(doc)
        assert out["genre"] == "news"
        assert out["split"] == 3

    def test_propagated_source_emitted(self, news_doc):
        labeled = label_documents([news_doc], LabelingConfig())
        record = document_to_record(labeled[0])
        sources = record["mention_label_sources"]["gold"][0]
        assert sources == ["direct", "direct", "propagated", "propagated", "direct"]
        assert record["cluster_labels"]["gold"] == ["PER", "LOC"]

    def test_empty_corpus(self):
        buffer = io.StringIO()
        write_labeled_jsonl([], buffer)
        assert buffer.getvalue() == ""
        buffer.seek(0)
        assert read_jsonl_corpus(buffer) == []


CONLL_TWO_SENTENCES = """\
#begin document (wsj/test); part 000
wsj/test 0 0 The x (0
wsj/test 0 1 council x 0)
wsj/test 0 2 met x -

wsj/test 0 0 It x (0)
wsj/test 0 1 adjourned x -
#end document
"""

CONLL_SINGLE_TOKEN = """\
#begin document (doc); part 001
doc 1 0 a x -
doc 1 1 b x -
doc 1 2 c x -

doc 1 0 d x -
doc 1 1 e x -
doc 1 2 f x -
doc 1 3 g x -
doc 1 4 h x (3)
#end document
"""


class TestConllReader:
    def test_cross_token_mention(self):
        docs = read_conll2012(io.StringIO(CONLL_TWO_SENTENCES))
        assert len(docs) == 1
        doc = docs[0]
        assert doc.doc_id == "wsj/test_part_000"
        assert doc.tokens == ("The", "council", "met", "It", "adjourned")
        assert doc.sentence_boundaries == (0, 3)
        spans = [span for c in doc.gold_clusters for span in c.spans]
        assert spans == [(0, 2), (3, 4)]
        assert doc.predicted_clusters == ()
        assert doc.cner == ()

    def test_single_token_mention_at_document_offset(self):
        docs = read_conll2012(io.StringIO(CONLL_SINGLE_TOKEN))
        (cluster,) = docs[0].gold_clusters
        assert cluster.spans == ((7, 8),)

    def test_comment_line_inside_a_document_is_skipped(self):
        text = CONLL_TWO_SENTENCES.replace("wsj/test 0 2 met", "# a comment of five columns\n"
                                           "wsj/test 0 2 met")
        assert read_conll2012(io.StringIO(text)) == read_conll2012(
            io.StringIO(CONLL_TWO_SENTENCES))

    def test_unannotated_document_has_no_clusters(self):
        text = CONLL_SINGLE_TOKEN.replace("(3)", "-")
        docs = read_conll2012(io.StringIO(text))
        assert docs[0].gold_clusters == ()

    def test_unbalanced_open_bracket(self):
        text = CONLL_TWO_SENTENCES.replace("x 0)", "x -")
        with pytest.raises(CorpusFormatError) as exc:
            read_conll2012(io.StringIO(text))
        assert "unbalanced" in str(exc.value)

    def test_close_without_open(self):
        text = CONLL_TWO_SENTENCES.replace("(0\n", "-\n")
        with pytest.raises(CorpusFormatError) as exc:
            read_conll2012(io.StringIO(text))
        assert "no matching open" in str(exc.value)

    def test_missing_end_marker(self):
        text = CONLL_TWO_SENTENCES.replace("#end document\n", "")
        with pytest.raises(CorpusFormatError) as exc:
            read_conll2012(io.StringIO(text))
        assert "missing #end document" in str(exc.value)

    def test_non_numeric_cluster_id(self):
        text = CONLL_TWO_SENTENCES.replace("(0\n", "(x\n")
        with pytest.raises(CorpusFormatError) as exc:
            read_conll2012(io.StringIO(text))
        assert "unparseable" in str(exc.value)

    def test_mention_count_equals_bracket_pairs(self):
        rng = random.Random(13)
        checked = 0
        for _ in range(30):
            n = rng.randint(3, 12)
            text_lines = ["#begin document (r); part 000"]
            open_stack = []
            pairs = 0
            for i in range(n):
                field = []
                if rng.random() < 0.4:
                    cid = rng.randint(0, 2)
                    field.append(f"({cid}")
                    open_stack.append(cid)
                if open_stack and rng.random() < 0.5:
                    cid = open_stack.pop()
                    field.append(f"{cid})")
                    pairs += 1
                text_lines.append(f"r 0 {i} tok{i} x {'|'.join(field) if field else '-'}")
            while open_stack:
                cid = open_stack.pop()
                text_lines.append(f"r 0 {n} tok{n} x {cid})")
                pairs += 1
                n += 1
            text_lines.append("#end document")
            try:
                docs = read_conll2012(io.StringIO("\n".join(text_lines) + "\n"))
            except CorpusFormatError:
                continue  # duplicate spans within a cluster are rejected
            mentions = sum(len(c.spans) for c in docs[0].gold_clusters)
            assert mentions == pairs
            checked += 1
        assert checked >= 10

    @staticmethod
    def _error(text: str) -> str:
        with pytest.raises(CorpusFormatError) as exc:
            read_conll2012(io.StringIO(text))
        return str(exc.value)

    def test_span_in_two_clusters_names_both(self):
        text = "#begin document (x)\nx 0 0 a x -\nx 0 1 b x (4)|(9)\n#end document\n"
        assert self._error(text) == (
            "line 4: doc 'x': gold_clusters: span [1, 2) appears in clusters 0 and 1"
        )

    def test_empty_document_name(self):
        text = "#begin document ()\nx 0 0 a x (0)\n#end document\n"
        assert self._error(text) == "line 3: doc '': doc_id: must be non-empty"

    def test_repeated_document(self):
        assert self._error(CONLL_TWO_SENTENCES * 2) == (
            "line 16: duplicate doc_id 'wsj/test_part_000'"
        )

    def test_duplicate_span_within_cluster_names_its_index(self):
        # Clusters are indexed in cluster-id order: id 7 is gold_clusters[1].
        text = "#begin document (x)\nx 0 0 a x (5)\nx 0 1 b x (7)|(7)\n#end document\n"
        assert self._error(text) == (
            "line 4: gold_clusters[1]: duplicate mention span within cluster"
        )

    def test_document_is_built_from_its_record(self):
        nested = (CONLL_SINGLE_TOKEN.replace("a x -", "a x (3)").replace("d x -", "d x (3")
                  .replace("e x -", "e x (3)").replace("f x -", "f x (1)")
                  .replace("g x -", "g x 3)"))
        numbered = list(_conll_records(io.StringIO(CONLL_TWO_SENTENCES + nested)))
        assert [lineno for lineno, _ in numbered] == [8, 19]
        assert numbered[1][1] == {
            "doc_id": "doc_part_001",
            "tokens": ["a", "b", "c", "d", "e", "f", "g", "h"],
            "sentence_boundaries": [0, 3],
            "gold_clusters": [[[5, 6]], [[0, 1], [3, 7], [4, 5], [7, 8]]],
        }
        assert read_conll2012(io.StringIO(CONLL_TWO_SENTENCES + nested)) == to_documents(
            [record for _, record in numbered]
        )


class TestMergePredictions:
    def test_merges_by_doc_id(self, inventory):
        gold = _read([json.dumps({"doc_id": "d0", "tokens": ["a", "b"],
                                  "gold_clusters": [[[0, 1]]]})])
        pred = _read([json.dumps({"doc_id": "d0", "tokens": ["a", "b"],
                                  "predicted_clusters": [[[0, 2]]]})])
        merged = merge_predictions(gold, pred)
        assert merged[0].gold_clusters == gold[0].gold_clusters
        assert merged[0].predicted_clusters[0].spans == ((0, 2),)

    def test_merges_predictions_without_spans_or_with_gold_s_reordered(self):
        # Prediction files with no spans, or with gold's in another order.
        records = random_corpus(random.Random(37), 20, n_tokens=(10, 14), ensure_links=True)
        gold = _read([json.dumps({k: v for k, v in r.items() if k != "predicted_clusters"})
                      for r in records])

        def predictions(cner):
            return _read([json.dumps({k: r[k] for k in ("doc_id", "tokens", "predicted_clusters")}
                                     | cner(r)) for r in records])

        preds = [predictions(cner) for cner in (lambda r: {}, lambda r: {"cner": []},
                                                 lambda r: {"cner": r["cner"][::-1]})]
        merged = [merge_predictions(gold, pred) for pred in preds]
        whole = _read([json.dumps(r) for r in records])
        assert merged == [whole] * len(preds)

    @pytest.mark.parametrize("cner, differ", [([[0, 1, "person"]], False),
                                              ([[0, 1, "LOC"]], True),
                                              ([[0, 1, "PER"], [1, 2, "PER"]], True)])
    def test_prediction_semantic_spans_must_be_gold_s(self, cner, differ):
        gold = _read([json.dumps({"doc_id": "d0", "tokens": ["a", "b"],
                                  "gold_clusters": [[[0, 1]]], "cner": [[0, 1, "PER"]]})])
        pred = _read([json.dumps({"doc_id": "d0", "tokens": ["a", "b"],
                                  "predicted_clusters": [[[0, 2]]], "cner": cner})])
        if not differ:
            assert merge_predictions(gold, pred)[0].cner == gold[0].cner
            return
        with pytest.raises(CorpusFormatError) as exc:
            merge_predictions(gold, pred)
        assert str(exc.value) == "doc 'd0': semantic spans differ between files"

    def test_key_mismatch_lists_ids(self):
        gold = _read([json.dumps({"doc_id": "d0", "tokens": ["a"]}),
                      json.dumps({"doc_id": "d1", "tokens": ["a"]})])
        pred = _read([json.dumps({"doc_id": "d1", "tokens": ["a"]}),
                      json.dumps({"doc_id": "d9", "tokens": ["a"]})])
        with pytest.raises(CorpusFormatError) as exc:
            merge_predictions(gold, pred)
        message = str(exc.value)
        assert "d0" in message and "d9" in message
