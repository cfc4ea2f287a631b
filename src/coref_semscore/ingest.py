"""Corpus readers and writers.

The canonical interchange format is line-delimited JSON, one document per
line:

    doc_id              unique document identifier (string)
    tokens              list of token strings
    gold_clusters       list of clusters; a cluster is a list of [start, end]
                        half-open token spans
    predicted_clusters  optional, same shape as gold_clusters
    cner                list of [start, end, label] semantic span triples
    sentence_boundaries optional list of sentence-start token indices

Labeled corpora additionally carry (written by write_labeled_jsonl, read
back transparently):

    cluster_labels          {"gold": [...], "predicted": [...]}, parallel to
                            the cluster lists, null for unlabeled clusters
    mention_label_sources   per-mention "none" / "direct" / "propagated",
                            nested like the cluster lists
    mention_labels          per-mention label or null (kept separately from
                            cluster_labels because a directly labeled mention
                            may disagree with its cluster's label)
    mention_overlaps        per-mention assignment score in [0, 1], null
                            unless direct

Unknown fields are preserved on round-trip.  A file gives
predicted_clusters in every record (an explicit [] is an empty prediction)
or in none, so a misspelt key is refused.  Documents are read only as
whole corpora: read_jsonl_corpus here and, for gold clusters only,
read_conll2012 in conll2012 build each document through _documents, which
words every error with its line number.  There is no CoNLL writer.  A read
builds each cluster's columns and the cner triples: _labeled_columns
resolves a labeled cluster column by column, and _Shared each distinct
label once.  The writer encodes them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence, Union

from . import model
from .inventory import CategoryInventory, RepeatedKeyError, opened, unique_keys
from .model import (
    Cluster,
    Document,
    DocumentPairingError,
    LabelSource,
    Span,
    _trusted_cluster,
    _trusted_document,
    validate_document,
)

Source = Union[str, Path, IO[str]]


class CorpusFormatError(Exception):
    """A corpus file that cannot be parsed or fails validation."""


_SOURCES = {source.value: source for source in LabelSource}
_SOURCE_VALUES = {source: source.value for source in LabelSource}
_NONE, _DIRECT = LabelSource.NONE, LabelSource.DIRECT
_MENTION_BLOCKS = ("mention_labels", "mention_label_sources", "mention_overlaps")
_LABEL_BLOCKS = ("cluster_labels", *_MENTION_BLOCKS)
_MODEL_FIELDS = ("doc_id", "tokens", "sentence_boundaries", "gold_clusters",
                 "predicted_clusters", "cner", *_LABEL_BLOCKS)
# Span's own tuple constructor: builds a Span from a pair the caller has
# already checked against the rule Span.__new__ enforces.
_new_span = tuple.__new__


class _Unlabeled(dict):
    """k -> the label columns of k unlabeled mentions, shared within a read."""

    __slots__ = ()

    def __missing__(self, k: int) -> tuple:
        return self.setdefault(k, ((None,) * k, (_NONE,) * k, (None,) * k))


class _Shared(dict):
    """The labels of one read, each resolved once, and its _Unlabeled.

    A raw label string keys its canonical label, which inventory.resolve
    gives on the first lookup; a label it rejects is not stored, so it
    raises again wherever it recurs.  None keys None; any other key raises
    KeyError.
    """

    __slots__ = ("_resolve", "unlabeled")

    def __init__(self, inventory: CategoryInventory) -> None:
        super().__init__({None: None})
        self._resolve = inventory.resolve
        self.unlabeled = _Unlabeled()

    def __missing__(self, raw) -> str:
        if type(raw) is not str:
            raise KeyError(raw)
        label = self[raw] = self._resolve(raw)
        return label


def _span(pair, where: str, *index: int) -> Span:
    """The Span of a [start, end] pair of JSON integers.

    The readers check pairs inline and call this only for a pair they
    reject, to word the error, so the field name, where.format(*index), is
    built only then.
    """
    if isinstance(pair, list) and len(pair) == 2:
        start, end = pair
        if type(start) is int and type(end) is int:
            try:
                return Span(start, end)
            except ValueError as exc:
                problem = str(exc)
        else:
            problem = f"span bounds must be integers, got {pair!r}"
    else:
        problem = f"expected a [start, end] pair, got {pair!r}"
    raise CorpusFormatError(f"{where.format(*index)}: {problem}")


def _list(value, where: str, what: str) -> list:
    if not isinstance(value, list):
        raise CorpusFormatError(f"{where}: expected a list of {what}, got {type(value).__name__}")
    return value


def _doc_id(record, field: str) -> str:
    """The doc_id of a record, which must be a JSON object with a doc_id
    and the field."""
    if not isinstance(record, dict):
        raise CorpusFormatError("expected a JSON object")
    for required in ("doc_id", field):
        if required not in record:
            raise CorpusFormatError(f"missing required field {required!r}")
    doc_id = record["doc_id"]
    if not isinstance(doc_id, str):
        raise CorpusFormatError(f"doc_id must be a string, got {doc_id!r}")
    return doc_id


def _label(raw, shared: _Shared) -> str | None:
    if raw is not None and not isinstance(raw, str):
        raise TypeError(f"label must be a string or null, got {raw!r}")
    return shared[raw]


def _nested(record: dict, key: str, side: str):
    block = record.get(key)
    if block is None:
        return None
    if not isinstance(block, dict):
        raise CorpusFormatError(f"{key}: expected an object keyed by cluster side")
    return block.get(side)


def _labeled_columns(label_row: list, source_row: list, overlap_row: list, shared: _Shared):
    """The label, source and overlap columns of one labeled cluster's rows,
    or None unless every label resolves, every source names a LabelSource,
    each mention has a label iff its source is not none and an overlap iff
    it is direct, and each such overlap is a float in [0, 1], kept as read."""
    try:
        labels = tuple(map(shared.__getitem__, label_row))
        sources = tuple(map(_SOURCES.__getitem__, source_row))
    except (KeyError, TypeError, ValueError):
        return None
    for label, source, overlap in zip(labels, sources, overlap_row):
        if source is _DIRECT:
            if label is None or type(overlap) is not float or not 0.0 <= overlap <= 1.0:
                return None
        elif overlap is not None or (label is None) != (source is _NONE):
            return None
    return labels, sources, tuple(overlap_row)


def _checked_labels(rows: list, stop: int, where: str, ci: int, shared: _Shared):
    """The label, source and overlap columns of a labeled cluster's first
    `stop` mentions, checked one by one, each error worded at its mention;
    an overlap may also be an integer, kept as a float."""
    columns = []
    for mi, raw_label, source, overlap in zip(range(stop), *rows):
        try:
            label = _label(raw_label, shared)
            source = LabelSource(source)
            score = None if overlap is None else float(overlap)
            if (label is None) != (source is _NONE) or (score is not None) != (source is _DIRECT):
                Cluster((Span(0, 1),), (label,), (source,), (score,))  # words the fault, raises
            # After float() and Cluster have worded what they reject.
            if score is not None and (type(overlap) not in (int, float) or not 0.0 <= score <= 1.0):
                raise ValueError(f"assignment overlap must be a number in [0, 1], got {overlap!r}")
        except (TypeError, ValueError) as exc:
            raise CorpusFormatError(f"{where.format(ci, mi)}: {exc}") from exc
        columns.append((label, source, score))
    return tuple(zip(*columns))


def _clusters_from_record(
    record: dict, side: str, n: int, shared: _Shared
) -> tuple[tuple[Cluster, ...], bool]:
    """One side's clusters, and whether validate_document must word a
    violation: a span that ends past the n tokens, or one in two clusters.
    """
    key = f"{side}_clusters"
    raw = record.get(key)
    if raw is None:
        return (), False
    _list(raw, key, "clusters")
    if record.keys().isdisjoint(_LABEL_BLOCKS):  # an unlabeled record
        cluster_labels, has_labels = None, False
    else:
        blocks = [_nested(record, name, side) for name in _LABEL_BLOCKS]
        for name, parallel in zip(_LABEL_BLOCKS, blocks):
            if parallel is not None and (not isinstance(parallel, list)
                                         or len(parallel) != len(raw)):
                raise CorpusFormatError(f"{name}[{side}]: expected a list as long as {key}")
        cluster_labels, *per_mention = blocks
        has_labels = any(block is not None for block in per_mention)
    where = key + "[{}][{}]"
    clusters = []
    side_spans: set[Span] = set()
    mention_count = 0
    violated = False
    for ci, raw_cluster in enumerate(raw):
        if not isinstance(raw_cluster, list):
            raise CorpusFormatError(f"{key}[{ci}]: expected a list of [start, end] pairs, "
                                    f"got {type(raw_cluster).__name__}")
        rows = None
        if has_labels:
            rows = []
            for name, block, default in zip(_MENTION_BLOCKS, per_mention, (None, "none", None)):
                row = [default] * len(raw_cluster) if block is None else block[ci]
                if not isinstance(row, list) or len(row) != len(raw_cluster):
                    raise CorpusFormatError(
                        f"{name}[{side}][{ci}]: expected a list as long as {key}[{ci}]"
                    )
                rows.append(row)
        spans = []
        for mi, pair in enumerate(raw_cluster):
            start, end = pair if type(pair) is list and len(pair) == 2 else (None, None)
            if type(start) is int and type(end) is int and 0 <= start < end <= n:
                spans.append(_new_span(Span, (start, end)))
                continue
            if rows is not None:  # a label fault before this pair is the one to report
                _checked_labels(rows, mi, where, ci, shared)
            # _span words a rejected pair; one it accepts ends past the
            # last token, which validate_document words.
            spans.append(_span(pair, where, ci, mi))
            violated = True
        spans = tuple(spans)
        columns = (shared.unlabeled[len(spans)] if rows is None
                   else _labeled_columns(*rows, shared)
                   or _checked_labels(rows, len(spans), where, ci, shared))
        side_spans.update(spans)
        mention_count += len(spans)
        try:
            label = None if cluster_labels is None else _label(cluster_labels[ci], shared)
            # The running counts part once a span repeats, in this cluster
            # or across clusters.  Only an empty cluster or a repeat within
            # this one is the constructor's to reject, and word.
            if not spans or (len(side_spans) != mention_count and len(set(spans)) != len(spans)):
                Cluster(spans, *shared.unlabeled[len(spans)], label)
        except (TypeError, ValueError) as exc:
            raise CorpusFormatError(f"{key}[{ci}]: {exc}") from exc
        clusters.append(_trusted_cluster(spans, *columns, label))
    return tuple(clusters), violated or len(side_spans) != mention_count


def _sentence_boundaries(raw) -> tuple[int, ...] | None:
    if raw is None:
        return None
    boundaries = _list(raw, "sentence_boundaries", "token indices")
    if not all(type(b) is int for b in boundaries):
        raise CorpusFormatError(
            f"sentence_boundaries: token indices must be integers, got {boundaries!r}"
        )
    return tuple(boundaries)


def _semantic_spans(raw_cner, shared: _Shared, n: int) -> tuple[tuple, bool]:
    """The (start, end, label) triples of a cner list, labels canonical,
    and whether one ends past the n tokens."""
    if not isinstance(raw_cner, list):
        raise CorpusFormatError("cner: expected a list of [start, end, label] triples")
    cner = []
    violated = False
    for si, triple in enumerate(raw_cner):
        if not isinstance(triple, list) or len(triple) != 3:
            raise CorpusFormatError(f"cner[{si}]: expected a [start, end, label] triple")
        start, end, label = triple
        if not (type(start) is int and type(end) is int and 0 <= start < end <= n):
            _span(triple[:2], "cner[{}]", si)  # raises unless the span ends past the n tokens
            violated = True
        if not isinstance(label, str):
            raise CorpusFormatError(f"cner[{si}]: label must be a string, got {label!r}")
        try:
            cner.append((start, end, shared[label]))
        except ValueError as exc:
            raise CorpusFormatError(f"cner[{si}]: {exc}") from exc
    return tuple(cner), violated


def _check(doc: Document) -> None:
    """Raise the first violation validate_document finds, if any."""
    violations = validate_document(doc)
    if violations:
        raise CorpusFormatError(f"doc {doc.doc_id!r}: {violations[0]}")


def _document(record, shared: _Shared) -> Document:
    """The validated Document of one parsed record, built in one checked
    pass over it.

    The build raises each field's error as it meets it.  The checks of
    validate_document (span ranges, a span in two clusters of a side, an
    empty doc_id) are folded into the same pass as one flag, and
    validate_document runs only on a flagged document, to word its first
    violation.  Token types and the order of sentence_boundaries are
    checked last.
    """
    doc_id = _doc_id(record, "tokens")
    tokens = tuple(_list(record["tokens"], "tokens", "token strings"))
    n = len(tokens)
    gold, gold_violated = _clusters_from_record(record, "gold", n, shared)
    predicted, predicted_violated = _clusters_from_record(record, "predicted", n, shared)
    cner, spans_violated = _semantic_spans(record.get("cner", []), shared, n)
    doc = _trusted_document(doc_id, tokens, gold, predicted, cner,
                            _sentence_boundaries(record.get("sentence_boundaries")),
                            {k: v for k, v in record.items() if k not in _MODEL_FIELDS})
    if not doc_id or gold_violated or predicted_violated or spans_violated:
        _check(doc)
    try:
        "".join(tokens)  # in C, a TypeError unless every token is a string
    except TypeError:
        ti, token = next((i, t) for i, t in enumerate(tokens) if not isinstance(t, str))
        raise CorpusFormatError(f"tokens[{ti}]: token must be a string, got {token!r}") from None
    boundaries = doc.sentence_boundaries
    if boundaries and (
        boundaries[0] < 0 or boundaries[-1] >= n or boundaries != tuple(sorted(set(boundaries)))
    ):
        raise CorpusFormatError(
            f"sentence_boundaries: token indices must be strictly increasing "
            f"and in [0, {n}), got {list(boundaries)!r}"
        )
    return doc


def _jsonl_records(source: Source) -> Iterator[tuple[int, object]]:
    """(line number, parsed JSON) for each non-blank line, through one
    decoder (json.loads given a hook builds one per call)."""
    decode = json.JSONDecoder(object_pairs_hook=unique_keys).decode
    with opened(source) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                # json.loads words a leading byte order mark; decode does not.
                yield lineno, json.loads(line) if line[0] == "\ufeff" else decode(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
            except RepeatedKeyError as exc:
                raise CorpusFormatError(f"line {lineno}: {exc}") from exc


def _by_doc_id(numbered: Iterable[tuple[int, object]], build) -> dict:
    """{doc_id: value}, in file order, where build(line number, record)
    gives the (doc_id, value) of each (line number, record) pair.

    A CorpusFormatError from build, and a doc_id seen before, are reported
    with the record's line number.
    """
    by_id: dict = {}
    for lineno, record in numbered:
        try:
            doc_id, value = build(lineno, record)
        except CorpusFormatError as exc:
            raise CorpusFormatError(f"line {lineno}: {exc}") from exc
        if doc_id in by_id:
            raise CorpusFormatError(f"line {lineno}: duplicate doc_id {doc_id!r}")
        by_id[doc_id] = value
    return by_id


def _documents(
    numbered: Iterable[tuple[int, object]], inventory: CategoryInventory | None
) -> list[Document]:
    """The documents of (line number, record) pairs, in file order; once
    all are read, a file that gives predicted_clusters in some records only
    is refused at the first record without it."""
    shared = _Shared(inventory or CategoryInventory.default())
    first: dict[bool, tuple[int, Document]] = {}  # has predicted_clusters -> (line, doc)

    def build(lineno, record):
        doc = _document(record, shared)
        first.setdefault("predicted_clusters" in record, (lineno, doc))
        return doc.doc_id, doc

    docs = list(_by_doc_id(numbered, build).values())
    if len(first) == 2:
        (line, doc), (other, _) = first[False], first[True]
        raise CorpusFormatError(
            f"line {line}: doc {doc.doc_id!r} has no predicted_clusters, which line {other} has; "
            f"give the key in every record or in none (unknown keys here: {sorted(doc.extras)!r})"
        )
    return docs


def read_jsonl_corpus(
    source: Source, inventory: CategoryInventory | None = None
) -> list[Document]:
    """Read a JSONL corpus, in file order.

    Fails with a line-numbered CorpusFormatError on malformed JSON, span or
    label problems, and duplicate doc_ids.
    """
    return _documents(_jsonl_records(source), inventory)


def read_cner_jsonl(
    source: Source, inventory: CategoryInventory | None = None
) -> dict[str, tuple[tuple[int, int, str], ...]]:
    """Read a JSONL file of {doc_id, cner} records into (start, end,
    label) triples, labels canonical, by doc_id.

    Only doc_id and cner are required; other fields are ignored.  Span
    bounds are checked against the target documents by
    attach_semantic_spans, not here.
    """
    shared = _Shared(inventory or CategoryInventory.default())

    def build(lineno, record):
        return _doc_id(record, "cner"), _semantic_spans(record["cner"], shared, sys.maxsize)[0]

    return _by_doc_id(_jsonl_records(source), build)


def _labels_block(clusters: Sequence[Cluster]):
    cluster_labels = [c.cluster_label for c in clusters]
    mention_labels = [c.labels for c in clusters]
    sources = [[*map(_SOURCE_VALUES.__getitem__, c.sources)] for c in clusters]
    overlaps = [c.overlaps for c in clusters]
    return cluster_labels, mention_labels, sources, overlaps


def document_to_record(doc: Document) -> dict:
    """Serialize a Document to the JSONL record schema (canonical key
    order), its tuples passed as they are: json writes them as arrays."""
    record: dict = {"doc_id": doc.doc_id, "tokens": doc.tokens}
    if doc.sentence_boundaries is not None:
        record["sentence_boundaries"] = doc.sentence_boundaries
    for side in model.SIDES:
        record[f"{side}_clusters"] = [c.spans for c in doc.clusters(side)]
    record["cner"] = doc.cner
    blocks = {side: _labels_block(doc.clusters(side)) for side in model.SIDES}
    for i, name in enumerate(_LABEL_BLOCKS):
        record[name] = {side: blocks[side][i] for side in model.SIDES}
    for key in sorted(doc.extras):
        record[key] = doc.extras[key]
    return record


def write_labeled_jsonl(docs: Iterable[Document], dest: Source) -> None:
    """Write one record per document, including labels and label sources,
    through one encoder: a record holds no cycle to check for."""
    encode = json.JSONEncoder(ensure_ascii=False, check_circular=False).encode
    with opened(dest, "w") as handle:
        for doc in docs:
            handle.write(encode(document_to_record(doc)))
            handle.write("\n")


def merge_predictions(
    gold_docs: Sequence[Document], pred_docs: Sequence[Document]
) -> list[Document]:
    """Attach predicted clusters from a separate corpus, keyed by doc_id,
    to gold documents of the same tokens and, unless a prediction has
    none, the same set of semantic spans."""
    try:
        pairs = model.pair_by_doc_id(gold_docs, pred_docs)
    except DocumentPairingError as exc:
        raise CorpusFormatError(str(exc)) from exc
    merged = []
    for gold, pred in pairs:
        if gold.tokens != pred.tokens:
            raise CorpusFormatError(f"doc {gold.doc_id!r}: token sequences differ between files")
        if pred.cner and set(pred.cner) != set(gold.cner):
            raise CorpusFormatError(f"doc {gold.doc_id!r}: semantic spans differ between files")
        merged.append(gold.with_clusters("predicted", pred.predicted_clusters))
    return merged


def attach_semantic_spans(
    docs: Sequence[Document], spans_by_id: Mapping[str, tuple[tuple[int, int, str], ...]]
) -> list[Document]:
    """Replace semantic spans with those read by read_cner_jsonl.

    Every doc_id in spans_by_id must exist in the target corpus, and every
    span must lie within its document; documents without a cner record
    keep their inline spans.
    """
    known = {d.doc_id for d in docs}
    unknown = sorted(doc_id for doc_id in spans_by_id if doc_id not in known)
    if unknown:
        raise CorpusFormatError(f"cner corpus has unknown doc_ids: {', '.join(unknown)}")
    out = []
    for doc in docs:
        if doc.doc_id in spans_by_id:
            doc = doc._copy(cner=spans_by_id[doc.doc_id])
            _check(doc)
        out.append(doc)
    return out
