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

Unknown fields are preserved on round-trip.  A CoNLL-2012-style reader is
provided for gold clusters only; there is no CoNLL writer.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import replace
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence, Union

from . import model
from .inventory import CategoryInventory
from .model import (
    Cluster,
    Document,
    DocumentPairingError,
    LabelSource,
    Mention,
    SemanticSpan,
    Span,
    validate_document,
)

Source = Union[str, Path, IO[str]]

_MODEL_FIELDS = (
    "doc_id",
    "tokens",
    "sentence_boundaries",
    "gold_clusters",
    "predicted_clusters",
    "cner",
    "cluster_labels",
    "mention_labels",
    "mention_label_sources",
    "mention_overlaps",
)


class CorpusFormatError(Exception):
    """A corpus file that cannot be parsed or fails validation."""


def _open_read(source: Source):
    if hasattr(source, "read"):
        return source, False
    return open(source, encoding="utf-8"), True


def _open_write(dest: Source):
    if hasattr(dest, "write"):
        return dest, False
    return open(dest, "w", encoding="utf-8"), True


_SOURCES = {source.value: source for source in LabelSource}
_MENTION_BLOCKS = ("mention_labels", "mention_label_sources", "mention_overlaps")
_LABEL_BLOCKS = ("cluster_labels", *_MENTION_BLOCKS)
# Span's own tuple constructor: builds a Span from a pair the caller has
# already checked against the rule Span.__new__ enforces.
_new_span = tuple.__new__


class _Labels(dict):
    """Raw label string -> canonical label, for one read.

    inventory.resolve runs once per distinct raw string, on first sight.  A
    label it rejects is not stored, so it raises again wherever it recurs.
    """

    __slots__ = ("_resolve",)

    def __init__(self, inventory: CategoryInventory) -> None:
        self._resolve = inventory.resolve

    def __missing__(self, raw: str) -> str:
        label = self[raw] = self._resolve(raw)
        return label


def _span(pair, where: str, *index: int) -> Span:
    """The Span of a [start, end] pair of JSON integers.

    The readers check pairs inline and call this only for a pair they
    reject, to word the error, so the field name, where.format(*index), is
    built only then.
    """
    if isinstance(pair, (list, tuple)) and len(pair) == 2:
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


def _doc_id(record: dict) -> str:
    doc_id = record["doc_id"]
    if not isinstance(doc_id, str):
        raise CorpusFormatError(f"doc_id must be a string, got {doc_id!r}")
    return doc_id


def _label(raw, labels: _Labels) -> str | None:
    if raw is None:
        return None
    if not isinstance(raw, str):
        raise TypeError(f"label must be a string or null, got {raw!r}")
    return labels[raw]


def _nested(record: dict, key: str, side: str):
    block = record.get(key)
    if block is None:
        return None
    if not isinstance(block, dict):
        raise CorpusFormatError(f"{key}: expected an object keyed by cluster side")
    return block.get(side)


def _clusters_from_record(
    record: dict, side: str, n: int, labels: _Labels
) -> tuple[tuple[Cluster, ...], bool]:
    """One side's clusters, and whether validate_document must word a
    violation: a span that ends past the n tokens, or one in two clusters.
    """
    key = f"{side}_clusters"
    raw = record.get(key)
    if raw is None:
        return (), False
    _list(raw, key, "clusters")
    blocks = [_nested(record, name, side) for name in _LABEL_BLOCKS]
    for name, parallel in zip(_LABEL_BLOCKS, blocks):
        if parallel is not None and (not isinstance(parallel, list) or len(parallel) != len(raw)):
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
        if has_labels:
            rows = []
            for name, block, default in zip(_MENTION_BLOCKS, per_mention, (None, "none", None)):
                row = [default] * len(raw_cluster) if block is None else block[ci]
                if not isinstance(row, list) or len(row) != len(raw_cluster):
                    raise CorpusFormatError(
                        f"{name}[{side}][{ci}]: expected a list as long as {key}[{ci}]"
                    )
                rows.append(row)
            label_row, source_row, overlap_row = rows
        spans, mentions = [], []
        for mi, pair in enumerate(raw_cluster):
            start, end = pair if type(pair) is list and len(pair) == 2 else (None, None)
            if type(start) is int and type(end) is int and 0 <= start < end <= n:
                span = _new_span(Span, (start, end))
            else:
                # _span words a rejected pair; one it accepts ends past the
                # last token, which validate_document words.
                span = _span(pair, where, ci, mi)
                violated = True
            spans.append(span)
            if has_labels:
                source, overlap = source_row[mi], overlap_row[mi]
                try:
                    mentions.append(Mention(
                        span,
                        _label(label_row[mi], labels),
                        (type(source) is str and _SOURCES.get(source)) or LabelSource(source),
                        None if overlap is None else float(overlap),
                    ))
                    # After float() and Mention have worded what they reject.
                    if overlap is not None and (
                        type(overlap) not in (int, float) or not 0.0 <= overlap <= 1.0
                    ):
                        raise ValueError(
                            f"assignment overlap must be a number in [0, 1], got {overlap!r}"
                        )
                except (TypeError, ValueError) as exc:
                    raise CorpusFormatError(f"{where.format(ci, mi)}: {exc}") from exc
        try:
            clusters.append(Cluster(
                mentions if has_labels else map(Mention, spans),
                None if cluster_labels is None else _label(cluster_labels[ci], labels),
            ))
        except (TypeError, ValueError) as exc:
            raise CorpusFormatError(f"{key}[{ci}]: {exc}") from exc
        side_spans.update(spans)
        mention_count += len(spans)
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


def _semantic_spans(
    raw_cner, labels: _Labels, n: int
) -> tuple[tuple[SemanticSpan, ...], bool]:
    """The semantic spans of a cner list, and whether one ends past the n
    tokens."""
    if not isinstance(raw_cner, list):
        raise CorpusFormatError("cner: expected a list of [start, end, label] triples")
    semantic_spans = []
    violated = False
    for si, triple in enumerate(raw_cner):
        if not isinstance(triple, (list, tuple)) or len(triple) != 3:
            raise CorpusFormatError(f"cner[{si}]: expected a [start, end, label] triple")
        start, end, label = triple
        if type(start) is int and type(end) is int and 0 <= start < end <= n:
            span = _new_span(Span, (start, end))
        else:
            span = _span(triple[:2], "cner[{}]", si)
            violated = True
        if not isinstance(label, str):
            raise CorpusFormatError(f"cner[{si}]: label must be a string, got {label!r}")
        try:
            semantic_spans.append(SemanticSpan(span, labels[label]))
        except ValueError as exc:
            raise CorpusFormatError(f"cner[{si}]: {exc}") from exc
    return tuple(semantic_spans), violated


def document_from_record(record: dict, inventory: CategoryInventory) -> Document:
    """Build and validate a Document from a parsed JSONL record."""
    return _document(record, _Labels(inventory))


def _document(record, labels: _Labels) -> Document:
    """document_from_record in one checked pass over the record.

    The build raises each field's error as it meets it.  The checks of
    validate_document (span ranges, a span in two clusters of a side, an
    empty doc_id) are folded into the same pass as one flag, and
    validate_document runs only on a flagged document, to word its first
    violation.  Token types and the order of sentence_boundaries are
    checked last.
    """
    if not isinstance(record, dict):
        raise CorpusFormatError("expected a JSON object")
    for required in ("doc_id", "tokens"):
        if required not in record:
            raise CorpusFormatError(f"missing required field {required!r}")
    doc_id = _doc_id(record)
    tokens = tuple(_list(record["tokens"], "tokens", "token strings"))
    n = len(tokens)
    gold, gold_violated = _clusters_from_record(record, "gold", n, labels)
    predicted, predicted_violated = _clusters_from_record(record, "predicted", n, labels)
    semantic_spans, spans_violated = _semantic_spans(record.get("cner", []), labels, n)
    doc = Document(
        doc_id=doc_id,
        tokens=tokens,
        gold_clusters=gold,
        predicted_clusters=predicted,
        semantic_spans=semantic_spans,
        sentence_boundaries=_sentence_boundaries(record.get("sentence_boundaries")),
        extras={k: v for k, v in record.items() if k not in _MODEL_FIELDS},
    )
    if not doc_id or gold_violated or predicted_violated or spans_violated:
        violations = validate_document(doc)
        if violations:
            raise CorpusFormatError(f"doc {doc.doc_id!r}: {violations[0]}")
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
    """(line number, parsed JSON) for each non-blank line."""
    handle, owned = _open_read(source)
    try:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
    finally:
        if owned:
            handle.close()


def read_jsonl_corpus(
    source: Source, inventory: CategoryInventory | None = None
) -> list[Document]:
    """Read a JSONL corpus, in file order.

    Fails with a line-numbered CorpusFormatError on malformed JSON, span or
    label problems, and duplicate doc_ids.
    """
    labels = _Labels(inventory or CategoryInventory.default())
    docs: list[Document] = []
    seen_ids: set[str] = set()
    for lineno, record in _jsonl_records(source):
        try:
            doc = _document(record, labels)
        except CorpusFormatError as exc:
            raise CorpusFormatError(f"line {lineno}: {exc}") from exc
        if doc.doc_id in seen_ids:
            raise CorpusFormatError(f"line {lineno}: duplicate doc_id {doc.doc_id!r}")
        seen_ids.add(doc.doc_id)
        docs.append(doc)
    return docs


def read_cner_jsonl(
    source: Source, inventory: CategoryInventory | None = None
) -> dict[str, tuple[SemanticSpan, ...]]:
    """Read a JSONL file of {doc_id, cner} records into spans by doc_id.

    Only doc_id and cner are required; other fields are ignored.  Span
    bounds are checked against the target documents by
    attach_semantic_spans, not here.
    """
    labels = _Labels(inventory or CategoryInventory.default())
    spans_by_id: dict[str, tuple[SemanticSpan, ...]] = {}
    for lineno, record in _jsonl_records(source):
        try:
            if not isinstance(record, dict):
                raise CorpusFormatError("expected a JSON object")
            for required in ("doc_id", "cner"):
                if required not in record:
                    raise CorpusFormatError(f"missing required field {required!r}")
            doc_id = _doc_id(record)
            spans, _ = _semantic_spans(record["cner"], labels, sys.maxsize)
        except CorpusFormatError as exc:
            raise CorpusFormatError(f"line {lineno}: {exc}") from exc
        if doc_id in spans_by_id:
            raise CorpusFormatError(f"line {lineno}: duplicate doc_id {doc_id!r}")
        spans_by_id[doc_id] = spans
    return spans_by_id


def _labels_block(clusters: Sequence[Cluster]):
    cluster_labels = [c.cluster_label for c in clusters]
    mention_labels = [[m.assigned_label for m in c.mentions] for c in clusters]
    sources = [[m.label_source.value for m in c.mentions] for c in clusters]
    overlaps = [[m.assignment_overlap for m in c.mentions] for c in clusters]
    return cluster_labels, mention_labels, sources, overlaps


def document_to_record(doc: Document) -> dict:
    """Serialize a Document to the JSONL record schema (canonical key order)."""
    record: dict = {"doc_id": doc.doc_id, "tokens": list(doc.tokens)}
    if doc.sentence_boundaries is not None:
        record["sentence_boundaries"] = list(doc.sentence_boundaries)
    record["gold_clusters"] = [
        [[m.span.start, m.span.end] for m in c.mentions] for c in doc.gold_clusters
    ]
    record["predicted_clusters"] = [
        [[m.span.start, m.span.end] for m in c.mentions] for c in doc.predicted_clusters
    ]
    record["cner"] = [[s.span.start, s.span.end, s.label] for s in doc.semantic_spans]
    blocks = {side: _labels_block(doc.clusters(side)) for side in model.SIDES}
    for i, name in enumerate(_LABEL_BLOCKS):
        record[name] = {side: blocks[side][i] for side in model.SIDES}
    for key in sorted(doc.extras):
        record[key] = doc.extras[key]
    return record


def write_labeled_jsonl(docs: Iterable[Document], dest: Source) -> None:
    """Write one record per document, including labels and label sources."""
    handle, owned = _open_write(dest)
    try:
        for doc in docs:
            handle.write(json.dumps(document_to_record(doc), ensure_ascii=False))
            handle.write("\n")
    finally:
        if owned:
            handle.close()


_BEGIN_RE = re.compile(r"#begin document \((?P<name>[^)]*)\)(?:; part (?P<part>\S+))?\s*$")
_COREF_PART_RE = re.compile(r"(\()?(\d+)(\))?\Z")


def read_conll2012(source: Source) -> list[Document]:
    """Read gold clusters from a CoNLL-2012-style column file.

    Word forms come from the fourth column and the coreference annotation
    from the last; sentence offsets accumulate into document-level token
    indices.  Predicted clusters and semantic spans are left empty.
    """
    handle, owned = _open_read(source)
    docs: list[Document] = []
    seen_ids: set[str] = set()

    doc_id: str | None = None
    tokens: list[str] = []
    boundaries: list[int] = []
    in_sentence = False
    open_stacks: dict[int, list[int]] = {}
    cluster_spans: dict[int, list[Span]] = {}

    def finish_document(lineno: int) -> None:
        nonlocal doc_id, tokens, boundaries, in_sentence, open_stacks, cluster_spans
        unclosed = sorted(cid for cid, stack in open_stacks.items() if stack)
        if unclosed:
            raise CorpusFormatError(
                f"line {lineno}: unbalanced coreference parentheses in {doc_id!r} "
                f"(unclosed cluster ids: {', '.join(map(str, unclosed))})"
            )
        clusters = []
        for cid in sorted(cluster_spans):
            spans = sorted(cluster_spans[cid], key=lambda s: (s.start, s.end))
            try:
                clusters.append(Cluster(tuple(Mention(span=s) for s in spans)))
            except ValueError as exc:
                raise CorpusFormatError(f"line {lineno}: cluster {cid} in {doc_id!r}: {exc}") from exc
        doc = Document(
            doc_id=doc_id or "",
            tokens=tuple(tokens),
            gold_clusters=tuple(clusters),
            sentence_boundaries=tuple(boundaries) if boundaries else None,
        )
        violations = validate_document(doc)
        if violations:
            raise CorpusFormatError(f"line {lineno}: doc {doc.doc_id!r}: {violations[0]}")
        if doc.doc_id in seen_ids:
            raise CorpusFormatError(f"line {lineno}: duplicate doc_id {doc.doc_id!r}")
        seen_ids.add(doc.doc_id)
        docs.append(doc)
        doc_id = None
        tokens = []
        boundaries = []
        in_sentence = False
        open_stacks = {}
        cluster_spans = {}

    try:
        lineno = 0
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if line.startswith("#begin document"):
                if doc_id is not None:
                    raise CorpusFormatError(
                        f"line {lineno}: new document begins before #end document"
                    )
                match = _BEGIN_RE.match(line)
                if not match:
                    raise CorpusFormatError(f"line {lineno}: malformed #begin document header")
                name = match.group("name")
                part = match.group("part")
                doc_id = f"{name}_part_{part}" if part is not None else name
                continue
            if line.startswith("#end document"):
                if doc_id is None:
                    raise CorpusFormatError(f"line {lineno}: #end document without a begin")
                finish_document(lineno)
                continue
            if line.startswith("#"):
                continue
            if not line.strip():
                in_sentence = False
                continue
            if doc_id is None:
                raise CorpusFormatError(f"line {lineno}: token line outside any document")
            parts = line.split()
            if len(parts) < 5:
                raise CorpusFormatError(
                    f"line {lineno}: expected at least 5 columns, got {len(parts)}"
                )
            if not in_sentence:
                boundaries.append(len(tokens))
                in_sentence = True
            index = len(tokens)
            tokens.append(parts[3])
            coref = parts[-1]
            if coref in ("-", "_"):
                continue
            for piece in coref.split("|"):
                match = _COREF_PART_RE.fullmatch(piece)
                if not match or (match.group(1) is None and match.group(3) is None):
                    raise CorpusFormatError(
                        f"line {lineno}: unparseable coreference field {piece!r}"
                    )
                cid = int(match.group(2))
                if match.group(1):
                    open_stacks.setdefault(cid, []).append(index)
                if match.group(3):
                    stack = open_stacks.get(cid)
                    if not stack:
                        raise CorpusFormatError(
                            f"line {lineno}: closing bracket for cluster {cid} "
                            "with no matching open"
                        )
                    start = stack.pop()
                    cluster_spans.setdefault(cid, []).append(Span(start, index + 1))
        if doc_id is not None:
            raise CorpusFormatError(
                f"line {lineno}: missing #end document marker for {doc_id!r}"
            )
    finally:
        if owned:
            handle.close()
    return docs


def merge_predictions(
    gold_docs: Sequence[Document], pred_docs: Sequence[Document]
) -> list[Document]:
    """Attach predicted clusters from a separate corpus, keyed by doc_id."""
    try:
        pairs = model.pair_by_doc_id(gold_docs, pred_docs)
    except DocumentPairingError as exc:
        raise CorpusFormatError(str(exc)) from exc
    merged = []
    for gold, pred in pairs:
        if gold.tokens != pred.tokens:
            raise CorpusFormatError(f"doc {gold.doc_id!r}: token sequences differ between files")
        merged.append(replace(gold, predicted_clusters=pred.predicted_clusters))
    return merged


def attach_semantic_spans(
    docs: Sequence[Document], spans_by_id: Mapping[str, Sequence[SemanticSpan]]
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
            spans = tuple(spans_by_id[doc.doc_id])
            n = len(doc.tokens)
            for si, sem in enumerate(spans):
                if sem.span.end > n:
                    raise CorpusFormatError(
                        f"doc {doc.doc_id!r}: semantic_spans[{si}]: span "
                        f"[{sem.span.start}, {sem.span.end}) out of range ({n} tokens)"
                    )
            doc = replace(doc, semantic_spans=spans)
        out.append(doc)
    return out
