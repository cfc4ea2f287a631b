"""Core data model: documents, clusters and their mentions, and semantic
spans.

Token indexing is 0-based and spans are half-open [start, end) over the
document's flat token sequence.  Sentence boundaries are optional metadata
only; all scoring happens over document-level token indices.  Category
labels are plain uppercase strings validated against a CategoryInventory
(see inventory.py).

Everything here is frozen after construction, so documents can be shared
across workers without locking; pipeline stages return new objects.
Span and Contingency are NamedTuples.  Cluster and Document are slotted
classes on one small base, _Value, which makes them immutable values
(equal by class and fields, hashable, picklable) whose _replace builds
the changed copy through the checked constructor.  A Cluster holds its
mentions as four parallel columns and a Document its semantic spans as
(start, end, label) triples; every stage reads and writes those.
"""

from __future__ import annotations

import re
from collections import Counter
from enum import Enum
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

_LABEL_RE = re.compile(r"[A-Z]+\Z")

SIDES = ("gold", "predicted")


class LabelSource(Enum):
    """How a mention obtained its semantic label."""

    NONE = "none"
    DIRECT = "direct"
    PROPAGATED = "propagated"


def normalize_label(raw: str) -> str:
    """Trim and upper-case a raw category string.

    Raises ValueError when the result is not made of letters only.
    """
    label = raw.strip().upper()
    if not _LABEL_RE.fullmatch(label):
        raise ValueError(f"bad category label {raw!r}: expected letters only")
    return label


def _checked_replace(self, **changes):
    """A copy of a checked NamedTuple with `changes`, built through its
    constructor: NamedTuple's own _replace skips the constructor's checks."""
    return type(self)(**self._asdict() | changes)


class _Value:
    """An immutable value over __slots__, as a frozen dataclass would be.

    A subclass names its fields in _fields, in constructor order; they
    are its slots, unless it derives more slots from them.  Since
    assignment and deletion raise AttributeError, its __init__ stores its
    slots with object.__setattr__ or, faster, through their descriptors'
    __set__ (_slot_setters).  Instances equal those of the same class with
    equal fields and hash by them; they print by their fields, and
    pickle, copy and _replace through __init__, so its checks run on every
    copy.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def _replace(self, **changes: Any):
        return type(self)(**{name: getattr(self, name) for name in self._fields} | changes)

    __replace__ = _replace


def _slot_setters(cls: type) -> tuple:
    """The __set__ of each slot of cls, which stores a field past the
    AttributeError of _Value.__setattr__."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


class _SpanFields(NamedTuple):
    start: int
    end: int


class Span(_SpanFields):
    """A half-open token interval [start, end), as an immutable tuple.

    A Span hashes, compares and orders exactly like the plain tuple
    (start, end), and unpacks to its two bounds.  len() is the token
    count, end - start, not the tuple's length of 2, so reversed(), which
    would index by that length, raises TypeError.
    """

    __slots__ = ()

    def __new__(cls, start: int, end: int) -> "Span":
        if type(start) is not int or type(end) is not int:
            raise ValueError(f"span bounds must be integers, got [{start}, {end})")
        if not 0 <= start < end:
            raise ValueError(f"invalid span [{start}, {end}): need 0 <= start < end")
        return tuple.__new__(cls, (start, end))

    def __len__(self) -> int:
        return self.end - self.start

    def __reversed__(self):
        raise TypeError("reversed() of a Span is not supported; use (span.end, span.start)")

    _replace = __replace__ = _checked_replace


_NONE, _DIRECT = LabelSource.NONE, LabelSource.DIRECT


class Cluster(_Value):
    """A non-empty set of coreferential mentions, optionally labeled.

    The mentions are four parallel columns: their spans, their labels,
    the LabelSource of each label, and the winning Jaccard score of each
    directly assigned label; an unlabeled mention has None, NONE and None.

    The constructor, and so _replace, checks that the columns are equally
    long, that there is at least one mention, that no span repeats, and
    that each mention has a label exactly when its source is not none and
    an overlap exactly when it is direct.  ingest and labeling._relabel,
    whose columns are checked already, build through _trusted_cluster.
    """

    __slots__ = _fields = ("spans", "labels", "sources", "overlaps", "cluster_label")

    def __init__(
        self,
        spans: Iterable[Span],
        labels: Iterable[str | None],
        sources: Iterable[LabelSource],
        overlaps: Iterable[float | None],
        cluster_label: str | None = None,
    ) -> None:
        spans, labels, sources, overlaps = map(tuple, (spans, labels, sources, overlaps))
        if not len(spans) == len(labels) == len(sources) == len(overlaps):
            raise ValueError("spans, labels, sources and overlaps must be equally long")
        if not spans:
            raise ValueError("cluster must contain at least one mention")
        if len(set(spans)) != len(spans):
            raise ValueError("duplicate mention span within cluster")
        for label, source, overlap in zip(labels, sources, overlaps):
            if (label is None) != (source is _NONE):
                raise ValueError("assigned_label must be present iff label_source != none")
            if (overlap is not None) != (source is _DIRECT):
                raise ValueError("assignment_overlap must be present iff label_source = direct")
        _set_spans(self, spans)
        _set_labels(self, labels)
        _set_sources(self, sources)
        _set_overlaps(self, overlaps)
        _set_cluster_label(self, cluster_label)


_set_spans, _set_labels, _set_sources, _set_overlaps, _set_cluster_label = _slot_setters(Cluster)


def _trusted_cluster(spans: tuple, labels: tuple, sources: tuple, overlaps: tuple,
                     cluster_label: str | None) -> Cluster:
    """A Cluster built from its columns without the constructor's checks,
    for equally long columns whose spans and mentions would pass them."""
    cluster = object.__new__(Cluster)
    _set_spans(cluster, spans)
    _set_labels(cluster, labels)
    _set_sources(cluster, sources)
    _set_overlaps(cluster, overlaps)
    _set_cluster_label(cluster, cluster_label)
    return cluster


class Document(_Value):
    """One document: its tokens, both sides' clusters and its semantic
    spans, `cner`, as (start, end, label) triples in file order.  The
    sequences are stored as tuples, each triple's bounds checked as a
    Span's, and a document built without `extras` gets its own empty dict.
    Internal stages build and copy one through _trusted_document instead.
    """

    __slots__ = _fields = ("doc_id", "tokens", "gold_clusters", "predicted_clusters", "cner",
                           "sentence_boundaries", "extras")

    def __init__(
        self,
        doc_id: str,
        tokens: Iterable[str],
        gold_clusters: Iterable[Cluster] = (),
        predicted_clusters: Iterable[Cluster] = (),
        cner: Iterable[tuple[int, int, str]] = (),
        sentence_boundaries: Iterable[int] | None = None,
        extras: Mapping[str, Any] | None = None,
    ) -> None:
        _store_document(self, doc_id, tuple(tokens), tuple(gold_clusters),
                        tuple(predicted_clusters),
                        tuple([(*Span(start, end), label) for start, end, label in cner]),
                        None if sentence_boundaries is None else tuple(sentence_boundaries),
                        {} if extras is None else extras)

    def clusters(self, side: str) -> tuple[Cluster, ...]:
        if side == "gold":
            return self.gold_clusters
        if side == "predicted":
            return self.predicted_clusters
        raise ValueError(f"unknown side {side!r}, expected one of {SIDES}")

    def with_clusters(self, side: str, clusters: Sequence[Cluster]) -> "Document":
        if side not in SIDES:
            raise ValueError(f"unknown side {side!r}, expected one of {SIDES}")
        return self._copy(**{f"{side}_clusters": tuple(clusters)})

    def _copy(self, **slots: Any) -> "Document":
        """This document with the named slots replaced, stored as given."""
        values = {name: getattr(self, name) for name in self.__slots__} | slots
        return _trusted_document(*values.values())  # an unknown name is one value too many


_document_setters = _slot_setters(Document)


def _store_document(doc: Document, *slots: Any) -> Document:
    for store, value in zip(_document_setters, slots, strict=True):
        store(doc, value)
    return doc


def _trusted_document(*slots: Any) -> Document:
    """A Document of its slots, in __slots__ order, stored without the
    constructor's conversions: tuples, or None for sentence_boundaries, an
    extras dict, and cner's triples with 0 <= start < end, labels canonical."""
    return _store_document(object.__new__(Document), *slots)


def _span_str(span: Span) -> str:
    return f"[{span.start}, {span.end})"


def validate_document(doc: Document) -> list[str]:
    """Check Document invariants, returning one description per violation.

    Never raises and never mutates the document; an empty list means the
    document is well formed.
    """
    violations: list[str] = []
    n = len(doc.tokens)
    if not doc.doc_id:
        violations.append("doc_id: must be non-empty")
    for side in SIDES:
        seen: dict[Span, int] = {}
        for ci, cluster in enumerate(doc.clusters(side)):
            for mi, span in enumerate(cluster.spans):
                if span.end > n:
                    violations.append(
                        f"{side}_clusters[{ci}][{mi}]: span "
                        f"{_span_str(span)} out of range ({n} tokens)"
                    )
                if span in seen and seen[span] != ci:
                    violations.append(
                        f"{side}_clusters: span {_span_str(span)} appears "
                        f"in clusters {seen[span]} and {ci}"
                    )
                else:
                    seen.setdefault(span, ci)
    for si, (start, end, _) in enumerate(doc.cner):
        if end > n:
            violations.append(f"cner[{si}]: span [{start}, {end}) out of range ({n} tokens)")
    return violations


class DocumentPairingError(ValueError):
    """Gold and predicted corpora do not cover the same doc_ids."""


def pair_by_doc_id(
    gold_docs: Iterable[Document], pred_docs: Iterable[Document]
) -> list[tuple[Document, Document]]:
    """Pair two corpora by doc_id, preserving gold order.

    Raises DocumentPairingError listing the ids missing from either side.
    """
    gold = list(gold_docs)
    pred_by_id = {d.doc_id: d for d in pred_docs}
    gold_ids = {d.doc_id for d in gold}
    missing = sorted(gold_ids - set(pred_by_id))
    extra = sorted(set(pred_by_id) - gold_ids)
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing from predicted corpus: {', '.join(missing)}")
        if extra:
            parts.append(f"missing from gold corpus: {', '.join(extra)}")
        raise DocumentPairingError("; ".join(parts))
    return [(d, pred_by_id[d.doc_id]) for d in gold]


def _cluster_index(clusters: Sequence[Cluster]) -> dict[Span, tuple[int, str | None]]:
    """Map each mention span of one side to its cluster's index and the
    mention's label; contingency joins the predicted mentions to gold's."""
    return {
        span: (i, label)
        for i, cluster in enumerate(clusters)
        for span, label in zip(cluster.spans, cluster.labels)
    }


class Contingency(NamedTuple):
    """One document's two sides joined on mention spans, which every
    metric reads.

    gold and pred are the clusters of each side.  cells maps (i, j) to
    n_ij = |G_i ∩ P_j|, the number of mention spans shared by gold
    cluster i and predicted cluster j; only nonzero cells are present, so
    a cluster's unmatched mentions are its size minus its row (or column)
    sum.  agreed maps each label to the number of shared spans whose gold
    and predicted mentions both carry it, None counting the shared spans
    unlabeled on both sides.
    """

    gold: tuple[Cluster, ...]
    pred: tuple[Cluster, ...]
    cells: Counter[tuple[int, int]]
    agreed: Counter[str | None]


def contingency(doc: Document) -> Contingency:
    """The overlap table of doc's gold clusters and its predicted clusters.

    A corpus whose predictions came in a separate file is merged first
    (ingest.merge_predictions), so each document holds both sides.
    Raises ValueError, worded as validate_document words its first
    violation, when a span repeats across the clusters of either side,
    which the metrics cannot score.
    """
    gold, pred = doc.gold_clusters, doc.predicted_clusters
    gold_index = _cluster_index(gold)
    pred_spans = set().union(*[c.spans for c in pred])
    if len(gold_index) + len(pred_spans) != sum([len(c.spans) for c in gold + pred]):
        raise ValueError(f"doc {doc.doc_id!r}: {validate_document(doc)[0]}")
    # (gold index and label, predicted index, predicted label) of each shared span
    shared = [(g, j, label) for j, cluster in enumerate(pred)
              for span, label in zip(cluster.spans, cluster.labels)
              if (g := gold_index.get(span)) is not None]
    return Contingency(
        gold,
        pred,
        Counter([(g[0], j) for g, j, _ in shared]),
        Counter([label for g, _, label in shared if g[1] == label]),
    )
