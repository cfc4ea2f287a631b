"""The CoNLL-2012 reader: gold clusters from a column file.

Only `--format conll` loads this module.  Each document becomes the JSONL
record that ingest would read, and is built and checked by the same code.
"""

from __future__ import annotations

import re
from typing import Iterator

from .ingest import CorpusFormatError, Source, _documents
from .inventory import opened
from .model import Document

_BEGIN_RE = re.compile(r"#begin document \((?P<name>[^)]*)\)(?:; part (?P<part>\S+))?\s*$")
_COREF_PART_RE = re.compile(r"(\()?(\d+)(\))?\Z")


def read_conll2012(source: Source) -> list[Document]:
    """Read gold clusters from a CoNLL-2012-style column file.

    Each document is built and checked as its JSONL record would be, and an
    error names the line of its #end document.  Predicted clusters and
    semantic spans are left empty.
    """
    return _documents(_conll_records(source), None)


def _conll_records(source: Source) -> Iterator[tuple[int, dict]]:
    """(line of "#end document", JSONL record) for each document.

    Word forms come from the fourth column and the coreference annotation
    from the last; sentence offsets accumulate into document-level token
    indices.  gold_clusters lists the clusters in cluster-id order, each
    with its spans sorted.
    """
    doc_id: str | None = None
    with opened(source) as handle:
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
                tokens: list[str] = []
                boundaries: list[int] = []
                in_sentence = False
                open_stacks: dict[int, list[int]] = {}
                cluster_spans: dict[int, list[list[int]]] = {}
                continue
            if line.startswith("#end document"):
                if doc_id is None:
                    raise CorpusFormatError(f"line {lineno}: #end document without a begin")
                unclosed = sorted(cid for cid, stack in open_stacks.items() if stack)
                if unclosed:
                    raise CorpusFormatError(
                        f"line {lineno}: unbalanced coreference parentheses in {doc_id!r} "
                        f"(unclosed cluster ids: {', '.join(map(str, unclosed))})"
                    )
                record: dict = {"doc_id": doc_id, "tokens": tokens}
                if boundaries:
                    record["sentence_boundaries"] = boundaries
                record["gold_clusters"] = [sorted(s) for _, s in sorted(cluster_spans.items())]
                yield lineno, record
                doc_id = None
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
                    cluster_spans.setdefault(cid, []).append([stack.pop(), index + 1])
        if doc_id is not None:
            raise CorpusFormatError(
                f"line {lineno}: missing #end document marker for {doc_id!r}"
            )
