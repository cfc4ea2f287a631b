import re
from fractions import Fraction

import pytest

from coref_semscore.classic_metrics import ceaf_counts
from coref_semscore.inventory import CategoryInventory
from coref_semscore.model import (
    Cluster,
    Document,
    LabelSource,
    Span,
    contingency,
)
from corpusgen import to_documents

# News-wire fixture: one person entity referenced by name and pronoun, one
# place entity referenced twice.  The two "Mr. <name>" mentions are exactly
# covered by PER tagger spans; the pronouns overlap nothing.
NEWS_TOKENS = (
    "While all this is going on , Mr. Clinton is overseas . "
    "President Clinton was in Northern Ireland when he heard the Supreme Court decision . "
    "He talked to Al Gore on the phone from Belfast . "
    "This is Mr. Clinton 's third visit to Northern Ireland"
).split()

NEWS_RECORD = {
    "doc_id": "news0",
    "tokens": NEWS_TOKENS,
    "sentence_boundaries": [0, 12, 26, 37],
    "gold_clusters": [
        [[7, 9], [12, 14], [19, 20], [26, 27], [39, 41]],
        [[16, 18], [45, 47]],
    ],
    "cner": [
        [7, 9, "PER"],
        [12, 14, "PER"],
        [16, 18, "LOC"],
        [22, 24, "ORG"],
        [24, 25, "EVENT"],
        [29, 31, "PER"],
        [33, 34, "ARTIFACT"],
        [35, 36, "LOC"],
        [39, 41, "PER"],
        [42, 43, "MEASURE"],
        [43, 44, "EVENT"],
        [45, 47, "LOC"],
    ],
}

# Coordination fixture: two singleton person entities plus a composite
# plural entity whose second mention is the bare plural "both".  The
# tagger spans cover the individual names and the whole coordination.
COMPOSITE_TOKENS = (
    "Tomorrow 's summit meeting will bring Ehud Barak and Yasser Arafat "
    "to the resort city of Sharm El - Sheikh . "
    "Getting both to attend was not an easy task ."
).split()

COMPOSITE_RECORD = {
    "doc_id": "summit0",
    "tokens": COMPOSITE_TOKENS,
    "sentence_boundaries": [0, 21],
    "gold_clusters": [
        [[6, 8]],
        [[9, 11]],
        [[6, 11], [22, 23]],
    ],
    "cner": [
        [0, 1, "DATETIME"],
        [2, 3, "EVENT"],
        [3, 4, "EVENT"],
        [6, 8, "PER"],
        [6, 11, "PER"],
        [9, 11, "PER"],
        [13, 15, "STRUCT"],
        [16, 20, "LOC"],
    ],
}


def cluster_of(spans, label=None):
    """A Cluster of (start, end) spans.  With a label, the cluster and each
    of its mentions carry it, the mentions as propagated labels."""
    spans = tuple(Span(*span) for span in spans)
    source = LabelSource.NONE if label is None else LabelSource.PROPAGATED
    k = len(spans)
    return Cluster(spans, (label,) * k, (source,) * k, (None,) * k, label)


def doc_of(gold=(), predicted=(), cner=(), tokens=12, doc_id="d0"):
    """A Document built straight from span lists, with no reader involved.

    Each cluster of gold and predicted is a Cluster or a list of spans for
    cluster_of(); cner holds (start, end, label) triples; tokens is the token
    list, or the number of placeholder tokens t0, t1 and so on.
    """
    if isinstance(tokens, int):
        tokens = [f"t{i}" for i in range(tokens)]

    def clusters(spec):
        return tuple(c if isinstance(c, Cluster) else cluster_of(c) for c in spec)

    return Document(doc_id, tokens, clusters(gold), clusters(predicted), cner)


def tables_of(docs):
    """One overlap table per document, the scorers' input."""
    return [contingency(doc) for doc in docs]


def exact(num):
    """The exact value of a RatioCounts numerator, a Counter of
    denominator -> integer total."""
    return sum((Fraction(total, den) for den, total in num.items()), Fraction(0))


def exact_counts(counts):
    """RatioCounts as (p_num, p_den, r_num, r_den), numerators exact."""
    return exact(counts.p_num), counts.p_den, exact(counts.r_num), counts.r_den


def best_alignment_total(gold_sets, pred_sets):
    """Maximum total phi4 over one-to-one alignments of clusters given as
    span sets: the CEAF numerator of a one-document corpus whose gold and
    predicted clusters are those sets."""
    doc = doc_of(gold_sets, pred_sets, doc_id="span sets")
    return exact(ceaf_counts(tables_of([doc])).p_num)


@pytest.fixture
def inventory():
    return CategoryInventory.default()


@pytest.fixture
def news_doc(inventory):
    return to_documents([NEWS_RECORD], inventory)[0]


@pytest.fixture
def composite_doc(inventory):
    return to_documents([COMPOSITE_RECORD], inventory)[0]


# ---------------------------------------------------------------------------
# Acceptance summary: one pass/fail line per criterion.

_ACCEPTANCE_RE = re.compile(r"test_acceptance\.py::test_a(\d+)_([a-z0-9_]+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = _ACCEPTANCE_RE.search(getattr(report, "nodeid", ""))
            if not match:
                continue
            key = (int(match.group(1)), match.group(2).replace("_", " "))
            if status == "passed":
                outcomes.setdefault(key, "PASS")
            else:
                outcomes[key] = "FAIL"
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for (number, title), result in sorted(outcomes.items()):
        terminalreporter.write_line(f"A{number} {title}: {result}")
