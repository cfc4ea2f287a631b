"""Label reports: the distribution of gold mention labels, and how far
cluster labels agree with a reference labeling.

Agreement is one typed_metrics.ClassScore, so its precision, recall and
F1 are those of every count-based score: F1 is 2tp / (system-labeled +
reference entries), in one correctly rounded division.

Only the distribution and validate-labels commands load this module.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence

from .inventory import CategoryInventory
from .model import Document
from .reporting import _grid
from .typed_metrics import ClassScore


class DistributionReport(NamedTuple):
    """Counts and shares of mention labels over a corpus side."""

    counts: Mapping[str, int]
    total_labeled: int
    unlabeled: int
    absent_labels: tuple[str, ...]

    @property
    def shares(self) -> dict[str, float]:
        if not self.total_labeled:
            return {label: 0.0 for label in self.counts}
        return {label: count / self.total_labeled for label, count in self.counts.items()}


def distribution(
    docs: Iterable[Document], inventory: CategoryInventory | None = None
) -> DistributionReport:
    """Label distribution over labeled gold mentions, plus absent inventory
    labels."""
    inventory = inventory or CategoryInventory.default()
    counter = Counter(chain.from_iterable([c.labels for doc in docs for c in doc.gold_clusters]))
    unlabeled = counter.pop(None, 0)
    ordered = dict(sorted(counter.items(), key=lambda item: (-item[1], item[0])))
    absent = tuple(sorted(label for label in inventory.labels if label not in counter))
    return DistributionReport(
        counts=ordered,
        total_labeled=sum(counter.values()),
        unlabeled=unlabeled,
        absent_labels=absent,
    )


def distribution_report_dict(report: DistributionReport) -> dict:
    return {
        "total_labeled": report.total_labeled,
        "unlabeled": report.unlabeled,
        "counts": dict(report.counts),
        "shares": report.shares,
        "absent_labels": list(report.absent_labels),
    }


def render_distribution_table(report: DistributionReport) -> str:
    block = distribution_report_dict(report)
    columns = {"count": block["counts"], "share": block["shares"]}
    rows = [((label,), {name: column[label] for name, column in columns.items()})
            for label in block["counts"]]
    return "\n".join([
        "label distribution",
        _grid(("class",), columns, rows).rstrip("\n"),
        f"labeled mentions: {block['total_labeled']}, unlabeled: {block['unlabeled']}",
        f"absent classes: {', '.join(block['absent_labels']) or '(none)'}",
    ]) + "\n"


def read_reference(path: str, raw, inventory: CategoryInventory) -> dict[tuple[str, int], str]:
    """{(doc_id, cluster_index): label} from `raw`, the JSON value of the
    {doc_id: {cluster_index: label}} file at `path`; a ValueError names
    the file, the doc_id and the key of a shape error."""
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected a JSON object {{doc_id: {{cluster_index: label}}}}")
    reference = {}
    for doc_id, clusters in raw.items():
        if not isinstance(clusters, dict):
            raise ValueError(f"{path}: doc {doc_id!r}: expected an object {{cluster_index: label}}")
        for key, label in clusters.items():
            where = f"{path}: doc {doc_id!r}, key {key!r}"
            if not key.isdecimal():
                raise ValueError(f"{where}: cluster index must be a non-negative integer")
            cluster = (doc_id, int(key))
            if cluster in reference:
                raise ValueError(f"{where}: cluster {int(key)} already has a label "
                                 "from another key")
            if not isinstance(label, str):
                raise ValueError(f"{where}: label must be a string, got {label!r}")
            try:
                reference[cluster] = inventory.resolve(label)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from exc
    return reference


def label_agreement(
    reference: Mapping[tuple[str, int], str], docs: Sequence[Document]
) -> ClassScore:
    """Score system cluster labels against reference labels.

    Reference keys are (doc_id, gold cluster index).  A true positive is
    a referenced cluster whose system label is the reference label; the
    other system-labeled referenced clusters are false positives and the
    other reference entries false negatives.
    """
    by_id = {doc.doc_id: doc for doc in docs}
    tp = 0
    system_labeled = 0
    for (doc_id, cluster_index), ref_label in reference.items():
        doc = by_id.get(doc_id)
        if doc is None:
            raise KeyError(f"reference key ({doc_id!r}, {cluster_index}) matches no document")
        if not 0 <= cluster_index < len(doc.gold_clusters):
            raise KeyError(
                f"reference key ({doc_id!r}, {cluster_index}) is out of range: "
                f"document has {len(doc.gold_clusters)} gold clusters"
            )
        system_label = doc.gold_clusters[cluster_index].cluster_label
        if system_label is not None:
            system_labeled += 1
            tp += system_label == ref_label
    return ClassScore("agreement", tp, system_labeled - tp, len(reference) - tp)


def agreement_report_dict(score: ClassScore) -> dict:
    return {
        "precision": score.precision,
        "recall": score.recall,
        "f1": score.f1,
        "true_positives": score.tp,
        "system_labeled": score.tp + score.fp,
        "reference_entries": score.support,
    }
