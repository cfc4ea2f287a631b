"""Saved eval reports: reading them back, comparing systems, diagnosing classes.

Only the compare and diagnose commands load this module.  A report that
is malformed or not comparable raises ReportModeError, an input error.
"""

from __future__ import annotations

import csv
import io
import os
from collections import Counter
from math import fsum
from typing import Iterable, Mapping, Sequence

from .labeling import LabelingConfig
from .reporting import ReportModeError, _cell, _grid, typed_report_dict
from .typed_metrics import ClassScore, TypedScoreReport, macro_f1, micro_score

# Each typed block of an eval report -> its mode's name in compare and diagnose.
TYPED_MODES = {"typed_mention": "mention", "typed_link": "link"}

# The config fields two compared systems must share, besides the corpus.
_LABELING_FIELDS = (*LabelingConfig._fields, "link_mention_source")

# The keys of a per-class comparison row, and the text table's columns after the class.
COMPARE_COLUMNS = ("f1_a", "f1_b", "delta", "support_a", "support_b")


def _count(fields: dict, path: str, key: str, default=0):
    """fields[key], which must be an integer >= 0 when present, else
    `default`, so that the round trip names the field as missing."""
    if key in fields and not (type(fields[key]) is int and fields[key] >= 0):
        raise ValueError(f"{path}{key} must be an integer >= 0, got {fields[key]!r}")
    return fields.get(key, default)


def _check_same(path: str, written, given) -> None:
    """Raise ValueError naming the first field where `given` differs from
    `written`; the comparison is type-strict, so 1, 1.0 and true differ."""
    if isinstance(written, dict) and isinstance(given, dict):
        for key in dict.fromkeys([*written, *given]):
            if key not in written:
                raise ValueError(f"{path}{key} is not a field of a typed report")
            if key not in given:
                raise ValueError(f"{path}{key} is missing")
            _check_same(f"{path}{key}.", written[key], given[key])
    elif type(written) is not type(given) or written != given:
        raise ValueError(f"{path.rstrip('.')} is {given!r}, but its counts give {written!r}")


def typed_report_from_dict(block) -> TypedScoreReport:
    """The TypedScoreReport that typed_report_dict wrote as `block`.

    Only the rows' tp, fp and fn and the block's mode, unlabeled tallies,
    link_mention_source and containment_violations are read, and the block
    is accepted only if writing that report gives it back field for field;
    a ValueError names the first field that differs."""
    if not isinstance(block, dict):
        raise ValueError("expected a JSON object")
    rows = block.get("per_class", {})
    if not isinstance(rows, dict):
        raise ValueError(f"per_class must be a JSON object, got {rows!r}")
    per_class = {}
    for label, row in rows.items():
        if not isinstance(row, dict):
            raise ValueError(f"per_class.{label} must be a JSON object, got {row!r}")
        counts = [_count(row, f"per_class.{label}.", key) for key in ("tp", "fp", "fn")]
        per_class[label] = ClassScore(label, *counts)
    report = TypedScoreReport(
        block.get("mode"), per_class, _count(block, "", "unlabeled_gold"),
        _count(block, "", "unlabeled_predicted"), block.get("link_mention_source"),
        _count(block, "", "containment_violations", None),
    )
    _check_same("", typed_report_dict(report), block)
    return report


def read_eval_report(path: str, report) -> tuple[dict, str]:
    """`report`, the JSON value of the eval report file at `path`, with
    config an object and each typed block read back into a
    TypedScoreReport, and the name of its gold corpus."""
    if not isinstance(report, dict):
        raise ReportModeError(f"{path}: expected a JSON object")
    config = report.get("config")
    if config is None:
        config = report["config"] = {}
    if not isinstance(config, dict):
        raise ReportModeError(f"{path}: config must be a JSON object")
    gold = config.get("gold")
    if gold is not None and not isinstance(gold, str):
        raise ReportModeError(f"{path}: config.gold must be a string")
    for block in TYPED_MODES:
        if report.get(block) is not None:
            try:
                report[block] = typed_report_from_dict(report[block])
            except ValueError as exc:
                raise ReportModeError(f"{path}: {block}: {exc}") from exc
    return report, gold or os.path.basename(path)


# ---------------------------------------------------------------------------
# System comparison


def _support(reports, block: str) -> Counter:
    total: Counter = Counter()
    for report in reports:
        total.update({label: s.support for label, s in report[block].per_class.items()})
    return total


def check_comparable(paths_a, reports_a, paths_b, reports_b) -> None:
    """Refuse two systems with different numbers of reports, scored on
    different gold corpora or labeled with different settings: their
    per-class deltas would not compare the systems.
    """
    def refuse(a, b, field, value_a, value_b):
        raise ReportModeError(f"cannot compare {a} with {b}: {field} differs "
                              f"({value_a!r} vs {value_b!r})")

    side_a, side_b = ", ".join(paths_a), ", ".join(paths_b)
    if len(reports_a) != len(reports_b):
        raise ReportModeError(f"cannot compare {side_a} with {side_b}: system A has "
                              f"{len(reports_a)} reports and system B has {len(reports_b)}")
    gold_a = [report["config"].get("gold") for report in reports_a]
    gold_b = [report["config"].get("gold") for report in reports_b]
    if Counter(gold_a) != Counter(gold_b):
        refuse(side_a, side_b, "config.gold", gold_a, gold_b)
    reports = [*reports_a, *reports_b]
    first = reports_a[0]["config"]
    for path, report in zip([*paths_a, *paths_b], reports):
        settings = report["config"]
        for field in _LABELING_FIELDS:
            if settings.get(field) != first.get(field):
                refuse(paths_a[0], path, f"config.{field}", first.get(field), settings.get(field))
    for block in TYPED_MODES:
        if all(report.get(block) is not None for report in reports):
            support_a, support_b = _support(reports_a, block), _support(reports_b, block)
            for label in sorted(support_a.keys() | support_b.keys()):
                if support_a[label] != support_b[label]:
                    refuse(side_a, side_b, f"{block} support of {label}",
                           support_a[label], support_b[label])


def _aggregate_mode(mode_reports: Sequence[TypedScoreReport], pool_counts: bool):
    """{label: (F1, gold support)} and the macro F1 of one system's reports
    of one mode: pooled counts, or the mean of the per-report figures."""
    by_label: dict[str, list[ClassScore]] = {}
    for report in mode_reports:
        for label, score in report.per_class.items():
            by_label.setdefault(label, []).append(score)
    if pool_counts:
        pooled = [micro_score(scores) for scores in by_label.values()]
        stats = {label: (s.f1, s.support) for label, s in zip(by_label, pooled)}
        return stats, macro_f1(pooled)
    stats = {
        label: (fsum(s.f1 for s in scores) / len(scores), sum(s.support for s in scores))
        for label, scores in by_label.items()
    }
    return stats, fsum(r.macro_f1 for r in mode_reports) / len(mode_reports)


def compare_eval_reports(
    reports_a: Sequence[Mapping],
    reports_b: Sequence[Mapping],
    corpora_a: Sequence[str],
    corpora_b: Sequence[str],
    pool_counts: bool = False,
) -> dict:
    """Per-class F1 deltas (system B minus system A) per scoring mode.

    Each report is an eval report whose typed_mention and typed_link
    entries are TypedScoreReports or None.  Multi-corpus inputs are
    averaged per system before subtraction (mean of per-corpus F1 values,
    or pooled counts with pool_counts).  The two systems must pass
    check_comparable, so each label has one gold support, which orders
    the rows.
    """
    out: dict = {
        "corpora_a": list(corpora_a),
        "corpora_b": list(corpora_b),
        "averaging": "pooled_counts" if pool_counts else "mean_f1",
    }
    for block, mode in TYPED_MODES.items():
        present = []
        for name, reports in (("A", reports_a), ("B", reports_b)):
            found = {report.get(block) is not None for report in reports}
            if len(found) > 1:
                raise ReportModeError(
                    f"system {name}: mode {block} present in some reports but not all")
            present += found
        if present[0] != present[1]:
            raise ReportModeError(f"mode mismatch: {block} present in only one system")
        if not present[0]:
            out[mode] = None
            continue
        stats_a, macro_a = _aggregate_mode([r[block] for r in reports_a], pool_counts)
        stats_b, macro_b = _aggregate_mode([r[block] for r in reports_b], pool_counts)
        absent = (0.0, 0)

        def sort_key(label: str):
            return (-stats_a.get(label, absent)[1], label)

        per_class = {}
        for label in sorted(stats_a.keys() | stats_b.keys(), key=sort_key):
            f1_a, support_a = stats_a.get(label, absent)
            f1_b, support_b = stats_b.get(label, absent)
            per_class[label] = dict(zip(COMPARE_COLUMNS,
                                        (f1_a, f1_b, f1_b - f1_a, support_a, support_b)))
        out[mode] = {
            "per_class": per_class,
            "macro_f1_a": macro_a,
            "macro_f1_b": macro_b,
            "macro_delta": macro_b - macro_a,
        }
    if all(out[mode] is None for mode in TYPED_MODES.values()):
        raise ReportModeError("no typed scoring mode shared by the two reports")
    return out


def compare_csv(compare: dict, mode: str) -> str:
    """Plot-ready (class, delta) rows for one mode the comparison has."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["class", "delta"])
    for label, row in compare[mode]["per_class"].items():
        writer.writerow([label, repr(row["delta"])])
    return buffer.getvalue()


def render_compare_table(compare: dict) -> str:
    lines = [
        "system comparison (B - A)",
        f"corpora A: {', '.join(compare['corpora_a'])}",
        f"corpora B: {', '.join(compare['corpora_b'])}",
        f"averaging: {compare['averaging']}",
    ]
    for mode in TYPED_MODES.values():
        block = compare[mode]
        if block is None:
            continue
        rows = [((label,), {**row, "delta": f"{row['delta']:+.4f}"})
                for label, row in block["per_class"].items()]
        lines += [f"{mode} mode", _grid(("class",), COMPARE_COLUMNS, rows).rstrip("\n"),
                  f"macro_f1 A {_cell(block['macro_f1_a'])}  B {_cell(block['macro_f1_b'])}"
                  f"  delta {block['macro_delta']:+.4f}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Deficiency diagnosis

# A class's ranked row before the terms of its modes are added; the table
# shows its label as the leading cell.
_DEFICIENCY_ROW = {"label": "", "support": 0,
                   **{f"{mode}_f1": None for mode in TYPED_MODES.values()}, "composite": 0.0}


def diagnose_report(
    eval_report: Mapping,
    labels: Iterable[str],
    w_mention: float = 0.5,
    w_link: float = 0.5,
    rarity_cap: float = 0.2,
) -> dict:
    """Rank classes by a composite deficiency score.

    composite = w_mention*(1 - mention F1) + w_link*(1 - link F1) + rarity,
    where rarity = min(rarity_cap, 1/support) and support-0 classes take
    the full cap.  A term is dropped when its mode is absent from the eval
    report; a class missing from a present mode scores 0 F1 there.  Gold
    support is read from typed mention when the report has it, else from
    typed link.  The ranked list is ascending by composite, then support,
    then name; those of the inventory `labels` with zero gold support are
    listed separately.  The typed_mention and typed_link entries of
    `eval_report` are TypedScoreReports or None.
    """
    weights = {"mention": w_mention, "link": w_link}
    modes = [
        (eval_report[block].per_class, weights[mode], f"{mode}_f1")
        for block, mode in TYPED_MODES.items() if eval_report.get(block) is not None
    ]
    if not modes:
        raise ReportModeError("diagnosis needs at least one typed mode in the eval report")
    support = {label: score.support for label, score in modes[0][0].items()}
    rows = []
    for label in {label for per_class, _, _ in modes for label in per_class}:
        row = {**_DEFICIENCY_ROW, "label": label, "support": support.get(label, 0)}
        for per_class, weight, field in modes:
            row[field] = per_class[label].f1 if label in per_class else 0.0
            row["composite"] += weight * (1.0 - row[field])
        row["composite"] += (rarity_cap if row["support"] <= 0
                             else min(rarity_cap, 1.0 / row["support"]))
        rows.append(row)
    rows.sort(key=lambda row: (row["composite"], row["support"], row["label"]))
    return {
        "weights": {**weights, "rarity_cap": rarity_cap},
        "absent_classes": sorted(label for label in labels if support.get(label, 0) <= 0),
        "ranked": rows,
    }


def render_diagnose_table(report: dict) -> str:
    rows = [((row["label"],), row) for row in report["ranked"]]
    weights = (f"{name.replace('_', ' ')} {_cell(weight)}"
               for name, weight in report["weights"].items())
    return "\n".join([
        "class deficiency diagnosis",
        f"absent classes (support 0): {', '.join(report['absent_classes']) or '(none)'}",
        _grid(("class",), list(_DEFICIENCY_ROW)[1:], rows).rstrip("\n"),
        f"weights: {', '.join(weights)}",
    ]) + "\n"
