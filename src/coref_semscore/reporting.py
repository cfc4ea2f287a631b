"""Report assembly: JSON-ready dicts, aligned text tables, comparisons.

JSON dicts keep full float precision and a fixed key order; a text table
shows the JSON rows with their keys as its columns, floats at 4 decimals
and null as -, and sorts class rows by descending gold support, then
name.  Identical inputs therefore produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import io
import json
from math import fsum
from typing import Iterable, Mapping, Sequence

from .classic_metrics import ClassicReport, MetricTriple
from .labeling import CoverageReport, DistributionReport
from .typed_metrics import ClassScore, TypedScoreReport, macro_f1, micro_score


class ReportModeError(ValueError):
    """Reports being combined do not expose the same scoring modes."""


def json_text(obj) -> str:
    """`obj` as indented JSON; NaN or an infinity raises ValueError, since
    neither is a JSON number."""
    return json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    text = json_text(obj)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# JSON shapes


def _class_row(score: ClassScore) -> dict:
    """A class's JSON row.  The JSON micro row drops its support; the text
    table keeps it."""
    return {
        "tp": score.tp,
        "fp": score.fp,
        "fn": score.fn,
        "precision": score.precision,
        "recall": score.recall,
        "f1": score.f1,
        "support": score.support,
    }


def typed_report_dict(report: TypedScoreReport) -> dict:
    micro = _class_row(report.micro)
    del micro["support"]
    out: dict = {
        "mode": report.mode,
        "link_mention_source": report.link_mention_source,
        "per_class": {label: _class_row(s) for label, s in report.per_class.items()},
        "micro": micro,
        "macro_f1": report.macro_f1,
        "macro_classes": report.macro_classes,
        "predicted_only_classes": report.predicted_only_classes,
        "unlabeled_gold": report.unlabeled_gold,
        "unlabeled_predicted": report.unlabeled_predicted,
    }
    if report.containment_violations is not None:
        out["containment_violations"] = report.containment_violations
    return out


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


def _classic_rows(report: ClassicReport) -> dict:
    return {name: triple._asdict() for name, triple in report._asdict().items()}


def classic_report_dict(report: ClassicReport) -> dict:
    return {**_classic_rows(report), "conll_f1": report.conll_f1}


_COVERAGE_COLUMNS = ("total", "direct", "propagated", "unlabeled",
                     "direct_pct", "propagated_pct", "any_pct")


def coverage_report_dict(report: CoverageReport) -> dict:
    return {scope: {key: getattr(counts, key) for key in _COVERAGE_COLUMNS}
            for scope, counts in report._asdict().items()}


def distribution_report_dict(report: DistributionReport) -> dict:
    return {
        "total_labeled": report.total_labeled,
        "unlabeled": report.unlabeled,
        "counts": dict(report.counts),
        "shares": report.shares,
        "absent_labels": list(report.absent_labels),
    }


# ---------------------------------------------------------------------------
# Text tables


def _table(rows: Sequence[Sequence[str]], right_align_from: int = 1) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = []
        for i, cell in enumerate(row):
            cells.append(cell.ljust(widths[i]) if i < right_align_from else cell.rjust(widths[i]))
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    """A JSON value as a table cell: an int as it is, a float at 4 decimals,
    null as -."""
    if value is None:
        return "-"
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def _grid(head: Sequence[str], keys: Iterable[str],
          rows: Iterable[tuple[Sequence[str], Mapping]]) -> str:
    """An aligned table of JSON rows.  The header is `head` plus `keys`; a
    line is its leading cells, then the row's value at each key."""
    keys = list(keys)
    lines = [[*head, *keys]]
    lines += [[*lead, *(_cell(row[key]) for key in keys)] for lead, row in rows]
    return _table(lines, right_align_from=len(head))


def render_typed_table(report: TypedScoreReport) -> str:
    title = f"typed {report.mode} scores"
    if report.link_mention_source is not None:
        title += f" (link mentions: {report.link_mention_source})"
    rows = [((label,), _class_row(score)) for label, score in report.per_class.items()]
    micro = _class_row(report.micro)
    rows.append((("micro",), micro))
    lines = [title, _grid(("class",), micro, rows).rstrip("\n"),
             f"macro_f1 {_cell(report.macro_f1)}"]
    if report.predicted_only_classes:
        lines.append("predicted-only classes: " + ", ".join(report.predicted_only_classes))
    lines.append(
        f"unlabeled {report.mode}s: gold {report.unlabeled_gold}, "
        f"predicted {report.unlabeled_predicted}"
    )
    if report.containment_violations is not None:
        lines.append(f"gold-mention containment violations: {report.containment_violations}")
    return "\n".join(lines) + "\n"


def render_classic_table(report: ClassicReport) -> str:
    rows = [((name,), row) for name, row in _classic_rows(report).items()]
    return ("classic scores\n" + _grid(("metric",), MetricTriple._fields, rows)
            + f"conll_f1 {_cell(report.conll_f1)}\n")


def render_coverage_table(reports: Mapping[str, CoverageReport]) -> str:
    rows = [((side, scope), row) for side, report in reports.items()
            for scope, row in coverage_report_dict(report).items()]
    return "labeling coverage\n" + _grid(("side", "mentions"), _COVERAGE_COLUMNS, rows)


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


# ---------------------------------------------------------------------------
# System comparison


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
    or pooled counts with pool_counts).
    """
    out: dict = {
        "corpora_a": list(corpora_a),
        "corpora_b": list(corpora_b),
        "averaging": "pooled_counts" if pool_counts else "mean_f1",
    }
    for mode_key, out_key in (("typed_mention", "mention"), ("typed_link", "link")):
        in_a = [r.get(mode_key) for r in reports_a]
        in_b = [r.get(mode_key) for r in reports_b]
        for name, present in (("A", in_a), ("B", in_b)):
            if any(x is None for x in present) and any(x is not None for x in present):
                raise ReportModeError(
                    f"system {name}: mode {mode_key} present in some reports but not all"
                )
        has_a = all(x is not None for x in in_a)
        has_b = all(x is not None for x in in_b)
        if has_a != has_b:
            raise ReportModeError(f"mode mismatch: {mode_key} present in only one system")
        if not has_a:
            out[out_key] = None
            continue
        stats_a, macro_a = _aggregate_mode(in_a, pool_counts)
        stats_b, macro_b = _aggregate_mode(in_b, pool_counts)
        absent = (0.0, 0)

        def sort_key(label: str):
            support = max(stats_a.get(label, absent)[1], stats_b.get(label, absent)[1])
            return (-support, label)

        per_class = {}
        for label in sorted(stats_a.keys() | stats_b.keys(), key=sort_key):
            f1_a, support_a = stats_a.get(label, absent)
            f1_b, support_b = stats_b.get(label, absent)
            per_class[label] = {
                "f1_a": f1_a,
                "f1_b": f1_b,
                "delta": f1_b - f1_a,
                "support_a": support_a,
                "support_b": support_b,
            }
        out[out_key] = {
            "per_class": per_class,
            "macro_f1_a": macro_a,
            "macro_f1_b": macro_b,
            "macro_delta": macro_b - macro_a,
        }
    if out.get("mention") is None and out.get("link") is None:
        raise ReportModeError("no typed scoring mode shared by the two reports")
    return out


def compare_csv(compare: dict, mode: str) -> str:
    """Plot-ready (class, delta) rows for one mode."""
    block = compare.get(mode)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["class", "delta"])
    if block is not None:
        for label, row in block["per_class"].items():
            writer.writerow([label, repr(row["delta"])])
    return buffer.getvalue()


def render_compare_table(compare: dict) -> str:
    lines = [
        "system comparison (B - A)",
        f"corpora A: {', '.join(compare['corpora_a'])}",
        f"corpora B: {', '.join(compare['corpora_b'])}",
        f"averaging: {compare['averaging']}",
    ]
    for mode in ("mention", "link"):
        block = compare.get(mode)
        if block is None:
            continue
        rows = [["class", "f1_a", "f1_b", "delta", "support_a", "support_b"]]
        for label, row in block["per_class"].items():
            rows.append(
                [label, _cell(row["f1_a"]), _cell(row["f1_b"]), f"{row['delta']:+.4f}",
                 str(row["support_a"]), str(row["support_b"])]
            )
        lines.append(f"{mode} mode")
        lines.append(_table(rows).rstrip("\n"))
        lines.append(
            f"macro_f1 A {_cell(block['macro_f1_a'])}  B {_cell(block['macro_f1_b'])}"
            f"  delta {block['macro_delta']:+.4f}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Deficiency diagnosis

# A class's ranked row before the terms of its modes are added; the table
# shows its label as the leading cell.
_DEFICIENCY_ROW = {"label": "", "support": 0, "mention_f1": None, "link_f1": None,
                   "composite": 0.0}


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
    modes = [
        (eval_report[key].per_class, weight, field)
        for key, weight, field in (("typed_mention", w_mention, "mention_f1"),
                                   ("typed_link", w_link, "link_f1"))
        if eval_report.get(key) is not None
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
        "weights": {"mention": w_mention, "link": w_link, "rarity_cap": rarity_cap},
        "absent_classes": sorted(label for label in labels if support.get(label, 0) <= 0),
        "ranked": rows,
    }


def render_diagnose_table(report: dict) -> str:
    lines = ["class deficiency diagnosis"]
    absent = report["absent_classes"]
    lines.append("absent classes (support 0): " + (", ".join(absent) if absent else "(none)"))
    rows = [((row["label"],), row) for row in report["ranked"]]
    lines.append(_grid(("class",), list(_DEFICIENCY_ROW)[1:], rows).rstrip("\n"))
    weights = report["weights"]
    lines.append(
        f"weights: mention {_cell(weights['mention'])}, link {_cell(weights['link'])}, "
        f"rarity cap {_cell(weights['rarity_cap'])}"
    )
    return "\n".join(lines) + "\n"
