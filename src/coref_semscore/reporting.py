"""Report assembly: JSON-ready dicts and aligned text tables.

JSON dicts keep full float precision and a fixed key order; a text table
shows the JSON rows with their keys as its columns, floats at 4 decimals
and null as -, and sorts class rows by descending gold support, then
name.  Identical inputs therefore produce byte-identical outputs.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Sequence

from .classic_metrics import ClassicReport, MetricTriple
from .labeling import CoverageReport
from .typed_metrics import ClassScore, TypedScoreReport


class ReportModeError(ValueError):
    """A saved eval report that cannot be read back, or reports that cannot
    be combined: they do not expose the same scoring modes or do not score
    the same corpus under the same settings."""


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


def _classic_rows(report: ClassicReport) -> dict:
    return {name: triple._asdict() for name, triple in report._asdict().items()}


def classic_report_dict(report: ClassicReport) -> dict:
    return {**_classic_rows(report), "conll_f1": report.conll_f1}


_COVERAGE_COLUMNS = ("total", "direct", "propagated", "unlabeled",
                     "direct_pct", "propagated_pct", "any_pct")


def coverage_report_dict(report: CoverageReport) -> dict:
    return {scope: {key: getattr(counts, key) for key in _COVERAGE_COLUMNS}
            for scope, counts in report._asdict().items()}


# ---------------------------------------------------------------------------
# Text tables


def _cell(value) -> str:
    """A JSON value as a table cell: an int as it is, a float at 4 decimals,
    null as -."""
    if value is None:
        return "-"
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def _grid(head: Sequence[str], keys: Iterable[str],
          rows: Iterable[tuple[Sequence[str], Mapping]]) -> str:
    """An aligned table of JSON rows.  The header is `head` plus `keys`; a
    line is its leading cells, left-aligned, then the row's value at each
    key, right-aligned."""
    keys = list(keys)
    lines = [[*head, *keys]]
    lines += [[*lead, *(_cell(row[key]) for key in keys)] for lead, row in rows]
    widths = [max(map(len, column)) for column in zip(*lines)]
    return "".join(
        "  ".join(cell.ljust(width) if i < len(head) else cell.rjust(width)
                  for i, (cell, width) in enumerate(zip(line, widths))).rstrip() + "\n"
        for line in lines
    )


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
