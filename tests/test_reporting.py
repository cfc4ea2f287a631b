import json

import pytest

from coref_semscore.classic_metrics import ClassicReport, MetricTriple
from coref_semscore.label_reports import DistributionReport, render_distribution_table
from coref_semscore.labeling import CoverageCounts, CoverageReport
from coref_semscore.reporting import (
    ReportModeError,
    coverage_report_dict,
    json_text,
    render_classic_table,
    render_coverage_table,
    render_typed_table,
    typed_report_dict,
)
from coref_semscore.saved_reports import (
    compare_csv,
    compare_eval_reports,
    diagnose_report,
    render_diagnose_table,
    typed_report_from_dict,
)
from coref_semscore.typed_metrics import ClassScore, TypedScoreReport


def _typed(per_class, mode="mention", **kwargs):
    scores = {
        label: ClassScore(label, tp, fp, fn) for label, (tp, fp, fn) in per_class.items()
    }
    ordered = dict(sorted(scores.items(), key=lambda kv: (-kv[1].support, kv[0])))
    return TypedScoreReport(mode=mode, per_class=ordered,
                            unlabeled_gold=0, unlabeled_predicted=0, **kwargs)


def _eval_report(mention=None, link=None):
    """An eval report as compare and diagnose take it: each typed block
    read back into a TypedScoreReport."""
    report = {"config": {"gold": "x.jsonl"}, "typed_mention": None, "typed_link": None,
              "classic": None}
    if mention is not None:
        report["typed_mention"] = _typed(mention)
    if link is not None:
        report["typed_link"] = _typed(link, mode="link", link_mention_source="predicted")
    return report


class TestTypedReportDict:
    def test_shape_and_order(self):
        report = _typed({"PER": (4, 1, 1), "LOC": (9, 0, 0)})
        data = typed_report_dict(report)
        assert list(data["per_class"]) == ["LOC", "PER"]
        assert data["per_class"]["PER"] == {
            "tp": 4, "fp": 1, "fn": 1,
            "precision": 0.8, "recall": 0.8, "f1": 0.8, "support": 5,
        }
        assert data["micro"]["tp"] == 13
        assert data["macro_classes"] == ["LOC", "PER"]
        assert "containment_violations" not in data

    def test_micro_counts_equal_per_class_sums(self):
        report = _typed({"A": (1, 2, 3), "B": (4, 5, 6)})
        data = typed_report_dict(report)
        assert data["micro"]["tp"] == sum(r["tp"] for r in data["per_class"].values())
        assert data["micro"]["fp"] == sum(r["fp"] for r in data["per_class"].values())
        assert data["micro"]["fn"] == sum(r["fn"] for r in data["per_class"].values())

    def test_macro_within_per_class_range(self):
        report = _typed({"A": (1, 2, 3), "B": (4, 5, 6), "C": (1, 0, 0)})
        values = [s.f1 for s in report.per_class.values()]
        assert min(values) <= report.macro_f1 <= max(values)


DELETE = object()


def _corrupt(block: dict, path: str, value) -> dict:
    """A deep copy of `block` with the field at dotted `path` set to
    `value`, or deleted when `value` is DELETE."""
    block = json.loads(json.dumps(block))
    *parents, key = path.split(".")
    target = block
    for parent in parents:
        target = target[parent]
    if value is DELETE:
        del target[key]
    else:
        target[key] = value
    return block


class TestTypedReportFromDict:
    @pytest.mark.parametrize("report", [
        _typed({}),
        _typed({"PER": (4, 1, 1), "LOC": (9, 0, 0), "ORG": (0, 3, 0)}),
        _typed({"PER": (2, 0, 1)}, mode="link", link_mention_source="predicted"),
        _typed({"PER": (2, 0, 1)}, mode="link", link_mention_source="gold",
               containment_violations=3),
    ])
    def test_inverse_of_typed_report_dict(self, report):
        block = json.loads(json_text(typed_report_dict(report)))
        assert typed_report_from_dict(block) == report

    @pytest.mark.parametrize("path, value, message", [
        ("per_class.PER.f1", 0.25, "per_class.PER.f1 is 0.25, but its counts give 0.8"),
        ("per_class.PER.support", 5.0, "per_class.PER.support is 5.0, but its counts give 5"),
        ("micro.tp", True, "micro.tp is True, but its counts give 4"),
        ("macro_classes", ["LOC"], "macro_classes is ['LOC'], but its counts give ['PER']"),
        ("per_class.PER.tp", 4.0, "per_class.PER.tp must be an integer >= 0, got 4.0"),
        ("per_class.PER.fp", False, "per_class.PER.fp must be an integer >= 0, got False"),
        ("per_class.PER.fn", -1, "per_class.PER.fn must be an integer >= 0, got -1"),
        ("unlabeled_gold", 1.0, "unlabeled_gold must be an integer >= 0, got 1.0"),
        ("containment_violations", None,
         "containment_violations must be an integer >= 0, got None"),
        ("per_class.PER.fp", DELETE, "per_class.PER.fp is missing"),
        ("per_class.PER.recall", DELETE, "per_class.PER.recall is missing"),
        ("micro", DELETE, "micro is missing"),
        ("unlabeled_predicted", DELETE, "unlabeled_predicted is missing"),
        ("micro.support", 5, "micro.support is not a field of a typed report"),
        ("per_class", [], "per_class must be a JSON object, got []"),
        ("per_class.PER", 0.8, "per_class.PER must be a JSON object, got 0.8"),
    ])
    def test_first_field_its_counts_do_not_give_is_named(self, path, value, message):
        block = typed_report_dict(_typed({"PER": (4, 1, 1)}))
        with pytest.raises(ValueError) as exc:
            typed_report_from_dict(_corrupt(block, path, value))
        assert str(exc.value) == message

    def test_block_must_be_an_object(self):
        with pytest.raises(ValueError, match="^expected a JSON object$"):
            typed_report_from_dict(["PER"])


class TestRendering:
    def test_typed_table_formats_at_four_decimals(self):
        text = render_typed_table(_typed({"PER": (1, 2, 0)}))
        assert "0.3333" in text
        assert "macro_f1" in text

    def test_classic_table(self):
        report = ClassicReport(
            muc=MetricTriple(1.0, 0.5, 2 / 3),
            b_cubed=MetricTriple(1.0, 1.0, 1.0),
            ceaf_phi4=MetricTriple(0.4, 0.8, 8 / 15),
        )
        text = render_classic_table(report)
        assert "0.6667" in text
        assert "conll_f1" in text

    def test_coverage_table(self):
        report = CoverageReport(
            overall=CoverageCounts(10, 5, 3), pronoun=CoverageCounts(2, 0, 2)
        )
        text = render_coverage_table({"gold": report})
        assert "50.0000" in text
        assert "80.0000" in text
        data = coverage_report_dict(report)
        assert data["overall"]["any_pct"] == data["overall"]["direct_pct"] + \
            data["overall"]["propagated_pct"]


    def test_distribution_table(self):
        report = DistributionReport({"PER": 2, "LOC": 1}, 3, 4, ("ORG",))
        assert render_distribution_table(report) == (
            "label distribution\n"
            "class  count   share\n"
            "PER        2  0.6667\n"
            "LOC        1  0.3333\n"
            "labeled mentions: 3, unlabeled: 4\n"
            "absent classes: ORG\n"
        )
        assert render_distribution_table(DistributionReport({}, 0, 0, ())) == (
            "label distribution\n"
            "class  count  share\n"
            "labeled mentions: 0, unlabeled: 0\n"
            "absent classes: (none)\n"
        )


class TestCompare:
    def test_identity_deltas_are_zero(self):
        report = _eval_report(mention={"PER": (4, 1, 1)}, link={"PER": (2, 0, 0)})
        result = compare_eval_reports([report], [report], ["c"], ["c"])
        assert result["mention"]["per_class"]["PER"]["delta"] == 0.0
        assert result["link"]["per_class"]["PER"]["delta"] == 0.0
        assert result["mention"]["macro_delta"] == 0.0

    def test_simple_improvement(self):
        a = _eval_report(mention={"PER": (1, 1, 1)})   # f1 = 0.5
        b = _eval_report(mention={"PER": (3, 1, 1)})   # f1 = 0.75
        result = compare_eval_reports([a], [b], ["c"], ["c"])
        assert result["mention"]["per_class"]["PER"]["delta"] == pytest.approx(0.25)
        assert result["link"] is None

    def test_multi_corpus_averages_f1_before_subtracting(self):
        a1 = _eval_report(mention={"PER": (1, 1, 1)})   # 0.5
        a2 = _eval_report(mention={"PER": (1, 0, 0)})   # 1.0
        b1 = _eval_report(mention={"PER": (1, 3, 3)})   # 0.25
        b2 = _eval_report(mention={"PER": (1, 3, 3)})   # 0.25
        result = compare_eval_reports([a1, a2], [b1, b2], ["c1", "c2"], ["c1", "c2"])
        row = result["mention"]["per_class"]["PER"]
        assert row["f1_a"] == pytest.approx(0.75)      # mean of 0.5 and 1.0
        assert row["delta"] == pytest.approx(0.25 - 0.75)
        assert result["corpora_a"] == ["c1", "c2"]

    def test_pool_counts_alternative(self):
        a1 = _eval_report(mention={"PER": (1, 1, 1)})
        a2 = _eval_report(mention={"PER": (1, 0, 0)})
        result = compare_eval_reports([a1, a2], [a1, a2], ["c1", "c2"], ["c1", "c2"],
                                      pool_counts=True)
        row = result["mention"]["per_class"]["PER"]
        # pooled: tp=2 fp=1 fn=1 -> f1 = 2/3
        assert row["f1_a"] == pytest.approx(2 / 3)
        assert result["averaging"] == "pooled_counts"

    def test_mode_mismatch_raises(self):
        a = _eval_report(mention={"PER": (1, 0, 0)})
        b = _eval_report(link={"PER": (1, 0, 0)})
        with pytest.raises(ReportModeError):
            compare_eval_reports([a], [b], ["c"], ["c"])

    def test_csv_lists_class_delta_pairs(self):
        a = _eval_report(mention={"PER": (1, 1, 1), "LOC": (1, 0, 0)})
        b = _eval_report(mention={"PER": (3, 1, 1), "LOC": (1, 0, 0)})
        result = compare_eval_reports([a], [b], ["c"], ["c"])
        csv_text = compare_csv(result, "mention")
        lines = csv_text.strip().splitlines()
        assert lines[0] == "class,delta"
        assert len(lines) == 3


class TestJsonText:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_number_is_refused(self, value):
        with pytest.raises(ValueError):
            json_text({"f1": value})


class TestDiagnose:
    def test_absent_classes_listed(self):
        report = _eval_report(mention={"PER": (1, 0, 0)}, link={"PER": (1, 0, 0)})
        result = diagnose_report(report, ["PLANT", "PER", "MONEY"])
        assert result["absent_classes"] == ["MONEY", "PLANT"]

    @pytest.mark.parametrize("mention, absent", [
        ({"PER": (2, 0, 0), "LOC": (1, 0, 0)}, ["ORG"]),
        (None, ["LOC", "ORG"]),
    ])
    def test_absent_classes_read_support_from_mention_else_link(self, mention, absent):
        # LOC has gold mentions but no gold link, and ORG is predicted only.
        report = _eval_report(mention=mention, link={"PER": (1, 0, 0), "ORG": (0, 1, 0)})
        result = diagnose_report(report, ["PER", "LOC", "ORG"])
        assert result["absent_classes"] == absent

    def test_rarer_class_is_more_deficient_at_equal_f1(self):
        report = _eval_report(
            mention={"A": (5, 5, 0), "B": (500, 500, 0)},
            link={"A": (5, 5, 0), "B": (500, 500, 0)},
        )
        result = diagnose_report(report, ())
        rows = {row["label"]: row for row in result["ranked"]}
        assert rows["A"]["mention_f1"] == rows["B"]["mention_f1"]
        assert rows["A"]["composite"] > rows["B"]["composite"]
        # ascending composite puts the rarer (more deficient) class later
        assert [row["label"] for row in result["ranked"]] == ["B", "A"]

    def test_perfect_scores_leave_only_rarity(self):
        report = _eval_report(
            mention={"A": (1000, 0, 0), "B": (50, 0, 0)},
            link={"A": (1000, 0, 0), "B": (50, 0, 0)},
        )
        result = diagnose_report(report, ())
        rows = {row["label"]: row for row in result["ranked"]}
        assert rows["A"]["composite"] == pytest.approx(1 / 1000)
        assert rows["B"]["composite"] == pytest.approx(1 / 50)
        assert [row["label"] for row in result["ranked"]] == ["A", "B"]

    def test_rarity_is_capped(self):
        report = _eval_report(mention={"A": (2, 0, 0)}, link={"A": (2, 0, 0)})
        result = diagnose_report(report, ())
        assert result["ranked"][0]["composite"] == pytest.approx(0.2)

    def test_missing_mode_drops_term(self):
        report = _eval_report(mention={"A": (1, 1, 1)})
        result = diagnose_report(report, ())
        row = result["ranked"][0]
        assert row["link_f1"] is None
        assert row["composite"] == pytest.approx(0.5 * 0.5 + 0.2)

    def test_render(self):
        report = _eval_report(mention={"A": (1, 1, 1)}, link={"A": (1, 0, 0)})
        result = diagnose_report(report, ["A", "LAW"])
        text = render_diagnose_table(result)
        assert "LAW" in text
        assert "composite" in text
