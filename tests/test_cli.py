import argparse
import gc
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coref_semscore import (
    LabelingConfig,
    cli,
    label_documents,
    model,
    read_jsonl_corpus,
    saved_reports,
)
from coref_semscore.cli import main
from coref_semscore.inventory import CategoryInventory
from coref_semscore.reporting import json_text, typed_report_dict
from coref_semscore.saved_reports import typed_report_from_dict
from coref_semscore.typed_metrics import ClassScore, TypedScoreReport
from conftest import COMPOSITE_RECORD, NEWS_RECORD
from corpusgen import random_corpus
from test_commands import command_inputs, write_jsonl


MINI_CORPUS = Path(__file__).resolve().parent / "data" / "mini_corpus.jsonl"


@pytest.fixture
def news_path(tmp_path):
    record = dict(NEWS_RECORD)
    record["predicted_clusters"] = record["gold_clusters"]
    return write_jsonl(tmp_path / "news.jsonl", [record])


@pytest.fixture
def corpus_path(tmp_path):
    rng = random.Random(99)
    records = random_corpus(rng, 12, ensure_links=True, ensure_direct=True)
    return write_jsonl(tmp_path / "corpus.jsonl", records)


def _typed_block(counts=(1, 0, 0), mode="mention", **row) -> dict:
    """A typed block as eval writes it, with one PER row of (tp, fp, fn)
    `counts`, and the fields in `row` put over that row."""
    source = "predicted" if mode == "link" else None
    scores = {"PER": ClassScore("PER", *counts)} if counts else {}
    block = typed_report_dict(TypedScoreReport(mode, scores, 0, 0, source))
    if counts:
        block["per_class"]["PER"].update(row)
    return block


def _subparsers() -> dict:
    (action,) = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


_IO = {"--gold", "--pred", "--cner", "--format", "--out"}
_LABELING = {"--tau", "--tau-inclusive", "--force-cluster-label"}


class TestOptionSets:
    """Every subcommand takes exactly the options it reads."""

    def test_each_subcommand_has_exactly_its_options(self):
        expected = {
            "label": _IO | _LABELING | {"--pronouns"},
            "eval": _IO | _LABELING | {"--typed-mention", "--typed-link", "--classic",
                                       "--link-mention-source", "--drop-singletons"},
            "coverage": _IO | _LABELING - {"--force-cluster-label"} | {"--pronouns"},
            "distribution": _IO - {"--pred"} | _LABELING,
            "compare": {"-a", "--report-a", "-b", "--report-b", "--pool-counts", "--out"},
            "diagnose": {"--eval-report", "--w-mention", "--w-link", "--rarity-cap", "--out"},
            "validate-labels": (_IO - {"--pred"} | _LABELING - {"--force-cluster-label"}
                                | {"--reference"}),
        }
        got = {
            name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
            for name, sub in _subparsers().items()
        }
        assert got == expected

    @pytest.mark.parametrize("argv", [
        ["eval", "--classic"],
        ["distribution"],
        ["validate-labels", "--reference", "ref.json"],
    ])
    def test_commands_without_coverage_reject_pronouns(self, tmp_path, news_path, capsys, argv):
        lexicon = tmp_path / "pronouns.txt"
        lexicon.write_text("he\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--gold", news_path, "--pronouns", str(lexicon)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --pronouns" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, option", [
        (["coverage", "--force-cluster-label"], "--force-cluster-label"),
        (["validate-labels", "--reference", "ref.json", "--force-cluster-label"],
         "--force-cluster-label"),
        (["distribution", "--pred", "pred.jsonl"], "--pred"),
    ])
    def test_options_that_change_no_output_are_rejected(self, news_path, capsys, argv, option):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--gold", news_path])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    def test_label_without_out_exits_2_before_reading_gold(self, tmp_path, capsys):
        missing = tmp_path / "no-such-corpus.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["label", "--gold", str(missing)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--out" in err
        assert str(missing) not in err

    def test_label_with_empty_out_exits_2_before_reading_gold(self, tmp_path, capsys):
        missing = tmp_path / "no-such-corpus.jsonl"
        assert main(["label", "--gold", str(missing), "--out", ""]) == 2
        err = capsys.readouterr().err
        assert "--out" in err
        assert str(missing) not in err


class TestLabelCommand:
    def test_labels_and_reports_coverage(self, tmp_path, news_path, capsys):
        out = tmp_path / "out"
        code = main(["label", "--gold", news_path, "--out", str(out)])
        assert code == 0
        lines = (out / "labeled.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        assert record["cluster_labels"]["gold"] == ["PER", "LOC"]
        assert record["mention_label_sources"]["gold"][0] == [
            "direct", "direct", "propagated", "propagated", "direct",
        ]
        coverage = json.loads((out / "coverage.json").read_text())
        assert coverage["gold"]["overall"]["any_pct"] == 100.0
        assert coverage["gold"]["pronoun"]["direct_pct"] == 0.0
        assert "labeling coverage" in capsys.readouterr().out

    def test_composite_fixture_propagates_to_plural(self, tmp_path):
        path = write_jsonl(tmp_path / "summit.jsonl", [COMPOSITE_RECORD])
        out = tmp_path / "out"
        assert main(["label", "--gold", path, "--out", str(out)]) == 0
        record = json.loads((out / "labeled.jsonl").read_text())
        assert record["cluster_labels"]["gold"] == ["PER", "PER", "PER"]
        assert record["mention_labels"]["gold"][2] == ["PER", "PER"]
        assert record["mention_label_sources"]["gold"][2] == ["direct", "propagated"]

    def test_empty_corpus(self, tmp_path):
        path = write_jsonl(tmp_path / "empty.jsonl", [])
        out = tmp_path / "out"
        assert main(["label", "--gold", path, "--out", str(out)]) == 0
        assert (out / "labeled.jsonl").read_text() == ""
        coverage = json.loads((out / "coverage.json").read_text())
        assert coverage["gold"]["overall"]["total"] == 0

    def test_pronoun_only_cluster_unlabeled(self, tmp_path):
        record = {
            "doc_id": "p0", "tokens": ["he", "him"],
            "gold_clusters": [[[0, 1], [1, 2]]], "cner": [],
        }
        extra = {
            "doc_id": "p1", "tokens": ["Rome", "falls"],
            "gold_clusters": [[[0, 1]]], "cner": [[0, 1, "LOC"]],
        }
        path = write_jsonl(tmp_path / "pron.jsonl", [record, extra])
        out = tmp_path / "out"
        assert main(["label", "--gold", path, "--out", str(out)]) == 0
        first = json.loads((out / "labeled.jsonl").read_text().splitlines()[0])
        assert first["cluster_labels"]["gold"] == [None]
        coverage = json.loads((out / "coverage.json").read_text())
        assert coverage["gold"]["overall"]["unlabeled"] == 2

    def test_tau_flag_changes_assignment(self, tmp_path):
        record = {
            "doc_id": "t0", "tokens": ["Mr.", "Stone", "waved"],
            "gold_clusters": [[[0, 2]]], "cner": [[1, 2, "PER"]],
        }
        path = write_jsonl(tmp_path / "tau.jsonl", [record])
        out_strict = tmp_path / "strict"
        assert main(["label", "--gold", path, "--out", str(out_strict)]) == 0
        strict = json.loads((out_strict / "labeled.jsonl").read_text())
        assert strict["cluster_labels"]["gold"] == [None]
        out_incl = tmp_path / "inclusive"
        assert main(["label", "--gold", path, "--tau-inclusive",
                     "--out", str(out_incl)]) == 0
        inclusive = json.loads((out_incl / "labeled.jsonl").read_text())
        assert inclusive["cluster_labels"]["gold"] == ["PER"]
        assert inclusive["mention_overlaps"]["gold"][0] == [0.5]

    def test_custom_pronoun_lexicon(self, tmp_path):
        record = {
            "doc_id": "x0", "tokens": ["thingy", "Rome"],
            "gold_clusters": [[[0, 1], [1, 2]]], "cner": [[1, 2, "LOC"]],
        }
        path = write_jsonl(tmp_path / "x.jsonl", [record])
        lex = tmp_path / "lex.txt"
        lex.write_text("thingy\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["label", "--gold", path, "--pronouns", str(lex),
                     "--out", str(out)]) == 0
        coverage = json.loads((out / "coverage.json").read_text())
        assert coverage["gold"]["pronoun"]["total"] == 1
        assert coverage["gold"]["pronoun"]["propagated"] == 1


class TestEvalCommand:
    def test_identity_full_report(self, tmp_path, news_path):
        out = tmp_path / "out"
        code = main(["eval", "--gold", news_path, "--typed-mention", "--typed-link",
                     "--classic", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "eval_report.json").read_text())
        for mode in ("typed_mention", "typed_link"):
            per_class = report[mode]["per_class"]
            assert per_class
            assert all(row["f1"] == 1.0 for row in per_class.values())
            assert report[mode]["macro_f1"] == 1.0
        assert report["classic"]["conll_f1"] == 1.0

    def test_determinism_byte_identical(self, tmp_path, corpus_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["eval", "--gold", corpus_path, "--typed-mention", "--typed-link",
                "--classic"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert (out_a / "eval_report.json").read_bytes() == \
            (out_b / "eval_report.json").read_bytes()
        assert (out_a / "eval_report.txt").read_bytes() == \
            (out_b / "eval_report.txt").read_bytes()

    def test_negative_zero_tau_writes_the_report_of_zero_tau(self, tmp_path):
        # score > -0.0 is score > 0.0, so both runs label alike and must
        # write the same bytes, "tau": 0.0 included.
        outputs = []
        for tau in ("-0.0", "0"):
            out = tmp_path / tau
            assert main(["eval", "--gold", str(MINI_CORPUS), "--tau", tau, "--typed-mention",
                         "--typed-link", "--classic", "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("eval_report.json", "eval_report.txt")])
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][0])["config"]["tau"] == 0.0
        assert b'"tau": 0.0' in outputs[0][0]

    def test_requires_a_mode_flag(self, news_path, capsys):
        assert main(["eval", "--gold", news_path]) == 2
        assert "requires at least one" in capsys.readouterr().err

    def test_typed_without_cner_exits_3(self, tmp_path, capsys):
        record = {"doc_id": "d0", "tokens": ["a", "b"],
                  "gold_clusters": [[[0, 1]]], "predicted_clusters": [[[0, 1]]]}
        path = write_jsonl(tmp_path / "bare.jsonl", [record])
        assert main(["eval", "--gold", path, "--typed-mention"]) == 3
        assert "semantic spans" in capsys.readouterr().err

    def test_classic_without_cner_succeeds(self, tmp_path):
        record = {"doc_id": "d0", "tokens": ["a", "b"],
                  "gold_clusters": [[[0, 1], [1, 2]]],
                  "predicted_clusters": [[[0, 1], [1, 2]]]}
        path = write_jsonl(tmp_path / "bare.jsonl", [record])
        out = tmp_path / "out"
        assert main(["eval", "--gold", path, "--classic", "--out", str(out)]) == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert report["classic"]["muc"]["f1"] == 1.0
        assert report["typed_mention"] is None

    def test_cner_file_of_doc_id_and_cner_records(self, tmp_path):
        record = {"doc_id": "doc1", "tokens": ["Mr.", "Clinton", "is", "overseas", ".", "He"],
                  "gold_clusters": [[[0, 2], [5, 6]]],
                  "predicted_clusters": [[[0, 2], [5, 6]]]}
        gold = write_jsonl(tmp_path / "g.jsonl", [record])
        cner = write_jsonl(tmp_path / "c.jsonl", [{"doc_id": "doc1", "cner": [[0, 2, "PER"]]}])
        out = tmp_path / "out"
        assert main(["eval", "--gold", gold, "--cner", cner, "--typed-link",
                     "--out", str(out)]) == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert report["config"]["cner"] == "c.jsonl"
        assert report["typed_link"]["per_class"]["PER"]["tp"] == 1

    @pytest.mark.parametrize("cner_record, message", [
        ({"doc_id": "doc1", "cner": [[0, 9, "PER"]]}, "out of range"),
        ({"doc_id": "doc1"}, "missing required field 'cner'"),
        ({"doc_id": "nope", "cner": []}, "unknown doc_ids: nope"),
    ])
    def test_bad_cner_record_exits_2(self, tmp_path, capsys, cner_record, message):
        record = {"doc_id": "doc1", "tokens": ["a", "b"],
                  "gold_clusters": [[[0, 1]]], "predicted_clusters": [[[0, 1]]]}
        gold = write_jsonl(tmp_path / "g.jsonl", [record])
        cner = write_jsonl(tmp_path / "c.jsonl", [cner_record])
        assert main(["eval", "--gold", gold, "--cner", cner, "--typed-link"]) == 2
        assert message in capsys.readouterr().err

    def test_missing_predictions_exit_3(self, tmp_path, capsys):
        record = {"doc_id": "d0", "tokens": ["a"], "gold_clusters": [[[0, 1]]],
                  "cner": [[0, 1, "PER"]]}
        path = write_jsonl(tmp_path / "nopred.jsonl", [record])
        assert main(["eval", "--gold", path, "--classic"]) == 3
        assert "predicted clusters" in capsys.readouterr().err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"doc_id": "d0", "tokens": ["a"]}\n{oops\n', encoding="utf-8")
        assert main(["eval", "--gold", str(path), "--classic"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_validation_error_exits_2(self, tmp_path, capsys):
        record = {"doc_id": "d0", "tokens": ["a"], "gold_clusters": [[[0, 9]]]}
        path = write_jsonl(tmp_path / "invalid.jsonl", [record])
        assert main(["eval", "--gold", str(path), "--classic"]) == 2
        assert "[0, 9)" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("sentence_boundaries", ["x"],
         "line 1: sentence_boundaries: token indices must be integers, got ['x']"),
        ("sentence_boundaries", 3, "line 1: sentence_boundaries: expected a list"),
        ("tokens", 1.5, "line 1: tokens: expected a list of token strings, got float"),
        ("tokens", None, "line 1: tokens: expected a list"),
        ("gold_clusters", [7], "line 1: gold_clusters[0]: expected a list of [start, end] pairs"),
        ("gold_clusters", [[[0, 1.5]]], "line 1: gold_clusters[0][0]: span bounds must be integers"),
        ("cluster_labels", {"gold": [["PER"]]}, "line 1: gold_clusters[0]: label must be"),
        ("cluster_labels", {"gold": 1}, "line 1: cluster_labels[gold]: expected a list as long"),
        ("mention_labels", {"gold": [["PER"]]},
         "line 1: mention_labels[gold][0]: expected a list as long as gold_clusters[0]"),
        ("mention_labels", {"gold": [[None, 4]]}, "line 1: gold_clusters[0][1]: label must be"),
        ("mention_overlaps", {"gold": [[[1.0], None]]}, "line 1: gold_clusters[0][0]: float()"),
        ("sentence_boundaries", [1.5, True],
         "line 1: sentence_boundaries: token indices must be integers, got [1.5, True]"),
        ("sentence_boundaries", [0, True],
         "line 1: sentence_boundaries: token indices must be integers, got [0, True]"),
        ("sentence_boundaries", [5, -1], "line 1: sentence_boundaries: token indices must be "
         "strictly increasing and in [0, 2), got [5, -1]"),
        ("sentence_boundaries", [0, 0], "line 1: sentence_boundaries: token indices must be "
         "strictly increasing and in [0, 2), got [0, 0]"),
        ("sentence_boundaries", [2], "line 1: sentence_boundaries: token indices must be "
         "strictly increasing and in [0, 2), got [2]"),
    ])
    def test_malformed_record_field_exits_2(self, tmp_path, capsys, field, value, message):
        record = {"doc_id": "d0", "tokens": ["a", "b"], "gold_clusters": [[[0, 1], [1, 2]]],
                  "predicted_clusters": [[[0, 1], [1, 2]]], field: value}
        path = write_jsonl(tmp_path / "bad.jsonl", [record])
        assert main(["eval", "--gold", path, "--classic"]) == 2
        assert message in capsys.readouterr().err

    def test_separate_pred_file(self, tmp_path):
        gold = {"doc_id": "d0", "tokens": ["Rome", "is", "Rome"],
                "gold_clusters": [[[0, 1], [2, 3]]],
                "cner": [[0, 1, "LOC"], [2, 3, "LOC"]]}
        pred = {"doc_id": "d0", "tokens": ["Rome", "is", "Rome"],
                "predicted_clusters": [[[0, 1], [2, 3]]]}
        gold_path = write_jsonl(tmp_path / "gold.jsonl", [gold])
        pred_path = write_jsonl(tmp_path / "pred.jsonl", [pred])
        out = tmp_path / "out"
        assert main(["eval", "--gold", gold_path, "--pred", pred_path,
                     "--typed-link", "--link-mention-source", "gold",
                     "--out", str(out)]) == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert report["typed_link"]["per_class"]["LOC"]["f1"] == 1.0
        assert report["typed_link"]["containment_violations"] == 0
        assert report["config"]["link_mention_source"] == "gold"

    def test_doc_id_mismatch_exits_2(self, tmp_path, capsys):
        gold = {"doc_id": "d0", "tokens": ["a"], "gold_clusters": [[[0, 1]]]}
        pred = {"doc_id": "d1", "tokens": ["a"], "predicted_clusters": [[[0, 1]]]}
        gold_path = write_jsonl(tmp_path / "gold.jsonl", [gold])
        pred_path = write_jsonl(tmp_path / "pred.jsonl", [pred])
        assert main(["eval", "--gold", gold_path, "--pred", pred_path,
                     "--classic"]) == 2
        err = capsys.readouterr().err
        assert "d0" in err and "d1" in err

    def test_drop_singletons_changes_classic(self, tmp_path):
        record = {"doc_id": "d0", "tokens": ["a", "b", "c", "d"],
                  "gold_clusters": [[[0, 1], [1, 2]], [[2, 3]]],
                  "predicted_clusters": [[[0, 1], [1, 2]], [[3, 4]]]}
        path = write_jsonl(tmp_path / "s.jsonl", [record])
        out_keep, out_drop = tmp_path / "keep", tmp_path / "drop"
        assert main(["eval", "--gold", path, "--classic", "--out", str(out_keep)]) == 0
        assert main(["eval", "--gold", path, "--classic", "--drop-singletons",
                     "--out", str(out_drop)]) == 0
        keep = json.loads((out_keep / "eval_report.json").read_text())
        drop = json.loads((out_drop / "eval_report.json").read_text())
        assert drop["classic"]["b_cubed"]["f1"] == 1.0
        assert keep["classic"]["b_cubed"]["f1"] < 1.0
        assert drop["config"]["drop_singletons"] is True

    def test_conll_format_input(self, tmp_path):
        gold_text = (
            "#begin document (demo); part 000\n"
            "demo 0 0 Rome NNP (0)\n"
            "demo 0 1 is VBZ -\n"
            "demo 0 2 Rome NNP (0)\n"
            "#end document\n"
        )
        gold_path = tmp_path / "gold.conll"
        gold_path.write_text(gold_text, encoding="utf-8")
        pred_path = tmp_path / "pred.conll"
        pred_path.write_text(gold_text, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["eval", "--gold", str(gold_path), "--pred", str(pred_path),
                     "--format", "conll", "--classic", "--out", str(out)]) == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert report["classic"]["conll_f1"] == 1.0

    def test_prelabeled_corpus_reused_without_cner(self, tmp_path, news_path):
        out_label = tmp_path / "labeled"
        assert main(["label", "--gold", news_path, "--out", str(out_label)]) == 0
        labeled_path = out_label / "labeled.jsonl"
        record = json.loads(labeled_path.read_text())
        record["cner"] = []
        bare = write_jsonl(tmp_path / "prelabeled.jsonl", [record])
        out = tmp_path / "out"
        assert main(["eval", "--gold", bare, "--typed-mention",
                     "--out", str(out)]) == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert report["typed_mention"]["macro_f1"] == 1.0

    @staticmethod
    def _labeled_gold_and_raw_pred(tmp_path):
        gold = {"doc_id": "d0", "tokens": ["Rome", "is", "Rome"],
                "gold_clusters": [[[0, 1], [2, 3]]],
                "cner": [[0, 1, "LOC"], [2, 3, "LOC"]]}
        pred = {"doc_id": "d0", "tokens": ["Rome", "is", "Rome"],
                "predicted_clusters": [[[0, 1], [2, 3]]]}
        gold_path = write_jsonl(tmp_path / "gold.jsonl", [gold])
        pred_path = write_jsonl(tmp_path / "pred.jsonl", [pred])
        out_label = tmp_path / "labeled"
        assert main(["label", "--gold", gold_path, "--out", str(out_label)]) == 0
        return out_label / "labeled.jsonl", pred_path

    def test_labeled_gold_with_raw_predictions_labels_predictions(self, tmp_path):
        labeled_path, pred_path = self._labeled_gold_and_raw_pred(tmp_path)
        out = tmp_path / "out"
        assert main(["eval", "--gold", str(labeled_path), "--pred", pred_path,
                     "--typed-mention", "--typed-link", "--out", str(out)]) == 0
        report = json.loads((out / "eval_report.json").read_text())
        for mode in ("typed_mention", "typed_link"):
            assert report[mode]["per_class"]["LOC"]["f1"] == 1.0
            assert report[mode]["micro"]["f1"] == 1.0

    def test_unlabeled_predictions_without_spans_exit_3(self, tmp_path, capsys):
        labeled_path, pred_path = self._labeled_gold_and_raw_pred(tmp_path)
        record = json.loads(labeled_path.read_text())
        record["cner"] = []
        bare = write_jsonl(tmp_path / "bare.jsonl", [record])
        assert main(["eval", "--gold", bare, "--pred", pred_path, "--typed-mention"]) == 3
        err = capsys.readouterr().err
        assert "semantic spans" in err and "predicted" in err
        # The gold-only label distribution neither reads nor labels predictions.
        assert main(["distribution", "--gold", bare]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["distribution", "--gold", bare, "--pred", pred_path])
        assert exc.value.code == 2

    def test_fully_labeled_corpus_is_not_labeled_again(self, tmp_path, corpus_path, monkeypatch):
        out_label = tmp_path / "labeled"
        assert main(["label", "--gold", corpus_path, "--out", str(out_label)]) == 0

        def fail(*args, **kwargs):
            raise AssertionError("a labeled corpus was labeled again")

        monkeypatch.setattr(cli, "label_documents", fail)
        assert main(["eval", "--gold", str(out_label / "labeled.jsonl"), "--typed-mention",
                     "--typed-link", "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("inclusive", [False, True])
    def test_reused_direct_label_that_fails_tau_exits_2(self, tmp_path, capsys, inclusive):
        # At tau 0.1 mentions are labeled directly at overlaps that tau 0.9
        # rejects, so scoring that file at tau 0.9 would score other labels.
        out_label = tmp_path / "labeled"
        assert main(["label", "--gold", str(MINI_CORPUS), "--tau", "0.1",
                     "--out", str(out_label)]) == 0
        capsys.readouterr()
        argv = ["eval", "--gold", str(out_label / "labeled.jsonl"), "--tau", "0.9",
                "--typed-mention", "--typed-link"]
        assert main(argv + ["--tau-inclusive"] * inclusive) == 2
        test = ">=" if inclusive else ">"
        assert capsys.readouterr().err == (
            "error: cannot reuse the gold labels of doc 'mini0000': span [71, 72) has a "
            f"direct label at overlap 0.5, not {test} tau 0.9; label the unlabeled "
            "corpus at this tau\n")

    def test_refuses_exactly_when_labeling_again_would_differ(self):
        # A corpus labeled at tau 0.1, reused at tau 0.1 and at every
        # stricter test: the direct overlaps are the taus where tests part.
        raw = read_jsonl_corpus(MINI_CORPUS, CategoryInventory.default())
        labeled = label_documents(raw, LabelingConfig(0.1))
        overlaps = {m.assignment_overlap for doc in labeled for side in ("gold", "predicted")
                    for c in doc.clusters(side) for m in c.mentions} - {None}
        configs = [LabelingConfig(0.1), *(
            LabelingConfig(tau, inclusive) for tau in sorted(overlaps) for inclusive in (False, True)
        )]
        refusals = 0
        for cfg in configs:
            try:
                cli._ensure_labeled(labeled, cfg)
                refused = False
            except cli.CliError as exc:
                assert exc.code == 2
                refused = True
            assert refused == (label_documents(raw, cfg) != labeled), cfg
            refusals += refused
        assert 0 < refusals < len(configs)

    def test_reuse_at_the_labeling_tau_scores_as_a_fresh_run(self, tmp_path):
        out_label = tmp_path / "labeled"
        assert main(["label", "--gold", str(MINI_CORPUS), "--tau", "0.1",
                     "--out", str(out_label)]) == 0
        reports = []
        for name, gold in (("reused", out_label / "labeled.jsonl"), ("fresh", MINI_CORPUS)):
            out = tmp_path / name
            assert main(["eval", "--gold", str(gold), "--tau", "0.1", "--typed-mention",
                         "--typed-link", "--out", str(out)]) == 0
            reports.append(json.loads((out / "eval_report.json").read_text(encoding="utf-8")))
        reused, fresh = reports
        for mode in ("typed_mention", "typed_link"):
            assert reused[mode] == fresh[mode]


class TestEvalSharesTables:
    """eval builds each document's overlap table once and scores every mode from it."""

    MODES = {"typed_mention": "--typed-mention", "typed_link": "--typed-link",
             "classic": "--classic"}

    @pytest.mark.parametrize("drop, per_doc", [([], 1), (["--drop-singletons"], 2)])
    def test_one_table_per_document(self, tmp_path, monkeypatch, drop, per_doc):
        built: Counter = Counter()
        build = model.contingency

        def counted(doc):
            built[doc.doc_id] += 1
            return build(doc)

        monkeypatch.setattr(model, "contingency", counted)
        assert main(["eval", "--gold", str(MINI_CORPUS), *self.MODES.values(), *drop,
                     "--out", str(tmp_path)]) == 0
        doc_ids = [json.loads(line)["doc_id"] for line in MINI_CORPUS.read_text(encoding="utf-8").splitlines()]
        assert built == {doc_id: per_doc for doc_id in doc_ids}

    def test_each_block_equals_its_mode_alone(self, tmp_path):
        """Any set of modes, with or without --drop-singletons, gives each
        block the bytes of that mode run alone; dropping singletons changes
        the classic block only."""
        def blocks(modes, drop):
            out = tmp_path / "_".join((*modes, *drop))
            flags = [self.MODES[mode] for mode in modes]
            assert main(["eval", "--gold", str(MINI_CORPUS), *flags, *drop,
                         "--out", str(out)]) == 0
            report = json.loads((out / "eval_report.json").read_text(encoding="utf-8"))
            return {mode: report[mode] for mode in self.MODES}

        subsets = [modes for size in (1, 2, 3) for modes in combinations(self.MODES, size)]
        runs = {(modes, drop): blocks(modes, drop)
                for modes in subsets for drop in ((), ("--drop-singletons",))}
        alone = {(mode, drop): runs[(mode,), drop][mode]
                 for mode in self.MODES for drop in ((), ("--drop-singletons",))}
        assert alone["classic", ()] != alone["classic", ("--drop-singletons",)]
        for (modes, drop), got in runs.items():
            assert got == {
                mode: alone[mode, drop if mode == "classic" else ()] if mode in modes else None
                for mode in self.MODES
            }


class TestTypedBlockRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["predicted", "gold"]))
    def test_eval_written_blocks_read_back_exactly(self, seed, source):
        records = random_corpus(random.Random(seed), 3, ensure_links=True, ensure_direct=True)
        with tempfile.TemporaryDirectory() as tmp:
            corpus = write_jsonl(Path(tmp) / "c.jsonl", records)
            assert main(["eval", "--gold", corpus, "--typed-mention", "--typed-link",
                         "--link-mention-source", source, "--out", tmp]) == 0
            report = json.loads((Path(tmp) / "eval_report.json").read_text(encoding="utf-8"))
        for mode in ("typed_mention", "typed_link"):
            block = report[mode]
            assert json_text(typed_report_dict(typed_report_from_dict(block))) == json_text(block)


class TestCoverageAndDistributionCommands:
    def test_coverage_command(self, tmp_path, news_path):
        out = tmp_path / "out"
        assert main(["coverage", "--gold", news_path, "--out", str(out)]) == 0
        data = json.loads((out / "coverage.json").read_text())
        assert data["gold"]["overall"]["direct"] == 5
        assert data["predicted"]["overall"]["total"] == 7

    def test_distribution_command(self, tmp_path, news_path):
        out = tmp_path / "out"
        assert main(["distribution", "--gold", news_path, "--out", str(out)]) == 0
        data = json.loads((out / "distribution.json").read_text())
        assert data["counts"] == {"PER": 5, "LOC": 2}
        assert "MONEY" in data["absent_labels"]
        assert abs(sum(data["shares"].values()) - 1.0) < 1e-9


class TestCompareCommand:
    def _eval(self, tmp_path, name, records):
        path = write_jsonl(tmp_path / f"{name}.jsonl", records)
        out = tmp_path / name
        assert main(["eval", "--gold", path, "--typed-mention", "--typed-link",
                     "--out", str(out)]) == 0
        return str(out / "eval_report.json")

    @pytest.mark.parametrize("counts, row, problem", [
        ((1, 1, 1), {"tp": -5}, "per_class.PER.tp must be an integer >= 0, got -5"),
        ((1, 1, 1), {"tp": 2.5}, "per_class.PER.tp must be an integer >= 0, got 2.5"),
        ((1, 0, 1), {"support": 3}, "per_class.PER.support is 3, but its counts give 2"),
        ((1, 0, 0), {"support": 1.0}, "per_class.PER.support is 1.0, but its counts give 1"),
    ], ids=["negative", "fractional", "support-not-tp-plus-fn", "float-support"])
    def test_row_counts_must_be_counts(self, tmp_path, capsys, counts, row, problem):
        path = self._one_row_report(tmp_path, _typed_block(counts, **row))
        for argv in self._readers(path):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {path}: typed_mention: {problem}\n"

    def test_bool_count_is_not_a_count(self, tmp_path, capsys):
        path = self._one_row_report(tmp_path, _typed_block(tp=True))
        for argv in self._readers(path):
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                f"error: {path}: typed_mention: per_class.PER.tp must be an integer >= 0, "
                "got True\n"
            )

    def test_f1_its_counts_do_not_give_is_refused(self, tmp_path, capsys):
        # The same counts with two F1s: read as written, the two compare
        # modes disagreed on the delta (+0.75 against +0.0).
        path_a = str(self._one_row_report(tmp_path, _typed_block(f1=0.25), "a.json"))
        path_b = str(self._one_row_report(tmp_path, _typed_block(f1=1.0), "b.json"))
        for argv in (["compare", "-a", path_a, "-b", path_b],
                     ["compare", "-a", path_a, "-b", path_b, "--pool-counts"],
                     ["diagnose", "--eval-report", path_a]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: {path_a}: typed_mention: per_class.PER.f1 is 0.25, "
                                    "but its counts give 1.0\n")
        assert main(["compare", "-a", path_b, "-b", path_b]) == 0

    @pytest.mark.parametrize("seed", [5, 17])
    def test_one_report_per_system_gives_one_figure_in_both_modes(self, tmp_path, seed):
        records = random_corpus(random.Random(seed), 6, ensure_links=True, ensure_direct=True)
        # System B predicts the gold clusters; its corpus file has A's name,
        # so the two reports name the same gold corpus.
        (tmp_path / "b").mkdir()
        report_a = self._eval(tmp_path, "a", records)
        report_b = self._eval(tmp_path / "b", "a", [dict(r, predicted_clusters=r["gold_clusters"])
                                                     for r in records])
        results = []
        for flags in ([], ["--pool-counts"]):
            out = tmp_path / f"cmp{len(flags)}"
            assert main(["compare", "-a", report_a, "-b", report_b, *flags,
                         "--out", str(out)]) == 0
            result = json.loads((out / "compare.json").read_text(encoding="utf-8"))
            results.append({k: v for k, v in result.items() if k != "averaging"})
        assert results[0] == results[1]
        assert results[0]["mention"]["per_class"] and results[0]["link"]["per_class"]

    @staticmethod
    def _one_row_report(tmp_path, block, name="report.json") -> Path:
        path = tmp_path / name
        path.write_text(json.dumps({"typed_mention": block}), encoding="utf-8")
        return path

    @staticmethod
    def _readers(path) -> list[list[str]]:
        return [["compare", "-a", str(path), "-b", str(path), "--pool-counts"],
                ["diagnose", "--eval-report", str(path)]]

    def test_compare_identity_and_csv(self, tmp_path):
        rng = random.Random(5)
        records = random_corpus(rng, 6, ensure_links=True, ensure_direct=True)
        report = self._eval(tmp_path, "a", records)
        out = tmp_path / "cmp"
        assert main(["compare", "-a", report, "-b", report, "--out", str(out)]) == 0
        data = json.loads((out / "compare.json").read_text())
        assert all(row["delta"] == 0.0 for row in data["mention"]["per_class"].values())
        csv_lines = (out / "compare_mention.csv").read_text().splitlines()
        assert csv_lines[0] == "class,delta"
        assert len(csv_lines) == len(data["mention"]["per_class"]) + 1

    def test_compare_mode_mismatch_exits_2(self, tmp_path, news_path, capsys):
        out_full = tmp_path / "full"
        assert main(["eval", "--gold", news_path, "--typed-mention", "--typed-link",
                     "--out", str(out_full)]) == 0
        out_mention = tmp_path / "mention"
        assert main(["eval", "--gold", news_path, "--typed-mention",
                     "--out", str(out_mention)]) == 0
        assert main(["compare", "-a", str(out_full / "eval_report.json"),
                     "-b", str(out_mention / "eval_report.json")]) == 2
        assert "mode mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("field, name, seed, flags", [
        ("config.gold", "other.jsonl", 5, []),
        ("config.tau", "corpus.jsonl", 5, ["--tau", "0.9"]),
        ("config.tau_inclusive", "corpus.jsonl", 5, ["--tau-inclusive"]),
        ("config.force_cluster_label", "corpus.jsonl", 5, ["--force-cluster-label"]),
        ("config.link_mention_source", "corpus.jsonl", 5, ["--link-mention-source", "gold"]),
        ("typed_mention support of ", "corpus.jsonl", 6, []),
    ])
    def test_compare_refuses_differently_labeled_reports(self, tmp_path, capsys, field, name,
                                                         seed, flags):
        def evaluate(system, name, seed, flags):
            (tmp_path / system).mkdir()
            records = random_corpus(random.Random(seed), 6, ensure_links=True,
                                    ensure_direct=True)
            path = write_jsonl(tmp_path / system / name, records)
            out = tmp_path / system / "out"
            assert main(["eval", "--gold", path, "--typed-mention", "--typed-link", *flags,
                         "--out", str(out)]) == 0
            return str(out / "eval_report.json")

        report_a = evaluate("a", "corpus.jsonl", 5, [])
        report_b = evaluate("b", name, seed, flags)
        capsys.readouterr()
        assert main(["compare", "-a", report_a, "-b", report_b]) == 2
        assert f"error: cannot compare {report_a} with {report_b}: {field}" in (
            capsys.readouterr().err
        )


class TestDiagnoseCommand:
    # PER labels a two-mention cluster, LOC only a singleton: LOC has gold
    # mention support but no gold link support.
    SINGLETON_RECORD = {
        "doc_id": "s0", "tokens": ["a", "b", "c"],
        "gold_clusters": [[[0, 1], [1, 2]], [[2, 3]]],
        "predicted_clusters": [[[0, 1], [1, 2]], [[2, 3]]],
        "cner": [[0, 1, "PER"], [1, 2, "PER"], [2, 3, "LOC"]],
    }

    @staticmethod
    def _diagnose(tmp_path, corpus, modes, *flags):
        out_eval, out = tmp_path / "eval", tmp_path / "diag"
        assert main(["eval", "--gold", corpus, *modes, "--out", str(out_eval)]) == 0
        assert main(["diagnose", "--eval-report", str(out_eval / "eval_report.json"),
                     *flags, "--out", str(out)]) == 0
        return json.loads((out / "diagnose.json").read_text())

    def test_diagnose_outputs(self, tmp_path, news_path):
        data = self._diagnose(tmp_path, news_path, ["--typed-mention", "--typed-link"])
        assert "MONEY" in data["absent_classes"]
        composites = [row["composite"] for row in data["ranked"]]
        assert composites == sorted(composites)
        assert data["weights"] == {"mention": 0.5, "link": 0.5, "rarity_cap": 0.2}

    @pytest.mark.parametrize("modes, supported", [
        (["--typed-mention", "--typed-link"], {"PER", "LOC"}),
        (["--typed-link"], {"PER"}),
    ])
    def test_absent_classes_are_inventory_labels_without_gold_support(
        self, tmp_path, modes, supported
    ):
        corpus = write_jsonl(tmp_path / "s.jsonl", [self.SINGLETON_RECORD])
        data = self._diagnose(tmp_path, corpus, modes)
        assert data["absent_classes"] == sorted(set(CategoryInventory.default().labels)
                                                - supported)
        assert {row["label"] for row in data["ranked"]} == {"PER"} | supported

    def test_absent_classes_match_distribution_in_mention_mode(self, tmp_path, corpus_path):
        data = self._diagnose(tmp_path, corpus_path, ["--typed-mention"])
        out = tmp_path / "dist"
        assert main(["distribution", "--gold", corpus_path, "--out", str(out)]) == 0
        dist = json.loads((out / "distribution.json").read_text())
        assert data["absent_classes"] == dist["absent_labels"]

    def test_absent_classes_come_from_the_active_inventory(self, tmp_path, monkeypatch):
        inv_path = tmp_path / "inv.json"
        inv_path.write_text(json.dumps([{"label": "FOO"}, {"label": "BAR"}, {"label": "BAZ"}]),
                            encoding="utf-8")
        monkeypatch.setenv("COREF_SEMSCORE_INVENTORY", str(inv_path))
        record = {"doc_id": "d0", "tokens": ["x", "y"], "gold_clusters": [[[0, 1], [1, 2]]],
                  "predicted_clusters": [[[0, 1], [1, 2]]], "cner": [[0, 1, "FOO"]]}
        corpus = write_jsonl(tmp_path / "c.jsonl", [record])
        data = self._diagnose(tmp_path, corpus, ["--typed-mention"])
        assert data["absent_classes"] == ["BAR", "BAZ"]

    def test_distribution_report_option_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["diagnose", "--eval-report", "r.json", "--distribution-report", "d.json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --distribution-report" in capsys.readouterr().err

    @staticmethod
    def _report(tmp_path, **row) -> str:
        """Both typed blocks with one PER row of counts tp 0, fp 1, fn 1,
        and the fields in `row` put over the mention row."""
        report = {"typed_mention": _typed_block((0, 1, 1), **row),
                  "typed_link": _typed_block((0, 1, 1), mode="link")}
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("f1, support, problem", [
        (2.5, 3, "f1 is 2.5, but its counts give 0.0"),
        (-0.5, 3, "f1 is -0.5, but its counts give 0.0"),
        (0.5, -1, "f1 is 0.5, but its counts give 0.0"),
        (0.0, -1, "support is -1, but its counts give 1"),
    ])
    def test_scores_outside_their_range_exit_2(self, tmp_path, capsys, f1, support, problem):
        report = self._report(tmp_path, f1=f1, support=support)
        assert main(["diagnose", "--eval-report", report]) == 2
        assert capsys.readouterr().err == (
            f"error: {report}: typed_mention: per_class.PER.{problem}\n"
        )

    def test_macro_f1_outside_0_1_exits_2(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"typed_mention": {**_typed_block(None), "macro_f1": 1.5}}),
                        encoding="utf-8")
        assert main(["diagnose", "--eval-report", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: typed_mention: macro_f1 is 1.5, but its counts give 0.0\n"
        )

    @pytest.mark.parametrize("out", [False, True])
    def test_composite_that_overflows_exits_2(self, tmp_path, capsys, out):
        out_args = ["--out", str(tmp_path / "o")] if out else []
        assert main(["diagnose", "--eval-report", self._report(tmp_path),
                     "--w-mention", "1.7e308", "--w-link", "1.7e308", *out_args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: composite of PER is not a finite number with --w-mention 1.7e+308, "
            "--w-link 1.7e+308 and --rarity-cap 0.2; use smaller weights\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("option, value", [
        ("--w-mention", "nan"),
        ("--w-link", "inf"),
        ("--w-link", "-0.5"),
        ("--rarity-cap", "-5"),
        ("--rarity-cap", "abc"),
    ])
    def test_weight_must_be_finite_and_not_negative(self, capsys, option, value):
        with pytest.raises(SystemExit) as exc:
            main(["diagnose", "--eval-report", "r.json", option, value])
        assert exc.value.code == 2
        assert (f"argument {option}: must be a finite number >= 0, got {value!r}"
                in capsys.readouterr().err)


class TestValidateLabelsCommand:
    def test_agreement_flow(self, tmp_path, news_path, capsys):
        reference = {"news0": {"0": "PER", "1": "LOC"}}
        ref_path = tmp_path / "ref.json"
        ref_path.write_text(json.dumps(reference), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["validate-labels", "--gold", news_path, "--reference",
                     str(ref_path), "--out", str(out)]) == 0
        data = json.loads((out / "agreement.json").read_text())
        assert data["precision"] == data["recall"] == data["f1"] == 1.0
        assert data["reference_entries"] == 2

    def test_partial_agreement(self, tmp_path, news_path):
        reference = {"news0": {"0": "PER", "1": "ORG"}}
        ref_path = tmp_path / "ref.json"
        ref_path.write_text(json.dumps(reference), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["validate-labels", "--gold", news_path, "--reference",
                     str(ref_path), "--out", str(out)]) == 0
        data = json.loads((out / "agreement.json").read_text())
        assert data["precision"] == 0.5
        assert data["true_positives"] == 1

    def test_bad_reference_key_exits_2(self, tmp_path, news_path, capsys):
        ref_path = tmp_path / "ref.json"
        ref_path.write_text(json.dumps({"nope": {"0": "PER"}}), encoding="utf-8")
        assert main(["validate-labels", "--gold", news_path,
                     "--reference", str(ref_path)]) == 2
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("reference, where", [
        (["news0", {"0": "PER"}], "ref.json: expected a JSON object"),
        ({"news0": {"first": "PER"}}, "ref.json: doc 'news0', key 'first'"),
        ({"news0": ["PER"]}, "ref.json: doc 'news0': expected an object"),
        ({"news0": {"0": 3}}, "ref.json: doc 'news0', key '0': label must be a string"),
        ({"news0": {"0": "P3R"}}, "ref.json: doc 'news0', key '0': bad category label"),
        ({"news0": {"0": "PER", "00": "LOC"}},
         "ref.json: doc 'news0', key '00': cluster 0 already has a label from another key"),
        ('{"news0": {"0": "PER", "0": "LOC"}}', "ref.json: repeated JSON key '0'"),
        ('{"news0": {"0": "PER"}, "news0": {"1": "LOC"}}', "ref.json: repeated JSON key 'news0'"),
    ])
    def test_malformed_reference_exits_2_naming_file_doc_and_key(
        self, tmp_path, news_path, capsys, reference, where
    ):
        ref_path = tmp_path / "ref.json"
        ref_path.write_text(reference if isinstance(reference, str) else json.dumps(reference),
                            encoding="utf-8")
        assert main(["validate-labels", "--gold", news_path,
                     "--reference", str(ref_path)]) == 2
        assert where in capsys.readouterr().err


def _json_cell(value) -> str:
    """A JSON value as its table cell: an int as it is, a float at 4
    decimals, null as -."""
    if value is None:
        return "-"
    if type(value) is float:
        return f"{value:.4f}"
    assert type(value) is int
    return str(value)


def _parse_table(text: str, head) -> tuple[list[str], list[list[str]]]:
    """The header and rows of the first aligned table below the title line
    of `text` whose header starts with `head`: the lines after the header
    with as many cells."""
    lines = [line.split() for line in text.splitlines()]
    start = next(i for i, cells in enumerate(lines) if i and cells[:len(head)] == list(head))
    header = lines[start]
    rows = []
    for cells in lines[start + 1:]:
        if len(cells) != len(header):
            break
        rows.append(cells)
    return header, rows


class TestTablesShowJson:
    """Each text table is a view of the JSON rows its command writes: the
    header is the leading cells' names plus a row's keys, and each cell is
    the row's value at that key."""

    @staticmethod
    def _written(tmp_path, name, argv, stem):
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        return ((out / f"{stem}.txt").read_text(encoding="utf-8"),
                json.loads((out / f"{stem}.json").read_text(encoding="utf-8")))

    @staticmethod
    def _assert_view(text, head, rows):
        """`rows` are (leading cells, JSON row) pairs, in table order."""
        header, lines = _parse_table(text, head)
        assert header == [*head, *rows[0][1]]
        assert lines == [[*lead, *map(_json_cell, row.values())] for lead, row in rows]

    def _assert_typed(self, text, block):
        per_class = block["per_class"]
        assert per_class
        micro = {**block["micro"], "support": block["micro"]["tp"] + block["micro"]["fn"]}
        assert list(micro) == list(next(iter(per_class.values())))
        rows = [((label,), row) for label, row in per_class.items()]
        self._assert_view(text, ["class"], [*rows, (("micro",), micro)])

    def _assert_coverage(self, text, data):
        rows = [((side, scope), row) for side, scopes in data.items()
                for scope, row in scopes.items()]
        assert len(rows) == 4
        self._assert_view(text, ["side", "mentions"], rows)

    def _assert_diagnose(self, text, data):
        rows = [((row["label"],), {k: v for k, v in row.items() if k != "label"})
                for row in data["ranked"]]
        assert rows
        self._assert_view(text, ["class"], rows)

    @pytest.mark.parametrize("source", ["predicted", "gold"])
    def test_eval_and_diagnose(self, tmp_path, source):
        modes = ["--typed-mention", "--typed-link", "--classic"]
        text, report = self._written(
            tmp_path, "eval",
            ["eval", "--gold", str(MINI_CORPUS), *modes, "--link-mention-source", source],
            "eval_report",
        )
        mention, link, classic = text.split("\n\n")
        self._assert_typed(mention, report["typed_mention"])
        self._assert_typed(link, report["typed_link"])
        rows = [((name,), row) for name, row in report["classic"].items() if name != "conll_f1"]
        assert len(rows) == 3
        self._assert_view(classic, ["metric"], rows)

        eval_report = str(tmp_path / "eval" / "eval_report.json")
        self._assert_diagnose(*self._written(
            tmp_path, "diagnose", ["diagnose", "--eval-report", eval_report], "diagnose"))

    def test_diagnose_shows_an_absent_mode_as_null(self, tmp_path):
        _, report = self._written(tmp_path, "eval", ["eval", "--gold", str(MINI_CORPUS),
                                                     "--typed-link"], "eval_report")
        text, data = self._written(tmp_path, "diagnose", [
            "diagnose", "--eval-report", str(tmp_path / "eval" / "eval_report.json")],
            "diagnose")
        assert all(row["mention_f1"] is None for row in data["ranked"])
        self._assert_diagnose(text, data)

    @pytest.mark.parametrize("command", ["label", "coverage"])
    def test_coverage(self, tmp_path, command):
        self._assert_coverage(*self._written(
            tmp_path, command, [command, "--gold", str(MINI_CORPUS)], "coverage"))

    @pytest.mark.parametrize("pool", [[], ["--pool-counts"]], ids=["mean", "pool-counts"])
    def test_compare(self, tmp_path, pool):
        # System B predicts the gold clusters, so every column differs
        # from its neighbour somewhere.
        records = [json.loads(line) for line in MINI_CORPUS.read_text(encoding="utf-8").splitlines()]
        pred = write_jsonl(tmp_path / "pred.jsonl", [
            {"doc_id": r["doc_id"], "tokens": r["tokens"], "predicted_clusters": r["gold_clusters"]}
            for r in records])
        reports = []
        for name, extra in (("a", []), ("b", ["--pred", pred])):
            self._written(tmp_path, name, ["eval", "--gold", str(MINI_CORPUS), *extra,
                                           "--typed-mention", "--typed-link"], "eval_report")
            reports.append(str(tmp_path / name / "eval_report.json"))
        text, data = self._written(
            tmp_path, "compare", ["compare", "-a", reports[0], "-b", reports[1], *pool], "compare")
        assert data["averaging"] == ("pooled_counts" if pool else "mean_f1")
        for mode in ("mention", "link"):
            rows = data[mode]["per_class"]
            assert rows
            header, lines = _parse_table(text[text.index(f"{mode} mode\n"):], ["class"])
            assert header == ["class", *saved_reports.COMPARE_COLUMNS]
            assert lines == [
                [label, *(f"{value:+.4f}" if key == "delta" else _json_cell(value)
                          for key, value in row.items())]
                for label, row in rows.items()
            ]
            assert all(list(row) == list(saved_reports.COMPARE_COLUMNS) for row in rows.values())


class TestInputErrors:
    """Outside input that cannot be read exits 2 with a message, not a traceback."""

    def test_undecodable_corpus_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"\xff\xfe\x00")
        assert main(["eval", "--gold", str(path), "--classic"]) == 2
        assert "can't decode" in capsys.readouterr().err

    GOLD = json.dumps({"doc_id": "d0", "tokens": ["a"], "gold_clusters": [[[0, 1]]]})
    CONLL_EVAL = ["eval", "--gold", "x.conll", "--pred", "x.conll", "--format", "conll",
                  "--classic"]
    NO_TYPED_MODE = '{"typed_mention": null, "typed_link": null}'

    @pytest.mark.parametrize("files, argv, message", [
        ({"gold.jsonl": GOLD, "pred.jsonl": GOLD},
         ["eval", "--gold", "gold.jsonl", "--pred", "pred.jsonl", "--classic"],
         "pred.jsonl: no predicted_clusters in prediction file"),
        ({"gold.jsonl": GOLD, "pred.jsonl": json.dumps(
            {"doc_id": "d0", "tokens": ["b"], "predicted_clusters": [[[0, 1]]]})},
         ["eval", "--gold", "gold.jsonl", "--pred", "pred.jsonl", "--classic"],
         "doc 'd0': token sequences differ between files"),
        ({"list.json": "[]"}, ["diagnose", "--eval-report", "list.json"],
         "list.json: expected a JSON object"),
        ({"link.json": json.dumps({"typed_link": _typed_block(mode="link")}),
          "classic.json": NO_TYPED_MODE},
         ["compare", "-a", "link.json", "-a", "classic.json", "-b", "link.json", "-b",
          "link.json"],
         "system A: mode typed_link present in some reports but not all"),
        ({"classic.json": NO_TYPED_MODE}, ["compare", "-a", "classic.json", "-b", "classic.json"],
         "no typed scoring mode shared by the two reports"),
        ({"classic.json": NO_TYPED_MODE}, ["diagnose", "--eval-report", "classic.json"],
         "diagnosis needs at least one typed mode in the eval report"),
        ({"inventory.json": json.dumps([{"label": "FOO", "aliases": ["X"]},
                                        {"label": "BAR", "aliases": ["X"]}])},
         ["coverage", "--gold", "gold.jsonl"],
         "COREF_SEMSCORE_INVENTORY=inventory.json: alias 'X' maps to both FOO and BAR"),
        ({"x.conll": "#begin document (a)\n#begin document (b)\n"}, CONLL_EVAL,
         "x.conll: line 2: new document begins before #end document"),
        ({"x.conll": "#begin document a\n"}, CONLL_EVAL,
         "x.conll: line 1: malformed #begin document header"),
        ({"x.conll": "#end document\n"}, CONLL_EVAL,
         "x.conll: line 1: #end document without a begin"),
        ({"x.conll": "a 0 0 w X -\n"}, CONLL_EVAL,
         "x.conll: line 1: token line outside any document"),
        ({"x.conll": "#begin document (a)\na 0 0 w\n#end document\n"}, CONLL_EVAL,
         "x.conll: line 2: expected at least 5 columns, got 4"),
    ], ids=["pred-without-clusters", "pred-tokens-differ", "report-not-object",
            "mode-in-some-reports", "no-shared-typed-mode", "diagnose-no-typed-mode",
            "inventory-alias-twice", "conll-nested-begin", "conll-bad-header",
            "conll-end-without-begin", "conll-token-outside", "conll-few-columns"])
    def test_error_names_its_cause(self, tmp_path, monkeypatch, capsys, files, argv, message):
        monkeypatch.chdir(tmp_path)
        for name, content in files.items():
            Path(name).write_text(content, encoding="utf-8")
        if "inventory.json" in files:
            monkeypatch.setenv("COREF_SEMSCORE_INVENTORY", "inventory.json")
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @staticmethod
    def _run_with_bad_input(tmp_path, news_path, flag, content: bytes) -> tuple[int, str]:
        """Run a command that reads `flag` from a file holding `content`,
        and every other input from a good file."""
        bad = tmp_path / "bad.input"
        bad.write_bytes(content)
        if flag == "--reference":
            return main(["validate-labels", "--gold", news_path, "--reference", str(bad)]), str(bad)
        cner = write_jsonl(tmp_path / "cner.jsonl", [{"doc_id": "news0", "cner": [[7, 9, "PER"]]}])
        inputs = {"--gold": news_path, "--pred": news_path, "--cner": cner, flag: str(bad)}
        argv = ["coverage"] if flag == "--pronouns" else ["eval", "--typed-mention"]
        for name, path in inputs.items():
            argv += [name, path]
        return main(argv), str(bad)

    @pytest.mark.parametrize("flag", ["--gold", "--pred", "--cner", "--pronouns", "--reference"])
    def test_undecodable_input_names_its_file(self, tmp_path, news_path, capsys, flag):
        code, bad = self._run_with_bad_input(tmp_path, news_path, flag, b"\xff\xfe\x00")
        assert code == 2
        assert f"error: {bad}: 'utf-8' codec can't decode" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, content, message", [
        ("--gold", b'{"doc_id": "news0", "tokens": 5}\n', "line 1: tokens: expected a list"),
        ("--pred", b'\n{"doc_id": "news0"}\n', "line 2: missing required field 'tokens'"),
        ("--cner", b'{"doc_id": "news0", "cner": [[7, 9.5, "PER"]]}\n',
         "line 1: cner[0]: span bounds must be integers"),
        ("--cner", b'{"doc_id": "news0", "cner": [[7, 99, "PER"]]}\n', "out of range"),
        ("--reference", b"{oops", "Expecting property name"),
    ])
    def test_malformed_input_names_its_file(self, tmp_path, news_path, capsys, flag, content,
                                            message):
        code, bad = self._run_with_bad_input(tmp_path, news_path, flag, content)
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: " in err
        assert message in err

    @pytest.mark.parametrize("content, message", [
        (b"{oops", "Expecting property name"),
        (b"\xff\xfe\x00", "'utf-8' codec can't decode"),
    ])
    @pytest.mark.parametrize("loader", ["eval-report", "diagnose"])
    def test_unreadable_report_names_its_file(self, tmp_path, capsys, loader, content, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        if loader == "eval-report":
            argv = ["compare", "-a", str(bad), "-b", str(bad)]
        else:
            argv = ["diagnose", "--eval-report", str(bad)]
        assert main(argv) == 2
        assert f"error: {bad}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("inventory, message", [
        ([{"description": "no label"}], "inventory entry 0: expected an object"),
        ([{"label": "FOO", "aliases": "FOOBAR"}], "inventory entry 0: aliases must be"),
        ({"label": "FOO"}, "inventory file must contain a JSON list"),
    ])
    def test_malformed_inventory_exits_2(self, tmp_path, monkeypatch, news_path, capsys,
                                         inventory, message):
        inv_path = tmp_path / "inv.json"
        inv_path.write_text(json.dumps(inventory), encoding="utf-8")
        monkeypatch.setenv("COREF_SEMSCORE_INVENTORY", str(inv_path))
        assert main(["eval", "--gold", news_path, "--classic"]) == 2
        err = capsys.readouterr().err
        assert "COREF_SEMSCORE_INVENTORY=" in err and message in err

    @pytest.mark.parametrize("report, message", [
        ({"typed_mention": {}}, "typed_mention: mode is missing"),
        ({"typed_link": {**_typed_block(mode="link"), "per_class": []}},
         "typed_link: per_class must be a JSON object, got []"),
        ({"typed_mention": {**_typed_block(), "per_class": {"PER": {"f1": 1.0}}}},
         "typed_mention: per_class.PER.tp is missing"),
        ({"typed_mention": _typed_block(f1="1.0")},
         "typed_mention: per_class.PER.f1 is '1.0', but its counts give 1.0"),
        ({"typed_link": ["PER"]}, "typed_link: expected a JSON object"),
        ({"config": ["gold.jsonl"]}, "config must be a JSON object"),
        ({"config": {"gold": ["a.jsonl"]}}, "config.gold must be a string"),
        ({"typed_mention": {**_typed_block(), "macro_f1": float("nan")}},
         "typed_mention: macro_f1 is nan, but its counts give 1.0"),
        ({"typed_mention": _typed_block(f1=float("inf"))},
         "typed_mention: per_class.PER.f1 is inf, but its counts give 1.0"),
        ({"config": []}, "config must be a JSON object"),
        ({"config": 0}, "config must be a JSON object"),
        ({"config": False}, "config must be a JSON object"),
        ({"config": ""}, "config must be a JSON object"),
    ])
    def test_malformed_eval_report_exits_2(self, tmp_path, capsys, report, message):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        assert main(["compare", "-a", str(path), "-b", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert main(["diagnose", "--eval-report", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("report", [
        {"typed_mention": _typed_block()},
        {"config": None, "typed_mention": _typed_block()},
    ])
    def test_absent_or_null_config_reads_as_empty(self, tmp_path, report):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        assert main(["compare", "-a", str(path), "-b", str(path)]) == 0
        assert main(["diagnose", "--eval-report", str(path)]) == 0

    def test_internal_error_is_not_an_input_error(self, news_path, monkeypatch):
        def broken(*args):
            raise ValueError("internal")

        monkeypatch.setattr(cli, "conll", broken)
        with pytest.raises(ValueError, match="internal"):
            main(["eval", "--gold", news_path, "--classic"])

    def test_internal_report_error_is_not_an_input_error(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("internal")

        report = tmp_path / "report.json"
        report.write_text(json.dumps({"typed_mention": _typed_block()}), encoding="utf-8")
        monkeypatch.setattr(saved_reports, "compare_eval_reports", broken)
        with pytest.raises(KeyError, match="internal"):
            main(["compare", "-a", str(report), "-b", str(report)])


class TestDependencies:
    def test_package_exports_resolve_on_first_access(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import sys, coref_semscore as pkg\n"
                "assert not [m for m in sys.modules if m.startswith('coref_semscore.')]\n"
                "assert set(pkg.__all__) <= set(dir(pkg))\n"
                "for name in pkg.__all__:\n"
                "    module = sys.modules[getattr(pkg, name).__module__]\n"
                "    assert getattr(module, name) is getattr(pkg, name), name\n"
                "try:\n"
                "    pkg.no_such_name\n"
                "except AttributeError as exc:\n"
                "    print(exc)\n"
                "from coref_semscore import cli, conll\n"
                "print(cli.__name__, conll.__module__, len(pkg.__all__))")
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.splitlines() == [
            "module 'coref_semscore' has no attribute 'no_such_name'",
            "coref_semscore.cli coref_semscore.classic_metrics 43",
        ]

    def test_conll_is_the_conll_f1_function_after_reading_conll(self, tmp_path, capsys):
        import coref_semscore
        from coref_semscore import classic_metrics

        inputs = command_inputs(tmp_path / "in", 1)
        assert main(["eval", "--gold", inputs["conll"], "--pred", inputs["conll"],
                     "--format", "conll", "--classic"]) == 0
        assert coref_semscore.conll is classic_metrics.conll


class TestInventoryEnvVar:
    def test_alternate_inventory(self, tmp_path, monkeypatch):
        inventory = [
            {"label": "FOO", "description": "demo", "aliases": ["FOOBAR"]},
            {"label": "BAR"},
        ]
        inv_path = tmp_path / "inv.json"
        inv_path.write_text(json.dumps(inventory), encoding="utf-8")
        monkeypatch.setenv("COREF_SEMSCORE_INVENTORY", str(inv_path))
        record = {"doc_id": "d0", "tokens": ["x", "y"],
                  "gold_clusters": [[[0, 1], [1, 2]]],
                  "cner": [[0, 1, "FOOBAR"]]}
        path = write_jsonl(tmp_path / "c.jsonl", [record])
        out = tmp_path / "out"
        assert main(["label", "--gold", path, "--out", str(out)]) == 0
        data = json.loads((out / "labeled.jsonl").read_text())
        assert data["cluster_labels"]["gold"] == ["FOO"]

    def test_alias_that_is_another_label_exits_2(self, tmp_path, monkeypatch, news_path,
                                                 capsys):
        inv_path = tmp_path / "inv.json"
        inv_path.write_text(json.dumps([{"label": "LOC", "aliases": ["org"]}, {"label": "ORG"}]),
                            encoding="utf-8")
        monkeypatch.setenv("COREF_SEMSCORE_INVENTORY", str(inv_path))
        assert main(["eval", "--gold", news_path, "--classic"]) == 2
        assert capsys.readouterr().err == (
            f"error: COREF_SEMSCORE_INVENTORY={inv_path}: alias 'ORG' of LOC is the label "
            "of category ORG, so it would never apply\n"
        )

    def test_default_labels_rejected_under_alternate_inventory(
        self, tmp_path, monkeypatch, capsys
    ):
        inv_path = tmp_path / "inv.json"
        inv_path.write_text(json.dumps([{"label": "FOO"}]), encoding="utf-8")
        monkeypatch.setenv("COREF_SEMSCORE_INVENTORY", str(inv_path))
        record = {"doc_id": "d0", "tokens": ["x"], "cner": [[0, 1, "PER"]]}
        path = write_jsonl(tmp_path / "c.jsonl", [record])
        assert main(["label", "--gold", path, "--out", str(tmp_path / "o")]) == 2
        assert "PER" in capsys.readouterr().err


class TestForceClusterLabel:
    def test_direct_disagreement_overwritten(self, tmp_path):
        record = {
            "doc_id": "f0", "tokens": ["a", "b", "c", "d", "e", "f"],
            "gold_clusters": [[[0, 1], [2, 3], [4, 5]]],
            "cner": [[0, 1, "PER"], [2, 3, "PER"], [4, 5, "LOC"]],
        }
        path = write_jsonl(tmp_path / "f.jsonl", [record])
        out_soft, out_hard = tmp_path / "soft", tmp_path / "hard"
        assert main(["label", "--gold", path, "--out", str(out_soft)]) == 0
        soft = json.loads((out_soft / "labeled.jsonl").read_text())
        assert soft["mention_labels"]["gold"][0] == ["PER", "PER", "LOC"]
        assert main(["label", "--gold", path, "--force-cluster-label",
                     "--out", str(out_hard)]) == 0
        hard = json.loads((out_hard / "labeled.jsonl").read_text())
        assert hard["mention_labels"]["gold"][0] == ["PER", "PER", "PER"]
        assert hard["mention_label_sources"]["gold"][0] == ["direct", "direct", "direct"]


class TestRepeatedJsonKeys:
    """A JSON input that repeats a key is refused, naming the file and the key."""

    @pytest.mark.parametrize("command", ["compare", "diagnose"])
    def test_report(self, tmp_path, news_path, capsys, command):
        assert main(["eval", "--gold", news_path, "--typed-mention", "--typed-link",
                     "--out", str(tmp_path / "ev")]) == 0
        text = (tmp_path / "ev" / "eval_report.json").read_text(encoding="utf-8")
        report = tmp_path / "report.json"
        report.write_text(text.replace('"macro_f1":', '"macro_f1": 0.0, "macro_f1":', 1),
                          encoding="utf-8")
        argv = (["compare", "-a", str(report), "-b", str(report)] if command == "compare"
                else ["diagnose", "--eval-report", str(report)])
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {report}: repeated JSON key 'macro_f1'\n"

    @pytest.mark.parametrize("flag, content, line, key", [
        ("--gold", '{"doc_id": "d", "tokens": ["a"], "gold_clusters": [[[0, 1]]], '
                   '"gold_clusters": []}', 1, "gold_clusters"),
        ("--pred", '\n{"doc_id": "news0", "tokens": [], "predicted_clusters": [[[7, 9]]], '
                   '"tokens": []}', 2, "tokens"),
        ("--cner", '{"doc_id": "news0", "cner": [[7, 9, "PER"]], "cner": []}', 1, "cner"),
    ], ids=["gold", "pred", "cner"])
    def test_corpus_record(self, tmp_path, news_path, capsys, flag, content, line, key):
        code, bad = TestInputErrors._run_with_bad_input(tmp_path, news_path, flag,
                                                        content.encode("utf-8"))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: line {line}: repeated JSON key {key!r}\n"
        )

    def test_inventory(self, tmp_path, news_path, monkeypatch, capsys):
        inv_path = tmp_path / "inv.json"
        inv_path.write_text('[{"label": "FOO", "label": "PER"}]', encoding="utf-8")
        monkeypatch.setenv("COREF_SEMSCORE_INVENTORY", str(inv_path))
        assert main(["coverage", "--gold", news_path]) == 2
        assert capsys.readouterr().err == (
            f"error: COREF_SEMSCORE_INVENTORY={inv_path}: repeated JSON key 'label'\n"
        )


class TestCollectorPaused:
    """main runs a command with the cyclic collector paused, and restores its
    state however the command ends.  test_commands checks that every command
    leaves the collector no model object."""

    @pytest.fixture(params=[True, False], ids=["on", "off"])
    def collector(self, request):
        """The collector switched on or off for the test, and restored after."""
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("argv, code", [
        (["coverage", "--gold", str(MINI_CORPUS)], 0),
        (["coverage", "--gold", "missing.jsonl"], 2),
    ], ids=["exit-0", "exit-2"])
    def test_collector_state_is_restored(self, capsys, collector, argv, code):
        assert main(argv) == code
        assert gc.isenabled() is collector

    def test_collector_state_is_restored_after_a_usage_error(self, capsys, collector):
        with pytest.raises(SystemExit):
            main(["coverage", "--no-such-option"])
        assert gc.isenabled() is collector

    def test_collector_state_is_restored_when_an_exception_escapes(self, monkeypatch, collector):
        def broken(*args, **kwargs):
            raise RuntimeError("scorer failed")

        monkeypatch.setattr(cli, "read_jsonl_corpus", broken)
        with pytest.raises(RuntimeError, match="scorer failed"):
            main(["coverage", "--gold", str(MINI_CORPUS)])
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("collector", [True], indirect=True, ids=["on"])
    def test_no_collection_runs_during_a_command(self, capsys, collector):
        phases = []

        def record(phase, info):
            phases.append(phase)

        gc.callbacks.append(record)
        try:
            assert main(["eval", "--gold", str(MINI_CORPUS), "--typed-mention",
                         "--typed-link", "--classic"]) == 0
            during = len(phases)
            gc.collect()
            assert phases, "the hook sees a collection"
        finally:
            gc.callbacks.remove(record)
        assert during == 0
