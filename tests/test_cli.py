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
    saved_reports,
)
from coref_semscore.cli import main
from coref_semscore.ingest import write_labeled_jsonl
from coref_semscore.inventory import CategoryInventory
from coref_semscore.labeling import reuse_fault
from coref_semscore.model import LabelSource
from coref_semscore.reporting import json_text, typed_report_dict
from coref_semscore.saved_reports import typed_report_from_dict
from conftest import COMPOSITE_RECORD, NEWS_RECORD
from corpusgen import LABELS, random_corpus, to_documents
from test_commands import command_inputs, typed_block, write_jsonl


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


def _subparsers() -> dict:
    (action,) = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


_IO = {"--gold", "--pred", "--cner", "--format", "--out"}
_LABELING = {"--tau", "--tau-inclusive", "--force-cluster-label"}


class TestOptionSets:
    """Every subcommand takes exactly the options it reads."""

    def test_command_names_are_those_of_the_subcommands(self):
        assert cli._COMMANDS == tuple(_subparsers())

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

    def test_distribution_reads_no_predictions(self, tmp_path):
        # The gold-only label distribution neither reads nor labels
        # predictions, so labeled gold without spans is enough.
        labeled_path, _ = self._labeled_gold_and_raw_pred(tmp_path)
        record = json.loads(labeled_path.read_text())
        record["cner"] = []
        bare = write_jsonl(tmp_path / "bare.jsonl", [record])
        assert main(["distribution", "--gold", bare]) == 0

    def test_fully_labeled_corpus_is_not_labeled_again(self, tmp_path, corpus_path, monkeypatch):
        out_label = tmp_path / "labeled"
        assert main(["label", "--gold", corpus_path, "--out", str(out_label)]) == 0

        def fail(*args, **kwargs):
            raise AssertionError("a labeled corpus was labeled again")

        monkeypatch.setattr(cli, "label_documents", fail)
        assert main(["eval", "--gold", str(out_label / "labeled.jsonl"), "--typed-mention",
                     "--typed-link", "--out", str(tmp_path / "out")]) == 0

    def test_edited_cluster_label_is_refused_with_the_fault_reuse_fault_gives(
            self, tmp_path, capsys):
        # A drawn corpus labeled, with the label of its first gold cluster
        # that has a direct label replaced by one that is not a direct label.
        labeled = label_documents(to_documents(random_corpus(
            random.Random(7), 3, ensure_links=True, ensure_direct=True)))
        d, c = next((d, c) for d, doc in enumerate(labeled)
                    for c, cluster in enumerate(doc.gold_clusters)
                    if LabelSource.DIRECT in cluster.sources)
        clusters = list(labeled[d].gold_clusters)
        clusters[c] = clusters[c]._replace(
            cluster_label=min(set(LABELS) - set(clusters[c].labels)))
        edited = list(labeled)
        edited[d] = edited[d].with_clusters("gold", clusters)
        write_labeled_jsonl(edited, tmp_path / "edited.jsonl")
        fault = reuse_fault(edited[d], LabelingConfig(), "gold")
        capsys.readouterr()
        assert main(["eval", "--gold", str(tmp_path / "edited.jsonl"), "--typed-mention",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot reuse the gold labels of doc {edited[d].doc_id!r}: {fault}\n")
        assert fault.startswith(f"cluster {c} has label ")

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

    def test_cner_refused_only_where_it_changes_the_spans_of_reused_direct_labels(
            self, tmp_path, capsys):
        # d0 labeled on both sides from two LOC spans.  A --cner file with
        # the same spans in another order changes no label; one with other
        # spans is refused wherever a reused side carries a direct label,
        # and nowhere else: not for classic scoring, label, a hand-labeled
        # side (cluster labels only) or an unlabeled one.
        record = {"doc_id": "d0", "tokens": ["Rome", "is", "Rome"],
                  "gold_clusters": [[[0, 1], [2, 3]]], "predicted_clusters": [[[0, 1], [2, 3]]],
                  "cner": [[0, 1, "LOC"], [2, 3, "LOC"]]}
        raw = write_jsonl(tmp_path / "raw.jsonl", [record])
        assert main(["label", "--gold", raw, "--out", str(tmp_path / "lab")]) == 0
        labeled = json.loads((tmp_path / "lab" / "labeled.jsonl").read_text())
        hand = {**labeled, **{key: {**labeled[key], "gold": None} for key in (
            "mention_labels", "mention_label_sources", "mention_overlaps")}}
        labeled = write_jsonl(tmp_path / "labeled.jsonl", [labeled])
        hand = write_jsonl(tmp_path / "hand.jsonl", [hand])
        same, other = (
            write_jsonl(tmp_path / f"{name}.cner.jsonl", [{"doc_id": "d0", "cner": spans}])
            for name, spans in [("same", [[2, 3, "LOC"], [0, 1, "LOC"]]),
                                ("other", [[0, 1, "PER"]])]
        )
        refusal = ("error: {}: cannot reuse the {} labels of doc 'd0': its direct labels come "
                   "from other semantic spans than this file gives it; label the unlabeled corpus "
                   "with these spans\n")
        runs = [
            (("eval", "--gold", labeled, "--cner", same, "--typed-mention"), None),
            (("eval", "--gold", labeled, "--cner", other, "--typed-mention"), "gold"),
            (("coverage", "--gold", labeled, "--cner", other), "gold"),
            (("distribution", "--gold", labeled, "--cner", other), "gold"),
            (("eval", "--gold", labeled, "--cner", other, "--classic"), None),
            (("label", "--gold", labeled, "--cner", other), None),
            (("eval", "--gold", hand, "--cner", other, "--typed-mention"), "predicted"),
            (("distribution", "--gold", hand, "--cner", other), None),
            (("eval", "--gold", raw, "--cner", other, "--typed-mention"), None),
        ]
        for argv, side in runs:
            capsys.readouterr()
            code = main([*argv, "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            expected = (0, "") if side is None else (2, refusal.format(other, side))
            assert (code, err) == expected, argv
        report = json.loads((tmp_path / "out" / "eval_report.json").read_text())
        assert set(report["typed_mention"]["per_class"]) == {"PER"}


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

    def test_eval_fresh_and_reused_give_the_golden_report(self, tmp_path):
        # On the mini corpus, labeled in the run and then reused from
        # `label`'s output; the first report is the golden one.
        assert main(["label", "--gold", str(MINI_CORPUS), "--out", str(tmp_path / "label")]) == 0
        labeled = tmp_path / "label" / "labeled.jsonl"
        for name, corpus in [("fresh", MINI_CORPUS), ("reused", labeled)]:
            assert main(["eval", "--gold", str(corpus), *self.MODES.values(),
                         "--out", str(tmp_path / name)]) == 0
        golden = Path(__file__).resolve().parent / "data" / "golden_eval_report.json"
        assert (tmp_path / "fresh" / "eval_report.json").read_bytes() == golden.read_bytes()

    def test_eval_fresh_reused_paired_and_respanned_agree(self, tmp_path):
        # label, then eval fresh, reused, with the predictions in a file of
        # their own, which repeats the spans, and with a --cner file.
        records = [json.loads(line) for line in MINI_CORPUS.read_text(encoding="utf-8").splitlines()]
        gold = write_jsonl(tmp_path / "gold.jsonl", [
            {k: v for k, v in r.items() if k != "predicted_clusters"} for r in records])
        pred = write_jsonl(tmp_path / "pred.jsonl", [
            {k: r[k] for k in ("doc_id", "tokens", "predicted_clusters", "cner")} for r in records])
        cner = write_jsonl(tmp_path / "cner.jsonl", [
            {"doc_id": r["doc_id"], "cner": r["cner"][::-1]} for r in records])
        assert main(["label", "--gold", str(MINI_CORPUS), "--out", str(tmp_path / "label")]) == 0
        labeled = str(tmp_path / "label" / "labeled.jsonl")
        for name, inputs in [("fresh", [str(MINI_CORPUS)]), ("reused", [labeled]),
                             ("paired", [gold, "--pred", pred]),
                             ("cner", [gold, "--pred", pred, "--cner", cner])]:
            assert main(["eval", "--gold", *inputs, *self.MODES.values(),
                         "--out", str(tmp_path / name)]) == 0
        scores = [json.loads((tmp_path / name / "eval_report.json").read_text(encoding="utf-8"))
                  for name in ("fresh", "reused", "paired", "cner")]
        for report in scores:
            del report["config"]  # names the input files
        assert scores[1:] == scores[:-1]

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

    def test_row_whose_f1_its_counts_give_is_read(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"typed_mention": typed_block(f1=1.0)}), encoding="utf-8")
        assert main(["compare", "-a", str(path), "-b", str(path)]) == 0

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

    @pytest.mark.parametrize("option", ["--w-mention", "--w-link", "--rarity-cap"])
    def test_negative_zero_weight_writes_what_zero_writes(self, tmp_path, option):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"typed_mention": typed_block(),
                                      "typed_link": typed_block(mode="link")}), encoding="utf-8")
        outputs = []
        for value in ("-0", "0"):
            out = tmp_path / value
            assert main(["diagnose", "--eval-report", str(report), option, value,
                         "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("diagnose.json", "diagnose.txt")])
        assert outputs[0] == outputs[1]


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

    def test_f1_is_written_correctly_rounded(self, tmp_path):
        # One right label among 1 system-labeled cluster and 5 reference
        # entries: F1 is exactly 2/6, where 2pr / (p + r) would write
        # 0.33333333333333337.
        reference = {"mini0000": {"0": "MEDIA"}, "mini0003": {"1": "PER"},
                     "mini0008": {"2": "PER"}, "mini0021": {"3": "PER"},
                     "mini0022": {"1": "PER"}}
        ref_path = tmp_path / "ref.json"
        ref_path.write_text(json.dumps(reference), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["validate-labels", "--gold", str(MINI_CORPUS), "--reference",
                     str(ref_path), "--out", str(out)]) == 0
        assert '"f1": 0.3333333333333333,' in (out / "agreement.json").read_text()

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
    """A report without a config is read; an error inside the package is not
    taken for an input error.  test_commands.REFUSALS holds the input errors."""

    @pytest.mark.parametrize("report", [
        {"typed_mention": typed_block()},
        {"config": None, "typed_mention": typed_block()},
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
        report.write_text(json.dumps({"typed_mention": typed_block()}), encoding="utf-8")
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
            "coref_semscore.cli coref_semscore.classic_metrics 40",
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
