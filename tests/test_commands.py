"""One row per command run, and the tests that every row must pass.

A row of COMMANDS gives an argv over command_inputs, its exit code and
exact stderr, the files it writes under --out, and which WATCHED modules it
loads; argv None is a bare `import coref_semscore.cli`.  Three tests read
every row.

A row of REFUSALS is a run that exits 2 or 3: its argv, the files and
environment it runs with, its exit code and its exact stderr.  One test
reads every row: the run prints that stderr and nothing on stdout, writes
nothing under --out and leaves the collector no package object.
"""

import gc
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import pytest

from coref_semscore import cli
from coref_semscore.cli import main
from coref_semscore.reporting import typed_report_dict
from coref_semscore.typed_metrics import ClassScore, TypedScoreReport

DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"

# numpy and scipy no command needs, dataclasses, decimal and fractions would
# slow every start-up, and the rest only some commands run.
WATCHED = ("numpy", "scipy", "dataclasses", "csv", "decimal", "fractions",
           "coref_semscore.conll2012", "coref_semscore.label_reports",
           "coref_semscore.saved_reports")
CONLL = frozenset({"coref_semscore.conll2012"})
LABEL_REPORTS = frozenset({"coref_semscore.label_reports"})
SAVED_REPORTS = frozenset({"coref_semscore.saved_reports", "csv"})


class Command(NamedTuple):
    argv: tuple[str, ...] | None
    code: int = 0
    files: tuple[str, ...] = ()
    loads: frozenset[str] = frozenset()
    stderr: str = ""


EVAL = ("eval", "--gold", "{corpus}", "--typed-mention", "--typed-link", "--classic")
EVAL_FILES = ("eval_report.json", "eval_report.txt")
COVERAGE_FILES = ("coverage.json", "coverage.txt")

COMMANDS = {
    "import": Command(None),
    "label": Command(("label", "--gold", "{corpus}", "--out", "{out}"),
                     files=("labeled.jsonl", *COVERAGE_FILES)),
    "eval": Command((*EVAL, "--out", "{out}"), files=EVAL_FILES),
    "eval-drop-singletons": Command((*EVAL, "--drop-singletons", "--out", "{out}"),
                                    files=EVAL_FILES),
    "eval-conll": Command(("eval", "--gold", "{conll}", "--pred", "{conll}", "--format", "conll",
                           "--classic", "--out", "{out}"), files=EVAL_FILES, loads=CONLL),
    "coverage": Command(("coverage", "--gold", "{corpus}", "--out", "{out}"),
                        files=COVERAGE_FILES),
    "distribution": Command(("distribution", "--gold", "{corpus}", "--out", "{out}"),
                            files=("distribution.json", "distribution.txt"),
                            loads=LABEL_REPORTS),
    "validate-labels": Command(("validate-labels", "--gold", "{corpus}", "--reference",
                                "{reference}", "--out", "{out}"),
                               files=("agreement.json", "agreement.txt"), loads=LABEL_REPORTS),
    "compare": Command(("compare", "-a", "{report}", "-b", "{report}", "--out", "{out}"),
                       files=("compare.json", "compare.txt", "compare_link.csv",
                              "compare_mention.csv"), loads=SAVED_REPORTS),
    "diagnose": Command(("diagnose", "--eval-report", "{report}", "--out", "{out}"),
                        files=("diagnose.json", "diagnose.txt"), loads=SAVED_REPORTS),
    "exit-2-missing-document": Command(
        ("eval", "--gold", "{corpus}", "--pred", "{short_pred}", "--classic"), 2,
        stderr="error: missing from predicted corpus: mini0000_0\n"),
    "exit-2-tau": Command(("eval", "--gold", "{corpus}", "--classic", "--tau", "1.5"), 2,
                          stderr="error: tau must be in [0, 1], got 1.5\n"),
    "exit-3-eval": Command(("eval", "--gold", "{no_spans}", "--typed-mention"), 3,
                           stderr="error: typed scoring requires semantic spans (--cner or a "
                                  "cner field) or an already-labeled corpus; unlabeled side: "
                                  "gold, predicted\n"),
    "exit-3-label": Command(("label", "--gold", "{no_spans}", "--out", "{out}"), 3,
                            stderr="error: labeling requires semantic spans (--cner or a cner "
                                   "field)\n"),
}


def write_jsonl(path: Path, records) -> str:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return str(path)


def conll_text(records) -> str:
    """The gold clusters of JSONL records as a CoNLL-2012 file."""
    lines = []
    for record in records:
        marks = [[] for _ in record["tokens"]]
        for cid, cluster in enumerate(record["gold_clusters"]):
            for start, end in cluster:
                if end - start == 1:
                    marks[start].append(f"({cid})")
                else:
                    marks[start].append(f"({cid}")
                    marks[end - 1].append(f"{cid})")
        lines.append(f"#begin document ({record['doc_id']}); part 000")
        lines += [f"{record['doc_id']} 0 {i} {token} X {'|'.join(mark) or '-'}"
                  for i, (token, mark) in enumerate(zip(record["tokens"], marks))]
        lines.append("#end document")
    return "\n".join(lines) + "\n"


# Each eval report of command_inputs: the corpus it scores and its flags.
REPORTS = {
    "report": ("corpus", "--typed-mention", "--typed-link"),
    "mention_report": ("corpus", "--typed-mention"),
    "classic_report": ("corpus", "--classic"),
    "tau_report": ("corpus", "--typed-mention", "--tau", "0.9"),
    "inclusive_report": ("corpus", "--typed-mention", "--tau-inclusive"),
    "forced_report": ("corpus", "--typed-mention", "--force-cluster-label"),
    "gold_source_report": ("corpus", "--typed-link", "--link-mention-source", "gold"),
    "other_gold_report": ("short_pred", "--typed-mention"),
    "other_corpus_report": ("other_corpus", "--typed-mention"),
}


def command_inputs(root: Path, copies: int) -> dict:
    """Inputs made from the mini corpus repeated `copies` times under new
    doc_ids: the corpus, its CoNLL form, a copy with no semantic spans, a
    prediction file that misses the first document, which is also a corpus
    of another name, a corpus of the corpus's name without that document, a
    reference, the corpus labeled at tau 0.1, and the REPORTS."""
    root.mkdir()
    (root / "other").mkdir()
    lines = (DATA / "mini_corpus.jsonl").read_text(encoding="utf-8").splitlines()
    records = [dict(json.loads(line), doc_id=f"{json.loads(line)['doc_id']}_{c}")
               for c in range(copies) for line in lines]
    inputs = {
        "corpus": write_jsonl(root / "corpus.jsonl", records),
        "no_spans": write_jsonl(root / "no_spans.jsonl",
                                [{k: v for k, v in r.items() if k != "cner"} for r in records]),
        "short_pred": write_jsonl(root / "short_pred.jsonl", records[1:]),
        "other_corpus": write_jsonl(root / "other" / "corpus.jsonl", records[1:]),
        "reference": str(root / "ref.json"),
        "conll": str(root / "corpus.conll"),
        "labeled": str(root / "labeled" / "labeled.jsonl"),
    }
    Path(inputs["conll"]).write_text(conll_text(records), encoding="utf-8")
    Path(inputs["reference"]).write_text(
        json.dumps({records[0]["doc_id"]: {"0": "PER", "1": "LOC"}}), encoding="utf-8")
    assert main(["label", "--gold", inputs["corpus"], "--tau", "0.1",
                 "--out", str(root / "labeled")]) == 0
    for name, (corpus, *flags) in REPORTS.items():
        assert main(["eval", "--gold", inputs[corpus], *flags, "--out", str(root / name)]) == 0
        inputs[name] = str(root / name / "eval_report.json")
    return inputs


@pytest.fixture(scope="module")
def corpora(tmp_path_factory) -> dict:
    """command_inputs for one and for two copies of the mini corpus."""
    root = tmp_path_factory.mktemp("inputs")
    return {copies: command_inputs(root / f"x{copies}", copies) for copies in (1, 2)}


class Refusal(NamedTuple):
    """A run that writes `files` ({name: text or bytes}) into its working
    directory, sets `env`, runs argv over them and command_inputs, and exits
    `code` printing `stderr`, or for a usage error (`usage`) a stderr whose
    last line is `stderr`."""

    argv: tuple[str, ...]
    code: int
    stderr: str
    files: dict = {}
    env: dict = {}
    usage: bool = False


def _file(content) -> str | bytes:
    """A file's content: bytes and text as they are, any other value as JSON."""
    return content if isinstance(content, (str, bytes)) else json.dumps(content)


def _refusal(argv, message: str, files=None, code: int = 2, env=None) -> Refusal:
    """`argv --out {out}`, run over `files` ({name: content}), exits `code`
    with `error: message`."""
    files = {name: _file(content) for name, content in (files or {}).items()}
    return Refusal((*argv, "--out", "{out}"), code, f"error: {message}\n", files, env or {})


def _usage(argv, message: str) -> Refusal:
    """`argv --out {out}` is a usage error of argv's subcommand ending in `message`."""
    return Refusal((*argv, "--out", "{out}"), 2, f"coref-semscore {argv[0]}: error: {message}\n",
                   usage=True)


def _unrecognized(argv, *extra: str, files=None) -> Refusal:
    """`argv extra --out {out}` is a usage error of argv's subcommand,
    which takes none of `extra`."""
    return Refusal((*argv, *extra, "--out", "{out}"), 2, f"coref-semscore {argv[0]}: error: "
                   f"unrecognized arguments: {' '.join(extra)}\n", files or {}, usage=True)


def typed_block(counts=(1, 0, 0), mode="mention", **row) -> dict:
    """A typed block as eval writes it, with one PER row of (tp, fp, fn)
    `counts`, and the fields in `row` put over that row."""
    source = "predicted" if mode == "link" else None
    scores = {"PER": ClassScore("PER", *counts)} if counts else {}
    block = typed_report_dict(TypedScoreReport(mode, scores, 0, 0, source))
    if counts:
        block["per_class"]["PER"].update(row)
    return block


def _both_blocks(**row) -> dict:
    """Both typed blocks with one PER row of counts tp 0, fp 1, fn 1, and
    the fields in `row` put over the mention row."""
    return {"typed_mention": typed_block((0, 1, 1), **row),
            "typed_link": typed_block((0, 1, 1), mode="link")}


UNDECODABLE = (b"\xff\xfe\x00",
               "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte")
NOT_JSON = ("{oops", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)")
GOLD = {"doc_id": "d0", "tokens": ["a"], "gold_clusters": [[[0, 1]]]}
PRED = {"doc_id": "d0", "tokens": ["a"], "predicted_clusters": [[[0, 1]]]}
PAIR = {"doc_id": "d0", "tokens": ["a", "b"], "gold_clusters": [[[0, 1], [1, 2]]],
        "predicted_clusters": [[[0, 1], [1, 2]]]}

MISSPELT = {k if k != "predicted_clusters" else "predicted_cluster": v for k, v in PAIR.items()}


def _lines(*records) -> str:
    """A JSONL file of `records`."""
    return "".join(json.dumps(record) + "\n" for record in records)


# Corpora that `eval --classic` reads as bad.jsonl: (content, message after the name).
BAD_CORPORA = {
    "undecodable": UNDECODABLE,
    "not-json": (json.dumps(GOLD) + "\n" + NOT_JSON[0], f"line 2: invalid JSON: {NOT_JSON[1]}"),
    "span-out-of-range": ({**GOLD, "gold_clusters": [[[0, 9]]]}, "line 1: doc 'd0': "
                          "gold_clusters[0][0]: span [0, 9) out of range (1 tokens)"),
    "cner-out-of-range": ({**GOLD, "cner": [[0, 1, "PER"], [0, 5, "PER"]]}, "line 1: doc 'd0': "
                          "cner[1]: span [0, 5) out of range (1 tokens)"),
    **{f"{field}={json.dumps(value)}": ({**PAIR, field: value}, f"line 1: {message}")
       for field, value, message in [
           ("tokens", 1.5, "tokens: expected a list of token strings, got float"),
           ("tokens", None, "tokens: expected a list of token strings, got NoneType"),
           ("gold_clusters", [7], "gold_clusters[0]: expected a list of [start, end] pairs, got "
            "int"),
           ("gold_clusters", [[[0, 1.5]]], "gold_clusters[0][0]: span bounds must be integers, "
            "got [0, 1.5]"),
           ("cluster_labels", {"gold": [["PER"]]},
            "gold_clusters[0]: label must be a string or null, got ['PER']"),
           ("cluster_labels", {"gold": 1},
            "cluster_labels[gold]: expected a list as long as gold_clusters"),
           ("mention_labels", {"gold": [["PER"]]},
            "mention_labels[gold][0]: expected a list as long as gold_clusters[0]"),
           ("mention_labels", {"gold": [[None, 4]]},
            "gold_clusters[0][1]: label must be a string or null, got 4"),
           ("mention_overlaps", {"gold": [[[1.0], None]]}, "gold_clusters[0][0]: float() "
            "argument must be a string or a real number, not 'list'"),
           ("sentence_boundaries", 3, "sentence_boundaries: expected a list of token indices, "
            "got int"),
           *(("sentence_boundaries", value,
              f"sentence_boundaries: token indices must be integers, got {value}")
             for value in (["x"], [1.5, True], [0, True])),
           *(("sentence_boundaries", value, "sentence_boundaries: token indices must be "
              f"strictly increasing and in [0, 2), got {value}")
             for value in ([5, -1], [0, 0], [2])),
       ]},
}

# For each option, a run that reads the file bad.input as that option's input.
BAD_INPUT_RUNS = {
    "--gold": ("eval", "--typed-mention", "--gold", "bad.input", "--pred", "{corpus}"),
    "--pred": ("eval", "--typed-mention", "--gold", "{corpus}", "--pred", "bad.input"),
    "--cner": ("eval", "--typed-mention", "--gold", "{corpus}", "--cner", "bad.input"),
    "--pronouns": ("coverage", "--gold", "{corpus}", "--pronouns", "bad.input"),
    "--reference": ("validate-labels", "--gold", "{corpus}", "--reference", "bad.input"),
}
# bad.input files: (option, content, message after the name).
BAD_INPUTS = {
    **{f"{option[2:]}-undecodable": (option, *UNDECODABLE) for option in BAD_INPUT_RUNS},
    "gold-tokens": ("--gold", {"doc_id": "d0", "tokens": 5}, "line 1: tokens: expected a list of "
                    "token strings, got int"),
    "gold-repeated-key": ("--gold", '{"doc_id": "d0", "tokens": ["a"], "gold_clusters": '
                          '[[[0, 1]]], "gold_clusters": []}',
                          "line 1: repeated JSON key 'gold_clusters'"),
    "pred-no-tokens": ("--pred", '\n{"doc_id": "d0"}\n', "line 2: missing required field 'tokens'"),
    "pred-repeated-key": ("--pred", '\n{"doc_id": "d0", "tokens": [], "predicted_clusters": '
                          '[[[7, 9]]], "tokens": []}', "line 2: repeated JSON key 'tokens'"),
    "cner-float-bound": ("--cner", {"doc_id": "mini0000_0", "cner": [[7, 9.5, "PER"]]},
                         "line 1: cner[0]: span bounds must be integers, got [7, 9.5]"),
    "cner-out-of-range": ("--cner", {"doc_id": "mini0000_0", "cner": [[7, 99, "PER"]]},
                          "doc 'mini0000_0': cner[0]: span [7, 99) out of range (73 tokens)"),
    "cner-repeated-key": ("--cner", '{"doc_id": "d0", "cner": [[7, 9, "PER"]], "cner": []}',
                          "line 1: repeated JSON key 'cner'"),
    "reference-not-json": ("--reference", *NOT_JSON),
}

# The runs that read report.json as their first eval report.
REPORT_READERS = {
    "compare": ("compare", "-a", "report.json", "-b", "{report}"),
    "pool-counts": ("compare", "-a", "report.json", "-b", "{report}", "--pool-counts"),
    "diagnose": ("diagnose", "--eval-report", "report.json"),
}
# Eval reports that compare and diagnose refuse: (content, message after "report.json: ").
BAD_REPORTS = {
    "undecodable": UNDECODABLE,
    "not-json": NOT_JSON,
    "repeated-key": (json.dumps({"typed_mention": typed_block()}).replace(
        '"macro_f1":', '"macro_f1": 0.0, "macro_f1":', 1), "repeated JSON key 'macro_f1'"),
    "list": ([], "expected a JSON object"),
    **{f"config={json.dumps(config)}": ({"config": config}, "config must be a JSON object")
       for config in (["gold.jsonl"], [], 0, False, "")},
    "gold-list": ({"config": {"gold": ["a.jsonl"]}}, "config.gold must be a string"),
    "block-list": ({"typed_link": ["PER"]}, "typed_link: expected a JSON object"),
    "per-class-list": ({"typed_link": {**typed_block(mode="link"), "per_class": []}},
                       "typed_link: per_class must be a JSON object, got []"),
    **{name: ({"typed_mention": block}, f"typed_mention: {problem}") for name, block, problem in [
        ("mode-missing", {}, "mode is missing"),
        ("tp-missing", {**typed_block(), "per_class": {"PER": {"f1": 1.0}}},
         "per_class.PER.tp is missing"),
        *((f"tp={tp}", typed_block((1, 1, 1), tp=tp),
           f"per_class.PER.tp must be an integer >= 0, got {tp}") for tp in (-5, 2.5, True)),
        ("support-not-tp-plus-fn", typed_block((1, 0, 1), support=3),
         "per_class.PER.support is 3, but its counts give 2"),
        ("float-support", typed_block(support=1.0),
         "per_class.PER.support is 1.0, but its counts give 1"),
        *((f"f1={f1!r}", typed_block(f1=f1), f"per_class.PER.f1 is {f1!r}, but its counts give 1.0")
          for f1 in ("1.0", float("inf"), 0.25)),
        ("macro-f1-nan", {**typed_block(), "macro_f1": float("nan")},
         "macro_f1 is nan, but its counts give 1.0"),
        ("macro-f1-above-1", {**typed_block(None), "macro_f1": 1.5},
         "macro_f1 is 1.5, but its counts give 0.0"),
    ]},
    **{f"f1={f1}-support={support}": (_both_blocks(f1=f1, support=support),
                                      f"typed_mention: per_class.PER.{problem}")
       for f1, support, problem in [(2.5, 3, "f1 is 2.5, but its counts give 0.0"),
                                    (-0.5, 3, "f1 is -0.5, but its counts give 0.0"),
                                    (0.5, -1, "f1 is 0.5, but its counts give 0.0"),
                                    (0.0, -1, "support is -1, but its counts give 1")]},
}

# COREF_SEMSCORE_INVENTORY files: (run, content, message after the name).
BAD_INVENTORIES = {
    "alias-twice": (("coverage", "--gold", "{corpus}"),
                    [{"label": "FOO", "aliases": ["X"]}, {"label": "BAR", "aliases": ["X"]}],
                    "alias 'X' maps to both FOO and BAR"),
    "repeated-key": (("coverage", "--gold", "{corpus}"), '[{"label": "FOO", "label": "PER"}]',
                     "repeated JSON key 'label'"),
    "alias-is-a-label": (("eval", "--gold", "{corpus}", "--classic"),
                         [{"label": "LOC", "aliases": ["org"]}, {"label": "ORG"}],
                         "alias 'ORG' of LOC is the label of category ORG, so it would never "
                         "apply"),
    "entry-without-label": (("eval", "--gold", "{corpus}", "--classic"),
                            [{"description": "no label"}],
                            "inventory entry 0: expected an object with a string label"),
    "aliases-string": (("eval", "--gold", "{corpus}", "--classic"),
                       [{"label": "FOO", "aliases": "FOOBAR"}],
                       "inventory entry 0: aliases must be a list of strings"),
    "object": (("eval", "--gold", "{corpus}", "--classic"), {"label": "FOO"},
               "inventory file must contain a JSON list"),
}

# --reference files of validate-labels: (content, message after "ref.json: ").
BAD_REFERENCES = {
    "list": (["mini0000_0", {"0": "PER"}], "expected a JSON object {doc_id: {cluster_index: "
             "label}}"),
    "key-not-an-index": ({"mini0000_0": {"first": "PER"}}, "doc 'mini0000_0', key 'first': "
                         "cluster index must be a non-negative integer"),
    "doc-list": ({"mini0000_0": ["PER"]},
                 "doc 'mini0000_0': expected an object {cluster_index: label}"),
    "label-number": ({"mini0000_0": {"0": 3}},
                     "doc 'mini0000_0', key '0': label must be a string, got 3"),
    "label-unknown": ({"mini0000_0": {"0": "P3R"}}, "doc 'mini0000_0', key '0': "
                      "bad category label 'P3R': expected letters only"),
    "cluster-twice": ({"mini0000_0": {"0": "PER", "00": "LOC"}}, "doc 'mini0000_0', key '00': "
                      "cluster 0 already has a label from another key"),
    "repeated-key": ('{"mini0000_0": {"0": "PER", "0": "LOC"}}', "repeated JSON key '0'"),
    "repeated-doc": ('{"mini0000_0": {"0": "PER"}, "mini0000_0": {"1": "LOC"}}',
                     "repeated JSON key 'mini0000_0'"),
}

# CoNLL files of eval --format conll: (content, message after "x.conll: ").
BAD_CONLL = {
    "nested-begin": ("#begin document (a)\n#begin document (b)\n",
                     "line 2: new document begins before #end document"),
    "bad-header": ("#begin document a\n", "line 1: malformed #begin document header"),
    "end-without-begin": ("#end document\n", "line 1: #end document without a begin"),
    "token-outside": ("a 0 0 w X -\n", "line 1: token line outside any document"),
    "few-columns": ("#begin document (a)\na 0 0 w\n#end document\n",
                    "line 2: expected at least 5 columns, got 4"),
}

# --cner files for a corpus of one document doc1 of two tokens.
BAD_CNER = {
    "out-of-range": ({"doc_id": "doc1", "cner": [[0, 9, "PER"]]},
                     "doc 'doc1': cner[0]: span [0, 9) out of range (2 tokens)"),
    "without-cner": ({"doc_id": "doc1"}, "line 1: missing required field 'cner'"),
    "unknown-doc": ({"doc_id": "nope", "cner": []}, "cner corpus has unknown doc_ids: nope"),
}

# Eval reports of command_inputs that compare refuses against {report}.
DIFFERENT_REPORTS = {
    "other_gold_report": "config.gold differs (['corpus.jsonl'] vs ['short_pred.jsonl'])",
    "tau_report": "config.tau differs (0.5 vs 0.9)",
    "inclusive_report": "config.tau_inclusive differs (False vs True)",
    "forced_report": "config.force_cluster_label differs (False vs True)",
    "gold_source_report": "config.link_mention_source differs ('predicted' vs 'gold')",
    "other_corpus_report": "typed_mention support of ANIMAL differs (53 vs 49)",
}

# One cluster on both sides, labeled by hand: three direct labels, PER,
# PER and LOC, that vote PER, and the cluster label LOC.
OUTVOTED = {
    "doc_id": "d0", "tokens": ["Ann", "Bob", "Cy", "she", "x"],
    **{f"{side}_clusters": [[[0, 1], [1, 2], [2, 3], [3, 4]]] for side in ("gold", "predicted")},
    "cner": [[0, 1, "PER"], [1, 2, "PER"], [2, 3, "LOC"]],
    **{field: {side: [row] for side in ("gold", "predicted")} for field, row in [
        ("mention_labels", ["PER", "PER", "LOC", "LOC"]),
        ("mention_label_sources", ["direct", "direct", "direct", "propagated"]),
        ("mention_overlaps", [1.0, 1.0, 1.0, None])]},
    "cluster_labels": {"gold": ["LOC"], "predicted": ["LOC"]},
}


def _reused(doc_id="d0", side="gold", labels=("PER", "PER"), sources=("direct", "propagated"),
            overlaps=(1.0, None)) -> dict:
    """PAIR as doc `doc_id`, whose one `side` cluster has label LOC and
    mentions labeled `labels` from `sources` at `overlaps`."""
    return {**PAIR, "doc_id": doc_id, "cluster_labels": {side: ["LOC"]},
            "mention_labels": {side: [list(labels)]},
            "mention_label_sources": {side: [list(sources)]},
            "mention_overlaps": {side: [list(overlaps)]}}


# The faults of reused labels that _reused() and _reused("d1") hold, and
# that of a --cner file that gives mini0000_0 other spans.
STRAY = ("cluster 0 has label 'LOC' and a propagated label 'PER' at span [1, 2), which labeling "
         "never gives; label the unlabeled corpus")
OTHER_SPANS = ("c.jsonl: cannot reuse the gold labels of doc 'mini0000_0': its direct labels "
               "come from other semantic spans than this file gives it; label the unlabeled "
               "corpus with these spans")
RESPAN = {"c.jsonl": {"doc_id": "mini0000_0", "cner": [[0, 1, "ANIMAL"]]}}
OTHER_SPANS_PRED = {**PRED, "cner": [[0, 1, "LOC"]]}
NO_SPANS = "typed scoring requires semantic spans (--cner or a cner field) or an already-labeled "
PAIRED = ("eval", "--gold", "gold.jsonl", "--pred", "pred.jsonl")
INVENTORY = {"COREF_SEMSCORE_INVENTORY": "inv.json"}

# Every run that exits 2 or 3, with its exact stderr.
REFUSALS = {
    # Options a command does not take, and values an option does not take.
    **{f"{argv[0]}-pronouns": _unrecognized((*argv, "--gold", "{corpus}"), "--pronouns",
                                            "pronouns.txt", files={"pronouns.txt": "he\n"})
       for argv in [("eval", "--classic"), ("distribution",),
                    ("validate-labels", "--reference", "{reference}")]},
    **{f"{argv[0]}-force": _unrecognized(argv, "--force-cluster-label")
       for argv in [("coverage", "--gold", "{corpus}"),
                    ("validate-labels", "--gold", "{corpus}", "--reference", "{reference}")]},
    "distribution-pred": _unrecognized(("distribution", "--gold", "{corpus}"), "--pred",
                                       "{corpus}"),
    "diagnose-distribution-report": _unrecognized(("diagnose", "--eval-report", "{report}"),
                                                  "--distribution-report", "d.json"),
    "label-typed-mention": _unrecognized(("label", "--gold", "{corpus}"), "--typed-mention"),
    "compare-tau": _unrecognized(("compare", "-a", "{report}", "-b", "{report}"), "--tau",
                                 "0.5"),
    "option-before-command": Refusal(
        ("--bogus", "eval", "--gold", "{corpus}", "--classic", "--out", "{out}"), 2,
        "coref-semscore: error: unrecognized arguments: --bogus\n", usage=True),
    **{f"diagnose{option}={value}": _usage(
        ("diagnose", "--eval-report", "{report}", option, value),
        f"argument {option}: must be a finite number >= 0, got {value!r}")
       for option, value in [("--w-mention", "nan"), ("--w-link", "inf"), ("--w-link", "-0.5"),
                             ("--rarity-cap", "-5"), ("--rarity-cap", "abc")]},
    "label-without-out": Refusal(("label", "--gold", "missing.jsonl"), 2, "coref-semscore label: "
                                 "error: the following arguments are required: --out\n",
                                 usage=True),
    "label-empty-out": Refusal(("label", "--gold", "missing.jsonl", "--out", ""), 2,
                               "error: label requires a non-empty --out\n"),
    "eval-without-mode": _refusal(("eval", "--gold", "{corpus}"), "eval requires at least one "
                                  "of --typed-mention, --typed-link, --classic"),
    "diagnose-composite-overflows": _refusal(
        ("diagnose", "--eval-report", "report.json", "--w-mention", "1.7e308", "--w-link",
         "1.7e308"), "composite of PER is not a finite number with --w-mention 1.7e+308, "
        "--w-link 1.7e+308 and --rarity-cap 0.2; use smaller weights",
        {"report.json": _both_blocks()}),
    # Inputs that cannot be read.
    **{f"corpus-{name}": _refusal(("eval", "--gold", "bad.jsonl", "--classic"),
                                  f"bad.jsonl: {message}", {"bad.jsonl": content})
       for name, (content, message) in BAD_CORPORA.items()},
    **{f"input-{name}": _refusal(BAD_INPUT_RUNS[option], f"bad.input: {message}",
                                 {"bad.input": content})
       for name, (option, content, message) in BAD_INPUTS.items()},
    **{f"report-{name}-{reader}": _refusal(argv, f"report.json: {message}",
                                           {"report.json": content})
       for name, (content, message) in BAD_REPORTS.items()
       for reader, argv in REPORT_READERS.items()},
    **{f"inventory-{name}": _refusal(argv, f"COREF_SEMSCORE_INVENTORY=inv.json: {message}",
                                     {"inv.json": content}, env=INVENTORY)
       for name, (argv, content, message) in BAD_INVENTORIES.items()},
    "inventory-without-a-corpus-label": _refusal(
        ("label", "--gold", "gold.jsonl"), "gold.jsonl: line 1: cner[0]: unknown category label "
        "'PER'", {"inv.json": [{"label": "FOO"}], "gold.jsonl": {**GOLD, "cner": [[0, 1, "PER"]]}},
        env=INVENTORY),
    "inventory-empty": _refusal(
        ("label", "--gold", "gold.jsonl"), "gold.jsonl: line 1: cner[0]: unknown category label "
        "'PER'", {"inv.json": [], "gold.jsonl": {**GOLD, "cner": [[0, 1, "PER"]]}},
        env=INVENTORY),
    **{f"reference-{name}": _refusal(
        ("validate-labels", "--gold", "{corpus}", "--reference", "ref.json"),
        f"ref.json: {message}", {"ref.json": content})
       for name, (content, message) in BAD_REFERENCES.items()},
    **{f"conll-{name}": _refusal(("eval", "--gold", "x.conll", "--pred", "x.conll", "--format",
                                  "conll", "--classic"), f"x.conll: {message}",
                                 {"x.conll": content})
       for name, (content, message) in BAD_CONLL.items()},
    **{f"cner-{name}": _refusal(("eval", "--gold", "gold.jsonl", "--cner", "c.jsonl",
                                 "--typed-link"), f"c.jsonl: {message}",
                                {"gold.jsonl": {**PAIR, "doc_id": "doc1"}, "c.jsonl": record})
       for name, (record, message) in BAD_CNER.items()},
    # Inputs that do not go together.
    "pred-without-clusters": _refusal((*PAIRED, "--classic"), "pred.jsonl: no predicted_clusters "
                                      "in prediction file",
                                      {"gold.jsonl": GOLD, "pred.jsonl": GOLD}),
    # A file that gives predicted_clusters in some records only, and a bad
    # line after both, whose error is the one reported.
    "corpus-predicted-clusters-misspelt": _refusal(
        ("eval", "--gold", "bad.jsonl", "--classic"), "bad.jsonl: line 1: doc 'd0' has no "
        "predicted_clusters, which line 2 has; give the key in every record or in none (unknown "
        "keys here: ['predicted_cluster'])",
        {"bad.jsonl": _lines(MISSPELT, {**PAIR, "doc_id": "d1"})}),
    "corpus-predicted-clusters-misspelt-then-bad-line": _refusal(
        ("eval", "--gold", "bad.jsonl", "--classic"),
        f"bad.jsonl: line 3: invalid JSON: {NOT_JSON[1]}",
        {"bad.jsonl": _lines(MISSPELT, {**PAIR, "doc_id": "d1"}) + NOT_JSON[0]}),
    "pred-predicted-clusters-in-some-records": _refusal(
        (*PAIRED, "--classic"), "pred.jsonl: line 2: doc 'd1' has no predicted_clusters, which "
        "line 1 has; give the key in every record or in none (unknown keys here: [])",
        {"gold.jsonl": _lines(GOLD, {**GOLD, "doc_id": "d1"}),
         "pred.jsonl": _lines(PRED, {**GOLD, "doc_id": "d1", "gold_clusters": []})}),
    "pred-tokens-differ": _refusal((*PAIRED, "--classic"), "doc 'd0': token sequences differ "
                                   "between files",
                                   {"gold.jsonl": GOLD, "pred.jsonl": {**PRED, "tokens": ["b"]}}),
    # A prediction file whose semantic spans are not gold's: its labels,
    # read or made from them, would be scored under gold's spans.
    **{f"pred-semantic-spans-differ{name}": _refusal(
        (*PAIRED, "--typed-mention"), "doc 'd0': semantic spans differ between files",
        {"gold.jsonl": {**GOLD, "cner": [[0, 1, "PER"]]}, "pred.jsonl": pred})
       for name, pred in [("", OTHER_SPANS_PRED), ("-labeled", {
           **OTHER_SPANS_PRED, "cluster_labels": {"predicted": ["LOC"]},
           **{field: {"predicted": [row]} for field, row in [
               ("mention_labels", ["LOC"]), ("mention_label_sources", ["direct"]),
               ("mention_overlaps", [1.0])]}})]},
    "pred-doc-ids-differ": _refusal((*PAIRED, "--classic"), "missing from predicted corpus: d0; "
                                    "missing from gold corpus: d1",
                                    {"gold.jsonl": GOLD, "pred.jsonl": {**PRED, "doc_id": "d1"}}),
    "reference-unknown-doc": _refusal(
        ("validate-labels", "--gold", "{corpus}", "--reference", "ref.json"),
        "ref.json: reference key ('nope', 0) matches no document",
        {"ref.json": {"nope": {"0": "PER"}}}),
    "reference-index-out-of-range": _refusal(
        ("validate-labels", "--gold", "{corpus}", "--reference", "ref.json"),
        "ref.json: reference key ('mini0000_0', 3) is out of range: document has 3 gold "
        "clusters", {"ref.json": {"mini0000_0": {"3": "PER"}}}),
    **{f"eval-reuse-tau-0.1-at-0.9{''.join(flag)}": _refusal(
        ("eval", "--gold", "{labeled}", "--tau", "0.9", *flag, "--typed-mention", "--typed-link"),
        "cannot reuse the gold labels of doc 'mini0000_0': span [71, 72) has a direct label at "
        f"overlap 0.5, not {test} tau 0.9; label the unlabeled corpus at this tau")
       for flag, test in [((), ">"), (("--tau-inclusive",), ">=")]},
    **{f"eval-reuse-{name}": _refusal(
        ("eval", "--gold", "gold.jsonl", "--typed-mention", "--typed-link"),
        f"cannot reuse the gold labels of doc 'd0': cluster 0 has label 'LOC' and {fault}, "
        "which labeling never gives; label the unlabeled corpus",
        {"gold.jsonl": _reused(labels=labels, sources=sources, overlaps=overlaps)})
       for name, labels, sources, overlaps, fault in [
           ("propagated-label-not-the-clusters", ["PER", "PER"], ["direct", "propagated"],
            [1.0, None], "a propagated label 'PER' at span [1, 2)"),
           ("direct-labels-without-the-clusters", ["PER", "ORG"], ["direct", "direct"],
            [1.0, 0.75], "direct labels ['ORG', 'PER']"),
           ("cluster-label-not-the-tie-vote", ["PER", "LOC"], ["direct", "direct"], [1.0, 0.5],
            "direct labels ['LOC', 'PER'] that vote 'PER'"),
           ("unlabeled-mention-beside-a-direct-label", ["LOC", None], ["direct", "none"],
            [1.0, None], "an unlabeled mention at span [1, 2)")]},
    "eval-reuse-cluster-label-outvoted": _refusal(
        ("eval", "--gold", "gold.jsonl", "--typed-link"),
        "cannot reuse the gold labels of doc 'd0': cluster 0 has label 'LOC' and direct labels "
        "['LOC', 'PER'] that vote 'PER', which labeling never gives; label the unlabeled corpus",
        {"gold.jsonl": OUTVOTED}),
    "eval-reuse-unforced-under-force": _refusal(
        ("eval", "--gold", "{labeled}", "--tau", "0.1", "--force-cluster-label",
         "--typed-mention"), "cannot reuse the gold labels of doc 'mini0002_0': cluster 0 has label "
        "'GROUP' and a direct label 'DATETIME' at span [54, 57), which labeling with "
        "--force-cluster-label never gives; label the unlabeled corpus with it"),
    **{f"{argv[0]}-reuse-with-other-cner": _refusal(
        (*argv, "--gold", "{labeled}", "--tau", "0.1", "--cner", "c.jsonl"), OTHER_SPANS, RESPAN)
       for argv in [("eval", "--typed-mention"), ("coverage",)]},
    # Two faults of reused labels, of which the first refused is: within a
    # document and side, a cluster's, then the --cner file's, then tau's;
    # the documents in file order, and the gold side before the predicted.
    "eval-reuse-cluster-fault-before-cner": _refusal(
        ("eval", "--gold", "gold.jsonl", "--cner", "c.jsonl", "--typed-mention"),
        f"cannot reuse the gold labels of doc 'd0': {STRAY}",
        {"gold.jsonl": _reused(), "c.jsonl": {"doc_id": "d0", "cner": [[0, 1, "ANIMAL"]]}}),
    "eval-reuse-cner-before-tau": _refusal(
        ("eval", "--gold", "{labeled}", "--tau", "0.9", "--cner", "c.jsonl", "--typed-mention"),
        OTHER_SPANS, RESPAN),
    "eval-reuse-tau-in-one-doc-before-cluster-fault-in-the-next": _refusal(
        ("eval", "--gold", "gold.jsonl", "--typed-mention"),
        "cannot reuse the gold labels of doc 'd0': span [0, 1) has a direct label at overlap "
        "0.5, not > tau 0.5; label the unlabeled corpus at this tau",
        {"gold.jsonl": "\n".join(map(json.dumps, [_reused(labels=("LOC", "LOC"),
                                                          overlaps=(0.5, None)), _reused("d1")]))}),
    "eval-reuse-gold-in-a-later-doc-before-predicted": _refusal(
        ("eval", "--gold", "gold.jsonl", "--typed-mention"),
        f"cannot reuse the gold labels of doc 'd1': {STRAY}",
        {"gold.jsonl": "\n".join(map(json.dumps, [_reused(side="predicted"), _reused("d1")]))}),
    "compare-report-counts": _refusal(
        ("compare", "-a", "{report}", "-a", "{classic_report}", "-b", "{report}"),
        "cannot compare {report}, {classic_report} with {report}: system A has 2 reports and "
        "system B has 1"),
    "compare-mode-in-some-reports": _refusal(
        ("compare", "-a", "{report}", "-a", "{classic_report}", "-b", "{report}", "-b",
         "{report}"), "system A: mode typed_mention present in some reports but not all"),
    "compare-mode-mismatch": _refusal(("compare", "-a", "{report}", "-b", "{mention_report}"),
                                      "mode mismatch: typed_link present in only one system"),
    "compare-no-typed-mode": _refusal(
        ("compare", "-a", "{classic_report}", "-b", "{classic_report}"),
        "no typed scoring mode shared by the two reports"),
    "diagnose-no-typed-mode": _refusal(
        ("diagnose", "--eval-report", "{classic_report}"),
        "diagnosis needs at least one typed mode in the eval report"),
    **{f"compare-{name}": _refusal(("compare", "-a", "{report}", "-b", f"{{{name}}}"),
                                   f"cannot compare {{report}} with {{{name}}}: {difference}")
       for name, difference in DIFFERENT_REPORTS.items()},
    # Modes whose inputs are missing.
    "eval-typed-without-spans": _refusal(("eval", "--gold", "{no_spans}", "--typed-mention"),
                                         f"{NO_SPANS}corpus; unlabeled side: gold, predicted",
                                         code=3),
    "eval-pred-without-spans": _refusal(
        (*PAIRED, "--typed-mention"), f"{NO_SPANS}corpus; unlabeled side: predicted",
        {"gold.jsonl": {**GOLD, "cluster_labels": {"gold": ["PER"]}}, "pred.jsonl": PRED}, code=3),
    "eval-without-predictions": _refusal(
        ("eval", "--gold", "gold.jsonl", "--classic"), "evaluation requires predicted clusters "
        "(--pred or a predicted_clusters field)", {"gold.jsonl": GOLD}, code=3),
}


def _fill(text: str, inputs: dict, out: Path) -> str:
    """`text` with {out} and each {name} of `inputs` replaced by its path."""
    for name, path in {**inputs, "out": str(out)}.items():
        text = text.replace(f"{{{name}}}", path)
    return text


def _argv(command, inputs: dict, out: Path) -> list[str]:
    return [_fill(arg, inputs, out) for arg in command.argv]


def _files(out: Path) -> dict:
    """{name: bytes} of every file in out, which may not exist."""
    return {path.name: path.read_bytes() for path in out.glob("*")}


def _run_fresh(argv: list[str] | None, hash_seed: str, cwd: Path) -> tuple:
    """Exit code, stdout, stderr and the WATCHED modules loaded by a fresh
    interpreter that runs `python -S -m coref_semscore argv`, or only
    imports coref_semscore.cli when argv is None."""
    command = ["-c", "import coref_semscore.cli"] if argv is None else ["-m", "coref_semscore",
                                                                        *argv]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    run = subprocess.run([sys.executable, "-S", "-X", "importtime", *command], cwd=cwd, env=env,
                         capture_output=True, encoding="utf-8")
    lines = run.stderr.splitlines(keepends=True)
    loaded = {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}
    stderr = "".join(line for line in lines if not line.startswith("import time:"))
    return run.returncode, run.stdout, stderr, loaded & set(WATCHED)


def _run_here(argv: list[str], capsys) -> tuple[int, str, str]:
    """main(argv)'s exit code, stdout and stderr."""
    capsys.readouterr()
    code = main(argv)
    printed = capsys.readouterr()
    return code, printed.out, printed.err


def _cyclic_garbage(argv: list[str]) -> tuple[int, Counter]:
    """main(argv)'s exit code, or its usage error's, and the types of what a
    collection right after it finds among the objects made since it began,
    with the collector held off so that nothing is collected unseen.  The
    objects made before are frozen, so the collection walks only the new."""
    enabled = gc.isenabled()
    gc.disable()
    gc.freeze()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        gc.collect()
        return code, Counter(f"{type(o).__module__}.{type(o).__qualname__}" for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.unfreeze()
        if enabled:
            gc.enable()


RUN = {name: command for name, command in COMMANDS.items() if command.argv is not None}


@pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS)
def test_fresh_interpreter_runs_as_this_one(tmp_path, corpora, capsys, command):
    # `python -S -m coref_semscore` at hash seeds 0 and 1 prints, writes
    # and exits as main does here, and loads exactly the row's modules.
    inputs, here = corpora[1], tmp_path / "here"
    expected = (command.code, "", command.stderr)
    if command.argv is not None:
        expected = _run_here(_argv(command, inputs, here), capsys)
        assert (expected[0], expected[2]) == (command.code, command.stderr)
    for hash_seed in ("0", "1"):
        out = tmp_path / f"seed{hash_seed}"
        argv = None if command.argv is None else _argv(command, inputs, out)
        *ran, loaded = _run_fresh(argv, hash_seed, tmp_path)
        assert (tuple(ran), _files(out), loaded) == (expected, _files(here), command.loads)


@pytest.mark.parametrize("command", RUN.values(), ids=RUN)
def test_out_holds_the_printed_text_and_strict_json(tmp_path, corpora, capsys, command):
    out = tmp_path / "out"
    code, printed, _ = _run_here(_argv(command, corpora[1], out), capsys)
    written = _files(out)
    assert (code, sorted(written)) == (command.code, sorted(command.files))
    for name, content in written.items():
        if name.endswith(".txt"):
            assert content == printed.encode("utf-8")
        elif name.endswith((".json", ".jsonl")):
            text = content.decode("utf-8")
            for line in text.splitlines() if name.endswith(".jsonl") else [text]:
                json.dumps(json.loads(line), allow_nan=False)


@pytest.mark.parametrize("command", RUN.values(), ids=RUN)
def test_command_leaves_no_model_cycles(tmp_path, corpora, capsys, command):
    # main pauses the cyclic collector.  That is safe because a command
    # leaves it no model object, only argparse's and the JSON encoder's few
    # cycles, and no more of them for a larger corpus.
    found = []
    for copies, inputs in corpora.items():
        code, garbage = _cyclic_garbage(_argv(command, inputs, tmp_path / f"out{copies}"))
        assert code == command.code, capsys.readouterr().err
        found.append(garbage)
    assert not [name for name in found[0] if name.startswith("coref_semscore.")]
    assert found[0] == found[1]


@pytest.mark.parametrize("refusal", REFUSALS.values(), ids=REFUSALS)
def test_refusal_prints_its_message_only(tmp_path, corpora, capsys, monkeypatch, refusal):
    # Exit code, exact stderr (a usage error's last line), empty stdout,
    # nothing under --out, and no package object left for the collector.
    monkeypatch.chdir(tmp_path)
    for name, content in refusal.files.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
    for name, value in refusal.env.items():
        monkeypatch.setenv(name, value)
    inputs, out = corpora[1], tmp_path / "out"
    capsys.readouterr()
    code, garbage = _cyclic_garbage(_argv(refusal, inputs, out))
    printed = capsys.readouterr()
    err = printed.err.splitlines(keepends=True)[-1] if refusal.usage else printed.err
    assert (code, err, printed.out, out.exists()) == (
        refusal.code, _fill(refusal.stderr, inputs, out), "", False)
    assert not [name for name in garbage if name.startswith("coref_semscore.")]


def _usage_exit(argv: list[str], capsys) -> tuple:
    """The exit code, stdout and stderr of main(argv), which exits through
    its parser."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    printed = capsys.readouterr()
    return exc.value.code, printed.out, printed.err


HELP = {"help": ("--help",), **{f"{name}-help": (name, "--help") for name in cli._COMMANDS}}
USAGE = {name: refusal.argv for name, refusal in REFUSALS.items() if refusal.usage}


@pytest.mark.parametrize("argv", [*HELP.values(), *USAGE.values()], ids=[*HELP, *USAGE])
def test_parser_prints_as_the_parser_of_every_command(capsys, monkeypatch, argv):
    # main builds only the parser of the subcommand that argv starts with.
    # Its help, and the whole stderr of a usage refusal, equal what the
    # parser of every subcommand prints in this interpreter.  Both exit
    # before any file named in argv is read.
    full, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command)
                        or full(command))
    printed = _usage_exit(argv, capsys)
    assert built == [argv[0] if argv[0] in cli._COMMANDS else None]
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert printed == _usage_exit(argv, capsys)
    assert printed[0] == (0 if argv[-1] == "--help" else 2)
