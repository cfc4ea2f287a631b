"""One row per command run, and three tests that every row must pass.

A row of COMMANDS gives an argv over command_inputs, its exit code and
exact stderr, the files it writes under --out, and which WATCHED modules it
loads; argv None is a bare `import coref_semscore.cli`.
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

from coref_semscore.cli import main

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


def command_inputs(root: Path, copies: int) -> dict:
    """Inputs made from the mini corpus repeated `copies` times under new
    doc_ids: the corpus, its CoNLL form, a copy with no semantic spans, a
    prediction file that misses the first document, an eval report and a
    reference."""
    root.mkdir()
    lines = (DATA / "mini_corpus.jsonl").read_text(encoding="utf-8").splitlines()
    records = [dict(json.loads(line), doc_id=f"{json.loads(line)['doc_id']}_{c}")
               for c in range(copies) for line in lines]
    inputs = {
        "corpus": write_jsonl(root / "corpus.jsonl", records),
        "no_spans": write_jsonl(root / "no_spans.jsonl",
                                [{k: v for k, v in r.items() if k != "cner"} for r in records]),
        "short_pred": write_jsonl(root / "short_pred.jsonl", records[1:]),
        "reference": str(root / "ref.json"),
        "report": str(root / "ev" / "eval_report.json"),
        "conll": str(root / "corpus.conll"),
    }
    Path(inputs["conll"]).write_text(conll_text(records), encoding="utf-8")
    Path(inputs["reference"]).write_text(
        json.dumps({records[0]["doc_id"]: {"0": "PER", "1": "LOC"}}), encoding="utf-8")
    assert main(["eval", "--gold", inputs["corpus"], "--typed-mention", "--typed-link",
                 "--out", str(root / "ev")]) == 0
    return inputs


@pytest.fixture(scope="module")
def corpora(tmp_path_factory) -> dict:
    """command_inputs for one and for two copies of the mini corpus."""
    root = tmp_path_factory.mktemp("inputs")
    return {copies: command_inputs(root / f"x{copies}", copies) for copies in (1, 2)}


def _argv(command: Command, inputs: dict, out: Path) -> list[str]:
    return [arg.format(**inputs, out=out) for arg in command.argv]


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
    """main(argv)'s exit code, and the types of what a collection right after
    it finds, with the collector held off so that nothing is collected unseen."""
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code = main(argv)
        gc.collect()
        return code, Counter(f"{type(o).__module__}.{type(o).__qualname__}" for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
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
