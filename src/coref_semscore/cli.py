"""Command-line front end.

Subcommands: label, eval, coverage, distribution, compare, diagnose,
validate-labels.  Exit codes: 0 success, 2 input error (parse/validation
failures, mismatched inputs), 3 when a requested mode lacks its required
inputs (e.g. typed scoring without semantic spans).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import model
from .classic_metrics import conll, drop_singleton_clusters
from .ingest import (
    CorpusFormatError,
    attach_semantic_spans,
    merge_predictions,
    read_cner_jsonl,
    read_jsonl_corpus,
    write_labeled_jsonl,
)
from .inventory import (
    ENV_INVENTORY_VAR,
    CategoryInventory,
    RepeatedKeyError,
    unique_keys,
)
from .labeling import (
    DEFAULT_PRONOUNS,
    LabelingConfig,
    coverage,
    label_documents,
    load_pronoun_lexicon,
    reuse_fault,
    unlabeled_sides,
)
from .model import SIDES
from .reporting import (
    ReportModeError,
    classic_report_dict,
    coverage_report_dict,
    json_text,
    render_classic_table,
    render_coverage_table,
    render_typed_table,
    typed_report_dict,
    write_json,
)
from .typed_metrics import typed_link_scores, typed_mention_scores

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MODE = 3

class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


@contextmanager
def _reading(path: str):
    """Name the file at `path` in an input error raised while reading it."""
    try:
        yield
    except (CorpusFormatError, UnicodeDecodeError, json.JSONDecodeError, RepeatedKeyError) as exc:
        raise CliError(EXIT_INPUT, f"{path}: {exc}") from exc


def _inventory() -> CategoryInventory:
    """The active category inventory; a malformed inventory file is an input error."""
    try:
        return CategoryInventory.from_env()
    except ValueError as exc:
        raise CliError(EXIT_INPUT, f"{ENV_INVENTORY_VAR}={os.environ[ENV_INVENTORY_VAR]}: "
                                   f"{exc}") from exc


def _add_io_args(parser: argparse.ArgumentParser, pred: bool = True,
                 out_required: bool = False) -> None:
    parser.add_argument("--gold", required=True, help="gold corpus file")
    if pred:
        parser.add_argument("--pred", help="predicted corpus file, keyed by doc_id")
    parser.add_argument("--cner", help="JSONL file of {doc_id, cner} semantic spans")
    parser.add_argument(
        "--format", choices=("jsonl", "conll"), default="jsonl", help="gold/pred file format"
    )
    parser.add_argument("--out", required=out_required, help="output directory")


def _add_labeling_args(parser: argparse.ArgumentParser, force: bool = True) -> None:
    parser.add_argument("--tau", type=float, default=LabelingConfig().tau,
                        help="overlap threshold (default %(default)s)")
    parser.add_argument(
        "--tau-inclusive", action="store_true",
        help="accept assignments at exactly tau (default: strictly above)"
    )
    if force:
        parser.add_argument(
            "--force-cluster-label", action="store_true",
            help="overwrite direct mention labels that disagree with the cluster label"
        )


def _labeling_config(args, force_cluster_label: bool = False) -> LabelingConfig:
    try:
        return LabelingConfig(args.tau, args.tau_inclusive, force_cluster_label)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, str(exc)) from exc


def _pronouns(args) -> frozenset[str]:
    """The --pronouns lexicon, read before the corpus, or the default one."""
    if not args.pronouns:
        return DEFAULT_PRONOUNS
    with _reading(args.pronouns):
        return load_pronoun_lexicon(args.pronouns)


def _read_corpus(path: str, fmt: str, inventory: CategoryInventory, as_predictions: bool):
    with _reading(path):
        if fmt != "conll":
            return read_jsonl_corpus(path, inventory)
        from .conll2012 import read_conll2012

        docs = read_conll2012(path)
    if as_predictions:
        docs = [doc.with_clusters("predicted", doc.gold_clusters) for doc in docs]
    return docs


def _load_corpus(args, inventory: CategoryInventory) -> tuple[list, set[str]]:
    """The corpus of --gold, --pred and --cner, and the doc_id of each
    document to which --cner gives another set of semantic spans than it
    carries."""
    docs = _read_corpus(args.gold, args.format, inventory, as_predictions=False)
    pred_path = getattr(args, "pred", None)
    if pred_path:
        pred_docs = _read_corpus(pred_path, args.format, inventory, as_predictions=True)
        if not any(d.predicted_clusters for d in pred_docs):
            raise CliError(EXIT_INPUT, f"{pred_path}: no predicted_clusters in prediction file")
        docs = merge_predictions(docs, pred_docs)
    if not args.cner:
        return docs, set()
    with _reading(args.cner):
        spans_by_id = read_cner_jsonl(args.cner, inventory)
        respanned = {doc.doc_id for doc in docs if doc.doc_id in spans_by_id
                     and set(doc.cner) != set(spans_by_id[doc.doc_id])}
        return attach_semantic_spans(docs, spans_by_id), respanned


_RESPANNED = ("its direct labels come from other semantic spans than this file gives it; "
              "label the unlabeled corpus with these spans")


def _ensure_labeled(docs, cfg: LabelingConfig, sides=SIDES, respanned=frozenset(), cner=None):
    """The corpus with each of `sides` that has clusters but no cluster
    label labeled, per side, so labeled gold still gets raw predictions
    labeled.  Each other side is reused; its first fault (by side, then by
    document; see labeling.reuse_fault) is an input error, and in a
    document of `respanned`, to which the --cner file `cner` gave other
    semantic spans, a direct label is one that names that file.  A side to
    label in a corpus with no semantic spans is a mode-requirement error.
    """
    unlabeled = unlabeled_sides(docs, sides)
    for side in (side for side in sides if side not in unlabeled):
        for doc in docs:
            fault = reuse_fault(doc, cfg, side, _RESPANNED if doc.doc_id in respanned else None)
            if fault is not None:
                where = f"{cner}: " if fault is _RESPANNED else ""
                raise CliError(EXIT_INPUT, f"{where}cannot reuse the {side} labels of doc "
                                           f"{doc.doc_id!r}: {fault}")
    if not unlabeled:
        return docs
    if not any(doc.cner for doc in docs):
        raise CliError(
            EXIT_MODE,
            "typed scoring requires semantic spans (--cner or a cner field) "
            f"or an already-labeled corpus; unlabeled side: {', '.join(unlabeled)}",
        )
    return label_documents(docs, cfg, unlabeled)


def _out_dir(args) -> Path | None:
    if not args.out:
        return None
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _publish(args, stem: str, payload, text: str) -> Path | None:
    """Write `payload` to <stem>.json and `text` to <stem>.txt under --out,
    when it is given, and print `text`.  Returns the output directory."""
    out = _out_dir(args)
    if out is not None:
        write_json(out / f"{stem}.json", payload)
        (out / f"{stem}.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return out


def _publish_coverage(args, docs, pronouns: frozenset[str]) -> None:
    blocks = {"gold": coverage(docs, "gold", pronouns)}
    if any(doc.predicted_clusters for doc in docs):
        blocks["predicted"] = coverage(docs, "predicted", pronouns)
    _publish(args, "coverage", {side: coverage_report_dict(r) for side, r in blocks.items()},
             render_coverage_table(blocks))


def cmd_label(args) -> int:
    if not args.out:
        raise CliError(EXIT_INPUT, "label requires a non-empty --out")
    inventory = _inventory()
    cfg = _labeling_config(args, args.force_cluster_label)
    pronouns = _pronouns(args)
    docs, _ = _load_corpus(args, inventory)
    if not any(doc.cner for doc in docs) and docs:
        raise CliError(EXIT_MODE, "labeling requires semantic spans (--cner or a cner field)")
    labeled = label_documents(docs, cfg)
    write_labeled_jsonl(labeled, _out_dir(args) / "labeled.jsonl")
    _publish_coverage(args, labeled, pronouns)
    return EXIT_OK


def cmd_eval(args) -> int:
    if not (args.typed_mention or args.typed_link or args.classic):
        raise CliError(EXIT_INPUT, "eval requires at least one of --typed-mention, "
                                   "--typed-link, --classic")
    inventory = _inventory()
    cfg = _labeling_config(args, args.force_cluster_label)
    docs, respanned = _load_corpus(args, inventory)
    if docs and not any(doc.predicted_clusters for doc in docs):
        raise CliError(EXIT_MODE, "evaluation requires predicted clusters "
                                  "(--pred or a predicted_clusters field)")
    need_typed = args.typed_mention or args.typed_link
    if need_typed:
        docs = _ensure_labeled(docs, cfg, respanned=respanned, cner=args.cner)

    report: dict = {
        "config": {
            "gold": os.path.basename(args.gold),
            "pred": os.path.basename(args.pred) if args.pred else None,
            "cner": os.path.basename(args.cner) if args.cner else None,
            "format": args.format,
            **cfg._asdict(),
            "link_mention_source": args.link_mention_source,
            "drop_singletons": args.drop_singletons,
        },
        "typed_mention": None,
        "typed_link": None,
        "classic": None,
    }
    # Every mode folds over the same overlap tables, one per document;
    # classic scoring without singletons needs tables of its own.
    tables = ([model.contingency(doc) for doc in docs]
              if need_typed or not args.drop_singletons else [])
    texts = []
    if args.typed_mention:
        mention_report = typed_mention_scores(tables)
        report["typed_mention"] = typed_report_dict(mention_report)
        texts.append(render_typed_table(mention_report))
    if args.typed_link:
        link_report = typed_link_scores(tables, args.link_mention_source)
        report["typed_link"] = typed_report_dict(link_report)
        texts.append(render_typed_table(link_report))
    if args.classic:
        if args.drop_singletons:
            tables = [model.contingency(doc) for doc in drop_singleton_clusters(docs)]
        classic = conll(tables)
        report["classic"] = classic_report_dict(classic)
        texts.append(render_classic_table(classic))

    _publish(args, "eval_report", report, "\n".join(texts))
    return EXIT_OK


def cmd_coverage(args) -> int:
    inventory = _inventory()
    cfg = _labeling_config(args)
    pronouns = _pronouns(args)
    docs, respanned = _load_corpus(args, inventory)
    docs = _ensure_labeled(docs, cfg, respanned=respanned, cner=args.cner)
    _publish_coverage(args, docs, pronouns)
    return EXIT_OK


def cmd_distribution(args) -> int:
    from .label_reports import distribution, distribution_report_dict, render_distribution_table

    inventory = _inventory()
    cfg = _labeling_config(args, args.force_cluster_label)
    docs, respanned = _load_corpus(args, inventory)
    docs = _ensure_labeled(docs, cfg, ("gold",), respanned, args.cner)
    report = distribution(docs, inventory)
    _publish(args, "distribution", distribution_report_dict(report),
             render_distribution_table(report))
    return EXIT_OK


def _json_file(path: str):
    """The JSON value in the file at `path`, which must not repeat a key."""
    with _reading(path), open(path, encoding="utf-8") as handle:
        return json.load(handle, object_pairs_hook=unique_keys)


def cmd_compare(args) -> int:
    from . import saved_reports as saved

    reports_a, corpora_a = zip(*(saved.read_eval_report(p, _json_file(p)) for p in args.report_a))
    reports_b, corpora_b = zip(*(saved.read_eval_report(p, _json_file(p)) for p in args.report_b))
    saved.check_comparable(args.report_a, reports_a, args.report_b, reports_b)
    result = saved.compare_eval_reports(
        reports_a, reports_b, corpora_a, corpora_b, pool_counts=args.pool_counts
    )
    out = _publish(args, "compare", result, saved.render_compare_table(result))
    for mode in saved.TYPED_MODES.values():
        if out is not None and result[mode] is not None:
            (out / f"compare_{mode}.csv").write_text(saved.compare_csv(result, mode),
                                                     encoding="utf-8")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    from . import saved_reports as saved

    labels = _inventory().labels
    eval_report, _ = saved.read_eval_report(args.eval_report, _json_file(args.eval_report))
    result = saved.diagnose_report(
        eval_report, labels,
        w_mention=args.w_mention, w_link=args.w_link, rarity_cap=args.rarity_cap,
    )
    for row in result["ranked"]:
        if not math.isfinite(row["composite"]):
            raise CliError(EXIT_INPUT, f"composite of {row['label']} is not a finite number "
                                       f"with --w-mention {args.w_mention!r}, --w-link "
                                       f"{args.w_link!r} and --rarity-cap {args.rarity_cap!r}; "
                                       "use smaller weights")
    _publish(args, "diagnose", result, saved.render_diagnose_table(result))
    return EXIT_OK


def cmd_validate_labels(args) -> int:
    from . import label_reports

    inventory = _inventory()
    cfg = _labeling_config(args)
    docs, respanned = _load_corpus(args, inventory)
    docs = _ensure_labeled(docs, cfg, ("gold",), respanned, args.cner)
    raw = _json_file(args.reference)
    try:
        reference = label_reports.read_reference(args.reference, raw, inventory)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, str(exc)) from exc
    try:
        agreement = label_reports.label_agreement(reference, docs)
    except KeyError as exc:
        raise CliError(EXIT_INPUT, f"{args.reference}: {exc.args[0]}") from exc
    result = label_reports.agreement_report_dict(agreement)
    _publish(args, "agreement", result, json_text(result))
    return EXIT_OK


def _weight(text: str) -> float:
    """A diagnose weight: a finite number >= 0, with -0 read as 0."""
    try:
        value = float(text)
        if math.isfinite(value) and value >= 0:
            return value + 0.0
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone.  A
    subcommand's prog, usage and help do not depend on which others are
    registered, so its parser is the same either way."""
    parser = argparse.ArgumentParser(
        prog="coref-semscore",
        description="Semantically typed coreference evaluation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, summary: str, func):
        if command not in (None, name):
            return None
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func, command_parser=p)
        return p

    if p := add("label", "label a corpus and report coverage", cmd_label):
        _add_io_args(p, out_required=True)
        _add_labeling_args(p)
        p.add_argument("--pronouns", help="pronoun lexicon for the coverage report, one per line")

    if p := add("eval", "typed and classic evaluation", cmd_eval):
        _add_io_args(p)
        _add_labeling_args(p)
        p.add_argument("--typed-mention", action="store_true", help="per-class mention scores")
        p.add_argument("--typed-link", action="store_true", help="per-class link scores")
        p.add_argument("--classic", action="store_true", help="MUC, B-cubed, CEAF, CoNLL mean")
        p.add_argument(
            "--link-mention-source", choices=("predicted", "gold"), default="predicted",
            help="provenance of predicted mentions for link scoring"
        )
        p.add_argument("--drop-singletons", action="store_true",
                       help="drop size-1 clusters before classic scoring")

    if p := add("coverage", "labeling coverage report", cmd_coverage):
        _add_io_args(p)
        _add_labeling_args(p, force=False)
        p.add_argument("--pronouns", help="pronoun lexicon for the coverage report, one per line")

    if p := add("distribution", "label distribution over gold mentions", cmd_distribution):
        _add_io_args(p, pred=False)
        _add_labeling_args(p)

    if p := add("compare", "per-class deltas between two eval reports", cmd_compare):
        p.add_argument("-a", "--report-a", action="append", required=True,
                       help="eval report JSON for system A (repeatable)")
        p.add_argument("-b", "--report-b", action="append", required=True,
                       help="eval report JSON for system B (repeatable)")
        p.add_argument("--pool-counts", action="store_true",
                       help="pool tp/fp/fn across corpora instead of averaging F1s")
        p.add_argument("--out", help="output directory")

    if p := add("diagnose", "rank classes by deficiency", cmd_diagnose):
        p.add_argument("--eval-report", required=True, help="eval report JSON")
        p.add_argument("--w-mention", type=_weight, default=0.5, help="mention term weight")
        p.add_argument("--w-link", type=_weight, default=0.5, help="link term weight")
        p.add_argument("--rarity-cap", type=_weight, default=0.2, help="cap on the rarity term")
        p.add_argument("--out", help="output directory")

    if p := add("validate-labels", "score cluster labels against a reference",
                cmd_validate_labels):
        _add_io_args(p, pred=False)
        _add_labeling_args(p, force=False)
        p.add_argument("--reference", required=True,
                       help="JSON file {doc_id: {cluster_index: label}}")
    return parser


_COMMANDS = ("label", "eval", "coverage", "distribution", "compare", "diagnose",
             "validate-labels")


def _parse_args(argv) -> argparse.Namespace:
    """argv parsed, with an option that the subcommand does not take
    reported by the subcommand's parser, with its usage.  The subcommand
    takes every argument after its name, so an unknown option is the
    top-level parser's to report only when something comes before that
    name.

    When argv starts with a subcommand's name, only that subcommand's
    parser is built, which prints and parses as the full one does; any
    other argv (top-level -h, an option before the name, an unknown name)
    gets the parser of every subcommand.
    """
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args, extras = parser.parse_known_args(argv)
    if extras:
        reporter = args.command_parser if argv[0] == args.command else parser
        reporter.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    """Run one subcommand with the cyclic garbage collector paused.

    The model holds no reference cycles, so reference counting frees the
    corpus and everything built from it, and a collection while a corpus
    is read or labeled only walks the live objects again.  The cycles that
    argparse and the indenting JSON encoder leave are few and do not grow
    with the corpus.  The collector's previous state is restored however
    the command ends.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except (CorpusFormatError, ReportModeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
