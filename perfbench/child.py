"""Run one coref-semscore CLI command in this fresh interpreter and record it.

    python3 perfbench/child.py MODE RESULT_JSON -- CLI_ARGS...

MODE is one of
  plain  time set-up and the command, nothing else;
  trace  also record a span around every call of the functions in SPANS,
         and every generation-2 collection;
  count  also count the work of the hot helpers (see install_counters).

Set-up is the time from this interpreter's first statement to the end of
importing the package and building the default category inventory, which
every CLI call pays.  The command is timed around `cli.main`, and a fixed
calibration job is timed just before and just after it (see calibrate).
The result, spans included, goes to RESULT_JSON under a run id taken from
its file name; nothing is written there if the command raises.
"""

import time

_T0 = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coref_semscore import classic_metrics, cli, labeling, model, typed_metrics  # noqa: E402
from coref_semscore.inventory import CategoryInventory  # noqa: E402

CategoryInventory.default()
SETUP_S = time.perf_counter() - _T0

MODULES = {
    "cli": cli,
    "labeling": labeling,
    "classic_metrics": classic_metrics,
    "typed_metrics": typed_metrics,
    "model": model,
}

# (module, attribute, span name).  Each function is wrapped at the attribute
# its caller looks it up through, so the program itself is not changed.  A
# span name is the per-layer metric that the span's self time adds to.
SPANS = (
    ("cli", "read_jsonl_corpus", "ingest.read_s"),
    ("cli", "merge_predictions", "ingest.merge_s"),
    ("cli", "attach_semantic_spans", "ingest.merge_s"),
    ("cli", "write_labeled_jsonl", "ingest.write_s"),
    ("cli", "label_documents", "labeling.label_s"),
    ("labeling", "assign_mentions", "labeling.assign_s"),
    ("labeling", "propagate", "labeling.propagate_s"),
    ("cli", "coverage", "labeling.coverage_s"),
    ("cli", "typed_mention_scores", "typed.mention_s"),
    ("cli", "typed_link_scores", "typed.link_s"),
    ("classic_metrics", "muc", "classic.muc_s"),
    ("classic_metrics", "b_cubed", "classic.b3_s"),
    ("classic_metrics", "ceaf_phi4", "classic.ceaf_s"),
    ("classic_metrics", "linear_sum_assignment", "classic.hungarian_s"),
    ("model", "pair_by_doc_id", "model.pair_s"),
    ("typed_metrics", "pair_by_doc_id", "model.pair_s"),
    ("classic_metrics", "pair_by_doc_id", "model.pair_s"),
    ("cli", "typed_report_dict", "reporting.s"),
    ("cli", "classic_report_dict", "reporting.s"),
    ("cli", "coverage_report_dict", "reporting.s"),
    ("cli", "render_typed_table", "reporting.s"),
    ("cli", "render_classic_table", "reporting.s"),
    ("cli", "render_coverage_table", "reporting.s"),
    ("cli", "write_json", "reporting.s"),
)
ROOT_SPAN = "cli.self_s"
GC_SPAN = "gc.gen2_s"


class Tracer:
    """Spans kept in memory as [id, parent id, name, start ns, end ns]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack = [0]
        self.next_id = 1
        self.gc_start = 0

    def _open(self) -> int:
        span_id = self.next_id
        self.next_id += 1
        self.stack.append(span_id)
        return span_id

    def _close(self, span_id: int, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        self.stack.pop()
        self.spans.append([span_id, self.stack[-1], name, start, end])

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            span_id = self._open()
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span_id, name, start)

        return traced

    def on_gc(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self.gc_start = time.perf_counter_ns()
        else:
            end = time.perf_counter_ns()
            self.spans.append([self.next_id, self.stack[-1], GC_SPAN, self.gc_start, end])
            self.next_id += 1


def install_tracer(tracer: Tracer) -> None:
    for module, attr, name in SPANS:
        target = MODULES[module]
        setattr(target, attr, tracer.wrap(getattr(target, attr), name))
    gc.callbacks.append(tracer.on_gc)


def install_counters(counts: dict) -> None:
    """Count the hot helpers' work; every count depends on the inputs only."""
    for key in ("labeling.overlap_calls", "labeling.overlap_hits", "labeling.mentions",
                "labeling.direct", "typed.link_pairs", "classic.hungarian_calls",
                "classic.hungarian_cells", "model.pair_calls", "ingest.bytes_out"):
        counts[key] = 0

    overlap = labeling.overlap

    def counted_overlap(a, b):
        score = overlap(a, b)
        counts["labeling.overlap_calls"] += 1
        counts["labeling.overlap_hits"] += score > 0.0
        return score

    assign = labeling.assign_mentions

    def counted_assign(doc, cfg, side):
        labeled = assign(doc, cfg, side)
        for cluster in labeled.clusters(side):
            for mention in cluster.mentions:
                counts["labeling.mentions"] += 1
                counts["labeling.direct"] += mention.label_source is model.LabelSource.DIRECT
        return labeled

    links_of = typed_metrics.links_of

    def counted_links_of(cluster):
        links = links_of(cluster)
        counts["typed.link_pairs"] += len(links)
        return links

    solve = classic_metrics.linear_sum_assignment

    def counted_solve(matrix, *args, **kwargs):
        counts["classic.hungarian_calls"] += 1
        counts["classic.hungarian_cells"] += matrix.size
        return solve(matrix, *args, **kwargs)

    def counted_pair(fn):
        def pair(*args, **kwargs):
            counts["model.pair_calls"] += 1
            return fn(*args, **kwargs)

        return pair

    write = cli.write_labeled_jsonl

    def counted_write(docs, dest):
        write(docs, dest)
        counts["ingest.bytes_out"] += os.path.getsize(dest)

    labeling.overlap = counted_overlap
    labeling.assign_mentions = counted_assign
    typed_metrics.links_of = counted_links_of
    classic_metrics.linear_sum_assignment = counted_solve
    for module in (model, typed_metrics, classic_metrics):
        module.pair_by_doc_id = counted_pair(module.pair_by_doc_id)
    cli.write_labeled_jsonl = counted_write


def calibrate() -> float:
    """Seconds taken by a fixed job that, like the scorer, chases pointers
    through a dict and sorts.  It allocates almost nothing the collector
    tracks, and collection is off while it runs, so it leaves the command's
    garbage collection about as it found it."""
    table = {i: (i * 7919) % 100003 for i in range(50000)}
    keys = [(i * 104729) % 50000 for i in range(50000)]
    gc.disable()
    started = time.perf_counter()
    total = 0
    for key in keys:
        total += table[key]
    sorted(table[key] * 50000 + key for key in keys)
    elapsed = time.perf_counter() - started
    gc.enable()
    return elapsed


def main() -> int:
    mode, result_path, sep, *argv = sys.argv[1:]
    if mode not in ("plain", "trace", "count") or sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    result: dict = {"run_id": Path(result_path).stem, "setup_s": SETUP_S}
    tracer = Tracer()
    if mode == "trace":
        install_tracer(tracer)
    elif mode == "count":
        result["counts"] = {}
        install_counters(result["counts"])
    command = tracer.wrap(cli.main, ROOT_SPAN) if mode == "trace" else cli.main
    calibrated = calibrate()
    gen2_before = gc.get_stats()[2]["collections"]
    started = time.perf_counter()
    code = command(argv)
    result["wall_s"] = time.perf_counter() - started
    result["gen2_collections"] = gc.get_stats()[2]["collections"] - gen2_before
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["cal_s"] = [calibrated, calibrate()]
    result["exit"] = code
    if mode == "trace":
        gc.callbacks.remove(tracer.on_gc)
        result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
