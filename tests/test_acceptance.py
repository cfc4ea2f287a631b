"""Acceptance suite: one test per criterion, each printing via the
conftest terminal-summary hook.  Expected values come from the
brute-force oracles in oracles.py or from hand-derived arithmetic, never
from the code under test.
"""

import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import best_alignment_total, doc_of, tables_of
from coref_semscore.classic_metrics import (
    b_cubed,
    ceaf_phi4,
    conll,
    muc,
)
from coref_semscore.cli import main
from coref_semscore.labeling import (
    LabelingConfig,
    assign_mentions,
    coverage,
    label_documents,
    overlap,
    propagate,
)
from coref_semscore.model import LabelSource, Span
from coref_semscore.typed_metrics import typed_link_scores, typed_mention_scores
from corpusgen import random_corpus, to_documents
from test_commands import conll_text, write_jsonl

CFG = LabelingConfig()
DATA = Path(__file__).parent / "data"


def test_a1_overlap_oracle():
    rng = random.Random(101)
    started = time.perf_counter()
    for _ in range(10_000):
        n = rng.randint(2, 64)
        a_start = rng.randrange(n - 1)
        a_end = rng.randint(a_start + 1, n)
        b_start = rng.randrange(n - 1)
        b_end = rng.randint(b_start + 1, n)
        a, b = Span(a_start, a_end), Span(b_start, b_end)
        score = overlap(a, b)
        assert score == oracles.jaccard((a_start, a_end), (b_start, b_end))
        assert score == overlap(b, a)
        assert overlap(a, a) == 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"overlap oracle took {elapsed:.2f}s"


def test_a2_news_fixture_propagation(news_doc):
    (labeled,) = label_documents([news_doc], CFG, sides=("gold",))
    person, place = labeled.gold_clusters
    assert person.cluster_label == "PER"
    assert place.cluster_label == "LOC"
    assert [(label, source.value) for label, source in zip(person.labels, person.sources)] == [
        ("PER", "direct"),       # honorific + surname, exactly covered
        ("PER", "direct"),       # title + surname
        ("PER", "propagated"),   # pronoun
        ("PER", "propagated"),   # pronoun
        ("PER", "direct"),       # honorific + surname again
    ]
    assert [(label, source.value) for label, source in zip(place.labels, place.sources)] == [
        ("LOC", "direct"),
        ("LOC", "direct"),
    ]


def test_a3_composite_fixture_propagation(composite_doc):
    (labeled,) = label_documents([composite_doc], CFG, sides=("gold",))
    first, second, composite = labeled.gold_clusters
    assert first.cluster_label == "PER"
    assert second.cluster_label == "PER"
    assert composite.cluster_label == "PER"
    assert composite.sources == (LabelSource.DIRECT, LabelSource.PROPAGATED)
    assert composite.labels[1] == "PER"


def test_a4_typed_link_oracle():
    rng = random.Random(404)
    started = time.perf_counter()
    for i in range(500):
        record = random_corpus(
            rng, 1, prefix=f"c{i}_", max_clusters=6, max_total_mentions=8, max_labels=3
        )[0]
        (doc,) = to_documents([record])
        (labeled,) = label_documents([doc], CFG)
        report = typed_link_scores(tables_of([labeled]))
        oracle_labels = {record["doc_id"]: oracles.label_record(record)}
        expected, ug, up = oracles.corpus_typed_counts([record], oracle_labels, "link")
        got = {label: (s.tp, s.fp, s.fn) for label, s in report.per_class.items()}
        want = {label: (c["tp"], c["fp"], c["fn"]) for label, c in expected.items()}
        assert got == want
        assert report.unlabeled_gold == ug
        assert report.unlabeled_predicted == up
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"typed link oracle took {elapsed:.2f}s"


def test_a5_classic_metric_oracles():
    # hand-derived worked examples
    split = doc_of([[(0, 1), (2, 3), (4, 5)]], [[(0, 1), (2, 3)], [(4, 5)]])
    triple = muc(tables_of([split]))
    assert triple.recall == pytest.approx(0.5, abs=1e-9)
    assert triple.precision == pytest.approx(1.0, abs=1e-9)
    assert triple.f1 == pytest.approx(2 / 3, abs=1e-9)

    merged = doc_of([[(0, 1)], [(2, 3)]], [[(0, 1), (2, 3)]])
    triple = muc(tables_of([merged]))
    assert triple.recall == pytest.approx(0.0, abs=1e-9)
    assert triple.precision == pytest.approx(0.0, abs=1e-9)

    b3_doc = doc_of([[(0, 1), (2, 3)], [(4, 5)]], [[(0, 1), (2, 3), (4, 5)]])
    triple = b_cubed(tables_of([b3_doc]))
    assert triple.precision == pytest.approx(5 / 9, abs=1e-9)
    assert triple.recall == pytest.approx(1.0, abs=1e-9)

    even = doc_of([[(0, 1), (2, 3)], [(4, 5), (6, 7)]], [[(0, 1), (4, 5)], [(2, 3), (6, 7)]])
    triple = ceaf_phi4(tables_of([even]))
    assert triple.precision == pytest.approx(0.5, abs=1e-9)
    assert triple.recall == pytest.approx(0.5, abs=1e-9)

    uneven = doc_of([[(0, 1), (2, 3), (4, 5)]], [[(0, 1), (2, 3)], [(4, 5)]])
    triple = ceaf_phi4(tables_of([uneven]))
    assert triple.recall == pytest.approx(0.8, abs=1e-9)
    assert triple.precision == pytest.approx(0.4, abs=1e-9)

    # assignment solver vs exhaustive permutation search, exact equality
    rng = random.Random(505)
    for _ in range(200):
        record = random_corpus(rng, 1, max_clusters=6, max_total_mentions=14)[0]
        doc = to_documents([record])[0]
        gold_sets = [set(c.spans) for c in doc.gold_clusters]
        pred_sets = [set(c.spans) for c in doc.predicted_clusters]
        solver_total = best_alignment_total(gold_sets, pred_sets)
        oracle_total = oracles.ceaf_exhaustive_total(
            [frozenset((s.start, s.end) for s in spans) for spans in gold_sets],
            [frozenset((s.start, s.end) for s in spans) for spans in pred_sets],
        )
        assert solver_total == oracle_total

    # conll_f1 is the mean of the three F1s
    rng = random.Random(506)
    docs = to_documents(random_corpus(rng, 15))
    report = conll(tables_of(docs))
    mean = (report.muc.f1 + report.b_cubed.f1 + report.ceaf_phi4.f1) / 3
    assert abs(report.conll_f1 - mean) < 1e-12


def test_a6_identity_suite():
    rng = random.Random(606)
    for i in range(100):
        records = random_corpus(
            rng, rng.randint(1, 3), prefix=f"i{i}_",
            identity=True, ensure_links=True, ensure_direct=True,
        )
        docs = label_documents(to_documents(records), CFG)
        tables = tables_of(docs)
        mention = typed_mention_scores(tables)
        link = typed_link_scores(tables)
        for report in (mention, link):
            assert report.per_class, "identity corpus must have labeled items"
            assert all(s.f1 == 1.0 for s in report.per_class.values())
            assert report.macro_f1 == 1.0
            assert report.micro.f1 == 1.0
        classic = conll(tables)
        for triple in (classic.muc, classic.b_cubed, classic.ceaf_phi4):
            assert (triple.precision, triple.recall, triple.f1) == (1.0, 1.0, 1.0)
        assert classic.conll_f1 == 1.0


def test_a7_coverage_properties():
    rng = random.Random(707)
    records = random_corpus(rng, 30)
    docs = to_documents(records)

    assigned = [assign_mentions(doc, CFG, "gold") for doc in docs]
    propagated = [propagate(doc, CFG, "gold") for doc in assigned]

    # exact bucket arithmetic
    report = coverage(propagated, "gold")
    counts = report.overall
    assert counts.direct + counts.propagated + counts.unlabeled == counts.total
    assert counts.any_pct == counts.direct_pct + counts.propagated_pct
    assert report.pronoun.any_pct == report.pronoun.direct_pct + report.pronoun.propagated_pct

    # idempotence
    again = [propagate(doc, CFG, "gold") for doc in propagated]
    assert again == propagated

    # propagation only adds labels
    before = coverage(assigned, "gold").overall
    after = counts
    assert after.direct == before.direct
    assert after.direct + after.propagated >= before.direct + before.propagated

    # a cluster of bare pronouns contributes nothing
    pronoun_doc = doc_of([[(0, 1), (2, 3)]], tokens=["he", "saw", "him"], doc_id="pron0")
    (labeled,) = label_documents([pronoun_doc], CFG, sides=("gold",))
    assert labeled.gold_clusters[0].cluster_label is None
    solo = coverage([labeled], "gold").overall
    assert solo.direct == solo.propagated == 0
    assert solo.any_pct == 0.0


def test_a8_tau_monotonicity():
    rng = random.Random(808)
    docs = to_documents(random_corpus(rng, 25))
    previous = None
    for step in range(1, 10):
        cfg = LabelingConfig(tau=step / 10)
        directly_labeled = {
            (doc.doc_id, span.start, span.end)
            for doc in docs
            for cluster in assign_mentions(doc, cfg, "gold").gold_clusters
            for span, source in zip(cluster.spans, cluster.sources)
            if source is LabelSource.DIRECT
        }
        if previous is not None:
            assert directly_labeled <= previous
        previous = directly_labeled


def test_a9_golden_end_to_end(tmp_path):
    corpus = DATA / "mini_corpus.jsonl"
    golden = DATA / "golden_eval_report.json"
    records = [json.loads(line) for line in corpus.read_text().splitlines() if line.strip()]
    assert len(records) >= 40
    classes = {label for r in records for _, _, label in r["cner"]}
    assert len(classes) >= 6
    out = tmp_path / "out"
    code = main(["eval", "--gold", str(corpus), "--typed-mention", "--typed-link",
                 "--classic", "--out", str(out)])
    assert code == 0
    assert (out / "eval_report.json").read_bytes() == golden.read_bytes()


def _crossing(records) -> bool:
    """Whether a cluster of either side holds two spans that cross, which a
    CoNLL-2012 file cannot express."""
    return any(s1 < s2 < e1 < e2 for r in records
               for cluster in (*r["gold_clusters"], *r["predicted_clusters"])
               for s1, e1 in cluster for s2, e2 in cluster)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.data())
def test_eval_report_matches_oracle_over_drawn_options(tmp_path_factory, seed, n_docs, data):
    records = random_corpus(random.Random(seed), n_docs)
    fmt = data.draw(st.sampled_from(["jsonl", "conll"]), label="format")
    assume(fmt == "jsonl" or not _crossing(records))
    overlaps = {oracles.jaccard(span, cner[:2]) for r in records for cner in r["cner"]
                for side in ("gold_clusters", "predicted_clusters")
                for cluster in r[side] for span in cluster}
    tau = data.draw(st.sampled_from(sorted(overlaps | {0.0, 0.5, 1.0})), label="tau")
    inclusive, force, drop = (data.draw(st.booleans(), label=name)
                              for name in ("inclusive", "force", "drop"))
    source = data.draw(st.sampled_from(["predicted", "gold"]), label="source")
    out = tmp_path_factory.mktemp("eval")
    if fmt == "jsonl":
        inputs = ["--gold", write_jsonl(out / "corpus.jsonl", records)]
    else:
        # The predictions go in a second file's coreference column, and the
        # semantic spans in a --cner file keyed by the documents' CoNLL ids.
        for name, side in (("gold.conll", "gold_clusters"), ("pred.conll", "predicted_clusters")):
            (out / name).write_text(conll_text([dict(r, gold_clusters=r[side]) for r in records]),
                                    encoding="utf-8")
        cner = write_jsonl(out / "cner.jsonl", [{"doc_id": f"{r['doc_id']}_part_000",
                                                 "cner": r["cner"]} for r in records])
        inputs = ["--gold", str(out / "gold.conll"), "--pred", str(out / "pred.conll"),
                  "--cner", cner]
    flags = [flag for flag, on in (("--tau-inclusive", inclusive), ("--force-cluster-label", force),
                                   ("--drop-singletons", drop)) if on]
    code = main(["eval", *inputs, "--format", fmt, "--typed-mention", "--typed-link", "--classic",
                 "--tau", repr(tau), "--link-mention-source", source, *flags, "--out", str(out)])
    assert code == 0
    names = dict(zip(("gold_name", "pred_name", "cner_name"),
                     (Path(path).name for path in inputs[1::2])))
    report = oracles.eval_report(records, tau=tau, inclusive=inclusive, drop_singletons=drop,
                                 force=force, link_mention_source=source, fmt=fmt, **names)
    expected = json.dumps(report, indent=2, ensure_ascii=False) + "\n"
    assert (out / "eval_report.json").read_bytes() == expected.encode("utf-8")


def test_a10_throughput():
    rng = random.Random(1010)
    records = random_corpus(
        rng, 1000, prefix="perf",
        n_tokens=(190, 210), max_clusters=8, max_total_mentions=24,
        ensure_links=True,
    )
    docs = to_documents(records)
    started = time.perf_counter()
    labeled = label_documents(docs, CFG)
    tables = tables_of(labeled)
    typed_mention_scores(tables)
    typed_link_scores(tables)
    conll(tables)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"pipeline took {elapsed:.2f}s for 1000 documents"


def test_a11_label_renaming_invariance():
    rng = random.Random(1111)
    for i in range(100):
        records = random_corpus(rng, 1, prefix=f"r{i}_")
        docs = label_documents(to_documents(records), CFG)
        present = sorted({
            label
            for doc in docs
            for side in ("gold", "predicted")
            for cluster in doc.clusters(side)
            for label in [cluster.cluster_label]
            if label
        } | {
            label
            for doc in docs
            for side in ("gold", "predicted")
            for cluster in doc.clusters(side)
            for label in cluster.labels
            if label
        })
        if not present:
            continue
        rotated = present[1:] + present[:1]
        mapping = dict(zip(present, rotated))

        def rename(doc):
            for side in ("gold", "predicted"):
                new = []
                for cluster in doc.clusters(side):
                    new.append(cluster._replace(
                        labels=[label and mapping[label] for label in cluster.labels],
                        cluster_label=mapping.get(cluster.cluster_label),
                    ))
                doc = doc.with_clusters(side, new)
            return doc

        renamed = [rename(doc) for doc in docs]
        for scorer in (typed_mention_scores, typed_link_scores):
            base = scorer(tables_of(docs))
            after = scorer(tables_of(renamed))
            assert set(after.per_class) == {mapping[l] for l in base.per_class}
            for label, score in base.per_class.items():
                moved = after.per_class[mapping[label]]
                assert (moved.tp, moved.fp, moved.fn) == (score.tp, score.fp, score.fn)
                assert moved.f1 == score.f1
            assert after.macro_f1 == base.macro_f1
            assert (after.micro.tp, after.micro.fp, after.micro.fn) == \
                (base.micro.tp, base.micro.fp, base.micro.fn)
            assert after.micro.f1 == base.micro.f1
