"""Brute-force reference implementations used to check the package.

Everything here works on plain Python structures (records parsed straight
from JSONL) and favors obviousness over speed: token sets are materialized,
pairs are enumerated with double loops, the optimal cluster alignment is an
exhaustive search over permutations, and all ratios are exact Fractions
converted to float at the last moment.  None of it shares code with the
package being tested.

A record is a dict with keys doc_id, tokens, gold_clusters,
predicted_clusters, cner; clusters are lists of [start, end] pairs and
cner is a list of [start, end, label] triples.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import fsum


# ---------------------------------------------------------------------------
# Labeling


def token_set(span) -> set[int]:
    """Indices covered by a span: {start, ..., end - 1}."""
    return set(range(span.start, span.end))


def jaccard(span_a, span_b) -> float:
    sa = set(range(span_a[0], span_a[1]))
    sb = set(range(span_b[0], span_b[1]))
    inter = sa & sb
    if not inter:
        return 0.0
    return len(inter) / len(sa | sb)


def assign_side(clusters, cner, tau=0.5, inclusive=False):
    """Per-cluster list of per-mention (label, overlap), None when unassigned."""
    out = []
    for cluster in clusters:
        row = []
        for span in cluster:
            best_score = 0.0
            best_key = None
            for cs, ce, label in cner:
                score = jaccard(span, (cs, ce))
                if score <= 0.0:
                    continue
                key = (cs, ce, label)
                if best_key is None or score > best_score or (
                    score == best_score and key < best_key
                ):
                    best_score, best_key = score, key
            passed = best_key is not None and (
                best_score >= tau if inclusive else best_score > tau
            )
            row.append((best_key[2], best_score) if passed else (None, None))
        out.append(row)
    return out


def propagate_side(assigned, force=False):
    """(cluster_labels, per-mention (label, source)) after majority voting.

    With `force`, each direct mention of a labeled cluster takes the
    cluster label and stays direct."""
    cluster_labels = []
    mention_rows = []
    for row in assigned:
        votes = {}
        for label, score in row:
            if label is not None:
                votes.setdefault(label, []).append(score)
        if not votes:
            cluster_labels.append(None)
            mention_rows.append([(None, "none")] * len(row))
            continue
        winner = min(
            (-len(scores), -(fsum(scores) / len(scores)), label)
            for label, scores in votes.items()
        )[2]
        cluster_labels.append(winner)
        mention_rows.append(
            [((winner if force else label), "direct") if label is not None
             else (winner, "propagated")
             for label, _ in row]
        )
    return cluster_labels, mention_rows


def label_record(record, tau=0.5, inclusive=False, force=False):
    """{"gold"/"predicted": (cluster_labels, mention_rows)} for one record."""
    cner = [tuple(t) for t in record.get("cner", [])]
    out = {}
    for side in ("gold", "predicted"):
        clusters = [[tuple(s) for s in c] for c in record.get(f"{side}_clusters", [])]
        out[side] = propagate_side(assign_side(clusters, cner, tau, inclusive), force)
    return out


# ---------------------------------------------------------------------------
# Typed counting


def mention_label_map(clusters, mention_rows):
    out = {}
    for ci, cluster in enumerate(clusters):
        for mi, span in enumerate(cluster):
            out[tuple(span)] = mention_rows[ci][mi][0]
    return out


def link_label_map(clusters, cluster_labels):
    out = {}
    for ci, cluster in enumerate(clusters):
        for i in range(len(cluster)):
            for j in range(len(cluster)):
                if i < j:
                    a, b = tuple(cluster[i]), tuple(cluster[j])
                    pair = (a, b) if a <= b else (b, a)
                    out[pair] = cluster_labels[ci]
    return out


def typed_counts(gold_map, pred_map):
    """Class-matched tp/fp/fn plus unlabeled tallies for one document."""
    counts = {}
    unlabeled_gold = unlabeled_pred = 0

    def bump(label, kind):
        counts.setdefault(label, {"tp": 0, "fp": 0, "fn": 0})[kind] += 1

    for item, label in pred_map.items():
        if label is None:
            unlabeled_pred += 1
        elif gold_map.get(item) == label:
            bump(label, "tp")
        else:
            bump(label, "fp")
    for item, label in gold_map.items():
        if label is None:
            unlabeled_gold += 1
        elif pred_map.get(item) != label:
            bump(label, "fn")
    return counts, unlabeled_gold, unlabeled_pred


def merge_counts(total, part):
    for label, kinds in part.items():
        slot = total.setdefault(label, {"tp": 0, "fp": 0, "fn": 0})
        for kind, value in kinds.items():
            slot[kind] += value


def corpus_typed_counts(records, labeled, mode):
    """Pooled typed counts over a corpus; labeled maps doc_id -> label_record."""
    totals: dict = {}
    unlabeled_gold = unlabeled_pred = 0
    for record in records:
        labels = labeled[record["doc_id"]]
        maps = {}
        for side in ("gold", "predicted"):
            clusters = [[tuple(s) for s in c] for c in record.get(f"{side}_clusters", [])]
            cluster_labels, mention_rows = labels[side]
            if mode == "mention":
                maps[side] = mention_label_map(clusters, mention_rows)
            else:
                maps[side] = link_label_map(clusters, cluster_labels)
        part, ug, up = typed_counts(maps["gold"], maps["predicted"])
        merge_counts(totals, part)
        unlabeled_gold += ug
        unlabeled_pred += up
    return totals, unlabeled_gold, unlabeled_pred


# ---------------------------------------------------------------------------
# Classic metrics


def _cluster_sets(clusters):
    return [frozenset(tuple(span) for span in cluster) for cluster in clusters]


def muc_side_counts(own, other):
    index = {}
    for j, spans in enumerate(other):
        for span in spans:
            index[span] = j
    num = den = 0
    for spans in own:
        cells = set()
        unmatched = 0
        for span in spans:
            if span in index:
                cells.add(index[span])
            else:
                unmatched += 1
        num += len(spans) - (len(cells) + unmatched)
        den += len(spans) - 1
    return num, den


def b_cubed_side(own, other):
    index = {}
    for j, spans in enumerate(other):
        for span in spans:
            index[span] = j
    total = Fraction(0)
    count = 0
    for spans in own:
        for span in spans:
            count += 1
            j = index.get(span)
            if j is not None:
                total += Fraction(len(spans & other[j]), len(spans))
    return total, count


def phi4(gold, pred) -> Fraction:
    return Fraction(2 * len(gold & pred), len(gold) + len(pred))


def ceaf_exhaustive_total(gold_sets, pred_sets) -> Fraction:
    """Maximum total phi4 over all one-to-one alignments, by enumeration."""
    if not gold_sets or not pred_sets:
        return Fraction(0)
    if len(gold_sets) <= len(pred_sets):
        small, large = gold_sets, pred_sets
    else:
        small, large = pred_sets, gold_sets
    best = Fraction(0)
    for perm in permutations(range(len(large)), len(small)):
        total = sum((phi4(small[i], large[j]) for i, j in enumerate(perm)), Fraction(0))
        if total > best:
            best = total
    return best


def prf(p_num, p_den, r_num, r_den):
    p = Fraction(p_num) / p_den if p_den else Fraction(0)
    r = Fraction(r_num) / r_den if r_den else Fraction(0)
    f1 = 2 * p * r / (p + r) if p + r else Fraction(0)
    return float(p), float(r), float(f1)


def classic_counts(records):
    """(MUC, B-cubed, CEAF) counts pooled over a corpus, each as
    (p_num, p_den, r_num, r_den) with exact numerators."""
    muc = [0, 0, 0, 0]
    b3 = [Fraction(0), 0, Fraction(0), 0]
    ceaf = [Fraction(0), 0, Fraction(0), 0]
    for record in records:
        gold = _cluster_sets(record.get("gold_clusters", []))
        pred = _cluster_sets(record.get("predicted_clusters", []))
        aligned = ceaf_exhaustive_total(gold, pred)
        for total, counts in (
            (muc, (*muc_side_counts(pred, gold), *muc_side_counts(gold, pred))),
            (b3, (*b_cubed_side(pred, gold), *b_cubed_side(gold, pred))),
            (ceaf, (aligned, len(pred), aligned, len(gold))),
        ):
            for k, value in enumerate(counts):
                total[k] += value
    return tuple(muc), tuple(b3), tuple(ceaf)


def classic_scores(records):
    """{"muc"/"b_cubed"/"ceaf_phi4": (p, r, f1), "conll_f1": float}."""
    muc_triple, b3_triple, ceaf_triple = (prf(*counts) for counts in classic_counts(records))
    return {
        "muc": muc_triple,
        "b_cubed": b3_triple,
        "ceaf_phi4": ceaf_triple,
        "conll_f1": (muc_triple[2] + b3_triple[2] + ceaf_triple[2]) / 3,
    }


# ---------------------------------------------------------------------------
# Report assembly (mirrors the CLI's eval_report.json shape)


def _class_row(kinds):
    tp, fp, fn = kinds["tp"], kinds["fp"], kinds["fn"]
    denom = 2 * tp + fp + fn
    return {
        "tp": tp,
        "fp": fp,
        "fn": fn,
        "precision": tp / (tp + fp) if tp + fp else 0.0,
        "recall": tp / (tp + fn) if tp + fn else 0.0,
        "f1": 2 * tp / denom if denom else 0.0,
        "support": tp + fn,
    }


def typed_report(counts, unlabeled_gold, unlabeled_pred, mode, link_mention_source=None):
    rows = {label: _class_row(kinds) for label, kinds in counts.items()}
    ordered = dict(sorted(rows.items(), key=lambda item: (-item[1]["support"], item[0])))
    tp = sum(row["tp"] for row in ordered.values())
    fp = sum(row["fp"] for row in ordered.values())
    fn = sum(row["fn"] for row in ordered.values())
    denom = 2 * tp + fp + fn
    macro_values = [row["f1"] for row in ordered.values() if row["support"] > 0]
    return {
        "mode": mode,
        "link_mention_source": link_mention_source,
        "per_class": ordered,
        "micro": {
            "tp": tp,
            "fp": fp,
            "fn": fn,
            "precision": tp / (tp + fp) if tp + fp else 0.0,
            "recall": tp / (tp + fn) if tp + fn else 0.0,
            "f1": 2 * tp / denom if denom else 0.0,
        },
        "macro_f1": fsum(macro_values) / len(macro_values) if macro_values else 0.0,
        "macro_classes": sorted(l for l, r in ordered.items() if r["support"] > 0),
        "predicted_only_classes": sorted(l for l, r in ordered.items() if r["support"] == 0),
        "unlabeled_gold": unlabeled_gold,
        "unlabeled_predicted": unlabeled_pred,
    }


def without_singletons(record):
    """The record with its size-1 clusters dropped from both sides."""
    out = dict(record)
    for key in ("gold_clusters", "predicted_clusters"):
        out[key] = [c for c in record.get(key, []) if len(c) > 1]
    return out


def classic_report(records, drop_singletons=False):
    if drop_singletons:
        records = [without_singletons(r) for r in records]
    scores = classic_scores(records)
    out = {}
    for name in ("muc", "b_cubed", "ceaf_phi4"):
        p, r, f1 = scores[name]
        out[name] = {"precision": p, "recall": r, "f1": f1}
    out["conll_f1"] = scores["conll_f1"]
    return out


def containment_violations(records):
    """The number of predicted mention spans that are no gold mention span."""
    return sum(
        len({tuple(s) for c in r.get("predicted_clusters", []) for s in c}
            - {tuple(s) for c in r.get("gold_clusters", []) for s in c})
        for r in records
    )


def eval_report(records, gold_name, tau=0.5, inclusive=False, drop_singletons=False,
                force=False, link_mention_source="predicted", *, pred_name=None, cner_name=None,
                fmt="jsonl"):
    """Full eval report for a combined corpus, in the CLI's JSON shape.

    pred_name, cner_name and fmt are the config's names of the --pred and
    --cner files and its --format; they change no score.

    With drop_singletons, size-1 clusters are dropped from both sides
    before classic scoring only; the typed blocks score every cluster.
    With link_mention_source "gold", the link block also counts the
    predicted mention spans that are no gold mention span."""
    labeled = {r["doc_id"]: label_record(r, tau, inclusive, force) for r in records}
    mention = typed_report(
        *corpus_typed_counts(records, labeled, "mention"), mode="mention"
    )
    link = typed_report(
        *corpus_typed_counts(records, labeled, "link"),
        mode="link",
        link_mention_source=link_mention_source,
    )
    if link_mention_source == "gold":
        link["containment_violations"] = containment_violations(records)
    return {
        "config": {
            "gold": gold_name,
            "pred": pred_name,
            "cner": cner_name,
            "format": fmt,
            "tau": tau,
            "tau_inclusive": inclusive,
            "force_cluster_label": force,
            "link_mention_source": link_mention_source,
            "drop_singletons": drop_singletons,
        },
        "typed_mention": mention,
        "typed_link": link,
        "classic": classic_report(records, drop_singletons),
    }
