"""Semantically typed coreference evaluation toolkit.

The exports below are looked up in their modules on first access (PEP
562), so importing the package, or one of its modules, loads only what
is used.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each exported name -> the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "classic_metrics": "ClassicReport MetricTriple b_cubed ceaf_phi4 conll "
                           "drop_singleton_clusters muc",
        "conll2012": "read_conll2012",
        "ingest": "CorpusFormatError merge_predictions read_jsonl_corpus write_labeled_jsonl",
        "inventory": "Category CategoryInventory UnknownLabelError",
        "label_reports": "DistributionReport distribution label_agreement",
        "labeling": "CoverageReport LabelingConfig assign_mentions coverage label_documents "
                    "overlap propagate",
        "model": "Cluster Contingency Document DocumentPairingError LabelSource Span "
                 "contingency validate_document",
        "typed_metrics": "ClassScore TypedScoreReport links_of macro_f1 micro_score "
                         "typed_link_scores typed_mention_scores",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
