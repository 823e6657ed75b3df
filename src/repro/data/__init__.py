"""Dataset substrate: container, file formats, synthetic corpora."""

from repro._lazy import lazy_exports

__all__ = [
    "Dataset",
    "read_csv",
    "read_arff",
    "parse_csv_text",
    "parse_arff_text",
    "dataset_to_csv",
    "dataset_to_arff",
    "write_csv",
    "write_arff",
    "SyntheticSpec",
    "make_dataset",
    "make_blobs",
    "DatasetCard",
    "TABLE4_CARDS",
    "eval_dataset_names",
    "load_eval_dataset",
    "kb_corpus_specs",
    "load_kb_corpus",
    "ValidationIssue",
    "ValidationReport",
    "validate_dataset",
    "ensure_valid_dataset",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.data.dataset": ("Dataset",),
    "repro.data.io": ("parse_arff_text", "parse_csv_text", "read_arff", "read_csv"),
    "repro.data.registry": (
        "TABLE4_CARDS", "DatasetCard", "eval_dataset_names", "kb_corpus_specs",
        "load_eval_dataset", "load_kb_corpus",
    ),
    "repro.data.synthetic": ("SyntheticSpec", "make_blobs", "make_dataset"),
    "repro.data.validation": (
        "ValidationIssue", "ValidationReport", "ensure_valid_dataset", "validate_dataset",
    ),
    "repro.data.writers": ("dataset_to_arff", "dataset_to_csv", "write_arff", "write_csv"),
})
