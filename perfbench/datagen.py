"""Deterministic inputs for the benchmark workloads.

Every dataset is a pure function of ``(workload seed, stream, index)``, so
the same seed replays the same experiment sequence.  Shapes cycle through a
fixed list whatever the seed: the seed changes the values, not how much
work an experiment is, which keeps run-to-run spread down to what the
service itself contributes.
"""

from __future__ import annotations

import numpy as np

from repro.data.io import parse_csv_text
from repro.data.synthetic import SyntheticSpec, make_dataset
from repro.data.validation import validate_dataset
from repro.data.writers import dataset_to_csv

__all__ = [
    "TUNE_SHAPES",
    "INTAKE_SHAPES",
    "derive_seed",
    "make_experiment_input",
]

#: (rows, features, classes) of ``tune_heavy``'s mid-size datasets.
TUNE_SHAPES = [
    (200, 8, 2), (270, 16, 3), (170, 24, 2), (310, 12, 4),
    (230, 32, 2), (290, 20, 3), (210, 40, 2), (260, 10, 3),
]
#: (rows, features, classes) of ``intake_warm``'s small datasets.
INTAKE_SHAPES = [
    (90, 6, 2), (120, 8, 3), (100, 5, 2), (140, 10, 2),
    (80, 4, 3), (130, 7, 2), (110, 9, 3), (150, 6, 2),
]
_STREAMS = {"tune": 1, "intake": 2, "kb": 4}


def derive_seed(seed: int, stream: str, index: int = 0) -> int:
    """An independent 31-bit seed for one (stream, index) of a workload seed."""
    state = np.random.SeedSequence([int(seed), _STREAMS[stream], int(index)])
    return int(state.generate_state(1)[0] & 0x7FFFFFFF)


class ExperimentInput:
    """One generated dataset as the client uploads it and the server parses it."""

    def __init__(self, name: str, csv: str, n_folds: int):
        self.name = name
        self.csv = csv
        # Parse with the server's own parser so predict rows use exactly the
        # column encoding the registered model was trained on.
        self.parsed = parse_csv_text(csv, target="label", name=name)
        self.validation = validate_dataset(self.parsed, n_folds=n_folds)

    def predict_rows(self, n: int = 2, offset: int = 0) -> list[list[float]]:
        """``n`` rows without missing cells, from the ``offset``-th such row."""
        X = self.parsed.X
        complete = X[~np.isnan(X).any(axis=1)]
        return complete[offset : offset + n].tolist()


def make_experiment_input(kind: str, seed: int, index: int, n_folds: int) -> ExperimentInput:
    """Dataset ``index`` of the ``tune`` or ``intake`` stream for ``seed``."""
    shapes = TUNE_SHAPES if kind == "tune" else INTAKE_SHAPES
    rows, features, classes = shapes[index % len(shapes)]
    spec = SyntheticSpec(
        name=f"{kind}-{seed}-{index}",
        n_instances=rows,
        n_features=features,
        n_classes=classes,
        class_sep=1.2,
        label_noise=0.05,
        imbalance=0.8,
        # The intake stream carries the messiness upload, parsing and the
        # imputer have to handle; the tuning stream stays numeric.
        n_categorical=1 if kind == "intake" else 0,
        missing_ratio=0.02 if kind == "intake" else 0.0,
        seed=derive_seed(seed, kind, index),
    )
    ds = make_dataset(spec)
    return ExperimentInput(spec.name, dataset_to_csv(ds), n_folds)
