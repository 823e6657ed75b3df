"""Shared fixtures (small, fast, deterministic datasets) and a hang guard.

``--timeout <seconds>`` arms a per-test watchdog built on
:func:`faulthandler.dump_traceback_later`: a test that exceeds the limit
gets every thread's traceback dumped to stderr and the process exits —
turning a silent CI hang (a deadlocked worker, a stuck drain) into a
diagnosable failure.  Implemented locally so the suite has no dependency
on the ``pytest-timeout`` plugin.
"""

from __future__ import annotations

import faulthandler
import json

import numpy as np
import pytest

from repro.data import Dataset, SyntheticSpec, make_dataset


def pytest_addoption(parser):
    parser.addoption(
        "--timeout",
        type=float,
        default=None,
        help="per-test hang guard in seconds: dump all thread tracebacks "
        "and abort the run when a single test exceeds this limit",
    )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    timeout = item.config.getoption("--timeout")
    if not timeout or timeout <= 0:
        return (yield)
    faulthandler.dump_traceback_later(timeout, exit=True)
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def write_legacy_log():
    """Writer of a legacy JSON-lines KB log (the former single-file format).

    ``write(path, batches)`` takes ``(name, metafeatures_dict, runs)`` per
    experiment and lays them down exactly as that store did: one
    sorted-key ``put`` per line, ids 1..N in append order, each run
    pointing at its dataset's id.
    """

    def write(path, batches):
        lines = []
        next_id = 1
        for name, metafeatures, runs in batches:
            dataset_id = next_id
            rows = [("datasets", {"name": name, "metafeatures": metafeatures})]
            rows += [("runs", {"dataset_id": dataset_id, **run}) for run in runs]
            for table, data in rows:
                entry = {"op": "put", "table": table, "id": next_id, "data": data}
                lines.append(json.dumps(entry, sort_keys=True) + "\n")
                next_id += 1
        path.write_text("".join(lines), encoding="utf-8")
        return path

    return write


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def tiny_ds() -> Dataset:
    """Binary, 80 instances, 5 numeric features, well separated."""
    return make_dataset(
        SyntheticSpec(
            name="tiny", n_instances=80, n_features=5, n_classes=2,
            n_informative=3, class_sep=2.5, seed=7,
        )
    )


@pytest.fixture
def multi_ds() -> Dataset:
    """3 classes, 120 instances, 6 features, moderate difficulty."""
    return make_dataset(
        SyntheticSpec(
            name="multi", n_instances=120, n_features=6, n_classes=3,
            n_informative=4, class_sep=1.8, label_noise=0.05, seed=11,
        )
    )


@pytest.fixture
def mixed_ds() -> Dataset:
    """Mixed numeric/categorical features with missing cells."""
    return make_dataset(
        SyntheticSpec(
            name="mixed", n_instances=100, n_features=8, n_classes=3,
            n_informative=5, class_sep=1.6, n_categorical=3,
            missing_ratio=0.05, skew=0.4, imbalance=0.7, seed=13,
        )
    )


@pytest.fixture
def hard_ds() -> Dataset:
    """Nearly unlearnable: heavy label noise, weak separation."""
    return make_dataset(
        SyntheticSpec(
            name="hard", n_instances=90, n_features=4, n_classes=2,
            n_informative=1, class_sep=0.2, label_noise=0.4, seed=17,
        )
    )
