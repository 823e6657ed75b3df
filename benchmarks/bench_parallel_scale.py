"""Candidate-evaluation throughput across execution backends and workers.

Replays the pipeline's phase-4 fan-out — one SMAC run per nominated
algorithm under an evaluation-count budget — through
:func:`repro.parallel.dispatch.execute_candidates` on every backend:

* ``serial`` (1 worker) — the reference plan and the reference results;
* ``thread`` at 2/4 workers — shares every in-process cache but is
  GIL-capped for the numpy-light parts of the loop;
* ``process`` at 2/4 workers — each task travels to a cached worker pool
  by pickle; ``--repeats`` plans reuse one pool.

There is no one-worker thread or process cell: ``get_backend`` runs any
one-worker plan on the serial backend, so the serial cell is the
one-worker point.

Every backend's per-candidate results (best config, CV error, validation
accuracy, evaluation counts) are asserted **identical** to the serial
plan before any number is reported — the determinism contract is part of
the benchmark, not a separate test.  Identity alone would also hold when
a broken process pool replays its plan on threads, so the run exits
non-zero if any process cell logged such a fallback (after writing the
JSON, which counts them per cell).  Speedups are only expected when the
host actually has cores to scale onto; the environment (``cpu_count``,
BLAS, thread settings) is recorded so a 1-core box reporting ~1x is read
as honest, not as a regression.

Writes ``BENCH_parallel_scale.json`` at the repo root.

Run: ``PYTHONPATH=src python benchmarks/bench_parallel_scale.py``
(``--evals/--algorithms/--rows`` shrink it for CI smoke runs).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import time
from pathlib import Path

import numpy as np

from repro.core import SmartMLConfig
from repro.data import SyntheticSpec, make_dataset
from repro.kb.similarity import Nomination
from repro.parallel.dispatch import execute_candidates

from bench_tree_fit import environment

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_parallel_scale.json"

#: Families with enough per-candidate Python work to expose backend scaling.
ALGORITHMS = [
    "random_forest", "svm", "knn", "neural_net", "lda", "naive_bayes",
]


def _problem(rows: int, features: int, classes: int, seed: int):
    ds = make_dataset(
        SyntheticSpec(
            name="parallel-scale", n_instances=rows, n_features=features,
            n_classes=classes, n_informative=max(2, features // 2),
            class_sep=1.6, seed=seed,
        )
    )
    split = int(rows * 0.75)
    return ds.X[:split], ds.y[:split], ds.X[split:], ds.y[split:], classes


def _plan(algorithms: list[str], seed: int):
    rng = np.random.default_rng(seed)
    nominations = [
        Nomination(algorithm=algo, score=1.0 - 0.01 * i)
        for i, algo in enumerate(algorithms)
    ]
    seeds = [int(rng.integers(0, 2**31 - 1)) for _ in nominations]
    budgets = {n.algorithm: None for n in nominations}
    return nominations, seeds, budgets


def _signature(results) -> list[tuple]:
    return [
        (
            r.algorithm, tuple(sorted(r.best_config.items())), r.cv_error,
            r.validation_accuracy, r.n_config_evals, r.n_fold_evals,
        )
        for r in results
    ]


class _FallbackCounter(logging.Handler):
    """Counts plans the dispatcher replayed on threads after a pool failure."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "process backend unavailable" in record.getMessage():
            self.count += 1


def _run(backend: str, workers: int, evals: int, plan, problem,
         repeats: int) -> tuple[float, list[tuple], int]:
    nominations, seeds, budgets = plan
    X_tr, y_tr, X_va, y_va, classes = problem
    config = SmartMLConfig(
        max_evals_per_algorithm=evals, n_folds=3,
        n_jobs=workers, backend=backend,
    )
    best = np.inf
    signature = None
    fallbacks = _FallbackCounter()
    logger = logging.getLogger("repro.parallel")
    logger.addHandler(fallbacks)
    try:
        for _ in range(max(1, repeats)):
            started = time.perf_counter()
            results = execute_candidates(
                nominations, seeds, budgets, config, X_tr, y_tr, X_va, y_va,
                classes,
            )
            elapsed = time.perf_counter() - started
            if elapsed < best:
                best = elapsed
            signature = _signature(results)
    finally:
        logger.removeHandler(fallbacks)
    return best, signature, fallbacks.count


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=900)
    parser.add_argument("--features", type=int, default=16)
    parser.add_argument("--classes", type=int, default=3)
    parser.add_argument("--evals", type=int, default=8,
                        help="SMAC configuration evaluations per algorithm")
    parser.add_argument("--algorithms", type=int, default=len(ALGORITHMS),
                        help="how many families to nominate (CI smoke: 2)")
    parser.add_argument("--workers", type=int, nargs="*", default=[2, 4],
                        help="pool sizes to time, each >= 2 (one worker is "
                        "the serial cell)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="timing repeats per cell (best kept)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if any(workers < 2 for workers in args.workers):
        parser.error("--workers: one worker runs the serial backend; "
                     "the serial cell is the one-worker point")

    algorithms = ALGORITHMS[: max(1, args.algorithms)]
    problem = _problem(args.rows, args.features, args.classes, args.seed)
    plan = _plan(algorithms, args.seed)

    print(f"{len(algorithms)} candidates x {args.evals} evals on "
          f"{args.rows}x{args.features} ({os.cpu_count()} cpu(s)) ...")

    serial_s, reference, _ = _run("serial", 1, args.evals, plan, problem,
                                  args.repeats)
    print(f"serial: {serial_s:.3f}s")

    cells = {}
    for backend in ("thread", "process"):
        for workers in args.workers:
            elapsed, signature, fallbacks = _run(
                backend, workers, args.evals, plan, problem, args.repeats
            )
            if signature != reference:
                raise SystemExit(
                    f"{backend}@{workers}: results diverged from the serial "
                    "plan — determinism contract broken"
                )
            cells[f"{backend}_{workers}"] = {
                "backend": backend, "workers": workers,
                "seconds": round(elapsed, 4),
                "speedup_vs_serial": round(serial_s / elapsed, 2),
                "results_identical": True,
                "thread_fallbacks": fallbacks,
            }
            print(f"{backend}@{workers}: {elapsed:.3f}s "
                  f"({serial_s / elapsed:.2f}x vs serial)"
                  + (f", {fallbacks} thread fallback(s)" if fallbacks else ""))

    payload = {
        "benchmark": "parallel_candidate_scale",
        "candidates": len(algorithms),
        "algorithms": algorithms,
        "evals_per_algorithm": args.evals,
        "rows": args.rows, "features": args.features,
        "classes": args.classes, "repeats": args.repeats,
        "serial_seconds": round(serial_s, 4),
        "cells": cells,
        "env": environment(),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT}")
    broken = [name for name, cell in cells.items() if cell["thread_fallbacks"]]
    if broken:
        raise SystemExit(
            f"{', '.join(broken)}: the process pool failed and the plan was "
            "replayed on threads — identical results do not show a working "
            "process backend"
        )


if __name__ == "__main__":
    main()
