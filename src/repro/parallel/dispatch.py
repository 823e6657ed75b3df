"""Deterministic candidate fan-out over an execution backend.

``SmartML.run`` phase 4 hands this module a **dispatch plan**: nominated
algorithms, their per-candidate seeds (pre-drawn in nomination order from
the master rng) and their time budgets.  :func:`execute_candidates` runs
the plan on the configured backend and returns results **in nomination
order**, so

    ``backend="process"`` == ``backend="thread"`` == ``backend="serial"``

bit for bit whenever the budget is evaluation-count based (wall-clock
budgets make any backend timing-dependent, exactly as before).  The
determinism contract:

* every candidate's seed is drawn before dispatch, in nomination order —
  no backend ever touches the master rng;
* all candidates share one fold split (``fold_seed = seeds[0]``), so the
  first candidate's folds are bit-identical to the pre-PR-6 behaviour
  and every fold's presort/substrate is computed once per process;
* results are reduced in submission order, whatever order workers finish.

**One dispatch path.**  Every backend maps the same module-level task
(:func:`_tune_nominated` bound to the plan's arrays and config with
``functools.partial``) over the ``(nomination, seed)`` pairs.  Under
``process`` the task and its arrays travel by pickle, so each worker holds
private copies of the fold data; :func:`canonical_fold` then shares each
fold's presort/substrate across the candidates a worker runs.

**Degradation.**  If the process pool breaks mid-plan (worker crash) or a
payload will not pickle, the full plan is replayed on the **thread**
backend with a logged warning — seeds were pre-drawn, so the replay is
result-identical and jobs never fail for infrastructure reasons.
"""

from __future__ import annotations

import logging
from functools import partial

import numpy as np

from repro.classifiers import make_classifier
from repro.core.config import SmartMLConfig
from repro.core.result import CandidateFailure, CandidateResult
from repro.evaluation.metrics import accuracy
from repro.exceptions import SearchError, is_infrastructure_fault
from repro.hpo.objective import CrossValObjective
from repro.hpo.smac import SMAC, SMACSettings
from repro.hpo.spaces import classifier_space
from repro.kb.similarity import Nomination
from repro.parallel.backend import (
    ProcessBackend,  # noqa: F401 - get_backend's process leg, patchable here
    ProcessBackendUnavailable,
    ThreadBackend,
    get_backend,
)

__all__ = [
    "execute_candidates",
    "tune_candidate",
]

logger = logging.getLogger("repro.parallel")


def tune_candidate(
    algorithm: str,
    warm_configs: list[dict],
    budget_s: float | None,
    config: SmartMLConfig,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    n_classes: int,
    seed: int,
    fold_seed: int | None = None,
) -> CandidateResult | CandidateFailure:
    """One SMAC run for one nominated algorithm (any backend, any process).

    **Fault quarantine**: a deterministic failure anywhere in the candidate
    — building the space, splitting folds, the SMAC loop, the final refit —
    is caught and returned as a structured :class:`CandidateFailure` instead
    of raising, so one bad candidate can never sink the whole experiment.
    Infrastructure faults (pool death, OOM) still raise:
    those are the environment's fault and the job service retries them.
    """
    phase = "setup"
    incumbent: dict | None = None
    try:
        space = classifier_space(algorithm)
        objective = CrossValObjective(
            lambda cfg, _algo=algorithm: make_classifier(_algo, **cfg),
            X_train,
            y_train,
            n_classes=n_classes,
            n_folds=config.n_folds,
            seed=seed,
            fold_seed=fold_seed,
        )
        settings = SMACSettings(
            time_budget_s=budget_s,
            max_config_evals=config.max_evals_per_algorithm,
            seed=seed,
        )
        smac = SMAC(space, settings)

        phase = "search"
        search = smac.optimize(objective, initial_configs=warm_configs)
        incumbent = search.incumbent
        if not np.isfinite(search.incumbent_cost) and search.n_failed_trials:
            # Every evaluated configuration was quarantined: the refit below
            # would reproduce the same deterministic failure, so report the
            # search-phase cause directly.
            raise SearchError(
                f"all {search.n_config_evals} evaluated configuration(s) "
                f"failed; first cause: {search.failures[0]['error']}"
                if search.failures
                else "all evaluated configurations failed"
            )

        phase = "refit"
        model = make_classifier(algorithm, **search.incumbent)
        model.fit(X_train, y_train, n_classes=n_classes)
        validation_accuracy = accuracy(y_val, model.predict(X_val))
    except Exception as exc:
        if is_infrastructure_fault(exc):
            raise
        failure = CandidateFailure.from_exception(
            algorithm, phase, exc, config=incumbent, seed=seed
        )
        logger.warning("candidate quarantined: %s", failure.describe())
        return failure

    return CandidateResult(
        algorithm=algorithm,
        best_config=search.incumbent,
        cv_error=search.incumbent_cost,
        validation_accuracy=validation_accuracy,
        n_config_evals=search.n_config_evals,
        n_fold_evals=search.n_fold_evals,
        tuning_seconds=search.elapsed_s,
        warm_started=bool(warm_configs),
        model=model,
        n_failed_trials=search.n_failed_trials,
    )


def _tune_nominated(
    pair: tuple[Nomination, int],
    budgets: dict[str, float | None],
    config: SmartMLConfig,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    n_classes: int,
    fold_seed: int,
) -> CandidateResult | CandidateFailure:
    """The dispatch task: tune one ``(nomination, seed)`` pair of the plan."""
    nomination, seed = pair
    return tune_candidate(
        nomination.algorithm,
        nomination.warm_configs,
        budgets[nomination.algorithm],
        config,
        X_train,
        y_train,
        X_val,
        y_val,
        n_classes,
        seed=seed,
        fold_seed=fold_seed,
    )


def execute_candidates(
    nominations: list[Nomination],
    seeds: list[int],
    budgets: dict[str, float | None],
    config: SmartMLConfig,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    n_classes: int,
) -> list[CandidateResult | CandidateFailure]:
    """Run the dispatch plan on the configured backend; nomination order out.

    Deterministic per-candidate failures come back as structured
    :class:`CandidateFailure` entries in their nomination slot (see
    :func:`tune_candidate`); because every candidate's seed and the shared
    ``fold_seed`` are fixed before dispatch, a quarantined candidate leaves
    the surviving candidates' results bit-identical to a plan it was never
    part of.
    """
    if len(nominations) != len(seeds):
        raise ValueError("one pre-drawn seed per nomination is required")
    workers = min(config.n_jobs, len(nominations))
    task = partial(
        _tune_nominated,
        budgets=budgets,
        config=config,
        X_train=X_train,
        y_train=y_train,
        X_val=X_val,
        y_val=y_val,
        n_classes=n_classes,
        fold_seed=int(seeds[0]) if seeds else 0,
    )
    pairs = list(zip(nominations, seeds))
    try:
        return get_backend(config.backend, workers).map(task, pairs)
    except ProcessBackendUnavailable as exc:
        logger.warning(
            "process backend unavailable (%s); falling back to the thread "
            "backend — results are unchanged because candidate seeds were "
            "drawn before dispatch", exc,
        )
        return ThreadBackend(workers).map(task, pairs)
