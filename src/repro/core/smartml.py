"""The SmartML orchestrator — Figure 1's pipeline end to end.

Phases (names match the architecture figure):

1. **input definition** — a :class:`~repro.data.Dataset` plus a
   :class:`~repro.core.config.SmartMLConfig`;
2. **dataset preprocessing** — train/validation split, the configured
   Table-2 operators (imputation always), optional feature selection, and
   extraction of the 25 meta-features from the training split;
3. **algorithm selection** — weighted nearest-neighbour nomination from the
   knowledge base (falling back to a fixed portfolio on a cold KB);
4. **parameter tuning** — one SMAC run per nominated algorithm, warm-started
   with the KB's best configurations, under a time budget split
   proportionally to hyperparameter counts;
5. **computing output & updating the KB** — candidates are scored on the
   validation split; the winner (optionally a weighted ensemble and a
   permutation-importance report) is returned and the run is appended to
   the knowledge base.
"""

from __future__ import annotations

import time
from collections.abc import Callable

import numpy as np

from repro._lazy import import_pipeline
from repro.core.config import SmartMLConfig
from repro.data.dataset import Dataset
from repro.data.validation import ensure_valid_dataset
from repro.exceptions import ExperimentFailedError, SmartMLError, is_infrastructure_fault
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.similarity import Nomination
from repro.metafeatures import extract_metafeatures

# The pipeline stages are imported where they run (after import_pipeline),
# so a server answers /readyz without loading them.

__all__ = ["SmartML"]


class SmartML:
    """Automated algorithm selection + hyperparameter tuning.

    One instance wraps one knowledge base; every :meth:`run` both consults
    and (by default) enriches it, so repeated use makes the instance
    smarter — the paper's central loop.
    """

    def __init__(
        self,
        knowledge_base: KnowledgeBase | None = None,
        model_registry=None,
    ):
        self.kb = knowledge_base if knowledge_base is not None else KnowledgeBase()
        #: Optional :class:`~repro.serving.registry.ModelRegistry`; when set,
        #: ``run(..., register_as=...)`` persists the winning pipeline there.
        self.registry = model_registry

    # ------------------------------------------------------------------ run
    def run(
        self,
        dataset: Dataset,
        config: SmartMLConfig | None = None,
        on_phase: Callable[[str], None] | None = None,
        kb_sink: Callable[..., int] | None = None,
        register_as: str | None = None,
        registry_sink: Callable[..., dict] | None = None,
    ) -> SmartMLResult:
        """Execute the full pipeline on ``dataset``.

        Parameters
        ----------
        on_phase:
            Optional progress hook, called with the phase name as each
            pipeline phase *starts* (names match ``result.phase_seconds``
            keys).  Used by the async job service to publish partial
            progress; must be cheap.  It is also the **cooperative
            cancellation point**: the hook may raise to abort the run at a
            phase boundary (the job service raises its timeout/abandon
            control exceptions here), and ``run`` propagates the exception
            unchanged without writing to the KB or registry for the
            aborted run.
        kb_sink:
            Optional override for the knowledge-base append.  Called as
            ``kb_sink(dataset_name, metafeatures, runs)`` where ``runs`` is
            a list of per-candidate record dicts; must return the new KB
            dataset id.  The job service passes its single-writer batcher
            here so concurrent workers never write the store directly.
            ``None`` (the default) appends inline, as a single batch.
        register_as:
            Optional model id; when set, the winning pipeline is persisted
            to the model registry once the run completes, and
            ``result.registration`` records the id/version it landed as.
        registry_sink:
            Optional override for the registry write, mirroring ``kb_sink``.
            Called as ``registry_sink(model_id, result, dataset)``; must
            return the registration summary dict.  ``None`` writes through
            ``self.registry`` directly.
        """
        import_pipeline()
        from repro.core.result import CandidateFailure, CandidateResult, SmartMLResult
        from repro.evaluation import accuracy, train_validation_split
        from repro.hpo import allocate_budget, uniform_budget
        from repro.parallel.dispatch import execute_candidates

        config = config or SmartMLConfig()
        if register_as is not None:
            # Fail before any tuning happens, not after minutes of work.
            from repro.serving.registry import ModelRegistry

            ModelRegistry.validate_model_id(register_as)
            if registry_sink is None and self.registry is None:
                raise SmartMLError(
                    "register_as requires a model registry: construct "
                    "SmartML(model_registry=...) or pass registry_sink"
                )
        rng = np.random.default_rng(config.seed)
        phase_seconds: dict[str, float] = {}
        notify = on_phase if on_phase is not None else (lambda phase: None)

        # ---- phase 1.5: input validation ---------------------------------
        # Reject datasets that would deterministically sink the pipeline
        # (single observed class, fewer rows than folds, infinities) with a
        # structured report before any expensive work happens.
        notify("validation")
        started = time.monotonic()
        ensure_valid_dataset(dataset, n_folds=config.n_folds)
        phase_seconds["validation"] = time.monotonic() - started

        # ---- phase 2: preprocessing -------------------------------------
        notify("preprocessing")
        started = time.monotonic()
        try:
            train, validation = train_validation_split(
                dataset, config.validation_fraction,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            pipeline = self._build_pipeline(config)
            train_p = pipeline.fit_transform(train)
            validation_p = pipeline.transform(validation)
        except Exception as exc:
            raise self._pipeline_failure("preprocessing", dataset, exc) from exc
        phase_seconds["preprocessing"] = time.monotonic() - started

        notify("metafeatures")
        started = time.monotonic()
        try:
            metafeatures = extract_metafeatures(train)
        except Exception as exc:
            raise self._pipeline_failure("metafeatures", dataset, exc) from exc
        phase_seconds["metafeatures"] = time.monotonic() - started

        # ---- phase 3: algorithm selection --------------------------------
        notify("algorithm_selection")
        started = time.monotonic()
        nominations = self.kb.nominate(
            metafeatures,
            n_algorithms=config.n_algorithms,
            n_neighbors=config.n_neighbors,
            mode=config.nomination_mode,
        )
        used_meta_learning = bool(nominations)
        if not nominations:
            nominations = [
                Nomination(algorithm=name, score=0.0)
                for name in config.fallback_portfolio[: config.n_algorithms]
            ]
        phase_seconds["algorithm_selection"] = time.monotonic() - started

        # ---- phase 4: hyperparameter tuning -------------------------------
        notify("hyperparameter_tuning")
        started = time.monotonic()
        algorithms = [n.algorithm for n in nominations]
        workers = min(config.n_jobs, len(algorithms))
        if config.time_budget_s is not None:
            splitter = (
                allocate_budget if config.budget_split == "proportional"
                else uniform_budget
            )
            budgets = splitter(config.time_budget_s, algorithms, workers=workers)
        else:
            budgets = {algo: None for algo in algorithms}

        # The dispatch plan: seeds are drawn up front in nomination order so
        # the stream of rng draws — and with it every candidate's SMAC run —
        # is identical whatever backend executes the plan; the dispatcher
        # reduces results back in nomination order.
        seeds = [int(rng.integers(0, 2**31 - 1)) for _ in nominations]
        outcomes = execute_candidates(
            nominations,
            seeds,
            budgets,
            config,
            train_p.X,
            train_p.y,
            validation_p.X,
            validation_p.y,
            dataset.n_classes,
        )
        phase_seconds["hyperparameter_tuning"] = time.monotonic() - started

        # ---- phase 5: output + KB update ----------------------------------
        notify("computing_output")
        started = time.monotonic()
        # Quarantined candidates come back as CandidateFailure records in
        # their nomination slots: the winner is the best of the *survivors*,
        # and the result is flagged degraded.  No survivors at all is a
        # structured experiment failure, never a bare max() crash.
        candidates = [c for c in outcomes if isinstance(c, CandidateResult)]
        failures = [c for c in outcomes if isinstance(c, CandidateFailure)]
        if not candidates:
            summary = "; ".join(
                f"{f.algorithm} [{f.phase}] {f.error_type}" for f in failures
            )
            raise ExperimentFailedError(
                f"experiment on dataset {dataset.name!r} failed: all "
                f"{len(failures)} nominated candidate(s) were quarantined "
                f"({summary})",
                failures=failures,
            )
        best = max(candidates, key=lambda c: c.validation_accuracy)
        result = SmartMLResult(
            dataset_name=dataset.name,
            best_algorithm=best.algorithm,
            best_config=best.best_config,
            validation_accuracy=best.validation_accuracy,
            model=best.model,
            pipeline=pipeline,
            candidates=candidates,
            failures=failures,
            nominations=nominations,
            metafeatures=metafeatures,
            used_meta_learning=used_meta_learning,
        )

        if config.ensemble and len(candidates) > 1:
            members = [
                (c.model, c.validation_accuracy) for c in candidates if c.model is not None
            ]
            if len(members) > 1:
                from repro.ensemble import build_weighted_ensemble

                ensemble = build_weighted_ensemble(members, top_k=config.n_algorithms)
                predictions = ensemble.predict(validation_p.X)
                result.ensemble = ensemble
                result.ensemble_validation_accuracy = accuracy(
                    validation_p.y, predictions
                )

        if config.interpretability and best.model is not None:
            from repro.interpret import permutation_importance

            result.importance = permutation_importance(
                best.model,
                validation_p.X,
                validation_p.y,
                feature_names=validation_p.feature_names,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
        phase_seconds["computing_output"] = time.monotonic() - started

        notify("kb_update")
        started = time.monotonic()
        if config.update_kb:
            runs = [
                {
                    "algorithm": candidate.algorithm,
                    "config": candidate.best_config,
                    "accuracy": candidate.validation_accuracy,
                    "n_folds": config.n_folds,
                    "budget_s": candidate.tuning_seconds,
                }
                for candidate in candidates
            ]
            sink = kb_sink if kb_sink is not None else self.kb.add_result_batch
            result.kb_dataset_id = sink(dataset.name, metafeatures, runs)
        phase_seconds["kb_update"] = time.monotonic() - started

        if register_as is not None:
            notify("model_registration")
            started = time.monotonic()
            reg_sink = (
                registry_sink
                if registry_sink is not None
                else (lambda mid, res, ds: self.registry.register(mid, res, dataset=ds))
            )
            result.registration = reg_sink(register_as, result, dataset)
            phase_seconds["model_registration"] = time.monotonic() - started

        result.phase_seconds = phase_seconds
        return result

    # ------------------------------------------------------------ internals
    @staticmethod
    def _pipeline_failure(
        phase: str, dataset: Dataset, exc: Exception
    ) -> ExperimentFailedError:
        """Wrap a pipeline-phase crash as a structured experiment failure.

        Infrastructure faults re-raise unchanged so the job service's retry
        machinery still sees them; everything else becomes an
        :class:`ExperimentFailedError` carrying one :class:`CandidateFailure`
        record with ``algorithm="(pipeline)"``.
        """
        if is_infrastructure_fault(exc):
            raise exc
        from repro.core.result import CandidateFailure

        failure = CandidateFailure.from_exception("(pipeline)", phase, exc)
        return ExperimentFailedError(
            f"experiment on dataset {dataset.name!r} failed during {phase}: "
            f"{failure.error_type}: {failure.message}",
            failures=[failure],
        )

    @staticmethod
    def _build_pipeline(config: SmartMLConfig) -> Pipeline:
        from repro.preprocess import PREPROCESSOR_REGISTRY, Imputer, Pipeline, UnivariateSelector

        steps = [Imputer()]
        if config.feature_selection_k is not None:
            steps.append(UnivariateSelector(config.feature_selection_k))
        steps.extend(PREPROCESSOR_REGISTRY[name]() for name in config.preprocessing)
        return Pipeline(steps)
