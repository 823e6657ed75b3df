"""Graceful degradation: hostile datasets, quarantine, and determinism.

The robustness contract under test:

* feeding **any** generated hostile dataset through validation + the full
  pipeline yields a result or a *structured* error — never an unhandled
  exception and never an uncaught numpy RuntimeWarning;
* a deterministically failing candidate is quarantined (structured
  :class:`CandidateFailure` in its nomination slot) and leaves the
  surviving candidates' results **bit-identical** to a plan it was never
  part of;
* a raising SMAC *trial* is recorded at +inf cost and its configuration
  is never promoted, while infrastructure faults still propagate.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.classifiers import make_classifier
from repro.core import SmartML, SmartMLConfig
from repro.core.result import CandidateFailure, CandidateResult
from repro.data import Dataset
from repro.data.synthetic import SyntheticSpec, make_dataset
from repro.exceptions import DatasetValidationError, ExperimentFailedError
from repro.hpo.objective import CrossValObjective
from repro.hpo.smac import SMAC, SMACSettings
from repro.hpo.spaces import classifier_space
from repro.kb.similarity import Nomination
from repro.metafeatures import extract_metafeatures
from repro.parallel.dispatch import execute_candidates, tune_candidate
from repro.testing import HOSTILE_TRAITS, make_hostile_dataset

FAST = dict(
    time_budget_s=None,
    max_evals_per_algorithm=1,
    n_folds=2,
    n_algorithms=2,
    fallback_portfolio=["knn", "rpart"],
    update_kb=False,
)


def _small_ds(seed=21):
    return make_dataset(
        SyntheticSpec(name="small", n_instances=60, n_features=4, n_classes=2,
                      class_sep=2.0, seed=seed)
    )


# ------------------------------------------------- hostile generator itself
def test_generator_is_deterministic():
    a = make_hostile_dataset(7, traits=("heavy_missing", "constant_column"))
    b = make_hostile_dataset(7, traits=("heavy_missing", "constant_column"))
    assert np.array_equal(a.X, b.X, equal_nan=True)
    assert np.array_equal(a.y, b.y)
    assert a.name == b.name


def test_generator_rejects_unknown_traits():
    with pytest.raises(ValueError):
        make_hostile_dataset(0, traits=("not_a_trait",))


@pytest.mark.parametrize("trait", HOSTILE_TRAITS)
def test_each_trait_materialises(trait):
    ds = make_hostile_dataset(3, traits=(trait,))
    if trait == "single_class":
        assert np.unique(ds.y).size == 1
    elif trait == "lonely_class":
        assert sorted(np.bincount(ds.y))[0] == 1
    elif trait == "tiny":
        assert ds.n_instances <= 3
    elif trait == "inf_values":
        assert np.isinf(ds.X).any()
    elif trait == "all_nan_column":
        assert np.isnan(ds.X).all(axis=0).any()
    elif trait == "constant_column":
        assert any(
            np.nanmax(ds.X[:, j]) == np.nanmin(ds.X[:, j])
            for j in range(ds.n_features)
        )
    elif trait == "heavy_missing":
        assert ds.missing_ratio() > 0.2
    elif trait == "extreme_cardinality":
        assert ds.categorical_mask.any()
    elif trait == "huge_scale":
        assert np.nanmax(np.abs(ds.X)) >= 1e9
    elif trait == "duplicate_rows":
        assert len(np.unique(ds.X, axis=0)) < ds.n_instances


# ------------------------------------------------------- the core property
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    traits=st.sets(st.sampled_from(HOSTILE_TRAITS), max_size=3),
)
def test_any_hostile_dataset_yields_result_or_structured_error(seed, traits):
    """The tentpole property: structured outcome, no unhandled blowups."""
    ds = make_hostile_dataset(seed, traits=tuple(sorted(traits)))
    config = SmartMLConfig(seed=0, **FAST)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            result = SmartML().run(ds, config)
        except (DatasetValidationError, ExperimentFailedError):
            return  # structured rejection is a valid outcome
        assert result.best_algorithm
        assert result.model is not None
        # Degraded results still carry structured failure records.
        if result.degraded:
            assert all(f.error_type for f in result.failures)


def test_near_constant_column_moments_are_warning_clean_and_exact():
    """A column whose ptp clears the 1e-12 guard but whose deviations are
    tiny next to its mean: scipy.stats warns about catastrophic
    cancellation here, and extraction must not pass that warning on, while
    still returning scipy's exact values."""
    from scipy import stats

    col = np.array([1e6, 1e6 + 1e-9, 1e6, 1e6 + 2e-9] * 5)
    ds = Dataset(
        X=np.column_stack([col, np.arange(col.size, dtype=np.float64)]),
        y=np.arange(col.size) % 2,
        categorical_mask=np.array([False, True]),
        name="near-constant",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mf = extract_metafeatures(ds, use_cache=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the oracle itself does warn
        skew, kurt = stats.skew(col), stats.kurtosis(col)
    assert np.isfinite(skew) and np.isfinite(kurt)
    for value in (mf.skewness_min, mf.skewness_max, mf.skewness_mean):
        assert np.float64(value).tobytes() == np.float64(skew).tobytes()
    for value in (mf.kurtosis_min, mf.kurtosis_max, mf.kurtosis_mean):
        assert np.float64(value).tobytes() == np.float64(kurt).tobytes()


# --------------------------------------------- quarantine in the dispatcher
def test_quarantine_leaves_survivors_bit_identical():
    """A failing candidate must not perturb survivors' seeds or results."""
    ds = _small_ds()
    config = SmartMLConfig(seed=0, **FAST)
    rng = np.random.default_rng(0)
    X = ds.X[:40]
    y = ds.y[:40]
    Xv = ds.X[40:]
    yv = ds.y[40:]
    seeds = [int(rng.integers(0, 2**31 - 1)) for _ in range(3)]

    nominate = lambda algo: Nomination(algorithm=algo, score=0.0)
    with_failure = execute_candidates(
        [nominate("knn"), nominate("no_such_algorithm"), nominate("rpart")],
        seeds,
        {"knn": None, "no_such_algorithm": None, "rpart": None},
        config, X, y, Xv, yv, 2,
    )
    without = execute_candidates(
        [nominate("knn"), nominate("rpart")],
        [seeds[0], seeds[2]],
        {"knn": None, "rpart": None},
        config, X, y, Xv, yv, 2,
    )

    assert isinstance(with_failure[1], CandidateFailure)
    assert with_failure[1].phase == "setup"
    assert with_failure[1].seed == seeds[1]
    survivors = [with_failure[0], with_failure[2]]
    assert all(isinstance(c, CandidateResult) for c in survivors)
    for got, expected in zip(survivors, without):
        assert got.algorithm == expected.algorithm
        assert got.best_config == expected.best_config
        assert got.cv_error == expected.cv_error  # bit-identical, no tolerance
        assert got.validation_accuracy == expected.validation_accuracy
        assert got.n_config_evals == expected.n_config_evals


def test_tune_candidate_failure_record_shape():
    ds = _small_ds()
    config = SmartMLConfig(seed=0, **FAST)
    out = tune_candidate(
        "no_such_algorithm", [], None, config,
        ds.X[:40], ds.y[:40], ds.X[40:], ds.y[40:], 2, seed=5, fold_seed=5,
    )
    assert isinstance(out, CandidateFailure)
    assert out.phase == "setup"
    assert out.error_type == "ConfigurationError"
    assert out.traceback_digest  # stable content hash present
    assert out.origin  # innermost frame recorded
    wire = out.to_dict()
    assert wire["algorithm"] == "no_such_algorithm"
    assert isinstance(wire["message"], str)


def test_infrastructure_fault_is_not_quarantined(monkeypatch):
    ds = _small_ds()
    config = SmartMLConfig(seed=0, **FAST)

    def boom(algorithm):
        raise MemoryError("simulated OOM")

    monkeypatch.setattr("repro.parallel.dispatch.classifier_space", boom)
    with pytest.raises(MemoryError):
        tune_candidate(
            "knn", [], None, config,
            ds.X[:40], ds.y[:40], ds.X[40:], ds.y[40:], 2, seed=5, fold_seed=5,
        )


# ----------------------------------------------- quarantine inside the loop
class _FirstConfigFails(CrossValObjective):
    """Raises on every fold of the first configuration it ever sees."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._poison = None

    def evaluate_fold(self, config, key, fold_id):
        if self._poison is None:
            self._poison = key
        if key == self._poison:
            raise ValueError("deterministic trial failure")
        return super().evaluate_fold(config, key, fold_id)


def _objective(cls=CrossValObjective, seed=0):
    ds = _small_ds()
    return cls(
        lambda cfg: make_classifier("knn", **cfg),
        ds.X, ds.y, n_classes=2, n_folds=2, seed=seed,
    )


def test_smac_quarantines_failing_trial_and_recovers():
    space = classifier_space("knn")
    result = SMAC(space, SMACSettings(max_config_evals=4, seed=0)).optimize(
        _objective(_FirstConfigFails)
    )
    assert result.n_failed_trials >= 1
    assert result.failures and result.failures[0]["error"].startswith("ValueError")
    # The poisoned (first/default) config was recorded at +inf, never kept.
    assert np.isinf(result.history[0].cost)
    assert result.history[0].error is not None
    assert np.isfinite(result.incumbent_cost)
    # The incumbent is a surviving configuration, not the poisoned default.
    assert result.incumbent != space.default_config()


def test_smac_all_trials_fail_reports_structured_search_failure():
    class _AlwaysFails(CrossValObjective):
        def evaluate_fold(self, config, key, fold_id):
            raise ZeroDivisionError("nothing works")

    space = classifier_space("knn")
    result = SMAC(space, SMACSettings(max_config_evals=3, seed=0)).optimize(
        _objective(_AlwaysFails)
    )
    assert not np.isfinite(result.incumbent_cost)
    assert result.n_failed_trials >= 1
    assert all(np.isinf(r.cost) for r in result.history)
    assert all(r.error for r in result.history)


def test_smac_infrastructure_fault_propagates():
    class _Infra(CrossValObjective):
        def evaluate_fold(self, config, key, fold_id):
            raise MemoryError("simulated OOM inside a fold")

    space = classifier_space("knn")
    with pytest.raises(MemoryError):
        SMAC(space, SMACSettings(max_config_evals=2, seed=0)).optimize(
            _objective(_Infra)
        )


# --------------------------------------------------- orchestrator behaviour
def test_degraded_run_best_of_survivors():
    ds = _small_ds()
    config = SmartMLConfig(
        seed=0, time_budget_s=None, max_evals_per_algorithm=1, n_folds=2,
        n_algorithms=2, fallback_portfolio=["knn", "no_such_algorithm"],
        update_kb=False,
    )
    result = SmartML().run(ds, config)
    assert result.degraded
    assert result.best_algorithm == "knn"
    assert [f.algorithm for f in result.failures] == ["no_such_algorithm"]
    wire = result.to_dict()
    assert wire["degraded"] is True
    assert wire["failures"][0]["error_type"] == "ConfigurationError"
    assert "DEGRADED" in result.describe()


def test_all_candidates_failed_raises_structured_error():
    ds = _small_ds()
    config = SmartMLConfig(
        seed=0, time_budget_s=None, max_evals_per_algorithm=1, n_folds=2,
        n_algorithms=2, fallback_portfolio=["nope_a", "nope_b"],
        update_kb=False,
    )
    with pytest.raises(ExperimentFailedError) as err:
        SmartML().run(ds, config)
    exc = err.value
    assert len(exc.failures) == 2
    assert {f["algorithm"] for f in exc.failure_dicts()} == {"nope_a", "nope_b"}
    assert "failures" in exc.payload


def test_validation_phase_rejects_before_tuning():
    ds = make_hostile_dataset(1, traits=("single_class",))
    with pytest.raises(DatasetValidationError) as err:
        SmartML().run(ds, SmartMLConfig(seed=0, **FAST))
    codes = {i["code"] for i in err.value.payload["validation"]["errors"]}
    assert "single_class_target" in codes


# ----------------------------------------------------------- job service
def test_job_service_surfaces_degraded_and_validation():
    from repro.api.jobs import JobManager

    manager = JobManager(SmartML(), workers=1, backend="serial")
    try:
        ds = _small_ds()
        # Submit-time validation: a hostile dataset is rejected with 400.
        with pytest.raises(DatasetValidationError) as err:
            manager.submit(
                make_hostile_dataset(1, traits=("single_class",)), 1,
                dict(SmartMLConfig(seed=0, **FAST).to_dict()),
            )
        assert err.value.http_status == 400

        # A degraded run lands as done + degraded with failure records.
        degraded_cfg = SmartMLConfig(
            seed=0, time_budget_s=None, max_evals_per_algorithm=1, n_folds=2,
            n_algorithms=2, fallback_portfolio=["knn", "no_such_algorithm"],
            update_kb=False,
        )
        job = manager.submit(ds, 2, degraded_cfg.to_dict())
        job = manager.wait(job.job_id, timeout=60)
        assert job.status == "done"
        assert job.degraded
        assert job.failures[0]["algorithm"] == "no_such_algorithm"
        wire = job.to_dict()
        assert wire["degraded"] is True
        assert wire["failures"][0]["error_type"] == "ConfigurationError"

        # All candidates failing fails the job with the records attached.
        doomed_cfg = SmartMLConfig(
            seed=0, time_budget_s=None, max_evals_per_algorithm=1, n_folds=2,
            n_algorithms=2, fallback_portfolio=["nope_a", "nope_b"],
            update_kb=False,
        )
        job = manager.submit(ds, 3, doomed_cfg.to_dict())
        job = manager.wait(job.job_id, timeout=60)
        assert job.status == "failed"
        assert {f["algorithm"] for f in job.failures} == {"nope_a", "nope_b"}
    finally:
        manager.shutdown()
