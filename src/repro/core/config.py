"""User-facing experiment configuration (the paper's input-definition phase).

Mirrors the options of the SmartML web form (Figure 2): preprocessing
choices, feature selection, validation split, time budget, whether to build
an ensemble and whether to produce interpretability output — plus the
search knobs a library user needs (seeds, fold counts, evaluation caps for
deterministic runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError

__all__ = ["BACKEND_NAMES", "SmartMLConfig", "validate_backend_name"]

BACKEND_NAMES = ("serial", "thread", "process")


def validate_backend_name(name: str) -> str:
    if name not in BACKEND_NAMES:
        raise ConfigurationError(
            f"unknown execution backend {name!r}; "
            f"choose one of {', '.join(BACKEND_NAMES)}"
        )
    return name


@dataclass
class SmartMLConfig:
    """Everything a SmartML run needs besides the dataset itself.

    Parameters
    ----------
    preprocessing:
        Table-2 operator names applied in order (imputation is implicit).
    feature_selection_k:
        Keep only the k best features by ANOVA F (``None`` disables).
    validation_fraction:
        Held-out share used to score tuned candidates.
    time_budget_s:
        Wall-clock budget for the whole tuning phase, divided among
        nominated algorithms proportionally to their parameter counts.
    max_evals_per_algorithm:
        Optional per-algorithm cap on SMAC configuration evaluations; with
        ``time_budget_s=None`` this gives fully deterministic runs.
    n_algorithms:
        How many candidate algorithms the meta-learner nominates.
    n_neighbors:
        How many similar KB datasets inform the nomination.
    nomination_mode:
        ``"weighted"`` (paper rule) or ``"distance"`` (ablation).
    budget_split:
        ``"proportional"`` divides the time budget among nominated
        algorithms by hyperparameter count (the paper rule);
        ``"uniform"`` splits it equally (the ablation control).
    fallback_portfolio:
        Algorithms used when the KB is empty or nomination fails.
    ensemble:
        Also build the weighted ensemble of the tuned candidates.
    interpretability:
        Also compute permutation importance for the recommended model.
    update_kb:
        Append this run's outcome to the knowledge base afterwards.
    n_folds:
        Stratified folds used inside SMAC's racing.
    n_jobs:
        Workers tuning nominated algorithms concurrently in phase 4
        (1 = sequential).  Per-candidate seeds are drawn up front in
        nomination order, so results are identical to a sequential run
        whenever the budget is evaluation-count based.
    backend:
        How phase-4 candidate evaluation crosses ``n_jobs``:
        ``"thread"`` (default) uses an in-process thread pool,
        ``"process"`` a process pool that receives the fold data by
        pickle (scales with cores; replays the plan on threads if the
        pool breaks), ``"serial"`` forces a plain loop and requires
        ``n_jobs=1``.  All three produce identical results
        under evaluation-count budgets.
    seed:
        Master seed; all phase seeds derive from it.
    """

    preprocessing: list[str] = field(default_factory=list)
    feature_selection_k: int | None = None
    validation_fraction: float = 0.25
    time_budget_s: float | None = 10.0
    max_evals_per_algorithm: int | None = None
    n_algorithms: int = 3
    n_neighbors: int = 3
    nomination_mode: str = "weighted"
    budget_split: str = "proportional"
    fallback_portfolio: list[str] = field(
        default_factory=lambda: ["random_forest", "svm", "knn"]
    )
    ensemble: bool = False
    interpretability: bool = False
    update_kb: bool = True
    n_folds: int = 3
    n_jobs: int = 1
    backend: str = "thread"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.preprocessing:
            from repro.preprocess import PREPROCESSOR_REGISTRY
        for name in self.preprocessing:
            if name not in PREPROCESSOR_REGISTRY:
                raise ConfigurationError(
                    f"unknown preprocessing operator {name!r}; "
                    f"known: {sorted(PREPROCESSOR_REGISTRY)}"
                )
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigurationError("validation_fraction must be in (0, 1)")
        if self.time_budget_s is None and self.max_evals_per_algorithm is None:
            raise ConfigurationError(
                "set time_budget_s and/or max_evals_per_algorithm"
            )
        if self.time_budget_s is not None and self.time_budget_s <= 0:
            raise ConfigurationError("time_budget_s must be positive")
        if self.max_evals_per_algorithm is not None and self.max_evals_per_algorithm < 1:
            raise ConfigurationError("max_evals_per_algorithm must be >= 1")
        if self.n_algorithms < 1:
            raise ConfigurationError("n_algorithms must be >= 1")
        if self.n_neighbors < 1:
            raise ConfigurationError("n_neighbors must be >= 1")
        if self.nomination_mode not in ("weighted", "distance"):
            raise ConfigurationError("nomination_mode must be 'weighted' or 'distance'")
        if self.budget_split not in ("proportional", "uniform"):
            raise ConfigurationError(
                "budget_split must be 'proportional' or 'uniform'"
            )
        if self.n_folds < 2:
            raise ConfigurationError("n_folds must be >= 2")
        if self.n_jobs < 1:
            raise ConfigurationError("n_jobs must be >= 1")
        validate_backend_name(self.backend)
        if self.backend == "serial" and self.n_jobs != 1:
            raise ConfigurationError(
                f"backend='serial' evaluates candidates one at a time and "
                f"requires n_jobs=1 (got n_jobs={self.n_jobs}); choose "
                "backend='thread' or backend='process' for concurrent tuning"
            )
        if not self.fallback_portfolio:
            raise ConfigurationError("fallback_portfolio must not be empty")

    def to_dict(self) -> dict:
        """JSON-friendly form (REST wire format, Figure 2 rendering)."""
        return {
            "preprocessing": list(self.preprocessing),
            "feature_selection_k": self.feature_selection_k,
            "validation_fraction": self.validation_fraction,
            "time_budget_s": self.time_budget_s,
            "max_evals_per_algorithm": self.max_evals_per_algorithm,
            "n_algorithms": self.n_algorithms,
            "n_neighbors": self.n_neighbors,
            "nomination_mode": self.nomination_mode,
            "budget_split": self.budget_split,
            "fallback_portfolio": list(self.fallback_portfolio),
            "ensemble": self.ensemble,
            "interpretability": self.interpretability,
            "update_kb": self.update_kb,
            "n_folds": self.n_folds,
            "n_jobs": self.n_jobs,
            "backend": self.backend,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SmartMLConfig":
        """Inverse of :meth:`to_dict`; unknown keys raise."""
        known = set(cls.__dataclass_fields__)
        extras = set(payload) - known
        if extras:
            raise ConfigurationError(f"unknown config keys: {sorted(extras)}")
        return cls(**payload)
