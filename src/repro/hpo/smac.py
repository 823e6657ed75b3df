"""SMAC — sequential model-based algorithm configuration (Hutter et al. 2011).

The optimiser the paper uses for hyperparameter tuning, rebuilt on this
library's substrate:

* **surrogate** — a random-forest regressor over encoded configurations
  whose across-tree spread provides the predictive mean and variance;
* **acquisition** — expected improvement, maximised over a candidate pool
  of random samples plus local neighbours of the best configurations,
  with a random-interleave fraction for exploration (SMAC's ``random
  online aggressive racing`` heritage);
* **intensification** — challengers race the incumbent fold by fold and
  are discarded the moment their running mean falls behind, which is the
  paper's "discard low performance parameter configurations quickly after
  the evaluation on low number of folds";
* **warm start** — initial configurations (from the knowledge base, in
  SmartML's case) are raced first, which is exactly how the meta-learning
  layer plugs into the optimiser.

Budgets are dual: wall-clock seconds (the paper's protocol) and/or a
maximum number of configuration evaluations (deterministic tests).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import SearchError, is_infrastructure_fault
from repro.hpo.objective import CrossValObjective
from repro.hpo.space import ParamSpace
from repro.hpo.surrogate import RandomForestSurrogate

__all__ = ["SMACSettings", "TrialRecord", "SMACResult", "SMAC", "expected_improvement"]

Config = dict[str, object]


def expected_improvement(
    mean: np.ndarray, var: np.ndarray, best: float, xi: float = 1e-4
) -> np.ndarray:
    """EI for minimisation with exploration margin ``xi``."""
    from scipy.special import ndtr  # with the pdf below: scipy.stats.norm's bits

    sigma = np.sqrt(np.maximum(var, 1e-12))
    improvement = best - mean - xi
    z = improvement / sigma
    pdf = np.exp(-(z**2) / 2.0) / np.sqrt(2 * np.pi)
    ei = improvement * ndtr(z) + sigma * pdf
    return np.maximum(ei, 0.0)


@dataclass
class SMACSettings:
    """Knobs of the optimiser; defaults follow published SMAC practice.

    Three budget currencies, any combination (first one hit stops the run):
    wall-clock seconds (the paper's protocol), configuration evaluations
    (deterministic tests), and *fold* evaluations (fair optimiser
    comparisons — racing's cheap rejections then buy extra configurations
    instead of being invisible).
    """

    time_budget_s: float | None = None
    max_config_evals: int | None = None
    max_fold_evals: int | None = None
    n_random_candidates: int = 64
    n_local_candidates: int = 24
    random_interleave: float = 0.25
    min_history_for_model: int = 4
    racing_epsilon: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if (
            self.time_budget_s is None
            and self.max_config_evals is None
            and self.max_fold_evals is None
        ):
            raise SearchError("SMAC needs a time, config-eval, or fold-eval budget")


@dataclass
class TrialRecord:
    """One configuration's outcome.

    A configuration whose evaluation raised a deterministic error is
    recorded at ``cost = +inf`` with ``error`` set — quarantined, never
    promoted, never re-proposed (its key is in the seen-set), and presented
    to the surrogate at a finite penalty so the model steers away from the
    failing region instead of exploding.
    """

    config: Config
    cost: float
    n_folds: int
    elapsed_s: float
    was_incumbent: bool = False
    error: str | None = None


@dataclass
class SMACResult:
    """Outcome of one SMAC run."""

    incumbent: Config
    incumbent_cost: float
    history: list[TrialRecord] = field(default_factory=list)
    n_config_evals: int = 0
    n_fold_evals: int = 0
    elapsed_s: float = 0.0
    stop_reason: str = "budget"
    #: Configurations quarantined at +inf cost (deterministic trial errors).
    n_failed_trials: int = 0
    #: One record per quarantined (config, fold): {"config", "fold", "error"}.
    failures: list[dict] = field(default_factory=list)

    def trajectory(self) -> list[tuple[float, float]]:
        """(elapsed seconds, incumbent cost) at every incumbent change."""
        points = []
        best = np.inf
        for record in self.history:
            if record.cost < best:
                best = record.cost
                points.append((record.elapsed_s, record.cost))
        return points


class SMAC:
    """The optimiser; one instance per (space, objective) run."""

    def __init__(self, space: ParamSpace, settings: SMACSettings):
        self.space = space
        self.settings = settings
        self.rng = np.random.default_rng(settings.seed)
        # Append-only cache of encoded history rows: history only ever grows
        # within a run, so each _propose encodes just the configs evaluated
        # since the previous proposal instead of the whole history again.
        # _encoded_for holds a strong reference to the cached list so an
        # identity check can never confuse two lists at a recycled address.
        self._encoded_rows: list[np.ndarray] = []
        self._encoded_for: list[TrialRecord] | None = None
        # Trial quarantine state, reset by every optimize() call.
        self._trial_failures: list[dict] = []
        self._config_errors: dict[tuple, str] = {}

    # ----------------------------------------------------------- public API
    def optimize(
        self,
        objective: CrossValObjective,
        initial_configs: list[Config] | None = None,
    ) -> SMACResult:
        """Run the loop; ``initial_configs`` are warm starts raced first."""
        started = time.monotonic()
        history: list[TrialRecord] = []
        seen: set[tuple] = set()
        incumbent: Config | None = None
        incumbent_cost = np.inf
        stop_reason = "budget"
        self._trial_failures = []
        self._config_errors = {}

        # Warm starts are consumed strictly front-first; deque keeps each
        # pop O(1) where list.pop(0) shifted the whole remainder.
        queue: deque[Config] = deque([self.space.default_config()])
        for warm in initial_configs or []:
            try:
                queue.append(self.space.complete(warm))
            except Exception:
                continue  # stale KB entry referencing renamed params: skip
        self._encoded_rows = []
        self._encoded_for = history

        # Running prefix sums of the incumbent's per-fold costs:
        # incumbent_prefix[i] == sum of its costs over folds 0..i.  Racing
        # reads the running mean as prefix[i] / (i + 1) instead of
        # re-averaging the fold cache on every fold of every race.
        incumbent_prefix: list[float] = []

        def out_of_budget() -> bool:
            if (
                self.settings.time_budget_s is not None
                and time.monotonic() - started >= self.settings.time_budget_s
            ):
                return True
            if (
                self.settings.max_config_evals is not None
                and len(history) >= self.settings.max_config_evals
            ):
                return True
            if (
                self.settings.max_fold_evals is not None
                and objective.n_fold_evaluations >= self.settings.max_fold_evals
            ):
                return True
            return False

        while not out_of_budget():
            if queue:
                challenger = queue.popleft()
            else:
                challenger = self._propose(history, incumbent)
            key = self.space.config_key(challenger)
            if key in seen:
                challenger = self.space.sample(self.rng)
                key = self.space.config_key(challenger)
                if key in seen:
                    continue
            seen.add(key)

            if incumbent is None:
                # First configuration: evaluate fold by fold so a tiny time
                # budget still yields a (partially validated) incumbent.
                fold_costs = []
                for fold_id in range(objective.n_folds):
                    fold_costs.append(
                        self._fold_cost(objective, challenger, key, fold_id)
                    )
                    if not np.isfinite(fold_costs[-1]):
                        break  # deterministic failure repeats on every fold
                    if (
                        self.settings.time_budget_s is not None
                        and time.monotonic() - started >= self.settings.time_budget_s
                    ):
                        break
                cost = float(np.mean(fold_costs))
                incumbent, incumbent_cost = challenger, cost
                incumbent_prefix = list(np.cumsum(fold_costs))
                history.append(
                    TrialRecord(challenger, cost, len(fold_costs),
                                time.monotonic() - started, was_incumbent=True,
                                error=self._config_errors.get(key))
                )
                continue

            cost, completed, challenger_costs = self._race(
                challenger, key, incumbent, incumbent_prefix, objective, started
            )
            promoted = completed and cost < incumbent_cost
            history.append(
                TrialRecord(
                    challenger, cost,
                    len(objective.evaluated_folds(key)),
                    time.monotonic() - started,
                    was_incumbent=promoted,
                    error=self._config_errors.get(key),
                )
            )
            if promoted:
                incumbent, incumbent_cost = challenger, cost
                incumbent_prefix = list(np.cumsum(challenger_costs))

        if incumbent is None:
            # Budget too tight for even one configuration: fall back to the
            # default config unevaluated rather than erroring out.
            incumbent = self.space.default_config()
            incumbent_cost = float("nan")
            stop_reason = "budget_before_first_eval"

        return SMACResult(
            incumbent=incumbent,
            incumbent_cost=float(incumbent_cost),
            history=history,
            n_config_evals=len(history),
            n_fold_evals=objective.n_fold_evaluations,
            elapsed_s=time.monotonic() - started,
            stop_reason=stop_reason,
            n_failed_trials=sum(1 for r in history if np.isinf(r.cost)),
            failures=list(self._trial_failures),
        )

    # ------------------------------------------------------------ internals
    def _fold_cost(
        self,
        objective: CrossValObjective,
        config: Config,
        key: tuple,
        fold_id: int,
    ) -> float:
        """One fold evaluation with deterministic errors quarantined at +inf.

        Infrastructure faults (OOM, pool death) re-raise for the retry
        machinery upstream; any other exception marks the configuration
        failed — +inf loses every race and never becomes the incumbent —
        and records a structured failure for :attr:`SMACResult.failures`.
        """
        try:
            return objective.evaluate_fold(config, key, fold_id)
        except Exception as exc:
            if is_infrastructure_fault(exc):
                raise
            error = f"{type(exc).__name__}: {exc}"
            self._trial_failures.append(
                {"config": dict(config), "fold": int(fold_id), "error": error}
            )
            self._config_errors.setdefault(key, error)
            return float("inf")
    def _race(
        self,
        challenger: Config,
        key: tuple,
        incumbent: Config,
        incumbent_prefix: list[float],
        objective: CrossValObjective,
        started: float,
    ) -> tuple[float, bool, list[float]]:
        """Race challenger vs incumbent fold by fold.

        ``incumbent_prefix`` carries the incumbent's cumulative fold costs
        across races; it is extended in place when a race forces incumbent
        folds that have not been reached before.  Returns ``(mean cost over
        folds run, finished all folds, per-fold challenger costs)``.
        """
        incumbent_key = self.space.config_key(incumbent)
        challenger_costs: list[float] = []
        challenger_total = 0.0
        for fold_id in range(objective.n_folds):
            fold_cost = self._fold_cost(objective, challenger, key, fold_id)
            challenger_costs.append(fold_cost)
            challenger_total += fold_cost
            if not np.isfinite(fold_cost):
                # Quarantined: the failure is deterministic, so further folds
                # would only repeat it.  +inf can never win the race.
                return float("inf"), False, challenger_costs
            while len(incumbent_prefix) <= fold_id:
                cost = self._fold_cost(
                    objective, incumbent, incumbent_key, len(incumbent_prefix)
                )
                previous = incumbent_prefix[-1] if incumbent_prefix else 0.0
                incumbent_prefix.append(previous + cost)
            incumbent_mean = incumbent_prefix[fold_id] / (fold_id + 1)
            challenger_mean = challenger_total / (fold_id + 1)
            if challenger_mean > incumbent_mean + self.settings.racing_epsilon:
                return challenger_mean, False, challenger_costs
            if (
                self.settings.time_budget_s is not None
                and time.monotonic() - started >= self.settings.time_budget_s
            ):
                return challenger_mean, fold_id + 1 == objective.n_folds, challenger_costs
        return challenger_total / objective.n_folds, True, challenger_costs

    def _encoded_history(self, history: list[TrialRecord]) -> np.ndarray:
        """Encoded design matrix for ``history``, cached append-only.

        History rows are immutable once recorded, so only configs past the
        cached prefix need encoding.  A different (or shrunken) history
        list — direct ``_propose`` calls in tests, a reused optimiser —
        resets the cache and re-encodes from scratch.
        """
        if self._encoded_for is not history or len(self._encoded_rows) > len(history):
            self._encoded_rows = []
            self._encoded_for = history
        for record in history[len(self._encoded_rows):]:
            self._encoded_rows.append(self.space.encode(record.config))
        return np.stack(self._encoded_rows)

    def _propose(self, history: list[TrialRecord], incumbent: Config | None) -> Config:
        """Next challenger: EI on the surrogate, or a random interleave."""
        if (
            len(history) < self.settings.min_history_for_model
            or self.rng.random() < self.settings.random_interleave
        ):
            return self.space.sample(self.rng)

        X = self._encoded_history(history)
        y = np.array([r.cost for r in history])
        finite = y[np.isfinite(y)]
        if finite.size == 0:
            # Every trial so far was quarantined: the surrogate has nothing
            # to model, so keep exploring at random.
            return self.space.sample(self.rng)
        # Quarantined trials enter the model at a finite penalty just above
        # the worst observed cost: the surrogate steers away from the failing
        # region without inf/NaN poisoning the forest.
        y = np.where(np.isfinite(y), y, float(finite.max()) + 1.0)
        surrogate = RandomForestSurrogate(seed=int(self.rng.integers(0, 2**31 - 1)))
        surrogate.fit(X, y)

        candidates = [
            self.space.sample(self.rng)
            for _ in range(self.settings.n_random_candidates)
        ]
        anchors = sorted(history, key=lambda r: r.cost)[:3]
        if incumbent is not None:
            anchors.append(TrialRecord(incumbent, 0.0, 0, 0.0))
        per_anchor = max(1, self.settings.n_local_candidates // max(len(anchors), 1))
        for anchor in anchors:
            for _ in range(per_anchor):
                candidates.append(self.space.neighbor(anchor.config, self.rng))

        encoded = np.stack([self.space.encode(c) for c in candidates])
        mean, var = surrogate.predict(encoded)
        ei = expected_improvement(mean, var, best=float(y.min()))
        return candidates[int(np.argmax(ei))]
