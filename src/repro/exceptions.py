"""Exception hierarchy for the SmartML reproduction.

Every error raised by this library derives from :class:`SmartMLError`, so
callers can catch one type at an API boundary.  Subclasses separate the
broad failure domains: bad user input, data-format problems, knowledge-base
storage problems, and search/tuning problems.
"""

from __future__ import annotations


class SmartMLError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(SmartMLError):
    """An invalid option, parameter value, or combination was supplied."""


class DataError(SmartMLError):
    """A dataset is malformed, empty, or inconsistent with its schema."""


class ParseError(DataError):
    """A CSV/ARFF source could not be parsed."""


class NotFittedError(SmartMLError):
    """``predict``/``transform`` was called before ``fit``."""


class KnowledgeBaseError(SmartMLError):
    """The knowledge-base store is corrupt or an operation on it failed."""


class DatasetValidationError(DataError):
    """A dataset failed pre-flight validation.

    Carries the full machine-readable :class:`~repro.data.validation.ValidationReport`
    as ``report``; the REST layer maps this to HTTP 400 with the report
    attached (``payload``), so clients learn *every* problem at submit time
    instead of one stack trace minutes into tuning.
    """

    http_status = 400

    def __init__(self, report):
        problems = "; ".join(issue.message for issue in report.errors)
        super().__init__(
            f"dataset {report.dataset_name!r} failed validation: {problems}"
        )
        self.report = report

    @property
    def payload(self) -> dict:
        """Extra JSON fields the API layer merges into the error body."""
        return {"validation": self.report.to_dict()}


class ExperimentFailedError(SmartMLError):
    """Every pipeline candidate failed; no model survived to recommend.

    ``failures`` holds one structured record per cause (objects with a
    ``to_dict``, typically :class:`~repro.core.result.CandidateFailure`),
    so callers see *all* per-candidate causes, not just the first.
    """

    def __init__(self, message: str, failures=()):
        super().__init__(message)
        self.failures = list(failures)

    def failure_dicts(self) -> list[dict]:
        """JSON-friendly failure records."""
        return [
            f.to_dict() if hasattr(f, "to_dict") else dict(f) for f in self.failures
        ]

    @property
    def payload(self) -> dict:
        """Extra JSON fields the API layer merges into the error body."""
        return {"failures": self.failure_dicts()}


class SearchError(SmartMLError):
    """Hyperparameter search could not make progress (e.g. empty space)."""


class BudgetExhaustedError(SmartMLError):
    """The time/evaluation budget ran out before any configuration finished."""


def is_infrastructure_fault(exc: BaseException) -> bool:
    """Whether an exception is environmental rather than the user's fault.

    The candidate dispatcher already degrades ``process`` -> ``thread``
    in-plan (pool crash, unpicklable payload), so faults of this class
    that still surface killed the *replay* too — a sick host, not a bad
    request.  The job service retries these with bounded exponential
    backoff; deterministic user errors (bad config, degenerate data, a
    raising classifier) are never retried — re-running them burns a worker
    to produce the same failure — and the quarantine layers
    (:func:`~repro.parallel.dispatch.tune_candidate`, the SMAC trial loop)
    likewise only swallow the deterministic kind.

    Fault-injection exceptions opt in by setting ``infrastructure_fault``
    = True; real infrastructure faults are the OS-level families below.
    """
    if getattr(exc, "infrastructure_fault", False):
        return True
    import concurrent.futures

    from repro.parallel.backend import ProcessBackendUnavailable

    return isinstance(
        exc,
        (
            MemoryError,
            OSError,
            ProcessBackendUnavailable,
            concurrent.futures.BrokenExecutor,
        ),
    )
