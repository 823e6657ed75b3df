"""REST API: async experiment-job server, job manager, journal, and client."""

from repro._lazy import lazy_exports

__all__ = [
    "SmartMLServer",
    "SmartMLClient",
    "JobManager",
    "ExperimentJob",
    "JobJournal",
    "JournalError",
    "JobNotFoundError",
    "JobStateError",
    "QueueFullError",
    "ServiceDrainingError",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.api.client": ("SmartMLClient",),
    "repro.api.jobs": (
        "ExperimentJob", "JobManager", "JobNotFoundError", "JobStateError",
        "QueueFullError", "ServiceDrainingError",
    ),
    "repro.api.journal": ("JobJournal", "JournalError"),
    "repro.api.server": ("SmartMLServer",),
})
