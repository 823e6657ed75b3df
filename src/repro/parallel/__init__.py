"""Serial, thread and process execution of the phase-4 candidate fan-out.

``backend.py`` defines the serial/thread/process execution abstraction and
``dispatch.py`` the deterministic candidate fan-out that ``SmartML.run``
phase 4 delegates to.  Every backend runs the same picklable task; under
``process`` the fold arrays travel to the workers by pickle.
"""

from repro.parallel.backend import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessBackend,
    ProcessBackendUnavailable,
    SerialBackend,
    ThreadBackend,
    get_backend,
    shutdown_backends,
    validate_backend_name,
)

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "ProcessBackend",
    "ProcessBackendUnavailable",
    "SerialBackend",
    "ThreadBackend",
    "execute_candidates",
    "get_backend",
    "shutdown_backends",
    "validate_backend_name",
]


def __getattr__(name: str):
    # dispatch.py imports from repro.hpo / repro.core; loading it lazily
    # keeps this package importable from either side of that boundary.
    if name in ("execute_candidates", "tune_candidate"):
        from repro.parallel import dispatch

        return getattr(dispatch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
