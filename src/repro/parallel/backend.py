"""Execution backends: serial, thread and process candidate evaluation.

One abstraction — :class:`ExecutionBackend.map` runs a function over items
and returns results **in submission order** — with three implementations:

* ``serial`` — a plain loop on the calling thread (the reference
  semantics every other backend must reproduce bit for bit);
* ``thread`` — a ``ThreadPoolExecutor``; cheap to start, shares every
  in-process cache, but the GIL caps it at ~1 core of Python time;
* ``process`` — a shared, lazily-started ``ProcessPoolExecutor`` so
  candidate evaluation scales with cores.  Task functions must be
  module-level and their payloads — fold arrays included — picklable.

The process pool is cached per worker count and reused across runs and
jobs (worker start-up is paid once per service lifetime).  A broken pool
(worker crash, interpreter death) raises
:class:`ProcessBackendUnavailable`; the dispatcher catches it, evicts the
broken pool and replays the plan on the thread backend — results are
identical because every per-candidate seed was drawn before dispatch.

**Fork hygiene.**  On platforms with ``fork`` the child inherits module
locks and registries mid-state; ``os.register_at_fork`` resets the
parallel-subsystem state in the child so a lock held by an unrelated
parent thread at fork time can never deadlock a worker.
"""

from __future__ import annotations

import atexit
import logging
import multiprocessing
import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.core.config import BACKEND_NAMES, validate_backend_name
from repro.exceptions import ConfigurationError

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "ProcessBackendUnavailable",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "get_backend",
    "shutdown_backends",
    "validate_backend_name",
]

logger = logging.getLogger("repro.parallel")


class ProcessBackendUnavailable(RuntimeError):
    """The process pool could not run the plan; degrade to threads."""


class ExecutionBackend:
    """Maps a function over items, preserving submission order."""

    name: str = "abstract"

    def map(self, fn, items: list) -> list:
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    name = "serial"

    def map(self, fn, items: list) -> list:
        return [fn(item) for item in items]


class ThreadBackend(ExecutionBackend):
    name = "thread"

    def __init__(self, workers: int):
        if workers < 1:
            raise ConfigurationError("thread backend needs workers >= 1")
        self.workers = workers

    def map(self, fn, items: list) -> list:
        workers = min(self.workers, max(len(items), 1))
        if workers == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))


# ------------------------------------------------------------ process pool
def _mp_context():
    """``fork`` where available (cheap workers, warm imports), else spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def _after_fork_reset() -> None:  # pragma: no cover - runs in forked child
    """Reinitialise parallel-subsystem state in a freshly forked worker.

    The child inherits every module lock and registry mid-state; locks a
    parent thread happened to hold at fork time would deadlock the first
    worker task.  Fresh locks and empty registries are always safe —
    everything they guard is rebuilt lazily.
    """
    from repro.classifiers import substrate
    from repro.classifiers.tree import presort
    from repro.hpo import objective

    presort._SHARED_LOCK = threading.Lock()
    presort._SHARED.clear()
    substrate._SHARED_LOCK = threading.Lock()
    substrate._SHARED.clear()
    substrate._PINNED.clear()
    objective._FOLDS_LOCK = threading.Lock()
    objective._FOLDS.clear()
    objective._FOLD_KEEPALIVE.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_reset)


#: Process pools cached by worker count, shared across runs and jobs.
_EXECUTORS: dict[int, ProcessPoolExecutor] = {}
_EXECUTORS_LOCK = threading.Lock()


def _process_executor(workers: int) -> ProcessPoolExecutor:
    with _EXECUTORS_LOCK:
        pool = _EXECUTORS.get(workers)
        if pool is None:
            pool = ProcessPoolExecutor(
                max_workers=workers, mp_context=_mp_context()
            )
            _EXECUTORS[workers] = pool
        return pool


def _evict_executor(workers: int) -> None:
    with _EXECUTORS_LOCK:
        pool = _EXECUTORS.pop(workers, None)
    if pool is not None:
        # Wait for the evicted pool's threads and processes to wind down:
        # forking a replacement pool while they still hold queue/feeder
        # locks can deadlock the new children.  A broken pool's workers
        # are already dead, so this join is quick.
        pool.shutdown(wait=True, cancel_futures=True)


def shutdown_backends() -> None:
    """Shut down every cached process pool (atexit; tests)."""
    with _EXECUTORS_LOCK:
        pools = list(_EXECUTORS.items())
        _EXECUTORS.clear()
    for _workers, pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_backends)


class ProcessBackend(ExecutionBackend):
    """Fan work out to a cached process pool.

    ``fn`` (a module-level callable, or a ``functools.partial`` of one)
    and every item must be picklable.  Any pool-level failure (a crashed
    worker, an unpicklable payload, a dead interpreter) raises
    :class:`ProcessBackendUnavailable` so the caller can degrade.
    """

    name = "process"

    def __init__(self, workers: int):
        if workers < 1:
            raise ConfigurationError("process backend needs workers >= 1")
        self.workers = workers

    def map(self, fn, items: list) -> list:
        # Validate picklability BEFORE anything reaches the pool: on 3.11 a
        # payload that fails to pickle inside the executor's queue-feeder
        # thread can deadlock the whole pool (the manager thread never
        # wakes for the subsequent shutdown).  Payloads are the fold arrays
        # of laptop-scale datasets, so one extra pickle is cheap.
        try:
            pickle.dumps(fn)
            for item in items:
                pickle.dumps(item)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise ProcessBackendUnavailable(
                f"payload would not cross the process boundary: {exc}"
            ) from exc
        try:
            pool = _process_executor(self.workers)
            futures = [pool.submit(fn, item) for item in items]
            return [future.result() for future in futures]
        except BrokenProcessPool as exc:
            _evict_executor(self.workers)
            raise ProcessBackendUnavailable(
                f"process pool broke mid-plan: {exc}"
            ) from exc
        except (OSError, ValueError, RuntimeError) as exc:
            # Pool would not start (fork failures, fd exhaustion) or the
            # payload would not cross the boundary.
            _evict_executor(self.workers)
            raise ProcessBackendUnavailable(str(exc)) from exc


def get_backend(name: str, workers: int) -> ExecutionBackend:
    """Backend instance for a validated name and worker count."""
    validate_backend_name(name)
    if name == "serial" or workers <= 1:
        return SerialBackend()
    if name == "thread":
        return ThreadBackend(workers)
    return ProcessBackend(workers)
