"""Async experiment-job service behind ``POST /experiments``.

The paper positions SmartML as a language-agnostic *service*; a service
cannot hold an HTTP connection open for a whole tuning run.  This module
turns experiment execution into a job lifecycle:

* :meth:`JobManager.submit` validates the request eagerly (unknown dataset
  or bad config fail fast with a 4xx), journals it durably, enqueues an
  :class:`ExperimentJob`, and returns immediately;
* a fixed pool of worker threads drains the queue in submission order and
  runs the SmartML pipeline, publishing per-phase progress as it goes;
* job state advances ``queued -> running -> done | failed``; queued jobs
  can be cancelled (``queued -> cancelled``);
* knowledge-base appends from all workers are funnelled through **one
  writer thread** which lands each finished run as a single batched append
  (:meth:`~repro.kb.KnowledgeBase.add_result_batch`), so the underlying
  :class:`~repro.kb.shards.ShardedRecordStore` logs keep exactly one
  writer no matter how many workers run concurrently.

Reliability layer (the crash/overload story):

* **Durable journal** — with a :class:`~repro.api.journal.JobJournal`
  attached, every lifecycle transition is a CRC-framed write-ahead record;
  a restarted manager replays it, restoring terminal jobs with their
  results and deterministically re-enqueueing jobs that were queued or
  running at crash time.  KB and registry writes are preceded by commit
  *intents* carrying the id/version they are about to claim, verified on
  recovery so a re-run experiment never double-appends.
* **Watchdog** — per-job wall-clock timeouts (service default + per-request
  override) are enforced two ways: cooperatively (the ``on_phase`` hook
  raises at the next phase boundary) and hard (the watchdog thread fails
  the job at its deadline, retires the stuck worker as a zombie and starts
  a replacement so a hung tuning run cannot occupy the pool forever).
* **Bounded retries** — jobs that die from *infrastructure* faults
  (process-pool crash, out of memory — see
  :func:`~repro.exceptions.is_infrastructure_fault`) are re-queued
  with exponential backoff + deterministic jitter, up to ``max_retries``;
  deterministic user errors fail immediately.
* **Backpressure** — ``max_queue`` bounds accepted-but-unstarted work;
  saturation raises :class:`QueueFullError` (HTTP 429 with a
  ``Retry-After`` estimate), and :meth:`readiness` flips unready *before*
  intake stops so load balancers drain traffic ahead of rejections.
* **Draining shutdown** — :meth:`drain` (SIGTERM path) stops intake,
  finishes running jobs, leaves queued jobs journaled for the next start,
  and flushes the journal; :meth:`shutdown` stays the hard stop that
  cancels queued work (honestly journaled as cancelled).
"""

from __future__ import annotations

import itertools
import logging
import math
import queue
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.config import SmartMLConfig, validate_backend_name
from repro.core.smartml import SmartML
from repro.data.dataset import Dataset
from repro.data.validation import ensure_valid_dataset
from repro.exceptions import SmartMLError, is_infrastructure_fault

if TYPE_CHECKING:
    from repro.api.journal import JobJournal

__all__ = [
    "ExperimentJob",
    "JobManager",
    "JobNotFoundError",
    "JobStateError",
    "QueueFullError",
    "ServiceDrainingError",
    "JOB_STATUSES",
]

logger = logging.getLogger("repro.api.jobs")

#: Every state a job can be in, in lifecycle order.
JOB_STATUSES = ("queued", "running", "done", "failed", "cancelled")

#: States that no worker will ever pick up again.
TERMINAL_STATUSES = ("done", "failed", "cancelled")


class JobNotFoundError(SmartMLError):
    """The referenced job id does not exist."""

    http_status = 404


class JobStateError(SmartMLError):
    """The operation is invalid for the job's current state."""

    http_status = 409


class QueueFullError(SmartMLError):
    """The job queue is saturated; retry after backing off (HTTP 429)."""

    http_status = 429

    def __init__(self, message: str, retry_after: int = 1):
        super().__init__(message)
        self.retry_after = int(retry_after)


class ServiceDrainingError(SmartMLError):
    """The service is draining for shutdown and not accepting jobs (503)."""

    http_status = 503

    def __init__(self, message: str, retry_after: int = 5):
        super().__init__(message)
        self.retry_after = int(retry_after)


class _JobAbandoned(Exception):
    """Control flow: the job was hard-failed/cancelled out from under us."""


class _JobTimeout(Exception):
    """Control flow: the job crossed its wall-clock deadline."""


@dataclass
class ExperimentJob:
    """One submitted experiment and everything known about its progress."""

    job_id: int
    dataset_id: int
    dataset_name: str
    config: dict
    status: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    phase: str | None = None
    phases_done: list[str] = field(default_factory=list)
    error: str | None = None
    result: dict | None = None
    #: True when the run finished but one or more candidates were quarantined.
    degraded: bool = False
    #: Structured failure records (CandidateFailure.to_dict shape), both for
    #: degraded done jobs and for jobs that failed with no survivors.
    failures: list[dict] = field(default_factory=list)
    register_as: str | None = None
    timeout_s: float | None = None
    attempt: int = 0
    recovered: bool = False
    #: Internal: name of the worker thread currently running the job.
    worker: str | None = None
    #: Internal: monotonic deadline while running (None = no timeout).
    deadline: float | None = None
    #: Internal: KB dataset id committed before a crash (skip re-append).
    kb_recovered_id: int | None = None
    #: Internal: (model_id, version) registered before a crash.
    registry_recovered: tuple[str, int] | None = None

    def to_dict(self, include_result: bool = True) -> dict:
        """JSON wire form; summaries omit the (large) result payload."""
        now = time.time()
        queue_s = (self.started_at or (now if self.status == "queued" else self.submitted_at)) - self.submitted_at
        run_s = None
        if self.started_at is not None:
            run_s = (self.finished_at or now) - self.started_at
        payload = {
            "job_id": self.job_id,
            "dataset_id": self.dataset_id,
            "dataset_name": self.dataset_name,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queue_seconds": max(0.0, queue_s),
            "run_seconds": run_s,
            "progress": {
                "phase": self.phase,
                "phases_done": list(self.phases_done),
            },
            "error": self.error,
            "degraded": self.degraded,
            "failures": [dict(f) for f in self.failures],
            "config": dict(self.config),
            "register_as": self.register_as,
            "timeout_s": self.timeout_s,
            "attempt": self.attempt,
            "recovered": self.recovered,
        }
        if include_result:
            payload["result"] = self.result
        return payload


class _KBWrite:
    """One finished run waiting for the single KB writer thread."""

    __slots__ = ("dataset_name", "metafeatures", "runs", "done", "dataset_id", "error", "job")

    def __init__(self, dataset_name, metafeatures, runs, job=None):
        self.dataset_name = dataset_name
        self.metafeatures = metafeatures
        self.runs = runs
        self.done = threading.Event()
        self.dataset_id: int | None = None
        self.error: Exception | None = None
        self.job: ExperimentJob | None = job


class _RegistryWrite:
    """One model-registry mutation waiting for the single writer thread.

    Registry register/delete share the KB writer so the registry directory
    — like the KB log — has exactly one writing thread no matter how many
    workers or HTTP handler threads are active.  ``job``/``model_id`` are
    set for job registrations so the writer can journal a commit intent.
    """

    __slots__ = ("fn", "done", "outcome", "error", "job", "model_id")

    def __init__(self, fn, job=None, model_id=None):
        self.fn = fn
        self.done = threading.Event()
        self.outcome = None
        self.error: Exception | None = None
        self.job: ExperimentJob | None = job
        self.model_id: str | None = model_id


class _SimulatedCrash(Exception):
    """The journal was sealed by fault injection mid-operation."""

    simulates_crash = True


class JobManager:
    """Queue + worker pool + single KB writer for experiment jobs.

    Parameters
    ----------
    smartml:
        The shared :class:`SmartML` instance (and with it the shared KB).
    workers:
        Worker threads draining the queue concurrently.  Follows the
        ``SmartMLConfig.n_jobs`` convention: 1 means strictly sequential
        execution in submission order.  Job workers stay *threads* — they
        are the control plane and spend their time waiting on compute; the
        compute itself crosses the GIL through each job's ``config.backend``.
    backend:
        Default execution backend injected into submitted configs that do
        not name one.  A config that explicitly sets ``backend`` wins.
    registry:
        Optional :class:`~repro.serving.registry.ModelRegistry`.
    journal:
        A :class:`~repro.api.journal.JobJournal`, a path to create one at,
        or ``None`` (in-memory only, the historical behaviour).  With a
        journal the manager replays it before starting workers: terminal
        jobs come back with their results; queued/running jobs re-enqueue.
    max_queue:
        Bound on accepted-but-unstarted jobs; ``None`` (default) keeps the
        queue unbounded.  Saturation raises :class:`QueueFullError` (429).
    default_timeout_s:
        Wall-clock timeout applied to jobs that do not override it at
        submit time; ``None`` disables.
    max_retries:
        Automatic re-runs granted to a job that dies from an
        infrastructure fault (0 disables retries).
    retry_backoff_s / retry_backoff_cap_s / retry_seed:
        Exponential-backoff base, cap, and the seed of the deterministic
        jitter stream.
    watchdog_interval_s:
        Deadline/retry scan period of the watchdog thread.
    clock:
        Wall-clock source for timestamps (injectable for deterministic
        recovery tests).  Deadlines always use ``time.monotonic``.
    """

    def __init__(
        self,
        smartml: SmartML,
        workers: int = 1,
        backend: str = "thread",
        registry=None,
        journal: JobJournal | str | Path | None = None,
        max_queue: int | None = None,
        default_timeout_s: float | None = None,
        max_retries: int = 2,
        retry_backoff_s: float = 0.5,
        retry_backoff_cap_s: float = 30.0,
        retry_seed: int = 0,
        watchdog_interval_s: float = 0.05,
        clock=time.time,
    ):
        if workers < 1:
            raise SmartMLError("workers must be >= 1")
        if max_queue is not None and max_queue < 1:
            raise SmartMLError("max_queue must be >= 1 (or None for unbounded)")
        if max_retries < 0:
            raise SmartMLError("max_retries must be >= 0")
        self.smartml = smartml
        self.workers = workers
        self.backend = validate_backend_name(backend)
        self.registry = (
            registry if registry is not None else getattr(smartml, "registry", None)
        )
        self.max_queue = max_queue
        self.default_timeout_s = default_timeout_s
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.retry_backoff_cap_s = retry_backoff_cap_s
        self.watchdog_interval_s = watchdog_interval_s
        self._clock = clock
        self._retry_rng = random.Random(retry_seed)
        if journal is not None:
            # Loaded only when configured: a server without --journal never
            # imports the journal module.
            from repro.api.journal import JobJournal

            if not isinstance(journal, JobJournal):
                journal = JobJournal(journal, clock=clock)
        self.journal = journal
        self._jobs: dict[int, ExperimentJob] = {}
        self._job_inputs: dict[int, tuple[Dataset, SmartMLConfig]] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._pending: deque[int] = deque()
        #: Retry-delayed jobs: (monotonic due time, job_id).
        self._delayed: list[tuple[float, int]] = []
        self._stopping = False
        self._draining = False
        self._zombies: set[str] = set()
        #: Worker liveness: thread name -> last wall-clock heartbeat.
        self.heartbeats: dict[str, float] = {}
        self.timeouts_total = 0
        self.retries_total = 0
        # Landed KB appends by destination shard — the single writer's
        # routing gauge.
        self.kb_shard_writes: dict[str, int] = {}
        self._run_ewma_s: float | None = None
        self._kb_queue: queue.SimpleQueue[_KBWrite | _RegistryWrite | None] = queue.SimpleQueue()
        if self.journal is not None:
            self._recover_from_journal()
        self._kb_writer = threading.Thread(
            target=self._kb_writer_loop, name="smartml-kb-writer", daemon=True
        )
        self._kb_writer.start()
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"smartml-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()
        self._watchdog_stop = threading.Event()
        self._watchdog = threading.Thread(
            target=self._watchdog_loop, name="smartml-watchdog", daemon=True
        )
        self._watchdog.start()

    # ------------------------------------------------------------- recovery
    def _recover_from_journal(self) -> None:
        """Rebuild the job table from the journal (before workers start)."""
        from repro.serving.codec import decode_state

        recovery = self.journal.recovery
        requeued = 0
        for state in recovery.terminal_jobs():
            job = ExperimentJob(
                job_id=state.job_id,
                dataset_id=state.dataset_id,
                dataset_name=state.dataset_name,
                config=state.config,
                status=state.status,
                submitted_at=state.submitted_at,
                started_at=state.started_at,
                finished_at=state.finished_at,
                error=state.error,
                result=state.result,
                register_as=state.register_as,
                timeout_s=state.timeout_s,
                attempt=state.attempt,
                recovered=True,
            )
            job.phases_done = [str(p) for p in state.phases_done]
            if state.result is not None:
                job.degraded = bool(state.result.get("degraded"))
                job.failures = list(state.result.get("failures") or [])
            elif state.failures:
                job.failures = [dict(f) for f in state.failures]
            self._jobs[job.job_id] = job
        for state in recovery.pending_jobs():
            job = ExperimentJob(
                job_id=state.job_id,
                dataset_id=state.dataset_id,
                dataset_name=state.dataset_name,
                config=state.config,
                status="queued",
                submitted_at=state.submitted_at,
                register_as=state.register_as,
                timeout_s=state.timeout_s,
                attempt=state.attempt,
                recovered=True,
            )
            try:
                if state.dataset_state is None:
                    raise SmartMLError("journal carries no dataset payload")
                dataset = decode_state(state.dataset_state)
                config = SmartMLConfig.from_dict(state.config)
            except Exception as exc:
                job.status = "failed"
                job.error = f"unrecoverable after restart: {type(exc).__name__}: {exc}"
                job.finished_at = self._clock()
                self._jobs[job.job_id] = job
                logger.error(
                    "job %d could not be recovered from the journal: %s",
                    job.job_id, job.error,
                )
                # Mutate the recovery state (not just the live journal) so
                # the compaction below persists the failure terminally.
                state.status = "failed"
                state.error = job.error
                state.finished_at = job.finished_at
                continue
            if state.kb_commit is not None:
                committed_id = self._verify_kb_commit(job.job_id, state.kb_commit)
                job.kb_recovered_id = committed_id
            if state.registry_commit is not None and self.registry is not None:
                model_id = state.registry_commit["model_id"]
                version = state.registry_commit["version"]
                if self.registry.has_version(model_id, version):
                    job.registry_recovered = (model_id, version)
            self._jobs[job.job_id] = job
            self._job_inputs[job.job_id] = (dataset, config)
            self._pending.append(job.job_id)
            requeued += 1
        self._ids = itertools.count(recovery.max_job_id + 1)
        if recovery.jobs:
            logger.info(
                "job journal %s: recovered %d terminal job(s), re-enqueued %d",
                self.journal.path, len(recovery.terminal_jobs()), requeued,
            )
        self.journal.compact()

    def _verify_kb_commit(self, job_id: int, commit: dict) -> int | None:
        """Did the journaled KB batch land?  Returns the dataset id if so.

        The intent frame precedes the append, so three outcomes exist:
        nothing landed (re-run appends normally), everything landed (the
        re-run is handed the committed id), or — only under a mid-``write``
        machine crash — a torn batch, which is reported loudly and treated
        as committed so the dataset row is never duplicated.
        """
        store = getattr(getattr(self.smartml, "kb", None), "store", None)
        if store is None:
            return None
        dataset_id = int(commit["dataset_id"])
        n_runs = max(0, int(commit.get("n_rows", 0)) - 1)
        try:
            store.get("datasets", dataset_id)
        except SmartMLError:
            return None  # intent journaled, append never landed: re-run writes
        landed = sum(
            1 for _, run in store.scan("runs") if run.get("dataset_id") == dataset_id
        )
        if landed < n_runs:
            logger.error(
                "job %d: KB batch for dataset %d is torn (%d of %d run rows); "
                "treating it as committed so the dataset row is not duplicated "
                "— inspect the KB log",
                job_id, dataset_id, landed, n_runs,
            )
        return dataset_id

    # ----------------------------------------------------------------- API
    def submit(
        self,
        dataset: Dataset,
        dataset_id: int,
        config_payload: dict | None,
        register_as: str | None = None,
        timeout_s: float | None = None,
    ) -> ExperimentJob:
        """Validate, journal, and enqueue an experiment; returns the job.

        Raises :class:`~repro.exceptions.ConfigurationError` (HTTP 400)
        before anything is enqueued when the config is invalid, and
        :class:`QueueFullError` (HTTP 429 + ``Retry-After``) when
        ``max_queue`` is saturated.  With a journal attached the job is
        durable before the caller sees it: a journal write failure rejects
        the submission rather than accepting work that a restart would
        forget.
        """
        payload = dict(config_payload or {})
        payload.setdefault("backend", self.backend)
        config = SmartMLConfig.from_dict(payload)
        # Reject datasets that are guaranteed to sink the pipeline with a
        # structured 400 report now, not a failed job minutes later.  Only
        # objects that carry data are linted: lifecycle tests drive the
        # manager with stub datasets that have no arrays to inspect.
        if hasattr(dataset, "X") and hasattr(dataset, "y"):
            ensure_valid_dataset(dataset, n_folds=config.n_folds)
        if register_as is not None:
            if self.registry is None:
                raise SmartMLError(
                    "this server has no model registry; start it with a "
                    "registry to use register_as"
                )
            self.registry.validate_model_id(register_as)
        if timeout_s is None:
            timeout_s = self.default_timeout_s
        elif timeout_s <= 0:
            raise SmartMLError("timeout_s must be positive")
        with self._lock:
            if self._stopping:
                raise JobStateError("server is shutting down; not accepting jobs")
            if self._draining:
                raise ServiceDrainingError(
                    "server is draining for shutdown; not accepting jobs",
                    retry_after=30,
                )
            depth = len(self._pending) + len(self._delayed)
            if self.max_queue is not None and depth >= self.max_queue:
                retry_after = self._retry_after_estimate(depth)
                raise QueueFullError(
                    f"job queue is full ({depth}/{self.max_queue} queued); "
                    f"retry in ~{retry_after}s",
                    retry_after=retry_after,
                )
            job = ExperimentJob(
                job_id=next(self._ids),
                dataset_id=dataset_id,
                dataset_name=dataset.name,
                config=config.to_dict(),
                register_as=register_as,
                timeout_s=timeout_s,
                submitted_at=self._clock(),
            )
            if self.journal is not None:
                from repro.serving.codec import encode_state

                # Write-ahead: the job is durable before it is visible.
                self.journal.append(
                    {
                        "t": "submitted",
                        "job": job.job_id,
                        "dataset_id": dataset_id,
                        "dataset_name": dataset.name,
                        "config": job.config,
                        "register_as": register_as,
                        "timeout_s": timeout_s,
                        "at": job.submitted_at,
                        "dataset": encode_state(dataset),
                    }
                )
                if self.journal.dead:
                    # Fault injection killed the "process" mid-submit: the
                    # client never gets its 202, exactly like a real crash.
                    raise _SimulatedCrash("journal sealed during submit")
            self._jobs[job.job_id] = job
            self._job_inputs[job.job_id] = (dataset, config)
            self._pending.append(job.job_id)
            self._wakeup.notify()
        return job

    def get(self, job_id: int) -> ExperimentJob:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"unknown job_id {job_id}")
        return job

    def list_jobs(self) -> list[ExperimentJob]:
        with self._lock:
            return [self._jobs[job_id] for job_id in sorted(self._jobs)]

    def cancel(self, job_id: int) -> ExperimentJob:
        """Cancel a *queued* job; running/finished jobs raise (HTTP 409)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise JobNotFoundError(f"unknown job_id {job_id}")
            if job.status != "queued":
                raise JobStateError(
                    f"job {job_id} is {job.status}; only queued jobs can be cancelled"
                )
            job.status = "cancelled"
            job.finished_at = self._clock()
            self._job_inputs.pop(job_id, None)
            self._delayed = [(due, jid) for due, jid in self._delayed if jid != job_id]
        self._journal_safe({"t": "cancelled", "job": job_id, "at": job.finished_at})
        return job

    def wait(self, job_id: int, timeout: float | None = None, poll_s: float = 0.01) -> ExperimentJob:
        """Block until the job reaches a terminal state (in-process helper)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            job = self.get(job_id)
            if job.status in TERMINAL_STATUSES:
                return job
            if deadline is not None and time.monotonic() > deadline:
                raise JobStateError(f"timed out waiting for job {job_id} ({job.status})")
            time.sleep(poll_s)

    # ------------------------------------------------------- health surface
    def stats(self) -> dict:
        """Per-state gauges, queue depth, worker liveness, journal health."""
        now = self._clock()
        with self._lock:
            by_status = {status: 0 for status in JOB_STATUSES}
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
            depth = len(self._pending) + len(self._delayed)
            alive = [
                t.name
                for t in self._threads
                if t.is_alive() and t.name not in self._zombies
            ]
            heartbeat_age = {
                name: round(max(0.0, now - ts), 3)
                for name, ts in sorted(self.heartbeats.items())
                if name not in self._zombies
            }
            zombies = sorted(self._zombies)
            kb_shard_writes = dict(sorted(self.kb_shard_writes.items()))
        journal_info = None
        if self.journal is not None:
            journal_info = {
                "path": str(self.journal.path),
                "frames_written": self.journal.frames_written,
                "healthy": bool(self.journal.healthy and not self.journal.dead),
                "dropped_bytes_at_recovery": self.journal.dropped_bytes,
            }
        kb = getattr(self.smartml, "kb", None)
        kb_info = {
            "degraded": bool(getattr(kb, "degraded", False)),
            "shard_writes": kb_shard_writes,
        }
        if hasattr(kb, "health"):
            kb_info["health"] = kb.health()
        return {
            "jobs": by_status,
            "queue": {"depth": depth, "max": self.max_queue},
            "workers": {
                "configured": self.workers,
                "alive": len(alive),
                "zombies": zombies,
                "heartbeat_age_s": heartbeat_age,
            },
            "timeouts": self.timeouts_total,
            "retries": self.retries_total,
            "journal": journal_info,
            "kb": kb_info,
            "draining": self._draining,
            "stopping": self._stopping,
        }

    def readiness(self) -> tuple[bool, dict]:
        """(ready, detail) for ``GET /readyz``.

        Unready when draining/stopping, when the queue crosses its early
        threshold (below the 429 point, so balancers back off *before*
        clients see rejections), when a worker thread died, or when the
        journal cannot take writes.
        """
        stats = self.stats()
        depth = stats["queue"]["depth"]
        if self.max_queue is None:
            queue_ok = True
            threshold = None
        else:
            threshold = self._ready_threshold()
            queue_ok = depth < threshold
        workers_ok = stats["workers"]["alive"] >= 1 and (
            stats["workers"]["alive"] + len(stats["workers"]["zombies"])
            >= self.workers
        )
        journal_ok = self.journal is None or (
            self.journal.healthy and not self.journal.dead
        )
        accepting = not (self._draining or self._stopping)
        ready = queue_ok and workers_ok and journal_ok and accepting
        detail = {
            "ready": ready,
            "checks": {
                "accepting_jobs": accepting,
                "queue": {
                    "ok": queue_ok,
                    "depth": depth,
                    "unready_at": threshold,
                    "reject_at": self.max_queue,
                },
                "workers": dict(stats["workers"], ok=workers_ok),
                "journal": {"ok": journal_ok, "detail": stats["journal"]},
            },
            "jobs": stats["jobs"],
        }
        return ready, detail

    def _ready_threshold(self) -> int:
        """Queue depth at which readiness flips, strictly below ``max_queue``
        whenever the bound leaves room for an early warning."""
        if self.max_queue <= 1:
            return self.max_queue
        return max(1, min(self.max_queue - 1, int(self.max_queue * 0.8)))

    def _retry_after_estimate(self, depth: int) -> int:
        """Seconds a 429'd client should wait: queue drain time, bounded."""
        if self._run_ewma_s is None:
            return max(1, min(30, depth))
        per_slot = self._run_ewma_s * (depth / max(1, self.workers))
        return max(1, min(300, math.ceil(per_slot)))

    # ---------------------------------------------------- shutdown and drain
    def shutdown(self, wait: bool = True, timeout: float = 10.0) -> None:
        """Hard stop: cancel queued work honestly, stop the threads.

        Queued jobs are cancelled (and journaled as such, so a restart does
        not resurrect them).  A worker that outlives the join timeout is
        logged loudly — never silently leaked — and the KB writer is only
        retired once no worker can hand it more work; its queue is fully
        drained before the stop marker so no batched append is lost.
        """
        cancelled: list[int] = []
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
            for job_id in list(self._pending) + [jid for _, jid in self._delayed]:
                job = self._jobs[job_id]
                if job.status == "queued":
                    job.status = "cancelled"
                    job.finished_at = self._clock()
                    self._job_inputs.pop(job.job_id, None)
                    cancelled.append(job.job_id)
            self._pending.clear()
            self._delayed.clear()
            self._wakeup.notify_all()
        for job_id in cancelled:
            self._journal_safe({"t": "cancelled", "job": job_id})
        self._watchdog_stop.set()
        self._finish_threads(wait=wait, timeout=timeout)

    def drain(self, timeout: float = 30.0) -> dict:
        """Graceful (SIGTERM) shutdown: stop intake, finish in-flight work.

        Running jobs get up to ``timeout`` seconds to finish; queued jobs
        are *left journaled* so the next start re-enqueues them — nothing
        is cancelled.  Returns a summary of what was finished vs deferred.
        """
        with self._lock:
            if self._stopping:
                return {"finished": 0, "deferred": 0}
            self._draining = True
            self._wakeup.notify_all()
        self._watchdog_stop.set()
        self._finish_threads(wait=True, timeout=timeout)
        with self._lock:
            self._stopping = True
            deferred = sum(1 for j in self._jobs.values() if j.status == "queued")
            finished = sum(1 for j in self._jobs.values() if j.status in TERMINAL_STATUSES)
        logger.info(
            "drain complete: %d job(s) finished, %d queued job(s) journaled "
            "for the next start", finished, deferred,
        )
        return {"finished": finished, "deferred": deferred}

    def _finish_threads(self, wait: bool, timeout: float) -> None:
        """Join workers, retire the KB writer deterministically, flush WAL."""
        with self._lock:
            threads = list(self._threads)  # watchdog may append replacements
        if wait:
            deadline = time.monotonic() + timeout
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
        stragglers = [t.name for t in threads if t.is_alive()]
        if stragglers:
            logger.warning(
                "%d worker(s) still running after the %.1fs join timeout: %s "
                "— the KB writer stays alive so their appends can land; "
                "their jobs will be re-run from the journal on restart",
                len(stragglers), timeout, ", ".join(sorted(stragglers)),
            )
        else:
            # Safe to retire the writer: nothing can enqueue after this.
            # The stop marker lands *behind* every queued item (FIFO), so
            # the writer drains fully before exiting.
            self._kb_queue.put(None)
            if wait:
                self._kb_writer.join(timeout=timeout)
                if self._kb_writer.is_alive():
                    logger.warning(
                        "KB writer did not drain within %.1fs; pending batched "
                        "appends may still be in flight", timeout,
                    )
        if self.journal is not None:
            from repro.api.journal import JournalError

            try:
                if stragglers:
                    self.journal.flush()
                else:
                    self.journal.close()
            except (JournalError, OSError) as exc:  # pragma: no cover
                logger.warning("journal flush on shutdown failed: %s", exc)
        if wait:
            self._watchdog.join(timeout=1.0)

    # ------------------------------------------------------------- internals
    def _journal_safe(self, record: dict) -> None:
        """Best-effort journal append: never let journaling fail a job."""
        if self.journal is None:
            return
        from repro.api.journal import JournalError

        try:
            self.journal.append(record)
        except JournalError as exc:
            logger.error("journal append failed (%s): %r", exc, record.get("t"))

    def _heartbeat(self) -> None:
        self.heartbeats[threading.current_thread().name] = self._clock()

    def _next_job(self) -> ExperimentJob | None:
        """Block for the next queued job; None means stop this worker."""
        me = threading.current_thread().name
        with self._wakeup:
            while True:
                self.heartbeats[me] = self._clock()
                if self._stopping or self._draining or me in self._zombies:
                    return None
                while self._pending:
                    job = self._jobs[self._pending.popleft()]
                    if job.status == "queued":  # skip cancelled entries
                        job.status = "running"
                        job.started_at = self._clock()
                        job.attempt += 1
                        job.worker = me
                        job.deadline = (
                            time.monotonic() + job.timeout_s
                            if job.timeout_s is not None
                            else None
                        )
                        return job
                self._wakeup.wait(timeout=0.5)

    def _worker_loop(self) -> None:
        while True:
            job = self._next_job()
            if job is None:
                return
            try:
                self._run_job(job)
            except BaseException as exc:
                if isinstance(exc, _SimulatedCrash) or getattr(
                    exc, "simulates_crash", False
                ):
                    # Fault injection: this "process" is dead.  Seal the
                    # journal so no durable byte changes after the crash
                    # point, and retire without touching job state.
                    if self.journal is not None:
                        self.journal.kill()
                    return
                raise

    def _run_job(self, job: ExperimentJob) -> None:
        me = threading.current_thread().name
        dataset, config = self._job_inputs[job.job_id]
        self._journal_safe(
            {"t": "started", "job": job.job_id, "attempt": job.attempt}
        )

        def on_phase(phase: str, _job=job) -> None:
            self._heartbeat()
            with self._lock:
                if _job.status != "running" or _job.worker != me:
                    raise _JobAbandoned()
                if (
                    _job.deadline is not None
                    and time.monotonic() > _job.deadline
                ):
                    raise _JobTimeout()
                if _job.phase is not None:
                    _job.phases_done.append(_job.phase)
                _job.phase = phase

        def kb_sink(dataset_name, metafeatures, runs, _job=job) -> int:
            with self._lock:
                if _job.status != "running" or _job.worker != me:
                    raise _JobAbandoned()
                recovered = _job.kb_recovered_id
            if recovered is not None:
                # The batch committed before the crash; replay hands the
                # re-run its id instead of appending a duplicate.
                return recovered
            return self._kb_sink(_job, dataset_name, metafeatures, runs)

        registration_kwargs = {}
        if job.register_as is not None:
            def registry_sink(model_id, result, ds, _job=job) -> dict:
                with self._lock:
                    if _job.status != "running" or _job.worker != me:
                        raise _JobAbandoned()
                    recovered = _job.registry_recovered
                if recovered is not None:
                    return self.registry.registration_summary(*recovered)
                return self.registry_apply(
                    lambda: self.registry.register(model_id, result, dataset=ds),
                    job=_job,
                    model_id=model_id,
                )

            registration_kwargs = {
                "register_as": job.register_as,
                "registry_sink": registry_sink,
            }
        try:
            result = self.smartml.run(
                dataset,
                config,
                on_phase=on_phase,
                kb_sink=kb_sink,
                **registration_kwargs,
            )
            payload = result.to_dict()
            with self._lock:
                if job.status != "running" or job.worker != me:
                    return  # hard-failed or abandoned meanwhile: discard
                if job.phase is not None:
                    job.phases_done.append(job.phase)
                    job.phase = None
                job.result = payload
                job.status = "done"
                job.degraded = bool(payload.get("degraded"))
                job.failures = list(payload.get("failures") or [])
                job.error = None  # clear any transient retry message
                job.finished_at = self._clock()
                job.worker = None
                job.deadline = None
                phases = list(job.phases_done)
                self._observe_run_seconds(job)
                self._job_inputs.pop(job.job_id, None)
            self._journal_safe(
                {
                    "t": "done",
                    "job": job.job_id,
                    "result": payload,
                    "phases_done": phases,
                    "at": job.finished_at,
                }
            )
        except _JobAbandoned:
            return
        except _JobTimeout:
            self._fail_timeout(job, by_watchdog=False)
        except Exception as exc:
            if isinstance(exc, _SimulatedCrash) or getattr(exc, "simulates_crash", False):
                raise  # fault injection: let the worker loop "die"
            self._handle_job_error(job, exc)

    def _observe_run_seconds(self, job: ExperimentJob) -> None:
        """Fold a completed run into the Retry-After EWMA (under lock)."""
        if job.started_at is None or job.finished_at is None:
            return
        run_s = max(0.0, job.finished_at - job.started_at)
        if self._run_ewma_s is None:
            self._run_ewma_s = run_s
        else:
            self._run_ewma_s = 0.7 * self._run_ewma_s + 0.3 * run_s

    def _handle_job_error(self, job: ExperimentJob, exc: Exception) -> None:
        me = threading.current_thread().name
        message = f"{type(exc).__name__}: {exc}"
        infra = is_infrastructure_fault(exc)
        # Structured failure records (ExperimentFailedError: every candidate
        # or a pipeline phase was quarantined) travel with the failed job.
        failure_records: list[dict] = []
        if hasattr(exc, "failure_dicts"):
            try:
                failure_records = list(exc.failure_dicts())
            except Exception:  # pragma: no cover - diagnostics must not throw
                failure_records = []
        retry_delay = None
        with self._lock:
            if job.status != "running" or job.worker != me:
                return  # already hard-failed/abandoned: discard quietly
            job.phase = None
            job.worker = None
            job.deadline = None
            if infra and job.attempt <= self.max_retries:
                retry_delay = self._backoff_delay(job.attempt)
                job.status = "queued"
                job.started_at = None
                job.error = (
                    f"infrastructure fault (attempt {job.attempt}): {message}; "
                    f"retrying in {retry_delay:.2f}s"
                )
                self.retries_total += 1
                self._delayed.append((time.monotonic() + retry_delay, job.job_id))
            else:
                job.error = message
                job.status = "failed"
                job.failures = failure_records
                job.finished_at = self._clock()
                self._job_inputs.pop(job.job_id, None)
        if retry_delay is not None:
            logger.warning(
                "job %d died from an infrastructure fault (%s); retry %d/%d "
                "in %.2fs", job.job_id, message, job.attempt, self.max_retries,
                retry_delay,
            )
            self._journal_safe(
                {
                    "t": "retry",
                    "job": job.job_id,
                    "attempt": job.attempt,
                    "error": message,
                }
            )
        else:
            self._journal_safe(
                {
                    "t": "failed",
                    "job": job.job_id,
                    "error": message,
                    "failures": failure_records,
                }
            )

    def _backoff_delay(self, attempt: int) -> float:
        """Exponential backoff with deterministic jitter (seeded stream)."""
        base = min(
            self.retry_backoff_cap_s,
            self.retry_backoff_s * (2.0 ** max(0, attempt - 1)),
        )
        return base * (0.5 + 0.5 * self._retry_rng.random())

    def _fail_timeout(self, job: ExperimentJob, by_watchdog: bool) -> None:
        """Hard-fail a job that crossed its deadline (cooperative or not)."""
        replacement = None
        with self._lock:
            if job.status != "running":
                return
            stuck_worker = job.worker
            job.phase = None
            job.status = "failed"
            job.error = (
                f"timeout: exceeded the {job.timeout_s:.1f}s wall-clock limit"
            )
            job.finished_at = self._clock()
            job.worker = None
            job.deadline = None
            self.timeouts_total += 1
            self._job_inputs.pop(job.job_id, None)
            if by_watchdog and stuck_worker is not None:
                # The worker is wedged inside the evaluation.  Retire it as
                # a zombie (its eventual result is discarded above) and
                # keep pool capacity with a replacement thread.
                self._zombies.add(stuck_worker)
                replacement = threading.Thread(
                    target=self._worker_loop,
                    name=f"{stuck_worker}-replacement-{job.job_id}",
                    daemon=True,
                )
                self._threads.append(replacement)
        self._journal_safe(
            {"t": "failed", "job": job.job_id, "error": job.error}
        )
        if replacement is not None:
            logger.warning(
                "job %d exceeded its %.1fs timeout with worker %s wedged; "
                "hard-failed the job and started a replacement worker",
                job.job_id, job.timeout_s, stuck_worker,
            )
            replacement.start()

    def _watchdog_loop(self) -> None:
        """Deadline enforcement + delayed-retry release, every interval."""
        while not self._watchdog_stop.wait(timeout=self.watchdog_interval_s):
            now_m = time.monotonic()
            expired: list[ExperimentJob] = []
            with self._lock:
                if self._delayed:
                    due = [jid for t, jid in self._delayed if t <= now_m]
                    if due:
                        self._delayed = [
                            (t, jid) for t, jid in self._delayed if t > now_m
                        ]
                        self._pending.extend(due)
                        self._wakeup.notify_all()
                for job in self._jobs.values():
                    if (
                        job.status == "running"
                        and job.deadline is not None
                        and now_m > job.deadline
                    ):
                        expired.append(job)
            for job in expired:
                self._fail_timeout(job, by_watchdog=True)

    # ------------------------------------------------------------ KB writer
    def _kb_sink(self, job, dataset_name, metafeatures, runs) -> int:
        """Route a finished run's KB append through the single writer."""
        item = _KBWrite(dataset_name, metafeatures, runs, job=job)
        self._kb_queue.put(item)
        # Wake periodically: if the writer thread died (shutdown race, hard
        # failure) the append can never land — fail the job, don't hang it.
        while not item.done.wait(timeout=1.0):
            if not self._kb_writer.is_alive():
                raise SmartMLError("KB writer stopped before the append landed")
        if item.error is not None:
            raise item.error
        return item.dataset_id

    # ------------------------------------------------------- registry writer
    def registry_apply(self, fn, job=None, model_id=None):
        """Run a registry mutation on the single writer thread; return its value.

        The HTTP layer calls this for ``register``/``delete`` so registry
        directory writes observe the same one-writer discipline as KB
        appends, even with many concurrent handler threads.  Job
        registrations pass ``job``/``model_id`` so the writer can journal
        a write-ahead commit intent with the predicted version.
        """
        if self.registry is None:
            raise SmartMLError("this server has no model registry")
        item = _RegistryWrite(fn, job=job, model_id=model_id)
        self._kb_queue.put(item)
        while not item.done.wait(timeout=1.0):
            if not self._kb_writer.is_alive():
                raise SmartMLError("writer thread stopped before the registry write landed")
        if item.error is not None:
            raise item.error
        return item.outcome

    def _crashed(self) -> bool:
        """Durable state is frozen (simulated crash): write nothing more."""
        return self.journal is not None and self.journal.dead

    def _kb_writer_loop(self) -> None:
        while True:
            item = self._kb_queue.get()
            if item is None:
                return
            if self._crashed():
                item.error = _SimulatedCrash("durable state sealed by fault injection")
                item.done.set()
                continue
            if isinstance(item, _RegistryWrite):
                try:
                    item.outcome = self._apply_registry_write(item)
                except Exception as exc:
                    item.error = exc
                finally:
                    item.done.set()
                continue
            try:
                item.dataset_id = self._apply_kb_write(item)
            except Exception as exc:
                item.error = exc
            finally:
                item.done.set()

    def _count_kb_write(self, shard: int) -> None:
        key = f"shard-{shard:03d}"
        with self._lock:
            self.kb_shard_writes[key] = self.kb_shard_writes.get(key, 0) + 1

    def _apply_kb_write(self, item: _KBWrite) -> int:
        """One batched KB append, preceded by its journaled commit intent.

        Appends stay funnelled through this single writer thread even on a
        multi-shard store — the global id sequence serialises batches
        anyway — but each write is routed (and its journal intent tagged)
        with its destination shard, so recovery and the ``/jobs/stats``
        gauges can reason per failure domain.
        """
        kb = self.smartml.kb
        store = getattr(kb, "store", None)
        shard = kb.shard_for(item.dataset_name, item.metafeatures)
        if self.journal is None or item.job is None or store is None:
            dataset_id = kb.add_result_batch(item.dataset_name, item.metafeatures, item.runs)
            self._count_kb_write(shard)
            return dataset_id
        with store.locked():
            predicted = store.peek_next_id()
            # Intent first: recovery checks whether this id materialised in
            # the store and suppresses the re-run's append if it did.
            intent = {
                "t": "kb_commit",
                "job": item.job.job_id,
                "kb_dataset_id": predicted,
                "n_rows": 1 + len(item.runs),
                "shard": shard,
            }
            self.journal.append(intent)
            if self.journal.dead:
                raise _SimulatedCrash("crash between KB intent and append")
            dataset_id = kb.add_result_batch(
                item.dataset_name, item.metafeatures, item.runs
            )
        self._count_kb_write(shard)
        return dataset_id

    def _apply_registry_write(self, item: _RegistryWrite):
        """One registry mutation, with a commit intent for job registrations."""
        if self.journal is None or item.job is None or item.model_id is None:
            return item.fn()
        with self.registry.lock():
            version = self.registry.peek_next_version(item.model_id)
            self.journal.append(
                {
                    "t": "registry_commit",
                    "job": item.job.job_id,
                    "model_id": item.model_id,
                    "version": version,
                }
            )
            if self.journal.dead:
                raise _SimulatedCrash("crash between registry intent and register")
            return item.fn()

    def _registry_sink(self, model_id, result, dataset) -> dict:
        """``registry_sink`` hook for :meth:`SmartML.run` (worker threads)."""
        return self.registry_apply(
            lambda: self.registry.register(model_id, result, dataset=dataset)
        )
