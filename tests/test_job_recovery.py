"""Crash-recovery, watchdog, retry, backpressure, and drain tests.

The centrepiece is the kill-and-restart property: for **any** injected
crash point in the job journal (any frame boundary, or mid-frame), a
restarted service that finishes the submitted work must leave durable
state — every file under the KB root, the model-registry directory, and
the job table's observable fields — identical to a run that never
crashed.  Timestamp sources are pinned (injected constant clocks, a
deterministic runner), so "identical" is literal: byte-for-byte on the KB
shard log, manifest and snapshots and on the registry files.
"""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.jobs import (
    JobManager,
    JobStateError,
    QueueFullError,
    ServiceDrainingError,
    TERMINAL_STATUSES,
)
from repro.api.journal import JobJournal
from repro.data import SyntheticSpec, make_dataset
from repro.kb import KnowledgeBase
from repro.metafeatures import extract_metafeatures
from repro.serving import ModelRegistry
from repro.testing import FaultScript, FaultyRunner, JournalCrashPlan

KB_CLOCK = lambda: 1_000.0  # noqa: E731 - pinned wall clocks for byte identity
JOB_CLOCK = lambda: 2_000.0  # noqa: E731

#: The scenario: three jobs, the middle one registering its winner.
PLAN = [("rec-a", None), ("rec-b", "crash-model"), ("rec-c", None)]
DATASET_IDS = {"rec-a": 1, "rec-b": 2, "rec-c": 3}

#: Journal appends an uninterrupted PLAN run performs:
#: 3x submitted + 3x started + 3x kb_commit + 1x registry_commit + 3x done.
FRAMES_PER_CLEAN_RUN = 13


@pytest.fixture(scope="module")
def datasets():
    return {
        name: make_dataset(
            SyntheticSpec(name=name, n_instances=30, n_features=4,
                          n_classes=2, class_sep=2.0, seed=7 + i)
        )
        for i, name in enumerate(DATASET_IDS)
    }


def _build_stack(root, fault_hook=None, scripts=None, **manager_kw):
    """One simulated service process: KB + registry + journal + manager."""
    kb = KnowledgeBase(root / "kb", snapshot_every=None)
    registry = ModelRegistry(root / "registry", clock=KB_CLOCK)
    journal = JobJournal(root / "jobs.wal", fault_hook=fault_hook, clock=JOB_CLOCK)
    runner = FaultyRunner(kb, registry=registry, scripts=scripts)
    manager = JobManager(
        runner, workers=1, registry=registry, journal=journal,
        clock=JOB_CLOCK, **manager_kw,
    )
    return kb, registry, journal, manager, runner


def _drive(manager, datasets, plan=PLAN, poll_timeout=20.0):
    """Submit the plan sequentially, waiting each job out.

    Returns the dataset names whose submission was *acknowledged* (the
    simulated client got its 202).  Stops early when the injected crash
    fires — exactly like a client watching its connection die.
    """
    acked = []
    for name, register_as in plan:
        try:
            job = manager.submit(
                datasets[name], DATASET_IDS[name], {}, register_as=register_as
            )
        except Exception as exc:
            if getattr(exc, "simulates_crash", False):
                return acked, True
            raise
        acked.append(name)
        deadline = time.monotonic() + poll_timeout
        while True:
            if manager.get(job.job_id).status in TERMINAL_STATUSES:
                break
            if manager.journal.dead:
                return acked, True
            assert time.monotonic() < deadline, f"job for {name} never settled"
            time.sleep(0.005)
        if manager.journal.dead:
            return acked, True
    return acked, manager.journal.dead


def _tree_bytes(directory):
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def _durable_state(root):
    """Everything that must match a reference run, byte for byte."""
    return _tree_bytes(root / "kb"), _tree_bytes(root / "registry")


def _job_table(manager):
    """Observable job outcomes, keyed by dataset (timestamps excluded)."""
    return {
        job.dataset_name: (
            job.dataset_id, job.status, job.result, job.register_as, job.error
        )
        for job in manager.list_jobs()
    }


@pytest.fixture(scope="module")
def reference(tmp_path_factory, datasets):
    """The uninterrupted run every crashed run must reproduce."""
    root = tmp_path_factory.mktemp("reference")
    kb, registry, journal, manager, runner = _build_stack(root)
    acked, crashed = _drive(manager, datasets)
    assert not crashed and len(acked) == len(PLAN)
    state = _durable_state(root)
    # The comparison covers a real store: manifest plus a non-empty log.
    assert "MANIFEST.json" in state[0] and state[0]["shard-000.log"]
    table = _job_table(manager)
    assert all(row[1] == "done" for row in table.values())
    manager.shutdown()
    kb.close()
    return {"state": state, "table": table}


# ----------------------------------------------------------- the tentpole
@settings(max_examples=25, deadline=None)
@given(
    at_frame=st.integers(min_value=0, max_value=FRAMES_PER_CLEAN_RUN),
    mode=st.sampled_from(["before", "torn", "after"]),
    cut_bytes=st.integers(min_value=1, max_value=40),
)
def test_kill_and_restart_recovers_exactly(
    tmp_path_factory, datasets, reference, at_frame, mode, cut_bytes
):
    """Kill the service at any journal frame (or mid-frame); restart and
    finish; durable state must equal the no-crash run byte for byte."""
    root = tmp_path_factory.mktemp("crashed")
    plan = JournalCrashPlan(at_frame=at_frame, mode=mode, cut_bytes=cut_bytes)

    # --- first "process": runs until the injected kill (or to completion)
    _kb1, _reg1, journal1, manager1, _run1 = _build_stack(root, fault_hook=plan)
    acked, crashed = _drive(manager1, datasets)
    assert crashed == plan.fired
    # Durable state is frozen from the moment the crash fired; the dead
    # manager is simply abandoned, exactly like a SIGKILLed process.

    # --- second "process": same paths, fresh everything
    kb2, _reg2, journal2, manager2, runner2 = _build_stack(root)
    recovered = {job.dataset_name for job in manager2.list_jobs()}
    # A client whose submit never got its 202 resubmits — unless the crash
    # hit *after* the frame landed, in which case the job was recovered
    # (an acked submit is always durable, so acked implies recovered).
    assert all(name in recovered for name in acked)
    resubmit = [(name, reg) for name, reg in PLAN if name not in recovered]
    for name, register_as in resubmit:
        manager2.submit(datasets[name], DATASET_IDS[name], {}, register_as=register_as)
    deadline = time.monotonic() + 30.0
    while any(j.status not in TERMINAL_STATUSES for j in manager2.list_jobs()):
        assert time.monotonic() < deadline, "recovered jobs never settled"
        time.sleep(0.005)

    assert _durable_state(root) == reference["state"], (
        f"durable state diverged after crash at frame {at_frame} ({mode})"
    )
    table = _job_table(manager2)
    assert table == reference["table"]
    manager2.shutdown()
    kb2.close()


def test_restart_serves_finished_results_without_recompute(tmp_path, datasets):
    kb, registry, journal, manager, runner = _build_stack(tmp_path)
    acked, crashed = _drive(manager, datasets)
    assert not crashed
    first_calls = list(runner.calls)
    manager.shutdown()
    kb.close()

    kb2, _reg2, _j2, manager2, runner2 = _build_stack(tmp_path)
    jobs = manager2.list_jobs()
    assert len(jobs) == len(PLAN)
    assert all(j.status == "done" and j.recovered for j in jobs)
    assert all(j.result is not None for j in jobs)
    assert runner2.calls == []  # nothing re-ran
    assert len(first_calls) == len(PLAN)
    # Job ids continue past the recovered ones.
    new = manager2.submit(datasets["rec-a"], 1, {})
    assert new.job_id == max(j.job_id for j in jobs) + 1
    manager2.wait(new.job_id, timeout=20.0)
    manager2.shutdown()
    kb2.close()


# ----------------------------------------------------- timeouts & watchdog
class _SelectiveBlockingRunner:
    """Blocks (without phase callbacks) for scripted datasets: the shape of
    a genuinely wedged tuning run the watchdog must kill."""

    def __init__(self, kb, block_names=()):
        self.kb = kb
        self.registry = None
        self.release = threading.Event()
        self.entered = threading.Event()
        self.block_names = set(block_names)

    def run(self, dataset, config, on_phase=None, kb_sink=None, **kwargs):
        if on_phase:
            on_phase("preprocessing")
        if dataset.name in self.block_names:
            self.entered.set()
            self.release.wait(20.0)
        metafeatures = extract_metafeatures(dataset)
        runs = [{"algorithm": "knn", "config": {"k": 3}, "accuracy": 0.6}]
        if kb_sink is not None:
            kb_sink(dataset.name, metafeatures, runs)

        class _R:
            def to_dict(self):
                return {"dataset": dataset.name}

        return _R()


def test_watchdog_hard_timeout_replaces_wedged_worker(datasets):
    runner = _SelectiveBlockingRunner(
        KnowledgeBase(), block_names={"rec-a"}
    )
    runner.kb = KnowledgeBase()
    manager = JobManager(runner, workers=1, watchdog_interval_s=0.02)
    try:
        stuck = manager.submit(datasets["rec-a"], 1, {}, timeout_s=0.15)
        assert runner.entered.wait(5.0)
        done = manager.wait(stuck.job_id, timeout=5.0)
        assert done.status == "failed"
        assert "timeout" in done.error
        assert manager.timeouts_total == 1
        stats = manager.stats()
        assert stats["workers"]["zombies"], "wedged worker was not retired"
        # Pool capacity survived: a fresh job completes on the replacement.
        follow_up = manager.submit(datasets["rec-b"], 2, {})
        assert manager.wait(follow_up.job_id, timeout=5.0).status == "done"
    finally:
        runner.release.set()
        manager.shutdown()


def test_cooperative_timeout_fires_at_phase_boundary(datasets):
    kb = KnowledgeBase()
    runner = FaultyRunner(
        kb, scripts={"rec-a": FaultScript(fault_phase="selection", slow_s=0.25)}
    )
    manager = JobManager(runner, workers=1, watchdog_interval_s=10.0)
    try:
        # The watchdog interval is 10s: only the cooperative on_phase check
        # can fail this job inside the test's horizon.
        job = manager.submit(datasets["rec-a"], 1, {}, timeout_s=0.05)
        done = manager.wait(job.job_id, timeout=5.0)
        assert done.status == "failed" and "timeout" in done.error
        assert manager.stats()["workers"]["zombies"] == []
    finally:
        manager.shutdown()


def test_timeout_validation(datasets):
    manager = JobManager(FaultyRunner(KnowledgeBase()), workers=1)
    try:
        with pytest.raises(Exception):
            manager.submit(datasets["rec-a"], 1, {}, timeout_s=-1.0)
    finally:
        manager.shutdown()


# -------------------------------------------------------------- retries
def test_infrastructure_faults_retry_with_backoff_then_succeed(datasets):
    kb = KnowledgeBase()
    runner = FaultyRunner(kb, scripts={"rec-a": FaultScript(infra_faults=2)})
    manager = JobManager(
        runner, workers=1, max_retries=3,
        retry_backoff_s=0.01, retry_backoff_cap_s=0.05, watchdog_interval_s=0.01,
    )
    try:
        job = manager.submit(datasets["rec-a"], 1, {})
        done = manager.wait(job.job_id, timeout=10.0)
        assert done.status == "done"
        assert done.attempt == 3  # two scripted faults, then success
        assert done.error is None
        assert manager.retries_total == 2
        assert kb.n_datasets() == 1  # the KB write landed exactly once
    finally:
        manager.shutdown()


def test_retries_are_bounded(datasets):
    runner = FaultyRunner(
        KnowledgeBase(), scripts={"rec-a": FaultScript(infra_faults=99)}
    )
    manager = JobManager(
        runner, workers=1, max_retries=1,
        retry_backoff_s=0.01, watchdog_interval_s=0.01,
    )
    try:
        job = manager.submit(datasets["rec-a"], 1, {})
        done = manager.wait(job.job_id, timeout=10.0)
        assert done.status == "failed"
        assert done.attempt == 2  # initial run + one retry
        assert "shm exhaustion" in done.error
    finally:
        manager.shutdown()


def test_deterministic_user_errors_never_retry(datasets):
    runner = FaultyRunner(
        KnowledgeBase(), scripts={"rec-a": FaultScript(user_error_attempts=(1, 2))}
    )
    manager = JobManager(runner, workers=1, max_retries=5, retry_backoff_s=0.01)
    try:
        job = manager.submit(datasets["rec-a"], 1, {})
        done = manager.wait(job.job_id, timeout=10.0)
        assert done.status == "failed"
        assert done.attempt == 1
        assert manager.retries_total == 0
        assert "bad request" in done.error
    finally:
        manager.shutdown()


def test_pool_loss_is_an_infrastructure_fault(datasets):
    runner = FaultyRunner(
        KnowledgeBase(), scripts={"rec-a": FaultScript(pool_loss_attempts=(1,))}
    )
    manager = JobManager(
        runner, workers=1, max_retries=2,
        retry_backoff_s=0.01, watchdog_interval_s=0.01,
    )
    try:
        job = manager.submit(datasets["rec-a"], 1, {})
        done = manager.wait(job.job_id, timeout=10.0)
        assert done.status == "done"
        assert done.attempt == 2
    finally:
        manager.shutdown()


# ---------------------------------------------------------- backpressure
def test_queue_saturation_returns_429_after_readiness_flips(datasets):
    runner = _SelectiveBlockingRunner(KnowledgeBase(), block_names={"rec-a"})
    manager = JobManager(runner, workers=1, max_queue=3)
    try:
        manager.submit(datasets["rec-a"], 1, {})  # occupies the worker
        assert runner.entered.wait(5.0)
        manager.submit(datasets["rec-b"], 2, {})  # depth 1: still ready
        ready, _ = manager.readiness()
        assert ready
        manager.submit(datasets["rec-c"], 3, {})  # depth 2: crosses threshold
        ready, detail = manager.readiness()
        assert not ready, "readiness must flip before intake stops"
        assert detail["checks"]["queue"]["unready_at"] == 2
        # ...but intake is still open: the 429 point is the hard bound.
        manager.submit(datasets["rec-b"], 2, {})  # depth 3 == max_queue
        with pytest.raises(QueueFullError) as excinfo:
            manager.submit(datasets["rec-c"], 3, {})
        assert excinfo.value.http_status == 429
        assert excinfo.value.retry_after >= 1
    finally:
        runner.release.set()
        manager.shutdown()


def test_stats_surface(datasets):
    kb = KnowledgeBase()
    manager = JobManager(FaultyRunner(kb), workers=1, max_queue=5)
    try:
        job = manager.submit(datasets["rec-a"], 1, {})
        manager.wait(job.job_id, timeout=10.0)
        stats = manager.stats()
        assert stats["jobs"]["done"] == 1
        assert stats["queue"] == {"depth": 0, "max": 5}
        assert stats["workers"]["alive"] == 1
        assert stats["journal"] is None
        ready, detail = manager.readiness()
        assert ready and detail["checks"]["accepting_jobs"]
    finally:
        manager.shutdown()


# ------------------------------------------------------------------ drain
def test_drain_finishes_running_and_defers_queued(tmp_path, datasets):
    runner = _SelectiveBlockingRunner(KnowledgeBase(), block_names={"rec-a"})
    runner.kb = KnowledgeBase(tmp_path / "kb", snapshot_every=None)
    manager = JobManager(
        runner, workers=1, journal=JobJournal(tmp_path / "jobs.wal")
    )
    running = manager.submit(datasets["rec-a"], 1, {})
    assert runner.entered.wait(5.0)
    queued = manager.submit(datasets["rec-b"], 2, {})

    drained = {}
    drainer = threading.Thread(
        target=lambda: drained.update(manager.drain(timeout=10.0))
    )
    drainer.start()
    # Intake flips to 503 the moment draining starts.
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            manager.submit(datasets["rec-c"], 3, {})
        except ServiceDrainingError as exc:
            assert exc.http_status == 503
            break
        time.sleep(0.01)
    else:
        pytest.fail("draining never rejected intake")
    runner.release.set()
    drainer.join(timeout=15.0)
    assert not drainer.is_alive()
    assert drained == {"finished": 1, "deferred": 1}
    assert manager.get(running.job_id).status == "done"
    assert manager.get(queued.job_id).status == "queued"
    with pytest.raises(JobStateError):
        manager.submit(datasets["rec-c"], 3, {})  # fully stopped now

    # Next start picks the deferred job up and finishes it.
    kb2 = KnowledgeBase(tmp_path / "kb", snapshot_every=None)
    runner2 = FaultyRunner(kb2)
    manager2 = JobManager(runner2, workers=1, journal=JobJournal(tmp_path / "jobs.wal"))
    try:
        recovered = manager2.get(queued.job_id)
        assert recovered.recovered
        assert manager2.wait(queued.job_id, timeout=10.0).status == "done"
    finally:
        manager2.shutdown()
        kb2.close()
