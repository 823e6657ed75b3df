"""HTTP-level reliability behaviour: 429/Retry-After, readyz, client retry.

The in-process mechanics live in ``test_job_recovery.py``; these tests pin
the *wire* contract — status codes, Retry-After headers, readiness flips,
and the client surviving a server that is briefly unreachable.
"""

import socket
import threading
import time

import pytest

from repro.api import SmartMLClient, SmartMLServer
from repro.api.jobs import JobManager
from repro.core import SmartML
from repro.exceptions import SmartMLError
from repro.metafeatures import extract_metafeatures

CSV = "a,b,label\n" + "\n".join(
    f"{i % 7},{(i * 3) % 5},{'yes' if (i % 7) > 3 else 'no'}" for i in range(60)
)


class _BlockingRunner:
    """Holds the single worker hostage until released (backpressure tests)."""

    def __init__(self, kb):
        self.kb = kb
        self.registry = None
        self.release = threading.Event()
        self.entered = threading.Event()

    def run(self, dataset, config, on_phase=None, kb_sink=None, **kwargs):
        self.entered.set()
        self.release.wait(20.0)
        metafeatures = extract_metafeatures(dataset)
        if kb_sink is not None:
            kb_sink(dataset.name, metafeatures,
                    [{"algorithm": "knn", "config": {"k": 3}, "accuracy": 0.6}])

        class _R:
            def to_dict(self):
                return {"dataset": dataset.name}

        return _R()


@pytest.fixture()
def saturated_server():
    """A served JobManager with one wedged worker and a 2-slot queue."""
    server = SmartMLServer(SmartML(), workers=1)
    runner = _BlockingRunner(server.smartml.kb)
    server.jobs.shutdown(wait=True, timeout=5.0)
    server.jobs = JobManager(runner, workers=1, max_queue=2)
    server.serve_background()
    yield server, runner
    runner.release.set()
    server.shutdown()


def test_http_429_with_retry_after_and_readyz_flip(saturated_server):
    server, runner = saturated_server
    client = SmartMLClient(port=server.port)
    info = client.upload_csv(CSV, target="label", name="pressure")
    dataset_id = info["dataset_id"]

    assert client.readyz()["ready"] is True
    client.submit_experiment(dataset_id)  # occupies the worker
    assert runner.entered.wait(5.0)
    client.submit_experiment(dataset_id)  # depth 1: queue threshold reached

    # Readiness flips before intake stops...
    with pytest.raises(SmartMLError) as not_ready:
        client.readyz()
    assert not_ready.value.http_status == 503
    # ...while the queue still has one slot left:
    client.submit_experiment(dataset_id)  # depth 2 == max_queue

    with pytest.raises(SmartMLError) as full:
        client.submit_experiment(dataset_id)
    assert full.value.http_status == 429
    assert full.value.retry_after >= 1

    stats = client.jobs_stats()
    assert stats["queue"] == {"depth": 2, "max": 2}
    assert stats["jobs"]["running"] == 1

    # Draining the queue restores readiness.
    runner.release.set()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            assert client.readyz()["ready"] is True
            break
        except SmartMLError:
            time.sleep(0.05)
    else:
        pytest.fail("server never became ready again")


def test_healthz_alias_and_timeout_passthrough():
    server = SmartMLServer(SmartML(), default_timeout_s=120.0)
    server.serve_background()
    try:
        client = SmartMLClient(port=server.port)
        assert client._request("GET", "/healthz")["status"] == "ok"
        info = client.upload_csv(CSV, target="label", name="t")
        fast = {"time_budget_s": None, "max_evals_per_algorithm": 1,
                "n_folds": 2, "n_algorithms": 1, "fallback_portfolio": ["knn"]}
        job = client.submit_experiment(info["dataset_id"], config=fast, timeout_s=45.0)
        assert job["timeout_s"] == 45.0
        other = client.submit_experiment(info["dataset_id"], config=fast)
        assert other["timeout_s"] == 120.0  # server default applies
    finally:
        server.shutdown()


@pytest.mark.parametrize("length", ["-1", "abc"])
def test_bad_content_length_gets_400_without_waiting_for_body(length):
    server = SmartMLServer(SmartML())
    server.serve_background()
    try:
        with socket.create_connection(("127.0.0.1", server.port), timeout=3.0) as conn:
            conn.sendall(
                b"POST /nominate HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Length: " + length.encode() + b"\r\n\r\n"
            )
            status_line = conn.makefile("rb").readline()
        assert status_line.split()[1] == b"400"
    finally:
        server.shutdown()


def test_client_get_retries_until_server_appears():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    client = SmartMLClient(port=port, connect_retry_s=10.0)
    holder = {}

    def _late_start():
        time.sleep(0.4)
        server = SmartMLServer(SmartML(), port=port)
        server.serve_background()
        holder["server"] = server

    starter = threading.Thread(target=_late_start)
    starter.start()
    try:
        # The GET outlives the window where nothing is listening.
        assert client.health()["status"] == "ok"
    finally:
        starter.join()
        holder["server"].shutdown()


def test_client_retry_disabled_fails_fast():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    client = SmartMLClient(port=port, connect_retry_s=0.0)
    started = time.monotonic()
    with pytest.raises(SmartMLError, match="cannot reach the server"):
        client.health()
    assert time.monotonic() - started < 2.0


def test_client_never_retries_posts():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    client = SmartMLClient(port=port, connect_retry_s=30.0)
    started = time.monotonic()
    with pytest.raises(SmartMLError, match="cannot reach the server"):
        client.submit_experiment(1)
    assert time.monotonic() - started < 2.0, "POST must not be retried"
