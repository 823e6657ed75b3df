"""End-to-end crash-recovery smoke test against a real server process.

The in-process crash machinery lives in ``tests/test_job_recovery.py``;
this script checks the same promise across a *process* boundary, the way
an operator would experience it:

1. start ``repro.cli serve`` with a job journal in a scratch directory;
2. upload a dataset and submit an experiment (acknowledged with 202);
3. ``SIGKILL`` the server — no drain, no atexit, nothing graceful;
4. start a fresh server process on the same journal;
5. assert the job comes back (``recovered: true``), runs to ``done``,
   and its result is served.

Run:  PYTHONPATH=src python tools/recovery_smoke.py [SCRATCH_DIR]
(from the repo root; exits non-zero on any failed expectation).  With a
``SCRATCH_DIR`` argument the journal/KB land there instead of a temp
dir, so CI can upload them as artifacts when the smoke fails.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

CSV = "a,b,label\n" + "\n".join(
    f"{i % 7},{(i * 3) % 5},{'yes' if (i % 7) > 3 else 'no'}" for i in range(60)
)
FAST_CONFIG = {
    "time_budget_s": None,
    "max_evals_per_algorithm": 1,
    "n_folds": 2,
    "n_algorithms": 1,
    "fallback_portfolio": ["knn"],
}


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _spawn_server(port: int, workdir: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", str(port),
            "--workers", "1",
            "--journal", str(workdir / "jobs.wal"),
            "--kb", str(workdir / "kb"),
            "--max-queue", "8",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
    )


def main() -> int:
    sys.path.insert(0, str(SRC))
    from repro.api import SmartMLClient

    port = _free_port()
    if len(sys.argv) > 1:
        workdir = Path(sys.argv[1])
        workdir.mkdir(parents=True, exist_ok=True)
    else:
        workdir = Path(tempfile.mkdtemp(prefix="smartml-recovery-"))
    journal = workdir / "jobs.wal"
    print(f"scratch dir: {workdir} (journal: {journal})")

    client = SmartMLClient(port=port, connect_retry_s=30.0)
    server = _spawn_server(port, workdir)
    try:
        assert client.health()["status"] == "ok", "server never came up"
        info = client.upload_csv(CSV, target="label", name="recovery-smoke")
        job = client.submit_experiment(info["dataset_id"], config=FAST_CONFIG)
        job_id = job["job_id"]
        print(f"submitted job {job_id} (status {job['status']}); killing server")

        # SIGKILL: the ack above is the only durability promise we hold.
        server.send_signal(signal.SIGKILL)
        server.wait(timeout=10)
        if not journal.exists():
            print("FAIL: no journal file on disk after the kill")
            return 1

        server = _spawn_server(port, workdir)
        recovered = client.get_experiment(job_id)  # GET retries bridge the restart
        if not recovered.get("recovered"):
            print(f"FAIL: job {job_id} not flagged recovered: {recovered}")
            return 1
        print(f"job {job_id} recovered (status {recovered['status']}); waiting")

        result = client.wait_experiment(job_id, timeout=120)
        if result.get("best_algorithm") is None:
            print(f"FAIL: recovered job finished without a result: {result}")
            return 1
        print(
            f"OK: job {job_id} survived SIGKILL and finished "
            f"({result['best_algorithm']}, acc {result['validation_accuracy']:.3f})"
        )
        return 0
    finally:
        if server.poll() is None:
            server.terminate()
            try:
                server.wait(timeout=15)
            except subprocess.TimeoutExpired:
                server.kill()


if __name__ == "__main__":
    sys.exit(main())
