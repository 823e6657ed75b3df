"""Start, probe and stop one ``repro.cli serve`` process; a tiny JSON client.

Every process the benchmark starts gets ``child_env``: one BLAS/OpenMP
thread (multi-threaded OpenBLAS made CPU time exceed wall time and spread
experiment times by several percent on a 2-core box), a fixed hash seed and
unbuffered output.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

__all__ = [
    "THREAD_ENV", "child_env", "cpu_plan", "cpu_ticks", "pin_to_server_cpus",
    "http_json", "Service", "ServiceError",
]

#: Thread settings applied to the benchmark and everything it starts.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

_BANNER = re.compile(r"on http://127\.0\.0\.1:(\d+) ")
_CLK_TCK = os.sysconf("SC_CLK_TCK")
#: CPUs this process may use before it pins itself (see ``cpu_plan``).
_USABLE_CPUS = sorted(os.sched_getaffinity(0))


class ServiceError(RuntimeError):
    """The service failed to start, answer or stop."""


def cpu_ticks() -> tuple[int, int]:
    """System-wide (steal, total) CPU ticks from ``/proc/stat``.

    Steal is time the hypervisor ran other guests while this machine's
    CPUs had work; on a shared host it inflates every wall-clock figure.
    """
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]
    ticks = [int(f) for f in fields]
    return ticks[7], sum(ticks)


def cpu_plan() -> tuple[set[int], set[int]]:
    """(server CPUs, client CPUs).

    With two or more usable CPUs the server gets the first and this client
    the rest, so the generator never preempts the server's threads and the
    server's GIL hand-offs stay on one CPU; on a 2-vCPU guest of a shared
    host that roughly halved the run-to-run spread of predict latency.  With
    one CPU both share it.
    """
    cpus = _USABLE_CPUS
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, set(cpus[1:])


def pin_to_server_cpus() -> None:
    os.sched_setaffinity(0, cpu_plan()[0])


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONUNBUFFERED"] = "1"
    return env


def http_json(port: int, method: str, path: str, payload: dict | None = None,
              timeout: float = 120.0) -> tuple[int, dict]:
    """One request on a fresh connection (the server speaks HTTP/1.0)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        return response.status, (json.loads(raw) if raw else {})
    finally:
        connection.close()


class Service:
    """One server process.

    ``serve_args`` are the arguments after ``serve``.  With ``spans_file``
    the process is the traced launcher (``perfbench/traced_serve.py``),
    which writes its spans there when it shuts down.
    """

    def __init__(self, root: Path, workdir: Path, serve_args: list[str],
                 spans_file: Path | None = None):
        self.root = root
        self.workdir = workdir
        self.serve_args = list(serve_args)
        self.spans_file = spans_file
        self.process: subprocess.Popen | None = None
        self.port: int | None = None
        self.setup_s: float | None = None
        self.ready_at: float | None = None

    def start(self, timeout: float = 60.0) -> float:
        """Launch and wait for ``/readyz`` 200; returns launch-to-ready seconds."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        if self.spans_file is None:
            argv = [sys.executable, "-m", "repro.cli", "serve"]
        else:
            argv = [sys.executable, str(Path(__file__).with_name("traced_serve.py")),
                    str(self.spans_file), "serve"]
        argv += ["--port", "0", *self.serve_args]
        out_path = self.workdir / "stdout.txt"
        with open(out_path, "wb") as out, open(self.workdir / "stderr.txt", "wb") as err:
            started = time.perf_counter()
            self.process = subprocess.Popen(
                argv, cwd=self.root, env=child_env(self.root), stdout=out, stderr=err,
                stdin=subprocess.DEVNULL, preexec_fn=pin_to_server_cpus,
            )
        deadline = started + timeout
        while self.port is None:
            match = _BANNER.search(out_path.read_text(errors="replace"))
            if match:
                self.port = int(match.group(1))
                break
            self._check_alive(deadline)
            time.sleep(0.002)
        while True:
            try:
                status, _ = http_json(self.port, "GET", "/readyz", timeout=5.0)
            except OSError:
                status = None
            if status == 200:
                self.ready_at = time.perf_counter()
                self.setup_s = self.ready_at - started
                return self.setup_s
            self._check_alive(deadline)
            time.sleep(0.002)

    def _check_alive(self, deadline: float) -> None:
        if self.process.poll() is not None:
            raise ServiceError(
                f"server exited with {self.process.returncode}: "
                + (self.workdir / "stderr.txt").read_text(errors="replace")[-2000:]
            )
        if time.perf_counter() > deadline:
            self.kill()
            raise ServiceError("server did not become ready in time")

    def _proc_status(self) -> str:
        return Path(f"/proc/{self.process.pid}/status").read_text()

    def peak_rss_mb(self) -> float:
        """The process's high-water resident set (``VmHWM``) in MiB."""
        match = re.search(r"^VmHWM:\s+(\d+) kB", self._proc_status(), re.M)
        return int(match.group(1)) / 1024.0

    def cpu_seconds(self) -> float:
        """User + system CPU time the process has used so far."""
        fields = Path(f"/proc/{self.process.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def request(self, method: str, path: str, payload: dict | None = None) -> tuple[int, dict]:
        return http_json(self.port, method, path, payload)

    def stop(self, timeout: float = 60.0) -> None:
        """SIGTERM (the server drains) and wait; SIGKILL if it hangs."""
        if self.process is None or self.process.poll() is not None:
            return
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ServiceError("server did not stop after SIGTERM") from None

    def kill(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait(30)
