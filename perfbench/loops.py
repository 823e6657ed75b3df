"""Client-side load: a closed experiment loop with one client.

Times are ``time.perf_counter()`` (the system-wide monotonic clock, shared
with the traced server's spans) except where a job record's wall-clock
``submitted_at``/``finished_at`` are combined with the client's
``time.time()``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from perfbench.service import Service

__all__ = ["POLL_S", "ExperimentRecord", "Predict", "run_experiment", "run_experiments"]

#: Job-status poll interval.  Experiment latency and time to first
#: prediction come from the job record's timestamps, so the interval only
#: delays the next submission and does not quantize either figure.
POLL_S = 0.01
_TERMINAL = ("done", "failed", "cancelled")


@dataclass
class Predict:
    """One predict request and its answer."""

    rows: list
    start: float
    end: float
    predictions: list
    version: int

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


@dataclass
class ExperimentRecord:
    """One upload → submit → done → predicts cycle."""

    name: str
    model_id: str
    validation_ok: bool
    error: str | None = None
    upload_ms: float | None = None
    submit_ms: float | None = None
    job: dict = field(default_factory=dict)
    #: The first entry is the first prediction.
    predicts: list[Predict] = field(default_factory=list)
    ttfp_s: float | None = None
    latency_s: float | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def run_experiment(service: Service, inp, config: dict, model_id: str,
                   n_predicts: int = 1) -> ExperimentRecord:
    """Upload, submit, poll to done, then ``n_predicts`` sequential predicts."""
    rec = ExperimentRecord(inp.name, model_id, inp.validation.ok)
    try:
        started = time.perf_counter()
        status, upload = service.request(
            "POST", "/datasets", {"csv": inp.csv, "target": "label", "name": inp.name}
        )
        rec.upload_ms = (time.perf_counter() - started) * 1e3
        if status != 200:
            rec.error = f"upload {status}: {upload.get('error')}"
            return rec
        submitted = time.time()
        started = time.perf_counter()
        status, job = service.request(
            "POST", "/experiments",
            {"dataset_id": upload["dataset_id"], "config": config, "register_as": model_id},
        )
        rec.submit_ms = (time.perf_counter() - started) * 1e3
        if status != 202:
            rec.error = f"submit {status}: {job.get('error')}"
            return rec
        path = f"/experiments/{job['job_id']}"
        while job.get("status") not in _TERMINAL:
            time.sleep(POLL_S)
            status, job = service.request("GET", path)
            if status != 200:
                rec.error = f"poll {status}: {job.get('error')}"
                return rec
        rec.job = job
        if job["status"] != "done":
            rec.error = f"job {job['status']}: {job.get('error')}"
            return rec
        for k in range(n_predicts):
            rows = inp.predict_rows(2, offset=2 * k)
            start = time.perf_counter()
            status, pred = service.request(
                "POST", f"/models/{model_id}/predict", {"rows": rows}
            )
            end = time.perf_counter()
            if status != 200:
                rec.error = f"predict {status}: {pred.get('error')}"
                return rec
            rec.predicts.append(Predict(rows, start, end, pred["predictions"], pred["version"]))
        rec.latency_s = job["finished_at"] - job["submitted_at"]
        rec.ttfp_s = (job["finished_at"] - submitted) + rec.predicts[0].ms / 1e3
    except OSError as exc:
        rec.error = f"{type(exc).__name__}: {exc}"
    return rec


def run_experiments(service: Service, make_input, config_for, model_id_for,
                    deadline: float, n_predicts: int) -> list[ExperimentRecord]:
    """Closed loop, one client: the next experiment starts when one ends.

    No experiment starts after ``deadline``; the one in flight finishes.
    """
    records = []
    index = 0
    while time.perf_counter() < deadline:
        records.append(run_experiment(
            service, make_input(index), config_for(index), model_id_for(index), n_predicts
        ))
        index += 1
    return records
