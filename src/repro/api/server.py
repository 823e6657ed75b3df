"""REST API server.

SmartML "is also designed to be programming language agnostic so that it
can be embedded in any programming language using its available REST APIs".
This module provides that surface on the Python stdlib HTTP server:

========  =====================  ==============================================
method    path                   behaviour
========  =====================  ==============================================
GET       /health                liveness probe + KB health (``kb_degraded``,
                                 shard quarantine report, snapshot-fallback
                                 and torn-frame counters)
GET       /healthz               same payload (k8s-style alias)
GET       /readyz                readiness: 200 when accepting work, 503 with
                                 failing checks (queue depth, worker liveness,
                                 journal health) when a balancer should back off
GET       /jobs/stats            job-service gauges: per-state counts, queue
                                 depth, worker heartbeats, timeout/retry totals
GET       /kb/stats              knowledge-base dataset/run counts
POST      /datasets              upload a dataset (csv or arff payload)
GET       /datasets              list uploaded datasets
GET       /metafeatures/<id>     the 25 meta-features of an uploaded dataset
POST      /nominate              algorithm selection only, from raw
                                 meta-features (the paper's "upload only the
                                 dataset meta-features file" mode)
POST      /experiments           **enqueue** a pipeline run; returns 202 with
                                 a job id immediately (never blocks on tuning);
                                 429 + ``Retry-After`` when the queue is full,
                                 503 + ``Retry-After`` while draining
GET       /experiments           list all jobs (summaries, no result payload)
GET       /experiments/<id>      job status/progress/timings + result when done
DELETE    /experiments/<id>      cancel a *queued* job (409 once running)
GET       /models                list registered models (latest versions)
GET       /models/<id>           one model's summary + available versions
DELETE    /models/<id>           drop every version of a registered model
POST      /models/<id>/predict   predict rows through a registered model;
                                 concurrent requests are micro-batched
GET       /serving/stats         registry cache + batcher coalescing counters
========  =====================  ==============================================

All requests and responses are JSON.  Experiments execute on a background
worker pool (``workers=N``, following the ``SmartMLConfig.n_jobs``
convention) managed by :class:`~repro.api.jobs.JobManager`; knowledge-base
appends from those workers are batched through the manager's single writer
thread, so the handler threads stay I/O-only and the KB log has exactly one
writer.  See ``docs/rest_api.md`` for request/response examples.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.api.jobs import JobManager
from repro.core import SmartML
from repro.data.io import parse_arff_text, parse_csv_text
from repro.exceptions import SmartMLError
from repro.metafeatures import MetaFeatures, extract_metafeatures
from repro.serving import ModelRegistry, PredictionBatcher

__all__ = ["SmartMLServer"]


class SmartMLServer:
    """Wraps a :class:`SmartML` instance behind the REST interface.

    Parameters
    ----------
    smartml:
        Pipeline + knowledge base to serve (a fresh in-memory one when
        omitted).
    workers:
        Background experiment workers draining the job queue (default 1,
        i.e. jobs run one at a time in submission order).
    backend:
        Default execution backend for submitted experiments whose config
        does not name one (``serial`` | ``thread`` | ``process``).
    registry:
        Model registry serving ``/models``.  When omitted, one is built
        from ``registry_dir`` (durable) or in memory (``registry_dir``
        ``None``) — either way the endpoints are always available.
    batch_window_s:
        Micro-batching window for ``POST /models/<id>/predict``; requests
        for the same model arriving within this window share one pass.
    journal:
        Job-journal path (or :class:`~repro.api.journal.JobJournal`); when
        set, submitted jobs survive a crash — a restarted server with the
        same journal path replays them (see ``docs/reliability.md``).
    max_queue:
        Bound on queued-but-unstarted jobs; saturation returns HTTP 429
        with a ``Retry-After`` estimate.  ``None`` keeps intake unbounded.
    default_timeout_s:
        Wall-clock timeout applied to experiments that do not set their
        own ``timeout_s`` at submission.
    max_retries:
        Automatic re-runs for jobs killed by infrastructure faults.
    """

    def __init__(
        self,
        smartml: SmartML | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        backend: str = "thread",
        registry: ModelRegistry | None = None,
        registry_dir=None,
        batch_window_s: float = 0.002,
        journal=None,
        max_queue: int | None = None,
        default_timeout_s: float | None = None,
        max_retries: int = 2,
    ):
        self.smartml = smartml or SmartML()
        self.host = host
        self.registry = (
            registry
            if registry is not None
            else (self.smartml.registry or ModelRegistry(registry_dir))
        )
        self.smartml.registry = self.registry
        self.jobs = JobManager(
            self.smartml,
            workers=workers,
            backend=backend,
            registry=self.registry,
            journal=journal,
            max_queue=max_queue,
            default_timeout_s=default_timeout_s,
            max_retries=max_retries,
        )
        self.batcher = PredictionBatcher(self.registry, window_s=batch_window_s)
        self._datasets: dict[int, object] = {}
        self._next_dataset_id = 1
        self._lock = threading.Lock()
        handler = self._make_handler()
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self.port = self._httpd.server_address[1]
        self._thread: threading.Thread | None = None

    # -------------------------------------------------------------- control
    def serve_background(self) -> None:
        """Start serving on a daemon thread; returns immediately."""
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.batcher.shutdown()
        self.jobs.shutdown()

    def drain(self, timeout: float = 30.0) -> dict:
        """Graceful (SIGTERM) shutdown: finish running jobs, defer queued ones.

        Intake flips to 503 immediately (readiness goes false), running
        experiments get up to ``timeout`` seconds to finish and land their
        KB/registry writes, queued jobs stay journaled for the next start,
        and only then does the HTTP listener stop.
        """
        summary = self.jobs.drain(timeout=timeout)
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.batcher.shutdown()
        return summary

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------ endpoints
    def _upload_dataset(self, payload: dict) -> dict:
        name = payload.get("name", "uploaded")
        target = payload.get("target", -1)
        if "csv" in payload:
            ds = parse_csv_text(payload["csv"], target=target, name=name)
        elif "arff" in payload:
            ds = parse_arff_text(payload["arff"], target=target, name=name)
        else:
            raise SmartMLError("payload must contain 'csv' or 'arff'")
        with self._lock:
            dataset_id = self._next_dataset_id
            self._next_dataset_id += 1
            self._datasets[dataset_id] = ds
        return {
            "dataset_id": dataset_id,
            "name": ds.name,
            "n_instances": ds.n_instances,
            "n_features": ds.n_features,
            "n_classes": ds.n_classes,
        }

    def _list_datasets(self) -> dict:
        with self._lock:
            return {
                "datasets": [
                    {
                        "dataset_id": dataset_id,
                        "name": ds.name,
                        "n_instances": ds.n_instances,
                        "n_features": ds.n_features,
                        "n_classes": ds.n_classes,
                    }
                    for dataset_id, ds in sorted(self._datasets.items())
                ]
            }

    def _get_dataset(self, dataset_id: int):
        with self._lock:
            ds = self._datasets.get(dataset_id)
        if ds is None:
            raise SmartMLError(f"unknown dataset_id {dataset_id}")
        return ds

    def _metafeatures(self, dataset_id: int) -> dict:
        ds = self._get_dataset(dataset_id)
        return {"dataset_id": dataset_id, "metafeatures": extract_metafeatures(ds).to_dict()}

    def _nominate(self, payload: dict) -> dict:
        raw = payload.get("metafeatures")
        if not isinstance(raw, dict):
            raise SmartMLError("payload must contain a 'metafeatures' object")
        metafeatures = MetaFeatures.from_dict(raw)
        nominations = self.smartml.kb.nominate(
            metafeatures,
            n_algorithms=int(payload.get("n_algorithms", 3)),
            n_neighbors=int(payload.get("n_neighbors", 3)),
            mode=payload.get("mode", "weighted"),
        )
        return {
            "nominations": [
                {
                    "algorithm": n.algorithm,
                    "score": n.score,
                    "supporting_datasets": list(n.supporting_datasets),
                    "warm_configs": n.warm_configs,
                }
                for n in nominations
            ],
            # A quarantined shard means these nominations come from the
            # surviving subset of the run history — callers may want to
            # widen their fallback portfolio.
            "kb_degraded": self._kb_degraded(),
        }

    def _kb_degraded(self) -> bool:
        return bool(getattr(self.smartml.kb, "degraded", False))

    def _health(self) -> dict:
        """Liveness payload: alive even when degraded, but say so."""
        kb = self.smartml.kb
        health = kb.health() if hasattr(kb, "health") else {}
        degraded = self._kb_degraded()
        return {
            "status": "degraded" if degraded else "ok",
            "kb_degraded": degraded,
            "kb": health,
        }

    def _submit_experiment(self, payload: dict) -> dict:
        dataset_id = payload.get("dataset_id")
        if not isinstance(dataset_id, int):
            raise SmartMLError("payload must contain an integer 'dataset_id'")
        ds = self._get_dataset(dataset_id)
        timeout_s = payload.get("timeout_s")
        if timeout_s is not None:
            timeout_s = float(timeout_s)
        job = self.jobs.submit(
            ds,
            dataset_id,
            payload.get("config", {}),
            register_as=payload.get("register_as"),
            timeout_s=timeout_s,
        )
        return job.to_dict(include_result=False)

    def _list_experiments(self) -> dict:
        return {"jobs": [job.to_dict(include_result=False) for job in self.jobs.list_jobs()]}

    def _get_experiment(self, job_id: int) -> dict:
        return self.jobs.get(job_id).to_dict()

    def _cancel_experiment(self, job_id: int) -> dict:
        return self.jobs.cancel(job_id).to_dict(include_result=False)

    def _kb_stats(self) -> dict:
        return {
            "datasets": self.smartml.kb.n_datasets(),
            "runs": self.smartml.kb.n_runs(),
        }

    # ------------------------------------------------------ model endpoints
    def _list_models(self) -> dict:
        return {"models": self.registry.list_models()}

    def _get_model(self, model_id: str) -> dict:
        return self.registry.info(model_id)

    def _delete_model(self, model_id: str) -> dict:
        # Mutation: route through the job manager's single writer thread so
        # the registry directory never sees two writers.
        return self.jobs.registry_apply(lambda: self.registry.delete(model_id))

    def _predict(self, model_id: str, payload: dict) -> dict:
        rows = payload.get("rows")
        if not isinstance(rows, list) or not rows:
            raise SmartMLError("payload must contain a non-empty 'rows' list")
        proba = bool(payload.get("proba", False))
        version = payload.get("version")
        if version is not None:
            version = int(version)
        entry = self.registry.load(model_id, version)
        out = self.batcher.predict(
            model_id,
            rows,
            proba=proba,
            # Pin the resolved version so the response header and the pass
            # agree even if a re-register lands mid-request.
            version=entry.version,
            use_ensemble=bool(payload.get("use_ensemble", False)),
            coalesce=bool(payload.get("coalesce", True)),
        )
        response = {
            "model_id": entry.model_id,
            "version": entry.version,
            "n_rows": int(out.shape[0]),
        }
        if proba:
            response["probabilities"] = out.tolist()
            response["class_names"] = list(entry.class_names)
        else:
            predictions = out.astype(int).tolist()
            response["predictions"] = predictions
            response["labels"] = entry.labels_for(out)
        return response

    def _serving_stats(self) -> dict:
        return {
            "registry": self.registry.cache_info(),
            "batcher": self.batcher.stats().to_dict(),
        }

    # -------------------------------------------------------------- plumbing
    def _make_handler(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):  # silence default stderr noise
                pass

            def _reply(self, status: int, payload: dict, headers: dict | None = None) -> None:
                body = json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                for name, value in (headers or {}).items():
                    self.send_header(name, str(value))
                self.end_headers()
                self.wfile.write(body)

            def _fail(self, exc: Exception) -> None:
                # Exceptions may carry their HTTP status (404/409/429/503);
                # plain validation errors map to 400.  Backpressure and
                # draining errors also carry a Retry-After hint; structured
                # errors (dataset validation reports, candidate failure
                # records) merge their machine-readable payload into the body.
                headers = {}
                retry_after = getattr(exc, "retry_after", None)
                if retry_after is not None:
                    headers["Retry-After"] = int(retry_after)
                body = {"error": str(exc)}
                extra = getattr(exc, "payload", None)
                if isinstance(extra, dict):
                    body.update(extra)
                self._reply(getattr(exc, "http_status", 400), body, headers)

            def _read_json(self) -> dict:
                length = int(self.headers.get("Content-Length", "0"))
                if length < 0:
                    # rfile.read(-1) would block until the client closes.
                    raise SmartMLError(f"invalid Content-Length: {length}")
                raw = self.rfile.read(length) if length else b"{}"
                try:
                    payload = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise SmartMLError(f"invalid JSON body: {exc}") from exc
                if not isinstance(payload, dict):
                    raise SmartMLError("JSON body must be an object")
                return payload

            def do_GET(self):  # noqa: N802 - http.server API
                try:
                    if self.path in ("/health", "/healthz"):
                        self._reply(200, server._health())
                    elif self.path == "/readyz":
                        ready, detail = server.jobs.readiness()
                        self._reply(200 if ready else 503, detail)
                    elif self.path == "/jobs/stats":
                        self._reply(200, server.jobs.stats())
                    elif self.path == "/kb/stats":
                        self._reply(200, server._kb_stats())
                    elif self.path == "/datasets":
                        self._reply(200, server._list_datasets())
                    elif self.path == "/experiments":
                        self._reply(200, server._list_experiments())
                    elif self.path.startswith("/experiments/"):
                        job_id = int(self.path.rsplit("/", 1)[1])
                        self._reply(200, server._get_experiment(job_id))
                    elif self.path.startswith("/metafeatures/"):
                        dataset_id = int(self.path.rsplit("/", 1)[1])
                        self._reply(200, server._metafeatures(dataset_id))
                    elif self.path == "/models":
                        self._reply(200, server._list_models())
                    elif self.path.startswith("/models/"):
                        model_id = self.path.split("/", 2)[2]
                        self._reply(200, server._get_model(model_id))
                    elif self.path == "/serving/stats":
                        self._reply(200, server._serving_stats())
                    else:
                        self._reply(404, {"error": f"unknown path {self.path}"})
                except (SmartMLError, ValueError) as exc:
                    self._fail(exc)

            def do_POST(self):  # noqa: N802 - http.server API
                try:
                    payload = self._read_json()
                    if self.path == "/datasets":
                        self._reply(200, server._upload_dataset(payload))
                    elif self.path == "/nominate":
                        self._reply(200, server._nominate(payload))
                    elif self.path == "/experiments":
                        self._reply(202, server._submit_experiment(payload))
                    elif self.path.startswith("/models/") and self.path.endswith(
                        "/predict"
                    ):
                        model_id = self.path.split("/", 2)[2][: -len("/predict")]
                        self._reply(200, server._predict(model_id, payload))
                    else:
                        self._reply(404, {"error": f"unknown path {self.path}"})
                except (SmartMLError, ValueError) as exc:
                    self._fail(exc)

            def do_DELETE(self):  # noqa: N802 - http.server API
                try:
                    if self.path.startswith("/experiments/"):
                        job_id = int(self.path.rsplit("/", 1)[1])
                        self._reply(200, server._cancel_experiment(job_id))
                    elif self.path.startswith("/models/"):
                        model_id = self.path.split("/", 2)[2]
                        self._reply(200, server._delete_model(model_id))
                    else:
                        self._reply(404, {"error": f"unknown path {self.path}"})
                except (SmartMLError, ValueError) as exc:
                    self._fail(exc)

        return Handler
