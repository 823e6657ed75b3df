"""Micro-batched prediction execution.

Serving traffic is many small, concurrent requests — often a single row
each — while every engine underneath (flat-tree traversal, substrate
cross-grams, vectorised distance kernels) is built for *batches*.  The
:class:`PredictionBatcher` bridges the two: concurrent requests for the
same ``(model_id, version, kind)`` that arrive within a short coalescing
window are stacked into one matrix, pushed through the model in a single
pass, and sliced back per request with order preserved.

Three properties are load-bearing and covered by the serving test suite:

* **row ownership** — each caller gets exactly the rows it submitted, in
  the order it submitted them, no matter how the scheduler interleaves
  arrivals (rows are sliced by recorded offsets, never re-matched by
  content);
* **error isolation** — a malformed request coalesced with healthy ones
  fails alone: shape validation happens at enqueue, and if a combined
  pass still fails, the batch is re-run request-by-request so only the
  culprit sees the error;
* **bit-identity** — a batched prediction equals the per-request
  prediction bit-for-bit for row-local model families.  One BLAS trap
  makes this non-trivial: a 1-row matmul takes the gemv path, which does
  not produce the identical floats as the same row inside a >=2-row gemm.
  The executor therefore pads single-row passes to two rows (duplicating
  the row, discarding the extra output) so solo and coalesced passes run
  the same gemm kernels.  Families whose predict path regroups rows
  internally (LMT's per-leaf logistic models) are deterministic but not
  bitwise-stable across batch compositions; ``docs/serving.md`` spells
  out the caveat.

The batcher is deliberately synchronous from the caller's side: a
``predict`` call blocks until its slice is ready, so the N serving
threads of the HTTP server map 1:1 onto waiting requests.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import SmartMLError
from repro.serving.registry import ModelRegistry, RegistryError

__all__ = ["PredictionBatcher", "BatcherStats", "BatchRequestError"]


class BatchRequestError(SmartMLError):
    """A single request failed (its batch-mates are unaffected)."""


@dataclass
class BatcherStats:
    """Counters describing how well coalescing is working."""

    requests: int = 0
    batches: int = 0
    coalesced_requests: int = 0
    rows: int = 0
    failed_requests: int = 0
    isolation_reruns: int = 0
    max_batch_requests: int = 0
    max_batch_rows: int = 0

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "coalesced_requests": self.coalesced_requests,
            "rows": self.rows,
            "failed_requests": self.failed_requests,
            "isolation_reruns": self.isolation_reruns,
            "max_batch_requests": self.max_batch_requests,
            "max_batch_rows": self.max_batch_rows,
            "mean_requests_per_batch": (
                self.requests / self.batches if self.batches else 0.0
            ),
        }


class _Request:
    """One caller's rows plus the rendezvous it blocks on."""

    __slots__ = ("key", "rows", "n_rows", "done", "outcome", "error")

    def __init__(self, key, rows: np.ndarray):
        self.key = key
        self.rows = rows
        self.n_rows = int(rows.shape[0])
        self.done = threading.Event()
        self.outcome: np.ndarray | None = None
        self.error: Exception | None = None

    def resolve(self, outcome: np.ndarray) -> None:
        self.outcome = outcome
        self.done.set()

    def fail(self, error: Exception) -> None:
        self.error = error
        self.done.set()


class PredictionBatcher:
    """Coalesce concurrent predict requests into shared batch passes.

    Parameters
    ----------
    registry:
        Source of servable models.
    window_s:
        How long the worker holds the first request of a batch open for
        a compatible late arrival, when another predict for the same model
        is on its way to the queue.  Zero still coalesces whatever is
        already queued (no artificial latency floor).
    max_batch_rows:
        Row cap per combined pass.  Matches the distance-engine chunk
        size so a coalesced pass stays inside one kernel tile.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        window_s: float = 0.002,
        max_batch_rows: int = 256,
    ):
        if window_s < 0:
            raise RegistryError("window_s must be >= 0")
        if max_batch_rows < 1:
            raise RegistryError("max_batch_rows must be >= 1")
        self.registry = registry
        self.window_s = float(window_s)
        self.max_batch_rows = int(max_batch_rows)
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._queue: list[_Request] = []
        # model_id -> coalescing predicts between entry and enqueue: the
        # only partners worth holding a lone request open for.
        self._arriving: dict[str, int] = {}
        self._stats = BatcherStats()
        self._closed = False
        self._worker = threading.Thread(
            target=self._worker_loop, name="predict-batcher", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------- public API
    def predict(
        self,
        model_id: str,
        rows,
        proba: bool = False,
        version: int | None = None,
        use_ensemble: bool = False,
        coalesce: bool = True,
        timeout: float = 30.0,
    ) -> np.ndarray:
        """Predict ``rows``; blocks until this request's slice is ready.

        Validation (model exists, rows rectangular and the right width)
        happens *here*, on the caller's thread, so a malformed request is
        rejected before it can join — and poison — a batch.
        """
        if coalesce:
            with self._lock:
                self._count_arrival(model_id, 1)
        try:
            entry = self.registry.load(model_id, version)
            X = self._validated_rows(entry, rows)
        except BaseException:
            if coalesce:
                with self._lock:
                    self._count_arrival(model_id, -1)
            raise
        key = (entry.model_id, entry.version, bool(proba), bool(use_ensemble))
        if not coalesce:
            with self._lock:
                self._stats.requests += 1
                self._stats.batches += 1
                self._stats.rows += X.shape[0]
                self._stats.max_batch_requests = max(self._stats.max_batch_requests, 1)
                self._stats.max_batch_rows = max(
                    self._stats.max_batch_rows, int(X.shape[0])
                )
            try:
                return self._run_pass(entry, X, proba, use_ensemble)
            except Exception:
                with self._lock:
                    self._stats.failed_requests += 1
                raise
        request = _Request(key, X)
        with self._lock:
            self._count_arrival(model_id, -1)
            if self._closed:
                raise RegistryError("batcher is shut down")
            self._queue.append(request)
            self._stats.requests += 1
            self._wakeup.notify_all()
        if not request.done.wait(timeout):
            # Orphan the request: if the worker picks it up later the
            # result is simply dropped.
            with self._lock:
                if request in self._queue:
                    self._queue.remove(request)
            raise BatchRequestError(
                f"prediction for model {model_id!r} timed out after {timeout}s"
            )
        if request.error is not None:
            raise request.error
        return request.outcome

    def stats(self) -> BatcherStats:
        with self._lock:
            return BatcherStats(**vars(self._stats))

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the worker; queued requests fail with a shutdown error."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending, self._queue = self._queue, []
            self._wakeup.notify_all()
        for request in pending:
            request.fail(RegistryError("batcher is shut down"))
        self._worker.join(timeout)

    # ---------------------------------------------------------------- worker
    def _count_arrival(self, model_id: str, step: int) -> None:
        """Count a predict onto (+1) or off (-1) its way to the queue (under the lock)."""
        count = self._arriving.get(model_id, 0) + step
        if count:
            self._arriving[model_id] = count
        else:
            del self._arriving[model_id]
        self._wakeup.notify_all()

    def _worker_loop(self) -> None:
        while True:
            batch = self._collect_batch()
            if batch is None:
                return
            self._execute(batch)

    def _collect_batch(self) -> list[_Request] | None:
        """Take the oldest request plus compatible arrivals in its window.

        The window is a *pairing* timeout, not a pacing delay: a lone
        request waits up to ``window_s`` for a first partner only while
        another predict for the same model is between :meth:`predict`
        entry and enqueue (otherwise it executes at once), and once the
        batch has company it executes as soon as the queue holds nothing
        compatible.  Under sustained load the backlog that builds while a
        pass runs is coalesced immediately on pickup — throughput comes
        from that drain, with no imposed latency floor.
        """
        with self._lock:
            while not self._queue:
                if self._closed:
                    return None
                self._wakeup.wait()
            head = self._queue.pop(0)
        deadline = time.monotonic() + self.window_s
        batch = [head]
        rows = head.n_rows
        while rows < self.max_batch_rows:
            with self._lock:
                take = None
                for candidate in self._queue:
                    if (
                        candidate.key == head.key
                        and rows + candidate.n_rows <= self.max_batch_rows
                    ):
                        take = candidate
                        break
                if take is not None:
                    self._queue.remove(take)
                else:
                    if len(batch) > 1:
                        break  # has company and the queue is drained: go
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or self._closed or head.key[0] not in self._arriving:
                        break
                    self._wakeup.wait(remaining)
                    continue
            batch.append(take)
            rows += take.n_rows
        return batch

    def _execute(self, batch: list[_Request]) -> None:
        model_id, version, proba, use_ensemble = batch[0].key
        total_rows = sum(r.n_rows for r in batch)
        with self._lock:
            self._stats.batches += 1
            self._stats.rows += total_rows
            if len(batch) > 1:
                self._stats.coalesced_requests += len(batch)
            self._stats.max_batch_requests = max(
                self._stats.max_batch_requests, len(batch)
            )
            self._stats.max_batch_rows = max(self._stats.max_batch_rows, total_rows)
        try:
            entry = self.registry.load(model_id, version)
            X = (
                batch[0].rows
                if len(batch) == 1
                else np.concatenate([r.rows for r in batch], axis=0)
            )
            combined = self._run_pass(entry, X, proba, use_ensemble)
        except Exception as exc:
            if len(batch) == 1:
                with self._lock:
                    self._stats.failed_requests += 1
                batch[0].fail(exc)
                return
            # A combined pass died even though every member validated at
            # enqueue.  Re-run per request so only the culprit fails.
            with self._lock:
                self._stats.isolation_reruns += 1
            for request in batch:
                try:
                    entry = self.registry.load(model_id, version)
                    request.resolve(
                        self._run_pass(entry, request.rows, proba, use_ensemble)
                    )
                except Exception as member_exc:
                    with self._lock:
                        self._stats.failed_requests += 1
                    request.fail(member_exc)
            return
        offset = 0
        for request in batch:
            request.resolve(combined[offset : offset + request.n_rows])
            offset += request.n_rows

    # -------------------------------------------------------------- execution
    @staticmethod
    def _validated_rows(entry, rows) -> np.ndarray:
        try:
            X = np.asarray(rows, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise BatchRequestError(f"rows are not numeric: {exc}") from exc
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.ndim != 2 or X.shape[0] == 0:
            raise BatchRequestError(
                f"rows must form a non-empty 2-d matrix, got shape {tuple(X.shape)}"
            )
        if entry.n_features and X.shape[1] != entry.n_features:
            raise BatchRequestError(
                f"model {entry.model_id!r} expects {entry.n_features} features "
                f"per row, got {X.shape[1]}"
            )
        return X

    @staticmethod
    def _run_pass(entry, X: np.ndarray, proba: bool, use_ensemble: bool) -> np.ndarray:
        """One full pipeline+model pass, padded so 1-row inputs hit gemm.

        A lone row would take BLAS's gemv path and produce floats that
        differ in the last ulp from the same row inside a larger gemm;
        duplicating it keeps every pass — solo or coalesced — on the same
        kernels, which is what makes batched == unbatched bit-for-bit.
        """
        padded = X.shape[0] == 1
        if padded:
            X = np.concatenate([X, X], axis=0)
        out = entry.predict_rows(X, proba=proba, use_ensemble=use_ensemble)
        out = np.asarray(out)
        return out[:1] if padded else out
