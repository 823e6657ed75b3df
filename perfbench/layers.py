"""Per-layer metrics from the traced server's spans and the client's records.

A span's self time is its duration minus the part its child spans cover.
Children are spans opened on the same thread while it was open.  Two
hand-offs cross threads: the job worker blocks while the single KB/registry
writer thread (``smartml-kb-writer``) lands its commit and registration, so
writer-thread spans inside an experiment's ``core.run`` interval count as
that run's children.
"""

from __future__ import annotations

import bisect
import json
import statistics
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Span", "SpanTree", "load_spans", "quantile", "windowed_quantile"]

WRITER_THREAD = "smartml-kb-writer"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    thread: str
    attr: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def load_spans(path: Path) -> list[Span]:
    return [Span(*row) for row in json.loads(path.read_text())["spans"]]


def quantile(values, q: int) -> float:
    """The ``q``-th percentile (10, 20, …, 90) of ``values``; 0.0 when empty."""
    values = sorted(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1])


def windowed_quantile(values, q: int, min_per_window: int = 100, max_windows: int = 5) -> float:
    """The ``q``-th percentile, robust to short slow spells of a shared host.

    ``values`` (in the order they were measured) are cut into up to
    ``max_windows`` consecutive windows of at least ``min_per_window``
    values; the result is the median of the windows' percentiles.  With
    fewer than ``2 * min_per_window`` values it is the plain percentile.
    """
    values = list(values)
    if not values:
        return 0.0
    k = max(1, min(max_windows, len(values) // min_per_window))
    size = -(-len(values) // k)
    return quantile(
        [quantile(values[i : i + size], q) for i in range(0, len(values), size)], 50
    )


class SpanTree:
    """Spans of one traced server, restricted to a measurement window."""

    def __init__(self, spans: list[Span], window: tuple[float, float]):
        lo, hi = window
        self.all = spans
        self.spans = [s for s in spans if s.start >= lo and s.end <= hi]
        self.by_id = {s.id: s for s in spans}
        self.children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent >= 0:
                self.children[span.parent].append(span)
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        for span in self.spans:
            self.by_name[span.name].append(span)
        for run in self.by_name["core.run"]:
            for handoff in self._writer_roots_within(run):
                self.children[run.id].append(handoff)

    def _writer_roots_within(self, run: Span) -> list[Span]:
        return [
            s for s in self.spans
            if s.thread == WRITER_THREAD and s.parent < 0
            and s.start >= run.start and s.end <= run.end
        ]

    def named(self, name: str) -> list[Span]:
        return self.by_name.get(name, [])

    def self_time(self, span: Span) -> float:
        return span.duration - sum(c.duration for c in self.children.get(span.id, []))

    def descendants(self, span: Span):
        for child in self.children.get(span.id, []):
            yield child
            yield from self.descendants(child)

    def top_level(self, prefix: str) -> list[Span]:
        """Spans named ``prefix*`` with no ancestor of the same prefix."""
        out = []
        for span in self.spans:
            if not span.name.startswith(prefix):
                continue
            parent = self.by_id.get(span.parent)
            nested = False
            while parent is not None:
                if parent.name.startswith(prefix):
                    nested = True
                    break
                parent = self.by_id.get(parent.parent)
            if not nested:
                out.append(span)
        return out

    def p50_ms(self, name: str) -> float:
        return quantile([s.duration * 1e3 for s in self.named(name)], 50)

    def total_s(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def self_total_s(self, name: str) -> float:
        return sum(self.self_time(s) for s in self.named(name))

    def blocking_path(self) -> dict[str, float]:
        """Self seconds by span name over every ``core.run`` tree."""
        totals: dict[str, float] = defaultdict(float)
        for run in self.named("core.run"):
            totals[run.name] += self.self_time(run)
            for span in self.descendants(run):
                totals[span.name] += self.self_time(span)
        return dict(totals)


def link_predicts(tree: SpanTree, requests) -> list[tuple[object, Span]]:
    """Pair client predict requests with the server's batcher spans.

    ``requests`` yield ``(model_id, sent, done, payload)``; a server span
    belongs to the request for the same model whose interval contains it.
    """
    spans = sorted(tree.named("serving.batcher_predict"), key=lambda s: s.start)
    starts = [s.start for s in spans]
    used: set[int] = set()
    pairs = []
    for model_id, sent, done, payload in sorted(requests, key=lambda r: r[1]):
        i = bisect.bisect_left(starts, sent)
        while i < len(spans) and spans[i].start <= done:
            span = spans[i]
            if span.id not in used and span.attr == model_id and span.end <= done:
                used.add(span.id)
                pairs.append(((model_id, sent, done, payload), span))
                break
            i += 1
    return pairs


def queue_waits_ms(tree: SpanTree) -> list[float]:
    """Per request: batcher wait = its predict call minus the pass serving it.

    The pass serving a request is the last engine pass that ran entirely
    inside the request's ``PredictionBatcher.predict`` call.
    """
    passes = sorted(tree.named("serving.engine_pass"), key=lambda s: s.end)
    ends = [p.end for p in passes]
    waits = []
    for request in tree.named("serving.batcher_predict"):
        # Passes run one at a time on the batcher thread, so only the last
        # one ending inside the call can have started inside it too.
        i = bisect.bisect_right(ends, request.end) - 1
        if i >= 0 and passes[i].start >= request.start:
            waits.append((request.duration - passes[i].duration) * 1e3)
    return waits
