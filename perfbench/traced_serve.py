"""Run ``repro.cli`` with timing wrappers on each layer's public entry points.

Usage: ``python perfbench/traced_serve.py SPANS_FILE serve [serve args...]``
(with ``src`` on ``PYTHONPATH``).

Each wrapped call records a span — name, start, end, parent (the innermost
open span on the same thread), thread name and a small attribute — in
memory; the spans are written to ``SPANS_FILE`` as JSON when the command
returns.  Times are ``time.perf_counter()``, which on Linux reads the
system-wide monotonic clock, so the benchmark can line spans up with its
own client-side timestamps.

Wrappers go on class methods, which every instance looks up at call time,
and on module-level functions *in the module that calls them*: names bound
by ``from``-import (``extract_metafeatures`` in ``repro.core.smartml``,
``parse_csv_text`` in ``repro.api.server``) must be patched there.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

_spans: list[tuple] = []
_ids = itertools.count()
_local = threading.local()


def _stack() -> list[int]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def traced(name: str, fn, attr=None):
    """``fn`` wrapped to record a span called ``name``.

    ``attr(args, kwargs)`` may return a short string stored with the span.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack()
        span_id = next(_ids)
        parent = stack[-1] if stack else -1
        label = attr(args, kwargs) if attr is not None else ""
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            _spans.append(
                (span_id, name, start, end, parent, threading.current_thread().name, label)
            )

    return wrapper


def _patch(module_name: str, qualname: str, span: str, attr=None) -> None:
    module = importlib.import_module(module_name)
    owner_name, _, attr_name = qualname.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    # An inherited method is wrapped on the named class only.
    original = owner.__dict__.get(attr_name) or getattr(owner, attr_name)
    setattr(owner, attr_name, traced(span, original, attr))


def _dataset_name(args, kwargs) -> str:
    dataset = kwargs.get("dataset", args[1] if len(args) > 1 else None)
    return str(getattr(dataset, "name", ""))


def _first_arg(args, kwargs) -> str:
    return str(args[0]) if args else ""


def _second_arg(args, kwargs) -> str:
    return str(args[1]) if len(args) > 1 else ""


#: (module, qualified name, span name, attribute extractor)
PATCHES = [
    ("repro.api.server", "parse_csv_text", "data.parse", None),
    ("repro.data.validation", "validate_dataset", "data.validate", None),
    ("repro.preprocess.base", "Pipeline.fit_transform", "preprocess.fit_transform", None),
    ("repro.core.smartml", "extract_metafeatures", "metafeatures.extract", None),
    ("repro.core.smartml", "SmartML.run", "core.run", _dataset_name),
    ("repro.kb.knowledge_base", "KnowledgeBase.__init__", "kb.open", None),
    ("repro.kb.knowledge_base", "KnowledgeBase.nominate", "kb.nominate", None),
    ("repro.kb.knowledge_base", "KnowledgeBase.add_result_batch", "kb.commit", None),
    ("repro.parallel.dispatch", "execute_candidates", "parallel.dispatch", None),
    ("repro.parallel.dispatch", "tune_candidate", "hpo.tune_candidate", _first_arg),
    ("repro.hpo.smac", "SMAC.optimize", "hpo.smac", None),
    ("repro.hpo.surrogate", "RandomForestSurrogate.fit", "hpo.surrogate_fit", None),
    ("repro.hpo.surrogate", "RandomForestSurrogate.predict", "hpo.surrogate_predict", None),
    ("repro.hpo.objective", "CrossValObjective.evaluate_fold", "hpo.fold_eval", None),
    ("repro.api.journal", "JobJournal.append", "api.journal_append", None),
    ("repro.serving.registry", "ModelRegistry.register", "serving.register", _second_arg),
    ("repro.serving.registry", "ModelRegistry.load", "serving.load", _second_arg),
    ("repro.serving.registry", "RegisteredModel.predict_rows", "serving.engine_pass", None),
    ("repro.serving.batcher", "PredictionBatcher.predict", "serving.batcher_predict",
     _second_arg),
]


def _patch_classifiers() -> None:
    """Span every classifier fit/predict, labelled with the concrete family.

    The method is wrapped once on the class that defines it; the family
    comes from ``type(self)`` at call time, so inherited methods are
    attributed to the subclass that ran them.
    """
    from repro.classifiers import CLASSIFIER_REGISTRY

    family_of = {cls: name for name, cls in CLASSIFIER_REGISTRY.items()}

    def family(args, kwargs) -> str:
        return family_of.get(type(args[0]), "other") if args else "other"

    wrapped: set[tuple[type, str]] = set()
    for cls in CLASSIFIER_REGISTRY.values():
        for method, span in (
            ("fit", "classifiers.fit"),
            ("predict", "classifiers.predict"),
            ("predict_proba", "classifiers.predict"),
        ):
            owner = next(k for k in cls.__mro__ if method in k.__dict__)
            if (owner, method) in wrapped:
                continue
            wrapped.add((owner, method))
            setattr(owner, method, traced(span, owner.__dict__[method], family))


def install() -> None:
    for module_name, qualname, span, attr in PATCHES:
        _patch(module_name, qualname, span, attr)
    _patch_classifiers()


def dump(path: str) -> None:
    with open(path, "w") as out:
        json.dump(
            {
                "fields": ["id", "name", "start", "end", "parent", "thread", "attr"],
                "spans": list(_spans),
            },
            out,
        )


def main(argv: list[str]) -> int:
    spans_file, cli_args = argv[0], argv[1:]
    install()
    from repro.cli import main as cli_main

    # Marks the end of the imports, so the benchmark can split set-up time
    # into importing and opening (KB, registry, journal, socket).
    now = time.perf_counter()
    _spans.append((next(_ids), "proc.imported", now, now, -1, "MainThread", ""))

    try:
        return cli_main(cli_args)
    finally:
        dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
