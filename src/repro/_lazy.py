"""Deferred imports: lazy package exports (PEP 562) and the pipeline's first use."""

import importlib
import sys
import threading

#: What an experiment or a model decode needs beyond the serve path.
_PIPELINE = ("repro.core.result", "repro.evaluation", "repro.hpo", "repro.parallel.dispatch")
_PIPELINE_LOCK = threading.Lock()


def lazy_exports(package: str, modules: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__)`` for ``package``: each name in ``modules[m]``
    imports module ``m`` on first access and is then cached in the package."""
    origin = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str):
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(origin[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__


def import_pipeline() -> None:
    """Import the pipeline stages, one thread at a time (cheap once loaded).

    Two threads importing into one package at once (one in its ``__init__``,
    one importing a submodule by full name) can get a partially initialised
    module, as a fresh server's first experiment and first decode would."""
    with _PIPELINE_LOCK:
        for name in _PIPELINE:
            importlib.import_module(name)
