"""Cold start: the serve path imports only what it serves.

``repro``, ``repro.core``, ``repro.kb``, ``repro.data`` and ``repro.api``
export their public names lazily (PEP 562), and the pipeline stages load on
an experiment's first use.  These tests pin the export contract, check in a
fresh interpreter that a ready server has not loaded the ML stack, and race
the deferred imports of a first experiment against a first model decode.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import SmartML, SmartMLConfig
from repro.data import SyntheticSpec, make_dataset
from repro.data.writers import dataset_to_csv
from repro.kb import KnowledgeBase
from repro.serving import ModelRegistry

LAZY_PACKAGES = ["repro", "repro.core", "repro.kb", "repro.data", "repro.api"]

#: Modules a ready server (and ``import repro.cli``) must not have loaded.
ML_STACK = [
    "repro.classifiers",
    "repro.hpo",
    "repro.parallel",
    "repro.ensemble",
    "repro.interpret",
    "repro.kb.bootstrap",
    "repro.data.synthetic",
]

SRC = str(Path(repro.__file__).resolve().parents[1])

CONFIG = {
    "time_budget_s": None, "max_evals_per_algorithm": 2, "n_algorithms": 1,
    "fallback_portfolio": ["random_forest"], "update_kb": False,
}


def _run_fresh(script: str, *args: str) -> dict:
    """Run ``script`` in a new interpreter; it prints one JSON object last."""
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        capture_output=True, text=True, timeout=240,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def _defining_module(package: str, name: str, value) -> types.ModuleType:
    """The module that binds ``name`` where it is defined, not re-exported."""
    if isinstance(value, (type, types.FunctionType)):
        return importlib.import_module(value.__module__)
    pkg = importlib.import_module(package)
    for info in pkgutil.iter_modules(pkg.__path__, package + "."):
        module = importlib.import_module(info.name)
        if vars(module).get(name) is value:
            return module
    raise AssertionError(f"{package}.{name} is bound by none of its submodules")


# ------------------------------------------------------ export contract
@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_is_its_defining_modules_object(package):
    pkg = importlib.import_module(package)
    for name in pkg.__all__:
        if name.startswith("__"):
            continue
        value = getattr(pkg, name)
        assert getattr(_defining_module(package, name, value), name) is value, name


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_dir_lists_every_export(package):
    pkg = importlib.import_module(package)
    assert set(pkg.__all__) <= set(dir(pkg))


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_export"):
        pkg.no_such_export
    assert not hasattr(pkg, "no_such_export")


def test_star_import_and_dir_resolve_lazily_in_a_fresh_interpreter():
    # dir() lists the exports without importing them; `import *` and
    # `from repro import SmartML` resolve them on demand.
    found = _run_fresh("""
        import json, sys
        import repro.data
        listed = "load_eval_dataset" in dir(repro.data)
        loaded_by_dir = "repro.data.registry" in sys.modules
        namespace = {}
        exec("from repro.data import *", namespace)
        from repro import SmartML
        print(json.dumps({
            "listed": listed, "loaded_by_dir": loaded_by_dir,
            "star": sorted(set(repro.data.__all__) - set(namespace)),
            "smartml": SmartML.__module__,
        }))
    """)
    assert found == {
        "listed": True, "loaded_by_dir": False, "star": [],
        "smartml": "repro.core.smartml",
    }


# --------------------------------------------------------- import guard
def test_ready_server_has_not_loaded_the_ml_stack(tmp_path):
    # After `import repro.cli`, after /readyz answers and after an upload,
    # none of the ML stack is loaded; the same server then runs an
    # experiment and serves a predict.
    csv = dataset_to_csv(make_dataset(SyntheticSpec(
        name="guard", n_instances=60, n_features=4, n_classes=2, seed=3,
    )))
    (tmp_path / "guard.csv").write_text(csv)
    found = _run_fresh("""
        import json, sys, urllib.request
        from pathlib import Path

        ML_STACK = %r
        CONFIG = %r

        def loaded():
            return sorted(m for m in ML_STACK if m in sys.modules)

        root = Path(sys.argv[1])
        import repro.cli
        after_cli = loaded()

        from repro.api import SmartMLClient, SmartMLServer
        from repro.core import SmartML
        from repro.kb import KnowledgeBase

        server = SmartMLServer(
            SmartML(KnowledgeBase(root / "kb")), port=0,
            registry_dir=root / "models", journal=root / "jobs.wal",
        )
        server.serve_background()
        try:
            ready = urllib.request.urlopen(server.base_url + "/readyz").status
            after_ready = loaded()
            client = SmartMLClient(port=server.port)
            upload = client.upload_csv(
                (root / "guard.csv").read_text(), target="label", name="guard"
            )
            after_upload = loaded()
            job = client.submit_experiment(
                upload["dataset_id"], CONFIG, register_as="guard-model"
            )
            result = client.wait_experiment(job["job_id"], timeout=120)
            predicted = client.predict("guard-model", [[0.0, 0.0, 0.0, 0.0]])
        finally:
            server.shutdown()
        print(json.dumps({
            "after_cli": after_cli, "ready": ready, "after_ready": after_ready,
            "after_upload": after_upload, "best": result["best_algorithm"],
            "n_rows": predicted["n_rows"], "after_run": loaded(),
        }))
    """ % (ML_STACK, CONFIG), str(tmp_path))
    assert found["after_cli"] == []
    assert found["ready"] == 200
    assert found["after_ready"] == []
    assert found["after_upload"] == []
    assert found["best"] == "random_forest"
    assert found["n_rows"] == 1
    # The experiment did load the stages the guard keeps off the ready path.
    assert {"repro.classifiers", "repro.hpo", "repro.parallel"} <= set(found["after_run"])


def test_ready_server_without_a_journal_has_not_loaded_it(tmp_path):
    # The job journal loads only when one is configured (`serve --journal`).
    found = _run_fresh("""
        import json, sys, urllib.request
        from pathlib import Path

        from repro.api import SmartMLServer
        from repro.core import SmartML
        from repro.kb import KnowledgeBase

        root = Path(sys.argv[1])
        server = SmartMLServer(
            SmartML(KnowledgeBase(root / "kb")), port=0, registry_dir=root / "models",
        )
        server.serve_background()
        try:
            ready = urllib.request.urlopen(server.base_url + "/readyz").status
            journal = "repro.api.journal" in sys.modules
        finally:
            server.shutdown()
        print(json.dumps({"ready": ready, "journal": journal}))
    """, str(tmp_path))
    assert found == {"ready": 200, "journal": False}


# --------------------------------------------------- concurrent first use
def test_first_experiment_and_first_decode_import_concurrently(tmp_path):
    # A registry that already holds a model, opened by a fresh server: the
    # first experiment (worker thread) and a predict on that model (decode
    # on an HTTP thread) trigger the deferred imports together.  A loader
    # hook holds the experiment inside the classifiers package's __init__
    # until the predict is under way, so the two imports overlap on every
    # run; unserialised, the decode imports a classifier module by its full
    # name there and one thread is handed a partially initialised module.
    spec = SyntheticSpec(name="first", n_instances=80, n_features=5, n_classes=3, seed=11)
    ds = make_dataset(spec)
    registry = ModelRegistry(tmp_path / "models")
    SmartML(KnowledgeBase(), model_registry=registry).run(
        ds, SmartMLConfig(**CONFIG), register_as="served"
    )
    (tmp_path / "next.csv").write_text(dataset_to_csv(make_dataset(
        SyntheticSpec(name="next", n_instances=80, n_features=4, n_classes=2, seed=12)
    )))
    rows = ds.X[:12].tolist()
    found = _run_fresh("""
        import json, sys, threading, time
        from importlib.machinery import SourceFileLoader
        from pathlib import Path

        root = Path(sys.argv[1])
        CONFIG = %r
        ROWS = %r

        entered = threading.Event()
        exec_module = SourceFileLoader.exec_module

        def held_exec_module(loader, module):
            # The classifiers package __init__ imports bagging first.
            if module.__name__ == "repro.classifiers.bagging":
                entered.set()
                time.sleep(0.5)
            return exec_module(loader, module)

        SourceFileLoader.exec_module = held_exec_module

        from repro.api import SmartMLClient, SmartMLServer
        from repro.core import SmartML
        from repro.kb import KnowledgeBase

        server = SmartMLServer(
            SmartML(KnowledgeBase(root / "kb")), port=0, registry_dir=root / "models",
        )
        server.serve_background()
        cold = "repro.classifiers" not in sys.modules
        client = SmartMLClient(port=server.port)
        upload = client.upload_csv(
            (root / "next.csv").read_text(), target="label", name="next"
        )
        out = {}

        def experiment():
            job = client.submit_experiment(upload["dataset_id"], CONFIG)
            return client.wait_experiment(job["job_id"], timeout=120)["best_algorithm"]

        def predict():
            if not entered.wait(timeout=60):
                raise RuntimeError("the experiment never imported the classifiers")
            return SmartMLClient(port=server.port).predict(
                "served", ROWS, proba=True
            )["probabilities"]

        def record(key, call):
            try:
                out[key] = call()
            except Exception as exc:
                out[key] = repr(exc)

        threads = [
            threading.Thread(target=record, args=(key, call))
            for key, call in (("best", experiment), ("proba", predict))
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=150)
            alive = [t.is_alive() for t in threads]
        finally:
            server.shutdown()
        print(json.dumps({"cold": cold, "alive": alive, **out}))
    """ % (CONFIG, rows), str(tmp_path))
    assert found["cold"]
    assert found["alive"] == [False, False]
    assert found["best"] == "random_forest"
    expected = registry.load("served").predict_rows(rows, proba=True)
    assert np.array_equal(np.asarray(found["proba"]), expected)
