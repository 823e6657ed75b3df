"""Tests for the command-line interface."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main

CSV = "a,b,label\n" + "\n".join(
    f"{i % 6},{(i * 5) % 7},{'x' if (i % 6) > 2 else 'y'}" for i in range(60)
)


@pytest.fixture
def csv_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(CSV)
    return path


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_datasets_lists_table4():
    code, text = _run(["datasets"])
    assert code == 0
    for key in ("abalone", "gisette", "kin8nm"):
        assert key in text


def test_bootstrap_then_nominate(tmp_path, csv_file):
    kb_path = tmp_path / "kb"
    code, text = _run([
        "bootstrap", "--kb", str(kb_path), "--n", "2", "--configs", "1",
        "--max-instances", "80", "--quiet",
    ])
    assert code == 0
    assert "knowledge base ready: 2 datasets" in text

    code, text = _run([
        "nominate", "--dataset", str(csv_file), "--target", "label",
        "--kb", str(kb_path),
    ])
    assert code == 0
    assert "score=" in text


def test_nominate_empty_kb_exits_nonzero(csv_file):
    code, text = _run(["nominate", "--dataset", str(csv_file), "--target", "label"])
    assert code == 1
    assert "empty" in text


def test_run_on_file(csv_file, tmp_path):
    kb_path = tmp_path / "kb"
    code, text = _run([
        "run", "--dataset", str(csv_file), "--target", "label",
        "--kb", str(kb_path), "--budget", "1.0", "--algorithms", "2",
        "--preprocess", "center", "scale",
    ])
    assert code == 0
    assert "recommended algorithm" in text
    # The run must have updated the persistent KB.
    code, text = _run([
        "nominate", "--dataset", str(csv_file), "--target", "label",
        "--kb", str(kb_path),
    ])
    assert code == 0


def test_run_json_output(csv_file):
    code, text = _run([
        "run", "--dataset", str(csv_file), "--target", "label",
        "--budget", "1.0", "--algorithms", "1", "--no-update", "--json",
    ])
    assert code == 0
    payload = json.loads(text)
    assert "best_algorithm" in payload
    assert payload["candidates"]


def test_run_builtin_dataset():
    code, text = _run([
        "run", "--dataset", "occupancy", "--budget", "1.0",
        "--algorithms", "1", "--no-update",
    ])
    assert code == 0
    assert "validation accuracy" in text


def test_run_missing_file_errors(tmp_path):
    code, _ = _run([
        "run", "--dataset", str(tmp_path / "nope.csv"), "--budget", "1.0",
    ])
    assert code == 2


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_submit_and_status_against_live_server(csv_file):
    from repro.api import SmartMLServer
    from repro.core import SmartML

    server = SmartMLServer(SmartML(), workers=1)
    server.serve_background()
    try:
        code, text = _run([
            "submit", "--dataset", str(csv_file), "--target", "label",
            "--port", str(server.port), "--budget", "2", "--algorithms", "2",
            "--config", '{"max_evals_per_algorithm": 2, "n_folds": 2, '
                        '"time_budget_s": null, "fallback_portfolio": ["knn", "rpart"]}',
            "--wait",
        ])
        assert code == 0
        assert "job 1 queued" in text
        assert "best:" in text

        code, text = _run(["status", "--port", str(server.port)])
        assert code == 0
        assert "done" in text

        code, text = _run(["status", "--port", str(server.port), "--job", "1"])
        assert code == 0
        detail = json.loads(text)
        assert detail["status"] == "done"
        assert detail["result"]["best_algorithm"] in ("knn", "rpart")
    finally:
        server.shutdown()


def test_status_with_no_jobs():
    from repro.api import SmartMLServer
    from repro.core import SmartML

    server = SmartMLServer(SmartML())
    server.serve_background()
    try:
        code, text = _run(["status", "--port", str(server.port)])
        assert code == 0
        assert "no experiment jobs" in text
    finally:
        server.shutdown()


def test_cli_import_leaves_scipy_stats_and_optimize_unloaded():
    # Cold start: scipy.stats alone used to be most of `import repro.cli`.
    # Both are imported lazily by the few functions that need them.
    code = (
        "import sys, repro.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
