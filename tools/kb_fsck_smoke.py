"""Bit-rot smoke test for the sharded knowledge base, operator's-eye view.

The in-process quarantine/fsck machinery is covered by
``tests/test_kb_shards.py``; this script checks the same promise the way
an operator would experience it, across real process boundaries:

1. build a sharded KB in a scratch directory and populate it;
2. flip a CRC-protected byte in one shard's log (and its snapshot, so
   the damage cannot hide behind a checkpoint);
3. ``repro kb fsck`` must exit non-zero and name the corrupt shard;
4. a real server started on the damaged root must come up **degraded**,
   not dead — ``/healthz`` reports it, and ``/nominate`` still serves
   from the surviving shards with ``kb_degraded: true``;
5. ``repro kb fsck --repair`` must exit zero, after which a re-check
   reports healthy and a reopened KB serves non-degraded;
6. legacy conversion: a three-record JSON-lines log (the store's former
   single-file format) is refused by ``repro kb fsck`` with the command
   that converts it; ``repro kb merge <new-root> <log>`` converts it, the
   new root fsck's healthy, and a server on it reports three datasets.

Run:  PYTHONPATH=src python tools/kb_fsck_smoke.py [SCRATCH_DIR]
(from the repo root; exits non-zero on any failed expectation).  With a
``SCRATCH_DIR`` argument the KB root and fsck reports land there instead
of a temp dir, so CI can upload them as artifacts when the smoke fails.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

N_SHARDS = 3
N_DATASETS = 9


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _run_fsck(root: Path, *extra: str) -> tuple[int, dict]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "kb", "fsck", str(root), "--json", *extra],
        env=env, capture_output=True, text=True,
    )
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        report = {"unparseable_stdout": proc.stdout, "stderr": proc.stderr}
    return proc.returncode, report


def _stop(server: subprocess.Popen) -> None:
    if server.poll() is None:
        server.terminate()
        try:
            server.wait(timeout=15)
        except subprocess.TimeoutExpired:
            server.kill()


def _spawn_server(port: int, root: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", str(port), "--workers", "1", "--kb", str(root),
        ],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT,
    )


def main() -> int:
    sys.path.insert(0, str(SRC))
    from repro.api import SmartMLClient
    from repro.data import SyntheticSpec, make_dataset
    from repro.kb import KnowledgeBase
    from repro.metafeatures import extract_metafeatures
    from repro.testing.faults import corrupt_shard

    if len(sys.argv) > 1:
        workdir = Path(sys.argv[1])
        workdir.mkdir(parents=True, exist_ok=True)
    else:
        workdir = Path(tempfile.mkdtemp(prefix="smartml-kb-fsck-"))
    root = workdir / "kb-root"
    print(f"scratch dir: {workdir} (kb root: {root})")

    # 1. A populated sharded KB; remember which shard holds dataset d0.
    metafeatures = [
        extract_metafeatures(make_dataset(SyntheticSpec(
            name=f"d{i}", n_instances=50, n_features=4, n_classes=2, seed=i)))
        for i in range(N_DATASETS)
    ]
    kb = KnowledgeBase(root, shards=N_SHARDS)
    for i, mf in enumerate(metafeatures):
        kb.add_result_batch(f"d{i}", mf, [
            {"algorithm": "knn", "config": {"k": 3}, "accuracy": 0.7 + i / 100,
             "n_folds": 3, "budget_s": 1.0},
            {"algorithm": "lda", "config": {}, "accuracy": 0.5, "n_folds": 3,
             "budget_s": 1.0},
        ])
    victim = kb.shard_for("d0", metafeatures[0])
    kb.close()

    # 2. Deterministic bit rot in the victim shard's log + snapshot.
    corrupt_shard(root, victim)
    print(f"corrupted shard {victim:03d}")

    # 3. fsck must see it and exit non-zero.
    code, report = _run_fsck(root)
    (workdir / "fsck-before.json").write_text(json.dumps(report, indent=2) + "\n")
    if code == 0:
        print(f"FAIL: fsck exited 0 on a corrupt root: {report}")
        return 1
    bad = [s for s in report.get("shards", []) if s["status"] not in ("ok", "torn")]
    if not any(s["shard"] == victim for s in bad):
        print(f"FAIL: fsck did not name shard {victim} as damaged: {report}")
        return 1
    print(f"fsck flagged shard {victim:03d} ({bad[0]['status']}); starting server")

    # 4. The server must serve the survivors, loudly degraded.
    port = _free_port()
    client = SmartMLClient(port=port, connect_retry_s=30.0)
    server = _spawn_server(port, root)
    try:
        health = client.health()
        if health.get("status") != "degraded" or not health.get("kb_degraded"):
            print(f"FAIL: /healthz does not report degradation: {health}")
            return 1
        quarantined = [s["shard"] for s in health["kb"].get("quarantined_shards", [])]
        if victim not in quarantined:
            print(f"FAIL: /healthz does not list shard {victim}: {health}")
            return 1
        payload = client.nominate(metafeatures[1].to_dict(), n_algorithms=2)
        if not payload.get("nominations"):
            print(f"FAIL: degraded KB served no nominations: {payload}")
            return 1
        if not payload.get("kb_degraded"):
            print(f"FAIL: nominate did not flag degradation: {payload}")
            return 1
        print("degraded server nominated from survivors; repairing")
    finally:
        _stop(server)

    # 5. Repair, then verify the root is healthy again.
    code, report = _run_fsck(root, "--repair")
    (workdir / "fsck-repair.json").write_text(json.dumps(report, indent=2) + "\n")
    if code != 0 or not report.get("repaired"):
        print(f"FAIL: --repair did not succeed: {report}")
        return 1
    code, report = _run_fsck(root)
    if code != 0 or not report.get("healthy"):
        print(f"FAIL: root still unhealthy after repair: {report}")
        return 1

    repaired = KnowledgeBase(root)
    try:
        if repaired.degraded:
            print("FAIL: repaired KB still degraded on reopen")
            return 1
        survivors = repaired.n_datasets()
        if not repaired.nominate(metafeatures[1]):
            print("FAIL: repaired KB served no nominations")
            return 1
    finally:
        repaired.close()
    print(
        f"OK: shard {victim:03d} quarantined then repaired; "
        f"{survivors}/{N_DATASETS} datasets survived the truncation"
    )
    return _legacy_conversion(workdir, metafeatures[:3])


def _legacy_conversion(workdir: Path, metafeatures: list) -> int:
    """Step 6: convert a legacy JSON-lines log and serve the new root."""
    from repro.api import SmartMLClient

    log = workdir / "legacy.jsonl"
    log.write_text(
        "".join(
            json.dumps(
                {
                    "op": "put",
                    "table": "datasets",
                    "id": i + 1,
                    "data": {"name": f"legacy{i}", "metafeatures": mf.to_dict()},
                },
                sort_keys=True,
            )
            + "\n"
            for i, mf in enumerate(metafeatures)
        ),
        encoding="utf-8",
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    refused = subprocess.run(
        [sys.executable, "-m", "repro.cli", "kb", "fsck", str(log)],
        env=env, capture_output=True, text=True,
    )
    if refused.returncode == 0 or "repro kb merge" not in refused.stderr:
        print(f"FAIL: fsck did not refuse the legacy log: {refused.stderr!r}")
        return 1
    root = workdir / "converted-root"
    merged = subprocess.run(
        [sys.executable, "-m", "repro.cli", "kb", "merge", str(root), str(log), "--json"],
        env=env, capture_output=True, text=True,
    )
    (workdir / "legacy-merge.json").write_text(merged.stdout)
    if merged.returncode != 0:
        print(f"FAIL: kb merge could not convert the legacy log: {merged.stderr}")
        return 1
    code, report = _run_fsck(root)
    if code != 0 or not report.get("healthy"):
        print(f"FAIL: converted root is not healthy: {report}")
        return 1
    port = _free_port()
    client = SmartMLClient(port=port, connect_retry_s=30.0)
    server = _spawn_server(port, root)
    try:
        datasets = client.kb_stats().get("datasets")
    finally:
        _stop(server)
    if datasets != len(metafeatures):
        print(f"FAIL: converted KB serves {datasets} datasets, not {len(metafeatures)}")
        return 1
    print(f"OK: legacy log converted; served KB holds {datasets} datasets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
