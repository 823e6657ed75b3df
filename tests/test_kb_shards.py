"""Sharded knowledge-base store: routing, quarantine, fsck, health, and
the refusal/conversion of legacy JSON-lines logs."""

import json

import pytest

from repro.data import SyntheticSpec, make_dataset
from repro.exceptions import KnowledgeBaseError
from repro.kb import KnowledgeBase
from repro.kb.shards import (
    MANIFEST_NAME,
    ShardedRecordStore,
    dataset_content_digest,
    fsck_store,
    is_sharded_root,
    merge_kb_roots,
    shard_for_digest,
)
from repro.metafeatures import extract_metafeatures
from repro.testing.faults import corrupt_shard

N_SHARDS = 4


def _mf(seed=0, **kwargs):
    defaults = dict(name=f"d{seed}", n_instances=60, n_features=5, n_classes=2, seed=seed)
    defaults.update(kwargs)
    return extract_metafeatures(make_dataset(SyntheticSpec(**defaults)))


def _runs(i):
    return [
        {"algorithm": "knn", "config": {"k": 3}, "accuracy": 0.7 + i / 100,
         "n_folds": 3, "budget_s": 1.0},
        {"algorithm": "lda", "config": {}, "accuracy": 0.5, "n_folds": 3,
         "budget_s": 1.0},
    ]


def _populate(kb, n=6):
    for i in range(n):
        kb.add_result_batch(f"d{i}", _mf(i), _runs(i))


def _batches(n=6):
    return [(f"d{i}", _mf(i).to_dict(), _runs(i)) for i in range(n)]


@pytest.fixture
def root(tmp_path):
    return tmp_path / "kb-root"


# ------------------------------------------------------------------ basics
def test_sharded_round_trip(root):
    kb = KnowledgeBase(root, shards=N_SHARDS)
    _populate(kb)
    datasets = kb.store.scan("datasets")
    runs = kb.store.scan("runs")
    kb.close()

    reopened = KnowledgeBase(root)  # auto-detected, no shards flag
    assert isinstance(reopened.store, ShardedRecordStore)
    assert reopened.store.n_shards == N_SHARDS
    assert reopened.store.scan("datasets") == datasets
    assert reopened.store.scan("runs") == runs
    assert not reopened.degraded
    reopened.close()


def test_sharded_matches_monolith_nominations(tmp_path):
    """N shards nominate exactly like one shard (one failure domain)."""
    sharded = KnowledgeBase(tmp_path / "root", shards=N_SHARDS)
    mono = KnowledgeBase(tmp_path / "one")
    assert mono.store.n_shards == 1  # a fresh root defaults to one shard
    _populate(sharded)
    _populate(mono)
    query = _mf(99)
    got = [(n.algorithm, n.score, n.supporting_datasets) for n in sharded.nominate(query)]
    want = [(n.algorithm, n.score, n.supporting_datasets) for n in mono.nominate(query)]
    assert got == want
    sharded.close()
    mono.close()


def test_dataset_and_its_runs_share_a_shard(root):
    kb = KnowledgeBase(root, shards=N_SHARDS)
    _populate(kb)
    store = kb.store
    for dataset_id, data in store.scan("datasets"):
        expected = shard_for_digest(
            dataset_content_digest(data["name"], data["metafeatures"]), N_SHARDS
        )
        assert store._id_shard[dataset_id] == expected
        for run_id, run in store.scan("runs"):
            if run["dataset_id"] == dataset_id:
                assert store._id_shard[run_id] == expected
    kb.close()


def test_add_dataset_add_run_path_routes(root):
    kb = KnowledgeBase(root, shards=N_SHARDS)
    dataset_id = kb.add_dataset("d0", _mf(0))
    run_id = kb.add_run(dataset_id, "knn", {"k": 3}, accuracy=0.8)
    assert kb.store._id_shard[run_id] == kb.store._id_shard[dataset_id]
    assert kb.shard_for("d0", _mf(0)) == kb.store._id_shard[dataset_id]
    kb.close()


def test_update_delete_and_aux_tables(root):
    store = ShardedRecordStore(root, n_shards=N_SHARDS)
    record_id = store.append("notes", {"text": "hello"})
    assert store._id_shard[record_id] == 0  # aux tables live in shard 0
    store.update("notes", record_id, {"text": "bye"})
    assert store.get("notes", record_id) == {"text": "bye"}
    store.delete("notes", record_id)
    with pytest.raises(KnowledgeBaseError):
        store.get("notes", record_id)
    store.close()

    reopened = ShardedRecordStore(root)
    assert reopened.count("notes") == 0
    reopened.close()


def test_shard_count_fixed_at_creation(root):
    ShardedRecordStore(root, n_shards=3).close()
    with pytest.raises(KnowledgeBaseError, match="3 shards"):
        ShardedRecordStore(root, n_shards=5)


def test_run_for_unknown_dataset_raises(root):
    store = ShardedRecordStore(root, n_shards=N_SHARDS)
    with pytest.raises(KnowledgeBaseError, match="unknown dataset"):
        store.append("runs", {"dataset_id": 999, "algorithm": "knn"})
    store.close()


def test_is_sharded_root(root, tmp_path):
    assert not is_sharded_root(root)
    ShardedRecordStore(root, n_shards=2).close()
    assert is_sharded_root(root)
    assert not is_sharded_root(tmp_path / "kb.jsonl")


# -------------------------------------------------------------- quarantine
def test_corrupt_shard_is_quarantined_not_fatal(root):
    kb = KnowledgeBase(root, shards=N_SHARDS)
    _populate(kb, n=8)
    total = kb.n_datasets()
    victim = max(range(N_SHARDS), key=lambda i: kb.store._shards[i].log_bytes)
    lost = len(kb.store._shards[victim].tables.get("datasets", {}))
    kb.close()
    corrupt_shard(root, victim)

    degraded = KnowledgeBase(root)
    assert degraded.degraded
    health = degraded.health()
    assert health["degraded"] and health["n_shards"] == N_SHARDS
    assert [q["shard"] for q in health["quarantined_shards"]] == [victim]
    # Survivors still serve reads and nominations.
    assert degraded.n_datasets() == total - lost
    assert degraded.nominate(_mf(99)) != []
    degraded.close()


def test_append_to_quarantined_shard_raises(root):
    kb = KnowledgeBase(root, shards=1)  # single shard: every append routes to it
    _populate(kb, n=2)
    kb.close()
    corrupt_shard(root, 0)
    degraded = KnowledgeBase(root)
    with pytest.raises(KnowledgeBaseError, match="quarantined"):
        degraded.add_result_batch("d9", _mf(9), _runs(9))
    degraded.close()


def test_quarantine_preserves_id_sequence(root):
    """Ids inside a quarantined shard are never reassigned to new records."""
    kb = KnowledgeBase(root, shards=1)
    _populate(kb, n=3)
    max_id = kb.store.peek_next_id() - 1
    kb.close()
    corrupt_shard(root, 0)
    degraded = KnowledgeBase(root)
    assert degraded.store.peek_next_id() == max_id + 1
    degraded.close()


def test_missing_shard_file_quarantined(root):
    kb = KnowledgeBase(root, shards=N_SHARDS)
    _populate(kb)
    victim = max(range(N_SHARDS), key=lambda i: kb.store._shards[i].log_bytes)
    kb.close()
    (root / f"shard-{victim:03d}.log").unlink()
    degraded = KnowledgeBase(root)
    assert degraded.degraded
    report = degraded.health()["quarantined_shards"]
    assert report[0]["shard"] == victim and "missing" in report[0]["reason"]
    degraded.close()


def test_truncation_below_manifest_quarantined(root):
    """Frame-aligned truncation is invisible to CRCs; the manifest catches it."""
    kb = KnowledgeBase(root, shards=1)
    _populate(kb, n=4)
    kb.close()
    log = root / "shard-000.log"
    manifest = json.loads((root / MANIFEST_NAME).read_text())
    recorded = manifest["shards"][0]["bytes"]
    log.write_bytes(log.read_bytes()[: recorded // 2])
    snap = log.with_name(log.name + ".snapshot")
    if snap.exists():
        snap.unlink()
    degraded = KnowledgeBase(root)
    assert degraded.degraded
    assert "shorter than manifest" in degraded.health()["quarantined_shards"][0]["reason"]
    degraded.close()


def test_torn_tail_repaired_not_quarantined(root):
    kb = KnowledgeBase(root, shards=1, snapshot_every=None)
    _populate(kb, n=2)
    kb.close()
    log = root / "shard-000.log"
    intact = log.read_bytes()
    log.write_bytes(intact + b"\x07" * 5)  # shorter than a frame header
    reopened = KnowledgeBase(root)
    assert not reopened.degraded
    assert reopened.store.corrupt_frames_dropped == 1
    assert reopened.n_datasets() == 2
    reopened.close()
    assert log.read_bytes() == intact  # tail truncated away


def test_shard_snapshot_fallback_counted(root):
    kb = KnowledgeBase(root, shards=1)
    _populate(kb, n=2)
    kb.close()
    snap = root / "shard-000.log.snapshot"
    raw = bytearray(snap.read_bytes())
    raw[-1] ^= 0xFF
    snap.write_bytes(bytes(raw))
    reopened = KnowledgeBase(root)
    assert reopened.store.snapshot_fallbacks == 1
    assert not reopened.degraded
    assert reopened.n_datasets() == 2  # full shard-log replay still works
    reopened.close()


# ------------------------------------------------------------------- fsck
def test_fsck_healthy(root):
    kb = KnowledgeBase(root, shards=N_SHARDS)
    _populate(kb)
    kb.close()
    report = fsck_store(root)
    assert report["healthy"] and report["n_shards"] == N_SHARDS
    assert all(s["status"] == "ok" for s in report["shards"])


def test_fsck_is_read_only_without_repair(root):
    kb = KnowledgeBase(root, shards=N_SHARDS)
    _populate(kb)
    victim = max(range(N_SHARDS), key=lambda i: kb.store._shards[i].log_bytes)
    kb.close()
    corrupt_shard(root, victim)
    before = {p.name: p.read_bytes() for p in root.iterdir()}
    report = fsck_store(root)
    assert not report["healthy"]
    assert {p.name: p.read_bytes() for p in root.iterdir()} == before


def test_fsck_repair_round_trip(root):
    kb = KnowledgeBase(root, shards=N_SHARDS)
    _populate(kb, n=8)
    total = kb.n_datasets()
    victim = max(range(N_SHARDS), key=lambda i: kb.store._shards[i].log_bytes)
    lost_datasets = len(kb.store._shards[victim].tables.get("datasets", {}))
    kb.close()
    corrupt_shard(root, victim)

    report = fsck_store(root, repair=True)
    assert report["repaired"]
    damaged = [s for s in report["shards"] if s["status"] != "ok"]
    assert [s["shard"] for s in damaged] == [victim]
    assert damaged[0]["bytes_dropped"] > 0

    healed = KnowledgeBase(root)
    assert not healed.degraded
    # The corrupt byte hit the first frame: everything after it was dropped.
    assert healed.n_datasets() == total - lost_datasets
    healed.nominate(_mf(99))
    # New writes may route to the repaired shard again.
    healed.add_result_batch("fresh", _mf(50), _runs(0))
    healed.close()
    assert fsck_store(root)["healthy"]


def test_fsck_monolith(tmp_path, write_legacy_log):
    """fsck refuses a legacy log and names the command that converts it."""
    path = write_legacy_log(tmp_path / "kb.jsonl", _batches(2))
    before = path.read_bytes()
    with pytest.raises(KnowledgeBaseError, match=r"repro kb merge <new-root> .*kb\.jsonl"):
        fsck_store(path)
    with pytest.raises(KnowledgeBaseError, match="repro kb merge"):
        fsck_store(path, repair=True)
    assert path.read_bytes() == before
    with pytest.raises(KnowledgeBaseError, match="no knowledge base"):
        fsck_store(tmp_path / "missing")


def test_legacy_log_refused_on_open(tmp_path, write_legacy_log):
    path = write_legacy_log(tmp_path / "kb.jsonl", _batches(2))
    before = path.read_bytes()
    for open_store in (KnowledgeBase, ShardedRecordStore):
        with pytest.raises(KnowledgeBaseError, match="repro kb merge <new-root>"):
            open_store(path)
    # Nothing forked off beside it, and the log itself is untouched.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kb.jsonl"]
    assert path.read_bytes() == before


def test_legacy_log_mid_file_corruption_refused(tmp_path, write_legacy_log):
    path = write_legacy_log(tmp_path / "kb.jsonl", _batches(3))
    lines = path.read_bytes().split(b"\n")
    lines[1] = b"garbage{{{"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(KnowledgeBaseError, match="before the final line"):
        merge_kb_roots(tmp_path / "converted", [path])
    assert not (tmp_path / "converted").exists()


# -------------------------------------------------------------- satellites
def test_snapshot_fallback_counted_and_logged(root, caplog):
    kb = KnowledgeBase(root)
    _populate(kb, n=2)
    kb.close()
    snap = root / "shard-000.log.snapshot"
    raw = bytearray(snap.read_bytes())
    raw[-1] ^= 0xFF
    snap.write_bytes(bytes(raw))
    with caplog.at_level("WARNING", logger="repro.kb.shards"):
        reopened = KnowledgeBase(root)
    assert reopened.store.snapshot_fallbacks == 1
    assert any("replaying the shard log in full" in r.message for r in caplog.records)
    assert reopened.health() == {
        "n_shards": 1,
        "degraded": False,
        "quarantined_shards": [],
        "snapshot_fallbacks": 1,
        "corrupt_frames_dropped": 0,
    }
    reopened.close()


def test_monolith_torn_tail_counted(tmp_path, write_legacy_log):
    """Converting a legacy log drops a torn final line, as its open did,
    and reports the drop."""
    path = write_legacy_log(tmp_path / "kb.jsonl", _batches(2))
    torn = b'{"data": {"name": "d9"'
    path.write_bytes(path.read_bytes() + torn)
    report = merge_kb_roots(tmp_path / "converted", [path])
    assert report["sources"][0]["torn_bytes_dropped"] == len(torn)
    assert report["datasets"] == 2 and report["runs"] == 4
    converted = KnowledgeBase(tmp_path / "converted")
    assert converted.n_datasets() == 2 and not converted.degraded
    converted.close()
    assert fsck_store(tmp_path / "converted")["healthy"]


def test_readonly_close_skips_snapshot_rewrite(root):
    kb = KnowledgeBase(root)
    _populate(kb, n=3)
    kb.close()
    snap = root / "shard-000.log.snapshot"
    before = snap.read_bytes()
    snap_mtime = snap.stat().st_mtime_ns

    reader = KnowledgeBase(root)
    reader.nominate(_mf(99))
    reader.close()
    assert snap.stat().st_mtime_ns == snap_mtime
    assert snap.read_bytes() == before

    writer = KnowledgeBase(root)
    writer.add_result_batch("new", _mf(7), _runs(7))
    writer.close()
    assert snap.read_bytes() != before  # a writing session still checkpoints


def test_sharded_readonly_close_skips_snapshot_rewrite(root):
    kb = KnowledgeBase(root, shards=2)
    _populate(kb, n=3)
    kb.close()
    mtimes = {p.name: p.stat().st_mtime_ns for p in root.iterdir()}
    reader = KnowledgeBase(root)
    reader.nominate(_mf(99))
    reader.close()
    assert {p.name: p.stat().st_mtime_ns for p in root.iterdir()} == mtimes
