"""Unit + property tests for the KB record store.

Every API test runs against both store modes: in memory
(``ShardedRecordStore()``) and a fresh one-shard root on disk.  Durability
tests (reopen, torn tail, compaction, snapshots) are on disk only.
"""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import KnowledgeBaseError
from repro.kb import ShardedRecordStore
from repro.kb.shards import SHARD_FORMAT, SHARD_MAGIC
from repro.kb.snapshots import frame_blob, scan_frames


def _stores(tmp_path):
    """An in-memory store and a fresh one-shard store on disk."""
    return [ShardedRecordStore(), ShardedRecordStore(tmp_path / "kb")]


def _log(root):
    return root / "shard-000.log"


def _torn_frame(record_id):
    """The prefix of a frame a crash mid-append leaves behind."""
    entries = [{"op": "put", "table": "t", "id": record_id, "data": {"v": 0}}]
    frame = frame_blob(json.dumps(entries).encode("utf-8"), SHARD_MAGIC, SHARD_FORMAT)
    return frame[: len(frame) - 5]


def test_in_memory_roundtrip(tmp_path):
    for store in _stores(tmp_path):
        with store:
            record_id = store.append("t", {"a": 1})
            assert store.get("t", record_id) == {"a": 1}
            assert store.count("t") == 1


def test_ids_monotonically_increase(tmp_path):
    for store in _stores(tmp_path):
        with store:
            ids = [store.append("t", {"i": i}) for i in range(5)]
            assert ids == sorted(ids)
            assert len(set(ids)) == 5


def test_scan_ordered(tmp_path):
    for store in _stores(tmp_path):
        with store:
            for i in range(4):
                store.append("t", {"i": i})
            scanned = store.scan("t")
            assert [data["i"] for _, data in scanned] == [0, 1, 2, 3]


def test_multiple_tables_isolated(tmp_path):
    for store in _stores(tmp_path):
        with store:
            store.append("a", {"x": 1})
            store.append("b", {"y": 2})
            assert store.count("a") == 1
            assert store.count("b") == 1
            assert store.tables() == ["a", "b"]


def test_update_overwrites(tmp_path):
    for store in _stores(tmp_path):
        with store:
            rid = store.append("t", {"v": 1})
            store.update("t", rid, {"v": 2})
            assert store.get("t", rid) == {"v": 2}


def test_delete_tombstones(tmp_path):
    for store in _stores(tmp_path):
        with store:
            rid = store.append("t", {"v": 1})
            store.delete("t", rid)
            assert store.count("t") == 0
            with pytest.raises(KnowledgeBaseError):
                store.get("t", rid)


def test_update_missing_raises(tmp_path):
    for store in _stores(tmp_path):
        with store, pytest.raises(KnowledgeBaseError):
            store.update("t", 99, {})


def test_delete_missing_raises(tmp_path):
    for store in _stores(tmp_path):
        with store, pytest.raises(KnowledgeBaseError):
            store.delete("t", 99)


def test_persistence_across_reopen(tmp_path):
    path = tmp_path / "kb"
    with ShardedRecordStore(path) as store:
        rid = store.append("t", {"v": 42})
        store.append("t", {"v": 43})
        store.delete("t", rid)
    with ShardedRecordStore(path) as reopened:
        assert reopened.count("t") == 1
        records = reopened.scan("t")
        assert records[0][1] == {"v": 43}


def test_ids_continue_after_reopen(tmp_path):
    path = tmp_path / "kb"
    with ShardedRecordStore(path) as store:
        first = store.append("t", {})
    with ShardedRecordStore(path) as reopened:
        second = reopened.append("t", {})
    assert second > first


def test_torn_final_write_repaired(tmp_path):
    path = tmp_path / "kb"
    with ShardedRecordStore(path, snapshot_every=None) as store:
        store.append("t", {"v": 1})
        store.append("t", {"v": 2})
    intact = _log(path).read_bytes()
    with open(_log(path), "ab") as fh:
        fh.write(_torn_frame(3))
    with ShardedRecordStore(path, snapshot_every=None) as recovered:
        assert recovered.count("t") == 2
        assert recovered.corrupt_frames_dropped == 1
        assert not recovered.degraded
    # Repair must have rewritten a clean file.
    assert _log(path).read_bytes() == intact


def test_mid_file_corruption_raises(tmp_path):
    path = tmp_path / "kb"
    with ShardedRecordStore(path, snapshot_every=None) as store:
        store.append("t", {"v": 1})
        store.append("t", {"v": 2})
    raw = bytearray(_log(path).read_bytes())
    raw[len(raw) // 2 - 8] ^= 0xFF  # inside the first frame, not a torn tail
    _log(path).write_bytes(bytes(raw))
    with ShardedRecordStore(path) as damaged:
        # Non-crash damage is contained, never silently truncated: the
        # shard is quarantined and writes to it raise until repaired.
        assert damaged.degraded
        assert damaged.count("t") == 0
        with pytest.raises(KnowledgeBaseError, match="quarantined"):
            damaged.append("t", {"v": 3})


def test_malformed_entry_raises(tmp_path):
    path = tmp_path / "kb"
    ShardedRecordStore(path).close()
    entries = [{"op": "put", "table": 5, "id": "x"}, {"op": "noop"}]
    with open(_log(path), "ab") as fh:
        fh.write(frame_blob(json.dumps(entries).encode("utf-8"), SHARD_MAGIC, SHARD_FORMAT))
    with ShardedRecordStore(path) as damaged:
        assert damaged.degraded
        assert "undecodable" in damaged.health()["quarantined_shards"][0]["reason"]
        with pytest.raises(KnowledgeBaseError, match="quarantined"):
            damaged.append("t", {})


def test_compaction_shrinks_log(tmp_path):
    path = tmp_path / "kb"
    with ShardedRecordStore(path) as store:
        rid = store.append("t", {"v": 0})
        for i in range(20):
            store.update("t", rid, {"v": i})
        size_before = _log(path).stat().st_size
        store.compact()
        size_after = _log(path).stat().st_size
        assert size_after < size_before
        assert store.get("t", rid) == {"v": 19}
    with ShardedRecordStore(path) as reopened:
        assert reopened.get("t", rid) == {"v": 19}


def test_store_appendable_after_compaction(tmp_path):
    path = tmp_path / "kb"
    with ShardedRecordStore(path) as store:
        store.append("t", {"v": 1})
        store.compact()
        store.append("t", {"v": 2})
    with ShardedRecordStore(path) as reopened:
        assert reopened.count("t") == 2


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["a", "b"]), st.integers(min_value=0, max_value=99)),
        min_size=1,
        max_size=30,
    )
)
def test_property_reopen_equals_in_memory(tmp_path_factory, ops):
    path = tmp_path_factory.mktemp("kb") / "root"
    memory = ShardedRecordStore()
    with ShardedRecordStore(path) as store:
        for table, value in ops:
            store.append(table, {"v": value})
            memory.append(table, {"v": value})
        snapshot = {t: store.scan(t) for t in store.tables()}
    assert {t: memory.scan(t) for t in memory.tables()} == snapshot
    with ShardedRecordStore(path) as reopened:
        assert {t: reopened.scan(t) for t in reopened.tables()} == snapshot
        assert reopened.peek_next_id() == memory.peek_next_id()


def test_append_many_consecutive_ids_single_batch(tmp_path):
    path = tmp_path / "kb"
    store = ShardedRecordStore(path)
    solo = store.append("t", {"solo": True})
    ids = store.append_many([("t", {"i": 0}), ("u", {"i": 1}), ("t", {"i": 2})])
    assert ids == [solo + 1, solo + 2, solo + 3]
    assert store.get("u", ids[1]) == {"i": 1}
    # The batch lands as one frame after the solo append's, in append order.
    payloads, _, tail = scan_frames(_log(path).read_bytes(), SHARD_MAGIC, SHARD_FORMAT)
    assert tail == "clean"
    assert [[e["id"] for e in json.loads(p)] for p in payloads] == [[solo], ids]
    store.close()
    # And survives a reopen like any other writes.
    reopened = ShardedRecordStore(path)
    assert reopened.count("t") == 3
    assert reopened.count("u") == 1
    reopened.close()


def test_append_many_matches_sequential_appends(tmp_path):
    rows = [("t", {"i": i}) for i in range(4)]
    batch_path = tmp_path / "batch"
    seq_path = tmp_path / "seq"
    batch = ShardedRecordStore(batch_path)
    batch_ids = batch.append_many(rows)
    batch.close()
    seq = ShardedRecordStore(seq_path)
    seq_ids = [seq.append(table, data) for table, data in rows]
    seq.close()
    assert batch_ids == seq_ids
    # One frame vs four, but the durable records are identical.
    with ShardedRecordStore(batch_path) as a, ShardedRecordStore(seq_path) as b:
        assert a.scan("t") == b.scan("t")
        assert a.peek_next_id() == b.peek_next_id()


def test_locked_peek_next_id(tmp_path):
    for store in _stores(tmp_path):
        with store:
            with store.locked():
                upcoming = store.peek_next_id()
                ids = store.append_many([("t", {}), ("t", {})])
            assert ids == [upcoming, upcoming + 1]


# ------------------------------------------------------------- snapshots


def _replay_count(monkeypatch):
    """Count log entries replayed at open (those no snapshot covered)."""
    counter = {"n": 0}
    real_apply = ShardedRecordStore._apply

    def counting_apply(self, shard, entry):
        counter["n"] += 1
        return real_apply(self, shard, entry)

    monkeypatch.setattr(ShardedRecordStore, "_apply", counting_apply)
    return counter


def _snapshot_path(root):
    return root / "shard-000.log.snapshot"


def test_snapshot_then_tail_replay(tmp_path, monkeypatch):
    path = tmp_path / "kb"
    store = ShardedRecordStore(path, snapshot_every=None)
    for i in range(5):
        store.append("t", {"i": i})
    store.snapshot()
    for i in range(5, 8):
        store.append("t", {"i": i})
    store.close()
    assert _snapshot_path(path).exists()

    counter = _replay_count(monkeypatch)
    with ShardedRecordStore(path, snapshot_every=None) as reopened:
        assert [d["i"] for _, d in reopened.scan("t")] == list(range(8))
        next_id = reopened.peek_next_id()
    # Only the 3 entries written after the checkpoint were replayed.
    assert counter["n"] == 3

    # And the restored state is exactly what a full replay produces.
    _snapshot_path(path).unlink()
    counter["n"] = 0
    with ShardedRecordStore(path, snapshot_every=None) as replayed:
        assert [d["i"] for _, d in replayed.scan("t")] == list(range(8))
        assert replayed.peek_next_id() == next_id
    assert counter["n"] == 8


def test_close_checkpoints_for_next_startup(tmp_path, monkeypatch):
    path = tmp_path / "kb"
    with ShardedRecordStore(path) as store:
        for i in range(4):
            store.append("t", {"i": i})
    counter = _replay_count(monkeypatch)
    with ShardedRecordStore(path) as reopened:
        assert reopened.count("t") == 4
    assert counter["n"] == 0  # close() wrote a snapshot covering everything


def test_corrupt_snapshot_falls_back_to_full_replay(tmp_path):
    path = tmp_path / "kb"
    with ShardedRecordStore(path) as store:
        store.append("t", {"v": 1})
    _snapshot_path(path).write_bytes(b"not a snapshot at all")
    with ShardedRecordStore(path) as recovered:
        assert recovered.get("t", 1) == {"v": 1}
        assert recovered.snapshot_fallbacks == 1


def test_stale_snapshot_ignored_after_log_rewrite(tmp_path):
    path = tmp_path / "kb"
    with ShardedRecordStore(path) as store:
        store.append("t", {"v": 1})
        store.append("t", {"v": 2})
    # Rewrite the log (and its manifest) out from under the sidecar, e.g.
    # a restore of another instance's files: same length, other bytes.
    other = tmp_path / "other"
    with ShardedRecordStore(other, snapshot_every=None) as store:
        store.append("t", {"v": 1})
        store.append("t", {"v": 3})
    for name in ("shard-000.log", "MANIFEST.json"):
        (path / name).write_bytes((other / name).read_bytes())
    with ShardedRecordStore(path) as reopened:
        assert reopened.snapshot_fallbacks == 1
        assert reopened.count("t") == 2
        assert reopened.get("t", 2) == {"v": 3}


def test_torn_tail_after_snapshot_repaired(tmp_path):
    path = tmp_path / "kb"
    with ShardedRecordStore(path) as store:
        store.append("t", {"v": 1})
    intact = _log(path).read_bytes()
    with open(_log(path), "ab") as fh:
        fh.write(_torn_frame(2))
    with ShardedRecordStore(path) as recovered:
        assert recovered.count("t") == 1
        assert recovered.snapshot_fallbacks == 0
    assert _log(path).read_bytes() == intact


def test_automatic_snapshot_interval(tmp_path):
    path = tmp_path / "kb"
    store = ShardedRecordStore(path, snapshot_every=5)
    for i in range(4):
        store.append("t", {"i": i})
    assert not _snapshot_path(path).exists()
    store.append("t", {"i": 4})
    assert _snapshot_path(path).exists()
    store.close()


def test_compact_refreshes_snapshot(tmp_path, monkeypatch):
    path = tmp_path / "kb"
    store = ShardedRecordStore(path, snapshot_every=2)
    rid = store.append("t", {"v": 0})
    for i in range(6):
        store.update("t", rid, {"v": i})
    store.compact()
    store.close()
    counter = _replay_count(monkeypatch)
    with ShardedRecordStore(path) as reopened:
        assert reopened.get("t", rid) == {"v": 5}
    assert counter["n"] == 0  # post-compaction snapshot covers the whole log


def test_in_memory_snapshot_is_noop(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    store = ShardedRecordStore()
    assert store.root is None and store.n_shards == 1
    store.snapshot()  # must not raise
    store.append("t", {})
    store.compact()
    assert store.count("t") == 1
    store.close()
    assert list(tmp_path.iterdir()) == []  # no files, anywhere


def test_concurrent_appends_thread_safe(tmp_path):
    for store in _stores(tmp_path):
        errors = []

        def write(tag):
            try:
                for i in range(50):
                    store.append("t", {"tag": tag, "i": i})
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert store.count("t") == 200
        ids = [record_id for record_id, _ in store.scan("t")]
        assert len(set(ids)) == 200  # no id collisions under concurrency
        store.close()
