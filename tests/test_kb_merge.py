"""Deterministic cross-instance KB merge: order-independence, dedup, and
conversion of legacy JSON-lines logs."""

import hashlib
import itertools
from pathlib import Path

import pytest

from repro.data import SyntheticSpec, make_dataset
from repro.exceptions import KnowledgeBaseError
from repro.kb import KnowledgeBase
from repro.kb.shards import merge_kb_roots
from repro.metafeatures import extract_metafeatures
from repro.testing.faults import corrupt_shard

_MF = [
    extract_metafeatures(
        make_dataset(
            SyntheticSpec(name=f"d{i}", n_instances=50, n_features=4, n_classes=2, seed=i)
        )
    )
    for i in range(6)
]


def _runs(i):
    return [
        {"algorithm": "knn", "config": {"k": 3}, "accuracy": 0.7 + i / 100,
         "n_folds": 3, "budget_s": 1.0},
        {"algorithm": "lda", "config": {}, "accuracy": 0.5, "n_folds": 3,
         "budget_s": 1.0},
    ]


def _instance(root, indices, shards=3):
    kb = KnowledgeBase(root, shards=shards)
    for i in indices:
        kb.add_result_batch(f"d{i}", _MF[i], _runs(i))
    kb.close()
    return root


def _root_digest(root) -> str:
    digest = hashlib.md5()
    for path in sorted(Path(root).iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture
def instances(tmp_path):
    """Three instance roots with overlapping run histories (0-5 overall)."""
    return [
        _instance(tmp_path / "a", [0, 1, 2]),
        _instance(tmp_path / "b", [2, 3, 4]),
        _instance(tmp_path / "c", [4, 5]),
    ]


def test_merge_order_independent_and_byte_identical(tmp_path, instances):
    digests = set()
    for k, perm in enumerate(itertools.permutations(instances)):
        dest = tmp_path / f"merged-{k}"
        report = merge_kb_roots(dest, list(perm), n_shards=3)
        assert report["datasets"] == 6 and report["runs"] == 12  # deduped
        digests.add(_root_digest(dest))
    assert len(digests) == 1

    merged = KnowledgeBase(tmp_path / "merged-0")
    assert merged.n_datasets() == 6 and merged.n_runs() == 12
    merged.close()


def test_merge_idempotent(tmp_path, instances):
    dest = tmp_path / "pooled"
    merge_kb_roots(dest, instances, n_shards=3)
    before = _root_digest(dest)
    report = merge_kb_roots(dest, instances, n_shards=3)
    assert report["datasets"] == 6 and report["runs"] == 12
    assert _root_digest(dest) == before


def test_merged_nominations_match_single_observer(tmp_path, instances):
    dest = tmp_path / "pooled"
    merge_kb_roots(dest, instances, n_shards=3)
    merged = KnowledgeBase(dest)
    single = KnowledgeBase(tmp_path / "single", shards=3)
    for i in range(6):
        single.add_result_batch(f"d{i}", _MF[i], _runs(i))

    def names(kb):
        return {record_id: data["name"] for record_id, data in kb.store.scan("datasets")}

    query = _MF[0]
    got, want = merged.nominate(query), single.nominate(query)
    assert [n.algorithm for n in got] == [n.algorithm for n in want]
    for g, w in zip(got, want):
        # Scores can differ in the last ulp: the z-normaliser's reductions
        # see the meta-feature rows in id order, and canonical merge ids
        # differ from insertion ids.  Supporting sets must name the same
        # datasets, in the same rank order.
        assert g.score == pytest.approx(w.score, rel=1e-9)
        assert [names(merged)[i] for i in g.supporting_datasets] == [
            names(single)[i] for i in w.supporting_datasets
        ]
        assert g.warm_configs == w.warm_configs
    merged.close()
    single.close()


def test_kb_merge_method_in_place(tmp_path, instances):
    a, b, c = instances
    kb = KnowledgeBase(a)
    assert kb.n_datasets() == 3
    report = kb.merge([b, c])
    assert report["datasets"] == 6 and report["runs"] == 12
    # Reopened in place: reads and writes work against the merged store.
    assert kb.n_datasets() == 6 and kb.n_runs() == 12
    assert kb.nominate(_MF[0]) != []
    kb.add_result_batch("extra", _MF[5], _runs(5))
    kb.close()

    reopened = KnowledgeBase(a)
    assert reopened.n_datasets() == 7
    reopened.close()


def test_merge_refuses_degraded_dest(tmp_path, instances):
    a, b, _ = instances
    corrupt_shard(a, 0)
    kb = KnowledgeBase(a)
    assert kb.degraded
    with pytest.raises(KnowledgeBaseError, match="fsck --repair"):
        kb.merge([b])
    kb.close()


def test_merge_refuses_corrupt_source(tmp_path, instances):
    a, b, _ = instances
    corrupt_shard(b, 0)
    with pytest.raises(KnowledgeBaseError, match="fsck --repair"):
        merge_kb_roots(tmp_path / "pooled", [a, b], n_shards=3)


def test_merge_monolith_sources_into_sharded_dest(tmp_path, write_legacy_log):
    mono_a = write_legacy_log(
        tmp_path / "a.jsonl", [(f"d{i}", _MF[i].to_dict(), _runs(i)) for i in (0, 1)]
    )
    sharded_b = _instance(tmp_path / "b", [1, 2])

    dest = tmp_path / "pooled"
    report = merge_kb_roots(dest, [mono_a, sharded_b], n_shards=2)
    assert report["datasets"] == 3 and report["runs"] == 6
    merged = KnowledgeBase(dest)
    assert merged.n_datasets() == 3 and merged.store.n_shards == 2
    merged.close()


def test_merge_converts_legacy_log_with_identical_nominations(tmp_path, write_legacy_log):
    """A clean legacy log converts to the same shard log and manifest its
    content would merge into from a live store, and nominates identically.

    (The snapshot sidecar is a marshal cache whose bytes also reflect
    which strings the reader happened to share, so it is not compared.)
    """
    legacy = write_legacy_log(
        tmp_path / "kb.jsonl", [(f"d{i}", _MF[i].to_dict(), _runs(i)) for i in range(4)]
    )
    live = _instance(tmp_path / "live", range(4), shards=1)

    report = merge_kb_roots(tmp_path / "converted", [legacy])
    assert report["datasets"] == 4 and report["runs"] == 8
    assert report["sources"][0]["torn_bytes_dropped"] == 0
    merge_kb_roots(tmp_path / "pooled", [live])
    for name in ("MANIFEST.json", "shard-000.log"):
        assert (tmp_path / "converted" / name).read_bytes() == (
            tmp_path / "pooled" / name
        ).read_bytes()

    converted = KnowledgeBase(tmp_path / "converted")
    pooled = KnowledgeBase(tmp_path / "pooled")
    assert converted.store.n_shards == 1
    for query in _MF:
        assert converted.nominate(query) == pooled.nominate(query)
    converted.close()
    pooled.close()


def test_merge_refuses_legacy_log_dest(tmp_path, write_legacy_log):
    dest = write_legacy_log(tmp_path / "dest.jsonl", [("d0", _MF[0].to_dict(), _runs(0))])
    before = dest.read_bytes()
    source = _instance(tmp_path / "src", [1, 2])
    with pytest.raises(KnowledgeBaseError, match="repro kb merge <new-root>"):
        merge_kb_roots(dest, [source])
    assert dest.read_bytes() == before
