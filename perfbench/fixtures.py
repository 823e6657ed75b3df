"""Deterministic on-disk fixtures, built from the workload seed and cached.

``intake_kb`` is the sharded knowledge base ``intake_warm`` opens: thousands
of datasets whose meta-features are jittered copies of real extracted ones,
and whose run history holds configurations sampled from ``classifier_space``
for cheap families only (knn, naive_bayes, lda, rpart).  Nomination at this
scale therefore picks cheap families, so tuning stays a minority of each
``intake_warm`` experiment.

A fixture lives under ``perfbench/.cache/<kind>-<key>/``, where the key
digests the fixture's parameters, the seed, this file, ``datagen.py`` and
the program source, so a stale fixture is never reused.  Runs copy it fresh
because ``intake_warm`` mutates its KB.  Building happens before any
timing starts.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np

from perfbench.datagen import derive_seed, make_experiment_input

__all__ = ["CACHE_DIR", "INTAKE_KB", "bench_digest", "intake_kb", "source_digest"]

CACHE_DIR = Path(__file__).resolve().parent / ".cache"
#: Fixtures of one kind kept in the cache (each run usually has its own seed).
KEEP_PER_KIND = 3

#: Parameters of the ``intake_warm`` knowledge base.  10k datasets is the
#: reference scale of ``BENCH_kb_scale.json``.
INTAKE_KB = {
    "datasets": 10_000,
    "runs_per_dataset": 3,
    "shards": 4,
    "base_datasets": 16,
    "families": ["knn", "naive_bayes", "lda", "rpart"],
}


def _digest_files(paths: list[Path]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for path in paths:
        h.update(str(path.name).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def bench_digest() -> str:
    """Content digest of the benchmark's own Python files."""
    return _digest_files(sorted(Path(__file__).resolve().parent.glob("*.py")))


def source_digest(src_root: Path) -> str:
    """Content digest of every ``.py`` file of the program under ``src_root``."""
    files = sorted(src_root.rglob("*.py"))
    h = hashlib.blake2b(digest_size=16)
    for path in files:
        h.update(str(path.relative_to(src_root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def intake_kb(seed: int, program_digest: str) -> Path:
    """Path of the ``intake_kb`` fixture for ``seed``, building it if absent."""
    kind = "intake_kb"
    here = Path(__file__).resolve().parent
    key_source = json.dumps(
        {
            "kind": kind,
            "seed": int(seed),
            "params": INTAKE_KB,
            "code": _digest_files([here / "fixtures.py", here / "datagen.py"]),
            "program": program_digest,
        },
        sort_keys=True,
    )
    key = hashlib.blake2b(key_source.encode(), digest_size=10).hexdigest()
    path = CACHE_DIR / f"{kind}-{key}"
    if path.is_dir():
        os.utime(path)
        return path
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    tmp = CACHE_DIR / f".tmp-{kind}-{key}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    _build_intake_kb(tmp, seed)
    os.rename(tmp, path)
    _evict(kind)
    return path


def _evict(kind: str) -> None:
    entries = sorted(
        (p for p in CACHE_DIR.glob(f"{kind}-*") if p.is_dir()),
        key=lambda p: p.stat().st_mtime,
        reverse=True,
    )
    for stale in entries[KEEP_PER_KIND:]:
        shutil.rmtree(stale, ignore_errors=True)


def _build_intake_kb(root: Path, seed: int) -> None:
    from repro.hpo.spaces import classifier_space
    from repro.kb import KnowledgeBase
    from repro.metafeatures import MetaFeatures, extract_metafeatures

    params = INTAKE_KB
    rng = np.random.default_rng(derive_seed(seed, "kb"))
    # Jitter real meta-feature vectors of intake-shaped datasets, so the
    # similarity index sees the value ranges live uploads produce.
    bases = [
        extract_metafeatures(
            make_experiment_input("intake", seed, 1_000_000 + b, n_folds=3).parsed
        ).to_vector()
        for b in range(params["base_datasets"])
    ]
    families = params["families"]
    spaces = {name: classifier_space(name) for name in families}
    kb = KnowledgeBase(root / "kb", shards=params["shards"])
    try:
        for i in range(params["datasets"]):
            base = bases[int(rng.integers(len(bases)))]
            vector = base * np.exp(rng.normal(0.0, 0.15, size=base.shape))
            chosen = rng.choice(len(families), size=params["runs_per_dataset"], replace=False)
            runs = [
                {
                    "algorithm": families[int(k)],
                    "config": spaces[families[int(k)]].sample(rng),
                    "accuracy": float(rng.uniform(0.55, 0.97)),
                    "n_folds": 3,
                    "budget_s": 0.05,
                }
                for k in chosen
            ]
            kb.add_result_batch(f"kb-{seed}-{i}", MetaFeatures.from_vector(vector), runs)
    finally:
        kb.close()
