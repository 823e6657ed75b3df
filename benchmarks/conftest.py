"""Shared benchmark infrastructure.

The expensive artefact every macro-benchmark needs is the knowledge base
bootstrapped from the 50-dataset corpus (the paper's setup).  Building it
costs minutes, so it is built once into ``benchmarks/_artifacts/`` keyed by
a corpus fingerprint and reused across runs; delete the directory to force
a rebuild.

Every benchmark writes its rendered table into ``benchmarks/results/`` so
the regenerated evaluation is inspectable after the run.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.data import kb_corpus_specs, load_kb_corpus
from repro.kb import KnowledgeBase, bootstrap_knowledge_base

ARTIFACTS = Path(__file__).parent / "_artifacts"
RESULTS = Path(__file__).parent / "results"

#: Bootstrap protocol (matches the paper: 50 datasets; probes per algorithm
#: and folds chosen for laptop-scale runtime).
KB_N_DATASETS = 50
KB_CONFIGS_PER_ALGORITHM = 2
KB_N_FOLDS = 2
KB_SEED = 7


def _corpus_fingerprint() -> str:
    specs = kb_corpus_specs(n=KB_N_DATASETS, seed=KB_SEED)
    blob = json.dumps(
        [
            (s.name, s.n_instances, s.n_features, s.n_classes, s.seed)
            for s in specs
        ]
        + [KB_CONFIGS_PER_ALGORITHM, KB_N_FOLDS]
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def bootstrapped_kb_path() -> Path:
    """Path of the cached 50-dataset KB, building it on first use."""
    ARTIFACTS.mkdir(exist_ok=True)
    path = ARTIFACTS / f"kb{KB_N_DATASETS}_{_corpus_fingerprint()}"
    if path.exists():
        return path
    print(
        f"\n[bench] bootstrapping knowledge base from {KB_N_DATASETS} datasets "
        f"(one-time, cached at {path}) ..."
    )
    corpus = load_kb_corpus(n=KB_N_DATASETS, seed=KB_SEED)
    with KnowledgeBase(path) as kb:
        bootstrap_knowledge_base(
            kb,
            corpus,
            configs_per_algorithm=KB_CONFIGS_PER_ALGORITHM,
            n_folds=KB_N_FOLDS,
            seed=0,
            verbose=True,
        )
    return path


@pytest.fixture(scope="session")
def kb50_path() -> Path:
    return bootstrapped_kb_path()


def oracle_rankings() -> dict[str, list[str]]:
    """Per evaluation dataset: all 15 classifiers ranked by default-config
    2-fold CV accuracy (best first).

    This is the ground truth the nomination-quality benches score against;
    it is computed once and cached in ``_artifacts``.
    """
    from repro.data import TABLE4_CARDS

    ARTIFACTS.mkdir(exist_ok=True)
    eval_blob = json.dumps([repr(card.spec) for card in TABLE4_CARDS])
    fingerprint = hashlib.sha256(eval_blob.encode()).hexdigest()[:12]
    path = ARTIFACTS / f"oracle_rankings_{fingerprint}.json"
    if path.exists():
        return json.loads(path.read_text())

    from repro.classifiers import classifier_names, make_classifier
    from repro.data import load_eval_dataset, eval_dataset_names
    from repro.hpo import CrossValObjective, classifier_space
    from repro.preprocess import build_preprocessor

    print("\n[bench] computing oracle rankings (one-time, cached) ...")
    rankings: dict[str, list[str]] = {}
    for key in eval_dataset_names():
        prepared = build_preprocessor([]).fit_transform(load_eval_dataset(key))
        scores = []
        for name in classifier_names():
            space = classifier_space(name)
            objective = CrossValObjective(
                lambda config, _n=name: make_classifier(_n, **config),
                prepared.X, prepared.y, n_classes=prepared.n_classes,
                n_folds=2, seed=0,
            )
            config = space.default_config()
            cost = objective.evaluate(config, space.config_key(config))
            scores.append((1.0 - cost, name))
        scores.sort(reverse=True)
        rankings[key] = [name for _, name in scores]
    path.write_text(json.dumps(rankings, indent=2))
    return rankings


@pytest.fixture(scope="session")
def oracle() -> dict[str, list[str]]:
    return oracle_rankings()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS.mkdir(exist_ok=True)
    return RESULTS


def write_result(results_dir: Path, name: str, content: str) -> None:
    """Persist a rendered benchmark table and echo it to stdout."""
    path = results_dir / name
    path.write_text(content, encoding="utf-8")
    print(f"\n===== {name} =====\n{content}")
