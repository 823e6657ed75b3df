"""Knowledge base: durable store, similarity search, bootstrapping."""

from repro.kb.bootstrap import bootstrap_knowledge_base
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.shards import (
    ShardedRecordStore,
    dataset_content_digest,
    fsck_store,
    is_sharded_root,
    merge_kb_roots,
    run_content_digest,
    shard_for_digest,
)
from repro.kb.similarity import (
    Neighbor,
    Nomination,
    SimilarityIndex,
    distance_only_nomination,
    nearest_datasets,
    weighted_nomination,
    zscore_normaliser,
)

__all__ = [
    "ShardedRecordStore",
    "KnowledgeBase",
    "bootstrap_knowledge_base",
    "dataset_content_digest",
    "fsck_store",
    "is_sharded_root",
    "merge_kb_roots",
    "run_content_digest",
    "shard_for_digest",
    "Neighbor",
    "Nomination",
    "SimilarityIndex",
    "nearest_datasets",
    "weighted_nomination",
    "distance_only_nomination",
    "zscore_normaliser",
]
