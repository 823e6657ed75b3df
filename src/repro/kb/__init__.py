"""Knowledge base: durable store, similarity search, bootstrapping."""

from repro._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.kb.bootstrap": ("bootstrap_knowledge_base",),
    "repro.kb.knowledge_base": ("KnowledgeBase",),
    "repro.kb.shards": (
        "ShardedRecordStore", "dataset_content_digest", "fsck_store", "is_sharded_root",
        "merge_kb_roots", "run_content_digest", "shard_for_digest",
    ),
    "repro.kb.similarity": (
        "Neighbor", "Nomination", "SimilarityIndex", "distance_only_nomination",
        "nearest_datasets", "weighted_nomination", "zscore_normaliser",
    ),
})
