"""J48 — C4.5 decision tree (RWeka's ``J48``).

Table 3 row: 1 categorical + 2 numerical hyperparameters
(``pruned``; confidence ``C``, minimum instances ``M``).
"""

from __future__ import annotations

from repro.classifiers.single_tree import SingleTreeClassifier
from repro.classifiers.tree import FlatTree, TreeParams, pessimistic_prune_flat
from repro.exceptions import ConfigurationError

__all__ = ["J48"]


class J48(SingleTreeClassifier):
    """C4.5: gain-ratio splitting with error-based (pessimistic) pruning.

    Parameters
    ----------
    pruned:
        ``"pruned"`` applies C4.5's confidence-bound subtree replacement;
        ``"unpruned"`` keeps the full grown tree (WEKA's ``-U``).
    confidence:
        C4.5's ``C`` — smaller prunes harder.  Only used when pruned.
    min_instances:
        C4.5's ``M`` — minimum instances per leaf.
    """

    name = "j48"

    PRUNED_CHOICES = ("pruned", "unpruned")

    def __init__(
        self,
        pruned: str = "pruned",
        confidence: float = 0.25,
        min_instances: int = 2,
    ):
        if pruned not in self.PRUNED_CHOICES:
            raise ConfigurationError(
                f"pruned must be one of {self.PRUNED_CHOICES}, got {pruned!r}"
            )
        self.pruned = pruned
        self.confidence = confidence
        self.min_instances = min_instances
        self.flat_: FlatTree | None = None

    def _tree_params(self) -> TreeParams:
        m = max(1, int(self.min_instances))
        return TreeParams(
            criterion="gain_ratio",
            max_depth=40,
            min_split=max(2, 2 * m),
            min_bucket=m,
        )

    def _prune(self, tree: FlatTree) -> FlatTree:
        if self.pruned == "pruned":
            return pessimistic_prune_flat(tree, float(self.confidence))
        return tree
