"""SmartML reproduction (Maher & Sakr, EDBT 2019).

A meta learning-based framework for automated algorithm selection and
hyperparameter tuning, rebuilt in Python from scratch: 15 classifiers,
the Table-2 preprocessing operators, the 25 meta-features, a durable
knowledge base with weighted nearest-neighbour nomination, a SMAC
implementation with fold racing, weighted ensembling, interpretability,
a REST API, and the Auto-Weka CASH baseline.

Quickstart::

    from repro import SmartML, SmartMLConfig
    from repro.data import load_eval_dataset

    result = SmartML().run(
        load_eval_dataset("yeast"),
        SmartMLConfig(time_budget_s=5.0),
    )
    print(result.describe())
"""

from repro._lazy import lazy_exports
from repro.exceptions import (
    BudgetExhaustedError,
    ConfigurationError,
    DataError,
    KnowledgeBaseError,
    NotFittedError,
    ParseError,
    SearchError,
    SmartMLError,
)

__version__ = "1.0.0"

__all__ = [
    "SmartML",
    "SmartMLConfig",
    "SmartMLResult",
    "KnowledgeBase",
    "bootstrap_knowledge_base",
    "SmartMLError",
    "ConfigurationError",
    "DataError",
    "ParseError",
    "NotFittedError",
    "KnowledgeBaseError",
    "SearchError",
    "BudgetExhaustedError",
    "__version__",
]

# The pipeline loads on first use, so ``import repro`` stays cheap.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core": ("SmartML", "SmartMLConfig", "SmartMLResult"),
    "repro.kb": ("KnowledgeBase", "bootstrap_knowledge_base"),
})
