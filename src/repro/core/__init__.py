"""The SmartML core: configuration, orchestration, results, Table 1."""

from repro._lazy import lazy_exports

__all__ = [
    "SmartML",
    "SmartMLConfig",
    "SmartMLResult",
    "CandidateResult",
    "FrameworkCard",
    "framework_cards",
    "render_table1",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.comparison": ("FrameworkCard", "framework_cards", "render_table1"),
    "repro.core.config": ("SmartMLConfig",),
    "repro.core.result": ("CandidateResult", "SmartMLResult"),
    "repro.core.smartml": ("SmartML",),
})
