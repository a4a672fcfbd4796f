"""Search engines and their kernel backends."""

from .engine import (
    BACKEND,
    CompRow,
    CompTable,
    EXACT_MAX_GROUND,
    SearchConfig,
    SearchResult,
    TABLE_MAX_GROUND,
    anneal_max_product,
    anneal_max_sum,
    exact_max_product,
    exact_max_sum,
    min_comparability_table,
    resolve_threads,
)

__all__ = [
    "BACKEND",
    "CompRow",
    "CompTable",
    "EXACT_MAX_GROUND",
    "SearchConfig",
    "SearchResult",
    "TABLE_MAX_GROUND",
    "anneal_max_product",
    "anneal_max_sum",
    "exact_max_product",
    "exact_max_sum",
    "min_comparability_table",
    "resolve_threads",
]
