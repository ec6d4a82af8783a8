"""Value traces: the (PC, produced value) streams predictors consume."""

from repro.trace.stats import CacheStats, cache_stats
from repro.trace.trace import TraceCacheError, ValueTrace

__all__ = ["ValueTrace", "TraceCacheError", "CacheStats", "cache_stats"]
