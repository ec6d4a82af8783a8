"""Cache observability: the counter set behind the trace cache.

Every cache interaction (``cached_trace``, ``verify_cache``,
``warm_cache``) is counted once, in the process-wide telemetry
registry (:mod:`repro.telemetry.registry`) under the ``repro_cache_*``
metric family, so cache traffic shows up in ``repro telemetry
summary`` and the Prometheus export next to every other metric.

:func:`cache_stats` reads those counters into a plain
:class:`CacheStats`; the difference of two readings is the traffic
in between (``repro cache verify|warm`` print the one for their own
command).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["CacheStats", "cache_stats", "record_cache"]

#: CacheStats field -> registry metric that counts it.
_METRIC_NAMES = {
    "hits": "repro_cache_hits_total",
    "misses": "repro_cache_misses_total",
    "recaptures": "repro_cache_recaptures_total",
    "corrupt_quarantined": "repro_cache_corrupt_quarantined_total",
    "bytes_read": "repro_cache_read_bytes_total",
    "bytes_written": "repro_cache_written_bytes_total",
    "capture_seconds": "repro_cache_capture_seconds_total",
}

_METRIC_HELP = {
    "hits": "Cache entries served from a valid on-disk .npz",
    "misses": "Cache entries absent from the cache (captured fresh)",
    "recaptures": "Entries recaptured because the on-disk copy was "
                  "unreadable",
    "corrupt_quarantined": "Unreadable entries moved aside to *.corrupt",
    "bytes_read": "Payload bytes read from the trace cache",
    "bytes_written": "Payload bytes written to the trace cache",
    "capture_seconds": "Wall-clock seconds spent running workloads on "
                       "the VM",
}


@dataclass(frozen=True)
class CacheStats:
    """One reading of the trace-cache counters (a value: the counters
    themselves change only through :func:`record_cache`).

    Attributes
    ----------
    hits:
        Entries served from a valid on-disk ``.npz``.
    misses:
        Entries absent from the cache (captured fresh).
    recaptures:
        Entries recaptured because the on-disk copy was unreadable.
    corrupt_quarantined:
        Unreadable entries moved aside to ``*.corrupt``.
    bytes_read / bytes_written:
        Payload traffic between the cache and disk.
    capture_seconds:
        Wall-clock time spent running workloads on the VM.
    """

    hits: int = 0
    misses: int = 0
    recaptures: int = 0
    corrupt_quarantined: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    capture_seconds: float = 0.0

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        """The traffic between reading *other* and reading this."""
        return CacheStats(**{f.name: getattr(self, f.name)
                             - getattr(other, f.name)
                             for f in fields(CacheStats)})

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name)
                for f in fields(CacheStats)}

    def render(self) -> str:
        """One-line human-readable summary."""
        return (f"hits={self.hits} misses={self.misses} "
                f"recaptures={self.recaptures} "
                f"corrupt_quarantined={self.corrupt_quarantined} "
                f"bytes_read={self.bytes_read} "
                f"bytes_written={self.bytes_written} "
                f"capture_seconds={self.capture_seconds:.2f}")


def _registry_counter(field_name: str):
    from repro.telemetry.registry import registry
    return registry().counter(_METRIC_NAMES[field_name],
                              _METRIC_HELP[field_name])


def record_cache(**deltas) -> None:
    """Add each ``field=delta`` to its registry counter (the cache
    layer's one entry point)."""
    for name, delta in deltas.items():
        _registry_counter(name).inc(delta)


def cache_stats() -> CacheStats:
    """The process-global cache counters, read from the registry.
    ``capture_seconds`` keeps its float precision; the other counters
    read back as ints."""
    values = {}
    for name in _METRIC_NAMES:
        value = _registry_counter(name).value()
        values[name] = value if name == "capture_seconds" else int(value)
    return CacheStats(**values)
