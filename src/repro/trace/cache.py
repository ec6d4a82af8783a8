"""Self-healing on-disk trace cache.

Capturing a 100k-prediction trace takes a couple of seconds of VM time;
the experiment harness re-reads traces dozens of times, so traces are
cached as ``.npz`` under a cache directory (default
``<repo>/.trace_cache``, overridable via ``REPRO_TRACE_CACHE``).  The
cache key hashes the workload source, so editing a workload invalidates
its entries automatically.

Robustness model
----------------
The cache must never be able to poison an experiment run:

- **Reads self-heal.**  A corrupt, truncated, or stale-format entry
  (anything that makes :meth:`ValueTrace.load` raise
  :class:`TraceCacheError`) is quarantined — renamed to ``*.corrupt``
  — and transparently recaptured from the workload source.  Callers of
  :func:`cached_trace` never see the defect.
- **Writes are atomic.**  :meth:`ValueTrace.save` writes to a ``*.tmp``
  sibling and ``os.replace``s it into place, so an interrupted capture
  leaves a stray temp file (ignored, swept by :func:`clear_cache`),
  never a truncated ``.npz``.
- **Entries are versioned and checksummed.**  Each entry stores a
  format-version field and a CRC-32 payload checksum; stale formats and
  bit-flips invalidate cleanly as cache misses.

Every interaction is counted once, in the registry's ``repro_cache_*``
counters (see :mod:`repro.trace.stats`); :func:`cache_stats` reads
them.  :func:`verify_cache` sweeps the directory checking integrity
without materialising numpy payloads; :func:`warm_cache` pre-populates
entries; :func:`cache_entries` lists them.
"""

from __future__ import annotations

import hashlib
import io
import os
import time
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.state import quarantine_file
from repro.trace.capture import capture_source
from repro.trace.stats import CacheStats, cache_stats, record_cache
from repro.trace.trace import FORMAT_VERSION, TraceCacheError, ValueTrace
from repro.workloads.registry import get_workload

__all__ = [
    "cached_trace", "default_cache_dir", "clear_cache", "quarantine_entry",
    "verify_cache", "warm_cache", "cache_entries", "CacheEntry",
    "CacheStats", "cache_stats",
]

#: Required members of a valid cache entry (``np.savez`` adds ``.npy``).
_REQUIRED_MEMBERS = {"name.npy", "pcs.npy", "values.npy",
                     "version.npy", "checksum.npy"}


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_TRACE_CACHE")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / ".trace_cache"


def _cache_key(name: str, source: str, limit: Optional[int],
               optimize: int = 0) -> str:
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    suffix = f"-O{optimize}" if optimize else ""
    # 0 is a distinct (degenerate) length, not an alias for "full".
    part = "full" if limit is None else limit
    return f"{name}-{part}-{digest}{suffix}"


def quarantine_entry(path: Path) -> Path:
    """Move an unreadable entry aside as ``<name>.corrupt``.

    Keeps the bytes for post-mortem instead of deleting; a later
    quarantine of the same key overwrites the previous one.  Returns
    the quarantine path.  (The same discipline protects predictor
    state arenas — this delegates to the shared helper in
    :mod:`repro.core.state`.)
    """
    return quarantine_file(path)


def cached_trace(name: str, limit: Optional[int] = 100_000,
                 cache_dir: Optional[Path] = None,
                 optimize: int = 0) -> ValueTrace:
    """Trace of a registered workload, loaded from or saved to the cache.

    An unreadable cached entry is treated as a miss: it is quarantined
    to ``*.corrupt`` and the trace is recaptured from the workload
    source, so this function never raises :class:`TraceCacheError`.
    """
    workload = get_workload(name)
    directory = Path(cache_dir) if cache_dir else default_cache_dir()
    path = directory / (_cache_key(name, workload.source, limit,
                                   optimize) + ".npz")
    if path.exists():
        try:
            size = path.stat().st_size
            trace = ValueTrace.load(path)
            record_cache(hits=1, bytes_read=size)
            return trace
        except TraceCacheError:
            quarantine_entry(path)
            record_cache(corrupt_quarantined=1, recaptures=1)
    else:
        record_cache(misses=1)
    started = time.perf_counter()
    trace = capture_source(workload.name, workload.source, limit,
                           optimize=optimize)
    record_cache(capture_seconds=time.perf_counter() - started)
    directory.mkdir(parents=True, exist_ok=True)
    trace.save(path)
    record_cache(bytes_written=path.stat().st_size)
    return trace


def clear_cache(cache_dir: Optional[Path] = None) -> int:
    """Delete every cached trace; returns the number of entries removed.

    Also sweeps quarantined ``*.corrupt`` copies and stray ``*.tmp``
    files from interrupted writes (not counted in the return value).
    """
    directory = Path(cache_dir) if cache_dir else default_cache_dir()
    if not directory.exists():
        return 0
    removed = 0
    for path in directory.glob("*.npz"):
        path.unlink()
        removed += 1
    for pattern in ("*.corrupt", "*.tmp"):
        for path in directory.glob(pattern):
            path.unlink()
    return removed


@dataclass
class CacheEntry:
    """One cache directory entry, as listed by :func:`cache_entries`."""

    path: Path
    benchmark: str
    limit: Optional[int]
    optimize: int
    size: int

    @classmethod
    def from_path(cls, path: Path) -> "CacheEntry":
        stem = path.name[:-len(".npz")]
        parts = stem.split("-")
        optimize = 0
        if parts[-1] in ("O1", "O2"):
            optimize = int(parts.pop()[1:])
        limit: Optional[int] = None
        if len(parts) >= 3 and parts[-2] != "full":
            limit = int(parts[-2])
        benchmark = "-".join(parts[:-2]) if len(parts) >= 3 else stem
        return cls(path=path, benchmark=benchmark, limit=limit,
                   optimize=optimize, size=path.stat().st_size)


def cache_entries(cache_dir: Optional[Path] = None) -> List[CacheEntry]:
    """All ``.npz`` entries in the cache, sorted by filename."""
    directory = Path(cache_dir) if cache_dir else default_cache_dir()
    if not directory.exists():
        return []
    return [CacheEntry.from_path(path)
            for path in sorted(directory.glob("*.npz"))]


def verify_entry(path: Path) -> Optional[str]:
    """Integrity-check one entry without materialising its payload.

    Checks the zip structure, member CRCs (streamed by ``testzip``, no
    numpy parsing), the member set, and the format version.  Returns
    ``None`` when the entry is sound, else a human-readable defect.
    """
    try:
        with zipfile.ZipFile(path) as archive:
            members = set(archive.namelist())
            missing = _REQUIRED_MEMBERS - members
            if missing:
                return f"missing members {sorted(missing)}"
            bad = archive.testzip()
            if bad is not None:
                return f"CRC mismatch in member {bad}"
            version = int(np.load(io.BytesIO(archive.read("version.npy")),
                                  allow_pickle=False))
            if version != FORMAT_VERSION:
                return f"format v{version}, expected v{FORMAT_VERSION}"
    except (zipfile.BadZipFile, OSError, ValueError, EOFError,
            zlib.error) as exc:
        return f"unreadable ({type(exc).__name__}: {exc})"
    return None


@dataclass
class VerifyResult:
    """Outcome of a :func:`verify_cache` sweep."""

    checked: int
    defects: List[Tuple[Path, str]]
    repaired: List[Path]

    @property
    def ok(self) -> bool:
        return not self.defects


def verify_cache(cache_dir: Optional[Path] = None,
                 repair: bool = False) -> VerifyResult:
    """Re-validate every entry in the cache.

    With ``repair=True``, defective entries are quarantined and — when
    their key still matches a registered workload's current source —
    recaptured in place.  Quarantined-but-unmatchable entries (edited
    workloads, foreign files) are only moved aside; the cache then
    lazily refills on demand.
    """
    directory = Path(cache_dir) if cache_dir else default_cache_dir()
    defects: List[Tuple[Path, str]] = []
    repaired: List[Path] = []
    entries = cache_entries(directory)
    for entry in entries:
        reason = verify_entry(entry.path)
        if reason is None:
            continue
        defects.append((entry.path, reason))
        if not repair:
            continue
        quarantine_entry(entry.path)
        record_cache(corrupt_quarantined=1)
        if _recapture_entry(entry, directory):
            repaired.append(entry.path)
    return VerifyResult(checked=len(entries), defects=defects,
                        repaired=repaired)


def _recapture_entry(entry: CacheEntry, directory: Path) -> bool:
    """Recapture a quarantined entry if its key matches a live workload."""
    try:
        workload = get_workload(entry.benchmark)
    except KeyError:
        return False
    expected = _cache_key(entry.benchmark, workload.source, entry.limit,
                          entry.optimize) + ".npz"
    if expected != entry.path.name:
        return False  # stale key: the workload source has changed
    record_cache(recaptures=1)
    cached_trace(entry.benchmark, entry.limit, cache_dir=directory,
                 optimize=entry.optimize)
    return True


def warm_cache(names: Sequence[str], limit: Optional[int],
               cache_dir: Optional[Path] = None,
               optimize: int = 0) -> List[ValueTrace]:
    """Pre-populate cache entries for *names* at *limit* predictions."""
    return [cached_trace(name, limit, cache_dir=cache_dir,
                         optimize=optimize)
            for name in names]
