"""The value trace container.

A trace is the dynamic stream of predicted instructions: per retired
integer-register-producing, non-branch instruction, its PC and the
32-bit value it wrote.  Stored as parallel numpy arrays for compactness
and fast disk round-trips; the measurement loops consume plain Python
lists (scalar indexing on lists is considerably faster than on numpy
arrays), produced once by :meth:`ValueTrace.records`.
"""

from __future__ import annotations

import os
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

__all__ = ["ValueTrace", "TraceCacheError", "FORMAT_VERSION"]

#: On-disk ``.npz`` format version.  Bump when the member set or their
#: semantics change; loaders reject any other version so stale entries
#: invalidate cleanly instead of being silently misread.
FORMAT_VERSION = 2


class TraceCacheError(Exception):
    """A stored trace is unreadable: corrupt, truncated, or stale.

    Raised by :meth:`ValueTrace.load` instead of leaking ``zipfile``/
    ``KeyError``/numpy internals; the cache layer treats it as a miss
    and recaptures.
    """


def payload_checksum(pcs: np.ndarray, values: np.ndarray) -> int:
    """CRC-32 over both payload arrays (order: pcs, then values)."""
    return zlib.crc32(values.tobytes(), zlib.crc32(pcs.tobytes())) & 0xFFFFFFFF


@dataclass
class TraceStats:
    """Summary statistics of a trace (the Table 1 style numbers)."""

    predictions: int
    static_instructions: int
    distinct_values: int


class ValueTrace:
    """An immutable (pc, value) stream with a name.

    Parameters
    ----------
    name:
        Benchmark name ('li', 'compress', ...).
    pcs, values:
        Parallel sequences; PCs are 4-byte aligned instruction
        addresses, values the produced 32-bit words.  Both are stored
        as ``uint32``.
    """

    def __init__(self, name: str, pcs: Sequence[int], values: Sequence[int]):
        pcs_arr = np.asarray(pcs, dtype=np.int64).astype(np.uint32)
        values_arr = np.asarray(values, dtype=np.int64).astype(np.uint32)
        if pcs_arr.shape != values_arr.shape:
            raise ValueError(
                f"pcs and values lengths differ: {pcs_arr.shape} vs "
                f"{values_arr.shape}")
        if pcs_arr.ndim != 1:
            raise ValueError("a trace is one-dimensional")
        self.name = name
        self.pcs = pcs_arr
        self.values = values_arr
        self._records: List[Tuple[int, int]] | None = None

    def __len__(self) -> int:
        return int(self.pcs.shape[0])

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self.records())

    def records(self) -> List[Tuple[int, int]]:
        """The trace as a list of (pc, value) int pairs (cached)."""
        if self._records is None:
            self._records = list(zip(self.pcs.tolist(), self.values.tolist()))
        return self._records

    def head(self, n: int) -> "ValueTrace":
        """A trace of the first *n* records (shares the name)."""
        return ValueTrace(self.name, self.pcs[:n], self.values[:n])

    def stats(self) -> TraceStats:
        """Prediction count, static instruction count, distinct values."""
        return TraceStats(
            predictions=len(self),
            static_instructions=int(np.unique(self.pcs).shape[0]),
            distinct_values=int(np.unique(self.values).shape[0]),
        )

    @classmethod
    def from_records(cls, name: str,
                     records: Iterable[Tuple[int, int]]) -> "ValueTrace":
        """Build a trace from an iterable of (pc, value) pairs."""
        pcs: List[int] = []
        values: List[int] = []
        for pc, value in records:
            pcs.append(pc & 0xFFFFFFFF)
            values.append(value & 0xFFFFFFFF)
        return cls(name, pcs, values)

    def save(self, path) -> None:
        """Write the trace to an ``.npz`` file, atomically.

        The payload goes to a ``*.tmp`` sibling first and is
        ``os.replace``d into place, so an interrupted write leaves at
        worst a stray temp file, never a truncated ``.npz``.  Entries
        carry a format version and a CRC-32 payload checksum (see
        :meth:`load`).
        """
        path = Path(path)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as handle:
                np.savez_compressed(
                    handle,
                    name=np.array(self.name),
                    pcs=self.pcs,
                    values=self.values,
                    version=np.array(FORMAT_VERSION, dtype=np.uint32),
                    checksum=np.array(payload_checksum(self.pcs, self.values),
                                      dtype=np.uint32))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    @classmethod
    def load(cls, path) -> "ValueTrace":
        """Read a trace written by :meth:`save`, validating it.

        Raises :class:`TraceCacheError` on any defect — unreadable zip,
        missing members, wrong format version, bad array shape/dtype,
        or checksum mismatch — so callers never see ``zipfile``/numpy
        internals.
        """
        try:
            with np.load(path, allow_pickle=False) as data:
                members = set(data.files)
                missing = ({"name", "pcs", "values", "version", "checksum"}
                           - members)
                if missing:
                    if {"name", "pcs", "values"} <= members:
                        raise TraceCacheError(
                            f"{path}: unversioned (pre-v{FORMAT_VERSION}) "
                            "trace entry")
                    raise TraceCacheError(
                        f"{path}: missing members {sorted(missing)}")
                version = int(data["version"])
                if version != FORMAT_VERSION:
                    raise TraceCacheError(
                        f"{path}: format v{version}, "
                        f"expected v{FORMAT_VERSION}")
                name, pcs, values = data["name"], data["pcs"], data["values"]
                if pcs.ndim != 1 or values.ndim != 1:
                    raise TraceCacheError(
                        f"{path}: trace arrays must be one-dimensional")
                if pcs.shape != values.shape:
                    raise TraceCacheError(
                        f"{path}: pcs/values length mismatch "
                        f"({pcs.shape[0]} vs {values.shape[0]})")
                if pcs.dtype != np.uint32 or values.dtype != np.uint32:
                    raise TraceCacheError(
                        f"{path}: trace arrays must be uint32, got "
                        f"{pcs.dtype}/{values.dtype}")
                stored = int(data["checksum"])
                actual = payload_checksum(pcs, values)
                if stored != actual:
                    raise TraceCacheError(
                        f"{path}: payload checksum mismatch "
                        f"(stored {stored:#010x}, actual {actual:#010x})")
                return cls(str(name), pcs, values)
        except TraceCacheError:
            raise
        except (zipfile.BadZipFile, KeyError, ValueError, OSError,
                EOFError, zlib.error) as exc:
            raise TraceCacheError(f"{path}: unreadable trace "
                                  f"({type(exc).__name__}: {exc})") from exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ValueTrace({self.name!r}, {len(self)} predictions)"
