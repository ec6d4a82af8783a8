"""Durable predictor state: mmap-able table arenas.

A predictor's learned state is exactly what the DFCM design exists to
pack efficiently -- and exactly what dies with the process while
tables live as anonymous in-memory arrays.  This module gives every
resumable family's table state a durable on-disk form: the **arena**,
one contiguous buffer per session holding all of its table arrays,
fronted by a typed header that describes per-level shapes and dtypes.

Arena file layout (all integers big-endian)::

    0   8s   magic  b"RPROARNA"
    8   u32  arena format version  (file layout; ARENA_FORMAT_VERSION)
    12  u32  state version         (table-layout generation; STATE_VERSION)
    16  u32  header JSON length
    20  u32  CRC-32 over header JSON + payload
    24  u64  payload length
    32  ...  header JSON (utf-8)
    --- zero padding to a 64-byte boundary ---
    ...      payload: one entry per array back to back, each aligned
             to 64 bytes at the absolute offsets the header declares

The header JSON carries the spec config
(:meth:`~repro.core.spec.PredictorSpec.to_config`), a digest of it,
the array directory (key, dtype, shape, offset, nbytes) and arbitrary
JSON metadata (session counters and the like).

A session's tables are mostly empty -- a few hundred live entries in a
65,536-entry level-1 table -- so an entry is stored one of two ways,
whichever is smaller; density is a property of the array, so nothing
selects it:

- **sparse**, for a 1-D little-endian int64 array whose non-*fill*
  entries take less room as (index, value) pairs than the array does
  whole: the directory entry adds ``fill`` (the value every absent
  entry holds -- the encoder picks the array's minimum) and ``nnz``,
  and the payload is ``nnz`` strictly increasing int64 indices
  followed by their ``nnz`` values (``nbytes == 16 * nnz``).  It
  decodes into a fresh array: ``np.zeros`` when ``fill`` is 0, so only
  the pages holding entries are touched, then one scatter.
- **dense**, for everything else (2-D, bool, big-endian and other
  dtypes, and nearly full arrays): the array itself, contiguous and
  little-endian, which :func:`open_arena` maps read-only and hands
  back as a zero-copy NumPy view.  A session re-seated on such a view
  copies it on its first write:
  :func:`repro.core.engines.resume.step_block` replaces a read-only
  table by a private copy (copy-on-write), so stepping never writes
  the arena.

Format 1 had dense entries only, so a format-1 file is a format-2 file
whose entries all lack ``nnz``, and one decoder reads both.  Builds
that predate format 2 refuse these files as an unknown format, so a
rollback to one quarantines every arena written since.

Writing mirrors that: :func:`write_arena` streams the header and each
entry's buffer (a dense array's own memory) to disk with one running
CRC.  :func:`arena_bytes` is the reference encoder that assembles the
same bytes in memory; both share one layout function, whose absolute
offsets are computed to a fixpoint.

Robustness reuses the trace cache's discipline (the cache shares
:func:`quarantine_file`):

- **writes are atomic** -- :func:`atomic_write_bytes` writes a
  ``*.tmp`` sibling, fsyncs it and ``os.replace``\\ s it into place;
- **reads are verified** -- magic, format version, truncation and the
  CRC are checked before any view is built, then every directory
  entry (a sparse entry's indices in range and strictly increasing,
  its ``nbytes`` agreeing with ``nnz``, every payload inside the
  file); any defect is an :class:`ArenaError`, and defective files are
  :func:`quarantine_file`'d (renamed ``*.corrupt``) by the store;
- **state is version-gated** -- an arena whose ``state_version``
  differs from this process's :data:`STATE_VERSION` raises
  :class:`StateVersionError` with a message naming both sides, so a
  rolling deploy refuses a mismatched table layout instead of
  silently misreading it.

:class:`ArenaStore` is the directory-of-arenas layer the server's LRU
session evictor and the ``repro state ls/verify/compact`` CLI sit on.
"""

from __future__ import annotations

import hashlib
import json
import os
import mmap
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

__all__ = [
    "ARENA_MAGIC", "ARENA_FORMAT_VERSION", "STATE_VERSION", "ARENA_SUFFIX",
    "ArenaError", "StateVersionError",
    "atomic_write_bytes", "quarantine_file",
    "arena_bytes", "write_arena", "open_arena", "verify_arena",
    "Arena", "ArenaInfo", "ArenaStore", "spec_digest",
]

ARENA_MAGIC = b"RPROARNA"

#: File-layout generation: prefix struct, alignment, header fields.
#: Format 2 added sparse entries; this build reads formats 1 and 2.
ARENA_FORMAT_VERSION = 2
_READABLE_FORMATS = (1, ARENA_FORMAT_VERSION)

#: Table-state layout generation.  Bump whenever the canonical
#: :meth:`~repro.core.spec.PredictorSpec.extract_state` layout of any
#: resumable family changes meaning (new key, reinterpreted entries,
#: different dtype): restore refuses any other version, which is what
#: keeps a rolling deploy from serving predictions off misread tables.
STATE_VERSION = 1

ARENA_SUFFIX = ".arena"

_PREFIX = struct.Struct("!8sIIIIQ")
_ALIGN = 64
_ZEROS = memoryview(bytes(_ALIGN))
_INT64 = np.dtype("<i8")


class ArenaError(Exception):
    """An arena file is unreadable: corrupt, truncated, or stale."""


class StateVersionError(ArenaError):
    """The arena's state layout generation does not match this process.

    Deliberately a *distinct* error: the bytes are sound, the layout
    is just from a different deploy, so the right reaction is an
    explicit refusal (and a clear client error), never quarantine.
    """


# ---------------------------------------------------------------- shared
# File-discipline helpers shared with the trace cache.

def atomic_write_bytes(path, payload) -> int:
    """Write *payload* to *path* atomically; returns the bytes written.

    *payload* is one bytes-like object, or a list or tuple of them
    written back to back -- so a caller can stream several buffers
    (an arena's header and each table's own memory) without joining
    them first.  Short writes are resumed until every byte is out.
    The bytes go to a ``*.tmp`` sibling, are fsynced, and the file is
    ``os.replace``'d into place, so an interrupted write leaves at
    worst a stray temp file, never a truncated target.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    chunks = payload if isinstance(payload, (list, tuple)) else (payload,)
    written = 0
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        for chunk in chunks:
            view = memoryview(chunk).cast("B")
            while view:
                count = os.write(fd, view)
                written += count
                view = view[count:]
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    return written


def quarantine_file(path) -> Path:
    """Move an unreadable file aside as ``<name>.corrupt``.

    Keeps the bytes for post-mortem instead of deleting; a later
    quarantine of the same name overwrites the previous one.  Returns
    the quarantine path.
    """
    path = Path(path)
    target = path.with_name(path.name + ".corrupt")
    os.replace(path, target)
    return target


def spec_digest(config: dict) -> str:
    """Stable short digest of a spec config dict (identity gate)."""
    blob = json.dumps(config, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ------------------------------------------------------------- encoding

def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _sparse_payload(arr: np.ndarray) -> Optional[Tuple[int, np.ndarray]]:
    """``(fill, indices + values)`` when *arr* is smaller stored as its
    non-*fill* entries than whole, else ``None`` (store it dense).

    Only 1-D little-endian int64 arrays qualify.  *fill* is the
    array's minimum: 0 for every table, -1 for the aliasing tracker's
    last-writer table.
    """
    if arr.ndim != 1 or arr.dtype != _INT64 or not arr.size:
        return None
    fill = arr.min()
    indices = np.flatnonzero(arr != fill)
    if 16 * len(indices) >= arr.nbytes:
        return None
    return int(fill), np.concatenate((indices, arr[indices]))


def _arena_layout(spec_config: dict, state: Dict[str, np.ndarray],
                  meta: Optional[dict], state_version: int):
    """Everything both encoders share: ``(blob, payload_start,
    payload_len, directory, payloads)``.

    *payloads* holds each entry's stored bytes as one contiguous
    little-endian array, in *directory* order: a dense array itself,
    a sparse one's indices followed by its values.  *blob* is the
    header JSON whose directory carries their absolute file offsets.
    """
    directory: List[dict] = []
    payloads: List[np.ndarray] = []
    relative: List[int] = []
    payload_len = 0
    for key in sorted(state):
        arr = np.ascontiguousarray(state[key])
        entry = {"key": key, "shape": list(arr.shape)}
        sparse = _sparse_payload(arr)
        if sparse is not None:
            entry["fill"], payload = sparse
            entry["nnz"] = len(payload) // 2
        elif arr.dtype.byteorder == ">":
            payload = arr.astype(arr.dtype.newbyteorder("<"))
        else:
            payload = arr
        payload_len = _align(payload_len)
        relative.append(payload_len)
        entry.update(dtype=payload.dtype.str, offset=payload_len,
                     nbytes=payload.nbytes)
        directory.append(entry)
        payloads.append(payload)
        payload_len += payload.nbytes
    header = {
        "schema": 1,
        "state_version": state_version,
        "spec": spec_config,
        "spec_digest": spec_digest(spec_config),
        "arrays": directory,
        "meta": meta or {},
    }
    # The offsets are absolute, so they depend on the header length --
    # and the header length on their digits: rebasing can push the
    # header across a 64-byte boundary.  Iterate from the relative
    # offsets to the fixpoint; the start only grows, so this ends.
    payload_start = 0
    while True:
        blob = json.dumps(header, sort_keys=True).encode()
        start = _align(_PREFIX.size + len(blob))
        if start == payload_start:
            return blob, payload_start, payload_len, directory, payloads
        payload_start = start
        for entry, offset in zip(directory, relative):
            entry["offset"] = payload_start + offset


def arena_bytes(spec_config: dict, state: Dict[str, np.ndarray],
                meta: Optional[dict] = None,
                state_version: int = STATE_VERSION) -> bytearray:
    """Serialise one table-state snapshot into arena file bytes.

    *state* maps table keys to arrays (any NumPy dtype; stored
    little-endian, contiguous, sparse where that is smaller).  Keys
    starting with ``__`` are auxiliary (session bookkeeping) rather
    than table state; the layout gate in :func:`Arena.table_state`
    ignores them.

    The reference encoder: it assembles the whole file in memory and
    checksums it in one go.  :func:`write_arena` streams the same
    bytes from the arrays' own buffers; the tests pin the two
    byte-identical.
    """
    blob, payload_start, payload_len, directory, payloads = _arena_layout(
        spec_config, state, meta, state_version)
    out = bytearray(payload_start + payload_len)
    out[_PREFIX.size:_PREFIX.size + len(blob)] = blob
    for entry, payload in zip(directory, payloads):
        out[entry["offset"]:entry["offset"] + entry["nbytes"]] = \
            payload.tobytes()
    crc = zlib.crc32(memoryview(out)[_PREFIX.size:]) & 0xFFFFFFFF
    _PREFIX.pack_into(out, 0, ARENA_MAGIC, ARENA_FORMAT_VERSION,
                      state_version, len(blob), crc, payload_len)
    return out


def write_arena(path, spec_config: dict, state: Dict[str, np.ndarray],
                meta: Optional[dict] = None,
                state_version: int = STATE_VERSION) -> int:
    """Atomically write a table-state arena; returns bytes written.

    Writes exactly :func:`arena_bytes`' output without assembling it:
    the header and its padding, then each entry's buffer and the zero
    padding between entries, go to :func:`atomic_write_bytes` as a
    list of buffers, and one running CRC pass over the same buffers
    fills the prefix.  No dense array is copied; a sparse one costs
    what it holds.
    """
    blob, payload_start, payload_len, directory, payloads = _arena_layout(
        spec_config, state, meta, state_version)
    head = bytearray(payload_start)
    head[_PREFIX.size:_PREFIX.size + len(blob)] = blob
    chunks = [head]
    crc = zlib.crc32(memoryview(head)[_PREFIX.size:])
    position = payload_start
    for entry, payload in zip(directory, payloads):
        padding = _ZEROS[:entry["offset"] - position]
        data = payload.reshape(-1).view(np.uint8)
        crc = zlib.crc32(data, zlib.crc32(padding, crc))
        chunks += (padding, data)
        position = entry["offset"] + entry["nbytes"]
    _PREFIX.pack_into(head, 0, ARENA_MAGIC, ARENA_FORMAT_VERSION,
                      state_version, len(blob), crc & 0xFFFFFFFF,
                      payload_len)
    return atomic_write_bytes(path, chunks)


# ------------------------------------------------------------- decoding

@dataclass(frozen=True)
class ArenaInfo:
    """Cheap header-only summary of an arena file (no payload parse)."""

    path: Path
    state_version: int
    spec_name: Optional[str]
    spec_digest: str
    meta: dict
    arrays: int
    nbytes: int


class _Sparse(NamedTuple):
    """A validated sparse entry: views of its indices and values."""

    length: int
    fill: int
    indices: np.ndarray
    values: np.ndarray

    def decode(self) -> np.ndarray:
        out = (np.zeros(self.length, dtype=np.int64) if self.fill == 0
               else np.full(self.length, self.fill, dtype=np.int64))
        out[self.indices] = self.values
        return out


def _entry(buffer, entry: dict):
    """One directory entry, checked against the file it came from: a
    read-only view (dense) or a :class:`_Sparse` (decoded per call).

    Raises :class:`ArenaError` for an entry no encoder writes;
    malformed fields (wrong types, unknown dtypes) raise ``KeyError``,
    ``TypeError`` or ``ValueError``, which the caller converts.
    """
    dtype = np.dtype(entry["dtype"])
    shape = [int(dim) for dim in entry["shape"]]
    offset, nbytes = int(entry["offset"]), int(entry["nbytes"])
    if min(shape, default=0) < 0 or nbytes < 0:
        raise ArenaError("negative shape or size")
    if offset < 0 or offset + nbytes > len(buffer):
        raise ArenaError(f"payload [{offset}, {offset + nbytes}) lies "
                         f"outside the {len(buffer)}-byte file")
    if "nnz" not in entry:
        count = int(np.prod(shape, dtype=np.int64))
        if count * dtype.itemsize != nbytes:
            raise ArenaError(f"nbytes {nbytes} != {count} x {dtype}")
        return np.frombuffer(buffer, dtype=dtype, count=count,
                             offset=offset).reshape(shape)
    nnz, fill = int(entry["nnz"]), int(entry["fill"])
    if dtype != _INT64 or len(shape) != 1:
        raise ArenaError(f"sparse entry of {dtype} with shape {shape}")
    if nnz < 0 or nbytes != 16 * nnz:
        raise ArenaError(f"sparse nbytes {nbytes} != 16 x nnz {nnz}")
    if not -1 << 63 <= fill < 1 << 63:
        raise ArenaError(f"fill {fill} is not an int64")
    stored = np.frombuffer(buffer, dtype=_INT64, count=2 * nnz,
                           offset=offset)
    indices, values = stored[:nnz], stored[nnz:]
    if nnz and (indices[0] < 0 or indices[-1] >= shape[0]
                or not (indices[1:] > indices[:-1]).all()):
        raise ArenaError(f"sparse indices are not strictly increasing "
                         f"within [0, {shape[0]})")
    return _Sparse(shape[0], fill, indices, values)


class Arena:
    """One opened arena: header fields + its arrays.

    Every call to :meth:`state` (and :meth:`table_state`, :meth:`aux`)
    returns arrays on the rule *writable means yours*:

    - a **sparse** entry is decoded into a fresh writable array on
      each call, which the caller owns outright;
    - a **dense** entry is a read-only zero-copy view of the memory
      map, shared by every caller.  NumPy keeps the map alive through
      the view's ``.base``, so it stays valid after the :class:`Arena`
      is garbage collected, and :func:`repro.core.engines.step_block`
      never writes a read-only table: it replaces it in the state dict
      by a private copy on the first write.

    So a session can be seated directly on what :meth:`state` returns.
    Every entry is validated when the arena is opened; a defect raises
    :class:`ArenaError`.
    """

    def __init__(self, path: Path, header: dict, buffer,
                 state_version: int):
        self.path = Path(path)
        self.header = header
        self.state_version = state_version
        self._buffer = buffer
        self._entries: Dict[str, object] = {}
        try:
            self.spec_config = header["spec"]
            self.meta = header.get("meta", {})
            for entry in header["arrays"]:
                key = entry["key"]
                self._entries[key] = _entry(buffer, entry)
        except ArenaError as exc:
            raise ArenaError(f"{path}: array {key!r}: {exc}") from None
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ArenaError(f"{path}: malformed array directory "
                             f"({type(exc).__name__}: {exc})") from exc

    @staticmethod
    def _array(entry) -> np.ndarray:
        return entry.decode() if isinstance(entry, _Sparse) else entry

    def state(self) -> Dict[str, np.ndarray]:
        """Every stored array (tables and ``__`` auxiliaries)."""
        return {k: self._array(v) for k, v in self._entries.items()}

    def table_state(self) -> Dict[str, np.ndarray]:
        """Only the table arrays (auxiliary ``__`` keys stripped)."""
        return {k: self._array(v) for k, v in self._entries.items()
                if not k.startswith("__")}

    def aux(self, key: str) -> Optional[np.ndarray]:
        entry = self._entries.get("__" + key)
        return None if entry is None else self._array(entry)

    @property
    def nbytes(self) -> int:
        return len(self._buffer)


def _read_prefix(raw, path) -> Tuple[int, int, int, int]:
    if len(raw) < _PREFIX.size:
        raise ArenaError(f"{path}: truncated arena header "
                         f"({len(raw)} bytes)")
    magic, fmt, state_version, header_len, crc, payload_len = \
        _PREFIX.unpack_from(raw)
    if magic != ARENA_MAGIC:
        raise ArenaError(f"{path}: not an arena file (bad magic)")
    if fmt not in _READABLE_FORMATS:
        raise ArenaError(f"{path}: arena format v{fmt}, this build "
                         f"reads v{_READABLE_FORMATS[0]} to "
                         f"v{ARENA_FORMAT_VERSION}")
    return state_version, header_len, crc, payload_len


def _parse_arena(raw, path, check_state_version: bool = True) -> Arena:
    state_version, header_len, crc, payload_len = _read_prefix(raw, path)
    payload_start = _align(_PREFIX.size + header_len)
    if len(raw) < payload_start + payload_len:
        raise ArenaError(
            f"{path}: truncated arena ({len(raw)} bytes, header "
            f"declares {payload_start + payload_len})")
    actual = zlib.crc32(memoryview(raw)[_PREFIX.size:
                                        payload_start + payload_len])
    if actual & 0xFFFFFFFF != crc:
        raise ArenaError(f"{path}: CRC mismatch "
                         f"(stored {crc:#010x}, computed {actual:#010x})")
    try:
        header = json.loads(
            bytes(raw[_PREFIX.size:_PREFIX.size + header_len]).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArenaError(f"{path}: unreadable arena header "
                         f"({exc})") from exc
    if not isinstance(header, dict):
        raise ArenaError(f"{path}: arena header is not a JSON object")
    if header.get("state_version") != state_version:
        raise ArenaError(f"{path}: header/prefix state version disagree "
                         f"({header.get('state_version')} vs "
                         f"{state_version})")
    if check_state_version and state_version != STATE_VERSION:
        raise StateVersionError(
            f"{path}: arena holds state layout v{state_version} but this "
            f"server speaks v{STATE_VERSION}; refusing restore (mixed "
            f"rolling deploy? drain the old writer or recreate the "
            f"session)")
    return Arena(path, header, raw, state_version)


def open_arena(path, check_state_version: bool = True) -> Arena:
    """Open an arena read-only, copying no payload.

    The file is mapped (``mmap.ACCESS_READ``) and fully verified --
    magic, format version, truncation, CRC, then every directory entry
    -- before any array is handed out.  Dense entries are views of the
    map; sparse ones are decoded by :meth:`Arena.state`.  Raises :class:`ArenaError` on any defect and
    :class:`StateVersionError` on a state-layout generation mismatch
    (suppress with ``check_state_version=False`` for inspection tools).
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size == 0:
                raise ArenaError(f"{path}: empty arena file")
            buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except OSError as exc:
        raise ArenaError(f"{path}: cannot open arena "
                         f"({exc})") from exc
    return _parse_arena(buffer, path, check_state_version)


def verify_arena(path) -> Optional[str]:
    """Integrity-check one arena; ``None`` when sound, else the defect.

    A wrong state version is *not* a defect (the file is sound, just
    from another deploy generation) -- it is reported by the store's
    verify sweep separately.
    """
    try:
        open_arena(path, check_state_version=False)
    except ArenaError as exc:
        message = str(exc)
        prefix = f"{path}: "
        return message[len(prefix):] if message.startswith(prefix) \
            else message
    return None


def arena_info(path) -> ArenaInfo:
    """Header summary of a (verified) arena file."""
    arena = open_arena(path, check_state_version=False)
    spec = arena.spec_config
    return ArenaInfo(
        path=Path(path),
        state_version=arena.state_version,
        spec_name=arena.meta.get("spec_name"),
        spec_digest=arena.header.get("spec_digest", ""),
        meta=arena.meta,
        arrays=len(arena.header["arrays"]),
        nbytes=arena.nbytes,
    )


# ----------------------------------------------------------------- store

class ArenaStore:
    """A directory of per-session arenas (``session-<id>.arena``).

    The unit the server's LRU evictor spills to and reloads from, and
    what ``repro state`` inspects.  All writes are atomic; defective
    files found by :meth:`load` are quarantined so a bad spill can
    never wedge a session id forever.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, session_id: int) -> Path:
        return self.directory / f"session-{session_id:016d}{ARENA_SUFFIX}"

    @staticmethod
    def session_id_of(path) -> Optional[int]:
        name = Path(path).name
        if not (name.startswith("session-")
                and name.endswith(ARENA_SUFFIX)):
            return None
        digits = name[len("session-"):-len(ARENA_SUFFIX)]
        return int(digits) if digits.isdigit() else None

    def save(self, session_id: int, spec_config: dict,
             state: Dict[str, np.ndarray],
             meta: Optional[dict] = None) -> int:
        return write_arena(self.path_for(session_id), spec_config, state,
                           meta)

    def load(self, session_id: int) -> Optional[Arena]:
        """Open a session's arena; ``None`` when it has none.

        A defective arena is quarantined (``*.corrupt``) and reported
        as missing -- the caller sees a session that no longer exists,
        not a traceback.  A :class:`StateVersionError` propagates: the
        file is sound and must *not* be quarantined, the deploy
        generations just disagree.
        """
        path = self.path_for(session_id)
        if not path.exists():
            return None
        try:
            return open_arena(path)
        except StateVersionError:
            raise
        except ArenaError:
            quarantine_file(path)
            return None

    def delete(self, session_id: int) -> bool:
        path = self.path_for(session_id)
        try:
            path.unlink()
            return True
        except FileNotFoundError:
            return False

    def paths(self) -> List[Path]:
        return sorted(self.directory.glob(f"*{ARENA_SUFFIX}"))

    def session_ids(self) -> List[int]:
        ids = (self.session_id_of(path) for path in self.paths())
        return sorted(i for i in ids if i is not None)

    def infos(self) -> List[ArenaInfo]:
        """Header summaries of every *sound* arena (defective files are
        skipped, not raised -- ``verify`` is the tool that names them)."""
        summaries: List[ArenaInfo] = []
        for path in self.paths():
            if verify_arena(path) is None:
                summaries.append(arena_info(path))
        return summaries

    def verify(self) -> dict:
        """Sweep every arena; returns ``{checked, defects, stale}``.

        ``defects`` is a list of ``(path, reason)`` for unreadable
        files; ``stale`` lists sound arenas whose state version is not
        this build's (restorable only by the deploy that wrote them).
        """
        defects: List[Tuple[Path, str]] = []
        stale: List[Tuple[Path, int]] = []
        paths = self.paths()
        for path in paths:
            reason = verify_arena(path)
            if reason is not None:
                defects.append((path, reason))
                continue
            info = arena_info(path)
            if info.state_version != STATE_VERSION:
                stale.append((path, info.state_version))
        return {"checked": len(paths), "defects": defects, "stale": stale}

    def compact(self) -> dict:
        """Sweep litter: stray ``*.tmp`` writes, quarantined
        ``*.corrupt`` copies, and arenas that no longer verify (these
        are quarantine-deleted -- they can never be restored).  Sound
        arenas, including stale-version ones, are kept: a rollback may
        still want them.  Returns per-category counts and the bytes
        reclaimed."""
        removed = {"tmp": 0, "corrupt": 0, "defective": 0}
        reclaimed = 0
        for pattern in ("*.tmp", "*.corrupt"):
            for path in self.directory.glob(pattern):
                reclaimed += path.stat().st_size
                path.unlink()
                removed["tmp" if pattern == "*.tmp" else "corrupt"] += 1
        for path in self.paths():
            if verify_arena(path) is not None:
                reclaimed += path.stat().st_size
                path.unlink()
                removed["defective"] += 1
        kept = self.paths()
        return {
            "removed": removed,
            "reclaimed_bytes": reclaimed,
            "kept": len(kept),
            "kept_bytes": sum(p.stat().st_size for p in kept),
        }
