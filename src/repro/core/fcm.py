"""The finite context method (FCM) predictor, paper section 2.3.

A two-level predictor (Sazeides & Smith).  The level-1 table, indexed by
the PC, stores the *hashed* history of the last ``order`` values the
instruction produced.  The level-2 table, indexed by that hash, stores
the value most likely to follow the history.

Updating (paper Figure 2(b)): the correct value is written into the
level-2 entry *where the prediction was read* -- i.e. at the old
history's index -- and the level-1 hash is advanced incrementally with
the new value.

With the default FS(R-5) hash, the order follows the paper's coupling
``order = ceil(log2(l2_entries) / 5)``.
"""

from __future__ import annotations

from repro.core.base import ValuePredictor
from repro.core.hashing import FoldShiftHash, HistoryHash
from repro.core.spec import FCMSpec, HashSpec
from repro.core.types import MASK32, WORD_BITS, require_power_of_two

__all__ = ["FCMPredictor"]


class FCMPredictor(ValuePredictor):
    """Order-k finite context method predictor.

    Parameters
    ----------
    l1_entries:
        Level-1 (per-instruction history) table size, power of two.
    l2_entries:
        Level-2 (per-context value) table size, power of two.
    hash_fn:
        History hash; defaults to the paper's FS(R-5) with the coupled
        order.  Any :class:`~repro.core.hashing.HistoryHash` whose
        ``index_bits`` equals ``log2(l2_entries)`` is accepted.
    """

    def __init__(self, l1_entries: int, l2_entries: int,
                 hash_fn: HistoryHash | None = None):
        require_power_of_two(l1_entries, "FCM level-1 size")
        require_power_of_two(l2_entries, "FCM level-2 size")
        index_bits = l2_entries.bit_length() - 1
        if hash_fn is None:
            hash_fn = FoldShiftHash(index_bits)
        elif hash_fn.index_bits != index_bits:
            raise ValueError(
                f"hash produces {hash_fn.index_bits}-bit indices but the "
                f"level-2 table needs {index_bits}-bit indices"
            )
        self.l1_entries = l1_entries
        self.l2_entries = l2_entries
        self.hash_fn = hash_fn
        self.order = hash_fn.order
        self._l1_mask = l1_entries - 1
        self._l1 = [hash_fn.initial_state] * l1_entries
        self._l2 = [0] * l2_entries
        # Declarative twin; None when the hash is a custom subclass the
        # spec layer cannot rebuild in another process.
        hash_spec = HashSpec.from_hash(hash_fn)
        self.spec = (FCMSpec(l1_entries, l2_entries, hash_spec)
                     if hash_spec is not None else None)
        self.name = f"fcm_l1={l1_entries}_l2={l2_entries}"

    def predict(self, pc: int) -> int:
        state = self._l1[(pc >> 2) & self._l1_mask]
        return self._l2[self.hash_fn.index(state)]

    def update(self, pc: int, value: int) -> None:
        value &= MASK32
        l1_index = (pc >> 2) & self._l1_mask
        state = self._l1[l1_index]
        # Train the level-2 entry the prediction was read from, then
        # advance the history.
        self._l2[self.hash_fn.index(state)] = value
        self._l1[l1_index] = self.hash_fn.step(state, value)

    def storage_bits(self) -> int:
        """L1: one hashed history (index_bits) per entry; L2: 32-bit values.

        Only the hashed history is stored in level 1 (the hash is
        incremental), exactly as the paper argues in section 2.3.
        """
        if self.spec is not None:
            return self.spec.storage_bits()
        return (self.l1_entries * self.hash_fn.index_bits
                + self.l2_entries * WORD_BITS)

    # -- introspection used by the occupancy/aliasing instrumentation --

    def l2_index(self, pc: int) -> int:
        """Level-2 index the next prediction for *pc* would use."""
        return self.hash_fn.index(self._l1[(pc >> 2) & self._l1_mask])

    def l1_index(self, pc: int) -> int:
        """Level-1 entry index for *pc*."""
        return (pc >> 2) & self._l1_mask
