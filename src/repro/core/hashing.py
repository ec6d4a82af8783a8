"""History hashing functions for two-level context predictors.

The paper follows Sazeides & Smith ("Implementations of context based
value predictors", TR ECE97-8) and uses their *fold-and-shift* FS(R-5)
function: with a level-2 table of ``2**n`` entries, every history value
is folded to ``n`` bits by XOR-ing its ``n``-bit chunks, each folded
value is shifted left by ``k * age`` bit positions (``k = 5`` for R-5;
age 0 is the most recent value), and the shifted values are XOR-ed into
the final ``n``-bit index.

The paper couples the predictor *order* (history length) to the table
size as ``order = ceil(n / k)``:

    L2 size   2^8  2^10  2^12  2^14  2^16  2^18  2^20
    order      2     2     3     3     4     4     4

That coupling is what makes the hash *incrementally* computable: since
``k * order >= n``, the oldest value's contribution has been shifted
entirely out of the ``n``-bit index after ``order`` insertions, so the
level-1 table only needs to store the hashed history:

    new_index = ((old_index << k) ^ fold(new_value)) & (2**n - 1)

:class:`FoldShiftHash` implements the incremental form.  For unit tests
and for the paper's Figure 4 / Figure 8 worked examples (which assume a
*concatenating* hash) :class:`ConcatHash` keeps explicit histories, and
:class:`XorFoldHash` (shift 0) is provided as an ablation point.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.core.types import MASK32

__all__ = [
    "HistoryHash",
    "FoldShiftHash",
    "XorFoldHash",
    "ConcatHash",
    "fold",
    "order_for_index_bits",
    "make_hash",
]


def _fold_masked(value: int, n: int, mask: int) -> int:
    """:func:`fold` with the chunk mask precomputed by the caller."""
    value &= MASK32
    folded = 0
    while value:
        folded ^= value & mask
        value >>= n
    return folded


def fold(value: int, n: int) -> int:
    """Fold a 32-bit word into ``n`` bits by XOR-ing its ``n``-bit chunks.

    ``fold(v, 32)`` is the identity; ``fold(v, 1)`` is the parity of the
    word.  ``n`` must be in ``[1, 32]``.
    """
    if not 1 <= n <= 32:
        raise ValueError(f"fold width must be in [1, 32], got {n}")
    return _fold_masked(value, n, (1 << n) - 1)


def order_for_index_bits(n: int, shift: int = 5) -> int:
    """The paper's order/table-size coupling: ``order = ceil(n / shift)``.

    This is the largest history length whose oldest element still
    influences the ``n``-bit index under a shift of ``shift`` bits per
    age step -- and therefore the order at which the FS(R-k) hash is
    exactly incrementally computable.
    """
    if n < 1:
        raise ValueError(f"index bits must be >= 1, got {n}")
    if shift < 1:
        raise ValueError(f"shift must be >= 1, got {shift}")
    return math.ceil(n / shift)


class HistoryHash(ABC):
    """Maps a history of 32-bit values to an index in ``[0, 2**n)``.

    A hash object is stateless; predictors store one *hash state* word
    per level-1 entry and advance it through :meth:`step`.  The state
    encoding is hash-specific (the FS hash state *is* the index; the
    concatenating hash packs the explicit history into the state).
    """

    def __init__(self, index_bits: int, order: int):
        if index_bits < 1:
            raise ValueError(f"index_bits must be >= 1, got {index_bits}")
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        self.index_bits = index_bits
        self.order = order
        self.mask = (1 << index_bits) - 1

    @property
    def initial_state(self) -> int:
        """Hash state of the empty history."""
        return 0

    @abstractmethod
    def step(self, state: int, value: int) -> int:
        """Return the state after appending *value* to the history."""

    @abstractmethod
    def index(self, state: int) -> int:
        """Extract the level-2 index from a hash state."""

    def of_history(self, history) -> int:
        """Index of an explicit history (oldest value first)."""
        state = self.initial_state
        for value in history:
            state = self.step(state, value)
        return self.index(state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(index_bits={self.index_bits}, "
            f"order={self.order})"
        )


class FoldShiftHash(HistoryHash):
    """Sazeides' FS(R-k) fold-and-shift hash, incremental form.

    The default ``shift=5`` is the paper's FS(R-5).  When ``order`` is
    left to default it follows the paper's ``ceil(n / shift)`` rule.
    The hash state equals the level-2 index, so the level-1 table needs
    only ``index_bits`` bits per entry.
    """

    def __init__(self, index_bits: int, order: int | None = None, shift: int = 5):
        if order is None:
            order = order_for_index_bits(index_bits, shift)
        super().__init__(index_bits, order)
        if shift * order < index_bits:
            raise ValueError(
                f"FS(R-{shift}) of order {order} is not incremental for "
                f"{index_bits} index bits (need shift*order >= index_bits); "
                f"use order >= {order_for_index_bits(index_bits, shift)}"
            )
        self.shift = shift
        # The fold width equals index_bits, so the table mask doubles as
        # the fold chunk mask; precomputing here keeps the per-record
        # step free of mask construction and range re-validation.
        self._fold_mask = self.mask

    def step(self, state: int, value: int) -> int:
        return ((state << self.shift)
                ^ _fold_masked(value, self.index_bits, self._fold_mask)) & self.mask

    def index(self, state: int) -> int:
        return state


class XorFoldHash(HistoryHash):
    """Plain XOR of the folded history values (FS with shift 0).

    Ignores the *order* of values inside the history window, which makes
    it noticeably worse than FS(R-5); kept as an ablation baseline.  It
    is not incrementally computable from an index alone, so the state
    packs the last ``order`` folded values (``index_bits`` bits each).
    """

    def __init__(self, index_bits: int, order: int):
        super().__init__(index_bits, order)
        self._fold_mask = self.mask
        self._window_mask = (1 << (index_bits * order)) - 1

    def step(self, state: int, value: int) -> int:
        return ((state << self.index_bits)
                | _fold_masked(value, self.index_bits, self._fold_mask)
                ) & self._window_mask

    def index(self, state: int) -> int:
        index = 0
        for age in range(self.order):
            index ^= (state >> (age * self.index_bits)) & self.mask
        return index


class ConcatHash(HistoryHash):
    """Concatenation of the raw history values, as in Figures 4 and 8.

    The paper's worked examples assume "the hashing function concatenates
    the values in the history".  The state packs the last ``order``
    *full 32-bit* values; the index is that concatenation reduced modulo
    the table size.  Exact (collision-free) when the values fit the
    per-slot budget of ``index_bits // order`` bits and the table is big
    enough, which the worked-example tests arrange.
    """

    def __init__(self, index_bits: int, order: int):
        super().__init__(index_bits, order)
        self._window_mask = (1 << (32 * order)) - 1
        self._slot_bits = max(1, index_bits // order)
        self._slot_mask = (1 << self._slot_bits) - 1

    def step(self, state: int, value: int) -> int:
        return ((state << 32) | (value & MASK32)) & self._window_mask

    def index(self, state: int) -> int:
        index = 0
        for age in range(self.order):
            slot = (state >> (age * 32)) & MASK32
            index = (index << self._slot_bits) | (slot & self._slot_mask)
        return index & self.mask


_HASH_KINDS = {
    "fs": FoldShiftHash,
    "xor": XorFoldHash,
    "concat": ConcatHash,
}


def make_hash(kind: str, index_bits: int, order: int | None = None, **kwargs) -> HistoryHash:
    """Factory for history hashes: kind in {'fs', 'xor', 'concat'}.

    ``'fs'`` accepts a ``shift`` keyword (5 reproduces the paper's
    FS(R-5)).  ``order`` defaults to the paper's coupling for 'fs' and
    must be given for the others.
    """
    try:
        cls = _HASH_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown hash kind {kind!r}; expected one of {sorted(_HASH_KINDS)}"
        ) from None
    if cls is FoldShiftHash:
        return cls(index_bits, order, **kwargs)
    if order is None:
        raise ValueError(f"hash kind {kind!r} requires an explicit order")
    return cls(index_bits, order, **kwargs)
