"""The batch engine: vectorised whole-trace replay on NumPy tables.

Every table-update rule in this codebase is *per level-1 entry
sequential*: records that map to different table entries never read
each other's state.  Sorting the trace by table index (a stable argsort
keeps program order within each entry) therefore turns the per-record
recurrences into per-group array operations:

- **last-value reads** (LVP tables, FCM/DFCM level-2 reads): the value
  a record reads is whatever the *previous* record with the same key
  wrote -- one shifted-compare per array (``_prev_in_group``), no loop.
- **FS hash states**: the fold-and-shift recurrence
  ``s' = ((s << k) ^ fold(v)) & mask`` telescopes into a XOR of at most
  ``ceil(index_bits / k)`` shifted fold terms, because older
  contributions shift out of the index -- the very property the paper
  uses to make the hash incrementally computable in hardware makes it
  *windowed*, hence vectorisable (``_fs_states``).
- **two-delta promotion**: ``s1`` changes only where the new stride
  repeats, so a grouped running-maximum of promotion positions forward-
  fills ``s1`` without a loop.
- **confidence-gated stride**: the saturating counter is a genuine
  per-record recurrence, but both halves of it vectorise exactly.  The
  counter itself is a clipped walk ``conf' = clip(conf + x, 0, max)``
  whose per-record transfer functions ``f(s) = min(C, max(B, s + A))``
  are closed under composition, so a grouped parallel prefix scan
  (``_conf_scan``) yields every intermediate counter in ``O(log
  group)`` array steps.  The stride table in turn only changes where
  the gate ``conf < max`` was open, so each record's effective stride
  is the delta at the *latest gate-open predecessor* -- a grouped
  running maximum, like two-delta promotion.  The circular dependency
  (the gate needs the counters, the counters need the correctness
  bits, the correctness bits need the strides) resolves by fixpoint
  iteration from an all-open gate; each pass extends the prefix of
  records whose bits are exact by at least one rank, and in practice
  two or three passes converge (``_stride_fixpoint``).  Small blocks
  -- the serve micro-batch shape -- skip the scan machinery and run
  the classic lane *rounds* loop instead (``_stride_rounds``), which
  also backstops the (never yet observed) non-converged case.

Given a warm state dict (see :mod:`repro.core.engines.resume`), a
kernel reads every entry it needs first and then scatters each touched
entry's last write into that dict's tables in place (``_store``); an
array that is not writable is first replaced in the dict by a private
copy.  Two kernel calls must therefore never share one writable state.
A cold run (no state) writes into fresh zero tables; a predict-only
pass (a :class:`_ReadOnly` state) skips the write-back altogether.

All kernels share one :class:`_KernelContext` per run: hybrid specs
whose components use the same ``((pc >> 2) & (entries - 1), entries)``
index function -- e.g. the paper's stride + DFCM pairing -- compute
the full-trace argsort once and reuse it, instead of re-deriving it
per component.  Kernels return their correctness mask directly (from
the already-sorted arrays, one boolean unsort) and materialise the
predicted-value array only when ``want_predicted`` is set, so counting
runs and non-first hybrid components build no throwaway arrays.

Families without a kernel (last-N, meta hybrids, delayed wrappers,
non-FS hashes) delegate to the scalar engine; the result's ``engine``
field reports which path actually ran.  ``tests/engines/`` holds the
cross-engine equivalence suite keeping every kernel bit-identical to
the scalar reference.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.engines.scalar import EngineResult, ScalarEngine
from repro.core.types import MASK32

__all__ = ["BatchEngine"]

# Below this many simultaneously active level-1 groups a vector round
# costs more than stepping the survivors in plain Python.  With the
# per-lane tail slicing the scalar tail is O(tail records), so the
# break-even sits where one vector round (~15 us) stops covering its
# survivors' scalar cost (~0.6 us/record).
_STRIDE_LANE_CUTOFF = 24

# Blocks shorter than this run the rounds loop outright: the fixpoint
# scan's fixed cost (a few dozen array allocations) only pays for
# itself on real traces, not serve micro-batches.
_STRIDE_FIXPOINT_MIN_N = 2048

# Fixpoint passes before falling back to the rounds loop.  Convergence
# is guaranteed within the longest group's length and observed at 2-3;
# the cap only bounds the pathological case.
_STRIDE_MAX_ITERS = 32


class _Groups:
    """Stable sort of record indices by table key, plus group geometry.

    ``order`` maps sorted position -> original position; ``rank`` is a
    record's 0-based position within its group; ``start`` the sorted
    position where its group begins; ``is_last`` marks each group's
    final record (whose writes survive into the end-of-trace tables).
    """

    __slots__ = ("order", "keys_sorted", "rank", "start", "is_start",
                 "is_last", "group_starts", "group_sizes")

    def __init__(self, keys: np.ndarray, key_bound: int):
        n = len(keys)
        # A narrow key dtype roughly halves the radix-sort passes.
        if key_bound <= 1 << 16:
            keys = keys.astype(np.uint16)
        elif key_bound <= 1 << 32:
            keys = keys.astype(np.uint32)
        self.order = np.argsort(keys, kind="stable")
        ks = keys[self.order]
        self.keys_sorted = ks
        is_start = np.empty(n, dtype=bool)
        is_start[0] = True
        np.not_equal(ks[1:], ks[:-1], out=is_start[1:])
        self.is_start = is_start
        is_last = np.empty(n, dtype=bool)
        is_last[-1] = True
        is_last[:-1] = is_start[1:]
        self.is_last = is_last
        self.group_starts = np.flatnonzero(is_start)
        self.group_sizes = np.diff(np.append(self.group_starts, n))
        self.start = np.repeat(self.group_starts, self.group_sizes)
        self.rank = np.arange(n, dtype=np.int64) - self.start

    def unsort(self, arr_sorted: np.ndarray) -> np.ndarray:
        out = np.empty_like(arr_sorted)
        out[self.order] = arr_sorted
        return out

    def final_table(self, state, key: str, entries: int,
                    payload_sorted: np.ndarray) -> np.ndarray:
        """End-of-block table *key*: each group's final payload written
        to its entry (see :func:`_store`)."""
        return _store(state, key, entries, self.keys_sorted[self.is_last],
                      payload_sorted[self.is_last])


class _ReadOnly(dict):
    """A warm state a kernel only reads: :func:`_store` writes nothing
    back into it (the predict-only pass,
    :func:`repro.core.engines.resume.predict_record`)."""

    __slots__ = ()


def _store(state, key: str, entries: int, keys: np.ndarray,
           payload: np.ndarray) -> np.ndarray:
    """Write *payload* to entries *keys* of table *key*; returns it.

    Cold (*state* None): a fresh zero table.  Warm: ``state[key]`` in
    place -- replaced in *state* by a private int64 copy first when it
    is read-only (an arena's mmap view) or of another dtype, so the
    caller's array is never written.  A :class:`_ReadOnly` state is
    returned as it stands: nothing is written or copied.
    """
    if state is None:
        table = np.zeros(entries, dtype=np.int64)
    elif type(state) is _ReadOnly:
        return state[key]
    else:
        table = state[key]
        if not table.flags.writeable or table.dtype != np.int64:
            table = state[key] = np.array(table, dtype=np.int64)
    table[keys] = payload
    return table


class _NoopProbe:
    """Disabled table-usage probe: kernels check one attribute and move
    on.  The real collector (:class:`repro.telemetry.tables`) sets
    ``enabled`` truthy and receives the per-record level-2 index
    stream the kernels already computed."""

    __slots__ = ()

    enabled = False

    def observe_l2(self, spec, slots) -> None:  # pragma: no cover
        pass


_NOOP_PROBE = _NoopProbe()


class _KernelContext:
    """One run's shared arrays: the trace plus memoised decompositions.

    Every kernel keys its level-1 table with the same index function,
    ``(pc >> 2) & (entries - 1)``, so *entries* fully identifies a
    decomposition; hybrid components with equal table sizes -- the
    paper's stride + DFCM configuration among them -- share one argsort
    and one sorted value array.  (A future family with a different
    key expression must widen the cache key accordingly.)

    ``probe`` is the table-usage hook (default: the shared no-op
    singleton, one attribute check per kernel run); the telemetry
    auditor installs a collector to read kernel-internal index
    streams without the kernels materialising anything extra.
    """

    __slots__ = ("pcs", "values", "probe", "_pc_groups")

    def __init__(self, pcs: np.ndarray, values: np.ndarray):
        self.pcs = pcs
        self.values = values
        self.probe = _NOOP_PROBE
        self._pc_groups = {}

    def pc_groups(self, entries: int):
        """``(groups, values_sorted)`` for the pc-indexed key, memoised."""
        cached = self._pc_groups.get(entries)
        if cached is None:
            groups = _Groups((self.pcs >> 2) & (entries - 1), entries)
            cached = (groups, self.values[groups.order])
            self._pc_groups[entries] = cached
        return cached


def _prev_in_group(payload_sorted: np.ndarray, is_start: np.ndarray,
                   initial=0) -> np.ndarray:
    """Per record: the previous same-group record's payload, else *initial*.

    *initial* is a scalar, or an array aligned to sorted positions whose
    values are read at each group's first record (warm start from a
    live table -- see :mod:`repro.core.engines.resume`).
    """
    prev = np.empty_like(payload_sorted)
    prev[1:] = payload_sorted[:-1]
    if isinstance(initial, np.ndarray):
        prev[is_start] = initial[is_start]
    else:
        prev[is_start] = initial
    return prev


def _fold_columns(values: np.ndarray, n: int) -> np.ndarray:
    """Vectorised :func:`repro.core.hashing.fold` over an int64 array."""
    out = np.zeros_like(values)
    mask = (1 << n) - 1
    shift = 0
    while shift < 32:
        out ^= (values >> shift) & mask
        shift += n
    return out


def _fs_states(elements_sorted: np.ndarray, rank: np.ndarray,
               index_bits: int, shift: int,
               initial: Optional[np.ndarray] = None) -> np.ndarray:
    """FS(R-*shift*) hash state after each record, within its group.

    Expanding the recurrence ``s' = ((s << shift) ^ fold(v)) & mask``
    over a group gives ``s_k = XOR_j fold(v_{k-j}) << (j * shift)``
    (masked), and any term with ``j * shift >= index_bits`` is masked
    away entirely -- so the state is a XOR of a fixed, small number of
    shifted fold columns.

    *initial*, when given, is each record's *group-initial* hash state
    (aligned to sorted positions): a warm start from a live table.  Its
    contribution to the state after rank ``r`` is
    ``s0 << ((r + 1) * shift)``, which the mask erases once the group is
    deeper than the hash window -- the same telescoping that makes the
    cold-start form finite.
    """
    folded = _fold_columns(elements_sorted, index_bits)
    state = folded.copy()  # the j = 0 term needs no shift and no masking
    j = 1
    while j * shift < index_bits:
        contribution = np.zeros_like(folded)
        contribution[j:] = folded[:-j] << (j * shift)
        contribution[rank < j] = 0  # do not reach across group boundaries
        state ^= contribution
        j += 1
    if initial is not None:
        # Clamp the shift at index_bits: beyond it the contribution is
        # entirely masked away, and int64 shifts past 63 are undefined.
        amount = np.minimum((rank + 1) * shift, index_bits)
        state ^= initial << amount
    return state & ((1 << index_bits) - 1)


def _store_strides(strides: np.ndarray, stride_bits: int) -> np.ndarray:
    """Vectorised ``DFCMPredictor._store_stride``: truncate + sign-extend."""
    if stride_bits == 32:
        return strides
    stride_mask = (1 << stride_bits) - 1
    sign = 1 << (stride_bits - 1)
    low = strides & stride_mask
    return np.where((low & sign) != 0, low | (MASK32 ^ stride_mask), low)


def _table_init(state, key, groups):
    """Per-sorted-record group-initial values of one table (a copy), or
    scalar 0 on a cold run."""
    if state is None:
        return 0
    return state[key][groups.keys_sorted]


def _conf_scan(correct_sorted: np.ndarray, rank: np.ndarray,
               inc: int, dec: int, counter_max: int, initial,
               max_size: int) -> np.ndarray:
    """Saturating-counter value after every record, within its group.

    The per-record transfer ``f(s) = clip(s + x, 0, max)`` (with ``x``
    the +inc/-dec outcome delta) is monotone piecewise-linear, and the
    family ``f(s) = min(C, max(B, s + A))`` is closed under
    composition -- composing the older ``f1`` into ``f2`` gives
    ``A = A1 + A2``, ``B = min(max(B2, B1 + A2), C2)``, ``C = min(
    max(B2, C1 + A2), C2)``, with ``A`` clamped to ``+/-(max + 1)``
    (exact on the counter's domain, and what keeps a narrow dtype
    sufficient).  A Hillis-Steele doubling pass over these triples,
    padded with the identity where a window would cross a group
    boundary (``rank < step``), therefore computes every prefix
    composition in ``ceil(log2(longest group))`` array steps; the
    result is each triple applied to its group's *initial* counter.
    """
    n = len(correct_sorted)
    bound = counter_max + 1
    if 2 * bound <= 127:
        dtype = np.int8
    elif 2 * bound <= 32767:
        dtype = np.int16
    else:
        dtype = np.int32
    # The outcome delta, pre-clamped to +/-(max + 1): any larger step
    # already saturates from every reachable counter value.
    x = np.where(correct_sorted,
                 dtype(min(inc, bound)), dtype(-min(dec, bound)))
    A = x
    B = np.zeros(n, dtype=dtype)
    C = np.full(n, counter_max, dtype=dtype)
    lo, hi = dtype(-bound), dtype(bound)
    A1 = np.empty(n, dtype)
    B1 = np.empty(n, dtype)
    C1 = np.empty(n, dtype)
    t = np.empty(n, dtype)
    step = 1
    while step < max_size:
        # The triple `step` positions back, or the identity where that
        # would reach across a group boundary.
        A1[step:] = A[:-step]
        B1[step:] = B[:-step]
        C1[step:] = C[:-step]
        invalid = rank < step  # includes the unshifted [:step] slots
        A1[invalid] = 0
        B1[invalid] = 0
        C1[invalid] = counter_max
        # Compose: the shifted-in (older) triple first, then this one.
        np.add(B1, A, out=t)
        np.clip(t, lo, hi, out=t)
        np.maximum(t, B, out=B1)
        np.minimum(B1, C, out=B1)
        np.add(C1, A, out=t)
        np.clip(t, lo, hi, out=t)
        np.maximum(t, B, out=C1)
        np.minimum(C1, C, out=C1)
        np.add(A1, A, out=A1)
        np.clip(A1, lo, hi, out=A1)
        A, A1 = A1, A
        B, B1 = B1, B
        C, C1 = C1, C
        step <<= 1
    base = initial + A  # int64 when warm (array), dtype when cold scalar
    result = np.maximum(B, base)
    np.minimum(result, C, out=result)
    return result.astype(np.int64)


def _stride_fixpoint(spec, groups, values_sorted, state, want_predicted):
    """Whole-block stride kernel; ``None`` when the fixpoint fails.

    The stride a record predicts with is the delta observed at its
    latest *gate-open* (``conf < max``) same-group predecessor -- the
    replace rule fires whenever the gate is open, correct outcome or
    not -- which a grouped running maximum over gate-open positions
    finds in one pass, exactly like two-delta promotion.  The gate
    needs the counters and the counters need the correctness bits,
    so iterate: start from an all-open gate, derive strides and
    correctness, rebuild the counters with :func:`_conf_scan`, repeat
    until the bits stop changing.  A verified fixpoint *is* the exact
    solution (induction over group rank), and each pass extends the
    exact prefix of every group by at least one record, so the loop
    terminates; the cap merely bounds the worst case, handing the
    block to the rounds loop instead.
    """
    n = len(values_sorted)
    counter_max = (1 << spec.counter_bits) - 1
    inc, dec = spec.counter_inc, spec.counter_dec
    last_init = _table_init(state, "last", groups)
    s0_init = _table_init(state, "stride", groups)
    c0_init = _table_init(state, "conf", groups)
    last_before = _prev_in_group(values_sorted, groups.is_start, last_init)
    d = (values_sorted - last_before) & MASK32
    pos = np.arange(n, dtype=np.int64)
    rank = groups.rank
    start = groups.start
    max_size = int(groups.group_sizes.max())
    gate = np.ones(n, dtype=bool)
    correct_sorted = None
    conf_after = None
    stride_before = None
    converged = False
    j_before = np.empty(n, dtype=np.int64)
    for _ in range(_STRIDE_MAX_ITERS):
        # Latest gate-open position strictly before each record, in
        # its group; the stride it wrote is d there (warm s0 if none).
        cand = np.where(gate, pos, np.int64(-1))
        np.maximum.accumulate(cand, out=cand)
        j_before[0] = -1
        j_before[1:] = cand[:-1]
        in_group = j_before >= start
        stride_before = np.where(in_group, d[np.maximum(j_before, 0)],
                                 s0_init)
        fresh = stride_before == d
        if correct_sorted is not None and np.array_equal(fresh,
                                                         correct_sorted):
            converged = True
            break
        correct_sorted = fresh
        conf_after = _conf_scan(correct_sorted, rank, inc, dec, counter_max,
                                c0_init, max_size)
        gate = _prev_in_group(conf_after, groups.is_start,
                              c0_init) < counter_max
    if not converged:
        return None
    predicted = (groups.unsort((last_before + stride_before) & MASK32)
                 if want_predicted else None)
    correct = groups.unsort(correct_sorted)
    stride_after = np.where(gate, d, stride_before)
    return predicted, correct, {
        "last": groups.final_table(state, "last", spec.entries,
                                   values_sorted),
        "stride": groups.final_table(state, "stride", spec.entries,
                                     stride_after),
        "conf": groups.final_table(state, "conf", spec.entries, conf_after),
    }


def _stride_rounds(spec, groups, values_sorted, state, want_predicted):
    """Stride kernel as lane rounds + scalar tail: the small-block path."""
    n = len(values_sorted)
    # One lane per level-1 group, longest first, so the active lanes of
    # every round form a prefix of the arrays.
    lane_order = np.argsort(-groups.group_sizes, kind="stable")
    lane_start = groups.group_starts[lane_order]
    lane_size = groups.group_sizes[lane_order]
    lane_key = groups.keys_sorted[lane_start]
    lanes = len(lane_key)
    counter_max = (1 << spec.counter_bits) - 1
    inc, dec = spec.counter_inc, spec.counter_dec
    if state is None:
        last = np.zeros(lanes, dtype=np.int64)
        stride = np.zeros(lanes, dtype=np.int64)
        conf = np.zeros(lanes, dtype=np.int64)
    else:
        # Fancy indexing copies, so the lanes are free to mutate.
        last = state["last"][lane_key]
        stride = state["stride"][lane_key]
        conf = state["conf"][lane_key]
    predictions_sorted = np.zeros(n, dtype=np.int64)
    scratch = np.empty(lanes, dtype=np.int64)
    round_no = 0
    active = lanes
    while True:
        while active > 0 and lane_size[active - 1] <= round_no:
            active -= 1
        if active < _STRIDE_LANE_CUTOFF:
            break
        at = lane_start[:active] + round_no
        observed = values_sorted[at]
        prediction = np.bitwise_and(last[:active] + stride[:active], MASK32,
                                    out=scratch[:active])
        predictions_sorted[at] = prediction
        correct = prediction == observed
        # The replace gate reads the counter *before* this outcome --
        # same ordering as StridePredictor.update.
        replace = conf[:active] < counter_max
        conf[:active] += np.where(correct, inc, -dec)
        np.clip(conf[:active], 0, counter_max, out=conf[:active])
        np.copyto(stride[:active],
                  (observed - last[:active]) & MASK32, where=replace)
        last[:active] = observed
        round_no += 1
    if active > 0:
        # A handful of very long groups remain: finish them record by
        # record on plain ints (cheaper than near-empty vector rounds),
        # materialising only each lane's own unprocessed slice.
        for lane in range(active):
            size = int(lane_size[lane])
            base = int(lane_start[lane])
            lane_last = int(last[lane])
            lane_stride = int(stride[lane])
            lane_conf = int(conf[lane])
            tail = values_sorted[base + round_no:base + size].tolist()
            tail_predictions = []
            for observed in tail:
                prediction = (lane_last + lane_stride) & MASK32
                tail_predictions.append(prediction)
                replace = lane_conf < counter_max
                if prediction == observed:
                    lane_conf = min(lane_conf + inc, counter_max)
                else:
                    lane_conf = max(lane_conf - dec, 0)
                if replace:
                    lane_stride = (observed - lane_last) & MASK32
                lane_last = observed
            predictions_sorted[base + round_no:base + size] = tail_predictions
            last[lane] = lane_last
            stride[lane] = lane_stride
            conf[lane] = lane_conf
    predicted = (groups.unsort(predictions_sorted)
                 if want_predicted else None)
    correct = groups.unsort(predictions_sorted == values_sorted)
    return predicted, correct, {
        key: _store(state, key, spec.entries, lane_key, lane_values)
        for key, lane_values in (("last", last), ("stride", stride),
                                 ("conf", conf))
    }


def _run_stride(spec, ctx, state=None, want_predicted=True):
    groups, values_sorted = ctx.pc_groups(spec.entries)
    if len(values_sorted) >= _STRIDE_FIXPOINT_MIN_N:
        result = _stride_fixpoint(spec, groups, values_sorted, state,
                                  want_predicted)
        if result is not None:
            return result
    return _stride_rounds(spec, groups, values_sorted, state, want_predicted)


def _run_last_value(spec, ctx, state=None, want_predicted=True):
    groups, values_sorted = ctx.pc_groups(spec.entries)
    init = _table_init(state, "values", groups)
    predicted_sorted = _prev_in_group(values_sorted, groups.is_start, init)
    predicted = groups.unsort(predicted_sorted) if want_predicted else None
    correct = groups.unsort(predicted_sorted == values_sorted)
    return predicted, correct, {
        "values": groups.final_table(state, "values", spec.entries,
                                     values_sorted),
    }


def _run_fcm(spec, ctx, state=None, want_predicted=True):
    hash_spec = spec.hash  # kind 'fs' guaranteed by supports()
    groups, values_sorted = ctx.pc_groups(spec.l1_entries)
    s0 = _table_init(state, "l1", groups)
    s0_arr = s0 if isinstance(s0, np.ndarray) else None
    state_after = _fs_states(values_sorted, groups.rank,
                             hash_spec.index_bits, hash_spec.shift, s0_arr)
    # The prediction reads -- and the update then writes -- the level-2
    # slot of the state *before* the record; for the FS hash the state
    # is the index.  Since read and write hit the same slot, the level-2
    # read is again a prev-in-group, this time grouped by slot.
    slots = groups.unsort(_prev_in_group(state_after, groups.is_start, s0))
    if ctx.probe.enabled:
        ctx.probe.observe_l2(spec, slots)
    slot_groups = _Groups(slots, spec.l2_entries)
    l2_init = _table_init(state, "l2", slot_groups)
    slot_values_sorted = ctx.values[slot_groups.order]
    predicted_sorted = _prev_in_group(slot_values_sorted,
                                      slot_groups.is_start, l2_init)
    predicted = (slot_groups.unsort(predicted_sorted)
                 if want_predicted else None)
    correct = slot_groups.unsort(predicted_sorted == slot_values_sorted)
    return predicted, correct, {
        "l1": groups.final_table(state, "l1", spec.l1_entries, state_after),
        "l2": slot_groups.final_table(state, "l2", spec.l2_entries,
                                      slot_values_sorted),
    }


def _run_dfcm(spec, ctx, state=None, want_predicted=True):
    hash_spec = spec.hash
    groups, values_sorted = ctx.pc_groups(spec.l1_entries)
    last_init = _table_init(state, "last", groups)
    h0 = _table_init(state, "hist", groups)
    h0_arr = h0 if isinstance(h0, np.ndarray) else None
    last_before = _prev_in_group(values_sorted, groups.is_start, last_init)
    strides = (values_sorted - last_before) & MASK32
    state_after = _fs_states(strides, groups.rank,
                             hash_spec.index_bits, hash_spec.shift, h0_arr)
    stored = _store_strides(strides, spec.stride_bits)
    slots = groups.unsort(_prev_in_group(state_after, groups.is_start, h0))
    if ctx.probe.enabled:
        ctx.probe.observe_l2(spec, slots)
    slot_groups = _Groups(slots, spec.l2_entries)
    l2_init = _table_init(state, "l2", slot_groups)
    stored_by_slot = groups.unsort(stored)[slot_groups.order]
    l2_read = slot_groups.unsort(
        _prev_in_group(stored_by_slot, slot_groups.is_start, l2_init))
    # predicted = last + l2_read (mod 2^32), so the prediction is
    # correct exactly where the level-2 read equals the actual stride.
    correct = l2_read == groups.unsort(strides)
    predicted = ((groups.unsort(last_before) + l2_read) & MASK32
                 if want_predicted else None)
    return predicted, correct, {
        "last": groups.final_table(state, "last", spec.l1_entries,
                                   values_sorted),
        "hist": groups.final_table(state, "hist", spec.l1_entries,
                                   state_after),
        "l2": slot_groups.final_table(state, "l2", spec.l2_entries,
                                      stored_by_slot),
    }


def _run_stride2d(spec, ctx, state=None, want_predicted=True):
    groups, values_sorted = ctx.pc_groups(spec.entries)
    last_init = _table_init(state, "last", groups)
    s1_init = _table_init(state, "s1", groups)
    s2_init = _table_init(state, "s2", groups)
    last_before = _prev_in_group(values_sorted, groups.is_start, last_init)
    new_stride = (values_sorted - last_before) & MASK32
    s2_before = _prev_in_group(new_stride, groups.is_start, s2_init)
    promote = new_stride == s2_before  # same stride twice in a row
    # s1 before record k is the stride at the latest promotion strictly
    # before k in the same group (the warm/initial s1 if none): a
    # running maximum over promotion positions, validated against the
    # group start.
    pos = np.arange(len(values_sorted), dtype=np.int64)
    promo_pos = np.maximum.accumulate(np.where(promote, pos, -1))
    promo_before = np.empty_like(promo_pos)
    promo_before[0] = -1
    promo_before[1:] = promo_pos[:-1]
    in_group = promo_before >= groups.start
    s1_before = np.where(in_group,
                         new_stride[np.maximum(promo_before, 0)], s1_init)
    # predicted = last + s1 (mod 2^32): correct iff s1 equals the delta.
    correct = groups.unsort(s1_before == new_stride)
    predicted = (groups.unsort((last_before + s1_before) & MASK32)
                 if want_predicted else None)
    s1_after = np.where(promote, new_stride, s1_before)
    return predicted, correct, {
        "last": groups.final_table(state, "last", spec.entries,
                                   values_sorted),
        "s1": groups.final_table(state, "s1", spec.entries, s1_after),
        "s2": groups.final_table(state, "s2", spec.entries, new_stride),
    }


def _run_oracle_hybrid(spec, ctx, state=None, want_predicted=True):
    correct_any = None
    tables = {}
    predicted_first = None
    for i, component in enumerate(spec.components):
        prefix = f"c{i}."
        comp_in = (None if state is None else
                   {k[len(prefix):]: v for k, v in state.items()
                    if k.startswith(prefix)})
        # Only the first component's predictions are ever surfaced; the
        # others contribute nothing but their correctness mask.
        predicted, correct, comp_state = _KERNELS[component.family](
            component, ctx, comp_in,
            want_predicted=want_predicted and i == 0)
        if correct_any is None:
            correct_any = correct
        else:
            correct_any |= correct
        for key, table in comp_state.items():
            tables[prefix + key] = table
        if i == 0:
            predicted_first = predicted
    return predicted_first, correct_any, tables


_KERNELS = {
    "last_value": _run_last_value,
    "stride": _run_stride,
    "stride2d": _run_stride2d,
    "fcm": _run_fcm,
    "dfcm": _run_dfcm,
    "oracle_hybrid": _run_oracle_hybrid,
}


class BatchEngine:
    """Vectorised engine over NumPy tables; scalar fallback otherwise."""

    name = "batch"

    @classmethod
    def supports(cls, spec) -> bool:
        """True when every table in *spec* has a vectorised kernel."""
        family = spec.family
        if family in ("fcm", "dfcm"):
            return spec.hash.kind == "fs"
        if family == "oracle_hybrid":
            return all(cls.supports(c) for c in spec.components)
        return family in ("last_value", "stride", "stride2d")

    def run(self, spec, trace, want_state: bool = False) -> EngineResult:
        if not self.supports(spec):
            return ScalarEngine().run(spec, trace, want_state)
        total = len(trace)
        if total == 0:
            state = spec.extract_state(spec.build()) if want_state else None
            return EngineResult(0, 0, self.name, state)
        ctx = _KernelContext(trace.pcs.astype(np.int64),
                             trace.values.astype(np.int64))
        # Counting needs no predicted-value array at all.
        _, correct, state = _KERNELS[spec.family](spec, ctx, None,
                                                  want_predicted=False)
        return EngineResult(int(correct.sum()), total, self.name,
                            state if want_state else None)

