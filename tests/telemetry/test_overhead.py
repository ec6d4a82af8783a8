"""The overhead guarantee: disabled telemetry must be (nearly) free.

The CI guard from the issue: with no telemetry run active,
``measure_accuracy`` on a 100k-record trace must be within 5% of an
uninstrumented baseline loop (a verbatim copy of the pre-telemetry hot
loop).  Min-of-several interleaved timings keeps scheduler noise out of
the ratio.
"""

import time

import numpy as np

from repro.core.dfcm import DFCMPredictor
from repro.core.engines.batch import (_KERNELS, _NOOP_PROBE, BatchEngine,
                                      _KernelContext)
from repro.core.spec import DFCMSpec
from repro.harness.simulate import measure_accuracy
from repro.telemetry.run import enabled
from repro.telemetry.spans import NOOP_SPAN, span
from tests.conftest import interleaved, repeating_trace, stride_trace

RECORDS = 100_000
REPEATS = 5
MAX_PAIRS = 12


def build_trace():
    third = RECORDS // 3
    return interleaved(
        stride_trace("s", 0x1000, 0, 4, third),
        repeating_trace("ctx", 0x1004, [3, 8, 1, 9, 4, 7], third // 6 + 1),
        stride_trace("t", 0x1008, 17, 9, third),
    )


def baseline_count(predictor, records):
    # The pre-telemetry measurement loop, verbatim.
    correct = 0
    predict = predictor.predict
    update = predictor.update
    for pc, value in records:
        if predict(pc) == value:
            correct += 1
        update(pc, value)
    return correct


def test_disabled_measure_accuracy_within_5_percent():
    assert not enabled()
    trace = build_trace()
    records = trace.records()
    assert len(records) >= RECORDS * 0.9

    def fresh():
        return DFCMPredictor(1 << 10, 1 << 10)

    # Warm up allocators and branch caches once per path.
    expected = baseline_count(fresh(), records)
    assert measure_accuracy(fresh(), trace).correct == expected

    def baseline():
        assert baseline_count(fresh(), records) == expected

    def instrumented():
        assert measure_accuracy(fresh(), trace).correct == expected

    # Interleaved pairs, alternating which side runs first so drift
    # hits both equally; best-vs-best, and pairs beyond REPEATS only
    # while the guard has not yet passed (flake armour, capped -- the
    # 5% bound itself never moves).
    best = {baseline: float("inf"), instrumented: float("inf")}
    for pair in range(MAX_PAIRS):
        for side in ((baseline, instrumented) if pair % 2 == 0
                     else (instrumented, baseline)):
            start = time.perf_counter()
            side()
            best[side] = min(best[side], time.perf_counter() - start)
        if (pair + 1 >= REPEATS
                and best[instrumented] <= 1.05 * best[baseline]):
            break

    baseline_best, instrumented_best = best[baseline], best[instrumented]
    ratio = instrumented_best / baseline_best
    assert ratio <= 1.05, (
        f"disabled-telemetry measure_accuracy is {ratio:.3f}x the "
        f"uninstrumented baseline ({instrumented_best:.4f}s vs "
        f"{baseline_best:.4f}s); the 5% overhead budget is blown")


def test_disabled_batch_probe_within_5_percent():
    """The batch-path guard: with no telemetry run active, a full
    BatchEngine counting run (kernel probe attribute check + the
    table-usage gating in ``run()``) must be within 5% of a bare
    kernel invocation -- the pre-probe hot path."""
    assert not enabled()
    spec = DFCMSpec(1 << 10, 1 << 10)
    trace = build_trace()

    def bare_kernel():
        # run() verbatim, minus _maybe_probe_tables: the dtype
        # conversions belong to the pre-probe hot path as well.
        ctx = _KernelContext(trace.pcs.astype(np.int64),
                             trace.values.astype(np.int64))
        _, correct, _ = _KERNELS[spec.family](spec, ctx, None,
                                              want_predicted=False)
        return int(correct.sum())

    engine = BatchEngine()
    expected = bare_kernel()
    engine.run(spec, trace)  # warm caches once per path

    baseline_best = instrumented_best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        assert bare_kernel() == expected
        baseline_best = min(baseline_best, time.perf_counter() - start)

        start = time.perf_counter()
        result = engine.run(spec, trace)
        instrumented_best = min(instrumented_best,
                                time.perf_counter() - start)
        assert result.correct == expected

    ratio = instrumented_best / baseline_best
    assert ratio <= 1.05, (
        f"disabled-probe batch run is {ratio:.3f}x the bare kernel "
        f"({instrumented_best:.4f}s vs {baseline_best:.4f}s); the 5% "
        f"overhead budget is blown")


def test_disabled_batch_probe_is_shared_noop_singleton():
    # Kernels check one attribute on a process-wide singleton; nothing
    # is allocated per run when telemetry is off.
    contexts = [_KernelContext(np.array([1]), np.array([2]))
                for _ in range(20)]
    assert {id(ctx.probe) for ctx in contexts} == {id(_NOOP_PROBE)}
    assert not _NOOP_PROBE.enabled


def test_disabled_span_is_allocation_free():
    # The fast path hands out one shared singleton -- no object is
    # constructed per call, which is what keeps span() safe to call
    # unconditionally in hot code.
    spans = {id(span(f"name_{i}", index=i)) for i in range(100)}
    assert spans == {id(NOOP_SPAN)}
