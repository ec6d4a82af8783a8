"""Scalar/batch engine equivalence: counts and table state.

The batch engine's contract is *bit-identical* replay: for every
supported spec and any trace, it must return the same correct/total
counts and the same canonical table state as the scalar reference
loop.  The traces here mix stride phases, repeating patterns, value
noise and pc aliasing so the kernels' grouping logic is exercised
across level-1 collisions and mid-trace pattern changes.
"""

import numpy as np
import pytest

from repro.core.engines import BatchEngine, ScalarEngine, run_spec
from repro.core.spec import (DFCMSpec, DelayedSpec, FCMSpec, HashSpec,
                             LastNSpec, LastValueSpec, MetaHybridSpec,
                             OracleHybridSpec, StrideSpec,
                             TwoDeltaStrideSpec)
from repro.trace.trace import ValueTrace
from tests.conftest import interleaved, repeating_trace, stride_trace

BATCH_SPECS = [
    LastValueSpec(64),
    StrideSpec(64),
    StrideSpec(64, counter_bits=2, counter_inc=1, counter_dec=1),
    TwoDeltaStrideSpec(64),
    FCMSpec(256, 64),
    FCMSpec(256, 64, hash=HashSpec(6, "fs", order=2, shift=3)),
    DFCMSpec(256, 64),
    DFCMSpec(256, 64, stride_bits=8),
    OracleHybridSpec((StrideSpec(64), DFCMSpec(256, 64))),
]

FALLBACK_SPECS = [
    LastNSpec(64),
    MetaHybridSpec((StrideSpec(64), FCMSpec(256, 64)), 64),
    DelayedSpec(DFCMSpec(256, 64), 8),
    FCMSpec(256, 64, hash=HashSpec(6, "xor", order=3)),
]


def random_trace(seed: int, length: int = 3000,
                 static_pcs: int = 300) -> ValueTrace:
    """Pseudo-random mixed workload: strided, repeating and noisy pcs.

    ``static_pcs`` above the level-1 entry count forces index aliasing.
    """
    rng = np.random.default_rng(seed)
    pcs = rng.integers(0, static_pcs, size=length) * 4 + 0x400000
    kind = pcs % 3
    noise = rng.integers(0, 50, size=length)
    values = np.where(kind == 0, pcs * 3 + np.arange(length),   # strided
                      np.where(kind == 1, noise % 7,            # repeating
                               noise * 2654435761))             # noisy
    return ValueTrace(f"rand{seed}", pcs & 0xFFFFFFFF,
                      values & 0xFFFFFFFF)


def structured_trace() -> ValueTrace:
    return interleaved(
        stride_trace("s1", 0x1000, 0, 3, 400),
        repeating_trace("r1", 0x2000, [5, 9, 2, 7], 100),
        stride_trace("s2", 0x1000, 17, -2, 400),  # same pc, new phase
    )


TRACES = [random_trace(1), random_trace(2), structured_trace()]


class TestBatchEquivalence:
    @pytest.mark.parametrize("spec", BATCH_SPECS, ids=lambda s: s.name)
    @pytest.mark.parametrize("trace", TRACES, ids=lambda t: t.name)
    def test_counts_and_state_match_scalar(self, spec, trace):
        scalar = ScalarEngine().run(spec, trace, want_state=True)
        batch = BatchEngine().run(spec, trace, want_state=True)
        assert batch.engine == "batch"
        assert (batch.correct, batch.total) == (scalar.correct,
                                                scalar.total)
        assert scalar.state.keys() == batch.state.keys()
        for key in scalar.state:
            np.testing.assert_array_equal(scalar.state[key],
                                          batch.state[key],
                                          err_msg=f"{spec.name}:{key}")

    @pytest.mark.parametrize("spec", BATCH_SPECS, ids=lambda s: s.name)
    def test_empty_trace(self, spec):
        empty = ValueTrace("empty", [], [])
        outcome = BatchEngine().run(spec, empty)
        assert (outcome.correct, outcome.total) == (0, 0)


class TestScalarFallback:
    @pytest.mark.parametrize("spec", FALLBACK_SPECS, ids=lambda s: s.name)
    def test_unsupported_family_falls_back(self, spec):
        trace = TRACES[0]
        assert not BatchEngine.supports(spec)
        scalar = ScalarEngine().run(spec, trace)
        batch = BatchEngine().run(spec, trace)
        assert batch.engine == "scalar"  # labelled with what actually ran
        assert (batch.correct, batch.total) == (scalar.correct,
                                                scalar.total)


class TestRunSpec:
    def test_engine_pinning(self):
        spec = DFCMSpec(256, 64)
        trace = TRACES[0]
        scalar = run_spec(spec, trace, "scalar")
        batch = run_spec(spec, trace, "batch")
        default = run_spec(spec, trace)
        assert scalar.engine == "scalar"
        assert batch.engine == "batch"
        assert default.engine == "batch"  # supported family routes to batch
        assert scalar.correct == batch.correct == default.correct

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            run_spec(DFCMSpec(256, 64), TRACES[0], "gpu")

    def test_auto_is_not_an_engine(self):
        # The default already routes by spec; 'auto' was its twin.
        with pytest.raises(ValueError):
            run_spec(DFCMSpec(256, 64), TRACES[0], "auto")

    def test_environment_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "scalar")
        assert run_spec(DFCMSpec(256, 64), TRACES[0]).engine == "batch"
