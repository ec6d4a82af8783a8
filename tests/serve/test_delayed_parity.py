"""Served windowed (delayed-update) sessions vs the offline harness.

The acceptance bar for the service: a session opened with window W
must produce bit-identical hit counts to the offline
``DelayedSpec(spec, W)`` replay -- the paper's delayed-update
experiment (section 4.5) served online.
"""

import numpy as np
import pytest

from repro.core.spec import DFCMSpec, DelayedSpec, FCMSpec
from repro.harness.simulate import measure_accuracy
from repro.serve.client import ServeClient
from repro.serve.server import ServerThread
from repro.trace.trace import ValueTrace

RECORDS = 400
WINDOWS = (1, 4, 16)
SPECS = (FCMSpec(64, 256), DFCMSpec(64, 256))


@pytest.fixture(scope="module")
def trace():
    """A deterministic mixed workload: strides, repeats, and noise."""
    rng = np.random.default_rng(20010127)  # HPCA 2001
    pcs = rng.choice([0x400, 0x404, 0x408, 0x40C], size=RECORDS)
    values = np.where(
        pcs == 0x400, np.arange(RECORDS) * 8,          # strided
        np.where(pcs == 0x404, 7,                      # constant
                 rng.integers(0, 50, size=RECORDS)))   # small-range noise
    return ValueTrace("parity", pcs.astype(np.int64),
                      values.astype(np.int64))


@pytest.fixture(scope="module")
def server():
    with ServerThread() as thread:
        yield thread


def offline_hits(spec, window, trace):
    return measure_accuracy(DelayedSpec(spec, window), trace).correct


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
class TestWindowedParity:
    def test_step_path(self, server, trace, spec, window):
        with ServeClient(port=server.port) as client:
            session = client.open_session(spec, window=window)
            hits = sum(
                client.step(session, int(pc), int(value))[1]
                for pc, value in zip(trace.pcs, trace.values))
            stats = client.close_session(session)
        assert hits == offline_hits(spec, window, trace)
        assert stats["hits"] == hits
        assert stats["window"] == window

    def test_step_block_path(self, server, trace, spec, window):
        pcs = [int(pc) for pc in trace.pcs]
        values = [int(v) for v in trace.values]
        with ServeClient(port=server.port) as client:
            session = client.open_session(spec, window=window)
            hits = 0
            for start in range(0, len(pcs), 64):
                _, block_hits = client.step_block(
                    session, pcs[start:start + 64],
                    values[start:start + 64])
                hits += block_hits
            # The in-flight window holds the last W updates unapplied,
            # exactly like the offline wrapper's unflushed tail.
            assert client.flush(session) == window
            client.close_session(session)
        assert hits == offline_hits(spec, window, trace)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
def test_window_zero_matches_undelayed_offline(server, trace, spec):
    """window=0 engine-mode sessions equal the plain offline replay."""
    with ServeClient(port=server.port) as client:
        session = client.open_session(spec, window=0)
        pcs = [int(pc) for pc in trace.pcs]
        values = [int(v) for v in trace.values]
        _, hits = client.step_block(session, pcs, values)
        stats = client.close_session(session)
    assert stats["mode"] == "engine"
    assert hits == measure_accuracy(spec, trace).correct


@pytest.mark.parametrize("window", (1, 4))
def test_windowed_beats_or_trails_consistently(trace, window):
    """Sanity: the delayed replay is deterministic across runs."""
    spec = DFCMSpec(64, 256)
    assert offline_hits(spec, window, trace) == \
        offline_hits(spec, window, trace)
