import numpy as np

from perfbench import fleet, sweep
from perfbench.gen import FleetRequest, FleetSession
from perfbench.parity import ParityGate, offline_hits


def test_gate_passes_only_when_every_check_matches():
    gate = ParityGate()
    assert not gate.ok  # nothing checked is not a pass
    assert gate.check("a", 3, 3)
    assert gate.ok
    assert not gate.check("b", 4, 5)
    assert not gate.ok
    assert "MISMATCH" in gate.summary()


def _records(seed, n):
    rng = np.random.default_rng(seed)
    pcs = (rng.integers(0, 64, n) * 4 + 0x400000).astype(np.int64)
    values = np.cumsum(rng.integers(0, 3, n)).astype(np.int64)
    return pcs, values


def _fake_fleet(refused=()):
    """Two sessions (plain and windowed DFCM), three blocks each, served
    by in-process sessions: the replies and counters a correct server
    gives, where it refuses the requests in *refused* unapplied."""
    from repro.serve.session import Session
    from repro.trace.trace import ValueTrace
    spec = fleet.fleet_spec("dfcm")
    plan = fleet.Plan.__new__(fleet.Plan)
    plan.traces = {"t": ValueTrace("t", *_records(1, 600))}
    plan.sessions = [FleetSession(1, "dfcm", 0, "t", 0, 0),
                     FleetSession(2, "dfcm", 4, "t", 0, 1)]
    plan.requests = [FleetRequest(0.1 * i, i % 2, 100 * (i // 2), 100)
                     for i in range(6)]
    plan.specs = [spec, spec]
    plan.session_of = np.array([r.session for r in plan.requests])
    live = [Session(1, spec), Session(2, spec, window=4)]
    loop = {"send": np.zeros(6), "hits": np.zeros(6, dtype=np.int64),
            "ok": np.ones(6, dtype=bool), "refused": np.zeros(6, dtype=bool)}
    for i, r in enumerate(plan.requests):
        if i in refused:
            loop["ok"][i], loop["refused"][i] = False, True
        else:
            loop["hits"][i] = live[r.session].step_block(*plan.records(i))[1]
    return plan, loop, [session.stats() for session in live]


def test_fleet_parity_matches_served_sessions():
    plan, loop, counters = _fake_fleet()
    gate = fleet.parity(plan, loop, counters)
    assert gate.ok
    assert gate.checked == 6  # records, hits, answered hits per session


def test_a_wrong_hit_count_fails_the_fleet_gate():
    plan, loop, counters = _fake_fleet()
    counters[1]["hits"] += 1  # the windowed session
    gate = fleet.parity(plan, loop, counters)
    assert not gate.ok
    assert "w4" in gate.mismatches[0]


def test_a_wrong_reply_fails_the_fleet_gate():
    plan, loop, counters = _fake_fleet()
    loop["hits"][2] -= 1
    gate = fleet.parity(plan, loop, counters)
    assert not gate.ok
    assert "answered hits" in gate.mismatches[0]


def test_an_unanswered_request_is_replayed_not_a_mismatch():
    plan, loop, counters = _fake_fleet()
    loop["ok"][3], loop["hits"][3] = False, 0  # applied, reply lost
    assert fleet.parity(plan, loop, counters).ok


def test_a_refused_request_is_left_out_of_the_replay():
    plan, loop, counters = _fake_fleet(refused={3})
    assert fleet.parity(plan, loop, counters).ok
    loop["refused"][3] = False  # as if it had been applied
    assert not fleet.parity(plan, loop, counters).ok


def test_offline_hits_replays_windowed_sessions_delayed():
    from repro.serve.session import Session
    spec = fleet.fleet_spec("dfcm")
    pcs, values = _records(2, 500)
    served = Session(1, spec, window=4).step_block(pcs, values)[1]
    assert offline_hits(spec, 4, "t", pcs, values) == served
    assert offline_hits(spec, 0, "t", pcs, values) != served


def test_a_wrong_cell_count_fails_the_sweep_gate():
    spec = sweep.grid_specs()[0]
    ref = {"checksums": {"li": 11},
           "correct": {sweep.cell_key(spec, "compress"): 500}}
    measured = {"ready": {"checksums": {"li": 11}},
                "cells": [[0, 500, 1000, 0.01]]}
    assert sweep.check(measured, ref).ok
    measured["cells"][0][1] = 499
    assert not sweep.check(measured, ref).ok


def test_cell_labels_follow_the_grid():
    specs = sweep.grid_specs()
    assert len(specs) * sweep.TRACES == len(sweep.L2_BITS) * 4 * 8
    for index in range(0, len(specs) * sweep.TRACES, sweep.TRACES):
        spec = specs[index // sweep.TRACES]
        kind, bits = sweep.cell_label(index).rsplit("_l2_", 1)
        level2 = spec.components[1] if kind.startswith("stride") else spec
        assert level2.family == kind.rsplit("_", 1)[-1]
        assert level2.l2_entries == 1 << int(bits)
