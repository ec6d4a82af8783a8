from collections import Counter

import numpy as np

from perfbench import gen

NAMES = ["compress", "cc1", "go", "ijpeg", "li", "m88ksim", "perl", "vortex"]


def plan(seed, seconds=20.0, rate=60.0):
    return gen.fleet_plan(seed, seconds, rate, NAMES, 100_000, 2)


def test_same_seed_gives_an_identical_schedule():
    assert plan(5) == plan(5)
    assert gen.sweep_order(5, 224) == gen.sweep_order(5, 224)
    assert gen.solo_offset(5, 100_000) == gen.solo_offset(5, 100_000)


def test_another_seed_gives_another_schedule():
    assert plan(5) != plan(6)
    assert gen.sweep_order(5, 224) != gen.sweep_order(6, 224)


def test_streams_of_one_seed_differ():
    # names that share their first bytes still get their own generator
    assert gen.sweep_order(5, 224, 0) != gen.sweep_order(5, 224, 1)
    assert (gen.rng_for(5, "fleet-sessions").integers(1 << 30)
            != gen.rng_for(5, "fleet-requests").integers(1 << 30))


def test_sweep_order_is_a_permutation():
    assert sorted(gen.sweep_order(9, 224)) == list(range(224))


def test_fleet_shape_does_not_depend_on_the_seed():
    shapes = set()
    for seed in range(4):
        sessions, requests = plan(seed)
        assert len(sessions) == gen.FLEET_SESSIONS
        shapes.add(tuple((s.family, s.window) for s in sessions))
        windowed = [s for s in sessions if s.window]
        assert len(windowed) == gen.FLEET_SESSIONS // gen.FLEET_WINDOWED_EVERY
        assert {s.family for s in windowed} == {"dfcm"}
        assert Counter(s.trace for s in sessions) == Counter(
            {name: 6 for name in NAMES})
        assert len(requests) == 1200
        per_session = Counter(r.session for r in requests)
        shapes.add(tuple(per_session[i] for i in range(len(sessions))))
        for index in range(len(sessions)):
            sizes = Counter(r.size for r in requests if r.session == index)
            assert set(sizes) <= set(gen.FLEET_BLOCK_SIZES)
            assert max(sizes.values()) - min(sizes.values()) <= 1
    assert len(shapes) == 2


def test_every_round_has_the_same_session_mix():
    _, requests = plan(2, seconds=30.0, rate=100.0)
    rounds = [Counter(r.session for r in
                      requests[first:first + gen.FLEET_ROUND])
              for first in range(0, len(requests), gen.FLEET_ROUND)]
    assert len(rounds) > 3 and len(requests) % gen.FLEET_ROUND == 120
    for mix in rounds[:-1]:
        assert mix == rounds[0]
        assert len(mix) == gen.FLEET_SESSIONS
    assert sum(rounds[-1].values()) == 120


def test_due_times_are_sorted_within_the_run():
    _, requests = plan(3, seconds=10.0)
    due = [r.due for r in requests]
    assert due == sorted(due)
    assert 0.0 <= due[0] and due[-1] < 10.0


def test_each_session_replays_its_trace_contiguously():
    sessions, requests = plan(4)
    cursor = {i: s.offset for i, s in enumerate(sessions)}
    for request in requests:
        assert request.start == cursor[request.session] % 100_000
        cursor[request.session] += request.size


def test_popularity_is_zipf_skewed():
    _, requests = plan(8, seconds=200.0)
    counts = np.bincount([r.session for r in requests],
                         minlength=gen.FLEET_SESSIONS)
    assert counts[0] > counts[1] > counts[7] > counts[40]


def test_ring_wraps_around():
    assert gen.ring(10, 8, 4).tolist() == [8, 9, 0, 1]
