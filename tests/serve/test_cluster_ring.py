"""Rendezvous hashing: uniformity, stability, minimal disruption."""

import pytest

from repro.serve.cluster.ring import RendezvousRing, rendezvous_score

IDS = list(range(1, 10_001))


def placement(ring, ids):
    """Each session id's owner on *ring*."""
    return {sid: ring.assign(sid) for sid in ids}


class TestScore:
    def test_deterministic(self):
        assert rendezvous_score(3, 17) == rendezvous_score(3, 17)

    def test_64_bit_range(self):
        score = rendezvous_score(0, 1)
        assert 0 <= score < (1 << 64)

    def test_distinct_pairs_distinct_scores(self):
        scores = {rendezvous_score(w, s)
                  for w in range(4) for s in range(256)}
        assert len(scores) == 4 * 256  # no accidental collisions here


class TestAssign:
    def test_empty_ring_raises_lookup_error(self):
        with pytest.raises(LookupError):
            RendezvousRing().assign(1)

    def test_single_worker_gets_everything(self):
        ring = RendezvousRing([5])
        assert all(ring.assign(sid) == 5 for sid in IDS[:100])

    def test_membership_api(self):
        ring = RendezvousRing()
        ring.add(2)
        ring.add(0)
        assert ring.workers == [0, 2]
        assert 2 in ring and 1 not in ring
        assert len(ring) == 2
        ring.discard(2)
        ring.discard(2)  # idempotent
        assert ring.workers == [0]


class TestUniformity:
    def test_balanced_over_10k_ids(self):
        ring = RendezvousRing([0, 1, 2])
        counts = {0: 0, 1: 0, 2: 0}
        for sid in IDS:
            counts[ring.assign(sid)] += 1
        assert sum(counts.values()) == len(IDS)
        expected = len(IDS) / 3
        for worker, count in counts.items():
            assert abs(count - expected) / expected < 0.10, \
                f"worker {worker} got {count} of {len(IDS)}"


class TestStability:
    def test_same_placement_across_instances(self):
        a = RendezvousRing([0, 1, 2])
        b = RendezvousRing([2, 1, 0])  # construction order irrelevant
        assert placement(a, IDS[:1000]) == placement(b, IDS[:1000])

    def test_restarted_slot_inherits_placement(self):
        ring = RendezvousRing([0, 1])
        before = placement(ring, IDS[:1000])
        ring.discard(0)
        ring.add(0)  # a replacement process in the same slot
        assert placement(ring, IDS[:1000]) == before


class TestMinimalDisruption:
    def test_leave_moves_only_the_dead_workers_sessions(self):
        ring = RendezvousRing([0, 1, 2])
        before = placement(ring, IDS)
        ring.discard(1)
        after = placement(ring, IDS)
        for sid in IDS:
            if before[sid] != 1:
                assert after[sid] == before[sid], \
                    f"session {sid} moved without cause"
            else:
                assert after[sid] != 1

    def test_join_steals_roughly_its_share_and_nothing_else(self):
        ring = RendezvousRing([0, 1, 2])
        before = placement(ring, IDS)
        ring.add(3)
        after = placement(ring, IDS)
        moved = [sid for sid in IDS if after[sid] != before[sid]]
        # Everything that moved went TO the new worker.
        assert all(after[sid] == 3 for sid in moved)
        share = len(moved) / len(IDS)
        assert 0.15 < share < 0.35  # ~1/4, generously bounded
