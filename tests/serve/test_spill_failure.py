"""A spill that fails must not lose its session or wedge its shard.

The LRU evictor writes the victim's arena before it leaves the shard.
When that write raises -- here one injected ``ENOSPC`` -- the victim
stays resident and keeps serving, the failure is counted, the shard
keeps answering, and the graceful stop still returns.
"""

import errno

from repro.core.spec import DFCMSpec
from repro.core.state import ArenaStore
from repro.serve import service
from repro.serve.client import ServeClient
from repro.serve.server import ServerThread
from repro.serve.session import Session


def workload(n, seed):
    pcs = [0x400 + 4 * ((i * 5 + seed) % 11) for i in range(n)]
    values = [(7 * i + 3 * seed + (i % 3)) & 0xFFFFFFFF for i in range(n)]
    return pcs, values


SPEC = DFCMSpec(64, 256)


def one_failed_save(monkeypatch):
    """Make the next armed ``ArenaStore.save`` raise ENOSPC once;
    returns ``(arm, failed)``: call ``arm()``, read the failed ids."""
    real_save = ArenaStore.save
    armed, failed = [], []

    def save(self, session_id, *args, **kwargs):
        if armed and not failed:
            failed.append(session_id)
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_save(self, session_id, *args, **kwargs)

    monkeypatch.setattr(ArenaStore, "save", save)
    # A wedged shard would otherwise hold stop() for its full deadline.
    monkeypatch.setattr(service, "_STOP_TIMEOUT_S", 15.0)
    return lambda: armed.append(True), failed


def stepper(client, references):
    def step(sid, seed):
        pcs, values = workload(24, seed)
        got = client.step_block(sid, pcs, values)
        want = references.setdefault(sid, Session(0, SPEC)).step_block(
            pcs, values)
        assert (list(got[0]), got[1]) == (list(want[0]), want[1])
    return step


def serve(tmp_path):
    return ServerThread(state_dir=tmp_path, max_resident=1,
                        request_timeout=5.0).start()


def test_failed_spill_keeps_the_victim_resident(tmp_path, monkeypatch):
    arm, failed = one_failed_save(monkeypatch)
    references = {}
    server = serve(tmp_path)
    try:
        with ServeClient(port=server.port, timeout=10.0) as client:
            step = stepper(client, references)
            a = client.open_session(SPEC)
            b = client.open_session(SPEC)  # spills a
            step(b, 1)
            arm()
            # Reloading a evicts b, whose spill fails: b stays resident.
            step(a, 2)
            assert failed == [b]
            assert b not in ArenaStore(tmp_path).session_ids()
            for seed in range(3, 9):  # the shard keeps answering
                step(b if seed % 2 else a, seed)
            stats = client.stats(0)
            assert stats["spill_failures_total"] == 1
            assert stats["sessions_resident"] == 1  # later spills work
            for sid in (a, b):
                closed = client.close_session(sid)
                assert closed["hits"] == references[sid].hits
                assert closed["predictions"] == \
                    references[sid].predictions
    finally:
        final = server.stop()  # raises if the shard is wedged
    assert final["spill_failures_total"] == 1


def test_open_whose_spill_fails_still_opens(tmp_path, monkeypatch):
    arm, failed = one_failed_save(monkeypatch)
    references = {}
    server = serve(tmp_path)
    try:
        with ServeClient(port=server.port, timeout=10.0) as client:
            step = stepper(client, references)
            a = client.open_session(SPEC)
            step(a, 1)
            arm()
            b = client.open_session(SPEC)  # its eviction of a fails
            assert failed == [a]
            for seed in range(2, 6):
                step(a if seed % 2 else b, seed)
            for sid in (a, b):
                assert client.close_session(sid)["hits"] == \
                    references[sid].hits
    finally:
        final = server.stop()
    assert final["spill_failures_total"] == 1
