"""End-to-end service tests over real sockets (thread-hosted server)."""

import asyncio
import gc
import json
import logging
import threading
import time

import pytest

from repro.core.spec import DFCMSpec, StrideSpec
from repro.core.state import ArenaStore
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import ServerThread
from repro.serve.session import Session
from tests.serve.test_obs import http_get, parse_prometheus


def workload(n, seed=0):
    pcs, values = [], []
    for i in range(n):
        pcs.append(0x400 + 4 * ((i + seed) % 7))
        values.append((11 * i + seed * 3 + (i % 4)) & 0xFFFFFFFF)
    return pcs, values


def hold_batcher(server, until):
    """Keep the worker busy until ``until()`` holds, as a long batch
    would.

    The worker is already waiting for the request it takes next; from
    the batch after that one, it stays off its queue while ``until()``
    is false, so requests sent meanwhile queue up behind it.  (Blocking
    inside a session would not do: execution runs on the event loop,
    so the burst would wait in the socket, not in the queue.)
    """
    batcher = server.server.batcher
    take = batcher.next_batch

    async def busy_then_next_batch():
        while not until():
            await asyncio.sleep(0.001)
        return await take()

    batcher.next_batch = busy_then_next_batch
    return batcher


def wait_queued(batcher, n, timeout=30.0):
    deadline = time.monotonic() + timeout
    while batcher.qsize() < n:
        assert time.monotonic() < deadline, f"{batcher.qsize()}/{n} queued"
        time.sleep(0.005)


def unretrieved_exceptions(caplog):
    """asyncio's complaints about futures whose exception nobody read."""
    gc.collect()
    return [r.getMessage() for r in caplog.records
            if r.name == "asyncio" and "never retrieved" in r.getMessage()]


class TestRoundTrips:
    def test_mixed_ops_match_local_session(self):
        spec = DFCMSpec(64, 256)
        reference = Session(0, spec)
        with ServerThread() as server, \
                ServeClient(port=server.port) as client:
            session = client.open_session(spec)
            assert session >= 1
            pcs, values = workload(60)
            for i, (pc, value) in enumerate(zip(pcs, values)):
                if i % 3 == 0:
                    assert client.predict(session, pc) == \
                        reference.predict(pc)
                    assert client.outcome(session, pc, value) == \
                        reference.outcome(pc, value)
                elif i % 3 == 1:
                    assert client.step(session, pc, value) == \
                        reference.step(pc, value)
                else:
                    block = ([pc, pc + 4], [value, value + 9])
                    got_pred, got_hits = client.step_block(session, *block)
                    want_pred, want_hits = reference.step_block(*block)
                    assert list(got_pred) == list(want_pred)
                    assert got_hits == want_hits
            stats = client.close_session(session)
            assert stats["hits"] == reference.hits
            assert stats["predictions"] == reference.predictions

    def test_windowed_session_flush_and_stats(self):
        with ServerThread() as server, \
                ServeClient(port=server.port) as client:
            session = client.open_session(DFCMSpec(64, 256), window=4)
            for pc, value in zip(*workload(10)):
                client.step(session, pc, value)
            assert client.flush(session) == 4
            stats = client.stats(session)
            assert stats["mode"] == "scalar"
            assert stats["window"] == 4
            assert stats["pending_updates"] == 4
            assert stats["outcomes"] == 10

    def test_server_stats(self):
        with ServerThread() as server, \
                ServeClient(port=server.port) as client:
            client.open_session(StrideSpec(64))
            stats = client.stats(0)
            assert stats["schema"] == 1
            assert stats["sessions_open"] == 1
            assert stats["connections_open"] == 1
            assert stats["draining"] is False


class TestErrors:
    def test_unknown_session(self):
        with ServerThread() as server, \
                ServeClient(port=server.port) as client:
            with pytest.raises(ServeError) as err:
                client.step(12345, 4, 7)
            assert err.value.code == protocol.ErrorCode.UNKNOWN_SESSION

    def test_closed_session_is_unknown(self):
        with ServerThread() as server, \
                ServeClient(port=server.port) as client:
            session = client.open_session(StrideSpec(64))
            client.close_session(session)
            with pytest.raises(ServeError) as err:
                client.close_session(session)
            assert err.value.code == protocol.ErrorCode.UNKNOWN_SESSION

    def test_bad_spec(self):
        with ServerThread() as server, \
                ServeClient(port=server.port) as client:
            with pytest.raises(ServeError) as err:
                client.request(protocol.FrameType.OPEN_SESSION,
                               protocol.encode_open_session(
                                   {"family": "no_such_family"}, 0))
            assert err.value.code == protocol.ErrorCode.BAD_SPEC

    def test_unknown_frame_type(self):
        with ServerThread() as server, \
                ServeClient(port=server.port) as client:
            with pytest.raises(ServeError) as err:
                client.request(0x55, b"")
            assert err.value.code == protocol.ErrorCode.UNKNOWN_TYPE

    def test_connection_survives_errors(self):
        with ServerThread() as server, \
                ServeClient(port=server.port) as client:
            with pytest.raises(ServeError):
                client.step(99, 4, 7)
            session = client.open_session(StrideSpec(64))
            assert client.step(session, 4, 7)[1] in (0, 1)


class TestConcurrency:
    def test_concurrent_clients_each_match_reference(self):
        spec = DFCMSpec(64, 256)
        failures = []

        def one_client(port, seed):
            try:
                reference = Session(0, spec)
                with ServeClient(port=port) as client:
                    session = client.open_session(spec)
                    pcs, values = workload(150, seed=seed)
                    for pc, value in zip(pcs, values):
                        assert client.step(session, pc, value) == \
                            reference.step(pc, value)
                    stats = client.close_session(session)
                    assert stats["hits"] == reference.hits
            except Exception as exc:  # noqa: BLE001 - reported by the test
                failures.append(exc)

        with ServerThread() as server:
            threads = [threading.Thread(target=one_client,
                                        args=(server.port, seed))
                       for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert not failures

    def test_pipelined_steps_fuse(self):
        # STEPs pipelined while the worker is busy queue up behind it;
        # once free, the worker takes them as batches of max_batch (64)
        # and fuses each into one kernel call.
        with ServerThread() as server, \
                ServeClient(port=server.port) as client:
            free = threading.Event()
            batcher = hold_batcher(server, free.is_set)
            session = client.open_session(StrideSpec(64))
            pcs, values = workload(80)
            for pc, value in zip(pcs, values):
                client.send(protocol.FrameType.STEP,
                            protocol.encode_session_op(session, pc, value))
            wait_queued(batcher, len(pcs))
            free.set()
            results = [protocol.decode_step_result(client.recv().body)
                       for _ in range(len(pcs))]
            assert len(results) == 80
            # Parity with a local replay despite fusion.
            reference = Session(0, StrideSpec(64))
            expected, _ = reference.step_block(pcs, values)
            assert [p for p, _hit in results] == list(expected)
        assert server.final_stats["fused_records"] == len(pcs)


class TestQueue:
    def test_healthz_reports_the_queue_depth(self):
        with ServerThread(obs_port=0) as server, \
                ServeClient(port=server.port) as client:
            free = threading.Event()
            batcher = hold_batcher(server, free.is_set)
            session = client.open_session(StrideSpec(64))
            pcs, values = workload(5)
            for pc, value in zip(pcs, values):
                client.send(protocol.FrameType.STEP,
                            protocol.encode_session_op(session, pc, value))
            wait_queued(batcher, len(pcs))
            _, _, body = http_get(server.obs_port, "/healthz")
            free.set()
            for _ in pcs:
                client.recv()
        assert json.loads(body)["queue_depth"] == 5


def scraped(server, name):
    """The unlabelled sample *name* in the server's ``/metrics`` body
    (0 for a metric with no sample yet)."""
    _, _, body = http_get(server.obs_port, "/metrics")
    samples, _types = parse_prometheus(body)
    return sum(value for _labels, value in samples.get(name, []))


class TestMetricsMatchStats:
    def test_quarantined_arena_closes_its_session_in_the_gauge(
            self, tmp_path):
        # A spilled session whose arena turns out corrupt is gone: STATS
        # and the sessions_open gauge must both stop counting it.
        with ServerThread(state_dir=tmp_path, max_resident=1,
                          obs_port=0) as server, \
                ServeClient(port=server.port) as client:
            lost = client.open_session(StrideSpec(64))
            client.step(lost, 0x40, 7)
            kept = client.open_session(StrideSpec(64))  # spills `lost`
            path = ArenaStore(tmp_path).path_for(lost)
            assert client.stats(0)["sessions_spilled"] == 1
            path.write_bytes(b"\0" * 64)
            with pytest.raises(ServeError) as err:
                client.step(lost, 0x40, 7)
            assert err.value.code == protocol.ErrorCode.UNKNOWN_SESSION
            stats = client.stats(0)
            assert stats["sessions_open"] == 1
            assert scraped(server, "repro_serve_sessions_open") == 1
            assert scraped(server, "repro_serve_sessions_spilled") == 0
            assert set(server.server._session_opened_at) == {kept}

    def test_records_count_once_where_served(self):
        # A block refused before it runs serves nothing; a served block
        # moves STATS and the counter by its record count.
        pcs, values = workload(64)
        with ServerThread(obs_port=0) as server, \
                ServeClient(port=server.port) as client:
            session = client.open_session(StrideSpec(64))

            def figures():
                return (client.stats(0)["records_served"],
                        scraped(server, "repro_serve_records_total"))

            before_stats, before_counter = figures()
            with pytest.raises(ServeError) as err:
                client.step_block(session + 1000, pcs, values)
            assert err.value.code == protocol.ErrorCode.UNKNOWN_SESSION
            assert figures() == (before_stats, before_counter)
            client.step_block(session, pcs, values)
            assert figures() == (before_stats + 64, before_counter + 64)


class TestEviction:
    def test_spills_the_least_recently_used_spillable_session(
            self, tmp_path):
        # max_resident=2 and a windowed session that cannot spill at the
        # front of the LRU order: every spill must take the least
        # recently used session that can.  A spill writes a fresh arena
        # file (a new inode), which names the victim.
        store = ArenaStore(tmp_path)

        def inodes():
            return {sid: store.path_for(sid).stat().st_ino
                    for sid in store.session_ids()}

        def spilled_by(action):
            before = inodes()
            action()
            return sorted(sid for sid, ino in inodes().items()
                          if before.get(sid) != ino)

        with ServerThread(state_dir=tmp_path, max_resident=2) as server, \
                ServeClient(port=server.port) as client:
            ids = []

            def open_session(window=0):
                ids.append(client.open_session(StrideSpec(64), window))

            def step(sid):
                return lambda: client.step(sid, 0x40, 7)

            # LRU order, least recent first, in the comments.
            assert spilled_by(lambda: open_session(window=2)) == []  # w
            assert spilled_by(open_session) == []                  # w a
            windowed, a = ids
            assert spilled_by(open_session) == [a]                 # w b
            b = ids[2]
            assert {sid % 2 for sid in ids} == {0, 1}
            assert spilled_by(step(windowed)) == []                # b w
            assert spilled_by(step(a)) == [b]                      # w a
            assert spilled_by(step(windowed)) == []                # a w
            assert spilled_by(open_session) == [a]                 # w c
            c = ids[3]
            assert spilled_by(step(b)) == [c]                      # w b
            assert spilled_by(step(a)) == [b]                      # w a
            stats = client.stats(0)
        assert stats["evictions_total"] == 5
        assert stats["reloads_total"] == 3
        assert stats["sessions_resident"] == 2


class TestTimeout:
    def test_held_blocks_time_out_in_order_and_still_execute(self, caplog):
        # The worker is held, so nothing queued executes: each pipelined
        # block is answered TIMEOUT once request_timeout has passed
        # since it reached the head of the connection.  Released, the
        # worker still executes both (their results are dropped), and
        # the next block's predictions show it.  A third, for a
        # session that does not exist, fails after its TIMEOUT: that
        # late exception must not be left unretrieved.
        spec = DFCMSpec(64, 256)
        blocks = [workload(16, seed) for seed in range(3)]
        free = threading.Event()
        caplog.set_level(logging.ERROR, logger="asyncio")
        with ServerThread(request_timeout=0.3) as server, \
                ServeClient(port=server.port) as client:
            hold_batcher(server, free.is_set)
            session = client.open_session(spec)
            started = time.monotonic()
            for pcs, values in blocks[:2]:
                client.send(protocol.FrameType.STEP_BLOCK,
                            protocol.encode_step_block(session, pcs, values))
            client.send(protocol.FrameType.STEP_BLOCK,
                        protocol.encode_step_block(session + 99, [4], [7]))
            for _ in range(3):
                with pytest.raises(ServeError) as err:
                    client.recv()
                assert err.value.code == protocol.ErrorCode.TIMEOUT
                assert time.monotonic() - started >= 0.3
            free.set()
            predicted, hits = client.step_block(session, *blocks[2])
            reference = Session(0, spec)
            for pcs, values in blocks[:2]:
                reference.step_block(pcs, values)
            want, want_hits = reference.step_block(*blocks[2])
            assert list(predicted) == list(want)
            assert hits == want_hits
            assert client.stats(session)["predictions"] == \
                reference.predictions
        assert unretrieved_exceptions(caplog) == []


class TestDrain:
    def test_stop_answers_every_inflight_request(self):
        # The worker stays busy until the drain begins, so the whole
        # pipelined burst is still queued when stop() starts; stop()
        # must still answer every request.
        with ServerThread() as server:
            client = ServeClient(port=server.port)
            batcher = hold_batcher(server, lambda: server.server._stopping)
            session = client.open_session(StrideSpec(64))
            pcs, values = workload(50)
            for pc, value in zip(pcs, values):
                client.send(protocol.FrameType.STEP,
                            protocol.encode_session_op(session, pc, value))
            wait_queued(batcher, len(pcs))
            stats = server.stop()
            # Every pipelined request was answered before the server
            # closed the connection; the responses sit in the socket.
            for _ in range(len(pcs)):
                frame = client.recv()
                assert frame.request_type == protocol.FrameType.STEP
            assert client.recv() is None  # clean EOF after the drain
            client.close()
            assert stats["draining"] is True

    def test_stop_finishes_a_dispatch_blocked_on_a_full_queue(self):
        # queue_depth=2 and the worker held until the drain: two STEPs
        # fill the queue and the reader blocks submitting the third.
        # The drain lets that dispatch finish -- its request was
        # accepted, so it is answered -- and reads nothing after it.
        with ServerThread(queue_depth=2) as server:
            client = ServeClient(port=server.port)
            batcher = hold_batcher(server, lambda: server.server._stopping)
            session = client.open_session(StrideSpec(64))
            pcs, values = workload(6)
            for pc, value in zip(pcs, values):
                client.send(protocol.FrameType.STEP,
                            protocol.encode_session_op(session, pc, value))
            wait_queued(batcher, 2)
            time.sleep(0.2)  # the reader reaches the third STEP's submit
            stopper = threading.Thread(target=server.stop)
            stopper.start()
            answers = []
            while (frame := client.recv()) is not None:
                answers.append(protocol.decode_step_result(frame.body))
            stopper.join(timeout=60)
            client.close()
        reference = Session(0, StrideSpec(64))
        assert answers == [reference.step(pc, value)
                           for pc, value in zip(pcs[:3], values[:3])]

    def test_concurrent_stops_return_the_same_stats(self):
        # Two callers stop one server; the second leaves join() only
        # after the first's stop() has returned (and cleared the
        # thread), so it must not touch the thread attribute again.
        server = ServerThread().start()
        thread = server._thread
        real_join = thread.join
        both_joining = threading.Barrier(2, timeout=30)
        order = []
        lock = threading.Lock()
        first_returned = threading.Event()

        def join(timeout=None):
            both_joining.wait()
            with lock:
                order.append(threading.current_thread())
                leader = len(order) == 1
            if not leader:
                assert first_returned.wait(30)
            real_join(timeout)

        thread.join = join
        results, errors = {}, []

        def stop():
            try:
                results[threading.current_thread().name] = server.stop()
            except Exception as exc:  # noqa: BLE001 - fails the test
                errors.append(exc)
            finally:
                if order and order[0] is threading.current_thread():
                    first_returned.set()

        callers = [threading.Thread(target=stop, name=f"stop-{i}")
                   for i in range(2)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
        assert not any(caller.is_alive() for caller in callers)
        assert errors == []
        assert len(results) == 2
        first, second = results.values()
        assert first is second is server.final_stats
        assert first["draining"] is True

    def test_open_rejected_while_draining(self):
        server = ServerThread().start()
        try:
            with ServeClient(port=server.port) as client:
                client.stats(0)  # connection fully accepted first
                server.server._stopping = True
                with pytest.raises(ServeError) as err:
                    client.open_session(StrideSpec(64))
                assert err.value.code == protocol.ErrorCode.SHUTTING_DOWN
        finally:
            server.stop()
