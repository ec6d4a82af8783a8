"""Cluster failover: every way a session moves, racing worker deaths.

A session's tables must stay bit-identical to the offline reference
however the fleet moves them, so each test below replays the served
blocks through an offline :class:`~repro.serve.session.Session`.

- Real worker processes: a dead worker's sessions without an arena are
  lost at once and delay no other session; a SIGTERM under a telemetry
  run (a drained message far larger than the pipe buffer) neither
  stalls the failover nor keeps the slot down.
- In-process workers (:class:`ThreadFleet`, a test-only supervisor):
  a kill between a migration's RELEASE and ADOPT leaves one holder, a
  stop during a rebalance returns, and a hypothesis state machine draws random interleavings of opens,
  steps, snapshots, migrations, kills, drains and restarts against a
  model of each session's live and durable state.
"""

import asyncio
import copy
import os
import shutil
import signal
import tempfile
import threading
import time

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.core.spec import DFCMSpec
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError
from repro.serve.cluster import ClusterThread
from repro.serve.cluster.ring import RendezvousRing
from repro.serve.cluster.router import Router
from repro.serve.server import PredictionServer
from repro.serve.service import ServiceThread
from repro.serve.session import Session
from repro.telemetry import run as telemetry_run_module

SPEC = DFCMSpec(64, 256)


def workload(n, seed=0):
    pcs, values = [], []
    for i in range(n):
        pcs.append(0x400 + 4 * ((i + seed) % 7))
        values.append((11 * i + seed * 3 + (i % 4)) & 0xFFFFFFFF)
    return pcs, values


def result(step):
    """A ``step_block`` result, served or offline, as plain ints."""
    predicted, hits = step
    return [int(p) for p in predicted], hits


def wait_for(condition, timeout, message):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, message
        time.sleep(0.002)


def open_on(client, router, worker, window, count):
    """Open sessions until *count* of them (with *window*) live on
    *worker*; returns those."""
    mine = []
    while len(mine) < count:
        sid = client.open_session(SPEC, window=window)
        if router.session_owner(sid) == worker:
            mine.append(sid)
    return mine


# ------------------------------------------------------- real processes

def test_lost_sessions_do_not_delay_the_rest(tmp_path):
    """The victim holds one window-0 session, snapshotted just before
    the kill, and four windowed sessions, which have no arena.  The
    windowed ones are lost at once; the window-0 session's next block
    is answered promptly and continues its stream bit-identically."""
    pcs, values = workload(400)
    reference = Session(0, SPEC)
    reference.step_block(pcs[:200], values[:200])
    want = result(reference.step_block(pcs[200:], values[200:]))
    with ClusterThread(workers=2, state_dir=str(tmp_path),
                       auto_restart=False) as cluster, \
            ServeClient("127.0.0.1", cluster.port, timeout=30.0) as client:
        router = cluster.router
        victim = 0
        (sid,) = open_on(client, router, victim, 0, 1)
        open_on(client, router, victim, 4, 4)
        client.step_block(sid, pcs[:200], values[:200])
        client.snapshot(sid)
        os.kill(cluster.supervisor.handles[victim].pid, signal.SIGKILL)
        started = time.monotonic()
        got = result(client.step_block(sid, pcs[200:], values[200:]))
        elapsed = time.monotonic() - started
        assert got == want
        assert elapsed < 1.0, f"next block answered after {elapsed:.3f}s"
        assert router.session_owner(sid) == 1 - victim
        wait_for(lambda: client.stats(0)["sessions_lost_total"] >= 4, 10,
                 "the windowed sessions were never counted lost")
        assert client.stats(0)["sessions_lost_total"] == 4


def test_sigterm_under_a_telemetry_run_restarts_the_slot(tmp_path):
    """A worker spawned inside a telemetry run buffers one event per
    request (~210 bytes each) and ships them all home when it drains,
    far more than the pipe holds: the failover must read the pipe for
    the worker to exit, re-home its session and let the slot
    restart."""
    requests = 3000
    pcs, values = workload(4 * requests + 64)
    reference = Session(0, SPEC)
    telemetry_run_module.start_run(tmp_path / "telemetry",
                                   command="cluster")
    try:
        with ClusterThread(workers=2,
                           state_dir=str(tmp_path / "state")) as cluster, \
                ServeClient("127.0.0.1", cluster.port, timeout=15.0,
                            reconnect=0) as client:
            sid = client.open_session(SPEC)
            victim = cluster.router.session_owner(sid)
            for start in range(0, 4 * requests, 4):
                block = pcs[start:start + 4], values[start:start + 4]
                assert result(client.step_block(sid, *block)) == \
                    result(reference.step_block(*block))
            os.kill(cluster.supervisor.handles[victim].pid, signal.SIGTERM)
            block = pcs[4 * requests:], values[4 * requests:]
            started = time.monotonic()
            got = result(client.step_block(sid, *block))
            elapsed = time.monotonic() - started
            assert got == result(reference.step_block(*block))
            assert elapsed < 5.0, f"next block answered after {elapsed:.3f}s"

            def restarted():
                # The rebalance that follows the restart has finished
                # once nothing is parked.
                stats = client.stats(0)
                return (stats["workers_alive"] == 2
                        and any(w["restarts"] >= 1
                                for w in stats["workers"])
                        and stats["sessions_parked"] == 0)

            wait_for(restarted, 30, "the drained slot never came back")
            assert client.stats(0)["sessions_lost_total"] == 0
    finally:
        telemetry_run_module.finish_run()


# ---------------------------------------------------- in-process fleet

class _ThreadWorker:
    """One in-process worker: a :class:`PredictionServer` on an event
    loop of its own, with what the router reads of a worker handle."""

    def __init__(self, index, state_dir, restarts):
        self.index = index
        self.restarts = restarts
        self.pid = os.getpid()
        self.obs_port = None
        self.requested_stop = False
        self.server = PredictionServer(state_dir=state_dir,
                                       adopt_arenas=False, slos=[])
        listening = threading.Event()
        self.thread = threading.Thread(
            target=asyncio.run, args=(self._serve(listening),),
            name=f"fleet-worker-{index}", daemon=True)
        self.thread.start()
        assert listening.wait(10), f"worker {index} did not start"
        self.port = self.server.port

    async def _serve(self, listening):
        self._loop = asyncio.get_running_loop()
        self._end = self._loop.create_future()
        await self.server.start()
        listening.set()
        if await self._end == "drain":
            await self.server.stop()
            return
        # A crash: the sockets close and nothing spills; asyncio.run
        # cancels the server's tasks on the way out.
        self.server._listener.close()
        for conn in self.server._connections:
            conn.writer.transport.abort()

    @property
    def alive(self) -> bool:
        return self.thread.is_alive()

    def end(self, how: str) -> None:
        """``"kill"`` (no drain) or ``"drain"`` (the graceful stop a
        SIGTERM starts, which spills).  Returns at once."""
        self._loop.call_soon_threadsafe(self._end.set_result, how)


class ThreadFleet:
    """A test-only supervisor of in-process workers sharing one state
    directory (``adopt_arenas=False``, no SLOs), exposing what the
    router reads of a :class:`ClusterSupervisor`."""

    def __init__(self, workers, state_dir):
        self.n_workers = workers
        self.worker_kwargs = {"state_dir": state_dir}
        self.handles = {}
        for index in range(workers):
            self._spawn(index)

    def _spawn(self, index):
        old = self.handles.get(index)
        self.handles[index] = _ThreadWorker(
            index, self.worker_kwargs["state_dir"],
            old.restarts + 1 if old else 0)
        return self.handles[index]

    def _accepted(self, index):
        """The worker, once it has accepted the router's connection: a
        socket its loop never served would outlive the loop, where a
        process's closes as it exits."""
        handle = self.handles[index]
        wait_for(lambda: handle.server._connections, 10,
                 f"worker {index} never accepted the router")
        return handle

    def kill(self, index):
        handle = self._accepted(index)
        handle.end("kill")
        handle.thread.join(10)

    def drain(self, index):
        self._accepted(index).end("drain")

    def collect(self, handle, timeout):
        handle.thread.join(timeout)

    def restart_worker(self, index):
        if self.handles[index].alive:
            raise RuntimeError(f"worker {index} is still alive")
        return self._spawn(index)

    def describe(self):
        return [{"worker": h.index, "pid": h.pid, "port": h.port,
                 "obs_port": None, "alive": h.alive, "exitcode": None,
                 "restarts": h.restarts,
                 "requested_stop": h.requested_stop, "uptime_s": 0.0}
                for _, h in sorted(self.handles.items())]

    def stop(self):
        for handle in self.handles.values():
            handle.requested_stop = True
            if handle.alive:
                handle.end("drain")
                handle.thread.join(10)


async def _without_tick(router):
    """Stop the router's housekeeping loop: restarts happen only when
    a test calls ``router._tick()``."""
    router._tick_task.cancel()


def start_router(fleet):
    cluster = ServiceThread(lambda: Router(fleet)).start()
    cluster.call(_without_tick(cluster.service))
    return cluster


def holders(fleet, sid):
    """The live workers listing *sid*, resident or spilled."""
    return [h.index for _, h in sorted(fleet.handles.items())
            if h.alive and (sid in h.server.sessions
                            or sid in h.server.spilled)]


def test_kill_between_release_and_adopt_leaves_one_holder(tmp_path,
                                                          monkeypatch):
    """The owner dies right after answering RELEASE, and the migration
    target is not its ring successor: the failover must leave the
    session to the mover, so exactly one worker adopts it."""
    fleet = ThreadFleet(3, str(tmp_path))
    cluster = start_router(fleet)
    router = cluster.service
    control = Router._control

    async def control_then_kill(self, backend, frame_type, session_id):
        report = await control(self, backend, frame_type, session_id)
        if frame_type == protocol.FrameType.RELEASE_SESSION:
            fleet.kill(backend.index)
        return report

    monkeypatch.setattr(Router, "_control", control_then_kill)
    blocks = [workload(32, seed) for seed in range(4)]
    reference = Session(0, SPEC)
    try:
        with ServeClient("127.0.0.1", cluster.port, timeout=10.0) as client:
            sid = client.open_session(SPEC)
            assert result(client.step_block(sid, *blocks[0])) == \
                result(reference.step_block(*blocks[0]))
            owner = router.session_owner(sid)
            others = sorted(set(fleet.handles) - {owner})
            successor = RendezvousRing(others).assign(sid)
            (target,) = set(others) - {successor}
            assert cluster.call(router.migrate(sid, target))
            wait_for(lambda: router._backends[owner].lost
                     and not router._parked, 10, "failover never ended")
            assert holders(fleet, sid) == [router.session_owner(sid)]
            assert router.session_owner(sid) == target
            for block in blocks[1:]:
                assert result(client.step_block(sid, *block)) == \
                    result(reference.step_block(*block))
            assert router.sessions_lost == 0
    finally:
        cluster.stop()
        fleet.stop()


def test_a_failed_collect_still_fails_over(tmp_path, monkeypatch):
    """Stitching a dead worker's telemetry in can fail after the worker
    is gone: its sessions are re-homed all the same, and its slot
    restarts."""
    fleet = ThreadFleet(2, str(tmp_path))
    collect = fleet.collect

    def collect_then_fail(handle, timeout):
        collect(handle, timeout)
        raise ValueError("the drained telemetry did not merge")

    monkeypatch.setattr(fleet, "collect", collect_then_fail)
    cluster = start_router(fleet)
    router = cluster.service
    blocks = [workload(32, seed) for seed in range(2)]
    reference = Session(0, SPEC)
    try:
        with ServeClient("127.0.0.1", cluster.port, timeout=10.0) as client:
            (sid,) = open_on(client, router, 0, 0, 1)
            assert result(client.step_block(sid, *blocks[0])) == \
                result(reference.step_block(*blocks[0]))
            client.snapshot(sid)
            fleet.kill(0)
            assert result(client.step_block(sid, *blocks[1])) == \
                result(reference.step_block(*blocks[1]))
            assert router.session_owner(sid) == 1
            cluster.call(router._tick())
            assert fleet.handles[0].alive
            assert fleet.handles[0].restarts == 1
    finally:
        cluster.stop()
        fleet.stop()


def test_stop_during_a_rebalance_returns(tmp_path, monkeypatch):
    """The router stops while the rebalance that follows a drained
    slot's restart is releasing a session, and the cancel that ends its
    housekeeping loop is lost -- as Python 3.11's ``wait_for`` loses a
    cancel that arrives together with the answer it waits for.  The
    stop must still return."""
    fleet = ThreadFleet(2, str(tmp_path))
    cluster = ServiceThread(lambda: Router(fleet)).start()
    router = cluster.service
    control = Router._control
    releasing = threading.Event()

    async def release_losing_the_cancel(self, backend, frame_type,
                                        session_id):
        if (frame_type == protocol.FrameType.RELEASE_SESSION
                and backend.alive):
            releasing.set()
            try:
                await asyncio.sleep(10)  # until the stop's cancel lands
            except asyncio.CancelledError:
                pass
        return await control(self, backend, frame_type, session_id)

    monkeypatch.setattr(Router, "_control", release_losing_the_cancel)
    stopper = threading.Thread(target=cluster.stop, daemon=True)
    try:
        with ServeClient("127.0.0.1", cluster.port, timeout=10.0) as client:
            (sid,) = open_on(client, router, 0, 0, 1)
            client.step_block(sid, *workload(32))
            # The drain spills the session, the failover re-homes it on
            # worker 1, and the tick restarts slot 0 and moves it home.
            fleet.drain(0)
            assert releasing.wait(10), "the rebalance never began"
        stopper.start()
        stopper.join(10)
        assert not stopper.is_alive(), "the router did not stop"
        assert router.session_owner(sid) == 0
    finally:
        fleet.stop()


# ------------------------------------------------ random interleavings

class _Modelled:
    """One session as the model sees it: its offline twin, and a copy
    of it at its last durable point (snapshot, release or drain)."""

    def __init__(self, window):
        self.window = window
        self.live = Session(0, SPEC, window=window)
        self.durable = None
        self.lost = False

    def make_durable(self):
        self.durable = copy.deepcopy(self.live)


class FailoverInterleavings(RuleBasedStateMachine):
    """Random failure interleavings over a 3-worker in-process fleet.

    Which way a kill racing a migration goes is timing, so no rule's
    precondition or draw depends on it: a lost session stays in the
    model (its frames must be refused), and targets and victims are
    drawn from the live workers.

    Invariants: every step's hits and predictions equal the model's;
    ``sessions_lost_total`` counts exactly the sessions with no durable
    point whose worker died; each live session has exactly one live
    holder, the router's owner; and once the fleet is idle nothing is
    parked."""

    def __init__(self):
        super().__init__()
        self.state_dir = tempfile.mkdtemp(prefix="failover-machine-")
        self.fleet = ThreadFleet(3, self.state_dir)
        self.cluster = start_router(self.fleet)
        self.router = self.cluster.service
        self.client = ServeClient("127.0.0.1", self.cluster.port,
                                  timeout=10.0)
        self.sessions = {}
        self.lost = 0

    def teardown(self):
        self.client.close()
        self.cluster.stop()
        self.fleet.stop()
        shutil.rmtree(self.state_dir, ignore_errors=True)

    # ------------------------------------------------------- helpers

    def live_workers(self):
        return [i for i, h in sorted(self.fleet.handles.items())
                if h.alive]

    def owned_by(self, index):
        return [sid for sid in self.sessions
                if self.router.session_owner(sid) == index]

    def lose(self, sid):
        self.sessions[sid].lost = True
        self.lost += 1

    def worker_dies(self, sids):
        """The model's side of a crash: each session resumes from its
        durable copy, or is lost."""
        for sid in sids:
            modelled = self.sessions[sid]
            if modelled.durable is None:
                self.lose(sid)
            else:
                modelled.live = copy.deepcopy(modelled.durable)

    def refused(self, call):
        """*call* (a client request for a lost session) is answered
        UNKNOWN_SESSION."""
        try:
            call()
        except ServeError as exc:
            assert exc.code == protocol.ErrorCode.UNKNOWN_SESSION
        else:
            raise AssertionError("a lost session was served")

    def settle(self):
        """Wait until every dead worker's failover has collected it and
        no session is parked."""
        backends = self.router._backends
        wait_for(lambda: not self.router._parked and all(
            backends[i].collected.is_set()
            for i, h in self.fleet.handles.items() if not h.alive),
            10, "the fleet never settled")

    # --------------------------------------------------------- rules

    @precondition(lambda self: len(self.sessions) < 6)
    @rule(window=st.sampled_from([0, 4]))
    def open(self, window):
        sid = self.client.open_session(SPEC, window=window)
        self.sessions[sid] = _Modelled(window)

    @precondition(lambda self: self.sessions)
    @rule(data=st.data(), n=st.integers(1, 24), seed=st.integers(0, 50))
    def step(self, data, n, seed):
        sid = data.draw(st.sampled_from(sorted(self.sessions)))
        pcs, values = workload(n, seed)
        if self.sessions[sid].lost:
            self.refused(lambda: self.client.step_block(sid, pcs, values))
            return
        assert result(self.client.step_block(sid, pcs, values)) == \
            result(self.sessions[sid].live.step_block(pcs, values))

    @precondition(lambda self: any(m.window == 0
                                   for m in self.sessions.values()))
    @rule(data=st.data())
    def snapshot(self, data):
        sid = data.draw(st.sampled_from(sorted(
            s for s, m in self.sessions.items() if m.window == 0)))
        if self.sessions[sid].lost:
            self.refused(lambda: self.client.snapshot(sid))
            return
        self.client.snapshot(sid)
        self.sessions[sid].make_durable()

    @precondition(lambda self: self.sessions
                  and len(self.live_workers()) >= 2)
    @rule(data=st.data())
    def migrate(self, data):
        sid = data.draw(st.sampled_from(sorted(self.sessions)))
        target = data.draw(st.sampled_from(self.live_workers()))
        modelled = self.sessions[sid]
        if modelled.lost:
            return
        owner = self.router.session_owner(sid)
        moved = self.cluster.call(self.router.migrate(sid, target))
        # A windowed session refuses to release: it stays put.
        assert moved == (modelled.window == 0 and target != owner)
        if moved:
            modelled.make_durable()
            assert self.router.session_owner(sid) == target

    @precondition(lambda self: len(self.live_workers()) >= 2)
    @rule(data=st.data())
    def kill(self, data):
        victim = data.draw(st.sampled_from(self.live_workers()))
        self.worker_dies(self.owned_by(victim))
        self.fleet.kill(victim)
        self.settle()

    @precondition(lambda self: len(self.live_workers()) >= 2)
    @rule(data=st.data())
    def drain(self, data):
        victim = data.draw(st.sampled_from(self.live_workers()))
        for sid in self.owned_by(victim):
            if self.sessions[sid].window == 0:
                self.sessions[sid].make_durable()  # spilled on the way down
            else:
                self.lose(sid)
        self.fleet.drain(victim)
        self.fleet.handles[victim].thread.join(10)
        self.settle()

    @precondition(lambda self: len(self.live_workers()) < 3)
    @rule()
    def restart(self):
        before = {sid: self.router.session_owner(sid)
                  for sid in self.sessions}
        self.cluster.call(self.router._tick())
        assert len(self.live_workers()) == 3
        for sid, owner in before.items():
            if self.router.session_owner(sid) != owner:
                self.sessions[sid].make_durable()  # rebalanced home
        self.settle()

    @precondition(lambda self: self.sessions
                  and len(self.live_workers()) >= 2)
    @rule(data=st.data(), kill_owner=st.booleans(),
          delay=st.sampled_from([0.0, 0.0005, 0.001, 0.002, 0.005]))
    def kill_during_migrate(self, data, kill_owner, delay):
        sid = data.draw(st.sampled_from(sorted(self.sessions)))
        target = data.draw(st.sampled_from(self.live_workers()))
        owner = self.router.session_owner(sid)
        if owner is None or owner == target:
            # Nothing to race: a plain kill of the drawn worker.
            self.worker_dies(self.owned_by(target))
            self.fleet.kill(target)
            self.settle()
            return
        victim = owner if kill_owner else target
        owned = [s for s in self.owned_by(victim) if s != sid]
        releases = self.fleet.handles[owner].server.releases
        moving = asyncio.run_coroutine_threadsafe(
            self.router.migrate(sid, target), self.cluster._loop)
        time.sleep(delay)
        self.fleet.kill(victim)
        try:
            moving.result(10)
        except ValueError:
            pass  # the target was already dead when the move began
        self.settle()
        if self.fleet.handles[owner].server.releases > releases:
            # The owner released it: its arena holds the live state.
            self.sessions[sid].make_durable()
        elif kill_owner:
            owned.append(sid)
        self.worker_dies(owned)

    # ---------------------------------------------------- invariants

    @invariant()
    def one_live_holder_per_session(self):
        for sid, modelled in self.sessions.items():
            if not modelled.lost:
                assert holders(self.fleet, sid) == \
                    [self.router.session_owner(sid)], sid

    @invariant()
    def losses_are_counted(self):
        assert self.router.sessions_lost == self.lost

    @invariant()
    def nothing_parked_once_idle(self):
        assert not self.router._parked


TestFailoverInterleavings = FailoverInterleavings.TestCase
TestFailoverInterleavings.settings = settings(
    max_examples=200, stateful_step_count=10, deadline=None,
    derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow])
