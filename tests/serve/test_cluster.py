"""End-to-end cluster serving: parity, hot migration, failover.

Everything here drives a real fleet -- a ClusterThread hosting a
router over spawned worker processes -- through the public client.
The invariants: served hit counts are bit-identical to the offline
engine at every fleet size; a hot migration loses and reorders
nothing; a SIGTERM'd worker's sessions re-home with zero loss; the
aggregated observability endpoints describe the whole fleet.
"""

import gc
import json
import logging
import os
import signal
import socket
import threading
import time
import urllib.request

import pytest

from repro.core.spec import DFCMSpec
from repro.harness.simulate import measure_accuracy
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError
from repro.serve.cluster import ClusterThread
from repro.serve.cluster import router as router_module
from repro.serve.session import Session
from repro.trace.trace import ValueTrace


def workload(n, seed=0):
    pcs, values = [], []
    for i in range(n):
        pcs.append(0x400 + 4 * ((i + seed) % 7))
        values.append((11 * i + seed * 3 + (i % 4)) & 0xFFFFFFFF)
    return pcs, values


def offline_hits(spec, pcs, values):
    import numpy as np
    trace = ValueTrace("cluster-test", np.asarray(pcs, dtype=np.uint32),
                       np.asarray(values, dtype=np.uint32))
    return measure_accuracy(spec, trace).correct


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """One 2-worker fleet shared by the read-mostly tests (spawning
    workers is the expensive part; failover tests build their own)."""
    state_dir = tmp_path_factory.mktemp("fleet-state")
    with ClusterThread(workers=2, state_dir=str(state_dir),
                       obs_port=0) as cluster:
        yield cluster


class TestParity:
    def test_sessions_match_offline_engine(self, fleet):
        spec = DFCMSpec(64, 256)
        pcs, values = workload(300)
        want = offline_hits(spec, pcs, values)
        with ServeClient("127.0.0.1", fleet.port) as client:
            sids = [client.open_session(spec) for _ in range(4)]
            owners = {fleet.router.session_owner(s) for s in sids}
            assert len(owners) == 2  # both workers in play
            for sid in sids:
                _, hits = client.step_block(sid, pcs, values)
                assert hits == want
            for sid in sids:
                assert client.close_session(sid)["hits"] == want

    def test_session_ids_unique_across_workers(self, fleet):
        spec = DFCMSpec(64, 256)
        with ServeClient("127.0.0.1", fleet.port) as client:
            sids = [client.open_session(spec) for _ in range(8)]
            assert len(set(sids)) == 8
            for sid in sids:
                client.close_session(sid)

    def test_cluster_stats_frame(self, fleet):
        with ServeClient("127.0.0.1", fleet.port) as client:
            stats = client.stats(0)
        assert stats["cluster"] is True
        assert stats["workers_alive"] == 2
        assert len(stats["workers"]) == 2

    def test_unknown_session_is_an_error(self, fleet):
        with ServeClient("127.0.0.1", fleet.port) as client:
            with pytest.raises(ServeError) as excinfo:
                client.step(999_999, 0x400, 1)
            assert excinfo.value.code == 4  # UNKNOWN_SESSION


class TestMigration:
    def test_hot_migration_is_seamless(self, fleet):
        spec = DFCMSpec(64, 256)
        pcs, values = workload(400)
        want = offline_hits(spec, pcs, values)
        with ServeClient("127.0.0.1", fleet.port) as client:
            sid = client.open_session(spec)
            owner = fleet.router.session_owner(sid)
            target = 1 - owner
            hits = client.step_block(sid, pcs[:200], values[:200])[1]
            assert fleet.call(fleet.router.migrate(sid, target))
            assert fleet.router.session_owner(sid) == target
            hits += client.step_block(sid, pcs[200:], values[200:])[1]
            assert hits == want
            assert client.close_session(sid)["hits"] == want

    def test_migration_under_concurrent_load(self, fleet):
        """Frames racing a migration are parked and flushed in order:
        the stream stays bit-identical."""
        spec = DFCMSpec(64, 256)
        pcs, values = workload(1200)
        want = offline_hits(spec, pcs, values)
        with ServeClient("127.0.0.1", fleet.port) as client:
            sid = client.open_session(spec)
            owner = fleet.router.session_owner(sid)
            hits = []

            def replay():
                total = 0
                for start in range(0, len(pcs), 40):
                    total += client.step_block(
                        sid, pcs[start:start + 40],
                        values[start:start + 40])[1]
                hits.append(total)

            thread = threading.Thread(target=replay)
            thread.start()
            moved = fleet.call(fleet.router.migrate(sid, 1 - owner))
            thread.join()
            assert moved
            assert hits == [want]
            client.close_session(sid)

    def test_migrate_to_current_owner_is_a_noop(self, fleet):
        spec = DFCMSpec(64, 256)
        with ServeClient("127.0.0.1", fleet.port) as client:
            sid = client.open_session(spec)
            owner = fleet.router.session_owner(sid)
            assert fleet.call(fleet.router.migrate(sid, owner)) is False
            client.close_session(sid)

    def test_scalar_session_stays_put(self, fleet):
        # Windowed sessions run scalar mode: no arena, not migratable.
        spec = DFCMSpec(64, 256)
        with ServeClient("127.0.0.1", fleet.port) as client:
            sid = client.open_session(spec, window=4)
            owner = fleet.router.session_owner(sid)
            moved = fleet.call(fleet.router.migrate(sid, 1 - owner))
            assert moved is False
            assert fleet.router.session_owner(sid) == owner
            client.step(sid, 0x400, 7)  # still serving where it was
            client.close_session(sid)

    def test_migrate_unknown_session_raises(self, fleet):
        with pytest.raises(KeyError):
            fleet.call(fleet.router.migrate(123_456_789, 0))

    def test_migrations_counted(self, fleet):
        with ServeClient("127.0.0.1", fleet.port) as client:
            assert client.stats(0)["migrations_total"] >= 2


class TestObservability:
    def test_healthz_aggregates_the_fleet(self, fleet):
        with urllib.request.urlopen(
                f"http://127.0.0.1:{fleet.obs_port}/healthz") as resp:
            health = json.loads(resp.read())
        assert health["cluster"] is True
        assert health["status"] in ("ok", "degraded")
        assert len(health["workers"]) == 2
        assert all("resident" in w for w in health["workers"])

    def test_metrics_carry_worker_labels(self, fleet):
        spec = DFCMSpec(64, 256)
        with ServeClient("127.0.0.1", fleet.port) as client:
            sid = client.open_session(spec)
            client.step(sid, 0x400, 1)
            client.close_session(sid)
        with urllib.request.urlopen(
                f"http://127.0.0.1:{fleet.obs_port}/metrics") as resp:
            text = resp.read().decode()
        assert 'worker="0"' in text
        assert 'worker="1"' in text
        assert "repro_cluster_frames_proxied_total" in text
        # HELP/TYPE lines dedup across workers.
        helps = [line for line in text.splitlines()
                 if line.startswith("# HELP repro_serve_records_total ")]
        assert len(helps) == 1

    def test_tables_rows_per_worker(self, fleet):
        spec = DFCMSpec(64, 256)
        with ServeClient("127.0.0.1", fleet.port) as client:
            sid = client.open_session(spec)
            client.step(sid, 0x400, 1)
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{fleet.obs_port}/tables") as resp:
                tables = json.loads(resp.read())
            client.close_session(sid)
        rows = tables["workers"]
        assert sorted(row["worker"] for row in rows) == \
            list(range(len(rows)))
        assert sum(row["live_bits"] for row in rows) == \
            tables["totals"]["live_bits"]
        assert tables["totals"]["storage_bits"] > 0


class TestFailover:
    def test_sigterm_worker_loses_no_sessions(self, tmp_path):
        spec = DFCMSpec(64, 256)
        pcs, values = workload(900)
        want = offline_hits(spec, pcs, values)
        with ClusterThread(workers=3, state_dir=str(tmp_path),
                           obs_port=0,
                           auto_restart=False) \
                as cluster:
            with ServeClient("127.0.0.1", cluster.port) as client:
                sids = [client.open_session(spec) for _ in range(6)]
                owners = {s: cluster.router.session_owner(s)
                          for s in sids}
                assert len(set(owners.values())) == 3
                victim_sid = sids[0]
                victim = owners[victim_sid]
                totals = {s: 0 for s in sids}
                for s in sids:
                    totals[s] += client.step_block(
                        s, pcs[:300], values[:300])[1]

                errors = []

                def replay_rest():
                    try:
                        for start in range(300, len(pcs), 30):
                            totals[victim_sid] += client.step_block(
                                victim_sid, pcs[start:start + 30],
                                values[start:start + 30])[1]
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)

                thread = threading.Thread(target=replay_rest)
                thread.start()
                time.sleep(0.02)
                os.kill(cluster.supervisor.handles[victim].pid,
                        signal.SIGTERM)
                thread.join()
                assert errors == []
                for s in sids:
                    if s != victim_sid:
                        totals[s] += client.step_block(
                            s, pcs[300:], values[300:])[1]
                # Zero loss, bit-identical streams, everything re-homed
                # off the dead worker, migrations counted.
                assert all(totals[s] == want for s in sids)
                for s in sids:
                    assert cluster.router.session_owner(s) != victim
                stats = client.stats(0)
                assert stats["sessions_lost_total"] == 0
                assert stats["migrations_total"] >= 1

    def test_auto_restart_brings_sessions_home(self, tmp_path, monkeypatch):
        monkeypatch.setattr(router_module, "_TICK_S", 0.1)
        spec = DFCMSpec(64, 256)
        pcs, values = workload(200)
        with ClusterThread(workers=2, state_dir=str(tmp_path),
                           obs_port=0) as cluster:
            with ServeClient("127.0.0.1", cluster.port) as client:
                sids = [client.open_session(spec) for _ in range(4)]
                for s in sids:
                    client.step_block(s, pcs, values)
                before = {s: cluster.router.session_owner(s)
                          for s in sids}
                victim = before[sids[0]]
                os.kill(cluster.supervisor.handles[victim].pid,
                        signal.SIGTERM)
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    stats = client.stats(0)
                    # The replacement is attached and the rebalance that
                    # follows has finished: the router parks every
                    # session it moves from the attach until the last
                    # migration completes.
                    if (stats["workers_alive"] == 2
                            and any(w["restarts"] for w in
                                    stats["workers"])
                            and stats["sessions_parked"] == 0):
                        break
                    time.sleep(0.1)
                else:
                    pytest.fail("replacement worker never came up, or "
                                "its rebalance never finished")
                # Rendezvous placement is restored exactly -- the
                # replacement slot got its predecessor's sessions back.
                after = {s: cluster.router.session_owner(s)
                         for s in sids}
                assert after == before
                for s in sids:
                    client.step(s, 0x400, 7)
                assert client.stats(0)["sessions_lost_total"] == 0


    def test_open_in_flight_at_worker_death_is_placed_afresh(self,
                                                             tmp_path):
        """An OPEN_SESSION pinned in flight at a worker that dies has no
        arena to re-home: the failover re-sends it to a live worker
        straight away, and the new session is not counted lost."""
        spec = DFCMSpec(64, 256)
        pcs, values = workload(200)
        want = offline_hits(spec, pcs, values)
        with ClusterThread(workers=2, state_dir=str(tmp_path),
                           obs_port=0,
                           auto_restart=False) \
                as cluster:
            with ServeClient("127.0.0.1", cluster.port,
                             timeout=60.0) as client:
                # The router's id counter decides where the next
                # session goes; this one only reads it.
                first_sid = client.open_session(spec)
                client.close_session(first_sid)
                victim = cluster.router.ring.assign(first_sid + 1)
                victim_pid = cluster.supervisor.handles[victim].pid
                os.kill(victim_pid, signal.SIGSTOP)
                result = {}

                def blocked_open():
                    result["sid"] = client.open_session(spec)

                thread = threading.Thread(target=blocked_open)
                thread.start()
                time.sleep(0.3)   # OPEN forwarded to the frozen worker
                os.kill(victim_pid, signal.SIGKILL)
                thread.join(timeout=60)
                assert not thread.is_alive(), "open never completed"
                sid = result["sid"]
                assert sid == first_sid + 1
                assert cluster.router.session_owner(sid) == 1 - victim
                assert client.stats(0)["sessions_lost_total"] == 0
                hits = client.step_block(sid, pcs, values)[1]
                assert hits == want


class TestDrainRestart:
    def test_fleet_drain_spills_and_next_fleet_adopts(self, tmp_path):
        spec = DFCMSpec(64, 256)
        pcs, values = workload(240)
        want = offline_hits(spec, pcs, values)
        with ClusterThread(workers=2, state_dir=str(tmp_path)) as cluster:
            with ServeClient("127.0.0.1", cluster.port) as client:
                sid = client.open_session(spec)
                first = client.step_block(sid, pcs[:120], values[:120])[1]
        # The whole fleet drained; arenas are on disk.  A fresh fleet
        # over the same state dir adopts them at router startup.
        with ClusterThread(workers=2, state_dir=str(tmp_path)) as cluster:
            assert cluster.router.adopted_at_start >= 1
            with ServeClient("127.0.0.1", cluster.port) as client:
                second = client.step_block(sid, pcs[120:], values[120:])[1]
                assert first + second == want


class TestResponsePath:
    def test_stalled_worker_times_out_and_the_block_still_runs(
            self, caplog, monkeypatch):
        # The worker is stopped with the block in flight: the router
        # answers TIMEOUT once its request timeout has passed, keeps
        # the frame pending, and drops the worker's late reply.  The
        # block still executed, as the next one's predictions show.
        monkeypatch.setattr(router_module, "_REQUEST_TIMEOUT_S", 0.5)
        spec = DFCMSpec(64, 256)
        blocks = [workload(16, seed) for seed in range(2)]
        caplog.set_level(logging.ERROR, logger="asyncio")
        with ClusterThread(workers=1) as cluster, \
                ServeClient("127.0.0.1", cluster.port) as client:
            sid = client.open_session(spec)
            worker_pid = cluster.supervisor.handles[0].pid
            os.kill(worker_pid, signal.SIGSTOP)
            try:
                started = time.monotonic()
                with pytest.raises(ServeError) as err:
                    client.step_block(sid, *blocks[0])
                assert err.value.code == protocol.ErrorCode.TIMEOUT
                assert time.monotonic() - started >= 0.5
            finally:
                os.kill(worker_pid, signal.SIGCONT)
            predicted, hits = client.step_block(sid, *blocks[1])
        reference = Session(0, spec)
        reference.step_block(*blocks[0])
        want, want_hits = reference.step_block(*blocks[1])
        assert list(predicted) == list(want)
        assert hits == want_hits
        gc.collect()
        assert [r.getMessage() for r in caplog.records
                if r.name == "asyncio"
                and "never retrieved" in r.getMessage()] == []

    def test_routed_frames_leave_in_one_send_each(self, monkeypatch):
        # The router writes a frame's length prefix and bytes together:
        # one send to the worker and one back to the client per routed
        # request, never a bare 4-byte prefix on the wire.
        spec = DFCMSpec(64, 256)
        pcs, values = workload(64)
        sends = []
        send = socket.socket.send

        def counted_send(sock, data, *args):
            if threading.current_thread().name == "repro-serve":
                sends.append(len(data))
            return send(sock, data, *args)

        with ClusterThread(workers=1) as cluster, \
                ServeClient("127.0.0.1", cluster.port) as client:
            sid = client.open_session(spec)
            monkeypatch.setattr(socket.socket, "send", counted_send)
            for _ in range(20):
                client.step_block(sid, pcs, values)
            monkeypatch.undo()
        assert len(sends) == 40, sends
        assert 4 not in sends, sends
