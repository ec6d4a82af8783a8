"""Supervisor collection: stuck drains, and what workers ship home.

A worker treats SIGTERM as a drain request, so a worker stuck in its
drain ignores further SIGTERMs.  Once ``_collect``'s deadline passes the
supervisor must kill it outright rather than send one more SIGTERM.

A worker buffers one telemetry event per request for its whole life
when it collects, so it collects only if a run is recording when it is
spawned; a fleet started inside a run still forwards its spans.
"""

import multiprocessing
import signal
import time

from repro.core.spec import DFCMSpec
from repro.harness import executor
from repro.serve.client import ServeClient
from repro.serve.cluster.supervisor import ClusterSupervisor, WorkerHandle
from repro.telemetry import run as telemetry_run_module
from repro.telemetry.export import find_run, read_events


def ignore_sigterm(conn) -> None:
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    conn.send("ready")
    time.sleep(120)


def test_collect_kills_a_worker_that_ignores_sigterm():
    ctx = multiprocessing.get_context("spawn")
    parent_conn, child_conn = ctx.Pipe()
    process = ctx.Process(target=ignore_sigterm, args=(child_conn,),
                          daemon=True)
    process.start()
    child_conn.close()
    try:
        assert parent_conn.poll(60) and parent_conn.recv() == "ready"
        handle = WorkerHandle(index=0, process=process, conn=parent_conn,
                              pid=process.pid, requested_stop=True)
        supervisor = ClusterSupervisor(1)
        supervisor._signal(handle)
        started = time.monotonic()
        assert supervisor._collect(handle, timeout=0.5) is None
        assert not process.is_alive()
        assert process.exitcode == -signal.SIGKILL
        assert time.monotonic() - started < 10
        assert handle.collected
    finally:
        if process.is_alive():
            process.kill()
        process.join(5)
        parent_conn.close()


def step_worker(supervisor, requests):
    """Open one session on worker 0 and send it *requests* STEP_BLOCKs."""
    with ServeClient(port=supervisor.handles[0].port) as client:
        session = client.open_session(DFCMSpec(64, 256))
        for i in range(requests):
            client.step_block(session, [0x400 + 4 * (i % 7)] * 4,
                              [i, i + 1, i + 2, i + 3])


def test_no_events_ship_home_without_a_run(monkeypatch):
    shipped = []
    monkeypatch.setattr(executor, "forward_worker_events",
                        lambda index, events: shipped.append(len(events)))
    assert not telemetry_run_module.enabled()
    supervisor = ClusterSupervisor(1).start()
    try:
        step_worker(supervisor, 500)
    finally:
        finals = supervisor.stop()
    assert finals and finals[0]["requests_batched"] >= 500
    assert shipped == []


def test_a_fleet_started_in_a_run_forwards_worker_spans(tmp_path):
    run = telemetry_run_module.start_run(tmp_path, command="cluster")
    try:
        supervisor = ClusterSupervisor(1).start()
        try:
            step_worker(supervisor, 20)
        finally:
            supervisor.stop()
    finally:
        telemetry_run_module.finish_run()
    spans = [e for e in read_events(find_run(tmp_path, run.run_id))
             if e.get("type") == "span"
             and e.get("name") == "serve.request"]
    steps = [s for s in spans if s["attrs"]["type"] == "step_block"]
    assert len(steps) == 20
    assert {s["attrs"]["source"] for s in steps} == {"worker"}
    assert all(s["span_id"].startswith("w0:") for s in steps)
