"""Supervisor collection ends a worker whose drain never finishes.

A worker treats SIGTERM as a drain request, so a worker stuck in its
drain ignores further SIGTERMs.  Once ``_collect``'s deadline passes the
supervisor must kill it outright rather than send one more SIGTERM.
"""

import multiprocessing
import signal
import time

from repro.serve.cluster.supervisor import ClusterSupervisor, WorkerHandle


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
