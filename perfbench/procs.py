"""Launching, sampling and stopping the program's processes.

The program under test is the checkout's own ``src/repro``; every
process is started as ``python -m repro ...`` with ``PYTHONPATH``
pointing there, from the checkout root, and is stopped and waited for
before the benchmark exits.
"""

from __future__ import annotations

import bisect
import json
import os
import selectors
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

from perfbench import stats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Working files of the benchmark, inside the checkout (in .gitignore).
WORK = ROOT / ".perfbench_work"
#: Seconds between two readings of the host steal counter.
STEAL_SAMPLE_S = 0.1


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_TRACE_CACHE"] = str(WORK / "traces")
    env.pop("REPRO_TELEMETRY_DIR", None)
    return env


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of a live process, in KiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise BenchError(f"no VmHWM for pid {pid}")


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class Served:
    """One ``repro serve`` or ``repro cluster serve`` process.

    Construction returns once the process has printed its
    ``listening`` event; :attr:`launch_s` is the time that took.
    """

    def __init__(self, args: List[str], ready_timeout: float = 90.0):
        WORK.mkdir(parents=True, exist_ok=True)
        self.err_path = WORK / f"serve-{os.getpid()}-{time.monotonic_ns()}.err"
        self._err = open(self.err_path, "w")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args, "--json", "--port", "0"],
            cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
            stderr=self._err, text=True)
        self.worker_pids: List[int] = []
        try:
            self.listening = self._await_listening(ready_timeout)
        except BaseException:
            self.stop()
            raise
        self.launch_s = time.perf_counter() - started
        self.port = int(self.listening["port"])
        self.worker_pids = [int(w["pid"])
                            for w in self.listening.get("workers", [])]

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _await_listening(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while True:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise BenchError("server did not report listening "
                                     f"within {timeout:.0f}s")
                if not sel.select(left):
                    continue
                line = self.proc.stdout.readline()
                if not line:
                    raise BenchError("server exited before listening: "
                                     + self.stderr_tail())
                event = json.loads(line)
                if event.get("event") == "listening":
                    return event

    def stderr_tail(self, lines: int = 20) -> str:
        self._err.flush()
        text = self.err_path.read_text(errors="replace").splitlines()
        return "\n".join(text[-lines:])

    def peak_rss_kb(self, extra_pids=()) -> int:
        """Summed VmHWM of this process and *extra_pids*."""
        return sum(vm_hwm_kb(pid) for pid in [self.pid, *extra_pids])

    def stop(self, timeout: float = 60.0) -> Optional[dict]:
        """SIGTERM (graceful drain) and wait; SIGKILL if it hangs.

        Returns the ``drained`` event when the process printed one.
        """
        drained = None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        for line in (out or "").splitlines():
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if event.get("event") == "drained":
                drained = event
        for pid in self.worker_pids:
            # Workers exit with the router; one left behind is killed.
            deadline = time.monotonic() + 10
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        self._err.close()
        if self.proc.returncode == 0:
            self.err_path.unlink(missing_ok=True)
        return drained

    def __enter__(self) -> "Served":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class StealMeter:
    """Host CPU steal over one phase of a run, as a sampled clock.

    Steal (``/proc/stat``) is CPU time the hypervisor gave to other
    tenants while this machine's CPUs had work to run: it delays the
    program with no cause in the program.  A thread reads the counter
    every :data:`STEAL_SAMPLE_S` until :meth:`stop`; :meth:`stolen`
    gives the steal within any interval of the phase, interpolated
    between samples.
    """

    def __init__(self):
        self._samples = [(time.perf_counter(), self._read())]
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    @staticmethod
    def _read() -> float:
        with open("/proc/stat") as handle:
            return (int(handle.readline().split()[8])
                    / os.sysconf("SC_CLK_TCK"))

    def _sample(self) -> None:
        while not self._done.wait(STEAL_SAMPLE_S):
            sample = (time.perf_counter(), self._read())
            with self._lock:
                self._samples.append(sample)

    def stop(self) -> None:
        if not self._done.is_set():
            self._done.set()
            self._thread.join()
            with self._lock:
                self._samples.append((time.perf_counter(), self._read()))

    def _at(self, when: float) -> float:
        with self._lock:
            samples = list(self._samples)
        k = bisect.bisect_left([t for t, _ in samples], when)
        if k == 0:
            return samples[0][1]
        if k == len(samples):
            return samples[-1][1]
        (t0, s0), (t1, s1) = samples[k - 1], samples[k]
        return s0 + (s1 - s0) * (when - t0) / (t1 - t0)

    def stolen(self, start: float, end: float) -> float:
        """CPU seconds stolen between two ``perf_counter`` readings."""
        return self._at(end) - self._at(start)

    def net(self, start: float, end: float) -> float:
        """Seconds between two ``perf_counter`` readings, less the steal
        within them.

        The benchmark's loads are chains of work with little overlap
        between the program's processes -- one batch job, or closed
        loops with one or two requests in flight -- so nearly all time
        stolen from either CPU delays them.  At most half of the
        interval is taken off.
        """
        wall = end - start
        return max(wall - self.stolen(start, end), wall / 2)

    def describe(self, start: float, end: float) -> str:
        """The steal between two ``perf_counter`` readings, in words."""
        stolen = self.stolen(start, end)
        wall = end - start
        cpus = os.cpu_count() or 1
        return (f"host steal in the timed phase: {stolen:.2f} CPU-s in "
                f"{wall:.1f} s ({stolen / (wall * cpus):.1%} of {cpus} "
                f"CPUs)")


def setup_figure(samples) -> float:
    """A run's set-up time: the median of its launches after the first.

    The first launch is a warm-up: it compiles and caches the modules
    of a fresh checkout, which users pay once, not on every start.
    """
    return stats.median(samples[1:] or samples)


#: Records per SPEC-mini trace, the harness default.
TRACE_LEN = 100_000


def load_traces(names) -> dict:
    """The named SPEC-mini traces (captured once into the work dir)."""
    os.environ["REPRO_TRACE_CACHE"] = str(WORK / "traces")
    from repro.trace.cache import cached_trace
    return {name: cached_trace(name, TRACE_LEN) for name in names}
