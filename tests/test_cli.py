"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestWorkloadsCommand:
    def test_lists_suite(self):
        code, text = run_cli("workloads")
        assert code == 0
        for name in ("compress", "li", "vortex", "norm"):
            assert name in text


class TestTraceCommand:
    def test_stats_and_head(self):
        code, text = run_cli("trace", "li", "--limit", "500", "--head", "3")
        assert code == 0
        assert "500 predictions" in text
        assert text.count("0x0040") >= 3  # three records printed

    def test_save(self, tmp_path):
        path = tmp_path / "li.npz"
        code, text = run_cli("trace", "li", "--limit", "100",
                             "--out", str(path))
        assert code == 0 and path.exists()
        from repro.trace.trace import ValueTrace
        assert len(ValueTrace.load(path)) == 100


class TestRunCommand:
    def test_list(self):
        code, text = run_cli("run", "list")
        assert code == 0
        assert "fig10" in text and "table1" in text

    def test_run_experiment(self):
        code, text = run_cli("run", "table1", "--limit", "500")
        assert code == 0
        assert "Benchmarks" in text and "compress" in text


class TestPredictCommand:
    def test_dfcm_default(self):
        code, text = run_cli("predict", "li", "--limit", "2000")
        assert code == 0
        assert "dfcm" in text and "accuracy" in text

    @pytest.mark.parametrize("kind", ["lvp", "stride", "stride2d", "fcm"])
    def test_other_predictors(self, kind):
        code, text = run_cli("predict", "li", "--predictor", kind,
                             "--l1", "8", "--l2", "10", "--limit", "1000")
        assert code == 0
        assert "accuracy" in text


class TestCompareCommand:
    def test_lists_all_predictor_classes(self):
        code, text = run_cli("compare", "li", "--limit", "2000")
        assert code == 0
        for fragment in ("lvp_", "last4_", "stride_", "stride2d_",
                         "fcm_l1=", "dfcm_l1="):
            assert fragment in text
        assert "2000 predictions" in text


class TestEngineAndJobsFlags:
    def test_run_jobs_matches_serial(self):
        code_serial, serial = run_cli("run", "fig10", "--fast",
                                      "--limit", "2000")
        code_jobs, parallel = run_cli("run", "fig10", "--fast",
                                      "--limit", "2000", "--jobs", "4")
        assert code_serial == 0 and code_jobs == 0
        assert parallel == serial  # byte-identical figure output


class TestBenchCommand:
    def test_fast_bench_writes_report(self, tmp_path):
        path = tmp_path / "BENCH_predictors.json"
        code, text = run_cli("bench", "--fast", "--out", str(path))
        assert code == 0
        assert "guard" in text and "recorded only" in text
        report = json.loads(path.read_text())
        assert report["mode"] == "fast"
        assert {f["family"] for f in report["families"]} >= {"dfcm", "fcm"}

    def test_json_output_without_file(self):
        code, text = run_cli("bench", "--fast", "--out", "-", "--json")
        assert code == 0
        report = json.loads(text)
        assert report["guard"]["enforced"] is False
        assert report["guard"]["min_speedup"] == 5.0


class TestTablesCommand:
    def test_human_report_with_verdict(self):
        code, text = run_cli("tables", "li", "--limit", "3000",
                             "--budgets", "32,64",
                             "--families", "fcm,dfcm")
        assert code == 0
        assert "table usage on li" in text
        assert "efficiency (correct per live bit)" in text
        assert "DFCM" in text  # verdict line, either direction

    def test_json_report(self, tmp_path):
        path = tmp_path / "tables.json"
        code, text = run_cli("tables", "li", "--limit", "3000",
                             "--budgets", "32", "--families", "fcm,dfcm",
                             "--json", "--out", str(path))
        assert code == 0
        report = json.loads(text)
        assert report["schema"] == 1
        assert report["command"] == "tables"
        assert report["dfcm_beats_fcm"] in (True, False)
        assert json.loads(path.read_text()) == report


class TestJsonSchema:
    """Every --json payload carries a schema integer (satellite 3)."""

    def test_predict(self):
        code, text = run_cli("predict", "li", "--limit", "1000", "--json")
        assert code == 0
        assert json.loads(text)["schema"] == 1

    def test_compare(self):
        code, text = run_cli("compare", "li", "--limit", "1000", "--json")
        assert code == 0
        assert json.loads(text)["schema"] == 1

    def test_bench(self):
        code, text = run_cli("bench", "--fast", "--out", "-", "--json")
        assert code == 0
        assert json.loads(text)["schema"] == 1


def assert_refused_before_replay(argv, capsys, monkeypatch):
    """``loadgen li ARGV`` exits 1 with an ``error:`` line before any
    client connects or any fleet starts."""
    from repro.serve.client import ServeClient
    from repro.serve.cluster import ClusterThread

    def refuse(*args, **kwargs):
        raise AssertionError("a replay started")

    monkeypatch.setattr(ServeClient, "__init__", refuse)
    monkeypatch.setattr(ClusterThread, "__init__", refuse)
    code, text = run_cli("loadgen", "li", "--limit", "100", *argv)
    assert code == 1
    assert text == ""
    assert capsys.readouterr().err.startswith("error:")


class TestErrorExits:
    """Expected failures exit 1 with an error: line on stderr."""

    def test_unknown_workload(self, capsys):
        code, _text = run_cli("predict", "no_such_benchmark")
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_loadgen_connection_refused(self, capsys):
        code, _text = run_cli("loadgen", "li", "--port", "1",
                              "--limit", "100")
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["--cluster-workers", "2", "--min-scaling", "100"],
        ["--cluster-workers", "1,2", "--min-speedup", "100"],
        ["--port", "1", "--mode", "batched", "--min-speedup", "100"],
        ["--port", "1", "--min-scaling", "100"],
    ], ids=["one-fleet-size-min-scaling", "cluster-min-speedup",
            "one-mode-min-speedup", "port-min-scaling"])
    def test_loadgen_gate_that_cannot_gate(self, argv, capsys,
                                           monkeypatch):
        assert_refused_before_replay(argv, capsys, monkeypatch)

    @pytest.mark.parametrize("argv", [
        ["--cluster-workers", "1", "--mode", "naive"],
        ["--cluster-workers", "1", "--host", "127.0.0.1"],
        ["--cluster-workers", "1", "--port", "9"],
        ["--port", "9", "--sessions", "7"],
        ["--port", "9", "--state-dir", "unread"],
    ], ids=["cluster-mode", "cluster-host", "cluster-port",
            "port-sessions", "port-state-dir"])
    def test_loadgen_flag_its_mode_never_reads(self, argv, capsys,
                                               monkeypatch):
        import repro.trace.cache as trace_cache

        def refuse(*args, **kwargs):
            raise AssertionError("a trace loaded")

        monkeypatch.setattr(trace_cache, "cached_trace", refuse)
        assert_refused_before_replay(argv, capsys, monkeypatch)

    def test_genuine_bug_is_not_downgraded(self, monkeypatch):
        import repro.cli as cli

        def broken(args, out):
            return {}["missing"]  # a plain KeyError, i.e. a bug

        monkeypatch.setitem(cli._COMMANDS, "workloads", broken)
        with pytest.raises(KeyError):
            run_cli("workloads")


class TestServeAndLoadgen:
    def test_loadgen_against_live_server(self, tmp_path):
        from repro.serve.server import ServerThread
        out_path = tmp_path / "loadgen.json"
        with ServerThread() as server:
            code, text = run_cli(
                "loadgen", "li", "--port", str(server.port),
                "--limit", "400", "--mode", "batched", "--block", "64",
                "--json", "--out", str(out_path))
        assert code == 0
        report = json.loads(text)
        assert report["schema"] == 1
        assert report["records"] == 400
        assert report["verify"]["matched"] is True
        assert json.loads(out_path.read_text()) == report

    def test_loadgen_windowed_human_output(self):
        from repro.serve.server import ServerThread
        with ServerThread() as server:
            code, text = run_cli(
                "loadgen", "li", "--port", str(server.port),
                "--limit", "300", "--window", "4", "--mode", "batched",
                "--block", "50")
        assert code == 0
        assert "offline parity: match" in text

    def test_loadgen_speedup_guard_fails(self):
        from repro.serve.server import ServerThread
        with ServerThread() as server:
            code, _text = run_cli(
                "loadgen", "li", "--port", str(server.port),
                "--limit", "200", "--min-speedup", "1000000")
        assert code == 1

    @pytest.mark.parametrize("argv", [["serve", "--shards", "2"],
                                      ["cluster", "serve",
                                       "--max-batch", "8"]])
    def test_deleted_server_knobs_are_usage_errors(self, argv, capsys):
        from repro.cli import build_parser
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["serve", "--max-resident", "1"],
                                      ["cluster", "serve", "--workers",
                                       "1", "--max-resident", "4"]])
    def test_max_resident_without_state_dir_is_a_usage_error(
            self, argv, capsys, monkeypatch):
        from repro import cli
        from repro.serve.cluster.supervisor import ClusterSupervisor

        def refuse(*args, **kwargs):
            raise AssertionError("started serving")

        # Checked before anything spawns: were it not, these would
        # raise instead of serving forever.
        monkeypatch.setattr(cli, "_run_signalled", refuse)
        monkeypatch.setattr(ClusterSupervisor, "start", refuse)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        assert "--max-resident requires --state-dir" in \
            capsys.readouterr().err

    def test_serve_subprocess_sigterm_drain(self):
        import os
        import signal
        import subprocess
        import sys
        import time

        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--json",
             "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=env)
        try:
            listening = json.loads(proc.stdout.readline())
            assert listening["event"] == "listening"
            assert listening["schema"] == 1
            assert listening["port"] > 0
            time.sleep(0.1)
            proc.send_signal(signal.SIGTERM)
            stdout, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0
        drained = json.loads(stdout.strip().splitlines()[-1])
        assert drained["event"] == "drained"
        assert drained["stats"]["draining"] is True

    @pytest.mark.parametrize("command", [["serve"],
                                         ["cluster", "serve", "--workers",
                                          "1"]],
                             ids=["serve", "cluster"])
    def test_sigterm_right_after_listening_drains(self, command):
        """The signal handlers are in place before ``listening`` is
        printed: an immediate SIGTERM drains (exit 0, a ``drained``
        event) and leaves no cluster worker behind."""
        import os
        import signal
        import subprocess
        import sys
        import time

        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *command, "--json",
             "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=env)
        try:
            listening = json.loads(proc.stdout.readline())
            proc.send_signal(signal.SIGTERM)
            stdout, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert listening["event"] == "listening"
        assert proc.returncode == 0
        events = [json.loads(line) for line in stdout.splitlines()]
        assert events[-1]["event"] == "drained"
        for worker in listening.get("workers", []):
            deadline = time.monotonic() + 10
            while True:
                try:
                    os.kill(worker["pid"], 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, \
                    f"worker {worker['pid']} outlived the router"
                time.sleep(0.05)

    def test_serve_subprocess_obs_endpoint_and_slow_out(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys
        import urllib.request

        slow_path = tmp_path / "slow.json"
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--json",
             "--port", "0", "--obs-port", "0",
             "--slow-out", str(slow_path)],
            stdout=subprocess.PIPE, text=True, env=env)
        try:
            listening = json.loads(proc.stdout.readline())
            assert listening["obs_port"] > 0
            base = f"http://127.0.0.1:{listening['obs_port']}"
            with urllib.request.urlopen(base + "/healthz",
                                        timeout=5) as resp:
                health = json.loads(resp.read())
            assert health["status"] == "ok"
            with urllib.request.urlopen(base + "/metrics",
                                        timeout=5) as resp:
                assert "version=0.0.4" in resp.headers["Content-Type"]
                metrics = resp.read().decode()
            assert "repro_serve_healthy 1" in metrics
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0
        sample = json.loads(slow_path.read_text())
        assert sample["schema"] == 1
        assert "slowest" in sample


class TestTopCommand:
    def test_once_against_live_server(self):
        from repro.serve.server import ServerThread
        with ServerThread(obs_port=0) as server:
            code, text = run_cli("top", str(server.obs_port), "--once")
        assert code == 0
        assert "status: OK" in text
        assert "\x1b" not in text  # plain text in --once mode

    def test_host_port_target_normalised(self):
        from repro.serve.server import ServerThread
        with ServerThread(obs_port=0) as server:
            code, text = run_cli("top", f"127.0.0.1:{server.obs_port}",
                                 "--once")
        assert code == 0
        assert "status: OK" in text

    def test_dead_endpoint_exits_1(self, capsys):
        code, text = run_cli("top", "1", "--once", "--timeout", "0.5")
        assert code == 1
        assert "error: cannot poll" in text
        # The other obs readers report through main(), on stderr.
        for argv in (["cluster", "status", "1"],
                     ["trace", "00ab", "--from", "1"]):
            code, _text = run_cli(*argv, "--timeout", "0.5")
            err = capsys.readouterr().err
            assert code == 1, argv
            assert err.startswith("error:"), err
            assert "Traceback" not in err


class TestBenchHistoryCLI:
    def entry(self, batch):
        return json.dumps({
            "schema": 1, "timestamp": "2026-08-05T00:00:00+0000",
            "git_sha": "0" * 40, "mode": "fast",
            "families": {"dfcm": {"batch_records_per_sec": batch,
                                  "scalar_records_per_sec": batch // 10,
                                  "speedup": 10.0}},
            "suite_speedup": 10.0})

    def test_history_flag_appends(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        code, text = run_cli("bench", "--fast", "--out", "-",
                             "--history", "--history-file", str(path))
        assert code == 0
        assert "history: appended" in text
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert "dfcm" in json.loads(lines[0])["families"]

    def test_diff_passes_and_fails(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text(self.entry(100_000) + "\n"
                        + self.entry(80_000) + "\n")
        code, text = run_cli("bench", "diff", "--history-file", str(path))
        assert code == 1  # -20% against the 10% default gate
        assert "REGRESSED" in text and "FAIL" in text
        code, text = run_cli("bench", "diff", "--history-file", str(path),
                             "--max-regression-pct", "30")
        assert code == 0
        assert "PASS" in text

    def test_diff_json_output(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text(self.entry(100_000) + "\n"
                        + self.entry(99_000) + "\n")
        code, text = run_cli("bench", "diff", "--history-file", str(path),
                             "--json")
        assert code == 0
        diff = json.loads(text)
        assert diff["passed"] is True
        assert diff["families"][0]["delta_pct"] == -1.0

    def test_diff_without_enough_history_errors(self, tmp_path, capsys):
        path = tmp_path / "hist.jsonl"
        path.write_text(self.entry(100_000) + "\n")
        code, _text = run_cli("bench", "diff", "--history-file", str(path))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:")
        assert "at least 2" in err

    def test_diff_missing_history_file_is_clean_error(self, tmp_path,
                                                      capsys):
        path = tmp_path / "no_such_history.jsonl"
        code, _text = run_cli("bench", "diff", "--history-file", str(path))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:")
        assert "no bench history" in err

    def test_diff_family_mismatch_is_clean_error(self, tmp_path, capsys):
        # Grid changed between records: a clear error, not a traceback.
        path = tmp_path / "hist.jsonl"
        stride = self.entry(100_000).replace('"dfcm"', '"stride"')
        path.write_text(self.entry(100_000) + "\n" + stride + "\n")
        code, _text = run_cli("bench", "diff", "--history-file", str(path))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "different families" in err
        assert "missing from the current run: dfcm" in err
        assert "not in the previous record: stride" in err


class TestStateCLI:
    """``repro state ls|verify|compact`` over a directory of arenas."""

    def seed_store(self, directory, session_id=3, corrupt=False):
        from repro.core.spec import DFCMSpec
        from repro.core.state import ArenaStore
        from repro.serve.session import Session

        spec = DFCMSpec(64, 256)
        session = Session(session_id, spec)
        session.step_block([0x400, 0x404, 0x400], [5, 9, 11])
        store = ArenaStore(directory)
        arrays, meta = session.snapshot()
        store.save(session_id, spec.to_config(), arrays, meta)
        if corrupt:
            path = store.path_for(session_id)
            raw = bytearray(path.read_bytes())
            raw[-1] ^= 0xFF
            path.write_bytes(raw)
        return store

    def test_ls_lists_sessions(self, tmp_path):
        self.seed_store(tmp_path, session_id=7)
        code, text = run_cli("state", "ls", "--dir", str(tmp_path))
        assert code == 0
        assert "dfcm" in text
        assert "7" in text
        code, text = run_cli("state", "ls", "--dir", str(tmp_path),
                             "--json")
        assert code == 0
        listing = json.loads(text)
        assert listing["schema"] == 1
        assert listing["arenas"][0]["session"] == 7
        assert listing["arenas"][0]["predictions"] == 3

    def test_verify_clean_store(self, tmp_path):
        self.seed_store(tmp_path)
        code, text = run_cli("state", "verify", "--dir", str(tmp_path))
        assert code == 0
        assert "checked 1 arenas, 0 defective, 0 stale" in text

    def test_verify_flags_defects_and_exits_1(self, tmp_path):
        self.seed_store(tmp_path, corrupt=True)
        code, text = run_cli("state", "verify", "--dir", str(tmp_path))
        assert code == 1
        assert "BAD" in text and "CRC mismatch" in text

    def test_verify_single_file(self, tmp_path):
        store = self.seed_store(tmp_path, session_id=4)
        path = store.path_for(4)
        code, text = run_cli("state", "verify", str(path))
        assert code == 0
        assert text.startswith("OK")
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(raw)
        code, text = run_cli("state", "verify", str(path))
        assert code == 1
        assert "CRC mismatch" in text

    def test_verify_missing_file_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "no_such.arena"
        code, _text = run_cli("state", "verify", str(path))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:")
        assert "no such arena file" in err

    def test_verify_empty_file_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "empty.arena"
        path.write_bytes(b"")
        code, _text = run_cli("state", "verify", str(path))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:")
        assert "empty arena file" in err

    def test_missing_directory_is_clean_error(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        code, _text = run_cli("state", "ls", "--dir", str(missing))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {missing}:")
        assert "no state directory" in err
        assert not missing.exists()  # inspection never creates it

    def test_compact_reclaims_litter(self, tmp_path):
        self.seed_store(tmp_path)
        (tmp_path / "stray.arena.tmp").write_bytes(b"half")
        (tmp_path / "old.arena.corrupt").write_bytes(b"bad")
        code, text = run_cli("state", "compact", "--dir", str(tmp_path))
        assert code == 0
        assert "removed 1 tmp, 1 quarantined, 0 defective" in text
        assert "kept 1 arenas" in text

    def test_default_dir_from_env(self, tmp_path, monkeypatch):
        self.seed_store(tmp_path)
        monkeypatch.setenv("REPRO_STATE_DIR", str(tmp_path))
        code, text = run_cli("state", "verify")
        assert code == 0
        assert "checked 1 arenas" in text


class TestCompileAndExec:
    SOURCE = """
    int main() {
        print_str("hi ");
        print_int(6 * 7);
        return 3;
    }
    """

    def test_compile(self, tmp_path):
        source = tmp_path / "prog.mc"
        source.write_text(self.SOURCE)
        code, text = run_cli("compile", str(source))
        assert code == 0
        assert ".text" in text and "jal main" in text

    def test_exec(self, tmp_path):
        source = tmp_path / "prog.mc"
        source.write_text(self.SOURCE)
        code, text = run_cli("exec", str(source))
        assert code == 3  # main's return value is the exit code
        assert "hi 42" in text
        assert "[exit 3" in text


class TestDisasmCommand:
    def test_head_limit(self):
        code, text = run_cli("disasm", "norm", "--head", "5")
        assert code == 0
        assert len([l for l in text.splitlines() if l.startswith("0x")]) == 5
        assert "instructions total" in text

    def test_full_listing(self):
        code, text = run_cli("disasm", "norm", "--head", "0")
        assert code == 0
        assert "instructions total" not in text


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("argv", [
        ["run", "fig10", "--engine", "scalar"],
        ["predict", "li", "--engine", "batch"],
        ["compare", "li", "--engine", "auto"],
        ["tables", "li", "--engine", "scalar"],
        ["serve", "--slo-accuracy-floor", "0.5"],
        ["soak", "li", "--ci"],
        ["bench", "--min-speedup=2"],
        ["loadgen", "li", "--no-verify"],
        ["soak", "li", "--poll-interval-s", "1"],
    ], ids=["run-engine", "predict-engine", "compare-engine",
            "tables-engine", "serve-slo-accuracy-floor", "soak-ci",
            "bench-min-speedup", "loadgen-no-verify",
            "soak-poll-interval"])
    def test_deleted_options_are_usage_errors(self, argv, capsys):
        # The spec picks the engine; there is no accuracy objective;
        # soak's CI profile was exactly its defaults plus --duration-s;
        # the bench guard, loadgen's parity check and soak's sampling
        # interval are fixed.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
