"""End-to-end: --telemetry/--json flags and the telemetry subcommand."""

import io
import json

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def only_run_dir(root):
    [run_dir] = [p for p in root.iterdir() if p.is_dir()]
    return run_dir


class TestRunExperimentWithTelemetry:
    def test_fig10_fast_produces_manifest_spans_and_probes(self, tmp_path):
        root = tmp_path / "tel"
        code, text = run_cli("run", "fig10", "--fast", "--limit", "500",
                             "--telemetry", str(root))
        assert code == 0
        assert "telemetry:" in text
        run_dir = only_run_dir(root)

        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["command"] == "run"
        assert manifest["status"] == "ok"
        assert manifest["argv"][0:2] == ["run", "fig10"]
        assert manifest["events"] > 0 and manifest["spans"] > 0

        events = read_jsonl(run_dir / "events.jsonl")
        assert events[0]["type"] == "run_start"
        assert events[-1]["type"] == "run_end"

        spans = [e for e in events if e["type"] == "span"]
        by_id = {s["span_id"]: s for s in spans}
        predictor_spans = [s for s in spans if s["name"] == "predictor"]
        assert predictor_spans
        # The required nesting: experiment -> trace -> predictor.
        nested = [s for s in predictor_spans if s["parent_id"]]
        assert nested
        parent = by_id[nested[0]["parent_id"]]
        assert parent["name"] == "trace"
        assert by_id[parent["parent_id"]]["name"] == "experiment"

        probes = {e["probe"] for e in events if e["type"] == "probe"}
        assert {"l2_occupancy", "aliasing", "confidence"} <= probes

        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert "repro_predictions_total" in metrics["metrics"]


class TestPredictJson:
    def test_payload_without_telemetry(self):
        code, text = run_cli("predict", "li", "--limit", "1000", "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["command"] == "predict"
        assert payload["benchmark"] == "li"
        assert payload["total"] == 1000
        assert payload["correct"] == round(
            payload["accuracy"] * payload["total"])
        assert payload["params"]["predictor"] == "dfcm"
        assert payload["telemetry_run_id"] is None

    def test_payload_with_telemetry_links_the_run(self, tmp_path):
        root = tmp_path / "tel"
        code, text = run_cli("predict", "li", "--limit", "1000", "--json",
                             "--telemetry", str(root))
        assert code == 0
        payload = json.loads(text)
        run_id = payload["telemetry_run_id"]
        assert run_id
        assert (root / run_id / "manifest.json").is_file()
        events = read_jsonl(root / run_id / "events.jsonl")
        [predictor_span] = [e for e in events
                            if e.get("name") == "predictor"]
        assert predictor_span["attrs"]["correct"] == payload["correct"]


class TestCompareJson:
    def test_payload_lists_every_predictor(self, tmp_path):
        root = tmp_path / "tel"
        code, text = run_cli("compare", "li", "--limit", "1000", "--json",
                             "--telemetry", str(root))
        assert code == 0
        payload = json.loads(text)
        assert payload["command"] == "compare"
        names = [r["predictor"] for r in payload["results"]]
        assert len(names) == 6
        for fragment in ("lvp_", "stride_", "dfcm_l1="):
            assert any(fragment in name for name in names)
        assert payload["telemetry_run_id"] in {
            p.name for p in root.iterdir()}


class TestTelemetrySubcommand:
    def _record_run(self, tmp_path):
        root = tmp_path / "tel"
        run_cli("predict", "li", "--limit", "500",
                "--telemetry", str(root))
        return root

    def test_summary(self, tmp_path):
        root = self._record_run(tmp_path)
        code, text = run_cli("telemetry", "summary", "--dir", str(root))
        assert code == 0
        assert "command: predict" in text
        assert "status: ok" in text
        assert "predictor" in text  # span digest

    def test_export_prom(self, tmp_path):
        root = self._record_run(tmp_path)
        code, text = run_cli("telemetry", "export", "--format", "prom",
                             "--dir", str(root))
        assert code == 0
        assert "# TYPE repro_predictions_total counter" in text
        assert "repro_predictions_total{" in text
        assert "repro_measure_seconds_bucket{" in text

    def test_export_jsonl_round_trips(self, tmp_path):
        root = self._record_run(tmp_path)
        code, text = run_cli("telemetry", "export", "--format", "jsonl",
                             "--dir", str(root))
        assert code == 0
        events = [json.loads(line) for line in text.splitlines()]
        assert events[0]["type"] == "run_start"
        assert events[-1]["type"] == "run_end"

    def test_tail(self, tmp_path):
        root = self._record_run(tmp_path)
        code, text = run_cli("telemetry", "tail", "-n", "2",
                             "--dir", str(root))
        assert code == 0
        lines = text.splitlines()
        assert len(lines) == 2
        assert json.loads(lines[-1])["type"] == "run_end"

    def test_named_run_selection(self, tmp_path):
        root = self._record_run(tmp_path)
        [run_dir] = [p for p in root.iterdir() if p.is_dir()]
        code, text = run_cli("telemetry", "summary", "--dir", str(root),
                             "--run", run_dir.name)
        assert code == 0
        assert run_dir.name in text

    def test_missing_root_exits_1(self, tmp_path, capsys):
        code, text = run_cli("telemetry", "summary", "--dir",
                             str(tmp_path / "nope"))
        assert code == 1
        assert text == ""
        assert "error: no telemetry runs" in capsys.readouterr().err
