"""CLI satellites: ``python -m repro analyze`` and the trace CLI's
``--metrics-out`` registry dump (with counter-track validation)."""

from __future__ import annotations

import json

import pytest

from repro.analytics.cli import main as analyze_main
from repro.obs.cli import main as trace_main
from repro.obs.trace import TraceFormatError, validate_trace
from repro.obs.workloads import COPY_BYTES


EXPECTED_COPY_RECORDS = COPY_BYTES // 4  # one record per word written


class TestAnalyzeCli:
    def test_report_copy_with_json(self, tmp_path, capsys):
        out = tmp_path / "wss_report.json"
        assert analyze_main(["report", "copy", "--json", str(out)]) == 0
        printed = capsys.readouterr().out
        assert f"consumed : {EXPECTED_COPY_RECORDS} records" in printed
        assert "wss curve" in printed
        assert "hottest pages" in printed

        doc = json.loads(out.read_text())
        assert doc["workload"] == "copy"
        assert doc["records_consumed"] == EXPECTED_COPY_RECORDS
        (tap,) = doc["taps"]
        assert tap["stats"]["record_count"] == EXPECTED_COPY_RECORDS
        assert tap["stats"]["pages_touched"] == COPY_BYTES // 4096
        assert len(tap["wss_curve"]) == EXPECTED_COPY_RECORDS // doc["wss_window"]
        assert tap["heat_top"]

    def test_report_honours_window(self, tmp_path):
        out = tmp_path / "r.json"
        analyze_main(["report", "copy", "--window", "256", "--json", str(out)])
        doc = json.loads(out.read_text())
        assert doc["wss_window"] == 256
        assert len(doc["taps"][0]["wss_curve"]) == EXPECTED_COPY_RECORDS // 256

    def test_watch_prints_live_samples(self, capsys):
        assert analyze_main(["watch", "copy", "--every", "1000"]) == 0
        printed = capsys.readouterr().out
        sample_lines = [l for l in printed.splitlines() if "cyc]" in l]
        assert sample_lines, printed
        assert "wss=" in sample_lines[0]

    def test_wal_workload_reports_no_hardware_logs(self, capsys):
        assert analyze_main(["report", "rvm"]) == 0
        printed = capsys.readouterr().out
        assert "no logged segments observed" in printed


class TestTraceMetricsJson:
    def test_metrics_json_dumps_the_registry(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        registry = tmp_path / "metrics.json"
        assert (
            trace_main(
                [
                    "copy",
                    "--out",
                    str(tmp_path / "trace.json"),
                    "--metrics-out",
                    str(registry),
                    "--no-profile",
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert f"metrics  : {registry}" in printed

        snap = json.loads(registry.read_text())
        assert {"counters", "gauges", "histograms"} <= set(snap)
        assert snap["counters"]["core.bulk.write_runs_slow"] > 0
        assert snap["gauges"]["hw.cpu.stores"] > 0

        # The written trace passes validation, including its counter
        # tracks (one closing sample per registry counter).
        doc = json.loads((tmp_path / "trace.json").read_text())
        assert validate_trace(doc) == len(doc["traceEvents"])
        counters = [ev for ev in doc["traceEvents"] if ev["ph"] == "C"]
        assert any(ev["name"] == "machine.cycles" for ev in counters)

    def test_serve_honours_metrics_out(self, tmp_path, capsys):
        metrics = tmp_path / "metrics_serve.json"
        argv = ["--serve", "--clients", "2", "--txns", "1", "--out", str(tmp_path / "t.json")]
        assert trace_main(argv + ["--metrics-out", str(metrics)]) == 0
        assert f"metrics  : {metrics}" in capsys.readouterr().out

        snap = json.loads(metrics.read_text())
        assert {"counters", "gauges", "histograms"} <= set(snap)
        assert snap["gauges"]["hw.cpu.stores"] > 0


class TestValidateTraceCounterEvents:
    def base(self, **overrides):
        ev = {
            "ph": "C",
            "cat": "metrics",
            "name": "x",
            "ts": 1,
            "pid": 0,
            "tid": 0,
            "args": {"x": 1},
        }
        ev.update(overrides)
        return {"traceEvents": [ev]}

    def test_well_formed_counter_event_passes(self):
        assert validate_trace(self.base()) == 1

    def test_counter_event_needs_args(self):
        with pytest.raises(TraceFormatError, match="non-empty dict 'args'"):
            validate_trace(self.base(args={}))

    def test_counter_series_must_be_numeric(self):
        with pytest.raises(TraceFormatError, match="must be numeric"):
            validate_trace(self.base(args={"x": "high"}))
        with pytest.raises(TraceFormatError, match="must be numeric"):
            validate_trace(self.base(args={"x": True}))
