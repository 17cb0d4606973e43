"""End-to-end observability: canned workloads, CLI, reconciliation.

The acceptance criteria of the observability layer live here:

* tracing falls back to the generic paths, metrics-only does not;
* the trace's cycle domain reconciles with ``Clock.now``;
* the metrics counters reconcile with :mod:`repro.analysis.logstats`;
* a :class:`CrashPoint` carries the metrics snapshot at the crash cycle.
"""

import json

import pytest

from repro.analysis.logstats import compute_stats
from repro.faults.plan import CrashPoint, FaultPlan, install as install_plan
from repro.obs.cli import main as cli_main, run_traced
from repro.obs.core import Observability, installed
from repro.obs.machine_sources import snapshot_machine
from repro.obs.trace import validate_trace
from repro.obs.workloads import run_workload


def _span_ends(doc):
    for ev in doc["traceEvents"]:
        if ev["ph"] == "X":
            yield ev["ts"] + ev["dur"]
        elif ev["ph"] in ("B", "E", "i", "C"):
            yield ev["ts"]


class TestCycleExactness:
    def test_metrics_only_keeps_fast_path_tracing_falls_back(self):
        # metrics-only: the bulk engine stayed on the fused loop
        obs, _ = _rerun_with_metrics("copy")
        assert obs.metrics.value("core.bulk.write_runs_fast") > 0
        assert obs.metrics.value("core.bulk.write_runs_slow") == 0
        # tracing: every run fell back to the exact generic path
        obs, _ = run_traced("copy")
        assert obs.metrics.value("core.bulk.write_runs_fast") == 0
        assert obs.metrics.value("core.bulk.write_runs_slow") > 0


def _rerun_with_metrics(workload):
    return run_traced(workload, with_tracer=False, with_profiler=False)


class TestTraceReconciliation:
    def test_trace_cycles_reconcile_with_clock(self):
        obs, summary = run_traced("rvm")
        machine = summary["machine"]
        doc = obs.tracer.to_json()
        validate_trace(doc)
        assert doc["otherData"]["final_cycle"] == machine.clock.now
        assert max(_span_ends(doc)) <= machine.time()

    def test_machine_cycles_counter_track_matches_clock(self):
        obs, summary = run_traced("rvm")
        machine = summary["machine"]
        samples = [
            ev
            for ev in obs.tracer.events
            if ev["ph"] == "C" and ev["name"] == "machine.cycles"
        ]
        assert samples
        assert samples[-1]["args"]["machine.cycles"] == machine.time()

    def test_counters_reconcile_with_logstats(self):
        obs, summary = run_traced("copy", with_tracer=False, with_profiler=False)
        machine = summary["machine"]
        stats = compute_stats(summary["log"])
        snap = snapshot_machine(machine, obs)
        assert snap["gauges"]["hw.logger.records_logged"] == stats.record_count
        assert summary["records_logged"] == stats.record_count
        assert snap["gauges"]["machine.cycles"] == machine.time()

    def test_dma_hw_ts_annotation_matches_clock_timestamp(self):
        # logger.dma events annotate the hardware 6.25 MHz timestamp;
        # it must be ts // divider exactly (Clock.timestamp's contract).
        obs, summary = run_traced("copy", categories=["logger"])
        machine = summary["machine"]
        divider = machine.config.timestamp_divider
        dma = [
            ev
            for ev in obs.tracer.events
            if ev["ph"] == "X" and ev["name"] == "logger.dma"
        ]
        assert dma
        for ev in dma:
            assert ev["args"]["hw_ts"] == machine.clock.timestamp(ev["ts"])
            assert ev["args"]["hw_ts"] == ev["ts"] // divider

    def test_profiler_tracked_cycles_bounded_by_machine_time(self):
        obs, summary = run_traced("rvm")
        machine = summary["machine"]
        assert 0 < obs.profiler.tracked_cycles() <= machine.time()
        report = obs.profiler.report(total_cycles=machine.time())
        assert "rvm.commit" in report
        assert "(untracked)" in report

    def test_timewarp_trace_has_rollbacks_and_gvt(self):
        obs, summary = run_traced("timewarp")
        assert summary["rollbacks"] > 0
        assert obs.metrics.value("tw.events") == summary["events_processed"]
        assert obs.metrics.value("tw.rollbacks") == summary["rollbacks"]
        h = obs.metrics.histogram("tw.rollback_depth")
        assert h.count == summary["rollbacks"]
        assert h.total == summary["events_rolled_back"]
        gvt_track = [
            ev
            for ev in obs.tracer.events
            if ev["ph"] == "C" and ev["name"] == "tw.gvt"
        ]
        assert gvt_track
        assert gvt_track[-1]["args"]["tw.gvt"] == summary["gvt"]


class TestWorkloads:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            run_workload("nope")

    def test_rvm_and_rlvm_commit_and_abort(self):
        for kind in ("rvm", "rlvm"):
            obs, summary = _rerun_with_metrics(kind)
            assert summary["committed"] == 6
            assert summary["aborted"] == 2
            assert obs.metrics.value("rvm.commits") == 6
            assert obs.metrics.value("rvm.aborts") == 2
            assert obs.metrics.histogram("rvm.txn_cycles").count == 8
            assert obs.metrics.value("rvm.wal.appends") == summary["wal_appends"]


class TestCli:
    def test_cli_writes_validated_trace_and_metrics(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        rc = cli_main(
            [
                "rvm",
                "--out", str(trace_path),
                "--metrics-out", str(metrics_path),
            ]
        )
        assert rc == 0
        doc = json.loads(trace_path.read_text())
        validate_trace(doc)
        assert doc["otherData"]["workload"] == "rvm"
        snap = json.loads(metrics_path.read_text())
        assert snap["counters"]["rvm.commits"] == 6
        assert snap["gauges"]["machine.cycles"] > 0
        out = capsys.readouterr().out
        assert "perfetto" in out.lower()
        assert "machine total" in out  # profiler report printed

    def test_cli_category_selection(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        rc = cli_main(
            ["copy", "--out", str(trace_path), "--categories", "logger,metrics"]
        )
        assert rc == 0
        doc = json.loads(trace_path.read_text())
        cats = {ev.get("cat") for ev in doc["traceEvents"] if ev["ph"] == "X"}
        assert cats <= {"logger"}
        assert any(ev["name"] == "logger.dma" for ev in doc["traceEvents"])

    def test_module_dispatch(self, tmp_path, capsys):
        from repro.__main__ import main as repro_main

        rc = repro_main(["trace", "copy", "--out", str(tmp_path / "t.json"),
                         "--no-profile"])
        assert rc == 0
        assert (tmp_path / "t.json").exists()


class TestCrashPointMetrics:
    def test_crashpoint_carries_metrics_snapshot(self):
        from repro.core.context import set_current_machine

        with installed(Observability()) as obs:
            plan = install_plan(FaultPlan.at_site("rvm.commit.log"))
            try:
                with pytest.raises(CrashPoint) as exc:
                    run_workload("rvm")
            finally:
                from repro.faults import plan as faultplan

                faultplan.uninstall()
                set_current_machine(None)
            crash = exc.value
            assert crash.metrics is not None
            assert crash.metrics["counters"]["rvm.set_ranges"] > 0
            # The crash fired inside the commit's log write, before the
            # append completed — emit-on-success means no append counted.
            assert "rvm.wal.appends" not in crash.metrics["counters"]

    def test_crashpoint_metrics_none_when_disabled(self):
        from repro.core.context import set_current_machine
        from repro.faults import plan as faultplan

        install_plan(FaultPlan.at_site("rvm.commit.log"))
        try:
            with pytest.raises(CrashPoint) as exc:
                run_workload("rvm")
        finally:
            faultplan.uninstall()
            set_current_machine(None)
        assert exc.value.metrics is None
