"""Causal request tracing: stage exactness, flow linkage, zero skew.

The heart of the tracker's contract is *exact* accounting: stage
attribution is stack-based over disjoint cycle intervals, so for every
request the per-stage cycles sum to the end-to-end submit→ack span
with no slack, and the cycles past queue wait equal the server's own
commit-latency measurement.  And because every hook only reads the
clock, an instrumented serve run is cycle- and log-record-identical
to a bare one.
"""

import pytest

from repro.obs import causal
from repro.obs import core as obscore
from repro.obs import flight as obsflight
from repro.obs.causal import STAGES, TraceContext
from repro.obs.cli import run_traced_serve
from repro.obs.core import Observability
from repro.obs.trace import validate_trace
from repro.serve.cli import run_serve

_WORKLOAD = dict(clients=8, txns=3, writes=2, seed=7)


class TestTraceContextArithmetic:
    def test_stage_intervals_are_disjoint_and_exhaustive(self):
        ctx = TraceContext(rid=1, client=0, op="commit", submit_cycle=100)
        ctx.begin(130)                   # queue_wait = 30
        ctx.stage_enter("wal_append", 150)   # library += 20
        ctx.stage_enter("device", 155)       # wal_append += 5
        ctx.stage_exit(180)                  # device += 25
        ctx.stage_exit(184)                  # wal_append += 4
        ctx.finish(190)                      # library += 6
        assert ctx.stages == {
            "queue_wait": 30,
            "library": 26,
            "wal_append": 9,
            "device": 25,
        }
        assert sum(ctx.stages.values()) == ctx.total == 90
        assert ctx.last_stage == "library"

    def test_park_reattributes_to_group_commit_wait(self):
        ctx = TraceContext(rid=1, client=0, op="commit", submit_cycle=0)
        ctx.begin(10)
        ctx.park(30)                     # library += 20, waits from 30
        ctx.finish(90)                   # group_commit_wait += 60
        assert ctx.stages["group_commit_wait"] == 60
        assert sum(ctx.stages.values()) == ctx.total == 90

    def test_hooks_after_finish_are_noops(self):
        ctx = TraceContext(rid=1, client=0, op="commit", submit_cycle=0)
        ctx.begin(10)
        ctx.finish(20)
        before = dict(ctx.stages)
        ctx.stage_enter("device", 30)
        ctx.stage_exit(40)
        ctx.park(50)
        assert ctx.stages == before
        assert ctx.ack_cycle == 20


def _instrumented_run(group=1):
    with obscore.installed(Observability()):
        with causal.installed() as tracker:
            with obsflight.installed():
                result = run_serve(group=group, **_WORKLOAD)
    return tracker, result


class TestStageSumExactness:
    @pytest.mark.parametrize("group", [1, 4], ids=["sync", "grouped"])
    def test_stage_cycles_sum_to_request_span_exactly(self, group):
        tracker, result = _instrumented_run(group=group)
        server = result["server"]
        assert server.crashed is None
        assert len(server.acked) == _WORKLOAD["clients"] * _WORKLOAD["txns"]
        assert not tracker.open
        assert tracker.completed
        for ctx in tracker.completed:
            assert set(ctx.stages) <= set(STAGES)
            # Exact: disjoint stage intervals cover [submit, ack].
            assert sum(ctx.stages.values()) == ctx.ack_cycle - ctx.submit_cycle

    @pytest.mark.parametrize("group", [1, 4], ids=["sync", "grouped"])
    def test_commit_stages_match_server_latency_exactly(self, group):
        tracker, result = _instrumented_run(group=group)
        server = result["server"]
        commits = [ctx for ctx in tracker.completed if ctx.op == "commit"]
        assert len(commits) == len(server.commit_latencies)
        for ctx, latency in zip(commits, server.commit_latencies):
            # The server measures dispatch→ack; the context additionally
            # holds submit→dispatch as queue_wait.  No slack either way.
            assert ctx.total - ctx.stages["queue_wait"] == latency


class TestFlowLinkage:
    def test_serve_trace_links_every_commit_to_wal_and_device(self):
        obs, tracker, result = run_traced_serve(**_WORKLOAD)
        server = result["server"]
        assert server.crashed is None
        doc = obs.tracer.to_json()
        assert validate_trace(doc) > 0
        events = doc["traceEvents"]
        by_rid: dict[int, list] = {}
        for ev in events:
            if ev["ph"] in ("s", "t", "f"):
                by_rid.setdefault(ev["id"], []).append(ev)
        commits = [ctx for ctx in tracker.completed if ctx.op == "commit"]
        assert commits
        for ctx in commits:
            chain = by_rid[ctx.rid]
            phases = [ev["ph"] for ev in chain]
            # One start at the client span, one finish at the ack, and
            # at least the WAL-append and device-write steps between.
            assert phases[0] == "s" and phases[-1] == "f"
            assert phases.count("s") == 1 and phases.count("f") == 1
            assert phases.count("t") >= 2
        # Requests that never touch the log (begin/write) still pair up.
        for ctx in tracker.completed:
            phases = [ev["ph"] for ev in by_rid[ctx.rid]]
            assert phases[0] == "s" and phases[-1] == "f"

    def test_client_spans_carry_stage_breakdown(self):
        obs, tracker, result = run_traced_serve(**_WORKLOAD)
        doc = obs.tracer.to_json()
        spans = [
            ev
            for ev in doc["traceEvents"]
            if ev["ph"] == "X" and ev["name"] == "serve.req"
        ]
        assert len(spans) == len(tracker.completed)
        for ev in spans:
            stages = ev["args"]["stages"]
            assert sum(stages.values()) == ev["dur"]

    def test_stage_histograms_exported(self):
        obs, tracker, result = run_traced_serve(**_WORKLOAD)
        hist = obs.metrics.snapshot()["histograms"]
        assert hist["serve.request_cycles"]["count"] == len(tracker.completed)
        assert "serve.stage_cycles.queue_wait" in hist
        assert "serve.stage_cycles.wal_append" in hist
