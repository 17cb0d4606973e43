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
from repro.obs.metrics import Histogram
from repro.obs.trace import validate_trace
from repro.serve.cli import run_serve

_WORKLOAD = dict(clients=8, txns=3, writes=2, seed=7)
#: The 16-client run the flight-recorder overhead guard also drives.
_SERVE16 = dict(clients=16, txns=8, writes=4, seed=1995)
#: The small workload synchronous and batched, then the 16-client run.
_RUNS = pytest.mark.parametrize(
    "group, workload",
    [(1, _WORKLOAD), (4, _WORKLOAD), (1, _SERVE16)],
    ids=["sync", "grouped", "serve16"],
)


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


def _instrumented_run(group, workload, obs=None):
    with obscore.installed(obs):
        with causal.installed() as tracker:
            with obsflight.installed():
                result = run_serve(group=group, **workload)
    return tracker, result


class TestStageSumExactness:
    @_RUNS
    def test_stage_cycles_sum_to_request_span_exactly(self, group, workload):
        tracker, result = _instrumented_run(group, workload)
        server = result["server"]
        assert server.crashed is None
        assert len(server.acked) == workload["clients"] * workload["txns"]
        assert not tracker.open
        assert tracker.completed
        for ctx in tracker.completed:
            assert set(ctx.stages) <= set(STAGES)
            # Exact: disjoint stage intervals cover [submit, ack].
            assert sum(ctx.stages.values()) == ctx.ack_cycle - ctx.submit_cycle

    @_RUNS
    def test_commit_stages_match_server_latency_exactly(self, group, workload):
        tracker, result = _instrumented_run(group, workload)
        server = result["server"]
        commits = [ctx for ctx in tracker.completed if ctx.op == "commit"]
        # Every commit was traced, and each matches a server latency.
        assert len(commits) == len(server.commit_latencies)
        assert len(commits) == workload["clients"] * workload["txns"]
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


def _request_histograms(snapshot):
    return {
        name: h
        for name, h in snapshot["histograms"].items()
        if name == "serve.request_cycles" or name.startswith("serve.stage_cycles.")
    }


class TestFoldedRequestHistograms:
    """The request histograms are folded from the finished contexts at
    snapshot time, not observed stage by stage during the run."""

    @_RUNS
    def test_fold_equals_observing_every_stage_in_ack_order(self, group, workload):
        obs = Observability()
        tracker, _ = _instrumented_run(group, workload, obs)
        assert obs.requests == tracker.completed
        expected: dict[str, Histogram] = {}
        for ctx in tracker.completed:
            for stage, cycles in ctx.stages.items():
                name = f"serve.stage_cycles.{stage}"
                expected.setdefault(name, Histogram(name)).observe(cycles)
            name = "serve.request_cycles"
            expected.setdefault(name, Histogram(name)).observe(ctx.total)
        assert _request_histograms(obs.metrics.snapshot()) == {
            name: h.snapshot() for name, h in expected.items()
        }

    @_RUNS
    def test_consecutive_snapshots_are_equal(self, group, workload):
        obs = Observability()
        _instrumented_run(group, workload, obs)
        first = obs.metrics.snapshot()
        assert first["histograms"]["serve.request_cycles"]["count"] == len(obs.requests)
        assert obs.metrics.snapshot() == first

    def test_one_request_done_per_request_and_no_observe(self):
        class Counting:
            def __init__(self):
                self.done = []
                self.observed = []

            def probes(self):
                return {"request_done": self.done.append, "observe": self.observe}

            def observe(self, name, value):
                self.observed.append(name)

        counting = Counting()
        tracker, _ = _instrumented_run(1, _WORKLOAD, counting)
        assert not tracker.open and tracker.completed
        # One event per finished request, carrying its context.
        assert counting.done == tracker.completed
        assert not [n for n in counting.observed if n.startswith("serve.")]
