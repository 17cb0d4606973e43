"""Instrumented == bare: every probe-spine subscriber is free.

Each canned workload runs once bare, then once per configuration: each
subscriber attached alone, then all of them together.  The fault plan
never crashes here: it counts site hits and must change nothing else.  Machine cycles,
the hardware log's record bytes and (for the serve runs) acks,
latencies, WAL entries and the durable device bytes must equal the
bare run exactly.  A liveness check per subscriber makes sure it was
really in the loop, not a bystander.
"""

from __future__ import annotations

import hashlib
from contextlib import ExitStack

import pytest

from repro.analytics import stream as anstream
from repro.faults import plan as faultplan
from repro.obs import causal, flight as obsflight
from repro.obs import core as obscore
from repro.obs.profiler import CycleProfiler
from repro.obs.trace import Tracer
from repro.obs.workloads import run_workload
from repro.sanitize import race
from repro.serve.cli import run_serve

#: Bare-run golden (cycles, hardware records logged), or for the serve
#: runs (cycles, sha256 prefix of the durable device bytes): a
#: timing-model change must show up here.
GOLDEN = {
    "copy": (846817, 16384),
    "timewarp": (71331, 1070),
    "rvm": (163378, 0),
    "rlvm": (136500, 28),
    "serve-sync": (702843, "0b9325c45cabb2f3"),
    "serve-grouped": (254643, "0b9325c45cabb2f3"),
    "serve-disk": (722993, "5249eb1794c04ab7"),
    "serve-nvram": (99663, "5249eb1794c04ab7"),
}

SERVE_WORKLOAD = dict(clients=8, txns=3, writes=2, seed=7)
#: Serve configurations: the RAM disk synchronous and batched, then
#: the timed devices, so their cost models are pinned too.  The disk
#: row is RLVM with group commit on the rotating disk (perfbench's
#: serve16 configuration).
SERVE_RUNS = {
    "serve-sync": dict(group=1),
    "serve-grouped": dict(group=4),
    "serve-disk": dict(device="disk", backend="rlvm", group=8, group_commit=True),
    "serve-nvram": dict(device="nvram_tmpfs", backend="rlvm", group=4),
}
WORKLOADS = ("copy", "rvm", "rlvm", "timewarp", *SERVE_RUNS)


def _traced_obs():
    return obscore.Observability(tracer=Tracer(), profiler=CycleProfiler())


#: kind -> (installed() context factory, subscriber factory).
SUBSCRIBERS = {
    "obs-traced": (obscore.installed, _traced_obs),
    "obs-metrics": (obscore.installed, obscore.Observability),
    "causal": (causal.installed, causal.CausalTracker),
    "flight": (obsflight.installed, obsflight.FlightRecorder),
    "analytics": (anstream.installed, anstream.AnalyticsHub),
    "race": (race.installed, race.LogRaceDetector),
    "faults": (faultplan.installed, faultplan.FaultPlan),
}
ALL = ("obs-traced", "causal", "flight", "analytics", "race", "faults")
CONFIGS = [(kind,) for kind in SUBSCRIBERS] + [ALL]


def _run(workload: str) -> dict:
    if workload in SERVE_RUNS:
        return run_serve(**SERVE_RUNS[workload], **SERVE_WORKLOAD)
    return run_workload(workload)


def _fingerprint(workload: str, result: dict) -> dict:
    if workload in SERVE_RUNS:
        server = result["server"]
        return {
            "cycles": result["machine"].time(),
            "acked": list(server.acked),
            "latencies": list(server.commit_latencies),
            "wal": [(e.kind, e.tid, e.data) for e in result["library"].wal.entries()],
            "device_bytes": result["device"].durable_bytes(),
        }
    fp = {k: v for k, v in result.items() if k not in ("machine", "log")}
    fp["hw_records"] = result["machine"].logger.stats.records_logged
    log = result.get("log")
    if log is not None:
        fp["log_bytes"] = log.read_bytes(
            log.start_offset, log.append_offset - log.start_offset
        )
        fp["log_records"] = [
            (r.addr, r.value, r.size, r.flags, r.timestamp) for r in log.records()
        ]
    return fp


def _golden(workload: str, fp: dict) -> tuple:
    if workload in SERVE_RUNS:
        return fp["cycles"], hashlib.sha256(fp["device_bytes"]).hexdigest()[:16]
    return fp["cycles"], fp["hw_records"]


def _assert_live(kind: str, sub, workload: str, result: dict) -> None:
    log = result.get("log")
    if kind == "analytics" and log is not None:
        tap = sub.tap_for(log)
        assert tap is not None and tap.stats.record_count > 0
    elif kind == "causal" and workload in SERVE_RUNS:
        assert sub.completed and not sub.open
    elif kind == "flight" and workload in SERVE_RUNS:
        assert sub.seen > 0
    elif kind == "race":
        # Every stage opened was closed: nothing crashes in these runs.
        assert not sub.open_stages, sub.summary()
        if workload in ("copy", "timewarp"):
            assert sub.writes_checked > 0 and sub.races_seen == 0
    elif kind == "faults":
        assert sub.counts and not sub.fired
    elif kind.startswith("obs"):
        counters = sub.metrics.snapshot()["counters"]
        assert counters
        if workload not in ("copy", "timewarp"):
            assert counters["rvm.wal.appends"] > 0


@pytest.fixture(autouse=True)
def _nothing_attached():
    """Bare means bare: shelve the ambient ``--lvm-san`` detector."""
    race.uninstall()


_BARE: dict = {}


def _bare(workload: str) -> dict:
    if workload not in _BARE:
        _BARE[workload] = _fingerprint(workload, _run(workload))
    return _BARE[workload]


@pytest.mark.parametrize("config", CONFIGS, ids="+".join)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_instrumented_run_equals_bare(workload, config):
    bare = _bare(workload)
    assert _golden(workload, bare) == GOLDEN[workload]
    with ExitStack() as stack:
        subs = {}
        for kind in config:
            installed, factory = SUBSCRIBERS[kind]
            subs[kind] = stack.enter_context(installed(factory()))
        result = _run(workload)
    assert _fingerprint(workload, result) == bare
    for kind, sub in subs.items():
        _assert_live(kind, sub, workload, result)
    if config == ALL and result.get("log") is not None:
        # The hub's gauges reach the span layer through the spine.
        gauges = subs["obs-traced"].metrics.snapshot()["gauges"]
        assert any(name.startswith("analytics.") for name in gauges)
