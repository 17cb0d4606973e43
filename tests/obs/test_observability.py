"""Observability on the probe spine: install/uninstall, span routing,
nesting."""

import pytest

from repro import probe
from repro.errors import ConfigError
from repro.obs import core as obscore
from repro.obs.core import Observability, installed
from repro.obs.profiler import CycleProfiler
from repro.obs.trace import Tracer, validate_trace


class TestInstall:
    def test_disabled_by_default(self):
        assert obscore.active() is None
        sp = probe._ACTIVE
        assert sp is None or "metrics" not in sp.crash_state()

    def test_install_uninstall(self):
        obs = Observability()
        obscore.install(obs)
        try:
            assert obscore.active() is obs
            with pytest.raises(ConfigError, match="already installed"):
                obscore.install(Observability())
        finally:
            obscore.uninstall()
        assert obscore.active() is None

    def test_installed_context_manager(self):
        obs = Observability()
        with installed(obs) as o:
            assert o is obs and obscore.active() is obs
        assert obscore.active() is None

    def test_installed_uninstalls_on_error(self):
        with pytest.raises(RuntimeError):
            with installed(Observability()):
                raise RuntimeError("boom")
        assert obscore.active() is None

    def test_trace_detail_requires_a_tracer(self):
        with installed(Observability()):
            assert not probe._ACTIVE.detail  # metrics-only
        with installed(Observability(tracer=Tracer())):
            assert probe._ACTIVE.detail

    def test_metrics_snapshot_if_active(self):
        # The crash report carries a metrics snapshot only while an
        # Observability is attached.
        with installed(Observability()) as obs:
            obs.metrics.inc("x", 3)
            snap = probe._ACTIVE.crash_state()["metrics"]
        assert snap["counters"]["x"] == 3
        sp = probe._ACTIVE
        assert sp is None or "metrics" not in sp.crash_state()


class TestSpanRouting:
    def test_span_feeds_tracer_and_profiler(self):
        obs = Observability(tracer=Tracer(categories=["txn"]), profiler=CycleProfiler())
        obs.span("txn", "work", 10, 30, tid=1)
        assert obs.tracer.events[0]["ph"] == "X"
        assert obs.profiler.sites["work"].total_cycles == 20

    def test_disabled_category_still_profiles(self):
        obs = Observability(tracer=Tracer(categories=["txn"]), profiler=CycleProfiler())
        obs.span("bus", "bus.txn", 0, 5)
        assert obs.tracer.events == []  # category off
        assert obs.profiler.sites["bus.txn"].calls == 1

    def test_disabled_inner_span_does_not_close_enabled_outer(self):
        # The regression the _traced stack exists for: an enabled outer
        # B span must survive a disabled-category inner begin/end pair.
        obs = Observability(tracer=Tracer(categories=["txn"]))
        obs.span_begin("txn", "outer", 0, tid=2)
        obs.span_begin("bus", "inner", 1, tid=2)  # not traced
        obs.span_end(2, tid=2)  # must NOT emit an E for "outer"
        obs.span_end(3, tid=2)
        phases = [(ev["ph"], ev["name"]) for ev in obs.tracer.events]
        assert phases == [("B", "outer"), ("E", "outer")]
        validate_trace(obs.tracer.to_json())

    def test_counter_tracks_sample_registry_counters(self):
        obs = Observability(tracer=Tracer(categories=["metrics"]))
        obs.metrics.inc("a", 7)
        obs.emit_counter_tracks(ts=42)
        (ev,) = obs.tracer.events
        assert ev["ph"] == "C" and ev["args"] == {"a": 7}
        assert ev["ts"] == 42

    def test_finalize_closes_everything(self):
        obs = Observability(
            tracer=Tracer(categories=["txn"]), profiler=CycleProfiler()
        )
        obs.span_begin("txn", "open", 0, tid=1)
        obs.finalize(50)
        validate_trace(obs.tracer.to_json())
        assert obs.profiler.sites["open"].total_cycles == 50
        assert obs._traced == {}

    def test_metrics_only_needs_no_tracer(self):
        obs = Observability()
        obs.span("txn", "work", 0, 10)
        obs.instant("kernel", "fault", 5)
        obs.counter_track("metrics", "x", 1, 2)  # all no-ops, no error
        obs.metrics.inc("x")
        assert obs.metrics.value("x") == 1
