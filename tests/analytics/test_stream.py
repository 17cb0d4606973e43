"""Unit tests for the streaming log-tap framework (LogTap/AnalyticsHub)."""

from __future__ import annotations

import pytest

from conftest import make_logged_region
from repro.analytics import stream as anstream
from repro.analytics.stream import AnalyticsHub, LogTap, rebuild_tap
from repro.core.log_segment import LogSegment
from repro.errors import ConfigError
from repro.hw.params import PAGE_SIZE
from repro.hw.records import encode_extended_record, encode_record
from repro.obs.core import Observability, installed as obs_installed
from repro.obs.trace import Tracer


def write_words(machine, va, n, start=0, stride=4):
    proc = machine.current_process
    for i in range(n):
        proc.write(va + (start + i) * stride, (0xA0000000 + start + i) & 0xFFFFFFFF)
    machine.quiesce()


def tap_digest(tap):
    """Everything a tap has computed, as one comparable value."""
    now_ts = tap.stats.last_timestamp
    return {
        "stats": tap.stats.as_dict(),
        "pages": dict(tap.stats.writes_per_page),
        "curve": tap.wss.curve(),
        "latest": tap.wss.latest,
        "heat": tap.heat.top(32, now_ts),
        "write_rate": tap.write_rate.value,
        "bytes_per_tick": tap.forecast.bytes_per_tick.value,
        "rewinds": tap.rewinds,
    }


class TestLogTap:
    def test_advance_consumes_only_the_new_tail(self, machine):
        region, log, va = make_logged_region(machine)
        tap = LogTap(log)
        write_words(machine, va, 8)
        assert tap.advance() == 8
        assert tap.advance() == 0
        write_words(machine, va, 4, start=8)
        assert tap.advance() == 4
        assert tap.stats.record_count == 12

    def test_incremental_equals_one_shot(self, machine):
        region, log, va = make_logged_region(machine, size=4 * PAGE_SIZE)
        live = LogTap(log, window=8)
        # Interleave bursts with advances, crossing page boundaries.
        for burst, start in ((5, 0), (9, 1024), (3, 2048), (20, 64)):
            write_words(machine, va, burst, start=start)
            live.advance()
        oneshot = LogTap(log, window=8)
        oneshot.advance()
        # Rates are sampled per advance and heat decays at advance
        # granularity, so compare the pure folds.
        for key in ("stats", "pages", "curve", "latest"):
            assert tap_digest(live)[key] == tap_digest(oneshot)[key]

    def test_extended_and_normal_logs_fold_alike(self, machine):
        # One column decode serves both record formats: the same stream
        # in dense 16-byte records and in page-padded 24-byte extended
        # records folds identically, apart from the bytes per record.
        digests = []
        for extended in (False, True):
            log = LogSegment(machine=machine, extended_records=extended)
            sink = log.make_sink()
            tap = LogTap(log, window=16)
            for burst in (7, 170, 1, 300):
                for _ in range(burst):
                    i = log.records_appended
                    fields = (0x10000 + 52 * i, i, (1, 2, 4)[i % 3], 3 * i)
                    if extended:
                        data = encode_extended_record(*fields, old_value=i)
                    else:
                        data = encode_record(*fields)
                    machine.memory.write_bytes(sink(data), data)
                assert tap.advance() == burst
            digest = tap_digest(tap)
            del digest["bytes_per_tick"]
            digests.append(digest)
        assert digests[0] == digests[1]
        assert digests[0]["stats"]["record_count"] == 478

    def test_announced_rewind_clamps_the_cursor(self, machine):
        region, log, va = make_logged_region(machine)
        tap = LogTap(log)
        write_words(machine, va, 8)
        tap.advance()
        cut = log.start_offset + 4 * log.record_size
        log.rewind(cut)
        tap.rewound(log.append_offset)
        assert tap.rewinds == 1
        write_words(machine, va, 6, start=32)
        # The 4 rewound slots are reused by new records: all 6 re-read.
        assert tap.advance() == 6
        assert tap.stats.record_count == 14

    def test_unannounced_rewind_is_detected(self, machine):
        region, log, va = make_logged_region(machine)
        tap = LogTap(log)
        write_words(machine, va, 8)
        tap.advance()
        log.attached_kernel = None  # silence the kernel's rewind relay
        log.rewind(log.start_offset)
        assert tap.advance() == 0
        assert tap.rewinds == 1
        write_words(machine, va, 3, start=64)
        assert tap.advance() == 3

    def test_report_is_json_ready(self, machine):
        region, log, va = make_logged_region(machine)
        tap = LogTap(log, name="unit")
        write_words(machine, va, 130)
        tap.advance()
        report = tap.report(top=4)
        assert report["name"] == "unit"
        assert report["stats"]["record_count"] == 130
        assert report["wss_curve"] == tap.wss.curve()
        assert len(report["heat_top"]) <= 4
        assert report["log_bytes_retained"] == 130 * log.record_size
        import json

        json.dumps(report)


class TestRebuild:
    def test_rebuilt_tap_equals_live_tap(self, machine):
        region, log, va = make_logged_region(machine)
        live = LogTap(log)
        for burst, start in ((12, 0), (30, 256)):
            write_words(machine, va, burst, start=start)
            live.advance()
        rebuilt = rebuild_tap(log, cycle=machine.clock.now)
        for key in ("stats", "pages", "curve", "latest"):
            assert tap_digest(rebuilt)[key] == tap_digest(live)[key]
        # Heat decays at advance granularity, so a rebuild (one big
        # advance) matches a one-shot tap rather than the burst-by-burst
        # live one.
        oneshot = LogTap(log)
        oneshot.advance()
        assert tap_digest(rebuilt)["heat"] == tap_digest(oneshot)["heat"]


class TestInstall:
    def test_double_install_is_refused(self):
        hub = AnalyticsHub()
        with anstream.installed(hub):
            assert anstream.active() is hub
            with pytest.raises(ConfigError):
                anstream.install(AnalyticsHub())
        assert anstream.active() is None

    def test_installed_uninstalls_on_error(self):
        with pytest.raises(RuntimeError):
            with anstream.installed(AnalyticsHub()):
                raise RuntimeError("boom")
        assert anstream.active() is None


class TestAnalyticsHub:
    def test_kernel_attach_and_drain_feed_the_hub(self, machine):
        hub = AnalyticsHub()
        with anstream.installed(hub):
            region, log, va = make_logged_region(machine)
            tap = hub.tap_for(log)
            assert tap is not None  # auto-registered at bind time
            write_words(machine, va, 16)
            machine.logger.flush()
        assert tap.stats.record_count == 16
        assert hub.records_consumed == 16

    def test_watch_is_idempotent(self, machine):
        region, log, va = make_logged_region(machine)
        hub = AnalyticsHub()
        tap = hub.watch(log, name="a")
        assert hub.watch(log) is tap
        assert hub.tap_for(log) is tap

    def test_notify_exports_gauges_and_counter_tracks(self, machine):
        region, log, va = make_logged_region(machine)
        write_words(machine, va, 24)
        hub = AnalyticsHub()
        hub.watch(log, name="bank")
        tracer = Tracer(categories={"metrics"})
        with obs_installed(Observability(tracer=tracer)) as obs:
            assert hub.notify(machine.clock.now) == 24
            gauges = obs.metrics.snapshot()["gauges"]
        assert gauges["analytics.bank.records"] == 24
        assert gauges["analytics.bank.pages_touched"] == 1
        assert gauges["analytics.bank.log_bytes"] == 24 * log.record_size
        tracks = {
            event["name"] for event in tracer.events if event["ph"] == "C"
        }
        assert {"analytics.bank.wss", "analytics.bank.records"} <= tracks

    def test_on_sample_fires_only_when_records_flow(self, machine):
        region, log, va = make_logged_region(machine)
        hub = AnalyticsHub()
        hub.watch(log)
        samples = []
        hub.on_sample = lambda cycle, h: samples.append(cycle)
        assert hub.notify(machine.clock.now) == 0
        assert samples == []
        write_words(machine, va, 4)
        hub.notify(machine.clock.now)
        assert len(samples) == 1

    def test_hub_report_aggregates_taps(self, machine):
        region, log, va = make_logged_region(machine)
        hub = AnalyticsHub()
        hub.watch(log, name="r0")
        write_words(machine, va, 10)
        hub.notify(machine.clock.now)
        report = hub.report()
        assert report["records_consumed"] == 10
        assert [t["name"] for t in report["taps"]] == ["r0"]
