"""Tests: write monitoring, reverse execution, and address tracing."""

import pytest

from repro.analytics.core import RedundancyFold, StatsFold, fold_records
from repro.core.log_reader import LogFollower, RegionLogView
from repro.core.log_segment import LogSegment
from repro.core.process import Process
from repro.core.region import StdRegion
from repro.core.segment import StdSegment
from repro.debugger import (
    TraceCacheSimulator,
    WriteMonitor,
    extract_trace,
    write_intensity,
)
from repro.hw.params import PAGE_SIZE
from repro.replay import ReplayEngine
from repro.sanitize import race


def make_target(machine, proc, size=2 * PAGE_SIZE, logged=False):
    seg = StdSegment(size, machine=machine)
    region = StdRegion(seg)
    if logged:
        region.log(LogSegment(machine=machine))
    va = region.bind(proc.address_space())
    return region, va


class TestWriteMonitor:
    def test_attaches_log_dynamically(self, machine, proc):
        region, va = make_target(machine, proc)
        assert not region.is_logged
        monitor = WriteMonitor(region)
        assert region.is_logged
        monitor.detach()
        assert not region.is_logged

    def test_watch_hits(self, machine, proc):
        region, va = make_target(machine, proc)
        monitor = WriteMonitor(region)
        monitor.watch(va + 0x100)
        proc.write(va + 0x100, 42)
        proc.write(va + 0x200, 7)  # unwatched
        hits, _ = monitor.poll()
        assert len(hits) == 1
        assert hits[0].vaddr == va + 0x100
        assert hits[0].value == 42

    def test_overwrite_detection(self, machine, proc):
        region, va = make_target(machine, proc)
        monitor = WriteMonitor(region)
        proc.write(va, 1)
        proc.write(va, 2)  # the erroneous overwrite
        _, overwrites = monitor.poll()
        assert len(overwrites) == 1
        assert (overwrites[0].first_value, overwrites[0].second_value) == (1, 2)

    def test_acknowledge_suppresses_overwrite(self, machine, proc):
        region, va = make_target(machine, proc)
        monitor = WriteMonitor(region)
        proc.write(va, 1)
        monitor.poll()
        monitor.acknowledge(va)
        proc.write(va, 2)
        _, overwrites = monitor.poll()
        assert overwrites == []

    def test_poll_consumes_records(self, machine, proc):
        region, va = make_target(machine, proc)
        monitor = WriteMonitor(region)
        proc.write(va, 1)
        monitor.poll()
        hits, overwrites = monitor.poll()
        assert hits == [] and overwrites == []

    def test_unwatch(self, machine, proc):
        region, va = make_target(machine, proc)
        monitor = WriteMonitor(region)
        monitor.watch(va)
        monitor.unwatch(va)
        proc.write(va, 1)
        hits, _ = monitor.poll()
        assert hits == []


class TestReverseExecutor:
    def test_state_at_positions(self, machine, proc):
        region, va = make_target(machine, proc)
        engine = ReplayEngine(region)
        proc.write(va, 10)
        proc.write(va + 4, 20)
        proc.write(va, 30)
        assert len(engine) == 3
        s0 = engine.state_at(0)
        assert s0[:8] == bytes(8)
        s2 = engine.state_at(2)
        assert int.from_bytes(s2[0:4], "little") == 10
        assert int.from_bytes(s2[4:8], "little") == 20
        s3 = engine.state_at(3)
        assert int.from_bytes(s3[0:4], "little") == 30

    def test_when_written(self, machine, proc):
        region, va = make_target(machine, proc)
        engine = ReplayEngine(region)
        proc.write(va, 1)
        proc.write(va + 8, 2)
        proc.write(va, 3)
        hits = engine.writes_to(va)
        assert [pos for pos, _ in hits] == [1, 3]
        assert [r.value for _, r in hits] == [1, 3]

    def test_checkpoint_preserves_pre_attach_state(self, machine, proc):
        region, va = make_target(machine, proc)
        proc.write(va, 0xAA)  # before the debugger attaches
        engine = ReplayEngine(region)
        proc.write(va, 0xBB)
        assert int.from_bytes(engine.state_at(0)[0:4], "little") == 0xAA

    def test_history_quiesces_every_cpu(self, machine, proc):
        # Regression: history() used to sync only CPU 0.  Reading the
        # log is then unordered with the other CPUs' writes — the
        # cycle-domain race the sanitizer exists to catch — whereas a
        # whole-machine quiesce is a global barrier.
        region, va = make_target(machine, proc)
        engine = ReplayEngine(region)
        other = Process(machine, cpu_index=1, address_space=proc.address_space())
        proc.write(va, 0x11)
        machine.quiesce()  # order CPU 0's write before CPU 1's
        detector = race.LogRaceDetector()
        race.install(detector)
        try:
            other.write(va, 0x22)
            assert len(engine) == 2  # CPU 1's write is visible
            proc.write(va, 0x33)  # CPU 0 writes after reading history
        finally:
            race.uninstall()
        # history()'s quiesce ordered CPU 1's write before CPU 0's next
        # one; with the old sync(cpu(0)) these two writes race.
        assert detector.races_seen == 0
        assert int.from_bytes(engine.state_at(3)[0:4], "little") == 0x33

    def test_seek_uses_checkpoints_near_the_tip(self, machine, proc):
        region, va = make_target(machine, proc)
        engine = ReplayEngine(region, checkpoint_interval=8)
        for i in range(40):
            proc.write(va + 4 * (i % 16), i)
        engine.state_at(39)
        # A near-tip seek replays only the gap past the last checkpoint,
        # never the whole 40-write history.
        assert engine.stats.records_replayed < 8
        assert engine.stats.checkpoints_captured == 4


class TestTraceAndAnalysis:
    def _logged_region(self, machine, proc):
        region, va = make_target(machine, proc, logged=True)
        return region, region.log_segment, va

    def test_extract_trace(self, machine, proc):
        region, log, va = self._logged_region(machine, proc)
        for i in range(10):
            proc.write(va + 4 * i, i)
        trace = extract_trace(log)
        assert len(trace) == 10
        assert all(t.size == 4 for t in trace)
        stamps = [t.timestamp for t in trace]
        assert stamps == sorted(stamps)

    def test_trace_feeds_cache_simulator(self, machine, proc):
        region, log, va = self._logged_region(machine, proc)
        for _ in range(4):
            for i in range(8):
                proc.write(va + 4 * i, i)
        trace = extract_trace(log)
        sim = TraceCacheSimulator(size_bytes=256)
        hits, misses = sim.run(trace)
        assert hits + misses == 32
        assert sim.hit_rate > 0.5  # strong locality in this loop

    def test_write_intensity_buckets(self, machine, proc):
        region, log, va = self._logged_region(machine, proc)
        proc.write(va, 1)
        proc.compute(100_000)
        proc.write(va + 4, 2)
        trace = extract_trace(log)
        buckets = write_intensity(trace, bucket_cycles=1000)
        assert buckets[0] == 1
        assert buckets[-1] == 1
        assert sum(buckets) == 2

    def test_redundancy_analysis(self, machine, proc):
        region, log, va = self._logged_region(machine, proc)
        for v in range(9):
            proc.write(va, v)  # 9 writes, 1 location
        proc.write(va + 4, 1)
        machine.quiesce()
        (report,) = fold_records(log.records(), RedundancyFold())
        assert report.total_writes == 10
        assert report.unique_locations == 2
        assert report.redundant_writes == 8
        assert report.hot_locations()[0][1] == 9
        assert report.compression_ratio == 5.0

    def test_log_stats(self, machine, proc):
        region, log, va = self._logged_region(machine, proc)
        for i in range(20):
            proc.write(va + 64 * i, i)
        machine.quiesce()
        (stats,) = fold_records(log.records(), StatsFold())
        assert stats.record_count == 20
        assert stats.bytes_logged == 320
        assert stats.data_bytes_written == 80
        assert stats.pages_touched == 1
        assert stats.log_expansion == 4.0

    def test_empty_log_stats(self, machine):
        stats = StatsFold()
        assert stats.record_count == 0
        assert stats.writes_per_1k_timestamps == 0.0


@pytest.mark.parametrize(
    "attach",
    [
        lambda region: lambda: extract_trace(region.log_segment),
        lambda region: WriteMonitor(region, consume=False).poll,
        lambda region: LogFollower(RegionLogView(region)).synchronize,
    ],
    ids=["extract_trace", "WriteMonitor.poll", "LogFollower.synchronize"],
)
def test_log_read_quiesces_every_cpu(machine, proc, attach):
    # Regression: these readers used to sync only CPU 0, leaving CPU 1's
    # write unordered with CPU 0's next one — the cycle-domain race the
    # sanitizer exists to catch.  A whole-machine quiesce is a global
    # barrier, as in ReplayEngine.history().
    region, va = make_target(machine, proc, logged=True)
    read_log = attach(region)
    other = Process(machine, cpu_index=1, address_space=proc.address_space())
    proc.write(va, 0x11)
    machine.quiesce()  # order CPU 0's write before CPU 1's
    detector = race.LogRaceDetector()
    race.install(detector)
    try:
        other.write(va, 0x22)
        read_log()
        proc.write(va, 0x33)  # CPU 0 writes after reading the log
    finally:
        race.uninstall()
    assert detector.races_seen == 0
