"""Tests: locality analysis and the optional L2 cache model."""


import pytest

from conftest import make_logged_region, reuse_distances
from repro.analytics.core import LocalityFold, WindowedWss, fold_records
from repro.core.context import boot, set_current_machine
from repro.core.region import StdRegion
from repro.core.segment import StdSegment
from repro.hw.params import LINE_SIZE, PAGE_SIZE, MachineConfig
from repro.hw.records import LogRecord


def rec(addr):
    return LogRecord(addr=addr, value=0, size=4, timestamp=0)


def locality(records):
    (fold,) = fold_records(records, LocalityFold())
    return fold


class TestReuseDistances:
    def test_first_touches_are_cold(self):
        assert reuse_distances([1, 2, 3]) == [-1, -1, -1]

    def test_immediate_reuse_is_zero(self):
        assert reuse_distances([1, 1]) == [-1, 0]

    def test_stack_distance_counts_distinct_intervening(self):
        # access 1, then 2, 3, then 1 again: two distinct lines between
        assert reuse_distances([1, 2, 3, 1]) == [-1, -1, -1, 2]

    def test_repeats_do_not_inflate_distance(self):
        assert reuse_distances([1, 2, 2, 2, 1]) == [-1, -1, 0, 0, 1]


class TestAnalyseLocality:
    def test_hot_loop_has_high_locality(self):
        records = [rec(LINE_SIZE * (i % 4)) for i in range(100)]
        report = locality(records)
        assert report.unique_lines == 4
        assert report.hot_fraction > 0.9
        assert report.cache_hit_estimate(64) > 0.9

    def test_streaming_scan_has_no_reuse(self):
        records = [rec(LINE_SIZE * i) for i in range(100)]
        report = locality(records)
        assert report.cold_accesses == 100
        assert report.hot_fraction == 0.0
        assert report.cache_hit_estimate(1 << 20) == 0.0

    def test_empty_trace(self):
        report = LocalityFold()
        assert report.accesses == 0
        assert report.hot_fraction == 0.0

    def test_working_set_curve(self):
        records = [rec(PAGE_SIZE * (i // 64)) for i in range(256)]
        (wss,) = fold_records(records, WindowedWss(64))
        assert wss.curve() == [1, 1, 1, 1]
        spread = [rec(PAGE_SIZE * i) for i in range(128)]
        (wss,) = fold_records(spread, WindowedWss(64))
        assert wss.curve() == [64, 64]

    def test_from_real_log(self, machine, proc):
        region, log, va = make_logged_region(machine)
        for _ in range(3):
            for i in range(8):
                proc.write(va + 4 * i, i)
        machine.quiesce()
        report = locality(log.records())
        assert report.accesses == 24
        assert report.unique_pages == 1
        assert report.unique_lines == 2  # 8 words = 2 lines
        assert report.hot_fraction > 0.9


def fold_distance(distance):
    """Fold one reuse at ``distance``: line 0, then ``distance`` fresh
    lines, then line 0 again."""
    fold = LocalityFold()
    for line in range(distance + 1):
        fold.fold_line(line)
    assert fold.fold_line(0) == distance
    return fold


class TestHistogramBuckets:
    """Bucket ``i`` holds distances with 2**i <= d + 1 < 2**(i + 1)."""

    @pytest.mark.parametrize(
        "distance, bucket", [(0, 0), (1, 1), (2, 1), (3, 2), (6, 2)]
    )
    def test_bucket_of_distance(self, distance, bucket):
        fold = fold_distance(distance)
        assert fold.histogram == {-1: distance + 1, bucket: 1}
        assert fold.cold_accesses == distance + 1

    def test_cache_hit_estimate_rounds_down_at_bucket_edge(self):
        # Distance 2 lands in bucket 1, counted as a hit only once the
        # cache holds 2**2 = 4 lines, although a 3-line LRU cache would
        # already hit it.
        fold = fold_distance(2)
        assert fold.accesses == 4
        assert fold.cache_hit_estimate(3) == 0.0
        assert fold.cache_hit_estimate(4) == 0.25
        # Distance 3 opens bucket 2, which needs 8 lines.
        fold = fold_distance(3)
        assert fold.cache_hit_estimate(7) == 0.0
        assert fold.cache_hit_estimate(8) == 0.2


class TestL2Model:
    def run_sweep(self, model_l2, working_set_bytes):
        machine = boot(
            MachineConfig(
                memory_bytes=256 * 1024 * 1024,
                model_l2=model_l2,
                l2_bytes=64 * 1024,  # small L2 so the test stays fast
            )
        )
        try:
            proc = machine.current_process
            seg = StdSegment(working_set_bytes, machine=machine)
            va = StdRegion(seg).bind(proc.address_space())
            # Warm up: fault pages in and take the cold L2 misses once.
            for off in range(0, working_set_bytes, 64):
                proc.read(va + off)
            t0 = proc.now
            # Two passes of strided reads over the working set.
            for _ in range(2):
                for off in range(0, working_set_bytes, 64):
                    proc.read(va + off)
            return proc.now - t0
        finally:
            set_current_machine(None)

    def test_within_l2_equals_flat_model(self):
        small = 16 * 1024  # fits the 64 KB model L2
        with_l2 = self.run_sweep(model_l2=True, working_set_bytes=small)
        flat = self.run_sweep(model_l2=False, working_set_bytes=small)
        # Once warm, a fitting working set behaves exactly like the
        # flat always-hit model.
        assert with_l2 == flat

    def test_thrashing_l2_costs_memory_latency(self):
        big = 256 * 1024  # 4x the model L2
        with_l2 = self.run_sweep(model_l2=True, working_set_bytes=big)
        flat = self.run_sweep(model_l2=False, working_set_bytes=big)
        assert with_l2 > 2 * flat

    def test_l2_shared_between_cpus(self):
        machine = boot(
            MachineConfig(
                memory_bytes=64 * 1024 * 1024, model_l2=True, l2_bytes=64 * 1024
            )
        )
        try:
            assert machine.l2 is not None
            assert all(cpu.l2 is machine.l2 for cpu in machine.cpus)
        finally:
            set_current_machine(None)

    def test_default_config_has_no_l2_model(self, machine):
        assert machine.l2 is None
