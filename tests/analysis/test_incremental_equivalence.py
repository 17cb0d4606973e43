"""The log-analysis folds of :mod:`repro.analytics.core`, pinned to
naive inline oracles over a whole record stream — and the folds' batch
entry points (the stream tap's hot paths) match their per-record forms
exactly."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from conftest import reuse_distances
from repro.analytics.core import (
    LocalityFold,
    RedundancyFold,
    StatsFold,
    WindowedWss,
    fold_records,
)
from repro.hw.params import LINE_SIZE, LOG_RECORD_SIZE, PAGE_SIZE
from repro.hw.records import LogRecord


def synthetic_records(n=500, seed=0x5EED):
    """A deterministic, locality-rich record stream (no RNG needed)."""
    records = []
    state = seed
    ts = 100
    for i in range(n):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        # Mix hot loops over a few lines with occasional far jumps.
        if state % 10 < 7:
            addr = 0x1000 + (state % 16) * 4
        else:
            addr = 0x1000 + (state % 4096) * 4
        size = (1, 2, 4)[state % 3]
        ts += state % 7
        records.append(
            LogRecord(
                addr=addr,
                value=state & 0xFFFFFFFF,
                size=size,
                timestamp=ts,
            )
        )
    return records


class TestLogStatsEquivalence:
    def test_compute_stats_matches_naive_oracle(self):
        records = synthetic_records()
        (stats,) = fold_records(records, StatsFold())

        assert stats.record_count == len(records)
        assert stats.bytes_logged == len(records) * LOG_RECORD_SIZE
        assert stats.data_bytes_written == sum(r.size for r in records)
        assert stats.duration_timestamps == (
            records[-1].timestamp - records[0].timestamp
        )
        per_page = Counter(r.addr // PAGE_SIZE for r in records)
        assert stats.writes_per_page == dict(per_page)
        assert stats.pages_touched == len(per_page)

    def test_empty_log(self):
        stats = StatsFold()
        assert stats.record_count == 0
        assert stats.duration_timestamps == 0
        assert stats.writes_per_1k_timestamps == 0.0
        assert stats.log_expansion == 0.0


class TestLocalityEquivalence:
    def test_analyse_locality_matches_reuse_distance_oracle(self):
        records = synthetic_records()
        (report,) = fold_records(records, LocalityFold())

        lines = [r.addr // LINE_SIZE for r in records]
        distances = reuse_distances(lines)
        assert report.accesses == len(records)
        assert report.unique_lines == len(set(lines))
        assert report.unique_pages == len(
            {r.addr // PAGE_SIZE for r in records}
        )
        assert report.cold_accesses == distances.count(-1)
        assert report.hot_fraction == (
            sum(1 for d in distances if 0 <= d < 8) / len(records)
        )
        histogram = Counter()
        for d in distances:
            if d < 0:
                histogram[-1] += 1
                continue
            bucket = 0
            while (1 << (bucket + 1)) <= d + 1:
                bucket += 1
            histogram[bucket] += 1
        assert report.histogram == histogram

    def test_working_set_curve_matches_chunking_oracle(self):
        records = synthetic_records(n=333)
        for window in (1, 7, 64, 500):
            (wss,) = fold_records(records, WindowedWss(window))
            curve = wss.curve()
            pages = [r.addr // PAGE_SIZE for r in records]
            oracle = [
                len(set(pages[i : i + window]))
                for i in range(0, len(pages), window)
            ]
            assert curve == oracle, f"window={window}"


class TestRedundancyEquivalence:
    def test_analyse_matches_counter_oracle(self):
        records = synthetic_records()
        (report,) = fold_records(records, RedundancyFold())

        counts = Counter(r.addr for r in records)
        assert report.total_writes == len(records)
        assert report.unique_locations == len(counts)
        assert report.redundant_writes == len(records) - len(counts)
        assert report.hot_locations(5) == counts.most_common(5)
        assert report.compression_ratio == len(records) / len(counts)


class TestWindowedWssBatchPaths:
    """The stream tap's batch entry points versus the per-record fold."""

    def chunked(self, pages, sizes):
        pos = 0
        for size in sizes:
            yield pages[pos : pos + size]
            pos += size
        if pos < len(pages):
            yield pages[pos:]

    @pytest.mark.parametrize("window", [1, 3, 16, 64])
    def test_extend_pages_array_equals_per_page_fold(self, window):
        pages = [(p * 7 + p // 13) % 29 for p in range(211)]
        reference = WindowedWss(window)
        for page in pages:
            reference.fold_page(page)
        vectorised = WindowedWss(window)
        for chunk in self.chunked(pages, [2, 1, 47, 0, 128, 9]):
            vectorised.extend_pages_array(np.asarray(chunk, dtype=np.uint64))
        assert vectorised.curve() == reference.curve()
        assert vectorised.latest == reference.latest
        assert vectorised.windows_closed == reference.windows_closed
