"""Golden-value tests for :class:`repro.analytics.core.StatsFold`.

The fixture log is small enough to compute every statistic by hand, so
these are *value* tests: a change to the aggregation arithmetic fails
loudly instead of silently shifting experiment tables.
"""

from repro.analytics.core import StatsFold, fold_records
from repro.hw.params import LOG_RECORD_SIZE, PAGE_SIZE
from repro.hw.records import LogRecord
from repro.obs.core import Observability, installed
from repro.obs.machine_sources import snapshot_machine
from repro.obs.workloads import run_workload

# Five writes: three to page 0 (two to the same address), two to page 2.
GOLDEN = [
    LogRecord(addr=0x0010, value=1, size=4, timestamp=100),
    LogRecord(addr=0x0010, value=2, size=4, timestamp=110),
    LogRecord(addr=0x0100, value=3, size=2, timestamp=150),
    LogRecord(addr=2 * PAGE_SIZE, value=4, size=4, timestamp=160),
    LogRecord(addr=2 * PAGE_SIZE + 8, value=5, size=1, timestamp=200),
]


def stats_of(records):
    (stats,) = fold_records(records, StatsFold())
    return stats


class TestComputeStatsGolden:
    def test_golden_values(self):
        stats = stats_of(GOLDEN)
        assert stats.record_count == 5
        assert stats.bytes_logged == 5 * LOG_RECORD_SIZE == 80
        assert stats.data_bytes_written == 4 + 4 + 2 + 4 + 1 == 15
        assert stats.duration_timestamps == 200 - 100 == 100
        assert stats.pages_touched == 2
        assert stats.writes_per_page == {0: 3, 2: 2}

    def test_derived_rates(self):
        stats = stats_of(GOLDEN)
        # 5 records over 100 timestamps -> 50 per 1000 timestamps.
        assert stats.writes_per_1k_timestamps == 50.0
        # 80 log bytes carrying 15 data bytes.
        assert stats.log_expansion == 80 / 15

    def test_empty_log(self):
        stats = stats_of([])
        assert stats.record_count == 0
        assert stats.writes_per_1k_timestamps == 0.0
        assert stats.log_expansion == 0.0
        assert stats.writes_per_page == {}

    def test_single_record_has_zero_duration(self):
        stats = stats_of(GOLDEN[:1])
        assert stats.duration_timestamps == 0
        assert stats.writes_per_1k_timestamps == 0.0


class TestMetricsAgreeWithLogstats:
    def test_counters_match_compute_stats_on_live_run(self):
        # The observability counters and the post-hoc log analysis are
        # two independent tallies of the same run; they must agree.
        with installed(Observability()) as obs:
            summary = run_workload("copy")
            stats = stats_of(summary["log"].records())
            snap = snapshot_machine(summary["machine"], obs)
        assert stats.record_count == summary["records_logged"]
        assert snap["gauges"]["hw.logger.records_logged"] == stats.record_count
        assert stats.data_bytes_written == summary["bytes_written"]
        assert stats.bytes_logged == stats.record_count * LOG_RECORD_SIZE
