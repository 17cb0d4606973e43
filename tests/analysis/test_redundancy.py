"""Golden-value tests for :class:`repro.analytics.core.RedundancyFold`."""

from repro.analytics.core import RedundancyFold, fold_records
from repro.hw.records import LogRecord

# Address 0x20 written three times, 0x40 twice, 0x60 once.
GOLDEN = [
    LogRecord(addr=0x20, value=1, size=4, timestamp=10),
    LogRecord(addr=0x40, value=2, size=4, timestamp=20),
    LogRecord(addr=0x20, value=3, size=4, timestamp=30),
    LogRecord(addr=0x60, value=4, size=4, timestamp=40),
    LogRecord(addr=0x20, value=5, size=4, timestamp=50),
    LogRecord(addr=0x40, value=6, size=4, timestamp=60),
]


def redundancy_of(records):
    (report,) = fold_records(records, RedundancyFold())
    return report


class TestAnalyseGolden:
    def test_golden_values(self):
        report = redundancy_of(GOLDEN)
        assert report.total_writes == 6
        assert report.unique_locations == 3
        assert report.redundant_writes == 3
        assert report.hot_locations() == [(0x20, 3), (0x40, 2), (0x60, 1)]

    def test_derived_ratios(self):
        report = redundancy_of(GOLDEN)
        assert report.compression_ratio == 2.0  # 6 writes / 3 locations
        assert report.redundant_fraction == 0.5

    def test_top_limits_hot_locations(self):
        report = redundancy_of(GOLDEN)
        assert report.hot_locations(top=1) == [(0x20, 3)]
        # The summary counts are unaffected by the ranking cut-off.
        assert report.total_writes == 6

    def test_empty_log(self):
        report = redundancy_of([])
        assert report.total_writes == 0
        assert report.compression_ratio == 1.0  # nothing redundant
        assert report.redundant_fraction == 0.0
        assert report.hot_locations() == []

    def test_no_redundancy(self):
        report = redundancy_of(GOLDEN[:2])
        assert report.redundant_writes == 0
        assert report.compression_ratio == 1.0

