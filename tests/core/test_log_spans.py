"""The span reader of LogSegment against a per-record decode.

``LogSegment.record_spans`` decodes a page of records per call; these
tests compare every offset and field it yields with a decode that
walks the log one record at a time, for the dense 16-byte format and
the page-padded 24-byte extended format, and check the closed-form
record counts kept by ``rewind`` and ``record_count``.
"""

import pytest

from conftest import make_logged_region
from repro.core.log_reader import RegionLogView
from repro.core.log_segment import LogSegment
from repro.hw.params import PAGE_SIZE
from repro.hw.records import (
    FLAG_VIRTUAL_ADDR,
    decode_extended_record,
    decode_record,
    encode_extended_record,
    encode_record,
)

FORMATS = ("normal", "extended")


def make_log(machine, fmt, n):
    """A log holding ``n`` distinct records, appended as the hardware
    (16-byte) or the on-chip sink (24-byte, page-padded) would."""
    log = LogSegment(machine=machine, extended_records=fmt == "extended")
    append(log, n)
    return log


def append(log, n):
    sink = log.make_sink()
    for _ in range(n):
        i = log.records_appended
        fields = (0x1000 + 40 * i, 7 * i, (1, 2, 4)[i % 3], i)
        flags = FLAG_VIRTUAL_ADDR if i % 3 == 0 else 0
        if log.extended_records:
            data = encode_extended_record(*fields, old_value=i ^ 0xFF, flags=flags)
        else:
            data = encode_record(*fields, flags=flags)
        log.machine.memory.write_bytes(sink(data), data)


def offsets(stride, start, end):
    """Offsets of the whole records in ``[start, end)``, one at a time."""
    out = []
    offset = start
    while offset + stride <= end:
        if PAGE_SIZE - offset % PAGE_SIZE < stride:
            offset = (offset // PAGE_SIZE + 1) * PAGE_SIZE
            continue
        out.append(offset)
        offset += stride
    return out


def per_record(log, start=None, end=None):
    """``(offset, fields)`` for each retained record, one decode at a time."""
    stride = log.record_size
    decode = decode_extended_record if log.extended_records else decode_record
    start = log.start_offset if start is None else max(start, log.start_offset)
    end = log.append_offset if end is None else min(end, log.append_offset)
    out = []
    for offset in offsets(stride, start, end):
        r = decode(log.read_bytes(offset, stride))
        out.append((offset, (r.addr, r.value, r.size, r.flags, r.timestamp)))
    return out


def spans(log, start=None, end=None):
    stride = log.record_size
    out = []
    for span_start, rows in log.record_spans(start, end):
        rows = list(rows)
        assert rows, "a span holds at least one record"
        # A span never leaves its page.
        last_end = span_start + len(rows) * stride
        assert (last_end - 1) // PAGE_SIZE == span_start // PAGE_SIZE
        out.extend((span_start + i * stride, row) for i, row in enumerate(rows))
    return out


def mid_page_offset(log, page):
    """Offset of a record in the middle of ``page``."""
    return next(off for off, _ in per_record(log) if off >= page * PAGE_SIZE + PAGE_SIZE // 2)


@pytest.mark.parametrize("fmt", FORMATS)
class TestRecordSpans:
    def test_whole_log(self, machine, fmt):
        log = make_log(machine, fmt, 900)
        expected = per_record(log)
        assert len(expected) == 900
        assert spans(log) == expected

    def test_start_mid_page(self, machine, fmt):
        log = make_log(machine, fmt, 900)
        start = mid_page_offset(log, 1)
        assert spans(log, start) == per_record(log, start)
        assert spans(log, start)[0][0] == start

    def test_start_below_truncation_clamps(self, machine, fmt):
        log = make_log(machine, fmt, 900)
        log.truncate(mid_page_offset(log, 0))
        assert spans(log, 0) == spans(log) == per_record(log)
        assert spans(log, 0)[0][0] == log.start_offset

    def test_end_bounds_the_range(self, machine, fmt):
        log = make_log(machine, fmt, 900)
        end = mid_page_offset(log, 2)
        assert spans(log, end=end) == per_record(log, end=end)
        assert spans(log, end=end)[-1][0] + log.record_size == end

    def test_empty_ranges(self, machine, fmt):
        log = make_log(machine, fmt, 900)
        start = mid_page_offset(log, 1)
        assert spans(log, log.append_offset) == []
        assert spans(log, log.append_offset + PAGE_SIZE) == []
        assert spans(log, start, start) == []
        assert spans(make_log(machine, fmt, 0)) == []

    def test_rewound_tail(self, machine, fmt):
        log = make_log(machine, fmt, 900)
        log.rewind(mid_page_offset(log, 1))
        assert spans(log) == per_record(log)
        append(log, 300)  # re-appended records reuse the dropped offsets
        assert spans(log) == per_record(log)
        start = mid_page_offset(log, 1)
        assert spans(log, start) == per_record(log, start)


@pytest.mark.parametrize("fmt", FORMATS)
def test_closed_form_counts_match_records(machine, fmt):
    log = make_log(machine, fmt, 900)  # crosses three or more page boundaries
    assert log.append_offset > 3 * PAGE_SIZE
    assert log.records_appended == log.record_count == len(list(log.records())) == 900

    log.rewind(mid_page_offset(log, 1))
    kept = len(list(log.records()))
    assert 0 < kept < 900
    assert log.records_appended == log.record_count == kept

    append(log, 250)
    log.truncate(mid_page_offset(log, 0))
    retained = len(list(log.records()))
    assert log.record_count == retained
    head = len(offsets(log.record_size, 0, log.start_offset))
    assert head > 0
    assert log.records_appended == retained + head


@pytest.mark.parametrize("fmt", FORMATS)
def test_records_view_matches_spans(machine, fmt):
    log = make_log(machine, fmt, 300)
    assert [
        (r.addr, r.value, r.size, r.flags, r.timestamp) for r in log.records()
    ] == [row for _, row in spans(log)]
    assert [off for off, _ in log.records_with_offsets()] == [off for off, _ in spans(log)]
    if fmt == "extended":
        assert {r.old_value for r in log.records()} == {i ^ 0xFF for i in range(300)}


def test_translator_matches_offset_of(machine, proc):
    region, log, va = make_logged_region(machine, size=4 * PAGE_SIZE)
    for i in range(40):
        proc.write(va + (i * 700) % (4 * PAGE_SIZE - 4), i)
    machine.quiesce()
    view = RegionLogView(region)
    to_offset = view.translator()
    assert [to_offset(r.addr, r.flags) for r in log.records()] == [
        view.offset_of(r) for r in log.records()
    ]
    # A fresh translator sees a remap; the old one keeps its pass's map.
    (first, *_) = log.records()
    page0, page1 = region.segment.page(0), region.segment.page(1)
    page0.frame, page1.frame = page1.frame, page0.frame
    assert view.translator()(first.addr, first.flags) == view.offset_of(first) == PAGE_SIZE
    assert to_offset(first.addr, first.flags) == 0

