"""Unit tests: segments, pages, and functional data access."""

import pytest

from repro.errors import SegmentError
from repro.core.segment import SegmentManager, StdSegment
from repro.hw.params import PAGE_SIZE


class TestSegmentBasics:
    def test_size_rounds_up_to_pages(self, machine):
        seg = StdSegment(100, machine=machine)
        assert seg.size == PAGE_SIZE
        assert seg.num_pages == 1

    def test_zero_size_rejected(self, machine):
        with pytest.raises(SegmentError):
            StdSegment(0, machine=machine)

    def test_lazy_frame_allocation(self, machine):
        seg = StdSegment(10 * PAGE_SIZE, machine=machine)
        assert seg.resident_pages == 0
        seg.write(5 * PAGE_SIZE, 1, 4)
        assert seg.resident_pages == 1

    def test_read_unallocated_is_zero(self, machine):
        seg = StdSegment(PAGE_SIZE, machine=machine)
        assert seg.read(0, 4) == 0

    def test_write_read_roundtrip(self, machine):
        seg = StdSegment(2 * PAGE_SIZE, machine=machine)
        seg.write(PAGE_SIZE + 8, 0xABCD, 4)
        assert seg.read(PAGE_SIZE + 8, 4) == 0xABCD

    def test_out_of_range_rejected(self, machine):
        seg = StdSegment(PAGE_SIZE, machine=machine)
        with pytest.raises(SegmentError):
            seg.read(PAGE_SIZE, 4)
        with pytest.raises(SegmentError):
            seg.write(-4, 0, 4)

    def test_integer_access_straddling_a_page_rejected(self, machine):
        seg = StdSegment(2 * PAGE_SIZE, machine=machine)
        with pytest.raises(SegmentError):
            seg.write(PAGE_SIZE - 2, 0x11223344, 4)
        with pytest.raises(SegmentError):
            seg.read(PAGE_SIZE - 2, 4)

    def test_bytes_span_pages(self, machine):
        seg = StdSegment(2 * PAGE_SIZE, machine=machine)
        data = bytes(range(1, 9))
        seg.write_bytes(PAGE_SIZE - 4, data)
        assert seg.read_bytes(PAGE_SIZE - 4, 8) == data

    def test_read_bytes_unallocated_page_is_zero(self, machine):
        seg = StdSegment(2 * PAGE_SIZE, machine=machine)
        assert seg.read_bytes(0, 16) == bytes(16)

    def test_snapshot(self, machine):
        seg = StdSegment(PAGE_SIZE, machine=machine)
        seg.write(0, 0x11223344, 4)
        snap = seg.snapshot()
        assert len(snap) == PAGE_SIZE
        assert snap[:4] == bytes([0x44, 0x33, 0x22, 0x11])

    def test_page_out_of_range(self, machine):
        seg = StdSegment(PAGE_SIZE, machine=machine)
        with pytest.raises(SegmentError):
            seg.page(1)

    def test_segment_manager_hook(self, machine):
        class FillManager(SegmentManager):
            def handle_fault(self, segment, page_index, frame):
                frame.write(0, 0x42, 1)

        seg = StdSegment(PAGE_SIZE, segment_manager=FillManager(), machine=machine)
        assert seg.read(0, 1) == 0x42

    def test_uses_current_machine_by_default(self, machine):
        seg = StdSegment(PAGE_SIZE)
        assert seg.machine is machine
