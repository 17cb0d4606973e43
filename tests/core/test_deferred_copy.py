"""Deferred copy semantics (sections 2.3 / 3.3) + property tests.

The defining property: a deferred-copy destination must be
indistinguishable from a segment initialised by copying the source,
and ``reset_deferred_copy`` must be indistinguishable from re-copying.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SegmentError
from repro.core.deferred_copy import ResetStats, reset_cost_cycles
from repro.core.segment import StdSegment
from repro.hw.params import LINE_SIZE, PAGE_SIZE, MachineConfig


def make_pair(machine, npages=4, fill=True):
    src = StdSegment(npages * PAGE_SIZE, machine=machine)
    if fill:
        for i in range(npages * PAGE_SIZE // 64):
            src.write(64 * i, i + 1, 4)
    dst = StdSegment(npages * PAGE_SIZE, machine=machine)
    dst.source_segment(src)
    return src, dst


class TestDeferredCopySemantics:
    def test_initial_reads_come_from_source(self, machine):
        src, dst = make_pair(machine)
        assert dst.read(64, 4) == src.read(64, 4) == 2

    def test_write_shadows_source(self, machine):
        src, dst = make_pair(machine)
        dst.write(64, 999, 4)
        assert dst.read(64, 4) == 999
        assert src.read(64, 4) == 2  # "leaving A unchanged"

    def test_partial_line_write_preserves_source_bytes(self, machine):
        src, dst = make_pair(machine)
        src.write_bytes(0, bytes(range(16)))
        dst.write(4, 0xFF, 1)  # 1-byte write in the middle of the line
        got = dst.read_bytes(0, 16)
        expected = bytearray(range(16))
        expected[4] = 0xFF
        assert got == bytes(expected)

    def test_reset_restores_source_view(self, machine):
        src, dst = make_pair(machine)
        dst.write(64, 999, 4)
        dst.reset_deferred_copy()
        assert dst.read(64, 4) == 2

    def test_reset_equals_bcopy_functionally(self, machine):
        """resetDeferredCopy ≡ copying A to B (section 2.3)."""
        src, dst = make_pair(machine)
        for off in range(0, dst.size, 128):
            dst.write(off, 0xBAD, 4)
        dst.reset_deferred_copy()
        assert dst.snapshot() == src.snapshot()

    def test_reset_range_only(self, machine):
        src, dst = make_pair(machine)
        dst.write(0, 111, 4)  # page 0
        dst.write(PAGE_SIZE, 222, 4)  # page 1
        dst.reset_deferred_copy(0, PAGE_SIZE)
        assert dst.read(0, 4) == src.read(0, 4)
        assert dst.read(PAGE_SIZE, 4) == 222

    def test_sub_page_reset_keeps_writes_outside_its_range(self, machine):
        src, dst = make_pair(machine)
        dst.write(0, 111, 4)
        dst.write(2048, 222, 4)
        stats = dst.reset_deferred_copy(0, LINE_SIZE)
        assert (stats.pages_scanned, stats.dirty_pages, stats.dirty_lines) == (1, 1, 1)
        assert dst.read(0, 4) == src.read(0, 4)
        assert dst.read(2048, 4) == 222
        # The page still holds one dirty line, so a second reset finds it.
        assert dst.reset_deferred_copy(0, PAGE_SIZE).dirty_lines == 1
        assert dst.read(2048, 4) == src.read(2048, 4)

    def test_reset_bounds_must_be_line_aligned(self, machine):
        src, dst = make_pair(machine)
        with pytest.raises(SegmentError):
            dst.reset_deferred_copy(4, PAGE_SIZE)
        with pytest.raises(SegmentError):
            dst.reset_deferred_copy(0, LINE_SIZE + 8)

    def test_reset_stats_counts(self, machine):
        src, dst = make_pair(machine, npages=4)
        dst.write(0, 1, 4)
        dst.write(4, 2, 4)  # same line
        dst.write(LINE_SIZE, 3, 4)  # second line, same page
        dst.write(PAGE_SIZE, 4, 4)  # second page
        stats = dst.reset_deferred_copy()
        assert stats.pages_scanned == 4
        assert stats.dirty_pages == 2
        assert stats.dirty_lines == 3

    def test_reset_without_source_rejected(self, machine):
        seg = StdSegment(PAGE_SIZE, machine=machine)
        with pytest.raises(SegmentError):
            seg.reset_deferred_copy()

    def test_self_source_rejected(self, machine):
        seg = StdSegment(PAGE_SIZE, machine=machine)
        with pytest.raises(SegmentError):
            seg.source_segment(seg)

    def test_source_too_small_rejected(self, machine):
        small = StdSegment(PAGE_SIZE, machine=machine)
        big = StdSegment(2 * PAGE_SIZE, machine=machine)
        with pytest.raises(SegmentError):
            big.source_segment(small)

    def test_source_with_offset(self, machine):
        src = StdSegment(2 * PAGE_SIZE, machine=machine)
        src.write(PAGE_SIZE + 8, 77, 4)
        dst = StdSegment(PAGE_SIZE, machine=machine)
        dst.source_segment(src, offset=PAGE_SIZE)
        assert dst.read(8, 4) == 77

    def test_attaching_source_clears_prior_writes(self, machine):
        src = StdSegment(PAGE_SIZE, machine=machine)
        src.write(0, 5, 4)
        dst = StdSegment(PAGE_SIZE, machine=machine)
        dst.write(0, 9, 4)
        dst.source_segment(src)
        assert dst.read(0, 4) == 5

    def test_integer_access_straddling_a_page_rejected(self, machine):
        src, dst = make_pair(machine)
        src.write_bytes(PAGE_SIZE - 8, bytes(range(1, 17)))
        with pytest.raises(SegmentError):
            dst.write(PAGE_SIZE - 2, 0x11223344, 4)
        with pytest.raises(SegmentError):
            dst.read(PAGE_SIZE - 2, 4)
        # The rejected store left no trace on either page.
        assert dst.snapshot() == src.snapshot()
        assert dst.reset_deferred_copy().dirty_lines == 0

    def test_integer_read_across_a_dirty_and_a_clean_line(self, machine):
        src, dst = make_pair(machine)
        src.write_bytes(0, bytes(range(1, 33)))
        dst.write(0, 0xAA, 1)  # dirties line 0 only
        assert dst.read(LINE_SIZE - 2, 4) == int.from_bytes(bytes([15, 16, 17, 18]), "little")

    def test_byte_reads_merge_dirty_and_clean_lines(self, machine):
        src, dst = make_pair(machine)
        src.write_bytes(0, b"A" * 48)
        dst.write_bytes(16, b"B" * 16)  # exactly the middle line
        assert dst.read_bytes(0, 48) == b"A" * 16 + b"B" * 16 + b"A" * 16


class TestResetCostModel:
    def test_clean_reset_is_cheap(self):
        config = MachineConfig()
        clean = reset_cost_cycles(config, ResetStats(pages_scanned=512))
        dirty = reset_cost_cycles(
            config, ResetStats(pages_scanned=512, dirty_pages=512, dirty_lines=512 * 256)
        )
        assert clean < dirty / 100

    def test_cost_monotone_in_dirtiness(self):
        config = MachineConfig()
        costs = [
            reset_cost_cycles(
                config,
                ResetStats(pages_scanned=8, dirty_pages=d, dirty_lines=256 * d),
            )
            for d in range(9)
        ]
        assert costs == sorted(costs)
        assert costs[0] < costs[-1]


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(0, 2 * PAGE_SIZE // 4 - 1),  # word index
            st.integers(0, 2**32 - 1),
        ),
        max_size=60,
    ),
    reset_points=st.sets(st.integers(0, 59), max_size=5),
)
def test_property_dc_matches_shadow_copy(ops, reset_points):
    """Deferred copy behaves exactly like a real copy, under any op mix.

    A shadow model keeps an explicit copied buffer; after every write
    and every reset, the deferred-copy destination must agree with it.
    """
    from repro.core.context import boot, set_current_machine

    machine = boot(MachineConfig(memory_bytes=8 * 1024 * 1024))
    try:
        src = StdSegment(2 * PAGE_SIZE, machine=machine)
        for i in range(0, 2 * PAGE_SIZE, 4):
            src.write(i, (i * 2654435761) & 0xFFFFFFFF, 4)
        dst = StdSegment(2 * PAGE_SIZE, machine=machine)
        dst.source_segment(src)
        shadow = bytearray(src.snapshot())

        for step, (word, value) in enumerate(ops):
            if step in reset_points:
                dst.reset_deferred_copy()
                shadow = bytearray(src.snapshot())
            dst.write(word * 4, value, 4)
            shadow[word * 4 : word * 4 + 4] = value.to_bytes(4, "little")

        assert dst.snapshot() == bytes(shadow)
        assert src.snapshot() != b""  # source untouched by construction
    finally:
        set_current_machine(None)
