"""Tests: RegionLogView translation and LogFollower streaming."""

import pytest

from conftest import make_logged_region
from repro.errors import LoggingError
from repro.core.log_reader import LogFollower, RegionLogView
from repro.core.region import StdRegion
from repro.core.segment import StdSegment
from repro.hw.params import PAGE_SIZE


class TestRegionLogView:
    def test_offset_and_va_translation(self, machine, proc):
        region, log, va = make_logged_region(machine, size=4 * PAGE_SIZE)
        proc.write(va + PAGE_SIZE + 0x24, 7)
        machine.quiesce()
        view = RegionLogView(region)
        (record,) = view.records()
        assert view.offset_of(record) == PAGE_SIZE + 0x24
        assert view.va_of(record) == va + PAGE_SIZE + 0x24

    def test_virtual_records_translated_directly(self, onchip_machine):
        machine = onchip_machine
        proc = machine.current_process
        region, log, va = make_logged_region(machine)
        proc.write(va + 0x40, 1)
        machine.quiesce()
        view = RegionLogView(region)
        (record,) = view.records()
        assert record.is_virtual
        assert view.offset_of(record) == 0x40
        assert view.va_of(record) == va + 0x40

    def test_frame_map_cache_survives_remap(self, machine, proc):
        # Regression: offset_of caches frame->page translations, and a
        # stale hit after the kernel remaps pages (or the allocator
        # reuses a frame number for a different page) must not silently
        # translate a record to the wrong segment offset.
        region, log, va = make_logged_region(machine, size=4 * PAGE_SIZE)
        proc.write(va + 0x10, 1)  # page 0
        proc.write(va + PAGE_SIZE + 0x20, 2)  # page 1
        machine.quiesce()
        view = RegionLogView(region)
        rec0, rec1 = view.records()
        # Populate the cache with the current frame layout.
        assert view.offset_of(rec0) == 0x10
        assert view.offset_of(rec1) == PAGE_SIZE + 0x20
        # Remap: the two pages swap physical frames.  The old records'
        # physical addresses now belong to the *other* page.
        page0 = region.segment.page(0)
        page1 = region.segment.page(1)
        page0.frame, page1.frame = page1.frame, page0.frame
        assert view.offset_of(rec0) == PAGE_SIZE + 0x10
        assert view.offset_of(rec1) == 0x20

    def test_foreign_record_rejected(self, machine, proc):
        region, log, va = make_logged_region(machine)
        view = RegionLogView(region)
        from repro.hw.records import LogRecord

        ghost = LogRecord(addr=0xDEAD000, value=0, size=4, timestamp=0)
        with pytest.raises(LoggingError):
            view.offset_of(ghost)

    def test_requires_a_log(self, machine, proc):
        region = StdRegion(StdSegment(PAGE_SIZE, machine=machine))
        region.bind(proc.address_space())
        with pytest.raises(LoggingError):
            RegionLogView(region)

    def test_updates_stream(self, machine, proc):
        region, log, va = make_logged_region(machine)
        proc.write(va, 10)
        proc.write(va + 8, 20, 2)
        machine.quiesce()
        view = RegionLogView(region)
        assert list(view.updates()) == [(0, 10, 4), (8, 20, 2)]

    def test_apply_to_replays(self, machine, proc):
        region, log, va = make_logged_region(machine)
        for i in range(8):
            proc.write(va + 4 * i, 100 + i)
        machine.quiesce()
        view = RegionLogView(region)
        replica = StdSegment(region.size, machine=machine)
        applied = view.apply_to(replica)
        assert applied == 8
        assert replica.read_bytes(0, 32) == region.segment.read_bytes(0, 32)

    def test_apply_to_with_limit(self, machine, proc):
        from repro.hw.params import LOG_RECORD_SIZE

        region, log, va = make_logged_region(machine)
        for i in range(4):
            proc.write(va + 4 * i, i + 1)
        machine.quiesce()
        view = RegionLogView(region)
        replica = StdSegment(region.size, machine=machine)
        applied = view.apply_to(replica, limit_offset=2 * LOG_RECORD_SIZE)
        assert applied == 2
        assert replica.read(4, 4) == 2
        assert replica.read(8, 4) == 0

    @pytest.mark.parametrize("extended", [False, True], ids=["16-byte", "extended"])
    def test_apply_to_virtual_records_across_log_pages(self, onchip_machine, extended):
        # The on-chip logger's records carry virtual addresses, and its
        # 24-byte extended records leave padding at each log page's end.
        # 600 writes of mixed sizes fill several log pages, repeat and
        # overlap words, and touch two segment pages.
        machine = onchip_machine
        proc = machine.current_process
        region, log, va = make_logged_region(machine, extended_records=extended)
        for i in range(600):
            size = (1, 2, 4)[i % 3]
            offset = (i * 7) % 64 * 4 + i % 4 // size * size + (PAGE_SIZE if i % 5 == 0 else 0)
            proc.write(va + offset, (i * 2654435761) & ((1 << 8 * size) - 1), size)
        machine.quiesce()
        assert log.append_offset > 2 * PAGE_SIZE
        view = RegionLogView(region)
        loop = StdSegment(region.size, machine=machine)
        for offset, value, size in view.updates():
            loop.write(offset, value, size)
        replica = StdSegment(region.size, machine=machine)
        assert view.apply_to(replica) == 600
        assert replica.snapshot() == loop.snapshot() == region.segment.snapshot()

    def test_apply_to_stops_at_an_untranslatable_record(self, machine, proc):
        region, log, va = make_logged_region(machine, size=4 * PAGE_SIZE)
        proc.write(va + 4, 1)
        proc.write(va + PAGE_SIZE + 8, 2)
        proc.write(va + 12, 3)
        machine.quiesce()
        # Page 1 moves to a fresh frame, so its record no longer translates.
        region.segment.page(1).frame = machine.memory.allocate_frame()
        view = RegionLogView(region)
        replica = StdSegment(region.size, machine=machine)
        assert view.apply_to(replica, limit_offset=log.record_size) == 1
        with pytest.raises(LoggingError):
            view.apply_to(replica)
        # As a loop over the records: the write before it landed, the
        # one after it did not.
        assert (replica.read(4, 4), replica.read(PAGE_SIZE + 8, 4), replica.read(12, 4)) == (1, 0, 0)


class TestLogFollower:
    def test_poll_sees_only_new_records(self, machine, proc):
        region, log, va = make_logged_region(machine)
        follower = LogFollower(RegionLogView(region))
        proc.write(va, 1)
        machine.quiesce()
        assert [r.value for r in follower.poll()] == [1]
        proc.write(va + 4, 2)
        proc.write(va + 8, 3)
        machine.quiesce()
        assert [r.value for r in follower.poll()] == [2, 3]
        assert follower.poll() == []
        assert follower.records_seen == 3

    def test_backlog_tracking(self, machine, proc):
        region, log, va = make_logged_region(machine)
        follower = LogFollower(RegionLogView(region))
        for i in range(5):
            proc.write(va + 4 * i, i)
        machine.quiesce()
        assert follower.backlog_bytes == 5 * 16
        follower.poll()
        assert follower.backlog_bytes == 0

    def test_backlog_excludes_truncated_records(self, machine, proc):
        region, log, va = make_logged_region(machine)
        follower = LogFollower(RegionLogView(region))
        for i in range(8):
            proc.write(va + 4 * i, i)
        machine.quiesce()
        log.truncate(log.append_offset)  # the producer drops it all
        assert follower.backlog_bytes == 0
        assert follower.poll() == []
        proc.write(va, 9)
        machine.quiesce()
        assert follower.backlog_bytes == log.record_size
        assert [r.value for r in follower.poll()] == [9]

    def test_synchronize_lands_inflight_records(self, machine, proc):
        region, log, va = make_logged_region(machine)
        follower = LogFollower(RegionLogView(region))
        proc.write(va, 42)  # still in the logger pipeline
        records = follower.synchronize()
        assert [r.value for r in records] == [42]

    def test_survives_producer_truncation(self, machine, proc):
        region, log, va = make_logged_region(machine)
        follower = LogFollower(RegionLogView(region))
        proc.write(va, 1)
        machine.quiesce()
        follower.poll()
        log.truncate()  # producer trims consumed history
        proc.write(va + 4, 2)
        machine.quiesce()
        assert [r.value for r in follower.poll()] == [2]

    def test_poll_after_producer_rewinds_below_cursor(self, machine, proc):
        region, log, va = make_logged_region(machine)
        follower = LogFollower(RegionLogView(region))
        for i in range(3):
            proc.write(va + 4 * i, i + 1)
        machine.quiesce()
        assert [r.value for r in follower.poll()] == [1, 2, 3]
        log.rewind(log.start_offset + log.record_size)  # roll back two
        assert follower.poll() == []
        proc.write(va + 4, 9)
        machine.quiesce()
        assert [r.value for r in follower.poll()] == [9]
        assert follower.backlog_bytes == 0
        assert follower.records_seen == 4
