"""Integration tests: the full logged-region path through the kernel.

These exercise the paper's Figure 1 structure end to end: program
writes → bus → logger → log segment, with logging faults, dynamic
enable/disable, per-process logs, and overload handling.
"""

import pytest

from conftest import make_logged_region
from repro.errors import UnsupportedOperationError
from repro.core.log_segment import LogSegment
from repro.core.process import create_process
from repro.core.region import StdRegion
from repro.core.segment import StdSegment
from repro.hw.logger import LogMode
from repro.hw.params import LOG_RECORD_SIZE, PAGE_SIZE


class TestLoggedRegionEndToEnd:
    def test_every_write_logged_in_order(self, machine, proc):
        region, log, va = make_logged_region(machine)
        for i in range(50):
            proc.write(va + 4 * i, 1000 + i)
        machine.quiesce()
        records = list(log.records())
        assert len(records) == 50
        assert [r.value for r in records] == list(range(1000, 1050))
        assert all(r.size == 4 for r in records)

    def test_log_records_carry_physical_addresses(self, machine, proc):
        """The prototype logs physical addresses (section 3.1.2)."""
        region, log, va = make_logged_region(machine)
        proc.write(va + 0x24, 7)
        machine.quiesce()
        (record,) = log.records()
        frame = region.segment.page(0).frame
        assert record.addr == frame.base_addr + 0x24
        assert not record.is_virtual

    def test_timestamps_monotone(self, machine, proc):
        region, log, va = make_logged_region(machine)
        for i in range(30):
            proc.compute(10)
            proc.write(va + 4 * i, i)
        machine.quiesce()
        stamps = [r.timestamp for r in log.records()]
        assert stamps == sorted(stamps)

    def test_sub_word_writes_logged_with_size(self, machine, proc):
        region, log, va = make_logged_region(machine)
        proc.write(va, 0xAB, 1)
        proc.write(va + 2, 0xCDEF, 2)
        machine.quiesce()
        records = list(log.records())
        assert [(r.value, r.size) for r in records] == [(0xAB, 1), (0xCDEF, 2)]

    def test_unlogged_region_generates_no_records(self, machine, proc):
        seg = StdSegment(PAGE_SIZE, machine=machine)
        va = StdRegion(seg).bind(proc.address_space())
        proc.write(va, 1)
        machine.quiesce()
        assert machine.logger.stats.records_logged == 0

    def test_log_spans_many_pages(self, machine, proc):
        region, log, va = make_logged_region(machine, size=16 * PAGE_SIZE)
        per_page = PAGE_SIZE // LOG_RECORD_SIZE
        n = 3 * per_page + 10
        for i in range(n):
            proc.write(va + 4 * (i % (4 * 1024)), i)
        machine.quiesce()
        assert log.record_count == n
        assert [r.value for r in log.records()] == list(range(n))
        # Page-boundary logging faults occurred and were serviced.
        assert machine.logger.stats.boundary_fault_count >= 3

    def test_writes_to_many_data_pages(self, machine, proc):
        region, log, va = make_logged_region(machine, size=8 * PAGE_SIZE)
        for page in range(8):
            proc.write(va + page * PAGE_SIZE, page)
        machine.quiesce()
        assert log.record_count == 8
        assert machine.kernel.stats.logged_page_faults == 8

    def test_dynamic_disable_and_reenable(self, machine, proc):
        """Logging can be dynamically disabled and re-enabled (2.7)."""
        region, log, va = make_logged_region(machine)
        proc.write(va, 1)
        machine.quiesce()
        region.unlog()
        proc.write(va + 4, 2)  # not logged
        machine.quiesce()
        log2 = LogSegment(machine=machine)
        region.log(log2)
        proc.write(va + 8, 3)
        machine.quiesce()
        assert [r.value for r in log.records()] == [1]
        assert [r.value for r in log2.records()] == [3]
        assert region.segment.read(4, 4) == 2  # the write itself landed

    def test_attach_log_to_already_bound_region(self, machine, proc):
        """A separate program (debugger) can add logging later (2.7)."""
        seg = StdSegment(PAGE_SIZE, machine=machine)
        region = StdRegion(seg)
        va = region.bind(proc.address_space())
        proc.write(va, 1)  # unlogged; faults the page in
        log = LogSegment(machine=machine)
        region.log(log)
        proc.write(va + 4, 2)
        machine.quiesce()
        assert [r.value for r in log.records()] == [2]

    def test_prototype_single_logged_region_per_segment(self, machine, proc):
        """Section 3.1.2: only one logged region per segment."""
        seg = StdSegment(PAGE_SIZE, machine=machine)
        other = create_process(machine, cpu_index=1)
        r1, r2 = StdRegion(seg), StdRegion(seg)
        r1.log(LogSegment(machine=machine))
        r2.log(LogSegment(machine=machine))
        r1.bind(proc.address_space())
        with pytest.raises(UnsupportedOperationError):
            r2.bind(other.address_space())

    def test_unlog_frees_the_slot(self, machine, proc):
        seg = StdSegment(PAGE_SIZE, machine=machine)
        other = create_process(machine, cpu_index=1)
        r1, r2 = StdRegion(seg), StdRegion(seg)
        r1.log(LogSegment(machine=machine))
        r1.bind(proc.address_space())
        r1.unlog()
        r2.log(LogSegment(machine=machine))
        r2.bind(other.address_space())  # now allowed

    def test_pmt_eviction_is_recovered(self, machine, proc):
        """A PMT conflict miss is reloaded by a logging fault (3.2)."""
        region, log, va = make_logged_region(machine)
        proc.write(va, 1)
        machine.quiesce()
        # Evict the entry behind the kernel's back.
        machine.logger.pmt.invalidate(region.segment.page(0).frame.base_addr)
        proc.write(va + 4, 2)
        machine.quiesce()
        assert [r.value for r in log.records()] == [1, 2]
        assert machine.logger.stats.pmt_fault_count >= 1

    def test_default_page_absorption_and_resume(self, machine, proc):
        """Records are lost without extension, recovered after (3.2)."""
        region, log, va = make_logged_region(
            machine, log_kwargs=dict(size=4 * PAGE_SIZE, auto_extend=False, initial_pages=1)
        )
        per_page = PAGE_SIZE // LOG_RECORD_SIZE
        for i in range(per_page + 10):
            proc.write(va + 4 * (i % 1024), i)
        machine.quiesce()
        assert log.lost_records == 10
        assert log.record_count == per_page
        # The user extends the log; logging resumes.
        log.extend(1)
        proc.write(va, 0xBEEF)
        machine.quiesce()
        assert log.lost_records == 10
        assert list(log.records())[-1].value == 0xBEEF


class TestLoggingModes:
    def test_direct_mapped_region(self, machine, proc):
        """Direct-mapped mode mirrors writes at the same offset (2.6)."""
        seg = StdSegment(2 * PAGE_SIZE, machine=machine)
        region = StdRegion(seg)
        log = LogSegment(size=2 * PAGE_SIZE, machine=machine)
        region.log(log, mode=LogMode.DIRECT_MAPPED)
        va = region.bind(proc.address_space())
        proc.write(va + 0x100, 0xAA55)
        proc.write(va + PAGE_SIZE + 0x20, 0x1234)
        machine.quiesce()
        assert log.page(0).frame.read(0x100, 4) == 0xAA55
        assert log.page(1).frame.read(0x20, 4) == 0x1234

    def test_indexed_region_streams_values(self, machine, proc):
        seg = StdSegment(PAGE_SIZE, machine=machine)
        region = StdRegion(seg)
        log = LogSegment(machine=machine)
        region.log(log, mode=LogMode.INDEXED)
        va = region.bind(proc.address_space())
        for v in (5, 10, 15, 20):
            proc.write(va, v)
        machine.quiesce()
        assert list(log.values())[:4] == [5, 10, 15, 20]


class TestOverloadIntegration:
    def test_rapid_writes_overload_and_suspend(self, machine, proc):
        region, log, va = make_logged_region(machine, size=16 * PAGE_SIZE)
        # No compute between writes: far below the stability threshold.
        n = 2000
        for i in range(n):
            proc.write(va + 4 * (i % 4096), i)
        machine.quiesce()
        assert machine.logger.stats.overload_events >= 1
        assert proc.cpu.stats.suspend_cycles > 0
        # No records were lost — they were all logged, just slowly.
        assert log.record_count == n

    def test_spaced_writes_do_not_overload(self, machine, proc):
        region, log, va = make_logged_region(machine)
        for i in range(500):
            proc.compute(40)  # comfortably above the 27-cycle threshold
            proc.write(va + 4 * (i % 1024), i)
        machine.quiesce()
        assert machine.logger.stats.overload_events == 0


class TestOnChipLogger:
    def test_records_carry_virtual_addresses(self, onchip_machine):
        machine = onchip_machine
        proc = machine.current_process
        region, log, va = make_logged_region(machine)
        proc.write(va + 0x30, 42)
        machine.quiesce()
        (record,) = log.records()
        assert record.is_virtual
        assert record.addr == va + 0x30

    def test_per_region_logs_on_same_segment(self, onchip_machine):
        """Section 4.6: per-region logging is directly supported."""
        machine = onchip_machine
        proc = machine.current_process
        other = create_process(machine, cpu_index=1)
        seg = StdSegment(PAGE_SIZE, machine=machine)
        r1, r2 = StdRegion(seg), StdRegion(seg)
        l1, l2 = LogSegment(machine=machine), LogSegment(machine=machine)
        r1.log(l1)
        r2.log(l2)
        va1 = r1.bind(proc.address_space())
        va2 = r2.bind(other.address_space())
        proc.write(va1, 100)
        other.write(va2 + 4, 200)
        machine.quiesce()
        assert [r.value for r in l1.records()] == [100]
        assert [r.value for r in l2.records()] == [200]

    def test_no_overload_ever(self, onchip_machine):
        """Section 4.6: the FIFO overload mechanism is gone; instead "the
        processor is automatically stalled if there is an excessive
        level of write activity to a logged region"."""
        machine = onchip_machine
        proc = machine.current_process
        stats = proc.cpu.stats
        region, log, va = make_logged_region(machine, size=4 * PAGE_SIZE)
        for i in range(3000):
            proc.write(va + 4 * (i % 1024), i)
        machine.quiesce()
        assert log.record_count == 3000
        # Back to back, every write after the first waits for the one
        # write-buffer entry ahead of it.
        assert stats.write_buffer_stalls == 2999
        stalls = stats.write_buffer_stalls
        for i in range(3000):
            proc.write(va + 4 * (i % 1024), i)
            proc.compute(200)
        machine.quiesce()
        assert log.record_count == 6000
        # One write per 200 cycles never stalls the writer.
        assert stats.write_buffer_stalls == stalls

    def test_extended_records_capture_old_value(self, onchip_machine):
        machine = onchip_machine
        proc = machine.current_process
        region, log, va = make_logged_region(
            machine, log_kwargs=dict(extended_records=True)
        )
        proc.write(va, 1)
        proc.write(va, 2)
        machine.quiesce()
        records = list(log.records())
        assert records[0].old_value == 0
        assert records[1].old_value == 1
        assert records[1].value == 2

    def test_extended_records_need_onchip(self, machine, proc):
        with pytest.raises(UnsupportedOperationError):
            make_logged_region(machine, log_kwargs=dict(extended_records=True))

    def test_logged_write_cost_close_to_unlogged(self, onchip_machine):
        """Section 4.6: logged ≈ unlogged cost with on-chip support."""
        machine = onchip_machine
        proc = machine.current_process
        region, log, va = make_logged_region(machine)
        useg = StdSegment(4 * PAGE_SIZE, machine=machine)
        uva = StdRegion(useg).bind(proc.address_space())
        # Touch pages first so faults are excluded.
        proc.write(va, 0)
        proc.write(uva, 0)

        t0 = proc.now
        for i in range(200):
            proc.compute(50)
            proc.write(va + 4 * (i % 1024), i)
        logged = proc.now - t0

        t0 = proc.now
        for i in range(200):
            proc.compute(50)
            proc.write(uva + 4 * (i % 1024), i)
        unlogged = proc.now - t0
        assert logged <= unlogged * 1.1
