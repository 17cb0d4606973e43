"""Edge-case tests: kernel fault paths, log table pressure, stats."""

import pytest

from conftest import make_logged_region
from repro.errors import LoggingError
from repro.core.context import boot, set_current_machine
from repro.core.log_segment import LogSegment
from repro.core.region import StdRegion
from repro.core.segment import StdSegment
from repro.hw.params import LOG_RECORD_SIZE, PAGE_SIZE, MachineConfig


class TestLogTablePressure:
    def test_log_table_exhaustion(self, machine, proc):
        """Only ``log_table_entries`` logs can be active at once."""
        capacity = machine.config.log_table_entries
        regions = []
        for i in range(capacity):
            seg = StdSegment(PAGE_SIZE, machine=machine)
            region = StdRegion(seg)
            region.log(LogSegment(machine=machine))
            region.bind(proc.address_space())
            regions.append(region)
        overflow = StdRegion(StdSegment(PAGE_SIZE, machine=machine))
        overflow.log(LogSegment(machine=machine))
        with pytest.raises(LoggingError):
            overflow.bind(proc.address_space())
        # Unloading one (context-switch style) frees a slot.
        machine.kernel.detach_region_log(regions[0], cpu=proc.cpu)
        overflow2 = StdRegion(StdSegment(PAGE_SIZE, machine=machine))
        overflow2.log(LogSegment(machine=machine))
        overflow2.bind(proc.address_space())

    def test_many_active_logs_interleave_correctly(self, machine, proc):
        regions = []
        for i in range(8):
            region, log, va = make_logged_region(machine, size=PAGE_SIZE)
            regions.append((region, log, va))
        for round_ in range(5):
            for i, (_, _, va) in enumerate(regions):
                proc.write(va + 4 * round_, 100 * i + round_)
        machine.quiesce()
        for i, (_, log, _) in enumerate(regions):
            assert [r.value for r in log.records()] == [
                100 * i + round_ for round_ in range(5)
            ]


class TestInterruptRouting:
    def test_logging_faults_counted_by_vector(self, machine, proc):
        region, log, va = make_logged_region(machine)
        per_page = PAGE_SIZE // LOG_RECORD_SIZE
        for i in range(per_page + 1):
            proc.write(va + 4 * (i % 1024), i)
        machine.quiesce()
        # The first page is loaded eagerly at attach; crossing into the
        # second page raises the boundary fault.
        assert machine.logger.stats.boundary_fault_count >= 1

    def test_overload_vector_counted(self, machine, proc):
        region, log, va = make_logged_region(machine)
        for i in range(1500):
            proc.write(va + 4 * (i % 1024), i)
        machine.quiesce()
        assert machine.logger.stats.overload_events >= 1


class TestKernelStats:
    def test_stats_snapshot(self, machine, proc):
        region, log, va = make_logged_region(machine)
        proc.write(va, 1)
        snap = machine.kernel.stats.snapshot()
        assert snap["page_faults"] == 1
        assert snap["logged_page_faults"] == 1

    def test_direct_mapped_updates_counted(self, machine, proc):
        from repro.hw.logger import LogMode

        seg = StdSegment(PAGE_SIZE, machine=machine)
        region = StdRegion(seg)
        region.log(LogSegment(size=PAGE_SIZE, machine=machine),
                   mode=LogMode.DIRECT_MAPPED)
        va = region.bind(proc.address_space())
        proc.write(va, 1)
        proc.write(va + 4, 2)
        machine.quiesce()
        assert machine.kernel.stats.direct_mapped_updates == 2


class TestLogRewindIntegration:
    def test_rewind_reloads_hardware_pointer(self, machine, proc):
        region, log, va = make_logged_region(machine)
        for i in range(6):
            proc.write(va + 4 * i, i)
        machine.quiesce()
        log.rewind(3 * LOG_RECORD_SIZE)
        proc.write(va + 100, 99)
        machine.quiesce()
        values = [r.value for r in log.records()]
        assert values == [0, 1, 2, 99]

    def test_rewind_bounds_checked(self, machine, proc):
        region, log, va = make_logged_region(machine)
        proc.write(va, 1)
        machine.quiesce()
        with pytest.raises(LoggingError):
            log.rewind(5 * LOG_RECORD_SIZE)
        log.truncate(LOG_RECORD_SIZE)
        with pytest.raises(LoggingError):
            log.rewind(0)  # below the truncation point


class TestBootAndContext:
    def test_boot_creates_process_and_kernel(self):
        machine = boot(MachineConfig(memory_bytes=8 * 1024 * 1024))
        try:
            assert machine.kernel is not None
            assert machine.current_process is machine.processes[0]
        finally:
            set_current_machine(None)

    def test_use_machine_restores_previous(self):
        from repro.core.context import current_machine, use_machine

        m1 = boot(MachineConfig(memory_bytes=8 * 1024 * 1024))
        m2 = boot(MachineConfig(memory_bytes=8 * 1024 * 1024))
        try:
            assert current_machine() is m2
            with use_machine(m1):
                assert current_machine() is m1
            assert current_machine() is m2
        finally:
            set_current_machine(None)

    def test_current_machine_boots_lazily(self):
        set_current_machine(None)
        from repro.core.context import current_machine

        machine = current_machine()
        try:
            assert machine.kernel is not None
        finally:
            set_current_machine(None)
