"""Tests: mapped-I/O output device, state visualizer, mapped files."""

import pytest

from conftest import make_logged_region
from repro.errors import LVMError
from repro.core.log_reader import RegionLogView
from repro.core.mapped_file import MappedFile
from repro.core.process import create_process
from repro.output import MappedOutputDevice, StateVisualizer
from repro.backends.ramdisk import RamDisk
from repro.hw.params import PAGE_SIZE


class TestMappedOutputDevice:
    def test_writes_appear_on_device(self, machine, proc):
        display = MappedOutputDevice(proc, width=16, height=4)
        display.text(2, 1, "HELLO")
        rows = display.refresh()
        assert rows[1][2:7] == "HELLO"

    def test_readback_served_by_memory(self, machine, proc):
        display = MappedOutputDevice(proc, width=8, height=2)
        display.put(3, 0, "X")
        assert display.readback(3, 0) == "X"

    def test_overwrite_updates_device(self, machine, proc):
        display = MappedOutputDevice(proc, width=8, height=1)
        display.put(0, 0, "A")
        display.put(0, 0, "B")
        assert display.refresh()[0][0] == "B"

    def test_out_of_bounds_rejected(self, machine, proc):
        display = MappedOutputDevice(proc, width=8, height=2)
        with pytest.raises(LVMError):
            display.put(8, 0, "X")
        with pytest.raises(LVMError):
            MappedOutputDevice(proc, width=0)

    def test_device_memory_is_not_the_backing_memory(self, machine, proc):
        display = MappedOutputDevice(proc, width=8, height=1)
        display.put(1, 0, "Z")
        machine.quiesce()
        assert display.device_memory is not display.backing
        assert display.device_memory.read_bytes(1, 1) == b"Z"
        assert display.backing.read_bytes(1, 1) == b"Z"


class TestStateVisualizer:
    def make(self, machine):
        app = machine.current_process
        out = create_process(machine, cpu_index=1)
        region, log, va = make_logged_region(machine, size=PAGE_SIZE)
        viz = StateVisualizer(
            out, region, watch=[("alpha", 0), ("beta", 4)], bar_scale=1
        )
        return app, out, region, va, viz

    def test_replica_tracks_watched_cells(self, machine):
        app, out, region, va, viz = self.make(machine)
        app.write(va, 7)
        app.write(va + 4, 3)
        app.write(va + 8, 999)  # unwatched
        viz.synchronize()
        assert viz.value("alpha") == 7
        assert viz.value("beta") == 3

    def test_render_frame(self, machine):
        app, out, region, va, viz = self.make(machine)
        app.write(va, 5)
        machine.quiesce()
        frame = viz.render()
        assert frame.updates_consumed == 1
        assert any("alpha" in line and "#####" in line for line in frame.lines)

    def test_interpretation_charged_to_output_cpu(self, machine):
        """The offloading claim: the application CPU pays nothing for
        visualisation; the output CPU pays per record."""
        app, out, region, va, viz = self.make(machine)
        for i in range(50):
            app.write(va, i)
        machine.quiesce()
        app_before = app.now
        out_before = out.now
        viz.poll()
        assert app.now == app_before
        assert out.now > out_before

    def test_backlog_and_incremental_polls(self, machine):
        app, out, region, va, viz = self.make(machine)
        app.write(va, 1)
        machine.quiesce()
        assert viz.poll() == 1
        assert viz.poll() == 0
        app.write(va, 2)
        machine.quiesce()
        assert viz.backlog_bytes > 0
        viz.poll()
        assert viz.value("alpha") == 2

    def test_unlogged_region_rejected(self, machine):
        from repro.core.region import StdRegion
        from repro.core.segment import StdSegment

        proc = machine.current_process
        region = StdRegion(StdSegment(PAGE_SIZE, machine=machine))
        region.bind(proc.address_space())
        with pytest.raises(LVMError):
            StateVisualizer(proc, region, watch=[("x", 0)])


class TestMappedFile:
    def make(self, machine, proc, content=b"file contents here"):
        disk = RamDisk(1 << 16)
        disk.poke(0, content)
        mf = MappedFile(proc, disk, file_offset=0, file_bytes=2 * PAGE_SIZE)
        return disk, mf

    def test_pages_fault_in_from_file(self, machine, proc):
        disk, mf = self.make(machine, proc)
        data = proc.read_bytes(mf.base_va, 18)
        assert data == b"file contents here"
        assert mf.manager.pages_faulted_in == 1

    def test_msync_writes_back(self, machine, proc):
        disk, mf = self.make(machine, proc)
        proc.write_bytes(mf.base_va, b"EDITED")
        mf.msync()
        assert disk.peek(0, 6) == b"EDITED"

    def test_incremental_msync_from_log(self, machine, proc):
        from repro.core.log_segment import LogSegment

        disk, mf = self.make(machine, proc)
        log = LogSegment(machine=proc.machine)
        mf.region.log(log)
        proc.write(mf.base_va + 100, 0xAABBCCDD)
        proc.machine.quiesce()
        view = RegionLogView(mf.region, log)
        ops_before = disk.write_ops
        written = mf.msync_from_log(view)
        assert written == 4
        assert disk.peek(100, 4) == (0xAABBCCDD).to_bytes(4, "little")
        # Far fewer I/O bytes than a full msync of the resident page.
        assert disk.write_ops == ops_before + 1

    def test_beyond_eof_zero_filled(self, machine, proc):
        disk = RamDisk(1 << 16)
        disk.poke(0, b"x" * 10)
        mf = MappedFile(proc, disk, file_offset=0, file_bytes=PAGE_SIZE)
        # Mapping is one page; a second StdSegment page would be EOF.
        assert proc.read(mf.base_va + PAGE_SIZE - 4) == 0

    def test_unaligned_file_offset_rejected(self, machine, proc):
        from repro.errors import SegmentError

        disk = RamDisk(1 << 16)
        with pytest.raises(SegmentError):
            MappedFile(proc, disk, file_offset=100, file_bytes=PAGE_SIZE)
