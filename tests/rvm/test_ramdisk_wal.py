"""Unit tests: RAM disk and write-ahead log."""

import pytest

from repro.errors import AddressError, RecoveryError
from repro.backends.ramdisk import RamDisk
from repro.rvm.wal import EntryKind, WriteAheadLog


class TestRamDisk:
    def test_write_read_roundtrip(self, machine, proc):
        disk = RamDisk(4096)
        disk.write(proc.cpu, 100, b"durable")
        assert disk.read(proc.cpu, 100, 7) == b"durable"

    def test_charges_cycles(self, machine, proc):
        disk = RamDisk(4096)
        t0 = proc.now
        disk.write(proc.cpu, 0, b"x" * 512)
        cost = proc.now - t0
        assert cost >= disk.op_overhead_cycles

    def test_larger_transfers_cost_more(self, machine, proc):
        disk = RamDisk(1 << 20)
        t0 = proc.now
        disk.write(proc.cpu, 0, b"x" * 256)
        small = proc.now - t0
        t0 = proc.now
        disk.write(proc.cpu, 0, b"x" * 4096)
        large = proc.now - t0
        assert large > small

    def test_out_of_range_rejected(self, machine, proc):
        disk = RamDisk(128)
        with pytest.raises(AddressError):
            disk.write(proc.cpu, 120, b"too long!")
        with pytest.raises(AddressError):
            disk.read(proc.cpu, -1, 4)

    def test_peek_poke_untimed(self, machine, proc):
        disk = RamDisk(128)
        t0 = proc.now
        disk.poke(0, b"abc")
        assert disk.peek(0, 3) == b"abc"
        assert proc.now == t0

    def test_op_counters(self, machine, proc):
        disk = RamDisk(4096)
        disk.write(proc.cpu, 0, b"ab")
        disk.read(proc.cpu, 0, 2)
        assert disk.write_ops == 1
        assert disk.read_ops == 1
        assert disk.bytes_written == 2


class TestWriteAheadLog:
    def test_append_and_scan(self, machine, proc):
        wal = WriteAheadLog(RamDisk(1 << 16))
        wal.append_begin(proc.cpu, 1)
        wal.append_write(proc.cpu, 1, 0, 64, b"\x01\x02")
        wal.append_commit(proc.cpu, 1)
        entries = list(wal.entries())
        assert [e.kind for e in entries] == [
            EntryKind.BEGIN,
            EntryKind.WRITE,
            EntryKind.COMMIT,
        ]
        assert entries[1].offset == 64
        assert entries[1].data == b"\x01\x02"

    def test_committed_filtering(self, machine, proc):
        wal = WriteAheadLog(RamDisk(1 << 16))
        wal.append_write(proc.cpu, 1, 0, 0, b"A")
        wal.append_commit(proc.cpu, 1)
        wal.append_write(proc.cpu, 2, 0, 4, b"B")  # never committed
        wal.append_write(proc.cpu, 3, 0, 8, b"C")
        wal.append_abort(proc.cpu, 3)
        committed = list(wal.committed_writes())
        assert [e.data for e in committed] == [b"A"]

    def test_group_append_is_one_disk_op(self, machine, proc):
        disk = RamDisk(1 << 16)
        wal = WriteAheadLog(disk)
        wal.append_writes(
            proc.cpu, 5, [(0, 0, b"xx"), (0, 8, b"yy"), (1, 0, b"zz")]
        )
        assert disk.write_ops == 1
        assert len(list(wal.entries())) == 3

    def test_empty_group_append_is_a_no_op(self, machine, proc):
        """Regression: an empty write group must not touch the disk,
        charge cycles, or bump any metric — exactly like an empty
        append_transactions call."""
        from repro.obs import core as obscore
        from repro.obs.core import Observability

        disk = RamDisk(1 << 16)
        wal = WriteAheadLog(disk)
        with obscore.installed(Observability()) as obs:
            before = obs.metrics.snapshot()
            t0 = proc.now
            wal.append_writes(proc.cpu, 5, [])
            assert proc.now == t0
            assert obs.metrics.snapshot() == before
        assert disk.write_ops == 0
        assert disk.bytes_written == 0
        assert wal.appends == 0
        assert wal.tail == 0
        assert list(wal.entries()) == []

    def test_reset(self, machine, proc):
        wal = WriteAheadLog(RamDisk(1 << 16))
        wal.append_commit(proc.cpu, 1)
        wal.reset()
        assert list(wal.entries()) == []

    def test_full_log_rejected(self, machine, proc):
        wal = WriteAheadLog(RamDisk(64), capacity=16)
        with pytest.raises(RecoveryError):
            for i in range(10):
                wal.append_commit(proc.cpu, i)
