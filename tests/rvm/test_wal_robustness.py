"""Robustness tests: WAL corruption handling and a stress workload."""

import random
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RecoveryError
from repro.backends.ramdisk import RamDisk
from repro.rvm.rlvm import RLVM
from repro.rvm.rvm import RVM
from repro.rvm.wal import EntryKind, WriteAheadLog


class TestWalCorruption:
    def test_torn_header_detected(self, machine, proc):
        wal = WriteAheadLog(RamDisk(1 << 16))
        wal.append_commit(proc.cpu, 1)
        wal.tail += 3  # pretend 3 junk bytes were half-written
        with pytest.raises(RecoveryError):
            list(wal.entries())

    def test_torn_payload_detected(self, machine, proc):
        wal = WriteAheadLog(RamDisk(1 << 16))
        wal.append_write(proc.cpu, 1, 0, 0, b"abcdef")
        wal.tail -= 2  # the last bytes never made it to the disk
        with pytest.raises(RecoveryError):
            list(wal.entries())

    def test_data_length_mismatch_detected(self, machine, proc):
        disk = RamDisk(1 << 16)
        wal = WriteAheadLog(disk)
        # Hand-craft a WRITE entry claiming more data than present.
        payload = struct.pack("<IHIH", 1, 0, 0, 99) + b"xx"
        frame = struct.pack("<IB", len(payload), EntryKind.WRITE) + payload
        disk.poke(0, frame)
        wal.tail = len(frame)
        with pytest.raises(RecoveryError):
            list(wal.entries())

    @staticmethod
    def _frame(kind: int, payload: bytes) -> bytes:
        return struct.pack("<IBI", len(payload), kind, zlib.crc32(payload)) + payload

    def test_write_frame_longer_than_its_data_rejected(self, machine, proc):
        """Two bytes trail the data: the frame length and the WRITE
        header's nbytes disagree, so the frame is torn everywhere."""
        disk = RamDisk(1 << 16)
        wal = WriteAheadLog(disk)
        wal.append_commit(proc.cpu, 1)
        good = wal.tail
        frame = self._frame(EntryKind.WRITE, struct.pack("<IHIH", 1, 0, 0, 4) + b"abcd" + b"zz")
        disk.poke(good, frame + b"\x00" * 9)
        wal.tail = good + len(frame)
        with pytest.raises(RecoveryError):
            wal.entries()
        with pytest.raises(RecoveryError):
            wal.committed_writes()
        assert [e.kind for e in wal.scan_recover()] == [EntryKind.COMMIT]
        assert wal.tail == good

    def test_unknown_kind_rejected(self, machine, proc):
        disk = RamDisk(1 << 16)
        wal = WriteAheadLog(disk)
        wal.append_commit(proc.cpu, 1)
        good = wal.tail
        frame = self._frame(9, struct.pack("<I", 2))
        disk.poke(good, frame + b"\x00" * 9)
        wal.tail = good + len(frame)
        with pytest.raises(RecoveryError):
            wal.entries()
        with pytest.raises(RecoveryError):
            wal.committed_tids()
        assert [e.tid for e in wal.scan_recover()] == [1]
        assert wal.tail == good

    @settings(max_examples=25, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(
                st.integers(1, 100),  # tid
                st.integers(0, 3),  # seg
                st.integers(0, 4000).map(lambda x: x & ~3),
                st.binary(min_size=1, max_size=32),
            ),
            max_size=10,
        )
    )
    def test_property_entries_roundtrip(self, entries):
        from conftest import TEST_CONFIG
        from repro.core.context import boot, set_current_machine

        machine = boot(TEST_CONFIG)
        try:
            cpu = machine.cpu(0)
            wal = WriteAheadLog(RamDisk(1 << 18))
            for tid, seg, offset, data in entries:
                wal.append_write(cpu, tid, seg, offset, data)
            decoded = list(wal.entries())
            assert [(e.tid, e.seg_id, e.offset, e.data) for e in decoded] == entries
        finally:
            set_current_machine(None)


class TestRecoverableMemoryStress:
    @pytest.mark.parametrize("backend_cls", [RVM, RLVM])
    def test_long_random_workload_with_periodic_crashes(
        self, machine, proc, backend_cls
    ):
        """Hundreds of transactions, random aborts, periodic crashes:
        the durable state always equals the committed-prefix model."""
        rng = random.Random(20_26)
        backend = backend_cls(proc)
        va = backend.map("db", 8192)
        expected = {}  # word index -> committed value

        for round_ in range(12):
            for _ in range(20):
                txn = backend.begin()
                writes = [
                    (rng.randrange(2048), rng.randrange(2**32))
                    for _ in range(rng.randrange(1, 5))
                ]
                for word, value in writes:
                    if backend_cls is RVM:
                        txn.set_range(va + 4 * word, 4)
                    txn.write(va + 4 * word, value)
                if rng.random() < 0.25:
                    txn.abort()
                else:
                    txn.commit()
                    for word, value in writes:
                        expected[word] = value
            if rng.random() < 0.5:
                backend.truncate()
            if round_ % 4 == 3:
                backend = backend.crash_and_recover()
                rseg = backend.segments["db"]
                va = rseg.data_va if hasattr(rseg, "data_va") else rseg.base_va

        backend = backend.crash_and_recover()
        rseg = backend.segments["db"]
        va = rseg.data_va if hasattr(rseg, "data_va") else rseg.base_va
        for word, value in expected.items():
            assert proc.read(va + 4 * word) == value, f"word {word}"

    def test_rlvm_abort_after_commit_interleaving(self, machine, proc):
        """Abort must restore the *committed* value, not the disk value."""
        rlvm = RLVM(proc)
        va = rlvm.map("db", 4096)
        txn = rlvm.begin()
        txn.write(va, 5)
        txn.commit()  # committed but not truncated to disk
        txn = rlvm.begin()
        txn.write(va, 6)
        txn.abort()
        assert proc.read(va) == 5
        # And the committed value survives a crash.
        recovered = rlvm.crash_and_recover()
        assert proc.read(recovered.segments["db"].data_va) == 5
