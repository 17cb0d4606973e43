"""RLVM — recoverable virtual memory built on logged virtual memory.

Section 2.5: "In RLVM, no set_range() calls are needed.  Instead, all
recoverable segments are logged so all modifications of a logged
segment in the context of a transaction are automatically recorded.
By writing the transaction identifier to a special logged location
(whenever it changes), RLVM can determine the transaction to which a
log record belongs."

Each recoverable segment is an LVM logged region.  The first 16 bytes
of the segment are the *control word*: :meth:`RLVM.begin` stores the
transaction id there, which the hardware logs like any other write, so
the marker record delimits transactions inside the log.  At commit the
library scans the hardware log, translates record addresses back to
segment offsets, writes redo entries to the same write-ahead log RVM
uses, and truncates the LVM log.  Abort restores the logged addresses
from the committed image — the log tells us exactly *which* words
changed, so only those are touched.

The per-write cost inside a transaction is just the logged store
itself (Table 3: 16 cycles in the paper's prototype vs 3,515 for RVM);
commit and truncation costs are unchanged, which is why the TPC-A gain
(418 → 552 tps) is smaller than the per-write gain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import probe
from repro.errors import LoggingError, TransactionError
from repro.core.log_reader import RegionLogView
from repro.faults import plan as faultplan
from repro.core.log_segment import LogSegment
from repro.core.process import Process
from repro.core.region import StdRegion
from repro.core.segment import StdSegment
from repro.backends.base import LogDevice
from repro.backends.ramdisk import RamDisk
from repro.rvm.rvm import DEFAULT_DISK_BYTES
from repro.rvm.wal import WriteAheadLog

#: Reserved bytes at the start of every recoverable segment holding the
#: current transaction id (the "special logged location").
CONTROL_BYTES = 16

#: Commit-time processing per hardware log record (translate the
#: address, marshal into the redo buffer, update the committed image).
COMMIT_PER_RECORD_CYCLES = 40

#: Abort-time processing per restored word.
ABORT_PER_RECORD_CYCLES = 30

#: In-memory buffering cost of a no-flush commit (Coda's lazy mode).
NO_FLUSH_COMMIT_CYCLES = 300


@dataclass
class RlvmSegment:
    """A logged recoverable segment."""

    seg_id: int
    name: str
    segment: StdSegment
    region: StdRegion
    log: LogSegment
    base_va: int
    #: durable image (disk state as of the last truncation)
    disk_image: bytearray
    #: committed state (durable image + committed-but-untruncated txns)
    committed: bytearray
    _view: RegionLogView | None = None

    @property
    def size(self) -> int:
        return self.segment.size

    @property
    def data_va(self) -> int:
        """First usable (non-control) virtual address."""
        return self.base_va + CONTROL_BYTES

    @property
    def view(self) -> RegionLogView:
        """Consumer-side view of this segment's log."""
        if self._view is None:
            self._view = RegionLogView(self.region, self.log)
        return self._view


class RLVMTransaction:
    """A transaction over RLVM segments.  No set_range needed."""

    def __init__(self, rlvm: "RLVM", tid: int) -> None:
        self.rlvm = rlvm
        self.tid = tid
        self.active = True
        self._begin_cycle = rlvm.proc.now if probe._ACTIVE is not None else 0

    def write(self, vaddr: int, value: int, size: int = 4) -> None:
        """Store into recoverable memory — an ordinary logged write."""
        self._check_active()
        self.rlvm.proc.write(vaddr, value, size)

    def write_block(self, vaddr: int, data: bytes) -> None:
        """Bulk store into recoverable memory — no declarations needed;
        the hardware log captures every word (section 2.5)."""
        self._check_active()
        self.rlvm.proc.write_block(vaddr, data)

    def read(self, vaddr: int, size: int = 4) -> int:
        self._check_active()
        return self.rlvm.proc.read(vaddr, size)

    def read_block(self, vaddr: int, length: int) -> bytes:
        self._check_active()
        return self.rlvm.proc.read_block(vaddr, length)

    def commit(self, flush: bool = True) -> None:
        """Commit; ``flush=False`` buffers durability until
        :meth:`RLVM.flush` (Coda's no-flush mode)."""
        self._check_active()
        self.rlvm._commit(self, flush=flush)
        self.active = False

    def abort(self) -> None:
        self._check_active()
        self.rlvm._abort(self)
        self.active = False

    def _check_active(self) -> None:
        if not self.active:
            raise TransactionError("transaction is no longer active")


class RLVM:
    """Recoverable logged virtual memory."""

    def __init__(
        self,
        proc: Process,
        disk: LogDevice | None = None,
        wal: WriteAheadLog | None = None,
    ) -> None:
        self.proc = proc
        self.machine = proc.machine
        self.disk = disk or RamDisk(DEFAULT_DISK_BYTES)
        self.wal = wal or WriteAheadLog(self.disk)
        self.segments: dict[str, RlvmSegment] = {}
        self._next_seg_id = 0
        self._next_tid = 1
        self._active_txn: RLVMTransaction | None = None
        #: no-flush-committed transactions awaiting their lazy flush
        self._pending: list[tuple[int, list]] = []
        self.committed_count = 0
        self.aborted_count = 0
        #: optional :class:`repro.analytics.policy.TruncationAdvisor`
        #: driving :meth:`maybe_truncate`
        self.truncation_advisor = None

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def map(self, name: str, size: int, image: bytearray | None = None) -> int:
        """Map a recoverable segment; returns the first *usable* address.

        The segment is enlarged by 16 bytes for the control word; the
        returned address points just past it.
        """
        if name in self.segments:
            raise TransactionError(f"segment {name!r} is already mapped")
        segment = StdSegment(size + CONTROL_BYTES, machine=self.machine)
        region = StdRegion(segment)
        log = LogSegment(machine=self.machine)
        region.log(log)
        base_va = region.bind(self.proc.address_space())
        if image is None:
            image = bytearray(segment.size)
        else:
            segment.write_bytes(0, bytes(image))
        rseg = RlvmSegment(
            seg_id=self._next_seg_id,
            name=name,
            segment=segment,
            region=region,
            log=log,
            base_va=base_va,
            disk_image=image,
            committed=bytearray(image),
        )
        self._next_seg_id += 1
        self.segments[name] = rseg
        return rseg.data_va

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def begin(self) -> RLVMTransaction:
        """Start a transaction: write the tid to the control words.

        The control-word stores are logged writes; the resulting marker
        records let commit attribute log records to this transaction.
        """
        if self._active_txn is not None and self._active_txn.active:
            raise TransactionError("a transaction is already active")
        txn = RLVMTransaction(self, self._next_tid)
        self._next_tid += 1
        for rseg in self.segments.values():
            self.proc.write(rseg.base_va, txn.tid)
        self._active_txn = txn
        return txn

    def _txn_records(self, rseg: RlvmSegment, tid: int):
        """Decode this transaction's records from the hardware log.

        Returns ``(offset, value, size)`` tuples for data writes.  The
        log has been truncated at every transaction end, so retained
        records belong to the current transaction; the leading marker
        is validated against ``tid``.
        """
        out = []
        saw_marker = False
        for record in rseg.log.records():
            try:
                offset = rseg.view.offset_of(record)
            except LoggingError as exc:
                raise TransactionError(
                    "log record for an address outside the segment"
                ) from exc
            if offset < CONTROL_BYTES:
                if record.value != tid:
                    raise TransactionError(
                        f"stale transaction marker {record.value} (expected {tid})"
                    )
                saw_marker = True
                continue
            out.append((offset, record.value, record.size))
        if out and not saw_marker:
            raise TransactionError("log records found without a begin marker")
        return out

    def _commit(self, txn: RLVMTransaction, flush: bool = True) -> None:
        proc = self.proc
        sp = probe._ACTIVE
        if sp is not None:
            start = proc.now
            sp.stage_open("rlvm.commit", start, proc.cpu.index)
        faultplan.hit("rvm.commit.begin", cycle=proc.now)
        self.machine.sync(proc.cpu)  # wait for in-flight log records
        all_writes = []
        for rseg in self.segments.values():
            records = self._txn_records(rseg, txn.tid)
            for offset, value, size in records:
                proc.compute(COMMIT_PER_RECORD_CYCLES)
                data = value.to_bytes(size, "little")
                rseg.committed[offset : offset + size] = data
                all_writes.append((rseg.seg_id, offset, data))
            rseg.log.truncate()
        if flush:
            # Earlier no-flush commits must reach the log first: replay
            # applies entries in log order, so letting this transaction
            # overtake a buffered predecessor would replay an older
            # value over a newer one.
            self.flush()
            faultplan.hit("rvm.commit.log", cycle=proc.now)
            if all_writes:
                self.wal.append_writes(proc.cpu, txn.tid, all_writes)
            self.wal.append_commit(proc.cpu, txn.tid)
            # A buffering backend holds the entries volatile until its
            # flush; a synchronous commit may not acknowledge before
            # they are stable (free on the synchronous devices).
            self.disk.flush(proc.cpu)
            faultplan.hit("rvm.commit.durable", cycle=proc.now)
        else:
            proc.compute(NO_FLUSH_COMMIT_CYCLES)
            faultplan.hit("rvm.commit.buffered", cycle=proc.now)
            self._pending.append((txn.tid, all_writes))
        self.committed_count += 1
        self._active_txn = None
        if sp is not None:
            sp.stage_close(
                "rlvm.commit", start, proc.now, proc.cpu.index, txn.tid, len(all_writes),
                {"tid": txn.tid, "records": len(all_writes), "flush": flush},
                txn._begin_cycle,
            )

    def _abort(self, txn: RLVMTransaction) -> None:
        """Undo using the log: restore exactly the words that changed."""
        proc = self.proc
        sp = probe._ACTIVE
        if sp is not None:
            start = proc.now
            sp.stage_open("rlvm.abort", start, proc.cpu.index)
        faultplan.hit("rvm.abort", cycle=proc.now)
        self.machine.sync(proc.cpu)
        for rseg in self.segments.values():
            records = self._txn_records(rseg, txn.tid)
            for offset, _value, size in reversed(records):
                proc.compute(ABORT_PER_RECORD_CYCLES)
                old = int.from_bytes(rseg.committed[offset : offset + size], "little")
                proc.write(rseg.base_va + offset, old, size)
            self.machine.sync(proc.cpu)
            rseg.log.truncate()
        self.aborted_count += 1
        self._active_txn = None
        if sp is not None:
            sp.stage_close(
                "rlvm.abort", start, proc.now, proc.cpu.index, txn.tid, 0,
                {"tid": txn.tid}, txn._begin_cycle,
            )

    # ------------------------------------------------------------------
    # Lazy flush (Coda no-flush mode)
    # ------------------------------------------------------------------
    @property
    def pending_commits(self) -> int:
        """No-flush commits not yet made durable."""
        return len(self._pending)

    def flush(self) -> None:
        """Make all no-flush commits durable in one group I/O."""
        if not self._pending:
            return
        sp = probe._ACTIVE
        if sp is not None:
            start = self.proc.now
            sp.stage_open("rlvm.flush", start, self.proc.cpu.index)
        pending = len(self._pending)
        faultplan.hit("rvm.flush", cycle=self.proc.now)
        self.wal.append_transactions(self.proc.cpu, self._pending)
        # The flush's contract is durability, so a buffering backend
        # must push its batch now (free on the synchronous devices).
        self.disk.flush(self.proc.cpu)
        self._pending.clear()
        if sp is not None:
            sp.stage_close(
                "rlvm.flush", start, self.proc.now, self.proc.cpu.index, pending, 0,
                {"pending_commits": pending},
            )

    # ------------------------------------------------------------------
    # Truncation / recovery (same durable protocol as RVM)
    # ------------------------------------------------------------------
    def truncate(self) -> None:
        """Apply the committed WAL to the disk images and reset it.

        Same crash ordering as :meth:`RVM.truncate`: images absorb every
        committed write before the log head is durably reset, so a
        crash anywhere in between replays the intact log idempotently.
        """
        proc = self.proc
        sp = probe._ACTIVE
        if sp is not None:
            start = proc.now
            sp.stage_open("rlvm.truncate", start, proc.cpu.index)
        faultplan.hit("rvm.truncate.begin", cycle=proc.now)
        # Truncation scans the *durable* log (untimed peeks below), so
        # any batch a buffering backend still holds must reach the
        # medium first, and the barrier pins every logged entry stable
        # before the images absorb it.
        self.disk.barrier(proc.cpu)
        by_id = {r.seg_id: r for r in self.segments.values()}
        entries = list(self.wal.committed_writes())
        if entries:
            self.disk.read(proc.cpu, self.wal.base, self.wal.tail)
        for entry in entries:
            rseg = by_id.get(entry.seg_id)
            if rseg is None:
                continue
            faultplan.hit("rvm.truncate.apply", cycle=proc.now)
            rseg.disk_image[entry.offset : entry.offset + len(entry.data)] = entry.data
            proc.compute(150)
        faultplan.hit("rvm.truncate.applied", cycle=proc.now)
        self.wal.reset(proc.cpu)
        self.disk.flush(proc.cpu)  # the head marker itself must land
        if sp is not None:
            sp.stage_close(
                "rlvm.truncate", start, proc.now, proc.cpu.index, len(entries), 0,
                {"entries_applied": len(entries)},
            )

    def maybe_truncate(self) -> bool:
        """Truncate if the installed advisor says to; returns True if so.

        Same duck-typed protocol as :meth:`RVM.maybe_truncate` — the
        advisor only touches ``proc``/``disk``/``wal``, which the two
        libraries share.
        """
        advisor = self.truncation_advisor
        if advisor is None:
            return False
        advisor.observe(self)
        if not advisor.should_truncate(self):
            return False
        self.truncate()
        advisor.note_truncated(self)
        return True

    def crash_and_recover(self, proc: Process | None = None) -> "RLVM":
        """Crash (lose volatile state) and recover from disk + WAL."""
        proc = proc or self.proc
        self._pending.clear()  # unflushed commits die with the crash
        self.disk.lose_volatile()  # so does any buffered device batch
        recovered = RLVM(proc, disk=self.disk, wal=self.wal)
        recovered._next_tid = self._next_tid
        # Rediscover the durable tail as real recovery would, then
        # replay committed transactions onto the durable images.
        self.wal.scan_recover()
        by_id = {r.seg_id: r.disk_image for r in self.segments.values()}
        for entry in self.wal.committed_writes():
            image = by_id.get(entry.seg_id)
            if image is None:
                continue
            image[entry.offset : entry.offset + len(entry.data)] = entry.data
        self.wal.reset()
        for rseg in self.segments.values():
            recovered.map(
                rseg.name, rseg.size - CONTROL_BYTES, image=rseg.disk_image
            )
        return recovered
