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
segment offsets, hands the redo entries to the durability protocol it
shares with RVM (:mod:`repro.rvm.library`), and truncates the LVM
log.  Abort restores the logged addresses
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
from repro.core.log_segment import LogSegment
from repro.core.region import StdRegion
from repro.core.segment import StdSegment
from repro.rvm.library import LibraryTransaction, RecoverableLibrary, RecoverableSegment

#: Reserved bytes at the start of every recoverable segment holding the
#: current transaction id (the "special logged location").
CONTROL_BYTES = 16

#: Commit-time processing per hardware log record (translate the
#: address, marshal into the redo buffer, update the committed image).
COMMIT_PER_RECORD_CYCLES = 40

#: Abort-time processing per restored word.
ABORT_PER_RECORD_CYCLES = 30


@dataclass
class RlvmSegment(RecoverableSegment):
    """A logged recoverable segment."""

    log: LogSegment
    #: committed state (durable image + committed-but-untruncated txns)
    committed: bytearray
    _view: RegionLogView | None = None

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


class RLVMTransaction(LibraryTransaction):
    """A transaction over RLVM segments.  No set_range needed."""

    def write(self, vaddr: int, value: int, size: int = 4) -> None:
        """Store into recoverable memory — an ordinary logged write."""
        self._check_active()
        self.lib.proc.write(vaddr, value, size)

    def write_block(self, vaddr: int, data: bytes) -> None:
        """Bulk store into recoverable memory — no declarations needed;
        the hardware log captures every word (section 2.5)."""
        self._check_active()
        self.lib.proc.write_block(vaddr, data)

    def read(self, vaddr: int, size: int = 4) -> int:
        self._check_active()
        return self.lib.proc.read(vaddr, size)

    def read_block(self, vaddr: int, length: int) -> bytes:
        self._check_active()
        return self.lib.proc.read_block(vaddr, length)

    def commit(self, flush: bool = True) -> None:
        """Commit the writes the hardware logged; ``flush=False`` buffers
        durability until :meth:`RLVM.flush` (Coda's no-flush mode)."""
        self._check_active()
        rlvm = self.lib
        proc = rlvm.proc
        sp = probe._ACTIVE
        if sp is not None:
            start = proc.now
            sp.stage_open("rlvm.commit", start, proc.cpu.index)
        probe.hit("rvm.commit.begin", cycle=proc.now)
        rlvm.machine.sync(proc.cpu)  # wait for in-flight log records
        writes = []
        for rseg in rlvm.segments.values():
            for offset, value, size in rlvm._txn_records(rseg, self.tid):
                proc.compute(COMMIT_PER_RECORD_CYCLES)
                data = value.to_bytes(size, "little")
                rseg.committed[offset : offset + size] = data
                writes.append((rseg.seg_id, offset, data))
            rseg.log.truncate()
        rlvm._log_commit(self.tid, writes, flush=flush)
        self._finish(committed=True)
        if sp is not None:
            sp.stage_close(
                "rlvm.commit", start, proc.now, proc.cpu.index, self.tid, len(writes),
                {"tid": self.tid, "records": len(writes), "flush": flush},
                self._begin_cycle,
            )

    def abort(self) -> None:
        """Undo using the log: restore exactly the words that changed."""
        self._check_active()
        rlvm = self.lib
        proc = rlvm.proc
        sp = probe._ACTIVE
        if sp is not None:
            start = proc.now
            sp.stage_open("rlvm.abort", start, proc.cpu.index)
        probe.hit("rvm.abort", cycle=proc.now)
        rlvm.machine.sync(proc.cpu)
        for rseg in rlvm.segments.values():
            records = rlvm._txn_records(rseg, self.tid)
            for offset, _value, size in reversed(records):
                proc.compute(ABORT_PER_RECORD_CYCLES)
                old = int.from_bytes(rseg.committed[offset : offset + size], "little")
                proc.write(rseg.base_va + offset, old, size)
            rlvm.machine.sync(proc.cpu)
            rseg.log.truncate()
        self._finish(committed=False)
        if sp is not None:
            sp.stage_close(
                "rlvm.abort", start, proc.now, proc.cpu.index, self.tid, 0,
                {"tid": self.tid}, self._begin_cycle,
            )


class RLVM(RecoverableLibrary):
    """Recoverable logged virtual memory."""

    stage = "rlvm"
    transaction_class = RLVMTransaction
    # The shared entry points, bound on this class too: perfbench's
    # per-layer tracer wraps each library's methods in its own namespace.
    flush = RecoverableLibrary.flush
    truncate = RecoverableLibrary.truncate

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
        txn = super().begin()
        for rseg in self.segments.values():
            self.proc.write(rseg.base_va, txn.tid)
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
        to_offset = rseg.view.translator()
        try:
            for _log_offset, rows in rseg.log.record_spans():
                for addr, value, size, flags, _timestamp in rows:
                    offset = to_offset(addr, flags)
                    if offset < CONTROL_BYTES:
                        if value != tid:
                            raise TransactionError(
                                f"stale transaction marker {value} (expected {tid})"
                            )
                        saw_marker = True
                        continue
                    out.append((offset, value, size))
        except LoggingError as exc:
            raise TransactionError("log record for an address outside the segment") from exc
        if out and not saw_marker:
            raise TransactionError("log records found without a begin marker")
        return out
