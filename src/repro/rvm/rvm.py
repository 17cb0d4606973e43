"""Coda-style recoverable virtual memory — the paper's RVM baseline.

Section 2.5: "Coda RVM requires that the application programmer insert
a call to set_range() before modifying recoverable memory to inform the
library of the pending modification.  On transaction commit (or abort),
the library saves or restores only the address ranges specified with
set_range()."

The implementation is a real recoverable-memory library running on the
simulated machine: recoverable segments live in ordinary (unlogged)
virtual memory with a durable disk image behind them, ``set_range``
saves undo copies and registers redo ranges, and commit copies those
ranges into the redo list.  Logging that list, truncation and crash
recovery are the durability protocol RVM shares with RLVM
(:mod:`repro.rvm.library`).

Cycle calibration (Table 3: a single recoverable write costs 3,515
cycles in RVM):

========================  ======  =====================================
component                 cycles  what it models
========================  ======  =====================================
``SET_RANGE_CYCLES``       2901   library entry, range-table insert,
                                  undo buffer allocation
``UNDO_COPY_PER_BLOCK``      13   copying the old value aside (16 B)
``REDO_RECORD_CYCLES``      600   building the commit redo record
the store itself             ~1   ordinary cached write (L1 hit)
========================  ======  =====================================

Total ≈ 3,515 cycles for a one-word recoverable write.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import probe
from repro.errors import TransactionError
from repro.core.region import StdRegion
from repro.core.segment import StdSegment
from repro.hw.params import LINE_SIZE
from repro.rvm.library import LibraryTransaction, RecoverableLibrary, RecoverableSegment

#: Library entry + range bookkeeping + undo allocation per set_range.
SET_RANGE_CYCLES = 2_901

#: Copy-old-value-aside cost per 16-byte block of the range.
UNDO_COPY_PER_BLOCK_CYCLES = 13

#: Cost of creating the in-memory redo record for a range.
REDO_RECORD_CYCLES = 600

#: Per-range processing at commit (marshal into the log buffer).
COMMIT_PER_RANGE_CYCLES = 200


@dataclass
class _Range:
    """One set_range declaration inside a transaction."""

    rseg: RecoverableSegment
    offset: int
    length: int
    old_data: bytes


class Transaction(LibraryTransaction):
    """An RVM transaction.  Use via :meth:`RVM.begin`."""

    def __init__(self, rvm: "RVM", tid: int) -> None:
        super().__init__(rvm, tid)
        self._ranges: list[_Range] = []

    # ------------------------------------------------------------------
    # The Coda API
    # ------------------------------------------------------------------
    def set_range(self, vaddr: int, length: int) -> None:
        """Declare that ``[vaddr, vaddr+length)`` is about to be modified.

        Saves the old contents for abort and registers the range for
        commit-time redo logging.  This is the cost centre of RVM.
        """
        self._check_active()
        proc = self.lib.proc
        rseg, offset = self.lib._locate(vaddr)
        sp = probe._ACTIVE
        if sp is not None:
            start = proc.now
            sp.stage_open("rvm.set_range", start, proc.cpu.index)
        old = rseg.segment.read_bytes(offset, length)
        self._ranges.append(_Range(rseg, offset, length, old))
        blocks = -(-max(length, 1) // LINE_SIZE)
        proc.compute(
            SET_RANGE_CYCLES
            + UNDO_COPY_PER_BLOCK_CYCLES * blocks
            + REDO_RECORD_CYCLES
        )
        if sp is not None:
            sp.stage_close(
                "rvm.set_range", start, proc.now, proc.cpu.index, None, None,
                {"length": length},
            )

    def write(self, vaddr: int, value: int, size: int = 4) -> None:
        """Store into recoverable memory; must be covered by a set_range."""
        self._check_active()
        if not self._covered(vaddr, size):
            raise TransactionError(
                f"write at {vaddr:#x} not covered by any set_range(); "
                "this is the error-prone annotation burden LVM removes "
                "(section 2.5)"
            )
        self.lib.proc.write(vaddr, value, size)

    def write_block(self, vaddr: int, data: bytes) -> None:
        """Bulk store into recoverable memory through the bulk engine.

        The whole range must be covered by set_range declarations, as
        each word of the equivalent :meth:`write` loop would be.
        """
        self._check_active()
        if not self._covered_span(vaddr, len(data)):
            raise TransactionError(
                f"write of {len(data)} bytes at {vaddr:#x} not covered by "
                "set_range(); this is the error-prone annotation burden "
                "LVM removes (section 2.5)"
            )
        self.lib.proc.write_block(vaddr, data)

    def read_block(self, vaddr: int, length: int) -> bytes:
        self._check_active()
        return self.lib.proc.read_block(vaddr, length)

    def unsafe_write(self, vaddr: int, value: int, size: int = 4) -> None:
        """A store whose set_range was forgotten.

        The store succeeds but will not be undone on abort nor redone
        after a crash — the silent-corruption hazard of manual
        annotation that section 2.5 discusses.
        """
        self._check_active()
        self.lib.proc.write(vaddr, value, size)

    def read(self, vaddr: int, size: int = 4) -> int:
        self._check_active()
        return self.lib.proc.read(vaddr, size)

    def commit(self, flush: bool = True) -> None:
        """Make the transaction's declared ranges durable.

        ``flush=False`` is Coda's no-flush commit (see
        :meth:`RecoverableLibrary._log_commit`).
        """
        self._check_active()
        proc = self.lib.proc
        sp = probe._ACTIVE
        if sp is not None:
            start = proc.now
            sp.stage_open("rvm.commit", start, proc.cpu.index)
        probe.hit("rvm.commit.begin", cycle=proc.now)
        writes = []
        for rng in self._ranges:
            proc.compute(COMMIT_PER_RANGE_CYCLES)
            new = rng.rseg.segment.read_bytes(rng.offset, rng.length)
            writes.append((rng.rseg.seg_id, rng.offset, new))
        self.lib._log_commit(self.tid, writes, flush=flush)
        self._finish(committed=True)
        if sp is not None:
            sp.stage_close(
                "rvm.commit", start, proc.now, proc.cpu.index, self.tid, len(writes),
                {"tid": self.tid, "ranges": len(writes), "flush": flush},
                self._begin_cycle,
            )

    def abort(self) -> None:
        """Restore every declared range to its pre-transaction contents."""
        self._check_active()
        proc = self.lib.proc
        sp = probe._ACTIVE
        if sp is not None:
            start = proc.now
            sp.stage_open("rvm.abort", start, proc.cpu.index)
        probe.hit("rvm.abort", cycle=proc.now)
        for rng in reversed(self._ranges):
            rng.rseg.segment.write_bytes(rng.offset, rng.old_data)
            blocks = -(-max(rng.length, 1) // LINE_SIZE)
            proc.compute(UNDO_COPY_PER_BLOCK_CYCLES * blocks + 50)
        self._finish(committed=False)
        if sp is not None:
            sp.stage_close(
                "rvm.abort", start, proc.now, proc.cpu.index, self.tid, 0,
                {"tid": self.tid, "ranges": len(self._ranges)},
                self._begin_cycle,
            )

    def _covered(self, vaddr: int, size: int) -> bool:
        rseg, offset = self.lib._locate(vaddr)
        return any(
            rng.rseg is rseg
            and rng.offset <= offset
            and offset + size <= rng.offset + rng.length
            for rng in self._ranges
        )

    def _covered_span(self, vaddr: int, length: int) -> bool:
        """True when declared ranges jointly cover ``[vaddr, vaddr+length)``."""
        if length == 0:
            return True
        rseg, offset = self.lib._locate(vaddr)
        end = offset + length
        need = offset
        for lo, hi in sorted(
            (rng.offset, rng.offset + rng.length)
            for rng in self._ranges
            if rng.rseg is rseg
        ):
            if lo > need:
                break
            if hi > need:
                need = hi
            if need >= end:
                return True
        return need >= end


class RVM(RecoverableLibrary):
    """The recoverable-virtual-memory library (Coda style)."""

    stage = "rvm"
    transaction_class = Transaction
    # The shared entry points, bound on this class too: perfbench's
    # per-layer tracer wraps each library's methods in its own namespace.
    begin = RecoverableLibrary.begin
    flush = RecoverableLibrary.flush
    truncate = RecoverableLibrary.truncate

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def map(self, name: str, size: int, image: bytearray | None = None) -> int:
        """Map a recoverable segment; returns its base virtual address.

        ``image`` carries durable contents across a crash (used by
        :meth:`crash_and_recover`); a fresh mapping starts zeroed.
        """
        if name in self.segments:
            raise TransactionError(f"segment {name!r} is already mapped")
        segment = StdSegment(size, machine=self.machine)
        region = StdRegion(segment)
        base_va = region.bind(self.proc.address_space())
        if image is None:
            image = bytearray(segment.size)
        else:
            segment.write_bytes(0, bytes(image))
        rseg = RecoverableSegment(
            seg_id=self._next_seg_id,
            name=name,
            segment=segment,
            region=region,
            base_va=base_va,
            disk_image=image,
        )
        self._next_seg_id += 1
        self.segments[name] = rseg
        return base_va

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _locate(self, vaddr: int) -> tuple[RecoverableSegment, int]:
        for rseg in self.segments.values():
            if rseg.base_va <= vaddr < rseg.base_va + rseg.size:
                return rseg, vaddr - rseg.base_va
        raise TransactionError(f"{vaddr:#x} is not in any recoverable segment")
