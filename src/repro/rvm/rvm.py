"""Coda-style recoverable virtual memory — the paper's RVM baseline.

Section 2.5: "Coda RVM requires that the application programmer insert
a call to set_range() before modifying recoverable memory to inform the
library of the pending modification.  On transaction commit (or abort),
the library saves or restores only the address ranges specified with
set_range()."

The implementation is a real recoverable-memory library running on the
simulated machine: recoverable segments live in ordinary (unlogged)
virtual memory with a durable disk image behind them, ``set_range``
saves undo copies and registers redo ranges, commit writes the redo
data to a write-ahead log on the RAM disk, truncation applies the log
to the disk images, and recovery after a crash replays committed
transactions.

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
from repro.core.process import Process
from repro.faults import plan as faultplan
from repro.core.region import StdRegion
from repro.core.segment import StdSegment
from repro.backends.base import LogDevice
from repro.backends.ramdisk import RamDisk
from repro.hw.params import LINE_SIZE
from repro.rvm.wal import WriteAheadLog

#: Library entry + range bookkeeping + undo allocation per set_range.
SET_RANGE_CYCLES = 2_901

#: Copy-old-value-aside cost per 16-byte block of the range.
UNDO_COPY_PER_BLOCK_CYCLES = 13

#: Cost of creating the in-memory redo record for a range.
REDO_RECORD_CYCLES = 600

#: Per-range processing at commit (marshal into the log buffer).
COMMIT_PER_RANGE_CYCLES = 200

#: In-memory buffering cost of a no-flush commit (Coda's lazy mode).
NO_FLUSH_COMMIT_CYCLES = 300

#: Per-range processing at truncation (apply to the disk image).
TRUNCATE_PER_RANGE_CYCLES = 150

#: Default RAM disk size for the recovery log.
DEFAULT_DISK_BYTES = 8 * 1024 * 1024


@dataclass
class RecoverableSegment:
    """A mapped recoverable segment: volatile memory + durable image."""

    seg_id: int
    name: str
    segment: StdSegment
    region: StdRegion
    base_va: int
    disk_image: bytearray

    @property
    def size(self) -> int:
        return self.segment.size


@dataclass
class _Range:
    """One set_range declaration inside a transaction."""

    rseg: RecoverableSegment
    offset: int
    length: int
    old_data: bytes


class Transaction:
    """An RVM transaction.  Use via :meth:`RVM.begin`."""

    def __init__(self, rvm: "RVM", tid: int) -> None:
        self.rvm = rvm
        self.tid = tid
        self.active = True
        self._ranges: list[_Range] = []
        self._begin_cycle = rvm.proc.now if probe._ACTIVE is not None else 0

    # ------------------------------------------------------------------
    # The Coda API
    # ------------------------------------------------------------------
    def set_range(self, vaddr: int, length: int) -> None:
        """Declare that ``[vaddr, vaddr+length)`` is about to be modified.

        Saves the old contents for abort and registers the range for
        commit-time redo logging.  This is the cost centre of RVM.
        """
        self._check_active()
        proc = self.rvm.proc
        rseg, offset = self.rvm._locate(vaddr)
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
        self.rvm.proc.write(vaddr, value, size)

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
        self.rvm.proc.write_block(vaddr, data)

    def read_block(self, vaddr: int, length: int) -> bytes:
        self._check_active()
        return self.rvm.proc.read_block(vaddr, length)

    def unsafe_write(self, vaddr: int, value: int, size: int = 4) -> None:
        """A store whose set_range was forgotten.

        The store succeeds but will not be undone on abort nor redone
        after a crash — the silent-corruption hazard of manual
        annotation that section 2.5 discusses.
        """
        self._check_active()
        self.rvm.proc.write(vaddr, value, size)

    def read(self, vaddr: int, size: int = 4) -> int:
        self._check_active()
        return self.rvm.proc.read(vaddr, size)

    def commit(self, flush: bool = True) -> None:
        """Make the transaction's declared ranges durable.

        ``flush=False`` is Coda RVM's *no-flush* commit: the redo data
        is buffered in memory and written to the log lazily by
        :meth:`RVM.flush` — committed effects are visible immediately
        but are lost if a crash precedes the flush (the bounded
        persistence window Coda accepts for performance).
        """
        self._check_active()
        proc = self.rvm.proc
        sp = probe._ACTIVE
        if sp is not None:
            start = proc.now
            sp.stage_open("rvm.commit", start, proc.cpu.index)
        faultplan.hit("rvm.commit.begin", cycle=proc.now)
        writes = []
        for rng in self._ranges:
            proc.compute(COMMIT_PER_RANGE_CYCLES)
            new = rng.rseg.segment.read_bytes(rng.offset, rng.length)
            writes.append((rng.rseg.seg_id, rng.offset, new))
        if flush:
            # Earlier no-flush commits must reach the log first: replay
            # applies entries in log order, so letting this transaction
            # overtake a buffered predecessor would replay an older
            # value over a newer one.
            self.rvm.flush()
            faultplan.hit("rvm.commit.log", cycle=proc.now)
            if writes:
                self.rvm.wal.append_writes(proc.cpu, self.tid, writes)
            self.rvm.wal.append_commit(proc.cpu, self.tid)
            # A buffering backend holds the entries volatile until its
            # flush; a synchronous commit may not acknowledge before
            # they are stable (free on the synchronous devices).
            self.rvm.disk.flush(proc.cpu)
            faultplan.hit("rvm.commit.durable", cycle=proc.now)
        else:
            proc.compute(NO_FLUSH_COMMIT_CYCLES)
            faultplan.hit("rvm.commit.buffered", cycle=proc.now)
            self.rvm._pending.append((self.tid, writes))
        self.active = False
        self.rvm.committed_count += 1
        self.rvm._txn_finished(self)
        if sp is not None:
            sp.stage_close(
                "rvm.commit", start, proc.now, proc.cpu.index, self.tid, len(writes),
                {"tid": self.tid, "ranges": len(writes), "flush": flush},
                self._begin_cycle,
            )

    def abort(self) -> None:
        """Restore every declared range to its pre-transaction contents."""
        self._check_active()
        proc = self.rvm.proc
        sp = probe._ACTIVE
        if sp is not None:
            start = proc.now
            sp.stage_open("rvm.abort", start, proc.cpu.index)
        faultplan.hit("rvm.abort", cycle=proc.now)
        for rng in reversed(self._ranges):
            rng.rseg.segment.write_bytes(rng.offset, rng.old_data)
            blocks = -(-max(rng.length, 1) // LINE_SIZE)
            proc.compute(UNDO_COPY_PER_BLOCK_CYCLES * blocks + 50)
        self.active = False
        self.rvm.aborted_count += 1
        self.rvm._txn_finished(self)
        if sp is not None:
            sp.stage_close(
                "rvm.abort", start, proc.now, proc.cpu.index, self.tid, 0,
                {"tid": self.tid, "ranges": len(self._ranges)},
                self._begin_cycle,
            )

    def _check_active(self) -> None:
        if not self.active:
            raise TransactionError("transaction is no longer active")

    def _covered(self, vaddr: int, size: int) -> bool:
        rseg, offset = self.rvm._locate(vaddr)
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
        rseg, offset = self.rvm._locate(vaddr)
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


class RVM:
    """The recoverable-virtual-memory library (Coda style)."""

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
        self.segments: dict[str, RecoverableSegment] = {}
        self._next_seg_id = 0
        self._next_tid = 1
        self._active_txn: Transaction | None = None
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
    # Transactions
    # ------------------------------------------------------------------
    def begin(self) -> Transaction:
        """Start a transaction (one at a time, as in the benchmarks)."""
        if self._active_txn is not None and self._active_txn.active:
            raise TransactionError("a transaction is already active")
        txn = Transaction(self, self._next_tid)
        self._next_tid += 1
        self._active_txn = txn
        return txn

    def _txn_finished(self, txn: Transaction) -> None:
        if self._active_txn is txn:
            self._active_txn = None

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
            sp.stage_open("rvm.flush", start, self.proc.cpu.index)
        pending = len(self._pending)
        faultplan.hit("rvm.flush", cycle=self.proc.now)
        self.wal.append_transactions(self.proc.cpu, self._pending)
        # The flush's contract is durability, so a buffering backend
        # must push its batch now (free on the synchronous devices).
        self.disk.flush(self.proc.cpu)
        self._pending.clear()
        if sp is not None:
            sp.stage_close(
                "rvm.flush", start, self.proc.now, self.proc.cpu.index, pending, 0,
                {"pending_commits": pending},
            )

    # ------------------------------------------------------------------
    # Log truncation
    # ------------------------------------------------------------------
    def truncate(self) -> None:
        """Apply the committed log to the disk images and reset the log.

        This is the cost the paper notes RLVM does *not* remove: "The
        rest is spent performing the commit and truncating the log."

        Crash ordering: the disk images absorb every committed write
        *before* the log head is durably reset, and the reset happens
        before any space is reclaimed — a crash anywhere in between
        recovers by replaying the still-intact log (replay is
        idempotent physical redo), never by losing or resurrecting a
        transaction.
        """
        proc = self.proc
        sp = probe._ACTIVE
        if sp is not None:
            start = proc.now
            sp.stage_open("rvm.truncate", start, proc.cpu.index)
        faultplan.hit("rvm.truncate.begin", cycle=proc.now)
        # Truncation scans the *durable* log (untimed peeks below), so
        # any batch a buffering backend still holds must reach the
        # medium first, and the barrier pins every logged entry stable
        # before the images absorb it.
        self.disk.barrier(proc.cpu)
        by_id = {r.seg_id: r for r in self.segments.values()}
        entries = list(self.wal.committed_writes())
        if entries:
            # Read the log back from the disk (one I/O) and apply it.
            self.disk.read(proc.cpu, self.wal.base, self.wal.tail)
        for entry in entries:
            rseg = by_id.get(entry.seg_id)
            if rseg is None:
                continue
            faultplan.hit("rvm.truncate.apply", cycle=proc.now)
            rseg.disk_image[entry.offset : entry.offset + len(entry.data)] = entry.data
            proc.compute(TRUNCATE_PER_RANGE_CYCLES)
        faultplan.hit("rvm.truncate.applied", cycle=proc.now)
        # Persist the new log head (one I/O), then reclaim the space.
        self.wal.reset(proc.cpu)
        self.disk.flush(proc.cpu)  # the head marker itself must land
        if sp is not None:
            sp.stage_close(
                "rvm.truncate", start, proc.now, proc.cpu.index, len(entries), 0,
                {"entries_applied": len(entries)},
            )

    def maybe_truncate(self) -> bool:
        """Truncate if the installed advisor says to; returns True if so.

        Call after commits/flushes (the transaction server does): the
        advisor samples log growth on every call and fires when the fill
        fraction or the crash-replay exposure crosses its thresholds.
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

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------
    def crash_and_recover(self, proc: Process | None = None) -> "RVM":
        """Simulate a crash and recover a fresh RVM from durable state.

        Volatile segment contents are lost; the disk images plus the
        write-ahead log survive.  Returns the recovered library with
        the same segments mapped (at fresh addresses).
        """
        proc = proc or self.proc
        self._pending.clear()  # unflushed commits die with the crash
        self.disk.lose_volatile()  # so does any buffered device batch
        recovered = RVM(proc, disk=self.disk, wal=self.wal)
        recovered._next_tid = self._next_tid
        schema = [(r.name, r.size, r.disk_image) for r in self.segments.values()]
        # The in-memory tail died with the crash: rediscover the durable
        # tail by scanning (tolerates a torn final entry), then replay
        # committed transactions onto the durable images.
        self.wal.scan_recover()
        by_id = {r.seg_id: (r.name, r.disk_image) for r in self.segments.values()}
        for entry in self.wal.committed_writes():
            info = by_id.get(entry.seg_id)
            if info is None:
                continue
            _, image = info
            image[entry.offset : entry.offset + len(entry.data)] = entry.data
        self.wal.reset()
        for name, size, image in schema:
            recovered.map(name, size, image=image)
        return recovered

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _locate(self, vaddr: int) -> tuple[RecoverableSegment, int]:
        for rseg in self.segments.values():
            if rseg.base_va <= vaddr < rseg.base_va + rseg.size:
                return rseg, vaddr - rseg.base_va
        raise TransactionError(f"{vaddr:#x} is not in any recoverable segment")
