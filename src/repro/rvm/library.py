"""The durability protocol RVM and RLVM share (section 2.5).

RLVM is RVM with ``set_range`` replaced by the hardware log, so "commit
and truncation costs are unchanged".  :class:`RecoverableLibrary` is
that unchanged part, written once: the write-ahead log on a log device,
the no-flush commit buffer and its group flush, truncation onto the
durable segment images, and crash recovery by WAL replay.  Subclasses
differ only in how a transaction captures its writes (the redo list
commit hands to :meth:`RecoverableLibrary._log_commit`) and how abort
undoes them.

Crash ordering, the invariant the crash sweep and LVM101 check:

* a flushing commit drains earlier no-flush commits first, then appends
  its redo entries and commit record, then flushes the device before
  it returns (the acknowledgement point);
* truncation applies every committed write to the images before the
  log head is durably reset;
* recovery rediscovers the durable tail and replays committed entries
  (idempotent physical redo).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import probe
from repro.errors import TransactionError
from repro.core.process import Process
from repro.core.region import StdRegion
from repro.core.segment import StdSegment
from repro.backends.base import LogDevice
from repro.backends.ramdisk import RamDisk
from repro.rvm.wal import WriteAheadLog

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

    @property
    def data_va(self) -> int:
        """First usable virtual address (the address ``map`` returned)."""
        return self.base_va


class LibraryTransaction:
    """What every transaction keeps: its id and whether it is live."""

    def __init__(self, lib: "RecoverableLibrary", tid: int) -> None:
        self.lib = lib
        self.tid = tid
        self.active = True
        self._begin_cycle = lib.proc.now if probe._ACTIVE is not None else 0

    def _check_active(self) -> None:
        if not self.active:
            raise TransactionError("transaction is no longer active")

    def _finish(self, committed: bool) -> None:
        self.active = False
        lib = self.lib
        if committed:
            lib.committed_count += 1
        else:
            lib.aborted_count += 1
        if lib._active_txn is self:
            lib._active_txn = None


class RecoverableLibrary:
    """Recoverable memory over a write-ahead log: the shared protocol.

    Subclasses set :attr:`stage` (the prefix of their probe stage
    names) and :attr:`transaction_class`, and implement ``map`` plus the
    transaction's commit and abort.
    """

    #: probe stage prefix: ``<stage>.flush``, ``<stage>.truncate``
    stage: str
    transaction_class: type

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
        self._active_txn: LibraryTransaction | None = None
        #: no-flush-committed transactions awaiting their lazy flush
        self._pending: list[tuple[int, list]] = []
        self.committed_count = 0
        self.aborted_count = 0
        #: optional :class:`repro.analytics.policy.TruncationAdvisor`
        #: driving :meth:`maybe_truncate`
        self.truncation_advisor = None

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def begin(self) -> LibraryTransaction:
        """Start a transaction (one at a time, as in the benchmarks)."""
        if self._active_txn is not None and self._active_txn.active:
            raise TransactionError("a transaction is already active")
        txn = self.transaction_class(self, self._next_tid)
        self._next_tid += 1
        self._active_txn = txn
        return txn

    def _log_commit(self, tid: int, writes: list, flush: bool) -> None:
        """Make a committing transaction's redo ``writes`` durable.

        ``flush=False`` is Coda RVM's *no-flush* commit: the redo data
        is buffered in memory and written to the log lazily by
        :meth:`flush` — committed effects are visible immediately but
        are lost if a crash precedes the flush (the bounded persistence
        window Coda accepts for performance).
        """
        proc = self.proc
        if flush:
            # Earlier no-flush commits must reach the log first: replay
            # applies entries in log order, so letting this transaction
            # overtake a buffered predecessor would replay an older
            # value over a newer one.
            self.flush()
            probe.hit("rvm.commit.log", cycle=proc.now)
            if writes:
                self.wal.append_writes(proc.cpu, tid, writes)
            self.wal.append_commit(proc.cpu, tid)
            # A buffering backend holds the entries volatile until its
            # flush; a synchronous commit may not acknowledge before
            # they are stable (free on the synchronous devices).
            self.disk.flush(proc.cpu)
            probe.hit("rvm.commit.durable", cycle=proc.now)
        else:
            proc.compute(NO_FLUSH_COMMIT_CYCLES)
            probe.hit("rvm.commit.buffered", cycle=proc.now)
            self._pending.append((tid, writes))

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
            if sp.stage_open is not None:
                sp.stage_open(f"{self.stage}.flush", start, self.proc.cpu.index)
        pending = len(self._pending)
        probe.hit("rvm.flush", cycle=self.proc.now)
        self.wal.append_transactions(self.proc.cpu, self._pending)
        # The flush's contract is durability, so a buffering backend
        # must push its batch now (free on the synchronous devices).
        self.disk.flush(self.proc.cpu)
        self._pending.clear()
        if sp is not None and sp.stage_close is not None:
            sp.stage_close(
                f"{self.stage}.flush", start, self.proc.now, self.proc.cpu.index,
                pending, 0, {"pending_commits": pending},
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
            if sp.stage_open is not None:
                sp.stage_open(f"{self.stage}.truncate", start, proc.cpu.index)
        probe.hit("rvm.truncate.begin", cycle=proc.now)
        # Truncation scans the *durable* log (untimed peeks below), so
        # any batch a buffering backend still holds must reach the
        # medium first, and the barrier pins every logged entry stable
        # before the images absorb it.
        self.disk.barrier(proc.cpu)
        entries = self.wal.committed_writes()
        if entries:
            # Read the log back from the disk (one I/O) and apply it.
            self.disk.read(proc.cpu, self.wal.base, self.wal.tail)
        images = {r.seg_id: r.disk_image for r in self.segments.values()}
        applied = [e for e in entries if e.seg_id in images]
        per_record = sp is not None and sp.detail
        for entry in applied:
            if per_record:
                # A fault plan sees every entry at its own cycle; on the
                # fast path one charge covers the loop (compute adds).
                if sp.hit is not None:
                    sp.hit("rvm.truncate.apply", proc.now)
                proc.compute(TRUNCATE_PER_RANGE_CYCLES)
            images[entry.seg_id][entry.offset : entry.offset + len(entry.data)] = entry.data
        if not per_record and applied:
            proc.compute(len(applied) * TRUNCATE_PER_RANGE_CYCLES)
        probe.hit("rvm.truncate.applied", cycle=proc.now)
        # Persist the new log head (one I/O), then reclaim the space.
        self.wal.reset(proc.cpu)
        self.disk.flush(proc.cpu)  # the head marker itself must land
        if sp is not None and sp.stage_close is not None:
            sp.stage_close(
                f"{self.stage}.truncate", start, proc.now, proc.cpu.index,
                len(entries), 0, {"entries_applied": len(entries)},
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
    def crash_and_recover(self, proc: Process | None = None) -> "RecoverableLibrary":
        """Simulate a crash and recover a fresh library from durable state.

        Volatile segment contents are lost; the disk images plus the
        write-ahead log survive.  Returns a recovered library of the
        same class with the same segments mapped (at fresh addresses).
        """
        proc = proc or self.proc
        self._pending.clear()  # unflushed commits die with the crash
        self.disk.lose_volatile()  # so does any buffered device batch
        recovered = type(self)(proc, disk=self.disk, wal=self.wal)
        recovered._next_tid = self._next_tid
        # The in-memory tail died with the crash: rediscover the durable
        # tail by scanning (tolerates a torn final entry), then replay
        # committed transactions onto the durable images.
        self.wal.recover({r.seg_id: r.disk_image for r in self.segments.values()})
        self.wal.reset()
        for rseg in self.segments.values():
            # ``map`` takes the usable size, without any control bytes.
            usable = rseg.size - (rseg.data_va - rseg.base_va)
            recovered.map(rseg.name, usable, image=rseg.disk_image)
        return recovered
