"""Group commit: batched, coalesced appends over any log device.

Classic group commit amortises the per-operation cost of the log
device across a batch of transactions: appends land in a volatile
buffer (cheap), and one explicit :meth:`GroupCommit.flush` pushes the
whole batch to the underlying device as a handful of coalesced runs —
on the rotating disk, one positioned write instead of one seek per
append.

Durability semantics are the honest ones:

* buffered appends are **not** durable — :meth:`peek`,
  :meth:`durable_bytes` and a crash snapshot see only the inner
  device's bytes, exactly as a post-power-failure scan would;
* :meth:`flush` is the durability point: the ``backend.flush`` fault
  site fires *before* the buffered runs reach the inner device, so a
  ``before``-mode crash there loses the whole batch — which is legal
  precisely because nothing in it was acknowledged yet;
* :meth:`lose_volatile` (called by crash-recovery) drops the buffer;
* a timed :meth:`read` flushes first: the device cannot return bytes
  newer than what it guarantees stable (the same read-as-barrier rule
  the fault harness's reorder window enforces).

Coalescing keeps pending runs disjoint and merges overlapping or
adjacent appends with later bytes winning — consecutive WAL appends
overwrite the previous entry's terminator, so a batch of N appends
typically collapses into a single run.

The wrapper composes rather than inherits: the inner device must be a
*synchronous* :class:`~repro.backends.base.LogDevice` (its writes are
durable when they return), which every concrete backend in this
package is.  Stacking group commit on group commit is rejected.
"""

from __future__ import annotations

from repro import probe
from repro.backends.base import LogDevice, barrier_point, flush_point
from repro.errors import AddressError, ConfigError
from repro.hw.cpu import CPU

#: Buffer-management cost per buffered append (list insertion + copy —
#: no kernel crossing, no device).
DEFAULT_BUFFER_OP_CYCLES = 150

#: Copy cost per 256-byte block buffered.
DEFAULT_BUFFER_PER_BLOCK_CYCLES = 40

#: Auto-flush threshold: buffered bytes beyond this force a flush so
#: the volatile window stays bounded even without explicit flushes.
DEFAULT_MAX_PENDING_BYTES = 64 * 1024


class GroupCommit:
    """Append-coalescing volatile buffer over a synchronous device.

    Implements the same protocol as :class:`LogDevice` so it drops into
    the WAL, the libraries, and the fault harness unchanged.
    """

    def __init__(
        self,
        inner: LogDevice,
        buffer_op_cycles: int = DEFAULT_BUFFER_OP_CYCLES,
        buffer_per_block_cycles: int = DEFAULT_BUFFER_PER_BLOCK_CYCLES,
        max_pending_bytes: int = DEFAULT_MAX_PENDING_BYTES,
    ) -> None:
        if isinstance(inner, GroupCommit):
            raise ConfigError("group commit cannot stack on group commit")
        self.inner = inner
        self.name = f"{inner.name}+group"
        self.size = inner.size
        self.buffer_op_cycles = buffer_op_cycles
        self.buffer_per_block_cycles = buffer_per_block_cycles
        self.max_pending_bytes = max_pending_bytes
        #: disjoint (offset, bytearray) runs, sorted by offset
        self._pending: list[tuple[int, bytearray]] = []
        self.write_ops = 0  # buffered appends accepted
        self.read_ops = 0
        self.bytes_written = 0
        self.flush_ops = 0
        self.barrier_ops = 0

    # ------------------------------------------------------------------
    # Buffering
    # ------------------------------------------------------------------
    @property
    def pending_bytes(self) -> int:
        return sum(len(b) for _, b in self._pending)

    @property
    def pending_runs(self) -> int:
        return len(self._pending)

    def _buffer(self, offset: int, data: bytes) -> None:
        """Merge one append into the disjoint pending-run set.

        Runs that overlap or abut the new write fold into one run; the
        new bytes win over older buffered bytes.  Pending runs are
        pairwise disjoint by construction, so folding them in one pass
        cannot make older runs clobber each other.
        """
        cur_off, cur = offset, bytearray(data)
        keep: list[tuple[int, bytearray]] = []
        for o, b in self._pending:
            if o + len(b) < cur_off or o > cur_off + len(cur):
                keep.append((o, b))
                continue
            lo = min(o, cur_off)
            hi = max(o + len(b), cur_off + len(cur))
            merged = bytearray(hi - lo)
            merged[o - lo : o - lo + len(b)] = b
            merged[cur_off - lo : cur_off - lo + len(cur)] = cur
            cur_off, cur = lo, merged
        keep.append((cur_off, cur))
        keep.sort(key=lambda run: run[0])
        self._pending = keep

    # ------------------------------------------------------------------
    # LogDevice protocol
    # ------------------------------------------------------------------
    def write(self, cpu: CPU, offset: int, data: bytes) -> None:
        """Buffer an append; durable only after the next flush."""
        if offset < 0 or offset + len(data) > self.size:
            raise AddressError(f"{self.name} device write out of range")
        sp = probe._ACTIVE
        if sp is not None:
            start = cpu.now
            if sp.stage_open is not None:
                sp.stage_open("device.buffer", start, cpu.index)
        blocks = LogDevice._blocks(len(data))
        cpu.compute(self.buffer_op_cycles + blocks * self.buffer_per_block_cycles)
        self._buffer(offset, data)
        self.write_ops += 1
        self.bytes_written += len(data)
        if sp is not None and sp.stage_close is not None:
            sp.stage_close("device.buffer", start, cpu.now, cpu.index, self.name, len(data))
        if self.pending_bytes > self.max_pending_bytes:
            self.flush(cpu)

    def read(self, cpu: CPU, offset: int, length: int) -> bytes:
        """Timed read — flushes first: reads return only stable bytes."""
        if self._pending:
            self.flush(cpu)
        data = self.inner.read(cpu, offset, length)
        self.read_ops += 1
        return data

    def flush(self, cpu: CPU) -> None:
        """The durability point: push every pending run to the device.

        The ``backend.flush`` site fires before any run is written, so
        a crash there loses the entire unacknowledged batch.
        """
        sp = probe._ACTIVE
        if sp is not None:
            start = cpu.now
            if sp.stage_open is not None:
                sp.stage_open("device.flush", start, cpu.index)
        flush_point(cpu)
        self.flush_ops += 1
        runs, self._pending = self._pending, []
        for offset, data in runs:
            # The inner write's own stage nests a "device" stage inside
            # this "barrier" stage, attributing the medium time exactly.
            self.inner.write(cpu, offset, bytes(data))
        if sp is not None and sp.stage_close is not None:
            sp.stage_close("device.flush", start, cpu.now, cpu.index, self.name, len(runs))

    def barrier(self, cpu: CPU) -> None:
        """Flush, then stabilise the inner device's reorder window."""
        self.flush(cpu)
        sp = probe._ACTIVE
        if sp is not None:
            start = cpu.now
            if sp.stage_open is not None:
                sp.stage_open("device.barrier", start, cpu.index)
        barrier_point(self.inner, cpu)
        self.barrier_ops += 1
        if sp is not None and sp.stage_close is not None:
            sp.stage_close("device.barrier", start, cpu.now, cpu.index, self.name, 0)

    def lose_volatile(self) -> None:
        """Power fails: the buffered batch is gone."""
        self._pending = []
        self.inner.lose_volatile()

    def durable_bytes(self) -> bytes:
        return self.inner.durable_bytes()

    # ------------------------------------------------------------------
    # Untimed access
    # ------------------------------------------------------------------
    def peek(self, offset: int, length: int) -> bytes:
        """Untimed read of *durable* bytes — buffered runs are invisible,
        exactly as they are to a post-crash recovery scan."""
        return self.inner.peek(offset, length)

    def poke(self, offset: int, data: bytes) -> None:
        """Untimed durable write-through (test setup and torn-write
        partials must reach the medium, not the buffer)."""
        self.inner.poke(offset, data)
