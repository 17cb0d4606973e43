"""The ``LogDevice`` protocol: pluggable log-destination backends.

The paper's TPC-A measurement pins durability to one device — "a RAM
disk to hold the log" (section 4.2).  This package makes the log
destination pluggable in the style of nvthreads' ``LOG_DEST {DISK,
RAM, DRAM_TMPFS, NVRAM_TMPFS}``: every backend implements the same
small protocol, differing only in its latency model (and, for the
group-commit layer, in *when* bytes become durable).

The protocol, shared by every backend:

* :meth:`LogDevice.write` / :meth:`LogDevice.read` — timed operations
  that charge the issuing CPU per the backend's cost model;
* :meth:`LogDevice.peek` / :meth:`LogDevice.poke` — untimed access to
  the *durable* bytes (recovery-time scanning and test setup); a
  buffering backend's unflushed data is deliberately invisible to
  ``peek``, exactly as it is to a post-crash scan;
* :meth:`LogDevice.flush` — make buffered appends durable (a no-op on
  synchronous devices); the ``backend.flush`` fault site fires here;
* :meth:`LogDevice.barrier` — flush plus a write-ordering point: the
  fault harness's unflushed reorder window drains, so bytes read after
  a barrier can no longer be lost by a crash (``backend.barrier``);
* :meth:`LogDevice.lose_volatile` — crash semantics: drop anything not
  yet durable (buffered runs in the group-commit layer);
* :meth:`LogDevice.durable_bytes` — the bytes a power failure leaves
  behind, which is what crash snapshots capture.

Latency models are imitation-based in the spirit of Virtuoso: a
per-operation overhead (system call, buffer management) plus a
per-block transfer cost, with backend-specific additions (seek and
rotation for the rotating disk, a write-drain penalty for NVRAM-backed
tmpfs).  The fault-injection hooks live on the shared timed paths, so
the crash-consistency sweep drives every backend identically.
"""

from __future__ import annotations

import mmap

from repro import probe
from repro.errors import AddressError
from repro.hw.cpu import CPU

#: Transfer block size for cost accounting.
BLOCK_BYTES = 256


def flush_point(cpu: CPU) -> None:
    """The fault-injection point every backend's flush passes through.

    A ``before``-mode crash here models power failing just as the
    buffered appends were about to reach the medium: nothing buffered
    is durable.
    """
    probe.hit("backend.flush", cycle=cpu.now)


def barrier_point(device: "LogDevice", cpu: CPU) -> None:
    """The fault-injection + ordering point of every backend barrier.

    After the barrier, writes that already reached ``device`` can no
    longer be reordered away by a crash: the plan's unflushed window
    for the device drains.
    """
    sp = probe._ACTIVE
    if sp is not None:
        sp.hit("backend.barrier", cpu.now)
        sp.disk_barrier(device)


class LogDevice:
    """A byte-addressable durable log device with I/O cost accounting.

    Subclasses select a latency model by overriding :meth:`_write_cost`
    / :meth:`_read_cost` (or just the constructor parameters); the
    timed paths, fault hooks, and observability spans are shared so
    every backend is instrumented identically.
    """

    #: Short backend name (the ``LOG_DEST``-style selector).
    name = "device"

    def __init__(
        self,
        size: int,
        op_overhead_cycles: int,
        per_block_cycles: int,
    ) -> None:
        if size <= 0:
            raise AddressError("log device size must be positive")
        self.size = size
        self.op_overhead_cycles = op_overhead_cycles
        self.per_block_cycles = per_block_cycles
        # An anonymous mapping reads as zeros and gets host pages only
        # when written, so a large device costs no host time to create
        # (a bytearray zero-fills every page up front).
        self._data = mmap.mmap(-1, size)
        self.write_ops = 0
        self.read_ops = 0
        self.bytes_written = 0
        self.flush_ops = 0
        self.barrier_ops = 0

    # ------------------------------------------------------------------
    # Cost model (override points)
    # ------------------------------------------------------------------
    @staticmethod
    def _blocks(nbytes: int) -> int:
        return -(-max(nbytes, 1) // BLOCK_BYTES)

    def _transfer_cost(self, nbytes: int) -> int:
        return self.op_overhead_cycles + self._blocks(nbytes) * self.per_block_cycles

    def _write_cost(self, offset: int, nbytes: int) -> int:
        return self._transfer_cost(nbytes)

    def _read_cost(self, offset: int, nbytes: int) -> int:
        return self._transfer_cost(nbytes)

    # ------------------------------------------------------------------
    # Timed operations
    # ------------------------------------------------------------------
    def write(self, cpu: CPU, offset: int, data: bytes) -> None:
        """Durable write of ``data`` at ``offset``; charges ``cpu``."""
        if offset < 0 or offset + len(data) > self.size:
            raise AddressError(f"{self.name} device write out of range")
        sp = probe._ACTIVE
        if sp is not None:
            # A fault plan may raise CrashPoint here (optionally after a
            # torn prefix or the full write reached the platter) and
            # tracks the unflushed reorder window.
            sp.disk_write(self, cpu, offset, data)
            start = cpu.now
            sp.stage_open("device.write", start, cpu.index)
        self._data[offset : offset + len(data)] = data
        self.write_ops += 1
        self.bytes_written += len(data)
        cpu.compute(self._write_cost(offset, len(data)))
        if sp is not None:
            sp.stage_close("device.write", start, cpu.now, cpu.index, self.name, len(data))

    def read(self, cpu: CPU, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset``; charges ``cpu``."""
        if offset < 0 or offset + length > self.size:
            raise AddressError(f"{self.name} device read out of range")
        sp = probe._ACTIVE
        if sp is not None:
            sp.disk_barrier(self)  # a timed read is a write barrier
            start = cpu.now
            sp.stage_open("device.read", start, cpu.index)
        self.read_ops += 1
        cpu.compute(self._read_cost(offset, length))
        if sp is not None:
            sp.stage_close("device.read", start, cpu.now, cpu.index, self.name, length)
        return bytes(self._data[offset : offset + length])

    # ------------------------------------------------------------------
    # Durability protocol
    # ------------------------------------------------------------------
    def flush(self, cpu: CPU) -> None:
        """Make buffered appends durable (no-op on synchronous devices)."""
        sp = probe._ACTIVE
        if sp is not None:
            start = cpu.now
            sp.stage_open("device.flush", start, cpu.index)
        flush_point(cpu)
        self.flush_ops += 1
        if sp is not None:
            sp.stage_close("device.flush", start, cpu.now, cpu.index, self.name, 0)

    def barrier(self, cpu: CPU) -> None:
        """Flush, then stabilise everything already written.

        After a barrier, a crash cannot lose or reorder any write
        issued before it — the guarantee truncation relies on before it
        scans the log back and resets the head.
        """
        self.flush(cpu)
        sp = probe._ACTIVE
        if sp is not None:
            start = cpu.now
            sp.stage_open("device.barrier", start, cpu.index)
        barrier_point(self, cpu)
        self.barrier_ops += 1
        if sp is not None:
            sp.stage_close("device.barrier", start, cpu.now, cpu.index, self.name, 0)

    def lose_volatile(self) -> None:
        """Crash semantics: drop anything not yet durable (no-op here)."""

    def durable_bytes(self) -> bytes:
        """The bytes a power failure would leave on the medium."""
        return bytes(self._data)

    # ------------------------------------------------------------------
    # Untimed access (recovery-time scanning and tests)
    # ------------------------------------------------------------------
    def peek(self, offset: int, length: int) -> bytes:
        """Untimed read of the *durable* bytes."""
        return bytes(self._data[offset : offset + length])

    def poke(self, offset: int, data: bytes) -> None:
        """Untimed durable write (test setup and torn-write partials)."""
        self._data[offset : offset + len(data)] = data
