"""CPU timing model.

Each CPU tracks its own local cycle time.  A CPU does not execute
instructions; simulated programs drive it through timing primitives —
:meth:`compute`, :meth:`cached_read`, :meth:`cached_write`,
:meth:`write_through` — while the functional effect of memory accesses
(the actual bytes) is applied by the virtual-memory layer that calls
these primitives.

The write buffer is the piece the paper leans on in sections 4.5.2 and
4.6: write-through stores are buffered and drain over the bus, so a
store costs only the issue cycle while slots are free, and degrades to
the full 6-cycle write-through cost (Table 2) once the buffer
saturates.  "A larger write buffer in the processor would largely
eliminate the difference between logged and unlogged" — the
write-buffer ablation benchmark sweeps the depth to show exactly that.
"""

from __future__ import annotations

from collections import deque

from repro.hw.bus import SystemBus
from repro.hw.cache import L1Cache
from repro.hw.clock import Clock
from repro.hw.params import MachineConfig


class CpuStats:
    """Per-CPU activity counters."""

    def __init__(self) -> None:
        self.compute_cycles = 0
        self.loads = 0
        self.stores = 0
        self.write_through_stores = 0
        self.write_buffer_stalls = 0
        self.suspend_cycles = 0

    def snapshot(self) -> dict[str, int]:
        return dict(self.__dict__)


class CPU:
    """One processor of the simulated multiprocessor."""

    def __init__(
        self, index: int, config: MachineConfig, bus: SystemBus, clock: Clock
    ) -> None:
        self.index = index
        self.config = config
        self.bus = bus
        self.clock = clock
        self.l1 = L1Cache()
        #: shared second-level cache model, installed by the Machine
        #: when ``config.model_l2`` is set (None = always-hit L2)
        self.l2 = None
        self.stats = CpuStats()
        self._now = 0
        #: bus-completion times of in-flight buffered writes
        self._write_buffer: deque[int] = deque()
        #: earliest cycle at which this CPU may run again (overload
        #: suspension sets this forward)
        self._resume_at = 0
        #: the address space currently installed on this CPU (opaque to
        #: the hardware layer; set by the kernel on process switch)
        self.address_space = None

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """This CPU's local cycle time."""
        if self._resume_at > self._now:
            self._apply_suspension()
        return self._now

    def _apply_suspension(self) -> None:
        if self._resume_at > self._now:
            self.stats.suspend_cycles += self._resume_at - self._now
            self._now = self._resume_at

    def _advance(self, cycles: int) -> None:
        self._apply_suspension()
        self._now += cycles
        self.clock.advance_to(self._now)

    def suspend_until(self, cycle: int) -> None:
        """Hold this CPU until ``cycle`` (overload handling, section 3.1.3)."""
        if cycle > self._resume_at:
            self._resume_at = cycle

    # ------------------------------------------------------------------
    # Timing primitives
    # ------------------------------------------------------------------
    def compute(self, cycles: int) -> None:
        """Run ``cycles`` of pure computation."""
        if cycles < 0:
            raise ValueError("cannot compute for negative cycles")
        self.stats.compute_cycles += cycles
        self._advance(cycles)

    def _l2_fill_cycles(self, paddr: int) -> int:
        """Cost of servicing an L1 miss: L2 hit, or memory on L2 miss
        (only when the optional L2 model is installed)."""
        if self.l2 is None or self.l2.access(paddr):
            return self.config.l2_hit_cycles
        return self.config.memory_access_cycles

    def cached_read(self, paddr: int) -> None:
        """Charge a load that may hit the L1, else the L2."""
        self.stats.loads += 1
        if self.l1.access(paddr):
            self._advance(self.config.l1_hit_cycles)
        else:
            self._advance(self._l2_fill_cycles(paddr))

    def cached_write(self, paddr: int) -> None:
        """Charge an ordinary (write-back, unlogged) store."""
        self.stats.stores += 1
        if self.l1.access(paddr):
            self._advance(self.config.cached_write_cycles)
        else:
            self._advance(self._l2_fill_cycles(paddr))

    def write_through(
        self, paddr: int, value: int, size: int, log_tag: int | None
    ) -> int:
        """Issue a write-through store onto the bus.

        Used for pages of logged regions (the kernel "puts the on-chip
        data cache in write-through mode for the logged page", section
        3.2).  Returns the bus-completion cycle.  The bus hands the write
        to the logger when ``log_tag`` is not None.
        """
        self._apply_suspension()
        self.stats.stores += 1
        self.stats.write_through_stores += 1
        buf = self._write_buffer
        while buf and buf[0] <= self._now:
            buf.popleft()
        if len(buf) >= self.config.write_buffer_depth:
            # Buffer full: stall until the oldest entry retires.
            self.stats.write_buffer_stalls += 1
            self._now = buf.popleft()
        # The store itself executes like any store — it updates the L1
        # (write-through mode writes the cache too) before the bus copy
        # is buffered.
        if self.l1.access(paddr):
            self._advance(self.config.cached_write_cycles)
        else:
            self._advance(self._l2_fill_cycles(paddr))
        complete = self.bus.write_transaction(
            self._now, self.config.write_through_bus_cycles,
            paddr, value, size, log_tag, self.index,
        )
        buf.append(complete)
        self.clock.advance_to(complete)
        # An overload raised by the logger may have suspended us.
        self._apply_suspension()
        return complete

    def buffered_bus_write(self, bus_cycles: int) -> int:
        """Issue a generic buffered bus write (no snoop).

        Used by the on-chip logger (section 4.6) for log-record DMA: the
        record traffic shares the write buffer, so "the processor is
        automatically stalled if there is an excessive level of write
        activity to a logged region, the same as if it is writing
        rapidly to a write-through region".  Returns the completion
        cycle.
        """
        self._apply_suspension()
        buf = self._write_buffer
        while buf and buf[0] <= self._now:
            buf.popleft()
        if len(buf) >= self.config.write_buffer_depth:
            self.stats.write_buffer_stalls += 1
            self._now = buf.popleft()
        complete = self.bus.acquire(self._now, bus_cycles)
        buf.append(complete)
        self.clock.advance_to(complete)
        return complete

    def drain_write_buffer(self) -> None:
        """Stall until all buffered writes have retired (a fence)."""
        if self._write_buffer:
            last = self._write_buffer[-1]
            self._write_buffer.clear()
            if last > self._now:
                self._now = last
                self.clock.advance_to(self._now)

    def reset_time(self) -> None:
        """Zero this CPU's local clock (between experiments)."""
        self.drain_write_buffer()
        self._now = 0
        self._resume_at = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CPU(index={self.index}, now={self._now})"
