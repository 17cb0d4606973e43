"""The shared system bus.

All CPUs, the logger's DMA engine, and the second-level cache share one
bus (section 4.1).  The bus serialises transactions: a transaction
requested at time *t* starts when the bus is free, occupies a fixed
number of bus cycles, and completes at start + cycles.  Write
transactions are presented to registered snoopers — this is how the
logger observes logged writes ("a bus signal controlled by the page
mapping associated with the address indicates whether the write
operation is to be logged", section 3.1).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Protocol

from repro import probe


class BusWrite(NamedTuple):
    """A write transaction as seen on the bus.

    A NamedTuple rather than a dataclass: one is constructed per
    write-through store, and tuple construction is the cheapest
    immutable record Python offers.
    """

    paddr: int
    value: int
    size: int
    #: Bus "log" signal: the log-table index this write should be logged
    #: under, or ``None`` for unlogged writes.
    log_tag: Optional[int]
    #: Index of the CPU that issued the write (used to attribute
    #: overload penalties back to the writer).
    cpu_index: int


class BusSnooper(Protocol):
    """A device that observes write transactions on the bus."""

    def snoop_write(self, complete_cycle: int, write: BusWrite) -> None:
        """Called when a write transaction completes on the bus."""
        ...  # pragma: no cover - protocol


class SystemBus:
    """Serialising shared bus with occupancy accounting."""

    def __init__(self) -> None:
        self._busy_until = 0
        self._snoopers: list[BusSnooper] = []
        self.total_busy_cycles = 0
        self.transaction_count = 0

    @property
    def busy_until(self) -> int:
        """Cycle at which the bus next becomes free."""
        return self._busy_until

    def add_snooper(self, snooper: BusSnooper) -> None:
        """Register a device to observe write transactions."""
        self._snoopers.append(snooper)

    def remove_snooper(self, snooper: BusSnooper) -> None:
        self._snoopers.remove(snooper)

    def acquire(self, request_cycle: int, bus_cycles: int) -> int:
        """Run a generic transaction; returns its completion cycle."""
        start = max(request_cycle, self._busy_until)
        complete = start + bus_cycles
        self._busy_until = complete
        self.total_busy_cycles += bus_cycles
        self.transaction_count += 1
        sp = probe._ACTIVE
        if sp is not None:
            sp.bus_txn(request_cycle, start, bus_cycles)
        return complete

    def write_transaction(
        self, request_cycle: int, bus_cycles: int, write: BusWrite
    ) -> int:
        """Run a write transaction and present it to snoopers.

        Returns the completion cycle.  Snoopers see the write at its
        completion time, which is when the logger latches it into the
        write FIFO.
        """
        complete = self.acquire(request_cycle, bus_cycles)
        sp = probe._ACTIVE
        if sp is not None:
            sp.bus_write(complete, write)
        for snooper in self._snoopers:
            snooper.snoop_write(complete, write)
        return complete

    def utilisation(self, elapsed_cycles: int) -> float:
        """Fraction of ``elapsed_cycles`` the bus was busy."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.total_busy_cycles / elapsed_cycles)
