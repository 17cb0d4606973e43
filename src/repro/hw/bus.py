"""The shared system bus.

All CPUs, the logger's DMA engine, and the second-level cache share one
bus (section 4.1).  The bus serialises transactions: a transaction
requested at time *t* starts when the bus is free, occupies a fixed
number of bus cycles, and completes at start + cycles.  A write whose
page mapping asserts the bus "log" signal ("a bus signal controlled by
the page mapping associated with the address indicates whether the
write operation is to be logged", section 3.1) is handed to the one
logger on the bus, :attr:`SystemBus.logger`, at its completion cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import probe

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.logger import Logger


class SystemBus:
    """Serialising shared bus with occupancy accounting."""

    def __init__(self) -> None:
        self._busy_until = 0
        #: the bus-snooping logger; None when the machine logs on chip
        self.logger: Logger | None = None
        self.total_busy_cycles = 0
        self.transaction_count = 0

    @property
    def busy_until(self) -> int:
        """Cycle at which the bus next becomes free."""
        return self._busy_until

    def acquire(self, request_cycle: int, bus_cycles: int) -> int:
        """Run a generic transaction; returns its completion cycle."""
        start = max(request_cycle, self._busy_until)
        complete = start + bus_cycles
        self._busy_until = complete
        self.total_busy_cycles += bus_cycles
        self.transaction_count += 1
        sp = probe._ACTIVE
        if sp is not None and sp.bus_txn is not None:
            sp.bus_txn(request_cycle, start, bus_cycles)
        return complete

    def write_transaction(
        self,
        request_cycle: int,
        bus_cycles: int,
        paddr: int,
        value: int,
        size: int,
        log_tag: int | None,
        cpu_index: int,
    ) -> int:
        """Run a write transaction; returns its completion cycle.

        ``log_tag`` is the bus "log" signal: the log-table index the
        write is logged under, or None for an unlogged write.  A logged
        write reaches the logger at its completion cycle, which is when
        the logger latches it into the write FIFO.
        """
        complete = self.acquire(request_cycle, bus_cycles)
        if log_tag is not None:
            sp = probe._ACTIVE
            if sp is not None and sp.logged_run is not None:
                sp.logged_run(cpu_index, paddr, size, complete)
            logger = self.logger
            if logger is not None:
                logger.snoop_write(complete, paddr, value, size)
        return complete

    def utilisation(self, elapsed_cycles: int) -> float:
        """Fraction of ``elapsed_cycles`` the bus was busy."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.total_busy_cycles / elapsed_cycles)
