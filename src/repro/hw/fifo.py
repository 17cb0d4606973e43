"""Bounded hardware FIFO with an occupancy threshold.

The prototype logger contains two such FIFOs (the write FIFO and the
log-record FIFO, section 3.1).  Entries are tagged with the cycle at
which they became available so the logger pipeline can be simulated
lazily: the consumer drains entries according to its service rate
whenever time is observed to have advanced.
"""

from __future__ import annotations

import enum
from collections import deque

from repro import probe
from repro.errors import ConfigError


class PushResult(enum.Enum):
    """Outcome of a :meth:`HardwareFifo.push`.

    The logger must distinguish "occupancy rose above the overload
    watermark" (raise the overload interrupt) from "the FIFO was already
    at hard capacity and the entry was lost" (a dropped record, *not* a
    fresh overload event) — conflating the two double-counts overloads.
    """

    #: Entry queued; occupancy is at or below the threshold.
    OK = "ok"
    #: Entry queued and occupancy rose above the overload threshold.
    THRESHOLD = "threshold"
    #: FIFO was at hard capacity; the entry was dropped.
    OVERFLOW = "overflow"


class HardwareFifo:
    """A bounded FIFO of ``(ready_cycle, *fields)`` entries.  The
    logger's write FIFO has one format, ``(ready, paddr, value, size)``,
    from both the bus snoop and the bulk engine's fused loop.

    ``threshold`` models the logger's overload watermark: pushing an
    entry that brings occupancy *above* the threshold is reported to the
    caller (who raises the overload interrupt).  Pushing beyond
    ``capacity`` loses the entry, mirroring real FIFO overflow; the
    machine is expected to prevent this by suspending producers at the
    threshold, so overflow is also counted.
    """

    def __init__(self, capacity: int, threshold: int | None = None) -> None:
        if capacity < 1:
            raise ConfigError("FIFO capacity must be >= 1")
        if threshold is not None and threshold > capacity:
            raise ConfigError("FIFO threshold exceeds capacity")
        self.capacity = capacity
        self.threshold = threshold if threshold is not None else capacity
        self._entries: deque[tuple] = deque()
        self.overflow_count = 0
        self.high_water_mark = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    @property
    def occupancy(self) -> int:
        """Number of entries currently queued."""
        return len(self._entries)

    def push(self, ready_cycle: int, *fields) -> PushResult:
        """Queue ``(ready_cycle, *fields)``, available at ``ready_cycle``.

        Returns :attr:`PushResult.THRESHOLD` if the push raised occupancy
        above the overload threshold, :attr:`PushResult.OVERFLOW` if the
        FIFO was at hard capacity and the entry was dropped (counted in
        :attr:`overflow_count` — log records are lost), and
        :attr:`PushResult.OK` otherwise.
        """
        sp = probe._ACTIVE
        if sp is not None and sp.fifo_push is not None and sp.fifo_push(self, ready_cycle):
            # Forced drop: the record is lost exactly as a hard-capacity
            # overflow would lose it (no crash — silent data loss).
            self.overflow_count += 1
            return PushResult.OVERFLOW
        if len(self._entries) >= self.capacity:
            probe.hit("fifo.overflow", cycle=ready_cycle)
            self.overflow_count += 1
            return PushResult.OVERFLOW
        self._entries.append((ready_cycle, *fields))
        if len(self._entries) > self.high_water_mark:
            self.high_water_mark = len(self._entries)
        if len(self._entries) > self.threshold:
            return PushResult.THRESHOLD
        return PushResult.OK

    def peek(self) -> tuple:
        """Return the head entry without removing it."""
        return self._entries[0]

    def pop(self) -> tuple:
        """Remove and return the head entry."""
        return self._entries.popleft()

    def clear(self) -> None:
        """Discard all queued entries."""
        self._entries.clear()
