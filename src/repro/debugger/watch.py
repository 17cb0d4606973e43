"""Debugger write monitoring (section 1 and 2.7).

"A debugger can use logged virtual memory to log the writes of a
program being debugged.  The debugger can then determine when data was
erroneously overwritten as well as generally monitor the state updates
in a program under development."

The debugger attaches a log to a region of the *target's* address space
— "a separate program such as a debugger can dynamically modify the
memory regions used by a program to cause them to log updates when
required with no change to the program binary" — and polls the log for
watchpoint hits and suspicious overwrites.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LoggingError
from repro.core.log_reader import LogFollower, RegionLogView
from repro.core.log_segment import LogSegment
from repro.core.region import Region
from repro.hw.records import LogRecord


@dataclass(frozen=True)
class WatchHit:
    """A write to a watched location."""

    vaddr: int
    value: int
    size: int
    timestamp: int


@dataclass(frozen=True)
class Overwrite:
    """Two writes to the same location with no intervening clear."""

    vaddr: int
    first_value: int
    second_value: int
    first_timestamp: int
    second_timestamp: int


class WriteMonitor:
    """Attach to a region and observe its writes via the log."""

    def __init__(
        self,
        region: Region,
        log: LogSegment | None = None,
        consume: bool = True,
    ) -> None:
        """``consume=False`` leaves polled records in the log so other
        tools (e.g. a :class:`~repro.replay.ReplayEngine` sharing the
        same log) still see the full history."""
        if not region.is_bound:
            raise LoggingError("attach the monitor to a bound region")
        self.region = region
        self.consume = consume
        if region.log_segment is None:
            # The debugger adds logging dynamically (section 2.7).
            self.log = log or LogSegment(machine=region.machine)
            region.log(self.log)
            self._owns_log = True
        else:
            self.log = region.log_segment
            self._owns_log = False
        self._follower = LogFollower(RegionLogView(region, self.log))
        self._watched: set[int] = set()
        self._last_write: dict[int, LogRecord] = {}

    def detach(self) -> None:
        """Remove the monitor (and its dynamically-added log)."""
        if self._owns_log:
            self.region.unlog()

    def watch(self, vaddr: int, length: int = 4) -> None:
        """Watch ``[vaddr, vaddr+length)`` for writes."""
        for a in range(vaddr, vaddr + length):
            self._watched.add(a)

    def unwatch(self, vaddr: int, length: int = 4) -> None:
        for a in range(vaddr, vaddr + length):
            self._watched.discard(a)

    def poll(self) -> tuple[list[WatchHit], list[Overwrite]]:
        """Consume new log records; report watch hits and overwrites.

        An *overwrite* is a write to a location whose previous logged
        write has not been acknowledged via :meth:`acknowledge` — the
        "data was erroneously overwritten" check.
        """
        hits: list[WatchHit] = []
        overwrites: list[Overwrite] = []
        view = self._follower.view
        for record in self._follower.synchronize():
            vaddr = view.va_of(record)
            if any(a in self._watched for a in range(vaddr, vaddr + record.size)):
                hits.append(WatchHit(vaddr, record.value, record.size, record.timestamp))
            previous = self._last_write.get(vaddr)
            if previous is not None:
                overwrites.append(
                    Overwrite(
                        vaddr,
                        previous.value,
                        record.value,
                        previous.timestamp,
                        record.timestamp,
                    )
                )
            self._last_write[vaddr] = record
        if self.consume:
            self.log.truncate()
        return hits, overwrites

    def acknowledge(self, vaddr: int) -> None:
        """Accept the current value at ``vaddr``: the next write to it
        is no longer reported as an overwrite."""
        self._last_write.pop(vaddr, None)
