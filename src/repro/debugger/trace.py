"""Address tracing from the write log (section 1).

"Logging can also be used to obtain a detailed address trace of a
program, which can be useful for detecting and isolating performance
problems or as input to memory system simulators."

:func:`extract_trace` turns a log into a write-address trace, and
:class:`TraceCacheSimulator` is the canonical consumer: a small cache
simulator fed by the trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.log_segment import LogSegment
from repro.hw.params import LINE_SIZE


@dataclass(frozen=True)
class TraceEntry:
    """One write in the address trace."""

    addr: int
    size: int
    timestamp: int


def extract_trace(log: LogSegment) -> list[TraceEntry]:
    """Extract the (address, size, timestamp) write trace from a log.

    Quiesces the whole machine first, so writes from every CPU are in
    the log and ordered before the read.
    """
    log.machine.quiesce()
    return [
        TraceEntry(record.addr, record.size, record.timestamp)
        for record in log.records()
    ]


def write_intensity(trace: list[TraceEntry], bucket_cycles: int = 1000) -> list[int]:
    """Writes per timestamp bucket — the performance-problem view."""
    if not trace:
        return []
    start = trace[0].timestamp
    buckets = [0] * ((trace[-1].timestamp - start) // bucket_cycles + 1)
    for entry in trace:
        buckets[(entry.timestamp - start) // bucket_cycles] += 1
    return buckets


class TraceCacheSimulator:
    """Direct-mapped cache simulator driven by a write trace."""

    def __init__(self, size_bytes: int = 8192, line_size: int = LINE_SIZE) -> None:
        self.line_size = line_size
        self.num_lines = size_bytes // line_size
        self._tags: dict[int, int] = {}
        self.hits = 0
        self.misses = 0

    def run(self, trace: list[TraceEntry]) -> tuple[int, int]:
        """Feed the trace through the cache; returns (hits, misses)."""
        for entry in trace:
            line = entry.addr // self.line_size
            index = line % self.num_lines
            if self._tags.get(index) == line:
                self.hits += 1
            else:
                self.misses += 1
                self._tags[index] = line
        return self.hits, self.misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
