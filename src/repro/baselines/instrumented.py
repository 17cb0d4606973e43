"""Manually instrumented logging (sections 2.7 and 5.3).

"The most competitive alternative to LVM as part of the virtual memory
system is to insert logging instructions directly into the application
code."  Here every logged store goes through :meth:`InstrumentedLogger.
write`, which performs the store and then executes inline logging code:
build the record and store it through ordinary cached writes into a log
buffer, plus bookkeeping (load tail pointer, bounds check, bump).

This is the cheapest software alternative — no traps — but it still
costs tens of cycles per write, must be threaded through *every* store
in the source ("thousands of annotations in a non-trivial program"),
and a missed annotation silently corrupts rollback.  The
:class:`MissedAnnotationAudit` helper demonstrates that failure mode.
"""

from __future__ import annotations

from repro.errors import LoggingError
from repro.core.process import Process
from repro.core.region import Region
from repro.core.segment import StdSegment
from repro.hw.params import LOG_RECORD_SIZE
from repro.hw.records import LogRecord, decode_records, encode_record


class InstrumentedLogger:
    """Explicit in-code logging into a software log buffer."""

    #: Inline bookkeeping per logged write beyond the data stores:
    #: load/bump the tail pointer, bounds check, build the record.
    BOOKKEEPING_CYCLES = 10

    def __init__(self, proc: Process, region: Region, log_capacity: int = 1 << 20):
        self.proc = proc
        self.region = region
        self.machine = proc.machine
        self._log = StdSegment(log_capacity, machine=self.machine)
        self._log_region = None
        self._log_va = None
        self.tail = 0
        self.capacity = log_capacity

    def _ensure_mapped(self) -> None:
        if self._log_region is None:
            from repro.core.region import StdRegion

            self._log_region = StdRegion(self._log)
            self._log_va = self._log_region.bind(self.proc.address_space())

    def write(self, vaddr: int, value: int, size: int = 4) -> None:
        """Store plus inline logging code."""
        self._ensure_mapped()
        if self.tail + LOG_RECORD_SIZE > self.capacity:
            raise LoggingError("instrumented log buffer full")
        self.proc.write(vaddr, value, size)
        self.proc.compute(self.BOOKKEEPING_CYCLES)
        record = encode_record(
            vaddr, value, size, self.machine.clock.timestamp(self.proc.now)
        )
        # The record is stored with ordinary cached writes (4 words).
        self.proc.write_bytes(self._log_va + self.tail, record)
        self.tail += LOG_RECORD_SIZE

    def unlogged_write(self, vaddr: int, value: int, size: int = 4) -> None:
        """A store whose annotation was forgotten (section 2.7).

        The store happens, nothing is logged — the hazard LVM removes.
        """
        self.proc.write(vaddr, value, size)

    def records(self) -> list[LogRecord]:
        """Decode the software log."""
        return list(decode_records(self._log.read_bytes(0, self.tail)))

    def clear(self) -> None:
        self.tail = 0


class MissedAnnotationAudit:
    """Detect writes that bypassed instrumentation.

    Compares the region's contents against a replay of the software
    log from a baseline snapshot; any mismatching word was written
    without being logged.  (With LVM this audit is unnecessary: the
    hardware logs every write.)
    """

    def __init__(self, logger: InstrumentedLogger) -> None:
        self.logger = logger
        self._baseline = logger.region.segment.snapshot()

    def missing_offsets(self) -> list[int]:
        """Offsets whose current value is not explained by the log."""
        region = self.logger.region
        replay = bytearray(self._baseline)
        for record in self.logger.records():
            offset = region.va_to_offset(record.addr)
            replay[offset : offset + record.size] = record.value.to_bytes(
                record.size, "little"
            )
        current = region.segment.snapshot()
        return [
            off
            for off in range(0, len(current), 4)
            if current[off : off + 4] != bytes(replay[off : off + 4])
        ]
