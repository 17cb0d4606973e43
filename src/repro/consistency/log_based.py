"""Log-based consistency (section 2.6).

"We use the term log-based consistency to refer to a consistency
protocol that uses logging to identify and send data updates, using the
ownership transfer only to synchronize between processes.  ...  LVM
reduces the overhead of determining the updates to transmit and allows
just the updated data to be transmitted, rather than whole pages.
Moreover, it facilitates streaming the updates to the consumers so that
the time for processing on lock release ... is reduced to the time
required to synchronize with consumers.  That is, there should be
little or no backlog of data updates to transmit at this time."

The writer's copy of the shared area is a *logged region*; updates are
read straight out of the hardware log.  With ``streaming=True``
(default) updates are pushed as they accumulate during the critical
section, so the release itself flushes only the small tail.

The paper's caveat is also reproduced: "The amount of data transmitted
can be more with LVM if locations are updated repeatedly between
acquiring and releasing locks" — each logged write is an update, where
Munin's diff would send the final value once.
"""

from __future__ import annotations

from repro.core.log_reader import RegionLogView
from repro.core.log_segment import LogSegment
from repro.consistency.dsm import WriteSharedProtocol

#: How many accumulated records trigger a streamed push mid-section.
STREAM_BATCH_RECORDS = 16

#: Reading one record out of the log and marshalling it.
PER_RECORD_CYCLES = 6


class LogBasedProtocol(WriteSharedProtocol):
    """Consistency updates taken from the LVM write log."""

    def __init__(self, writer, consumers, streaming: bool = True):
        super().__init__(writer, consumers)
        self.streaming = streaming
        self.log = LogSegment(machine=writer.proc.machine)
        writer.region.log(self.log)
        self._view = RegionLogView(writer.region, self.log)
        self._writes_since_push = 0
        self.records_sent = 0

    def _on_write(self, offset: int, value: int, size: int) -> None:
        proc = self.writer.proc
        proc.write(self.writer.base_va + offset, value, size)
        self._writes_since_push += 1
        if self.streaming and self._writes_since_push >= STREAM_BATCH_RECORDS:
            t0 = proc.now
            self._push_updates()
            self.stats.in_section_cycles += proc.now - t0

    def _on_release(self) -> None:
        self._push_updates()

    def _push_updates(self) -> None:
        """Drain the log and transmit each record as an update."""
        proc = self.writer.proc
        self.writer.proc.machine.sync(proc.cpu)
        updates = [
            (offset, (value & ((1 << 8 * size) - 1)).to_bytes(size, "little"))
            for offset, value, size in self._view.updates()
        ]
        if updates:
            proc.compute(len(updates) * PER_RECORD_CYCLES)
        self.records_sent += len(updates)
        self.transmit(updates)
        self.log.truncate()
        self._writes_since_push = 0


