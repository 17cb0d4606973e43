"""The cycle-indexed checkpoint + log-replay engine.

:class:`ReplayEngine` attaches to a logged region, snapshots it once
(the base image), and thereafter reconstructs the region's contents *as
of any logged write* — or any machine cycle — by restoring the nearest
checkpoint and replaying only the gap of log records.  This is the
reverse execution of section 1: a seek costs O(checkpoint interval +
region size), independent of history length.

Design notes:

* **Incremental parsing.**  The log is parsed once; each
  :meth:`history` call decodes only the tail appended since the last
  visit (``LogSegment.record_spans(start)``).  Record
  addresses are translated to segment offsets at parse time, while the
  frame map is current.
* **Lazy checkpointing.**  Checkpoints are built on demand up to the
  requested position by sweeping the parsed writes forward over a
  rolling state; each capture stores only the pages dirtied in its
  interval (:mod:`repro.replay.checkpoint`) and is cost-charged with
  the deferred-copy constants.
* **Truncation and rewind.**  If the producer truncates or rewinds the
  log, retained positions shift; the engine detects both and rebuilds
  its caches from the current retained log.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro import probe
from repro.errors import LoggingError
from repro.core.log_reader import RegionLogView
from repro.core.log_segment import LogSegment
from repro.core.region import Region
from repro.hw.params import LINE_SIZE, PAGE_SIZE
from repro.hw.records import LogRecord
from repro.replay.checkpoint import CheckpointStore

#: Records folded into each checkpoint interval by default.  Seek cost
#: is O(interval + region pages); memory cost is one page image per
#: page dirtied per interval.
DEFAULT_CHECKPOINT_INTERVAL = 64


@dataclass(frozen=True)
class ReplayWrite:
    """One logged write, pre-translated to the region's segment offset."""

    offset: int
    value: int
    size: int
    timestamp: int


@dataclass
class ReplayStats:
    """Work the engine has performed (for benchmarks and tuning)."""

    seeks: int = 0
    records_replayed: int = 0
    checkpoints_captured: int = 0
    checkpoint_cost_cycles: int = 0
    cache_rebuilds: int = 0

    def snapshot(self) -> dict:
        return dict(self.__dict__)


@dataclass
class _ParsedLog:
    """The engine's decoded view of the retained log."""

    records: list[LogRecord] = field(default_factory=list)
    writes: list[ReplayWrite] = field(default_factory=list)
    timestamps: list[int] = field(default_factory=list)
    #: log offset parsed through (== append_offset after a refresh)
    parsed_to: int = 0
    #: start_offset the parse is valid for
    start_offset: int = 0


class ReplayEngine:
    """Checkpointed deterministic replay of one logged region."""

    def __init__(
        self,
        region: Region,
        log: LogSegment | None = None,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
    ) -> None:
        if not region.is_bound:
            raise LoggingError("attach the replay engine to a bound region")
        if checkpoint_interval < 1:
            raise LoggingError("checkpoint interval must be at least one record")
        self.region = region
        self.machine = region.machine
        if log is None:
            if region.log_segment is None:
                log = LogSegment(machine=self.machine)
                region.log(log)
            else:
                log = region.log_segment
        self.log = log
        self.checkpoint_interval = checkpoint_interval
        self._view = RegionLogView(region, log)
        #: region contents when the engine attached (history position 0)
        self.base_state = bytes(region.segment.snapshot())
        self.stats = ReplayStats()
        self._parsed = _ParsedLog(start_offset=log.start_offset)
        self._parsed.parsed_to = log.start_offset
        self._store = CheckpointStore(self.base_state, self.machine.config)
        #: rolling state used while building checkpoints forward
        self._sweep_state = bytearray(self.base_state)
        self._sweep_pos = 0
        self._sweep_dirty_pages: set[int] = set()
        self._sweep_dirty_lines: set[int] = set()

    # ------------------------------------------------------------------
    # History access
    # ------------------------------------------------------------------
    def history(self) -> list[LogRecord]:
        """All retained logged writes, oldest first.

        Quiesces the *whole* machine first — every CPU's write buffer
        and the logger pipeline — so writes issued from any CPU are in
        the log before it is read (the seed synced only CPU 0).
        """
        self.machine.quiesce()
        self._refresh()
        return list(self._parsed.records)

    def writes_to(self, vaddr: int) -> list[tuple[int, LogRecord]]:
        """Every (position, record) whose write covered ``vaddr``.

        The debugger's "who clobbered this variable, and when?",
        answered from the log: the write at position ``p`` takes the
        region from ``state_at(p - 1)`` to ``state_at(p)``.
        """
        offset = self.region.va_to_offset(vaddr)
        self.machine.quiesce()
        self._refresh()
        parsed = self._parsed
        return [
            (i + 1, parsed.records[i])
            for i, write in enumerate(parsed.writes)
            if write.offset <= offset < write.offset + write.size
        ]

    def __len__(self) -> int:
        self.machine.quiesce()
        self._refresh()
        return len(self._parsed.records)

    # ------------------------------------------------------------------
    # Position-indexed replay
    # ------------------------------------------------------------------
    def state_at(self, n_writes: int) -> bytes:
        """Region contents after the first ``n_writes`` retained writes.

        Restores the nearest checkpoint at or below ``n_writes`` and
        replays only the gap — O(checkpoint interval + region size),
        not O(history).
        """
        self.machine.quiesce()
        self._refresh()
        writes = self._parsed.writes
        if not 0 <= n_writes <= len(writes):
            raise LoggingError(
                f"position {n_writes} outside history of {len(writes)} writes"
            )
        self._build_checkpoints_to(n_writes)
        base_pos = self._store.nearest(n_writes)
        probe.hit("replay.restore", cycle=self.machine.time())
        state = self._store.materialize(base_pos)
        for write in writes[base_pos:n_writes]:
            _apply(state, write)
        self.stats.seeks += 1
        self.stats.records_replayed += n_writes - base_pos
        return bytes(state)

    def full_replay_state_at(self, n_writes: int) -> bytes:
        """The seed's O(history) reference path: replay everything from
        the base image.  Kept as the oracle for golden tests and the
        baseline of the near-tip seek speed floor."""
        self.machine.quiesce()
        self._refresh()
        writes = self._parsed.writes
        if not 0 <= n_writes <= len(writes):
            raise LoggingError(
                f"position {n_writes} outside history of {len(writes)} writes"
            )
        state = bytearray(self.base_state)
        for write in writes[:n_writes]:
            _apply(state, write)
        return bytes(state)

    # ------------------------------------------------------------------
    # Cycle-indexed replay
    # ------------------------------------------------------------------
    def position_of_cycle(self, cycle: int) -> int:
        """History position reached by machine cycle ``cycle``.

        The position after the last retained record whose hardware
        timestamp is at or below the timestamp counter's value at
        ``cycle`` (timestamps are the 6.25 MHz counter of section 3.1,
        via the one :meth:`Clock.timestamp` definition).
        """
        self.machine.quiesce()
        self._refresh()
        stamp = self.machine.clock.timestamp(cycle)
        return bisect_right(self._parsed.timestamps, stamp)

    def state_at_cycle(self, cycle: int) -> bytes:
        """Region contents as of machine cycle ``cycle``."""
        return self.state_at(self.position_of_cycle(cycle))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def checkpoints(self):
        """Checkpoints captured so far (position 0 is the base image)."""
        return list(self._store.checkpoints)

    @property
    def checkpoint_cost_cycles(self) -> int:
        """Cumulative simulated cycles charged for checkpoint captures."""
        return self._store.cost_cycles

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        """Parse the log tail appended since the last refresh."""
        log = self.log
        parsed = self._parsed
        if log.start_offset != parsed.start_offset or log.append_offset < parsed.parsed_to:
            # The producer truncated (positions shift) or rewound
            # (parsed tail vanished); rebuild from the retained log.
            self._reset_caches()
            parsed = self._parsed
        if log.append_offset == parsed.parsed_to:
            return
        to_offset = self._view.translator()
        for _offset, rows in log.record_spans(parsed.parsed_to):
            for addr, value, size, flags, timestamp in rows:
                parsed.records.append(LogRecord(addr, value, size, timestamp, flags))
                parsed.writes.append(ReplayWrite(to_offset(addr, flags), value, size, timestamp))
                parsed.timestamps.append(timestamp)
        parsed.parsed_to = log.append_offset

    def _reset_caches(self) -> None:
        self._parsed = _ParsedLog(start_offset=self.log.start_offset)
        self._parsed.parsed_to = self.log.start_offset
        self._store = CheckpointStore(self.base_state, self.machine.config)
        self._sweep_state = bytearray(self.base_state)
        self._sweep_pos = 0
        self._sweep_dirty_pages = set()
        self._sweep_dirty_lines = set()
        self.stats.cache_rebuilds += 1

    def _build_checkpoints_to(self, position: int) -> None:
        """Sweep forward, capturing a checkpoint every interval."""
        interval = self.checkpoint_interval
        writes = self._parsed.writes
        while self._sweep_pos + interval <= position:
            target = self._sweep_pos + interval
            for write in writes[self._sweep_pos : target]:
                _apply(self._sweep_state, write)
                first_line = write.offset // LINE_SIZE
                last_line = (write.offset + write.size - 1) // LINE_SIZE
                self._sweep_dirty_pages.add(write.offset // PAGE_SIZE)
                for line in range(first_line, last_line + 1):
                    self._sweep_dirty_lines.add(line)
            self._sweep_pos = target
            probe.hit("replay.checkpoint", cycle=self.machine.time())
            self._store.capture(
                target,
                self._sweep_state,
                self._sweep_dirty_pages,
                len(self._sweep_dirty_lines),
            )
            self.stats.checkpoints_captured += 1
            self.stats.checkpoint_cost_cycles = self._store.cost_cycles
            self._sweep_dirty_pages.clear()
            self._sweep_dirty_lines.clear()


def _apply(state: bytearray, write: ReplayWrite) -> None:
    """Apply one logged write to a materialised state buffer."""
    state[write.offset : write.offset + write.size] = (
        write.value & ((1 << (8 * write.size)) - 1)
    ).to_bytes(write.size, "little")
