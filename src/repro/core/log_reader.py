"""Reading a region's log: address translation and streaming.

The prototype logger stores *physical* addresses in log records
(section 3.1.2), so every log consumer — rollback, RLVM commit, the
debugger, log-based consistency — needs the reverse translation back to
a segment offset or virtual address.  :class:`RegionLogView` is that
shared consumer-side view; :class:`LogFollower` adds the streaming
pattern of section 2.6, where "the output process executes
asynchronously with respect to the application process and only
synchronizes on the end of the log".
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.errors import LoggingError
from repro.core.log_segment import LogSegment
from repro.core.region import Region
from repro.hw.params import PAGE_SIZE
from repro.hw.records import FLAG_VIRTUAL_ADDR, LogRecord


class RegionLogView:
    """Consumer-side view of a logged region's records.

    Translates each record's address (physical on the prototype,
    virtual with the on-chip logger) to the region's segment offset and
    virtual address.  The frame map is cached and refreshed lazily as
    the segment grows.
    """

    def __init__(self, region: Region, log: LogSegment | None = None) -> None:
        self.region = region
        self.log = log if log is not None else region.log_segment
        if self.log is None:
            raise LoggingError("region has no log segment to read")
        self._frame_map: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def offset_of(self, record: LogRecord) -> int:
        """Segment offset the record's write landed at."""
        return self.translator()(record.addr, record.flags)

    def _page_base(self, paddr: int) -> int:
        """Segment offset of the page backing physical address ``paddr``."""
        target = paddr // PAGE_SIZE
        page_index = self._frame_map.get(target)
        if page_index is not None:
            # Validate the hit against the live page table: after a page
            # is remapped (or its frame number reused by a different
            # page) a stale entry would silently translate the record to
            # the wrong segment offset.
            page = self.region.segment.page(page_index, allocate=False)
            if page is None or page.frame.number != target:
                page_index = None
        if page_index is None:
            self._frame_map = {
                page.frame.number: page.index
                for page in self.region.segment.pages()
            }
            page_index = self._frame_map.get(target)
        if page_index is None:
            raise LoggingError(
                f"log record address {paddr:#x} is not backed by "
                "any page of the region's segment"
            )
        return page_index * PAGE_SIZE

    def translator(self) -> Callable[[int, int], int]:
        """Return ``to_offset(addr, flags)`` for one pass over the log.

        It checks each frame against the live page table once, then
        caches it; pages may be remapped between passes.
        """
        bases: dict[int, int] = {}
        page_base = self._page_base
        va_to_offset = self.region.va_to_offset

        def to_offset(addr: int, flags: int) -> int:
            if flags & FLAG_VIRTUAL_ADDR:
                return va_to_offset(addr)
            frame = addr // PAGE_SIZE
            base = bases.get(frame)
            if base is None:
                base = bases[frame] = page_base(addr)
            return base + addr % PAGE_SIZE

        return to_offset

    def va_of(self, record: LogRecord) -> int:
        """Virtual address the record's write targeted."""
        if record.is_virtual:
            return record.addr
        return self.region.offset_to_va(self.offset_of(record))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def records(self) -> Iterator[LogRecord]:
        """Retained records of the log, in write order."""
        return self.log.records()

    def updates(self) -> Iterator[tuple[int, int, int]]:
        """(segment offset, value, size) triples, in write order."""
        to_offset = self.translator()
        for _offset, rows in self.log.record_spans():
            for addr, value, size, flags, _timestamp in rows:
                yield to_offset(addr, flags), value, size

    def apply_to(self, segment, limit_offset: int | None = None) -> int:
        """Replay retained records onto ``segment`` (roll-forward).

        Stops before the log offset ``limit_offset`` when given.
        Returns the number of records applied.
        """
        to_offset = self.translator()
        applied = 0
        for _offset, rows in self.log.record_spans(end=limit_offset):
            updates = [
                (to_offset(addr, flags), value, size)
                for addr, value, size, flags, _timestamp in rows
            ]
            segment.write_words(updates)
            applied += len(updates)
        return applied


class LogFollower:
    """Incremental consumption of a growing log (section 2.6 output).

    A separate process tails the log; :meth:`poll` returns the records
    appended since the previous poll without truncating the log, so
    the producer and other consumers are unaffected.
    """

    def __init__(self, view: RegionLogView) -> None:
        self.view = view
        self._cursor = view.log.start_offset
        self.records_seen = 0

    def poll(self) -> list[LogRecord]:
        """Records appended since the last poll."""
        log = self.view.log
        if self._cursor < log.start_offset:
            # The producer truncated past our cursor (records we already
            # consumed), which is fine; resume at the truncation point.
            self._cursor = log.start_offset
        # A cursor past the tail (the producer rewound below it) reads
        # nothing and re-anchors at the new tail.
        out = [
            LogRecord(addr, value, size, timestamp, flags)
            for _offset, rows in log.record_spans(self._cursor)
            for addr, value, size, flags, timestamp in rows
        ]
        self._cursor = log.append_offset
        self.records_seen += len(out)
        return out

    @property
    def backlog_bytes(self) -> int:
        """Bytes appended but not yet consumed; bytes the producer has
        truncated away are gone, not pending."""
        log = self.view.log
        return max(0, log.append_offset - max(self._cursor, log.start_offset))

    def synchronize(self) -> list[LogRecord]:
        """Sync with the end of the log (producer handoff point).

        Quiesces the whole machine — every CPU's write buffer and the
        logger pipeline — so writes from any CPU are read, and ordered
        before whatever the reader does next.
        """
        self.view.region.machine.quiesce()
        return self.poll()
