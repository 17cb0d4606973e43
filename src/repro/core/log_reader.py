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

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.errors import LoggingError, LVMError
from repro.core.log_segment import LogSegment
from repro.core.region import Region
from repro.hw.params import PAGE_SIZE
from repro.hw.records import FLAG_VIRTUAL_ADDR, LogRecord

_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1


@dataclass
class LogColumns:
    """A log range decoded as numpy columns, one row per record.

    ``offsets`` holds each record's segment offset, ``values`` and
    ``sizes`` its datum.  The rows stop before the first record whose
    address does not translate; ``error`` is what translating it raised
    (None when every record of the range translated).
    """

    offsets: np.ndarray
    values: np.ndarray
    sizes: np.ndarray
    error: Exception | None
    #: (log offset, first row) of each span, in log order
    spans: list[tuple[int, int]]
    stride: int

    def log_offset(self, row: int) -> int:
        """Log offset of row ``row``."""
        for offset, first in reversed(self.spans):
            if first <= row:
                return offset + (row - first) * self.stride
        raise IndexError(row)


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

    def columns(self, start: int | None = None, end: int | None = None) -> LogColumns:
        """Decode the retained records of ``[start, end)`` as columns.

        One ``frombuffer`` covers the whole range, and the translator
        runs once per distinct page (a frame, or a virtual page for the
        on-chip logger's records), not once per record.  The rows stop
        at the first record that does not translate, as a loop over the
        records would.
        """
        words, spans = self.log.record_words(start, end)
        rows = len(words)
        addrs = words[:, 0]
        # Key each record by its page and address kind; the region is
        # page aligned, so one translation serves a whole page.
        keys = addrs >> _PAGE_SHIFT << 1 | words[:, 2] >> 16 & FLAG_VIRTUAL_ADDR
        firsts = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()] if rows else []
        to_offset = self.translator()
        bases: dict[int, int] = {}
        run_bases = []
        n, error = rows, None
        for key, first in zip(keys[firsts].tolist(), firsts):
            base = bases.get(key)
            if base is None:
                try:
                    base = bases[key] = to_offset(key >> 1 << _PAGE_SHIFT, key & 1)
                except LVMError as exc:
                    n, error = first, exc
                    break
            run_bases.append(base)
        lengths = np.diff([*firsts[: len(run_bases)], n])
        return LogColumns(
            offsets=np.repeat(np.array(run_bases, np.int64), lengths)
            + (addrs[:n] & (PAGE_SIZE - 1)),
            values=words[:n, 1],
            sizes=words[:n, 2] & 0xFFFF,
            error=error,
            spans=spans,
            stride=self.log.record_size,
        )

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
        cols = self.columns(end=limit_offset)
        segment.write_columns(cols.offsets, cols.values, cols.sizes)
        if cols.error is not None:
            raise cols.error
        return len(cols.offsets)


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
