"""Log segments (sections 2.1 and 3.2).

A :class:`LogSegment` is a segment that holds the log records generated
for a logged region: "Every time the program writes to this region, the
virtual memory hardware automatically appends a record of the write
operation onto the log...  These log records are arranged sequentially
in the log segment so that an earlier write is stored in a lower offset
than a later write."

The hardware appends through the logger's log-table entry; the kernel
keeps this object's ``append_offset`` in sync via the
``record_written`` hook, and answers page-boundary logging faults from
:meth:`hw_append_paddr`.  "In our implementation, the user explicitly
extends the log segment, normally in advance of a fault at the end of
the log segment...  If the user has not provided a page, the kernel
uses a default log page to absorb the log records" — records absorbed
that way are counted in :attr:`lost_records`.  Construct with
``auto_extend=True`` (the default convenience) to let the kernel extend
the log automatically instead.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.errors import LoggingError
from repro.hw.params import LOG_RECORD_SIZE, PAGE_SIZE
from repro.hw.records import (
    EXTENDED_RECORD_SIZE,
    RECORD_STRUCT,
    LogRecord,
    decode_extended_record,
    decode_record,
)
from repro.core.segment import Segment

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.machine import Machine

#: Default capacity of a log segment (grows lazily, page at a time).
DEFAULT_LOG_CAPACITY = 4 * 1024 * 1024

#: Size of one indexed-mode entry (a bare data value, section 2.6).
INDEXED_ENTRY_SIZE = 4

#: The leading ``(addr, value, size, flags, timestamp)`` fields of a
#: 24-byte extended record; the pre-write value and PC are skipped.
_EXTENDED_FIELDS = struct.Struct(RECORD_STRUCT.format + "8x")


class LogSegment(Segment):
    """A segment receiving hardware-generated log records (Table 1)."""

    def __init__(
        self,
        size: int = DEFAULT_LOG_CAPACITY,
        initial_pages: int = 1,
        auto_extend: bool = True,
        extended_records: bool = False,
        machine: "Machine | None" = None,
    ) -> None:
        super().__init__(size, machine=machine)
        if initial_pages < 1:
            raise LoggingError("a log segment needs at least one initial page")
        #: next byte the hardware will append at
        self.append_offset = 0
        #: logical truncation point — records before this are discarded
        self.start_offset = 0
        #: pages the user has made available for appending
        self.available_pages = min(initial_pages, self.num_pages)
        self.auto_extend = auto_extend
        #: true when records are the 24-byte extended format (on-chip
        #: logger option, section 4.6)
        self.extended_records = extended_records
        self.records_appended = 0
        self.lost_records = 0
        #: set by the kernel while this log is loaded in the logger
        self.attached_kernel = None
        self.attached_index: int | None = None

    # ------------------------------------------------------------------
    # User interface
    # ------------------------------------------------------------------
    @property
    def record_size(self) -> int:
        """Stride of records in this log."""
        return EXTENDED_RECORD_SIZE if self.extended_records else LOG_RECORD_SIZE

    @property
    def record_count(self) -> int:
        """Number of records currently retained (after truncation)."""
        return self.records_appended - self._records_below(self.start_offset)

    def extend(self, npages: int = 1) -> None:
        """Make ``npages`` more pages available for appending.

        Applications extend the log "normally in advance of a fault at
        the end of the log segment" (section 3.2).
        """
        if npages < 1:
            raise LoggingError("must extend by at least one page")
        self.available_pages = min(self.available_pages + npages, self.num_pages)
        if self.attached_kernel is not None:
            self.attached_kernel.log_extended(self)

    def truncate(self, through_offset: int | None = None) -> None:
        """Discard records below ``through_offset`` (default: all).

        Used by checkpoint-update-and-log-truncation (section 2.4) and
        by RLVM after commit.  Truncation is logical; the hardware
        append pointer is unaffected.
        """
        if through_offset is None:
            through_offset = self.append_offset
        if not 0 <= through_offset <= self.append_offset:
            raise LoggingError("truncation point outside the logged range")
        if through_offset < self.start_offset:
            raise LoggingError("cannot un-truncate a log")
        self.start_offset = through_offset

    def rewind(self, to_offset: int) -> None:
        """Discard the *tail* of the log from ``to_offset`` onward.

        Used by rollback: after roll-forward stops at the cut point,
        the records of undone events are discarded and the hardware
        append pointer is moved back so new records continue from the
        cut (section 2.4 rollback).
        """
        if not self.start_offset <= to_offset <= self.append_offset:
            raise LoggingError("rewind point outside the logged range")
        self.machine.quiesce()
        self.records_appended -= (
            self._records_below(self.append_offset) - self._records_below(to_offset)
        )
        self.append_offset = to_offset
        if self.attached_kernel is not None:
            self.attached_kernel.log_rewound(self)

    def byte_spans(
        self, start: int | None = None, end: int | None = None
    ) -> Iterator[tuple[int, bytes]]:
        """Read retained records in ``[start, end)`` a span at a time.

        A span is the run of whole records inside one page, read with
        one ``read_bytes``; yields its log offset and bytes.  ``start``
        (a prior offset, e.g. a reader's cursor) is clamped to the
        truncation point and ``end`` to the append point.
        """
        stride = self.record_size
        offset = self.start_offset if start is None else max(start, self.start_offset)
        end = self.append_offset if end is None else min(end, self.append_offset)
        while offset + stride <= end:
            page_end = offset - offset % PAGE_SIZE + PAGE_SIZE
            n = (min(end, page_end) - offset) // stride
            if n == 0:
                # Extended records are padded past page boundaries.
                offset = page_end
                continue
            yield offset, self.read_bytes(offset, n * stride)
            offset += n * stride

    def record_words(
        self, start: int | None = None, end: int | None = None
    ) -> tuple[np.ndarray, list[tuple[int, int]]]:
        """:meth:`byte_spans` as one array of little-endian 32-bit words.

        Each row is one record: ``(addr, value, size | flags << 16,
        timestamp[, old value, PC])``; the extended format's page
        padding is skipped.  Also returns each span's ``(log offset,
        first row)``, in log order.
        """
        spans = []
        chunks = []
        rows = 0
        for offset, data in self.byte_spans(start, end):
            spans.append((offset, rows))
            chunks.append(data)
            rows += len(data) // self.record_size
        words = np.frombuffer(b"".join(chunks), "<u4")
        return words.reshape(-1, self.record_size // 4), spans

    def record_spans(
        self, start: int | None = None, end: int | None = None
    ) -> Iterator[tuple[int, Iterator[tuple[int, ...]]]]:
        """Decode :meth:`byte_spans` with one ``iter_unpack`` per span.

        Yields each span's log offset with its ``(addr, value, size,
        flags, timestamp)`` rows; the ``i``-th row sits at ``offset +
        i * record_size``.
        """
        unpack = (_EXTENDED_FIELDS if self.extended_records else RECORD_STRUCT).iter_unpack
        for offset, data in self.byte_spans(start, end):
            yield offset, unpack(data)

    def records_with_offsets(
        self, start: int | None = None
    ) -> Iterator[tuple[int, LogRecord]]:
        """Iterate ``(log_offset, record)`` pairs for retained records.

        The :class:`LogRecord` object view, for the debugger and CLI;
        hot readers use :meth:`record_spans`.  ``start`` is clamped as
        in :meth:`byte_spans`.
        """
        decode = decode_extended_record if self.extended_records else decode_record
        stride = self.record_size
        for offset, data in self.byte_spans(start):
            for pos in range(0, len(data), stride):
                yield offset + pos, decode(data, pos)

    def records(self) -> Iterator[LogRecord]:
        """Iterate retained records in write order."""
        for _offset, record in self.records_with_offsets():
            yield record

    def values(self, size: int = INDEXED_ENTRY_SIZE) -> Iterator[int]:
        """Iterate bare data values for an indexed-mode log (section 2.6)."""
        offset = self.start_offset
        while offset + size <= self.append_offset:
            yield int.from_bytes(self.read_bytes(offset, size), "little")
            offset += size

    # ------------------------------------------------------------------
    # Kernel / hardware interface
    # ------------------------------------------------------------------
    def hw_append_paddr(self) -> int | None:
        """Physical address for the hardware to append at, or None.

        Returns None when the log is out of available pages (the kernel
        then absorbs records into its default page and they are lost),
        auto-extending first when configured to.
        """
        page_index = self.append_offset // PAGE_SIZE
        if page_index >= self.num_pages:
            return None
        if page_index >= self.available_pages:
            if not self.auto_extend:
                return None
            self.available_pages = page_index + 1
        frame = self.page(page_index).frame
        return frame.base_addr + self.append_offset % PAGE_SIZE

    def note_append(self, nbytes: int) -> None:
        """Kernel hook: the hardware appended ``nbytes`` at the tail."""
        self.append_offset += nbytes
        self.records_appended += 1

    def note_lost(self) -> None:
        """Kernel hook: a record was absorbed by the default page."""
        self.lost_records += 1

    def make_sink(self):
        """Return an append sink for the on-chip logger (section 4.6).

        The sink places a record payload, handling page-boundary padding
        for the 24-byte extended format, and returns the physical
        address to DMA to (or None when the log is full).
        """

        def sink(payload: bytes) -> int | None:
            room = PAGE_SIZE - self.append_offset % PAGE_SIZE
            if room < len(payload):
                # Pad to the next page so records never straddle pages.
                self.append_offset += room
            dest = self.hw_append_paddr()
            if dest is None:
                self.lost_records += 1
                return None
            self.append_offset += len(payload)
            self.records_appended += 1
            return dest

        return sink

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _records_below(self, offset: int) -> int:
        """Whole records in ``[0, offset)``, in closed form: a page holds
        ``PAGE_SIZE // record_size`` of them and none straddles pages."""
        pages, in_page = divmod(offset, PAGE_SIZE)
        return pages * (PAGE_SIZE // self.record_size) + in_page // self.record_size
