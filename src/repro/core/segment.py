"""Memory segments (Table 1 of the paper).

A segment is "a virtual memory system object that can be mapped to a
region (a contiguous range of virtual memory addresses)".  Segments own
page frames (allocated lazily) and carry the deferred-copy state of
section 2.3: a segment may declare another segment as its
*deferred-copy source*, in which case reads of unmodified lines return
the source's data, writes affect only this segment, and
``resetDeferredCopy`` makes the whole range read from the source again
without any copying.

Functional data access (``read``/``write``/``read_bytes``/...) is
untimed; the timed path used by simulated programs goes through
:class:`repro.core.address_space.AddressSpace`, which performs the
functional access here and charges the CPU timing model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.errors import SegmentError
from repro.hw.memory import Frame
from repro.hw.params import LINE_SIZE, LINES_PER_PAGE, PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.hw.machine import Machine

#: Mask with one set bit per line in a page — a fully-dirty page.
_ALL_LINES_DIRTY = (1 << LINES_PER_PAGE) - 1


class SegmentManager:
    """User-level page-fault handling hook (Table 1: ``SegmentMan``).

    The Cache Kernel forwards page faults on a segment to its manager;
    the default manager simply zero-fills.  Subclasses may override
    :meth:`handle_fault` to implement mapped files, remote paging, etc.
    """

    def handle_fault(self, segment: "Segment", page_index: int, frame: Frame) -> None:
        """Populate ``frame`` for ``segment`` page ``page_index``.

        The default implementation leaves the frame zero-filled.
        """


#: Shared default manager instance (Table 1: ``defaultSegmentMan``).
default_segment_manager = SegmentManager()


class SegmentPage:
    """One page of a segment: its frame plus deferred-copy dirty bits.

    The dirty bits track which 16-byte lines have been written since the
    last ``resetDeferredCopy`` — the software image of the prototype's
    per-cache-line source/destination addresses (section 3.3).
    """

    __slots__ = ("index", "frame", "dc_dirty_mask")

    def __init__(self, index: int, frame: Frame) -> None:
        self.index = index
        self.frame = frame
        self.dc_dirty_mask = 0

    @property
    def dc_dirty(self) -> bool:
        """Per-page dirty bit (checked first by the reset, section 3.3)."""
        return self.dc_dirty_mask != 0

    def mark_dirty(self, offset: int, size: int) -> None:
        """Mark the lines overlapping ``[offset, offset+size)`` dirty."""
        first = offset // LINE_SIZE
        last = (offset + size - 1) // LINE_SIZE
        for line in range(first, last + 1):
            self.dc_dirty_mask |= 1 << line

    def line_dirty(self, offset: int) -> bool:
        """True if the line containing ``offset`` has been written."""
        return bool(self.dc_dirty_mask >> (offset // LINE_SIZE) & 1)

    def clear_dirty(self) -> int:
        """Clear all dirty bits; returns how many lines were dirty."""
        count = self.dc_dirty_mask.bit_count()
        self.dc_dirty_mask = 0
        return count


class Segment:
    """Base class of all memory segments."""

    def __init__(
        self,
        size: int,
        flags: int = 0,
        segment_manager: SegmentManager | None = None,
        machine: "Machine | None" = None,
    ) -> None:
        if size <= 0:
            raise SegmentError("segment size must be positive")
        if machine is None:
            from repro.core.context import current_machine

            machine = current_machine()
        self.machine = machine
        self.flags = flags
        self.segment_manager = segment_manager or default_segment_manager
        #: size rounded up to whole pages
        self.size = -(-size // PAGE_SIZE) * PAGE_SIZE
        self.num_pages = self.size // PAGE_SIZE
        self._pages: dict[int, SegmentPage] = {}
        #: deferred-copy source (section 2.3), or None
        self.source: Segment | None = None
        self.source_offset = 0
        #: number of logged regions currently bound over this segment
        #: (the prototype supports at most one, section 3.1.2)
        self.logged_binding_count = 0

    # ------------------------------------------------------------------
    # Pages and frames
    # ------------------------------------------------------------------
    def page(self, index: int, allocate: bool = True) -> SegmentPage | None:
        """Return page ``index``, allocating its frame on first touch."""
        if not 0 <= index < self.num_pages:
            raise SegmentError(
                f"page {index} out of range (segment has {self.num_pages} pages)"
            )
        page = self._pages.get(index)
        if page is None and allocate:
            frame = self.machine.memory.allocate_frame()
            page = SegmentPage(index, frame)
            self._pages[index] = page
            self.segment_manager.handle_fault(self, index, frame)
        return page

    def pages(self) -> Iterator[SegmentPage]:
        """Iterate over the pages that have been materialised."""
        return iter(self._pages.values())

    @property
    def resident_pages(self) -> int:
        """Number of pages with frames allocated."""
        return len(self._pages)

    # ------------------------------------------------------------------
    # Deferred copy (sections 2.3 / 3.3, Table 1)
    # ------------------------------------------------------------------
    def source_segment(self, source: "Segment", offset: int = 0) -> None:
        """Declare ``source`` as this segment's deferred-copy source.

        "Segment B appears initialized by segment A; that is, initial
        reads from a region bound to B retrieve data from A.  Writes are
        only reflected in memory segment B, leaving A unchanged."
        """
        if source is self:
            raise SegmentError("a segment cannot be its own deferred-copy source")
        if offset % PAGE_SIZE:
            raise SegmentError("deferred-copy source offset must be page aligned")
        if offset + self.size > source.size:
            raise SegmentError("deferred-copy source is too small for this segment")
        self.source = source
        self.source_offset = offset
        # Everything written before the source was attached is stale:
        # the semantics are "B appears initialized by A" from this point.
        for page in self._pages.values():
            page.clear_dirty()

    # Table-1-style alias.
    sourceSegment = source_segment

    def reset_deferred_copy(self, start: int = 0, end: int | None = None):
        """Functionally undo modifications in ``[start, end)``.

        Returns a :class:`~repro.core.deferred_copy.ResetStats` with the
        page/line counts the timing model charges for.  The semantics
        are those of copying the source over the destination, performed
        by only clearing dirty state (section 2.3).
        """
        from repro.core.deferred_copy import ResetStats

        if self.source is None:
            raise SegmentError("segment has no deferred-copy source")
        if end is None:
            end = self.size
        if not 0 <= start <= end <= self.size:
            raise SegmentError("reset range out of segment bounds")
        stats = ResetStats()
        first_page = start // PAGE_SIZE
        last_page = (end - 1) // PAGE_SIZE if end > start else first_page - 1
        for index in range(first_page, last_page + 1):
            stats.pages_scanned += 1
            page = self._pages.get(index)
            if page is None or not page.dc_dirty:
                continue
            stats.dirty_pages += 1
            stats.dirty_lines += page.clear_dirty()
        return stats

    # ------------------------------------------------------------------
    # Functional (untimed) data access
    # ------------------------------------------------------------------
    def read(self, offset: int, size: int) -> int:
        """Read an integer, honouring the deferred-copy source."""
        self._check_range(offset, size)
        index, in_page = divmod(offset, PAGE_SIZE)
        page = self._pages.get(index)
        if self.source is not None and (page is None or not page.line_dirty(in_page)):
            return self.source.read(self.source_offset + offset, size)
        if page is None:
            page = self.page(index)
        return page.frame.read(in_page, size)

    def write(self, offset: int, value: int, size: int) -> None:
        """Write an integer; only this segment is affected."""
        self._check_range(offset, size)
        index, in_page = divmod(offset, PAGE_SIZE)
        page = self.page(index)
        if self.source is not None:
            self._fill_partial_lines(page, in_page, size)
            page.mark_dirty(in_page, size)
        page.frame.write(in_page, value, size)

    def read_bytes(self, offset: int, length: int) -> bytes:
        """Read a byte string (may span pages)."""
        self._check_range(offset, length)
        out = bytearray()
        while length:
            index, in_page = divmod(offset, PAGE_SIZE)
            chunk = min(length, PAGE_SIZE - in_page)
            if self.source is not None:
                out += self._read_bytes_dc(index, in_page, chunk)
            else:
                page = self._pages.get(index)
                if page is None:
                    out += bytes(chunk)
                else:
                    out += page.frame.read_bytes(in_page, chunk)
            offset += chunk
            length -= chunk
        return bytes(out)

    def write_bytes(self, offset: int, data: bytes) -> None:
        """Write a byte string (may span pages)."""
        self._check_range(offset, len(data))
        pos = 0
        while pos < len(data):
            index, in_page = divmod(offset + pos, PAGE_SIZE)
            chunk = min(len(data) - pos, PAGE_SIZE - in_page)
            page = self.page(index)
            if self.source is not None:
                self._fill_partial_lines(page, in_page, chunk)
                page.mark_dirty(in_page, chunk)
            page.frame.write_bytes(in_page, data[pos : pos + chunk])
            pos += chunk

    def snapshot(self) -> bytes:
        """Return the full logical contents of the segment."""
        return self.read_bytes(0, self.size)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _read_bytes_dc(self, index: int, in_page: int, length: int) -> bytes:
        """Byte read on a deferred-copy destination: merge per line."""
        page = self._pages.get(index)
        base = index * PAGE_SIZE
        if page is None or not page.dc_dirty:
            return self.source.read_bytes(self.source_offset + base + in_page, length)
        first = in_page // LINE_SIZE
        last = (in_page + length - 1) // LINE_SIZE
        span = ((1 << (last - first + 1)) - 1) << first
        covered = page.dc_dirty_mask & span
        if covered == span:
            # Every line in the range is dirty: one frame read.
            return page.frame.read_bytes(in_page, length)
        if not covered:
            # Every line is clean: one source read.
            return self.source.read_bytes(self.source_offset + base + in_page, length)
        out = bytearray()
        offset = in_page
        remaining = length
        while remaining:
            line_end = (offset // LINE_SIZE + 1) * LINE_SIZE
            chunk = min(remaining, line_end - offset)
            if page.line_dirty(offset):
                out += page.frame.read_bytes(offset, chunk)
            else:
                out += self.source.read_bytes(
                    self.source_offset + base + offset, chunk
                )
            offset += chunk
            remaining -= chunk
        return bytes(out)

    def _fill_partial_lines(self, page: SegmentPage, offset: int, size: int) -> None:
        """Copy source data into lines about to become partially dirty.

        A write smaller than a line must not lose the source's bytes in
        the untouched part of the line — the hardware loads the line
        from the source before the write (section 3.3 cache model).
        Lines that are already dirty hold current data and are skipped.
        """
        base = page.index * PAGE_SIZE
        first = offset // LINE_SIZE
        last = (offset + size - 1) // LINE_SIZE
        for line in range(first, last + 1):
            if page.dc_dirty_mask >> line & 1:
                continue
            line_off = line * LINE_SIZE
            if offset <= line_off and line_off + LINE_SIZE <= offset + size:
                # The write covers this whole line: filling it from the
                # source would be overwritten immediately.
                continue
            data = self.source.read_bytes(
                self.source_offset + base + line_off, LINE_SIZE
            )
            page.frame.write_bytes(line_off, data)

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or offset + length > self.size:
            raise SegmentError(
                f"access [{offset}, {offset + length}) outside segment of "
                f"size {self.size}"
            )


class StdSegment(Segment):
    """The standard segment implementation (Table 1: ``StdSegment``)."""
