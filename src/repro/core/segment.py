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

import numpy as np

from repro.errors import SegmentError
from repro.hw.memory import PACK, Frame
from repro.hw.params import LINE_SIZE, LINES_PER_PAGE, PAGE_SIZE

_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
_LINE_SHIFT = LINE_SIZE.bit_length() - 1
#: byte lanes of a word of up to 4 bytes, and their shifts into the value
_LANES = np.arange(4)
_LANE_SHIFTS = (8 * _LANES).astype(np.uint32)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.hw.machine import Machine


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
        #: bit n set = line n written; nonzero = the per-page dirty bit
        self.dc_dirty_mask = 0


def _last_of_each(keys):
    """Index of the last occurrence of each distinct key, in key order."""
    n = len(keys)
    # One value sort, key-major then index-minor: much cheaper than a
    # stable argsort.
    ordered, order = np.divmod(np.sort(keys * n + np.arange(n)), n)
    return order[np.append(np.flatnonzero(ordered[1:] != ordered[:-1]), n - 1)]


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
            page.dc_dirty_mask = 0

    # Table-1-style alias.
    sourceSegment = source_segment

    def reset_deferred_copy(self, start: int = 0, end: int | None = None):
        """Functionally undo modifications in ``[start, end)``.

        Returns a :class:`~repro.core.deferred_copy.ResetStats` with the
        page/line counts the timing model charges for.  The semantics
        are those of copying the source over the destination, performed
        by only clearing the dirty lines inside the (line-aligned) range
        (section 2.3).
        """
        from repro.core.deferred_copy import ResetStats

        if self.source is None:
            raise SegmentError("segment has no deferred-copy source")
        if end is None:
            end = self.size
        if not 0 <= start <= end <= self.size:
            raise SegmentError("reset range out of segment bounds")
        if start % LINE_SIZE or end % LINE_SIZE:
            raise SegmentError("reset range must be line aligned")
        stats = ResetStats()
        first_page = start // PAGE_SIZE
        last_page = (end - 1) // PAGE_SIZE if end > start else first_page - 1
        for index in range(first_page, last_page + 1):
            stats.pages_scanned += 1
            page = self._pages.get(index)
            if page is None or not page.dc_dirty_mask:
                continue
            base = index * PAGE_SIZE
            lo = max(start - base, 0) // LINE_SIZE
            hi = min(end - base, PAGE_SIZE) // LINE_SIZE
            cleared = page.dc_dirty_mask & ((1 << hi) - (1 << lo))
            if cleared:
                page.dc_dirty_mask ^= cleared
                stats.dirty_pages += 1
                stats.dirty_lines += cleared.bit_count()
        return stats

    # ------------------------------------------------------------------
    # Functional (untimed) data access
    # ------------------------------------------------------------------
    def read(self, offset: int, size: int) -> int:
        """Read an integer (within one page), honouring the source."""
        in_page = offset % PAGE_SIZE
        if in_page + size > PAGE_SIZE or not 0 <= offset < self.size:
            raise self._word_error(offset, size)
        index = offset // PAGE_SIZE
        page = self._pages.get(index)
        if self.source is not None:
            mask = 0 if page is None else page.dc_dirty_mask
            dirty = mask >> (in_page // LINE_SIZE) & 1
            if dirty != mask >> ((in_page + size - 1) // LINE_SIZE) & 1:
                # Straddles a dirty and a clean line: merge per line.
                return int.from_bytes(self.read_bytes(offset, size), "little")
            if not dirty:
                return self.source.read(self.source_offset + offset, size)
        elif page is None:
            page = self.page(index)
        return page.frame.read(in_page, size)

    def write(self, offset: int, value: int, size: int) -> None:
        """Write an integer (within one page); only this segment changes."""
        in_page = offset % PAGE_SIZE
        if in_page + size > PAGE_SIZE or not 0 <= offset < self.size:
            raise self._word_error(offset, size)
        page = self._pages.get(offset // PAGE_SIZE) or self.page(offset // PAGE_SIZE)
        if self.source is not None:
            mask = page.dc_dirty_mask
            if not mask >> (in_page // LINE_SIZE) & mask >> ((in_page + size - 1) // LINE_SIZE) & 1:
                self._dirty(page, in_page, size)
        PACK[size].pack_into(page.frame.data, in_page, value & ((1 << 8 * size) - 1))

    def write_words(self, writes) -> None:
        """``for o, v, s in writes: self.write(o, v, s)``, with the page
        looked up once per run of writes to it."""
        pages = self._pages
        source = self.source
        last = -1
        for offset, value, size in writes:
            in_page = offset % PAGE_SIZE
            if in_page + size > PAGE_SIZE or not 0 <= offset < self.size:
                raise self._word_error(offset, size)
            if offset // PAGE_SIZE != last:
                last = offset // PAGE_SIZE
                page = pages.get(last) or self.page(last)
                data = page.frame.data
            if source is not None:
                mask = page.dc_dirty_mask
                line = in_page // LINE_SIZE
                if not mask >> line & mask >> ((in_page + size - 1) // LINE_SIZE) & 1:
                    self._dirty(page, in_page, size)
            PACK[size].pack_into(data, in_page, value & ((1 << 8 * size) - 1))

    def write_columns(self, offsets, values, sizes) -> None:
        """``for o, v, s in zip(offsets, values, sizes): self.write(o, v, s)``
        over numpy columns of 1-, 2- and 4-byte writes, one pass per page.

        Only the last byte written at each position is stored, so
        overlapping writes land as the loop lands them.  On a
        deferred-copy destination each clean touched line is loaded
        whole from the source, then the page's touched lines are marked
        dirty in one OR: that matches the loop because ``_dirty`` loads
        a clean line before any write lands in it, so the frame's old
        bytes under a clean line are never read either way.
        """
        offsets = np.asarray(offsets, np.int64)
        sizes = np.asarray(sizes, np.int64)
        if not len(offsets):
            return
        # The last write of each (offset, size) word, in the order of
        # those last writes.  A word is out of range in every write of
        # it or in none, so checking the survivors checks them all.
        lasts = np.sort(_last_of_each(offsets << 3 | sizes))
        words, word_sizes = offsets[lasts], sizes[lasts]
        if self._out_of_range(words, word_sizes).any():
            i = int(self._out_of_range(offsets, sizes).argmax())
            self.write_columns(offsets[:i], values[:i], sizes[:i])
            raise self._word_error(int(offsets[i]), int(sizes[i]))
        # Their bytes in write order, then the last byte at each position
        # (sorted by position): words of different sizes may overlap.
        lanes = _LANES < word_sizes[:, None]
        positions = (words[:, None] + _LANES)[lanes]
        data = (np.asarray(values, np.uint32)[lasts, None] >> _LANE_SHIFTS)[lanes]
        final = _last_of_each(positions)
        positions, data = positions[final], data[final].astype(np.uint8)
        cuts = np.flatnonzero(np.diff(positions >> _PAGE_SHIFT, prepend=-1)).tolist()
        indices = (positions[cuts] >> _PAGE_SHIFT).tolist()
        pages = self._pages
        if any(index not in pages for index in indices):
            # Allocate frames in first-touch order, as the loop does: a
            # frame's number is visible to later address translation.
            touched, firsts = np.unique(offsets >> _PAGE_SHIFT, return_index=True)
            for index in touched[np.argsort(firsts)].tolist():
                self.page(index)
        cuts.append(len(positions))
        source = self.source
        for index, lo, hi in zip(indices, cuts, cuts[1:]):
            page = pages[index]
            frame = np.frombuffer(page.frame.data, np.uint8)
            in_page = positions[lo:hi] & (PAGE_SIZE - 1)
            if source is not None:
                lines = np.zeros(LINES_PER_PAGE, bool)
                lines[in_page >> _LINE_SHIFT] = True
                mask = int.from_bytes(np.packbits(lines, bitorder="little").tobytes(), "little")
                clean = mask & ~page.dc_dirty_mask
                if clean:
                    lines = np.unpackbits(
                        np.frombuffer(clean.to_bytes(LINES_PER_PAGE // 8, "little"), np.uint8),
                        bitorder="little",
                    )
                    loaded = source.read_bytes(self.source_offset + index * PAGE_SIZE, PAGE_SIZE)
                    np.copyto(frame, np.frombuffer(loaded, np.uint8),
                              where=np.repeat(lines.astype(bool), LINE_SIZE))
                page.dc_dirty_mask |= mask
            frame[in_page] = data[lo:hi]

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
                self._dirty(page, in_page, chunk)
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
        if page is None or not page.dc_dirty_mask:
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
            if page.dc_dirty_mask >> (offset // LINE_SIZE) & 1:
                out += page.frame.read_bytes(offset, chunk)
            else:
                out += self.source.read_bytes(
                    self.source_offset + base + offset, chunk
                )
            offset += chunk
            remaining -= chunk
        return bytes(out)

    def _dirty(self, page: SegmentPage, offset: int, size: int) -> None:
        """Mark the lines of ``[offset, offset+size)`` in ``page`` dirty.

        A write that covers a clean line only in part must not lose the
        source's bytes in the rest of that line — the hardware loads the
        line from the source before the write (section 3.3 cache model).
        Only the first and last lines can be partly covered, so at most
        those two are loaded; one OR then sets the span's dirty bits.
        """
        end = offset + size
        first, last = offset // LINE_SIZE, (end - 1) // LINE_SIZE
        mask = page.dc_dirty_mask
        for line, partial in ((first, offset % LINE_SIZE), (last, end % LINE_SIZE)):
            if partial and not mask >> line & 1:
                line_off = line * LINE_SIZE
                page.frame.write_bytes(line_off, self.source.read_bytes(
                    self.source_offset + page.index * PAGE_SIZE + line_off, LINE_SIZE
                ))
                mask |= 1 << line
        page.dc_dirty_mask = mask | (2 << last) - (1 << first)

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or offset + length > self.size:
            raise SegmentError(
                f"access [{offset}, {offset + length}) outside segment of "
                f"size {self.size}"
            )

    def _out_of_range(self, offsets, sizes):
        """Mask of the integer accesses that leave the segment or a page."""
        return (offsets < 0) | (offsets >= self.size) | (
            (offsets & (PAGE_SIZE - 1)) + sizes > PAGE_SIZE
        )

    def _word_error(self, offset: int, size: int) -> SegmentError:
        """An integer access leaves the segment or spans a page."""
        return SegmentError(f"integer access [{offset}, {offset + size}) outside one page of "
                            f"the segment of size {self.size}")


class StdSegment(Segment):
    """The standard segment implementation (Table 1: ``StdSegment``)."""
