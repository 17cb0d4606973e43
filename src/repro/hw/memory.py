"""Physical memory: page frames and the frame allocator.

Memory is organised as 4 KB page frames (section 3.1).  Frames are
allocated lazily to segments by the kernel's page-fault handler and are
real ``bytearray`` storage — every store performed by a simulated CPU
and every log record DMA'd by the logger lands in these bytes, so the
functional behaviour of the system (rollback, replay, recovery) is
actually exercised, not just its timing.
"""

from __future__ import annotations

import struct

from repro.errors import AddressError, AlignmentError, FrameExhaustedError
from repro.hw.params import PAGE_SIZE

#: Little-endian struct for each integer access size (1, 2, 4, 8 bytes).
PACK = {1: struct.Struct("<B"), 2: struct.Struct("<H"), 4: struct.Struct("<I"), 8: struct.Struct("<Q")}


class Frame:
    """One physical page frame."""

    __slots__ = ("number", "data")

    def __init__(self, number: int) -> None:
        self.number = number
        self.data = bytearray(PAGE_SIZE)

    @property
    def base_addr(self) -> int:
        """Physical base address of this frame."""
        return self.number * PAGE_SIZE

    def read(self, offset: int, size: int) -> int:
        """Read an integer of ``size`` bytes at ``offset`` (little endian)."""
        return PACK[size].unpack_from(self.data, offset)[0]

    def write(self, offset: int, value: int, size: int) -> None:
        """Write an integer of ``size`` bytes at ``offset`` (little endian)."""
        PACK[size].pack_into(self.data, offset, value & ((1 << (8 * size)) - 1))

    def read_bytes(self, offset: int, length: int) -> bytes:
        return bytes(self.data[offset : offset + length])

    def write_bytes(self, offset: int, data: bytes) -> None:
        self.data[offset : offset + len(data)] = data


class PhysicalMemory:
    """Frame allocator plus physically-addressed access.

    Frames are materialised on allocation only, so configuring a large
    physical memory costs nothing until it is used.
    """

    def __init__(self, num_frames: int) -> None:
        self.num_frames = num_frames
        self._frames: dict[int, Frame] = {}
        self._next_free = 0
        self._free_list: list[int] = []

    @property
    def frames_allocated(self) -> int:
        """Number of frames currently allocated."""
        return len(self._frames)

    def allocate_frame(self) -> Frame:
        """Allocate a zeroed page frame.

        Raises :class:`FrameExhaustedError` when physical memory is full.
        """
        if self._free_list:
            number = self._free_list.pop()
        else:
            if self._next_free >= self.num_frames:
                raise FrameExhaustedError(
                    f"out of physical memory ({self.num_frames} frames)"
                )
            number = self._next_free
            self._next_free += 1
        frame = Frame(number)
        self._frames[number] = frame
        return frame

    def free_frame(self, frame: Frame) -> None:
        """Return a frame to the allocator."""
        if self._frames.pop(frame.number, None) is None:
            raise AddressError(f"frame {frame.number} is not allocated")
        self._free_list.append(frame.number)

    def frame_of(self, paddr: int) -> Frame:
        """Return the frame containing physical address ``paddr``."""
        number = paddr // PAGE_SIZE
        frame = self._frames.get(number)
        if frame is None:
            raise AddressError(f"physical address {paddr:#x} is not backed by a frame")
        return frame

    def read(self, paddr: int, size: int) -> int:
        """Physically-addressed integer read (must not cross a page)."""
        self._check(paddr, size)
        return self.frame_of(paddr).read(paddr % PAGE_SIZE, size)

    def write(self, paddr: int, value: int, size: int) -> None:
        """Physically-addressed integer write (must not cross a page)."""
        self._check(paddr, size)
        self.frame_of(paddr).write(paddr % PAGE_SIZE, value, size)

    def write_bytes(self, paddr: int, data: bytes) -> None:
        """Physically-addressed byte-string write (must not cross a page)."""
        offset = paddr % PAGE_SIZE
        if offset + len(data) > PAGE_SIZE:
            raise AddressError("physical byte write crosses a page boundary")
        self.frame_of(paddr).write_bytes(offset, data)

    def read_bytes(self, paddr: int, length: int) -> bytes:
        """Physically-addressed byte-string read (must not cross a page)."""
        offset = paddr % PAGE_SIZE
        if offset + length > PAGE_SIZE:
            raise AddressError("physical byte read crosses a page boundary")
        return self.frame_of(paddr).read_bytes(offset, length)

    @staticmethod
    def _check(paddr: int, size: int) -> None:
        if size not in PACK:
            raise AlignmentError(f"unsupported access size {size}")
        if paddr % size:
            raise AlignmentError(f"address {paddr:#x} not aligned to {size}")
        if paddr % PAGE_SIZE + size > PAGE_SIZE:
            raise AddressError("access crosses a page boundary")
