"""The 16-byte log record format.

"This log record contains the virtual address written, the datum
written there, the datum size, and a timestamp" (section 2.1).  The
prototype bus logger stores *physical* addresses (section 3.1.2); the
next-generation on-chip logger stores virtual addresses (section 4.6).
The record layout is the same either way:

====  =====  =========================================
off   size   field
====  =====  =========================================
0     4      address written (physical or virtual)
4     4      value written (zero-extended)
8     2      size of the write in bytes (1, 2 or 4)
10    2      flags (bit 0: address is virtual)
12    4      timestamp (6.25 MHz counter, section 3.1)
====  =====  =========================================
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator

from repro.errors import LoggingError
from repro.hw.params import LOG_RECORD_SIZE

_STRUCT = struct.Struct("<IIHHI")
_EXT_STRUCT = struct.Struct("<IIHHIII")

#: The 16-byte record layout, exposed for hot paths that pack or unpack
#: records inline (field order: addr, value, size, flags, timestamp).
RECORD_STRUCT = _STRUCT

#: Flag bit: the address field holds a virtual address (on-chip logger).
FLAG_VIRTUAL_ADDR = 0x0001

#: Flag bit: the record is the 24-byte extended format carrying the
#: pre-write value and program counter (an option of the section 4.6
#: on-chip design: "There is the option of placing other information in
#: the log records (such as the memory data before the write and the
#: program counter value)").
FLAG_EXTENDED = 0x0002

#: Size of an extended record in bytes.
EXTENDED_RECORD_SIZE = 24


@dataclass(frozen=True)
class LogRecord:
    """One decoded write-log record."""

    addr: int
    value: int
    size: int
    timestamp: int
    flags: int = 0

    @property
    def is_virtual(self) -> bool:
        """True when :attr:`addr` is a virtual address."""
        return bool(self.flags & FLAG_VIRTUAL_ADDR)

    def encode(self) -> bytes:
        """Serialise to the 16-byte hardware format."""
        if self.size not in (1, 2, 4):
            raise LoggingError(f"invalid record size {self.size}")
        return _STRUCT.pack(
            self.addr & 0xFFFFFFFF,
            self.value & 0xFFFFFFFF,
            self.size,
            self.flags,
            self.timestamp & 0xFFFFFFFF,
        )


def encode_record(
    addr: int, value: int, size: int, timestamp: int, flags: int = 0
) -> bytes:
    """Encode a record without constructing a :class:`LogRecord`."""
    return _STRUCT.pack(
        addr & 0xFFFFFFFF, value & 0xFFFFFFFF, size, flags, timestamp & 0xFFFFFFFF
    )


def decode_record(data: bytes, offset: int = 0) -> LogRecord:
    """Decode one 16-byte record at ``offset`` in ``data``."""
    addr, value, size, flags, timestamp = _STRUCT.unpack_from(data, offset)
    return LogRecord(addr=addr, value=value, size=size, timestamp=timestamp, flags=flags)


def decode_records(data: bytes) -> Iterator[LogRecord]:
    """Decode a dense byte string of records, in log order."""
    if len(data) % LOG_RECORD_SIZE:
        raise LoggingError("record buffer length is not a multiple of 16")
    for offset in range(0, len(data), LOG_RECORD_SIZE):
        yield decode_record(data, offset)


@dataclass(frozen=True)
class ExtendedLogRecord(LogRecord):
    """24-byte record carrying the pre-write value and PC (section 4.6)."""

    old_value: int = 0
    pc: int = 0

    def encode(self) -> bytes:
        if self.size not in (1, 2, 4):
            raise LoggingError(f"invalid record size {self.size}")
        return _EXT_STRUCT.pack(
            self.addr & 0xFFFFFFFF,
            self.value & 0xFFFFFFFF,
            self.size,
            self.flags | FLAG_EXTENDED,
            self.timestamp & 0xFFFFFFFF,
            self.old_value & 0xFFFFFFFF,
            self.pc & 0xFFFFFFFF,
        )


def encode_extended_record(
    addr: int,
    value: int,
    size: int,
    timestamp: int,
    old_value: int,
    pc: int = 0,
    flags: int = 0,
) -> bytes:
    """Encode a 24-byte extended record."""
    return _EXT_STRUCT.pack(
        addr & 0xFFFFFFFF,
        value & 0xFFFFFFFF,
        size,
        flags | FLAG_EXTENDED,
        timestamp & 0xFFFFFFFF,
        old_value & 0xFFFFFFFF,
        pc & 0xFFFFFFFF,
    )


def decode_extended_record(data: bytes, offset: int = 0) -> ExtendedLogRecord:
    """Decode one 24-byte extended record at ``offset``."""
    addr, value, size, flags, timestamp, old_value, pc = _EXT_STRUCT.unpack_from(
        data, offset
    )
    if not flags & FLAG_EXTENDED:
        raise LoggingError("record is not in the extended format")
    return ExtendedLogRecord(
        addr=addr,
        value=value,
        size=size,
        timestamp=timestamp,
        flags=flags,
        old_value=old_value,
        pc=pc,
    )
