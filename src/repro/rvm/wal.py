"""Write-ahead log on a pluggable log device.

Shared by RVM and RLVM: transactions append BEGIN / WRITE / COMMIT /
ABORT entries; recovery scans the log and replays the writes of
committed transactions onto the durable segment images; truncation
applies the committed tail and resets the log.

Entry framing (little endian)::

    u32 length   (of the payload that follows, excluding this header)
    u8  kind     (1=BEGIN, 2=WRITE, 3=COMMIT, 4=ABORT)
    u32 crc      (CRC-32 of the payload)
    ... kind-specific payload ...

WRITE payload: u32 tid, u16 seg_id, u32 offset, u16 nbytes, data bytes.
BEGIN/COMMIT/ABORT payload: u32 tid.

The payload CRC makes torn appends detectable: a crash that lands a
frame's header but not its payload leaves stale or zero bytes that
would otherwise decode as a plausible entry (e.g. a COMMIT of
transaction 0).  The log is also *self-terminating*: every append
places a zeroed header (kind 0) just past its last frame, in the same
device write, and :meth:`WriteAheadLog.reset` durably zeroes the log
head *before* the space is reclaimed.  So a recovery scan, which cannot
trust the in-memory ``tail`` (it dies with the power), stops exactly at
the last durable frame and never runs into stale frames of a previous
generation, which would resurrect already-truncated transactions.

One scanner decodes the log for every reader and checks each frame's
framing and CRC once: :meth:`WriteAheadLog.entries` (truncation) raises
at an invalid frame below ``tail``, :meth:`WriteAheadLog.scan_recover`
(recovery) stops at the first one, and ``_split_committed`` is the
one "WRITE entries of committed transactions, in log order" filter.
"""

from __future__ import annotations

import enum
import struct
import zlib
from typing import NamedTuple

from repro import probe
from repro.backends.base import LogDevice
from repro.errors import RecoveryError
from repro.hw.cpu import CPU

_HEADER = struct.Struct("<IBI")
_TID = struct.Struct("<I")
_WRITE_HEAD = struct.Struct("<IHIH")

#: Zeroed header written after every append's last frame (kind 0 is
#: invalid, so a recovery scan stops here).  ``tail`` never includes
#: it; the next append overwrites it.
_TERMINATOR = b"\x00" * _HEADER.size

#: Durable log-head marker written by :meth:`WriteAheadLog.reset`
#: before the log space may be reused.
_HEAD_MARKER_BYTES = 16


class EntryKind(enum.IntEnum):
    BEGIN = 1
    WRITE = 2
    COMMIT = 3
    ABORT = 4


#: kind byte -> kind; any other byte (the terminator's 0 too) is invalid
_KINDS = {int(kind): kind for kind in EntryKind}

#: First device read of a recovery scan, which does not know the tail.
_SCAN_WINDOW = 64 * 1024


def _frame(kind: EntryKind, payload: bytes) -> bytes:
    return _HEADER.pack(len(payload), kind, zlib.crc32(payload)) + payload


def _write_frame(tid: int, seg_id: int, offset: int, data: bytes) -> bytes:
    return _frame(EntryKind.WRITE, _WRITE_HEAD.pack(tid, seg_id, offset, len(data)) + data)


class WalEntry(NamedTuple):
    """One decoded log entry (a tuple: a scan builds one per frame)."""

    kind: EntryKind
    tid: int
    seg_id: int = 0
    offset: int = 0
    data: bytes = b""


class WriteAheadLog:
    """Append-only transaction log on any :class:`LogDevice` backend."""

    def __init__(self, disk: LogDevice, base: int = 0, capacity: int | None = None):
        self.disk = disk
        self.base = base
        self.capacity = capacity if capacity is not None else disk.size - base
        self.tail = 0
        self.appends = 0

    # ------------------------------------------------------------------
    # Appending (timed)
    # ------------------------------------------------------------------
    def _append(self, cpu: CPU, kind: EntryKind, payload: bytes) -> None:
        frame = _frame(kind, payload)
        if self.tail + len(frame) + len(_TERMINATOR) > self.capacity:
            raise RecoveryError("write-ahead log is full; truncate first")
        sp = probe._ACTIVE
        if sp is not None:
            # Torn mode: the entry header reaches the disk, the payload
            # does not — the classic crash between header and payload.
            base = self.base + self.tail
            sp.hit("wal.append", cpu.now, lambda: self.disk.poke(base, frame[: _HEADER.size]))
            start = cpu.now
            sp.stage_open("wal.append", start, cpu.index)
        self.disk.write(cpu, self.base + self.tail, frame + _TERMINATOR)
        self.tail += len(frame)
        self.appends += 1
        if sp is not None:
            # Closed only after the write lands, so a CrashPoint raised
            # inside the device's fault hook never emits a span.
            sp.stage_close("wal.append", start, cpu.now, cpu.index, kind.name, len(frame))

    def append_begin(self, cpu: CPU, tid: int) -> None:
        self._append(cpu, EntryKind.BEGIN, _TID.pack(tid))

    def append_commit(self, cpu: CPU, tid: int) -> None:
        self._append(cpu, EntryKind.COMMIT, _TID.pack(tid))

    def append_abort(self, cpu: CPU, tid: int) -> None:
        self._append(cpu, EntryKind.ABORT, _TID.pack(tid))

    def append_write(
        self, cpu: CPU, tid: int, seg_id: int, offset: int, data: bytes
    ) -> None:
        self._append(cpu, EntryKind.WRITE, _WRITE_HEAD.pack(tid, seg_id, offset, len(data)) + data)

    def append_writes(
        self, cpu: CPU, tid: int, writes: list[tuple[int, int, bytes]]
    ) -> None:
        """Append several WRITE entries as one disk operation (group I/O)."""
        if not writes:
            # An empty group is a no-op, exactly like append_transactions:
            # no I/O, no cycles, no append accounting.
            return
        frames = [_write_frame(tid, *write) for write in writes]
        self._group_write(cpu, b"".join(frames), len(frames[0]))
        sp = probe._ACTIVE
        if sp is not None:
            sp.observe("rvm.wal.group_entries", len(writes))

    def append_transactions(
        self, cpu: CPU, txns: list[tuple[int, list[tuple[int, int, bytes]]]]
    ) -> None:
        """Append several whole transactions in ONE disk operation.

        Used by no-flush commit batching: each ``(tid, writes)`` becomes
        its WRITE entries followed by a COMMIT entry, all in a single
        group I/O — the amortisation that makes lazy commit cheap.
        """
        batches = [
            b"".join([_write_frame(tid, *write) for write in writes])
            + _frame(EntryKind.COMMIT, _TID.pack(tid))
            for tid, writes in txns
        ]
        if not batches:
            return
        self._group_write(cpu, b"".join(batches), len(batches[0]))
        sp = probe._ACTIVE
        if sp is not None:
            sp.observe(
                "rvm.wal.group_entries",
                sum(len(writes) + 1 for _tid, writes in txns),
            )

    def _group_write(self, cpu: CPU, frames: bytes, first_len: int) -> None:
        """One group I/O for ``frames``; torn mode keeps only the first
        ``first_len`` bytes (a crash mid-way through the group write)."""
        if self.tail + len(frames) + len(_TERMINATOR) > self.capacity:
            raise RecoveryError("write-ahead log is full; truncate first")
        sp = probe._ACTIVE
        if sp is not None:
            base = self.base + self.tail
            sp.hit("wal.append_group", cpu.now, lambda: self.disk.poke(base, frames[:first_len]))
            start = cpu.now
            sp.stage_open("wal.append_group", start, cpu.index)
        self.disk.write(cpu, self.base + self.tail, frames + _TERMINATOR)
        self.tail += len(frames)
        self.appends += 1
        if sp is not None:
            sp.stage_close(
                "wal.append_group", start, cpu.now, cpu.index, len(frames), first_len
            )

    def reset(self, cpu: CPU | None = None) -> None:
        """Discard all entries (after truncation has applied them).

        The durable log-head marker — a zeroed run at the head of the
        log region — is written *before* the in-memory tail is reset,
        i.e. before any new append may reclaim the space.  Without it a
        crash after new (shorter) entries were appended could leave a
        recovery scan running past them into stale frames of the
        previous generation, resurrecting already-truncated
        transactions.  Pass ``cpu`` to charge the marker I/O (the
        "log-head update" of the TPC-A cost envelope); recovery-time
        callers omit it.
        """
        marker = min(_HEAD_MARKER_BYTES, self.capacity)
        if cpu is not None:
            probe.hit("wal.reset", cycle=cpu.now)
            self.disk.write(cpu, self.base, b"\x00" * marker)
        else:
            self.disk.poke(self.base, b"\x00" * marker)
        self.tail = 0

    # ------------------------------------------------------------------
    # Scanning (untimed: used at recovery and by truncation logic)
    #
    # One scanner, :meth:`_scan`, holds the only definition of a valid
    # frame: its header and payload fit the scanned range, its kind is
    # known, its payload passes the CRC, and its length is exactly the
    # payload its kind defines.  :meth:`entries` raises at the first
    # invalid frame; :meth:`scan_recover` stops there.
    # ------------------------------------------------------------------
    def _scan(self, limit: int, window: int) -> tuple[list[WalEntry], int]:
        """Decode the valid frames in ``[0, limit)``, peeking ``window``
        bytes first and doubling as far as the frames reach.  Returns
        them and the offset of the first invalid frame (else ``limit``)."""
        unpack_header, unpack_write = _HEADER.unpack_from, _WRITE_HEAD.unpack_from
        data, view, have = self._extend(b"", window, limit)
        entries: list[WalEntry] = []
        append = entries.append
        pos = 0
        while pos < limit:
            body = pos + _HEADER.size
            if body > have:
                if body > limit:
                    break
                data, view, have = self._extend(data, body, limit)
            length, code, crc = unpack_header(view, pos)
            kind, end = _KINDS.get(code), body + length
            if kind is None or end > limit:
                break
            if end > have:
                data, view, have = self._extend(data, end, limit)
            if zlib.crc32(view[body:end]) != crc:
                break
            if kind is not EntryKind.WRITE:
                if length != _TID.size:
                    break
                append(WalEntry(kind, _TID.unpack_from(view, body)[0]))
            else:
                if length < _WRITE_HEAD.size:
                    break
                tid, seg_id, offset, nbytes = unpack_write(view, body)
                if nbytes != length - _WRITE_HEAD.size:
                    break
                append(WalEntry(kind, tid, seg_id, offset, data[end - nbytes : end]))
            pos = end
        return entries, pos

    def _extend(self, data: bytes, need: int, limit: int) -> tuple[bytes, memoryview, int]:
        """``data`` grown by one peek to ``need`` bytes or double, capped at ``limit``."""
        have = len(data)
        data += self.disk.peek(self.base + have, min(limit, max(need, 2 * have)) - have)
        return data, memoryview(data), len(data)

    def entries(self) -> list[WalEntry]:
        """Decode the entries below ``tail``, in append order.

        Raises :class:`RecoveryError` if any frame below ``tail`` is
        invalid: the in-memory tail vouches for every byte below it.
        """
        entries, end = self._scan(self.tail, self.tail)
        if end != self.tail:
            raise RecoveryError(f"torn or corrupt WAL frame at log offset {end}")
        return entries

    def scan_recover(self) -> list[WalEntry]:
        """Rediscover the durable tail by scanning from the log head.

        After a crash the in-memory ``tail`` is gone; the only truth is
        the bytes on the device.  The scan walks frames from the head
        and stops at the first invalid one — the append-time terminator
        for a clean tail, or garbage/zeroes where a torn write cut an
        entry short (that entry never became durable and is discarded,
        per standard WAL recovery semantics).  Sets ``tail`` to the
        valid durable prefix and returns its decoded entries.
        """
        entries, self.tail = self._scan(self.capacity, _SCAN_WINDOW)
        return entries

    def recover(self, images: dict[int, bytearray]) -> set[int]:
        """:meth:`scan_recover`, then redo the committed writes onto
        ``images`` (seg_id -> durable image).  Returns the committed tids."""
        tids, writes = _split_committed(self.scan_recover())
        for entry in writes:
            image = images.get(entry.seg_id)
            if image is not None:
                image[entry.offset : entry.offset + len(entry.data)] = entry.data
        return tids

    def committed_tids(self) -> set[int]:
        """Transaction ids with a COMMIT entry in the log."""
        return _split_committed(self.entries())[0]

    def committed_writes(self) -> list[WalEntry]:
        """WRITE entries of committed transactions, in log order."""
        return _split_committed(self.entries())[1]


def _split_committed(entries: list[WalEntry]) -> tuple[set[int], list[WalEntry]]:
    """The committed tids of decoded ``entries``, and the WRITE entries
    of those transactions in log order — what truncation and recovery
    apply to the disk images."""
    tids = {e.tid for e in entries if e.kind is EntryKind.COMMIT}
    return tids, [e for e in entries if e.kind is EntryKind.WRITE and e.tid in tids]
