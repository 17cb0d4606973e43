"""Crash-consistency checking for RVM / RLVM durable state.

Given a :class:`~repro.faults.plan.CrashPoint`'s durable snapshot, the
recovery here rebuilds state exactly the way a restarted library would:
rediscover the write-ahead log's tail by scanning the RAM disk from the
log head (the in-memory tail died with the power), collect the set of
transactions with a durable COMMIT record, and replay their WRITE
entries over the segment disk images.

:class:`CrashConsistencyChecker` then verifies the ACID model against a
pure-Python :class:`WorkloadOracle` that the workload driver fed as it
ran:

* **durability** — every transaction whose commit (or lazy flush) call
  returned before the crash is visible after recovery;
* **atomicity / isolation** — no aborted, in-flight, or
  unflushed-no-flush transaction is visible, in whole or in part;
* **state equality** — each recovered segment's bytes equal the oracle
  applying exactly the surviving transactions' writes, in commit order,
  to the initial image.

A transaction whose commit was *in progress* at the crash instant may
legitimately land on either side (all-or-nothing is still enforced by
the state-equality check); the oracle tracks it as ``maybe``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LVMError
from repro.backends.ramdisk import RamDisk
from repro.rvm.wal import WriteAheadLog


class CrashCheckFailure(LVMError, AssertionError):
    """The recovered state violates the ACID model."""


# ----------------------------------------------------------------------
# Durable snapshot and recovery
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SegmentImage:
    """Durable disk image of one recoverable segment at crash time."""

    seg_id: int
    name: str
    data: bytes
    #: first user-data byte (16 for RLVM's control word, 0 for RVM)
    data_off: int


@dataclass(frozen=True)
class DurableSnapshot:
    """Everything that survives the power failure — nothing else."""

    disk_bytes: bytes
    wal_base: int
    wal_capacity: int
    images: tuple[SegmentImage, ...]


def capture_snapshot(backend) -> DurableSnapshot:
    """Snapshot the durable state of an RVM or RLVM instance.

    Volatile state (mapped segments, hardware log, pending no-flush
    commits, the in-memory WAL tail) is intentionally not captured.
    """
    images = []
    for rseg in backend.segments.values():
        data_va = getattr(rseg, "data_va", None)
        data_off = (data_va - rseg.base_va) if data_va is not None else 0
        images.append(
            SegmentImage(rseg.seg_id, rseg.name, bytes(rseg.disk_image), data_off)
        )
    return DurableSnapshot(
        # durable_bytes(), not the raw buffer: a buffering backend's
        # unflushed batch must be absent, as a power failure leaves it.
        disk_bytes=backend.disk.durable_bytes(),
        wal_base=backend.wal.base,
        wal_capacity=backend.wal.capacity,
        images=tuple(images),
    )


@dataclass(frozen=True)
class RecoveredState:
    """Durable state after WAL-replay recovery from a snapshot."""

    #: segment name -> full recovered image bytes
    images: dict
    #: transactions whose COMMIT record survived in the log
    committed_tids: frozenset
    #: durable bytes of valid log found by the recovery scan
    valid_log_bytes: int


def recover(snapshot: DurableSnapshot) -> RecoveredState:
    """Rebuild durable state from a snapshot, exactly as recovery would.

    Uses only the snapshot: a fresh RAM disk is loaded with the durable
    bytes, the log tail is rediscovered by scanning, and committed
    writes are replayed over the disk images.
    """
    disk = RamDisk(len(snapshot.disk_bytes))
    disk.poke(0, snapshot.disk_bytes)
    wal = WriteAheadLog(disk, base=snapshot.wal_base, capacity=snapshot.wal_capacity)
    images = {img.seg_id: bytearray(img.data) for img in snapshot.images}
    committed = wal.recover(images)
    return RecoveredState(
        images={img.name: bytes(images[img.seg_id]) for img in snapshot.images},
        committed_tids=frozenset(committed),
        valid_log_bytes=wal.tail,
    )


# ----------------------------------------------------------------------
# The pure-Python oracle
# ----------------------------------------------------------------------
INFLIGHT = "inflight"
ABORTED = "aborted"
PENDING = "pending"  # no-flush committed, never durably flushed
MAYBE = "maybe"  # commit/flush was in progress at the crash
DURABLE = "durable"  # commit (or flush) returned before the crash


@dataclass
class _TxnModel:
    tid: int
    status: str = INFLIGHT
    #: (segment name, image offset, bytes) in program order
    writes: list = None

    def __post_init__(self):
        if self.writes is None:
            self.writes = []


class WorkloadOracle:
    """Committed-state model fed by the workload driver as it runs.

    The driver mirrors every mapping, write, and transaction outcome
    into the oracle *before* handing them to the library, so the oracle
    is complete no matter where the crash lands.
    """

    def __init__(self) -> None:
        self.txns: dict[int, _TxnModel] = {}
        #: tids in commit-attempt order == WAL append order
        self.commit_order: list[int] = []
        #: name -> (image size, data offset)
        self.schema: dict[int, tuple] = {}
        #: durable-committed tids whose entries are still in the log
        self.log_resident: set[int] = set()
        #: tids fully applied to the segment disk images by truncation
        self.image_applied: set[int] = set()

    # -- driver-facing recording ---------------------------------------
    def map(self, name: str, image_len: int, data_off: int = 0) -> None:
        self.schema[name] = (image_len, data_off)

    def begin(self, tid: int) -> None:
        self.txns[tid] = _TxnModel(tid)

    def write(self, tid: int, name: str, offset: int, data: bytes) -> None:
        self.txns[tid].writes.append((name, offset, bytes(data)))

    def commit_attempt(self, tid: int) -> None:
        self.txns[tid].status = MAYBE
        if tid not in self.commit_order:
            self.commit_order.append(tid)

    def commit_durable(self, tid: int) -> None:
        self.txns[tid].status = DURABLE
        self.log_resident.add(tid)

    def commit_pending(self, tid: int) -> None:
        """No-flush commit returned: visible in memory, not durable."""
        self.txns[tid].status = PENDING
        if tid not in self.commit_order:
            self.commit_order.append(tid)

    def flush_attempt(self) -> None:
        for txn in self.txns.values():
            if txn.status == PENDING:
                txn.status = MAYBE

    def flush_durable(self) -> None:
        for txn in self.txns.values():
            if txn.status == MAYBE:
                txn.status = DURABLE
                self.log_resident.add(txn.tid)

    def abort(self, tid: int) -> None:
        self.txns[tid].status = ABORTED

    def truncate_applied(self) -> None:
        """All log-resident committed writes have reached the images.

        Wired to the ``rvm.truncate.applied`` injection site, so it is
        recorded even when the crash lands later inside the same
        truncation (between the image writes and the log reset).
        """
        self.image_applied |= self.log_resident
        self.log_resident.clear()

    # -- expected state ------------------------------------------------
    def expected_images(self, visible_tids) -> dict:
        """Apply exactly ``visible_tids`` (in commit order) from zeros."""
        images = {
            name: bytearray(size) for name, (size, _off) in self.schema.items()
        }
        for tid in self.commit_order:
            if tid not in visible_tids:
                continue
            for name, offset, data in self.txns[tid].writes:
                images[name][offset : offset + len(data)] = data
        return {name: bytes(data) for name, data in images.items()}


# ----------------------------------------------------------------------
# The checker
# ----------------------------------------------------------------------
class CrashConsistencyChecker:
    """Verify recovered durable state against the oracle's ACID model."""

    def __init__(self, oracle: WorkloadOracle) -> None:
        self.oracle = oracle

    def check(
        self,
        recovered: RecoveredState,
        context: str = "",
        check_durability: bool = True,
    ) -> set:
        """Raise :class:`CrashCheckFailure` on any violated invariant.

        Returns the full set of transactions visible after recovery
        (log-replayed plus truncated-into-image).

        ``check_durability=False`` skips the lost-durable-commit check:
        under an injected write-reorder window, WAL bytes behind a
        returned commit may legitimately be lost at the crash, so only
        atomicity / isolation / state equality are enforced.
        """
        oracle = self.oracle
        where = f" [{context}]" if context else ""
        found = set(recovered.committed_tids)

        unknown = found - set(oracle.txns)
        if unknown:
            self._fail(f"recovery resurrected unknown tids {sorted(unknown)}{where}")
        for tid in sorted(found):
            status = oracle.txns[tid].status
            if status in (ABORTED, INFLIGHT, PENDING):
                self._fail(
                    f"tid {tid} is visible after recovery but was {status} "
                    f"at the crash{where}"
                )

        not_durable = oracle.image_applied - {
            t for t, m in oracle.txns.items() if m.status == DURABLE
        }
        if not_durable:
            self._fail(
                f"truncation applied non-durable tids {sorted(not_durable)}{where}"
            )

        visible = found | oracle.image_applied
        durable = {t for t, m in oracle.txns.items() if m.status == DURABLE}
        lost = durable - visible
        if lost and check_durability:
            self._fail(
                f"durably committed tids {sorted(lost)} lost by recovery{where}"
            )

        expected = oracle.expected_images(visible)
        for name, want in expected.items():
            got = recovered.images.get(name)
            if got is None:
                self._fail(f"segment {name!r} missing after recovery{where}")
            if got != want:
                diff = next(
                    i for i, (a, b) in enumerate(zip(got, want)) if a != b
                )
                self._fail(
                    f"segment {name!r} diverges from the oracle at offset "
                    f"{diff}: got {got[diff]:#04x}, want {want[diff]:#04x} "
                    f"(visible tids {sorted(visible)}){where}"
                )
        return visible

    @staticmethod
    def _fail(message: str) -> None:
        raise CrashCheckFailure(message)
