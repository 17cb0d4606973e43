"""State saving strategies for Time Warp (sections 2.4 and 4.3).

Two implementations behind one interface:

* :class:`CopyStateSaver` — "the conventional rollback implementation
  which makes a copy of the affected object state before processing
  each event".  Rollback restores the copies.
* :class:`LVMStateSaver` — the paper's contribution: the working
  region is *logged*, the checkpoint segment is its deferred-copy
  source (Figure 3).  Nothing is copied per event; rollback is
  ``resetDeferredCopy`` plus roll-forward from the log, and checkpoint
  advance is CULT (checkpoint update and log truncation).

The scheduler writes its local virtual time to a marker word "each time
local virtual time changes.  Log records of these writes serve as
markers so that the rollback algorithm can tell which log records
correspond to what virtual time" (footnote 2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro import probe
from repro.analytics.policy import CheckpointTuner
from repro.analytics.stream import LogTap
from repro.errors import RollbackError
from repro.core.log_reader import RegionLogView
from repro.core.log_segment import LogSegment
from repro.core.region import StdRegion
from repro.core.segment import StdSegment
from repro.baselines.bcopy import bcopy_cost_cycles
from repro.timewarp.workloads import padded_object_size

if TYPE_CHECKING:  # pragma: no cover
    from repro.timewarp.scheduler import Scheduler

#: Reserved bytes at the start of the working segment for the virtual
#: time marker word (one full cache line).
MARKER_BYTES = 16

#: Bookkeeping per copy-based state save (allocate + queue the copy).
SAVE_BOOKKEEPING_CYCLES = 50

#: Applying one log record during roll-forward or CULT.
APPLY_RECORD_CYCLES = 12


class StateSaver:
    """Common layout and interface of the two strategies."""

    name = "abstract"

    def __init__(self) -> None:
        self.scheduler: "Scheduler | None" = None
        self.working: StdSegment | None = None
        self.region: StdRegion | None = None
        self.base_va = 0
        self.n_local = 0
        self.slot_size = 0
        self.rollback_count = 0
        self.state_bytes_saved = 0

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def attach(self, scheduler: "Scheduler") -> None:
        """Create this scheduler's segments and bind the working region."""
        self.scheduler = scheduler
        self.n_local = len(scheduler.local_objects)
        self.slot_size = padded_object_size(scheduler.model.object_size)
        size = MARKER_BYTES + max(self.n_local, 1) * self.slot_size
        self.working = StdSegment(size, machine=scheduler.machine)
        self.region = StdRegion(self.working)
        self._setup_region()
        self.base_va = self.region.bind(scheduler.proc.address_space())
        self._after_bind()

    def _setup_region(self) -> None:
        """Strategy hook run before binding (LVM attaches the log here)."""

    def _after_bind(self) -> None:
        """Strategy hook run after binding."""

    def object_offset(self, local_index: int) -> int:
        return MARKER_BYTES + local_index * self.slot_size

    def object_va(self, local_index: int) -> int:
        """Virtual address of a local object's state slot."""
        return self.base_va + self.object_offset(local_index)

    def object_bytes(self, local_index: int) -> bytes:
        """Current state of a local object (functional read)."""
        return self.working.read_bytes(self.object_offset(local_index), self.slot_size)

    # ------------------------------------------------------------------
    # Strategy interface
    # ------------------------------------------------------------------
    def on_lvt_change(self, vt: int) -> None:
        """Local virtual time advanced to ``vt``."""

    def before_event(self, vt: int, local_index: int) -> None:
        """About to process an event at ``vt`` for a local object."""

    def rollback(self, vt: int) -> None:
        """Restore state to just before any event at time >= ``vt``."""
        raise NotImplementedError

    def advance_checkpoint(self, gvt: int) -> None:
        """Fossil-collect state-saving storage below ``gvt``."""


class CopyStateSaver(StateSaver):
    """Copy-based checkpointing: save the object before every event."""

    name = "copy"

    def __init__(self) -> None:
        super().__init__()
        #: (virtual time, local object index, saved bytes), append order
        self._saved: list[tuple[int, int, bytes]] = []

    def before_event(self, vt: int, local_index: int) -> None:
        offset = self.object_offset(local_index)
        data = self.working.read_bytes(offset, self.slot_size)
        self._saved.append((vt, local_index, data))
        self.state_bytes_saved += self.slot_size
        proc = self.scheduler.proc
        proc.compute(
            bcopy_cost_cycles(proc.machine.config, self.slot_size)
            + SAVE_BOOKKEEPING_CYCLES
        )

    def rollback(self, vt: int) -> None:
        self.rollback_count += 1
        proc = self.scheduler.proc
        restored = 0
        while self._saved and self._saved[-1][0] >= vt:
            probe.hit("timewarp.rollback.restore", cycle=proc.now)
            _, local_index, data = self._saved.pop()
            self.working.write_bytes(self.object_offset(local_index), data)
            restored += 1
        if restored:
            # One compute call for the whole restore: compute() charges
            # are additive, so this is cycle-identical to charging each
            # copy separately.
            proc.compute(
                restored * bcopy_cost_cycles(proc.machine.config, self.slot_size)
            )

    def advance_checkpoint(self, gvt: int) -> None:
        self._saved = [entry for entry in self._saved if entry[0] >= gvt]


class LVMStateSaver(StateSaver):
    """Logged-virtual-memory state saving (Figure 3 of the paper)."""

    name = "lvm"

    def __init__(
        self,
        log_capacity: int = 16 * 1024 * 1024,
        cult_policy=None,
        charge_cult: bool = False,
    ):
        super().__init__()
        self.log_capacity = log_capacity
        #: optional :class:`repro.timewarp.cult.CultPolicy` controlling
        #: deferral of checkpoint advance (section 2.4)
        self.cult_policy = cult_policy
        #: charge CULT processing to the scheduler's CPU (False models
        #: the paper's "separate parallel process" running CULT)
        self.charge_cult = charge_cult
        self.checkpoint: StdSegment | None = None
        self.log: LogSegment | None = None
        #: virtual time the checkpoint segment corresponds to
        self.checkpoint_time = 0
        self._last_marker = None
        self._view: RegionLogView | None = None
        #: log records re-applied across all rollback roll-forwards —
        #: the observable the adaptive checkpoint tuner feeds on
        self.rollforward_records = 0

    def _setup_region(self) -> None:
        machine = self.scheduler.machine
        self.checkpoint = StdSegment(self.working.size, machine=machine)
        self.working.source_segment(self.checkpoint)
        self.log = LogSegment(size=self.log_capacity, machine=machine)
        self.region.log(self.log)
        self._view = RegionLogView(self.region, self.log)

    def on_lvt_change(self, vt: int) -> None:
        """Write the virtual-time marker (a single logged write)."""
        if vt != self._last_marker:
            self.scheduler.proc.write(self.base_va, vt)
            self._last_marker = vt

    # ------------------------------------------------------------------
    # Rollback: resetDeferredCopy + roll-forward (section 2.4)
    # ------------------------------------------------------------------
    def rollback(self, vt: int) -> None:
        self._check_rollback_target(vt)
        self.rollback_count += 1
        proc = self.scheduler.proc
        self.scheduler.machine.sync(proc.cpu)  # wait for in-flight log records to land

        # 1. Reset the working segment to the checkpoint.
        proc.address_space().reset_deferred_copy(
            self.base_va, self.base_va + self.working.size, cpu=proc.cpu
        )

        # 2. Roll forward: apply logged updates older than vt.
        # 3. Discard the undone suffix of the log.
        self._roll_forward(self.log.start_offset, vt)

    # ------------------------------------------------------------------
    # CULT: checkpoint update and log truncation (section 2.4)
    # ------------------------------------------------------------------
    def advance_checkpoint(self, gvt: int, charge: bool | None = None) -> None:
        """Apply logged updates older than ``gvt`` to the checkpoint.

        "To advance the checkpoint segment to the state of the
        scheduler's objects as of time T, the scheduler applies all
        logged updates older than T to the checkpoint segment.  It may
        optionally truncate the log segment at this time."

        ``charge=False`` models CULT running on a separate parallel
        process ("the CULT processing can also be performed by a
        separate parallel process to avoid slowing down the simulation
        itself"); pass True to charge it to this scheduler's CPU.
        """
        if charge is None:
            charge = self.charge_cult
        if gvt <= self.checkpoint_time:
            return
        if self.cult_policy is not None:
            log_bytes = self.log.append_offset - self.log.start_offset
            if not self.cult_policy.should_run(self.scheduler.lvt, gvt, log_bytes):
                return  # defer CULT: this scheduler may be the bottleneck
        proc = self.scheduler.proc
        self.scheduler.machine.sync(proc.cpu)
        cut, _ = self._apply_log(self.checkpoint, self.log.start_offset, gvt, charge)
        self.log.truncate(cut)
        self.checkpoint_time = gvt

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_rollback_target(self, vt: int) -> None:
        if vt < self.checkpoint_time:
            raise RollbackError(
                f"cannot roll back to {vt}: checkpoint is at "
                f"{self.checkpoint_time} (rollback before GVT is never "
                "needed, section 2.4)"
            )

    def _roll_forward(self, start: int, vt: int) -> None:
        """Replay the working segment from log offset ``start`` up to
        the first marker at or after ``vt``, then rewind the log there."""
        cut, applied = self._apply_log(self.working, start, vt, charge=True, restore=True)
        self.rollforward_records += applied
        self.log.rewind(cut)
        self._last_marker = None

    def _apply_log(
        self,
        target: StdSegment,
        start: int,
        stop_vt: int,
        charge: bool,
        restore: bool = False,
    ) -> tuple[int, int]:
        """Apply logged updates from log offset ``start`` to ``target``
        up to the first virtual-time marker at or after ``stop_vt``.

        Returns that marker's log offset (the append point if none) and
        the number of records applied.  ``charge`` costs
        :data:`APPLY_RECORD_CYCLES` per record.  A rollback passes
        ``restore``: while the spine's ``detail`` flag is set (a fault
        plan or a tracer attached), each record then hits
        ``timewarp.rollback.restore`` and is charged as it is applied.
        Otherwise one ``compute`` covers all records, which is
        cycle-identical because compute charges are additive.
        """
        proc = self.scheduler.proc
        sp = probe._ACTIVE
        if restore and sp is not None and sp.detail:
            return self._restore_each(target, start, stop_vt, sp)
        # Nothing timed runs between two records off the per-record
        # fork, so the whole range is decoded and applied at once.
        cols = self._view.columns(start)
        markers = cols.offsets < MARKER_BYTES
        stops = np.flatnonzero(markers & (cols.values >= stop_vt))
        n = int(stops[0]) if len(stops) else len(markers)
        updates = ~markers[:n]
        target.write_columns(
            cols.offsets[:n][updates], cols.values[:n][updates], cols.sizes[:n][updates]
        )
        if not len(stops) and cols.error is not None:
            raise cols.error
        applied = int(np.count_nonzero(updates))
        if charge and applied:
            proc.compute(applied * APPLY_RECORD_CYCLES)
        return (cols.log_offset(n) if len(stops) else self.log.append_offset), applied

    def _restore_each(self, target: StdSegment, start: int, stop_vt: int, sp) -> tuple[int, int]:
        """:meth:`_apply_log` for a rollback under ``detail``: each record
        hits ``timewarp.rollback.restore`` and is charged as applied."""
        proc = self.scheduler.proc
        log = self.log
        stride = log.record_size
        to_offset = self._view.translator()
        write = target.write
        applied = 0
        for span_start, rows in log.record_spans(start):
            for index, (addr, value, size, flags, _timestamp) in enumerate(rows):
                seg_offset = to_offset(addr, flags)
                if seg_offset < MARKER_BYTES:
                    if value >= stop_vt:
                        return span_start + index * stride, applied
                    continue
                if sp.hit is not None:
                    sp.hit("timewarp.rollback.restore", proc.now)
                write(seg_offset, value, size)
                proc.compute(APPLY_RECORD_CYCLES)
                applied += 1
        return log.append_offset, applied


class CheckpointedLVMSaver(LVMStateSaver):
    """LVM state saving plus periodic full-state snapshots.

    The plain LVM saver rolls forward from the *GVT checkpoint* on
    every rollback, replaying all log records between GVT and the
    rollback target.  This saver additionally snapshots the working
    segment every ``interval`` events (the classical checkpoint-interval
    knob): rollback restores the latest snapshot at or below the target
    time and replays only the records since — the sqrt tradeoff between
    snapshot cost and expected roll-forward length that
    :class:`~repro.analytics.policy.CheckpointTuner` optimises.

    ``interval=0`` disables snapshots entirely (degenerates to
    :class:`LVMStateSaver`).
    """

    name = "lvm-snap"

    def __init__(self, interval: int = 32, **kwargs) -> None:
        super().__init__(**kwargs)
        self.interval = interval
        #: (virtual time, log append offset, working-segment image).
        #: Each snapshot was taken *before* the marker for its virtual
        #: time was logged, so roll-forward from its offset first sees
        #: that marker.
        self._snapshots: list[tuple[int, int, bytes]] = []
        self._events_since_snapshot = 0
        self.snapshot_count = 0

    def current_interval(self) -> int:
        """Snapshot every this many events (adaptive subclass overrides)."""
        return self.interval

    def on_lvt_change(self, vt: int) -> None:
        interval = self.current_interval() if self.interval else 0
        if (
            interval > 0
            and vt != self._last_marker
            and self._events_since_snapshot >= interval
        ):
            # Snapshot before the new marker is logged: the image is the
            # state before any event at >= vt, and the marker for vt
            # lands at exactly the recorded log offset.
            self._take_snapshot(vt)
        super().on_lvt_change(vt)

    def before_event(self, vt: int, local_index: int) -> None:
        self._events_since_snapshot += 1

    def _take_snapshot(self, vt: int) -> None:
        scheduler = self.scheduler
        proc = scheduler.proc
        scheduler.machine.sync(proc.cpu)  # in-flight records must land
        image = self.working.read_bytes(0, self.working.size)
        self._snapshots.append((vt, self.log.append_offset, image))
        self.snapshot_count += 1
        self.state_bytes_saved += len(image)
        proc.compute(
            bcopy_cost_cycles(proc.machine.config, len(image))
            + SAVE_BOOKKEEPING_CYCLES
        )
        self._events_since_snapshot = 0

    def rollback(self, vt: int) -> None:
        self._check_rollback_target(vt)
        # Snapshots after the target are of undone futures; drop them.
        snapshots = self._snapshots
        while snapshots and snapshots[-1][0] > vt:
            snapshots.pop()
        if not snapshots or snapshots[-1][1] < self.log.start_offset:
            # No usable snapshot (or CULT truncated past it): the plain
            # reset-deferred-copy + full roll-forward path.  The
            # events-since-snapshot counter deliberately keeps running —
            # it measures staleness of snapshot coverage, and resetting
            # it here would starve rollback-heavy phases of snapshots
            # forever once the inter-rollback gap drops below the
            # interval.
            super().rollback(vt)
            return
        self._events_since_snapshot = 0
        self.rollback_count += 1
        scheduler = self.scheduler
        proc = scheduler.proc
        scheduler.machine.sync(proc.cpu)

        # 1. Restore the snapshot image.
        snap_vt, snap_offset, image = snapshots[-1]
        self.working.write_bytes(0, image)
        proc.compute(bcopy_cost_cycles(proc.machine.config, len(image)))

        # 2. Roll forward only the records since the snapshot.
        # 3. Discard the undone suffix of the log.
        self._roll_forward(snap_offset, vt)

    def advance_checkpoint(self, gvt: int, charge: bool | None = None) -> None:
        super().advance_checkpoint(gvt, charge)
        # Fossil-collect snapshots rollback can never use again.
        self._snapshots = [
            snap
            for snap in self._snapshots
            if snap[0] >= self.checkpoint_time
            and snap[1] >= self.log.start_offset
        ]


class AdaptiveLVMSaver(CheckpointedLVMSaver):
    """Snapshotting saver whose interval is tuned from the log stream.

    A private :class:`~repro.analytics.stream.LogTap` over the saver's
    own write log supplies the observed re-dirty rate (logged writes
    per event) and the scheduler's rollbacks supply the rollback rate;
    every ``tune_every`` events a
    :class:`~repro.analytics.policy.CheckpointTuner` recomputes the
    optimal snapshot interval.  Tap reads are untimed functional reads,
    so *observing* is free — only the chosen actions (snapshots) are
    charged, and the simulation stays cycle-identical for a fixed
    decision sequence.
    """

    name = "lvm-adaptive"

    def __init__(
        self,
        tune_every: int = 32,
        min_interval: int = 2,
        max_interval: int = 512,
        initial_interval: int = 16,
        alpha: float = 0.3,
        **kwargs,
    ) -> None:
        super().__init__(interval=initial_interval, **kwargs)
        self.tune_every = tune_every
        self.min_interval = min_interval
        self.max_interval = max_interval
        self.alpha = alpha
        self.tuner: CheckpointTuner | None = None
        self._tap: LogTap | None = None
        self._events_until_tune = tune_every

    def _after_bind(self) -> None:
        config = self.scheduler.machine.config
        snapshot_cost = (
            bcopy_cost_cycles(config, self.working.size)
            + SAVE_BOOKKEEPING_CYCLES
        )
        self.tuner = CheckpointTuner(
            snapshot_cost,
            APPLY_RECORD_CYCLES,
            min_interval=self.min_interval,
            max_interval=self.max_interval,
            alpha=self.alpha,
            initial_interval=self.interval,
        )
        self._tap = LogTap(self.log, name=f"{self.name}-tap")

    def current_interval(self) -> int:
        return self.tuner.interval

    def before_event(self, vt: int, local_index: int) -> None:
        super().before_event(vt, local_index)
        self.tuner.note_event()
        self._events_until_tune -= 1
        if self._events_until_tune <= 0:
            self._events_until_tune = self.tune_every
            self._tap.advance()
            self.tuner.retune(
                self._tap.stats.record_count,
                replayed_records=self.rollforward_records,
            )

    def rollback(self, vt: int) -> None:
        self.tuner.note_rollback()
        super().rollback(vt)
        # The rewind moved the append point back; clamp the tap cursor
        # so re-appended records at reused offsets are read afresh.
        self._tap.rewound(self.log.append_offset)
