"""A Time Warp scheduler: one optimistic process on one CPU.

Each scheduler owns a subset of the simulation objects (Figure 3:
working / checkpoint / log segments per scheduler), an input queue of
pending events, the list of processed-but-uncommitted events (for
rollback), and an output record of sent messages (for antimessages).

A straggler — an event timestamped earlier than local virtual time —
triggers :meth:`rollback`: undone events go back into the input queue,
their sends are cancelled with antimessages, and the state saver
restores the memory state (section 2.4).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import probe
from repro.errors import SimulationError
from repro.core.process import Process
from repro.timewarp.event import Event, EventKey, Message
from repro.timewarp.state_saving import StateSaver
from repro.timewarp.workloads import SimulationModel, event_hash

if TYPE_CHECKING:  # pragma: no cover
    from repro.timewarp.kernel import TimeWarpSimulation

#: Event queue pop/dispatch overhead per processed event.  Kept lean so
#: that, as in the paper's Figure 7, a large number of writes per event
#: can overload the logger when the per-event computation c drops below
#: ~200 cycles; the paper separately notes that real applications have
#: enough scheduling/dispatch computation that overload is rare
#: (section 4.3).
DISPATCH_CYCLES = 60


def _take(counts: dict[int, int], uid: int) -> None:
    """Remove one count of ``uid``, dropping the key at zero."""
    remaining = counts[uid] - 1
    if remaining:
        counts[uid] = remaining
    else:
        del counts[uid]


@dataclass
class ProcessedEvent:
    """An event that was (optimistically) executed."""

    event: Event
    sends: list[Message] = field(default_factory=list)


class _Context:
    """ModelContext implementation bound to a scheduler + current event."""

    def __init__(self, scheduler: "Scheduler") -> None:
        self._s = scheduler
        self._event: Event | None = None
        self._send_index = 0

    @property
    def now(self) -> int:
        return self._s.lvt

    def compute(self, cycles: int) -> None:
        self._s.proc.compute(cycles)

    def read_state(self, obj: int, offset: int) -> int:
        local = self._s.local_index(obj)
        return self._s.proc.read(self._s.saver.object_va(local) + offset)

    def write_state(self, obj: int, offset: int, value: int) -> None:
        local = self._s.local_index(obj)
        self._s.proc.write(self._s.saver.object_va(local) + offset, value)

    def write_states(self, obj: int, writes: list[tuple[int, int]]) -> None:
        base = self._s.saver.object_va(self._s.local_index(obj))
        self._s.proc.write_words([(base + offset, value, 4) for offset, value in writes])

    def schedule(self, dest_obj: int, delay: int, payload: int = 0) -> None:
        if delay < 1:
            raise SimulationError("events must be scheduled strictly ahead")
        src = self._event
        uid = event_hash(src.uid, self._send_index, dest_obj, delay, payload)
        self._send_index += 1
        event = Event(
            recv_time=src.recv_time + delay,
            dest_obj=dest_obj,
            payload=payload,
            uid=uid,
            send_time=src.recv_time,
            sender=self._s.index,
        )
        self._s.emit(Message(event))


class Scheduler:
    """One optimistic scheduler (logical process container)."""

    def __init__(
        self,
        index: int,
        sim: "TimeWarpSimulation",
        proc: Process,
        model: SimulationModel,
        saver: StateSaver,
        local_objects: list[int],
    ) -> None:
        self.index = index
        self.sim = sim
        self.proc = proc
        self.machine = proc.machine
        self.model = model
        self.saver = saver
        self.local_objects = local_objects
        self._local_index = {obj: i for i, obj in enumerate(local_objects)}

        self.lvt = 0
        #: min-heap of (EventKey, Event)
        self._queue: list[tuple[EventKey, Event]] = []
        #: pending annihilations per uid (lazy heap deletion).  A
        #: multiset, not a set: a cancelled copy and its re-sent
        #: replacement share the uid, and each antimessage must kill
        #: exactly one queued copy.
        self._cancelled: dict[int, int] = {}
        #: queued copies per uid, dead or live; a uid leaves at zero
        self._queued: dict[int, int] = {}
        self.processed: list[ProcessedEvent] = []
        self._current: ProcessedEvent | None = None
        self._ctx = _Context(self)

        self.events_processed = 0
        self.events_rolled_back = 0
        self.rollback_count = 0

        saver.attach(self)

    # ------------------------------------------------------------------
    # Queue management
    # ------------------------------------------------------------------
    def local_index(self, obj: int) -> int:
        local = self._local_index.get(obj)
        if local is None:
            raise SimulationError(f"object {obj} is not local to scheduler {self.index}")
        return local

    def enqueue(self, event: Event) -> None:
        heapq.heappush(self._queue, (event.key, event))
        self._queued[event.uid] = self._queued.get(event.uid, 0) + 1

    def _pop(self) -> Event:
        _, event = heapq.heappop(self._queue)
        _take(self._queued, event.uid)
        return event

    def next_key(self) -> EventKey | None:
        """Key of the next pending event, skipping annihilated ones."""
        while self._queue and self._cancelled.get(self._queue[0][1].uid, 0) > 0:
            _take(self._cancelled, self._pop().uid)
        return self._queue[0][0] if self._queue else None

    # ------------------------------------------------------------------
    # Message reception
    # ------------------------------------------------------------------
    def receive(self, message: Message) -> None:
        """Handle an arriving message or antimessage."""
        event = message.event
        if message.sign > 0:
            if self.processed and event.key < self.processed[-1].event.key:
                # Straggler: "it rolls its state back to the time of
                # that event or earlier, processes the event and then
                # recontinues" (section 2.4).
                self.rollback(event.recv_time)
            self.enqueue(event)
        else:
            self._receive_antimessage(event)

    def _receive_antimessage(self, event: Event) -> None:
        # Already-processed event: roll back, then annihilate the
        # reinserted positive copy.  ``processed`` is in key order and
        # every queued event comes after it (a straggler rolls back
        # before it is queued), so one comparison finds a processed one.
        if self.processed and event.key <= self.processed[-1].event.key:
            self.rollback(event.recv_time)
        # Annihilate one queued positive copy (lazy deletion).  Count
        # live copies against already-pending annihilations so each
        # antimessage kills exactly one.
        uid = event.uid
        if self._queued.get(uid, 0) > self._cancelled.get(uid, 0):
            self._cancelled[uid] = self._cancelled.get(uid, 0) + 1
        # An antimessage for an event never seen cannot happen with
        # in-order per-link delivery; tolerate it silently otherwise.

    # ------------------------------------------------------------------
    # Event processing
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process the next pending event; returns False when idle."""
        key = self.next_key()
        if key is None or key.recv_time > self.sim.end_time:
            return False
        event = self._pop()
        sp = probe._ACTIVE
        step_start = self.proc.now if sp is not None else 0
        self.proc.compute(DISPATCH_CYCLES)
        if event.recv_time != self.lvt:
            self.lvt = event.recv_time
            self.saver.on_lvt_change(self.lvt)
        local = self.local_index(event.dest_obj)
        self.saver.before_event(event.recv_time, local)

        record = ProcessedEvent(event)
        self._current = record
        self._ctx._event = event
        self._ctx._send_index = 0
        self.model.handle_event(self._ctx, event.dest_obj, event.payload)
        self._current = None
        self.processed.append(record)
        self.events_processed += 1
        if sp is not None:
            sp.tw_event(
                step_start, self.proc.now, self.proc.cpu.index, event, len(record.sends)
            )
        return True

    def emit(self, message: Message) -> None:
        """Record and transmit a send of the current event."""
        if self._current is None:
            raise SimulationError("emit outside event processing")
        self._current.sends.append(message)
        self.sim.transmit(self, message)

    # ------------------------------------------------------------------
    # Rollback (section 2.4)
    # ------------------------------------------------------------------
    def rollback(self, vt: int) -> None:
        """Undo every processed event with receive time >= ``vt``."""
        self.rollback_count += 1
        sp = probe._ACTIVE
        rollback_start = self.proc.now if sp is not None else 0
        undone: list[ProcessedEvent] = []
        while self.processed and self.processed[-1].event.recv_time >= vt:
            undone.append(self.processed.pop())
        if not undone:
            return
        self.events_rolled_back += len(undone)
        # Reinsert the undone events for reprocessing FIRST: a local
        # antimessage sent below may target one of them, and must find
        # it in the queue to annihilate it.
        for record in undone:
            self.enqueue(record.event)
        # Then cancel the sends of undone events with antimessages.
        antimessages = 0
        for record in undone:
            for message in record.sends:
                self.sim.transmit(self, message.negative())
                antimessages += 1
        # Restore memory state.
        self.saver.rollback(vt)
        self.lvt = self.processed[-1].event.recv_time if self.processed else 0
        if sp is not None:
            sp.tw_rollback(
                rollback_start, self.proc.now, self.proc.cpu.index,
                vt, len(undone), antimessages,
            )

    # ------------------------------------------------------------------
    # GVT / fossil collection
    # ------------------------------------------------------------------
    def local_min(self) -> int | None:
        """Smallest virtual time this scheduler could still affect."""
        key = self.next_key()
        return key.recv_time if key is not None else None

    def fossil_collect(self, gvt: int) -> None:
        """Commit everything strictly below GVT (section 2.4)."""
        self.processed = [
            p for p in self.processed if p.event.recv_time >= gvt
        ]
        self.saver.advance_checkpoint(gvt)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def object_state(self, obj: int) -> bytes:
        return self.saver.object_bytes(self.local_index(obj))
