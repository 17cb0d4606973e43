"""Reference sequential discrete-event simulator.

Processes the same model's events in strict (recv_time, uid) order on
plain Python state, with no optimism, no rollback and no machine
timing.  The correctness property of the Time Warp kernel is that the
optimistic execution — under any processor interleaving and either
state saver — produces exactly this simulator's final state and
committed event count.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.timewarp.event import Event
from repro.timewarp.workloads import (
    SimulationModel,
    event_hash,
    padded_object_size,
)


@dataclass
class SequentialResult:
    """Final state of a sequential run."""

    events_processed: int
    final_state: dict[int, bytes]
    end_vt: int


class _SequentialContext:
    """ModelContext over plain bytearrays."""

    def __init__(self, sim: "SequentialSimulation") -> None:
        self._sim = sim
        self._event: Event | None = None
        self._send_index = 0

    @property
    def now(self) -> int:
        return self._event.recv_time

    def compute(self, cycles: int) -> None:
        pass  # untimed reference

    def read_state(self, obj: int, offset: int) -> int:
        data = self._sim.state[obj]
        return int.from_bytes(data[offset : offset + 4], "little")

    def write_state(self, obj: int, offset: int, value: int) -> None:
        data = self._sim.state[obj]
        data[offset : offset + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

    def write_states(self, obj: int, writes: list[tuple[int, int]]) -> None:
        for offset, value in writes:
            self.write_state(obj, offset, value)

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
        )
        self._sim.enqueue(event)


class SequentialSimulation:
    """Run a model to ``end_time`` in strict timestamp order."""

    def __init__(self, model: SimulationModel, end_time: int) -> None:
        self.model = model
        self.end_time = end_time
        slot = padded_object_size(model.object_size)
        self.state = {obj: bytearray(slot) for obj in range(model.num_objects)}
        self._queue: list[tuple] = []
        self._ctx = _SequentialContext(self)
        for i, (recv_time, dest, payload) in enumerate(model.initial_events()):
            self.enqueue(
                Event(
                    recv_time=recv_time,
                    dest_obj=dest,
                    payload=payload,
                    uid=event_hash(0xC0FFEE, i, recv_time, dest, payload),
                )
            )

    def enqueue(self, event: Event) -> None:
        heapq.heappush(self._queue, (event.key, event))

    def run(self) -> SequentialResult:
        processed = 0
        last_vt = 0
        while self._queue and self._queue[0][0].recv_time <= self.end_time:
            _, event = heapq.heappop(self._queue)
            self._ctx._event = event
            self._ctx._send_index = 0
            self.model.handle_event(self._ctx, event.dest_obj, event.payload)
            processed += 1
            last_vt = event.recv_time
        return SequentialResult(
            events_processed=processed,
            final_state={
                obj: bytes(data[: self.model.object_size])
                for obj, data in self.state.items()
            },
            end_vt=last_vt,
        )
