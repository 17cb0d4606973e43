"""The Time Warp executive: schedulers on CPUs, transport, GVT.

Parallel execution on the simulated multiprocessor is co-simulated in
machine-cycle time: the executive always advances the scheduler whose
CPU-local cycle time is smallest, so cross-scheduler message causality
(a message sent at cycle *t* arrives at cycle *t + latency*) is honoured
exactly.  This is how the paper's elapsed-time comparisons (Figures 7
and 8) are measured: the run's elapsed time is the largest CPU-local
time when the simulation drains.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro import probe
from repro.errors import SimulationError
from repro.core.context import boot, use_machine
from repro.core.process import create_process
from repro.hw.machine import Machine
from repro.hw.params import MachineConfig
from repro.timewarp.event import Event, Message
from repro.timewarp.scheduler import Scheduler
from repro.timewarp.state_saving import (
    AdaptiveLVMSaver,
    CheckpointedLVMSaver,
    CopyStateSaver,
    LVMStateSaver,
    StateSaver,
)
from repro.timewarp.workloads import SimulationModel, event_hash

#: CPU cost of handing a message to the transport.
SEND_CYCLES = 40

#: Default message latency between schedulers, in cycles.
DEFAULT_LATENCY_CYCLES = 400


@dataclass
class TimeWarpResult:
    """Outcome of an optimistic simulation run."""

    elapsed_cycles: int
    events_committed: int
    events_processed: int
    events_rolled_back: int
    rollbacks: int
    gvt: int
    final_state: dict[int, bytes]
    saver_name: str
    overloads: int = 0


def make_saver(kind: str) -> StateSaver:
    """Build a state saver by name ('copy', 'lvm', 'lvm-snap', or
    'lvm-adaptive')."""
    if kind == "copy":
        return CopyStateSaver()
    if kind == "lvm":
        return LVMStateSaver()
    if kind == "lvm-snap":
        return CheckpointedLVMSaver()
    if kind == "lvm-adaptive":
        return AdaptiveLVMSaver()
    raise SimulationError(f"unknown state saver {kind!r}")


class TimeWarpSimulation:
    """An optimistic parallel simulation run."""

    def __init__(
        self,
        model: SimulationModel,
        end_time: int,
        saver: str | None = "lvm",
        n_schedulers: int = 2,
        machine: Machine | None = None,
        latency_cycles: int = DEFAULT_LATENCY_CYCLES,
        gvt_interval: int = 64,
        saver_factory=None,
    ) -> None:
        self.model = model
        self.end_time = end_time
        self.latency_cycles = latency_cycles
        self.gvt_interval = gvt_interval
        if machine is None:
            machine = boot(
                MachineConfig(
                    num_cpus=max(n_schedulers, 1),
                    memory_bytes=256 * 1024 * 1024,
                )
            )
        if len(machine.cpus) < n_schedulers:
            raise SimulationError(
                f"machine has {len(machine.cpus)} CPUs for {n_schedulers} schedulers"
            )
        self.machine = machine
        if saver_factory is None:
            saver_factory = lambda: make_saver(saver)  # noqa: E731

        with use_machine(machine):
            self.schedulers: list[Scheduler] = []
            for i in range(n_schedulers):
                proc = (
                    machine.current_process
                    if i == 0
                    else create_process(machine, cpu_index=i)
                )
                local = [
                    obj for obj in range(model.num_objects) if obj % n_schedulers == i
                ]
                self.schedulers.append(
                    Scheduler(i, self, proc, model, saver_factory(), local)
                )
        #: per-scheduler inbox: heap of (arrival_cycle, seq, Message)
        self._inboxes: list[list[tuple[int, int, Message]]] = [
            [] for _ in range(n_schedulers)
        ]
        self._seq = 0
        self.gvt = 0
        self._seed_initial_events()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _owner(self, obj: int) -> Scheduler:
        return self.schedulers[obj % len(self.schedulers)]

    def _seed_initial_events(self) -> None:
        for i, (recv_time, dest, payload) in enumerate(self.model.initial_events()):
            event = Event(
                recv_time=recv_time,
                dest_obj=dest,
                payload=payload,
                uid=event_hash(0xC0FFEE, i, recv_time, dest, payload),
            )
            self._owner(dest).enqueue(event)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def transmit(self, sender: Scheduler, message: Message) -> None:
        """Deliver a (anti)message from ``sender`` toward its owner."""
        dest = self._owner(message.event.dest_obj)
        sender.proc.compute(SEND_CYCLES)
        if dest is sender:
            dest.receive(message)
            return
        arrival = sender.proc.now + self.latency_cycles
        self._seq += 1
        sp = probe._ACTIVE
        if sp is not None:
            # A cross-scheduler message is a release: the receiver's
            # acquire in _ingest orders the sender's earlier writes
            # before everything the receiver does next.
            sp.msg_send(sender.proc.cpu.index, id(message))
        heapq.heappush(self._inboxes[dest.index], (arrival, self._seq, message))

    def _ingest(self, scheduler: Scheduler) -> None:
        """Deliver every message that has arrived by the CPU's time."""
        inbox = self._inboxes[scheduler.index]
        now = scheduler.proc.now
        sp = probe._ACTIVE
        while inbox and inbox[0][0] <= now:
            _, _, message = heapq.heappop(inbox)
            if sp is not None:
                sp.msg_recv(scheduler.proc.cpu.index, id(message))
            scheduler.receive(message)

    def in_flight_min(self) -> int | None:
        """Smallest event receive time among undelivered messages."""
        times = [
            msg.event.recv_time
            for inbox in self._inboxes
            for _, _, msg in inbox
        ]
        return min(times) if times else None

    # ------------------------------------------------------------------
    # GVT (section 2.4)
    # ------------------------------------------------------------------
    def compute_gvt(self) -> int | None:
        """GVT = min over pending events and in-flight messages."""
        candidates = []
        flight = self.in_flight_min()
        if flight is not None:
            candidates.append(flight)
        for sched in self.schedulers:
            local = sched.local_min()
            if local is not None:
                candidates.append(local)
        return min(candidates) if candidates else None

    def _advance_gvt(self) -> None:
        gvt = self.compute_gvt()
        if gvt is None:
            return
        if gvt > self.gvt:
            self.gvt = gvt
            for sched in self.schedulers:
                sched.fossil_collect(gvt)
            sp = probe._ACTIVE
            if sp is not None:
                sp.tw_gvt(self.machine.clock.now, gvt)

    # ------------------------------------------------------------------
    # The executive loop
    # ------------------------------------------------------------------
    def run(self) -> TimeWarpResult:
        """Run the simulation to completion and collect results."""
        with use_machine(self.machine):
            steps = 0
            while True:
                if steps % self.gvt_interval == 0:
                    self._advance_gvt()
                actor = self._pick_actor()
                if actor is None:
                    gvt = self.compute_gvt()
                    if gvt is None or gvt > self.end_time:
                        break
                    raise SimulationError(
                        "executive stalled with work outstanding"
                    )  # pragma: no cover - defensive
                actor.step()
                steps += 1
            self._advance_gvt()
            self.machine.quiesce()
        return self._collect()

    def _pick_actor(self) -> Scheduler | None:
        """Choose the runnable scheduler with the smallest local time.

        A scheduler with only future inbox messages has its CPU idled
        forward to the next arrival (it would block on receive).
        """
        best: Scheduler | None = None
        best_time: int | None = None
        for sched in self.schedulers:
            self._ingest(sched)
            key = sched.next_key()
            if key is not None and key.recv_time <= self.end_time:
                t = sched.proc.now
            elif self._inboxes[sched.index]:
                t = self._inboxes[sched.index][0][0]
            else:
                continue
            if best_time is None or t < best_time:
                best, best_time = sched, t
        if best is None:
            return None
        inbox = self._inboxes[best.index]
        key = best.next_key()
        if (key is None or key.recv_time > self.end_time) and inbox:
            # Idle until the next message arrives, then retry.
            best.proc.cpu.suspend_until(inbox[0][0])
            self._ingest(best)
        return best

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _collect(self) -> TimeWarpResult:
        final_state = {}
        for sched in self.schedulers:
            for obj in sched.local_objects:
                final_state[obj] = sched.object_state(obj)[: self.model.object_size]
        processed = sum(s.events_processed for s in self.schedulers)
        rolled = sum(s.events_rolled_back for s in self.schedulers)
        return TimeWarpResult(
            elapsed_cycles=max(s.proc.now for s in self.schedulers),
            events_committed=processed - rolled,
            events_processed=processed,
            events_rolled_back=rolled,
            rollbacks=sum(s.rollback_count for s in self.schedulers),
            gvt=self.gvt,
            final_state=final_state,
            saver_name=self.schedulers[0].saver.name,
            overloads=self.machine.logger.stats.overload_events,
        )
