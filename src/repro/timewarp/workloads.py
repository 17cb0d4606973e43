"""Simulation models (workloads) for the Time Warp kernel.

A model defines the simulation's behaviour as a *pure* function of the
event and the object state, so that re-executing an event after a
rollback reproduces exactly the same computation — randomness is
derived from a hash of the event itself, never from execution order.

:class:`SyntheticModel` is the paper's "simulated simulation" (section
4.3), parameterised by

* ``c`` — compute cycles per event,
* ``s`` — size in bytes of the object state,
* ``w`` — (word) writes per event,

used to regenerate Figures 7 and 8.  :class:`PholdModel` is the classic
PHOLD benchmark used by the correctness tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.hw.params import LINE_SIZE


def event_hash(*values: int) -> int:
    """Deterministic 64-bit mix of the given values (splitmix-style)."""
    h = 0x9E3779B97F4A7C15
    for v in values:
        h ^= (v + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        h = (h * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 31
    return h


class ModelContext(Protocol):
    """Facilities a model may use while handling an event."""

    @property
    def now(self) -> int:
        """Current virtual time."""
        ...  # pragma: no cover - protocol

    def compute(self, cycles: int) -> None:
        """Burn CPU cycles (the event's computation)."""
        ...  # pragma: no cover - protocol

    def read_state(self, obj: int, offset: int) -> int:
        """Read a state word of a *local* object."""
        ...  # pragma: no cover - protocol

    def write_state(self, obj: int, offset: int, value: int) -> None:
        """Write a state word of a *local* object."""
        ...  # pragma: no cover - protocol

    def write_states(self, obj: int, writes: list[tuple[int, int]]) -> None:
        """Write ``(offset, value)`` state words of a *local* object, in
        order: the same as one :meth:`write_state` per pair."""
        ...  # pragma: no cover - protocol

    def schedule(self, dest_obj: int, delay: int, payload: int = 0) -> None:
        """Schedule a new event ``delay`` virtual time units ahead."""
        ...  # pragma: no cover - protocol


class SimulationModel(Protocol):
    """A discrete-event simulation application."""

    num_objects: int
    object_size: int

    def initial_events(self) -> list[tuple[int, int, int]]:
        """(recv_time, dest_obj, payload) triples seeding the run."""
        ...  # pragma: no cover - protocol

    def handle_event(self, ctx: ModelContext, obj: int, payload: int) -> None:
        """Process one event for object ``obj``."""
        ...  # pragma: no cover - protocol


def padded_object_size(size: int) -> int:
    """Objects are padded to cache-line multiples so deferred-copy
    dirty lines never straddle two objects."""
    return -(-size // LINE_SIZE) * LINE_SIZE


@dataclass
class SyntheticModel:
    """The paper's parameterised "simulated simulation" (section 4.3)."""

    c: int  # compute cycles per event
    s: int  # object size in bytes
    w: int  # writes per event
    num_objects: int = 16
    max_delay: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.s < 4 * self.w:
            raise ValueError("object too small for the requested writes")
        self.object_size = self.s

    def initial_events(self) -> list[tuple[int, int, int]]:
        # One initial event per object keeps every scheduler busy.
        return [(1, obj, obj) for obj in range(self.num_objects)]

    def handle_event(self, ctx: ModelContext, obj: int, payload: int) -> None:
        ctx.compute(self.c)
        # Write w words spread evenly across the object state.
        stride = max(4, (self.s // self.w) & ~3)
        h = event_hash(self.seed, obj, ctx.now, payload)
        writes = [((j * stride) % (self.s - 3) & ~3, (h + j) & 0xFFFFFFFF) for j in range(self.w)]
        ctx.write_states(obj, writes)
        # Schedule the successor event (hash-derived, order-independent).
        dest = event_hash(h, 1) % self.num_objects
        delay = 1 + event_hash(h, 2) % self.max_delay
        ctx.schedule(dest, delay, payload=h & 0xFFFF)


@dataclass
class PhasedModel:
    """A workload alternating rollback storms with quiet compute phases.

    During a *storm* (the first ``storm_len`` virtual-time units of
    every ``period``), events are cheap but write-heavy and bounce to
    the next object with tiny delays — on a partitioned run that
    pattern makes cross-scheduler stragglers and rollbacks constant,
    and every rollback replays a fat slice of log, so small checkpoint
    intervals win.  During the *quiet* remainder, events write little
    and stay within their own partition with longer delays — no
    rollbacks, so checkpoints are pure overhead and long intervals win.
    No fixed interval is right for both phases, which is what the
    adaptive tuner exploits.
    """

    c_storm: int = 60
    c_quiet: int = 200
    w_storm: int = 32
    w_quiet: int = 2
    s: int = 2048
    num_objects: int = 16
    n_partitions: int = 2
    period: int = 1000
    storm_len: int = 80
    max_delay_storm: int = 2
    max_delay_quiet: int = 8
    seed: int = 7

    def __post_init__(self) -> None:
        if self.s < 4 * max(self.w_storm, self.w_quiet):
            raise ValueError("object too small for the requested writes")
        self.object_size = self.s

    def in_storm(self, vt: int) -> bool:
        return (vt % self.period) < self.storm_len

    def initial_events(self) -> list[tuple[int, int, int]]:
        return [(1, obj, obj) for obj in range(self.num_objects)]

    def handle_event(self, ctx: ModelContext, obj: int, payload: int) -> None:
        storm = self.in_storm(ctx.now)
        c = self.c_storm if storm else self.c_quiet
        w = self.w_storm if storm else self.w_quiet
        ctx.compute(c)
        stride = max(4, (self.s // w) & ~3)
        h = event_hash(self.seed, obj, ctx.now, payload)
        writes = [((j * stride) % (self.s - 3) & ~3, (h + j) & 0xFFFFFFFF) for j in range(w)]
        ctx.write_states(obj, writes)
        if storm:
            # Cross-partition ping with minimal delay: the receiver has
            # usually optimistically run ahead, so this straggles.
            dest = (obj + 1) % self.num_objects
            delay = 1 + event_hash(h, 2) % self.max_delay_storm
        else:
            # Stay on the home partition with relaxed timing.
            dest = (obj + self.n_partitions) % self.num_objects
            delay = 1 + event_hash(h, 3) % self.max_delay_quiet
        ctx.schedule(dest, delay, payload=h & 0xFFFF)


@dataclass
class PholdModel:
    """PHOLD: each event bounces to a random object, counting hops.

    State per object: word 0 = number of events handled, word 1 = a
    running checksum of payloads (catches mis-ordered processing).
    """

    num_objects: int = 8
    population: int = 8  # concurrent events in flight
    max_delay: int = 8
    seed: int = 42
    object_size: int = 16

    def initial_events(self) -> list[tuple[int, int, int]]:
        return [
            (1 + event_hash(self.seed, i) % self.max_delay, i % self.num_objects, i)
            for i in range(self.population)
        ]

    def handle_event(self, ctx: ModelContext, obj: int, payload: int) -> None:
        ctx.compute(50)
        count = ctx.read_state(obj, 0)
        checksum = ctx.read_state(obj, 4)
        ctx.write_state(obj, 0, count + 1)
        ctx.write_state(obj, 4, (checksum * 31 + payload + ctx.now) & 0xFFFFFFFF)
        h = event_hash(self.seed, obj, ctx.now, payload, count)
        dest = h % self.num_objects
        delay = 1 + event_hash(h, 7) % self.max_delay
        ctx.schedule(dest, delay, payload=h & 0xFFFF)
