"""The always-on flight recorder: a bounded ring of recent events.

An aircraft-style black box for the simulated machine: instrumented
sites append ``(cycle, kind, a, b)`` tuples to a fixed-capacity ring
buffer, so at any instant — most importantly the instant an injected
:class:`~repro.faults.plan.CrashPoint` fires — the last few thousand
operations leading up to it are available for postmortem analysis
(:mod:`repro.obs.postmortem`).

Recording is deliberately dumber than tracing: no categories, no
nesting, no args dicts — one ``deque.append`` of a small tuple per
event, cheap enough to leave installed for whole serving runs.  The
ring append itself is 1.3–1.8% of a run's wall time; the end-to-end
guard in ``bench_obs_overhead.py`` does not hold yet, because gated
sites such as ``CPU.now`` reads and the probe dispatch still run with
only the recorder attached.  The recorder never reads anything but the
cycle values handed to it and never calls ``compute()``, so a recorded
run is cycle- and log-record-identical to a bare one.

The recorder is a :mod:`repro.probe` subscriber (kind ``flight``): it
maps the spine's stage, serve, logger and fault events to ring
entries, and hands its tail to every CrashPoint.  Sites never name it.

Event kinds currently recorded (``a``/``b`` are small ints or short
strings; the ring holds whatever the site found cheap to pass):

==================  ==============================================
kind                a, b
==================  ==============================================
``serve.dispatch``  request op, request id
``serve.ack``       request id, transaction id
``wal.append``      entry kind name, frame bytes
``wal.append_group``  frame bytes, first-frame bytes
``device.write``    backend name, bytes
``device.buffer``   backend name, bytes (group-commit buffered)
``device.flush``    backend name, runs pushed
``device.barrier``  backend name, 0
``rvm.commit``      tid, ranges/records
``rvm.flush``       pending commits, 0
``rvm.truncate``    entries applied, 0
``rvm.abort``       tid, 0
``logger.overload`` drain-complete cycle, 0
``fault.hit``       site name, hit count (recorded per site hit
                    while a :class:`FaultPlan` is installed)
``fault.crash``     site name, hit count — always the last event
                    in a crash tail (cycle 0: the power is out)
==================  ==============================================
"""

from __future__ import annotations

from collections import deque

from repro import probe
from repro.errors import ConfigError

#: Spine stage -> the ring's event kind for it.
_STAGE_KINDS = {
    "wal.append": "wal.append",
    "wal.append_group": "wal.append_group",
    "device.write": "device.write",
    "device.buffer": "device.buffer",
    "device.flush": "device.flush",
    "device.barrier": "device.barrier",
    "rvm.commit": "rvm.commit",
    "rlvm.commit": "rvm.commit",
    "rvm.abort": "rvm.abort",
    "rlvm.abort": "rvm.abort",
    "rvm.flush": "rvm.flush",
    "rlvm.flush": "rvm.flush",
    "rvm.truncate": "rvm.truncate",
    "rlvm.truncate": "rvm.truncate",
}

#: Default ring capacity: enough to hold several transactions' worth of
#: serve/WAL/device events without the ring costing real memory.
DEFAULT_CAPACITY = 4096


class FlightRecorder:
    """A bounded ring buffer of cycle-stamped structured events."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ConfigError("flight recorder capacity must be positive")
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        #: total events ever recorded (the ring keeps only the tail)
        self.seen = 0

    def record(self, cycle: int, kind: str, a=None, b=None) -> None:
        """Append one event; evicts the oldest when the ring is full."""
        self._ring.append((cycle, kind, a, b))
        self.seen += 1

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def dropped(self) -> int:
        """Events evicted by ring wrap-around."""
        return self.seen - len(self._ring)

    def tail(self, limit: int | None = None) -> list:
        """The retained events, oldest first (optionally the last ``limit``)."""
        events = list(self._ring)
        if limit is not None:
            events = events[-limit:]
        return events

    def clear(self) -> None:
        self._ring.clear()

    # -- probe-spine subscription ----------------------------------------
    def probes(self) -> dict:
        record = self.record
        return {
            "stage_close": self._stage_close,
            "dispatch": lambda request, now: record(
                now, "serve.dispatch", request.op, request.rid
            ),
            "acked": lambda request, now, tid, *_: record(
                now, "serve.ack", request.rid, tid
            ),
            "logger_overload": lambda now, drain_complete: record(
                now, "logger.overload", drain_complete, 0
            ),
            "fault_hit": lambda cycle, site, n: record(cycle, "fault.hit", site, n),
            # Cycle 0: the power is out.
            "fault_crash": lambda site, n: record(0, "fault.crash", site, n),
        }

    def _stage_close(self, site, start, now, tid, a=None, b=None, *_) -> None:
        kind = _STAGE_KINDS.get(site)
        if kind is not None:
            self.record(now, kind, a, b)

    def crash_state(self) -> dict:
        """The ring tail a CrashPoint carries."""
        return {"flight": self.tail()}


active, install, uninstall, installed = probe.registry("flight", FlightRecorder)
