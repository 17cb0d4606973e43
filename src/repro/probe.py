"""The probe spine: the one instrumentation gate and its subscribers.

The paper's logger snoops each write once and recovery, Time Warp and
debugging all read that one log.  Instrumentation works the same way:
every instrumented site makes one typed probe call behind one gate::

    sp = probe._ACTIVE
    if sp is not None and sp.bus_txn is not None:
        sp.bus_txn(request_cycle, start, bus_cycles)

The call names the event and carries its cycles, CPU and payload; it
knows nothing about who listens.  ``_ACTIVE`` is None until a
subscriber attaches, so the disabled cost is one load and one identity
test per site.  Each subscriber (metrics and spans, causal tracker,
flight ring, analytics hub, race detector, fault plan) maps the events
it handles to callables in ``probes()``.  Every attach or detach builds
a fresh :class:`Spine` that binds each event of :data:`EVENTS` once: to
None when nobody subscribes, to the one handler directly, or to a
fan-out; a site tests its own event before building arguments, so an
event nobody takes costs one attribute test.

Stages that bracket work (WAL append, device write, flush, barrier,
commit) are a ``stage_open``/``stage_close`` pair on one gate local,
the site keeping the start cycle while the gate is open (either event
may be bound alone); a CrashPoint in between leaves the stage open on
purpose, as the postmortem's record.  ``Spine.detail``
is set while a subscriber needs every record on the generic paths (a
tracer, or a fault plan whose sites live there), so the fused fast
loops fall back on one condition::

    if sp is not None and sp.detail:
        return False

A fault-injection site is one ``hit`` event (the :func:`hit` forwarder
keeps it one line).  Only the fault plan handles it, with
``disk_write``, ``disk_barrier`` and ``fifo_push``, and only the plan
may raise CrashPoint or write torn prefixes.  No subscriber advances a
clock or touches simulated state (a plan only once it fires), so
cycles, log records and recovered bytes are identical with any set
attached.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.errors import ConfigError

#: Every event a site may emit.  A name missing here is an
#: AttributeError at the site, so a typo cannot silently drop events.
EVENTS = frozenset({
    # span/metric vocabulary (Observability)
    "span", "span_begin", "span_end", "instant", "flow_start", "flow_step",
    "flow_end", "counter_track", "inc", "observe", "set_gauge",
    # hw (``logged_run`` also from the bulk engine's fused loop)
    "bus_txn", "logged_run", "global_sync", "log_drained",
    "logger_overload", "logging_fault", "logger_dma",
    # core
    "protection_trap", "deferred_copy_reset", "log_watched", "log_rewound",
    # timewarp
    "tw_event", "tw_rollback", "tw_gvt", "msg_send", "msg_recv",
    # rvm/backends: bracketing stages
    "stage_open", "stage_close",
    # serve: one request's life (``open_request`` returns the request's
    # trace context; only the causal tracker subscribes to it), then
    # the tracker's finished context (``request_done``)
    "open_request", "dispatch", "dispatch_done", "dispatch_abandoned",
    "adopt_batch", "park", "finish", "acked", "drop", "request_done",
    # faults: the plan's injection hooks, then what it reports
    "hit", "disk_write", "disk_barrier", "fifo_push",
    "fault_hit", "fault_crash",
})

#: Subscriber kinds in dispatch order.
KINDS = ("obs", "causal", "flight", "analytics", "race", "faults")


def _fanout(handlers: tuple):
    # Positional arguments only: keyword passing would double the cost
    # of every fanned-out event.
    def dispatch(*args):
        for handler in handlers:
            handler(*args)

    return dispatch


class Spine:
    """One immutable binding of every event to its subscribers."""

    def __init__(self, subscribers: dict) -> None:
        self.subscribers = dict(subscribers)
        tables = [sub.probes() for sub in self.subscribers.values()]
        for table in tables:
            if table.keys() - EVENTS:
                raise ConfigError(f"unknown probe events {sorted(table.keys() - EVENTS)}")
        for event in EVENTS:
            handlers = tuple(t[event] for t in tables if event in t)
            if not handlers:
                fn = None
            elif len(handlers) == 1:
                fn = handlers[0]
            else:
                fn = _fanout(handlers)
            setattr(self, event, fn)
        #: some subscriber needs per-record events on the generic paths
        self.detail = any(
            getattr(sub, "detail", False) for sub in self.subscribers.values()
        )

    def rids(self) -> tuple:
        """Request ids the running work belongs to (causal tracking)."""
        tracker = self.subscribers.get("causal")
        return tracker.current_rids() if tracker is not None else ()

    def crash_state(self) -> dict:
        """What each subscriber contributes to a CrashPoint report."""
        state: dict = {}
        for sub in self.subscribers.values():
            report = getattr(sub, "crash_state", None)
            if report is not None:
                state.update(report())
        return state


#: The only instrumentation gate: None while nothing is attached.
_ACTIVE: Spine | None = None
_SUBSCRIBERS: dict = {}


def hit(site: str, cycle: int | None = None, partial=None) -> None:
    """A fault-injection site: a no-op unless a fault plan is attached,
    whose ``hit`` may then raise CrashPoint (see ``faults.plan``)."""
    sp = _ACTIVE
    if sp is not None and sp.hit is not None:
        sp.hit(site, cycle, partial)


def _rebind(subscribers: dict) -> None:
    """Bind a new spine first, so a bad subscriber changes nothing."""
    global _ACTIVE, _SUBSCRIBERS
    ordered = {kind: subscribers[kind] for kind in KINDS if kind in subscribers}
    _ACTIVE = Spine(ordered) if ordered else None
    _SUBSCRIBERS = ordered


def attach(kind: str, subscriber, error: type[Exception] = ConfigError):
    if kind not in KINDS:
        raise ConfigError(f"unknown subscriber kind {kind!r}")
    if kind in _SUBSCRIBERS:
        raise error(f"a {kind} subscriber is already installed")
    _rebind({**_SUBSCRIBERS, kind: subscriber})
    return subscriber


def detach(kind: str) -> None:
    if kind in _SUBSCRIBERS:
        _rebind({k: v for k, v in _SUBSCRIBERS.items() if k != kind})


def detach_all() -> None:
    _rebind({})


def registry(kind: str, default, error: type[Exception] = ConfigError):
    """The ``active``/``install``/``uninstall``/``installed`` entry
    points a subscriber module exports for one kind.

    ``default()`` builds the subscriber ``installed()`` attaches when
    called without one; ``error`` is raised on a second install.
    """

    def active():
        return _SUBSCRIBERS.get(kind)

    def install(subscriber):
        return attach(kind, subscriber, error)

    def uninstall() -> None:
        detach(kind)

    @contextmanager
    def installed(subscriber=None):
        subscriber = install(subscriber if subscriber is not None else default())
        try:
            yield subscriber
        finally:
            detach(kind)

    return active, install, uninstall, installed
