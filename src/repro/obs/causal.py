"""Causal request tracing: follow one transaction across every layer.

The serving front-end (:mod:`repro.serve`) mints a deterministic
request id for every client call and — when a :class:`CausalTracker`
is attached to the :mod:`repro.probe` spine — carries an explicit
:class:`TraceContext` with the request as it crosses layers: serve
dispatch → RVM/RLVM commit → WAL append → group-commit buffer → log
device → barrier.  For each stage the spine opens and closes, the
tracker does two things:

* emits a Perfetto *flow event* (``s``/``t``/``f`` phases sharing the
  request id) back onto the spine, where the span layer writes it, so
  opening the trace in the Perfetto UI draws arrows from the client's
  ``serve.req`` span to the WAL-append and device-flush spans it
  caused, and
* charges elapsed cycles to a named *stage* of the request's critical
  path.

Stage attribution is stack-based and therefore exact: a context keeps
a stack of open stage names plus the cycle at which the top of the
stack last changed (``_mark``).  ``stage_enter(name, now)`` charges
``now - _mark`` to the current top then pushes ``name``;
``stage_exit(now)`` charges the top and pops.  The stages are hence
disjoint intervals covering ``[dispatch, ack]`` with no double
counting, so for every request::

    sum(ctx.stages.values()) == ctx.ack_cycle - ctx.submit_cycle

holds *exactly* (tests/obs/test_causal.py asserts it with no slack).

Stage names (``queue_wait`` and ``group_commit_wait`` come from the
server, the rest from layer hooks; ``library`` is the residual —
cycles inside the RVM/RLVM commit path not attributable to a deeper
layer):

==================  ==================================================
``queue_wait``      submit → dispatch (channel FIFO + txn parking)
``library``         inside Rvm/Rlvm commit, outside deeper stages
``wal_append``      inside WriteAheadLog frame append (including the
                    device write that carries the frame)
``device``          inside LogDevice.write / GroupCommit buffering
                    issued outside the WAL append path
``barrier``         inside flush/barrier (includes group-commit drain)
``group_commit_wait``  commit done (unflushed) → batch flush start
==================  ==================================================

Batched requests each get charged the *full* shared flush cost — the
per-request sums stay exact, at the price of the stage histograms
over-counting shared work when ``group_size > 1`` (DESIGN.md §9).

At ack the tracker emits the finished context onto the spine as one
``request_done`` event; it reads no other subscriber.  The metrics
layer (:class:`~repro.obs.core.Observability`) keeps the contexts and
folds them into the ``serve.stage_cycles.<stage>`` and
``serve.request_cycles`` histograms only when a snapshot is taken, so
a run pays one event per request, not one histogram update per stage.

Sites reach the tracker only through the spine's one gate; a detached
tracker costs nothing.  The tracker only *reads* cycle values — it
never advances any clock — so a tracked run is cycle- and
log-record-identical to a bare one.
"""

from __future__ import annotations

from repro import probe
from repro.obs.trace import TID_CLIENT_BASE

#: All stage names a TraceContext can accumulate, in pipeline order.
STAGES = (
    "queue_wait",
    "library",
    "wal_append",
    "device",
    "barrier",
    "group_commit_wait",
)

#: Spine stage -> the request stage it charges ("device" goes through
#: :meth:`CausalTracker.device_enter`).
_SPINE_STAGES = {
    "wal.append": "wal_append",
    "wal.append_group": "wal_append",
    "device.write": "device",
    "device.buffer": "device",
    "device.flush": "barrier",
    "device.barrier": "barrier",
}


class TraceContext:
    """Per-request causal state: id, flow identity, and stage cycles."""

    __slots__ = (
        "rid",
        "client",
        "op",
        "submit_cycle",
        "dispatch_cycle",
        "ack_cycle",
        "stages",
        "_stack",
        "_mark",
        "_last",
        "done",
    )

    def __init__(self, rid: int, client: int, op: str, submit_cycle: int) -> None:
        self.rid = rid
        self.client = client
        self.op = op
        self.submit_cycle = submit_cycle
        self.dispatch_cycle = submit_cycle
        self.ack_cycle: int | None = None
        self.stages: dict[str, int] = {}
        self._stack: list[str] = []
        self._mark = submit_cycle
        self._last: str | None = None
        self.done = False

    def _charge(self, now: int) -> None:
        stage = self._stack[-1]
        self.stages[stage] = self.stages.get(stage, 0) + (now - self._mark)
        self._mark = now

    def begin(self, now: int) -> None:
        """Dispatch: everything since submit was queue wait."""
        self.dispatch_cycle = now
        self.stages["queue_wait"] = now - self.submit_cycle
        self._mark = now
        self._stack = ["library"]
        self._last = "queue_wait"

    def stage_enter(self, name: str, now: int) -> None:
        if self.done:
            return
        if self._stack:
            self._charge(now)
        else:
            self._mark = now
        self._stack.append(name)

    def stage_exit(self, now: int) -> None:
        if self.done or not self._stack:
            return
        self._charge(now)
        self._last = self._stack.pop()

    def park(self, now: int) -> None:
        """Group commit: the request now waits for its batch to flush."""
        if self.done:
            return
        while self._stack:
            self._charge(now)
            self._last = self._stack.pop()
        self._stack.append("group_commit_wait")

    def finish(self, now: int) -> None:
        """Ack: drain any open stages and freeze the context."""
        while self._stack:
            self._charge(now)
            self._last = self._stack.pop()
        self.ack_cycle = now
        self.done = True

    @property
    def total(self) -> int:
        """End-to-end submit→ack cycles (0 until finished)."""
        return (self.ack_cycle - self.submit_cycle) if self.ack_cycle is not None else 0

    @property
    def last_stage(self) -> str | None:
        """Deepest stage most recently completed (for crash forensics)."""
        if self._stack:
            return self._stack[-1]
        return self._last

    def describe(self) -> dict:
        """A JSON-friendly snapshot (postmortem bundles, ServeCrashed)."""
        return {
            "rid": self.rid,
            "client": self.client,
            "op": self.op,
            "last_stage": self.last_stage,
        }


class CausalTracker:
    """Links serve-layer requests to the layer hooks they pass through.

    The server registers requests (:meth:`open_request`) and brackets
    layer work (:meth:`dispatch` / :meth:`dispatch_done` /
    :meth:`adopt_batch`); the WAL/backend hooks call
    :meth:`stage_enter` / :meth:`stage_exit` / :meth:`flow_step`
    without knowing which request is running — the tracker routes them
    to every context in ``current`` (one during dispatch, the whole
    batch during a group flush).
    """

    def __init__(self) -> None:
        #: contexts the running layer work should be charged to
        self.current: list[TraceContext] = []
        #: rid -> context for every request not yet acked/failed
        self.open: dict[int, TraceContext] = {}
        #: finished contexts in ack order
        self.completed: list[TraceContext] = []
        #: a dispatch B span is open and ours to close
        self._dispatch_open = False

    # -- serve-layer lifecycle -------------------------------------------
    def open_request(self, rid: int, client: int, op: str, now: int) -> TraceContext:
        ctx = TraceContext(rid, client, op, now)
        self.open[rid] = ctx
        sp = probe._ACTIVE
        if sp is not None and sp.flow_start is not None:
            sp.flow_start("serve", "serve.req", now, TID_CLIENT_BASE + client, rid)
        return ctx

    def dispatch(self, request, now: int) -> None:
        ctx = request.ctx
        if ctx is None:
            self.current = []
            return
        ctx.begin(now)
        self.current = [ctx]
        sp = probe._ACTIVE
        if sp is not None and sp.span_begin is not None:
            # A *begin* span (closed at dispatch_done) rather than a
            # complete one: if a crash kills the server mid-dispatch,
            # this is the open-span stack the postmortem bundle shows.
            sp.span_begin("serve", f"serve.dispatch.{ctx.op}", now)
            self._dispatch_open = True

    def dispatch_done(self, now: int | None = None) -> None:
        """Layer work for the current request is over.

        Without ``now`` this only detaches the tracker (used before
        post-ack housekeeping like truncation, whose work belongs to no
        request); with ``now`` it also closes the dispatch span.
        """
        self.current = []
        if now is not None and self._dispatch_open:
            self._dispatch_open = False
            sp = probe._ACTIVE
            if sp is not None and sp.span_end is not None:
                sp.span_end(now)

    def dispatch_abandoned(self) -> None:
        """Crash mid-dispatch: detach, but leave the span open.

        The still-open ``serve.dispatch.*`` span is exactly the
        forensic record of what the server was doing when it died;
        :meth:`Tracer.open_spans` surfaces it and ``finalize`` closes
        it at the end-of-trace timestamp.
        """
        self.current = []
        self._dispatch_open = False

    def adopt_batch(self, contexts: list, now: int) -> None:
        """A group-commit flush works on behalf of the whole batch."""
        self.current = [ctx for ctx in contexts if ctx is not None]

    def park(self, ctx: TraceContext | None, now: int) -> None:
        if ctx is not None:
            ctx.park(now)

    def finish(self, ctx: TraceContext | None, now: int) -> None:
        """Ack: close the context, emit its client span, flow end and
        the finished context itself (``request_done``)."""
        if ctx is None or ctx.done:
            return
        ctx.finish(now)
        self.open.pop(ctx.rid, None)
        self.completed.append(ctx)
        sp = probe._ACTIVE
        tid = TID_CLIENT_BASE + ctx.client
        if sp is not None and sp.span is not None:
            sp.span(
                "serve",
                "serve.req",
                ctx.submit_cycle,
                now,
                tid,
                {
                    "rid": ctx.rid,
                    "client": ctx.client,
                    "op": ctx.op,
                    "stages": dict(ctx.stages),
                },
            )
        if sp is not None and sp.flow_end is not None:
            sp.flow_end("serve", "serve.req", now, tid, ctx.rid)
        if sp is not None and sp.request_done is not None:
            sp.request_done(ctx)

    def drop(self, ctx: TraceContext | None) -> None:
        """Forget a context without acking (crash/failure path)."""
        if ctx is not None:
            self.open.pop(ctx.rid, None)

    # -- layer hooks (called from wal/backends with no request in hand) --
    def stage_enter(self, name: str, now: int) -> None:
        for ctx in self.current:
            ctx.stage_enter(name, now)

    def device_enter(self, now: int) -> None:
        """Enter the device stage — unless the WAL append issued it.

        The WAL's frame append is implemented *as* a device write, so
        charging that write to ``device`` would leave ``wal_append``
        permanently zero.  A device write whose innermost open stage is
        ``wal_append`` pushes ``wal_append`` again instead, keeping the
        log-append cost under its own name while data-segment writes
        (library flush, truncation) still land in ``device``.
        """
        for ctx in self.current:
            name = "device"
            if ctx._stack and ctx._stack[-1] == "wal_append":
                name = "wal_append"
            ctx.stage_enter(name, now)

    def stage_exit(self, now: int) -> None:
        for ctx in self.current:
            ctx.stage_exit(now)

    def flow_step(self, ts: int, tid: int = 0) -> None:
        sp = probe._ACTIVE
        if sp is not None and sp.flow_step is not None:
            for ctx in self.current:
                sp.flow_step("serve", "serve.req", ts, tid, ctx.rid)

    # -- probe-spine subscription ------------------------------------------
    def probes(self) -> dict:
        return {
            "open_request": self.open_request,
            "dispatch": self.dispatch,
            "dispatch_done": self.dispatch_done,
            "dispatch_abandoned": self.dispatch_abandoned,
            "adopt_batch": self.adopt_batch,
            "park": self.park,
            "finish": self.finish,
            "acked": lambda request, now, *_: self.finish(request.ctx, now),
            "drop": self.drop,
            "stage_open": self._stage_open,
            "stage_close": self._stage_close,
        }

    def _stage_open(self, site: str, now: int, tid: int) -> None:
        stage = _SPINE_STAGES.get(site)
        if stage is None:
            return
        if stage == "barrier":
            self.stage_enter(stage, now)
            return
        self.flow_step(now, tid)
        if stage == "device":
            self.device_enter(now)
        else:
            self.stage_enter(stage, now)

    def _stage_close(self, site: str, start: int, now: int, *_) -> None:
        if site in _SPINE_STAGES:
            self.stage_exit(now)

    # -- introspection ---------------------------------------------------
    def current_rids(self) -> tuple[int, ...]:
        return tuple(ctx.rid for ctx in self.current)

    def inflight(self) -> list[dict]:
        """Descriptors for every request not yet acked (crash forensics)."""
        return [ctx.describe() for ctx in self.open.values()]

    def report(self) -> str:
        """The ``python -m repro trace --serve`` critical-path table."""
        lines = []
        done = self.completed
        lines.append(f"requests completed: {len(done)}   still open: {len(self.open)}")
        if not done:
            return "\n".join(lines)
        totals: dict[str, int] = {}
        grand = 0
        for ctx in done:
            grand += ctx.total
            for stage, cycles in ctx.stages.items():
                totals[stage] = totals.get(stage, 0) + cycles
        lines.append(f"{'stage':<20} {'cycles':>12} {'share':>7} {'mean/req':>10}")
        for stage in STAGES:
            if stage not in totals:
                continue
            cycles = totals[stage]
            share = cycles / grand if grand else 0.0
            lines.append(
                f"{stage:<20} {cycles:>12} {share:>6.1%} {cycles / len(done):>10.1f}"
            )
        other = grand - sum(totals.values())
        if other:
            lines.append(f"{'(unattributed)':<20} {other:>12}")
        lines.append(f"{'total':<20} {grand:>12} {'100.0%':>7} {grand / len(done):>10.1f}")
        return "\n".join(lines)


active, install, uninstall, installed = probe.registry("causal", CausalTracker)
