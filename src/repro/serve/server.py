"""The transaction server and its client-session helper.

:class:`TxnServer` owns one RVM or RLVM library instance and consumes
requests from a :class:`~repro.serve.channel.Channel`:

* transactions are serialised — the libraries run one at a time, so a
  ``begin`` arriving while another client's transaction is active is
  parked and granted in FIFO order when the active one finishes;
* with ``group_size == 1`` every commit flushes synchronously and is
  acknowledged durable immediately;
* with ``group_size > 1`` commits buffer (the libraries' no-flush
  mode) and their acknowledgements are *withheld* until one library
  flush makes the whole batch durable — triggered when the batch fills
  or when the request queue drains (no point making later arrivals
  wait for a batch that may never fill).  This is classic group
  commit: the client's await returns only once its commit is stable;
* commit latency — request receipt to durability acknowledgement, in
  simulated cycles — lands in per-backend ``obs`` histograms
  (``serve.commit_cycles`` and ``serve.commit_cycles.<backend>``);
* an injected :class:`~repro.faults.plan.CrashPoint` mid-serve fails
  every outstanding future with :class:`ServeCrashed`; the exception
  keeps the crash so tests can recover from its durable snapshot and
  compare against exactly the acknowledged commits.
"""

from __future__ import annotations

from collections import deque

from repro import probe
from repro.analytics.core import PageTouchAttribution
from repro.errors import LVMError
from repro.faults.plan import CrashPoint
from repro.rvm.rvm import RVM
from repro.serve.channel import Channel, Request


class ServeCrashed(LVMError):
    """The server hit an injected crash; the operation was not served.

    ``crash`` carries the :class:`CrashPoint` (durable snapshot,
    replayable plan repr) for recovery checking; ``inflight`` lists a
    descriptor (``rid``, ``client``, ``op``, ``last_stage``) for every
    request the dead server never acknowledged — the mid-dispatch
    request first, then the unflushed batch, parked begins, and still
    queued requests, in that order.
    """

    def __init__(self, crash: CrashPoint, inflight: list | None = None) -> None:
        super().__init__(f"server crashed: {crash}")
        self.crash = crash
        self.inflight: list[dict] = list(inflight) if inflight else []


class TxnServer:
    """Serve begin/write/commit transactions against one library."""

    def __init__(
        self,
        library,
        group_size: int = 1,
        seg_name: str = "db",
        seg_bytes: int = 4096,
    ) -> None:
        self.lib = library
        self.group_size = max(1, group_size)
        self.seg_name = seg_name
        self.channel = Channel()
        self.base_va = library.map(seg_name, seg_bytes)
        self._is_rvm = isinstance(library, RVM)
        self._proc = library.proc
        self._backend_name = getattr(library.disk, "name", "device")
        #: client id currently holding the (single) active transaction
        self._active_client: int | None = None
        self._active_txn = None
        self._parked: deque[Request] = deque()
        #: buffered group-commit acks: (tid, request, start_cycle)
        self._batch: list[tuple[int, Request, int]] = []
        #: next deterministic request id (minted by :meth:`submit`)
        self._next_rid = 1
        #: tids acknowledged durable, in acknowledgement order
        self.acked: list[int] = []
        #: tids in commit-processing order (== WAL append order)
        self.commit_order: list[int] = []
        #: cycles from commit receipt to durability ack, per commit
        self.commit_latencies: list[int] = []
        self.crashed: CrashPoint | None = None
        #: in-flight request descriptors captured at the crash
        self.crash_inflight: list[dict] = []
        #: per-client page-touch attribution (the request dispatcher is
        #: where client identity is known, so WSS is accounted here)
        self.page_attribution = PageTouchAttribution()

    # ------------------------------------------------------------------
    # Request entry (clients call this, not the channel directly)
    # ------------------------------------------------------------------
    async def submit(self, op: str, client: int, *payload):
        """Mint a deterministic request id and submit over the channel.

        The id is minted here — not in the client — so ids order by
        submission regardless of which client coroutine runs; when a
        :class:`~repro.obs.causal.CausalTracker` is installed a
        :class:`~repro.obs.causal.TraceContext` rides along with the
        request and the client's flow event opens now, at submit time.
        """
        rid = self._next_rid
        self._next_rid += 1
        ctx = None
        sp = probe._ACTIVE
        if sp is not None and sp.open_request is not None:
            ctx = sp.open_request(rid, client, op, self._proc.now)
        return await self.channel.call(op, client, *payload, rid=rid, ctx=ctx)

    # ------------------------------------------------------------------
    # Serving loop
    # ------------------------------------------------------------------
    async def serve(self) -> None:
        """Consume requests until a ``shutdown`` or an injected crash."""
        while True:
            try:
                if (
                    self._batch
                    and self.channel.pending() == 0
                    and self._active_txn is None
                    and not self._parked
                ):
                    # Truly idle — no active transaction and no parked
                    # begins means no commit is imminent: flush rather
                    # than leave clients hanging for a batch that may
                    # never fill.  (The queue alone often looks empty
                    # between requests while clients are runnable, so
                    # it is not a drain signal by itself.)
                    self._flush_batch()
                request = await self.channel.next_request()
            except CrashPoint as crash:
                self._on_crash(crash, None)
                return
            try:
                if not self._dispatch(request):
                    return
            except CrashPoint as crash:
                self._on_crash(crash, request)
                return

    def _dispatch(self, request: Request) -> bool:
        """Serve one request; False ends the loop (shutdown)."""
        sp = probe._ACTIVE
        if sp is not None and sp.dispatch is not None:
            sp.dispatch(request, self._proc.now)
        try:
            result = self._serve_op(request)
        except BaseException:
            # Crash mid-dispatch: detach the tracker but leave the
            # dispatch span open — it is the postmortem's record of
            # what the server was doing when it died.
            if sp is not None and sp.dispatch_abandoned is not None:
                sp.dispatch_abandoned()
            raise
        if sp is not None and sp.dispatch_done is not None:
            sp.dispatch_done(self._proc.now)
        return result

    def _serve_op(self, request: Request) -> bool:
        op = request.op
        if op == "begin":
            if self._active_txn is not None:
                ctx = request.ctx
                if ctx is not None:
                    # Parked is queueing, not library work: reopen the
                    # queue_wait stage until the grant.
                    ctx.stage_exit(self._proc.now)
                    ctx.stage_enter("queue_wait", self._proc.now)
                self._parked.append(request)
            else:
                self._grant(request)
        elif op == "write":
            word, value = request.payload
            vaddr = self.base_va + 4 * word
            if self._is_rvm:
                self._active_txn.set_range(vaddr, 4)
            self._active_txn.write(vaddr, value)
            self.page_attribution.touch(request.client, vaddr, 4)
            self._resolve(request, None)
        elif op == "commit":
            self._commit(request)
        elif op == "abort":
            self._active_txn.abort()
            self._finish_txn()
            self._resolve(request, None)
        elif op == "shutdown":
            if self._batch:
                self._flush_batch()
            sp = probe._ACTIVE
            if sp is not None and sp.set_gauge is not None:
                for client, wss in self.client_wss().items():
                    sp.set_gauge(f"serve.client_wss.{client}", wss)
            self._resolve(request, None)
            return False
        else:
            request.future.set_exception(LVMError(f"unknown op {op!r}"))
        return True

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------
    def _resolve(self, request: Request, value) -> None:
        """Resolve a non-commit request, closing its trace context."""
        sp = probe._ACTIVE
        if sp is not None and sp.finish is not None:
            sp.finish(request.ctx, self._proc.now)
        request.future.set_result(value)

    def _grant(self, request: Request) -> None:
        txn = self.lib.begin()
        self._active_client = request.client
        self._active_txn = txn
        self._resolve(request, txn.tid)

    def _finish_txn(self) -> None:
        self._active_client = None
        self._active_txn = None
        if self._parked:
            self._grant(self._parked.popleft())

    def _commit(self, request: Request) -> None:
        txn = self._active_txn
        start_cycle = self._proc.now
        self.commit_order.append(txn.tid)
        if self.group_size == 1:
            txn.commit(flush=True)
            self._finish_txn()
            self._ack(txn.tid, request, start_cycle)
            sp = probe._ACTIVE
            if sp is not None and sp.dispatch_done is not None:
                # The request is acked: truncation work below belongs to
                # the server, not to the finished context.
                sp.dispatch_done()
            self._maybe_truncate()
        else:
            txn.commit(flush=False)
            self._finish_txn()
            sp = probe._ACTIVE
            if sp is not None and sp.park is not None:
                sp.park(request.ctx, self._proc.now)
            self._batch.append((txn.tid, request, start_cycle))
            if len(self._batch) >= self.group_size:
                self._flush_batch()

    def _flush_batch(self) -> None:
        """One library flush makes the whole batch durable; ack it.

        The batch list is cleared only after the flush returns: a
        crash mid-flush leaves the futures in ``_batch`` for
        :meth:`_fail_outstanding` — those commits were never
        acknowledged, so their clients must see the failure.
        """
        sp = probe._ACTIVE
        if sp is not None and sp.adopt_batch is not None:
            contexts = [request.ctx for _tid, request, _start in self._batch]
            sp.adopt_batch(contexts, self._proc.now)
        self.lib.flush()
        batch, self._batch = self._batch, []
        for tid, request, start_cycle in batch:
            self._ack(tid, request, start_cycle)
        if sp is not None and sp.dispatch_done is not None:
            sp.dispatch_done()
        self._maybe_truncate()

    def client_wss(self) -> dict:
        """Unique pages each client has written (working-set footprint)."""
        return {
            client: self.page_attribution.wss(client)
            for client in self.page_attribution.keys()
        }

    def _maybe_truncate(self) -> None:
        """Let the library's truncation advisor run after durability
        points (no-op unless one is installed)."""
        maybe = getattr(self.lib, "maybe_truncate", None)
        if maybe is not None:
            maybe()

    def _ack(self, tid: int, request: Request, start_cycle: int) -> None:
        latency = self._proc.now - start_cycle
        self.acked.append(tid)
        self.commit_latencies.append(latency)
        sp = probe._ACTIVE
        if sp is not None and sp.acked is not None:
            sp.acked(request, self._proc.now, tid, latency, self._backend_name)
        request.future.set_result(latency)

    # ------------------------------------------------------------------
    # Crash handling
    # ------------------------------------------------------------------
    def _on_crash(self, crash: CrashPoint, request: Request | None) -> None:
        self.crashed = crash
        # Drain the queue *before* building the error so the still-queued
        # requests appear in the in-flight descriptor list too.
        queued: list[Request] = []
        while self.channel.pending():
            queued.append(self.channel._queue.get_nowait())
        unserved: list[Request] = []
        if request is not None:
            unserved.append(request)
        unserved.extend(req for _tid, req, _start in self._batch)
        unserved.extend(self._parked)
        unserved.extend(queued)
        inflight = [self._describe_request(req) for req in unserved]
        self.crash_inflight = inflight
        error = ServeCrashed(crash, inflight)
        sp = probe._ACTIVE
        if sp is not None and sp.drop is not None:
            for req in unserved:
                sp.drop(req.ctx)
        if request is not None and not request.future.done():
            request.future.set_exception(error)
        self._fail_outstanding(error, queued)

    @staticmethod
    def _describe_request(request: Request) -> dict:
        ctx = request.ctx
        if ctx is not None:
            return ctx.describe()
        return {
            "rid": request.rid,
            "client": request.client,
            "op": request.op,
            "last_stage": None,
        }

    def _fail_outstanding(self, error: "ServeCrashed", queued=()) -> None:
        """Fail every future a dead server can no longer serve."""
        for _tid, request, _start in self._batch:
            if not request.future.done():
                request.future.set_exception(error)
        self._batch = []
        for request in self._parked:
            if not request.future.done():
                request.future.set_exception(error)
        self._parked.clear()
        # Later queued requests will never be consumed: fail them too so
        # no client coroutine awaits forever.
        for request in queued:
            if not request.future.done():
                request.future.set_exception(error)
        while self.channel.pending():
            request = self.channel._queue.get_nowait()
            if not request.future.done():
                request.future.set_exception(error)


class ClientSession:
    """One client's view: begin/write/commit over the channel."""

    def __init__(self, server: TxnServer, client_id: int) -> None:
        self._server = server
        self._channel = server.channel
        self.client_id = client_id

    async def begin(self) -> int:
        """Start a transaction; resolves with its tid when granted."""
        return await self._server.submit("begin", self.client_id)

    async def write(self, word: int, value: int) -> None:
        """Write ``value`` to word index ``word`` of the served segment."""
        await self._server.submit("write", self.client_id, word, value)

    async def commit(self) -> int:
        """Commit; resolves with the commit latency in cycles once the
        transaction is durable (after the group flush when batching)."""
        return await self._server.submit("commit", self.client_id)

    async def abort(self) -> None:
        await self._server.submit("abort", self.client_id)

    async def shutdown(self) -> None:
        """Ask the server to flush any open batch and stop."""
        await self._server.submit("shutdown", self.client_id)
