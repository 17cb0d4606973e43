"""CLI demo: ``python -m repro serve``.

Boots the simulated machine, starts a :class:`TxnServer` over a chosen
log backend, and drives it with N concurrent asyncio clients, each
running a seeded stream of begin/write/commit transactions.  Prints
acknowledged commits, commit-latency statistics (simulated cycles),
throughput at the machine clock, and the ``obs`` commit-latency
histogram.

``--smoke`` exits non-zero unless every client's every commit was
acknowledged and the serialised commit order matches the WAL — the CI
serving smoke test.

``--crash-site SITE`` installs a :class:`FaultPlan` that kills the
server at the Nth hit of a fault-injection site (one of
:data:`repro.faults.sites.ALL_SITES`); the run exits 1 if that crash
never fires.  ``--postmortem PATH`` then writes the crash-forensics
bundle (flight-recorder tail, metrics, in-flight requests, durable
digests) that ``python -m repro obs postmortem`` loads and
``python -m repro replay crash --bundle`` replays.
"""

from __future__ import annotations

import argparse
import asyncio
import random
import sys

from repro.backends import BACKENDS, make_backend
from repro.core.context import boot, set_current_machine
from repro.faults import plan as faultplan
from repro.faults.checker import capture_snapshot
from repro.faults.plan import CrashSpec, FaultPlan
from repro.faults.sites import ALL_SITES
from repro.hw.params import MachineConfig
from repro.obs import causal
from repro.obs import core as obscore
from repro.obs import flight as obsflight
from repro.obs.core import Observability
from repro.obs.flight import FlightRecorder
from repro.rvm.rlvm import RLVM
from repro.rvm.rvm import RVM
from repro.serve.server import ClientSession, ServeCrashed, TxnServer

#: Device capacity for the demo (a few thousand small transactions).
SERVE_DEVICE_BYTES = 4 * 1024 * 1024

#: Served segment size for the demo.
SERVE_SEG_BYTES = 64 * 1024


async def _client(server: TxnServer, client_id: int, txns: int, writes: int, seed: int):
    """One client's seeded transaction stream; survives a server crash."""
    session = ClientSession(server, client_id)
    rng = random.Random(seed * 10_007 + client_id)
    try:
        for _ in range(txns):
            if server.crashed is not None:
                return None
            await session.begin()
            for _ in range(writes):
                await session.write(rng.randrange(256), rng.randrange(1 << 32))
            await session.commit()
    except ServeCrashed as error:
        return error
    return None


async def _drive(server: TxnServer, clients: int, txns: int, writes: int, seed: int):
    serve_task = asyncio.ensure_future(server.serve())
    client_tasks = asyncio.gather(
        *(_client(server, c, txns, writes, seed) for c in range(clients))
    )
    # A server that dies of anything but a CrashPoint answers no client
    # again: raise its error instead of waiting on them.
    await asyncio.wait((serve_task, client_tasks), return_when=asyncio.FIRST_COMPLETED)
    if serve_task.done() and serve_task.exception() is not None:
        client_tasks.cancel()
        raise serve_task.exception()
    results = await client_tasks
    if server.crashed is None:
        await ClientSession(server, -1).shutdown()
    await serve_task
    for result in results:
        if result is not None:
            return result
    return None


def run_serve(
    device: str = "ram",
    backend: str = "rvm",
    group: int = 1,
    group_commit: bool = False,
    clients: int = 16,
    txns: int = 4,
    writes: int = 3,
    seed: int = 1995,
    plan: FaultPlan | None = None,
    on_boot=None,
) -> dict:
    """Boot a machine, serve the seeded workload, and tear down.

    Runs under whatever obs/causal/flight instruments the caller has
    installed.  ``plan`` (optional) is installed for the run with its
    snapshot source wired to the library, so an injected crash carries
    a durable snapshot.  ``on_boot(machine)`` runs right after boot —
    the trace CLI uses it to bind its tracer to the machine clock.

    Returns the run's objects and outcome: ``server``, ``machine``,
    ``library``, ``device``, ``crash`` (CrashPoint or None), ``error``
    (a ServeCrashed seen by some client, or None), and ``workload``
    (the parameter dict a postmortem bundle records).
    """
    workload = {
        "kind": "serve",
        "device": device,
        "backend": backend,
        "group": group,
        "group_commit": group_commit,
        "clients": clients,
        "txns": txns,
        "writes": writes,
        "seed": seed,
    }
    machine = boot(MachineConfig(memory_bytes=32 * 1024 * 1024))
    try:
        if on_boot is not None:
            on_boot(machine)
        log_device = make_backend(
            device, SERVE_DEVICE_BYTES, group_commit=group_commit
        )
        library_cls = RVM if backend == "rvm" else RLVM
        library = library_cls(machine.current_process, disk=log_device)
        server = TxnServer(library, group_size=group, seg_bytes=SERVE_SEG_BYTES)
        error = None
        if plan is not None:
            plan.snapshot_source(lambda: capture_snapshot(library))
            with faultplan.installed(plan):
                error = asyncio.run(_drive(server, clients, txns, writes, seed))
        else:
            error = asyncio.run(_drive(server, clients, txns, writes, seed))
    finally:
        set_current_machine(None)
    return {
        "server": server,
        "machine": machine,
        "library": library,
        "device": log_device,
        "crash": server.crashed,
        "error": error,
        "workload": workload,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--device", default="ram", choices=sorted(BACKENDS), help="log backend"
    )
    parser.add_argument(
        "--backend", default="rvm", choices=("rvm", "rlvm"), help="library"
    )
    parser.add_argument(
        "--group", type=int, default=1, help="server commit batch size (1 = sync)"
    )
    parser.add_argument(
        "--group-commit",
        action="store_true",
        help="layer the coalescing group-commit buffer over the device",
    )
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument("--txns", type=int, default=4, help="transactions per client")
    parser.add_argument("--writes", type=int, default=3, help="writes per transaction")
    parser.add_argument("--seed", type=int, default=1995)
    parser.add_argument(
        "--smoke", action="store_true", help="assert the run was fully acked (CI)"
    )
    parser.add_argument(
        "--crash-site",
        default=None,
        choices=sorted(ALL_SITES),
        metavar="SITE",
        help="inject a crash at this fault site (see repro/faults/sites.py)",
    )
    parser.add_argument(
        "--crash-nth", type=int, default=1, help="crash at the Nth site hit"
    )
    parser.add_argument(
        "--crash-mode",
        default="before",
        choices=("before", "torn", "after"),
        help="what the injected crash leaves behind",
    )
    parser.add_argument(
        "--postmortem",
        default=None,
        metavar="PATH",
        help="write the crash-forensics bundle here (requires a crash)",
    )
    args = parser.parse_args(argv)

    plan = None
    if args.crash_site is not None:
        # The site comes from argv, so argparse's choices check it
        # against the registry instead of lint.
        plan = FaultPlan(
            seed=args.seed,
            crash=CrashSpec(args.crash_site, args.crash_nth, args.crash_mode),  # lvm-san: ignore[LVM005]
        )
    with obscore.installed(Observability()) as obs:
        with causal.installed(), obsflight.installed(FlightRecorder()):
            result = run_serve(
                device=args.device,
                backend=args.backend,
                group=args.group,
                group_commit=args.group_commit,
                clients=args.clients,
                txns=args.txns,
                writes=args.writes,
                seed=args.seed,
                plan=plan,
            )
        snapshot = obs.metrics.snapshot()
    server = result["server"]
    machine = result["machine"]
    library = result["library"]
    crash = result["crash"]

    expected = args.clients * args.txns
    lat = server.commit_latencies
    total_cycles = machine.time()
    clock_hz = machine.config.clock_hz
    tps = len(server.acked) / (total_cycles / clock_hz) if total_cycles else 0.0
    print(
        f"served {len(server.acked)}/{expected} commits from {args.clients} "
        f"clients on {result['device'].name} ({args.backend}, "
        f"group={args.group})"
    )
    if lat:
        print(
            f"commit latency cycles: min={min(lat)} "
            f"mean={sum(lat) // len(lat)} max={max(lat)}"
        )
    print(f"machine time {total_cycles} cycles -> {tps:.0f} tps")
    hist = snapshot.get("histograms", {}).get("serve.commit_cycles")
    if hist:
        print(f"obs histogram serve.commit_cycles: {hist}")
    if crash is not None:
        print(f"server crashed: site {crash.site!r} hit #{crash.seq}")
        print(f"  acked durable before the crash: {len(server.acked)} txn(s)")
        print(f"  in flight: {len(server.crash_inflight)} request(s)")
    elif plan is not None:
        print(f"FAIL: crash spec {plan.crash} never fired", file=sys.stderr)
        return 1

    if args.postmortem is not None:
        if crash is None:
            print("no crash occurred; no postmortem to write", file=sys.stderr)
            return 1
        from repro.obs.postmortem import build_bundle, write_bundle

        bundle = build_bundle(
            crash,
            workload=result["workload"],
            metrics=snapshot,
            inflight=server.crash_inflight,
            acked=list(server.acked),
        )
        write_bundle(args.postmortem, bundle)
        print(f"postmortem bundle written to {args.postmortem}")

    if args.smoke:
        wal_commits = [tid for tid in sorted(library.wal.committed_tids())]
        ok = (
            len(server.acked) == expected
            and server.crashed is None
            and sorted(server.acked) == wal_commits
            and server.commit_order == server.acked
        )
        if not ok:
            print("serve smoke FAILED", file=sys.stderr)
            return 1
        print("serve smoke ok")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
