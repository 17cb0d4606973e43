"""``python -m repro trace <workload>`` — capture a cycle-domain trace.

Runs a canned workload (:mod:`repro.obs.workloads`) with full
observability installed, writes a validated Perfetto-loadable trace,
prints the cycle profiler's flat + cumulative report, and optionally
writes the metrics snapshot as JSON.

``python -m repro trace --serve`` instead drives the asyncio
:class:`TxnServer` under a :class:`CausalTracker`: every client
request gets a flow-linked span chain (client → WAL append → device
flush) in the trace, and the report breaks each request's commit
latency down by pipeline stage (queue wait, WAL append, group-commit
wait, device, barrier).

This module also hosts ``obs_main``, the ``python -m repro obs``
subcommand dispatcher (currently just ``obs postmortem``).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.core import Observability, installed
from repro.obs.machine_sources import attach_machine, snapshot_machine
from repro.obs.profiler import CycleProfiler
from repro.obs.trace import ALL_CATEGORIES, Tracer, validate_trace
from repro.obs.workloads import WORKLOADS, run_workload


def run_traced(
    workload: str,
    categories=None,
    with_tracer: bool = True,
    with_profiler: bool = True,
) -> tuple[Observability, dict]:
    """Run ``workload`` under an installed Observability.

    Returns ``(obs, summary)``; the machine source is attached after
    boot, so the final metrics snapshot includes the polled hardware
    counters, and the finished tracer holds one closing sample of every
    registry counter track.
    """
    tracer = Tracer(categories=categories) if with_tracer else None
    profiler = CycleProfiler() if with_profiler else None
    obs = Observability(tracer=tracer, profiler=profiler)
    with installed(obs):
        summary = run_workload(workload)
        machine = summary["machine"]
        attach_machine(obs, machine)
        if tracer is not None:
            # The tracer was built before the machine existed; bind the
            # clock now so ts annotations use Clock.timestamp.
            tracer.clock = machine.clock
            obs.metrics.poll()
            obs.emit_counter_tracks(machine.clock.now)
            obs.counter_track(
                "metrics", "machine.cycles", machine.clock.now, machine.time()
            )
        obs.finalize(machine.clock.now)
    return obs, summary


def run_traced_serve(
    categories=None,
    clients: int = 16,
    txns: int = 4,
    writes: int = 3,
    seed: int = 1995,
    group: int = 1,
    device: str = "ram",
    backend: str = "rvm",
    group_commit: bool = False,
    plan=None,
):
    """Drive the TxnServer under tracer + causal tracker + flight recorder.

    Returns ``(obs, tracker, result)`` where ``result`` is the
    :func:`repro.serve.cli.run_serve` outcome dict.  The trace holds a
    flow-linked span chain for every request; ``tracker.report()`` is
    the per-stage critical-path breakdown.
    """
    from repro.obs import causal as obscausal
    from repro.obs import flight as obsflight
    from repro.serve.cli import run_serve

    tracer = Tracer(categories=categories)
    obs = Observability(tracer=tracer)
    tracker = obscausal.CausalTracker()

    def on_boot(machine):
        # Bind the tracer to the machine clock as soon as it exists so
        # span ts annotations use Clock.timestamp.
        tracer.clock = machine.clock
        attach_machine(obs, machine)

    with installed(obs):
        with obscausal.installed(tracker):
            with obsflight.installed(obsflight.FlightRecorder()):
                result = run_serve(
                    device=device,
                    backend=backend,
                    group=group,
                    group_commit=group_commit,
                    clients=clients,
                    txns=txns,
                    writes=writes,
                    seed=seed,
                    plan=plan,
                    on_boot=on_boot,
                )
        machine = result["machine"]
        # Captured before finalize closes them: the span stacks still
        # open at the instant the run ended (crash forensics).
        result["open_spans"] = tracer.open_spans()
        obs.metrics.poll()
        obs.emit_counter_tracks(machine.clock.now)
        obs.finalize(machine.clock.now)
    return obs, tracker, result


def _write_metrics(path, machine, obs) -> None:
    with open(path, "w") as fh:
        json.dump(snapshot_machine(machine, obs), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"metrics  : {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Run a canned workload with cycle-domain tracing.",
    )
    parser.add_argument(
        "workload", nargs="?", default=None, choices=sorted(WORKLOADS)
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="trace a concurrent TxnServer run with causal request "
        "tracing instead of a canned workload",
    )
    parser.add_argument("--clients", type=int, default=16, help="(--serve)")
    parser.add_argument("--txns", type=int, default=4, help="(--serve)")
    parser.add_argument("--writes", type=int, default=3, help="(--serve)")
    parser.add_argument("--seed", type=int, default=1995, help="(--serve)")
    parser.add_argument(
        "--group", type=int, default=1, help="(--serve) commit batch size"
    )
    parser.add_argument(
        "--out",
        default=None,
        help="trace JSON path (default: trace_<workload>.json)",
    )
    parser.add_argument(
        "--categories",
        default=None,
        help="comma-separated trace categories "
        f"(default: all but the chatty per-word ones; known: "
        f"{','.join(sorted(ALL_CATEGORIES))})",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="also write the final metrics snapshot (counters, gauges, "
        "histograms) as JSON here",
    )
    parser.add_argument(
        "--no-profile",
        action="store_true",
        help="skip the cycle profiler report",
    )
    args = parser.parse_args(argv)

    categories = (
        [c for c in args.categories.split(",") if c]
        if args.categories is not None
        else None
    )

    if args.serve:
        obs, tracker, result = run_traced_serve(
            categories=categories,
            clients=args.clients,
            txns=args.txns,
            writes=args.writes,
            seed=args.seed,
            group=args.group,
        )
        out = args.out or "trace_serve.json"
        doc = obs.tracer.write(out, other_data={"workload": "serve"})
        n_events = validate_trace(doc)
        server = result["server"]
        print(
            f"serve    : {len(server.acked)} commits acked from "
            f"{args.clients} clients (group={args.group})"
        )
        print(f"trace    : {out} ({n_events} events, ts in machine cycles)")
        print("open it at https://ui.perfetto.dev or chrome://tracing")
        print()
        print(tracker.report())
        if args.metrics_out:
            _write_metrics(args.metrics_out, result["machine"], obs)
        return 0

    if args.workload is None:
        parser.error("a workload is required unless --serve is given")
    obs, summary = run_traced(
        args.workload, categories=categories, with_profiler=not args.no_profile
    )
    machine = summary.pop("machine")
    summary.pop("log", None)

    out = args.out or f"trace_{args.workload}.json"
    doc = obs.tracer.write(out, other_data={"workload": args.workload})
    n_events = validate_trace(doc)

    print(f"workload : {args.workload}")
    for key, value in summary.items():
        if key != "workload":
            print(f"{key:>9} : {value}")
    print(f"trace    : {out} ({n_events} events, ts in machine cycles)")
    print("open it at https://ui.perfetto.dev or chrome://tracing")

    if args.metrics_out:
        _write_metrics(args.metrics_out, machine, obs)

    if obs.profiler is not None:
        print()
        print(obs.profiler.report(total_cycles=machine.time()))
    return 0


def obs_main(argv=None) -> int:
    """``python -m repro obs <subcommand>`` dispatcher."""
    argv = list(sys.argv[1:] if argv is None else argv)
    usage = "usage: python -m repro obs postmortem BUNDLE [--json]"
    if not argv:
        print(usage, file=sys.stderr)
        return 2
    command, rest = argv[0], argv[1:]
    if command in ("-h", "--help"):
        print(usage)
        return 0
    if command == "postmortem":
        from repro.obs.postmortem import main as postmortem_main

        return postmortem_main(rest)
    print(f"unknown obs subcommand {command!r}\n{usage}", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
