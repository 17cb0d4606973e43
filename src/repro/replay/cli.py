"""``python -m repro replay`` — the replay substrate's CLI smokes.

Three subcommands, each exiting non-zero on the first violated
invariant (the CI ``replay`` job runs ``diverge`` and ``crash``):

* ``seek`` — run a seeded random write workload, then check every
  checkpointed ``seek(n)`` against the O(history) full replay.
* ``diverge`` — record a canned workload's reference run (traced),
  re-execute it, and require zero divergence; with ``--perturb`` the
  detector must instead catch a deliberately perturbed replay.
* ``crash`` — drive a sweep crash spec, then replay it from its
  ``plan_repr`` alone and require the reproduced durable snapshot to be
  byte-identical.
"""

from __future__ import annotations

import argparse
import random
import sys

from repro.core.context import boot, set_current_machine
from repro.core.log_segment import LogSegment
from repro.core.region import StdRegion
from repro.core.segment import StdSegment
from repro.faults.sites import ALL_SITES
from repro.hw.params import MachineConfig
from repro.replay.crashpoint import replay_to_crash, verify_crash_replay
from repro.replay.divergence import record_reference, replay_against
from repro.replay.engine import ReplayEngine

#: Machine used by the seek smoke.
SMOKE_CONFIG = MachineConfig(memory_bytes=32 * 1024 * 1024)


def _seek(args) -> int:
    machine = boot(SMOKE_CONFIG)
    try:
        proc = machine.current_process
        seg = StdSegment(4 * 4096, machine=machine)
        region = StdRegion(seg)
        region.log(LogSegment(machine=machine))
        va = region.bind(proc.address_space())
        engine = ReplayEngine(region, checkpoint_interval=args.interval)
        rng = random.Random(args.seed)
        for _ in range(args.writes):
            proc.write(va + 4 * rng.randrange(region.size // 4), rng.randrange(2**32))
        total = len(engine)
        for n in range(0, total + 1, max(1, total // args.probes)):
            if engine.state_at(n) != engine.full_replay_state_at(n):
                print(f"FAIL: seek({n}) diverged from full replay", file=sys.stderr)
                return 1
        print(
            f"seek: {total} writes, {engine.stats.seeks} seeks, "
            f"{engine.stats.checkpoints_captured} checkpoints "
            f"({engine.checkpoint_cost_cycles} simulated cycles), "
            f"all states bit-identical to full replay"
        )
        return 0
    finally:
        set_current_machine(None)


def _write_workload(seed: int, nwrites: int, perturb_at: int | None = None):
    """A seeded random-write workload over one logged region.

    ``perturb_at`` flips one bit of that write's value — the smallest
    possible divergence for the detector to catch.
    """

    def run() -> dict:
        machine = boot(SMOKE_CONFIG)
        try:
            proc = machine.current_process
            region = StdRegion(StdSegment(4 * 4096, machine=machine))
            log = LogSegment(machine=machine)
            region.log(log)
            va = region.bind(proc.address_space())
            rng = random.Random(seed)
            for i in range(nwrites):
                value = rng.randrange(2**32)
                if i == perturb_at:
                    value ^= 1
                proc.write(va + 4 * rng.randrange(region.size // 4), value)
            machine.quiesce()
            return {"workload": "writes", "machine": machine, "log": log}
        finally:
            set_current_machine(None)

    run.__name__ = f"writes(seed={seed})"
    return run


def _diverge(args) -> int:
    if args.perturb:
        reference = record_reference(_write_workload(args.seed, args.writes))
        divergence = replay_against(
            reference, _write_workload(args.seed, args.writes, perturb_at=args.writes // 2)
        )
        if divergence is None:
            print(
                "FAIL: perturbed replay reported no divergence",
                file=sys.stderr,
            )
            return 1
        print(f"diverge: perturbation caught — {divergence}")
        return 0
    reference = record_reference(args.workload)
    divergence = replay_against(reference)
    if divergence is not None:
        print(f"FAIL: {divergence}", file=sys.stderr)
        return 1
    trace_events = len(reference.trace["traceEvents"]) if reference.trace else 0
    print(
        f"diverge: workload {reference.workload!r} replayed "
        f"{len(reference)} logged writes identically "
        f"({reference.cycles} cycles, {trace_events} trace events)"
    )
    return 0


def _crash_bundle(path: str) -> int:
    """Replay the crash recorded in a postmortem bundle.

    Re-drives the bundle's serve workload under a plan rebuilt from the
    bundle's ``plan_repr`` and requires the same site/hit, the same
    acked-transaction list, and byte-identical durable digests — the
    forensics bundle is a complete recipe for reaching its own crash.
    """
    from repro.faults.plan import FaultPlan
    from repro.obs.postmortem import load_bundle, snapshot_digests
    from repro.serve.cli import run_serve

    bundle = load_bundle(path)
    workload = bundle.get("workload") or {}
    if workload.get("kind") != "serve":
        print(
            f"FAIL: bundle workload kind {workload.get('kind')!r} is not "
            "a serve run; cannot replay it here",
            file=sys.stderr,
        )
        return 1
    plan_repr = bundle["crash"].get("plan_repr")
    if not plan_repr:
        print("FAIL: bundle records no plan_repr to replay", file=sys.stderr)
        return 1
    plan = FaultPlan.from_repr(plan_repr)
    result = run_serve(
        device=workload["device"],
        backend=workload["backend"],
        group=workload["group"],
        group_commit=workload["group_commit"],
        clients=workload["clients"],
        txns=workload["txns"],
        writes=workload["writes"],
        seed=workload["seed"],
        plan=plan,
    )
    crash = result["crash"]
    if crash is None:
        print(
            "FAIL: replayed serve run did not crash; plan "
            f"{plan_repr} never fired",
            file=sys.stderr,
        )
        return 1
    want = bundle["crash"]
    if crash.site != want["site"] or crash.seq != want["seq"]:
        print(
            f"FAIL: replay crashed at {crash.site!r} hit #{crash.seq}, "
            f"bundle records {want['site']!r} hit #{want['seq']}",
            file=sys.stderr,
        )
        return 1
    acked = list(result["server"].acked)
    if acked != list(bundle.get("acked") or []):
        print(
            f"FAIL: replay acked {acked}, bundle records "
            f"{bundle.get('acked')}",
            file=sys.stderr,
        )
        return 1
    want_digests = bundle.get("digests") or {}
    got_digests = snapshot_digests(crash.snapshot)
    if want_digests and got_digests != want_digests:
        print(
            "FAIL: replayed durable state digests differ from the bundle",
            file=sys.stderr,
        )
        return 1
    print(
        f"crash: bundle {path} replayed to {crash.site!r} hit #{crash.seq}; "
        f"{len(acked)} acked txns and durable digests identical"
    )
    return 0


def _crash(args) -> int:
    from repro.faults.plan import CrashPoint, CrashSpec, FaultPlan
    from repro.faults.sweep import DEFAULT_SCRIPT, run_script
    from repro.rvm.rlvm import RLVM

    if args.bundle is not None:
        return _crash_bundle(args.bundle)

    # The site comes from argv, so argparse's choices check it against
    # the registry instead of lint; a known site the script never
    # reaches fails below with "never fired".
    plan = FaultPlan(
        seed=args.seed,
        crash=CrashSpec(args.site, args.nth, args.mode),  # lvm-san: ignore[LVM005]
    )
    original = run_script(RLVM, DEFAULT_SCRIPT, plan).crash
    if original is None:
        print(f"FAIL: crash spec {plan.crash} never fired", file=sys.stderr)
        return 1
    assert isinstance(original, CrashPoint)
    # Reproduce from the replayable repr alone — the artifact workflow.
    replay = replay_to_crash(original.plan_repr)
    verify_crash_replay(original, replay)
    print(
        f"crash: {original.site!r} hit #{original.seq} replayed from its "
        f"plan repr; durable snapshot byte-identical "
        f"({len(replay.snapshot.disk_bytes)} disk bytes, "
        f"{len(replay.snapshot.images)} segment images)"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro replay",
        description="Checkpointed deterministic replay smokes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_seek = sub.add_parser("seek", help="checkpointed seek vs full replay")
    p_seek.add_argument("--seed", type=int, default=0)
    p_seek.add_argument("--writes", type=int, default=500)
    p_seek.add_argument("--interval", type=int, default=64)
    p_seek.add_argument("--probes", type=int, default=25)
    p_seek.set_defaults(fn=_seek)

    p_div = sub.add_parser("diverge", help="record + re-execute a workload")
    p_div.add_argument("--workload", default="copy")
    p_div.add_argument("--seed", type=int, default=0)
    p_div.add_argument("--writes", type=int, default=200)
    p_div.add_argument(
        "--perturb",
        action="store_true",
        help="replay a perturbed variant and require the detector to fire",
    )
    p_div.set_defaults(fn=_diverge)

    p_crash = sub.add_parser("crash", help="replay a crash from its plan repr")
    p_crash.add_argument("--seed", type=int, default=0)
    p_crash.add_argument(
        "--site", default="rvm.commit.durable", choices=sorted(ALL_SITES), metavar="SITE"
    )
    p_crash.add_argument("--nth", type=int, default=1)
    p_crash.add_argument("--mode", default="before")
    p_crash.add_argument(
        "--bundle",
        default=None,
        metavar="PATH",
        help="replay the crash recorded in a postmortem bundle instead",
    )
    p_crash.set_defaults(fn=_crash)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
