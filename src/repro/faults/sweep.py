"""Exhaustive crash-sweep driver for the durability stack.

Strategy (the "count the sites, then crash at each" pass structure):

1. **Count pass** — run a transaction workload to completion under an
   installed :class:`FaultPlan` with no trigger.  The plan counts every
   injection-site hit, so afterwards we know *exactly* which crash
   points this workload can reach — coverage is enumerated, not
   sampled.
2. **Crash runs** — for every ``(site, nth, mode)`` reachable, re-run
   the same deterministic workload on a fresh machine with a plan that
   crashes there, recover from the durable snapshot alone, and verify
   the ACID model with :class:`CrashConsistencyChecker`.

Workloads are scripted so the same script replays identically across
runs.  Script ops::

    ("txn", "commit" | "abort" | "noflush", [(word_index, value), ...])
    ("flush",)      # make buffered no-flush commits durable
    ("truncate",)   # apply the committed log to the disk images

Run ``PYTHONPATH=src python -m repro.faults.sweep --seed N`` for the CI
entry point; a failing run writes the replayable ``FaultPlan`` reprs to
``--artifact`` so any red CI run can be reproduced locally.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from repro.core.context import boot, set_current_machine
from repro.faults import plan as faultplan
from repro.faults.checker import (
    CrashCheckFailure,
    CrashConsistencyChecker,
    WorkloadOracle,
    capture_snapshot,
    recover,
)
from repro.faults.plan import SITE_DISK_WRITE, CrashPoint, CrashSpec, FaultPlan
from repro.hw.params import MachineConfig
from repro.rvm.rlvm import RLVM
from repro.rvm.rvm import RVM

#: Small machine: sweeps boot one per crash run.
SWEEP_CONFIG = MachineConfig(memory_bytes=32 * 1024 * 1024)

#: Log-device capacity for sweep runs — the script logs a few KiB, so
#: a small device keeps hundreds of crash runs cheap.
SWEEP_DEVICE_BYTES = 256 * 1024

#: The canonical sweep workload: commits, an abort, no-flush commits
#: with a group flush, and two truncations — every durable code path.
DEFAULT_SCRIPT = (
    ("txn", "commit", ((0, 0x11111111), (5, 0x22222222))),
    ("txn", "abort", ((5, 0x33333333), (9, 0x44444444))),
    ("txn", "commit", ((1, 0x55555555), (0, 0x66666666), (17, 0x77777777))),
    ("truncate",),
    ("txn", "noflush", ((2, 0x88888888),)),
    ("txn", "noflush", ((5, 0x99999999), (2, 0x12345678))),
    ("flush",),
    ("txn", "commit", ((3, 0xAAAAAAAA),)),
    ("truncate",),
)

#: Crash modes enumerated per site kind.
_DISK_MODES = ("before", "torn", "after")
_TORN_MODES = ("before", "torn")
_PLAIN_MODES = ("before",)


@dataclass
class RunResult:
    """One scripted run under one fault plan."""

    plan: FaultPlan
    oracle: WorkloadOracle
    crash: CrashPoint | None
    #: durable snapshot at normal completion (None when crashed)
    end_snapshot: object | None
    #: the driving process's cycle count when the run ended
    final_cycle: int = 0


@dataclass
class SweepReport:
    backend: str
    specs: list = field(default_factory=list)
    fired: list = field(default_factory=list)
    not_fired: list = field(default_factory=list)
    #: (spec, replayable plan repr, failure message)
    failures: list = field(default_factory=list)

    @property
    def families(self) -> set:
        return {spec.site.split(".")[0] for spec in self.fired}

    @property
    def ok(self) -> bool:
        return not self.failures and not self.not_fired


def run_script(
    backend_cls,
    script,
    plan: FaultPlan,
    seg_bytes: int = 4096,
    config: MachineConfig | None = None,
    device_factory=None,
) -> RunResult:
    """Run ``script`` on a fresh machine under ``plan``.

    The oracle mirrors every operation; the plan's snapshot source
    captures durable state at the crash instant (or we capture it at
    normal completion).  ``device_factory`` (no-arg callable) selects
    the log device; None keeps the library's default RAM disk.
    """
    machine = boot(config or SWEEP_CONFIG)
    try:
        proc = machine.current_process
        disk = device_factory() if device_factory is not None else None
        backend = backend_cls(proc, disk=disk)
        oracle = WorkloadOracle()
        va = backend.map("db", seg_bytes)
        rseg = backend.segments["db"]
        data_off = va - rseg.base_va
        oracle.map("db", len(rseg.disk_image), data_off)
        plan.snapshot_source(lambda: capture_snapshot(backend))
        plan.add_observer(
            lambda site, n: oracle.truncate_applied()
            if site == "rvm.truncate.applied"
            else None
        )
        is_rvm = isinstance(backend, RVM)
        crash = None
        end_snapshot = None
        with faultplan.installed(plan):
            try:
                _drive(backend, oracle, script, va, data_off, is_rvm)
            except CrashPoint as cp:
                crash = cp
        if crash is None:
            end_snapshot = capture_snapshot(backend)
        return RunResult(plan, oracle, crash, end_snapshot, proc.now)
    finally:
        set_current_machine(None)


def _drive(backend, oracle, script, va, data_off, is_rvm) -> None:
    for op in script:
        kind = op[0]
        if kind == "txn":
            _, action, writes = op
            txn = backend.begin()
            oracle.begin(txn.tid)
            for word, value in writes:
                if is_rvm:
                    txn.set_range(va + 4 * word, 4)
                oracle.write(
                    txn.tid, "db", data_off + 4 * word, value.to_bytes(4, "little")
                )
                txn.write(va + 4 * word, value)
            if action == "abort":
                txn.abort()
                oracle.abort(txn.tid)
            elif action == "noflush":
                txn.commit(flush=False)
                oracle.commit_pending(txn.tid)
            else:
                # A flushing commit drains buffered no-flush commits
                # into the log first (log order == commit order), so it
                # is also a flush attempt for every pending txn.
                oracle.flush_attempt()
                oracle.commit_attempt(txn.tid)
                txn.commit()
                oracle.flush_durable()
                oracle.commit_durable(txn.tid)
        elif kind == "flush":
            oracle.flush_attempt()
            backend.flush()
            oracle.flush_durable()
        elif kind == "truncate":
            backend.truncate()
        else:
            raise ValueError(f"unknown script op {op!r}")


def check_run(result: RunResult, context: str = "") -> set:
    """Recover from the run's durable snapshot and verify ACID."""
    snapshot = result.crash.snapshot if result.crash is not None else result.end_snapshot
    recovered = recover(snapshot)
    return CrashConsistencyChecker(result.oracle).check(
        recovered, context, check_durability=result.plan.reorder_window == 0
    )


def enumerate_crash_specs(
    backend_cls, script, seed: int = 0, device_factory=None
) -> list[CrashSpec]:
    """Count pass: every (site, nth, mode) this workload can reach."""
    plan = FaultPlan(seed=seed)
    result = run_script(backend_cls, script, plan, device_factory=device_factory)
    if result.crash is not None:  # pragma: no cover - count pass never crashes
        raise CrashCheckFailure("count pass crashed; the plan had no trigger")
    # The unfaulted run must itself be consistent.
    check_run(result, context="count pass")
    specs: list[CrashSpec] = []
    for site in sorted(plan.counts):
        if site == SITE_DISK_WRITE:
            modes = _DISK_MODES
        elif site in plan.torn_capable:
            modes = _TORN_MODES
        else:
            modes = _PLAIN_MODES
        for nth in range(1, plan.counts[site] + 1):
            for mode in modes:
                specs.append(CrashSpec(site, nth, mode))
    return specs


def sweep(
    backend_cls,
    script=DEFAULT_SCRIPT,
    seed: int = 0,
    reorder_window: int = 0,
    device_factory=None,
    device_label: str = "",
) -> SweepReport:
    """Crash at every reachable injection site; check ACID at each."""
    label = backend_cls.__name__ + (f"/{device_label}" if device_label else "")
    report = SweepReport(backend=label)
    report.specs = enumerate_crash_specs(
        backend_cls, script, seed, device_factory=device_factory
    )
    for spec in report.specs:
        plan = FaultPlan(seed=seed, crash=spec, reorder_window=reorder_window)
        result = run_script(backend_cls, script, plan, device_factory=device_factory)
        if result.crash is None:
            report.not_fired.append(spec)
            continue
        report.fired.append(spec)
        try:
            check_run(result, context=f"{report.backend} {spec}")
        except CrashCheckFailure as exc:
            report.failures.append((spec, result.crash.plan_repr, str(exc)))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--backends", default="rvm,rlvm", help="comma list from {rvm,rlvm}"
    )
    parser.add_argument("--reorder-window", type=int, default=0)
    parser.add_argument(
        "--devices",
        default="ram",
        help="comma list of log devices from repro.backends.BACKENDS",
    )
    parser.add_argument(
        "--group-commit",
        action="store_true",
        help="layer the batched group-commit buffer over each device",
    )
    parser.add_argument(
        "--artifact",
        default=None,
        help="file to write replayable failing FaultPlan reprs to",
    )
    args = parser.parse_args(argv)

    from repro.backends import make_backend

    backends = {"rvm": RVM, "rlvm": RLVM}
    failures = []
    for name in args.backends.split(","):
        for device in args.devices.split(","):
            device = device.strip()

            def device_factory(device=device):
                return make_backend(
                    device, SWEEP_DEVICE_BYTES, group_commit=args.group_commit
                )

            label = device + ("+group" if args.group_commit else "")
            report = sweep(
                backends[name.strip()],
                seed=args.seed,
                reorder_window=args.reorder_window,
                device_factory=device_factory,
                device_label=label,
            )
            print(
                f"{report.backend}: {len(report.fired)}/{len(report.specs)} crash "
                f"points fired across families {sorted(report.families)}; "
                f"{len(report.failures)} ACID failures"
            )
            for spec in report.not_fired:
                failures.append((report.backend, spec, "", "crash spec never fired"))
            for spec, plan_repr, message in report.failures:
                failures.append((report.backend, spec, plan_repr, message))

    if failures:
        lines = [
            f"seed={args.seed}",
            "Replay any line below with repro.faults.plan.FaultPlan:",
        ]
        for backend, spec, plan_repr, message in failures:
            print(f"FAIL {backend} {spec}: {message}", file=sys.stderr)
            lines.append(f"{backend}: {plan_repr or spec!r}  # {message}")
        if args.artifact:
            with open(args.artifact, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
