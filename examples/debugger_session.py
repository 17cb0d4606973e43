#!/usr/bin/env python3
"""A debugging session on LVM: watchpoints and reverse execution.

A buggy "application" clobbers a variable it should not touch.  The
debugger attaches logging to the application's region *dynamically*
("with no change to the program binary", section 2.7), catches the
overwrite, and reverse-executes to find exactly which write did it.

Reverse execution is the checkpointed replay engine (`repro.replay`):
it keeps periodic deferred-copy-style checkpoints so each seek restores
the nearest checkpoint and replays only the gap — O(distance) instead
of replaying the whole history.

Run:  python examples/debugger_session.py
"""

from repro import StdRegion, StdSegment, boot, this_process
from repro.debugger import WriteMonitor
from repro.replay import ReplayEngine

BALANCE = 0x40      # the variable we care about
SCRATCH = 0x80      # where the app is supposed to write


def buggy_application(proc, va, steps):
    """Writes scratch data, but one iteration has an off-by-bug."""
    for i in range(steps):
        target = SCRATCH + 4 * (i % 4)
        if i == 5:
            target = BALANCE  # the bug: stray pointer
        proc.write(va + target, 0xBEEF0000 + i)


def main() -> None:
    boot()
    proc = this_process()

    # The application sets up its memory — no logging anywhere.
    seg = StdSegment(4096)
    region = StdRegion(seg)
    va = region.bind(proc.address_space())
    proc.write(va + BALANCE, 1_000)
    print(f"balance initialised to {proc.read(va + BALANCE)}")

    # The debugger attaches: logging appears dynamically.  The monitor
    # is non-consuming so the replay engine sees the full history.
    monitor = WriteMonitor(region, consume=False)
    # Checkpoint every 4 writes: seeks replay at most a 4-record gap.
    engine = ReplayEngine(region, checkpoint_interval=4)  # shares the same log
    monitor.watch(va + BALANCE)
    print("debugger attached; watching the balance word\n")

    buggy_application(proc, va, steps=10)

    hits, overwrites = monitor.poll()
    print(f"application ran; balance is now {proc.read(va + BALANCE):#x} (!)")
    print(f"watchpoint hits: {len(hits)}")
    for hit in hits:
        print(f"  write of {hit.value:#x} to {hit.vaddr:#x} at t={hit.timestamp}")

    # Which write clobbered it, and what was there before?
    culprits = engine.writes_to(va + BALANCE)
    pos, record = culprits[0]
    print(f"\nreverse execution: balance was written at history position {pos}")
    before = engine.state_at(pos - 1)
    after = engine.state_at(pos)
    b = int.from_bytes(before[BALANCE:BALANCE + 4], "little")
    a = int.from_bytes(after[BALANCE:BALANCE + 4], "little")
    print(f"  state before that write: balance = {b}")
    print(f"  state after  that write: balance = {a:#x}")
    print(f"  culprit wrote {record.value:#x} — iteration "
          f"{record.value - 0xBEEF0000} of the loop is the bug")

    # The same moment, addressed by machine cycle instead of position —
    # log records carry timestamps, so history is time-indexed too.
    cycle = record.timestamp * engine.machine.config.timestamp_divider
    assert engine.state_at_cycle(cycle - 1) == before
    print(f"  (that write landed at machine cycle ~{cycle})")

    stats = engine.stats
    print(f"\nreplay engine: {stats.checkpoints_captured} checkpoints "
          f"captured, {stats.records_replayed} records replayed across "
          f"{stats.seeks} seeks "
          f"({engine.checkpoint_cost_cycles} simulated cycles charged)")


if __name__ == "__main__":
    main()
