"""Deterministic replay over log segments (section 1, ROADMAP item 3).

"The log can also be used to support reverse execution, a debugging
technique in which a program is allowed to run until it fails, and then
backed up or reverse-executed until the problem is located."

This package turns the log segments the hardware already produces into
a first-class record/replay substrate, in the spirit of rr
("Lightweight User-Space Record And Replay") and "Execution Replay
Using Virtual Machines":

* :mod:`repro.replay.checkpoint` — periodic deferred-copy-style
  checkpoints: per-page versioned snapshots of only the pages dirtied
  since the previous checkpoint, cost-charged with the
  ``resetDeferredCopy`` constants (:mod:`repro.core.deferred_copy`).
* :mod:`repro.replay.engine` — :class:`ReplayEngine`, the cycle-indexed
  seek machine: ``state_at(n)`` restores the nearest checkpoint and replays
  only the gap, so a seek costs O(distance from a checkpoint) instead
  of O(history).
* :mod:`repro.replay.divergence` — record a reference run (log-record
  stream plus the PR 3 obs trace), re-execute the workload, and report
  the first cycle at which the logged writes differ.
* :mod:`repro.replay.crashpoint` — re-drive a failing
  :class:`~repro.faults.plan.FaultPlan` to its
  :class:`~repro.faults.plan.CrashPoint` and verify the reproduced
  durable snapshot byte-for-byte.

``python -m repro replay`` exposes the seek/diverge/crash smokes used
by CI (:mod:`repro.replay.cli`).
"""

from repro.replay.checkpoint import Checkpoint, CheckpointStore
from repro.replay.crashpoint import CrashReplay, replay_to_crash, verify_crash_replay
from repro.replay.divergence import (
    Divergence,
    ReferenceRun,
    find_divergence,
    record_reference,
    replay_against,
)
from repro.replay.engine import ReplayEngine, ReplayStats, ReplayWrite

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "CrashReplay",
    "Divergence",
    "ReferenceRun",
    "ReplayEngine",
    "ReplayStats",
    "ReplayWrite",
    "find_divergence",
    "record_reference",
    "replay_against",
    "replay_to_crash",
    "verify_crash_replay",
]
