"""Shared helpers for the instrumentation overhead guards.

``bench_obs_overhead.py`` times instrumented runs against bare ones and
writes ``BENCH_*.json`` files.  Run it with::

    PYTHONPATH=src pytest benchmarks/ -s
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import pathlib
import subprocess
import uuid

from repro.obs.machine_sources import snapshot_machine

#: Version of the shared ``BENCH_*.json`` envelope written by
#: :func:`write_bench_json`.  Bump when envelope keys change shape.
BENCH_SCHEMA_VERSION = 1


def _git_sha() -> str | None:
    """Best-effort commit id for provenance; None outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def write_bench_json(path, benchmark, data, machine=None, obs=None):
    """Write ``data`` to ``path`` in the shared ``BENCH_*.json`` envelope.

    Every benchmark result file carries the same provenance header —
    schema version, benchmark name, a fresh run id, UTC timestamp, git
    sha, the machine parameters the run used, and a metrics snapshot of
    the machine (plus any live observability counters) — so results can
    be compared across runs.  The benchmark-specific payload goes under
    ``"data"``.
    """
    doc = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": benchmark,
        "run_id": uuid.uuid4().hex,
        "generated_at": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "git_sha": _git_sha(),
        "machine_params": (
            dataclasses.asdict(machine.config) if machine is not None else None
        ),
        "metrics": (
            snapshot_machine(machine, obs) if machine is not None else None
        ),
        "data": data,
    }
    pathlib.Path(path).write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def print_header(title: str, paper: str) -> None:
    print()
    print("=" * 72)
    print(f"{title}")
    print(f"paper reference: {paper}")
    print("=" * 72)
