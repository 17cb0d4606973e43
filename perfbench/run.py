"""Host-time benchmark of the LVM simulator.

Usage, from the repository root::

    python3 perfbench/run.py --workload tpca --seed 1 --seconds 32 --trace 0

One process, one thread.  The workload's units (see ``workloads.py``)
run in *passes*; every pass simulates the same seeded inputs, and
passes repeat while one more would still end within ``--seconds`` of
wall time (at least two, so every unit's simulated fingerprint is seen
to repeat).  Throughput and the latency percentiles cover every pass of
the measured phase, and set-up time is the median pass's.

Host time is scaled to a reference host speed.  A fixed calibration
loop is timed before and after every unit, and the unit's set-up, run
and latency samples are multiplied by ``CALIBRATION_NS`` over the
loop's mean time.  On a shared host whose speed changes from second to
second, the loop slows with the simulator, so the scaled times move
with the simulator's own work and far less with the neighbours' load.
Per-layer self times (``--trace 1``) are not scaled.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` runs one untraced pass, then traced passes, and reports
per-layer host self time and calls, the exact simulated counts, and the
tracing overhead; the spans go to ``.perfbench/`` as a Chrome trace.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import pathlib
import resource
import statistics
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
# The simulator is imported from this checkout's sources; without them
# the imports below fail and the run exits non-zero before any result.
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.layers import LAYERS, LayerTracer  # noqa: E402
from perfbench.oracles import fingerprint  # noqa: E402
from perfbench.workloads import WORKLOADS, merge_counters  # noqa: E402
from repro.obs.causal import STAGES  # noqa: E402
from repro.obs.trace import validate_trace  # noqa: E402

#: exact simulated counts reported by the traced run, with their units
COUNTS = (
    ("hw.logger.records_logged", "count"),
    ("hw.logger.overload_events", "count"),
    ("hw.logger.logging_faults", "count"),
    ("hw.logger.records_dropped", "count"),
    ("hw.cpu.write_through_stores", "count"),
    ("hw.cpu.write_buffer_stalls", "count"),
    ("hw.bus.transactions", "count"),
    ("hw.bus.busy_cycles", "cycles"),
    ("sim.cycles", "cycles"),
    ("rvm.wal.appends", "count"),
    ("rvm.wal.bytes", "bytes"),
    ("backends.write_ops", "count"),
    ("backends.bytes_written", "bytes"),
    ("backends.flush_ops", "count"),
    ("backends.barrier_ops", "count"),
    ("timewarp.events_processed", "count"),
    ("timewarp.rollbacks", "count"),
    ("timewarp.rollforward_records", "count"),
    ("timewarp.snapshots", "count"),
)


#: The calibration loop's time at the reference host speed.  Every timed
#: interval is scaled by CALIBRATION_NS / the loop's time measured around
#: it, so times read as on a host where the loop takes exactly this long.
CALIBRATION_NS = 1_000_000
CALIBRATION_ITERATIONS = 8000


def calibration_ns() -> int:
    """Host ns of a fixed pure-Python loop: the fastest of three runs."""
    best = 0
    for _ in range(3):
        start = time.perf_counter_ns()
        table: dict = {}
        acc = 0
        for i in range(CALIBRATION_ITERATIONS):
            table[i & 1023] = i
            acc += table.get((i * 7) & 1023, 0) & 0xFF
        elapsed = time.perf_counter_ns() - start
        best = elapsed if not best else min(best, elapsed)
    return best


class PassResult:
    """What one pass over every unit measured and produced."""

    def __init__(self) -> None:
        #: per unit, in unit order; times are scaled to the reference speed
        self.setup_ns: list[float] = []
        self.run_ns: list[float] = []
        self.ops: list[int] = []
        self.digests: list[bytes] = []
        #: host speed per unit: CALIBRATION_NS / the calibration loop's time
        self.scale: list[float] = []
        #: latency samples as the units record them, scaled like the times
        self.samples: list[float] = []
        self.failed = 0
        self.counters: dict = {}
        self.failures: list[str] = []


def run_pass(units, tracer=None) -> PassResult:
    result = PassResult()
    gc.collect()
    clock = time.perf_counter_ns
    for unit in units:
        ops = 0
        first_sample = len(result.samples)
        before = after = calibration_ns()
        start = ready = done = clock()
        try:
            unit.setup()
            ready = clock()
            if tracer is None:
                ops = unit.run(result.samples)
            else:
                ops = tracer.unit(unit.name, unit.run, result.samples)
            done = clock()
            after = calibration_ns()
            failures = unit.check()
            result.digests.append(unit.digest())
            merge_counters(result.counters, unit.counters())
        except Exception:  # a crashing unit fails its ops; the run goes on
            failures = ["raised:\n" + traceback.format_exc()]
            result.digests.append(b"")
        finally:
            unit.teardown()
        scale = 2 * CALIBRATION_NS / (before + after)
        result.scale.append(scale)
        result.setup_ns.append((ready - start) * scale)
        result.run_ns.append((done - ready) * scale)
        result.samples[first_sample:] = [s * scale for s in result.samples[first_sample:]]
        result.ops.append(ops)
        if failures:
            result.failed += max(ops, 1)
            result.failures.extend(f"{unit.name}: {f}" for f in failures)
    return result


def run_passes(units, seconds: float, min_passes: int, tracer=None) -> list[PassResult]:
    """Passes until the next one, as long as the last, would overrun ``seconds``."""
    passes: list[PassResult] = []
    start = last = time.perf_counter()
    while True:
        passes.append(run_pass(units, tracer))
        now = time.perf_counter()
        if len(passes) >= min_passes and now - start + (now - last) > seconds:
            return passes
        last = now


def check_repeats(passes: list[PassResult], units) -> None:
    """A unit whose fingerprint differs from its first run fails that run."""
    first = passes[0].digests
    for p in passes[1:]:
        for i, unit in enumerate(units):
            if p.digests[i] != first[i]:
                p.failures.append(f"{unit.name}: simulated fingerprint changed between repeats")
                p.failed += max(p.ops[i], 1)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(passes: list[PassResult]) -> dict:
    samples = sorted(s for p in passes for s in p.samples) or [0.0]
    ops = sum(sum(p.ops) for p in passes)
    return {
        "ops_per_s": (ops / sum(sum(p.run_ns) for p in passes) * 1e9, "1/s"),
        "setup_s": (statistics.median(sum(p.setup_ns) for p in passes) / 1e9, "s"),
        "op_p50_us": (percentile(samples, 0.50) / 1000, "us"),
        "op_p99_us": (percentile(samples, 0.99) / 1000, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(baseline: PassResult, traced: list[PassResult], tracer,
              attempted: int, failed: int) -> dict:
    n = len(traced)
    counters = traced[-1].counters
    metrics: dict = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (tracer.self_ns[layer] / n / 1e9, "s")
        if layer != "other":
            metrics[f"{layer}.calls"] = (tracer.calls[layer] / n, "count")
    for key, unit in COUNTS:
        metrics[key] = (counters.get(key, 0), unit)
    untraced_s = sum(baseline.run_ns) / 1e9
    metrics["sim.cycles_per_host_s"] = (_ratio(counters.get("sim.cycles", 0), untraced_s), "cycles/s")
    metrics["sim.log_records_per_host_s"] = (
        _ratio(counters.get("hw.logger.records_logged", 0), untraced_s), "1/s")
    metrics["backends.bytes_per_user_byte"] = (
        _ratio(counters.get("backends.bytes_written", 0), counters.get("backends.user_bytes", 0)),
        "ratio")
    acked = counters.get("serve.acked", 0)
    metrics["serve.commits_per_flush"] = (
        _ratio(acked, counters.get("backends.flush_ops", 0)) if acked else 0.0, "ratio")
    commit_cycles = sorted(counters.get("serve.commit_cycles", []))
    for q, name in ((0.50, "p50"), (0.99, "p99")):
        value = percentile(commit_cycles, q) if commit_cycles else 0
        metrics[f"serve.commit_{name}_cycles"] = (value, "cycles")
    for stage in STAGES:
        key = f"serve.stage.{stage}_cycles"
        metrics[key] = (counters.get(key, 0), "cycles")
    metrics["timewarp.commit_ratio"] = (
        _ratio(counters.get("timewarp.events_committed", 0),
               counters.get("timewarp.events_processed", 0)), "ratio")
    traced_s = statistics.median(sum(p.run_ns) for p in traced) / 1e9
    metrics["trace.untraced_pass_s"] = (untraced_s, "s")
    metrics["trace.slowdown"] = (_ratio(traced_s, untraced_s), "x")
    metrics["bench.latency_samples"] = (len(baseline.samples), "count")
    metrics["bench.error_rate"] = (_ratio(failed, attempted), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    make_units, op_name = WORKLOADS[args.workload]
    units = make_units(args.seed)

    tracer = None
    if args.trace:
        baseline = run_pass(units)
        tracer = LayerTracer()
        tracer.install()
        try:
            traced = run_passes(units, args.seconds, 1, tracer)
        finally:
            tracer.uninstall()
        passes = [baseline] + traced
    else:
        passes = run_passes(units, args.seconds, 2)
    check_repeats(passes, units)

    failed = sum(p.failed for p in passes)
    attempted = max(sum(sum(p.ops) for p in passes), failed, 1)
    failures = [f for p in passes for f in p.failures]
    digest = fingerprint(passes[0].digests).hex()
    if tracer is not None:
        metrics = per_layer(baseline, traced, tracer, attempted, failed)
    else:
        metrics = end_to_end(passes)
    samples = sum(len(p.samples) for p in passes)
    shown = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        doc = tracer.chrome_trace({"workload": args.workload, "seed": args.seed})
        validate_trace(doc)
        (OUT_DIR / f"{stem}.trace.json").write_text(json.dumps(doc) + "\n")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "op": op_name,
        "units": len(units),
        "passes": len(passes),
        "latency_samples": samples,
        "unit_setup_ns": [p.setup_ns for p in passes],
        "unit_run_ns": [p.run_ns for p in passes],
        "unit_scale": [p.scale for p in passes],
        "fingerprint": digest,
        "failures": failures,
        "metrics": shown,
    }, indent=1) + "\n")

    print(f"workload {args.workload} (op = {op_name}), seed {args.seed}: "
          f"{len(units)} units x {len(passes)} passes, "
          f"{samples} latency samples, "
          f"simulated fingerprint {digest}")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": shown,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
