"""Observability overhead guard: the disabled path must cost ~nothing.

Every instrumentation site in the hot paths is gated on the probe
spine's one gate (``probe._ACTIVE is None`` — the same pattern the
fault layer uses), so a run with nothing attached should be within
wall-clock noise of the pre-observability simulator, and a metrics-only
run must stay cycle-identical while keeping the fused fast paths.  The
spine binds an event nobody handles to None and each site tests its
own event before building arguments, so an analytics-only or
flight-only run (the two budget guards below) pays one attribute test,
not a call, for the per-bus-transaction events only metrics want.

The disabled workload is run twice to estimate run-to-run noise on this
host, then once with metrics enabled; the enabled/disabled wall ratio
must stay within a few multiples of that noise.  Results go to
``BENCH_obs_overhead.json``.
"""

from __future__ import annotations

import pathlib
import time

from conftest import print_header, write_bench_json
from repro.analytics import stream as anstream
from repro.analytics.stream import AnalyticsHub
from repro.obs.core import Observability, installed
from repro.obs.machine_sources import attach_machine
from repro.obs.workloads import run_workload

RESULT_FILE = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_obs_overhead.json"
)
ANALYTICS_RESULT_FILE = (
    pathlib.Path(__file__).resolve().parent.parent
    / "BENCH_analytics_overhead.json"
)

#: Overhead ceiling: max(3x the observed disabled-path noise, 25%).
#: The floor absorbs timer jitter on sub-second workloads; the guard is
#: against accidental always-on work (a formatting call, a dict lookup
#: per word), which costs integer multiples, not percents.
NOISE_MULTIPLE = 3.0
RATIO_FLOOR = 1.25


def _timed_run(workload):
    t0 = time.perf_counter()
    summary = run_workload(workload)
    return time.perf_counter() - t0, summary


def test_disabled_observability_overhead_within_noise():
    def run():
        disabled_a, summary_a = _timed_run("copy")
        disabled_b, summary_b = _timed_run("copy")
        with installed(Observability()) as obs:
            t0 = time.perf_counter()
            summary_m = run_workload("copy")
            attach_machine(obs, summary_m["machine"])
            metrics_wall = time.perf_counter() - t0
            metrics = obs.metrics.snapshot()
        return (disabled_a, disabled_b, metrics_wall,
                summary_a, summary_b, summary_m, metrics)

    (disabled_a, disabled_b, metrics_wall,
     summary_a, summary_b, summary_m, metrics) = run()

    # Metrics-only must not perturb the simulation at all.
    assert summary_m["cycles"] == summary_a["cycles"] == summary_b["cycles"]
    assert metrics["counters"]["core.bulk.write_runs_fast"] > 0
    assert metrics["counters"].get("core.bulk.write_runs_slow", 0) == 0

    base = min(disabled_a, disabled_b)
    noise = abs(disabled_a - disabled_b) / base
    ratio = metrics_wall / base
    ceiling = max(1.0 + NOISE_MULTIPLE * noise, RATIO_FLOOR)

    print_header(
        "Observability overhead: 64 KiB logged copy",
        "simulator engineering (not a paper figure)",
    )
    print(f"  disabled run A : {disabled_a * 1e3:9.2f} ms")
    print(f"  disabled run B : {disabled_b * 1e3:9.2f} ms")
    print(f"  metrics-only   : {metrics_wall * 1e3:9.2f} ms")
    print(f"  noise estimate : {100 * noise:9.2f} %")
    print(f"  enabled ratio  : {ratio:9.3f}x (ceiling {ceiling:.3f}x)")

    write_bench_json(
        RESULT_FILE,
        "obs_overhead",
        {
            "workload": "copy",
            "disabled_seconds": [disabled_a, disabled_b],
            "metrics_enabled_seconds": metrics_wall,
            "noise_fraction": noise,
            "enabled_over_disabled": ratio,
            "ceiling": ceiling,
            "cycles": summary_m["cycles"],
            "cycle_exact": True,
        },
        machine=summary_m["machine"],
    )

    assert ratio <= ceiling, (
        f"metrics-enabled run {ratio:.3f}x over disabled baseline "
        f"(ceiling {ceiling:.3f}x, noise {noise:.3%})"
    )


#: The analytics stream rides the logger's existing drain hook and its
#: reads are untimed, so attaching a hub must not perturb the simulated
#: machine at all; the wall-clock budget for the streaming folds
#: themselves is 2% (plus measured noise headroom).
ANALYTICS_RATIO_FLOOR = 1.02

#: Interleaved measurement pairs: single copy runs are ~25 ms, where
#: scheduler jitter alone can fake (or mask) a 2% effect; best-of-N
#: interleaved pairs decorrelates the drift.
SAMPLE_PAIRS = 3


def _log_digest(log):
    return [
        (r.addr, r.value, r.size, r.flags, r.timestamp) for r in log.records()
    ]


def _attached_run():
    hub = AnalyticsHub()
    with anstream.installed(hub):
        t0 = time.perf_counter()
        summary = run_workload("copy")
        hub.notify(summary["machine"].clock.now)
        wall = time.perf_counter() - t0
    return wall, summary, hub


def test_analytics_attached_overhead_within_noise():
    def run():
        from repro.analytics.stream import rebuild_tap

        _attached_run()  # one warm pass primes numpy's kernels
        disabled, attached = [], []
        for _ in range(SAMPLE_PAIRS):
            disabled.append(_timed_run("copy"))
            attached.append(_attached_run())
        # The actual analytic work, isolated: one cold fold of the
        # complete 16K-record log (what the attached run adds in total).
        log = disabled[-1][1]["log"]
        fold_walls = []
        for _ in range(5):
            t0 = time.perf_counter()
            rebuild_tap(log)
            fold_walls.append(time.perf_counter() - t0)
        return disabled, attached, min(fold_walls)

    disabled, attached, fold_wall = run()
    summary_a = disabled[0][1]
    _, summary_h, hub = attached[0]

    # Zero cycle deviation and log-record identity: the tap observes
    # the log, it never participates in it.
    assert summary_h["cycles"] == summary_a["cycles"]
    assert _log_digest(summary_h["log"]) == _log_digest(summary_a["log"])
    tap = hub.tap_for(summary_h["log"])
    assert tap.stats.record_count == sum(
        1 for _ in summary_a["log"].records()
    )

    disabled_walls = [wall for wall, _ in disabled]
    attached_walls = [wall for wall, _, _ in attached]
    base = min(disabled_walls)
    noise = (max(disabled_walls) - base) / base
    ratio = min(attached_walls) / base
    ceiling = max(1.0 + NOISE_MULTIPLE * noise, ANALYTICS_RATIO_FLOOR)
    fold_fraction = fold_wall / base

    print_header(
        "Analytics overhead: 64 KiB logged copy with a live AnalyticsHub",
        "simulator engineering (not a paper figure)",
    )
    print(f"  disabled runs  : "
          + ", ".join(f"{w * 1e3:.2f}" for w in disabled_walls) + " ms")
    print(f"  attached runs  : "
          + ", ".join(f"{w * 1e3:.2f}" for w in attached_walls) + " ms")
    print(f"  noise estimate : {100 * noise:9.2f} %")
    print(f"  attached ratio : {ratio:9.3f}x (ceiling {ceiling:.3f}x)")
    print(f"  pure fold cost : {fold_wall * 1e6:9.1f} us for "
          f"{tap.stats.record_count} records "
          f"({100 * fold_fraction:.2f}% of the run, budget "
          f"{100 * (ANALYTICS_RATIO_FLOOR - 1):.0f}%)")

    write_bench_json(
        ANALYTICS_RESULT_FILE,
        "analytics_overhead",
        {
            "workload": "copy",
            "disabled_seconds": disabled_walls,
            "attached_seconds": attached_walls,
            "fold_seconds": fold_wall,
            "fold_fraction": fold_fraction,
            "noise_fraction": noise,
            "attached_over_disabled": ratio,
            "ceiling": ceiling,
            "cycles": summary_h["cycles"],
            "records_streamed": tap.stats.record_count,
            "cycle_exact": True,
            "log_records_identical": True,
        },
        machine=summary_h["machine"],
    )

    # The streaming folds themselves must fit the 2% budget, measured
    # in isolation where scheduler jitter cannot reach.
    assert fold_fraction <= ANALYTICS_RATIO_FLOOR - 1.0, (
        f"analytics fold costs {fold_fraction:.2%} of the disabled run "
        f"(budget {ANALYTICS_RATIO_FLOOR - 1.0:.0%})"
    )
    # And the end-to-end attached run must sit inside that budget plus
    # measured run-to-run noise.
    assert ratio <= ceiling, (
        f"analytics-attached run {ratio:.3f}x over disabled baseline "
        f"(ceiling {ceiling:.3f}x, noise {noise:.3%})"
    )


#: The flight recorder's hard budget: always-on recording may cost at
#: most 2% of a serve run's wall clock.
FLIGHT_RATIO_FLOOR = 1.02

FLIGHT_RESULT_FILE = (
    pathlib.Path(__file__).resolve().parent.parent
    / "BENCH_flight_overhead.json"
)

#: Serve workload for the recorder guard: big enough to spend real wall
#: time in the instrumented paths (WAL appends, device writes, acks).
FLIGHT_WORKLOAD = dict(clients=16, txns=8, writes=4, seed=1995)


def _wal_digest(library):
    return [(e.kind, e.tid) for e in library.wal.entries()]


def test_flight_recorder_overhead_within_budget():
    from repro.obs import flight as obsflight
    from repro.obs.flight import FlightRecorder
    from repro.serve.cli import run_serve

    def bare_run():
        t0 = time.perf_counter()
        result = run_serve(**FLIGHT_WORKLOAD)
        return time.perf_counter() - t0, result

    def recorded_run():
        recorder = FlightRecorder()
        with obsflight.installed(recorder):
            t0 = time.perf_counter()
            result = run_serve(**FLIGHT_WORKLOAD)
            wall = time.perf_counter() - t0
        return wall, result, recorder

    def run():
        recorded_run()  # warm pass
        bare, recorded = [], []
        for _ in range(SAMPLE_PAIRS):
            bare.append(bare_run())
            recorded.append(recorded_run())
        # The recording cost in isolation, where scheduler jitter
        # cannot reach: the per-event cost of ring appends times the
        # number of events a run actually records.
        recorder = FlightRecorder()
        n = 20_000
        t0 = time.perf_counter()
        for i in range(n):
            recorder.record(i, "device.write", "ram", 64)
        per_record = (time.perf_counter() - t0) / n
        return bare, recorded, per_record

    bare, recorded, per_record = run()
    _, result_bare = bare[0]
    _, result_rec, recorder = recorded[0]

    # A recorded run must be indistinguishable in the simulation: same
    # machine time, same acks, same WAL records.
    assert result_rec["machine"].time() == result_bare["machine"].time()
    assert result_rec["server"].acked == result_bare["server"].acked
    assert _wal_digest(result_rec["library"]) == _wal_digest(
        result_bare["library"]
    )
    assert recorder.seen > 0  # it really was recording

    bare_walls = [wall for wall, _ in bare]
    rec_walls = [wall for wall, _, _ in recorded]
    base = min(bare_walls)
    noise = (max(bare_walls) - base) / base
    ratio = min(rec_walls) / base
    ceiling = max(1.0 + NOISE_MULTIPLE * noise, FLIGHT_RATIO_FLOOR)
    record_fraction = recorder.seen * per_record / base

    print_header(
        "Flight-recorder overhead: 16-client serve run, recorder on",
        "simulator engineering (not a paper figure)",
    )
    print(f"  bare runs      : "
          + ", ".join(f"{w * 1e3:.2f}" for w in bare_walls) + " ms")
    print(f"  recorded runs  : "
          + ", ".join(f"{w * 1e3:.2f}" for w in rec_walls) + " ms")
    print(f"  noise estimate : {100 * noise:9.2f} %")
    print(f"  recorded ratio : {ratio:9.3f}x (ceiling {ceiling:.3f}x)")
    print(f"  pure ring cost : {per_record * 1e9:9.1f} ns/event x "
          f"{recorder.seen} events "
          f"({100 * record_fraction:.2f}% of the run, budget "
          f"{100 * (FLIGHT_RATIO_FLOOR - 1):.0f}%)")

    write_bench_json(
        FLIGHT_RESULT_FILE,
        "flight_overhead",
        {
            "workload": dict(FLIGHT_WORKLOAD),
            "bare_seconds": bare_walls,
            "recorded_seconds": rec_walls,
            "per_record_seconds": per_record,
            "events_recorded": recorder.seen,
            "record_fraction": record_fraction,
            "noise_fraction": noise,
            "recorded_over_bare": ratio,
            "ceiling": ceiling,
            "cycles": result_rec["machine"].time(),
            "cycle_exact": True,
            "log_records_identical": True,
        },
        machine=result_rec["machine"],
    )

    # The ring appends themselves must fit the 2% budget, measured in
    # isolation.
    assert record_fraction <= FLIGHT_RATIO_FLOOR - 1.0, (
        f"flight recording costs {record_fraction:.2%} of the bare run "
        f"(budget {FLIGHT_RATIO_FLOOR - 1.0:.0%})"
    )
    # And the end-to-end recorded run must sit inside budget + noise.
    assert ratio <= ceiling, (
        f"recorder-on run {ratio:.3f}x over bare baseline "
        f"(ceiling {ceiling:.3f}x, noise {noise:.3%})"
    )
