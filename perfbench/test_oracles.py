"""The benchmark's own tests: every oracle can fail, and the output
contract matches BENCHMARK.json.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

import pytest

from perfbench import oracles, run, workloads
from perfbench.layers import LayerTracer
from repro.obs.trace import validate_trace

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_unit(unit):
    """Set up and run one unit; the caller checks and tears down."""
    unit.setup()
    unit.run([])
    return unit


@contextlib.contextmanager
def ran(unit):
    try:
        yield run_unit(unit)
    finally:
        unit.teardown()


# ----------------------------------------------------------------------
# Each oracle passes on the real output and fails on a corrupted one
# ----------------------------------------------------------------------
def test_bulk_copy_oracle_catches_a_flipped_destination_byte():
    with ran(workloads.BulkCopy(seed=1)) as unit:
        assert unit.check() == []
        byte = unit.live_dst.read_bytes(1234, 1)[0]
        unit.live_dst.write_bytes(1234, bytes([byte ^ 0x40]))
        assert any("destination differs" in f for f in unit.check())


def test_bulk_copy_oracle_counts_log_records_per_word():
    source = bytes(range(64))
    assert oracles.block_copy(source, source, 16) == []
    assert oracles.block_copy(source, source, 15)


def test_serve_oracle_catches_a_dropped_ack():
    with ran(workloads.ServeRun(seed=1)) as unit:
        assert unit.check() == []
        unit.live_server.acked.pop()
        failures = unit.check()
        assert any("acked" in f for f in failures)


def test_tpca_oracle_catches_a_wal_emptied_by_a_final_truncate():
    with ran(workloads.TpcaRun("rvm", "ram", 0, tpca_seed=3)) as unit:
        assert unit.check() == []
        unit.live_lib.truncate()
        del unit.live_recovered
        assert any("no committed transactions" in f for f in unit.check())


def test_tpca_oracle_catches_unbalanced_books_and_a_stale_image():
    assert oracles.tpca_recovery(True, {9, 10}, range(9, 11), b"ab", b"ab") == []
    assert oracles.tpca_recovery(False, {9, 10}, range(9, 11), b"ab", b"ab")
    assert oracles.tpca_recovery(True, {9}, range(9, 11), b"ab", b"ab")
    assert oracles.tpca_recovery(True, {9, 10}, range(9, 11), b"ab", b"ax")


def test_time_warp_oracle_catches_a_diverged_state():
    with ran(workloads.PhasedRun(0, model_seed=11)) as unit:
        assert unit.check() == []
        state = unit.live_result.final_state
        obj = sorted(state)[3]
        state[obj] = bytes([state[obj][0] ^ 1]) + state[obj][1:]
        assert any("diverged" in f for f in unit.check())
        unit.live_result.events_committed -= 1
        assert any("events committed" in f for f in unit.check())


# ----------------------------------------------------------------------
# Fingerprints repeat across repeats and depend on the seed
# ----------------------------------------------------------------------
def test_fingerprint_repeats_exactly_and_tracks_the_inputs():
    digests = []
    for seed in (4, 4, 5):
        with ran(workloads.TpcaRun("rlvm", "ram", 0, tpca_seed=seed)) as unit:
            digests.append(unit.digest())
    assert digests[0] == digests[1] != digests[2]
    assert oracles.fingerprint(1, b"x") != oracles.fingerprint(1, "x")


# ----------------------------------------------------------------------
# Tracing: layer attribution, restoration, and a valid Chrome trace
# ----------------------------------------------------------------------
def test_traced_bulk_copy_charges_the_bulk_engine_and_restores_originals():
    from repro.core import bulk

    original = bulk.write_block
    unit = workloads.BulkCopy(seed=2)
    tracer = LayerTracer(max_spans=500)
    tracer.install()
    try:
        unit.setup()
        tracer.unit(unit.name, unit.run, [])
        assert unit.check() == []
    finally:
        unit.teardown()
        tracer.uninstall()
    assert bulk.write_block is original
    assert tracer.calls["core.bulk"] == 2 * workloads.COPY_BYTES // workloads.COPY_CHUNK
    assert tracer.calls["rvm"] == tracer.calls["serve"] == 0
    assert tracer.self_ns["core.bulk"] > tracer.self_ns["hw"]
    assert len(tracer.spans) == 500 and tracer.spans_dropped > 0
    assert validate_trace(tracer.chrome_trace()) == 502


# ----------------------------------------------------------------------
# The output contract matches BENCHMARK.json
# ----------------------------------------------------------------------
def last_json_line(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_matches_the_benchmark_spec(trace, section):
    result = last_json_line(
        ["--workload", "bulk_copy", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
