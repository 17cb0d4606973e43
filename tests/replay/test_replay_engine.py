"""Tests: checkpointed replay engine — golden seeks, cycle indexing."""

import random
import time

import pytest

from conftest import make_logged_region
from repro.errors import LoggingError
from repro.hw.params import PAGE_SIZE, MachineConfig
from repro.replay import Checkpoint, CheckpointStore, ReplayEngine


def drive_random_writes(proc, va, region_size, seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.choice((1, 2, 4))
        offset = rng.randrange(region_size // 4) * 4
        proc.write(va + offset, rng.randrange(2 ** (8 * size)), size)


class TestGoldenSeeks:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("interval", [1, 7, 64])
    def test_every_position_matches_full_replay(self, machine, proc, seed, interval):
        # The acceptance property: checkpointed seek(n) is bit-identical
        # to the seed's full replay for EVERY position in the history.
        region, _log, va = make_logged_region(machine)
        engine = ReplayEngine(region, checkpoint_interval=interval)
        drive_random_writes(proc, va, region.size, seed, 120)
        total = len(engine)
        assert total == 120
        for n in range(total + 1):
            assert engine.state_at(n) == engine.full_replay_state_at(n), (
                seed,
                interval,
                n,
            )

    def test_final_position_matches_live_memory(self, machine, proc):
        region, _log, va = make_logged_region(machine)
        engine = ReplayEngine(region)
        drive_random_writes(proc, va, region.size, 3, 200)
        machine.quiesce()
        assert engine.state_at(len(engine)) == bytes(region.segment.snapshot())

    def test_near_tip_seek_is_o_distance(self, machine, proc):
        region, _log, va = make_logged_region(machine)
        engine = ReplayEngine(region, checkpoint_interval=16)
        drive_random_writes(proc, va, region.size, 4, 400)
        total = len(engine)
        engine.state_at(total)  # builds checkpoints up to the tip
        before = engine.stats.records_replayed
        engine.state_at(total - 1)
        # One near-tip seek replays at most one checkpoint interval of
        # records, never the 400-write history.
        assert engine.stats.records_replayed - before < 16
        assert engine.stats.checkpoints_captured == 400 // 16

    def test_near_tip_seek_burst_beats_full_replay_tenfold(self, machine, proc):
        # A debugger stepping near the tip of a long history: 80 seeks
        # over 8,000 writes, timed from a cold engine (checkpoint build
        # included), bit-identical to and >= 10x faster than full replay.
        region, _log, va = make_logged_region(machine, log_kwargs={"size": 32 * 1024 * 1024})
        engine = ReplayEngine(region, checkpoint_interval=64)
        rng = random.Random(0)
        for _ in range(8000):
            proc.write(va + 4 * rng.randrange(region.size // 4), rng.randrange(2**32))
        total = len(engine)
        assert total == 8000
        positions = [total - 1 - i for i in range(80)]
        t0 = time.perf_counter()
        fast = [engine.state_at(n) for n in positions]
        fast_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        slow = [engine.full_replay_state_at(n) for n in positions]
        slow_wall = time.perf_counter() - t0
        assert fast == slow
        speedup = slow_wall / fast_wall
        assert speedup >= 10.0, f"checkpointed seek speedup {speedup:.2f}x below the 10x floor"

    def test_writes_after_a_seek_extend_history(self, machine, proc):
        region, _log, va = make_logged_region(machine)
        engine = ReplayEngine(region, checkpoint_interval=8)
        drive_random_writes(proc, va, region.size, 5, 30)
        engine.state_at(10)
        drive_random_writes(proc, va, region.size, 6, 30)
        assert len(engine) == 60
        for n in (0, 17, 42, 60):
            assert engine.state_at(n) == engine.full_replay_state_at(n)


class TestCycleIndexing:
    def test_cycle_maps_to_position(self, machine, proc):
        region, _log, va = make_logged_region(machine)
        engine = ReplayEngine(region)
        proc.write(va, 1)
        machine.quiesce()
        mid_cycle = machine.time()
        proc.compute(10_000)
        proc.write(va + 4, 2)
        machine.quiesce()
        assert engine.position_of_cycle(mid_cycle) == 1
        assert engine.position_of_cycle(machine.time()) == 2
        assert engine.position_of_cycle(0) == 0

    def test_state_at_cycle(self, machine, proc):
        region, _log, va = make_logged_region(machine)
        engine = ReplayEngine(region)
        proc.write(va, 0xAA)
        machine.quiesce()
        then = machine.time()
        proc.compute(10_000)
        proc.write(va, 0xBB)
        state = engine.state_at_cycle(then)
        assert int.from_bytes(state[0:4], "little") == 0xAA


class TestLogShapeChanges:
    def test_truncation_rebuilds_history(self, machine, proc):
        region, log, va = make_logged_region(machine)
        engine = ReplayEngine(region, checkpoint_interval=4)
        drive_random_writes(proc, va, region.size, 7, 20)
        engine.state_at(len(engine))
        log.truncate(10 * log.record_size)
        assert len(engine) == 10
        assert engine.stats.cache_rebuilds == 1
        assert engine.state_at(10) == engine.full_replay_state_at(10)

    def test_rewind_rebuilds_history(self, machine, proc):
        region, log, va = make_logged_region(machine)
        engine = ReplayEngine(region, checkpoint_interval=4)
        drive_random_writes(proc, va, region.size, 8, 20)
        engine.state_at(len(engine))
        log.rewind(5 * log.record_size)
        assert len(engine) == 5
        assert engine.state_at(5) == engine.full_replay_state_at(5)


class TestErrorsAndCosts:
    def test_out_of_range_position_rejected(self, machine, proc):
        region, _log, va = make_logged_region(machine)
        engine = ReplayEngine(region)
        proc.write(va, 1)
        with pytest.raises(LoggingError, match="outside history"):
            engine.state_at(2)
        with pytest.raises(LoggingError, match="outside history"):
            engine.full_replay_state_at(-1)

    def test_bad_interval_rejected(self, machine, proc):
        region, _log, _va = make_logged_region(machine)
        with pytest.raises(LoggingError):
            ReplayEngine(region, checkpoint_interval=0)

    def test_attaches_log_when_region_unlogged(self, machine, proc):
        from repro.core.region import StdRegion
        from repro.core.segment import StdSegment

        region = StdRegion(StdSegment(2 * PAGE_SIZE, machine=machine))
        va = region.bind(proc.address_space())
        engine = ReplayEngine(region)
        assert region.log_segment is engine.log
        proc.write(va, 9)
        assert len(engine) == 1

    def test_checkpoints_charge_deferred_copy_cycles(self, machine, proc):
        from repro.core.deferred_copy import ResetStats, checkpoint_cost_cycles

        region, _log, va = make_logged_region(machine)
        engine = ReplayEngine(region, checkpoint_interval=4)
        for i in range(4):
            proc.write(va + 4 * i, i)  # one dirty page, 1..4 dirty lines
        engine.state_at(4)
        (base, ckpt) = engine.checkpoints
        assert base == Checkpoint(0, 0, 0, 0)
        assert ckpt.position == 4
        assert ckpt.dirty_pages == 1
        expected = checkpoint_cost_cycles(
            machine.config,
            ResetStats(
                pages_scanned=region.size // PAGE_SIZE,
                dirty_pages=1,
                dirty_lines=ckpt.dirty_lines,
            ),
        )
        assert ckpt.cost_cycles == expected
        assert engine.checkpoint_cost_cycles == expected


class TestCheckpointStore:
    CONFIG = MachineConfig(memory_bytes=32 * 1024 * 1024)

    def test_materialize_overlays_newest_version(self):
        base = bytes(2 * PAGE_SIZE)
        store = CheckpointStore(base, self.CONFIG)
        s1 = bytearray(base)
        s1[0] = 0x11
        store.capture(4, s1, {0}, 1)
        s2 = bytearray(s1)
        s2[PAGE_SIZE] = 0x22
        store.capture(8, s2, {1}, 1)
        assert store.materialize(0) == bytearray(base)
        assert bytes(store.materialize(4)) == bytes(s1)
        assert bytes(store.materialize(8)) == bytes(s2)
        assert store.nearest(7) == 4
        assert store.nearest(100) == 8

    def test_capture_must_move_forward(self):
        store = CheckpointStore(bytes(PAGE_SIZE), self.CONFIG)
        store.capture(4, bytearray(PAGE_SIZE), set(), 0)
        with pytest.raises(LoggingError):
            store.capture(4, bytearray(PAGE_SIZE), set(), 0)

    def test_materialize_requires_exact_position(self):
        store = CheckpointStore(bytes(PAGE_SIZE), self.CONFIG)
        store.capture(4, bytearray(PAGE_SIZE), set(), 0)
        with pytest.raises(LoggingError, match="not a checkpoint position"):
            store.materialize(3)

    def test_base_must_be_whole_pages(self):
        with pytest.raises(LoggingError):
            CheckpointStore(b"x" * 100, self.CONFIG)
