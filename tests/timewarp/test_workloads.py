"""Unit tests: workload models and the deterministic event hash."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.timewarp.sequential import SequentialSimulation
from repro.timewarp.workloads import (
    PholdModel,
    SyntheticModel,
    event_hash,
    padded_object_size,
)


class TestEventHash:
    @given(st.lists(st.integers(0, 2**62), min_size=1, max_size=5))
    def test_deterministic(self, values):
        assert event_hash(*values) == event_hash(*values)

    def test_order_sensitive(self):
        assert event_hash(1, 2) != event_hash(2, 1)

    def test_spreads_values(self):
        outputs = {event_hash(7, i) % 1000 for i in range(200)}
        assert len(outputs) > 150  # no obvious clustering

    def test_64_bit_range(self):
        assert 0 <= event_hash(123) < 2**64


class TestPaddedObjectSize:
    @pytest.mark.parametrize(
        "size,padded", [(1, 16), (16, 16), (17, 32), (64, 64), (100, 112)]
    )
    def test_rounds_to_lines(self, size, padded):
        assert padded_object_size(size) == padded


class TestSyntheticModel:
    def test_too_many_writes_rejected(self):
        with pytest.raises(ValueError):
            SyntheticModel(c=10, s=16, w=8)  # 8 word writes need 32 bytes

    def test_initial_events_cover_objects(self):
        model = SyntheticModel(c=10, s=32, w=1, num_objects=5)
        events = model.initial_events()
        assert sorted(e[1] for e in events) == list(range(5))

    def test_writes_stay_inside_object(self):
        model = SyntheticModel(c=10, s=32, w=8, num_objects=2)

        class Probe:
            now = 5

            def compute(self, c):
                pass

            def write_state(self, obj, offset, value):
                assert 0 <= offset <= 32 - 4
                assert offset % 4 == 0

            def write_states(self, obj, writes):
                for offset, value in writes:
                    self.write_state(obj, offset, value)

            def read_state(self, obj, offset):
                return 0

            def schedule(self, dest, delay, payload=0):
                assert 0 <= dest < 2
                assert delay >= 1

        model.handle_event(Probe(), 0, 0)

    def test_sequential_run_is_repeatable(self):
        a = SequentialSimulation(SyntheticModel(c=5, s=32, w=2, seed=3), 100).run()
        b = SequentialSimulation(SyntheticModel(c=5, s=32, w=2, seed=3), 100).run()
        assert a.final_state == b.final_state
        assert a.events_processed == b.events_processed

    def test_different_seeds_differ(self):
        a = SequentialSimulation(SyntheticModel(c=5, s=32, w=2, seed=1), 100).run()
        b = SequentialSimulation(SyntheticModel(c=5, s=32, w=2, seed=2), 100).run()
        assert a.final_state != b.final_state


class TestPholdModel:
    def test_population_in_flight(self):
        model = PholdModel(num_objects=4, population=6)
        assert len(model.initial_events()) == 6

    def test_event_count_grows_with_end_time(self):
        short = SequentialSimulation(PholdModel(seed=5), 40).run()
        long = SequentialSimulation(PholdModel(seed=5), 160).run()
        assert long.events_processed > short.events_processed

    def test_checksum_captures_order(self):
        """The checksum state word depends on processing order, so any
        mis-ordered optimistic execution would be caught."""
        res = SequentialSimulation(PholdModel(seed=5), 100).run()
        checksums = [
            int.from_bytes(state[4:8], "little")
            for state in res.final_state.values()
        ]
        assert any(checksums)

    def test_zero_delay_schedule_rejected(self):

        sim = SequentialSimulation(PholdModel(), 10)
        ctx = sim._ctx
        from repro.timewarp.event import Event

        object.__setattr__  # silence lint; Event is frozen
        ctx._event = Event(recv_time=5, dest_obj=0, payload=0, uid=1)
        with pytest.raises(SimulationError):
            ctx.schedule(0, 0)
