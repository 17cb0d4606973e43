"""Unit tests: system bus serialisation, L1 cache model, CPU timing."""

import pytest

from repro.hw.bus import SystemBus
from repro.hw.cache import L1Cache
from repro.hw.clock import Clock
from repro.hw.cpu import CPU
from repro.hw.params import MachineConfig

CFG = MachineConfig()


def make_cpu(config=CFG):
    bus = SystemBus()
    clock = Clock(config.timestamp_divider)
    return CPU(0, config, bus, clock), bus, clock


class TestSystemBus:
    def test_transaction_when_free(self):
        bus = SystemBus()
        assert bus.acquire(10, 5) == 15
        assert bus.busy_until == 15

    def test_transactions_serialise(self):
        bus = SystemBus()
        bus.acquire(0, 10)
        # Requested at 5 but the bus is busy until 10.
        assert bus.acquire(5, 5) == 15

    def test_busy_accounting(self):
        bus = SystemBus()
        bus.acquire(0, 5)
        bus.acquire(0, 5)
        assert bus.total_busy_cycles == 10
        assert bus.transaction_count == 2
        assert bus.utilisation(20) == 0.5

    def test_snooper_sees_write(self):
        """The bus hands each logged write to its one logger as
        ``(complete, paddr, value, size)``; unlogged writes reach nobody."""
        bus = SystemBus()
        seen = []

        class Snoop:
            def snoop_write(self, cycle, paddr, value, size):
                seen.append((cycle, paddr, value, size))

        bus.logger = Snoop()
        complete = bus.write_transaction(0, 5, 64, 1, 4, 0, 0)
        assert seen == [(complete, 64, 1, 4)]
        bus.write_transaction(0, 5, 64, 2, 4, None, 0)
        assert seen == [(complete, 64, 1, 4)]
        assert bus.transaction_count == 2

    def test_remove_snooper(self):
        """A logger detached from the bus sees no further writes, logged
        or not, while the bus still carries them."""
        bus = SystemBus()
        seen = []

        class Snoop:
            def snoop_write(self, cycle, paddr, value, size):
                seen.append(cycle)

        bus.logger = Snoop()
        bus.logger = None
        bus.write_transaction(0, 5, 0, 0, 4, 0, 0)
        bus.write_transaction(0, 5, 0, 0, 4, None, 0)
        assert seen == []
        assert bus.transaction_count == 2


class TestL1Cache:
    def test_miss_then_hit(self):
        l1 = L1Cache()
        assert l1.access(0x100) is False
        assert l1.access(0x100) is True
        assert l1.access(0x104) is True  # same 16-byte line

    def test_different_lines_miss(self):
        l1 = L1Cache()
        l1.access(0x100)
        assert l1.access(0x110) is False

    def test_direct_mapped_conflict(self):
        l1 = L1Cache(size_bytes=8192, line_size=16)
        l1.access(0)
        assert l1.access(8192) is False  # same index, different tag
        assert l1.access(0) is False  # evicted

    def test_invalidate_all(self):
        l1 = L1Cache()
        l1.access(0x100)
        l1.invalidate_all()
        assert l1.contains(0x100) is False

    def test_invalidate_range(self):
        l1 = L1Cache()
        l1.access(0x100)
        l1.access(0x110)
        l1.access(0x200)
        dropped = l1.invalidate_range(0x100, 32)
        assert dropped == 2
        assert l1.contains(0x200)


class TestCpuTiming:
    def test_compute_advances_local_time(self):
        cpu, _, _ = make_cpu()
        cpu.compute(100)
        assert cpu.now == 100
        assert cpu.stats.compute_cycles == 100

    def test_negative_compute_rejected(self):
        cpu, _, _ = make_cpu()
        with pytest.raises(ValueError):
            cpu.compute(-1)

    def test_cached_read_l2_then_l1(self):
        cpu, _, _ = make_cpu()
        cpu.cached_read(0x100)
        assert cpu.now == CFG.l2_hit_cycles
        cpu.cached_read(0x100)
        assert cpu.now == CFG.l2_hit_cycles + CFG.l1_hit_cycles

    def test_single_write_through_cost(self):
        cpu, _, _ = make_cpu()
        complete = cpu.write_through(0x100, 1, 4, None)
        # The store pipeline (an L1-missing store here), then 5 bus
        # cycles to completion.
        assert cpu.now == CFG.l2_hit_cycles
        assert complete == cpu.now + CFG.write_through_bus_cycles
        # With the buffer drained, a store to the resident line is the
        # 1-cycle store-pipeline cost.
        cpu.drain_write_buffer()
        t = cpu.now
        cpu.write_through(0x104, 1, 4, None)
        assert cpu.now - t == CFG.cached_write_cycles

    def test_saturated_write_through_is_six_cycles(self):
        """Table 2: a word write-through costs ~6 cycles when saturated
        (6.75 in this model: 5 bus + the 1-cycle store, with every 4th
        store missing the L1 on a fresh line)."""
        cpu, _, _ = make_cpu()
        n = 100
        for i in range(n):
            cpu.write_through(0x100 + 4 * i, i, 4, None)
        cpu.drain_write_buffer()
        assert cpu.now == pytest.approx(6.75 * n, rel=0.05)

    def test_write_buffer_hides_latency_with_compute(self):
        """With compute between writes the buffer hides the bus time."""
        cpu, _, _ = make_cpu()
        for i in range(50):
            cpu.compute(20)
            cpu.write_through(0x100 + 4 * i, i, 4, None)
        # Each iteration should cost ~21 cycles (20 compute + 1 issue),
        # not 26 — the bus latency overlaps the compute.
        assert cpu.now <= 50 * 22

    def test_deeper_buffer_reduces_stalls(self):
        shallow, _, _ = make_cpu(CFG.with_changes(write_buffer_depth=1))
        deep, _, _ = make_cpu(CFG.with_changes(write_buffer_depth=8))
        for cpu in (shallow, deep):
            for burst in range(20):
                cpu.compute(60)
                for i in range(4):
                    cpu.write_through(4 * (4 * burst + i), 0, 4, None)
            cpu.drain_write_buffer()
        assert deep.stats.write_buffer_stalls < shallow.stats.write_buffer_stalls
        assert deep.now <= shallow.now

    def test_suspend_until(self):
        cpu, _, _ = make_cpu()
        cpu.compute(10)
        cpu.suspend_until(500)
        assert cpu.now == 500
        assert cpu.stats.suspend_cycles == 490

    def test_suspend_in_past_is_noop(self):
        cpu, _, _ = make_cpu()
        cpu.compute(100)
        cpu.suspend_until(50)
        assert cpu.now == 100

    def test_drain_write_buffer(self):
        cpu, _, _ = make_cpu()
        complete = cpu.write_through(0, 0, 4, None)
        cpu.drain_write_buffer()
        assert cpu.now == complete

    def test_reset_time(self):
        cpu, _, _ = make_cpu()
        cpu.compute(100)
        cpu.reset_time()
        assert cpu.now == 0

    def test_buffered_bus_write_backpressure(self):
        cpu, bus, _ = make_cpu(CFG.with_changes(write_buffer_depth=2))
        for _ in range(10):
            cpu.buffered_bus_write(8)
        # 10 writes x 8 bus cycles serialise; the CPU must have been
        # held back by the 2-deep buffer rather than racing ahead.
        assert cpu.now >= 8 * 8
        assert cpu.stats.write_buffer_stalls > 0
