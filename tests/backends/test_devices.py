"""Unit tests: the pluggable log-device backends.

Every backend shares the :class:`LogDevice` protocol; these tests pin
the per-backend latency models, the group-commit buffer's coalescing
and durability semantics, and the factory.
"""

import pytest

from repro.backends import (
    BACKENDS,
    BLOCK_BYTES,
    GroupCommit,
    RamDisk,
    RotatingDisk,
    TmpfsDisk,
    dram_tmpfs,
    make_backend,
    nvram_tmpfs,
)
from repro.errors import AddressError, ConfigError


def _cost(proc, op):
    t0 = proc.now
    op()
    return proc.now - t0


class TestProtocolAcrossBackends:
    """The shared protocol behaves identically on every device."""

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_write_read_roundtrip(self, machine, proc, name):
        disk = make_backend(name, 4096)
        disk.write(proc.cpu, 128, b"durable")
        assert disk.read(proc.cpu, 128, 7) == b"durable"
        assert disk.peek(128, 7) == b"durable"

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_peek_poke_untimed(self, machine, proc, name):
        disk = make_backend(name, 4096)
        t0 = proc.now
        disk.poke(0, b"abc")
        assert disk.peek(0, 3) == b"abc"
        assert proc.now == t0

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_flush_and_barrier_counted_and_free(self, machine, proc, name):
        """Synchronous devices: flush/barrier are ordering points, not
        I/O — zero cycles, so the paper's Table 3 calibration holds."""
        disk = make_backend(name, 4096)
        assert _cost(proc, lambda: disk.flush(proc.cpu)) == 0
        assert _cost(proc, lambda: disk.barrier(proc.cpu)) == 0
        assert disk.flush_ops == 2  # barrier flushes first
        assert disk.barrier_ops == 1

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_out_of_range_rejected(self, machine, proc, name):
        disk = make_backend(name, 128)
        with pytest.raises(AddressError):
            disk.write(proc.cpu, 120, b"too long!")
        with pytest.raises(AddressError):
            disk.read(proc.cpu, -1, 4)

    def test_zero_size_rejected(self):
        with pytest.raises(AddressError):
            RamDisk(0)


class TestLatencyModels:
    def test_backends_are_ordered_by_write_cost(self, machine, proc):
        """One 256-byte sequential write: ram < dram_tmpfs <
        nvram_tmpfs < disk — the spread the benchmarks measure."""
        costs = {}
        for name in BACKENDS:
            disk = make_backend(name, 4096)
            costs[name] = _cost(proc, lambda d=disk: d.write(proc.cpu, 0, b"x" * 256))
        assert (
            costs["ram"]
            < costs["dram_tmpfs"]
            < costs["nvram_tmpfs"]
            < costs["disk"]
        )

    def test_nvram_drain_applies_to_writes_only(self, machine, proc):
        dram = dram_tmpfs(4096)
        nvram = nvram_tmpfs(4096)
        data = b"x" * 512
        assert _cost(proc, lambda: nvram.write(proc.cpu, 0, data)) > _cost(
            proc, lambda: dram.write(proc.cpu, 0, data)
        )
        assert _cost(proc, lambda: nvram.read(proc.cpu, 0, 512)) == _cost(
            proc, lambda: dram.read(proc.cpu, 0, 512)
        )

    def test_rotating_disk_sequential_vs_seek(self, machine, proc):
        disk = RotatingDisk(1 << 20)
        data = b"x" * BLOCK_BYTES
        first = _cost(proc, lambda: disk.write(proc.cpu, 0, data))
        sequential = _cost(proc, lambda: disk.write(proc.cpu, BLOCK_BYTES, data))
        assert first == sequential  # the head starts at offset 0
        seeking = _cost(proc, lambda: disk.write(proc.cpu, 64 * 1024, data))
        assert seeking - sequential == disk.seek_cycles
        assert disk.seeks == 1

    def test_rotating_disk_head_tracks_reads_too(self, machine, proc):
        disk = RotatingDisk(1 << 20)
        disk.write(proc.cpu, 0, b"x" * 256)
        assert disk.seeks == 0  # head began at offset 0
        disk.read(proc.cpu, 256, 256)  # sequential after the write
        assert disk.seeks == 0
        disk.read(proc.cpu, 0, 256)  # back to the start: a seek
        assert disk.seeks == 1

    def test_larger_transfers_cost_more_everywhere(self, machine, proc):
        for name in BACKENDS:
            disk = make_backend(name, 1 << 20)
            small = _cost(proc, lambda: disk.write(proc.cpu, 0, b"x" * 256))
            # Sequential continuation so the rotating disk does not seek.
            large = _cost(proc, lambda: disk.write(proc.cpu, 256, b"x" * 4096))
            assert large > small, name


class TestGroupCommit:
    def test_buffered_append_is_cheap_and_invisible(self, machine, proc):
        gc = make_backend("disk", 4096, group_commit=True)
        cost = _cost(proc, lambda: gc.write(proc.cpu, 0, b"hello"))
        assert cost < gc.inner.op_overhead_cycles
        assert gc.inner.write_ops == 0
        # Unflushed bytes are not durable: peek sees the medium only.
        assert gc.peek(0, 5) == b"\x00" * 5
        assert gc.durable_bytes()[:5] == b"\x00" * 5
        assert gc.pending_bytes == 5

    def test_flush_is_the_durability_point(self, machine, proc):
        gc = make_backend("ram", 4096, group_commit=True)
        gc.write(proc.cpu, 0, b"hello")
        gc.flush(proc.cpu)
        assert gc.peek(0, 5) == b"hello"
        assert gc.pending_bytes == 0
        assert gc.inner.write_ops == 1

    def test_adjacent_appends_coalesce_into_one_run(self, machine, proc):
        gc = make_backend("disk", 4096, group_commit=True)
        for i in range(8):
            gc.write(proc.cpu, 16 * i, b"a" * 16)
        assert gc.pending_runs == 1
        gc.flush(proc.cpu)
        assert gc.inner.write_ops == 1  # one positioned write, one seek max
        assert gc.peek(0, 128) == b"a" * 128

    def test_overlapping_appends_newer_bytes_win(self, machine, proc):
        gc = make_backend("ram", 4096, group_commit=True)
        gc.write(proc.cpu, 0, b"AAAAAAAA")
        gc.write(proc.cpu, 4, b"BBBBBBBB")
        gc.write(proc.cpu, 2, b"CC")
        assert gc.pending_runs == 1
        gc.flush(proc.cpu)
        assert gc.peek(0, 12) == b"AACCBBBBBBBB"

    def test_disjoint_runs_stay_disjoint_and_sorted(self, machine, proc):
        gc = make_backend("ram", 4096, group_commit=True)
        gc.write(proc.cpu, 1024, b"late")
        gc.write(proc.cpu, 0, b"early")
        assert gc.pending_runs == 2
        gc.flush(proc.cpu)
        assert gc.peek(0, 5) == b"early"
        assert gc.peek(1024, 4) == b"late"
        assert gc.inner.write_ops == 2

    def test_timed_read_flushes_first(self, machine, proc):
        gc = make_backend("ram", 4096, group_commit=True)
        gc.write(proc.cpu, 0, b"fresh")
        assert gc.read(proc.cpu, 0, 5) == b"fresh"
        assert gc.pending_bytes == 0  # the read forced the flush

    def test_lose_volatile_drops_the_batch(self, machine, proc):
        gc = make_backend("ram", 4096, group_commit=True)
        gc.write(proc.cpu, 0, b"gone")
        gc.lose_volatile()
        assert gc.pending_bytes == 0
        gc.flush(proc.cpu)
        assert gc.peek(0, 4) == b"\x00" * 4

    def test_poke_writes_through(self, machine, proc):
        """Torn-write partials must land on the medium, not the buffer."""
        gc = make_backend("ram", 4096, group_commit=True)
        gc.poke(0, b"torn")
        assert gc.inner.peek(0, 4) == b"torn"
        assert gc.pending_bytes == 0

    def test_auto_flush_bounds_the_pending_window(self, machine, proc):
        gc = GroupCommit(RamDisk(1 << 20), max_pending_bytes=1024)
        for i in range(5):
            gc.write(proc.cpu, 512 * i, b"x" * 512)
        assert gc.pending_bytes <= 1024
        assert gc.inner.write_ops > 0

    def test_cannot_stack_group_commit(self):
        with pytest.raises(ConfigError):
            GroupCommit(GroupCommit(RamDisk(4096)))

    def test_group_commit_beats_sync_on_slow_media(self, machine, proc):
        """The point of the layer: N appends + one flush is cheaper
        than N synchronous writes on the rotating disk."""
        appends = [(64 * i, b"x" * 64) for i in range(16)]
        sync = RotatingDisk(1 << 20)
        sync_cost = _cost(
            proc,
            lambda: [sync.write(proc.cpu, o, d) for o, d in appends],
        )
        gc = make_backend("disk", 1 << 20, group_commit=True)

        def batched():
            for o, d in appends:
                gc.write(proc.cpu, o, d)
            gc.flush(proc.cpu)

        group_cost = _cost(proc, batched)
        assert group_cost * 2 <= sync_cost


class TestFactory:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            make_backend("floppy", 4096)

    def test_names_and_sizes(self):
        for name in BACKENDS:
            disk = make_backend(name, 4096)
            assert disk.name == name
            assert disk.size == 4096
        gc = make_backend("disk", 4096, group_commit=True)
        assert gc.name == "disk+group"
        assert gc.size == 4096

    def test_latency_params_pass_through(self, machine, proc):
        disk = make_backend("ram", 4096, op_overhead_cycles=1, per_block_cycles=1)
        assert _cost(proc, lambda: disk.write(proc.cpu, 0, b"x")) == 2
