"""The benchmark's four workloads, each loading a different simulator layer.

A workload is a list of *units*.  Each unit makes its inputs from the
seed once, in its constructor, and is then run any number of times:
``setup()`` boots a fresh machine and builds segments, libraries and
warm state (timed as set-up), ``run()`` is the measured phase and
returns the ops it finished, and ``check()`` / ``digest()`` /
``counters()`` read the outputs afterwards, untimed.  Every repeat of a
unit simulates the same inputs, so its digest must repeat exactly.

Why each workload is here, and which layer it loads, is in README.md.
"""

from __future__ import annotations

import asyncio
import random
import time

from repro.backends import make_backend
from repro.baselines.bcopy import vm_copy
from repro.core.context import boot, set_current_machine
from repro.core.log_segment import LogSegment
from repro.core.region import StdRegion
from repro.core.segment import StdSegment
from repro.faults.checker import capture_snapshot, recover
from repro.hw.params import PAGE_SIZE, MachineConfig
from repro.obs import causal
from repro.obs import core as obscore
from repro.obs import flight as obsflight
from repro.obs.causal import STAGES, CausalTracker
from repro.obs.core import Observability
from repro.obs.flight import FlightRecorder
from repro.rvm import RLVM, RVM, TPCABenchmark, TPCAConfig
from repro.rvm.rlvm import CONTROL_BYTES
from repro.serve.server import ClientSession, TxnServer
from repro.timewarp import SequentialSimulation, TimeWarpSimulation
from repro.timewarp.state_saving import AdaptiveLVMSaver
from repro.timewarp.workloads import PhasedModel

from perfbench import oracles

MIB = 1024 * 1024


def derive_seed(seed: int, *salt) -> int:
    """A 32-bit seed for one input, derived from the run's seed."""
    return random.Random("/".join(map(str, (seed,) + salt))).getrandbits(32)


def machine_counters(machine) -> dict:
    """Exact simulated counts read from a machine after its run."""
    stats = machine.logger.stats
    return {
        "hw.logger.records_logged": stats.records_logged,
        "hw.logger.overload_events": stats.overload_events,
        "hw.logger.logging_faults": stats.logging_faults,
        "hw.logger.records_dropped": stats.records_dropped,
        "hw.cpu.write_through_stores": sum(c.stats.write_through_stores for c in machine.cpus),
        "hw.cpu.write_buffer_stalls": sum(c.stats.write_buffer_stalls for c in machine.cpus),
        "hw.bus.transactions": machine.bus.transaction_count,
        "hw.bus.busy_cycles": machine.bus.total_busy_cycles,
        "sim.cycles": machine.time(),
    }


def time_warp_counters(sim, result) -> dict:
    savers = [s.saver for s in sim.schedulers]
    return {
        "timewarp.events_processed": result.events_processed,
        "timewarp.events_committed": result.events_committed,
        "timewarp.rollbacks": result.rollbacks,
        "timewarp.rollforward_records": sum(getattr(s, "rollforward_records", 0) for s in savers),
        "timewarp.snapshots": sum(getattr(s, "snapshot_count", 0) for s in savers),
    }


def device_counters(device, user_bytes: int) -> dict:
    """Log-device work; bytes are counted where they reach the medium."""
    medium = getattr(device, "inner", device)
    return {
        "backends.write_ops": device.write_ops,
        "backends.bytes_written": medium.bytes_written,
        "backends.flush_ops": device.flush_ops,
        "backends.barrier_ops": device.barrier_ops,
        "backends.user_bytes": user_bytes,
    }


def merge_counters(total: dict, more: dict) -> None:
    for key, value in more.items():
        if isinstance(value, list):
            total.setdefault(key, []).extend(value)
        else:
            total[key] = total.get(key, 0) + value


class Unit:
    """One independently set-up and timed piece of a workload."""

    name = "unit"

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, samples: list) -> int:
        """The measured phase: appends host ns per op to ``samples``."""
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def digest(self) -> bytes:
        raise NotImplementedError

    def counters(self) -> dict:
        raise NotImplementedError

    def teardown(self) -> None:
        set_current_machine(None)
        for key in [k for k in vars(self) if k.startswith("live_")]:
            delattr(self, key)


# ----------------------------------------------------------------------
# tw_phased: rollback storms on two schedulers, adaptive LVM saver
# ----------------------------------------------------------------------
PHASED_INSTANCES = 4
PHASED_PERIOD = 80
PHASED_STORM = 7
PHASED_END_TIME = 6 * PHASED_PERIOD
PHASED_GVT_INTERVAL = 1024


class PhasedRun(Unit):
    """One PhasedModel run covering six storm/quiet periods.

    The model runs inside one call, so a latency sample here is one
    executive step: a scheduler processing one event, with any rollback
    it starts.
    """

    def __init__(self, index: int, model_seed: int) -> None:
        self.name = f"phased #{index}"
        self.model_seed = model_seed
        self.reference = SequentialSimulation(self.model(), PHASED_END_TIME).run()

    def model(self) -> PhasedModel:
        return PhasedModel(period=PHASED_PERIOD, storm_len=PHASED_STORM, seed=self.model_seed)

    def setup(self) -> None:
        machine = boot(MachineConfig(num_cpus=2, memory_bytes=64 * MIB))
        self.live_sim = TimeWarpSimulation(
            self.model(),
            end_time=PHASED_END_TIME,
            n_schedulers=2,
            machine=machine,
            gvt_interval=PHASED_GVT_INTERVAL,
            saver_factory=AdaptiveLVMSaver,
        )

    def run(self, samples: list) -> int:
        clock = time.perf_counter_ns
        for sched in self.live_sim.schedulers:
            def timed_step(step=sched.step) -> bool:
                start = clock()
                busy = step()
                samples.append(clock() - start)
                return busy
            sched.step = timed_step
        self.live_result = self.live_sim.run()
        return self.live_result.events_committed

    def check(self) -> list[str]:
        ref = self.reference
        return oracles.time_warp_matches_sequential(
            self.live_result.final_state,
            self.live_result.events_committed,
            ref.final_state,
            ref.events_processed,
        )

    def digest(self) -> bytes:
        r = self.live_result
        return oracles.fingerprint(
            r.elapsed_cycles,
            r.events_processed,
            self.live_sim.machine.logger.stats.records_logged,
            r.final_state,
        )

    def counters(self) -> dict:
        total = machine_counters(self.live_sim.machine)
        merge_counters(total, time_warp_counters(self.live_sim, self.live_result))
        return total


def tw_phased(seed: int) -> list[Unit]:
    return [PhasedRun(i, derive_seed(seed, "phased", i)) for i in range(PHASED_INSTANCES)]


# ----------------------------------------------------------------------
# tpca: TPC-A on three library/device configurations
# ----------------------------------------------------------------------
TPCA_CONFIGS = (("rvm", "ram", 0), ("rlvm", "ram", 0), ("rvm", "disk", 8))
TPCA_TRANSACTIONS = 1000
#: 1000 = 15 * 64 + 40: the run stops 40 transactions past a truncation
TPCA_TRUNCATE_EVERY = 64
#: bytes each debit-credit asks to make durable: 3 balances + history
TPCA_USER_BYTES = 3 * 4 + 16


class TpcaRun(Unit):
    """TPC-A transactions on one library over one log device."""

    def __init__(self, library: str, device: str, group: int, tpca_seed: int) -> None:
        self.library, self.device, self.group = library, device, group
        self.tpca_seed = tpca_seed
        mode = f"group {group}" if group else "sync"
        self.name = f"tpca {library}/{device} {mode}"

    def setup(self) -> None:
        machine = boot(MachineConfig(memory_bytes=64 * MIB))
        proc = machine.current_process
        device = make_backend(self.device, 8 * MIB, group_commit=bool(self.group))
        lib = (RVM if self.library == "rvm" else RLVM)(proc, disk=device)
        bench = TPCABenchmark(lib, TPCAConfig(seed=self.tpca_seed))
        rseg = lib.segments["tpca"]
        for off in range(0, rseg.size, PAGE_SIZE):
            proc.read(rseg.base_va + off)
        machine.quiesce()
        self.live_machine, self.live_lib, self.live_bench = machine, lib, bench
        self.live_wal_bytes = 0

    def run(self, samples: list) -> int:
        lib, bench, group = self.live_lib, self.live_bench, self.group
        clock = time.perf_counter_ns
        for i in range(1, TPCA_TRANSACTIONS + 1):
            start = clock()
            bench.run_transaction(flush=not group)
            samples.append(clock() - start)
            if group and i % group == 0:
                lib.flush()
            if i % TPCA_TRUNCATE_EVERY == 0:
                if group:
                    lib.flush()
                self.live_wal_bytes += lib.wal.tail
                lib.truncate()
        if group:
            lib.flush()
        return TPCA_TRANSACTIONS

    def _recovered(self):
        """WAL-replay recovery of the durable state (computed once per run)."""
        if not hasattr(self, "live_recovered"):
            self.live_recovered = recover(capture_snapshot(self.live_lib))
        return self.live_recovered

    def check(self) -> list[str]:
        rseg = self.live_lib.segments["tpca"]
        data_off = CONTROL_BYTES if self.library == "rlvm" else 0
        recovered = self._recovered()
        last_truncate = TPCA_TRANSACTIONS - TPCA_TRANSACTIONS % TPCA_TRUNCATE_EVERY
        return oracles.tpca_recovery(
            self.live_bench.is_consistent(),
            recovered.committed_tids,
            range(last_truncate + 1, TPCA_TRANSACTIONS + 1),
            recovered.images["tpca"][data_off:],
            rseg.segment.read_bytes(0, rseg.segment.size)[data_off:],
        )

    def digest(self) -> bytes:
        recovered = self._recovered()
        return oracles.fingerprint(
            self.live_machine.time(),
            self.live_machine.logger.stats.records_logged,
            sorted(recovered.committed_tids),
            recovered.images["tpca"],
        )

    def counters(self) -> dict:
        lib = self.live_lib
        total = machine_counters(self.live_machine)
        total["rvm.wal.appends"] = lib.wal.appends
        total["rvm.wal.bytes"] = self.live_wal_bytes + lib.wal.tail
        merge_counters(total, device_counters(lib.disk, TPCA_TRANSACTIONS * TPCA_USER_BYTES))
        return total


def tpca(seed: int) -> list[Unit]:
    return [
        TpcaRun(library, device, group, derive_seed(seed, "tpca", library, device, group))
        for library, device, group in TPCA_CONFIGS
    ]


# ----------------------------------------------------------------------
# serve16: 16 closed-loop clients against TxnServer, instrumented
# ----------------------------------------------------------------------
SERVE_CLIENTS = 16
SERVE_TXNS = 160
SERVE_WRITES = 3
SERVE_GROUP = 8
SERVE_SEG_BYTES = 64 * 1024


class ServeRun(Unit):
    """One serving run: each client awaits every reply before its next request."""

    def __init__(self, seed: int) -> None:
        self.name = "serve16"
        self.scripts = []
        for client in range(SERVE_CLIENTS):
            rng = random.Random(derive_seed(seed, "serve", client))
            self.scripts.append([
                [(rng.randrange(SERVE_SEG_BYTES // 4), rng.getrandbits(32)) for _ in range(SERVE_WRITES)]
                for _ in range(SERVE_TXNS)
            ])

    def setup(self) -> None:
        machine = boot(MachineConfig(memory_bytes=32 * MIB))
        device = make_backend("disk", 4 * MIB, group_commit=True)
        lib = RLVM(machine.current_process, disk=device)
        self.live_machine, self.live_lib = machine, lib
        self.live_server = TxnServer(lib, group_size=SERVE_GROUP, seg_bytes=SERVE_SEG_BYTES)
        self.live_tracker = CausalTracker()

    async def _client(self, client: int, samples: list) -> None:
        session = ClientSession(self.live_server, client)
        clock = time.perf_counter_ns
        for writes in self.scripts[client]:
            await session.begin()
            for word, value in writes:
                await session.write(word, value)
            start = clock()
            await session.commit()
            samples.append(clock() - start)

    async def _drive(self, samples: list) -> None:
        server = self.live_server
        serving = asyncio.ensure_future(server.serve())
        await asyncio.gather(*(self._client(c, samples) for c in range(SERVE_CLIENTS)))
        await ClientSession(server, -1).shutdown()
        await serving

    def run(self, samples: list) -> int:
        # The instrumentation `python -m repro serve` installs.
        with obscore.installed(Observability()), causal.installed(self.live_tracker), \
                obsflight.installed(FlightRecorder()):
            asyncio.run(self._drive(samples))
        return len(self.live_server.acked)

    def check(self) -> list[str]:
        server = self.live_server
        return oracles.serve_acks(
            SERVE_CLIENTS * SERVE_TXNS,
            server.acked,
            server.commit_order,
            self.live_lib.wal.committed_tids(),
            server.crashed is not None,
        )

    def digest(self) -> bytes:
        server = self.live_server
        segment = self.live_lib.segments["db"].segment
        return oracles.fingerprint(
            self.live_machine.time(),
            server.acked,
            server.commit_latencies,
            sorted(self.live_lib.wal.committed_tids()),
            segment.read_bytes(0, segment.size),
        )

    def counters(self) -> dict:
        lib, server = self.live_lib, self.live_server
        total = machine_counters(self.live_machine)
        total["rvm.wal.appends"] = lib.wal.appends
        total["rvm.wal.bytes"] = lib.wal.tail
        merge_counters(
            total, device_counters(lib.disk, len(server.acked) * SERVE_WRITES * 4)
        )
        total["serve.acked"] = len(server.acked)
        total["serve.commit_cycles"] = list(server.commit_latencies)
        for stage in STAGES:
            total[f"serve.stage.{stage}_cycles"] = sum(
                ctx.stages.get(stage, 0) for ctx in self.live_tracker.completed
            )
        return total


def serve16(seed: int) -> list[Unit]:
    return [ServeRun(seed)]


# ----------------------------------------------------------------------
# bulk_copy: a logged-region copy through the bulk-access engine
# ----------------------------------------------------------------------
#: an eighth of the modelled 4 MiB L2, so the copy fits it
COPY_BYTES = 512 * 1024
#: bytes per vm_copy call; each call is one latency sample
COPY_CHUNK = 4 * 1024


class BulkCopy(Unit):
    """vm_copy(use_blocks=True) of seeded bytes into a logged region."""

    def __init__(self, seed: int) -> None:
        self.name = "bulk_copy"
        self.data = random.Random(derive_seed(seed, "bulk")).randbytes(COPY_BYTES)

    def setup(self) -> None:
        machine = boot(MachineConfig(memory_bytes=64 * MIB))
        proc = machine.current_process
        src = StdSegment(COPY_BYTES, machine=machine)
        src_va = StdRegion(src).bind(proc.address_space())
        dst = StdSegment(COPY_BYTES, machine=machine)
        dst_region = StdRegion(dst)
        log = LogSegment(size=8 * MIB, machine=machine)
        dst_region.log(log)
        dst_va = dst_region.bind(proc.address_space())
        src.write_bytes(0, self.data)
        # Map every page (loads are not logged) so the copy takes no faults.
        for off in range(0, COPY_BYTES, PAGE_SIZE):
            proc.read(src_va + off)
            proc.read(dst_va + off)
        machine.quiesce()
        self.live_machine, self.live_dst, self.live_log = machine, dst, log
        self.live_src_va, self.live_dst_va = src_va, dst_va

    def run(self, samples: list) -> int:
        proc = self.live_machine.current_process
        clock = time.perf_counter_ns
        kib = COPY_CHUNK // 1024
        for off in range(0, COPY_BYTES, COPY_CHUNK):
            start = clock()
            vm_copy(proc, self.live_src_va + off, self.live_dst_va + off, COPY_CHUNK, use_blocks=True)
            samples.append((clock() - start) / kib)
        self.live_machine.quiesce()
        return COPY_BYTES // 1024

    def check(self) -> list[str]:
        return oracles.block_copy(
            self.data, self.live_dst.read_bytes(0, COPY_BYTES), self.live_log.records_appended
        )

    def digest(self) -> bytes:
        log = self.live_log
        return oracles.fingerprint(
            self.live_machine.time(),
            log.read_bytes(0, log.append_offset),
            self.live_dst.read_bytes(0, COPY_BYTES),
        )

    def counters(self) -> dict:
        return machine_counters(self.live_machine)


def bulk_copy(seed: int) -> list[Unit]:
    return [BulkCopy(seed)]


#: workload name -> (function making its units from a seed, op name)
WORKLOADS = {
    "tw_phased": (tw_phased, "committed event"),
    "tpca": (tpca, "committed transaction"),
    "serve16": (serve16, "acked commit"),
    "bulk_copy": (bulk_copy, "KiB copied"),
}
