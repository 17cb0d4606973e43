"""Package entry point: ``python -m repro [COMMAND ...]``.

With no arguments, boots the simulated ParaDiGM machine, runs the
paper's section 2.2 example, and prints a short tour of what is in the
box.  ``python -m repro trace <workload>`` captures a cycle-domain
Perfetto trace of a canned workload (see :mod:`repro.obs.cli`);
``python -m repro lint`` checks the simulator invariants,
``python -m repro race`` replays canned workloads under the log-race
sanitizer (see :mod:`repro.sanitize.cli`),
``python -m repro replay`` runs the checkpointed-replay smokes
(see :mod:`repro.replay.cli`), ``python -m repro serve`` drives
concurrent asyncio clients against one recoverable machine over a
chosen log backend (see :mod:`repro.serve.cli`), and
``python -m repro analyze`` runs the online log-stream analytics in
``report`` or ``watch`` mode (see :mod:`repro.analytics.cli`),
``python -m repro obs postmortem`` loads a crash-forensics bundle
(see :mod:`repro.obs.postmortem`), and ``python -m repro paper``
regenerates the paper's tables and figures (see :mod:`repro.paper`).
"""

import importlib
import sys

from repro import (
    LogSegment,
    StdRegion,
    StdSegment,
    __version__,
    boot,
    this_process,
)


def demo() -> int:
    machine = boot()
    config = machine.config
    print(f"Logged Virtual Memory reproduction v{__version__}")
    print(f"(Cheriton & Duda, SOSP 1995)\n")
    print(f"machine: {config.num_cpus} CPUs @ {config.clock_hz // 10**6} MHz, "
          f"{config.memory_bytes >> 20} MB memory, "
          f"{'on-chip' if config.on_chip_logger else 'bus-snooping'} logger")

    seg = StdSegment(4096)
    region = StdRegion(seg)
    log = LogSegment()
    region.log(log)
    proc = this_process()
    va = region.bind(proc.address_space())

    for i in range(4):
        proc.write(va + 4 * i, 0xC0DE0000 + i)
    machine.quiesce()

    print(f"\nwrote 4 words to a logged region; the hardware logged:")
    for record in log.records():
        print(f"  addr={record.addr:#010x} value={record.value:#010x} "
              f"t={record.timestamp}")
    print(f"\nmachine time: {machine.time()} cycles")
    print("\ntry the examples/ directory, `pytest tests/`, "
          "`python -m repro trace rvm`, and "
          "`python -m repro paper`")
    return 0


#: subcommand -> (module, entry point), imported only when chosen
COMMANDS = {
    "trace": ("repro.obs.cli", "main"),
    "lint": ("repro.sanitize.cli", "lint_main"),
    "race": ("repro.sanitize.cli", "race_main"),
    "replay": ("repro.replay.cli", "main"),
    "serve": ("repro.serve.cli", "main"),
    "analyze": ("repro.analytics.cli", "main"),
    "obs": ("repro.obs.cli", "obs_main"),
    "paper": ("repro.paper", "main"),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in COMMANDS:
        module, entry = COMMANDS[argv[0]]
        return getattr(importlib.import_module(module), entry)(argv[1:])
    return demo()


if __name__ == "__main__":
    raise SystemExit(main())
