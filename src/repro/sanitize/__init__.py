"""lvm-san: invariant lint + cycle-domain race sanitizer.

Two tools over one idea — the repro's headline claims rest on
invariants that should be machine-checked, not re-discovered per PR:

* :mod:`repro.sanitize.engine` / :mod:`repro.sanitize.rules` — an
  AST-based lint framework (``python -m repro lint``) for what no test
  run can see: no wall-clock reads (LVM001) or unseeded randomness
  (LVM002) in cycle-domain modules, fault-site literals resolving
  against the generated registry :mod:`repro.faults.sites` (LVM005),
  and no dead suppression comments (LVM007).  ``lint --deep`` adds
  the interprocedural durability-ordering proof (LVM101).  Per-rule
  suppression: ``# lvm-san: ignore[LVM001]``.
* :mod:`repro.sanitize.race` — a TSan-style vector-clock
  happens-before detector for unsynchronized same-page logged writes
  from different CPUs (``python -m repro race <workload>``), which
  would make bus/log-record order nondeterministic.  It also checks
  that every probe-spine ``stage_open`` meets its ``stage_close``.
  It subscribes to the :mod:`repro.probe` spine, so the disabled cost
  is the spine's one ``is None`` check.

This ``__init__`` is deliberately lazy: nothing here may drag the
simulator (or the linter) into the import graph of whoever imports
one submodule.
"""

from __future__ import annotations

_LAZY = {
    "Finding": "engine",
    "Rule": "engine",
    "lint_paths": "engine",
    "lint_source": "engine",
    "all_rules": "rules",
    "LogRaceDetector": "race",
    "RaceReport": "race",
    "VectorClock": "vclock",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
