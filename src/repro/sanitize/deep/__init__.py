"""lvm-verify: whole-program (interprocedural) invariant analysis.

The per-function AST rules in :mod:`repro.sanitize.rules` catch local
pattern violations; this package *proves* protocol properties on every
path through the program, in the spirit of Eraser-style protocol
checking:

* :mod:`repro.sanitize.deep.project` — loads a source tree into an
  indexed whole-program model (functions, classes, attribute types);
* :mod:`repro.sanitize.deep.cfg` — per-function control-flow graphs
  with exception edges (try/except/finally, with, early returns);
* :mod:`repro.sanitize.deep.callgraph` — a project call graph with
  receiver-typed method resolution and SCC condensation, so function
  summaries can be computed bottom-up;
* :mod:`repro.sanitize.deep.durability` — **LVM101**: on every path
  from a commit/append to a durability acknowledgement, a flush on
  the owning log device dominates the ack (sync, group-commit, and
  crash paths);
* :mod:`repro.sanitize.deep.units` — **LVM102**: a unit lattice
  {cycles, wall, bytes, count, unknown} propagated through
  assignments, calls, and returns, so cycle integers can never mix
  with wall-clock or byte quantities interprocedurally;
* :mod:`repro.sanitize.deep.spans` — **LVM103**: every probe-spine
  ``stage_open`` is matched by a ``stage_close`` on all paths that
  complete normally, and instrumentation gates never control core
  behaviour;
* :mod:`repro.sanitize.deep.reach` — **LVM104**: every registered
  fault site is statically reachable from a public entry point;
* :mod:`repro.sanitize.deep.baseline` / ``report`` — the committed
  intentional-exception baseline and the JSON / SARIF renderers;
* :mod:`repro.sanitize.deep.runner` — ``python -m repro lint --deep``.
"""

from repro.sanitize.deep.runner import DeepResult, run_deep

__all__ = ["DeepResult", "run_deep"]
