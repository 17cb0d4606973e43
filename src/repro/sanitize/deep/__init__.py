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
  receiver-typed method resolution;
* :mod:`repro.sanitize.deep.absint` — demand-driven interprocedural
  summaries solved to a fixpoint;
* :mod:`repro.sanitize.deep.durability` — **LVM101**: on every path
  from a commit/append to a durability acknowledgement, a flush on
  the owning log device dominates the ack (sync, group-commit, and
  crash paths);
* :mod:`repro.sanitize.deep.report` — the JSON / SARIF renderers;
* :mod:`repro.sanitize.deep.runner` — ``python -m repro lint --deep``.
"""

from repro.sanitize.deep.runner import DeepResult, run_deep

__all__ = ["DeepResult", "run_deep"]
