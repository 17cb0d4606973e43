"""LVM103 — stage balance on every path, plus gate purity.

Two checks close the bug class of a mid-dispatch open span:

**(a) Stage balance.**  Stages are bracketed by the probe spine
(:mod:`repro.probe`): counting ``stage_open`` as +1 and
``stage_close`` as −1, every path that completes *normally* must end
with delta 0.  Paths that leave by exception are exempt — a
CrashPoint abandoning an open stage is intentional (it is the
postmortem's record of what the machine was doing).  Both calls sit
behind the one spine gate local (``sp = probe._ACTIVE``), so the
analysis prunes every ``if sp is None:`` branch and walks the CFG once
with the gate active: a run without subscribers emits no stage events
at all, so it cannot unbalance one.

**(b) Gate purity.**  A traced run is cycle- and log-identical to a
bare one only if gates never change behaviour: inside an
``if <gate> is not None:`` body (the spine gate or the fault plan's),
control-flow statements (``return``, ``raise``, ``break``,
``continue``) and attribute stores are forbidden — instrumentation may
call and bind locals, nothing more.  This is also what makes the gated
*fallback* path equivalent: if the gate body is pure, the
``_ACTIVE is None`` fast path is reachable and behaviourally identical.

The :mod:`repro.obs` package is excluded from both: it implements the
subscribers rather than consuming the gate.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.sanitize.engine import Finding
from repro.sanitize.deep.cfg import CFG, EXC, FALSE, TRUE, Node, build_cfg, calls_at
from repro.sanitize.deep.project import FunctionInfo, Project

RULE_ID = "LVM103"

ENTER_CALLS = frozenset({"stage_open"})
EXIT_CALLS = frozenset({"stage_close"})

#: Delta tracking range; a loop pushing the delta past this is
#: reported as unbounded growth.
MAX_DELTA = 8

#: Packages excluded from both checks (they implement the subscribers
#: rather than consume the gate).
EXCLUDED_PREFIXES = ("repro/obs/",)


def gate_locals(func_node: ast.AST) -> Set[str]:
    """Names assigned from a ``*._ACTIVE`` read in this function."""
    gates: Set[str] = set()
    for node in ast.walk(func_node):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "_ACTIVE"
        ):
            gates.add(node.targets[0].id)
    return gates


def _gate_test(test: ast.expr, gates: Set[str]) -> Optional[bool]:
    """The value of ``g is not None`` / ``g is None`` with gate ``g``
    active, or None when ``test`` is not such a test (LVM004 rules out
    every other form of gate test)."""
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.left, ast.Name)
        and test.left.id in gates
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        if isinstance(test.ops[0], ast.IsNot):
            return True
        if isinstance(test.ops[0], ast.Is):
            return False
    return None


def _node_delta(node: Node) -> int:
    delta = 0
    for call in calls_at(node):
        if isinstance(call.func, ast.Attribute):
            if call.func.attr in ENTER_CALLS:
                delta += 1
            elif call.func.attr in EXIT_CALLS:
                delta -= 1
    return delta


class SpanAnalysis:
    """Run LVM103 over a project."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.findings: List[Finding] = []
        self.facts: List[str] = []

    def run(self) -> None:
        for qualname in sorted(self.project.functions):
            info = self.project.functions[qualname]
            if info.module_path.startswith(EXCLUDED_PREFIXES):
                continue
            self._check_gate_purity(info)
            self._check_balance(info)

    # ------------------------------------------------------------------
    # (a) span balance
    # ------------------------------------------------------------------
    def _check_balance(self, info: FunctionInfo) -> None:
        has_events = any(
            isinstance(node, ast.Attribute)
            and node.attr in (ENTER_CALLS | EXIT_CALLS)
            for node in ast.walk(info.node)
        )
        if not has_events:
            return
        if self._balanced(info, build_cfg(info.node), gate_locals(info.node)):
            self.facts.append(f"lvm103 span-balanced {info.qualname}")

    def _balanced(self, info: FunctionInfo, cfg: CFG, gates: Set[str]) -> bool:
        """Delta fixpoint with every gate local active; True when balanced."""
        states: Dict[int, FrozenSet[int]] = {nid: frozenset() for nid in cfg.nodes}
        states[cfg.entry.nid] = frozenset({0})
        worklist = [cfg.entry.nid]
        overflow = False
        while worklist:
            nid = worklist.pop()
            node = cfg.nodes[nid]
            in_deltas = states[nid]
            if not in_deltas:
                continue
            shift = _node_delta(node)
            out = set()
            for delta in in_deltas:
                new = delta + shift
                if abs(new) > MAX_DELTA:
                    overflow = True
                    continue
                out.add(new)
            out_deltas = frozenset(out)
            branch: Optional[bool] = None
            if isinstance(node.stmt, (ast.If, ast.While)):
                branch = _gate_test(node.stmt.test, gates)
            for succ_id, kind in node.succs:
                if branch is True and kind == FALSE:
                    continue
                if branch is False and kind == TRUE:
                    continue
                if kind == EXC:
                    # Exceptional paths are exempt from balance: an
                    # abandoned span is the postmortem's record.  The
                    # exception may still be *caught* and the path
                    # resume normally — propagate the pre-event delta.
                    new = states[succ_id] | in_deltas
                else:
                    new = states[succ_id] | out_deltas
                if new != states[succ_id]:
                    states[succ_id] = new
                    worklist.append(succ_id)
        exit_deltas = states[cfg.exit.nid]
        bad = sorted(d for d in exit_deltas if d != 0)
        if overflow:
            self._report(
                info, info.node, "stage span delta grows without bound in a loop"
            )
            return False
        if bad:
            self._report(
                info,
                info.node,
                f"a normally-completing path ends with stage span delta "
                f"{bad} (every stage_open needs a stage_close on all "
                f"non-exception paths)",
            )
            return False
        return True

    # ------------------------------------------------------------------
    # (b) gate purity
    # ------------------------------------------------------------------
    def _check_gate_purity(self, info: FunctionInfo) -> None:
        gates = gate_locals(info.node)
        for node in ast.walk(info.node):
            if not isinstance(node, (ast.If, ast.While)):
                continue
            test, body = node.test, node.body
            taken = _gate_test(test, gates)
            direct = (
                isinstance(test, ast.Compare)
                and isinstance(test.left, ast.Attribute)
                and test.left.attr == "_ACTIVE"
            )
            if taken is None and not direct:
                continue
            if taken is False:
                continue  # "is None" guards the *fallback*, not the gate
            if len(body) == 1 and isinstance(body[0], ast.Return):
                # The fused-fallback idiom: refuse this path entirely
                # when instrumentation is active and let the caller use
                # the generic (fully instrumented) path — LVM006 holds
                # the two paths cycle-identical, so this is the one
                # control-flow use that *preserves* the contract.
                continue
            for stmt in body:
                self._check_pure(info, stmt)

    def _check_pure(self, info: FunctionInfo, stmt: ast.stmt) -> None:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, (ast.Return, ast.Raise, ast.Break, ast.Continue)):
                self._report(
                    info,
                    node,
                    "control flow inside an _ACTIVE instrumentation gate: "
                    "traced and bare runs must take identical paths",
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        # ``args["rids"] = ...`` into a local dict built
                        # for a span: invisible outside the gate.
                        continue
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        self._report(
                            info,
                            node,
                            "state mutation inside an _ACTIVE instrumentation "
                            "gate: gated code may bind locals and call, not "
                            "store to objects (cycle/log-identity contract)",
                        )

    def _report(self, info: FunctionInfo, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                path=info.ctx.path,
                line=getattr(node, "lineno", info.line),
                col=getattr(node, "col_offset", 0) + 1,
                rule_id=RULE_ID,
                message=f"{message} (in {info.qualname})",
            )
        )


def check(project: Project) -> Tuple[List[Finding], List[str]]:
    """Entry point: LVM103 findings + span-balance facts."""
    analysis = SpanAnalysis(project)
    analysis.run()
    return sorted(set(analysis.findings)), sorted(analysis.facts)
