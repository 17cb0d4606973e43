"""lvm-san rule plugins.

Each rule states one invariant the simulator's claims depend on:

========  ==========================================================
LVM001    no wall-clock reads in cycle-domain modules
LVM002    no unseeded randomness in cycle-domain modules
LVM003    cycle bindings stay integers (no float contamination)
LVM004    the two instrumentation gates (the probe spine's and the
          fault plan's ``_ACTIVE``) are a single ``is``/``is not
          None`` check
LVM005    fault-site strings resolve against ``repro.faults.sites``
LVM006    every fused ``*_fast`` path falls back on the one condition:
          fault plan installed or spine ``detail`` set
========  ==========================================================

``LVM000`` is reserved for parse errors (emitted by the engine).
Rules are pure AST walks — no imports of the simulator — so the linter
can run on a broken tree without executing it.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, Iterator, List, Optional

from repro.sanitize.engine import FileContext, Finding, Rule

# ----------------------------------------------------------------------
# shared helpers


def _collect_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local binding -> absolute dotted name for imports."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                aliases[bound] = alias.name if alias.asname else bound
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _resolve(node: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve ``a.b.c`` through the import alias map, or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


def _parent_map(tree: ast.Module) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return parents


# ----------------------------------------------------------------------
# LVM001 — wall clock


_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock",
        "time.sleep",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class NoWallClockRule(Rule):
    rule_id = "LVM001"
    title = "no wall clock in the cycle domain"
    rationale = (
        "Cycle-domain modules (hw/core/rvm/timewarp/obs/faults) must "
        "derive time only from simulated cycles; any wall-clock read "
        "makes runs non-replayable."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_cycle_domain:
            return
        aliases = _collect_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _resolve(node.func, aliases)
            if name in _WALL_CLOCK:
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock call {name}() in a cycle-domain module; "
                    "use the simulated cycle counters instead",
                )


# ----------------------------------------------------------------------
# LVM002 — unseeded randomness


#: numpy.random entry points that are fine *when given a seed*.
_SEEDABLE_NUMPY = frozenset(
    {"numpy.random.default_rng", "numpy.random.Generator", "numpy.random.RandomState"}
)


def _has_args(call: ast.Call) -> bool:
    return bool(call.args or call.keywords)


class NoUnseededRandomnessRule(Rule):
    rule_id = "LVM002"
    title = "no unseeded randomness in the cycle domain"
    rationale = (
        "Randomness in cycle-domain modules must come from an "
        "explicitly seeded random.Random(seed) instance so every run "
        "replays; the module-level random.* functions share hidden "
        "global state and secrets/os.urandom are never replayable."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_cycle_domain:
            return
        aliases = _collect_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _resolve(node.func, aliases)
            if name is None:
                continue
            message = None
            if name == "random.Random":
                if not _has_args(node):
                    message = "random.Random() without a seed"
            elif name == "random.SystemRandom" or name.startswith("secrets."):
                message = f"{name} is never replayable"
            elif name in ("os.urandom", "uuid.uuid4"):
                message = f"{name} is never replayable"
            elif name.startswith("random."):
                message = f"module-level {name}() uses the hidden global RNG"
            elif name.startswith("numpy.random."):
                if name not in _SEEDABLE_NUMPY:
                    message = f"module-level {name}() uses the hidden global RNG"
                elif not _has_args(node):
                    message = f"{name}() without a seed"
            if message is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"{message}; use random.Random(seed) threaded from the config",
                )


# ----------------------------------------------------------------------
# LVM003 — integer cycle arithmetic


_CYCLE_NAME = re.compile(r"(?:^|_)cycles?$")
#: ``records_per_cycle`` and friends are rates, not cycle counts.
_RATE_NAME = re.compile(r"(?:^|_)per_cycles?$")


def _is_cycle_count(name: str) -> bool:
    return bool(_CYCLE_NAME.search(name)) and not _RATE_NAME.search(name)


def _cycle_named(target: ast.expr) -> bool:
    if isinstance(target, ast.Name):
        return _is_cycle_count(target.id)
    if isinstance(target, ast.Attribute):
        return _is_cycle_count(target.attr)
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_cycle_named(elt) for elt in target.elts)
    return False


def _float_taint(value: ast.expr) -> Optional[str]:
    for sub in ast.walk(value):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
            return "a float literal"
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
            return "true division (use //)"
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "float"
        ):
            return "a float() conversion"
    return None


class IntegerCyclesRule(Rule):
    rule_id = "LVM003"
    title = "cycle bindings stay integers"
    rationale = (
        "Cycle counts are exact integers end to end; a float creeping "
        "into a cycle/cycles binding silently breaks record ordering "
        "and replay equality.  Reporting code that genuinely wants a "
        "ratio should bind a non-cycle name or suppress with "
        "# lvm-san: ignore[LVM003]."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_cycle_domain:
            return
        for node in ast.walk(ctx.tree):
            taint = None
            if isinstance(node, ast.Assign):
                if any(_cycle_named(t) for t in node.targets):
                    taint = _float_taint(node.value)
            elif isinstance(node, ast.AugAssign):
                if _cycle_named(node.target):
                    if isinstance(node.op, ast.Div):
                        taint = "true division (use //=)"
                    else:
                        taint = _float_taint(node.value)
            elif isinstance(node, ast.AnnAssign):
                if _cycle_named(node.target):
                    ann = node.annotation
                    if isinstance(ann, ast.Name) and ann.id == "float":
                        taint = "a float annotation"
                    elif node.value is not None:
                        taint = _float_taint(node.value)
            if taint is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"cycle binding assigned from {taint}; cycle arithmetic "
                    "must stay integral",
                )


# ----------------------------------------------------------------------
# LVM004 — instrumentation gate pattern


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


#: The only two instrumentation gates.
SPINE_GATE = "repro.probe._ACTIVE"
FAULT_GATE = "repro.faults.plan._ACTIVE"


def _gate_ref(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Unparsed source of a gate ref (``probe._ACTIVE``,
    ``faultplan._ACTIVE``, or a bare ``_ACTIVE`` in a defining module),
    else None."""
    if isinstance(node, ast.Name) and node.id == "_ACTIVE":
        return "_ACTIVE"
    if (
        isinstance(node, ast.Attribute)
        and node.attr == "_ACTIVE"
        and _resolve(node, aliases) in (SPINE_GATE, FAULT_GATE)
    ):
        return ast.unparse(node)
    return None


class GatePatternRule(Rule):
    rule_id = "LVM004"
    title = "the spine and fault-plan gates are a single `is None` check"
    rationale = (
        "The two instrumentation gates (repro.probe._ACTIVE and "
        "faults.plan._ACTIVE) guard hot paths with exactly one "
        "`is None` identity check.  Truthiness tests or == None change "
        "semantics for falsy objects, and member access outside an "
        "`is not None` guard defeats the single-check discipline."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        parents = _parent_map(ctx.tree)
        aliases = _collect_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            ref = _gate_ref(node, aliases)
            if ref is None:
                continue
            parent = parents.get(node)
            # `mod._ACTIVE` contains the inner Name `mod`; skip the
            # Name when its parent is the Attribute we already handle.
            if (
                isinstance(node, ast.Name)
                and isinstance(parent, ast.Attribute)
                and parent.attr == "_ACTIVE"
            ):
                continue
            finding = self._classify(ctx, node, ref, parent, parents)
            if finding is not None:
                yield finding

    def _classify(
        self,
        ctx: FileContext,
        node: ast.AST,
        ref: str,
        parent: Optional[ast.AST],
        parents: Dict[ast.AST, ast.AST],
    ) -> Optional[Finding]:
        if isinstance(parent, ast.Compare):
            if parent.left is node or node in parent.comparators:
                op = parent.ops[0] if parent.ops else None
                other = parent.comparators[0] if parent.left is node else parent.left
                if isinstance(op, (ast.Eq, ast.NotEq)) and _is_none(other):
                    return self.finding(
                        ctx,
                        parent,
                        f"compare {ref} with `is None` / `is not None`, "
                        "not equality",
                    )
                return None
        if self._is_truthiness(node, parent):
            return self.finding(
                ctx,
                node,
                f"truthiness test on {ref}; the gate must be a single "
                "`is None` identity check",
            )
        if isinstance(parent, ast.Attribute) and parent.value is node:
            if not self._guarded(node, ref, parents):
                return self.finding(
                    ctx,
                    parent,
                    f"member access on {ref} outside an `if {ref} is not "
                    "None:` guard; capture it to a local first",
                )
        return None

    @staticmethod
    def _is_truthiness(node: ast.AST, parent: Optional[ast.AST]) -> bool:
        if isinstance(parent, (ast.If, ast.While)) and parent.test is node:
            return True
        if isinstance(parent, ast.UnaryOp) and isinstance(parent.op, ast.Not):
            return True
        if isinstance(parent, ast.BoolOp) and node in parent.values:
            return True
        if isinstance(parent, ast.IfExp) and parent.test is node:
            return True
        if isinstance(parent, ast.Assert) and parent.test is node:
            return True
        return False

    @staticmethod
    def _guarded(node: ast.AST, ref: str, parents: Dict[ast.AST, ast.AST]) -> bool:
        guard = f"{ref} is not None"
        current: Optional[ast.AST] = node
        while current is not None:
            current = parents.get(current)
            if isinstance(current, ast.If) and ast.unparse(current.test) == guard:
                return True
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
        return False


# ----------------------------------------------------------------------
# LVM005 — fault-site registry


_SITE_CALLS = frozenset({"hit", "at_site", "CrashSpec"})


def _call_name(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class FaultSiteRule(Rule):
    rule_id = "LVM005"
    title = "fault-site strings resolve against faults/sites.py"
    rationale = (
        "Every injection-site string passed to hit()/CrashSpec() must "
        "exist in the generated registry repro/faults/sites.py, so a "
        "typo'd or stale site fails lint instead of silently never "
        "firing.  Regenerate with `python -m repro lint --regen-sites`."
    )

    def __init__(self, known_sites: Optional[FrozenSet[str]] = None) -> None:
        self.known_sites = known_sites

    def _sites(self) -> Optional[FrozenSet[str]]:
        if self.known_sites is None:
            try:
                from repro.faults import sites
            except ImportError:
                return None
            self.known_sites = frozenset(sites.ALL_SITES)
        return self.known_sites

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        in_faults = ctx.package_parts[:2] == ("repro", "faults")
        sites = self._sites()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node.func)
            if name not in _SITE_CALLS:
                continue
            site_arg: Optional[ast.expr] = node.args[0] if node.args else None
            if site_arg is None:
                for keyword in node.keywords:
                    if keyword.arg == "site":
                        site_arg = keyword.value
                        break
            if site_arg is None:
                continue
            if isinstance(site_arg, ast.Constant) and isinstance(site_arg.value, str):
                if sites is not None and site_arg.value not in sites:
                    yield self.finding(
                        ctx,
                        site_arg,
                        f"unknown fault site {site_arg.value!r}; fix the name "
                        "or regenerate repro/faults/sites.py",
                    )
            elif not in_faults:
                yield self.finding(
                    ctx,
                    site_arg,
                    f"{name}() site must be a string literal so the "
                    "registry sweep can enumerate it",
                )


# ----------------------------------------------------------------------
# LVM006 — fused fast paths keep a generic fallback


#: Fused paths whose names do not end in ``_fast`` but are fast paths.
FUSED_EXTRA = frozenset({"_write_run_bus_logged"})


def _has_fallback_guard(func: ast.AST, aliases: Dict[str, str]) -> bool:
    """An ``if`` testing both halves of the one fallback condition:
    ``faultplan._ACTIVE is not None or (sp is not None and sp.detail)``."""
    for sub in ast.walk(func):
        if not isinstance(sub, ast.If):
            continue
        attrs = [n for n in ast.walk(sub.test) if isinstance(n, ast.Attribute)]
        if any(_resolve(n, aliases) == FAULT_GATE for n in attrs) and any(
            n.attr == "detail" for n in attrs
        ):
            return True
    return False


def _calls_function(func: ast.AST, name: str) -> bool:
    for sub in ast.walk(func):
        if isinstance(sub, ast.Call) and _call_name(sub.func) == name:
            return True
    return False


class FastPathFallbackRule(Rule):
    rule_id = "LVM006"
    title = "fused fast paths keep a reachable generic fallback"
    rationale = (
        "Fused fast paths (*_fast and friends) skip per-record "
        "instrumentation, so either the function or every one of its "
        "same-module callers must test the one fallback condition "
        "(faultplan._ACTIVE is not None, or the probe spine's detail "
        "flag) and fall back to the generic path — otherwise fault "
        "plans and detailed tracing silently miss events."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        aliases = _collect_aliases(ctx.tree)
        defs = [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for func in defs:
            if not (func.name.endswith("_fast") or func.name in FUSED_EXTRA):
                continue
            if _has_fallback_guard(func, aliases):
                continue
            callers = [
                other
                for other in defs
                if other is not func and _calls_function(other, func.name)
            ]
            if callers and all(_has_fallback_guard(c, aliases) for c in callers):
                continue
            yield self.finding(
                ctx,
                func,
                f"fused fast path {func.name}() has no generic-fallback "
                "guard on faultplan._ACTIVE and the spine's detail flag "
                "here or in its callers",
            )


# ----------------------------------------------------------------------


def all_rules() -> List[Rule]:
    """Every rule, in rule-id order."""
    return [
        NoWallClockRule(),
        NoUnseededRandomnessRule(),
        IntegerCyclesRule(),
        GatePatternRule(),
        FaultSiteRule(),
        FastPathFallbackRule(),
    ]


def rules_by_id() -> Dict[str, Rule]:
    return {rule.rule_id: rule for rule in all_rules()}
