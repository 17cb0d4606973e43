"""lvm-san rule plugins.

Each rule states one invariant the simulator's claims depend on:

========  ==========================================================
LVM001    no wall-clock reads in cycle-domain modules
LVM002    no unseeded randomness in cycle-domain modules
LVM005    fault-site strings resolve against ``repro.faults.sites``
========  ==========================================================

``LVM000`` is reserved for parse errors (emitted by the engine);
``LVM007`` (dead suppressions) is the engine's own check.  The ids
LVM003/004/006 are retired: integer cycles, the gate pattern and the
fused-path fallback are held by tests that run the code (the golden
cycle table, the probe exactness matrix, the crash sweep).
Rules are pure AST walks — no imports of the simulator — so the linter
can run on a broken tree without executing it.
"""

from __future__ import annotations

import ast
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
        # The plan and the spine's ``hit`` forwarder pass sites through.
        in_faults = (
            ctx.package_parts[:2] == ("repro", "faults")
            or ctx.module_name == "repro.probe"
        )
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


def all_rules() -> List[Rule]:
    """Every rule, in rule-id order."""
    return [
        NoWallClockRule(),
        NoUnseededRandomnessRule(),
        FaultSiteRule(),
    ]


def rules_by_id() -> Dict[str, Rule]:
    return {rule.rule_id: rule for rule in all_rules()}
