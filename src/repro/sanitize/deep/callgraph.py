"""Project call graph: who may call whom, in summary-safe order.

Resolution is tiered, strongest evidence first:

1. ``module.func(...)`` through the file's import aliases;
2. ``func(...)`` against same-module then project module-level defs;
3. ``self.m(...)`` in the receiver's class hierarchy (bases *and*
   subclasses — a call through a base may dispatch to any override);
4. ``self.attr.m(...)`` / ``var.m(...)`` through inferred attribute /
   annotation types;
5. name-based fallback for method calls, capped at
   :data:`MAX_FALLBACK` candidates — past the cap the callee is
   *unknown* and analyses must treat the call as a no-op rather than
   guess.

Recursion is left to the summary solver
(:mod:`repro.sanitize.deep.absint`), which iterates cyclic lookups to
a fixpoint.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.sanitize.deep.project import FunctionInfo, Project

#: Name-based fallback gives up past this many candidates.
MAX_FALLBACK = 8


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted module (``import x.y as z`` and friends)."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


@dataclass
class CallSite:
    """One resolved (or unresolved) call expression in a function."""

    call: ast.Call
    caller: FunctionInfo
    callees: Tuple[FunctionInfo, ...]
    #: bare target name (``flush`` for ``self.disk.flush(...)``)
    target_name: str
    #: receiver expression source-ish description ("self.disk", "wal", …)
    receiver: Optional[str]


def _receiver_repr(expr: ast.expr) -> Optional[str]:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        inner = _receiver_repr(expr.value)
        return f"{inner}.{expr.attr}" if inner else expr.attr
    return None


class CallGraph:
    """Call sites + qualname edges for a project."""

    def __init__(self, project: Project) -> None:
        self.project = project
        #: caller qualname -> its call sites, in source order
        self.sites: Dict[str, List[CallSite]] = {}
        #: caller qualname -> callee qualnames
        self.edges: Dict[str, Set[str]] = {}
        self._aliases: Dict[str, Dict[str, str]] = {}
        for info in project.iter_functions():
            self._index_function(info)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def _file_aliases(self, info: FunctionInfo) -> Dict[str, str]:
        cached = self._aliases.get(info.module_path)
        if cached is None:
            cached = import_aliases(info.ctx.tree)
            self._aliases[info.module_path] = cached
        return cached

    def _index_function(self, info: FunctionInfo) -> None:
        awaited = {
            id(node.value)
            for node in ast.walk(info.node)
            if isinstance(node, ast.Await)
        }
        sites: List[CallSite] = []
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                sites.append(self._resolve(info, node, id(node) in awaited))
        self.sites[info.qualname] = sites
        self.edges[info.qualname] = {
            callee.qualname for site in sites for callee in site.callees
        }

    def _resolve(self, caller: FunctionInfo, call: ast.Call, awaited: bool) -> CallSite:
        func = call.func
        callees: List[FunctionInfo] = []
        target = ""
        receiver: Optional[str] = None
        if isinstance(func, ast.Name):
            target = func.id
            callees = self._resolve_name(caller, func.id)
        elif isinstance(func, ast.Attribute):
            target = func.attr
            receiver = _receiver_repr(func.value)
            callees = self._resolve_method(caller, func)
        if not awaited:
            # An unawaited call to a coroutine function only builds the
            # coroutine — its body does not run here.
            callees = [
                c for c in callees if not isinstance(c.node, ast.AsyncFunctionDef)
            ]
        return CallSite(
            call=call,
            caller=caller,
            callees=tuple(callees),
            target_name=target,
            receiver=receiver,
        )

    def _resolve_name(self, caller: FunctionInfo, name: str) -> List[FunctionInfo]:
        project = self.project
        aliases = self._file_aliases(caller)
        dotted = aliases.get(name)
        if dotted is not None:
            hits = [
                f
                for f in project.by_name.get(dotted.rsplit(".", 1)[-1], ())
                if f.class_name is None
                and f.ctx.module_name == dotted.rsplit(".", 1)[0]
            ]
            if hits:
                return hits
        # Same module first — shadowing beats a cross-module name match.
        local = [
            f
            for f in project.by_name.get(name, ())
            if f.class_name is None and f.module_path == caller.module_path
        ]
        if local:
            return local
        if name in project.classes:
            # Constructor call: the interesting body is __init__.
            return project.resolve_in_hierarchy(name, "__init__")
        hits = [f for f in project.by_name.get(name, ()) if f.class_name is None]
        return hits if len(hits) <= MAX_FALLBACK else []

    def _resolve_method(
        self, caller: FunctionInfo, func: ast.Attribute
    ) -> List[FunctionInfo]:
        project = self.project
        value = func.value
        method = func.attr
        # self.m(...)
        if isinstance(value, ast.Name):
            if value.id in ("self", "cls") and caller.class_name is not None:
                hits = project.resolve_in_hierarchy(caller.class_name, method)
                if hits:
                    return hits
            dotted = self._file_aliases(caller).get(value.id)
            if dotted is not None:
                hits = [
                    f
                    for f in project.by_name.get(method, ())
                    if f.class_name is None and f.ctx.module_name == dotted
                ]
                if hits:
                    return hits
        # self.attr.m(...)
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id in ("self", "cls")
            and caller.class_name is not None
        ):
            classes = project.attr_classes(caller.class_name, value.attr)
            hits = [
                f
                for cls_name in sorted(classes)
                for f in project.resolve_in_hierarchy(cls_name, method)
            ]
            if hits:
                return hits
        # Fallback: every method of that name, if few enough to be useful.
        hits = project.methods_named(method)
        return hits if 0 < len(hits) <= MAX_FALLBACK else []
