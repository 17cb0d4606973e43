"""Whole-program model: every function and class in a source tree.

The deep rules need to answer questions no single-file AST walk can:
"who calls this", "what type is ``self.disk``", "which methods are
named ``flush``".  :class:`Project` parses every file with the same
:mod:`repro.sanitize.engine` machinery the flat linter uses and builds
the indexes those questions need.

Attribute types are inferred from the three places this codebase
declares them: annotated ``__init__`` parameters assigned to ``self``
attributes, direct constructor calls (``self.x = ClassName(...)``),
and dataclass field annotations.  Union annotations contribute every
named class (``LogDevice | None`` types the attribute as LogDevice).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.sanitize.engine import (
    FileContext,
    iter_python_files,
    make_context,
    module_path_for,
)

FuncNode = ast.FunctionDef | ast.AsyncFunctionDef


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str  #: ``repro/serve/server.py::TxnServer._commit``
    module_path: str
    name: str
    class_name: Optional[str]
    node: FuncNode
    ctx: FileContext
    #: parameter names in order (excluding ``self``/``cls``)
    params: Tuple[str, ...] = ()
    #: parameter name -> literal default (only bool/int/str/None kept)
    defaults: Dict[str, object] = field(default_factory=dict)

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass
class ClassInfo:
    """One class definition: bases by name, methods by name."""

    name: str
    module_path: str
    base_names: Tuple[str, ...]
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: attribute name -> set of class names it may hold
    attr_types: Dict[str, Set[str]] = field(default_factory=dict)


def _base_name(expr: ast.expr) -> Optional[str]:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _annotation_classes(ann: ast.expr) -> Set[str]:
    """Class names a type annotation mentions (unions flattened)."""
    names: Set[str] = set()
    for sub in ast.walk(ann):
        if isinstance(sub, ast.Name) and sub.id[:1].isupper():
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and sub.attr[:1].isupper():
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            # String annotation: pull capitalised identifiers.
            for tok in sub.value.replace("|", " ").replace("[", " ").split():
                tok = tok.strip("\"'], ")
                if tok[:1].isupper():
                    names.add(tok.split(".")[-1])
    return names


def _literal_default(expr: ast.expr) -> Tuple[bool, object]:
    if isinstance(expr, ast.Constant) and isinstance(
        expr.value, (bool, int, str, type(None))
    ):
        return True, expr.value
    return False, None


class Project:
    """Indexed view of every definition under a set of source paths."""

    def __init__(self) -> None:
        self.contexts: List[FileContext] = []
        #: qualname -> FunctionInfo
        self.functions: Dict[str, FunctionInfo] = {}
        #: bare name -> every function/method with that name
        self.by_name: Dict[str, List[FunctionInfo]] = {}
        #: class name -> every ClassInfo with that name (collisions kept)
        self.classes: Dict[str, List[ClassInfo]] = {}
        #: class name -> direct subclass names
        self.subclasses: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, paths: Sequence[Path]) -> "Project":
        project = cls()
        for file_path in iter_python_files(paths):
            try:
                ctx = make_context(
                    file_path.read_text(), module_path_for(file_path), str(file_path)
                )
            except SyntaxError:
                continue  # the flat linter reports LVM000 for these
            project.add_file(ctx)
        project._link()
        return project

    @classmethod
    def from_contexts(cls, contexts: Sequence[FileContext]) -> "Project":
        project = cls()
        for ctx in contexts:
            project.add_file(ctx)
        project._link()
        return project

    def add_file(self, ctx: FileContext) -> None:
        self.contexts.append(ctx)
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(ctx, node, None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(ctx, node)

    def _add_function(
        self, ctx: FileContext, node: FuncNode, class_name: Optional[str]
    ) -> FunctionInfo:
        params = [a.arg for a in node.args.posonlyargs + node.args.args]
        if class_name is not None and params and params[0] in ("self", "cls"):
            params = params[1:]
        params += [a.arg for a in node.args.kwonlyargs]
        defaults: Dict[str, object] = {}
        pos = [a.arg for a in node.args.posonlyargs + node.args.args]
        if class_name is not None and pos and pos[0] in ("self", "cls"):
            pos = pos[1:]
        for name, default in zip(reversed(pos), reversed(node.args.defaults)):
            ok, value = _literal_default(default)
            if ok:
                defaults[name] = value
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                ok, value = _literal_default(default)
                if ok:
                    defaults[arg.arg] = value
        scope = f"{class_name}." if class_name else ""
        info = FunctionInfo(
            qualname=f"{ctx.module_path}::{scope}{node.name}",
            module_path=ctx.module_path,
            name=node.name,
            class_name=class_name,
            node=node,
            ctx=ctx,
            params=tuple(params),
            defaults=defaults,
        )
        self.functions[info.qualname] = info
        self.by_name.setdefault(node.name, []).append(info)
        return info

    def _add_class(self, ctx: FileContext, node: ast.ClassDef) -> None:
        bases = tuple(
            name for name in (_base_name(b) for b in node.bases) if name is not None
        )
        cls_info = ClassInfo(name=node.name, module_path=ctx.module_path, base_names=bases)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._add_function(ctx, item, node.name)
                cls_info.methods[item.name] = info
                if item.name == "__init__":
                    self._infer_init_attrs(cls_info, item)
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                # dataclass-style field annotation
                cls_info.attr_types.setdefault(item.target.id, set()).update(
                    _annotation_classes(item.annotation)
                )
        self.classes.setdefault(node.name, []).append(cls_info)

    def _infer_init_attrs(self, cls_info: ClassInfo, init: FuncNode) -> None:
        """``self.x = param`` with an annotated param, or ``= Class(...)``."""
        ann_by_param: Dict[str, Set[str]] = {}
        for arg in init.args.args + init.args.kwonlyargs + init.args.posonlyargs:
            if arg.annotation is not None:
                ann_by_param[arg.arg] = _annotation_classes(arg.annotation)
        for stmt in ast.walk(init):
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            names: Set[str] = set()
            for sub in ast.walk(stmt.value):
                if isinstance(sub, ast.Name) and sub.id in ann_by_param:
                    names.update(ann_by_param[sub.id])
                elif isinstance(sub, ast.Call):
                    callee = _base_name(sub.func)
                    if callee is not None and callee[:1].isupper():
                        names.add(callee)
            if names:
                cls_info.attr_types.setdefault(target.attr, set()).update(names)

    def _link(self) -> None:
        for infos in self.classes.values():
            for cls_info in infos:
                for base in cls_info.base_names:
                    self.subclasses.setdefault(base, set()).add(cls_info.name)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def methods_named(self, name: str) -> List[FunctionInfo]:
        return [f for f in self.by_name.get(name, ()) if f.class_name is not None]

    def resolve_in_hierarchy(self, class_name: str, method: str) -> List[FunctionInfo]:
        """Method defs for ``class_name`` itself, its bases, and subclasses."""
        out: List[FunctionInfo] = []
        seen: Set[str] = set()
        frontier = [class_name]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            for cls_info in self.classes.get(current, ()):  # collisions: all
                if method in cls_info.methods:
                    out.append(cls_info.methods[method])
                frontier.extend(cls_info.base_names)
            frontier.extend(self.subclasses.get(current, ()))
        return out

    def attr_classes(self, class_name: str, attr: str) -> Set[str]:
        """Possible classes of ``self.<attr>`` seen from ``class_name``."""
        out: Set[str] = set()
        for cls_info in self.classes.get(class_name, ()):
            out.update(cls_info.attr_types.get(attr, ()))
        return out

    def iter_functions(self) -> Iterator[FunctionInfo]:
        return iter(self.functions.values())
