"""Per-function control-flow graphs with exception edges.

One CFG node per simple statement (compound statements contribute a
*head* node for their test/iterator/context expressions), plus three
synthetic nodes: ``entry``, ``exit`` (normal completion) and
``raise_exit`` (an exception propagating out of the function).

Exception modelling:

* any statement containing a call, ``raise``, ``assert`` or ``await``
  gets an ``exc`` edge to the innermost active handler set (every
  handler head, conservatively, plus the propagation path — we do not
  prove which handler matches);
* ``finally`` bodies are built twice — once on the normal
  continuation, once on the exceptional one — so an analysis sees the
  cleanup code on both kinds of path, exactly like exception-edge
  duplication in a compiler;
* ``return`` / ``break`` / ``continue`` thread through every enclosing
  ``finally`` before reaching their target;
* ``with`` / ``async with`` context managers are assumed not to
  swallow exceptions (none in this codebase do).

This is the substrate LVM101 interprets; it has no opinions of
its own beyond reachability.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

FuncNode = ast.FunctionDef | ast.AsyncFunctionDef

#: Edge kinds.
NEXT = "next"
TRUE = "true"
FALSE = "false"
EXC = "exc"


@dataclass
class Node:
    nid: int
    #: the statement this node executes (None for synthetic nodes)
    stmt: Optional[ast.stmt]
    kind: str  #: "stmt" | "entry" | "exit" | "raise_exit" | "handler"
    #: for handler nodes: the caught exception type names ((), ) = bare
    catches: Tuple[str, ...] = ()
    succs: List[Tuple[int, str]] = field(default_factory=list)
    preds: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def line(self) -> int:
        return getattr(self.stmt, "lineno", 0)


class CFG:
    """Control-flow graph of one function."""

    def __init__(self, func: FuncNode) -> None:
        self.func = func
        self.nodes: Dict[int, Node] = {}
        self._next_id = 0
        self.entry = self._new(None, "entry")
        self.exit = self._new(None, "exit")
        self.raise_exit = self._new(None, "raise_exit")

    def _new(
        self, stmt: Optional[ast.stmt], kind: str, catches: Tuple[str, ...] = ()
    ) -> Node:
        node = Node(self._next_id, stmt, kind, catches)
        self.nodes[node.nid] = node
        self._next_id += 1
        return node

    def edge(self, src: Node, dst: Node, kind: str = NEXT) -> None:
        if (dst.nid, kind) not in src.succs:
            src.succs.append((dst.nid, kind))
            dst.preds.append((src.nid, kind))

    # ------------------------------------------------------------------
    def handler_nodes(self) -> List[Node]:
        return [n for n in self.nodes.values() if n.kind == "handler"]

    def stmt_nodes(self) -> List[Node]:
        return [n for n in self.nodes.values() if n.stmt is not None]


def _can_raise(stmt: ast.stmt) -> bool:
    """Conservative: statements that may transfer to a handler."""
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    for sub in ast.walk(stmt):
        if isinstance(sub, (ast.Call, ast.Await)):
            return True
    return False


def _handler_names(handler: ast.ExceptHandler) -> Tuple[str, ...]:
    if handler.type is None:
        return ()
    names = []
    types = (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    for t in types:
        if isinstance(t, ast.Name):
            names.append(t.id)
        elif isinstance(t, ast.Attribute):
            names.append(t.attr)
    return tuple(names)


@dataclass
class _Scope:
    """One level of the lexical control stack."""

    kind: str  #: "loop" | "finally"
    break_target: Optional[Node] = None
    continue_target: Optional[Node] = None
    finalbody: Optional[List[ast.stmt]] = None
    #: exception target in force *outside* this try (for finally copies)
    outer_exc: Optional[Node] = None


class _Builder:
    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg

    def build(self) -> None:
        body_entry = self._stmts(
            self.cfg.func.body, self.cfg.exit, self.cfg.raise_exit, []
        )
        self.cfg.edge(self.cfg.entry, body_entry)

    # ------------------------------------------------------------------
    def _stmts(
        self,
        stmts: List[ast.stmt],
        succ: Node,
        exc: Node,
        scopes: List[_Scope],
    ) -> Node:
        """Build ``stmts``; returns the entry node of the sequence."""
        if not stmts:
            return succ
        entry: Optional[Node] = None
        prev_tail: Optional[Node] = None  # node needing a NEXT edge to the next stmt
        for stmt in stmts:
            head, tail = self._stmt(stmt, succ, exc, scopes)
            if entry is None:
                entry = head
            if prev_tail is not None:
                self.cfg.edge(prev_tail, head)
            prev_tail = tail  # None when the statement never falls through
            if tail is None:
                break  # the rest is unreachable
        if prev_tail is not None:
            self.cfg.edge(prev_tail, succ)
        assert entry is not None
        return entry

    def _seq_entry(
        self, stmts: List[ast.stmt], succ: Node, exc: Node, scopes: List[_Scope]
    ) -> Node:
        return self._stmts(stmts, succ, exc, scopes) if stmts else succ

    def _stmt(
        self, stmt: ast.stmt, succ: Node, exc: Node, scopes: List[_Scope]
    ) -> Tuple[Node, Optional[Node]]:
        """Build one statement; returns (head, fallthrough-tail|None)."""
        cfg = self.cfg
        if isinstance(stmt, ast.If):
            head = cfg._new(stmt, "stmt")
            self._maybe_exc(head, stmt.test, exc)
            join = cfg._new(None, "stmt")  # synthetic join
            then_entry = self._seq_entry(stmt.body, join, exc, scopes)
            cfg.edge(head, then_entry, TRUE)
            else_entry = self._seq_entry(stmt.orelse, join, exc, scopes)
            cfg.edge(head, else_entry if stmt.orelse else join, FALSE)
            if stmt.orelse:
                # edge added via _seq_entry return only if non-empty
                pass
            return head, join
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            head = cfg._new(stmt, "stmt")
            test_expr = stmt.test if isinstance(stmt, ast.While) else stmt.iter
            self._maybe_exc(head, test_expr, exc)
            after = cfg._new(None, "stmt")  # loop exit join
            infinite = (
                isinstance(stmt, ast.While)
                and isinstance(stmt.test, ast.Constant)
                and bool(stmt.test.value)
            )
            body_scopes = scopes + [
                _Scope("loop", break_target=after, continue_target=head)
            ]
            body_entry = self._seq_entry(stmt.body, head, exc, body_scopes)
            cfg.edge(head, body_entry, TRUE)
            if not infinite:
                else_entry = self._seq_entry(stmt.orelse, after, exc, scopes)
                cfg.edge(head, else_entry if stmt.orelse else after, FALSE)
            return head, after
        if isinstance(stmt, ast.Try):
            return self._try(stmt, succ, exc, scopes)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            head = cfg._new(stmt, "stmt")
            for item in stmt.items:
                self._maybe_exc(head, item.context_expr, exc)
            join = cfg._new(None, "stmt")
            body_entry = self._seq_entry(stmt.body, join, exc, scopes)
            cfg.edge(head, body_entry)
            return head, join
        if isinstance(stmt, ast.Return):
            head = cfg._new(stmt, "stmt")
            self._maybe_exc(head, stmt.value, exc)
            target = self._through_finallys(scopes, len(scopes), cfg.exit)
            cfg.edge(head, target)
            return head, None
        if isinstance(stmt, (ast.Break, ast.Continue)):
            head = cfg._new(stmt, "stmt")
            depth = len(scopes)
            for i in range(len(scopes) - 1, -1, -1):
                if scopes[i].kind == "loop":
                    loop = scopes[i]
                    target = (
                        loop.break_target
                        if isinstance(stmt, ast.Break)
                        else loop.continue_target
                    )
                    assert target is not None
                    chained = self._through_finallys(scopes, depth, target, stop_at=i)
                    cfg.edge(head, chained)
                    break
            return head, None
        if isinstance(stmt, ast.Raise):
            head = cfg._new(stmt, "stmt")
            cfg.edge(head, exc, EXC)
            return head, None
        # Simple statement.
        head = cfg._new(stmt, "stmt")
        if _can_raise(stmt):
            cfg.edge(head, exc, EXC)
        return head, head

    def _maybe_exc(self, node: Node, expr: Optional[ast.expr], exc: Node) -> None:
        if expr is None:
            return
        for sub in ast.walk(expr):
            if isinstance(sub, (ast.Call, ast.Await)):
                self.cfg.edge(node, exc, EXC)
                return

    def _through_finallys(
        self,
        scopes: List[_Scope],
        depth: int,
        target: Node,
        stop_at: int = -1,
    ) -> Node:
        """Chain copies of enclosing ``finally`` bodies ending at ``target``.

        Builds innermost-first so execution order is innermost →
        outermost; ``stop_at`` bounds the walk (for break/continue,
        which stop at their loop).
        """
        for i in range(depth - 1, stop_at, -1):
            scope = scopes[i]
            if scope.kind != "finally" or not scope.finalbody:
                continue
            outer_exc = scope.outer_exc or self.cfg.raise_exit
            target = self._stmts(scope.finalbody, target, outer_exc, scopes[:i])
        return target

    def _try(
        self, stmt: ast.Try, succ: Node, exc: Node, scopes: List[_Scope]
    ) -> Tuple[Node, Optional[Node]]:
        cfg = self.cfg
        after = cfg._new(None, "stmt")  # join after the whole try
        # finally: two copies — normal continuation and exception path.
        if stmt.finalbody:
            normal_exit = self._stmts(stmt.finalbody, after, exc, scopes)
            exc_exit = self._stmts(stmt.finalbody, exc, exc, scopes)
        else:
            normal_exit, exc_exit = after, exc

        body_scopes = scopes + [
            _Scope("finally", finalbody=stmt.finalbody or None, outer_exc=exc)
        ]

        # Handlers: a raising statement in the body may reach any of
        # them, or propagate (no handler matches) through the finally.
        handler_heads: List[Node] = []
        for handler in stmt.handlers:
            h_node = cfg._new(handler, "handler", _handler_names(handler))
            h_entry = self._seq_entry(handler.body, normal_exit, exc_exit, body_scopes)
            cfg.edge(h_node, h_entry)
            handler_heads.append(h_node)

        if handler_heads:
            dispatch = cfg._new(None, "stmt")  # exception dispatch point
            for h in handler_heads:
                cfg.edge(dispatch, h, EXC)
            cfg.edge(dispatch, exc_exit, EXC)  # unmatched: propagate
            body_exc = dispatch
        else:
            body_exc = exc_exit

        orelse_entry = self._seq_entry(stmt.orelse, normal_exit, body_exc, body_scopes)
        body_entry = self._stmts(
            stmt.body,
            orelse_entry if stmt.orelse else normal_exit,
            body_exc,
            body_scopes,
        )
        head = cfg._new(None, "stmt")  # synthetic try head
        cfg.edge(head, body_entry)
        return head, after


def eval_exprs(node: Node) -> List[ast.AST]:
    """The expressions a CFG node actually evaluates.

    Compound statements contribute only their head expression (an
    ``If`` node evaluates its test — its body belongs to other nodes),
    so analyses that scan a node must use this, never ``ast.walk`` on
    the raw statement.
    """
    stmt = node.stmt
    if stmt is None or node.kind == "handler":
        return []
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Return):
        return [stmt.value] if stmt.value is not None else []
    return [stmt]


def calls_at(node: Node) -> List[ast.Call]:
    """Calls a node executes, in source order, skipping nested defs
    and lambda bodies (those run later, if ever)."""
    out: List[ast.Call] = []
    for expr in eval_exprs(node):
        stack: List[ast.AST] = [expr]
        while stack:
            current = stack.pop()
            if isinstance(
                current,
                (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue
            if isinstance(current, ast.Call):
                out.append(current)
            stack.extend(ast.iter_child_nodes(current))
    return sorted(out, key=lambda c: (c.lineno, c.col_offset))


def build_cfg(func: FuncNode) -> CFG:
    """Build the CFG of one function definition."""
    cfg = CFG(func)
    _Builder(cfg).build()
    return cfg

