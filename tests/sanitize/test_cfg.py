"""Exception-edge CFG fixtures.

The CFG (``repro.sanitize.deep.cfg``) is the substrate LVM101
interprets, so its exception modelling is tested structurally here:
the edges through try/except/finally, early returns and loops exist.
LVM101's verdicts over those shapes are in ``test_deep_rules.py``.
"""

from __future__ import annotations

import ast
import textwrap

from repro.sanitize.deep.cfg import EXC, build_cfg, calls_at, eval_exprs


def _func(source: str):
    tree = ast.parse(textwrap.dedent(source))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node
    raise AssertionError("no function in fixture")


def _reachable(cfg, start_nid: int, kinds=None):
    """Transitive successors of ``start_nid`` (optionally edge-filtered)."""
    seen = set()
    frontier = [start_nid]
    while frontier:
        nid = frontier.pop()
        for succ, kind in cfg.nodes[nid].succs:
            if kinds is not None and kind not in kinds:
                continue
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return seen


class TestCfgStructure:
    def test_call_nodes_get_exception_edges(self):
        cfg = build_cfg(_func(
            """
            def f(x):
                work(x)
                return x
            """
        ))
        call_node = next(n for n in cfg.stmt_nodes() if calls_at(n))
        assert (cfg.raise_exit.nid, EXC) in call_node.succs

    def test_try_except_routes_exception_to_handler(self):
        cfg = build_cfg(_func(
            """
            def f(x):
                try:
                    work(x)
                except ValueError:
                    x = None
                return x
            """
        ))
        handlers = cfg.handler_nodes()
        assert len(handlers) == 1
        assert handlers[0].catches == ("ValueError",)
        call_node = next(
            n for n in cfg.stmt_nodes() if isinstance(n.stmt, ast.Expr)
        )
        # The exc edge may route through a dispatch node; the handler
        # must be reachable along exception edges.
        assert handlers[0].nid in _reachable(cfg, call_node.nid, kinds={EXC})

    def test_finally_body_appears_on_normal_and_exceptional_paths(self):
        cfg = build_cfg(_func(
            """
            def f(x):
                try:
                    work(x)
                finally:
                    cleanup()
            """
        ))
        # The finally body is duplicated: one copy flows to exit, one
        # re-raises to raise_exit.
        cleanup_nodes = [
            n
            for n in cfg.stmt_nodes()
            if isinstance(n.stmt, ast.Expr)
            and isinstance(n.stmt.value, ast.Call)
            and isinstance(n.stmt.value.func, ast.Name)
            and n.stmt.value.func.id == "cleanup"
        ]
        assert len(cleanup_nodes) == 2
        # One copy completes to exit, the other re-raises — each along
        # its own normal-flow continuation.
        continuations = [
            _reachable(cfg, n.nid, kinds={"next", "true", "false"})
            for n in cleanup_nodes
        ]
        assert any(cfg.exit.nid in c for c in continuations)
        assert any(cfg.raise_exit.nid in c for c in continuations)

    def test_return_threads_through_finally(self):
        cfg = build_cfg(_func(
            """
            def f(x):
                try:
                    return work(x)
                finally:
                    cleanup()
            """
        ))
        ret_node = next(
            n for n in cfg.stmt_nodes() if isinstance(n.stmt, ast.Return)
        )
        # Return must not jump straight to exit: it runs the finally copy.
        direct = {nid for nid, kind in ret_node.succs if kind != EXC}
        assert cfg.exit.nid not in direct

    def test_while_true_has_no_false_edge(self):
        cfg = build_cfg(_func(
            """
            def f():
                while True:
                    step()
            """
        ))
        head = next(n for n in cfg.stmt_nodes() if isinstance(n.stmt, ast.While))
        assert all(kind != "false" for _, kind in head.succs)

    def test_eval_exprs_skips_compound_bodies(self):
        func = _func(
            """
            def f(xs):
                for x in source(xs):
                    body_call(x)
            """
        )
        cfg = build_cfg(func)
        head = next(n for n in cfg.stmt_nodes() if isinstance(n.stmt, ast.For))
        calls = [c.func.id for c in calls_at(head) if isinstance(c.func, ast.Name)]
        assert calls == ["source"]  # body_call belongs to its own node
        assert eval_exprs(head) == [head.stmt.iter]
