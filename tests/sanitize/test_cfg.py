"""Exception-edge CFG fixtures and the span-balance verdicts they drive.

The CFG (``repro.sanitize.deep.cfg``) is the substrate every deep rule
interprets, so its exception modelling is tested twice over: once
structurally (the edges exist) and once behaviourally (LVM103 reaches
the right balanced/leaked verdict through try/finally, ``async with``,
early returns, and exception exits).
"""

from __future__ import annotations

import ast
import textwrap

from repro.sanitize.deep.cfg import EXC, build_cfg, calls_at, eval_exprs
from repro.sanitize.deep.project import Project
from repro.sanitize.deep import spans
from repro.sanitize.engine import make_context


def _func(source: str):
    tree = ast.parse(textwrap.dedent(source))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node
    raise AssertionError("no function in fixture")


def _span_verdicts(source: str, module_path: str = "repro/serve/fix.py"):
    """Run LVM103 over one in-memory module; (findings, facts)."""
    ctx = make_context(textwrap.dedent(source), module_path)
    project = Project.from_contexts([ctx])
    return spans.check(project)


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


class TestSpanBalanceVerdicts:
    def test_try_finally_span_is_balanced(self):
        findings, facts = _span_verdicts(
            """
            def handler(sp, req):
                sp.stage_open("dispatch")
                try:
                    return work(req)
                finally:
                    sp.stage_close("dispatch")
            """
        )
        assert findings == []
        assert facts == ["lvm103 span-balanced repro/serve/fix.py::handler"]

    def test_early_return_leaks_span(self):
        findings, facts = _span_verdicts(
            """
            def handler(sp, req):
                sp.stage_open("dispatch")
                if req is None:
                    return None
                sp.stage_close("dispatch")
                return req
            """
        )
        assert [f.rule_id for f in findings] == ["LVM103"]
        assert "delta" in findings[0].message
        assert facts == []

    def test_exception_exit_is_exempt(self):
        # An exception abandoning the span is the postmortem's record:
        # the *normal* path balances, so the function is clean.
        findings, facts = _span_verdicts(
            """
            def handler(sp, req):
                sp.stage_open("dispatch")
                result = work(req)
                sp.stage_close("dispatch")
                return result
            """
        )
        assert findings == []
        assert facts == ["lvm103 span-balanced repro/serve/fix.py::handler"]

    def test_caught_exception_resuming_normally_still_balances(self):
        findings, _ = _span_verdicts(
            """
            def handler(sp, req):
                sp.stage_open("dispatch")
                try:
                    work(req)
                except ValueError:
                    pass
                sp.stage_close("dispatch")
            """
        )
        assert findings == []

    def test_async_with_balanced(self):
        findings, facts = _span_verdicts(
            """
            async def handler(sp, lock, req):
                async with lock:
                    sp.stage_open("dispatch")
                    result = await work(req)
                    sp.stage_close("dispatch")
                return result
            """
        )
        assert findings == []
        assert facts == ["lvm103 span-balanced repro/serve/fix.py::handler"]

    def test_async_with_early_return_leaks(self):
        findings, _ = _span_verdicts(
            """
            async def handler(sp, lock, req):
                async with lock:
                    sp.stage_open("dispatch")
                    if req.cached:
                        return req.value
                    result = await work(req)
                    sp.stage_close("dispatch")
                return result
            """
        )
        assert [f.rule_id for f in findings] == ["LVM103"]

    def test_correlated_gates_do_not_fabricate_paths(self):
        # wal._append style: open and close separately gated on the
        # same spine local.  Naive path-insensitive analysis would pair
        # (open taken, close skipped); the gate pruning must not.
        findings, facts = _span_verdicts(
            """
            def append(probe, disk, rec):
                sp = probe._ACTIVE
                if sp is not None:
                    sp.stage_open("device.write", 0, 0)
                disk.put(rec)
                if sp is not None:
                    sp.stage_close("device.write", 0, 1, 0)
            """
        )
        assert findings == []
        assert facts == ["lvm103 span-balanced repro/serve/fix.py::append"]

    def test_unbounded_loop_growth_reported(self):
        findings, _ = _span_verdicts(
            """
            def drain(sp, q):
                while q:
                    sp.stage_open("item")
            """
        )
        assert [f.rule_id for f in findings] == ["LVM103"]
        assert "without bound" in findings[0].message

    def test_obs_package_is_excluded(self):
        findings, facts = _span_verdicts(
            """
            def protocol_impl(sp):
                sp.stage_open("x")
            """,
            module_path="repro/obs/tracer.py",
        )
        assert findings == []
        assert facts == []
