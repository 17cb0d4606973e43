"""Orchestrator for ``python -m repro lint --deep``.

One pass builds what the rules share — parsed
:class:`FileContext`\\ s, the :class:`Project` index, the call graph —
then runs the flat single-file rules *and* the interprocedural
LVM101 durability-ordering analysis
(:mod:`repro.sanitize.deep.durability`) over it.

Deep findings respect the same per-line ``# lvm-san: ignore[...]``
comments as the flat rules, and the dead-suppression check (LVM007)
runs *after* deep filtering so a suppression that only matches a deep
diagnostic still counts as live.  Alongside findings the deep rules
emit *facts* — positive statements they proved ("this ack is
flush-dominated", "this flush body never exits dirty") — which the CLI
can print and tests assert on: a clean run should be clean because the
obligations were discharged, not because nothing was checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sanitize import engine
from repro.sanitize.engine import FileContext, Finding, Rule
from repro.sanitize.deep import durability
from repro.sanitize.deep.callgraph import CallGraph
from repro.sanitize.deep.project import Project


@dataclass
class DeepResult:
    """Everything one deep run produced."""

    findings: List[Finding] = field(default_factory=list)
    #: positive statements the analyses proved, e.g.
    #: ``lvm101 ack-clean repro/serve/server.py::TxnServer._commit:239``
    facts: List[str] = field(default_factory=list)
    #: number of files analysed
    files: int = 0
    #: number of functions in the project index
    functions: int = 0


def _contexts_for(
    paths: Sequence[Path],
) -> Tuple[List[FileContext], List[Finding]]:
    contexts: List[FileContext] = []
    parse_findings: List[Finding] = []
    for file_path in engine.iter_python_files(paths):
        source = file_path.read_text()
        try:
            ctx = engine.make_context(
                source, engine.module_path_for(file_path), str(file_path)
            )
        except SyntaxError as exc:
            parse_findings.append(
                Finding(
                    path=str(file_path),
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    rule_id="LVM000",
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        contexts.append(ctx)
    return contexts, parse_findings


def run_deep(
    paths: Sequence[Path],
    rules: Optional[Sequence[Rule]] = None,
    check_suppressions: bool = True,
) -> DeepResult:
    """Run flat rules + the deep LVM101 analysis over ``paths``.

    ``rules`` defaults to the full flat rule set; pass an explicit
    (possibly empty) sequence to restrict it.  ``check_suppressions``
    controls the LVM007 dead-suppression pass and should be False when
    the rule set is restricted.
    """
    if rules is None:
        from repro.sanitize.rules import all_rules

        rules = all_rules()

    contexts, findings = _contexts_for(paths)
    result = DeepResult(findings=findings, files=len(contexts))

    # Flat single-file rules over the shared contexts.
    for ctx in contexts:
        result.findings.extend(engine.run_rules(ctx, rules))

    # Whole-program model.
    project = Project.from_contexts(contexts)
    graph = CallGraph(project)
    result.functions = len(project.functions)

    deep_findings, facts = durability.check(project, graph)
    result.facts.extend(facts)

    # Deep findings honour the same suppression comments; route them
    # through the owning context so LVM007 sees the usage.
    ctx_by_path: Dict[str, FileContext] = {ctx.path: ctx for ctx in contexts}
    for finding in deep_findings:
        ctx = ctx_by_path.get(finding.path)
        if ctx is not None and ctx.suppressed(finding):
            continue
        result.findings.append(finding)

    if check_suppressions:
        for ctx in contexts:
            result.findings.extend(engine.dead_suppression_findings(ctx))

    result.findings.sort()
    result.facts.sort()
    return result

