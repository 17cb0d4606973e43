"""Deep linter: whole-repo analysis cost and the 30-second budget.

Not a figure from the paper — this guards the *developer loop*: the
``--deep`` interprocedural pass (project index, call graph, LVM101
abstract interpretation) runs on every commit, so its full-repo wall
time is a budgeted resource.  The bench times each phase separately
over ``src/repro``, asserts the repo is clean (a dirty tree would make
the timing meaningless *and* CI red anyway), and enforces the end-to-
end budget.  Results go to ``BENCH_deep_lint.json``.
"""

from __future__ import annotations

import pathlib
import time

import pytest

from conftest import print_header, write_bench_json
from repro.sanitize.deep import durability
from repro.sanitize.deep.callgraph import CallGraph
from repro.sanitize.deep.project import Project
from repro.sanitize.deep.runner import run_deep

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"
RESULT_FILE = REPO_ROOT / "BENCH_deep_lint.json"

#: Hard wall-clock budget for one full-repo ``--deep`` run (seconds).
#: CI runs this on every commit; past this, developers stop running it.
DEEP_BUDGET_SECS = 30.0


@pytest.mark.benchmark(group="deep_lint")
def test_deep_lint_full_repo_under_budget(benchmark):
    phases = {}

    def run():
        t0 = time.perf_counter()
        project = Project.load([SRC_REPRO])
        graph = CallGraph(project)
        phases["index_and_callgraph"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        findings, facts = durability.check(project, graph)
        phases["rules"] = {
            "lvm101_durability": {
                "secs": time.perf_counter() - t0,
                "findings": len(findings),
                "facts": len(facts),
            }
        }

        # End-to-end, exactly as CI invokes it (flat rules included).
        t0 = time.perf_counter()
        result = run_deep([SRC_REPRO])
        total = time.perf_counter() - t0
        phases["end_to_end_secs"] = total
        return result, total

    result, total = benchmark.pedantic(run, rounds=1, iterations=1)

    assert result.findings == [], "\n".join(str(f) for f in result.findings)
    assert total < DEEP_BUDGET_SECS, (
        f"full-repo --deep took {total:.1f}s, budget is {DEEP_BUDGET_SECS:.0f}s"
    )

    print_header(
        "Deep lint: full-repo interprocedural analysis cost",
        "tooling budget (not a paper figure); 30s ceiling",
    )
    print(f"  files analysed        {result.files}")
    print(f"  functions indexed     {result.functions}")
    print(f"  facts proved          {len(result.facts)}")
    print(f"  index + call graph    {phases['index_and_callgraph']:.2f}s")
    for name, row in phases["rules"].items():
        print(f"  {name:<20}  {row['secs']:.2f}s  ({row['facts']} facts)")
    print(f"  end-to-end            {phases['end_to_end_secs']:.2f}s"
          f"  (budget {DEEP_BUDGET_SECS:.0f}s)")

    write_bench_json(
        RESULT_FILE,
        "deep_lint",
        {
            "files": result.files,
            "functions": result.functions,
            "facts": len(result.facts),
            "findings": len(result.findings),
            "phases": phases,
            "budget_secs": DEEP_BUDGET_SECS,
            "within_budget": total < DEEP_BUDGET_SECS,
        },
    )
