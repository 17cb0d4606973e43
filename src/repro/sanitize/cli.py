"""CLI front ends: ``python -m repro lint`` and ``python -m repro race``.

``lint`` runs the rule plugins over a source tree (default: the
installed ``repro`` package) and exits 1 on findings; ``race`` replays
canned :mod:`repro.obs.workloads` under the log-race detector and
exits 1 if any unsynchronized cross-CPU same-page write is observed
or any probe stage is left open.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.sanitize import engine
from repro.sanitize.rules import all_rules


def lint_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Check the repo's simulator invariants (lvm-san).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id, title, and rationale, then exit",
    )
    parser.add_argument(
        "--regen-sites",
        action="store_true",
        help="regenerate repro/faults/sites.py from the code, then exit",
    )
    parser.add_argument(
        "--deep",
        action="store_true",
        help=(
            "also run the interprocedural durability-ordering analysis "
            "(LVM101) and the LVM007 dead-suppression check"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (json and sarif require --deep)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--facts",
        action="store_true",
        help="with --deep: also print the facts the analyses proved",
    )
    args = parser.parse_args(argv)

    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}  {rule.title}")
            print(f"        {rule.rationale}")
        print(f"{engine.DEAD_SUPPRESSION_ID}  {engine.DEAD_SUPPRESSION_TITLE}")
        print(f"        {engine.DEAD_SUPPRESSION_RATIONALE}")
        return 0
    if args.format != "text" and not args.deep:
        parser.error(f"--format {args.format} requires --deep")
    if args.regen_sites:
        from repro.sanitize import sitegen

        out_path = sitegen.generate()
        print(f"wrote {out_path}")
        return 0

    if args.select:
        wanted = {part.strip() for part in args.select.split(",") if part.strip()}
        unknown = wanted - {rule.rule_id for rule in rules}
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(sorted(unknown))}")
        rules = [rule for rule in rules if rule.rule_id in wanted]

    paths: List[Path] = list(args.paths)
    if not paths:
        from repro.sanitize.sitegen import default_root

        paths = [default_root()]
    for path in paths:
        if not path.exists():
            parser.error(f"no such path: {path}")

    if args.deep:
        return _deep_lint(args, paths, rules)

    findings = engine.lint_paths(paths, rules)
    for finding in findings:
        print(finding)
    if findings:
        print(f"lvm-san: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


def _deep_lint(
    args: argparse.Namespace,
    paths: List[Path],
    rules: Sequence[engine.Rule],
) -> int:
    from repro.sanitize.deep import report as report_mod
    from repro.sanitize.deep.runner import run_deep

    # Dead-suppression checking is only sound over the full rule set.
    full_set = args.select is None
    result = run_deep(paths, rules=rules, check_suppressions=full_set)
    findings = result.findings

    if args.format == "json":
        text = report_mod.to_json(findings, result.facts)
    elif args.format == "sarif":
        text = report_mod.to_sarif(findings, result.facts)
    else:
        lines = [str(finding) for finding in findings]
        if args.facts:
            lines.extend(f"fact: {fact}" for fact in result.facts)
        text = "".join(line + "\n" for line in lines)

    if args.out is not None:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)

    if findings:
        print(f"lvm-san: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(
        f"lvm-san --deep: clean ({result.files} files, "
        f"{result.functions} functions, {len(result.facts)} facts proved)",
        file=sys.stderr,
    )
    return 0


def race_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro race",
        description="Replay canned workloads under the log-race sanitizer.",
    )
    parser.add_argument(
        "workloads",
        nargs="*",
        default=["copy", "timewarp"],
        help="canned repro.obs workload names (default: copy timewarp)",
    )
    args = parser.parse_args(argv)

    from repro.obs.workloads import run_workload
    from repro.sanitize import race

    failures = 0
    for name in args.workloads:
        detector = race.LogRaceDetector()
        with race.installed(detector):
            run_workload(name)
        print(f"{name}: {detector.summary()}")
        if detector.races_seen or detector.open_stages:
            failures += 1
    return 1 if failures else 0
