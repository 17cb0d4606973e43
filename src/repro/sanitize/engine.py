"""AST lint framework for the repo's simulator invariants.

The engine is deliberately small: a :class:`Rule` is a plugin that
walks one file's AST and yields :class:`Finding`\\ s; the engine owns
file discovery, parsing, suppression comments, and ordering.  Rules
live in :mod:`repro.sanitize.rules`; ``python -m repro lint`` is the
CLI front end (:mod:`repro.sanitize.cli`).

Suppression is per line and per rule::

    started = time.time()  # lvm-san: ignore[LVM001]
    anything_goes_here()   # lvm-san: ignore

A bare ``ignore`` silences every rule on that line; ``ignore[...]``
takes a comma-separated rule-id list.  Suppressions are extracted with
:mod:`tokenize` so strings that merely *contain* the marker do not
count.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

#: Top-level ``repro`` subpackages whose code runs in the simulated
#: cycle domain and must therefore be deterministic and integer-timed.
CYCLE_DOMAIN_PACKAGES = frozenset(
    {
        "hw",
        "core",
        "rvm",
        "backends",
        "timewarp",
        "obs",
        "faults",
        "replay",
        "analytics",
    }
)

#: Matches a suppression comment; group 1 is the optional rule list.
_SUPPRESS_RE = re.compile(r"lvm-san\s*:\s*ignore(?:\[([A-Za-z0-9_,\s]*)\])?")

#: Sentinel stored in the suppression map for a bare ``ignore``.
SUPPRESS_ALL = "*"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


class Rule:
    """Base class for lint rules.

    Subclasses set ``rule_id`` / ``title`` / ``rationale`` and
    implement :meth:`check`.  ``rationale`` is user documentation — it
    is what ``--list-rules`` prints and what DESIGN.md quotes.
    """

    rule_id: str = "LVM000"
    title: str = ""
    rationale: str = ""

    def check(self, ctx: "FileContext") -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, ctx: "FileContext", node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.rule_id,
            message=message,
        )


@dataclass
class FileContext:
    """Everything a rule may look at for one file."""

    path: str
    #: path relative to the package root, e.g. ``repro/hw/bus.py``
    module_path: str
    source: str
    tree: ast.Module
    #: line -> rule ids suppressed there (or :data:`SUPPRESS_ALL`)
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: (line, rule-id-or-*) suppressions that matched a diagnostic —
    #: anything left unused is a dead suppression (LVM007)
    used_suppressions: Set[Tuple[int, str]] = field(default_factory=set)

    @property
    def package_parts(self) -> Tuple[str, ...]:
        return tuple(self.module_path.split("/"))

    @property
    def in_cycle_domain(self) -> bool:
        parts = self.package_parts
        return (
            len(parts) >= 2
            and parts[0] == "repro"
            and parts[1] in CYCLE_DOMAIN_PACKAGES
        )

    @property
    def module_name(self) -> str:
        """Dotted module name, e.g. ``repro.hw.bus``."""
        parts = list(self.package_parts)
        if parts and parts[-1].endswith(".py"):
            parts[-1] = parts[-1][: -len(".py")]
        if parts and parts[-1] == "__init__":
            parts.pop()
        return ".".join(parts)

    def suppressed(self, finding: Finding) -> bool:
        rules = self.suppressions.get(finding.line)
        if not rules:
            return False
        if finding.rule_id in rules:
            self.used_suppressions.add((finding.line, finding.rule_id))
            return True
        if SUPPRESS_ALL in rules:
            self.used_suppressions.add((finding.line, SUPPRESS_ALL))
            return True
        return False


def _parse_suppressions(source: str) -> Dict[int, Set[str]]:
    suppressions: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match is None:
                continue
            listed = match.group(1)
            if listed is None:
                rules = {SUPPRESS_ALL}
            else:
                rules = {part.strip() for part in listed.split(",") if part.strip()}
                if not rules:
                    rules = {SUPPRESS_ALL}
            suppressions.setdefault(tok.start[0], set()).update(rules)
    except tokenize.TokenError:
        # The AST parse will report the real problem.
        pass
    return suppressions


def make_context(source: str, module_path: str, path: str | None = None) -> FileContext:
    """Parse ``source`` into a :class:`FileContext` (raises SyntaxError)."""
    tree = ast.parse(source, filename=path or module_path)
    return FileContext(
        path=path or module_path,
        module_path=module_path,
        source=source,
        tree=tree,
        suppressions=_parse_suppressions(source),
    )


#: Rule id of the engine-level dead-suppression check.
DEAD_SUPPRESSION_ID = "LVM007"

DEAD_SUPPRESSION_TITLE = "suppression comments must still match a diagnostic"
DEAD_SUPPRESSION_RATIONALE = (
    "an `# lvm-san: ignore[...]` whose diagnostic no longer fires is a "
    "trap: the code it excused has changed, but the suppression will "
    "silently swallow the next, different violation on that line.  Only "
    "checked when the full rule set runs (under --select a suppression "
    "for an unselected rule is not dead, just unexercised)."
)


def dead_suppression_findings(ctx: FileContext) -> List[Finding]:
    """LVM007: suppressions that matched nothing this run.

    Call only after every rule (including deep rules, when enabled) has
    been filtered through :meth:`FileContext.suppressed`, and only when
    the *full* rule set ran — under ``--select`` an unmatched
    suppression proves nothing.
    """
    findings: List[Finding] = []
    for line, rules in sorted(ctx.suppressions.items()):
        for rule_id in sorted(rules):
            if (line, rule_id) in ctx.used_suppressions:
                continue
            label = "" if rule_id == SUPPRESS_ALL else f"[{rule_id}]"
            findings.append(
                Finding(
                    path=ctx.path,
                    line=line,
                    col=1,
                    rule_id=DEAD_SUPPRESSION_ID,
                    message=(
                        f"dead suppression: `lvm-san: ignore{label}` matches "
                        "no diagnostic on this line — remove it"
                    ),
                )
            )
    return findings


def run_rules(
    ctx: FileContext, rules: Sequence[Rule], check_suppressions: bool = False
) -> List[Finding]:
    findings: List[Finding] = []
    for rule in rules:
        for finding in rule.check(ctx):
            if not ctx.suppressed(finding):
                findings.append(finding)
    if check_suppressions:
        findings.extend(dead_suppression_findings(ctx))
    return sorted(findings)


def lint_source(
    source: str, module_path: str, rules: Sequence[Rule], path: str | None = None
) -> List[Finding]:
    """Lint one in-memory file.  The fixture-test entry point."""
    return run_rules(make_context(source, module_path, path), rules)


def module_path_for(path: Path) -> str:
    """Best-effort package-relative path (``repro/hw/bus.py``)."""
    parts = path.as_posix().split("/")
    for anchor in ("repro",):
        if anchor in parts:
            return "/".join(parts[parts.index(anchor) :])
    return path.name


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(
    paths: Sequence[Path],
    rules: Sequence[Rule],
    check_suppressions: bool = False,
) -> List[Finding]:
    """Lint files/trees on disk; parse failures become findings.

    ``check_suppressions`` enables the LVM007 dead-suppression pass;
    it is only sound when *every* rule a suppression could name runs,
    so the CLI enables it for ``--deep`` runs (flat + deep rules) and
    leaves it off for flat or ``--select`` runs.
    """
    findings: List[Finding] = []
    for file_path in iter_python_files(paths):
        source = file_path.read_text()
        try:
            ctx = make_context(source, module_path_for(file_path), str(file_path))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    path=str(file_path),
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    rule_id="LVM000",
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        findings.extend(run_rules(ctx, rules, check_suppressions=check_suppressions))
    return sorted(findings)
