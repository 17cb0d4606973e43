"""The paper's results as generated, digest-pinned data.

``python -m repro paper`` runs every entry of :data:`ENTRIES` — Tables
2–3, Figures 7–12, the ablations and the extensions beyond the paper —
and, in the current directory:

* writes ``PAPER_RESULTS.json``: per entry, the series, its SHA-256
  over canonical JSON, and its check verdict (``holds`` or the failing
  assertion's source line);
* rewrites each table in ``EXPERIMENTS.md`` between
  ``<!-- paper:NAME -->`` and ``<!-- /paper:NAME -->`` from that data;
* exits 1 if any check fails, naming the entries.

Every series is simulated cycles on freshly booted machines, so a change
to a digest means the timing model moved.  ``tests/test_paper.py``
recomputes each series against the committed file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import traceback
from pathlib import Path

from repro.core.context import set_current_machine
from repro.paper import ablations, extensions, figures, tables

ENTRIES = {
    e.name: e
    for e in (*tables.ENTRIES, *figures.ENTRIES, *ablations.ENTRIES, *extensions.ENTRIES)
}

RESULTS_FILE = "PAPER_RESULTS.json"
EXPERIMENTS_FILE = "EXPERIMENTS.md"
BLOCK = re.compile(r"<!-- paper:(\w+) -->\n.*?<!-- /paper:\1 -->\n", re.DOTALL)


def canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)


def measure(entry) -> dict:
    """Run ``entry`` and return its series as loaded back from JSON."""
    try:
        return json.loads(canonical(entry.run()))
    finally:
        set_current_machine(None)


def verdict(entry, series) -> str:
    """``holds``, or ``fails: `` plus the first failing assertion's line."""
    try:
        entry.check(series)
    except AssertionError as exc:
        line = traceback.extract_tb(exc.__traceback__)[-1].line
        message = str(exc)
        return f"fails: {line}" + (f" ({message})" if message not in line else "")
    return "holds"


def result(entry) -> dict:
    series = measure(entry)
    return {
        "series": series,
        "sha256": hashlib.sha256(canonical(series).encode()).hexdigest(),
        "check": verdict(entry, series),
    }


def _cell(value, digits) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def render(name, res) -> str:
    """The ``EXPERIMENTS.md`` block for entry ``name``'s result."""
    entry = ENTRIES[name]
    header, *rows = entry.table(res["series"])
    lines = [f"<!-- paper:{name} -->"]
    for row in (header, ["---"] * len(header), *rows):
        lines.append("| " + " | ".join(_cell(v, entry.digits) for v in row) + " |")
    check = res["check"]
    lines.append("")
    lines.append(f"`{name}` check: " + ("holds" if check == "holds" else f"**{check}**"))
    lines.append(f"<!-- /paper:{name} -->")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    argparse.ArgumentParser(
        prog="python -m repro paper",
        description="Regenerate the paper's tables and figures as pinned data "
        f"({RESULTS_FILE} and the {EXPERIMENTS_FILE} tables in the current "
        "directory); exit 1 if any paper-shape check fails.",
    ).parse_args(argv)
    if not __debug__:
        print("python -m repro paper: the checks are assertions; run without -O")
        return 2

    results = {}
    for name, entry in ENTRIES.items():
        results[name] = result(entry)
        print(f"{name:<24} {results[name]['check']}", flush=True)
    Path(RESULTS_FILE).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")

    experiments = Path(EXPERIMENTS_FILE)
    if experiments.exists():
        experiments.write_text(BLOCK.sub(
            lambda m: render(m.group(1), results[m.group(1)])
            if m.group(1) in results else m.group(0),
            experiments.read_text(),
        ))

    failing = [name for name, res in results.items() if res["check"] != "holds"]
    if failing:
        print(f"{len(failing)} of {len(results)} paper checks fail: {', '.join(failing)}")
        return 1
    print(f"all {len(results)} paper checks hold")
    return 0
