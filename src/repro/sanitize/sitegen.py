"""Generator for the fault-site registry ``repro/faults/sites.py``.

The registry is *derived from the code*: this module sweeps the source
tree with the same AST machinery as the linter, collects every literal
injection-site string — ``hit("...")`` call sites plus the ``SITE_*``
constants in :mod:`repro.faults.plan` — and renders a committed module
mapping each site to the files that declare it.  LVM005 then resolves
every site literal against the registry, and a golden test
re-runs the sweep and diffs it against the committed file, so the
registry can never drift from the code.

Regenerate with ``python -m repro lint --regen-sites``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Optional, Set, Tuple

from repro.sanitize.engine import iter_python_files, module_path_for

#: Call names whose first (or ``site=``) argument names an injection site.
_SITE_CALLS = frozenset({"hit", "at_site"})

_HEADER = '''\
"""Central registry of fault-injection sites.

AUTO-GENERATED by ``python -m repro lint --regen-sites`` from a sweep
of every literal ``hit("...")`` call site and ``SITE_*`` constant under
``src/repro`` — do not edit by hand.  Lint rule LVM005 resolves every
site literal against :data:`ALL_SITES`, and
``tests/faults/test_sites_registry.py`` keeps this file in sync with
the code and proves each site is exercised by at least one test.

The rvm and rlvm libraries share one durability protocol
(``repro/rvm/library.py``), which declares its crash points once; only
``rvm.commit.begin`` and ``rvm.abort``, where each library's own commit
and abort start, appear in both library files.
"""

from __future__ import annotations

#: site -> source files (package-relative) that declare it
SITES: dict[str, tuple[str, ...]] = {
'''

_FOOTER = '''}

#: Every known injection-site name.
ALL_SITES: frozenset[str] = frozenset(SITES)
'''


def _literal_site(call: ast.Call) -> Optional[str]:
    arg: Optional[ast.expr] = call.args[0] if call.args else None
    if arg is None:
        for keyword in call.keywords:
            if keyword.arg == "site":
                arg = keyword.value
                break
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    return None


def _call_name(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def sweep_sites(root: Path) -> Dict[str, Tuple[str, ...]]:
    """Collect ``site -> sorted(files)`` from the tree under ``root``."""
    found: Dict[str, Set[str]] = {}
    for file_path in iter_python_files([root]):
        module_path = module_path_for(file_path)
        if module_path == "repro/faults/sites.py":
            continue
        try:
            tree = ast.parse(file_path.read_text(), filename=str(file_path))
        except SyntaxError:
            continue
        for node in ast.walk(tree):
            site: Optional[str] = None
            if isinstance(node, ast.Call):
                if _call_name(node.func) in _SITE_CALLS:
                    site = _literal_site(node)
            elif isinstance(node, ast.Assign):
                if (
                    len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id.startswith("SITE_")
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)
                ):
                    site = node.value.value
            if site is not None:
                found.setdefault(site, set()).add(module_path)
    return {site: tuple(sorted(files)) for site, files in sorted(found.items())}


def render(sites: Dict[str, Tuple[str, ...]]) -> str:
    """Render the registry module text for ``sites``."""
    lines = [_HEADER]
    for site, files in sorted(sites.items()):
        file_list = ", ".join(f'"{f}"' for f in files)
        trailing = "," if len(files) == 1 else ""
        lines.append(f'    "{site}": ({file_list}{trailing}),\n')
    lines.append(_FOOTER)
    return "".join(lines)


def default_root() -> Path:
    """The installed ``repro`` package directory."""
    import repro

    return Path(repro.__file__).resolve().parent


def registry_path(root: Optional[Path] = None) -> Path:
    return (root or default_root()) / "faults" / "sites.py"


def generate(root: Optional[Path] = None, out_path: Optional[Path] = None) -> Path:
    """Sweep ``root`` and (re)write the committed registry."""
    root = root or default_root()
    out_path = out_path or registry_path(root)
    out_path.write_text(render(sweep_sites(root)))
    return out_path
