"""Machine-readable output for the deep linter: JSON and SARIF 2.1.0.

The JSON document is the repo's own stable shape (versioned, findings
plus proved facts plus per-rule counts) for scripts and the benchmark
harness; SARIF is for code-scanning UIs, which want physical locations
and per-rule metadata but have no slot for *facts*, so those travel in
``run.properties``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.sanitize.engine import (
    DEAD_SUPPRESSION_ID,
    DEAD_SUPPRESSION_TITLE,
    Finding,
)

#: JSON report schema version.
REPORT_VERSION = 1

#: Short descriptions for the deep rules (SARIF driver metadata).
RULE_TITLES: Dict[str, str] = {
    "LVM101": "durability ordering: flush+barrier must dominate every ack",
    "LVM102": "cycle-domain units: cycle counts must not mix with wall/bytes",
    "LVM103": "stage balance and gate purity on all paths",
    "LVM104": "registered fault sites must be reachable from a public root",
    DEAD_SUPPRESSION_ID: DEAD_SUPPRESSION_TITLE,
}


def _counts(findings: Sequence[Finding]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
    return counts


def to_json(findings: Sequence[Finding], facts: Sequence[str]) -> str:
    doc = {
        "version": REPORT_VERSION,
        "findings": [
            {
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "rule_id": f.rule_id,
                "message": f.message,
            }
            for f in findings
        ],
        "facts": list(facts),
        "counts": _counts(findings),
    }
    return json.dumps(doc, indent=2) + "\n"


def to_sarif(findings: Sequence[Finding], facts: Sequence[str]) -> str:
    rule_ids = sorted({f.rule_id for f in findings} | set(RULE_TITLES))
    rules: List[Dict[str, object]] = []
    for rule_id in rule_ids:
        rule: Dict[str, object] = {"id": rule_id}
        title = RULE_TITLES.get(rule_id)
        if title:
            rule["shortDescription"] = {"text": title}
        rules.append(rule)
    results = [
        {
            "ruleId": f.rule_id,
            "level": "error",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.path.replace("\\", "/")},
                        "region": {
                            "startLine": f.line,
                            "startColumn": f.col,
                        },
                    }
                }
            ],
        }
        for f in findings
    ]
    doc = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "lvm-san-deep",
                        "informationUri": "https://example.invalid/lvm-verify",
                        "rules": rules,
                    }
                },
                "results": results,
                "properties": {"facts": list(facts)},
            }
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
