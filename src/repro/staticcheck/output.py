"""Report rendering: text, JSON, and SARIF 2.1.0.

Text is the human gate output (one ``path:line: rule: message`` line
per finding, plus a summary).  JSON
is the machine form of the same.  SARIF is what CI uploads as an
artifact: a minimal-but-valid SARIF 2.1.0 log with the full rule
catalog in ``tool.driver.rules``, one result per finding, and the
stable fingerprint under ``fingerprints`` so SARIF viewers dedupe
findings across commits.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from .base import Finding, RuleSpec

__all__ = ["render_text", "to_json", "to_sarif"]

#: SARIF schema constants.
_SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
_TOOL_NAME = "repro-staticcheck"


def render_text(findings: Sequence[Finding], files_checked: int, root: Path,
                wall_seconds: float | None = None,
                max_findings: int = 100) -> str:
    """The console report."""
    lines = [finding.describe(root) for finding in findings[:max_findings]]
    if len(findings) > max_findings:
        lines.append(f"... {len(findings) - max_findings} more findings "
                     f"elided (--max-findings)")
    status = "FAIL" if findings else "OK"
    summary = (f"{status}: {files_checked} files checked, "
               f"{len(findings)} findings")
    if wall_seconds is not None:
        summary += f" [{wall_seconds:.2f}s]"
    lines.append(summary)
    return "\n".join(lines)


def to_json(findings: Sequence[Finding], files_checked: int,
            root: Path) -> str:
    """The ``--format json`` document."""
    return json.dumps({
        "tool": _TOOL_NAME,
        "files_checked": files_checked,
        "finding_count": len(findings),
        "findings": [finding.to_dict(root) for finding in findings],
    }, indent=2, sort_keys=True)


def to_sarif(findings: Sequence[Finding], catalog: Sequence[RuleSpec],
             root: Path) -> str:
    """The ``--format sarif`` document (SARIF 2.1.0)."""
    rules = []
    seen_ids: set[str] = set()
    for spec in catalog:
        for rule_id in spec.rule_ids:
            if rule_id in seen_ids:
                continue
            seen_ids.add(rule_id)
            rules.append({
                "id": rule_id,
                "shortDescription": {"text": spec.description},
                "properties": {"pass": spec.name, "kind": spec.kind,
                               "tier": spec.tier},
            })
    # Findings may carry rule ids outside the catalog (defensive).
    for finding in findings:
        if finding.rule not in seen_ids:
            seen_ids.add(finding.rule)
            rules.append({"id": finding.rule,
                          "shortDescription": {"text": finding.rule}})

    def result(finding: Finding) -> dict:
        try:
            uri = finding.path.relative_to(root).as_posix()
        except ValueError:
            uri = finding.path.as_posix()
        record: dict = {
            "ruleId": finding.rule,
            "level": finding.severity,
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": uri},
                    "region": {"startLine": max(finding.line, 1)},
                },
            }],
            "fingerprints": {f"{_TOOL_NAME}/v1": finding.fingerprint},
        }
        if finding.symbol:
            record["properties"] = {"symbol": finding.symbol,
                                    "pass": finding.source}
        return record

    log = {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": _TOOL_NAME,
                    "informationUri":
                        "https://example.invalid/repro/staticcheck",
                    "rules": rules,
                },
            },
            "results": [result(finding) for finding in findings],
        }],
    }
    return json.dumps(log, indent=2)
