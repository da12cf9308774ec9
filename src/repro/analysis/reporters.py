"""Human-readable and JSON reporters for lint results.

The JSON shape is the ``lint-report.json`` artifact CI uploads and
``test_json_report_schema`` in ``tests/test_analysis.py`` pins; bump
:data:`LINT_REPORT_SCHEMA_VERSION` when it changes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.analysis.engine import Finding, LintResult

#: Version stamped on every JSON lint report.
LINT_REPORT_SCHEMA_VERSION = 1


def json_report(result: LintResult) -> Dict[str, Any]:
    """The machine-readable report: findings, counts, and rule inventories."""
    return {
        "schema": LINT_REPORT_SCHEMA_VERSION,
        "root": result.root,
        "files_scanned": result.files_scanned,
        "rules": list(result.rules),
        "violation_count": len(result.violations),
        "suppressed_count": len(result.suppressed),
        "findings": [finding.to_dict() for finding in result.findings],
        "inventory": result.inventory,
        "ok": result.ok,
    }


def render_json(result: LintResult) -> str:
    """The JSON report as a stable, diff-friendly string."""
    return json.dumps(json_report(result), indent=2, sort_keys=True)


def _finding_line(finding: Finding) -> str:
    return f"{finding.path}:{finding.line}:{finding.column + 1}: {finding.rule} {finding.message}"


def render_text(result: LintResult) -> str:
    """The human report: violations and documented suppressions."""
    lines: List[str] = []
    violations = result.violations
    for finding in violations:
        lines.append(_finding_line(finding))
    suppressed = result.suppressed
    if suppressed:
        lines.append("")
        lines.append(f"documented suppressions ({len(suppressed)}):")
        for finding in suppressed:
            lines.append(f"  {_finding_line(finding)}")
            lines.append(f"      reason: {finding.suppression_reason}")
    lines.append("")
    lines.append(
        f"{len(violations)} violation(s), {len(suppressed)} suppressed, "
        f"{result.files_scanned} file(s) scanned"
    )
    return "\n".join(lines)
