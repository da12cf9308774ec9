"""Static determinism & invariant analysis (``repro lint``).

An AST-based lint engine (stdlib :mod:`ast`, no dependencies) that enforces
the repo's reproducibility contract at the source level instead of sampling
it at runtime:

========  ==========================================================
REP001    unseeded / global-state randomness outside ``utils/rng.py``
REP002    wall-clock reads outside the injectable-clock seams
REP003    telemetry span/counter literals must match the registry
REP004    stored-record fields may only change with a schema bump
REP006    executor tasks must be module-top-level and state-free
========  ==========================================================

Suppress a deliberate seam with a written reason::

    started = time.time()  # repro-lint: disable=REP002 <why>

Run ``repro lint`` (or ``python -m repro.analysis``) from a checkout; see
``repro lint --explain REP00x`` for each rule's rationale.
"""

from repro.analysis.engine import (
    SUPPRESSION_RULE_ID,
    Finding,
    LintEngine,
    LintResult,
    SourceModule,
    collect_sources,
)
from repro.analysis.reporters import (
    LINT_REPORT_SCHEMA_VERSION,
    json_report,
    render_json,
    render_text,
)
from repro.analysis.rules import RULES, Rule, compute_schema_baseline, default_rules

__all__ = [
    "Finding",
    "LINT_REPORT_SCHEMA_VERSION",
    "LintEngine",
    "LintResult",
    "RULES",
    "Rule",
    "SUPPRESSION_RULE_ID",
    "SourceModule",
    "collect_sources",
    "compute_schema_baseline",
    "default_rules",
    "json_report",
    "render_json",
    "render_text",
]
