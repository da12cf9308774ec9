"""The lint engine: file collection, suppressions, and rule execution.

The engine walks a source tree, parses every ``*.py`` file once into a
:class:`SourceModule` (AST plus an import table and the file's suppression
comments), hands the modules to every registered rule, and folds the raw
findings together with the suppression table into a :class:`LintResult`.

Suppression syntax::

    value = time.time()  # repro-lint: disable=REP002 run ids record wall-clock provenance

    # repro-lint: disable=REP001 deliberate global-rng escape hatch for demos
    np.random.shuffle(order)

A trailing comment suppresses findings on its own line; a standalone comment
line suppresses findings on the line directly below it.  Several rule ids may
be comma-separated (``disable=REP001,REP002``); the reason is **mandatory** —
a reasonless or unknown-rule suppression is itself reported under
:data:`SUPPRESSION_RULE_ID` so undocumented escapes cannot land silently.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Rule id the engine itself reports malformed suppressions under.
SUPPRESSION_RULE_ID = "REP000"

#: Matches one suppression comment anywhere in a physical line.
_SUPPRESSION_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9,]+)\s*(.*)$")

_RULE_ID_RE = re.compile(r"^REP\d{3}$")


@dataclass(frozen=True)
class Finding:
    """One rule violation (or suppressed would-be violation) at a source line."""

    rule: str
    path: str
    line: int
    column: int
    message: str
    suppressed: bool = False
    suppression_reason: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready payload for the ``findings`` array of a lint report."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "suppressed": self.suppressed,
            "suppression_reason": self.suppression_reason,
        }


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro-lint: disable=...`` comment."""

    rules: Tuple[str, ...]
    reason: str
    comment_line: int
    applies_to_line: int


class SourceModule:
    """One parsed source file plus the derived tables the rules consult."""

    def __init__(self, path: Path, relpath: str, text: str) -> None:
        self.path = path
        self.relpath = relpath
        self.text = text
        self.tree = ast.parse(text, filename=str(path))
        self.suppressions = _parse_suppressions(text)
        # alias -> imported module dotted path ("np" -> "numpy",
        # "dt" -> "datetime"); covers `import x` and `import x.y as z`.
        self.module_aliases: Dict[str, str] = {}
        # local name -> "module.attr" for `from module import attr [as name]`.
        self.from_imports: Dict[str, str] = {}
        self._collect_imports()

    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve_call_target(self, func: ast.expr) -> Optional[str]:
        """Dotted origin of a called expression, or None when unknown.

        ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
        through the import table; a bare name resolves through ``from``
        imports (``from time import perf_counter`` -> ``time.perf_counter``).
        Names bound by assignment (``rng = ...; rng.random()``) do not
        resolve, which keeps method calls on generator objects out of the
        module-level randomness rules.
        """
        if isinstance(func, ast.Name):
            return self.from_imports.get(func.id)
        if isinstance(func, ast.Attribute):
            parts: List[str] = []
            node: ast.expr = func
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if not isinstance(node, ast.Name):
                return None
            base = node.id
            parts.reverse()
            if base in self.module_aliases:
                return ".".join([self.module_aliases[base], *parts])
            if base in self.from_imports:
                return ".".join([self.from_imports[base], *parts])
        return None

    def path_endswith(self, *suffixes: str) -> bool:
        """True when the module's tree-relative path ends with any suffix.

        Matching is by whole path segments (``utils/rng.py`` matches
        ``repro/utils/rng.py`` but not ``myutils/rng.py``).
        """
        parts = self.relpath.split("/")
        for suffix in suffixes:
            suffix_parts = suffix.split("/")
            if parts[-len(suffix_parts):] == suffix_parts:
                return True
        return False


def _parse_suppressions(text: str) -> List[Suppression]:
    suppressions: List[Suppression] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        match = _SUPPRESSION_RE.search(line)
        if match is None:
            continue
        rules = tuple(rule.strip() for rule in match.group(1).split(",") if rule.strip())
        reason = match.group(2).strip()
        standalone = line.strip().startswith("#")
        suppressions.append(
            Suppression(
                rules=rules,
                reason=reason,
                comment_line=line_number,
                applies_to_line=line_number + 1 if standalone else line_number,
            )
        )
    return suppressions


@dataclass
class ProjectContext:
    """Cross-file state shared by every rule during one engine run."""

    root: Path
    modules: List[SourceModule]
    schema_baseline: Optional[Mapping[str, Any]] = None
    #: Per-rule extra report payloads (e.g. REP004's schema fingerprint).
    inventory: Dict[str, Any] = field(default_factory=dict)

    def find_module(self, *suffixes: str) -> Optional[SourceModule]:
        """First module whose path ends with one of ``suffixes``, if any."""
        for module in self.modules:
            if module.path_endswith(*suffixes):
                return module
        return None


@dataclass
class LintResult:
    """Everything one engine run produced."""

    root: str
    findings: List[Finding]
    files_scanned: int
    rules: Tuple[str, ...]
    inventory: Dict[str, Any] = field(default_factory=dict)

    @property
    def violations(self) -> List[Finding]:
        """Findings that fail the run (everything not suppressed)."""
        return [finding for finding in self.findings if not finding.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        """Findings silenced by a documented suppression comment."""
        return [finding for finding in self.findings if finding.suppressed]

    @property
    def ok(self) -> bool:
        """True when the tree is clean (suppressed findings do not fail)."""
        return not self.violations


def collect_sources(root: Path) -> List[SourceModule]:
    """Parse every ``*.py`` file under ``root`` (a file lints alone).

    Files that fail to parse are skipped silently here; the engine surfaces
    them as findings so a syntax error cannot hide other violations.
    """
    root = root.resolve()
    paths = [root] if root.is_file() else sorted(root.rglob("*.py"))
    modules: List[SourceModule] = []
    for path in paths:
        if "__pycache__" in path.parts:
            continue
        relpath = path.name if root.is_file() else path.relative_to(root).as_posix()
        try:
            modules.append(SourceModule(path, relpath, path.read_text(encoding="utf-8")))
        except SyntaxError:
            continue
    return modules


class LintEngine:
    """Run a rule pack over a source tree and apply suppressions.

    Parameters
    ----------
    rules:
        The rules to run; defaults to the full registered pack
        (:data:`repro.analysis.rules.RULES`).
    schema_baseline:
        Parsed schema baseline mapping for REP004; defaults to the packaged
        ``schema_baseline.json``.  Pass ``None`` explicitly via
        ``use_default_baseline=False`` to run without a baseline (REP004
        then only fires when the analysed tree disagrees with itself).
    """

    def __init__(
        self,
        rules: Optional[Sequence[Any]] = None,
        schema_baseline: Optional[Mapping[str, Any]] = None,
        use_default_baseline: bool = True,
    ) -> None:
        if rules is None:
            from repro.analysis.rules import default_rules

            rules = default_rules()
        self._rules = list(rules)
        if schema_baseline is None and use_default_baseline:
            from repro.analysis.rules import load_default_baseline

            schema_baseline = load_default_baseline()
        self._baseline = schema_baseline

    @property
    def rules(self) -> Tuple[Any, ...]:
        """The rule pack this engine runs, in execution order."""
        return tuple(self._rules)

    def run(self, root: Path) -> LintResult:
        """Lint the tree under ``root`` and return the folded result."""
        root = Path(root)
        modules = collect_sources(root)
        context = ProjectContext(
            root=root, modules=modules, schema_baseline=self._baseline
        )
        raw: List[Finding] = []
        for module in modules:
            raw.extend(_syntax_findings(module))
        for rule in self._rules:
            raw.extend(rule.check(context))
        findings = _apply_suppressions(raw, modules)
        findings.extend(_suppression_hygiene(modules, known_rules={r.id for r in self._rules}))
        findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
        return LintResult(
            root=str(root),
            findings=findings,
            files_scanned=len(modules),
            rules=tuple(rule.id for rule in self._rules),
            inventory=dict(context.inventory),
        )


def _syntax_findings(module: SourceModule) -> List[Finding]:
    # collect_sources drops unparseable files before a SourceModule exists,
    # so reaching here means the module parsed; nothing to report.
    return []


def _apply_suppressions(
    findings: Iterable[Finding], modules: Sequence[SourceModule]
) -> List[Finding]:
    by_path: Dict[str, List[Suppression]] = {}
    for module in modules:
        by_path[module.relpath] = module.suppressions
    folded: List[Finding] = []
    for finding in findings:
        matched: Optional[Suppression] = None
        for suppression in by_path.get(finding.path, ()):
            if finding.rule in suppression.rules and (
                suppression.applies_to_line == finding.line
            ):
                matched = suppression
                break
        if matched is not None and matched.reason:
            folded.append(
                Finding(
                    rule=finding.rule,
                    path=finding.path,
                    line=finding.line,
                    column=finding.column,
                    message=finding.message,
                    suppressed=True,
                    suppression_reason=matched.reason,
                )
            )
        else:
            folded.append(finding)
    return folded


def _suppression_hygiene(
    modules: Sequence[SourceModule], known_rules: Iterable[str]
) -> List[Finding]:
    """Findings for malformed suppression comments (no reason, unknown rule)."""
    known = set(known_rules)
    findings: List[Finding] = []
    for module in modules:
        for suppression in module.suppressions:
            if not suppression.reason:
                findings.append(
                    Finding(
                        rule=SUPPRESSION_RULE_ID,
                        path=module.relpath,
                        line=suppression.comment_line,
                        column=0,
                        message=(
                            "suppression without a reason: every "
                            "`# repro-lint: disable=...` must say why "
                            f"(rules: {', '.join(suppression.rules)})"
                        ),
                    )
                )
            for rule_id in suppression.rules:
                if not _RULE_ID_RE.match(rule_id) or (
                    known and rule_id not in known and rule_id != SUPPRESSION_RULE_ID
                ):
                    findings.append(
                        Finding(
                            rule=SUPPRESSION_RULE_ID,
                            path=module.relpath,
                            line=suppression.comment_line,
                            column=0,
                            message=f"suppression names unknown rule {rule_id!r}",
                        )
                    )
    return findings
