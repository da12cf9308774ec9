"""Every public name in ``src/`` has a caller outside ``tests/``, or README documents it.

The scan takes every top-level function and class in ``src/`` and every method
of a top-level class, skipping names that start with ``_``.  Program code is
``src/**/*.py``, ``src/**/*.toml``, ``examples/``, ``benchmarks/``,
``perfbench/`` and ``scripts/``.  Only code counts: the comments and
docstrings of Python files are blanked out first (each file is tokenised
once), so prose never makes a caller.  A top-level name counts as called
when it occurs in code as an identifier, strings included, because
``perfbench/layers.py`` names what it patches that way; its own definition
does not count, so a function its own error message names is still
reported.  A method counts as called only where it is read as an attribute
(``.name``), named by a whole string (``"name"`` or ``'name'``) or passed as
a keyword (``name=``), so a method that a bare local of the same name
mentions is still reported.  Neither do ``__all__`` lists or the re-export
imports of an ``__init__.py`` count.

The match is by name, so it is approximate: a name that is also some other
attribute in program code counts as called.  Grep a name before acting on
what this reports.  A name it reports needs a caller outside ``tests/``, or
goes (with the tests that check only it), or moves under ``tests/`` when
other tests use it as a helper or reference implementation, or stays on
:data:`ALLOWLIST` with a README entry.
"""

from __future__ import annotations

import ast
import importlib.util
import io
import re
import sys
import tokenize
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Program code: a name occurring here has a caller.
CALLER_DIRS = ("examples", "benchmarks", "perfbench", "scripts")

#: Public names that only tests call, kept as documented API.  Each must stay
#: test-only and be mentioned in README.md.
ALLOWLIST = {
    "HostPerformance.feature_point": "README's fusion example reads one feature's (FP, FN)",
    "ShardedPopulation.resident_shards": "README: the shards a sharded population holds",
    "SweepSpec.to_toml": "README: a sweep written back as TOML, pinned by the golden spec fixture",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: A use that counts as a method call: ``.name``, ``name=``, ``"name"`` or ``'name'``.
_METHOD_USE = re.compile(
    r"\.([A-Za-z_]\w*)|\b([A-Za-z_]\w*)=(?!=)|\"([A-Za-z_]\w*)\"|'([A-Za-z_]\w*)'"
)


@dataclass(frozen=True)
class Definition:
    qualname: str
    path: Path
    line: int

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def is_method(self) -> bool:
        return "." in self.qualname


def _is_public(node: ast.AST) -> bool:
    return isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ) and not node.name.startswith("_")


def _code(source: str) -> str:
    """Python ``source`` with its comments and docstrings blanked out.

    A docstring here is any string that is a whole statement.  Blanked
    characters become spaces, so every line and column stays where it was.
    """
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    prose = [token for token in tokens if token.type == tokenize.COMMENT]
    code = [token for token in tokens if token.type not in (tokenize.NL, tokenize.COMMENT)]
    statement_edges = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
    for index, token in enumerate(code):
        if (
            token.type == tokenize.STRING
            and (index == 0 or code[index - 1].type in statement_edges)
            and code[index + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        ):
            prose.append(token)
    lines = source.splitlines(keepends=True)
    for token in prose:
        (first_row, first_col), (last_row, last_col) = token.start, token.end
        for row in range(first_row, last_row + 1):
            line = lines[row - 1]
            start = first_col if row == first_row else 0
            end = last_col if row == last_row else len(line.rstrip("\n"))
            lines[row - 1] = line[:start] + " " * (end - start) + line[end:]
    return "".join(lines)


def _scan_source(
    path: Path,
    code: str,
    definitions: List[Definition],
    excluded: Counter,
    exported: Counter,
) -> None:
    """Collect ``path``'s public definitions, the ``__all__`` entries, and the
    other occurrences that are not calls (``code`` is its blanked text)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = code.splitlines()
    for node in tree.body:
        if _is_public(node):
            definitions.append(Definition(node.name, path, node.lineno))
            # Every mention inside the definition, its own name included.
            own = "\n".join(lines[node.lineno - 1 : node.end_lineno])
            excluded[node.name] += _IDENTIFIER.findall(own).count(node.name)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if _is_public(item) and not isinstance(item, ast.ClassDef):
                    definitions.append(Definition(f"{node.name}.{item.name}", path, item.lineno))
                    excluded[item.name] += 1
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            for element in ast.walk(node.value):
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    exported[element.value] += 1
        elif path.name == "__init__.py" and isinstance(node, ast.ImportFrom):
            for alias in node.names:
                excluded[alias.name] += 1
                if alias.asname:
                    excluded[alias.asname] += 1


def _read(path: Path) -> str:
    """``path``'s text, blanked to its code when it is a Python file."""
    text = path.read_text(encoding="utf-8")
    return _code(text) if path.suffix == ".py" else text


def _occurrences(texts: Iterable[str]) -> Tuple[Counter, Counter]:
    """Every identifier occurrence in ``texts``, and every use that counts as a method call."""
    identifiers: Counter = Counter()
    method_uses: Counter = Counter()
    for text in texts:
        identifiers.update(_IDENTIFIER.findall(text))
        method_uses.update("".join(groups) for groups in _METHOD_USE.findall(text))
    return identifiers, method_uses


def scan(root: Path) -> Dict[str, List[Definition]]:
    """Public ``src/`` names with no caller, split by whether tests reference them.

    Returns ``{"unreferenced": [...], "test_only": [...]}``.
    """
    definitions: List[Definition] = []
    excluded: Counter = Counter()
    exported: Counter = Counter()
    sources = {path: _read(path) for path in sorted((root / "src").rglob("*.py"))}
    for path, code in sources.items():
        _scan_source(path, code, definitions, excluded, exported)
    callers = list(sources.values())
    callers += [_read(path) for path in sorted((root / "src").rglob("*.toml"))]
    for directory in CALLER_DIRS:
        callers += [_read(path) for path in sorted((root / directory).rglob("*.py"))]
    calls, method_calls = _occurrences(callers)
    tests, method_tests = _occurrences(
        _read(path) for path in sorted((root / "tests").rglob("*.py"))
    )
    excluded += exported
    result: Dict[str, List[Definition]] = {"unreferenced": [], "test_only": []}
    for definition in definitions:
        name = definition.name
        if definition.is_method:
            called = method_calls[name] - exported[name] > 0
            tested = method_tests[name] > 0
        else:
            called = calls[name] - excluded[name] > 0
            tested = tests[name] > 0
        if not called:
            result["test_only" if tested else "unreferenced"].append(definition)
    return result


def _describe(definitions: Iterable[Definition], root: Path) -> str:
    return "\n".join(
        f"  {d.qualname} ({d.path.relative_to(root)}:{d.line})" for d in definitions
    )


@pytest.fixture(scope="module")
def surface() -> Dict[str, List[Definition]]:
    return scan(ROOT)


def test_every_public_name_has_a_caller_outside_tests(surface):
    offenders = [
        definition
        for kind in ("unreferenced", "test_only")
        for definition in surface[kind]
        if definition.qualname not in ALLOWLIST
    ]
    assert not offenders, (
        "public src/ names with no caller outside tests/ (give each a caller, delete it, "
        "move it under tests/, or allowlist it here and document it in README.md):\n"
        + _describe(offenders, ROOT)
    )


def test_allowlisted_names_are_documented_in_readme():
    readme = set(_IDENTIFIER.findall((ROOT / "README.md").read_text(encoding="utf-8")))
    missing = [qualname for qualname in ALLOWLIST if qualname.rsplit(".", 1)[-1] not in readme]
    assert not missing, f"allowlisted names README.md does not mention: {missing}"


def test_allowlist_entries_are_still_test_only(surface):
    test_only = {definition.qualname for definition in surface["test_only"]}
    stale = sorted(set(ALLOWLIST) - test_only)
    assert not stale, (
        "allowlist entries that no longer exist or now have a caller outside tests/ "
        f"(drop them from ALLOWLIST): {stale}"
    )


def test_scan_reports_a_function_only_a_test_calls(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        'from pkg.mod import helper, used, orphan\n\n__all__ = ["helper", "used", "orphan"]\n'
    )
    (package / "mod.py").write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def orphan():\n    return 2\n\n\n"
        "class Thing:\n    def tested(self):\n        return 3\n\n"
        "    def _private(self):\n        return 4\n"
    )
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "run.py").write_text("from pkg import used, Thing\n\nused()\nThing\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import Thing, orphan\n\n\ndef test_it():\n"
        "    assert orphan() == 2 and Thing().tested() == 3\n"
    )
    result = scan(tmp_path)
    assert [d.qualname for d in result["test_only"]] == ["orphan", "Thing.tested"]
    assert result["unreferenced"] == []


def test_scan_counts_toml_string_and_example_references_as_calls(tmp_path):
    package = tmp_path / "src" / "pkg"
    (package / "library").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        "def named_in_toml():\n    return 1\n\n\n"
        "def patched_by_name():\n    return 2\n\n\n"
        "def run_by_example():\n    return 3\n\n\n"
        "def uncalled():\n    return 4\n"
    )
    (package / "library" / "spec.toml").write_text('[scenario]\nkind = "named_in_toml"\n')
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "layers.py").write_text('PATCHED = ["pkg.mod.patched_by_name"]\n')
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from pkg.mod import run_by_example\n\nrun_by_example()\n"
    )
    result = scan(tmp_path)
    assert [d.qualname for d in result["unreferenced"]] == ["uncalled"]
    assert result["test_only"] == []


def test_scan_skips_private_and_nested_definitions(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from pkg.mod import Outer as Alias\n")
    (package / "mod.py").write_text(
        "def _private():\n    def nested():\n        return 1\n    return nested()\n\n\n"
        "class Outer:\n    class Inner:\n        def deep(self):\n            return 2\n\n"
        "    def _hidden(self):\n        return 3\n\n"
        "    def shown(self):\n        return 4\n"
    )
    result = scan(tmp_path)
    # The re-export under another name is not a call either.
    assert [d.qualname for d in result["unreferenced"]] == ["Outer", "Outer.shown"]


def test_scan_counts_only_attribute_string_and_keyword_uses_of_a_method(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        "class Thing:\n"
        '    """Call described() first."""\n\n'
        "    def read(self):\n        return 1\n\n"
        "    def by_keyword(self):\n        return 2\n\n"
        "    def by_string(self):\n        return 3\n\n"
        "    def described(self):\n        return 4\n\n\n"
        "def run(thing):\n"
        "    # described is mentioned, never called\n"
        '    return thing.read(), dict(by_keyword=1), getattr(thing, "by_string")\n'
    )
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "go.py").write_text("from pkg.mod import Thing, run\n\nrun(Thing())\n")
    result = scan(tmp_path)
    assert [d.qualname for d in result["unreferenced"]] == ["Thing.described"]
    assert result["test_only"] == []


def test_scan_does_not_count_prose_or_a_definition_naming_itself(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        '"""Call documented() or Thing.described() first."""\n\n\n'
        "def self_named(x):\n"
        '    assert x, "self_named needs x"\n'
        "    return self_named(x - 1) if x > 1 else x\n\n\n"
        "def documented():\n    return 1\n\n\n"
        "def commented():\n    return 2\n\n\n"
        "def in_a_string():\n    return 3\n\n\n"
        "class Thing:\n"
        '    """Thing.described() answers 4."""\n\n'
        "    def described(self):\n        return 4\n\n"
        "    def named(self):\n        return 5\n\n\n"
        "def run(thing):\n"
        "    # commented() and thing.described() are mentioned, never called\n"
        '    return thing.named(), "in_a_string is patched by name"\n'
    )
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "go.py").write_text(
        '"""Runs documented()."""\n\nfrom pkg.mod import Thing, run  # self_named\n\nrun(Thing())\n'
    )
    result = scan(tmp_path)
    assert [d.qualname for d in result["unreferenced"]] == [
        "self_named",
        "documented",
        "commented",
        "Thing.described",
    ]
    assert result["test_only"] == []


def test_every_name_perfbench_patches_exists():
    """``perfbench/layers.py`` reads what it patches with ``getattr``: each name must exist."""
    path = ROOT / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = layers  # its dataclasses resolve their module by name
    try:
        spec.loader.exec_module(layers)
        timer = layers.LayerTimer()
        try:
            layers.install_layer_wrappers(timer)
        finally:
            timer.restore()
    finally:
        del sys.modules[spec.name]
