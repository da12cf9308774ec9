"""The REP001–REP006 rule pack: the repo's determinism & invariant contract.

Each rule is a small AST matcher with an id, a one-line title, and the
rationale + example pair ``repro lint --explain`` prints.  Rules receive the
whole :class:`~repro.analysis.engine.ProjectContext` so cross-file rules
(REP003's name registry, REP004's schema fingerprint) can consult other
modules in the analysed tree — the checks stay fully static, so fixture
trees in tests exercise them without importing anything.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.engine import Finding, ProjectContext, SourceModule

#: Packaged REP004 baseline: the field fingerprint the current
#: ``RESULT_SCHEMA_VERSION`` was stamped with.
DEFAULT_BASELINE_PATH = Path(__file__).parent / "schema_baseline.json"

#: numpy legacy global-state RNG entry points (module-level functions that
#: share hidden global state; any call is non-reproducible by construction).
_NUMPY_GLOBAL_NAMESPACE = "numpy.random."

#: Wall-clock / process-clock reads REP002 flags outside the sanctioned seams.
_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.localtime",
    "time.gmtime",
}

#: ``datetime``-family constructors that read the wall clock.
_DATETIME_ATTRS = {"now", "utcnow", "today"}


def load_default_baseline() -> Optional[Mapping[str, Any]]:
    """The packaged REP004 schema baseline, or None when not shipped."""
    if not DEFAULT_BASELINE_PATH.is_file():
        return None
    return json.loads(DEFAULT_BASELINE_PATH.read_text(encoding="utf-8"))


class Rule:
    """Base class: metadata plus the per-project ``check`` entry point."""

    id: str = "REP000"
    title: str = ""
    rationale: str = ""
    example_violation: str = ""
    example_fix: str = ""

    def check(self, context: ProjectContext) -> List[Finding]:
        findings: List[Finding] = []
        for module in context.modules:
            findings.extend(self.check_module(module, context))
        return findings

    def check_module(
        self, module: SourceModule, context: ProjectContext
    ) -> Iterable[Finding]:
        return ()

    def finding(self, module: SourceModule, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            message=message,
        )


class UnseededRandomnessRule(Rule):
    """REP001: all randomness must flow through the seeded RNG seam."""

    id = "REP001"
    title = "unseeded or global-state randomness"
    rationale = (
        "Bit-identical serial-vs-parallel runs and per-seed reproducible "
        "populations (PRs 1-5) require every random draw to come from a "
        "generator derived via repro.utils.rng (derive_seed/spawn_rng/"
        "RandomSource). Calls into numpy's legacy global namespace "
        "(np.random.rand, np.random.shuffle, ...), the stdlib random module, "
        "or default_rng() with no seed consume hidden global state: results "
        "then depend on import order, worker scheduling, and whatever ran "
        "before — the exact failure modes the engine's determinism tests "
        "cannot sample their way out of."
    )
    example_violation = "noise = np.random.rand(num_hosts)  # hidden global state"
    example_fix = (
        "rng = spawn_rng(config.seed, 'noise', host_id)\n"
        "noise = rng.random(num_hosts)"
    )

    #: Path suffixes where the seeded seam itself lives.
    allowed_paths = ("utils/rng.py",)

    def check_module(
        self, module: SourceModule, context: ProjectContext
    ) -> Iterable[Finding]:
        if module.path_endswith(*self.allowed_paths):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = module.resolve_call_target(node.func)
            if target is None:
                continue
            if target in ("numpy.random.default_rng", "numpy.random.Generator"):
                if target.endswith("default_rng") and not node.args and not node.keywords:
                    yield self.finding(
                        module,
                        node,
                        "default_rng() without a seed is entropy-seeded and "
                        "non-reproducible; derive the seed via "
                        "repro.utils.rng.spawn_rng / derive_seed",
                    )
                continue
            if target.startswith(_NUMPY_GLOBAL_NAMESPACE):
                yield self.finding(
                    module,
                    node,
                    f"{target}() uses numpy's hidden global RNG state; draw from "
                    "a seeded Generator (repro.utils.rng.spawn_rng) instead",
                )
            elif target == "random" or target.startswith("random."):
                yield self.finding(
                    module,
                    node,
                    f"stdlib {target}() uses process-global RNG state; draw from "
                    "a seeded numpy Generator (repro.utils.rng.spawn_rng) instead",
                )


class WallClockRule(Rule):
    """REP002: wall-clock reads only inside the injectable-clock seams."""

    id = "REP002"
    title = "wall-clock read outside the clock seams"
    rationale = (
        "Fake-clock-stable load reports and deterministic duration metrics "
        "(PRs 6-7) depend on every timestamp flowing through an injectable "
        "clock: the telemetry recorder's clock (repro.telemetry.monotonic_now) "
        "or the load orchestrator's Clock parameter. A stray time.time()/"
        "perf_counter()/datetime.now() call reads the host's real clock, so "
        "the value can never be replayed — reports stop being bit-identical "
        "under the fake clock and golden tests silently weaken."
    )
    example_violation = "started = time.perf_counter()  # unreplayable host clock"
    example_fix = (
        "from repro.telemetry import monotonic_now\n"
        "started = monotonic_now()  # honours the active recorder's clock"
    )

    #: The sanctioned seams: the recorder owns the injectable clock, the load
    #: orchestrator exposes its own Clock parameter (and stamps reports).
    allowed_paths = ("telemetry/recorder.py", "loadgen/orchestrator.py")

    def check_module(
        self, module: SourceModule, context: ProjectContext
    ) -> Iterable[Finding]:
        if module.path_endswith(*self.allowed_paths):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = module.resolve_call_target(node.func)
            if target in _CLOCK_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"{target}() reads the host clock outside the sanctioned "
                    "seams; use repro.telemetry.monotonic_now() (duration "
                    "measurement) or thread an injectable clock",
                )
                continue
            # datetime.now / datetime.utcnow / date.today via any import style.
            if isinstance(node.func, ast.Attribute) and node.func.attr in _DATETIME_ATTRS:
                base = module.resolve_call_target(node.func)
                if base is not None and (
                    base.startswith("datetime.") or base == f"datetime.{node.func.attr}"
                ):
                    yield self.finding(
                        module,
                        node,
                        f"{base}() reads the wall clock outside the sanctioned "
                        "seams; inject the timestamp from the caller",
                    )


class TelemetryNameRegistryRule(Rule):
    """REP003: span/counter name literals must be declared in the registry."""

    id = "REP003"
    title = "undeclared telemetry span/counter name"
    rationale = (
        "Trace reports, the loadgen latency subscriptions, and the CI trace "
        "check all select spans and counters by exact name. A typo'd literal "
        "in trace_span()/add_count() still records — it just fragments the "
        "report into a name nobody aggregates, which is why the canonical "
        "names are declared once (SPAN_NAMES/COUNTER_NAMES/GAUGE_NAMES in "
        "repro/telemetry/__init__.py) and every call-site literal must match."
    )
    example_violation = 'with trace_span("sweeps.scenaro"):  # typo never aggregated'
    example_fix = (
        'with trace_span("sweeps.scenario"):  # declared in telemetry SPAN_NAMES'
    )

    _registry_file = "telemetry/__init__.py"
    _checked_calls = {
        "trace_span": "SPAN_NAMES",
        "add_count": "COUNTER_NAMES",
        "set_gauge": "GAUGE_NAMES",
    }

    def check(self, context: ProjectContext) -> List[Finding]:
        registry_module = context.find_module(self._registry_file)
        if registry_module is None:
            return []
        registry = _literal_string_tuples(registry_module.tree)
        if not any(name in registry for name in self._checked_calls.values()):
            return []
        findings: List[Finding] = []
        for module in context.modules:
            if module is registry_module:
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (
                    func.id
                    if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None
                )
                collection = self._checked_calls.get(name or "")
                if collection is None:
                    continue
                if not node.args:
                    continue
                first = node.args[0]
                if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
                    continue  # dynamic names cannot be checked statically
                declared = registry.get(collection, ())
                if first.value not in declared:
                    findings.append(
                        self.finding(
                            module,
                            first,
                            f"{name}({first.value!r}) is not declared in "
                            f"repro.telemetry.{collection}; declare it there or "
                            "fix the typo",
                        )
                    )
        return findings


class SchemaGuardRule(Rule):
    """REP004: result-record fields may only change with a schema bump."""

    id = "REP004"
    title = "result schema changed without a version bump"
    rationale = (
        "Every stored scenario row is schema-stamped (RESULT_SCHEMA_VERSION) "
        "so old JSONL stores stay readable across PRs. Adding or removing a "
        "ScenarioOutcome/ScenarioRecord field without bumping the version "
        "ships records that claim an old shape but carry a new one — readers "
        "cannot tell, and cross-version aggregation silently corrupts. The "
        "packaged baseline fingerprints the fields each version was stamped "
        "with; after a deliberate bump, regenerate it with "
        "`repro lint --write-schema-baseline`."
    )
    example_violation = (
        "# ScenarioOutcome gains `mean_latency` but RESULT_SCHEMA_VERSION stays 4"
    )
    example_fix = (
        "RESULT_SCHEMA_VERSION = 5  # + document the change, then\n"
        "repro lint --write-schema-baseline"
    )

    def check(self, context: ProjectContext) -> List[Finding]:
        observed = extract_schema_fingerprint(context)
        if observed is None:
            return []
        context.inventory["schema_fingerprint"] = {
            "result_schema_version": observed.version,
            "scenario_outcome_fields": list(observed.outcome_fields),
            "scenario_record_fields": list(observed.record_fields),
        }
        baseline = context.schema_baseline
        if baseline is None:
            return []
        findings: List[Finding] = []
        baseline_version = int(baseline.get("result_schema_version", -1))
        baseline_outcome = tuple(baseline.get("scenario_outcome_fields", ()))
        baseline_record = tuple(baseline.get("scenario_record_fields", ()))
        changes: List[str] = []
        changes.extend(
            _field_diff("ScenarioOutcome", baseline_outcome, observed.outcome_fields)
        )
        changes.extend(
            _field_diff("ScenarioRecord", baseline_record, observed.record_fields)
        )
        if changes and observed.version == baseline_version:
            findings.append(
                Finding(
                    rule=self.id,
                    path=observed.outcome_path,
                    line=observed.outcome_line,
                    column=0,
                    message=(
                        f"stored-record fields changed ({'; '.join(changes)}) but "
                        f"RESULT_SCHEMA_VERSION is still {observed.version}; bump "
                        "the version, document it, then regenerate the baseline "
                        "with `repro lint --write-schema-baseline`"
                    ),
                )
            )
        elif observed.version != baseline_version:
            findings.append(
                Finding(
                    rule=self.id,
                    path=observed.version_path,
                    line=observed.version_line,
                    column=0,
                    message=(
                        f"RESULT_SCHEMA_VERSION is {observed.version} but the "
                        f"schema baseline records {baseline_version}; regenerate "
                        "it with `repro lint --write-schema-baseline` so the new "
                        "field set is fingerprinted"
                    ),
                )
            )
        return findings


class ExecutorTaskPurityRule(Rule):
    """REP006: process-pool tasks must be importable, state-free functions."""

    id = "REP006"
    title = "impure or unpicklable executor task"
    rationale = (
        "Process-pool fan-out is bit-identical to serial execution only "
        "because every submitted task is a module-top-level function whose "
        "behaviour is fully determined by its arguments. Lambdas and nested "
        "closures fail to pickle under the spawn start method; bound methods "
        "drag their instance across; and tasks that read or write mutable "
        "module globals see parent-process state on fork but a fresh import "
        "on spawn — the classic works-on-my-machine determinism split."
    )
    example_violation = "executor.submit(lambda: evaluate(spec))  # unpicklable closure"
    example_fix = (
        "def _evaluate_task(payload):  # module top level, args carry all state\n"
        "    ...\n"
        "executor.submit(_evaluate_task, spec.to_dict())"
    )

    _submit_methods = {"submit"}

    def check_module(
        self, module: SourceModule, context: ProjectContext
    ) -> Iterable[Finding]:
        if not _imports_concurrent_futures(module):
            return
        top_level = {
            node.name: node
            for node in module.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        nested = _nested_function_names(module.tree)
        mutable_globals = _mutable_global_names(module.tree)
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._submit_methods
                and node.args
            ):
                continue
            task = node.args[0]
            if isinstance(task, ast.Lambda):
                yield self.finding(
                    module,
                    task,
                    "lambda submitted to an executor cannot be pickled under "
                    "spawn; define a module-top-level task function",
                )
            elif isinstance(task, ast.Name):
                if task.id in nested:
                    yield self.finding(
                        module,
                        task,
                        f"{task.id}() is defined inside another function; "
                        "executor tasks must be module-top-level so workers "
                        "can import them",
                    )
                elif task.id in top_level:
                    yield from self._check_task_body(
                        module, top_level[task.id], mutable_globals
                    )
            elif isinstance(task, ast.Attribute) and (
                isinstance(task.value, ast.Name) and task.value.id in ("self", "cls")
            ):
                yield self.finding(
                    module,
                    task,
                    "bound method submitted to an executor pickles the whole "
                    "instance; submit a module-top-level function instead",
                )

    def _check_task_body(
        self,
        module: SourceModule,
        task: ast.AST,
        mutable_globals: Mapping[str, int],
    ) -> Iterable[Finding]:
        params = {
            arg.arg
            for arg in [
                *task.args.posonlyargs,
                *task.args.args,
                *task.args.kwonlyargs,
                *([task.args.vararg] if task.args.vararg else []),
                *([task.args.kwarg] if task.args.kwarg else []),
            ]
        }
        local_names = set(params)
        for node in ast.walk(task):
            if isinstance(node, ast.Global):
                yield self.finding(
                    module,
                    node,
                    f"executor task {task.name}() declares "
                    f"`global {', '.join(node.names)}`: pool workers each "
                    "mutate their own copy, so the parent never sees it and "
                    "runs stop being order-independent",
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        local_names.add(target.id)
        for node in ast.walk(task):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in mutable_globals
                and node.id not in local_names
            ):
                yield self.finding(
                    module,
                    node,
                    f"executor task {task.name}() reads module-global mutable "
                    f"state {node.id!r} (defined at line {mutable_globals[node.id]}); "
                    "pass it as an argument so spawn and fork agree",
                )


# --------------------------------------------------------------------- helpers


class SchemaFingerprint:
    """The observed (version, field-set) triple REP004 compares to baseline."""

    def __init__(
        self,
        version: int,
        version_path: str,
        version_line: int,
        outcome_fields: Tuple[str, ...],
        outcome_path: str,
        outcome_line: int,
        record_fields: Tuple[str, ...],
    ) -> None:
        self.version = version
        self.version_path = version_path
        self.version_line = version_line
        self.outcome_fields = outcome_fields
        self.outcome_path = outcome_path
        self.outcome_line = outcome_line
        self.record_fields = record_fields


def extract_schema_fingerprint(context: ProjectContext) -> Optional[SchemaFingerprint]:
    """Statically read the schema version and record field sets from the tree.

    Returns None when the tree does not contain both halves (fixture trees
    for other rules simply skip REP004).
    """
    outcome_module = None
    outcome_class = None
    for module in context.modules:
        candidate = _find_class(module.tree, "ScenarioOutcome")
        if candidate is not None:
            outcome_module, outcome_class = module, candidate
            break
    results_module = context.find_module("sweeps/results.py")
    if outcome_module is None or results_module is None:
        return None
    version = None
    version_line = 1
    for node in results_module.tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "RESULT_SCHEMA_VERSION"
                    and isinstance(node.value, ast.Constant)
                ):
                    version = int(node.value.value)
                    version_line = node.lineno
    record_class = _find_class(results_module.tree, "ScenarioRecord")
    if version is None or record_class is None:
        return None
    return SchemaFingerprint(
        version=version,
        version_path=results_module.relpath,
        version_line=version_line,
        outcome_fields=_dataclass_fields(outcome_class),
        outcome_path=outcome_module.relpath,
        outcome_line=outcome_class.lineno,
        record_fields=_dataclass_fields(record_class),
    )


def compute_schema_baseline(root: Path) -> Optional[Dict[str, Any]]:
    """The baseline payload for the tree under ``root`` (for --write-schema-baseline)."""
    from repro.analysis.engine import collect_sources

    context = ProjectContext(root=root, modules=collect_sources(root))
    observed = extract_schema_fingerprint(context)
    if observed is None:
        return None
    return {
        "result_schema_version": observed.version,
        "scenario_outcome_fields": list(observed.outcome_fields),
        "scenario_record_fields": list(observed.record_fields),
    }


def _find_class(tree: ast.Module, name: str) -> Optional[ast.ClassDef]:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _dataclass_fields(class_def: ast.ClassDef) -> Tuple[str, ...]:
    fields = [
        node.target.id
        for node in class_def.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]
    return tuple(sorted(fields))


def _field_diff(
    label: str, baseline: Sequence[str], observed: Sequence[str]
) -> List[str]:
    baseline_set, observed_set = set(baseline), set(observed)
    changes = []
    added = sorted(observed_set - baseline_set)
    removed = sorted(baseline_set - observed_set)
    if added:
        changes.append(f"{label} gained {', '.join(added)}")
    if removed:
        changes.append(f"{label} lost {', '.join(removed)}")
    return changes


def _literal_string_tuples(tree: ast.Module) -> Dict[str, Tuple[str, ...]]:
    """Top-level ``NAME = ("a", "b", ...)`` assignments of string literals."""
    registry: Dict[str, Tuple[str, ...]] = {}
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if isinstance(node.value, (ast.Tuple, ast.List)) and all(
            isinstance(element, ast.Constant) and isinstance(element.value, str)
            for element in node.value.elts
        ):
            registry[target.id] = tuple(element.value for element in node.value.elts)
    return registry


def _imports_concurrent_futures(module: SourceModule) -> bool:
    return any(
        origin.startswith("concurrent.futures")
        for origin in (*module.module_aliases.values(), *module.from_imports.values())
    )


def _nested_function_names(tree: ast.Module) -> Set[str]:
    nested: Set[str] = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(top):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    node is not top
                ):
                    nested.add(node.name)
    return nested


def _mutable_global_names(tree: ast.Module) -> Dict[str, int]:
    """Module-level names bound to mutable literals, with their line numbers.

    Names rebound or mutated after definition are what REP006 cares about;
    a module-level tuple/str/int constant is process-safe and ignored.
    """
    mutable: Dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(
            node.value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
        ):
            for target in node.targets:
                if isinstance(target, ast.Name) and not target.id.isupper():
                    mutable[target.id] = node.lineno
    return mutable


def default_rules() -> List[Rule]:
    """The shipped rule pack, in id order."""
    return [
        UnseededRandomnessRule(),
        WallClockRule(),
        TelemetryNameRegistryRule(),
        SchemaGuardRule(),
        ExecutorTaskPurityRule(),
    ]


#: id -> rule instance, for ``--explain`` and the reporters.
RULES: Dict[str, Rule] = {rule.id: rule for rule in default_rules()}
