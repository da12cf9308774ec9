"""Per-layer timing for the traced benchmark run.

The traced run times calls into each layer's public entry points from here,
without touching the program: :func:`install_layer_wrappers` replaces the
entry points *where they are looked up* (a name bound by ``from x import f``
is patched in the module that uses it) with a timing wrapper, and
:meth:`LayerTimer.restore` puts the originals back.

Wrapped calls nest: a layer's *self* time is its wall time minus the time of
the wrapped calls made inside it, so the self times of all layers plus the
benchmark's own code add up to the pass.  A call to a layer from inside the
same layer (``assign`` -> ``compute_thresholds``) is folded into the outer
call, so call counts stay one per entry from another layer.
"""

from __future__ import annotations

import functools
import hashlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

Observer = Callable[["LayerTimer", tuple, dict, Any], None]


@dataclass
class LayerStat:
    """Calls, self time and inclusive time of one wrapped layer entry point."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


class LayerTimer:
    """Nested wall-clock timing of wrapped layer calls, plus work counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stack: List[List[Any]] = []  # [name, child seconds] per open call
        self._patches: List[Tuple[Any, str, Any]] = []
        self.stats: Dict[str, LayerStat] = defaultdict(LayerStat)
        #: Stats keyed by (layer, calling layer): ties calls to program spans.
        self.by_caller: Dict[Tuple[str, Optional[str]], LayerStat] = defaultdict(LayerStat)
        self.counts: Dict[str, float] = defaultdict(float)
        self.assignment_digests: List[str] = []

    # ------------------------------------------------------------- wrapping
    def wrap(self, name: str, function: Callable, observe: Optional[Observer] = None):
        """``function`` timed as layer ``name``; ``observe`` sees each result."""
        timer = self

        @functools.wraps(function)
        def timed(*args, **kwargs):
            stack = timer._stack
            if stack and stack[-1][0] == name:
                return function(*args, **kwargs)
            caller = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            started = timer._clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = timer._clock() - started
                stack.pop()
                for stat in (timer.stats[name], timer.by_caller[(name, caller)]):
                    stat.calls += 1
                    stat.total_s += elapsed
                    stat.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                # Bookkeeping time is charged to no layer.
                hook_started = timer._clock()
                observe(timer, args, kwargs, result)
                if stack:
                    stack[-1][1] += timer._clock() - hook_started
            return result

        return timed

    def patch(self, owner: Any, attribute: str, name: str, observe: Optional[Observer] = None):
        """Replace ``owner.attribute`` with its timed wrapper."""
        # A class attribute is taken from the class itself, not an inherited one.
        original = vars(owner)[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        setattr(owner, attribute, self.wrap(name, original, observe))
        self._patches.append((owner, attribute, original))

    def patch_method(self, cls: type, attribute: str, name: str, observe=None) -> None:
        """Wrap ``attribute`` on ``cls`` and on every subclass that redefines it."""
        pending = [cls]
        while pending:
            current = pending.pop()
            pending.extend(current.__subclasses__())
            if attribute in current.__dict__:
                self.patch(current, attribute, name, observe)

    def restore(self) -> None:
        """Put every patched entry point back."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


# ------------------------------------------------------------------ observers
def _assignment_digest(assignment) -> str:
    per_feature = getattr(assignment, "per_feature", None)
    tables = (
        [(feature.value, a.thresholds) for feature, a in per_feature.items()]
        if per_feature is not None
        else [("", assignment.thresholds)]
    )
    text = repr([(label, sorted(thresholds.items())) for label, thresholds in tables])
    return hashlib.sha1(text.encode("ascii")).hexdigest()


def _observe_assign(timer: LayerTimer, args, kwargs, assignment) -> None:
    timer.assignment_digests.append(_assignment_digest(assignment))
    report = getattr(assignment, "optimization", None)
    if report is not None:
        timer.counts["optimize.iterations"] += report.iterations


def _observe_measure(timer: LayerTimer, args, kwargs, performances) -> None:
    timer.counts["core.host_weeks_measured"] += len(performances)


def _observe_timeline(timer: LayerTimer, args, kwargs, result) -> None:
    timer.counts["temporal.weeks_scored"] += len(result.weeks)
    timer.counts["temporal.retrains"] += result.retrain_count


def _observe_cache_load(timer: LayerTimer, args, kwargs, population) -> None:
    timer.counts["engine.cache_loads"] += 1
    timer.counts["engine.cache_hits"] += population is not None


def install_layer_wrappers(timer: LayerTimer) -> None:
    """Wrap the public entry points of every measured layer."""
    import repro.attacks.mimicry as mimicry
    import repro.attacks.naive as naive
    import repro.attacks.storm as storm
    import repro.core.evaluation as evaluation
    import repro.core.experiment as experiment
    import repro.core.policies as policies
    import repro.engine.cache as cache
    import repro.engine.engine as engine
    import repro.engine.sharded as sharded
    import repro.experiments as experiments
    import repro.experiments.fig3_utility as fig3
    import repro.experiments.fig4_attacker as fig4
    import repro.experiments.table3_alarms as table3
    import repro.optimize.optimizers as optimizers
    import repro.sweeps.results as results
    import repro.sweeps.runner as runner
    import repro.sweeps.spec as spec
    import repro.temporal as temporal
    import repro.temporal.timeline as timeline

    # experiments: the figure entry points, called by the benchmark itself.
    timer.patch(experiments, "run_fig3", "experiments.fig3")
    timer.patch(experiments, "run_table3", "experiments.table3")
    timer.patch(experiments, "run_fig4", "experiments.fig4")

    # core: evaluate = train + assign + measure, at every call site.
    for module in (fig3, table3, experiment):
        timer.patch(module, "evaluate_policy", "core.evaluate")
    timer.patch(evaluation, "detection_training_distributions", "core.train")
    timer.patch(fig4, "detection_training_distributions", "core.train")
    timer.patch(fig4, "training_distributions", "core.train")
    timer.patch(timeline, "detection_training_window_distributions", "core.train")
    timer.patch_method(policies.ConfigurationPolicy, "assign", "core.assign", _observe_assign)
    timer.patch_method(
        policies.ConfigurationPolicy, "compute_thresholds", "core.assign", _observe_assign
    )
    for module in (evaluation, fig4, timeline):
        timer.patch(module, "measure_assignment", "core.measure", _observe_measure)

    # attacks: per-host builds, batch amounts and mimicry planning.
    timer.patch_method(naive.NaiveAttacker, "build", "attacks.build")
    timer.patch_method(naive.NaiveAttacker, "batch_amounts", "attacks.build")
    timer.patch_method(mimicry.MimicryAttacker, "build", "attacks.build")
    timer.patch(mimicry, "batch_hidden_traffic", "attacks.build")
    timer.patch(fig4, "hidden_traffic_by_host", "attacks.build")
    timer.patch(storm, "generate_storm_trace", "attacks.build")

    # optimize: one joint search per threshold group.
    timer.patch_method(optimizers.ThresholdOptimizer, "optimize_group", "optimize.group")

    # temporal: rolling timelines (looked up on the package at call time).
    timer.patch(temporal, "evaluate_timeline", "temporal.timeline", _observe_timeline)

    # sweeps: expansion, the runner's own time, scenario evaluation, the store.
    timer.patch_method(spec.SweepSpec, "expand", "sweeps.expand")
    timer.patch_method(runner.SweepRunner, "run", "sweeps.run")
    timer.patch(runner, "run_scenario", "sweeps.run_scenario")
    timer.patch_method(results.ResultStore, "append", "sweeps.store_append")

    # engine: generation, both cache directions, sharded resolution.
    timer.patch_method(engine.PopulationEngine, "generate", "engine.generate")
    timer.patch_method(cache.PopulationCache, "load", "engine.cache_load", _observe_cache_load)
    timer.patch_method(cache.PopulationCache, "store", "engine.cache_store")
    timer.patch_method(sharded.ShardedPopulation, "matrices_for", "engine.shard_resolve")


#: Wrapped layer (and its calling layer, None = any) each program span
#: should agree with: a call site the wrappers miss shows as a count mismatch.
SPAN_CROSSCHECKS = {
    "core.train": ("core.train", "core.evaluate"),
    "core.assign": ("core.assign", "core.evaluate"),
    "core.measure": ("core.measure", None),
    "engine.cache.read": ("engine.cache_load", None),
}


def crosscheck_spans(timer: LayerTimer, spans) -> Dict[str, Dict[str, float]]:
    """Wrapper totals vs the program's own telemetry spans, per checked span.

    Returns ``{span: {"span_calls", "span_s", "wrapper_calls", "wrapper_s"}}``.
    """
    table: Dict[str, Dict[str, float]] = {}
    for span_name, (layer, caller) in SPAN_CROSSCHECKS.items():
        durations = [span.duration for span in spans if span.name == span_name]
        if caller is None:
            stat = timer.stats.get(layer, LayerStat())
        else:
            stat = timer.by_caller.get((layer, caller), LayerStat())
        table[span_name] = {
            "span_calls": len(durations),
            "span_s": sum(durations),
            "wrapper_calls": stat.calls,
            "wrapper_s": stat.total_s,
        }
    return table
