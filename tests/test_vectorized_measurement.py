"""Bit-identity regression tests for the vectorised measurement path.

``tests/data/golden_measurement.json`` was captured by
``scripts/dev_capture_golden.py`` running the pre-vectorisation per-host
measurement loop: 54 policy x protocol x attack cases at repr precision, the
Figure 4(b) hidden-traffic ingredient and a full small-scale fig4 run.  The
batched array path must reproduce every float bit for bit.

``tests/data/golden_figures.json`` (same script) holds Figure 3 and Table 3
at the same small scale, captured while fig3 still
re-trained and re-assigned every policy once per attack size; the
assign-once fig3 must match it bit for bit too.  Its Figure 5 scatter and
co-optimised Figure 3 entries were captured while both experiments still
attacked through per-host builders.

The second half is the reference oracle: a per-host measurement loop that
scores each host alone on its own test-week slice, attacked by per-host
builders that rebuild every ``ATTACKS`` kind one host at a time.
``measure_assignment`` must equal it on fresh populations, covering the
measure-only entry points (explicit test weeks, stale attack assignments)
and populations mixing test-week bin grids, which the golden fixture does
not exercise.

Every golden fixture and both oracle comparisons run twice: on a freshly
generated population (plain dict matrices) and on the same population stored
and loaded back through a :class:`PopulationCache`, whose matrices are a
:class:`PopulationFrame` that the kernels read as views of the mapped shard.

The naive attack-size sweep behind Figure 3's size average and Figure 4(a)
(``naive_false_negatives``) has the kernel itself as its oracle: each of its
columns must equal the FN of one ``measure_assignment`` pass at that size,
byte for byte, on hypothesis-drawn weeks, mixed grids, cached frames and the
350-host benchmark population.

The last part is the reference oracle for the population aggregates: every
aggregate read from a :class:`HostPerformanceTable`'s columns must equal, bit
for bit, the same aggregate computed host by host from the per-host loop's
:class:`HostPerformance` rows with the per-host formulas kept below.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.base import AttackTrace, FeatureInjection
from repro.attacks.botnet import CommandAndControl
from repro.attacks.mimicry import MimicryAttacker, hidden_traffic_by_host
from repro.attacks.naive import NaiveAttacker, attack_size_sweep
from repro.attacks.storm import generate_storm_trace, storm_builder
from repro.core.evaluation import (
    AlarmColumns,
    DetectionProtocol,
    HostPerformance,
    HostPerformanceTable,
    PolicyEvaluation,
    detection_training_distributions,
    evaluate_policy,
    measure_assignment,
    naive_false_negatives,
    training_distributions,
)
from repro.core.experiment import ScenarioOutcome, summarize_scenario
from repro.core.fusion import FusionRule
from repro.core.grouping import GroupAssignment
from repro.core.metrics import OperatingPoint, f_measure_from_rates
from repro.core.policies import (
    DetectionAssignment,
    FullDiversityPolicy,
    HomogeneousPolicy,
    PartialDiversityPolicy,
    ThresholdAssignment,
)
from repro.core.sampling import SampleSpec, bootstrap_mean_interval
from repro.core.thresholds import PercentileHeuristic, UtilityHeuristic
from repro.engine.cache import PopulationCache
from repro.experiments.fig3_utility import default_attack_sizes, run_fig3, run_fig3_cooptimized
from repro.experiments.fig4_attacker import run_fig4
from repro.experiments.fig5_storm import run_fig5
from repro.experiments.table3_alarms import run_table3
from repro.features.definitions import Feature
from repro.features.timeseries import FeatureMatrix, PopulationFrame, TimeSeries
from repro.sweeps.spec import AttackSpec
from repro.telemetry import TelemetryRecorder, use_recorder
from repro.utils.timeutils import WEEK, BinSpec, MINUTE
from repro.utils.validation import ValidationError
from repro.workload.enterprise import EnterpriseConfig, EnterprisePopulation, generate_enterprise

from helpers import inject_attack

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_measurement.json"
FIGURES_GOLDEN_PATH = Path(__file__).parent / "data" / "golden_figures.json"

CONFIG = EnterpriseConfig(num_hosts=24, num_weeks=2, seed=77)

ATTACKS = {
    "none": AttackSpec(kind="none"),
    "naive": AttackSpec(kind="naive", size=35.0, active_fraction=0.6, seed=1701),
    "naive-always": AttackSpec(kind="naive", size=12.0, active_fraction=1.0, seed=1701),
    "mimicry": AttackSpec(kind="mimicry", evasion_probability=0.9, seed=1701),
    "botnet": AttackSpec(
        kind="botnet",
        size=25.0,
        active_fraction=0.8,
        compromise_probability=0.7,
        command_and_control="p2p",
        control_size=5.0,
        seed=1701,
    ),
    "storm": AttackSpec(kind="storm", seed=1701),
}

PROTOCOLS = {
    "single": DetectionProtocol(features=(Feature.TCP_CONNECTIONS,)),
    "multi-any": DetectionProtocol(
        features=(Feature.TCP_CONNECTIONS, Feature.UDP_CONNECTIONS, Feature.DNS_CONNECTIONS),
        fusion=FusionRule.any_(),
    ),
    "multi-2ofn": DetectionProtocol(
        features=(Feature.TCP_CONNECTIONS, Feature.UDP_CONNECTIONS, Feature.DNS_CONNECTIONS),
        fusion=FusionRule.k_of_n(2),
    ),
}


def _policies():
    heuristic = PercentileHeuristic(99.0)
    return {
        "homogeneous": HomogeneousPolicy(heuristic),
        "full-diversity": FullDiversityPolicy(heuristic),
        "partial": PartialDiversityPolicy(heuristic, num_groups=4),
    }


def _perf_payload(perf) -> dict:
    return {
        "thresholds": {f.value: repr(float(t)) for f, t in perf.thresholds.items()},
        "feature_fp": {
            f.value: repr(float(p.false_positive_rate))
            for f, p in perf.feature_operating_points.items()
        },
        "feature_fn": {
            f.value: repr(float(p.false_negative_rate))
            for f, p in perf.feature_operating_points.items()
        },
        "feature_counts": {f.value: int(c) for f, c in perf.feature_false_alarm_counts.items()},
        "feature_alarm": {f.value: perf.feature_alarm_raised.get(f) for f in perf.thresholds},
        "fp": repr(float(perf.operating_point.false_positive_rate)),
        "fn": repr(float(perf.operating_point.false_negative_rate)),
        "false_alarm_count": int(perf.false_alarm_count),
        "alarm_raised": perf.alarm_raised,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def golden_figures():
    return json.loads(FIGURES_GOLDEN_PATH.read_text())


#: Where a test population comes from: generation (dict matrices) or a cache
#: round trip (a PopulationFrame over the mapped shard).
SOURCES = ("generated", "cached")


def _population(config: EnterpriseConfig, source: str, directory: Path):
    """``config``'s population, generated or stored then loaded through a cache in ``directory``."""
    population = generate_enterprise(config)
    if source == "generated":
        return population
    cache = PopulationCache(directory)
    cache.store(population)
    loaded = cache.load(config)
    assert isinstance(loaded.matrices(), PopulationFrame)
    return loaded


@pytest.fixture(scope="module", params=SOURCES)
def golden_population(request, tmp_path_factory):
    return _population(CONFIG, request.param, tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def matrices(golden_population):
    return golden_population.matrices()


class TestGoldenBitIdentity:
    def test_only_the_cached_population_is_a_frame(self, request, golden_population):
        """A generated population keeps dict matrices; a cached one serves its frame as is."""
        matrices = golden_population.matrices()
        cached = request.node.callspec.params["golden_population"] == "cached"
        assert isinstance(matrices, PopulationFrame) == cached
        assert (golden_population.matrices() is matrices) == cached

    @pytest.mark.parametrize("proto_name", list(PROTOCOLS))
    @pytest.mark.parametrize("attack_name", list(ATTACKS))
    def test_cases_match_pre_vectorisation_fixture(
        self, golden, matrices, proto_name, attack_name
    ):
        protocol = PROTOCOLS[proto_name]
        attack = ATTACKS[attack_name]
        builder = attack.build_builder(protocol.primary_feature, CONFIG.bin_width)
        for policy_name, policy in _policies().items():
            evaluation = evaluate_policy(matrices, policy, protocol, attack_builder=builder)
            expected = golden["cases"][f"{proto_name}/{attack_name}/{policy_name}"]
            actual = {
                str(host_id): _perf_payload(perf)
                for host_id, perf in sorted(evaluation.performances.items())
            }
            assert actual == expected

    def test_hidden_traffic_matches_fixture(self, golden, matrices):
        train = training_distributions(matrices, Feature.TCP_CONNECTIONS, 0)
        test_matrices = {host_id: m.week(1) for host_id, m in matrices.items()}
        for policy_name, policy in _policies().items():
            assignment = policy.compute_thresholds(train)
            hidden = hidden_traffic_by_host(
                test_matrices, assignment.thresholds, Feature.TCP_CONNECTIONS
            )
            actual = {str(h): repr(float(v)) for h, v in sorted(hidden.items())}
            assert actual == golden["hidden_traffic"][policy_name]

    @pytest.mark.parametrize("source", SOURCES)
    def test_fig4_matches_fixture(self, golden, source, tmp_path):
        config = EnterpriseConfig(num_hosts=16, num_weeks=2, seed=41)
        population = _population(config, source, tmp_path)
        result = run_fig4(population, num_attack_sizes=6)
        assert [repr(float(s)) for s in result.attack_sizes] == golden["fig4"]["attack_sizes"]
        for name, values in result.detection_curves.items():
            assert [repr(float(v)) for v in values] == golden["fig4"]["detection_curves"][name]
        for name, values in result.hidden_traffic.items():
            actual = {str(h): repr(float(v)) for h, v in sorted(values.items())}
            assert actual == golden["fig4"]["hidden_traffic"][name]

    def test_fig3_matches_fixture(self, golden_figures, golden_population):
        assert golden_figures["config"] == {"num_hosts": 24, "num_weeks": 2, "seed": 77}
        result = run_fig3(golden_population)
        expected = golden_figures["fig3"]
        assert [repr(float(w)) for w in result.weights] == expected["weights"]
        boxplots = {
            name: {key: repr(float(value)) for key, value in summary.to_dict().items()}
            for name, summary in result.boxplots.items()
        }
        assert boxplots == expected["boxplots"]
        weight_sweep = {
            name: [repr(float(v)) for v in values] for name, values in result.weight_sweep.items()
        }
        assert weight_sweep == expected["weight_sweep"]
        assert set(result.evaluations) == set(expected["evaluations"])
        for name, evaluation in result.evaluations.items():
            actual = {
                str(host_id): _perf_payload(perf)
                for host_id, perf in sorted(evaluation.performances.items())
            }
            assert actual == expected["evaluations"][name]

    def test_fig3_size_average_matches_per_host_mean(self):
        """On irregular FNs (the fixture's are too regular to tell summation orders apart).

        fig3 averages the rows of the C-order ``(hosts, sizes)`` array
        :func:`naive_false_negatives` returns, which sums each row pairwise,
        as ``np.mean`` of one host's own FN list does.
        """
        rng = np.random.default_rng(2009)
        matrices = _tcp_week(rng.poisson(20.0, size=(350, 641)).astype(float))
        assignment = _tcp_assignment(dict(enumerate(rng.uniform(10.0, 60.0, 350).tolist())))
        fn = naive_false_negatives(matrices, assignment, SIZE_PROTOCOL, rng.uniform(0, 40, 10))
        expected = [float(np.mean(row)) for row in fn.tolist()]
        assert fn.mean(axis=1).tolist() == expected
        # The data tells the orders apart: a sequential sum over the sizes differs.
        assert np.ascontiguousarray(fn.T).mean(axis=0).tolist() != expected

    def test_table3_matches_fixture(self, golden_figures, golden_population):
        result = run_table3(golden_population)
        alarms = {
            heuristic: {policy: repr(float(count)) for policy, count in row.items()}
            for heuristic, row in result.alarms.items()
        }
        assert alarms == golden_figures["table3"]["alarms"]

    def test_fig5_matches_fixture(self, golden_figures, golden_population):
        result = run_fig5(golden_population)
        scatter = {
            name: {
                str(host_id): [repr(float(fp)), repr(float(detection))]
                for host_id, (fp, detection) in sorted(points.items())
            }
            for name, points in result.scatter.items()
        }
        assert scatter == golden_figures["fig5"]["scatter"]

    def test_fig3_cooptimized_matches_fixture(self, golden_figures, golden_population):
        result = run_fig3_cooptimized(golden_population)
        for name in ("mean_utilities", "detection_rates", "objective_values"):
            actual = {
                optimizer: {policy: repr(float(value)) for policy, value in row.items()}
                for optimizer, row in getattr(result, name).items()
            }
            assert actual == golden_figures["fig3_cooptimized"][name]


# --- Reference oracle: the per-host measurement loop and per-host attack builders.
#
# Each host is scored alone, on its own test-week slice, with the detector's
# per-bin formulas: exceedance count and rate (``TimeSeries.exceedance_*``)
# and the false-negative rate over attacked bins below.  The per-host
# builders rebuild each ``ATTACKS`` kind one victim at a time; none of them
# calls a batch builder.


def _reference_attack(spec: AttackSpec, primary: Feature, bin_width: float):
    """``spec``'s attack as ``(host_id, test_matrix, thresholds) -> AttackTrace | None``."""
    if spec.kind == "none":
        return None
    if spec.kind == "storm":
        trace = generate_storm_trace(duration=WEEK, bin_width=bin_width, seed=spec.seed)
        return lambda host_id, matrix, thresholds: trace
    target = spec.target_feature(primary)
    if spec.kind == "naive":
        return _reference_naive(NaiveAttacker(target, spec.size, spec.active_fraction), spec.seed)
    if spec.kind in ("mimicry", "mimicry-vs-schedule"):

        def build_mimicry(host_id, matrix, thresholds):
            attacker = MimicryAttacker(target, float(thresholds[target]), spec.evasion_probability)
            return attacker.build(matrix, np.random.default_rng((spec.seed, host_id)))

        return build_mimicry
    assert spec.kind == "botnet", spec.kind
    control = CommandAndControl(spec.command_and_control).control_feature

    def build_botnet(host_id, matrix, thresholds):
        rng = np.random.default_rng((spec.seed, host_id))
        if rng.uniform() >= spec.compromise_probability:
            return None
        num_bins = matrix.num_bins
        amounts = np.full(num_bins, float(spec.size))
        if spec.active_fraction < 1.0:
            amounts = np.where(rng.uniform(size=num_bins) < spec.active_fraction, amounts, 0.0)
        injections = {target: FeatureInjection(target, amounts)}
        if control != target and spec.control_size > 0.0:
            injections[control] = FeatureInjection(control, np.full(num_bins, spec.control_size))
        return AttackTrace("botnet", injections, matrix.series(target).bin_spec)

    return build_botnet


def _reference_naive(attacker: NaiveAttacker, seed: int):
    """``attacker`` built per victim, host ``h`` drawing from ``default_rng((seed, h))``."""
    return lambda host_id, matrix, thresholds: attacker.build(
        matrix, np.random.default_rng((seed, host_id))
    )


def _false_negative_rate(benign: TimeSeries, amounts: np.ndarray, threshold: float) -> float:
    """Fraction of attacked bins (``amounts > 0``) whose observed count is at most ``threshold``."""
    attacked = amounts > 0
    if not np.any(attacked):
        return 0.0
    observed = np.asarray(benign.values)[attacked] + amounts[attacked]
    missed = np.count_nonzero(observed <= threshold)
    return float(missed) / int(np.count_nonzero(attacked))


def _fused_false_negative(features, fusion, thresholds, benign, injections):
    """Fused (FN, alarm raised) over the bins carrying any feature's injection."""
    if not injections:
        return 0.0, None
    union = np.any(np.stack([injected.attack_mask for injected in injections.values()]), axis=0)
    num_attacked = int(np.count_nonzero(union))
    if num_attacked == 0:
        return 0.0, None
    indicators = [
        np.asarray((injections[f].observed if f in injections else benign[f]).values)
        > thresholds[f]
        for f in features
    ]
    fused = fusion.fuse(np.stack(indicators))
    fused_fn = float(int(np.count_nonzero(~fused[union]))) / num_attacked
    return fused_fn, fused_fn < 1.0


def _reference_rows(matrices, assignment, protocol, attack=None, week=None, attack_assignment=None):
    """One :class:`HostPerformance` per host of ``matrices``, each scored alone."""
    features, fusion = protocol.features, protocol.fusion
    week = protocol.test_week if week is None else week
    rows = {}
    for host_id, matrix in matrices.items():
        thresholds = {f: assignment.for_feature(f).threshold_of(host_id) for f in features}
        test_matrix = matrix.week(week)
        benign = {f: test_matrix.series(f) for f in features}
        counts = {f: benign[f].exceedance_count(thresholds[f]) for f in features}
        fp = {f: benign[f].exceedance_rate(thresholds[f]) for f in features}
        fn = {f: 0.0 for f in features}
        raised = {f: None for f in features}
        trace = None
        if attack is not None:
            in_force = assignment if attack_assignment is None else attack_assignment
            trace = attack(
                host_id,
                test_matrix,
                {f: in_force.for_feature(f).threshold_of(host_id) for f in features},
            )
        injections = {}
        if trace is not None:
            injections = {
                f: inject_attack(benign[f], trace, f) for f in features if f in trace.features
            }
        for f, injected in injections.items():
            fn[f] = _false_negative_rate(benign[f], injected.attack_amounts, thresholds[f])
            if injected.num_attack_bins > 0:
                raised[f] = fn[f] < 1.0
        if len(features) == 1:
            only = features[0]
            fused_count, fused_fp, fused_fn = counts[only], fp[only], fn[only]
            alarm_raised = raised[only]
        else:
            indicators = np.stack([np.asarray(benign[f].values) > thresholds[f] for f in features])
            fused_count = int(np.count_nonzero(fusion.fuse(indicators)))
            fused_fp = float(fused_count) / benign[features[0]].num_bins
            fused_fn, alarm_raised = _fused_false_negative(
                features, fusion, thresholds, benign, injections
            )
        rows[host_id] = HostPerformance(
            host_id=host_id,
            thresholds=thresholds,
            feature_operating_points={f: OperatingPoint(fp[f], fn[f]) for f in features},
            feature_false_alarm_counts=counts,
            operating_point=OperatingPoint(fused_fp, fused_fn),
            false_alarm_count=fused_count,
            alarm_raised=alarm_raised,
            feature_alarm_raised=raised,
        )
    return rows


def _measure_both(matrices, assignment, protocol, attack=None, week=None, attack_assignment=None):
    """``measure_assignment`` and the oracle's rows, for ``attack = (builder, reference)``."""
    builder, reference = attack if attack is not None else (None, None)
    table = measure_assignment(
        matrices,
        assignment,
        protocol,
        attack_builder=builder,
        test_week=week,
        attack_assignment=attack_assignment,
    )
    rows = _reference_rows(matrices, assignment, protocol, reference, week, attack_assignment)
    return table, rows


def _attack(attack_name, protocol, bin_width):
    """The production builder of ``ATTACKS[attack_name]`` and its per-host reference."""
    spec = ATTACKS[attack_name]
    return (
        spec.build_builder(protocol.primary_feature, bin_width),
        _reference_attack(spec, protocol.primary_feature, bin_width),
    )


def _full_diversity(matrices, protocol):
    training = detection_training_distributions(matrices, protocol.features, protocol.train_week)
    return FullDiversityPolicy(PercentileHeuristic(99.0)).assign(training, fusion=protocol.fusion)


#: A one-feature protocol testing week 0, for hand-built test weeks.
SIZE_PROTOCOL = DetectionProtocol(features=(Feature.TCP_CONNECTIONS,), train_week=1, test_week=0)


def _tcp_week(rows):
    """Host ``i``'s TCP counts over week 0 (15-minute bins) are ``rows[i]``."""
    spec = BinSpec(15 * MINUTE)
    return {
        host_id: FeatureMatrix(host_id, {Feature.TCP_CONNECTIONS: TimeSeries(row, spec)})
        for host_id, row in enumerate(rows)
    }


def _tcp_assignment(thresholds) -> DetectionAssignment:
    """TCP ``thresholds`` (host id -> float), one group per host."""
    groups = tuple((host_id,) for host_id in thresholds)
    grouping = GroupAssignment(groups=groups, strategy_name="fixed")
    tcp = ThresholdAssignment(dict(thresholds), grouping, tuple(thresholds.values()), "fixed")
    return DetectionAssignment(per_feature={Feature.TCP_CONNECTIONS: tcp}, policy_name="fixed")


def _assert_naive_columns_match_kernel(matrices, assignment, protocol, sizes):
    """Column ``j`` of :func:`naive_false_negatives` is the kernel's FN under ``sizes[j]``.

    Byte for byte: one ``measure_assignment`` pass per size is the oracle.
    """
    fn = naive_false_negatives(matrices, assignment, protocol, sizes)
    assert fn.shape == (len(matrices), len(sizes))
    assert fn.dtype == np.float64 and fn.flags.c_contiguous
    for column, size in enumerate(sizes):
        builder = NaiveAttacker(protocol.primary_feature, size).builder()
        table = measure_assignment(matrices, assignment, protocol, attack_builder=builder)
        assert fn[:, column].tobytes() == table.fused.false_negative_rates.tobytes(), size


class TestBatchedEqualsPerHostLoop:
    @pytest.fixture(scope="class", params=SOURCES)
    def population(self, request, tmp_path_factory):
        config = EnterpriseConfig(num_hosts=12, num_weeks=4, seed=909)
        return _population(config, request.param, tmp_path_factory.mktemp("oracle"))

    @pytest.mark.parametrize("proto_name", list(PROTOCOLS))
    @pytest.mark.parametrize("attack_name", list(ATTACKS))
    def test_equal_on_all_cases(self, population, proto_name, attack_name):
        protocol = PROTOCOLS[proto_name]
        matrices = population.matrices()
        attack = _attack(attack_name, protocol, population.config.bin_width)
        table, rows = _measure_both(matrices, _full_diversity(matrices, protocol), protocol, attack)
        assert table == rows

    def test_equal_on_explicit_test_week(self, population):
        protocol = PROTOCOLS["single"]
        matrices = population.matrices()
        attack = _attack("naive", protocol, population.config.bin_width)
        training = detection_training_distributions(
            matrices, protocol.features, protocol.train_week
        )
        assignment = HomogeneousPolicy(PercentileHeuristic(99.0)).assign(
            training, fusion=protocol.fusion
        )
        for week in (1, 2, 3):
            table, rows = _measure_both(matrices, assignment, protocol, attack, week=week)
            assert table == rows

    def test_equal_with_stale_attack_assignment(self, population):
        """A mimicry attacker evading stale thresholds (attack_assignment)."""
        protocol = PROTOCOLS["single"]
        matrices = population.matrices()
        attack = _attack("mimicry", protocol, population.config.bin_width)
        heuristic = PercentileHeuristic(99.0)
        stale = HomogeneousPolicy(heuristic).assign(
            detection_training_distributions(matrices, protocol.features, 0),
            fusion=protocol.fusion,
        )
        fresh = FullDiversityPolicy(heuristic).assign(
            detection_training_distributions(matrices, protocol.features, 2),
            fusion=protocol.fusion,
        )
        table, rows = _measure_both(
            matrices, fresh, protocol, attack, week=3, attack_assignment=stale
        )
        assert table == rows

    @pytest.mark.parametrize("active_fraction", [1.0, 0.6])
    def test_equal_with_naive_attacker_builder(self, population, active_fraction):
        """NaiveAttacker.builder injects what NaiveAttacker.build does, host by host."""
        protocol = PROTOCOLS["single"]
        matrices = population.matrices()
        attacker = NaiveAttacker(
            feature=protocol.primary_feature, attack_size=20.0, active_fraction=active_fraction
        )
        attack = (
            attacker.builder(lambda host_id: np.random.default_rng((5, host_id))),
            _reference_naive(attacker, 5),
        )
        training = detection_training_distributions(
            matrices, protocol.features, protocol.train_week
        )
        assignment = PartialDiversityPolicy(PercentileHeuristic(99.0), num_groups=4).assign(
            training, fusion=protocol.fusion
        )
        table, rows = _measure_both(matrices, assignment, protocol, attack)
        assert table == rows

    def test_naive_size_sweep_equals_the_kernel_per_size(self, population):
        """On the cached population the sorted week is a copy of the frame's read-only view."""
        protocol = PROTOCOLS["single"]
        matrices = population.matrices()
        sizes = (0.0, 0.5, 3.0, 12.0, 12.5, 80.0)
        _assert_naive_columns_match_kernel(
            matrices, _full_diversity(matrices, protocol), protocol, sizes
        )

    def test_irregular_grid_measured_per_grid(self, population):
        """A host with fewer bins is measured on its own grid, in input order."""
        matrices = dict(population.matrices())
        host_ids = list(matrices)
        # Truncate one host's matrix to two weeks: it no longer shares the
        # others' bin grid.
        irregular = dict(matrices)
        irregular[host_ids[0]] = matrices[host_ids[0]].slice_time(0.0, 2 * WEEK)
        protocol = PROTOCOLS["single"]
        table, rows = _measure_both(irregular, _full_diversity(irregular, protocol), protocol)
        assert table == rows
        assert list(table) == host_ids


def _shift_origin(matrix: FeatureMatrix, origin: float) -> FeatureMatrix:
    """``matrix``'s bin counts on a grid starting at ``origin``."""
    return FeatureMatrix(
        matrix.host_id,
        {
            feature: TimeSeries(series.values, BinSpec(series.bin_width, origin))
            for feature, series in matrix.items()
        },
    )


class TestMixedBinGrids:
    """Populations whose hosts do not share one test-week bin grid."""

    @pytest.fixture(scope="class")
    def shifted_origin(self):
        """Three hosts of Poisson(5) bins over 3 weeks; host 2's grid starts half a week late."""
        rng = np.random.default_rng(2009)
        num_bins = int(3 * WEEK // (15 * MINUTE))
        matrices = {}
        for host_id in range(3):
            spec = BinSpec(15 * MINUTE, WEEK / 2 if host_id == 2 else 0.0)
            matrices[host_id] = FeatureMatrix(
                host_id,
                {feature: TimeSeries(rng.poisson(5, num_bins), spec) for feature in Feature},
            )
        return matrices

    @pytest.mark.parametrize("proto_name", list(PROTOCOLS))
    def test_shifted_origin_matches_oracle(self, shifted_origin, proto_name):
        protocol = PROTOCOLS[proto_name]
        table, rows = _measure_both(
            shifted_origin, _full_diversity(shifted_origin, protocol), protocol
        )
        assert table == rows

    @pytest.fixture(scope="class")
    def interleaved(self):
        """Full-length, clipped mid-test-week and shifted-origin hosts, in scrambled order."""
        population = generate_enterprise(EnterpriseConfig(num_hosts=12, num_weeks=2, seed=909))
        matrices = population.matrices()
        host_ids = list(matrices)
        grids = {}
        for index, host_id in enumerate(host_ids):
            matrix = matrices[host_id]
            if index % 3 == 1:
                matrix = matrix.slice_time(0.0, 1.5 * WEEK)
            elif index % 3 == 2:
                matrix = _shift_origin(matrix, WEEK / 2)
            grids[host_id] = matrix
        order = host_ids[1::2] + host_ids[::-2]
        return {host_id: grids[host_id] for host_id in order}, population.config.bin_width

    @pytest.mark.parametrize("proto_name", list(PROTOCOLS))
    @pytest.mark.parametrize("attack_name", list(ATTACKS))
    def test_interleaved_grids_match_oracle(self, interleaved, proto_name, attack_name):
        matrices, bin_width = interleaved
        protocol = PROTOCOLS[proto_name]
        assignment = _full_diversity(matrices, protocol)
        table, rows = _measure_both(
            matrices, assignment, protocol, _attack(attack_name, protocol, bin_width)
        )
        assert table == rows
        assert list(table) == list(matrices)

    def test_naive_size_sweep_sorts_each_grid(self, interleaved):
        """One sorted block per grid, rows back in input order."""
        matrices, _ = interleaved
        protocol = PROTOCOLS["single"]
        _assert_naive_columns_match_kernel(
            matrices, _full_diversity(matrices, protocol), protocol, (0.0, 1.0, 3.5, 12.0, 40.0)
        )

    def test_fig4_hidden_traffic_matches_per_host_plans(self, interleaved):
        """Panel (b) scores one block per grid; the per-host plans are the reference."""
        matrices, _ = interleaved
        config = EnterpriseConfig(num_hosts=12, num_weeks=2, seed=909)
        generated = generate_enterprise(config)
        mixed = EnterprisePopulation(
            config, {host_id: generated.profile(host_id) for host_id in matrices}, matrices
        )
        result = run_fig4(mixed, num_attack_sizes=3, partial_groups=4)

        feature = Feature.TCP_CONNECTIONS
        protocol = DetectionProtocol(features=(feature,))
        training = detection_training_distributions(
            matrices, protocol.features, 0, active_bins_only=protocol.train_on_active_bins
        )
        heuristic = PercentileHeuristic(99.0)
        policies = (
            HomogeneousPolicy(heuristic),
            FullDiversityPolicy(heuristic),
            PartialDiversityPolicy(heuristic, num_groups=4),
        )
        for policy in policies:
            thresholds = policy.assign(
                training,
                grouping_statistic_percentile=protocol.grouping_statistic_percentile,
                fusion=protocol.fusion,
            ).for_feature(feature).thresholds
            expected = {
                host_id: MimicryAttacker(feature=feature, threshold=float(thresholds[host_id]))
                .plan(matrix.week(1))
                .hidden_traffic
                for host_id, matrix in matrices.items()
            }
            assert list(result.hidden_traffic[policy.name]) == list(matrices)
            assert result.hidden_traffic[policy.name] == expected

    def test_one_measure_span_and_count_per_call(self, interleaved):
        matrices, bin_width = interleaved
        protocol = PROTOCOLS["multi-any"]
        assignment = _full_diversity(matrices, protocol)
        builder = ATTACKS["naive"].build_builder(protocol.primary_feature, bin_width)
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            measure_assignment(matrices, assignment, protocol, attack_builder=builder)
        assert [span.name for span in recorder.spans] == ["core.measure"]
        assert recorder.counters["core.host_weeks_measured"] == len(matrices)

    def test_builder_gets_one_batch_per_grid(self, interleaved):
        matrices, _ = interleaved
        protocol = PROTOCOLS["single"]
        batches = []

        def record(batch):
            batches.append(batch)
            return None  # noqa: RET501  # None is the builder contract for "no attack"

        measure_assignment(
            matrices, _full_diversity(matrices, protocol), protocol, attack_builder=record
        )
        assert len({(batch.num_bins, batch.bin_spec) for batch in batches}) == len(batches) == 3
        assert sorted(h for batch in batches for h in batch.host_ids) == sorted(matrices)
        for batch in batches:
            assert list(batch.host_ids) == [h for h in matrices if h in batch.host_ids]
            for host_id in batch.host_ids:
                series = matrices[host_id].series(protocol.primary_feature)
                assert series.bin_spec == batch.bin_spec
                assert series.week(protocol.test_week).num_bins == batch.num_bins

    def test_concatenate_joins_tables_in_host_id_order(self, matrices):
        protocol = PROTOCOLS["multi-2ofn"]
        assignment = _full_diversity(matrices, protocol)
        builder = ATTACKS["botnet"].build_builder(protocol.primary_feature, CONFIG.bin_width)

        def measured(host_ids):
            return measure_assignment(
                {host_id: matrices[host_id] for host_id in host_ids},
                assignment,
                protocol,
                attack_builder=builder,
            )

        host_ids = list(matrices)
        order = [host_ids[i] for i in np.random.default_rng(1).permutation(len(host_ids))]
        joined = HostPerformanceTable.concatenate(
            [measured(host_ids[::2]), measured(host_ids[1::2])], order
        )
        whole = measured(order)
        assert list(joined) == order
        assert joined == whole

        def alarms(table):
            return [table.fused] + [table.feature_columns(f) for f in protocol.features]

        for ours, theirs in zip(alarms(joined), alarms(whole), strict=True):
            for column in fields(AlarmColumns):
                assert np.array_equal(getattr(ours, column.name), getattr(theirs, column.name))

    def test_storm_bin_width_mismatch_raises(self, interleaved):
        matrices, bin_width = interleaved
        protocol = DetectionProtocol(features=(Feature.DISTINCT_CONNECTIONS,))
        storm = storm_builder(generate_storm_trace(bin_width=2 * bin_width))
        with pytest.raises(ValidationError, match="same bin width"):
            measure_assignment(
                matrices, _full_diversity(matrices, protocol), protocol, attack_builder=storm
            )


def _fixed_assignment(host_id: int, thresholds) -> DetectionAssignment:
    """One host's per-feature thresholds as a :class:`DetectionAssignment`."""
    grouping = GroupAssignment(groups=((host_id,),), strategy_name="fixed")
    return DetectionAssignment(
        per_feature={
            feature: ThresholdAssignment({host_id: value}, grouping, (value,), "fixed")
            for feature, value in thresholds.items()
        },
        policy_name="fixed",
    )


class TestHandComputedWeek:
    """One host's four-bin test week, measured through ``measure_assignment``."""

    TCP, UDP = Feature.TCP_CONNECTIONS, Feature.UDP_CONNECTIONS

    def _measure(self, series, thresholds, fusion, attack_builder=None):
        spec = BinSpec(15 * MINUTE)
        matrix = FeatureMatrix(1, {f: TimeSeries(v, spec) for f, v in series.items()})
        protocol = DetectionProtocol(features=tuple(series), fusion=fusion)
        table = measure_assignment(
            {1: matrix},
            _fixed_assignment(1, thresholds),
            protocol,
            attack_builder=attack_builder,
            test_week=0,
        )
        return table[1]

    @pytest.mark.parametrize(
        "fusion, expected",
        [(FusionRule.k_of_n(2), 1), (FusionRule.any_(), 3), (FusionRule.all_(), 1)],
        ids=["2-of-n", "any", "all"],
    )
    def test_fused_false_alarms(self, fusion, expected):
        # TCP alerts in bins 1 and 2, UDP in bins 2 and 3: only bin 2 has both
        # votes, and it counts once under any-fusion.
        perf = self._measure(
            {self.TCP: [5, 50, 50, 5], self.UDP: [1, 1, 20, 20]},
            {self.TCP: 10.0, self.UDP: 5.0},
            fusion,
        )
        assert perf.feature_false_alarm_counts == {self.TCP: 2, self.UDP: 2}
        assert perf.false_alarm_count == expected
        assert perf.false_positive_rate == expected / 4

    def test_rates(self):
        # Attacked bins: 0 (5 + 4 = 9 <= 10, missed) and 2 (5 + 10 = 15 > 10).
        perf = self._measure(
            {self.TCP: [5, 5, 5, 20]},
            {self.TCP: 10.0},
            FusionRule.any_(),
            attack_builder=lambda batch: {self.TCP: np.array([[4.0, 0.0, 10.0, 0.0]])},
        )
        assert perf.false_positive_rate == 0.25
        assert perf.false_negative_rate == 0.5
        assert perf.alarm_raised is True

    def test_true_and_false_alarms(self):
        # Benign traffic alerts in bin 3 (20 > 10); the attack lifts bin 1 to 15 > 10.
        perf = self._measure(
            {self.TCP: [5, 5, 8, 20]},
            {self.TCP: 10.0},
            FusionRule.any_(),
            attack_builder=lambda batch: {self.TCP: np.array([[0.0, 10.0, 0.0, 0.0]])},
        )
        assert perf.false_alarm_count == 1
        assert perf.false_positive_rate == 0.25
        assert perf.false_negative_rate == 0.0
        assert perf.alarm_raised is True

    @pytest.mark.parametrize(
        "attack_builder",
        [lambda batch: None, lambda batch: {Feature.TCP_CONNECTIONS: np.zeros((1, 4))}],
        ids=["none-result", "zero-rows"],
    )
    def test_unattacked_host(self, attack_builder):
        perf = self._measure(
            {self.TCP: [1, 2, 30, 4]}, {self.TCP: 10.0}, FusionRule.any_(), attack_builder
        )
        assert perf.false_alarm_count == 1
        assert perf.false_negative_rate == 0.0
        assert perf.alarm_raised is None
        assert perf.feature_alarm_raised == {self.TCP: None}

    def test_amounts_for_unmonitored_features_dropped(self):
        perf = self._measure(
            {self.TCP: [5, 5, 5, 5]},
            {self.TCP: 10.0},
            FusionRule.any_(),
            attack_builder=lambda batch: {self.UDP: np.full((1, 4), 100.0)},
        )
        assert perf.false_negative_rate == 0.0
        assert perf.alarm_raised is None

    def test_amounts_of_the_wrong_shape_rejected(self):
        with pytest.raises(ValidationError, match=r"\(num_hosts, num_bins\)"):
            self._measure(
                {self.TCP: [5, 5, 5, 5]},
                {self.TCP: 10.0},
                FusionRule.any_(),
                attack_builder=lambda batch: {self.TCP: np.ones((1, 3))},
            )

    def test_host_outside_the_assignment_rejected(self):
        matrix = FeatureMatrix(2, {self.TCP: TimeSeries([5, 5, 5, 5], BinSpec(15 * MINUTE))})
        protocol = DetectionProtocol(features=(self.TCP,))
        with pytest.raises(KeyError):
            measure_assignment(
                {2: matrix}, _fixed_assignment(1, {self.TCP: 10.0}), protocol, test_week=0
            )

    def _two_hosts(self, attack_builder=None):
        """Hosts 1 and 2 under threshold 10, as a :class:`PolicyEvaluation`."""
        spec = BinSpec(15 * MINUTE)
        matrices = {
            host_id: FeatureMatrix(host_id, {self.TCP: TimeSeries(values, spec)})
            for host_id, values in ((1, [50, 5, 60, 5]), (2, [5, 5, 5, 50]))
        }
        grouping = GroupAssignment(groups=((1, 2),), strategy_name="fixed")
        assignment = DetectionAssignment(
            per_feature={
                self.TCP: ThresholdAssignment({1: 10.0, 2: 10.0}, grouping, (10.0,), "fixed")
            },
            policy_name="fixed",
        )
        protocol = DetectionProtocol(features=(self.TCP,))
        table = measure_assignment(
            matrices, assignment, protocol, attack_builder=attack_builder, test_week=0
        )
        return PolicyEvaluation("fixed", protocol, assignment, table)

    def test_population_false_alarm_totals(self):
        evaluation = self._two_hosts()
        counts = {h: perf.false_alarm_count for h, perf in evaluation.performances.items()}
        assert counts == {1: 2, 2: 1}
        assert evaluation.total_false_alarms() == 3
        assert evaluation.false_positive_rates() == {1: 0.5, 2: 0.25}

    def test_fraction_of_hosts_raising_an_alarm(self):
        # Host 1's bin 1 reaches 5 + 10 = 15 > 10; host 2's bin 0 only 5 + 1 = 6.
        evaluation = self._two_hosts(
            lambda batch: {self.TCP: np.array([[0.0, 10.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])}
        )
        assert evaluation.detection_rates() == {1: 1.0, 2: 0.0}
        assert evaluation.fraction_raising_alarm() == 0.5
        assert evaluation.total_false_alarms() == 3


class TestNaiveFalseNegatives:
    """:func:`naive_false_negatives` against one ``measure_assignment`` pass per size."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_random_weeks_match_the_kernel(self, data):
        """Ties, non-integer sizes, size 0 and thresholds at, just above and just below v + s."""
        num_bins = data.draw(st.integers(1, 40))
        value = st.one_of(
            st.integers(0, 30).map(float),
            st.sampled_from([0.1, 2.5, 8.8, 29.0, 37.8]),
            st.floats(0.0, 100.0),
        )
        row = st.lists(value, min_size=num_bins, max_size=num_bins)
        rows = data.draw(st.lists(row, min_size=1, max_size=5))
        size = st.one_of(
            st.just(0.0),
            st.integers(1, 40).map(float),
            st.sampled_from([0.1, 0.3, 8.8]),
            st.floats(0.0, 60.0),
        )
        sizes = data.draw(st.lists(size, min_size=1, max_size=6))
        thresholds = {}
        for host_id, values in enumerate(rows):
            edge = data.draw(st.sampled_from(values)) + data.draw(st.sampled_from(sizes))
            near = [edge, float(np.nextafter(edge, np.inf)), float(np.nextafter(edge, -np.inf))]
            thresholds[host_id] = data.draw(st.sampled_from(near) | st.floats(0.0, 150.0))
        _assert_naive_columns_match_kernel(
            _tcp_week(rows), _tcp_assignment(thresholds), SIZE_PROTOCOL, sizes
        )

    def test_missed_bin_a_shifted_threshold_search_gets_wrong(self):
        """29 + 8.8 <= 37.8 holds, so the bin is missed, yet 37.8 - 8.8 < 29."""
        assert 29.0 + 8.8 <= 37.8 and 37.8 - 8.8 < 29.0
        matrices = _tcp_week([[29.0, 50.0, 29.0, 1.0]])
        assignment = _tcp_assignment({0: 37.8})
        # Bins 0, 2 and 3 are missed; a search for 37.8 - 8.8 finds bin 3 only.
        assert naive_false_negatives(matrices, assignment, SIZE_PROTOCOL, [8.8]).tolist() == [
            [0.75]
        ]
        _assert_naive_columns_match_kernel(matrices, assignment, SIZE_PROTOCOL, [8.8])

    def test_size_zero_attacks_no_bin(self):
        matrices = _tcp_week([[5.0, 5.0, 20.0, 5.0], [1.0, 1.0, 1.0, 1.0]])
        assignment = _tcp_assignment({0: 10.0, 1: 10.0})
        fn = naive_false_negatives(matrices, assignment, SIZE_PROTOCOL, [0.0, 5.0, 9.0, 10.0])
        assert fn.tolist() == [[0.0, 0.75, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]]

    def test_one_span_and_no_kernel_count(self):
        matrices = _tcp_week([[5.0, 6.0], [7.0, 8.0]])
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            naive_false_negatives(
                matrices, _tcp_assignment({0: 9.0, 1: 9.0}), SIZE_PROTOCOL, [1.0, 2.0, 3.0]
            )
        assert [(span.name, span.attributes) for span in recorder.spans] == [
            ("core.measure_sizes", {"num_hosts": 2, "num_sizes": 3})
        ]
        assert "core.host_weeks_measured" not in recorder.counters

    def test_rejects_a_two_feature_protocol(self):
        matrices = _tcp_week([[5.0, 6.0]])
        with pytest.raises(ValidationError, match="one-feature"):
            naive_false_negatives(
                matrices, _tcp_assignment({0: 9.0}), PROTOCOLS["multi-any"], [1.0]
            )

    def test_rejects_a_negative_size(self):
        matrices = _tcp_week([[5.0, 6.0]])
        with pytest.raises(ValidationError, match="non-negative"):
            naive_false_negatives(matrices, _tcp_assignment({0: 9.0}), SIZE_PROTOCOL, [1.0, -0.5])


class TestNaiveSizeSweepAtPaperScale:
    """fig3's and fig4(a)'s size sweeps on the 350-host x 2-week seed-2009 population.

    Every column must equal one kernel pass byte for byte, for every policy
    of both figures, on a generated and on a cached population.
    """

    @pytest.fixture(scope="class", params=SOURCES)
    def population(self, request, tmp_path_factory):
        config = EnterpriseConfig(num_hosts=350, num_weeks=2, seed=2009)
        return _population(config, request.param, tmp_path_factory.mktemp("paper-scale"))

    @pytest.mark.parametrize("figure", ["fig3", "fig4"])
    def test_every_column_equals_the_kernel(self, population, figure):
        feature = Feature.TCP_CONNECTIONS
        matrices = population.matrices()
        if figure == "fig3":
            sizes = default_attack_sizes(population, feature)
            heuristic = UtilityHeuristic(weight=0.4, attack_sizes=sizes)
        else:
            max_size = max(population.max_observed(feature), 10.0)
            sizes = tuple(attack_size_sweep(max_size, 12).tolist())
            heuristic = PercentileHeuristic(99.0)
        protocol = DetectionProtocol(features=(feature,))
        training = detection_training_distributions(matrices, protocol.features, 0)
        policies = (
            HomogeneousPolicy(heuristic),
            FullDiversityPolicy(heuristic),
            PartialDiversityPolicy(heuristic, num_groups=8),
        )
        for policy in policies:
            assignment = policy.assign(training, fusion=protocol.fusion)
            _assert_naive_columns_match_kernel(matrices, assignment, protocol, sizes)


# --- Reference oracle: the per-host aggregate formulas, over HostPerformance rows.


def _reference_fraction(flags) -> float:
    flags = [flag for flag in flags if flag is not None]
    if not flags:
        return 0.0
    return float(np.mean([1.0 if flag else 0.0 for flag in flags]))


def _reference_aggregates(points, weight, attack_prevalence) -> dict:
    fp = np.asarray([point.false_positive_rate for point in points], dtype=float)
    fn = np.asarray([point.false_negative_rate for point in points], dtype=float)
    utilities = 1.0 - (weight * fn + (1.0 - weight) * fp)
    f_measures = [
        f_measure_from_rates(fp_i, fn_i, attack_prevalence)
        for fp_i, fn_i in zip(fp, fn, strict=True)
    ]
    return {
        "mean_utility": float(np.mean(utilities)),
        "median_utility": float(np.median(utilities)),
        "mean_false_positive_rate": float(np.mean(fp)),
        "mean_false_negative_rate": float(np.mean(fn)),
        "mean_detection_rate": float(np.mean(1.0 - fn)),
        "mean_f_measure": float(np.mean(f_measures)),
    }


def _reference_outcome(evaluation, rows, attack_prevalence, sample) -> dict:
    """``summarize_scenario(...).to_dict()`` computed host by host from ``rows``."""
    performances = list(rows.values())
    protocol = evaluation.protocol
    weight = protocol.utility_weight
    per_feature = {}
    for feature in protocol.features:
        aggregates = _reference_aggregates(
            [perf.feature_point(feature) for perf in performances], weight, attack_prevalence
        )
        aggregates["total_false_alarms"] = int(
            sum(perf.feature_false_alarm_counts[feature] for perf in performances)
        )
        aggregates["fraction_raising_alarm"] = _reference_fraction(
            perf.feature_alarm_raised.get(feature) for perf in performances
        )
        aggregates["distinct_thresholds"] = (
            evaluation.assignment.for_feature(feature).distinct_threshold_count()
        )
        per_feature[feature.value] = aggregates
    sampling = {}
    if sample is not None:
        utilities = [
            1.0 - (weight * perf.false_negative_rate + (1.0 - weight) * perf.false_positive_rate)
            for perf in performances
        ]
        low, high = bootstrap_mean_interval(
            utilities, sample.bootstrap, sample.confidence, sample.seed
        )
        sampling = {
            "sample_size": len(utilities),
            "sample_seed": sample.seed,
            "utility_ci_low": low,
            "utility_ci_high": high,
            "sample_confidence": sample.confidence,
            "bootstrap_iterations": sample.bootstrap,
        }
    optimization = evaluation.optimization
    return ScenarioOutcome(
        policy_name=evaluation.policy_name,
        feature="+".join(feature.value for feature in protocol.features),
        num_hosts=len(performances),
        **_reference_aggregates(
            [perf.operating_point for perf in performances], weight, attack_prevalence
        ),
        total_false_alarms=int(sum(perf.false_alarm_count for perf in performances)),
        fraction_raising_alarm=_reference_fraction(perf.alarm_raised for perf in performances),
        distinct_thresholds=evaluation.assignment.distinct_threshold_count(),
        fusion=protocol.fusion.name,
        num_features=protocol.num_features,
        per_feature=per_feature,
        optimizer=optimization.optimizer if optimization is not None else "none",
        objective_value=optimization.objective_value if optimization is not None else None,
        optimizer_iterations=optimization.iterations if optimization is not None else 0,
        **sampling,
    ).to_dict()


def _assert_aggregates_match_rows(table, rows, protocol, assignment):
    """Every column aggregate of ``table`` equals the per-host formula over ``rows``."""
    assert list(table) == list(rows)
    evaluation = PolicyEvaluation(
        policy_name="oracle", protocol=protocol, assignment=assignment, performances=table
    )
    for weight in (None, 0.0, 0.1, 0.4, 0.77, 1.0):
        w = protocol.utility_weight if weight is None else weight
        utilities = {host_id: perf.utility(w) for host_id, perf in rows.items()}
        assert evaluation.utilities(weight) == utilities
        assert repr(evaluation.mean_utility(weight)) == repr(
            float(np.mean(list(utilities.values())))
        )
    assert evaluation.false_positive_rates() == {
        host_id: perf.false_positive_rate for host_id, perf in rows.items()
    }
    assert evaluation.detection_rates() == {
        host_id: perf.detection_rate for host_id, perf in rows.items()
    }
    for feature in protocol.features:
        assert evaluation.feature_operating_points(feature) == {
            host_id: perf.feature_point(feature) for host_id, perf in rows.items()
        }
    assert evaluation.total_false_alarms() == int(
        sum(perf.false_alarm_count for perf in rows.values())
    )
    assert repr(evaluation.fraction_raising_alarm()) == repr(
        _reference_fraction(perf.alarm_raised for perf in rows.values())
    )
    for attack_prevalence in (0.0, 0.01, 0.3, 1.0):
        for sample in (None, SampleSpec(size=len(rows), seed=3, bootstrap=200)):
            outcome = summarize_scenario(evaluation, attack_prevalence, sample)
            assert outcome.to_dict() == _reference_outcome(
                evaluation, rows, attack_prevalence, sample
            )


class TestColumnAggregatesMatchPerHostFormulas:
    @pytest.fixture(scope="class", params=SOURCES)
    def population(self, request, tmp_path_factory):
        config = EnterpriseConfig(num_hosts=12, num_weeks=4, seed=909)
        return _population(config, request.param, tmp_path_factory.mktemp("aggregates"))

    @staticmethod
    def _assignment(matrices, protocol):
        training = detection_training_distributions(
            matrices, protocol.features, protocol.train_week
        )
        return PartialDiversityPolicy(PercentileHeuristic(99.0), num_groups=4).assign(
            training, fusion=protocol.fusion
        )

    @pytest.mark.parametrize("proto_name", list(PROTOCOLS))
    @pytest.mark.parametrize("attack_name", list(ATTACKS))
    def test_all_cases(self, population, proto_name, attack_name):
        protocol = PROTOCOLS[proto_name]
        matrices = population.matrices()
        attack = _attack(attack_name, protocol, population.config.bin_width)
        assignment = self._assignment(matrices, protocol)
        table, rows = _measure_both(matrices, assignment, protocol, attack)
        _assert_aggregates_match_rows(table, rows, protocol, assignment)

    def test_irregular_grid(self, population):
        """A table joined from two grids' columns aggregates the same way."""
        matrices = dict(population.matrices())
        first_host = next(iter(matrices))
        matrices[first_host] = matrices[first_host].slice_time(0.0, 2 * WEEK)
        protocol = PROTOCOLS["multi-2ofn"]
        attack = _attack("naive", protocol, population.config.bin_width)
        assignment = self._assignment(matrices, protocol)
        table, rows = _measure_both(matrices, assignment, protocol, attack)
        _assert_aggregates_match_rows(table, rows, protocol, assignment)


class TestHostPerformanceTableChecks:
    @pytest.mark.parametrize(
        "fp, fn",
        [
            ([0.5, 1.5], [0.0, 0.0]),
            ([0.0, 0.0], [-0.25, 0.5]),
            ([float("nan"), 0.0], [0.0, 0.0]),
        ],
    )
    def test_rates_outside_unit_interval_rejected(self, fp, fn):
        with pytest.raises(ValidationError, match="must be a probability"):
            AlarmColumns(
                false_alarm_counts=[0, 0],
                false_positive_rates=fp,
                false_negative_rates=fn,
                attacked=[False, True],
            )

    def test_counts_beyond_the_bins_rejected(self):
        with pytest.raises(ValidationError, match="false_positive_rate"):
            AlarmColumns.from_bin_counts([3, 5], 4, [0, 0], [0, 0])
        with pytest.raises(ValidationError, match="false_negative_rate"):
            AlarmColumns.from_bin_counts([0, 0], 4, [0, 3], [0, 2])

    def test_table_is_a_read_only_mapping(self, matrices):
        protocol = PROTOCOLS["single"]
        assignment = HomogeneousPolicy(PercentileHeuristic(99.0)).assign(
            detection_training_distributions(matrices, protocol.features, 0)
        )
        table = measure_assignment(matrices, assignment, protocol)
        with pytest.raises(ValueError):
            table.fused.false_positive_rates[0] = 0.5
        assert len(table) == len(matrices)
        assert next(iter(table)) in table and -1 not in table
        pytest.raises(KeyError, table.__getitem__, -1)
