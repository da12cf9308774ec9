"""Integration tests: the paper-experiment drivers reproduce the qualitative shapes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.naive import NaiveAttacker
from repro.core.evaluation import EvaluationMemo
from repro.core.policies import ConfigurationPolicy
from repro.experiments import (
    run_all_experiments,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig3_cooptimized,
    run_fig4,
    run_fig5,
    run_table2,
    run_table3,
)
from repro.experiments.report import render_series, render_table
from repro.features.definitions import Feature, PAPER_FEATURES
from repro.telemetry import TelemetryRecorder, use_recorder
from repro.utils.validation import ValidationError
from repro.workload.enterprise import EnterprisePopulation


def _span_counts(recorder: TelemetryRecorder):
    """The ``(core.train, core.assign)`` spans ``recorder`` holds."""
    names = [span.name for span in recorder.spans]
    return names.count("core.train"), names.count("core.assign")


class TestReportRendering:
    def test_render_table_alignment(self):
        text = render_table(["a", "b"], [[1, 2.5], ["x", 3]], title="T")
        assert text.startswith("T\n")
        assert "2.5" in text

    def test_render_series(self):
        text = render_series("x", [1, 2], {"y": [0.1, 0.2]})
        assert "0.1" in text and "0.2" in text

    def test_render_table_rejects_ragged_rows(self):
        with pytest.raises(Exception):
            render_table(["a", "b"], [[1]])


class TestFig1(object):
    def test_tail_diversity_spreads(self, small_population):
        result = run_fig1(small_population)
        spreads = result.spread_summary()
        assert set(spreads) == set(PAPER_FEATURES)
        # Every feature shows at least one order of magnitude of spread and
        # DNS shows the smallest spread, as in the paper.
        assert all(spread > 0.8 for spread in spreads.values())
        assert spreads[Feature.DNS_CONNECTIONS] == min(spreads.values())
        assert "Figure 1" in result.render()

    def test_p999_above_p99(self, small_population):
        result = run_fig1(small_population)
        for diversity in result.per_feature.values():
            assert np.all(diversity.sorted_p999 >= diversity.sorted_p99 - 1e-9)


class TestFig2:
    def test_scatter_and_specialists(self, small_population):
        result = run_fig2(small_population)
        assert result.points().shape == (len(small_population), 2)
        # Heaviness is only partially correlated across features.
        assert result.pearson_correlation() < 0.95
        assert result.rank_overlap(10) < 10
        assert "Figure 2" in result.render()


class TestTable2:
    def test_best_user_lists(self, small_population):
        result = run_table2(small_population, top_count=10)
        for users in result.best_users.values():
            assert len(users) == 10
            assert len(set(users)) == 10
        # The best users for UDP are not all the same as the best users for TCP.
        assert result.overlap_between_features("full-diversity") < 10
        assert "Table 2" in result.render()


class TestFig3:
    def test_utility_shapes(self, tiny_population):
        result = run_fig3(tiny_population, weights=(0.2, 0.5, 0.8))
        means = result.mean_utilities()
        assert set(means) == {"homogeneous", "full-diversity", "8-partial"}
        assert all(0.0 <= value <= 1.0 for value in means.values())
        # Diversity's advantage over the monoculture does not collapse as w
        # grows (on the tiny test population the trend is noisy; the full
        # Figure 3(b) trend is exercised by the benchmark harness on a larger
        # population).
        gains = result.gain_by_weight()
        assert gains[-1] >= gains[0] - 0.02
        assert means["full-diversity"] - means["homogeneous"] >= -0.02
        assert "Figure 3" in result.render()

    def test_mean_utilities_are_the_panels_means(self, tiny_population):
        """One "mean utility": FN averaged over the size sweep, as both panels show."""
        result = run_fig3(tiny_population, weights=(0.2, 0.4, 0.8))
        means = result.mean_utilities()
        assert set(means) == set(result.boxplots)
        for name, summary in result.boxplots.items():
            assert means[name] == summary.mean
            assert means[name] == result.weight_sweep[name][1]

    def test_assigns_each_policy_once(self, tiny_population):
        """Thresholds do not depend on the attack: one assignment per policy, not per size.

        The three policies share one training of the week.
        """
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            result = run_fig3(tiny_population)
        assert recorder.counters["optimize.assignments"] == 3
        assert _span_counts(recorder) == (1, 3)
        # One kernel pass per policy (its evaluation under the first size);
        # all ten sizes are scored from one sorted test week per policy.
        measured = [span for span in recorder.spans if span.name == "core.measure"]
        assert len(measured) == 3
        swept = [span for span in recorder.spans if span.name == "core.measure_sizes"]
        assert [span.attributes["num_sizes"] for span in swept] == [10, 10, 10]
        assert recorder.counters["core.host_weeks_measured"] == 3 * len(tiny_population)
        assert set(result.evaluations) == {"homogeneous", "full-diversity", "8-partial"}

    def test_requires_an_attack_size(self, tiny_population):
        with pytest.raises(ValidationError):
            run_fig3(tiny_population, attack_sizes=())

    def test_rejects_a_negative_attack_size(self, tiny_population):
        with pytest.raises(ValidationError):
            run_fig3(tiny_population, attack_sizes=(5.0, -1.0))


class TestTable3:
    def test_alarm_volumes(self, tiny_population):
        result = run_table3(tiny_population)
        assert set(result.alarms) == {"99th-percentile", "utility (w=0.4)"}
        for per_policy in result.alarms.values():
            assert set(per_policy) == {"homogeneous", "full-diversity", "8-partial"}
            assert all(value >= 0 for value in per_policy.values())
        # Per-host alarm rates are in a sane range (a few per week).
        rate = result.per_host_rate("99th-percentile", "full-diversity")
        assert 0.0 <= rate < 50.0
        assert "Table 3" in result.render()

    def test_trains_once_and_assigns_each_cell(self, tiny_population):
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            run_table3(tiny_population)
        assert _span_counts(recorder) == (1, 6)
        assert recorder.counters["core.trainings_reused"] == 5

    def test_a_shared_memo_reuses_fig3s_assignments(self, tiny_population):
        """table3's utility trio is fig3's: one memo serves it, with the same outputs."""
        memo = EvaluationMemo()
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            fig3 = run_fig3(tiny_population, memo=memo)
            table3 = run_table3(tiny_population, memo=memo)
        assert _span_counts(recorder) == (1, 6)
        assert recorder.counters["core.assignments_reused"] == 3
        assert fig3 == run_fig3(tiny_population)
        assert table3 == run_table3(tiny_population)


class TestFig4:
    def test_attacker_curves(self, tiny_population):
        result = run_fig4(tiny_population, num_attack_sizes=6)
        assert len(result.attack_sizes) >= 2
        for curve in result.detection_curves.values():
            values = np.array(curve)
            assert np.all((values >= 0) & (values <= 1))
            # Detection is monotone non-decreasing in attack size.
            assert np.all(np.diff(values) >= -1e-9)
        # Diversity detects stealthy attacks on more hosts than the monoculture.
        assert result.stealthy_detection_gap(stealthy_max=200.0) >= 0.0
        # The mimicry attacker can hide less traffic under full diversity.
        medians = result.median_hidden_traffic()
        assert medians["full-diversity"] <= medians["homogeneous"]
        assert "Figure 4" in result.render()

    def test_both_panels_share_one_assignment_per_policy(self, tiny_population, monkeypatch):
        """Panel (b) reads panel (a)'s thresholds instead of assigning again."""
        calls = []
        original = ConfigurationPolicy.compute_thresholds

        def counted(self, *args, **kwargs):
            calls.append(self.name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ConfigurationPolicy, "compute_thresholds", counted)
        run_fig4(tiny_population, num_attack_sizes=6)
        assert sorted(calls) == ["8-partial", "full-diversity", "homogeneous"]

    def test_size_sweep_makes_no_kernel_pass(self, tiny_population, monkeypatch):
        """Panel (a) scores every size from one sorted test week per policy."""
        builds = []
        original = NaiveAttacker.batch_amounts

        def counted(self, *args, **kwargs):
            builds.append(self.attack_size)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(NaiveAttacker, "batch_amounts", counted)
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            result = run_fig4(tiny_population, num_attack_sizes=6)
        assert [span for span in recorder.spans if span.name == "core.measure"] == []
        swept = [span for span in recorder.spans if span.name == "core.measure_sizes"]
        assert [span.attributes["num_sizes"] for span in swept] == [len(result.attack_sizes)] * 3
        assert builds == []


class TestFig5:
    def test_storm_replay_shapes(self, tiny_population):
        result = run_fig5(tiny_population)
        names = result.policy_names()
        assert set(names) == {"homogeneous", "full-diversity", "8-partial"}
        for name in names:
            for fp, detection in result.scatter[name].values():
                assert 0.0 <= fp <= 1.0
                assert 0.0 <= detection <= 1.0
        # Diversity keeps the worst-case false positive rate lower than the
        # monoculture while detecting the zombie on more hosts.
        assert result.max_false_positive("full-diversity") <= result.max_false_positive("homogeneous") + 1e-9
        assert result.mean_detection("full-diversity") >= result.mean_detection("homogeneous")
        assert "Figure 5" in result.render()


class TestRunner:
    def test_run_all_experiments(self, tiny_population):
        suite = run_all_experiments(population=tiny_population)
        text = suite.render()
        for marker in ("Figure 1", "Figure 2", "Table 2", "Figure 3", "Table 3", "Figure 4", "Figure 5"):
            assert marker in text

    def test_figures_share_one_memo(self, tiny_population):
        """Three trainings (one per feature), and table3's utility trio is fig3's.

        Separate calls would make 24 trainings and 24 assignments; fig4 assigns
        on its own, outside any span.
        """
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            suite = run_all_experiments(population=tiny_population)
        assert _span_counts(recorder) == (3, 21)
        assert recorder.counters["core.assignments_reused"] == 3
        assert suite.table3 == run_table3(tiny_population)
        assert suite.fig3_cooptimized == run_fig3_cooptimized(tiny_population)

    def test_fig3_attack_sizes_are_computed_once(self, tiny_population, monkeypatch):
        """fig2 reads two per-host tails; fig3, table3 and the co-optimised fig3 share one.

        Each figure sizing its own sweep would read five tails, four of them TCP.
        """
        features = []
        original = EnterprisePopulation.per_host_percentiles

        def counted(self, feature, q):
            features.append(feature)
            return original(self, feature, q)

        monkeypatch.setattr(EnterprisePopulation, "per_host_percentiles", counted)
        run_all_experiments(population=tiny_population)
        assert len(features) == 3
        assert features.count(Feature.TCP_CONNECTIONS) == 2
