"""Tests for repro.attacks: naive, mimicry, primitives, Storm, botnet, injection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.base import AttackTrace, FeatureInjection, VictimBatch
from repro.attacks.botnet import Botnet, CommandAndControl, botnet_builder
from repro.attacks.mimicry import (
    MimicryAttacker,
    batch_hidden_traffic,
    hidden_traffic_by_host,
    mimicry_builder,
)
from repro.attacks.naive import NaiveAttacker, attack_size_sweep
from repro.attacks.primitives import PortScanModel, SpamCampaignModel
from repro.attacks.storm import generate_storm_trace, storm_builder
from repro.features.definitions import Feature
from repro.features.timeseries import FeatureMatrix, TimeSeries
from repro.stats.empirical import EmpiricalDistribution
from repro.utils.timeutils import BinSpec, MINUTE, WEEK
from repro.utils.validation import ValidationError

from helpers import inject_attack, uniform_injection


def _matrix(values, host_id=1):
    spec = BinSpec(width=15 * MINUTE)
    series = {
        Feature.TCP_CONNECTIONS: TimeSeries(values, spec),
        Feature.DISTINCT_CONNECTIONS: TimeSeries(values, spec),
    }
    return FeatureMatrix(host_id=host_id, series=series)


class TestAttackTrace:
    def test_uniform_injection(self):
        trace = uniform_injection(Feature.TCP_CONNECTIONS, 10.0, 5, BinSpec(width=900.0))
        assert trace.num_bins == 5
        assert trace.injection(Feature.TCP_CONNECTIONS).total == 50.0
        assert np.all(trace.amounts(Feature.TCP_CONNECTIONS) > 0)

    def test_amounts_for_untouched_feature_are_zero(self):
        trace = uniform_injection(Feature.TCP_CONNECTIONS, 10.0, 5, BinSpec(width=900.0))
        assert np.all(trace.amounts(Feature.UDP_CONNECTIONS) == 0)

    def test_negative_amounts_rejected(self):
        with pytest.raises(ValidationError):
            FeatureInjection(feature=Feature.TCP_CONNECTIONS, amounts=np.array([-1.0]))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError):
            AttackTrace(
                name="x",
                injections={
                    Feature.TCP_CONNECTIONS: FeatureInjection(
                        Feature.TCP_CONNECTIONS, np.ones(3)
                    ),
                    Feature.UDP_CONNECTIONS: FeatureInjection(
                        Feature.UDP_CONNECTIONS, np.ones(4)
                    ),
                },
                bin_spec=BinSpec(width=900.0),
            )


class TestNaiveAttacker:
    def test_always_on_injection(self, rng):
        victim = _matrix([5.0] * 10)
        trace = NaiveAttacker(Feature.TCP_CONNECTIONS, attack_size=50.0).build(victim, rng)
        assert np.all(trace.amounts(Feature.TCP_CONNECTIONS) == 50.0)

    def test_partial_activity(self, rng):
        victim = _matrix([5.0] * 500)
        trace = NaiveAttacker(
            Feature.TCP_CONNECTIONS, attack_size=50.0, active_fraction=0.3
        ).build(victim, rng)
        fraction = (trace.amounts(Feature.TCP_CONNECTIONS) > 0).mean()
        assert 0.15 < fraction < 0.45

    def test_attack_size_sweep_monotone(self):
        sweep = attack_size_sweep(1000.0, 20)
        assert sweep[0] == 1.0
        assert sweep[-1] == 1000.0
        assert np.all(np.diff(sweep) > 0)


class TestMimicryAttacker:
    def test_plan_respects_evasion_probability(self):
        values = list(range(100))
        victim = _matrix(values)
        threshold = 150.0
        attacker = MimicryAttacker(Feature.TCP_CONNECTIONS, threshold, evasion_probability=0.9)
        plan = attacker.plan(victim)
        assert plan.hidden_traffic > 0
        assert plan.expected_evasion >= 0.9 - 1e-9

    def test_zero_hidden_traffic_when_threshold_low(self):
        victim = _matrix([100.0] * 20)
        attacker = MimicryAttacker(Feature.TCP_CONNECTIONS, threshold=10.0)
        assert attacker.plan(victim).hidden_traffic == 0.0

    def test_lower_threshold_means_less_hidden_traffic(self):
        victim = _matrix(list(range(100)))
        high = MimicryAttacker(Feature.TCP_CONNECTIONS, 500.0).plan(victim).hidden_traffic
        low = MimicryAttacker(Feature.TCP_CONNECTIONS, 120.0).plan(victim).hidden_traffic
        assert low < high

    def test_hidden_traffic_by_host(self):
        matrices = {1: _matrix(list(range(50))), 2: _matrix([1.0] * 50)}
        thresholds = {1: 100.0, 2: 100.0}
        hidden = hidden_traffic_by_host(matrices, thresholds, Feature.TCP_CONNECTIONS)
        assert hidden[2] > hidden[1]  # the lighter host leaves more room

    def test_build_injects_constant_plan(self, rng):
        victim = _matrix(list(range(50)))
        attacker = MimicryAttacker(Feature.TCP_CONNECTIONS, 100.0)
        trace = attacker.build(victim, rng)
        amounts = trace.amounts(Feature.TCP_CONNECTIONS)
        assert np.all(amounts == amounts[0])


class TestPrimitives:
    def test_port_scan_counts(self, rng):
        counts = PortScanModel(activity_probability=1.0).per_bin_counts(50, rng)
        assert np.all(counts[Feature.TCP_SYN] >= counts[Feature.TCP_CONNECTIONS] * 0.99)
        assert np.all(counts[Feature.DISTINCT_CONNECTIONS] > 0)

    def test_spam_generates_dns(self, rng):
        counts = SpamCampaignModel(activity_probability=1.0).per_bin_counts(20, rng)
        assert counts[Feature.DNS_CONNECTIONS].sum() > 0


class TestStorm:
    def test_storm_trace_dimensions(self):
        trace = generate_storm_trace(duration=WEEK, bin_width=15 * MINUTE, seed=1)
        assert trace.num_bins == 672
        assert Feature.DISTINCT_CONNECTIONS in trace.features

    def test_storm_distinct_dominates(self):
        trace = generate_storm_trace(seed=2)
        distinct_total = trace.injection(Feature.DISTINCT_CONNECTIONS).total
        dns_total = trace.amounts(Feature.DNS_CONNECTIONS).sum()
        assert distinct_total > dns_total

    def test_storm_deterministic_by_seed(self):
        a = generate_storm_trace(seed=3)
        b = generate_storm_trace(seed=3)
        assert np.array_equal(
            a.amounts(Feature.DISTINCT_CONNECTIONS), b.amounts(Feature.DISTINCT_CONNECTIONS)
        )

    def test_storm_has_quiet_and_bursty_bins(self):
        amounts = generate_storm_trace(seed=4).amounts(Feature.DISTINCT_CONNECTIONS)
        assert np.percentile(amounts, 20) < 150
        assert np.max(amounts) > 800


class TestBotnet:
    def test_recruitment_probability(self):
        botnet = Botnet(compromise_probability=1.0)
        assert botnet.recruit(list(range(10))) == list(range(10))
        none_botnet = Botnet(compromise_probability=0.0)
        assert none_botnet.recruit(list(range(10))) == []

    def test_resourceful_campaign_bounded_by_thresholds(self):
        matrices = {i: _matrix(list(range(20))) for i in range(3)}
        low = Botnet().resourceful_campaign(
            matrices, {i: 30.0 for i in range(3)}, Feature.TCP_CONNECTIONS
        )
        high = Botnet().resourceful_campaign(
            matrices, {i: 300.0 for i in range(3)}, Feature.TCP_CONNECTIONS
        )
        assert low.total_volume() < high.total_volume()

    def test_campaign_per_bin_volume_sums_to_total(self):
        matrices = {i: _matrix(list(range(20)), host_id=i) for i in range(3)}
        campaign = Botnet().resourceful_campaign(
            matrices, {i: 300.0 for i in range(3)}, Feature.TCP_CONNECTIONS
        )
        profile = campaign.per_bin_volume()
        assert profile.shape == (20,)
        assert profile.sum() == pytest.approx(campaign.total_volume())
        assert campaign.total_volume() > 0.0
        empty = Botnet(compromise_probability=0.0).resourceful_campaign(
            matrices, {i: 300.0 for i in range(3)}, Feature.TCP_CONNECTIONS
        )
        assert empty.total_volume() == 0.0
        with pytest.raises(ValidationError, match="no participating hosts"):
            empty.per_bin_volume()

    def test_control_feature_mapping(self):
        assert CommandAndControl.HTTP.control_feature == Feature.HTTP_CONNECTIONS
        assert CommandAndControl.P2P.control_feature == Feature.UDP_CONNECTIONS


class TestInjection:
    def test_inject_attack_additive(self):
        benign = TimeSeries([1.0, 2.0, 3.0], BinSpec(width=900.0))
        attack = uniform_injection(Feature.TCP_CONNECTIONS, 10.0, 3, BinSpec(width=900.0))
        injected = inject_attack(benign, attack, Feature.TCP_CONNECTIONS)
        assert list(injected.observed.values) == [11.0, 12.0, 13.0]
        assert injected.num_attack_bins == 3

    def test_inject_attack_shorter_than_benign(self):
        benign = TimeSeries([1.0] * 5, BinSpec(width=900.0))
        attack = uniform_injection(Feature.TCP_CONNECTIONS, 10.0, 2, BinSpec(width=900.0))
        injected = inject_attack(benign, attack, Feature.TCP_CONNECTIONS)
        assert list(injected.observed.values) == [11.0, 11.0, 1.0, 1.0, 1.0]

    def test_bin_width_mismatch_rejected(self):
        benign = TimeSeries([1.0], BinSpec(width=300.0))
        attack = uniform_injection(Feature.TCP_CONNECTIONS, 10.0, 1, BinSpec(width=900.0))
        with pytest.raises(ValidationError):
            inject_attack(benign, attack, Feature.TCP_CONNECTIONS)

    @given(st.lists(st.floats(min_value=0, max_value=1e4), min_size=1, max_size=50),
           st.floats(min_value=0, max_value=1e4))
    @settings(max_examples=30)
    def test_injection_preserves_benign_plus_attack(self, benign_values, size):
        benign = TimeSeries(benign_values, BinSpec(width=900.0))
        attack = uniform_injection(
            Feature.TCP_CONNECTIONS, size, len(benign_values), BinSpec(width=900.0)
        )
        injected = inject_attack(benign, attack, Feature.TCP_CONNECTIONS)
        assert np.allclose(
            np.asarray(injected.observed.values),
            np.asarray(benign.values) + size,
        )


def _victims(num_hosts=4, num_bins=20, seed=3):
    """Hosts 10, 11, ... with Poisson traffic whose mean grows with the host id."""
    rng = np.random.default_rng(seed)
    return {
        host_id: _matrix(rng.poisson(5 + 3 * index, num_bins).astype(float), host_id=host_id)
        for index, host_id in enumerate(range(10, 10 + num_hosts))
    }


def _batch(matrices, thresholds=None, requested=None):
    """``matrices`` as one victim batch; ``requested`` records each value stack asked for."""
    host_ids = list(matrices)

    def values(feature):
        if requested is not None:
            requested.append(feature)
        return np.stack([np.asarray(matrices[h].series(feature).values) for h in host_ids])

    first = matrices[host_ids[0]]
    return VictimBatch(
        host_ids,
        first.series(Feature.TCP_CONNECTIONS).bin_spec,
        first.num_bins,
        thresholds or {},
        values,
    )


def _seeded(seed):
    """An ``rng_for`` drawing host ``h`` from ``default_rng((seed, h))``."""

    def rng_for(host_id):
        return np.random.default_rng((seed, host_id))

    return rng_for


class TestAttackBuilders:
    """The batch attack builders, row by row against the single-victim trace API."""

    TCP = Feature.TCP_CONNECTIONS

    def test_naive_builder_always_on_reads_no_values(self):
        requested = []
        amounts = NaiveAttacker(self.TCP, attack_size=12.0).builder()(
            _batch(_victims(), requested=requested)
        )
        assert list(amounts) == [self.TCP]
        assert np.array_equal(amounts[self.TCP], np.full((4, 20), 12.0))
        assert requested == []

    @pytest.mark.parametrize("active_fraction", [1.0, 0.4])
    def test_naive_builder_rows_equal_single_victim_builds(self, active_fraction):
        victims = _victims()
        attacker = NaiveAttacker(self.TCP, attack_size=12.0, active_fraction=active_fraction)
        rng_for = _seeded(9)
        rows = attacker.builder(rng_for)(_batch(victims))[self.TCP]
        for row, (host_id, matrix) in zip(rows, victims.items(), strict=True):
            expected = attacker.build(matrix, rng_for(host_id)).amounts(self.TCP)
            assert np.array_equal(row, expected)

    def test_naive_builder_draws_each_host_from_default_rng_of_its_id(self):
        victims = _victims()
        attacker = NaiveAttacker(self.TCP, attack_size=3.0, active_fraction=0.5)
        rows = attacker.builder()(_batch(victims))[self.TCP]
        for row, (host_id, matrix) in zip(rows, victims.items(), strict=True):
            expected = attacker.build(matrix, np.random.default_rng(host_id)).amounts(self.TCP)
            assert np.array_equal(row, expected)
        assert 0 < np.count_nonzero(rows) < rows.size

    def test_mimicry_builder_rows_equal_plans(self):
        victims = _victims()
        thresholds = np.array([8.0, 14.0, 30.0, 2.0])
        requested = []
        amounts = mimicry_builder(self.TCP, evasion_probability=0.8)(
            _batch(victims, {self.TCP: thresholds}, requested)
        )
        assert list(amounts) == [self.TCP]
        assert requested == [self.TCP]
        rows = amounts[self.TCP]
        for row, threshold, matrix in zip(rows, thresholds, victims.values(), strict=True):
            plan = MimicryAttacker(self.TCP, threshold, evasion_probability=0.8).plan(matrix)
            assert np.array_equal(row, np.full(matrix.num_bins, plan.hidden_traffic))
        # The lowest threshold leaves its host no room; the highest leaves some.
        assert not np.any(rows[3]) and np.all(rows[2] > 0)

    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.lists(
            st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0, 7.5, 40.0]), min_size=1, max_size=30),
            min_size=1,
            max_size=5,
        ),
        evasion_probability=st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.0]),
    )
    def test_batch_hidden_traffic_equals_each_hosts_shift(self, counts, evasion_probability):
        """Every assignment's row, host by host, is the per-host plan's hidden traffic."""
        width = min(len(row) for row in counts)
        values = np.array([row[:width] for row in counts])
        thresholds = np.stack([np.full(len(values), 5.0), np.linspace(0.0, 60.0, len(values))])
        hidden = batch_hidden_traffic(values, thresholds, evasion_probability)
        assert hidden.shape == thresholds.shape
        for row, assignment in zip(hidden, thresholds, strict=True):
            for value, threshold, samples in zip(row, assignment, values, strict=True):
                shift = EmpiricalDistribution(samples).largest_hidden_shift(
                    threshold, evasion_probability
                )
                assert value == shift

    def test_mimicry_builder_tracks_schedule_only_when_asked(self):
        assert mimicry_builder(self.TCP).tracks_schedule is False
        assert mimicry_builder(self.TCP, tracks_schedule=True).tracks_schedule is True

    @pytest.mark.parametrize("num_bins", [96, 700], ids=["shorter-week", "longer-week"])
    def test_storm_builder_replays_the_trace_on_every_victim(self, num_bins):
        trace = generate_storm_trace(seed=5)
        victims = {
            host_id: FeatureMatrix(
                host_id,
                {f: TimeSeries(np.full(num_bins, float(host_id)), trace.bin_spec) for f in Feature},
            )
            for host_id in (3, 1, 2)
        }
        amounts = storm_builder(trace)(_batch(victims))
        assert set(amounts) == set(trace.features)
        for feature, rows in amounts.items():
            assert rows.shape == (3, num_bins)
            for row, matrix in zip(rows, victims.values(), strict=True):
                expected = inject_attack(matrix.series(feature), trace, feature).attack_amounts
                assert np.array_equal(row, expected)

    def test_storm_builder_rejects_another_bin_width_like_inject_attack(self):
        trace = generate_storm_trace(bin_width=30 * MINUTE, seed=5)
        victims = _victims()
        message = "attack and benign series must use the same bin width"
        with pytest.raises(ValidationError, match=message):
            storm_builder(trace)(_batch(victims))
        with pytest.raises(ValidationError, match=message):
            inject_attack(victims[10].series(self.TCP), trace, Feature.DISTINCT_CONNECTIONS)

    def test_botnet_builder_recruitment_bounds(self):
        batch = _batch(_victims())
        nobody = botnet_builder(self.TCP, 25.0, _seeded(1), compromise_probability=0.0)(batch)
        everybody = botnet_builder(self.TCP, 25.0, _seeded(1), compromise_probability=1.0)(batch)
        assert np.array_equal(nobody[self.TCP], np.zeros((4, 20)))
        assert np.array_equal(everybody[self.TCP], np.full((4, 20), 25.0))

    @pytest.mark.parametrize(
        "channel, target, control_size, control_feature",
        [
            (CommandAndControl.P2P, Feature.TCP_CONNECTIONS, 5.0, Feature.UDP_CONNECTIONS),
            (CommandAndControl.HTTP, Feature.TCP_CONNECTIONS, 5.0, Feature.HTTP_CONNECTIONS),
            (CommandAndControl.P2P, Feature.UDP_CONNECTIONS, 5.0, None),
            (CommandAndControl.P2P, Feature.TCP_CONNECTIONS, 0.0, None),
        ],
        ids=["p2p", "http", "control-is-target", "no-control"],
    )
    def test_botnet_builder_control_traffic_on_recruited_hosts_only(
        self, channel, target, control_size, control_feature
    ):
        builder = botnet_builder(
            target,
            25.0,
            _seeded(1701),
            compromise_probability=0.5,
            command_and_control=channel,
            control_size=control_size,
        )
        amounts = builder(_batch(_victims(num_hosts=12)))
        recruited = np.any(amounts[target] > 0, axis=1)
        assert 0 < np.count_nonzero(recruited) < 12
        assert np.array_equal(amounts[target][recruited], np.full((recruited.sum(), 20), 25.0))
        if control_feature is None:
            assert list(amounts) == [target]
        else:
            assert list(amounts) == [target, control_feature]
            expected = np.where(recruited[:, None], control_size, 0.0) * np.ones((1, 20))
            assert np.array_equal(amounts[control_feature], expected)

    @pytest.mark.parametrize("kind", ["naive", "mimicry", "storm", "botnet"])
    def test_rows_do_not_depend_on_the_rest_of_the_batch(self, kind):
        """A host is attacked alike in any batch, so hosts can be measured grid by grid."""
        builder = {
            "naive": NaiveAttacker(self.TCP, 7.0, active_fraction=0.5).builder(_seeded(4)),
            "mimicry": mimicry_builder(self.TCP),
            "storm": storm_builder(generate_storm_trace(seed=4)),
            "botnet": botnet_builder(
                self.TCP, 9.0, _seeded(4), 0.6, active_fraction=0.7, control_size=2.0
            ),
        }[kind]
        victims = _victims(num_hosts=6)
        thresholds = np.linspace(5.0, 30.0, 6)
        whole = builder(_batch(victims, {self.TCP: thresholds}))
        picks = [4, 1, 3]
        host_ids = list(victims)
        part = builder(
            _batch(
                {host_ids[i]: victims[host_ids[i]] for i in picks},
                {self.TCP: thresholds[picks]},
            )
        )
        assert list(part) == list(whole)
        for feature, rows in whole.items():
            assert np.array_equal(part[feature], rows[picks])
