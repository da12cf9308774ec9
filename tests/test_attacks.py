"""Tests for repro.attacks: naive, mimicry, primitives, Storm, botnet, injection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.base import VictimBatch
from repro.attacks.botnet import CommandAndControl, botnet_builder
from repro.attacks.mimicry import MimicryAttacker, batch_hidden_traffic, hidden_traffic_by_host
from repro.attacks.naive import NaiveAttacker, attack_size_sweep
from repro.attacks.primitives import PortScanModel, SpamCampaignModel
from repro.attacks.storm import StormZombieModel, generate_storm_trace, storm_builder
from repro.features.definitions import Feature
from repro.features.timeseries import FeatureMatrix, TimeSeries
from repro.utils.timeutils import BinSpec, MINUTE, WEEK
from repro.utils.validation import ValidationError

from helpers import inject_attack, mimicry_amounts, naive_amounts


def _matrix(values, host_id=1):
    spec = BinSpec(width=15 * MINUTE)
    series = {
        Feature.TCP_CONNECTIONS: TimeSeries(values, spec),
        Feature.DISTINCT_CONNECTIONS: TimeSeries(values, spec),
    }
    return FeatureMatrix(host_id=host_id, series=series)


class TestNaiveAttacker:
    def test_always_on_injection(self):
        victims = {1: _matrix([5.0] * 10)}
        amounts = NaiveAttacker(Feature.TCP_CONNECTIONS, attack_size=50.0).builder()(
            _batch(victims)
        )
        assert np.all(amounts[Feature.TCP_CONNECTIONS] == 50.0)

    def test_partial_activity(self):
        victims = {1: _matrix([5.0] * 500)}
        attacker = NaiveAttacker(Feature.TCP_CONNECTIONS, attack_size=50.0, active_fraction=0.3)
        amounts = attacker.builder(_seeded(0))(_batch(victims))[Feature.TCP_CONNECTIONS]
        fraction = (amounts > 0).mean()
        assert 0.15 < fraction < 0.45

    def test_attack_size_sweep_monotone(self):
        sweep = attack_size_sweep(1000.0, 20)
        assert sweep[0] == 1.0
        assert sweep[-1] == 1000.0
        assert np.all(np.diff(sweep) > 0)

    @pytest.mark.parametrize(
        "attack_size, active_fraction",
        [(-1.0, 1.0), (5.0, 1.5), (5.0, -0.1)],
        ids=["negative-size", "fraction-above-one", "negative-fraction"],
    )
    def test_rejects_invalid_parameters(self, attack_size, active_fraction):
        with pytest.raises(ValidationError):
            NaiveAttacker(Feature.TCP_CONNECTIONS, attack_size, active_fraction)

    @pytest.mark.parametrize(
        "max_size, num_points", [(0.5, 10), (100.0, 1)], ids=["max-below-one", "one-point"]
    )
    def test_attack_size_sweep_rejects_degenerate_ranges(self, max_size, num_points):
        with pytest.raises(ValidationError):
            attack_size_sweep(max_size, num_points)


class TestMimicryAttacker:
    @pytest.mark.parametrize("threshold", [120.0, 150.0])
    def test_hidden_traffic_respects_evasion_probability(self, threshold):
        """After injecting ``b`` in every bin, at least 90% of bins stay under the threshold."""
        values = np.arange(100.0)[None, :]
        [hidden] = batch_hidden_traffic(values, [threshold], evasion_probability=0.9)
        assert hidden > 0
        assert np.mean(values[0] + hidden < threshold) >= 0.9 - 1e-9

    def test_zero_hidden_traffic_when_threshold_low(self):
        values = np.full((1, 20), 100.0)
        assert batch_hidden_traffic(values, [10.0]).tolist() == [0.0]

    def test_lower_threshold_means_less_hidden_traffic(self):
        values = np.arange(100.0)[None, :]
        [[high], [low]] = batch_hidden_traffic(values, [[500.0], [120.0]])
        assert low < high

    def test_hidden_traffic_by_host(self):
        matrices = {1: _matrix(list(range(50))), 2: _matrix([1.0] * 50)}
        thresholds = {1: 100.0, 2: 100.0}
        hidden = hidden_traffic_by_host(matrices, thresholds, Feature.TCP_CONNECTIONS)
        assert hidden[2] > hidden[1]  # the lighter host leaves more room

    def test_rejects_an_evasion_probability_outside_the_unit_interval(self):
        with pytest.raises(ValidationError):
            MimicryAttacker(Feature.TCP_CONNECTIONS, evasion_probability=1.5)


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
        assert Feature.DISTINCT_CONNECTIONS in trace
        assert {amounts.shape for amounts in trace.values()} == {(672,)}

    def test_storm_distinct_dominates(self):
        trace = generate_storm_trace(seed=2)
        assert trace[Feature.DISTINCT_CONNECTIONS].sum() > trace[Feature.DNS_CONNECTIONS].sum()

    def test_storm_deterministic_by_seed(self):
        a = generate_storm_trace(seed=3)
        b = generate_storm_trace(seed=3)
        assert list(a) == list(b)
        for feature, amounts in a.items():
            assert np.array_equal(amounts, b[feature])

    def test_storm_has_quiet_and_bursty_bins(self):
        amounts = generate_storm_trace(seed=4)[Feature.DISTINCT_CONNECTIONS]
        assert np.percentile(amounts, 20) < 150
        assert np.max(amounts) > 800

    def test_storm_seeds_give_different_traces(self):
        a = generate_storm_trace(seed=5)[Feature.DISTINCT_CONNECTIONS]
        b = generate_storm_trace(seed=6)[Feature.DISTINCT_CONNECTIONS]
        assert a.shape == b.shape
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize(
        "duration, bin_width", [(0.0, 15 * MINUTE), (WEEK, 0.0)], ids=["duration", "bin-width"]
    )
    def test_storm_trace_rejects_a_non_positive_span(self, duration, bin_width):
        with pytest.raises(ValidationError):
            generate_storm_trace(duration, bin_width)


class TestBotnet:
    def test_recruitment_probability(self):
        """A host is recruited with ``compromise_probability``; a recruit injects in every bin."""
        batch = _batch(_victims(num_hosts=400, num_bins=4))
        campaign = botnet_builder(Feature.TCP_CONNECTIONS, 25.0, _seeded(2), 0.3)(batch)
        rows = campaign[Feature.TCP_CONNECTIONS]
        recruited = np.any(rows > 0, axis=1)
        assert 0.22 < recruited.mean() < 0.38
        assert np.array_equal(rows[recruited], np.full((recruited.sum(), 4), 25.0))
        assert not np.any(rows[~recruited])

    def test_campaign_per_bin_volume_sums_to_total(self):
        """An intermittent campaign's per-bin volume is ``size`` times that bin's active zombies."""
        batch = _batch(_victims(num_hosts=30, num_bins=50))
        builder = botnet_builder(
            Feature.TCP_CONNECTIONS, 6.0, _seeded(8), 0.5, active_fraction=0.4
        )
        rows = builder(batch)[Feature.TCP_CONNECTIONS]
        profile = rows.sum(axis=0)
        assert profile.shape == (50,)
        assert np.array_equal(profile, 6.0 * np.count_nonzero(rows, axis=0))
        assert profile.sum() == rows.sum() > 0.0
        recruits = np.count_nonzero(np.any(rows > 0, axis=1))
        assert np.all(profile <= 6.0 * recruits)
        assert np.any(profile < 6.0 * recruits)

    def test_resourceful_campaign_bounded_by_thresholds(self):
        """Each zombie is sized by the mimicry attacker: lower thresholds, less volume."""
        victims = {i: _matrix(list(range(20)), host_id=i) for i in range(3)}
        campaign = MimicryAttacker(Feature.TCP_CONNECTIONS).builder()
        low, high = (
            campaign(_batch(victims, {Feature.TCP_CONNECTIONS: np.full(3, threshold)}))
            for threshold in (30.0, 300.0)
        )
        assert 0.0 < low[Feature.TCP_CONNECTIONS].sum() < high[Feature.TCP_CONNECTIONS].sum()

    def test_control_feature_mapping(self):
        assert CommandAndControl.HTTP.control_feature == Feature.HTTP_CONNECTIONS
        assert CommandAndControl.P2P.control_feature == Feature.UDP_CONNECTIONS


class TestInjection:
    def test_inject_attack_additive(self):
        benign = TimeSeries([1.0, 2.0, 3.0], BinSpec(width=900.0))
        injected = inject_attack(benign, np.full(3, 10.0))
        assert list(injected.observed.values) == [11.0, 12.0, 13.0]
        assert injected.num_attack_bins == 3

    def test_inject_attack_shorter_than_benign(self):
        benign = TimeSeries([1.0] * 5, BinSpec(width=900.0))
        injected = inject_attack(benign, np.full(2, 10.0))
        assert list(injected.observed.values) == [11.0, 11.0, 1.0, 1.0, 1.0]

    @given(st.lists(st.floats(min_value=0, max_value=1e4), min_size=1, max_size=50),
           st.floats(min_value=0, max_value=1e4))
    @settings(max_examples=30)
    def test_injection_preserves_benign_plus_attack(self, benign_values, size):
        benign = TimeSeries(benign_values, BinSpec(width=900.0))
        injected = inject_attack(benign, np.full(len(benign_values), size))
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
    """The batch attack builders, row by row against the per-host oracles in ``helpers``."""

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
    def test_naive_builder_rows_equal_the_per_host_oracle(self, active_fraction):
        victims = _victims()
        attacker = NaiveAttacker(self.TCP, attack_size=12.0, active_fraction=active_fraction)
        rng_for = _seeded(9)
        rows = attacker.builder(rng_for)(_batch(victims))[self.TCP]
        for row, host_id in zip(rows, victims, strict=True):
            assert np.array_equal(row, naive_amounts(12.0, active_fraction, 20, rng_for(host_id)))

    def test_naive_builder_draws_each_host_from_default_rng_of_its_id(self):
        victims = _victims()
        attacker = NaiveAttacker(self.TCP, attack_size=3.0, active_fraction=0.5)
        rows = attacker.builder()(_batch(victims))[self.TCP]
        for row, host_id in zip(rows, victims, strict=True):
            expected = naive_amounts(3.0, 0.5, 20, np.random.default_rng(host_id))
            assert np.array_equal(row, expected)
        assert 0 < np.count_nonzero(rows) < rows.size

    @pytest.mark.parametrize("tracks_schedule", [False, True])
    def test_mimicry_carries_tracks_schedule_and_repeats_hidden_traffic(
        self, tracks_schedule
    ):
        victims = _victims()
        thresholds = np.array([8.0, 14.0, 30.0, 2.0])
        requested = []
        builder = MimicryAttacker(self.TCP, 0.8, tracks_schedule=tracks_schedule).builder()
        assert builder.tracks_schedule is tracks_schedule
        batch = _batch(victims, {self.TCP: thresholds}, requested)
        amounts = builder(batch)
        assert list(amounts) == [self.TCP]
        assert requested == [self.TCP]
        hidden = batch_hidden_traffic(batch.values(self.TCP), thresholds, 0.8)
        assert np.array_equal(amounts[self.TCP], np.repeat(hidden[:, None], 20, axis=1))

    def test_mimicry_rows_equal_the_per_host_oracle(self):
        victims = _victims()
        thresholds = np.array([8.0, 14.0, 30.0, 2.0])
        rows = MimicryAttacker(self.TCP, evasion_probability=0.8).builder()(
            _batch(victims, {self.TCP: thresholds})
        )[self.TCP]
        for row, threshold, matrix in zip(rows, thresholds, victims.values(), strict=True):
            expected = mimicry_amounts(matrix.series(self.TCP).values, threshold, 0.8)
            assert np.array_equal(row, expected)
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
        """Every assignment's row, host by host, is the per-host oracle's hidden traffic."""
        width = min(len(row) for row in counts)
        values = np.array([row[:width] for row in counts])
        thresholds = np.stack([np.full(len(values), 5.0), np.linspace(0.0, 60.0, len(values))])
        hidden = batch_hidden_traffic(values, thresholds, evasion_probability)
        assert hidden.shape == thresholds.shape
        for row, assignment in zip(hidden, thresholds, strict=True):
            for value, threshold, samples in zip(row, assignment, values, strict=True):
                assert value == mimicry_amounts(samples, threshold, evasion_probability)[0]

    @pytest.mark.parametrize("width", [15 * MINUTE, 30 * MINUTE], ids=["15min", "30min"])
    @pytest.mark.parametrize("num_bins", [96, 700], ids=["shorter-week", "longer-week"])
    def test_storm_builder_replays_the_trace_in_the_victims_bins(self, width, num_bins):
        """Each victim gets the trace generated in its own bins, padded or cut to its week."""
        spec = BinSpec(width=width)
        victims = {
            host_id: FeatureMatrix(
                host_id,
                {f: TimeSeries(np.full(num_bins, float(host_id)), spec) for f in Feature},
            )
            for host_id in (3, 1, 2)
        }
        trace = generate_storm_trace(WEEK, width, 5)
        amounts = storm_builder(5)(_batch(victims))
        assert list(amounts) == list(trace)
        for feature, rows in amounts.items():
            assert rows.shape == (3, num_bins)
            for row, matrix in zip(rows, victims.values(), strict=True):
                expected = inject_attack(matrix.series(feature), trace[feature]).attack_amounts
                assert np.array_equal(row, expected)

    def test_storm_builder_uses_the_given_model(self):
        model = StormZombieModel(p2p_peers_per_bin=5.0, p2p_duty_cycle=0.5)
        batch = _batch(_victims(num_hosts=2, num_bins=672))
        amounts = storm_builder(7, model)(batch)
        trace = generate_storm_trace(WEEK, 15 * MINUTE, 7, model)
        assert list(amounts) == list(trace)
        for feature, rows in amounts.items():
            assert np.array_equal(rows, np.tile(trace[feature], (2, 1)))
        default = storm_builder(7)(batch)[Feature.UDP_CONNECTIONS]
        assert not np.array_equal(amounts[Feature.UDP_CONNECTIONS], default)

    def test_storm_builder_is_the_same_on_every_call(self):
        """The trace is regenerated from the seed, so no call shifts the next one's draws."""
        builder = storm_builder(11)
        batch = _batch(_victims())
        first, second = builder(batch), builder(batch)
        assert list(first) == list(second)
        for feature, rows in first.items():
            assert np.array_equal(rows, second[feature])

    @pytest.mark.parametrize("active_fraction", [1.0, 0.6])
    def test_botnet_builder_rows_equal_the_per_host_oracle(self, active_fraction):
        """Host ``h`` draws its recruitment, then its naive activity mask, from ``rng_for(h)``."""
        victims = _victims(num_hosts=10)
        rng_for = _seeded(13)
        rows = botnet_builder(
            self.TCP, 4.0, rng_for, 0.5, active_fraction=active_fraction
        )(_batch(victims))[self.TCP]
        for row, host_id in zip(rows, victims, strict=True):
            rng = rng_for(host_id)
            recruited = rng.uniform() < 0.5
            expected = naive_amounts(4.0, active_fraction, 20, rng) if recruited else np.zeros(20)
            assert np.array_equal(row, expected)
        assert 0 < np.count_nonzero(np.any(rows > 0, axis=1)) < 10

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
            "mimicry": MimicryAttacker(self.TCP).builder(),
            "storm": storm_builder(4),
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
