"""Tests for repro.workload: profiles, diurnal, mobility, events, generators, enterprise."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluation import series_distributions
from repro.engine import PopulationEngine
from repro.engine.serialization import config_from_payload
from repro.features.definitions import Feature, PAPER_FEATURES
from repro.stats.empirical import EmpiricalDistribution
from repro.traces.capture import NetworkLocation
from repro.utils.rng import RandomSource
from repro.utils.timeutils import DAY, HOUR, MINUTE, WEEK, BinSpec
from repro.utils.validation import ValidationError
from repro.workload.diurnal import (
    ActivityModel,
    always_on_pattern,
    hour_of_week_slots,
    office_worker_pattern,
)
from repro.workload.enterprise import (
    EnterpriseConfig,
    generate_enterprise,
    generate_host,
    population_grid,
)
from repro.workload.events import (
    DEFAULT_ROLLOUT_AMOUNTS,
    ScheduledEvent,
    add_event_counts,
    build_maintenance_events,
)
from repro.workload.generator import HostSeriesGenerator, HostTraceGenerator
from repro.workload.mobility import (
    LOCATION_ACTIVITY,
    TIMELINE_LOCATIONS,
    MobilityModel,
    MobilityTimeline,
    generate_capture_session,
)
from repro.workload.profiles import UserRole, sample_host_profile

from helpers import location_at, online_fraction

GOLDEN_POPULATION = Path(__file__).parent / "data" / "golden_population.json"


class TestProfiles:
    def test_profile_sampling_deterministic(self, random_source):
        a = sample_host_profile(3, random_source)
        b = sample_host_profile(3, random_source)
        assert a.master_intensity == b.master_intensity
        assert a.role == b.role

    def test_profiles_differ_across_hosts(self, random_source):
        profiles = [sample_host_profile(i, random_source) for i in range(20)]
        assert len({p.master_intensity for p in profiles}) == 20

    def test_all_features_have_intensity(self, random_source):
        profile = sample_host_profile(1, random_source)
        for feature in PAPER_FEATURES:
            assert profile.intensity(feature).scale > 0
            assert profile.base_rate(feature) > 0

    def test_fixed_role_respected(self, random_source):
        profile = sample_host_profile(5, random_source, role=UserRole.RESEARCHER)
        assert profile.role == UserRole.RESEARCHER

    def test_role_weights_sum_to_one(self):
        assert sum(role.weight for role in UserRole) == pytest.approx(1.0)


class TestDiurnal:
    def test_office_pattern_peaks_during_work_hours(self):
        pattern = office_worker_pattern()
        working = pattern.multiplier(10 * HOUR)  # Monday 10:00
        night = pattern.multiplier(3 * HOUR)  # Monday 03:00
        weekend = pattern.multiplier(5 * DAY + 11 * HOUR)  # Saturday 11:00
        assert working > weekend > night

    def test_always_on_pattern_flat(self):
        pattern = always_on_pattern()
        assert pattern.multiplier(3 * HOUR) >= 0.7

    def test_activity_model_applies_floor(self, rng):
        model = ActivityModel(pattern=office_worker_pattern(), jitter_sigma=0.0, floor=0.1)
        assert model.multiplier(3 * HOUR, rng) >= 0.1

    def test_activity_model_vectorised(self, rng):
        model = ActivityModel(pattern=office_worker_pattern())
        values = model.slot_multipliers(hour_of_week_slots(np.arange(0, DAY, 15 * MINUTE)), rng)
        assert values.shape == (96,)
        assert np.all(values > 0)

    def test_invalid_pattern_length_rejected(self):
        from repro.workload.diurnal import DiurnalPattern

        with pytest.raises(ValidationError):
            DiurnalPattern(weekday_hours=[1.0] * 23, weekend_hours=[1.0] * 24)


class TestMobility:
    def test_desktop_always_online(self, random_source):
        session = generate_capture_session(
            1, 0x0A000001, WEEK, random_source, MobilityModel(is_laptop=False)
        )
        assert online_fraction(session) == pytest.approx(1.0)
        assert location_at(session, 3 * HOUR) == NetworkLocation.OFFICE_WIRED

    def test_laptop_has_offline_periods(self, random_source):
        session = generate_capture_session(
            2, 0x0A000002, WEEK, random_source, MobilityModel(is_laptop=True)
        )
        assert 0.0 < online_fraction(session) < 1.0
        assert location_at(session, 2 * HOUR) == NetworkLocation.OFFLINE

    def test_weekday_office_presence(self, random_source):
        session = generate_capture_session(
            3, 0x0A000003, WEEK, random_source, MobilityModel(travel_day_probability=0.0)
        )
        location = location_at(session, 11 * HOUR)  # Monday late morning
        assert location in (NetworkLocation.OFFICE_WIRED, NetworkLocation.OFFICE_WIRELESS)

    def test_activity_factors_follow_the_covering_segment(self):
        wired = TIMELINE_LOCATIONS.index(NetworkLocation.OFFICE_WIRED)
        home = TIMELINE_LOCATIONS.index(NetworkLocation.HOME)
        timeline = MobilityTimeline(
            np.array([0.0, 150.0]), np.array([100.0, 200.0]), np.array([wired, home])
        )
        # Segments end-exclusive; the gap and the time past the end read OFFLINE's 0.
        factors = timeline.activity_factors([0.0, 99.999, 100.0, 120.0, 150.0, 199.999, 200.0])
        at_office = LOCATION_ACTIVITY[NetworkLocation.OFFICE_WIRED]
        at_home = LOCATION_ACTIVITY[NetworkLocation.HOME]
        assert factors.tolist() == [at_office, at_office, 0.0, 0.0, at_home, at_home, 0.0]

    def test_location_activity_covers_all_locations(self):
        assert set(LOCATION_ACTIVITY) == set(NetworkLocation)
        assert LOCATION_ACTIVITY[NetworkLocation.OFFLINE] == 0.0

    def test_deterministic_for_same_host(self, random_source):
        a = generate_capture_session(7, 1, WEEK, random_source, MobilityModel())
        b = generate_capture_session(7, 1, WEEK, random_source, MobilityModel())
        assert [e.location for e in a.environments] == [e.location for e in b.environments]


class TestEvents:
    def test_build_maintenance_events_skips_out_of_range_weeks(self):
        events = build_maintenance_events(2, maintenance_weeks=(0, 2, 4))
        assert len(events) == 1
        assert events[0].name == "patch-rollout-week0"

    def test_event_amounts_cover_window(self, rng):
        events = build_maintenance_events(1, maintenance_weeks=(0,))
        event = events[0]
        bin_starts = np.arange(0, WEEK, 15 * MINUTE)
        counts = {feature: np.zeros(bin_starts.size) for feature in PAPER_FEATURES}
        online = np.ones(bin_starts.size, dtype=bool)
        add_event_counts(counts, [event], bin_starts, 15 * MINUTE, online, rng)
        tcp = counts[Feature.TCP_CONNECTIONS]
        if not tcp.any():  # 10% non-participation possibility with a single draw
            return
        active_bins = np.count_nonzero(tcp)
        assert active_bins == pytest.approx(event.duration / (15 * MINUTE), abs=1)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_windowed_events_equal_full_length_masks(self, data):
        width = data.draw(st.floats(1.0, 3600.0), label="width")
        origin = data.draw(st.floats(-4 * width, 10 * width), label="origin")
        num_bins = data.draw(st.integers(1, 200), label="num_bins")
        bin_starts = BinSpec(width=width, origin=origin).starts(num_bins)
        span = max(origin + (num_bins + 4) * width, width)
        event = st.builds(
            ScheduledEvent,
            name=st.just("e"),
            start_time=st.floats(0.0, span),
            duration=st.floats(0.5, span / 2 + 1.0),
            feature_amounts=st.dictionaries(
                st.sampled_from(PAPER_FEATURES), st.floats(0.0, 300.0), min_size=1
            ),
            participation=st.floats(0.05, 1.0),
        )
        events = data.draw(st.lists(event, max_size=5), label="events")
        present = data.draw(
            st.lists(st.sampled_from(PAPER_FEATURES), min_size=1, unique=True), label="counts"
        )
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        inputs = np.random.default_rng(seed)
        initial = {feature: np.floor(inputs.random(num_bins) * 40.0) for feature in present}
        online = inputs.random(num_bins) < 0.8

        counts = {feature: values.copy() for feature, values in initial.items()}
        rng = np.random.default_rng(seed + 1)
        add_event_counts(counts, events, bin_starts, width, online, rng)
        expected = {feature: values.copy() for feature, values in initial.items()}
        reference_rng = np.random.default_rng(seed + 1)
        _reference_event_counts(expected, events, bin_starts, width, online, reference_rng)

        assert rng.bit_generator.state == reference_rng.bit_generator.state
        for feature in present:
            assert counts[feature].tobytes() == expected[feature].tobytes(), feature

    def test_event_validation(self):
        with pytest.raises(ValidationError):
            ScheduledEvent(name="x", start_time=0.0, duration=0.0, feature_amounts=DEFAULT_ROLLOUT_AMOUNTS)
        with pytest.raises(ValidationError):
            ScheduledEvent(name="x", start_time=0.0, duration=10.0, feature_amounts={})


def _reference_event_counts(counts, events, bin_starts, bin_width, online, rng):
    """The full-length computation ``add_event_counts`` replaced.

    One window mask and one ``np.where`` per event and feature over the whole
    grid, summed per feature across events, floored once, then added where
    the host is online.
    """
    totals = {}
    for event in events:
        if rng.uniform() >= event.participation:
            continue
        jitter = rng.lognormal(mean=0.0, sigma=0.25)
        in_window = (bin_starts + bin_width > event.start_time) & (bin_starts < event.end_time)
        if not np.any(in_window):
            continue
        for feature, amount in event.feature_amounts.items():
            contribution = np.where(in_window, amount * jitter, 0.0)
            totals[feature] = totals.get(feature, 0.0) + contribution
    for feature, amounts in totals.items():
        if feature in counts:
            counts[feature] = counts[feature] + np.where(online, np.floor(amounts), 0.0)


class TestHostSeriesGenerator:
    def _generate(self, random_source, host_id=0, weeks=1, **kwargs):
        profile = sample_host_profile(host_id, random_source)
        generator = HostSeriesGenerator(profile=profile, **kwargs)
        return generator.generate(weeks * WEEK, random_source)

    def test_output_shape(self, random_source):
        matrix = self._generate(random_source, weeks=1)
        assert matrix.num_bins == 672
        assert set(matrix.features) == set(PAPER_FEATURES)

    def test_counts_non_negative_integers(self, random_source):
        matrix = self._generate(random_source)
        for feature in PAPER_FEATURES:
            values = np.asarray(matrix[feature].values)
            assert np.all(values >= 0)
            assert np.allclose(values, np.round(values))

    def test_consistency_constraints(self, random_source):
        matrix = self._generate(random_source, host_id=5)
        tcp = np.asarray(matrix[Feature.TCP_CONNECTIONS].values)
        syn = np.asarray(matrix[Feature.TCP_SYN].values)
        http = np.asarray(matrix[Feature.HTTP_CONNECTIONS].values)
        distinct = np.asarray(matrix[Feature.DISTINCT_CONNECTIONS].values)
        udp = np.asarray(matrix[Feature.UDP_CONNECTIONS].values)
        dns = np.asarray(matrix[Feature.DNS_CONNECTIONS].values)
        assert np.all(syn >= tcp)
        assert np.all(http <= tcp)
        assert np.all(distinct <= tcp + udp + dns)

    def test_deterministic(self, random_source):
        a = self._generate(random_source, host_id=2)
        b = self._generate(random_source, host_id=2)
        assert np.array_equal(a[Feature.TCP_CONNECTIONS].values, b[Feature.TCP_CONNECTIONS].values)

    def test_heavier_profiles_generate_more_traffic(self, random_source):
        totals = []
        for host_id in range(12):
            matrix = self._generate(random_source, host_id=host_id)
            profile = sample_host_profile(host_id, random_source)
            totals.append((profile.master_intensity, matrix[Feature.TCP_CONNECTIONS].total()))
        totals.sort()
        light_mean = np.mean([t for _, t in totals[:4]])
        heavy_mean = np.mean([t for _, t in totals[-4:]])
        assert heavy_mean > light_mean

    def test_zero_drift_is_supported(self, random_source):
        matrix = self._generate(random_source, week_drift_scale=0.0, weeks=2)
        assert matrix.num_weeks() == 2


class TestHostTraceGenerator:
    def test_packet_generation_and_extraction_pipeline(self, random_source):
        from repro.features.extractor import extract_feature_matrix
        from repro.traces.assembler import assemble_connections

        profile = sample_host_profile(1, random_source)
        generator = HostTraceGenerator(profile=profile, sessions_per_hour=4.0)
        duration = 6 * HOUR
        packets = generator.generate_packets(duration, random_source)
        assert len(packets) > 0
        timestamps = [p.timestamp for p in packets]
        assert timestamps == sorted(timestamps)

        records = assemble_connections(packets, generator.host_ip)
        assert len(records) > 0
        matrix = extract_feature_matrix(1, records, duration=duration)
        assert matrix[Feature.TCP_CONNECTIONS].total() + matrix[Feature.UDP_CONNECTIONS].total() > 0

    def test_sessions_have_connections(self, random_source):
        profile = sample_host_profile(2, random_source)
        generator = HostTraceGenerator(profile=profile)
        sessions = generator.generate_sessions(8 * HOUR, random_source)
        assert sessions
        assert all(len(session.connections) >= 1 for session in sessions)


class TestEnterprisePopulation:
    def test_population_dimensions(self, small_population):
        assert len(small_population) == 40
        host = small_population.host_ids[0]
        assert small_population.matrix(host).num_weeks() == 2

    def test_tail_diversity_spans_orders_of_magnitude(self, small_population):
        p99 = np.array(
            list(small_population.per_host_percentiles(Feature.TCP_CONNECTIONS, 99).values())
        )
        p99 = p99[p99 > 0]
        assert np.log10(p99.max() / p99.min()) > 1.3

    def test_dns_spread_smaller_than_udp(self, small_population):
        def spread(feature):
            values = np.array(
                list(small_population.per_host_percentiles(feature, 99).values())
            )
            values = values[values > 0]
            return np.log10(values.max() / values.min())

        assert spread(Feature.DNS_CONNECTIONS) < spread(Feature.UDP_CONNECTIONS)

    def test_pooled_distribution_dominated_by_heavy_hosts(self, small_population):
        # The monoculture's global distribution pools every host's samples, so
        # its tail sits above the typical host's own tail.
        feature = Feature.TCP_CONNECTIONS
        distributions = list(
            series_distributions(
                small_population.matrices(), (feature,), active_bins_only=False
            )[feature].values()
        )
        pooled = EmpiricalDistribution.pooled(distributions)
        assert len(pooled) == sum(len(distribution) for distribution in distributions)
        per_host = small_population.per_host_percentiles(feature, 99)
        assert pooled.percentile(99) > np.median(list(per_host.values()))

    def test_generation_deterministic(self):
        config = EnterpriseConfig(num_hosts=6, num_weeks=1, seed=5)
        a = generate_enterprise(config)
        b = generate_enterprise(config)
        for host in a.host_ids:
            assert np.array_equal(
                a.matrix(host)[Feature.TCP_CONNECTIONS].values,
                b.matrix(host)[Feature.TCP_CONNECTIONS].values,
            )

    def test_max_observed_positive(self, small_population):
        assert small_population.max_observed(Feature.TCP_CONNECTIONS) > 0

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            EnterpriseConfig(num_hosts=0)
        with pytest.raises(ValidationError):
            EnterpriseConfig(laptop_fraction=2.0)

    def test_generate_host_rejects_another_configs_grid(self):
        config = EnterpriseConfig(num_hosts=3, num_weeks=1, seed=1)
        other = population_grid(EnterpriseConfig(num_hosts=3, num_weeks=2, seed=1))
        with pytest.raises(ValidationError):
            generate_host(config, 0, grid=other)

    def test_roles_override(self):
        config = EnterpriseConfig(num_hosts=3, num_weeks=1, seed=1)
        population = generate_enterprise(config, roles={0: UserRole.SYSTEM_ADMINISTRATOR})
        assert population.profile(0).role == UserRole.SYSTEM_ADMINISTRATOR


def _series_digest(matrix) -> str:
    digest = hashlib.sha256()
    for feature in PAPER_FEATURES:
        digest.update(matrix.series(feature).values.tobytes())
    return digest.hexdigest()


def _profile_payload(profile) -> dict:
    return {
        "role": profile.role.value,
        "master_intensity": repr(float(profile.master_intensity)),
        "is_laptop": bool(profile.is_laptop),
        "intensities": {
            feature.value: [
                repr(float(intensity.scale)),
                repr(float(intensity.body_sigma)),
                repr(float(intensity.burst_probability)),
                repr(float(intensity.burst_alpha)),
            ]
            for feature, intensity in profile.intensities.items()
        },
    }


class TestGeneratorBytes:
    """The generator's output, byte for byte, against tests/data/golden_population.json.

    The measurement fixtures only pin what fig3/fig4/table3 measure; this one
    pins every series of every host (unmeasured features, late weeks, the
    sign of zeros) under each configuration the fixture lists, plus the
    environment timelines ``generate_capture_session`` draws.  A change to
    the order of any random draw fails here; such a change needs a
    generator version bump and a recapture (scripts/dev_capture_golden.py).
    """

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_POPULATION.read_text())

    def test_generated_bytes_match_fixture(self, golden):
        engine = PopulationEngine(workers=1, use_cache=False)
        assert len(golden["populations"]) >= 8
        for name, case in golden["populations"].items():
            config = config_from_payload(case["config"])
            roles = {int(host_id): UserRole(role) for host_id, role in case["roles"].items()}
            population = generate_enterprise(config, roles=roles or None, engine=engine)
            assert list(population.host_ids) == sorted(int(host_id) for host_id in case["hosts"])
            mismatched = [
                host_id
                for host_id in population.host_ids
                if _series_digest(population.matrix(host_id))
                != case["hosts"][str(host_id)]["series_sha256"]
                or _profile_payload(population.profile(host_id))
                != case["hosts"][str(host_id)]["profile"]
            ]
            assert not mismatched, f"{name}: hosts {mismatched} differ from the fixture"
            # generate_host on its own yields the same bytes as the engine's chunk.
            host_id = population.host_ids[-1]
            profile, matrix = generate_host(config, host_id, role=roles.get(host_id))
            assert _series_digest(matrix) == case["hosts"][str(host_id)]["series_sha256"]
            assert _profile_payload(profile) == case["hosts"][str(host_id)]["profile"]

    def test_capture_sessions_match_fixture(self, golden):
        random_source = RandomSource(seed=77, label="enterprise")
        assert {"laptop", "desktop"} <= set(golden["capture_sessions"])
        for name, case in golden["capture_sessions"].items():
            host_id = case["host_id"]
            session = generate_capture_session(
                host_id,
                0x0A000000 | host_id,
                float(case["duration"]),
                random_source,
                MobilityModel(**case["model"]),
            )
            environments = [
                [
                    repr(float(env.start_time)),
                    repr(float(env.end_time)),
                    env.location.value,
                    env.interface,
                    env.host_ip,
                ]
                for env in session.environments
            ]
            assert environments == case["environments"], name
