"""Tests for repro.stats: distributions, quantiles, histograms, samplers, k-means."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.stats.empirical import EmpiricalDistribution, ecdf, percentile_of_score
from repro.stats.histogram import Histogram, LogHistogram, histogram_from_samples
from repro.stats.kmeans import kmeans, separation_score
from repro.stats.quantile import GreenwaldKhannaSketch, P2QuantileEstimator
from repro.stats.samplers import (
    LogNormalSampler,
    MixtureSampler,
    ParetoSampler,
    PoissonSampler,
    TruncatedSampler,
    ZipfSampler,
)
from repro.stats.summary import summarize
from repro.stats.tail import exceedance_curve, hill_estimator, orders_of_magnitude, tail_ratio
from repro.utils.validation import ValidationError


class TestEmpiricalDistribution:
    def test_percentile_and_quantile_agree(self):
        dist = EmpiricalDistribution(range(1, 101))
        assert dist.percentile(50) == pytest.approx(dist.quantile(0.5))
        assert dist.percentile(99) == pytest.approx(99.01, abs=0.5)

    def test_cdf_and_exceedance_sum_to_one(self):
        dist = EmpiricalDistribution([1, 2, 3, 4, 5])
        for value in (0, 1, 2.5, 5, 6):
            assert dist.cdf(value) + dist.exceedance(value) == pytest.approx(1.0)

    def test_exceedance_is_strict(self):
        dist = EmpiricalDistribution([1, 2, 3, 4])
        assert dist.exceedance(4) == 0.0
        assert dist.exceedance(3) == pytest.approx(0.25)

    def test_pooled_combines_samples(self):
        a = EmpiricalDistribution([1, 2, 3])
        b = EmpiricalDistribution([10, 20, 30])
        pooled = EmpiricalDistribution.pooled([a, b])
        assert len(pooled) == 6
        assert pooled.max() == 30

    def test_largest_hidden_shift_matches_definition(self):
        dist = EmpiricalDistribution(range(100))
        threshold = 120.0
        shift = dist.largest_hidden_shift(threshold, evasion_probability=0.9)
        # After shifting by `shift`, at least 90% of the mass stays below T.
        assert 1.0 - dist.shifted_exceedance(threshold, shift) >= 0.9 - 1e-9
        assert shift > 0

    def test_largest_hidden_shift_zero_when_no_room(self):
        dist = EmpiricalDistribution([100.0] * 10)
        assert dist.largest_hidden_shift(50.0, 0.9) == 0.0

    def test_empty_distribution_guards(self):
        empty = EmpiricalDistribution()
        assert empty.is_empty
        with pytest.raises(ValidationError):
            empty.percentile(99)
        with pytest.raises(ValidationError):
            EmpiricalDistribution(allow_empty=False)

    def test_add_returns_new_distribution(self):
        base = EmpiricalDistribution([1.0, 2.0])
        extended = base.add([10.0])
        assert len(base) == 2
        assert len(extended) == 3

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            EmpiricalDistribution([1.0, float("nan")])
        with pytest.raises(ValidationError):
            EmpiricalDistribution(np.array([1.0, np.inf]))

    def test_generator_input(self):
        dist = EmpiricalDistribution(float(value) for value in (3, 1, 2))
        assert list(dist.samples) == [1.0, 2.0, 3.0]

    def test_array_input_is_copied(self):
        source = np.array([3.0, 1.0, 2.0])
        dist = EmpiricalDistribution(source, bin_width=300.0)
        source[:] = 99.0
        assert list(dist.samples) == [1.0, 2.0, 3.0]
        sorted_source = np.array([1.0, 2.0, 3.0])
        dist = EmpiricalDistribution(sorted_source)
        sorted_source[0] = -5.0
        assert dist.min() == 1.0

    def test_array_input_matches_list_input(self):
        values = np.random.default_rng(3).integers(0, 50, size=200)
        from_array = EmpiricalDistribution(values)
        from_list = EmpiricalDistribution(values.tolist())
        assert from_array.samples.dtype == np.float64
        assert np.array_equal(from_array.samples, from_list.samples)

    def test_bin_width_still_validated(self):
        with pytest.raises(ValidationError):
            EmpiricalDistribution(np.array([1.0]), bin_width=0.0)

    def test_summary_keys(self):
        summary = EmpiricalDistribution(range(10)).summary()
        assert set(summary) >= {"count", "min", "max", "p99", "mean"}

    def test_ecdf_helpers(self):
        assert ecdf([1, 2, 3, 4], 2) == pytest.approx(0.5)
        assert percentile_of_score([1, 2, 3, 4], 4) == pytest.approx(100.0)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
    def test_percentiles_monotone(self, samples):
        dist = EmpiricalDistribution(samples)
        assert dist.percentile(50) <= dist.percentile(90) <= dist.percentile(99) <= dist.max()

    @given(
        st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200),
        st.floats(min_value=0, max_value=1e6),
    )
    def test_cdf_bounds(self, samples, value):
        dist = EmpiricalDistribution(samples)
        assert 0.0 <= dist.cdf(value) <= 1.0


_SIZES = st.integers(min_value=1, max_value=5000)

#: Per-bin-count-like sample sets: arbitrary floats, all-equal samples,
#: small integer counts with heavy ties, and heavy-tailed traffic.
_SAMPLES = st.one_of(
    hnp.arrays(np.float64, _SIZES, elements=st.floats(-1e9, 1e9)),
    st.builds(np.full, _SIZES, st.floats(-1e9, 1e9)),
    hnp.arrays(np.int64, _SIZES, elements=st.integers(0, 12)),
    st.builds(
        lambda size, seed: np.random.default_rng(seed).lognormal(2.0, 1.5, size),
        _SIZES,
        st.integers(0, 2**32 - 1),
    ),
)

_Q = st.one_of(
    st.sampled_from([0, 100, 99, 99.9, 50]),
    st.integers(0, 100),
    st.floats(0.0, 100.0),
)

#: ``q`` arrays: the candidate-threshold grid (upper-half quantiles), scalars
#: as 0-d arrays, and arbitrary shapes.
_QS = st.one_of(
    st.integers(0, 60).map(lambda k: 100.0 * np.minimum(np.linspace(0.5, 1.0, k), 1.0)),
    _Q.map(np.asarray),
    hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=0, max_dims=2), elements=st.floats(0.0, 100.0)
    ),
)


class TestPercentileKernel:
    """Percentiles read by index from the sorted samples equal ``np.percentile``, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(_SAMPLES, st.lists(_Q, min_size=1, max_size=20), st.floats(0.0, 1.0))
    def test_percentile_and_quantile_match_numpy(self, samples, qs, p):
        dist = EmpiricalDistribution(samples)
        for q in qs:
            assert dist.percentile(q) == np.percentile(samples, q)
        assert dist.quantile(p) == np.percentile(samples, 100.0 * p)

    @settings(max_examples=200, deadline=None)
    @given(_SAMPLES, _QS)
    def test_percentiles_match_numpy(self, samples, qs):
        expected = np.percentile(samples, qs)
        actual = EmpiricalDistribution(samples).percentiles(qs)
        assert np.shape(actual) == np.shape(expected)
        assert np.array_equal(actual, expected)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_SAMPLES, min_size=1, max_size=4), _Q, _QS)
    def test_pooled_and_added_distributions_match_numpy(self, parts, q, qs):
        combined = np.concatenate(parts)
        pooled = EmpiricalDistribution.pooled([EmpiricalDistribution(part) for part in parts])
        added = EmpiricalDistribution(parts[0])
        for part in parts[1:]:
            added = added.add(part)
        for dist in (pooled, added):
            assert dist.percentile(q) == np.percentile(combined, q)
            assert np.array_equal(dist.percentiles(qs), np.percentile(combined, qs))

    @given(
        _SAMPLES,
        st.one_of(
            st.floats(max_value=0.0, exclude_max=True),
            st.floats(min_value=100.0, exclude_min=True),
            st.just(float("nan")),
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_out_of_range_q_rejected(self, samples, q):
        dist = EmpiricalDistribution(samples)
        with pytest.raises(ValidationError):
            dist.percentile(q)
        with pytest.raises(ValidationError):
            dist.quantile(q / 100.0)
        with pytest.raises(ValidationError):
            dist.percentiles([50.0, q])

    def test_empty_distribution_rejected(self):
        empty = EmpiricalDistribution()
        for query in (
            lambda: empty.percentile(50),
            lambda: empty.quantile(0.5),
            lambda: empty.percentiles([50.0, 99.0]),
        ):
            with pytest.raises(ValidationError):
                query()


class TestStreamingQuantiles:
    def test_p2_close_to_exact(self, rng):
        data = rng.lognormal(3, 1, 5000)
        estimator = P2QuantileEstimator(0.99)
        for value in data:
            estimator.update(value)
        exact = np.percentile(data, 99)
        assert estimator.query() == pytest.approx(exact, rel=0.25)

    def test_p2_few_samples_uses_exact(self):
        estimator = P2QuantileEstimator(0.5)
        for value in (5.0, 1.0, 3.0):
            estimator.update(value)
        assert estimator.query() == pytest.approx(3.0)

    def test_p2_rejects_other_quantile_query(self):
        estimator = P2QuantileEstimator(0.9)
        estimator.update(1.0)
        with pytest.raises(ValidationError):
            estimator.query(0.5)

    def test_gk_sketch_rank_error(self, rng):
        data = rng.exponential(10.0, 4000)
        sketch = GreenwaldKhannaSketch(epsilon=0.01)
        for value in data:
            sketch.update(value)
        for p in (0.5, 0.9, 0.99):
            estimate = sketch.query(p)
            true_rank = np.count_nonzero(data <= estimate) / data.size
            assert abs(true_rank - p) < 0.05

    def test_gk_requires_data(self):
        with pytest.raises(ValidationError):
            GreenwaldKhannaSketch().query(0.5)

    def test_counts_track_updates(self):
        sketch = GreenwaldKhannaSketch()
        estimator = P2QuantileEstimator(0.9)
        for value in range(10):
            sketch.update(value)
            estimator.update(value)
        assert sketch.count == 10
        assert estimator.count == 10


class TestHistograms:
    def test_fixed_histogram_quantile(self):
        histogram = Histogram(bin_width=1.0, num_bins=100)
        histogram.add_many(range(100))
        assert histogram.quantile(0.5) == pytest.approx(50, abs=2)
        assert histogram.total == 100

    def test_fixed_histogram_overflow(self):
        histogram = Histogram(bin_width=1.0, num_bins=10)
        histogram.add(100.0)
        assert histogram.overflow == 1
        assert histogram.quantile(1.0) == pytest.approx(100.0)

    def test_fixed_histogram_merge(self):
        a = Histogram(1.0, 10)
        b = Histogram(1.0, 10)
        a.add_many([1, 2, 3])
        b.add_many([4, 5])
        merged = a.merge(b)
        assert merged.total == 5

    def test_merge_rejects_mismatched_geometry(self):
        with pytest.raises(ValidationError):
            Histogram(1.0, 10).merge(Histogram(2.0, 10))

    def test_exceedance(self):
        histogram = Histogram(bin_width=1.0, num_bins=10)
        histogram.add_many([0.5, 1.5, 2.5, 3.5])
        assert histogram.exceedance(1.9) == pytest.approx(0.5)

    def test_log_histogram_quantile_order_of_magnitude(self, rng):
        histogram = LogHistogram(base=2.0)
        data = rng.lognormal(4, 1, 2000)
        histogram.add_many(data)
        estimate = histogram.quantile(0.5)
        exact = float(np.median(data))
        assert estimate == pytest.approx(exact, rel=0.6)

    def test_log_histogram_merge(self):
        a, b = LogHistogram(), LogHistogram()
        a.add_many([1, 2, 4])
        b.add_many([8, 16])
        assert a.merge(b).total == 5

    def test_histogram_from_samples(self):
        histogram = histogram_from_samples([1.0, 5.0, 10.0], num_bins=10)
        assert histogram.total == 3

    def test_negative_values_rejected(self):
        with pytest.raises(ValidationError):
            Histogram(1.0, 10).add(-1.0)
        with pytest.raises(ValidationError):
            LogHistogram().add(-1.0)


class TestSamplers:
    def test_lognormal_mean_close(self, rng):
        sampler = LogNormalSampler(mu=1.0, sigma=0.5)
        samples = sampler.sample(rng, size=20000)
        assert np.mean(samples) == pytest.approx(sampler.mean(), rel=0.1)

    def test_lognormal_quantile_monotone(self):
        sampler = LogNormalSampler(mu=0.0, sigma=1.0)
        assert sampler.quantile(0.5) < sampler.quantile(0.9) < sampler.quantile(0.99)

    def test_pareto_minimum_respected(self, rng):
        sampler = ParetoSampler(xm=2.0, alpha=1.5)
        samples = sampler.sample(rng, size=1000)
        assert np.min(samples) >= 2.0

    def test_pareto_quantile(self):
        sampler = ParetoSampler(xm=1.0, alpha=2.0)
        assert sampler.quantile(0.75) == pytest.approx(2.0)

    def test_pareto_infinite_mean(self):
        assert ParetoSampler(xm=1.0, alpha=0.9).mean() == float("inf")

    def test_poisson_and_zipf(self, rng):
        assert PoissonSampler(5.0).sample(rng, size=100).min() >= 0
        zipf = ZipfSampler(exponent=2.0, max_value=50).sample(rng, size=500)
        assert zipf.max() <= 50
        assert zipf.min() >= 1

    def test_mixture_weights_normalised(self, rng):
        mixture = MixtureSampler(
            [LogNormalSampler(0, 1), ParetoSampler(1.0, 2.0)], weights=[2.0, 2.0]
        )
        assert np.allclose(mixture.weights, [0.5, 0.5])
        samples = mixture.sample(rng, size=100)
        assert samples.shape == (100,)

    def test_mixture_scalar_sample(self, rng):
        mixture = MixtureSampler([PoissonSampler(3.0)], weights=[1.0])
        assert mixture.sample(rng) >= 0

    def test_truncated_sampler_clips(self, rng):
        sampler = TruncatedSampler(LogNormalSampler(5, 2), low=0.0, high=10.0)
        samples = sampler.sample(rng, size=500)
        assert np.max(samples) <= 10.0

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            LogNormalSampler(0.0, 0.0)
        with pytest.raises(ValidationError):
            ParetoSampler(0.0, 1.0)
        with pytest.raises(ValidationError):
            MixtureSampler([], [])


class TestTailAnalysis:
    def test_hill_estimator_recovers_pareto_alpha(self, rng):
        alpha = 2.0
        samples = ParetoSampler(xm=1.0, alpha=alpha).sample(rng, size=20000)
        estimate = hill_estimator(samples, tail_fraction=0.1)
        assert estimate == pytest.approx(alpha, rel=0.25)

    def test_tail_ratio_and_orders(self):
        thresholds = [1.0, 10.0, 1000.0]
        assert tail_ratio(thresholds) == pytest.approx(1000.0)
        assert orders_of_magnitude(thresholds) == pytest.approx(3.0)

    def test_exceedance_curve_shape(self, rng):
        curve = exceedance_curve(rng.exponential(1.0, 500), points=20)
        assert curve.shape == (20, 2)
        assert np.all(np.diff(curve[:, 1]) <= 0)

    def test_hill_requires_enough_samples(self):
        with pytest.raises(ValidationError):
            hill_estimator([1.0, 2.0, 3.0])


class TestKMeans:
    def test_separates_well_separated_clusters(self):
        points = np.concatenate([np.full(20, 0.0), np.full(20, 100.0)]).reshape(-1, 1)
        result = kmeans(points, k=2, seed=1)
        assert result.k == 2
        sizes = sorted(result.cluster_sizes())
        assert sizes == [20, 20]
        assert separation_score(result, points) > 0.5

    def test_k_equals_one(self):
        result = kmeans([[1.0], [2.0], [3.0]], k=1)
        assert result.k == 1
        assert result.centers[0][0] == pytest.approx(2.0)

    def test_inertia_decreases_with_more_clusters(self, rng):
        data = rng.normal(size=(60, 2))
        inertia = [kmeans(data, k=k, seed=0).inertia for k in (1, 2, 4, 8)]
        assert all(a >= b - 1e-9 for a, b in zip(inertia, inertia[1:], strict=False))

    def test_invalid_k_rejected(self):
        with pytest.raises(ValidationError):
            kmeans([[1.0]], k=2)

    def test_deterministic_given_seed(self, rng):
        data = rng.normal(size=(50, 1))
        a = kmeans(data, k=3, seed=5)
        b = kmeans(data, k=3, seed=5)
        assert np.array_equal(a.labels, b.labels)


class TestSummary:
    def test_summarize_basic(self):
        summary = summarize(range(1, 101))
        assert summary.count == 100
        assert summary.median == pytest.approx(50.5)
        assert summary.q1 < summary.median < summary.q3
        assert summary.iqr() == pytest.approx(summary.q3 - summary.q1)

    def test_summarize_to_dict_order(self):
        summary = summarize([1.0, 2.0, 3.0]).to_dict()
        assert list(summary)[:3] == ["count", "mean", "std"]

    def test_summarize_requires_values(self):
        with pytest.raises(ValidationError):
            summarize([])
