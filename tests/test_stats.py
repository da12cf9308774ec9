"""Tests for repro.stats: distributions, percentiles, tails, k-means, summaries."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.evaluation import (
    detection_training_window_distributions,
    series_distributions,
    training_distributions,
)
from repro.features.definitions import PAPER_FEATURES
from repro.features.timeseries import FeatureMatrix, PopulationFrame, TimeSeries
from repro.stats.empirical import (
    _STACKED_CELLS,
    EmpiricalDistribution,
    block_percentiles,
    stacked_percentiles,
)
from repro.stats.kmeans import kmeans, separation_score
from repro.stats.summary import summarize
from repro.stats.tail import orders_of_magnitude, tail_ratio
from repro.utils.timeutils import WEEK, BinSpec
from repro.utils.validation import ValidationError


class TestEmpiricalDistribution:
    def test_percentile_interpolates_between_order_statistics(self):
        dist = EmpiricalDistribution(range(1, 101))
        assert dist.percentile(50) == pytest.approx(50.5)
        assert dist.percentile(99) == pytest.approx(99.01, abs=0.5)

    def test_pooled_combines_samples(self):
        a = EmpiricalDistribution([1, 2, 3])
        b = EmpiricalDistribution([10, 20, 30])
        pooled = EmpiricalDistribution.pooled([a, b])
        assert len(pooled) == 6
        assert pooled.max() == 30

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

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
    def test_percentiles_monotone(self, samples):
        dist = EmpiricalDistribution(samples)
        assert dist.percentile(50) <= dist.percentile(90) <= dist.percentile(99) <= dist.max()


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

def _out_of_range(upper):
    """Arguments outside ``[0, upper]``: below zero, above ``upper``, or NaN."""
    return st.one_of(
        st.floats(max_value=0.0, exclude_max=True),
        st.floats(min_value=upper, exclude_min=True),
        st.just(float("nan")),
    )


#: 1-D ``q`` arrays: the candidate-threshold grid (upper-half quantiles) and
#: arbitrary ones, empty included.
_QS = st.one_of(
    st.integers(0, 60).map(lambda k: 100.0 * np.minimum(np.linspace(0.5, 1.0, k), 1.0)),
    _Q.map(lambda q: np.asarray([q], dtype=float)),
    hnp.arrays(np.float64, st.integers(0, 30), elements=st.floats(0.0, 100.0)),
)


def _numpy_rows(parts, qs) -> np.ndarray:
    """``np.percentile`` of each part at ``qs``, as ``(parts, qs)``."""
    return np.array([np.percentile(part, qs) for part in parts]).reshape(len(parts), len(qs))


class TestPercentileKernel:
    """Percentiles read by index from the sorted samples equal ``np.percentile``, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(_SAMPLES, st.lists(_Q, min_size=1, max_size=20))
    def test_percentile_matches_numpy(self, samples, qs):
        dist = EmpiricalDistribution(samples)
        for q in qs:
            assert dist.percentile(q) == np.percentile(samples, q)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_SAMPLES, min_size=1, max_size=4), _QS)
    def test_stacked_percentiles_match_numpy(self, parts, qs):
        actual = stacked_percentiles([EmpiricalDistribution(part) for part in parts], qs)
        assert np.array_equal(actual, _numpy_rows(parts, qs))

    def test_stacked_percentiles_over_several_passes(self):
        """Mixed lengths, ties and a 201-point grid: blocks of 40 runs, three passes."""
        rng = np.random.default_rng(2009)
        sizes = rng.integers(1, 3000, 100)
        parts = [
            rng.integers(0, 12, size).astype(float) if index % 3 else rng.lognormal(2, 1.5, size)
            for index, size in enumerate(sizes)
        ]
        qs = 100.0 * np.minimum(np.linspace(0.5, 1.0, 201), 1.0)
        assert len(parts) * qs.size > 2 * _STACKED_CELLS
        actual = stacked_percentiles([EmpiricalDistribution(part) for part in parts], qs)
        assert np.array_equal(actual, _numpy_rows(parts, qs))

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
        stacked = stacked_percentiles([pooled, added], qs)
        assert np.array_equal(stacked, _numpy_rows([combined, combined], qs))

    @given(_SAMPLES, _out_of_range(100.0))
    @example(samples=np.array([1.0]), q=-5e-324)
    @settings(max_examples=50, deadline=None)
    def test_out_of_range_q_rejected(self, samples, q):
        dist = EmpiricalDistribution(samples)
        with pytest.raises(ValidationError):
            dist.percentile(q)
        with pytest.raises(ValidationError):
            stacked_percentiles([dist], [50.0, q])

    def test_empty_distribution_rejected(self):
        empty = EmpiricalDistribution()
        full = EmpiricalDistribution([1.0, 2.0])
        for query in (
            lambda: empty.percentile(50),
            lambda: stacked_percentiles([full, empty], [50.0, 99.0]),
            lambda: stacked_percentiles([full], [[50.0, 99.0]]),
        ):
            with pytest.raises(ValidationError):
                query()


#: Eight bins per week keeps generated rows short.
_SHORT_GRID = BinSpec(WEEK / 8)


def _matrices(array: np.ndarray, host_ids, as_frame: bool):
    """``array``'s ``(hosts, features, bins)`` counts as a frame or a dict of matrices."""
    array = np.array(array, dtype=np.float64)
    features = PAPER_FEATURES[: array.shape[1]]
    if not as_frame:
        return {
            host_id: FeatureMatrix(
                host_id,
                {f: TimeSeries(array[row, j], _SHORT_GRID) for j, f in enumerate(features)},
            )
            for row, host_id in enumerate(host_ids)
        }
    array.flags.writeable = False
    return PopulationFrame(host_ids, features, _SHORT_GRID, array)


def _per_row(series: TimeSeries, active_bins_only: bool) -> EmpiricalDistribution:
    """The constructor over one host's window: its positive bins, or every bin if none is."""
    values = np.asarray(series.values)
    if active_bins_only and np.any(values > 0):
        values = values[values > 0]
    return EmpiricalDistribution(values, bin_width=series.bin_width)


@st.composite
def _training_cases(draw):
    """Hosts (in shuffled id order), their counts with zeros, ties and all-zero rows, a window."""
    num_hosts = draw(st.integers(1, 6))
    num_weeks = draw(st.integers(1, 3))
    counts = st.one_of(st.sampled_from([0.0, 0.0, 1.0, 2.0, 2.5]), st.floats(0.0, 1e6))
    array = draw(hnp.arrays(np.float64, (num_hosts, 2, 8 * num_weeks), elements=counts))
    idle = draw(st.lists(st.booleans(), min_size=num_hosts, max_size=num_hosts))
    array[np.array(idle)] = 0.0
    host_ids = draw(st.permutations([10 * host for host in range(num_hosts)]))
    start = draw(st.integers(0, num_weeks - 1))
    end = draw(st.integers(start + 1, num_weeks))
    return host_ids, array, start, end


class TestBlockTraining:
    """The training kernel (one sort per feature-week block) against the per-row constructor."""

    @settings(max_examples=80, deadline=None)
    @given(case=_training_cases(), active_bins_only=st.booleans(), as_frame=st.booleans())
    def test_block_path_matches_per_row_constructor(self, case, active_bins_only, as_frame):
        host_ids, array, start, end = case
        matrices = _matrices(array, host_ids, as_frame)
        features = PAPER_FEATURES[:2]
        trained = detection_training_window_distributions(
            matrices, features, start, end, active_bins_only
        )
        assert list(trained) == list(features)
        for feature, distributions in trained.items():
            assert list(distributions) == list(host_ids)
            if end == start + 1:
                single = training_distributions(matrices, feature, start, active_bins_only)
                assert list(single) == list(host_ids)
            for host_id, actual in distributions.items():
                series = matrices[host_id].series(feature).week_range(start, end)
                expected = _per_row(series, active_bins_only)
                assert actual.samples.dtype == expected.samples.dtype == np.float64
                assert actual.samples.tobytes() == expected.samples.tobytes()
                assert actual.bin_width == expected.bin_width == WEEK / 8
                if end == start + 1:
                    assert single[host_id].samples.tobytes() == expected.samples.tobytes()

    @pytest.mark.parametrize("as_frame", [False, True])
    @pytest.mark.parametrize("active_bins_only", [True, False])
    def test_infinite_bin_raises(self, active_bins_only, as_frame):
        array = np.ones((2, 1, 16))
        array[1, 0, 11] = np.inf
        matrices = _matrices(array, (0, 1), as_frame)
        training_distributions(matrices, PAPER_FEATURES[0], 0, active_bins_only)
        with pytest.raises(ValidationError, match="finite"):
            training_distributions(matrices, PAPER_FEATURES[0], 1, active_bins_only)

    def test_scrambled_hosts_train_in_input_order(self):
        """One grid in scrambled host order: each host trains on its own window, in input order."""
        rng = np.random.default_rng(2009)
        feature = PAPER_FEATURES[0]
        matrices = {
            host_id: FeatureMatrix(
                host_id, {feature: TimeSeries(rng.integers(0, 3, 24).astype(float), _SHORT_GRID)}
            )
            for host_id in (3, 1, 2, 0)
        }
        for active_bins_only in (True, False):
            trained = training_distributions(matrices, feature, 1, active_bins_only)
            assert list(trained) == [3, 1, 2, 0]
            for host_id, actual in trained.items():
                expected = _per_row(matrices[host_id].series(feature).week(1), active_bins_only)
                assert actual.samples.tobytes() == expected.samples.tobytes()

    def test_from_sorted_wraps_without_copying(self):
        row = np.array([0.0, 1.0, 1.0, 4.0])
        with pytest.raises(ValidationError, match="read-only"):
            EmpiricalDistribution.from_sorted(row)
        row.flags.writeable = False
        with pytest.raises(ValidationError, match="bin_width"):
            EmpiricalDistribution.from_sorted(row, bin_width=0.0)
        wrapped = EmpiricalDistribution.from_sorted(row, bin_width=900)
        assert np.shares_memory(wrapped.samples, row)
        assert wrapped.bin_width == 900.0
        assert wrapped.percentile(60) == EmpiricalDistribution(row).percentile(60)
        assert wrapped.add([2.0]).samples.tolist() == [0.0, 1.0, 1.0, 2.0, 4.0]

    @settings(max_examples=40, deadline=None)
    @given(case=_training_cases(), active_bins_only=st.booleans(), as_frame=st.booleans())
    def test_series_distributions_cover_every_bin(self, case, active_bins_only, as_frame):
        host_ids, array, _, _ = case
        matrices = _matrices(array, host_ids, as_frame)
        trained = series_distributions(matrices, PAPER_FEATURES[:2], active_bins_only)
        for feature, distributions in trained.items():
            assert list(distributions) == list(host_ids)
            for host_id, actual in distributions.items():
                expected = _per_row(matrices[host_id].series(feature), active_bins_only)
                assert actual.samples.tobytes() == expected.samples.tobytes()


#: The tails the program reads, the extremes and the median.
_BLOCK_QS = (0.0, 50.0, 90.0, 99.0, 99.9, 100.0)


@st.composite
def _percentile_blocks(draw):
    """A ``(rows, columns)`` block with ties, runs of zeros and all-zero rows; one column at times."""
    rows = draw(st.integers(1, 6))
    columns = draw(st.one_of(st.just(1), st.integers(1, 60)))
    counts = st.one_of(st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.0, 2.5]), st.floats(-1e9, 1e9))
    block = draw(hnp.arrays(np.float64, (rows, columns), elements=counts))
    idle = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    block[np.array(idle)] = 0.0
    run = draw(st.integers(0, columns))
    block[:, :run] = 0.0
    return block


class TestBlockPercentiles:
    """One row-sorted copy read by index equals ``np.percentile(block, qs, axis=1)``, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        block=_percentile_blocks(),
        qs=st.one_of(
            st.sampled_from(_BLOCK_QS),
            st.floats(0.0, 100.0),
            st.just(list(_BLOCK_QS)),
            hnp.arrays(np.float64, st.integers(0, 8), elements=st.floats(0.0, 100.0)),
        ),
        as_frame=st.booleans(),
    )
    def test_matches_numpy_and_leaves_the_input_unchanged(self, block, qs, as_frame):
        if as_frame:
            # A strided view of a read-only frame: features interleave the rows.
            stack = np.stack([np.full_like(block, 7.0), block], axis=1)
            stack.flags.writeable = False
            frame = PopulationFrame(range(len(block)), PAPER_FEATURES[:2], _SHORT_GRID, stack)
            block = frame.block(PAPER_FEATURES[1], 0, block.shape[1])
            assert not block.flags.c_contiguous or block.shape[0] == 1
        before = block.tobytes()
        actual = block_percentiles(block, qs)
        expected = np.percentile(block, qs, axis=1)
        assert actual.shape == expected.shape
        assert actual.tobytes() == expected.tobytes()
        assert block.tobytes() == before

    def test_reads_a_cached_frame_without_writing_it(self):
        rng = np.random.default_rng(2009)
        stack = np.floor(rng.lognormal(1.0, 2.0, (5, 2, 96)))
        stack[:, :, :40] = 0.0
        stack.flags.writeable = False
        frame = PopulationFrame(range(5), PAPER_FEATURES[:2], _SHORT_GRID, stack)
        view = frame.block(PAPER_FEATURES[0], 8, 96)
        actual = block_percentiles(view, list(_BLOCK_QS))
        assert actual.tobytes() == np.percentile(view, _BLOCK_QS, axis=1).tobytes()
        assert not np.shares_memory(actual, stack)

    @pytest.mark.parametrize(
        "block, qs",
        [
            (np.array([[1.0, np.nan]]), 50.0),
            (np.array([[1.0, np.inf]]), 50.0),
            (np.array([[-np.inf, 1.0]]), 50.0),
            (np.ones((2, 0)), 50.0),
            (np.ones(3), 50.0),
            (np.ones((2, 3)), 100.5),
            (np.ones((2, 3)), [50.0, -1.0]),
            (np.ones((2, 3)), [[50.0]]),
        ],
    )
    def test_rejects_what_it_cannot_read(self, block, qs):
        with pytest.raises(ValidationError):
            block_percentiles(block, qs)


class TestTailAnalysis:
    def test_tail_ratio_and_orders(self):
        thresholds = [1.0, 10.0, 1000.0]
        assert tail_ratio(thresholds) == pytest.approx(1000.0)
        assert orders_of_magnitude(thresholds) == pytest.approx(3.0)


class TestKMeans:
    def test_separates_well_separated_clusters(self):
        points = np.concatenate([np.full(20, 0.0), np.full(20, 100.0)]).reshape(-1, 1)
        result = kmeans(points, k=2, seed=1)
        assert result.k == 2
        sizes = sorted(np.bincount(result.labels, minlength=result.k))
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
