"""Binned time-series containers.

:class:`TimeSeries` holds one feature's per-bin counts for one host;
:class:`FeatureMatrix` holds all six features for one host over the same bin
grid.  Both support slicing by week (the paper's train-one-week /
test-the-next protocol).  :class:`PopulationFrame` is a whole population's
matrices over one read-only ``(hosts, features, bins)`` block.

Every kernel reads a population through :func:`population_block`: one
feature over a week window as one ``(hosts, bins)`` block, a view of a
frame or a stack of any other mapping's rows.  A population is one bin grid
(:func:`shared_grid`), as every population the workload generates is.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.features.definitions import Feature
from repro.utils.timeutils import BinSpec, WEEK
from repro.utils.validation import ValidationError, require


class TimeSeries:
    """A fixed-width binned count series for one feature on one host."""

    def __init__(self, values: Sequence[float], bin_spec: BinSpec) -> None:
        self._values = np.asarray(values, dtype=float)
        require(self._values.ndim == 1, "values must be one-dimensional")
        require(np.all(self._values >= 0), "bin counts must be non-negative")
        self._bin_spec = bin_spec

    # ----------------------------------------------------------------- basic
    @property
    def values(self) -> np.ndarray:
        """The per-bin counts (read-only view)."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    @property
    def bin_spec(self) -> BinSpec:
        """The binning specification."""
        return self._bin_spec

    @property
    def bin_width(self) -> float:
        """Bin width in seconds."""
        return self._bin_spec.width

    @property
    def num_bins(self) -> int:
        """Number of bins in the series."""
        return int(self._values.size)

    @property
    def duration(self) -> float:
        """Total time covered by the series in seconds."""
        return self.num_bins * self.bin_width

    def __len__(self) -> int:
        return self.num_bins

    def __iter__(self) -> Iterator[float]:
        return iter(self._values.tolist())

    def __getitem__(self, index):
        result = self._values[index]
        if isinstance(index, slice):
            return TimeSeries(result, self._bin_spec)
        return float(result)

    @classmethod
    def _wrap(cls, values: np.ndarray, bin_spec: BinSpec) -> "TimeSeries":
        """Wrap an already-validated values array without re-checking it.

        Only for internal use on slices/views of a validated series: a
        contiguous slice of non-negative one-dimensional counts is itself
        valid, and re-validating on every week slice dominates the hot
        evaluation paths.
        """
        series = cls.__new__(cls)
        series._values = values
        series._bin_spec = bin_spec
        return series

    # ------------------------------------------------------------ operations
    def week(self, index: int) -> "TimeSeries":
        """Return the series for week ``index`` (0-based).

        Raises :class:`ValueError` when the requested week lies outside the
        covered span — a silently empty slice would otherwise propagate into
        empty training distributions and nonsense thresholds.
        """
        return self.week_range(index, index + 1)

    def week_range(self, start: int, end: int) -> "TimeSeries":
        """The contiguous sub-series covering weeks ``[start, end)``.

        This is the rolling-training-window slice: ``week_range(2, 4)`` is
        weeks 2 and 3 back to back.  Out-of-range windows raise a
        :class:`ValueError` naming the available range.
        """
        first, last = _week_bounds(self._bin_spec, self.num_bins, start, end)
        return TimeSeries._wrap(self._values[first:last], self._bin_spec)

    def num_weeks(self) -> int:
        """Number of whole weeks covered by the series."""
        return int(self.duration // WEEK)

    def add(self, other: "TimeSeries") -> "TimeSeries":
        """Element-wise sum with another series on the same bin grid.

        Series of different lengths are summed over the overlapping prefix and
        the longer tail is preserved — this is how attack traffic is overlaid
        on benign traffic (the paper's additive attack model).
        """
        require(abs(self.bin_width - other.bin_width) < 1e-9, "bin widths must match to add series")
        length = max(self.num_bins, other.num_bins)
        combined = np.zeros(length)
        combined[: self.num_bins] += self._values
        combined[: other.num_bins] += other._values
        return TimeSeries(combined, self._bin_spec)

    # --------------------------------------------------------------- queries
    def total(self) -> float:
        """Sum over all bins."""
        return float(np.sum(self._values))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"TimeSeries(bins={self.num_bins}, width={self.bin_width:.0f}s)"


def _week_bounds(bin_spec: BinSpec, num_bins: int, start: int, end: int) -> Tuple[int, int]:
    """The ``[first, last)`` bins of weeks ``[start, end)`` on a ``num_bins``-bin grid.

    Raises :class:`ValueError` naming the available range unless the grid
    covers the whole window.
    """
    require(start >= 0, "week index must be non-negative")
    require(end > start, "week range must cover at least one week")
    first = max(bin_spec.index_of(start * WEEK), 0)
    last = min(bin_spec.index_of(end * WEEK - 1e-9) + 1, num_bins)
    available = num_bins * bin_spec.width / WEEK
    last_week = max(int(np.ceil(available)) - 1, 0)
    # A window whose end runs past the covered span would otherwise come
    # back silently truncated (or empty) — training on fewer weeks than
    # the caller asked for.
    if last <= first or end > last_week + 1:
        raise ValueError(
            f"week range [{start}, {end}) is out of range: series covers "
            f"{available:.2f} week(s) (valid week indices are 0..{last_week})"
        )
    return first, last


class FeatureMatrix:
    """All monitored features for one host, on a common bin grid."""

    def __init__(self, host_id: int, series: Mapping[Feature, TimeSeries]) -> None:
        require(len(series) > 0, "FeatureMatrix requires at least one feature series")
        widths = {ts.bin_width for ts in series.values()}
        require(len(widths) == 1, "all feature series must share the same bin width")
        lengths = {ts.num_bins for ts in series.values()}
        require(len(lengths) == 1, "all feature series must share the same length")
        self._host_id = int(host_id)
        self._series: Dict[Feature, TimeSeries] = dict(series)

    @property
    def host_id(self) -> int:
        """Identifier of the host this matrix belongs to."""
        return self._host_id

    @property
    def features(self) -> Tuple[Feature, ...]:
        """The features present, in insertion order."""
        return tuple(self._series.keys())

    @property
    def num_bins(self) -> int:
        """Number of bins in every series."""
        return next(iter(self._series.values())).num_bins

    @property
    def bin_width(self) -> float:
        """Bin width in seconds."""
        return next(iter(self._series.values())).bin_width

    def __contains__(self, feature: Feature) -> bool:
        return feature in self._series

    def series(self, feature: Feature) -> TimeSeries:
        """Return the series for ``feature`` (raises ``KeyError`` if absent)."""
        return self._series[feature]

    def __getitem__(self, feature: Feature) -> TimeSeries:
        return self.series(feature)

    def items(self) -> Iterable[Tuple[Feature, TimeSeries]]:
        """Iterate over (feature, series) pairs."""
        return self._series.items()

    def week(self, index: int) -> "FeatureMatrix":
        """Slice every feature series to week ``index``.

        Raises :class:`ValueError` (naming the available range) when the
        week lies outside the covered span.
        """
        return FeatureMatrix(self._host_id, {f: ts.week(index) for f, ts in self._series.items()})

    def num_weeks(self) -> int:
        """Number of whole weeks covered."""
        return next(iter(self._series.values())).num_weeks()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"FeatureMatrix(host={self._host_id}, features={len(self._series)}, "
            f"bins={self.num_bins})"
        )


class PopulationFrame(Mapping[int, FeatureMatrix]):
    """Every host's :class:`FeatureMatrix` as rows of one read-only block.

    ``array`` is a float64 block of shape ``(num_hosts, num_features,
    num_bins)``: ``array[i, j]`` is the series of ``features[j]`` on
    ``host_ids[i]``, and every host shares ``bin_spec``.  (It is not called
    ``values``, which would shadow :meth:`Mapping.values`.)  As a mapping the
    frame iterates in ``host_ids`` order and ``frame[h]`` is ``h``'s
    :class:`FeatureMatrix`, whose series are rows of ``array`` (not copies),
    so it serves every reader of a population's matrices.  A host's matrix
    is built on its first ``frame[h]`` and kept, so ``frame[h] is frame[h]``;
    the block kernels never build one.  :meth:`block` hands the train and
    measure kernels a whole population's bins as one view instead of
    per-host rows to stack.

    A mapped shard is read-only, and so is the frame: the constructor rejects
    a writeable block, and every view of it raises on a write.
    """

    def __init__(
        self,
        host_ids: Sequence[int],
        features: Sequence[Feature],
        bin_spec: BinSpec,
        array: np.ndarray,
    ) -> None:
        self._host_ids = tuple(int(host_id) for host_id in host_ids)
        self._features = tuple(features)
        require(
            isinstance(array, np.ndarray) and array.dtype == np.float64,
            "frame array must be float64",
        )
        require(not array.flags.writeable, "frame array must be read-only")
        require(
            array.ndim == 3 and array.shape[:2] == (len(self._host_ids), len(self._features)),
            "frame array must be shaped (num_hosts, num_features, num_bins)",
        )
        self._columns = {feature: column for column, feature in enumerate(self._features)}
        require(len(self._columns) == len(self._features), "frame features must be distinct")
        self._bin_spec = bin_spec
        self._array = array
        self._rows = {host_id: row for row, host_id in enumerate(self._host_ids)}
        require(len(self._rows) == len(self._host_ids), "frame host ids must be distinct")
        self._matrices: Dict[int, FeatureMatrix] = {}

    @property
    def host_ids(self) -> Tuple[int, ...]:
        """Hosts in row order (the mapping's iteration order)."""
        return self._host_ids

    @property
    def features(self) -> Tuple[Feature, ...]:
        """Features in column order."""
        return self._features

    @property
    def bin_spec(self) -> BinSpec:
        """The bin grid every host shares."""
        return self._bin_spec

    @property
    def array(self) -> np.ndarray:
        """The read-only ``(num_hosts, num_features, num_bins)`` block."""
        return self._array

    def block(self, feature: Feature, first: int, last: int) -> np.ndarray:
        """Bins ``[first, last)`` of ``feature``, one row per host: a view of :attr:`array`."""
        return self._array[:, self._columns[feature], first:last]

    def __getitem__(self, host_id: int) -> FeatureMatrix:
        matrix = self._matrices.get(host_id)
        if matrix is None:
            row = self._rows[host_id]
            # The block was validated when its series were built, so rows
            # are wrapped without a pass over their bins.
            series = {
                feature: TimeSeries._wrap(self._array[row, column], self._bin_spec)
                for column, feature in enumerate(self._features)
            }
            matrix = self._matrices[host_id] = FeatureMatrix(host_id, series)
        return matrix

    def __contains__(self, host_id: object) -> bool:
        return host_id in self._rows

    def __iter__(self) -> Iterator[int]:
        return iter(self._host_ids)

    def __len__(self) -> int:
        return len(self._host_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        hosts, features, bins = self._array.shape
        return f"PopulationFrame(hosts={hosts}, features={features}, bins={bins})"


def shared_grid(matrices: Mapping[int, FeatureMatrix], feature: Feature) -> Tuple[int, BinSpec]:
    """The ``(num_bins, bin_spec)`` grid every host's ``feature`` series is on.

    A :class:`PopulationFrame` is one grid by construction.  Any other
    mapping is checked host by host: series of another length or another
    :class:`BinSpec` (origin included) raise :class:`ValidationError`.
    """
    if isinstance(matrices, PopulationFrame):
        return matrices.array.shape[2], matrices.bin_spec
    require(len(matrices) > 0, "matrices must cover at least one host")
    series = [matrix.series(feature) for matrix in matrices.values()]
    # Plain tuples: hashing a BinSpec costs more than the rest of the check.
    grids = {(s._values.size, s._bin_spec.width, s._bin_spec.origin) for s in series}
    if len(grids) > 1:
        raise ValidationError(
            "every host must share one bin grid (series length and bin spec); "
            f"{feature.value} comes on {len(grids)} grids"
        )
    return series[0].num_bins, series[0].bin_spec


def population_block(
    matrices: Mapping[int, FeatureMatrix],
    feature: Feature,
    weeks: Optional[Tuple[int, int]] = None,
) -> np.ndarray:
    """``feature`` over ``weeks`` ``[start, end)`` (every bin when None), one row per host.

    The one way a kernel reads a population: rows follow ``matrices`` order,
    on the one grid :func:`shared_grid` checks.  A :class:`PopulationFrame`
    hands out a read-only view of its block; any other mapping's rows are
    stacked into a new array.  A window the grid does not cover raises
    :class:`ValueError`, as :meth:`TimeSeries.week_range` does.
    """
    num_bins, bin_spec = shared_grid(matrices, feature)
    first, last = (0, num_bins) if weeks is None else _week_bounds(bin_spec, num_bins, *weeks)
    if isinstance(matrices, PopulationFrame):
        return matrices.block(feature, first, last)
    return np.stack([matrix.series(feature)._values[first:last] for matrix in matrices.values()])
