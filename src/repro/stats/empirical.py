"""Empirical distributions.

The paper's percentile-based threshold heuristic works directly on the
empirical distribution of per-bin feature counts observed on a host (or a
group of hosts).  :class:`EmpiricalDistribution` is the central object: it
stores the samples sorted, exposes percentiles and supports pooling
distributions across hosts (used by the homogeneous and partial-diversity
policies).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.utils.validation import ValidationError, require


def _sample_array(samples: Iterable[float]) -> np.ndarray:
    """``samples`` as a float array: an ndarray converts directly, other iterables via a list.

    The result may share memory with an ndarray input, so callers keep only a
    sorted or concatenated copy of it.
    """
    if isinstance(samples, np.ndarray):
        return np.asarray(samples, dtype=float)
    return np.asarray(list(samples), dtype=float)


# numpy's default ('linear') percentile, read by index from samples that are
# already sorted ascending and finite.  The virtual index ``(n - 1) * q / 100``
# falls between two order statistics ``a <= b`` that are interpolated with
# numpy's two-sided lerp, so the result is bit-identical to
# ``np.percentile(sorted_samples, q)`` without its validation and partition.
def _sorted_percentile(sorted_samples: np.ndarray, q: float) -> float:
    """The kernel for one ``q``, in plain floats."""
    last = sorted_samples.size - 1
    virtual = last * (float(q) / 100.0)
    if virtual >= last:
        return sorted_samples.item(last)
    below = int(virtual)  # floor: q is never negative
    a = sorted_samples.item(below)
    b = sorted_samples.item(below + 1)
    gamma = virtual - below
    if gamma >= 0.5:
        return b - (b - a) * (1.0 - gamma)
    return a + (b - a) * gamma


def _sorted_percentiles(
    flat: np.ndarray, qs: np.ndarray, first: np.ndarray, last: np.ndarray
) -> np.ndarray:
    """The kernel for a 1-D array of ``q`` over sorted runs, one run per row.

    ``flat`` holds the runs back to back; the index columns ``first`` and
    ``last`` give each run's start and its last index within the run.  Row
    ``i`` is ``np.percentile`` of run ``i`` at ``qs``, in one pass.
    """
    virtual = last * (qs / 100.0)
    below = np.floor(virtual).astype(np.intp)
    a = flat[first + below]
    b = flat[first + np.minimum(below + 1, last)]
    gamma = virtual - below
    lerp = np.where(gamma >= 0.5, b - (b - a) * (1.0 - gamma), a + (b - a) * gamma)
    return np.where(virtual >= last, flat[first + last], lerp)


class EmpiricalDistribution:
    """An empirical distribution built from observed samples.

    The samples are kept sorted, so percentiles are read by index from them
    rather than recomputed by ``np.percentile``; the values are
    bit-identical (tested) to ``np.percentile``'s default ``'linear'``
    method.

    Parameters
    ----------
    samples:
        Observed values (per-bin feature counts).  May be empty only if
        ``allow_empty`` is true, in which case every query raises until
        samples are added.
    bin_width:
        Optional provenance: the bin width (seconds) the per-bin counts were
        measured over.  Counts observed over different bin widths are not
        comparable, so pooling distributions with conflicting known widths is
        rejected (see :meth:`pooled`).  ``None`` means "unknown" and is
        compatible with everything.
    """

    def __init__(
        self,
        samples: Optional[Iterable[float]] = None,
        allow_empty: bool = True,
        bin_width: Optional[float] = None,
    ) -> None:
        values = _sample_array(samples if samples is not None else ())
        if not allow_empty and values.size == 0:
            raise ValidationError("EmpiricalDistribution requires at least one sample")
        if values.size and not np.all(np.isfinite(values)):
            raise ValidationError("samples must be finite")
        if bin_width is not None:
            require(bin_width > 0.0, "bin_width must be positive")
        self._sorted = np.sort(values)
        self._bin_width = None if bin_width is None else float(bin_width)

    @classmethod
    def from_sorted(
        cls, samples: np.ndarray, bin_width: Optional[float] = None
    ) -> "EmpiricalDistribution":
        """Wrap float samples that are already sorted, finite and read-only, without a copy.

        The training kernel sorts a whole population's week in one call and
        hands each host a row of it; the constructor would copy, re-sort and
        re-check every row.  The caller guarantees all three properties; only
        the read-only flag is checked here.  A distribution never writes its
        samples (:meth:`add` and :meth:`pooled` build new arrays), so a
        read-only row can be shared.
        """
        require(not samples.flags.writeable, "presorted samples must be read-only")
        if bin_width is not None:
            require(bin_width > 0.0, "bin_width must be positive")
        distribution = cls.__new__(cls)
        distribution._sorted = samples
        distribution._bin_width = None if bin_width is None else float(bin_width)
        return distribution

    # ------------------------------------------------------------------ basic
    def __len__(self) -> int:
        return int(self._sorted.size)

    @property
    def is_empty(self) -> bool:
        """True when the distribution contains no samples."""
        return self._sorted.size == 0

    @property
    def samples(self) -> np.ndarray:
        """The sorted samples (read-only view)."""
        view = self._sorted.view()
        view.flags.writeable = False
        return view

    @property
    def bin_width(self) -> Optional[float]:
        """Bin width (seconds) the samples were measured over, if known."""
        return self._bin_width

    def _require_samples(self) -> None:
        if self.is_empty:
            raise ValidationError("operation requires a non-empty distribution")

    # ----------------------------------------------------------------- update
    def add(self, values: Iterable[float]) -> "EmpiricalDistribution":
        """Return a new distribution with ``values`` merged in."""
        new_values = _sample_array(values)
        if new_values.size and not np.all(np.isfinite(new_values)):
            raise ValidationError("samples must be finite")
        merged = np.concatenate([self._sorted, new_values])
        return EmpiricalDistribution(merged, bin_width=self._bin_width)

    @classmethod
    def pooled(cls, distributions: Sequence["EmpiricalDistribution"]) -> "EmpiricalDistribution":
        """Pool several distributions into a single global one.

        This is how the homogeneous (monoculture) policy builds its global
        distribution at the central console: all per-host samples are
        collapsed together before percentiles are extracted.  Distributions
        with conflicting known bin widths measure incomparable counts and are
        rejected (see :func:`common_bin_width`).
        """
        require(len(distributions) > 0, "pooled requires at least one distribution")
        if len(distributions) == 1:
            # Nothing to pool: the (immutable) distribution is its own pool.
            return distributions[0]
        width = common_bin_width(distributions)
        arrays: List[np.ndarray] = [dist._sorted for dist in distributions]
        return cls(np.concatenate(arrays) if arrays else [], bin_width=width)

    # ---------------------------------------------------------------- queries
    def min(self) -> float:
        """Smallest observed sample."""
        self._require_samples()
        return float(self._sorted[0])

    def max(self) -> float:
        """Largest observed sample."""
        self._require_samples()
        return float(self._sorted[-1])

    def mean(self) -> float:
        """Sample mean."""
        self._require_samples()
        return float(np.mean(self._sorted))

    def std(self) -> float:
        """Sample standard deviation (population convention, ddof=0)."""
        self._require_samples()
        return float(np.std(self._sorted))

    def percentile(self, q: float) -> float:
        """Return the ``q``-th percentile (``q`` in [0, 100])."""
        require(0.0 <= q <= 100.0, "percentile q must be in [0, 100]")
        self._require_samples()
        return _sorted_percentile(self._sorted, q)

    def summary(self) -> dict:
        """Return a dict of headline statistics for reporting."""
        self._require_samples()
        return {
            "count": len(self),
            "min": self.min(),
            "mean": self.mean(),
            "std": self.std(),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "p999": self.percentile(99.9),
            "max": self.max(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        if self.is_empty:
            return "EmpiricalDistribution(empty)"
        return (
            f"EmpiricalDistribution(n={len(self)}, "
            f"median={self.percentile(50):.3g}, p99={self.percentile(99):.3g})"
        )


#: Most (distribution, q) cells one pass of :func:`stacked_percentiles` holds.
_STACKED_CELLS = 1 << 13


def _percentile_qs(qs) -> np.ndarray:
    """``qs`` as a float array, every entry checked to lie in [0, 100]."""
    values = np.asarray(qs, dtype=float)
    in_range = bool(np.all((values >= 0.0) & (values <= 100.0)))
    require(in_range, "percentile q must be in [0, 100]")
    return values


def stacked_percentiles(distributions: Sequence[EmpiricalDistribution], qs) -> np.ndarray:
    """Every distribution's percentiles at the 1-D ``qs``, as ``(distributions, qs)``.

    Each pass of the index kernel reads the concatenated samples of a block
    of distributions, at most :data:`_STACKED_CELLS` cells; row ``i`` is
    bit-identical to ``np.percentile(distributions[i].samples, qs)``.
    """
    values = _percentile_qs(qs)
    require(values.ndim == 1, "qs must be one-dimensional")
    lengths = np.array([len(distribution) for distribution in distributions], dtype=np.intp)
    require(bool(np.all(lengths)), "operation requires a non-empty distribution")
    result = np.empty((lengths.size, values.size))
    step = max(1, _STACKED_CELLS // max(values.size, 1))
    for start in range(0, lengths.size, step):
        block = lengths[start : start + step]
        flat = np.concatenate([dist._sorted for dist in distributions[start : start + step]])
        first = np.cumsum(block) - block
        result[start : start + step] = _sorted_percentiles(
            flat, values, first[:, None], block[:, None] - 1
        )
    return result


def block_percentiles(block: np.ndarray, qs) -> np.ndarray:
    """Every row's percentiles of a ``(rows, columns)`` block at ``qs``.

    Bit-identical to ``np.percentile(block, qs, axis=1)``, shape included:
    ``(rows,)`` for a scalar ``q``, ``(len(qs), rows)`` for a 1-D ``qs``.
    The block is sorted once into a new array (``np.sort(axis=1)``; a
    read-only frame view is never written) and every percentile is read from
    it by index.  Every value must be finite.
    """
    values = _percentile_qs(qs)
    require(values.ndim <= 1, "qs must be a scalar or one-dimensional")
    array = np.asarray(block, dtype=float)
    require(array.ndim == 2 and array.shape[1] > 0, "block must be 2-D with at least one column")
    ordered = np.sort(array, axis=1)
    # Sorted rows put -inf first and +inf and NaN last.
    if not np.isfinite(ordered[:, [0, -1]]).all():
        raise ValidationError("samples must be finite")
    rows, columns = ordered.shape
    first = np.arange(rows, dtype=np.intp) * columns
    return _sorted_percentiles(ordered.ravel(), values[..., None], first, columns - 1)


def common_bin_width(distributions: Sequence["EmpiricalDistribution"]) -> Optional[float]:
    """The single bin width shared by ``distributions``, or None if unknown.

    A per-bin count over a 60-second bin and one over a 300-second bin measure
    different quantities; pooling them produces a threshold that is wrong for
    every member.  Distributions whose width is unknown (``None``) are
    compatible with anything; two *known* but different widths raise.
    """
    widths = {dist.bin_width for dist in distributions if dist.bin_width is not None}
    if len(widths) > 1:
        raise ValidationError(
            "cannot pool distributions with different bin widths "
            f"({sorted(widths)}); resample to a common bin width first"
        )
    return next(iter(widths)) if widths else None
