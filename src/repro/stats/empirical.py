"""Empirical distributions.

The paper's percentile-based threshold heuristic works directly on the
empirical distribution of per-bin feature counts observed on a host (or a
group of hosts).  :class:`EmpiricalDistribution` is the central object: it
stores the samples, exposes percentiles, the ECDF, exceedance probabilities
(used for false-positive/false-negative computations) and supports pooling
distributions across hosts (used by the homogeneous and partial-diversity
policies).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.utils.validation import ValidationError, require, require_probability


def ecdf(samples: Sequence[float], value: float) -> float:
    """Return the empirical CDF ``P(X <= value)`` of ``samples`` at ``value``."""
    data = np.asarray(samples, dtype=float)
    require(data.size > 0, "ecdf requires at least one sample")
    return float(np.count_nonzero(data <= value)) / data.size


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


def _sorted_percentiles(sorted_samples: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """The kernel for an array of ``q``, in the shape ``np.percentile`` returns."""
    last = sorted_samples.size - 1
    virtual = last * (qs / 100.0)
    below = np.floor(virtual).astype(np.intp)
    a = sorted_samples[below]
    b = sorted_samples[np.minimum(below + 1, last)]
    gamma = virtual - below
    lerp = np.where(gamma >= 0.5, b - (b - a) * (1.0 - gamma), a + (b - a) * gamma)
    return np.where(virtual >= last, sorted_samples[last], lerp)[()]


class EmpiricalDistribution:
    """An empirical distribution built from observed samples.

    The samples are kept sorted, so percentiles and quantiles are read by
    index from them rather than recomputed by ``np.percentile``; the values
    are bit-identical (tested) to ``np.percentile``'s default ``'linear'``
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

    def quantile(self, p: float) -> float:
        """Return the ``p``-quantile (``p`` in [0, 1])."""
        require_probability(p, "p")
        return self.percentile(100.0 * p)

    def cdf(self, value: float) -> float:
        """Return ``P(X <= value)``."""
        self._require_samples()
        return float(np.searchsorted(self._sorted, value, side="right")) / self._sorted.size

    def exceedance(self, value: float) -> float:
        """Return ``P(X > value)`` — the false-positive rate at threshold ``value``."""
        return 1.0 - self.cdf(value)

    def cdfs(self, values) -> np.ndarray:
        """Vectorised :meth:`cdf`: ``P(X <= v)`` for an array of values."""
        self._require_samples()
        counts = np.searchsorted(self._sorted, np.asarray(values, dtype=float), side="right")
        return counts.astype(float) / self._sorted.size

    def exceedances(self, values) -> np.ndarray:
        """Vectorised :meth:`exceedance`: ``P(X > v)`` for an array of values."""
        return 1.0 - self.cdfs(values)

    def percentiles(self, qs) -> np.ndarray:
        """Vectorised :meth:`percentile` for an array of ``q`` values in [0, 100]."""
        values = np.asarray(qs, dtype=float)
        require(bool(np.all((values >= 0.0) & (values <= 100.0))), "percentile q must be in [0, 100]")
        self._require_samples()
        return _sorted_percentiles(self._sorted, values)

    def shifted_exceedance(self, threshold: float, shift: float) -> float:
        """Return ``P(X + shift > threshold)``.

        Used to compute detection probabilities when an attacker adds
        ``shift`` units of traffic on top of the benign feature value.
        """
        return self.exceedance(threshold - shift)

    def largest_hidden_shift(self, threshold: float, evasion_probability: float) -> float:
        """Largest additive shift ``b`` with ``P(X + b < threshold) >= evasion_probability``.

        This implements the resourceful (mimicry) attacker from the paper: the
        attacker knows the benign distribution and chooses the largest
        injection that still evades detection with the requested probability.
        Returns 0.0 if even ``b = 0`` cannot achieve the target (i.e. the
        benign traffic alone exceeds the threshold too often).
        """
        require_probability(evasion_probability, "evasion_probability")
        self._require_samples()
        # P(X + b < T) >= p  <=>  b <= T - quantile_p(X) (strictly, using the
        # p-quantile of X). Use the empirical p-quantile.
        room = threshold - self.quantile(evasion_probability)
        return max(0.0, float(room))

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
