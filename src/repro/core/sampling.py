"""Sampled evaluation: seeded host subsamples and bootstrap intervals.

At million-host scale the per-host evaluation loop cannot visit every host;
the scalable alternative is the classic survey estimator: evaluate a seeded
uniform subsample of hosts, report the fused-utility *point estimate* over
the sample, and quantify the sampling error with a percentile-bootstrap
confidence interval over the per-host utilities.  Everything here is a pure
function of its seeds, so sampled outcomes reproduce bit for bit.

:class:`SampleSpec` is the single configuration surface: it rides on
:class:`~repro.sweeps.spec.EvaluationSpec` (sweepable as
``evaluation.sample.*`` axes), flows into
:func:`~repro.core.experiment.evaluate_scenario`, and its results land in
the sampled-evaluation fields of
:class:`~repro.core.experiment.ScenarioOutcome` (result schema v5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.utils.records import parse, plain
from repro.utils.validation import require

#: Bootstrap resample count used when a spec does not override it.
DEFAULT_BOOTSTRAP = 200

#: Two-sided confidence level used when a spec does not override it.
DEFAULT_CONFIDENCE = 0.95


@dataclass(frozen=True)
class SampleSpec:
    """How (and whether) a scenario evaluates a host subsample.

    ``size = 0`` (the default) disables sampling: the scenario evaluates the
    full population exactly as before, and no interval is computed.  A
    positive ``size`` evaluates that many hosts, drawn uniformly without
    replacement by a generator seeded with ``seed`` — the same spec always
    draws the same hosts.  ``bootstrap`` and ``confidence`` parameterise the
    percentile-bootstrap interval reported alongside the point estimate.

    A ``size`` at or above the population size degenerates to the full
    population (every host is "sampled") while still reporting the bootstrap
    interval — which is how the coverage property in ``tests/test_sampling.py``
    cross-checks the estimator against the exhaustive evaluation.
    """

    size: int = 0
    seed: int = 0
    bootstrap: int = DEFAULT_BOOTSTRAP
    confidence: float = DEFAULT_CONFIDENCE

    def __post_init__(self) -> None:
        require(self.size >= 0, "evaluation.sample.size must be non-negative")
        require(self.bootstrap >= 1, "evaluation.sample.bootstrap must be >= 1")
        require(
            0.0 < self.confidence < 1.0,
            "evaluation.sample.confidence must be in (0, 1)",
        )

    @property
    def enabled(self) -> bool:
        """Whether this spec actually samples (``size > 0``)."""
        return self.size > 0

    to_dict = plain

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SampleSpec":
        spec = parse(cls, data, "evaluation.sample")
        # Normalise the disabled spec back to the defaults: a scenario that
        # does not sample must hash identically however its inert sampling
        # knobs are spelled (mirrors OptimizerSpec/ScheduleSpec.from_dict).
        if spec.size == 0:
            spec = cls()
        return spec


def sample_host_ids(host_ids: Iterable[int], size: int, seed: int) -> List[int]:
    """A seeded uniform subsample of ``size`` host ids, in ascending order.

    Drawn without replacement; a ``size`` at or above the population returns
    every host.  Ascending order keeps downstream shard access sequential
    (see :meth:`~repro.engine.sharded.ShardedPopulation.matrices_for`).
    """
    require(size >= 1, "sample size must be >= 1")
    ids = np.fromiter((int(host_id) for host_id in host_ids), dtype=np.int64)
    if size >= ids.size:
        return [int(host_id) for host_id in np.sort(ids)]
    rng = np.random.default_rng(seed)
    chosen = rng.choice(ids, size=size, replace=False)
    return [int(host_id) for host_id in np.sort(chosen)]


def bootstrap_mean_interval(
    values: Sequence[float], bootstrap: int, confidence: float, seed: int
) -> Tuple[float, float]:
    """Percentile-bootstrap confidence interval for the mean of ``values``.

    Resamples ``values`` with replacement ``bootstrap`` times (one seeded
    generator for the whole batch), takes each resample's mean, and returns
    the two-sided ``confidence`` percentile interval of those means.
    """
    require(len(values) >= 1, "bootstrap needs at least one value")
    require(bootstrap >= 1, "bootstrap count must be >= 1")
    require(0.0 < confidence < 1.0, "confidence must be in (0, 1)")
    sample = np.asarray(values, dtype=float)
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, sample.size, size=(bootstrap, sample.size))
    means = sample[indices].mean(axis=1)
    tail = 100.0 * (1.0 - confidence) / 2.0
    return (
        float(np.percentile(means, tail)),
        float(np.percentile(means, 100.0 - tail)),
    )


__all__ = [
    "DEFAULT_BOOTSTRAP",
    "DEFAULT_CONFIDENCE",
    "SampleSpec",
    "bootstrap_mean_interval",
    "sample_host_ids",
]
