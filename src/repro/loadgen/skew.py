"""Skewed selection primitives for realistic, non-uniform load.

Real enterprise traffic is never uniform: a handful of busy hosts carry most
of the monitoring load and a couple of features dominate the alert volume.
The load generator models that with two deterministic selectors:

* :class:`ZipfSelector` ranks items and draws them with probability
  proportional to ``1 / rank^exponent`` — the classic hot-key skew used by
  every serious load generator;
* :class:`HotKeySelector` splits items into an explicit hot pool and a cold
  pool and draws from the hot pool with a configured probability.

Both selectors draw through one :meth:`~_WeightedSelector.sample` from
their own ``weights``, a pure function of their configuration plus the
caller's ``numpy`` generator, so a seeded plan reproduces bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Tuple

import numpy as np

from repro.utils.validation import require


class _WeightedSelector:
    """The draw both selectors share: their ``items`` weighted by ``weights``."""

    def sample(self, count: int, rng: np.random.Generator) -> Tuple[Any, ...]:
        """Draw ``count`` *distinct* items, weighted without replacement."""
        require(
            1 <= count <= len(self.items),
            f"sample size must be in [1, {len(self.items)}], got {count}",
        )
        chosen = rng.choice(len(self.items), size=count, replace=False, p=self.weights)
        return tuple(self.items[int(index)] for index in chosen)


@dataclass(frozen=True)
class ZipfSelector(_WeightedSelector):
    """Draw items with Zipf-ranked probabilities (rank 0 is the hottest).

    Attributes
    ----------
    items:
        The pool, hottest first (rank order is the tuple order).
    exponent:
        Skew strength ``s`` in ``P(rank) ∝ 1 / (rank + 1)^s``; ``0`` is
        uniform, larger values concentrate load on the first items.
    """

    items: Tuple[Any, ...]
    exponent: float = 1.1

    def __post_init__(self) -> None:
        require(len(self.items) >= 1, "ZipfSelector needs at least one item")
        require(self.exponent >= 0.0, "ZipfSelector exponent must be non-negative")

    @cached_property
    def weights(self) -> np.ndarray:
        """Normalised selection probabilities by rank (read-only)."""
        ranks = np.arange(1, len(self.items) + 1, dtype=float)
        raw = ranks ** (-self.exponent)
        weights = raw / raw.sum()
        weights.flags.writeable = False
        return weights


@dataclass(frozen=True)
class HotKeySelector(_WeightedSelector):
    """Draw from an explicit hot pool with a configured probability.

    The first ``hot_count`` items form the hot pool; each draw comes from it
    with probability ``hot_probability`` and uniformly from the cold pool
    otherwise.
    """

    items: Tuple[Any, ...]
    hot_count: int
    hot_probability: float = 0.8

    def __post_init__(self) -> None:
        require(len(self.items) >= 2, "HotKeySelector needs at least two items")
        require(
            1 <= self.hot_count < len(self.items),
            f"hot_count must be in [1, {len(self.items) - 1}], got {self.hot_count}",
        )
        require(
            0.0 <= self.hot_probability <= 1.0,
            "hot_probability must be in [0, 1]",
        )

    @cached_property
    def weights(self) -> np.ndarray:
        """Per-item selection probabilities implied by the pools (read-only)."""
        weights = np.empty(len(self.items), dtype=float)
        weights[: self.hot_count] = self.hot_probability / self.hot_count
        cold = len(self.items) - self.hot_count
        weights[self.hot_count :] = (1.0 - self.hot_probability) / cold
        weights.flags.writeable = False
        return weights
