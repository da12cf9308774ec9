"""A small, dependency-free k-means implementation.

The paper attempted to cluster hosts by their 99th-percentile feature values
with k-means and found no natural clusters (the tails sweep continuously
through the range).  We reproduce that negative result, so we need a k-means
that works without scikit-learn.  This implementation uses k-means++ seeding
and Lloyd iterations and reports inertia and silhouette-style separation so
experiments can show *why* clustering is unhelpful on this data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.utils.validation import require


@dataclass(frozen=True)
class KMeansResult:
    """Result of a k-means run.

    Attributes
    ----------
    centers:
        ``(k, d)`` array of cluster centres.
    labels:
        ``(n,)`` array of cluster assignments.
    inertia:
        Sum of squared distances of points to their assigned centre.
    iterations:
        Number of Lloyd iterations executed.
    """

    centers: np.ndarray
    labels: np.ndarray
    inertia: float
    iterations: int

    @property
    def k(self) -> int:
        """Number of clusters."""
        return int(self.centers.shape[0])


def _kmeans_plus_plus(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ centre initialisation."""
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]), dtype=float)
    first = int(rng.integers(0, n))
    centers[0] = data[first]
    closest_sq = np.sum((data - centers[0]) ** 2, axis=1)
    for index in range(1, k):
        total = float(np.sum(closest_sq))
        if total <= 0:
            # All remaining points coincide with chosen centres; pick randomly.
            centers[index] = data[int(rng.integers(0, n))]
            continue
        probabilities = closest_sq / total
        chosen = int(rng.choice(n, p=probabilities))
        centers[index] = data[chosen]
        distances = np.sum((data - centers[index]) ** 2, axis=1)
        closest_sq = np.minimum(closest_sq, distances)
    return centers


def kmeans(
    points: Sequence[Sequence[float]],
    k: int,
    max_iterations: int = 100,
    tolerance: float = 1e-6,
    seed: int = 0,
    initial_centers: Optional[np.ndarray] = None,
) -> KMeansResult:
    """Run Lloyd's algorithm with k-means++ initialisation.

    Parameters
    ----------
    points:
        ``(n, d)``-shaped data (or a sequence convertible to it).  A 1-D
        sequence is treated as ``(n, 1)``.
    k:
        Number of clusters; must satisfy ``1 <= k <= n``.
    max_iterations, tolerance:
        Lloyd iteration controls.
    seed:
        Seed for the deterministic initialisation.
    initial_centers:
        Optional explicit initial centres (overrides k-means++).
    """
    data = np.asarray(points, dtype=float)
    if data.ndim == 1:
        data = data.reshape(-1, 1)
    require(data.ndim == 2, "points must be 1-D or 2-D")
    n = data.shape[0]
    require(1 <= k <= n, "k must satisfy 1 <= k <= number of points")
    rng = np.random.default_rng(seed)

    if initial_centers is not None:
        centers = np.asarray(initial_centers, dtype=float).copy()
        require(centers.shape == (k, data.shape[1]), "initial_centers has wrong shape")
    else:
        centers = _kmeans_plus_plus(data, k, rng)

    labels = np.zeros(n, dtype=int)
    iterations = 0
    for iterations in range(1, max_iterations + 1):  # noqa: B007  # final count lands in KMeansResult
        distances = np.sum((data[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels = np.argmin(distances, axis=1)
        new_centers = centers.copy()
        for cluster in range(k):
            members = data[labels == cluster]
            if members.size:
                new_centers[cluster] = members.mean(axis=0)
            else:
                # Re-seed empty clusters at the point farthest from its centre.
                farthest = int(np.argmax(np.min(distances, axis=1)))
                new_centers[cluster] = data[farthest]
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        if shift < tolerance:
            break

    distances = np.sum((data[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    labels = np.argmin(distances, axis=1)
    inertia = float(np.sum(np.min(distances, axis=1)))
    return KMeansResult(centers=centers, labels=labels, inertia=inertia, iterations=iterations)


def separation_score(result: KMeansResult, points: Sequence[Sequence[float]]) -> float:
    """A crude cluster-separation score in [0, 1].

    Computes, for each point, ``1 - d_own / d_nearest_other`` (clamped at 0)
    and averages.  Values near 0 mean the clustering is not meaningfully
    separated — which is what the paper observed on the 99th-percentile data.
    """
    data = np.asarray(points, dtype=float)
    if data.ndim == 1:
        data = data.reshape(-1, 1)
    if result.k < 2:
        return 0.0
    distances = np.sqrt(np.sum((data[:, None, :] - result.centers[None, :, :]) ** 2, axis=2))
    own = distances[np.arange(data.shape[0]), result.labels]
    masked = distances.copy()
    masked[np.arange(data.shape[0]), result.labels] = np.inf
    nearest_other = np.min(masked, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(nearest_other > 0, 1.0 - own / nearest_other, 0.0)
    return float(np.mean(np.clip(ratios, 0.0, 1.0)))
