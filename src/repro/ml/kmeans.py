"""K-means clustering with k-means++ initialization (Lloyd's algorithm).

The workhorse underneath :class:`repro.ml.xmeans.XMeans`. Distances are
Euclidean, matching the paper's cluster-analysis setup (section 7.1).
"""

from __future__ import annotations

import numpy as np

from repro.errors import NotFittedError
from repro.scatter import segment_scatter_add


def cluster_sums(
    data: np.ndarray, labels: np.ndarray, n_clusters: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster feature sums and member counts in one scatter pass.

    Replaces the per-cluster ``data[labels == c].sum()`` loop (k boolean
    scans over n samples) with a single compiled scatter plus a
    ``bincount`` — O(n·d) total regardless of k. The scatter adds in
    ``np.add.at``'s order, so the sums match it bit for bit. Shared by
    the k-means Lloyd update and the X-Means split loop.
    """
    sums = np.zeros((n_clusters, data.shape[1]), dtype=np.float64)
    segment_scatter_add(sums, labels, np.asarray(data, dtype=np.float64))
    counts = np.bincount(labels, minlength=n_clusters)
    return sums, counts


def cluster_means(
    data: np.ndarray, labels: np.ndarray, n_clusters: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster centroids and counts; empty clusters get zero rows."""
    sums, counts = cluster_sums(data, labels, n_clusters)
    means = np.zeros_like(sums)
    occupied = counts > 0
    means[occupied] = sums[occupied] / counts[occupied, None]
    return means, counts


def _kmeans_plus_plus(
    data: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centers by D^2 sampling."""
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]))
    first = int(rng.integers(n))
    centers[0] = data[first]
    closest_sq = np.sum((data - centers[0]) ** 2, axis=1)
    for center_index in range(1, k):
        total = closest_sq.sum()
        if total <= 1e-18:
            # All remaining points coincide with a center; pick randomly.
            pick = int(rng.integers(n))
        else:
            draw = rng.uniform(0.0, total)
            pick = int(np.searchsorted(np.cumsum(closest_sq), draw))
            pick = min(pick, n - 1)
        centers[center_index] = data[pick]
        distance_sq = np.sum((data - centers[center_index]) ** 2, axis=1)
        closest_sq = np.minimum(closest_sq, distance_sq)
    return centers


class KMeans:
    """Lloyd's algorithm with k-means++ init and restart support.

    Attributes (after fit):
        cluster_centers_: (k x d) centers.
        labels_: per-sample cluster assignment.
        inertia_: sum of squared distances to assigned centers.
    """

    def __init__(
        self,
        n_clusters: int,
        max_iterations: int = 300,
        tolerance: float = 1e-6,
        n_init: int = 4,
        seed: int = 0,
    ) -> None:
        if n_clusters < 1:
            raise ValueError("n_clusters must be at least 1")
        if n_init < 1:
            raise ValueError("n_init must be at least 1")
        self.n_clusters = n_clusters
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.n_init = n_init
        self.seed = seed
        self.cluster_centers_: np.ndarray | None = None
        self.labels_: np.ndarray | None = None
        self.inertia_: float | None = None

    def _single_run(
        self, data: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, float]:
        centers = _kmeans_plus_plus(data, self.n_clusters, rng)
        labels = np.zeros(data.shape[0], dtype=int)
        for __ in range(self.max_iterations):
            distances = (
                np.sum(data**2, axis=1)[:, None]
                - 2.0 * data @ centers.T
                + np.sum(centers**2, axis=1)[None, :]
            )
            labels = np.argmin(distances, axis=1)
            new_centers = centers.copy()
            means, counts = cluster_means(data, labels, self.n_clusters)
            occupied = counts > 0
            new_centers[occupied] = means[occupied]
            if not occupied.all():
                # Re-seed empty clusters at the farthest point.
                farthest = int(np.argmax(np.min(distances, axis=1)))
                new_centers[~occupied] = data[farthest]
            shift = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
            centers = new_centers
            if shift < self.tolerance:
                break
        distances = np.sum((data - centers[labels]) ** 2, axis=1)
        return centers, labels, float(distances.sum())

    def fit(self, data: np.ndarray) -> "KMeans":
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("data must be a 2-D array")
        if data.shape[0] < self.n_clusters:
            raise ValueError(
                f"{data.shape[0]} samples cannot form {self.n_clusters} clusters"
            )
        rng = np.random.default_rng(self.seed)
        best: tuple[np.ndarray, np.ndarray, float] | None = None
        for __ in range(self.n_init):
            centers, labels, inertia = self._single_run(data, rng)
            if best is None or inertia < best[2]:
                best = (centers, labels, inertia)
        assert best is not None
        self.cluster_centers_, self.labels_, self.inertia_ = best
        return self

    def predict(self, data: np.ndarray) -> np.ndarray:
        if self.cluster_centers_ is None:
            raise NotFittedError("KMeans")
        data = np.asarray(data, dtype=np.float64)
        distances = (
            np.sum(data**2, axis=1)[:, None]
            - 2.0 * data @ self.cluster_centers_.T
            + np.sum(self.cluster_centers_**2, axis=1)[None, :]
        )
        return np.argmin(distances, axis=1)

    def fit_predict(self, data: np.ndarray) -> np.ndarray:
        self.fit(data)
        assert self.labels_ is not None
        return self.labels_
