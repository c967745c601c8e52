"""Dynamic (leader) clustering, ADMIT-style (Sequeira & Zaki 2002) —
Table 1, row 6.

Items arrive sequentially; each joins the nearest existing cluster if it is
within the dynamic radius, otherwise it founds a new cluster.  Clusters
holding less than a support fraction of the data are anomalous; the score
combines distance to the nearest *large* cluster with the smallness of the
item's own cluster.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..base import DataShape, Family, VectorDetector

__all__ = ["DynamicClusteringDetector"]


class _Cluster:
    __slots__ = ("centroid", "count")

    def __init__(self, point: np.ndarray) -> None:
        self.centroid = point.astype(np.float64).copy()
        self.count = 1

    def absorb(self, point: np.ndarray) -> None:
        self.count += 1
        self.centroid += (point - self.centroid) / self.count


class DynamicClusteringDetector(VectorDetector):
    """Sequential leader clustering with dynamic cluster creation."""

    name = "dynamic-clustering"
    family = Family.DISCRIMINATIVE
    supports = frozenset({DataShape.SUBSEQUENCES, DataShape.SERIES})
    citation = "Sequeira & Zaki 2002 [37]"

    def __init__(self, radius: float | None = None,
                 min_cluster_fraction: float = 0.1) -> None:
        super().__init__()
        if not 0 < min_cluster_fraction < 1:
            raise ValueError("min_cluster_fraction must be in (0, 1)")
        self.radius = radius
        self.min_cluster_fraction = min_cluster_fraction

    @staticmethod
    def _auto_radius(X: np.ndarray, rng: np.random.Generator) -> float:
        """Median pairwise distance of a sample, halved — a scale-free default."""
        n = X.shape[0]
        sample = X[rng.choice(n, size=min(n, 200), replace=False)]
        diffs = sample[:, None, :] - sample[None, :, :]
        dists = np.sqrt((diffs * diffs).sum(axis=2))
        upper = dists[np.triu_indices(len(sample), k=1)]
        med = float(np.median(upper)) if upper.size else 1.0
        return med / 2.0 if med > 0 else 1.0

    def _fit_matrix(self, X: np.ndarray) -> None:
        rng = np.random.default_rng(0)
        self._radius = self.radius if self.radius is not None else self._auto_radius(X, rng)
        clusters: List[_Cluster] = []
        for row in X:
            if clusters:
                dists = np.array(
                    [np.linalg.norm(row - c.centroid) for c in clusters]
                )
                j = int(dists.argmin())
                if dists[j] <= self._radius:
                    clusters[j].absorb(row)
                    continue
            clusters.append(_Cluster(row))
        self._clusters = clusters
        total = sum(c.count for c in clusters)
        self._large = [
            c for c in clusters if c.count >= self.min_cluster_fraction * total
        ]
        if not self._large:  # degenerate: everything is its own cluster
            self._large = sorted(clusters, key=lambda c: -c.count)[:1]

    def _score_matrix(self, X: np.ndarray) -> np.ndarray:
        large_centroids = np.vstack([c.centroid for c in self._large])
        diffs = X[:, None, :] - large_centroids[None, :, :]
        dists = np.sqrt((diffs * diffs).sum(axis=2)).min(axis=1)
        scale = self._radius if self._radius > 0 else 1.0
        return dists / scale

    def _batch_score_windows(self, windows: np.ndarray) -> np.ndarray:
        # The leader pass is order-dependent by construction, so the fit
        # stays the scalar loop per series (including its seeded radius
        # sampling); the centroid-distance scoring is batched.
        n_series, n_windows, width = windows.shape
        centroid_sets = []
        scales = np.empty(n_series)
        for i in range(n_series):
            self._fit_matrix(windows[i])
            centroid_sets.append(np.vstack([c.centroid for c in self._large]))
            scales[i] = self._radius if self._radius > 0 else 1.0
        # pad ragged centroid sets by repeating the first centroid —
        # duplicates cannot change the min distance
        n_cent = max(c.shape[0] for c in centroid_sets)
        padded = np.empty((n_series, n_cent, width))
        for i, cents in enumerate(centroid_sets):
            padded[i, : cents.shape[0]] = cents
            padded[i, cents.shape[0]:] = cents[0]
        diffs = windows[:, :, None, :] - padded[:, None, :, :]
        dists = np.sqrt((diffs * diffs).sum(axis=3)).min(axis=2)
        return dists / scales[:, None]
