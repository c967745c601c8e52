"""Baseline and related-work detectors.

These are not Table-1 rows; they are the comparison points the related-work
section discusses (kNN distance outliers of Angiulli & Pizzuti, LOF,
reverse-kNN hubness of Radovanović et al., PCA leverage of Mejia et al.)
plus trivial statistical baselines the benchmarks calibrate against.
"""

from __future__ import annotations

import numpy as np

from ._math import (
    batch_kth_neighbor_dists,
    batch_neighbor_indices,
    batch_pairwise_sq_dists,
    batch_robust_scale,
    kth_neighbor_dists,
    neighbor_indices,
    pairwise_sq_dists,
)
from .base import DataShape, Family, VectorDetector

__all__ = [
    "ZScoreDetector",
    "MADDetector",
    "KNNDetector",
    "LOFDetector",
    "ReverseKNNDetector",
    "PCALeverageDetector",
    "RandomDetector",
]

_ALL_SHAPES = frozenset(
    {DataShape.POINTS, DataShape.SUBSEQUENCES, DataShape.SERIES}
)


class ZScoreDetector(VectorDetector):
    """Largest per-feature standard score; the simplest point detector."""

    name = "zscore"
    family = Family.BASELINE
    supports = _ALL_SHAPES
    citation = "classical"

    def _fit_matrix(self, X: np.ndarray) -> None:
        self._mean = X.mean(axis=0)
        self._std = X.std(axis=0)
        floor = 1e-9 * np.maximum(1.0, np.abs(self._mean))
        self._std[self._std <= floor] = 1.0

    def _score_matrix(self, X: np.ndarray) -> np.ndarray:
        z = np.abs((X - self._mean) / self._std)
        return z.max(axis=1)

    def _batch_score_windows(self, windows: np.ndarray) -> np.ndarray:
        mean = windows.mean(axis=1)
        std = windows.std(axis=1)
        floor = 1e-9 * np.maximum(1.0, np.abs(mean))
        std = np.where(std <= floor, 1.0, std)
        z = np.abs((windows - mean[:, None, :]) / std[:, None, :])
        return z.max(axis=2)


class MADDetector(VectorDetector):
    """Robust z-score using median / MAD, immune to outlier-inflated scale."""

    name = "mad"
    family = Family.BASELINE
    supports = _ALL_SHAPES
    citation = "classical"

    def _fit_matrix(self, X: np.ndarray) -> None:
        self._median = np.median(X, axis=0)
        mad = np.median(np.abs(X - self._median), axis=0) * 1.4826
        floor = 1e-9 * np.maximum(1.0, np.abs(self._median))
        mad[mad <= floor] = 1.0
        self._scale = mad

    def _score_matrix(self, X: np.ndarray) -> np.ndarray:
        z = np.abs((X - self._median) / self._scale)
        return z.max(axis=1)

    def _batch_score_windows(self, windows: np.ndarray) -> np.ndarray:
        center, scale = batch_robust_scale(windows)
        z = np.abs((windows - center[:, None, :]) / scale[:, None, :])
        return z.max(axis=2)


class KNNDetector(VectorDetector):
    """Distance to the k-th nearest neighbour (Angiulli & Pizzuti 2002)."""

    name = "knn"
    family = Family.BASELINE
    supports = _ALL_SHAPES
    citation = "Angiulli & Pizzuti 2002 [1]"

    def __init__(self, k: int = 5) -> None:
        super().__init__()
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    def _fit_matrix(self, X: np.ndarray) -> None:
        self._train = X.copy()

    def _score_matrix(self, X: np.ndarray) -> np.ndarray:
        exclude = X.shape == self._train.shape and np.array_equal(X, self._train)
        return kth_neighbor_dists(X, self._train, self.k, exclude_self=exclude)

    def _batch_score_windows(self, windows: np.ndarray) -> np.ndarray:
        # fit-score-own-windows: score set == train set, so exclude_self holds
        return batch_kth_neighbor_dists(windows, self.k, exclude_self=True)


class LOFDetector(VectorDetector):
    """Local outlier factor: density relative to the k-neighbourhood.

    Scores near 1 mean inlier; substantially above 1 means locally sparse.
    """

    name = "lof"
    family = Family.BASELINE
    supports = frozenset({DataShape.POINTS, DataShape.SUBSEQUENCES})
    citation = "Breunig et al. 2000 (discussed in Section 5)"

    def __init__(self, k: int = 10) -> None:
        super().__init__()
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    def _fit_matrix(self, X: np.ndarray) -> None:
        self._train = X.copy()
        k = min(self.k, max(1, X.shape[0] - 1))
        idx, dists = neighbor_indices(X, X, k, exclude_self=True)
        self._train_kdist = dists[:, -1]  # distance to k-th neighbour
        # local reachability density of every training point
        reach = np.maximum(dists, self._train_kdist[idx])
        mean_reach = reach.mean(axis=1)
        mean_reach[mean_reach <= 1e-12] = 1e-12
        self._train_lrd = 1.0 / mean_reach
        self._k_eff = k

    def _score_matrix(self, X: np.ndarray) -> np.ndarray:
        same = X.shape == self._train.shape and np.array_equal(X, self._train)
        idx, dists = neighbor_indices(X, self._train, self._k_eff, exclude_self=same)
        reach = np.maximum(dists, self._train_kdist[idx])
        mean_reach = reach.mean(axis=1)
        mean_reach[mean_reach <= 1e-12] = 1e-12
        lrd = 1.0 / mean_reach
        return self._train_lrd[idx].mean(axis=1) / lrd

    def _batch_score_windows(self, windows: np.ndarray) -> np.ndarray:
        # fit-score-own-windows: the scalar path fits and scores on the
        # same window set, so both neighbour queries are self-excluding
        # and identical — one batched query covers both.
        n_series, n_windows, _ = windows.shape
        k = min(self.k, max(1, n_windows - 1))
        idx, dists = batch_neighbor_indices(windows, k, exclude_self=True)
        kdist = dists[:, :, -1]
        series_ix = np.arange(n_series)[:, None, None]
        reach = np.maximum(dists, kdist[series_ix, idx])
        mean_reach = reach.mean(axis=2)
        mean_reach[mean_reach <= 1e-12] = 1e-12
        lrd = 1.0 / mean_reach
        return lrd[series_ix, idx].mean(axis=2) / lrd


class ReverseKNNDetector(VectorDetector):
    """Antihub score: points appearing in few reverse-kNN lists are outliers.

    Radovanović et al. 2015 observe that in high dimensions outliers become
    *antihubs* — they occur in almost no other point's k-neighbour list.
    The score is ``1 / (1 + reverse-neighbour count)``.
    """

    name = "rknn"
    family = Family.BASELINE
    supports = frozenset({DataShape.POINTS})
    citation = "Radovanović et al. 2015 [34]"

    def __init__(self, k: int = 10) -> None:
        super().__init__()
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    def _fit_matrix(self, X: np.ndarray) -> None:
        self._train = X.copy()

    def _score_matrix(self, X: np.ndarray) -> np.ndarray:
        # count how many training points list each scored point among their k nearest
        k = min(self.k, max(1, len(self._train) - 1))
        d2 = pairwise_sq_dists(self._train, X)
        same = X.shape == self._train.shape and np.array_equal(X, self._train)
        if same:
            np.fill_diagonal(d2, np.inf)
        counts = np.zeros(X.shape[0])
        k_eff = min(k, d2.shape[1])
        nearest = np.argpartition(d2, k_eff - 1, axis=1)[:, :k_eff]
        for row in nearest:
            counts[row] += 1
        return 1.0 / (1.0 + counts)

    def _batch_score_windows(self, windows: np.ndarray) -> np.ndarray:
        n_series, n_windows, _ = windows.shape
        k = min(self.k, max(1, n_windows - 1))
        d2 = batch_pairwise_sq_dists(windows, windows)
        ii = np.arange(n_windows)
        d2[:, ii, ii] = np.inf
        k_eff = min(k, n_windows)
        nearest = np.argpartition(d2, k_eff - 1, axis=2)[:, :, :k_eff]
        # per-row neighbour indices are distinct, so the scalar loop's
        # fancy-index increments equal a flat bincount with series offsets
        offsets = (np.arange(n_series) * n_windows)[:, None, None]
        counts = np.bincount(
            (nearest + offsets).ravel(), minlength=n_series * n_windows
        ).reshape(n_series, n_windows).astype(np.float64)
        return 1.0 / (1.0 + counts)


class PCALeverageDetector(VectorDetector):
    """PCA leverage (Mejia et al. 2017): influence of a point on the PCA fit.

    Leverage is the squared Mahalanobis-like norm of the point's
    coordinates in the retained principal subspace, normalized by the
    component variances.
    """

    name = "pca-leverage"
    family = Family.BASELINE
    supports = frozenset({DataShape.POINTS, DataShape.SERIES})
    citation = "Mejia et al. 2017 [26]"

    def __init__(self, variance_kept: float = 0.9) -> None:
        super().__init__()
        if not 0 < variance_kept <= 1:
            raise ValueError("variance_kept must be in (0, 1]")
        self.variance_kept = variance_kept

    def _fit_matrix(self, X: np.ndarray) -> None:
        self._mean = X.mean(axis=0)
        centered = X - self._mean
        __, s, vt = np.linalg.svd(centered, full_matrices=False)
        var = s**2
        total = var.sum()
        if total <= 1e-12:
            self._components = vt[:1]
            self._var = np.ones(1)
            return
        ratio = np.cumsum(var) / total
        n_keep = int(np.searchsorted(ratio, self.variance_kept) + 1)
        self._components = vt[:n_keep]
        self._var = var[:n_keep] / max(1, X.shape[0] - 1)
        self._var[self._var <= 1e-12] = 1e-12

    def _score_matrix(self, X: np.ndarray) -> np.ndarray:
        proj = (X - self._mean) @ self._components.T
        return (proj**2 / self._var).sum(axis=1)

    def _batch_score_windows(self, windows: np.ndarray) -> np.ndarray:
        n_series, n_windows, _ = windows.shape
        centered = windows - windows.mean(axis=1, keepdims=True)
        __, s, vt = np.linalg.svd(centered, full_matrices=False)
        var = s**2
        n_components = var.shape[1]
        total = var.sum(axis=1)
        degenerate = total <= 1e-12
        ratio = np.cumsum(var, axis=1) / np.where(degenerate, 1.0, total)[:, None]
        # (ratio < kept).sum() == searchsorted(ratio, kept): ratio is
        # nondecreasing, so both count the elements strictly below kept
        n_keep = np.where(degenerate, 1, (ratio < self.variance_kept).sum(axis=1) + 1)
        scaled_var = var / max(1, n_windows - 1)
        scaled_var[scaled_var <= 1e-12] = 1e-12
        # the degenerate scalar path keeps one component with unit variance
        scaled_var = np.where(degenerate[:, None], 1.0, scaled_var)
        proj = centered @ vt.transpose(0, 2, 1)
        keep_mask = np.arange(n_components)[None, :] < n_keep[:, None]
        return ((proj**2 / scaled_var[:, None, :]) * keep_mask[:, None, :]).sum(axis=2)


class RandomDetector(VectorDetector):
    """Uniform random scores — the floor every real detector must beat."""

    name = "random"
    family = Family.BASELINE
    supports = _ALL_SHAPES
    citation = "control"

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.seed = seed

    def _fit_matrix(self, X: np.ndarray) -> None:
        pass

    def _score_matrix(self, X: np.ndarray) -> np.ndarray:
        rng = np.random.default_rng(self.seed + X.shape[0])
        return rng.random(X.shape[0])
