"""Principal-component-space detector (Gupta & Singh 2013) — Table 1, row 8.

Normal data is projected onto the principal subspace retaining a target
variance fraction; the anomaly score of a point is its reconstruction error
— the energy it carries in the discarded minor components, where anomalies
that violate the normal correlation structure live.
"""

from __future__ import annotations

import numpy as np

from ..base import DataShape, Family, VectorDetector

__all__ = ["PCASpaceDetector"]


class PCASpaceDetector(VectorDetector):
    """PCA reconstruction error in the residual (minor-component) space."""

    name = "pca-space"
    family = Family.DISCRIMINATIVE
    supports = frozenset({DataShape.POINTS})
    citation = "Gupta & Singh 2013 [13]"

    def __init__(self, variance_kept: float = 0.9) -> None:
        super().__init__()
        if not 0 < variance_kept < 1:
            raise ValueError("variance_kept must be in (0, 1)")
        self.variance_kept = variance_kept

    def _fit_matrix(self, X: np.ndarray) -> None:
        self._mean = X.mean(axis=0)
        self._std = X.std(axis=0)
        self._std[self._std <= 1e-12] = 1.0
        Z = (X - self._mean) / self._std
        __, s, vt = np.linalg.svd(Z, full_matrices=False)
        var = s**2
        total = var.sum()
        if total <= 1e-12:
            # constant data: keep one component, everything reconstructs to 0
            self._components = vt[:1]
            return
        ratio = np.cumsum(var) / total
        n_keep = int(np.searchsorted(ratio, self.variance_kept) + 1)
        n_keep = min(n_keep, vt.shape[0])
        self._components = vt[:n_keep]

    def _score_matrix(self, X: np.ndarray) -> np.ndarray:
        Z = (X - self._mean) / self._std
        proj = Z @ self._components.T
        recon = proj @ self._components
        residual = Z - recon
        return np.sqrt((residual * residual).sum(axis=1))

    def _batch_score_windows(self, windows: np.ndarray) -> np.ndarray:
        n_series, n_windows, _ = windows.shape
        mean = windows.mean(axis=1, keepdims=True)
        std = windows.std(axis=1, keepdims=True)
        std[std <= 1e-12] = 1.0
        Z = (windows - mean) / std
        __, s, vt = np.linalg.svd(Z, full_matrices=False)
        var = s**2
        n_components = var.shape[1]
        total = var.sum(axis=1)
        degenerate = total <= 1e-12
        ratio = np.cumsum(var, axis=1) / np.where(degenerate, 1.0, total)[:, None]
        # counting ratios strictly below the target equals the scalar
        # searchsorted on the nondecreasing cumulative-variance ratio
        n_keep = np.minimum((ratio < self.variance_kept).sum(axis=1) + 1, n_components)
        n_keep = np.where(degenerate, 1, n_keep)
        keep_mask = np.arange(n_components)[None, :] < n_keep[:, None]
        proj = Z @ vt.transpose(0, 2, 1)
        recon = (proj * keep_mask[:, None, :]) @ vt
        residual = Z - recon
        return np.sqrt((residual * residual).sum(axis=2))
