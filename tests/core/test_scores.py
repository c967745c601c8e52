"""Unit tests for outlierness unification."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import unify, unify_gaussian, unify_minmax, unify_rank


class TestRank:
    def test_uniform_output(self):
        out = unify_rank([3.0, 1.0, 2.0])
        assert out.tolist() == [
            pytest.approx(2.5 / 3),
            pytest.approx(0.5 / 3),
            pytest.approx(1.5 / 3),
        ]

    def test_order_preserved(self, rng):
        s = rng.normal(size=100)
        out = unify_rank(s)
        assert np.array_equal(np.argsort(s), np.argsort(out))

    def test_bounded(self, rng):
        out = unify_rank(rng.normal(size=50))
        assert np.all((out > 0) & (out < 1))

    def test_ties_share_value(self):
        out = unify_rank([1.0, 1.0, 5.0])
        assert out[0] == out[1]

    def test_empty(self):
        assert unify_rank(np.array([])).size == 0


class TestGaussian:
    def test_outlier_near_one(self, rng):
        s = np.concatenate([rng.normal(0, 1, 200), [50.0]])
        out = unify_gaussian(s)
        assert out[-1] > 0.999

    def test_median_maps_to_half(self, rng):
        s = rng.normal(5, 2, 501)
        out = unify_gaussian(s)
        med_idx = int(np.argsort(s)[len(s) // 2])
        assert out[med_idx] == pytest.approx(0.5, abs=0.05)

    def test_magnitude_preserved_vs_rank(self, rng):
        # two batches identical except the top score magnitude
        base = rng.normal(0, 1, 100)
        small = np.concatenate([base, [5.0]])
        large = np.concatenate([base, [50.0]])
        assert unify_gaussian(large)[-1] >= unify_gaussian(small)[-1]
        assert unify_rank(large)[-1] == unify_rank(small)[-1]

    def test_constant_input(self):
        out = unify_gaussian(np.full(10, 3.0))
        assert np.allclose(out, 0.5)


class TestGaussianMatchesScipyStats:
    """``unify_gaussian`` calls ``scipy.special.ndtr``; ``norm.cdf`` is the reference."""

    @staticmethod
    def _reference(scores):
        from scipy.stats import norm

        s = np.asarray(scores, dtype=np.float64)
        center = float(np.median(s))
        mad = float(np.median(np.abs(s - center))) * 1.4826
        if mad <= 1e-12:
            std = float(s.std())
            mad = std if std > 1e-12 else 1.0
        return norm.cdf((s - center) / mad)

    @pytest.mark.parametrize(
        "scores",
        [
            # -0.0 against a +0.0 median gives z = -0.0; the infs give z = +-inf
            [-np.inf, -40.0, -8.5, -1.0, -1e-300, -0.0, 0.0, 0.0, 1e-300, 1.0, 8.5, 40.0, np.inf],
            [1.0, np.nan, 2.0],  # a NaN median: every z is NaN
            [3.0] * 6,
            np.linspace(-40.0, 40.0, 4001),
        ],
        ids=["inf-zero-grid", "nan", "constant", "dense"],
    )
    def test_matches_norm_cdf(self, scores):
        np.testing.assert_array_equal(unify_gaussian(scores), self._reference(scores))


class TestMinmax:
    def test_range(self):
        out = unify_minmax([2.0, 4.0, 6.0])
        assert out.tolist() == [0.0, 0.5, 1.0]

    def test_constant_maps_to_half(self):
        assert np.allclose(unify_minmax(np.ones(5)), 0.5)


class TestDispatch:
    def test_known_methods(self, rng):
        s = rng.normal(size=20)
        for method in ("rank", "gaussian", "minmax"):
            out = unify(s, method)
            assert out.shape == s.shape
            assert np.all((out >= 0) & (out <= 1))

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unification"):
            unify([1.0], "bogus")

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            unify_rank(np.zeros((2, 2)))
