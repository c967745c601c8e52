"""Unit tests for the base-signal generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.synthetic import (
    ar_process,
    composite_sensor_signal,
    constant,
    linear_trend,
    random_walk,
    seasonal_signal,
    sine,
    white_noise,
)


class TestDeterministicGenerators:
    def test_constant(self):
        ts = constant(5, level=2.5)
        assert ts.values.tolist() == [2.5] * 5

    def test_linear_trend(self):
        ts = linear_trend(4, slope=2.0, intercept=1.0)
        assert ts.values.tolist() == [1.0, 3.0, 5.0, 7.0]

    def test_sine_period(self):
        ts = sine(100, period=20.0, amplitude=3.0)
        assert ts.values[0] == pytest.approx(0.0)
        assert ts.values[5] == pytest.approx(3.0)
        assert ts.values[20] == pytest.approx(0.0, abs=1e-9)

    def test_sine_rejects_bad_period(self):
        with pytest.raises(ValueError):
            sine(10, period=0.0)

    def test_time_axis_passthrough(self):
        ts = constant(3, start=10.0, step=2.0)
        assert ts.start == 10.0 and ts.step == 2.0


class TestStochasticGenerators:
    def test_white_noise_moments(self, rng):
        ts = white_noise(20_000, rng, sigma=2.0)
        assert abs(ts.mean()) < 0.1
        assert ts.std() == pytest.approx(2.0, rel=0.05)

    def test_white_noise_rejects_negative_sigma(self, rng):
        with pytest.raises(ValueError):
            white_noise(5, rng, sigma=-1.0)

    def test_reproducible_from_seed(self):
        a = white_noise(50, np.random.default_rng(3))
        b = white_noise(50, np.random.default_rng(3))
        assert a == b

    def test_random_walk_is_cumulative(self, rng):
        ts = random_walk(100, rng)
        diffs = np.diff(ts.values)
        assert np.std(diffs) == pytest.approx(1.0, rel=0.3)


class TestARProcess:
    def test_autocorrelation_matches_phi(self, rng):
        phi = 0.8
        ts = ar_process(30_000, rng, (phi,), 1.0)
        x = ts.values - ts.values.mean()
        acf1 = float((x[:-1] * x[1:]).sum() / (x * x).sum())
        assert acf1 == pytest.approx(phi, abs=0.03)

    def test_stationary_variance(self, rng):
        phi = 0.6
        ts = ar_process(30_000, rng, (phi,), 1.0)
        expected_var = 1.0 / (1 - phi**2)
        assert ts.std() ** 2 == pytest.approx(expected_var, rel=0.1)

    def test_rejects_nonstationary(self, rng):
        with pytest.raises(ValueError, match="stationary"):
            ar_process(100, rng, (1.05,))

    def test_rejects_empty_coefficients(self, rng):
        with pytest.raises(ValueError):
            ar_process(100, rng, ())

    def test_ar2_works(self, rng):
        ts = ar_process(1000, rng, (0.5, 0.2))
        assert len(ts) == 1000
        assert np.isfinite(ts.values).all()


def _reference_ar_process(n, rng, coefficients, sigma=1.0, burn_in=100):
    """The indexed numpy-scalar recursion ``ar_process`` must reproduce bit for bit."""
    phi = np.asarray(coefficients, dtype=np.float64)
    roots = np.roots(np.concatenate([[1.0], -phi]))
    if np.any(np.abs(roots) >= 1.0 - 1e-9):
        raise ValueError(f"AR coefficients {phi.tolist()} are not stationary")
    p = phi.size
    total = n + burn_in
    e = rng.normal(0.0, sigma, size=total)
    x = np.zeros(total)
    for t in range(total):
        acc = e[t]
        for k in range(min(p, t)):
            acc += phi[k] * x[t - 1 - k]
        x[t] = acc
    return x[burn_in:]


class TestARProcessMatchesReference:
    COEFFICIENTS = [
        (0.6,),
        (-0.95,),
        (0.0,),
        (0.999999,),
        (0.5, -0.3),
        (1.2, -0.5),
        (0.2, 0.3, -0.1),
        (0.9, -0.4, 0.2),
    ]

    @pytest.mark.parametrize("coefficients", COEFFICIENTS, ids=str)
    def test_bit_identical(self, coefficients):
        for seed in range(60):
            got = ar_process(300, np.random.default_rng(seed), coefficients, sigma=0.7)
            ref = _reference_ar_process(300, np.random.default_rng(seed), coefficients, sigma=0.7)
            np.testing.assert_array_equal(got.values, ref)

    @pytest.mark.parametrize("n, burn_in", [(0, 0), (1, 0), (0, 1), (5, 0)])
    def test_tiny_lengths(self, n, burn_in):
        for coefficients in [(0.6,), (0.5, -0.3)]:
            got = ar_process(n, np.random.default_rng(3), coefficients, burn_in=burn_in)
            ref = _reference_ar_process(n, np.random.default_rng(3), coefficients, burn_in=burn_in)
            np.testing.assert_array_equal(got.values, ref)

    @pytest.mark.parametrize("phi", [1 - 1e-9, -(1 - 1e-9), 1.0, -1.0, 1.5, -1.5])
    def test_order_one_stationarity_matches_np_roots(self, phi):
        with pytest.raises(ValueError) as ref:
            _reference_ar_process(10, np.random.default_rng(0), (phi,))
        with pytest.raises(ValueError) as got:
            ar_process(10, np.random.default_rng(0), (phi,))
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("phi", [1 - 2e-9, -(1 - 2e-9), 0.5, -0.5])
    def test_order_one_stationary_side_matches_np_roots(self, phi):
        ref = _reference_ar_process(10, np.random.default_rng(0), (phi,))
        got = ar_process(10, np.random.default_rng(0), (phi,))
        np.testing.assert_array_equal(got.values, ref)


class TestComposite:
    def test_seasonal_signal_has_period(self, rng):
        from repro.timeseries import estimate_period

        ts = seasonal_signal(600, rng, period=30.0, amplitude=3.0, noise_sigma=0.2)
        assert estimate_period(ts) == pytest.approx(30, abs=2)

    def test_composite_baseline(self, rng):
        ts = composite_sensor_signal(2000, rng, baseline=50.0, ar_sigma=0.5)
        assert ts.mean() == pytest.approx(50.0, abs=0.5)

    def test_composite_trend(self, rng):
        ts = composite_sensor_signal(
            500, rng, baseline=0.0, trend_slope=0.1, ar_sigma=0.1
        )
        assert ts.values[-1] - ts.values[0] == pytest.approx(50.0, abs=5.0)
