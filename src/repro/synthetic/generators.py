"""Base-signal generators for synthetic industrial sensor data.

The paper defers evaluation to (unavailable) company data; these generators
produce the raw, outlier-free signals the plant simulator and the benchmark
workloads are composed from.  Every generator takes an explicit
``numpy.random.Generator`` so all experiments are reproducible from a seed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..timeseries import TimeSeries

__all__ = [
    "constant",
    "linear_trend",
    "sine",
    "white_noise",
    "ar_process",
    "random_walk",
    "seasonal_signal",
    "composite_sensor_signal",
]


def _finish(values: np.ndarray, start: float, step: float, name: str) -> TimeSeries:
    return TimeSeries(values, start=start, step=step, name=name)


def constant(n: int, level: float = 0.0, *, start: float = 0.0, step: float = 1.0,
             name: str = "constant") -> TimeSeries:
    """A flat signal at ``level``."""
    return _finish(np.full(n, float(level)), start, step, name)


def linear_trend(n: int, slope: float, intercept: float = 0.0, *,
                 start: float = 0.0, step: float = 1.0,
                 name: str = "trend") -> TimeSeries:
    """``intercept + slope * i`` for sample index ``i``."""
    return _finish(intercept + slope * np.arange(n, dtype=np.float64), start, step, name)


def sine(n: int, period: float, amplitude: float = 1.0, phase: float = 0.0, *,
         start: float = 0.0, step: float = 1.0, name: str = "sine") -> TimeSeries:
    """A sinusoid with the given period (in samples)."""
    if period <= 0:
        raise ValueError("period must be positive")
    i = np.arange(n, dtype=np.float64)
    return _finish(amplitude * np.sin(2 * np.pi * i / period + phase), start, step, name)


def white_noise(n: int, rng: np.random.Generator, sigma: float = 1.0, *,
                start: float = 0.0, step: float = 1.0,
                name: str = "noise") -> TimeSeries:
    """IID Gaussian noise with standard deviation ``sigma``."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    return _finish(rng.normal(0.0, sigma, size=n), start, step, name)


def ar_process(n: int, rng: np.random.Generator,
               coefficients: Sequence[float] = (0.6,), sigma: float = 1.0, *,
               burn_in: int = 100, start: float = 0.0, step: float = 1.0,
               name: str = "ar") -> TimeSeries:
    """A stationary AR(p) process driven by Gaussian innovations.

    ``x[t] = sum_k coefficients[k] * x[t-1-k] + e[t]``.  A burn-in prefix is
    simulated and discarded so the returned samples come from the stationary
    distribution.  The innovative-outlier injector (Fig. 1) needs exactly
    this recursion to propagate an impulse through.
    """
    phi = np.asarray(coefficients, dtype=np.float64)
    if phi.ndim != 1 or phi.size == 0:
        raise ValueError("coefficients must be a non-empty 1-D sequence")
    coef = phi.tolist()
    p = len(coef)
    if p == 1:
        # the companion root of [1, -phi] is phi itself
        stationary = abs(coef[0]) < 1.0 - 1e-9
    else:
        roots = np.roots(np.concatenate([[1.0], -phi]))
        stationary = not np.any(np.abs(roots) >= 1.0 - 1e-9)
    if not stationary:
        raise ValueError(f"AR coefficients {coef} are not stationary")
    total = n + burn_in
    # The recursion runs on Python floats: the same IEEE operations in the
    # same order as an indexed numpy loop, without a numpy scalar per step.
    e = rng.normal(0.0, sigma, size=total).tolist()
    if p == 1:
        c0 = coef[0]
        x = e[:1]  # x[0] = e[0] exactly
        prev = x[0] if x else 0.0
        for v in e[1:]:
            prev = v + c0 * prev
            x.append(prev)
    else:
        x = e  # x[t] overwrites e[t]; only x[<t] is read
        for t in range(total):
            acc = x[t]
            for k in range(min(p, t)):
                acc += coef[k] * x[t - 1 - k]
            x[t] = acc
    return _finish(np.array(x[burn_in:], dtype=np.float64), start, step, name)


def random_walk(n: int, rng: np.random.Generator, sigma: float = 1.0, *,
                start: float = 0.0, step: float = 1.0,
                name: str = "walk") -> TimeSeries:
    """Cumulative sum of Gaussian increments."""
    return _finish(np.cumsum(rng.normal(0.0, sigma, size=n)), start, step, name)


def seasonal_signal(n: int, rng: np.random.Generator, period: float = 50.0,
                    amplitude: float = 1.0, noise_sigma: float = 0.1,
                    trend_slope: float = 0.0, *, start: float = 0.0,
                    step: float = 1.0, name: str = "seasonal") -> TimeSeries:
    """Sinusoid + optional linear trend + white noise."""
    base = sine(n, period, amplitude, start=start, step=step).values
    base += trend_slope * np.arange(n, dtype=np.float64)
    base += rng.normal(0.0, noise_sigma, size=n)
    return _finish(base, start, step, name)


def composite_sensor_signal(
    n: int,
    rng: np.random.Generator,
    *,
    baseline: float = 0.0,
    ar_coefficients: Sequence[float] = (0.5,),
    ar_sigma: float = 0.3,
    period: float = 0.0,
    amplitude: float = 0.0,
    trend_slope: float = 0.0,
    start: float = 0.0,
    step: float = 1.0,
    name: str = "sensor",
) -> TimeSeries:
    """A realistic sensor trace: baseline + AR noise (+ seasonality + drift).

    This is the canonical clean signal the plant simulator uses for
    temperature / pressure / vibration channels.
    """
    x = ar_process(n, rng, ar_coefficients, ar_sigma, start=start, step=step).values
    x += baseline + trend_slope * np.arange(n, dtype=np.float64)
    if period > 0 and amplitude != 0.0:
        x += sine(n, period, amplitude).values
    return _finish(x, start, step, name)
