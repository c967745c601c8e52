"""Batch-kernel contract: every detector with a vectorized batch kernel
must reproduce the scalar per-series path — bit for bit for ``ar``, the
kernel the pipeline's phase and environment levels run, and to 1e-9 abs
for the rest (see PERFORMANCE.md) — and kernel coverage must not shrink.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.detectors import has_batch_kernel
from repro.detectors.errors import ShapeUnsupportedError
from repro.detectors.registry import BASELINE_ROWS, TABLE1_ROWS
from repro.timeseries import TimeSeries

ALL_ROWS = TABLE1_ROWS + BASELINE_ROWS
BATCHED = [entry for entry in ALL_ROWS if has_batch_kernel(entry.cls)]
SEEDS = (0, 7, 23)
#: Kernels that must equal the scalar path exactly, not just to 1e-9.
EXACT = {"ar"}

#: The kernel floor this PR establishes; shrinking it is a regression.
MIN_BATCHED = {
    "ar",
    "dynamic-clustering",
    "knn",
    "lof",
    "mad",
    "pca-leverage",
    "pca-space",
    "rknn",
    "single-linkage",
    "zscore",
}


def _series_batch(seed, n_series=5, lengths=None, nan=False):
    rng = np.random.default_rng(seed)
    lengths = lengths or [96] * n_series
    out = []
    for i, n in enumerate(lengths):
        values = rng.normal(size=n).cumsum()
        values[10 + 3 * i] += 8.0  # one planted spike per series
        if nan:
            values[::17] = np.nan
        out.append(TimeSeries(values=values, start=0.0, step=1.0))
    return out


def _ids(entries):
    return [entry.name for entry in entries]


def _assert_matches(entry, batched, looped):
    assert len(batched) == len(looped)
    for got, want in zip(batched, looped):
        if entry.name in EXACT:
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)


class TestNumericalEquality:
    @pytest.mark.parametrize("entry", BATCHED, ids=_ids(BATCHED))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_batched_matches_scalar(self, entry, seed):
        series = _series_batch(seed)
        batched = entry.factory().fit_score_series_batch(series)
        looped = [entry.factory().fit_score_series(s) for s in series]
        _assert_matches(entry, batched, looped)

    @pytest.mark.parametrize("entry", BATCHED, ids=_ids(BATCHED))
    def test_nan_inputs_match_scalar(self, entry):
        series = _series_batch(SEEDS[0], nan=True)
        batched = entry.factory().fit_score_series_batch(series)
        looped = [entry.factory().fit_score_series(s) for s in series]
        _assert_matches(entry, batched, looped)

    @pytest.mark.parametrize("entry", BATCHED, ids=_ids(BATCHED))
    def test_ragged_lengths_match_scalar(self, entry):
        series = _series_batch(SEEDS[1], lengths=[64, 96, 80])
        batched = entry.factory().fit_score_series_batch(series)
        looped = [entry.factory().fit_score_series(s) for s in series]
        _assert_matches(entry, batched, looped)

    @pytest.mark.parametrize("entry", BATCHED, ids=_ids(BATCHED))
    def test_singleton_batch_matches_scalar(self, entry):
        (series,) = _series_batch(SEEDS[2], n_series=1)
        batched = entry.factory().fit_score_series_batch([series])
        _assert_matches(entry, batched, [entry.factory().fit_score_series(series)])


class TestNoSilentDrift:
    @pytest.mark.parametrize("entry", ALL_ROWS, ids=_ids(ALL_ROWS))
    def test_flag_iff_kernel(self, entry, monkeypatch):
        """``has_batch_kernel`` — read from the class structure — must say
        True exactly when a same-length stack is scored without the
        per-series ``fit_score_series`` loop.

        An override that only delegates, or a window hook that always
        returns None, would otherwise advertise coverage nothing runs.
        """
        calls = []
        scalar = entry.cls.fit_score_series

        def counting(detector, series, *args, **kwargs):
            calls.append(series)
            return scalar(detector, series, *args, **kwargs)

        monkeypatch.setattr(entry.cls, "fit_score_series", counting)
        with contextlib.suppress(ShapeUnsupportedError):  # no series localization
            entry.factory().fit_score_series_batch(_series_batch(SEEDS[0]))
        assert has_batch_kernel(entry.cls) == (not calls), entry.name

    def test_minimum_kernel_coverage(self):
        names = {entry.name for entry in BATCHED}
        assert MIN_BATCHED <= names, sorted(MIN_BATCHED - names)
