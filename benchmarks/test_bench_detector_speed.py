"""Extension bench — detector calculation speed.

"Another challenge for outlier detection is related to the calculation
speed" (Section 5).  This bench times every PTS-capable Table-1 detector
on one fixed point workload (fit + score, 630 items) so the cost of each
technique is visible next to its quality in the ``tab1`` bench.
pytest-benchmark prints the comparative table.

A second table (``detector_batch``) times every registry detector with
a batch kernel (``has_batch_kernel``) on the same stack of series
through both the scalar per-series loop and the vectorized
``fit_score_series_batch`` kernel,
so the batch win per family is a tracked perf artifact (parsed into the
``repro.bench/2`` JSON by ``to_json.py``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.detectors import TABLE1_ROWS, has_batch_kernel
from repro.detectors.registry import BASELINE_ROWS
from repro.synthetic import make_point_dataset
from repro.timeseries import TimeSeries

_PTS_ROWS = [e for e in TABLE1_ROWS if e.capabilities()[0]]
_DATA = make_point_dataset(np.random.default_rng(99), n_inliers=600, n_outliers=30)

_BATCHED_ROWS = [
    e for e in TABLE1_ROWS + BASELINE_ROWS if has_batch_kernel(e.cls)
]


@pytest.mark.parametrize("entry", _PTS_ROWS, ids=lambda e: e.name)
def test_bench_detector_speed(benchmark, entry):
    scores = benchmark(lambda: entry.factory().fit_score(_DATA.X))
    assert scores.shape == (len(_DATA.labels),)
    assert np.isfinite(scores).all()


def _series_stack(n_series: int = 16, n: int = 256):
    rng = np.random.default_rng(2019)
    return [
        TimeSeries(values=rng.normal(size=n).cumsum(), start=0.0, step=1.0)
        for __ in range(n_series)
    ]


def _best_of(fn, reps: int = 3) -> tuple[float, object]:
    best = float("inf")
    result = None
    for __ in range(reps):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_bench_batched_vs_scalar(emit):
    series = _series_stack()
    lines = [
        f"Batched vs scalar detector kernels — {len(series)} series × "
        f"{len(series[0].values)} samples (best of 3)",
        "",
        f"{'detector':20s} {'family':16s} {'scalar_ms':>9s} {'batch_ms':>9s} "
        f"{'speedup':>8s}",
    ]
    max_delta = 0.0
    for entry in _BATCHED_ROWS:
        scalar_s, looped = _best_of(
            lambda e=entry: [e.factory().fit_score_series(s) for s in series]
        )
        batch_s, batched = _best_of(
            lambda e=entry: e.factory().fit_score_series_batch(series)
        )
        for got, want in zip(batched, looped):
            max_delta = max(max_delta, float(np.abs(got - want).max()))
        ratio = scalar_s / batch_s if batch_s > 0 else 0.0
        lines.append(
            f"{entry.name:20s} {entry.family.name.lower():16s} "
            f"{scalar_s * 1e3:9.2f} {batch_s * 1e3:9.2f} {ratio:8.2f}"
        )
    lines.append("")
    lines.append(f"max |batched - scalar| across detectors: {max_delta:.2e}")
    emit("detector_batch", "\n".join(lines))
    # the kernels must agree with the scalar path inside the documented
    # 1e-9 numerical-equality contract, on the bench workload too
    assert max_delta <= 1e-9
