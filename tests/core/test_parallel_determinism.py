"""Executor-invariance suite: serial / thread / process are one pipeline.

The engine's headline guarantee is that the executor is a pure
performance knob: the serialized reports — including the embedded
health record and stats tree — are *byte-identical* across all three
executors, for every seed, and even when chaos fault injection degrades
the run.  Phase and environment traces are scored in same-length batches;
the batched AR kernel must leave the output byte-identical to scoring
every trace on its own.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

from repro.core.pipeline import (
    HierarchicalDetectionPipeline,
    PipelineConfig,
)
from repro.io import reports_to_json
from repro.plant import ChaosConfig, PlantConfig, inject_chaos, simulate_plant

SEEDS = (3, 11, 29)


def _plant(seed: int):
    return simulate_plant(
        PlantConfig(seed=seed, n_lines=2, machines_per_line=2, jobs_per_machine=4)
    )


def _run_json(dataset, **config) -> str:
    pipeline = HierarchicalDetectionPipeline(
        dataset, config=PipelineConfig(**config)
    )
    reports = pipeline.run()
    return reports_to_json(reports, health=pipeline.health, stats=pipeline.stats())


class TestExecutorInvariance:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_thread_matches_serial_byte_for_byte(self, seed):
        baseline = _run_json(_plant(seed), executor="serial")
        threaded = _run_json(_plant(seed), executor="thread", max_workers=4)
        assert threaded == baseline

    def test_process_matches_serial_byte_for_byte(self):
        # one seed: process pools are expensive, and the pickle boundary
        # either works or it doesn't
        baseline = _run_json(_plant(SEEDS[0]), executor="serial")
        forked = _run_json(_plant(SEEDS[0]), executor="process", max_workers=2)
        assert forked == baseline

    def test_stats_tree_is_executor_invariant(self):
        docs = {
            executor: json.loads(
                _run_json(_plant(7), executor=executor, max_workers=2)
            )
            for executor in ("serial", "thread")
        }
        assert (
            docs["serial"]["telemetry"]["stats"]
            == docs["thread"]["telemetry"]["stats"]
        )
        parallel = docs["serial"]["telemetry"]["stats"]["parallel"]
        assert parallel["tasks"] > 0
        assert parallel["batch_groups"] > 0


class TestHashSeedInvariance:
    """Reports must not depend on the process's string-hash seed.

    Regression for a ``for key in set(keys)`` loop in the plant simulator
    that consumed the RNG in hash order: every fresh interpreter produced
    slightly different setup perturbations, which read as an executor
    divergence at non-default start levels."""

    _SNIPPET = (
        "import hashlib, sys\n"
        "from repro.plant import PlantConfig, simulate_plant\n"
        "from repro.core import HierarchicalDetectionPipeline, PipelineConfig\n"
        "p = HierarchicalDetectionPipeline(\n"
        "    simulate_plant(PlantConfig(seed=11, n_lines=2,\n"
        "                               machines_per_line=2, jobs_per_machine=4)),\n"
        "    config=PipelineConfig(executor=sys.argv[1]))\n"
        "from repro.core import ProductionLevel\n"
        "from repro.io import reports_to_json\n"
        "doc = reports_to_json(p.run(start_level=ProductionLevel(3)),\n"
        "                      health=p.health)\n"
        "print(hashlib.sha256(doc.encode()).hexdigest())\n"
    )

    def _digest(self, hashseed: str, executor: str) -> str:
        proc = subprocess.run(
            [sys.executable, "-c", self._SNIPPET, executor],
            capture_output=True, text=True, check=True, cwd=REPO_ROOT,
            env={
                "PYTHONHASHSEED": hashseed,
                "PYTHONPATH": str(REPO_ROOT / "src"),
                "PATH": "/usr/bin:/bin",
            },
        )
        return proc.stdout.strip()

    def test_reports_survive_interpreter_restarts(self):
        digests = {
            self._digest(hashseed, executor)
            for hashseed in ("1", "2")
            for executor in ("serial", "thread")
        }
        assert len(digests) == 1, "reports depend on PYTHONHASHSEED"


class TestChaosInvariance:
    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_degraded_runs_stay_executor_invariant(self, seed):
        def chaotic():
            dataset, __ = inject_chaos(
                _plant(seed), ChaosConfig(seed=0, sensor_dropout_rate=0.15)
            )
            return dataset

        baseline = _run_json(chaotic(), executor="serial")
        threaded = _run_json(chaotic(), executor="thread", max_workers=4)
        assert threaded == baseline
        # the guarantee is only interesting if the run actually degraded
        health = json.loads(baseline)["telemetry"]["run_health"]
        assert health["quarantines"] or health["warnings"]


def _identity_case(case: str):
    """(dataset, selector, config) of one batch-vs-scalar identity run."""
    from repro.core import AlgorithmSelector, ProductionLevel
    from repro.core.resilience import SandboxPolicy

    if case == "clean":
        return _plant(3), None, PipelineConfig()
    if case == "chaos":
        dataset, __ = inject_chaos(
            _plant(11),
            ChaosConfig(seed=0, sensor_dropout_rate=0.15, truncate_rate=0.3),
        )
        return dataset, None, PipelineConfig()
    dataset, __ = inject_chaos(_plant(29), ChaosConfig(seed=0, sensor_dropout_rate=0.15))
    selector = AlgorithmSelector()
    selector.override(ProductionLevel.PHASE, ["chaos-raise", "ar", "deviants", "zscore"])
    return dataset, selector, PipelineConfig(sandbox=SandboxPolicy(max_attempts=1))


class TestBatchScoring:
    @pytest.mark.parametrize("case", ("clean", "chaos", "chaos-raise"))
    def test_batched_ar_kernel_matches_per_series_reference(self, case, monkeypatch):
        """The pipeline's batched AR kernel against the per-series loop.

        The reference run swaps ``ARDetector.fit_score_series_batch`` for
        the generic loop over the scalar ``fit_score_series``; reports,
        health and stats must come out byte-identical.
        """
        from repro.detectors.base import BaseDetector
        from repro.detectors.predictive.ar import ARDetector

        def doc() -> str:
            dataset, selector, config = _identity_case(case)
            pipeline = HierarchicalDetectionPipeline(
                dataset, selector=selector, config=config
            )
            return reports_to_json(
                pipeline.run(), health=pipeline.health, stats=pipeline.stats()
            )

        batched = doc()
        with monkeypatch.context() as patch:
            patch.setattr(
                ARDetector, "fit_score_series_batch", BaseDetector.fit_score_series_batch
            )
            reference = doc()
        assert batched == reference
        health = json.loads(batched)["telemetry"]["run_health"]
        if case == "chaos":
            assert health["quarantines"] or health["warnings"]
        if case == "chaos-raise":
            assert health["fallbacks"]

    def test_batch_mode_is_itself_executor_invariant(self):
        serial = _run_json(_plant(7))
        threaded = _run_json(_plant(7), executor="thread", max_workers=4)
        assert threaded == serial
        assert json.loads(serial)["telemetry"]["stats"]["parallel"]["batch_groups"] > 0


class TestBatchedARKernel:
    def test_batched_solve_matches_per_series_fit(self):
        from repro.detectors.predictive.ar import ARDetector
        from repro.timeseries import TimeSeries

        rng = np.random.default_rng(5)
        series = [
            TimeSeries(values=rng.normal(size=96).cumsum(), start=0.0, step=1.0)
            for __ in range(6)
        ]
        batched = ARDetector(order=3).fit_score_series_batch(series)
        looped = [ARDetector(order=3).fit_score_series(s) for s in series]
        for got, want in zip(batched, looped):
            np.testing.assert_array_equal(got, want)

    def test_ragged_lengths_fall_back_to_loop(self):
        from repro.detectors.predictive.ar import ARDetector
        from repro.timeseries import TimeSeries

        rng = np.random.default_rng(5)
        series = [
            TimeSeries(values=rng.normal(size=n).cumsum(), start=0.0, step=1.0)
            for n in (50, 64)
        ]
        batched = ARDetector(order=3).fit_score_series_batch(series)
        looped = [ARDetector(order=3).fit_score_series(s) for s in series]
        for got, want in zip(batched, looped):
            np.testing.assert_array_equal(got, want)
