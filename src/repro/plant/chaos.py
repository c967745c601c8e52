"""Seeded chaos harness: infrastructure faults for the simulated plant.

:mod:`repro.plant.faults` injects *physical* ground truth — process faults,
sensor measurement errors, setup anomalies — the anomalies the hierarchy is
supposed to find.  This module injects the *infrastructure* faults that
industrial deployments suffer on top: dead sensors, NaN bursts from flaky
acquisition, stuck-at ADC values, truncated traces from mid-phase
disconnects, plus detector wrappers that raise or hang.  The resilience
layer (:mod:`repro.core.resilience`) must absorb all of them; the chaos
suite and the ``chaos_degradation`` bench measure how detection quality
degrades as the injected fault rate rises.

Everything is driven by one :class:`numpy.random.Generator` seeded from
:attr:`ChaosConfig.seed` over a fixed iteration order, so a given
``(dataset, config)`` pair always produces the identical faulted dataset
and event list — the property the byte-identical-reports acceptance test
relies on.  The input dataset is never mutated.
"""

from __future__ import annotations

import os
import pathlib
import signal
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..detectors import DetectorError
from ..detectors.baselines import MADDetector
from ..detectors.registry import register_detector
from .model import (
    JobRecord,
    LineRecord,
    MachineRecord,
    PhaseRecord,
    PlantDataset,
)

__all__ = [
    "ChaosConfig",
    "ChaosEvent",
    "inject_chaos",
    "kill_after_snapshots",
    "RaisingDetector",
    "FlakyDetector",
    "HangingDetector",
]


@dataclass(frozen=True)
class ChaosConfig:
    """Infrastructure-fault injection plan (all rates are probabilities).

    ``sensor_dropout_rate`` kills whole channels (every trace becomes NaN:
    the dead-sensor case the support renormalization exists for);
    ``dropout_sensors`` names channels to kill deterministically on top of
    the random draw — phase sensor ids, or environment channel ids of the
    form ``"<line_id>/env/<kind>"``.  The per-trace rates inject a NaN
    burst, a stuck-at run, or a truncation into individual phase traces.
    """

    seed: int = 0
    sensor_dropout_rate: float = 0.0
    dropout_sensors: Tuple[str, ...] = ()
    nan_burst_rate: float = 0.0
    nan_burst_length: int = 40
    stuck_rate: float = 0.0
    truncate_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("sensor_dropout_rate", "nan_burst_rate", "stuck_rate",
                     "truncate_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.nan_burst_length < 1:
            raise ValueError("nan_burst_length must be >= 1")


@dataclass(frozen=True)
class ChaosEvent:
    """One injected infrastructure fault (the chaos ground truth)."""

    kind: str  # "dropout" | "nan-burst" | "stuck-at" | "truncate"
    sensor_id: str
    machine_id: str = ""
    job_index: int = -1
    phase_name: str = ""
    detail: str = ""

    def describe(self) -> str:
        where = (
            f"{self.machine_id}/job{self.job_index}/{self.phase_name}"
            if self.machine_id
            else self.sensor_id
        )
        return f"{self.kind:9s} {self.sensor_id} at {where}: {self.detail}"


def _corrupt_trace(
    values: np.ndarray,
    rng: np.random.Generator,
    config: ChaosConfig,
) -> Tuple[np.ndarray, List[Tuple[str, str]]]:
    """Apply the per-trace fault draws; returns (values, [(kind, detail)]).

    Every rate is drawn in a fixed order regardless of earlier outcomes,
    so the rng stream stays aligned across configs that differ only in
    rates — same seed, same traces faulted.
    """
    out = np.asarray(values, dtype=np.float64)
    applied: List[Tuple[str, str]] = []
    n = len(out)

    burst = rng.random() < config.nan_burst_rate
    burst_at = int(rng.integers(0, max(1, n - min(config.nan_burst_length, n) + 1)))
    stuck = rng.random() < config.stuck_rate
    stuck_at = int(rng.integers(0, max(1, n // 2)))
    truncate = rng.random() < config.truncate_rate
    keep_fraction = float(rng.uniform(0.2, 0.6))

    if burst and n:
        length = min(config.nan_burst_length, n)
        out = out.copy()
        out[burst_at : burst_at + length] = np.nan
        applied.append(("nan-burst", f"{length} samples from {burst_at}"))
    if stuck and n:
        out = out.copy()
        level = out[stuck_at] if np.isfinite(out[stuck_at]) else 0.0
        out[stuck_at:] = level
        applied.append(("stuck-at", f"held {level:.6g} from sample {stuck_at}"))
    if truncate and n:
        keep = max(2, int(n * keep_fraction))
        out = out[:keep]
        applied.append(("truncate", f"kept {keep}/{n} samples"))
    return out, applied


def inject_chaos(
    dataset: PlantDataset, config: ChaosConfig
) -> Tuple[PlantDataset, List[ChaosEvent]]:
    """Return a structurally new dataset with infrastructure faults injected.

    The input dataset is left untouched (phase/job/machine/line containers
    are rebuilt; unaffected :class:`~repro.timeseries.TimeSeries` payloads
    are shared, they are immutable).  The returned event list is the chaos
    ground truth, in deterministic iteration order.
    """
    rng = np.random.default_rng(config.seed)
    events: List[ChaosEvent] = []

    # channel-level dropout: one draw per channel, fixed machine order
    dropped = set(config.dropout_sensors)
    for machine in dataset.iter_machines():
        for channel in machine.channels:
            if rng.random() < config.sensor_dropout_rate:
                dropped.add(channel.sensor_id)

    lines: List[LineRecord] = []
    for line in dataset.lines:
        machines: List[MachineRecord] = []
        for machine in line.machines:
            jobs: List[JobRecord] = []
            for job in machine.jobs:
                phases: List[PhaseRecord] = []
                for phase in job.phases:
                    series = {}
                    for sensor_id, ts in sorted(phase.series.items()):
                        if sensor_id in dropped:
                            series[sensor_id] = ts.replace(
                                values=np.full(len(ts.values), np.nan)
                            )
                            events.append(
                                ChaosEvent(
                                    "dropout", sensor_id, machine.machine_id,
                                    job.job_index, phase.name,
                                    "all samples dropped",
                                )
                            )
                            continue
                        values, applied = _corrupt_trace(ts.values, rng, config)
                        series[sensor_id] = (
                            ts.replace(values=values) if applied else ts
                        )
                        for kind, detail in applied:
                            events.append(
                                ChaosEvent(
                                    kind, sensor_id, machine.machine_id,
                                    job.job_index, phase.name, detail,
                                )
                            )
                    phases.append(
                        PhaseRecord(
                            name=phase.name,
                            job_index=phase.job_index,
                            machine_id=phase.machine_id,
                            start=phase.start,
                            series=series,
                            events=phase.events,
                        )
                    )
                jobs.append(
                    JobRecord(
                        job_index=job.job_index,
                        machine_id=job.machine_id,
                        start=job.start,
                        setup=dict(job.setup),
                        phases=phases,
                        caq=job.caq,
                    )
                )
            machines.append(
                MachineRecord(
                    machine_id=machine.machine_id,
                    line_id=machine.line_id,
                    channels=list(machine.channels),
                    jobs=jobs,
                )
            )
        environment = {}
        for kind, ts in sorted(line.environment.items()):
            channel_id = f"{line.line_id}/env/{kind}"
            if channel_id in dropped:
                environment[kind] = ts.replace(
                    values=np.full(len(ts.values), np.nan)
                )
                events.append(
                    ChaosEvent("dropout", channel_id, detail="all samples dropped")
                )
            else:
                environment[kind] = ts
        lines.append(
            LineRecord(
                line_id=line.line_id, machines=machines, environment=environment
            )
        )
    chaotic = PlantDataset(
        lines=lines,
        faults=list(dataset.faults),
        setup_keys=dataset.setup_keys,
        caq_keys=dataset.caq_keys,
    )
    return chaotic, events


# ----------------------------------------------------------------------
# process-level chaos: SIGKILL at seeded snapshot boundaries
# ----------------------------------------------------------------------
def kill_after_snapshots(n: int) -> Callable[[pathlib.Path], None]:
    """Post-snapshot hook that SIGKILLs this process after the *n*-th write.

    Register the returned callable on a
    :class:`~repro.core.checkpoint.CheckpointManager` (via
    ``add_post_snapshot_hook``) and the process dies with ``SIGKILL`` —
    no atexit, no flushing, no cleanup — immediately after the ``n``-th
    snapshot file has been atomically renamed into place.  That ordering
    is the crash-consistency property under test: the snapshot on disk is
    complete, everything the process did afterwards is lost, and
    ``repro resume`` must reconstruct a byte-identical run from it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    remaining = n

    def hook(path: pathlib.Path) -> None:
        nonlocal remaining
        remaining -= 1
        if remaining <= 0:
            os.kill(os.getpid(), signal.SIGKILL)

    return hook


# ----------------------------------------------------------------------
# detector-level chaos: raising / flaky / hanging wrappers
# ----------------------------------------------------------------------
class _ChaosDetector(MADDetector):
    """MAD with an injected fault that fires before every fit.

    Subclasses implement :meth:`_fault`; it runs on both ways a fit
    happens — the per-series ``_fit_matrix`` and the batched
    ``_batch_score_windows`` kernel — so the fault hits every call the
    pipeline makes, whichever path scores the traces.
    """

    citation = "chaos harness"

    def _fault(self) -> None:
        raise NotImplementedError

    def _fit_matrix(self, X: np.ndarray) -> None:
        self._fault()
        super()._fit_matrix(X)

    def _batch_score_windows(self, windows: np.ndarray) -> np.ndarray:
        self._fault()
        return super()._batch_score_windows(windows)


class RaisingDetector(_ChaosDetector):
    """Always raises: the always-broken detector of the acceptance test.

    Put ``"chaos-raise"`` first in a level's preference list and the
    sandbox must fall back to the next ``ChooseAlgorithm`` candidate for
    every single unit of that level.
    """

    name = "chaos-raise"

    def _fault(self) -> None:
        raise DetectorError("chaos: injected detector failure")


class FlakyDetector(_ChaosDetector):
    """Fails the first ``failures_remaining`` fits, then behaves like MAD.

    The counter is *class-level* because the pipeline instantiates a fresh
    detector per fallback-chain attempt; tests reset it via :meth:`reset`.
    Failures raise plain :class:`DetectorError` — the transient class the
    sandbox retries.
    """

    name = "chaos-flaky"
    failures_remaining: int = 0

    @classmethod
    def reset(cls, failures: int) -> None:
        cls.failures_remaining = failures

    def _fault(self) -> None:
        if type(self).failures_remaining > 0:
            type(self).failures_remaining -= 1
            raise DetectorError("chaos: transient detector failure")


class HangingDetector(_ChaosDetector):
    """Sleeps ``delay`` seconds before fitting: exercises the time budget.

    With a hard-timeout sandbox the call is abandoned mid-sleep; with a
    soft budget it completes but is rejected post hoc.  ``delay`` is
    class-level so tests can shrink it.
    """

    name = "chaos-hang"
    delay: float = 3600.0

    def _fault(self) -> None:
        time.sleep(type(self).delay)


for _cls in (RaisingDetector, FlakyDetector, HangingDetector):
    register_detector(_cls, citation="chaos harness", replace=True)
