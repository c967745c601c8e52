"""Repository benchmark: end-to-end and per-layer timings of ``repro``.

Run from the repository root::

    python3 perfbench/run.py --workload plant-serial --seed 1 --seconds 22 --trace 0

``--trace 0`` times ops untraced and prints the end-to-end metrics;
``--trace 1`` alternates traced and untraced ops and prints the per-layer
metrics (see ``perfbench/README.md``).  Every metric is printed by name
with its unit; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: No run times fewer ops than this, however long each op takes.
MIN_OPS = 5
#: Once the time is up, a run keeps going to the end of the pool rotation
#: (:meth:`workloads.Workload.rotation`), so its op mix does not depend on
#: how fast the machine was.
WHOLE_ROTATIONS = True
#: A tail percentile is reported only with at least this many ops beyond it.
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "hier_ap": "ratio",
    "hier_p5": "ratio",
    "support_gap": "ratio",
}

PER_LAYER = {
    "import.total_s": "s",
    "import.scipy_stats_s": "s",
    "import.networkx_s": "s",
    "plant.simulate_s": "s",
    "plant.samples": "count",
    "detectors.calls": "count",
    "detectors.series": "count",
    "detectors.series_per_call": "ratio",
    "detectors.busy_s": "s",
    "resilience.gate_calls": "count",
    "resilience.gate_s": "s",
    "resilience.fallbacks": "count",
    "resilience.quarantines": "count",
    "pipeline.tasks": "count",
    "pipeline.task_s": "s",
    "pipeline.self_s": "s",
    "pipeline.index_s": "s",
    "pipeline.frame_s": "s",
    "pipeline.batch_groups": "count",
    "pipeline.refresh_s": "s",
    "pipeline.dirty_tasks": "count",
    "pipeline.retained_ratio": "ratio",
    "parallel.wall_s": "s",
    "parallel.compute_s": "s",
    "parallel.cpu_s": "s",
    "parallel.max_task_s": "s",
    "parallel.task_skew": "ratio",
    "parallel.idle_s": "s",
    "parallel.self_s": "s",
    "shm.bytes_pickled": "bytes",
    "shm.bytes_shared": "bytes",
    "shm.encode_s": "s",
    "shm.decode_s": "s",
    "algorithm.run_s": "s",
    "algorithm.confirm_calls": "count",
    "algorithm.confirm_hit_ratio": "ratio",
    "algorithm.support_calls": "count",
    "algorithm.support_hit_ratio": "ratio",
    "algorithm.reports": "count",
    "io.export_s": "s",
    "io.report_bytes": "bytes",
    "obs.spans": "count",
    "cli.self_s": "s",
    "cli.start_s": "s",
    "cli.exit_s": "s",
    "trace.op_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
}

#: The program's modules the benchmark calls, imported in set-up.
PROGRAM_MODULES = ("repro.cli", "repro.core", "repro.io", "repro.plant", "repro.eval")


def import_program() -> float:
    """Import the program from ``src/`` of this checkout; seconds taken."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program at {src}/repro; run from a repository checkout")
    if src not in sys.path:
        sys.path.insert(0, src)
    started = time.perf_counter()
    for module in PROGRAM_MODULES:
        __import__(module)
    return time.perf_counter() - started


def import_layers(env_src: str) -> Dict[str, float]:
    """``import.*`` of a fresh interpreter importing :data:`PROGRAM_MODULES`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (env_src, os.environ.get("PYTHONPATH", "")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import " + ", ".join(PROGRAM_MODULES)],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=120, check=True,
    )
    return layers.parse_importtime(proc.stderr)


def tail(walls: List[float]) -> Optional[tuple]:
    """(percentile, value, ops beyond) of the highest percentile with at
    least :data:`TAIL_BEYOND` ops beyond it, nearest-rank; None if none."""
    ordered = sorted(walls)
    n = len(ordered)
    for pct in (99, 95, 90, 75, 50):
        rank = -(-pct * n // 100)  # ceil
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1], n - rank
    return None


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(name: str, seed: int, seconds: float, trace: bool, tamper=None) -> Dict[str, object]:
    """One benchmark run; returns the result object printed last.

    ``tamper``, when given, is called with the workload after set-up; the
    self-tests use it to corrupt a reference.
    """
    import_s = import_program()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        wl = workloads.WORKLOADS[name](ROOT, seed, tmp)
        ledger = None
        if trace and name != "cli-cold":
            ledger = layers.Ledger(shared=name == "plant-process")
        setup_raw: Dict[str, float] = {}
        if ledger is not None:
            with ledger.installed():
                samples = wl.setup()
            setup_raw = ledger.take()
        else:
            samples = wl.setup()
        if tamper is not None:
            tamper(wl)
        setup_s = import_s + statistics.median(samples)

        attempted = failed = 0
        first_error: Optional[str] = None

        def one(i: int, traced: bool):
            nonlocal attempted, failed, first_error
            before = None
            live = wl.live_pipeline()
            if traced and live is not None:
                before = layers.pipeline_snapshot(live)
            if traced and ledger is not None:
                ledger.install()
            wl.traced = traced
            started = time.perf_counter()
            try:
                out = wl.op(i)
            except Exception:  # noqa: BLE001 - a raising op is a failed op
                out = None
                first_error = first_error or traceback.format_exc()
            wall = time.perf_counter() - started
            if traced and ledger is not None:
                ledger.uninstall()
            attempted += 1
            if out is None:
                failed += 1
                return wall, None
            record = None
            if traced:
                if ledger is None:
                    record, outside = workloads.layer_raw_cli(out)
                else:
                    record, outside = layers.op_record(ledger.take(), wl.pipeline(out), before), 0.0
                if record is not None:
                    record["trace.op_wall_s"] = wall
                    record["trace.unattributed_s"] = wall - outside - record.pop("attributed_s")
            failed += wl.check(i, out)
            return wall, record

        i = 0
        if wl.warm:
            one(i, False)
            i += 1
        # The inputs and references held by the benchmark are not program
        # state: freeze them so that neither the per-op collection below
        # nor the program's own collections during an op scan them.
        gc.collect()
        gc.freeze()
        walls: List[float] = []
        traced_walls: List[float] = []
        records: List[Dict[str, float]] = []
        jobs = 0
        started = time.perf_counter()
        k = 0
        rotation = wl.rotation() if WHOLE_ROTATIONS else 1
        try:
            while (
                k < MIN_OPS
                or time.perf_counter() - started < seconds
                or k % rotation
            ):
                gc.collect()
                traced = trace and k % 2 == 1
                wall, record = one(i, traced)
                if traced:
                    traced_walls.append(wall)
                    if record is not None:
                        records.append(record)
                else:
                    walls.append(wall)
                    jobs += wl.jobs(i)
                i += 1
                k += 1
        finally:
            gc.unfreeze()

        info = {
            "workload": f"{name}: {wl.describe()}",
            "seed": seed,
            "nproc": os.cpu_count(),
            "timed ops": len(walls),
            "error_rate": f"{failed}/{attempted} = {failed / attempted:.4f}",
        }
        found = tail(walls)
        info["op_tail_s"] = (
            f"p{found[0]} = {found[1]:.4f} s ({found[2]} of {len(walls)} ops beyond)"
            if found else f"n/a ({len(walls)} ops; needs {2 * TAIL_BEYOND}+)"
        )
        if first_error:
            print(first_error, file=sys.stderr)

        metrics: Dict[str, float] = {}
        if not trace:
            metrics["setup_s"] = setup_s
            metrics["op_p50_s"] = statistics.median(walls)
            metrics["jobs_per_s"] = jobs / sum(walls)
            metrics.update(workloads.quality(wl))
            metrics["peak_rss_mb"] = peak_rss_mb()
            units = END_TO_END
        else:
            for key in {key for record in records for key in record}:
                values = [record[key] for record in records if key in record]
                metrics[key] = sum(values) / len(values)
            if ledger is not None:
                metrics.update(import_layers(os.path.join(ROOT, "src")))
                n_sim = setup_raw.get("plant.simulate.n", 0.0)
                if n_sim:
                    metrics["plant.simulate_s"] = setup_raw["plant.simulate.s"] / n_sim
                    metrics["plant.samples"] = setup_raw["plant.samples"] / n_sim
            if walls and traced_walls:
                metrics["trace.overhead_ratio"] = (
                    statistics.median(traced_walls) / statistics.median(walls)
                )
            units = PER_LAYER
    return {
        "info": info,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": metrics[key], "unit": unit} for key, unit in units.items() if key in metrics
        },
    }


def stop_resource_tracker() -> None:
    """Stop and reap the ``multiprocessing`` resource tracker, if running.

    Shared memory and semaphores (the program's process-pool transport,
    the shared ledger) start a tracker process that would otherwise
    outlive the benchmark until it notices the closed pipe.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_resource_tracker()
    for key, value in result.pop("info").items():
        print(f"# {key}: {value}")
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
