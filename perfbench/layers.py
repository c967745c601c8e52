"""Outside-in layer ledger for the benchmark's traced runs.

The ledger wraps public functions of the program's modules from the
outside and attributes a traced op's wall time to the layer that spent
it.  Nothing in ``src/`` is edited and no span is added there.

* Every module-level alias of a wrapped function is patched, found by
  scanning ``sys.modules`` for the same function object, because modules
  such as ``repro.core.pipeline`` bind ``assess_series`` and friends by
  name at import time.
* A layer whose module, class or function no longer exists is not
  wrapped; its metrics are then reported absent instead of failing.
* Inclusive totals and call counts go to accumulators that can live in
  shared memory, so calls made inside forked process-pool workers are
  counted too.  Self time (a frame's duration minus the time its wrapped
  children cover) is recorded in the owning process only: it is what
  the op's wall time is partitioned into.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (layer, module, attribute path).  Order matters only for readability.
TIMED = (
    ("cli", "repro.cli", "main"),
    ("plant.simulate", "repro.plant.simulate", "simulate_plant"),
    ("pipeline.build", "repro.core.pipeline", "HierarchicalDetectionPipeline.__init__"),
    ("pipeline.ingest", "repro.core.pipeline", "HierarchicalDetectionPipeline.ingest_job"),
    ("pipeline.refresh", "repro.core.pipeline", "PlantHierarchyContext.refresh"),
    ("parallel", "repro.core.parallel", "ParallelEngine.run"),
    ("detectors", "repro.core.resilience", "DetectorSandbox.call"),
    ("resilience.gate", "repro.core.resilience", "assess_series"),
    ("resilience.gate", "repro.core.resilience", "repair_series"),
    ("algorithm", "repro.core.pipeline", "HierarchicalDetectionPipeline.run"),
    ("io.export", "repro.io", "reports_to_json"),
)

#: Detector entry points whose outermost calls count scored series.
SERIES_METHODS = ("fit_score_series", "fit_score_series_batch")

LAYERS = tuple(dict.fromkeys(layer for layer, __, __ in TIMED))
#: Extra counters, by the layer whose wrapper feeds them.
COUNTERS = {
    "plant.samples": "plant.simulate",
    "algorithm.reports": "algorithm",
    "io.report_bytes": "io.export",
}


def _resolve(module: str, path: str) -> Optional[Tuple[object, str, object]]:
    """(owner, attribute, original) of ``module:path``, or None if gone."""
    try:
        owner: object = importlib.import_module(module)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(parts[-1])  # the plain function, not a bound one
    else:
        original = getattr(owner, parts[-1], None)
    if original is None:
        return None
    return owner, parts[-1], original


def _aliases(original: object) -> List[Tuple[object, str]]:
    """Every ``(module, name)`` in ``repro.*`` bound to ``original``."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                found.append((module, attr))
    return found


def _plant_samples(dataset: object) -> int:
    n = 0
    for line in getattr(dataset, "lines", ()):
        for series in line.environment.values():
            n += len(series.values)
        for machine in line.machines:
            for job in machine.jobs:
                for phase in job.phases:
                    n += sum(len(s.values) for s in phase.series.values())
    return n


class Ledger:
    """Wrappers plus the accumulators they write to.

    ``shared=True`` keeps totals in a shared-memory array
    created before any pool forks, so forked workers add to the same
    numbers.  Use :meth:`installed` around the code to attribute and
    :meth:`take` to read and reset what it recorded.
    """

    def __init__(self, shared: bool = False) -> None:
        self._keys = [f"{layer}.{field}" for layer in LAYERS for field in ("n", "s")]
        self._keys += [*COUNTERS, "detectors.series"]
        self._index = {k: i for i, k in enumerate(self._keys)}
        #: Keys some installed wrapper feeds; :meth:`take` reports only these.
        self._live: set = set()
        if shared:
            import multiprocessing

            self._acc = multiprocessing.RawArray("d", len(self._keys))
            self._lock = multiprocessing.Lock()
        else:
            self._acc = [0.0] * len(self._keys)
            self._lock = None
        self._owner = os.getpid()
        self._self: Dict[str, float] = {}
        self._stack: List[List[float]] = []  # [child seconds] per open frame
        self._series_depth = 0
        self._patches: List[Tuple[object, str, object, object]] = []
        #: The pipeline most recently built under the ledger (read by the
        #: CLI child, which has no other handle on it).
        self.last_pipeline: Optional[object] = None
        self._build()

    # -- accumulators ----------------------------------------------------
    def _add(self, key: str, value: float) -> None:
        i = self._index[key]
        if self._lock is None:
            self._acc[i] += value
            return
        with self._lock:
            self._acc[i] += value

    def take(self) -> Dict[str, float]:
        """Totals and self times since the last call; resets both.

        Keys of layers that could not be wrapped are absent.
        """
        out = {k: float(self._acc[i]) for k, i in self._index.items() if k in self._live}
        for i in range(len(self._keys)):
            self._acc[i] = 0.0
        for layer in LAYERS:
            if f"{layer}.n" in self._live:
                out[f"{layer}.self"] = self._self.get(layer, 0.0)
        self._self = {}
        return out

    # -- wrappers --------------------------------------------------------
    def _timed(self, layer: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        n_key, s_key = f"{layer}.n", f"{layer}.s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            owner = os.getpid() == self._owner
            if owner:
                self._stack.append([0.0])
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                self._add(n_key, 1.0)
                self._add(s_key, elapsed)
                if owner:
                    children = self._stack.pop()[0]
                    self._self[layer] = self._self.get(layer, 0.0) + elapsed - children
                    if self._stack:
                        self._stack[-1][0] += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _series(self, fn: Callable, batch: bool) -> Callable:
        @functools.wraps(fn)
        def wrapper(detector, series, *args, **kwargs):
            outermost = self._series_depth == 0
            self._series_depth += 1
            try:
                return fn(detector, series, *args, **kwargs)
            finally:
                self._series_depth -= 1
                if outermost:
                    self._add("detectors.series", float(len(series)) if batch else 1.0)

        return wrapper

    def _build(self) -> None:
        hooks = {
            "plant.simulate": lambda args, ds: self._add("plant.samples", _plant_samples(ds)),
            "pipeline.build": lambda args, __: setattr(self, "last_pipeline", args[0]),
            "algorithm": lambda args, reports: self._add("algorithm.reports", len(reports)),
            "io.export": lambda args, text: self._add("io.report_bytes", len(text)),
        }
        for layer, module, path in TIMED:
            found = _resolve(module, path)
            if found is None:
                continue
            owner, attr, original = found
            wrapper = self._timed(layer, original, hooks.get(layer))
            targets = [(owner, attr)]
            if not isinstance(owner, type):
                targets = _aliases(original)
            self._patches += [(o, a, original, wrapper) for o, a in targets]
            self._live |= {f"{layer}.n", f"{layer}.s"}
            self._live |= {k for k, fed_by in COUNTERS.items() if fed_by == layer}
        base = _resolve("repro.detectors.base", "BaseDetector.fit_score_series")
        if base is None:
            return
        self._live.add("detectors.series")
        classes, todo = [], [base[0]]
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        for cls in classes:
            for attr in SERIES_METHODS:
                original = cls.__dict__.get(attr)
                if original is not None:
                    wrapper = self._series(original, batch=attr.endswith("_batch"))
                    self._patches.append((cls, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, __, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, __ in reversed(self._patches):
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Ledger"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Seconds from ``python -X importtime`` output.

    ``import.total_s`` sums the cumulative time of every top-level import;
    the named packages report their own cumulative time where imported.
    """
    total = 0.0
    named = {"scipy.stats": 0.0, "networkx": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        cumulative = int(fields[1]) / 1e6
        name = fields[2].rstrip()
        stripped = name.lstrip()
        if stripped in named and named[stripped] == 0.0:
            named[stripped] = cumulative
        if name.startswith(" ") and not name.startswith("  "):
            # one leading space is the column padding of a top-level entry
            total += cumulative
    return {
        "import.total_s": total,
        "import.scipy_stats_s": named["scipy.stats"],
        "import.networkx_s": named["networkx"],
    }


def pipeline_snapshot(pipeline: object) -> Dict[str, object]:
    """What :func:`op_record` diffs against for a pipeline that outlives an op."""
    return {
        "spans": len(pipeline.telemetry.tracer.spans),  # type: ignore[attr-defined]
        "stats": pipeline.stats(),  # type: ignore[attr-defined]
    }


def _dig(tree: object, path: str) -> float:
    for part in path.split("."):
        tree = tree.get(part, {}) if isinstance(tree, dict) else {}
    return float(tree) if isinstance(tree, (int, float)) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: Per-op metric <- ledger key, copied when the layer was wrapped.
_FROM_LEDGER = (
    ("detectors.calls", "detectors.n"),
    ("detectors.series", "detectors.series"),
    ("detectors.busy_s", "detectors.s"),
    ("resilience.gate_calls", "resilience.gate.n"),
    ("resilience.gate_s", "resilience.gate.s"),
    ("pipeline.refresh_s", "pipeline.refresh.s"),
    ("parallel.self_s", "parallel.self"),
    ("algorithm.run_s", "algorithm.s"),
    ("algorithm.reports", "algorithm.reports"),
    ("io.export_s", "io.export.s"),
    ("io.report_bytes", "io.report_bytes"),
    ("cli.self_s", "cli.self"),
)

#: ``EngineStats`` transport fields; the transport layer may be gone.
_TRANSPORT = (
    ("shm.bytes_pickled", "bytes_pickled"),
    ("shm.bytes_shared", "bytes_shared"),
    ("shm.encode_s", "transport_encode_seconds"),
    ("shm.decode_s", "transport_decode_seconds"),
)


def op_record(
    raw: Dict[str, float],
    pipeline: Optional[object] = None,
    before: Optional[Dict[str, object]] = None,
) -> Dict[str, float]:
    """Per-layer numbers of one traced op.

    ``raw`` is :meth:`Ledger.take` after the op; ``pipeline`` the
    pipeline the op ran (its ``EngineStats``, ``stats()`` and tracer
    spans are read, never modified); ``before`` a
    :func:`pipeline_snapshot` taken before the op when the pipeline
    existed already, so cumulative counters become per-op deltas.
    The ``attributed_s`` entry is every second spent inside a wrapped
    frame of this process; the caller turns it into
    ``trace.unattributed_s``.
    """
    rec = {name: raw[key] for name, key in _FROM_LEDGER if key in raw}
    if "detectors.series" in rec:
        rec["detectors.series_per_call"] = _ratio(
            rec["detectors.series"], rec.get("detectors.calls", 0.0)
        )
    # the CLI child's interpreter start-up and exit; its parent sets them
    rec["cli.start_s"] = rec["cli.exit_s"] = 0.0
    rec["attributed_s"] = sum(raw.get(f"{layer}.self", 0.0) for layer in LAYERS)
    if raw.get("plant.simulate.n"):
        rec["plant.simulate_s"] = raw["plant.simulate.s"] / raw["plant.simulate.n"]
        rec["plant.samples"] = raw["plant.samples"] / raw["plant.simulate.n"]
    frame_s = sum(raw.get(f"{layer}.self", 0.0) for layer in LAYERS if layer.startswith("pipeline."))
    if pipeline is None:
        rec["pipeline.frame_s"] = frame_s
        return rec

    stats = pipeline.stats()  # type: ignore[attr-defined]
    prev = before["stats"] if before else {}
    span_start = int(before["spans"]) if before else 0  # type: ignore[call-overload]

    def delta(path: str) -> float:
        return _dig(stats, path) - _dig(prev, path)

    spans = pipeline.telemetry.tracer.spans[span_start:]  # type: ignore[attr-defined]
    index_s = sum(s.duration for s in spans if s.name == "pipeline.index")
    rec["pipeline.index_s"] = index_s
    rec["pipeline.frame_s"] = frame_s - index_s
    rec["obs.spans"] = float(len(spans))
    rec["resilience.fallbacks"] = _dig(stats, "health.fallbacks")
    rec["resilience.quarantines"] = _dig(stats, "health.quarantines")
    rec["pipeline.batch_groups"] = delta("parallel.batch_groups")
    rec["pipeline.dirty_tasks"] = delta("incremental.dirty_tasks")
    retained = sum(delta(f"incremental.retained.{k}") for k in stats["incremental"]["retained"])
    evicted = sum(delta(f"incremental.evicted.{k}") for k in stats["incremental"]["evicted"])
    rec["pipeline.retained_ratio"] = _ratio(retained, retained + evicted)
    for table in ("confirm", "support"):
        n = delta(f"cache.{table}.calls")
        rec[f"algorithm.{table}_calls"] = n
        rec[f"algorithm.{table}_hit_ratio"] = _ratio(delta(f"cache.{table}.hits"), n)

    es = pipeline.context.engine_stats()  # type: ignore[attr-defined]
    task_s = es.compute_seconds
    rec["pipeline.tasks"] = float(es.n_tasks)
    rec["pipeline.task_s"] = task_s
    rec["pipeline.self_s"] = (
        task_s - rec.get("detectors.busy_s", 0.0) - rec.get("resilience.gate_s", 0.0)
    )
    phase = sorted(v for k, v in es.task_seconds.items() if k.startswith("phase/"))
    rec["parallel.wall_s"] = es.wall_seconds
    rec["parallel.compute_s"] = task_s
    rec["parallel.cpu_s"] = es.cpu_seconds
    rec["parallel.max_task_s"] = max(es.task_seconds.values(), default=0.0)
    rec["parallel.task_skew"] = _ratio(phase[-1], phase[len(phase) // 2]) if phase else 0.0
    rec["parallel.idle_s"] = es.workers * es.wall_seconds - task_s
    for name, attr in _TRANSPORT:
        value = getattr(es, attr, None)
        if value is not None:
            rec[name] = float(value)
    return rec
