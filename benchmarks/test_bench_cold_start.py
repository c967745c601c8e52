"""Cold-start budget — import and simulate, the two start-up layers of ``repro detect``.

Section 5 names calculation speed as a core challenge; for a one-shot
``repro detect`` the wall is mostly start-up.  This bench measures
(a) ``import repro.cli`` in a fresh interpreter under ``-X importtime``
and (b) ``simulate_plant(PlantConfig(seed=7))`` warm, best of 5.

Hard gates: no ``scipy``/``networkx`` module is imported by
``repro.cli``, and both numbers stay inside generous budgets that catch a
heavy import or a numpy-scalar simulator loop coming back, not jitter.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import time

from repro.plant import PlantConfig, simulate_plant

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

IMPORT_BUDGET_S = 1.0
SIMULATE_BUDGET_S = 0.25
HEAVY = ("scipy", "networkx")


def _importtime(stderr: str):
    """(seconds summed over top-level imports, every imported module name)."""
    total = 0.0
    names = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        names.append(name.strip())
        if name.startswith(" ") and not name.startswith("  "):
            # one leading space is the column padding of a top-level entry
            total += int(fields[1]) / 1e6
    return total, names


def test_bench_cold_start(emit):
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    import_s, modules = _importtime(proc.stderr)
    heavy = sorted(m for m in modules if m.split(".")[0] in HEAVY)

    config = PlantConfig(seed=7)
    simulate_plant(config)  # warm
    runs = []
    for _ in range(5):
        t0 = time.perf_counter()
        simulate_plant(config)
        runs.append(time.perf_counter() - t0)
    simulate_s = min(runs)

    lines = [
        "Cold start — import and simulate layers of `repro detect`",
        "",
        f"cpu cores: {os.cpu_count()}",
        f"import repro.cli (-X importtime, top-level cumulative): {import_s:.3f} s "
        f"(budget {IMPORT_BUDGET_S:.2f} s)",
        f"modules imported: {len(modules)}; scipy/networkx among them: {len(heavy)}",
        f"simulate_plant(PlantConfig(seed=7)), warm best of 5: {simulate_s:.3f} s "
        f"(budget {SIMULATE_BUDGET_S:.2f} s)",
    ]
    emit("cold_start", "\n".join(lines))

    assert not heavy, f"import repro.cli loaded {len(heavy)} heavy modules, first {heavy[:5]}"
    assert import_s <= IMPORT_BUDGET_S, f"import {import_s:.3f} s over {IMPORT_BUDGET_S} s"
    assert simulate_s <= SIMULATE_BUDGET_S, (
        f"simulate_plant {simulate_s:.3f} s over {SIMULATE_BUDGET_S} s"
    )
