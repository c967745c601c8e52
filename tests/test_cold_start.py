"""Cold start: the default ``repro detect`` path loads neither scipy nor networkx.

Process start-up is part of the wall time of ``repro detect``.  The three
scipy functions the package calls (``ndtr``, ``ndtri``, ``chdtrc``) and the
single-linkage clustering import scipy inside the function that needs it,
so a default run never pays for it.  Checked in a fresh interpreter, since
the test session itself has long imported scipy.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

HEAVY = ("scipy", "networkx")

_CHILD = """
import json, sys

def heavy():
    return sorted(m for m in sys.modules if m.split(".")[0] in {heavy_roots!r})

import repro.cli
after_import = heavy()
rc = repro.cli.main(["detect", "--seed", "7", "--json", sys.argv[1]])
print("COLD-START " + json.dumps({{"rc": rc, "import": after_import, "detect": heavy()}}))
"""


def _run_child(tmp_path: pathlib.Path) -> dict:
    out = tmp_path / "reports.json"
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD.format(heavy_roots=set(HEAVY)), str(out)],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    line = next(ln for ln in proc.stdout.splitlines() if ln.startswith("COLD-START "))
    result = json.loads(line[len("COLD-START "):])
    assert json.loads(out.read_text())["reports"], "detect wrote no reports"
    return result


def _loaded(modules: list) -> str:
    return f"{len(modules)} modules, first {modules[:5]}"


def test_default_detect_loads_no_scipy_or_networkx(tmp_path):
    result = _run_child(tmp_path)
    assert result["rc"] == 0
    assert result["import"] == [], "import repro.cli loaded " + _loaded(result["import"])
    assert result["detect"] == [], "repro detect loaded " + _loaded(result["detect"])
