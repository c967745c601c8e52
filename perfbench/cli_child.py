"""Traced ``repro`` CLI op: ``python -X importtime cli_child.py LEDGER_OUT ARGS...``.

Imports the modules ``repro detect`` loads, wraps their layers with the
ledger, runs ``repro.cli.main(ARGS)`` in this process and writes the
op's per-layer record to ``LEDGER_OUT``, with ``time.perf_counter``
stamps (a system-wide monotonic clock on Linux) that let the parent
split the subprocess wall time into start-up, import, the CLI, this
script's own bookkeeping, and exit.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import layers  # noqa: E402

# Everything `repro detect` imports lazily, loaded before the ledger wraps
# it so that no import is timed inside a wrapped frame as well.
import repro.cli  # noqa: E402
import repro.core  # noqa: E402
import repro.io  # noqa: E402
import repro.obs  # noqa: E402
import repro.plant  # noqa: E402

IMPORTED = time.perf_counter()


def main(ledger_out: str, argv: list) -> int:
    ledger = layers.Ledger()
    with ledger.installed():
        main_started = time.perf_counter()
        code = repro.cli.main(argv)
        main_ended = time.perf_counter()
    record = layers.op_record(ledger.take(), ledger.last_pipeline)
    record["stamps"] = {
        "started": STARTED,
        "imported": IMPORTED,
        "main_started": main_started,
        "main_ended": main_ended,
        "ended": time.perf_counter(),
    }
    with open(ledger_out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
