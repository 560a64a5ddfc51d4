"""``python -m repro.service`` with the layer spans of ``tracing.py`` installed.

Usage: ``python perfbench/traced_service.py --spans-out PATH [service args]``.

The wrappers are installed before the service builds its engine, so the
event loop, the request threads and the engine dispatcher all record into
one :class:`tracing.Recorder`.  Each SIGUSR1 writes a snapshot of the
totals to ``PATH.<k>`` (k = 1, 2, ...), which lets the benchmark subtract
the totals at the start of its window from those at the end.  Solves that
run in the engine's pool processes are not recorded here; the service's
own ``--trace`` events cover them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracing import SERVICE_PATCHES, SOLVER_OBSERVERS, SOLVER_PATCHES, Recorder  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans-out", required=True, type=Path)
    args, service_args = ap.parse_known_args()
    recorder = Recorder().install(SERVICE_PATCHES + SOLVER_PATCHES, SOLVER_OBSERVERS)
    numbers = itertools.count(1)

    def dump(*_):
        path = args.spans_out.with_name(f"{args.spans_out.name}.{next(numbers)}")
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(recorder.snapshot()))
        os.replace(tmp, path)

    signal.signal(signal.SIGUSR1, dump)
    from repro.service.__main__ import main as serve

    return serve(service_args)


if __name__ == "__main__":
    raise SystemExit(main())
