"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload suite-solve --seed 1 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs an untraced and a traced window and reports the per-layer metrics.
The last line of standard output is
``{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}``;
the line before it holds the run's details (seed, input sizes, tail
percentiles and sample counts, host facts).  The exit code is 1 when any
answer is wrong and 2 when the program's sources are missing.

The benchmark leaves no process behind: it adopts every orphaned
descendant (a service's pool workers, the service's and its own
``multiprocessing`` resource trackers) and, on every way out, waits for
each to end before it exits.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

PR_SET_CHILD_SUBREAPER = 36
#: how long descendants get to end on their own before they are killed
GRACE_S = 30.0


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True,
                    choices=("suite-solve", "parcut-p2", "service-mix", "update-stream"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: smoke-test inputs (used by the benchmark's own tests)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    tally = workloads.Tally()
    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.SIZES[args.size])
    if args.trace:
        metrics, details = workload.trace(args.seconds, tally)
        units = workloads.LAYER_METRICS
    else:
        metrics, details = workload.measure(args.seconds, tally)
        units = workloads.END_TO_END_UNITS
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"workload did not produce {sorted(missing)}")
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "size": args.size, "host": workloads.host_facts(),
               "wrong": tally.wrong, "problems": tally.notes, **details}
    print(json.dumps({"details": details}, default=float))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if tally.wrong == 0 else 1


def adopt_orphans() -> None:
    """Make this process the parent of any descendant whose parent exits
    first, so :func:`reap_descendants` can wait for it (Linux only)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _wait_descendants(deadline: float, keep: int | None = None) -> None:
    """Reap ended children until no descendant but ``keep`` is left; past
    ``deadline``, kill the rest."""
    from service import process_tree

    killed = False
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        left = [pid for pid in process_tree(os.getpid())[1:] if pid != keep]
        if not left:
            return
        if time.monotonic() > deadline and not killed:
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
        time.sleep(0.01)


def reap_descendants() -> None:
    """Wait for every process the run started, then stop this process's
    ``multiprocessing`` resource tracker, which would otherwise outlive it
    by a moment: it ends only when its parent's end of a pipe closes."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    deadline = time.monotonic() + GRACE_S
    _wait_descendants(deadline, keep=tracker._pid)
    if tracker._pid is not None:
        try:
            tracker._stop()  # closes the pipe and waits for the tracker
        except ChildProcessError:  # it had already ended and been reaped
            pass
    _wait_descendants(deadline)


if __name__ == "__main__":
    adopt_orphans()
    try:
        code = main()
    finally:
        reap_descendants()
    sys.exit(code)
