"""Command-line interface: ``repro-mincut`` (or ``python -m repro.cli``).

Reads a graph (METIS ``.graph`` or ``u v [w]`` edge list), runs a chosen
minimum-cut algorithm, and prints the value, optionally the partition, and
solver statistics — a drop-in analogue of the ``mincut`` binary shipped
with the paper's VieCut code base.

Examples::

    repro-mincut graph.metis
    repro-mincut --format edgelist --algorithm parcut --workers 8 edges.txt
    repro-mincut --algorithm hao-orlin --print-side graph.metis
    repro-mincut --algorithm parcut --executor processes --timeout 30 graph.metis
    repro-mincut --algorithm parcut --trace trace.jsonl --metrics-json m.json graph.metis
    repro-mincut --batch manifest.jsonl --pool-size 4 --trace engine.jsonl

Exit codes are distinct per failure mode so scripted callers can branch:
``0`` success, ``2`` invalid input or usage, ``3`` worker/solver timeout,
``4`` worker crash or executor loss (with ``--on-worker-failure fail``),
``5`` solver stalled (no-progress watchdog).

Batch mode (``--batch FILE``) solves a whole manifest through **one**
persistent :class:`~repro.engine.SolverEngine` — one worker pool, one set
of shared-memory planes, one result cache for the entire run.  The
manifest is JSONL (one object per line) or a JSON array; each item names
at least ``{"path": ...}`` and may override ``format``, ``algorithm``,
``deadline`` (seconds), ``rng``, and any solver kwargs.  CLI flags
(``--algorithm``, ``--seed``, ``--pq``, ...) supply the defaults items
don't override.  Every item reports its own status line and exit code;
the process exits 0 only when every item succeeded, otherwise with the
first failing item's code.  ``--trace`` in batch mode records the
*engine-level* event stream (request spans, cache hits, pool recycles).

Update-stream mode (``--updates FILE``, combined with an input PATH)
treats the input graph as *dynamic*: each stream batch
(``{"inserts": [[u, v, w?], ...], "deletes": [[u, v], ...]}``, JSONL or a
JSON array) is applied through :meth:`~repro.engine.SolverEngine.update`,
which re-solves warm from the previous cut (fast-path / seeded / cold —
see :mod:`repro.dynamic`).  One status line per batch reports the warm
mode and the new minimum-cut value; ``--trace`` records ``graph_update``
and ``warm_solve`` events alongside the engine stream.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .core.api import ALGORITHMS, TRACEABLE_ALGORITHMS, minimum_cut
from .core.capforest import KERNELS
from .core.parallel_capforest import EXECUTORS
from .graph.io import read_edge_list, read_metis
from .runtime.errors import (
    ExecutorUnavailable,
    NoProgressError,
    RuntimeFault,
    WorkerTimeout,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_TIMEOUT = 3
EXIT_WORKER_FAILURE = 4
EXIT_NO_PROGRESS = 5


def exit_code_for(exc: RuntimeFault) -> int:
    """Map a runtime fault to the CLI's distinct nonzero exit codes."""
    if isinstance(exc, WorkerTimeout):
        return EXIT_TIMEOUT
    if isinstance(exc, NoProgressError):
        return EXIT_NO_PROGRESS
    if isinstance(exc, ExecutorUnavailable):
        return EXIT_TIMEOUT if exc.dominant_kind == "timeout" else EXIT_WORKER_FAILURE
    return EXIT_WORKER_FAILURE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro-mincut",
        description="Exact (and inexact) minimum cuts — Henzinger, Noe & Schulz reproduction.",
    )
    ap.add_argument("path", nargs="?", default=None, help="input graph file")
    ap.add_argument(
        "--batch",
        metavar="FILE",
        default=None,
        help="solve a manifest of graphs (JSONL or JSON array of items "
        "with at least a 'path') through one persistent solver engine; "
        "prints a status line and exit code per item",
    )
    ap.add_argument(
        "--updates",
        metavar="FILE",
        default=None,
        help="apply an edge-update stream (JSONL or JSON array of "
        "{'inserts': [[u,v,w?],..], 'deletes': [[u,v],..]} batches) to the "
        "input graph through one persistent engine, re-solving warm after "
        "each batch; prints a status line per batch",
    )
    ap.add_argument(
        "--pool-size",
        type=int,
        default=2,
        metavar="N",
        help="persistent engine workers for --batch (0 = solve in-process; "
        "default: 2)",
    )
    ap.add_argument(
        "--format",
        choices=("metis", "edgelist"),
        default="metis",
        help="input format (default: metis)",
    )
    ap.add_argument(
        "--algorithm",
        choices=sorted(ALGORITHMS),
        default="noi-viecut",
        help="solver (default: noi-viecut, NOIλ̂-BQueue-VieCut)",
    )
    ap.add_argument("--pq", choices=("bstack", "bqueue", "heap"), default=None,
                    help="priority queue for noi/parcut variants "
                    "(default: bqueue; heap when unbounded)")
    ap.add_argument("--kernel", choices=KERNELS, default=None,
                    help="CAPFOREST relaxation kernel for noi/parcut variants "
                    "(identical results; vector batches relaxations via numpy; "
                    "default: vector)")
    ap.add_argument("--workers", type=int, default=None, help="parallel workers (parcut)")
    ap.add_argument(
        "--executor",
        choices=EXECUTORS,
        default=None,
        help="parallel executor (parcut)",
    )
    ap.add_argument("--seed", type=int, default=0, help="random seed")
    ap.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-round deadline for parallel workers (parcut/matula); "
        "exit code 3 on timeout with --on-worker-failure fail",
    )
    ap.add_argument(
        "--on-worker-failure",
        choices=("degrade", "fail"),
        default=None,
        help="degrade: tolerate lost workers and fall back "
        "processes→serial (default); fail: abort on the first "
        "worker loss with a distinct exit code",
    )
    ap.add_argument("--print-side", action="store_true", help="print the smaller cut side")
    ap.add_argument(
        "--all-cuts",
        action="store_true",
        help="build the cactus of ALL minimum cuts (exact algorithms only); "
        "prints the distinct-cut count and enables cactus stats",
    )
    ap.add_argument(
        "--most-balanced",
        action="store_true",
        help="implies --all-cuts; report (and use as the cut side) the "
        "minimum cut with the smallest side-size imbalance",
    )
    ap.add_argument("--stats", action="store_true", help="print solver statistics")
    ap.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a structured JSONL event trace (round spans, λ̂ updates "
        "with provenance, worker/degradation events) to PATH; only the "
        f"traceable algorithms support it: {', '.join(TRACEABLE_ALGORITHMS)}",
    )
    ap.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=None,
        help="write a machine-readable metrics document (schema_version, "
        "value, seconds, full solver stats, trace summary) to PATH",
    )
    return ap


def _load_manifest(path: str) -> list[dict]:
    """Parse a batch manifest: a JSON array, or JSONL (one item per line)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("["):
        items = json.loads(text)
    else:
        items = [
            json.loads(line) for line in text.splitlines() if line.strip()
        ]
    if not isinstance(items, list) or not items:
        raise ValueError("manifest contains no items")
    for i, item in enumerate(items):
        if not isinstance(item, dict) or "path" not in item:
            raise ValueError(f"manifest item {i} has no 'path': {item!r}")
    return items


def _batch_exit_code(exc: BaseException) -> int:
    """One item's exit code, mirroring the single-solve mapping."""
    if isinstance(exc, RuntimeFault):
        return exit_code_for(exc)
    return EXIT_INVALID_INPUT


def _solver_kwargs(args) -> dict:
    """The solver keywords the flags set, the same in every mode.

    ``--timeout`` is the solver's per-round deadline, except with
    ``--updates``, where it is each batch's engine deadline instead.
    """
    kwargs: dict = {"rng": args.seed}
    for flag, key in (("pq", "pq_kind"), ("kernel", "kernel"),
                      ("workers", "workers"), ("executor", "executor"),
                      ("on_worker_failure", "on_worker_failure")):
        if getattr(args, flag) is not None:
            kwargs[key] = getattr(args, flag)
    if args.timeout is not None and args.updates is None:
        kwargs["timeout"] = args.timeout
    if args.all_cuts or args.most_balanced:
        kwargs["all_cuts"] = True
    if args.most_balanced:
        kwargs["most_balanced"] = True
    return kwargs


def _run_batch(args, tracer) -> int:
    """Solve every manifest item through one persistent engine."""
    from .engine import SolverEngine

    try:
        items = _load_manifest(args.batch)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error reading manifest {args.batch}: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT

    defaults = _solver_kwargs(args)
    codes = [EXIT_OK] * len(items)
    t0 = time.perf_counter()
    with SolverEngine(pool_size=args.pool_size, tracer=tracer,
                      default_algorithm=args.algorithm) as engine:
        futures: list = [None] * len(items)
        for i, item in enumerate(items):
            item = dict(item)
            path = item.pop("path")
            fmt = item.pop("format", args.format)
            algorithm = item.pop("algorithm", None)
            deadline = item.pop("deadline", None)
            reader = read_metis if fmt == "metis" else read_edge_list
            try:
                graph = reader(path)
                kwargs = {**defaults, **item}
                futures[i] = engine.submit(
                    graph, algorithm, deadline=deadline, **kwargs
                )
            except (OSError, ValueError, TypeError) as exc:
                codes[i] = EXIT_INVALID_INPUT
                print(f"batch[{i}] {path} exit={EXIT_INVALID_INPUT} error: {exc}")
        for i, fut in enumerate(futures):
            if fut is None:
                continue
            path = items[i]["path"]
            try:
                res = fut.result()
            except Exception as exc:  # noqa: BLE001 - mapped to per-item codes
                codes[i] = _batch_exit_code(exc)
                print(f"batch[{i}] {path} exit={codes[i]} error: {exc}")
            else:
                cuts = "" if res.cactus is None else f" min-cuts={res.num_min_cuts()}"
                print(
                    f"batch[{i}] {path} exit=0 algorithm={res.algorithm} "
                    f"mincut={res.value}{cuts}"
                )
        stats = engine.stats()
    elapsed = time.perf_counter() - t0
    failed = sum(1 for c in codes if c != EXIT_OK)
    print(
        f"batch     {len(items)} items, {failed} failed, {elapsed:.4f}s, "
        f"cache hits {stats['cache']['hits']}, "
        f"pool recycles {stats['pool']['recycles']}"
    )
    if tracer is not None:
        tracer.close()
    return next((c for c in codes if c != EXIT_OK), EXIT_OK)


def _load_update_stream(path: str) -> list[dict]:
    """Parse an update stream: a JSON array, or JSONL (one batch per line)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("["):
        batches = json.loads(text)
    else:
        batches = [
            json.loads(line) for line in text.splitlines() if line.strip()
        ]
    if not isinstance(batches, list) or not batches:
        raise ValueError("update stream contains no batches")
    for i, batch in enumerate(batches):
        if not isinstance(batch, dict):
            raise ValueError(f"update batch {i} is not an object: {batch!r}")
        if not isinstance(batch.get("inserts", []), list) or not isinstance(
            batch.get("deletes", []), list
        ):
            raise ValueError(f"update batch {i} inserts/deletes must be lists")
    return batches


def _run_updates(args, tracer) -> int:
    """Stream mode: apply every batch through one engine, re-solving warm."""
    from .dynamic import EdgeUpdateError
    from .dynamic.graph import DynamicGraph
    from .engine import SolverEngine

    reader = read_metis if args.format == "metis" else read_edge_list
    try:
        graph = reader(args.path)
        batches = _load_update_stream(args.updates)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT

    kwargs = _solver_kwargs(args)
    codes = [EXIT_OK] * (len(batches) + 1)
    t0 = time.perf_counter()
    with SolverEngine(pool_size=args.pool_size, tracer=tracer,
                      default_algorithm=args.algorithm) as engine:
        dyn = DynamicGraph(graph)
        stream = [({}, "initial")] + [(b, f"update[{i}]") for i, b in
                                      enumerate(batches)]
        for i, (batch, label) in enumerate(stream):
            try:
                res = engine.update(
                    dyn, batch.get("inserts", ()), batch.get("deletes", ()),
                    deadline=batch.get("deadline", args.timeout), **kwargs,
                )
            except (EdgeUpdateError, ValueError, TypeError) as exc:
                codes[i] = EXIT_INVALID_INPUT
                print(f"{label} exit={EXIT_INVALID_INPUT} error: {exc}")
            except RuntimeFault as exc:
                codes[i] = exit_code_for(exc)
                print(f"{label} exit={codes[i]} error: {exc}")
            else:
                warm = res.stats.get("warm") or {}
                cuts = "" if res.cactus is None else f" min-cuts={res.num_min_cuts()}"
                print(
                    f"{label} exit=0 mode={warm.get('mode', '?')} "
                    f"mincut={res.value} n={dyn.graph.n} m={dyn.graph.m}{cuts}"
                )
        stats = engine.stats()
    elapsed = time.perf_counter() - t0
    failed = sum(1 for c in codes if c != EXIT_OK)
    print(
        f"updates   {len(batches)} batches, {failed} failed, {elapsed:.4f}s, "
        f"fast-path {stats['updates_fast_path']}, "
        f"seeded {stats['updates_seeded']}, cold {stats['updates_cold']}"
    )
    if tracer is not None:
        tracer.close()
    return next((c for c in codes if c != EXIT_OK), EXIT_OK)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.updates is not None and (args.path is None or args.batch is not None):
        print("error: --updates needs an input PATH and excludes --batch",
              file=sys.stderr)
        return EXIT_INVALID_INPUT
    if args.updates is None and (args.path is None) == (args.batch is None):
        print("error: exactly one of PATH or --batch is required", file=sys.stderr)
        return EXIT_INVALID_INPUT
    if args.batch is not None or args.updates is not None:
        if args.metrics_json is not None or args.print_side:
            print(
                "error: --metrics-json/--print-side are single-solve only, "
                "not available with --batch/--updates",
                file=sys.stderr,
            )
            return EXIT_INVALID_INPUT
        tracer = None
        if args.trace is not None:
            from .observability import Tracer

            try:
                tracer = Tracer(sink=args.trace)
            except OSError as exc:
                print(f"error opening trace sink {args.trace}: {exc}", file=sys.stderr)
                return EXIT_INVALID_INPUT
        if args.updates is not None:
            return _run_updates(args, tracer)
        return _run_batch(args, tracer)
    reader = read_metis if args.format == "metis" else read_edge_list
    try:
        graph = reader(args.path)
    except (OSError, ValueError) as exc:
        print(f"error reading {args.path}: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT

    kwargs = _solver_kwargs(args)
    tracer = None
    if args.trace is not None or args.metrics_json is not None:
        if args.algorithm not in TRACEABLE_ALGORITHMS:
            print(
                f"error: --trace/--metrics-json require a traceable algorithm "
                f"({', '.join(TRACEABLE_ALGORITHMS)}), not {args.algorithm!r}",
                file=sys.stderr,
            )
            return EXIT_INVALID_INPUT
        from .observability import Tracer

        try:
            tracer = Tracer(sink=args.trace)
        except OSError as exc:
            print(f"error opening trace sink {args.trace}: {exc}", file=sys.stderr)
            return EXIT_INVALID_INPUT
        kwargs["tracer"] = tracer

    t0 = time.perf_counter()
    try:
        result = minimum_cut(graph, algorithm=args.algorithm, **kwargs)
    except RuntimeFault as exc:
        print(f"error: {exc}", file=sys.stderr)
        if tracer is not None:
            tracer.close()
        return exit_code_for(exc)
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if tracer is not None:
            tracer.close()
        return EXIT_INVALID_INPUT
    elapsed = time.perf_counter() - t0

    print(f"graph     n={graph.n} m={graph.m}")
    print(f"algorithm {result.algorithm}")
    print(f"mincut    {result.value}")
    print(f"time      {elapsed:.4f}s")
    if result.cactus is not None:
        print(f"min-cuts  {result.num_min_cuts()}")
        if args.most_balanced:
            info = result.stats["most_balanced"]
            print(
                f"balance   {info['smaller_side_size']}/{info['larger_side_size']} "
                f"(imbalance {info['imbalance']})"
            )
    if args.print_side and result.side is not None:
        small = result.smaller_side()
        print(f"side      {' '.join(map(str, small))}")
    for event in result.stats.get("degradations") or []:
        print(f"warning   degraded: {event}", file=sys.stderr)
    if args.stats:
        for key, value in sorted(result.stats.items()):
            print(f"stat      {key}={value}")

    if tracer is not None:
        tracer.close()
        if args.metrics_json is not None:
            from .observability import STATS_SCHEMA_VERSION, jsonable

            metrics = {
                "schema_version": STATS_SCHEMA_VERSION,
                "algorithm": result.algorithm,
                "instance": args.path,
                "n": graph.n,
                "m": graph.m,
                "value": result.value,
                "seconds": round(elapsed, 6),
                "stats": result.stats,
                "trace_summary": tracer.summary(),
            }
            try:
                with open(args.metrics_json, "w", encoding="utf-8") as fh:
                    json.dump(metrics, fh, indent=2, default=jsonable)
                    fh.write("\n")
            except OSError as exc:
                print(f"error writing {args.metrics_json}: {exc}", file=sys.stderr)
                return EXIT_INVALID_INPUT
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
