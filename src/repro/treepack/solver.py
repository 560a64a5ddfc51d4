"""``karger-nlt``: exact minimum cut by tree packing + 2-respecting cuts.

The second algorithm family of the package (Karger, "Minimum Cuts in
Near-Linear Time"; Anderson–Blelloch parallelise the same semi-duality):
instead of NOI's contraction loop, pack spanning trees until their
fractional value certifiably exceeds ``λ̂/3``, then take the best 1- or
2-respecting cut over every packed tree.

Why that is exact (the counting argument, Karger Lemma 2.3 shape): let
``P`` be a packing of value ``p`` and ``C`` a minimum cut of value ``λ``.
Summing the packing constraint over the edges of ``C``, the weighted
average number of times a tree crosses ``C`` is at most ``λ/p``; every
spanning tree crosses at least once, so if a weight-fraction ``f`` of
trees crosses three or more times then ``1 + 2f ≤ λ/p``.  With
``p > λ/3`` this forces ``f < 1`` — some tree with positive weight
crosses at most twice, i.e. the minimum cut 1- or 2-respects it, and the
exhaustive per-tree dynamic program (:mod:`repro.treepack.respect`) will
find it.  The driver therefore alternates *pack a round of trees* →
*evaluate the new distinct trees* → *check the integer certificate
``3·k·c* > λ̂·ℓ*``* until certified (λ̂ only ever decreases, the packing
bound only grows toward ``τ ≥ λ/2``, so termination is guaranteed).

Per-tree evaluations are independent, so each round fans them out through
the supervised runtime executor ladder (``processes → threads → serial``);
trees lost with a worker are re-evaluated inline, which keeps the
certificate honest — exactness never depends on every worker surviving.

Determinism: the only randomness is the Kruskal tie-break permutation,
drawn from a seedable generator.  An integer ``rng`` makes the whole
solve — values, sides, stats, trace — a pure function of the input, which
is what lets the engine cache ``karger-nlt`` requests by key.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..graph.components import connected_components
from ..graph.csr import Graph
from ..core.result import MinCutResult
from ..observability.schema import TREEPACK_PHASES, TREEPACK_STATS_KEYS
from ..runtime.supervisor import (
    call_with_degradation,
    raise_for_events,
    supervise_processes,
)
from .packing import TreePacking
from .respect import _INF, evaluate_tree

__all__ = ["karger_nlt_mincut", "TREEPACK_PHASES", "TREEPACK_STATS_KEYS"]

#: executors accepted by :func:`karger_nlt_mincut`
EXECUTORS = ("serial", "threads", "processes")


def default_trees_per_round(n: int) -> int:
    """Trees packed per certification round — ``Θ(log n)``, floor 4."""
    return max(4, int(np.ceil(np.log2(max(n, 2)))))


def karger_nlt_mincut(
    graph: Graph,
    *,
    rng: np.random.Generator | int | None = 0,
    trees_per_round: int | None = None,
    max_rounds: int = 64,
    executor: str = "serial",
    workers: int | None = None,
    timeout: float | None = None,
    on_worker_failure: str = "degrade",
    compute_side: bool = True,
    tracer=None,
) -> MinCutResult:
    """Exact minimum cut of ``graph`` via tree packing (``karger-nlt``).

    Parameters
    ----------
    graph:
        Weighted undirected graph with ``n >= 2``; disconnected graphs
        return a cut of value 0.
    rng:
        Seed or generator for the packing tie-break.  Defaults to ``0``:
        deterministic out of the box, and — as an integer — cacheable by
        the engine's request keys (a live generator is an
        ``UnkeyableRequest`` there, by design).
    trees_per_round:
        Trees packed per certification round (default ``Θ(log n)``).
    max_rounds:
        Safety cap on certification rounds.  The certificate loop
        terminates on its own (see module docstring); the cap only bounds
        pathological inputs, and blowing it is recorded as
        ``stats["certified"] = False`` rather than hidden.
    executor, workers, timeout, on_worker_failure:
        Per-tree evaluation fan-out through the supervised runtime ladder
        (``processes → threads → serial``), with the same degradation
        semantics as ``parcut``: lost workers are events, not wrong
        answers — their trees are re-evaluated inline.
    compute_side:
        Track the certified cut side (mask over original vertices).
    tracer:
        Optional :class:`repro.observability.Tracer`; emits
        ``treepack_round`` / ``treepack_tree`` events plus the shared
        ``solve_start`` / ``lambda_update`` / ``solve_end`` span.
    """
    n = graph.n
    if n < 2:
        raise ValueError(f"minimum cut requires at least 2 vertices, got {n}")
    if executor not in EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}; expected one of {EXECUTORS}")
    if on_worker_failure not in ("degrade", "fail"):
        raise ValueError(
            f"on_worker_failure must be 'degrade' or 'fail', got {on_worker_failure!r}"
        )
    seed = int(rng) if isinstance(rng, (int, np.integer)) else None
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)
    if workers is None:
        workers = min(4, os.cpu_count() or 1)
    workers = max(1, int(workers))

    stats: dict = {
        "stats_schema": 2,
        "seed": seed,
        "rounds": 0,
        "trees_packed": 0,
        "trees_evaluated": 0,
        "distinct_trees": 0,
        "packing_value_lb": 0.0,
        "certified": False,
        "min_degree_bound": None,
        "one_respect_min": None,
        "two_respect_min": None,
        "executor": executor,
        "final_executor": executor,
        "workers": workers,
        "worker_events": [],
        "degradations": [],
        "phase_seconds": {phase: 0.0 for phase in TREEPACK_PHASES},
    }
    if tracer is not None:
        tracer.emit(
            "solve_start", algorithm="karger-nlt", n=n, m=graph.m,
            executor=executor, workers=workers,
            trees_per_round=trees_per_round or default_trees_per_round(n),
        )

    ncomp, comp_labels = connected_components(graph)
    if ncomp > 1:
        side = comp_labels == 0 if compute_side else None
        stats["certified"] = True  # value 0 is trivially minimum
        if tracer is not None:
            tracer.lambda_update(0, "disconnected", components=ncomp)
            tracer.emit("solve_end", value=0, rounds=0)
        return MinCutResult(0, side, n, "karger-nlt", stats)

    v0, deg0 = graph.min_weighted_degree()
    best_value = deg0
    best_side: np.ndarray | None = None
    if compute_side:
        best_side = np.zeros(n, dtype=bool)
        best_side[v0] = True
    stats["min_degree_bound"] = deg0
    if tracer is not None:
        tracer.lambda_update(best_value, "min-degree", vertex=int(v0))

    us, vs, ws = graph.edge_arrays()
    packing = TreePacking(n, us, vs, ws, rng)
    per_round = trees_per_round or default_trees_per_round(n)
    seen: set[tuple[int, ...]] = set()
    one_min = two_min = _INF

    def on_degrade(frm: str, to: str, exc: BaseException) -> None:
        stats["degradations"].append(
            {"stage": "treepack-dp", "from": frm, "to": to, "reason": str(exc)}
        )

    while stats["rounds"] < max_rounds:
        stats["rounds"] += 1
        t0 = time.perf_counter()
        fresh: list[tuple[int, np.ndarray]] = []
        for _ in range(per_round):
            parent, key = packing.pack_tree()
            if key not in seen:
                seen.add(key)
                fresh.append((stats["trees_evaluated"] + len(fresh), parent))
        stats["trees_packed"] = packing.trees_packed
        stats["distinct_trees"] = len(seen)
        stats["phase_seconds"]["packing"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        if fresh:
            results, used = call_with_degradation(
                lambda ex: _evaluate_trees(
                    ex, n, us, vs, ws, fresh, workers=workers, timeout=timeout,
                    policy=on_worker_failure, compute_side=compute_side,
                    events=stats["worker_events"],
                ),
                executor,
                policy=on_worker_failure,
                on_degrade=on_degrade,
                tracer=tracer,
            )
            executor = used  # stay degraded for subsequent rounds
            stats["final_executor"] = used
            stats["trees_evaluated"] += len(fresh)
            for idx, (value, side, one_c, two_c) in results:
                one_min = min(one_min, one_c)
                two_min = min(two_min, two_c)
                if tracer is not None:
                    tracer.emit(
                        "treepack_tree", tree=idx, one_respect=one_c,
                        two_respect=None if two_c >= _INF else two_c,
                        best=value,
                    )
                if value < best_value:
                    best_value = value
                    if compute_side:
                        best_side = side
                    if tracer is not None:
                        tracer.lambda_update(
                            best_value, "treepack", tree=idx,
                            respects=1 if value == one_c else 2,
                        )
        stats["phase_seconds"]["dp"] += time.perf_counter() - t0

        stats["packing_value_lb"] = round(packing.value_lower_bound(), 6)
        certified = packing.certifies(best_value)
        stats["certified"] = certified
        if tracer is not None:
            tracer.emit(
                "treepack_round", round=stats["rounds"],
                trees_packed=packing.trees_packed,
                distinct_trees=len(seen),
                packing_value_lb=stats["packing_value_lb"],
                lambda_hat=best_value, certified=certified,
            )
        if certified:
            break

    stats["one_respect_min"] = None if one_min >= _INF else int(one_min)
    stats["two_respect_min"] = None if two_min >= _INF else int(two_min)
    if tracer is not None:
        tracer.emit("solve_end", value=best_value, rounds=stats["rounds"])
    return MinCutResult(
        best_value, best_side if compute_side else None, n, "karger-nlt", stats
    )


# -- per-round tree evaluation across the executor ladder --------------------


def _evaluate_trees(
    executor: str,
    n: int,
    us: np.ndarray,
    vs: np.ndarray,
    ws: np.ndarray,
    trees: list[tuple[int, np.ndarray]],
    *,
    workers: int,
    timeout: float | None,
    policy: str,
    compute_side: bool,
    events: list,
) -> list[tuple[int, tuple[int, np.ndarray | None, int, int]]]:
    """Evaluate ``trees`` (list of ``(index, parent)``) on ``executor``."""
    if executor == "serial" or len(trees) == 1 or workers == 1:
        return [
            (idx, evaluate_tree(n, us, vs, ws, parent, compute_side=compute_side))
            for idx, parent in trees
        ]
    if executor == "threads":
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(workers, len(trees))) as pool:
            outs = list(
                pool.map(
                    lambda item: (
                        item[0],
                        evaluate_tree(
                            n, us, vs, ws, item[1], compute_side=compute_side
                        ),
                    ),
                    trees,
                )
            )
        return outs
    return _evaluate_processes(
        n, us, vs, ws, trees, workers=workers, timeout=timeout, policy=policy,
        compute_side=compute_side, events=events,
    )


def _chunk_worker(worker_id, n, us, vs, ws, chunk, compute_side, conn):
    # pragma: no cover — exercised via subprocesses (tests/test_treepack.py)
    """Process-executor entry point: evaluate one chunk of trees.

    Posts one supervised payload ``(worker_id, None, report)`` on its own
    result pipe — the ``None`` pair slot and dict report match the runtime
    supervisor's payload contract; sides travel as raw bool bytes to keep
    the message cheap.
    """
    results = []
    for idx, parent in chunk:
        value, side, one_c, two_c = evaluate_tree(
            n, us, vs, ws, parent, compute_side=compute_side
        )
        results.append(
            (int(idx), int(value),
             None if side is None else side.astype(np.uint8).tobytes(),
             int(one_c), int(two_c))
        )
    conn.send((worker_id, None, {"results": results}))
    conn.close()


def _evaluate_processes(
    n, us, vs, ws, trees, *, workers, timeout, policy, compute_side, events
) -> list:
    """Supervised process fan-out; lost chunks are re-evaluated inline.

    Losing a worker here loses candidate *trees*, which — unlike losing
    CAPFOREST marks — would break the packing certificate.  The salvage
    path therefore re-runs every tree a lost worker owned, so the result
    is exact regardless of which workers survived; ``policy="fail"``
    instead raises the runtime fault taxonomy like every other executor.
    The workers live for this call only: each posts one report on its own
    pipe and exits, and every one is joined (a worker past the deadline
    terminated first) before the call returns.
    """
    import multiprocessing as mp

    from ..runtime.pool import default_start_method

    nw = min(workers, len(trees))
    chunks: list[list] = [trees[i::nw] for i in range(nw)]
    ctx = mp.get_context(default_start_method())
    procs: list = []
    conns: list = []
    try:
        for i in range(nw):
            recv, send = ctx.Pipe(duplex=False)
            conns.append(recv)
            proc = ctx.Process(
                target=_chunk_worker,
                args=(i, n, us, vs, ws, chunks[i], compute_side, send),
            )
            try:
                proc.start()
            finally:
                send.close()  # the worker holds its own copy
            procs.append(proc)
        outcome = supervise_processes(procs, conns, n=n, timeout=timeout)
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
        for conn in conns:
            conn.close()
    if outcome.events:
        events.extend(outcome.events)
        if policy == "fail":
            raise_for_events("processes", outcome.events)
    if outcome.all_lost:
        raise_for_events("processes", outcome.events)

    results: list = []
    survived: set[int] = set()
    for worker_id, (_, _, rep) in outcome.results.items():
        survived.add(worker_id)
        for idx, value, side_bytes, one_c, two_c in rep.get("results", ()):
            side = (
                None if side_bytes is None
                else np.frombuffer(side_bytes, dtype=np.uint8).astype(bool)
            )
            results.append((idx, (value, side, one_c, two_c)))
    for worker_id, chunk in enumerate(chunks):
        if worker_id in survived:
            continue
        for idx, parent in chunk:  # salvage: exactness over speed
            results.append(
                (idx,
                 evaluate_tree(n, us, vs, ws, parent, compute_side=compute_side))
            )
    return results
