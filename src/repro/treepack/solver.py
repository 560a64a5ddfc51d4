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
bound only grows toward ``τ ≥ λ/2``, so the loop ends, though slowly when
edge weights spread widely).

The solver is the package's independent exact oracle, so it runs one
path: each round's new trees are evaluated in order on the calling thread.
A solve that reaches :data:`MAX_ROUNDS` without the certificate raises
:class:`~repro.runtime.NoProgressError` rather than return a value that
only bounds λ from above.

Determinism: the only randomness is the Kruskal tie-break permutation,
drawn from a seedable generator.  An integer ``rng`` makes the whole
solve — values, sides, stats, trace — a pure function of the input, which
is what lets the engine cache ``karger-nlt`` requests by key.
"""

from __future__ import annotations

import time

import numpy as np

from ..graph.components import connected_components
from ..graph.csr import Graph
from ..core.result import MinCutResult
from ..observability.schema import STATS_SCHEMA_VERSION, TREEPACK_PHASES, TREEPACK_STATS_KEYS
from ..runtime.errors import NoProgressError
from .packing import TreePacking
from .respect import _INF, evaluate_tree

__all__ = ["karger_nlt_mincut", "MAX_ROUNDS", "TREEPACK_PHASES", "TREEPACK_STATS_KEYS"]

#: certification rounds after which a solve gives up and raises
MAX_ROUNDS = 64


def default_trees_per_round(n: int) -> int:
    """Trees packed per certification round — ``Θ(log n)``, floor 4."""
    return max(4, int(np.ceil(np.log2(max(n, 2)))))


def karger_nlt_mincut(
    graph: Graph,
    *,
    rng: np.random.Generator | int | None = 0,
    compute_side: bool = True,
    tracer=None,
) -> MinCutResult:
    """Exact minimum cut of ``graph`` via tree packing (``karger-nlt``).

    Packs :func:`default_trees_per_round` trees per round and evaluates
    the new ones in order until the packing certifies λ̂.

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
    compute_side:
        Track the certified cut side (mask over original vertices).
    tracer:
        Optional :class:`repro.observability.Tracer`; emits
        ``treepack_round`` / ``treepack_tree`` events plus the shared
        ``solve_start`` / ``lambda_update`` / ``solve_end`` span.

    Raises
    ------
    NoProgressError
        The packing did not certify λ̂ within :data:`MAX_ROUNDS` rounds.
    """
    n = graph.n
    if n < 2:
        raise ValueError(f"minimum cut requires at least 2 vertices, got {n}")
    seed = int(rng) if isinstance(rng, (int, np.integer)) else None
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)
    per_round = default_trees_per_round(n)

    stats: dict = {
        "stats_schema": STATS_SCHEMA_VERSION,
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
        "phase_seconds": {phase: 0.0 for phase in TREEPACK_PHASES},
    }
    if tracer is not None:
        tracer.emit(
            "solve_start", algorithm="karger-nlt", n=n, m=graph.m,
            trees_per_round=per_round,
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
    seen: set[tuple[int, ...]] = set()
    one_min = two_min = _INF

    while not stats["certified"]:
        if stats["rounds"] == MAX_ROUNDS:
            raise NoProgressError(
                f"karger-nlt packed {packing.trees_packed} trees in {MAX_ROUNDS} rounds "
                f"without a certificate: packing bound {stats['packing_value_lb']}, "
                f"lambda-hat {best_value}"
            )
        stats["rounds"] += 1
        t0 = time.perf_counter()
        fresh: list[np.ndarray] = []
        for _ in range(per_round):
            parent, key = packing.pack_tree()
            if key not in seen:
                seen.add(key)
                fresh.append(parent)
        stats["trees_packed"] = packing.trees_packed
        stats["distinct_trees"] = len(seen)
        stats["phase_seconds"]["packing"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        for parent in fresh:
            idx = stats["trees_evaluated"]
            stats["trees_evaluated"] += 1
            value, side, one_c, two_c = evaluate_tree(
                n, us, vs, ws, parent, compute_side=compute_side
            )
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
                best_side = side
                if tracer is not None:
                    tracer.lambda_update(
                        best_value, "treepack", tree=idx,
                        respects=1 if value == one_c else 2,
                    )
        stats["phase_seconds"]["dp"] += time.perf_counter() - t0

        stats["packing_value_lb"] = round(packing.value_lower_bound(), 6)
        stats["certified"] = packing.certifies(best_value)
        if tracer is not None:
            tracer.emit(
                "treepack_round", round=stats["rounds"],
                trees_packed=packing.trees_packed,
                distinct_trees=len(seen),
                packing_value_lb=stats["packing_value_lb"],
                lambda_hat=best_value, certified=stats["certified"],
            )

    stats["one_respect_min"] = None if one_min >= _INF else int(one_min)
    stats["two_respect_min"] = None if two_min >= _INF else int(two_min)
    if tracer is not None:
        tracer.emit("solve_end", value=best_value, rounds=stats["rounds"])
    return MinCutResult(best_value, best_side, n, "karger-nlt", stats)
