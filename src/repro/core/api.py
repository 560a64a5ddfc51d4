"""Public facade: :func:`minimum_cut` and the algorithm registry.

Every solver in the package — the paper's contributions and the baselines it
evaluates against — is reachable through one entry point::

    from repro import minimum_cut
    result = minimum_cut(graph)                       # engineered default
    result = minimum_cut(graph, algorithm="hao-orlin")  # a baseline
    result = minimum_cut(graph, algorithm="parcut", workers=8)

Algorithm names (paper variant in brackets):

=================  ==========================================================
``"noi"``          NOI with bounded BQueue on the ``vector`` kernel
                   [NOIλ̂-BQueue]; kwargs: ``pq_kind``, ``bounded``,
                   ``initial_bound``, ``kernel``
``"noi-hnss"``     NOI, unbounded heap [NOI-HNSS baseline]
``"noi-viecut"``   VieCut seed + bounded NOI [NOIλ̂-BQueue-VieCut] — the
                   default; the paper's fastest sequential configuration
                   is NOIλ̂-Heap-VieCut (``pq_kind="heap"``), but here only
                   the BQueue's at-the-clamp drains batch in numpy.  Graphs
                   of at most 64 vertices skip the VieCut seed, which
                   would be an exact NOI solve of the same graph
``"parcut"``       Parallel system, Algorithm 2 [ParCutλ̂-BQueue]; kwargs:
                   ``workers``, ``executor``, ``pq_kind``, ``kernel``,
                   ``use_viecut``, ``start_method``, plus the
                   supervised-runtime controls ``timeout`` and
                   ``on_worker_failure`` (``"degrade"``/``"fail"``) — see
                   :mod:`repro.runtime`
``"viecut"``       Inexact multilevel bound (fast, usually exact, no
                   guarantee)
``"stoer-wagner"`` Stoer–Wagner baseline
``"hao-orlin"``    Hao–Orlin push-relabel baseline [HO-CGKLS]
``"karger-stein"`` Randomized recursive contraction (Monte Carlo)
``"karger-nlt"``   Exact tree-packing solver (Karger near-linear-time
                   family): greedy spanning-tree packing + per-tree minimum
                   1-/2-respecting cuts; kwargs: ``rng`` (int seed —
                   deterministic and engine-cacheable), ``trees_per_round``,
                   ``executor``, ``workers``, ``timeout``,
                   ``on_worker_failure`` — see :mod:`repro.treepack`
``"matula"``       Matula (2+ε)-approximation (paper §5 future work)
=================  ==========================================================

Unknown algorithm names raise :class:`UnknownAlgorithmError` — a
``ValueError`` subclass — uniformly across this facade, the engine, the
CLI, and the service (the service maps it to HTTP 400).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..graph.csr import Graph
from .result import MinCutResult


def _noi(graph: Graph, **kw) -> MinCutResult:
    from .noi import noi_mincut

    return noi_mincut(graph, **kw)


def _noi_hnss(graph: Graph, **kw) -> MinCutResult:
    from .noi import noi_mincut

    kw.setdefault("bounded", False)
    kw.setdefault("pq_kind", "heap")
    return noi_mincut(graph, **kw)


def _noi_viecut(graph: Graph, **kw) -> MinCutResult:
    from ..kernels import resolve_kernel
    from ..utils.timers import Timer
    from ..viecut.viecut import SMALL_THRESHOLD, viecut
    from .capforest import DEFAULT_KERNEL, check_queue
    from .noi import noi_mincut

    # fail on a bad queue before VieCut runs (noi_mincut's own rule)
    check_queue(kw.get("pq_kind"), kw.get("bounded", True))
    rng = kw.pop("rng", None)
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)
    compute_side = kw.get("compute_side", True)
    # noi_mincut resolves the kernel again and reports any fallback, once
    kernel, _ = resolve_kernel(kw.get("kernel", DEFAULT_KERNEL))
    timer = Timer()
    seed = None
    # VieCut clusters nothing on a graph this small: its seed would be an
    # exact NOI solve of the very graph NOI is about to solve
    if graph.n > SMALL_THRESHOLD:
        with timer.phase("viecut"):
            seed = viecut(graph, rng=rng, tracer=kw.get("tracer"), kernel=kernel)
    res = noi_mincut(
        graph,
        initial_bound=None if seed is None else seed.value,
        initial_side=seed.side if seed is not None and compute_side else None,
        rng=rng,
        **kw,
    )
    if seed is None:
        res.algorithm += "-viecut"  # the same variant, without its seed pass
    res.stats["viecut_value"] = None if seed is None else seed.value
    res.stats["phase_seconds"] = {
        "viecut": round(timer.total("viecut"), 6), **res.stats["phase_seconds"]
    }
    return res


def _parcut(graph: Graph, **kw) -> MinCutResult:
    from .mincut import parallel_mincut

    return parallel_mincut(graph, **kw)


def _viecut(graph: Graph, **kw) -> MinCutResult:
    from ..viecut.viecut import viecut

    kw.pop("compute_side", None)
    return viecut(graph, **kw)


def _stoer_wagner(graph: Graph, **kw) -> MinCutResult:
    from ..baselines.stoer_wagner import stoer_wagner

    return stoer_wagner(graph, **kw)


def _hao_orlin(graph: Graph, **kw) -> MinCutResult:
    from ..baselines.hao_orlin import hao_orlin

    return hao_orlin(graph, **kw)


def _karger_stein(graph: Graph, **kw) -> MinCutResult:
    from ..baselines.karger_stein import karger_stein

    return karger_stein(graph, **kw)


def _karger_nlt(graph: Graph, **kw) -> MinCutResult:
    from ..treepack.solver import karger_nlt_mincut

    return karger_nlt_mincut(graph, **kw)


def _matula(graph: Graph, **kw) -> MinCutResult:
    from ..baselines.matula import matula_approx

    return matula_approx(graph, **kw)


ALGORITHMS: dict[str, Callable[..., MinCutResult]] = {
    "noi": _noi,
    "noi-hnss": _noi_hnss,
    "noi-viecut": _noi_viecut,
    "parcut": _parcut,
    "viecut": _viecut,
    "stoer-wagner": _stoer_wagner,
    "hao-orlin": _hao_orlin,
    "karger-stein": _karger_stein,
    "karger-nlt": _karger_nlt,
    "matula": _matula,
}

#: algorithms guaranteed to return the exact minimum cut
EXACT_ALGORITHMS = (
    "noi", "noi-hnss", "noi-viecut", "parcut", "stoer-wagner", "hao-orlin",
    "karger-nlt",
)

#: algorithms that accept ``tracer=`` (a :class:`repro.observability.Tracer`)
#: and emit structured trace events; the CLI's ``--trace`` is limited to these
TRACEABLE_ALGORITHMS = ("noi", "noi-hnss", "noi-viecut", "parcut", "viecut", "karger-nlt")


class UnknownAlgorithmError(ValueError):
    """``algorithm`` does not name a registry entry.

    One error type for every surface: :func:`minimum_cut`, the engine's
    ``submit``/``update`` paths, the CLI (exit code 2), and the service
    (HTTP 400) — previously the facade raised a bare ``ValueError`` while
    other layers re-derived their own, so callers could not catch the
    condition portably.
    """

    def __init__(self, algorithm) -> None:
        super().__init__(
            f"unknown algorithm {algorithm!r}; available: {sorted(ALGORITHMS)}"
        )
        self.algorithm = algorithm


def minimum_cut(
    graph: Graph,
    algorithm: str = "noi-viecut",
    *,
    engine=None,
    all_cuts: bool = False,
    most_balanced: bool = False,
    **kwargs,
) -> MinCutResult:
    """Compute a minimum cut of ``graph``.

    Parameters
    ----------
    graph:
        Weighted undirected graph with at least two vertices.  Disconnected
        graphs return a cut of value 0.
    algorithm:
        Registry name (see module docstring).  The default,
        ``"noi-viecut"``, runs NOIλ̂-BQueue-VieCut: VieCut's seed and
        bounded NOI on the BQueue with the ``vector`` kernel.  The paper
        finds NOIλ̂-Heap-VieCut fastest sequentially on almost all
        instances (``pq_kind="heap"`` selects it); in this port only the
        BQueue's at-the-clamp drains batch in numpy, which makes the
        BQueue the faster default.
    engine:
        Optional :class:`repro.engine.SolverEngine`.  When given, the solve
        is routed through the engine — served from its result cache when
        the (graph, algorithm, kwargs) key hits, otherwise dispatched to
        its persistent worker pool.  Engine solves restrict kwargs to
        canonicalisable values (``rng`` must be an integer seed, no
        ``tracer=``); pass the tracer to the engine itself instead.
    all_cuts:
        Additionally build the cactus of **all** minimum cuts
        (:mod:`repro.cactus`) and attach it as ``result.cactus`` — it
        answers ``num_min_cuts()``, enumerates every cut, selects the
        most balanced one, and yields per-vertex ``in_cut`` membership
        arrays.  Exact algorithms only (the cactus construction needs the
        true λ).
    most_balanced:
        Implies ``all_cuts``; additionally *replaces* ``result.side``
        with the minimum cut of smallest side-size imbalance (VieCut's
        ``find_most_balanced_cut``) and records the chosen sizes in
        ``result.stats["most_balanced"]``.
    **kwargs:
        Forwarded to the selected solver (e.g. ``rng=...`` for
        reproducibility, ``pq_kind=...``, ``workers=...``;
        ``kernel="scalar"|"vector"|"compiled"`` selects the CAPFOREST
        relaxation kernel for the NOI/ParCut solvers — identical results;
        the vector kernel batches arc relaxations through numpy, and
        ``"compiled"`` runs as vector with a ``kernel_fallback`` stats
        note (see :mod:`repro.kernels`); for the
        parallel solvers also ``timeout=...`` and
        ``on_worker_failure="degrade"|"fail"``).  Solvers with parallel
        executors never hang on worker failure: lost workers are recorded
        in ``result.stats["worker_events"]`` and a failed executor
        degrades ``processes → threads → serial``
        (``stats["degradations"]``) unless ``on_worker_failure="fail"``,
        in which case a :class:`repro.runtime.RuntimeFault` subclass is
        raised.  Algorithms in :data:`TRACEABLE_ALGORITHMS` additionally
        accept ``tracer=`` (a :class:`repro.observability.Tracer`) and
        emit structured span/λ̂-provenance events.

    Returns
    -------
    MinCutResult
        For algorithms in :data:`EXACT_ALGORITHMS` the value is the exact
        minimum cut; ``viecut``/``matula`` return certified upper bounds
        and ``karger-stein`` is correct with high probability.
    """
    try:
        solver = ALGORITHMS[algorithm]
    except KeyError:
        raise UnknownAlgorithmError(algorithm) from None
    all_cuts = all_cuts or most_balanced
    if all_cuts and algorithm not in EXACT_ALGORITHMS:
        raise ValueError(
            f"all_cuts/most_balanced require an exact algorithm, got {algorithm!r}"
        )
    if engine is not None:
        return engine.solve(
            graph, algorithm, all_cuts=all_cuts, most_balanced=most_balanced,
            **kwargs,
        )
    res = solver(graph, **kwargs)
    if all_cuts:
        attach_cactus(graph, res, most_balanced=most_balanced,
                      tracer=kwargs.get("tracer"))
    return res


def attach_cactus(
    graph: Graph, res: MinCutResult, *, most_balanced: bool = False, tracer=None
) -> MinCutResult:
    """Build the all-min-cuts cactus for a solved result and attach it.

    Mutates ``res`` in place (and returns it): sets ``res.cactus``, records
    ``stats["num_min_cuts"]``, and — when ``most_balanced`` — swaps
    ``res.side`` for the most balanced minimum cut, recording the chosen
    side sizes under ``stats["most_balanced"]``.
    """
    from ..cactus import build_cactus

    cactus = build_cactus(graph, int(res.value), tracer=tracer)
    res.cactus = cactus
    res.stats["num_min_cuts"] = cactus.num_min_cuts()
    if most_balanced:
        mask, info = cactus.most_balanced_cut()
        res.side = mask
        res.stats["most_balanced"] = info
        if tracer is not None:
            tracer.emit("cactus_query", query="most_balanced_cut",
                        num_cuts=cactus.num_min_cuts(), **info)
    return res
