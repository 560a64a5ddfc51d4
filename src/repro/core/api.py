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
``"noi-viecut"``   bounded NOI + VieCut seed [NOIλ̂-BQueue-VieCut] — the
                   default; the paper's fastest sequential configuration
                   is NOIλ̂-Heap-VieCut (``pq_kind="heap"`` selects its
                   queue), but here only the BQueue's at-the-clamp drains
                   batch in numpy.  The seed runs after the first pass,
                   on the contracted graph, and only if it kept more
                   than 64 vertices
``"parcut"``       Parallel system, Algorithm 2 [ParCutλ̂-BQueue]; kwargs:
                   ``workers``, ``executor``, ``pq_kind``, ``kernel``,
                   ``use_viecut``, ``start_method``, plus the
                   supervised-runtime controls ``timeout`` and
                   ``on_worker_failure`` (``"degrade"``/``"fail"``) — see
                   :mod:`repro.runtime`; seeded as ``noi-viecut`` is
``"viecut"``       Inexact multilevel bound (fast, usually exact, no
                   guarantee); kwargs: ``rng``, ``tracer``
``"stoer-wagner"`` Stoer–Wagner baseline
``"hao-orlin"``    Hao–Orlin push-relabel baseline [HO-CGKLS]
``"karger-stein"`` Randomized recursive contraction (Monte Carlo)
``"karger-nlt"``   Exact tree-packing solver (Karger near-linear-time
                   family), a sequential exact oracle for the others:
                   greedy spanning-tree packing + per-tree minimum
                   1-/2-respecting cuts; kwargs: ``rng`` (int seed —
                   deterministic and engine-cacheable), ``compute_side``,
                   ``tracer`` — see :mod:`repro.treepack`
``"matula"``       Matula (2+ε)-approximation (paper §5 future work)
=================  ==========================================================

Unknown algorithm names raise :class:`UnknownAlgorithmError` — a
``ValueError`` subclass — uniformly across this facade, the engine, the
CLI, and the service (the service maps it to HTTP 400).
"""

from __future__ import annotations

import inspect
from collections.abc import Callable
from functools import cache
from importlib import import_module

from ..graph.csr import Graph
from .result import MinCutResult


#: the solver function each registry entry runs, as ``module:function``
#: relative to this package (imported on first use, looked up per call)
_SOLVERS = {
    "noi": ".noi:noi_mincut",
    "noi-hnss": ".noi:noi_mincut",
    "noi-viecut": ".noi:noi_mincut",
    "parcut": ".mincut:parallel_mincut",
    "viecut": "..viecut.viecut:viecut",
    "stoer-wagner": "..baselines.stoer_wagner:stoer_wagner",
    "hao-orlin": "..baselines.hao_orlin:hao_orlin",
    "karger-stein": "..baselines.karger_stein:karger_stein",
    "karger-nlt": "..treepack.solver:karger_nlt_mincut",
    "matula": "..baselines.matula:matula_approx",
}


def _solver(algorithm: str) -> Callable[..., MinCutResult]:
    module, name = _SOLVERS[algorithm].split(":")
    return getattr(import_module(module, __package__), name)


def _entry(algorithm: str) -> Callable[..., MinCutResult]:
    """The registry entry that runs ``algorithm``'s solver unchanged."""

    def run(graph: Graph, **kw) -> MinCutResult:
        return _solver(algorithm)(graph, **kw)

    return run


#: the NOI configuration ``noi-hnss`` runs unless its caller overrides it
_HNSS_DEFAULTS = {"bounded": False, "pq_kind": "heap"}

#: ``noi_mincut`` keywords the ``noi-viecut`` entry refuses: the seed is its own
_NOI_VIECUT_REFUSED = ("initial_bound", "initial_side")


def _noi_hnss(graph: Graph, **kw) -> MinCutResult:
    return _solver("noi-hnss")(graph, **{**_HNSS_DEFAULTS, **kw})


def _noi_viecut(graph: Graph, **kw) -> MinCutResult:
    for key in _NOI_VIECUT_REFUSED:
        if key in kw:
            raise TypeError(f"noi-viecut got an unexpected keyword argument {key!r}")
    return _solver("noi-viecut")(graph, _viecut_seed=True, **kw)


def _viecut(graph: Graph, **kw) -> MinCutResult:
    kw.pop("compute_side", None)
    return _solver("viecut")(graph, **kw)


ALGORITHMS: dict[str, Callable[..., MinCutResult]] = {
    "noi": _entry("noi"),
    "noi-hnss": _noi_hnss,
    "noi-viecut": _noi_viecut,
    "parcut": _entry("parcut"),
    "viecut": _viecut,
    "stoer-wagner": _entry("stoer-wagner"),
    "hao-orlin": _entry("hao-orlin"),
    "karger-stein": _entry("karger-stein"),
    "karger-nlt": _entry("karger-nlt"),
    "matula": _entry("matula"),
}

#: algorithms guaranteed to return the exact minimum cut
EXACT_ALGORITHMS = (
    "noi", "noi-hnss", "noi-viecut", "parcut", "stoer-wagner", "hao-orlin",
    "karger-nlt",
)

#: algorithms that accept ``tracer=`` (a :class:`repro.observability.Tracer`)
#: and emit structured trace events; the CLI's ``--trace`` is limited to these
TRACEABLE_ALGORITHMS = ("noi", "noi-hnss", "noi-viecut", "parcut", "viecut", "karger-nlt")


@cache
def _entry_options(algorithm: str) -> tuple[frozenset, dict]:
    """The keywords ``algorithm``'s entry takes, and its defaults for them.

    A solver parameter whose name starts with ``_`` is private to the
    library's own callers, and no entry takes it.
    """
    params = inspect.signature(_solver(algorithm)).parameters
    defaults = {name: p.default for name, p in params.items()
                if name != "graph" and not name.startswith("_")}
    taken = set(defaults)
    if algorithm == "noi-hnss":
        defaults.update(_HNSS_DEFAULTS)
    elif algorithm == "noi-viecut":
        taken -= set(_NOI_VIECUT_REFUSED)
    elif algorithm == "viecut":
        taken.add("compute_side")  # the entry drops it
    return frozenset(taken), defaults


def check_options(algorithm: str, kwargs: dict) -> None:
    """Raise what ``algorithm``'s entry raises for ``kwargs`` before it solves.

    A keyword the entry does not take raises ``TypeError``.  The kernel,
    the queue, the executor with its worker count, and the worker-failure
    policy go through the solvers' own checks, with the entry's defaults
    for whatever ``kwargs`` leaves out.  :meth:`SolverEngine.update
    <repro.engine.SolverEngine.update>` runs this before it applies a
    batch, because its warm paths run no solver.
    """
    from ..runtime.supervisor import check_failure_policy
    from .capforest import check_kernel, check_queue
    from .parallel_capforest import check_executor

    taken, defaults = _entry_options(algorithm)
    for key in kwargs:
        if key not in taken:
            raise TypeError(f"{algorithm} got an unexpected keyword argument {key!r}")
    opts = {**defaults, **kwargs}
    if "kernel" in opts:
        check_kernel(opts["kernel"])
    if "pq_kind" in opts:
        check_queue(opts["pq_kind"], opts.get("bounded", True))
    if "executor" in opts:
        check_executor(opts["executor"], opts["workers"])
    if "on_worker_failure" in opts:
        check_failure_policy(opts["on_worker_failure"])


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
        ``"noi-viecut"``, runs NOIλ̂-BQueue-VieCut: bounded NOI on the
        BQueue with the ``vector`` kernel.  VieCut seeds the graph that
        the first pass left, if it kept more than 64 vertices, which is
        rare (:func:`~repro.core.noi.viecut_seed`; the paper seeds first).
        ``stats["viecut_value"]`` is ``None`` when the seed did not run.
        The paper finds NOIλ̂-Heap-VieCut fastest sequentially on almost
        all instances (``pq_kind="heap"`` selects its queue); in this
        port only the BQueue's at-the-clamp drains batch in numpy, which
        makes the BQueue the faster default.
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
        ``kernel="scalar"|"vector"`` selects the CAPFOREST relaxation
        kernel for the NOI/ParCut solvers — identical results; the vector
        kernel batches arc relaxations through numpy
        (:data:`~repro.core.capforest.KERNELS`); for the
        parallel solvers also ``timeout=...`` and
        ``on_worker_failure="degrade"|"fail"``).  Solvers with parallel
        executors never hang on worker failure: lost workers are recorded
        in ``result.stats["worker_events"]`` and a failed executor
        degrades ``processes → serial``
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
