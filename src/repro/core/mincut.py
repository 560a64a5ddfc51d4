"""ParCut — the paper's full parallel exact minimum-cut system (Algorithm 2).

::

    λ̂  ← δ(G);  G_C ← G
    while G_C has more than 2 vertices:
        λ̂ ← Parallel CAPFOREST(G_C, λ̂)
        if no edges marked contractible:
            λ̂ ← CAPFOREST(G_C, λ̂)          # sequential fallback
        G_C, λ̂ ← Parallel Graph Contract(G_C)
        if this was round 1 and G_C has more than 64 vertices:
            λ̂ ← min(λ̂, VieCut(G_C))         # the seed
    return λ̂

The loop is :func:`~repro.core.noi.contraction_rounds`, the one NOI and
Matula's approximation run; this module supplies ParCut's round: the
supervised parallel pass and, only when that pass marks nothing, one
complete sequential pass (line 5).  The parallel pass may stop early
(§3.2), but a complete pass at ``λ̂ ≤ δ`` always marks (IMPLEMENTATION_NOTES
§3), so every round shrinks the graph.

Algorithm 2 runs VieCut on the input first (line 1); ParCut seeds as the
default solve does (:func:`~repro.core.noi.viecut_seed`).  A cut of the
contracted graph is a cut of the input (Lemma 3.1), and the first pass at
the min-degree bound already brings λ̂ close to λ (EXPERIMENTS, "ParCut
seeds after the first pass").  Only Figure 5 keeps the paper's order.

The paper's variant names map to parameters as
``ParCutλ̂-BStack/BQueue/Heap`` ↔ ``pq_kind=...`` with ``use_viecut=True``.

Failure model
-------------
Every parallel pass runs under the supervised execution runtime
(:mod:`~repro.runtime`) through :class:`SupervisedPass`, which Matula's
parallel passes share.  Lost workers within a round are tolerated
outright — the survivors' marks remain exact (Lemma 3.2(1)) — and an
executor that loses *all* its workers degrades ``processes → serial``
(sticky for the rest of the solve), with every event recorded in
``stats["worker_events"]`` / ``stats["degradations"]``.  A round that
fails to shrink the contracted graph raises
:class:`~repro.runtime.NoProgressError` instead of looping forever.

Observability
-------------
``stats`` follows the versioned stats schema
(:data:`repro.observability.PARCUT_STATS_KEYS`): **every** return path —
including the disconnected-graph and two-vertex early exits — emits the
identical key set, with ``stats["stats_schema"] ==``
:data:`~repro.observability.STATS_SCHEMA_VERSION`, per-phase wall
times in ``stats["phase_seconds"]`` (viecut / capforest / seq_fallback /
contract), and per-round ``stats["contraction_ratios"]``.
Passing ``tracer=`` additionally emits structured round/λ̂/worker events
(see :mod:`repro.observability`); the tracer is consulted once per round,
never per edge, so disabled runs cost nothing in the scan hot loops.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..graph.csr import Graph
from ..graph.parallel_contract import parallel_contract_by_labels
from ..observability import PARCUT_PHASES, STATS_SCHEMA_VERSION, Tracer
from ..runtime.faults import FaultPlan
from ..runtime.supervisor import call_with_degradation, check_failure_policy, raise_for_events
from ..utils.timers import Timer
from .capforest import DEFAULT_KERNEL, capforest, check_kernel, check_queue
from .noi import Incumbent, _absorb, contraction_rounds, viecut_seed
from .parallel_capforest import ParallelCapforestResult, check_executor, parallel_capforest
from .result import MinCutResult


class SupervisedPass:
    """Parallel CAPFOREST passes under the degradation ladder.

    A call runs one :func:`~repro.core.parallel_capforest.parallel_capforest`
    pass of a graph at a bound, with ``options`` as its keywords, and adds
    to ``stats`` its workers' counters (the ``pq_*``, ``edges_scanned`` and
    ``vertices_scanned`` keys), the lost workers (``worker_events``) and the
    ladder steps (``degradations``), each tagged with the round.  An
    executor that loses every worker steps down the ladder and stays there
    for later calls (:attr:`executor`); with ``on_worker_failure="fail"``
    a lost worker raises its :class:`~repro.runtime.RuntimeFault` instead.
    """

    def __init__(self, stats: dict, executor: str, on_worker_failure: str,
                 tracer: Tracer | None = None, **options) -> None:
        self.stats = stats
        self.executor = executor
        self.policy = on_worker_failure
        self.tracer = tracer
        self.options = options

    def __call__(self, graph: Graph, bound: int, r: int) -> ParallelCapforestResult:
        stats = self.stats

        def run(executor):
            return parallel_capforest(graph, bound, executor=executor, tracer=self.tracer,
                                      **self.options)

        def degraded(src, dst, exc):
            stats["degradations"].append(
                {"stage": "capforest", "round": r, "from": src, "to": dst, "reason": str(exc)}
            )

        pres, self.executor = call_with_degradation(
            run, self.executor, policy=self.policy, on_degrade=degraded, tracer=self.tracer,
        )
        if pres.events:
            stats["worker_events"].extend(dict(ev, round=r) for ev in pres.events)
            if self.policy == "fail":
                raise_for_events(self.executor, pres.events)
        for rep in pres.workers:
            _absorb(stats, rep)
        return pres


def _new_stats(pq_kind: str, executor: str, kernel: str, workers: int) -> dict:
    """The schema's stats dict: every key present from the start."""
    return {
        "stats_schema": STATS_SCHEMA_VERSION,
        "pq_kind": pq_kind,
        "executor": executor,
        "kernel": kernel,
        "kernel_resolved": kernel,
        "workers": workers,
        "rounds": 0,
        "seq_fallback_rounds": 0,
        "total_work": 0,
        "makespan_work": 0,
        "edges_scanned": 0,
        "vertices_scanned": 0,
        "pq_pushes": 0,
        "pq_updates": 0,
        "pq_skipped_updates": 0,
        "pq_pops": 0,
        "viecut_value": None,
        "worker_events": [],
        "degradations": [],
        "start_method": None,
        "final_executor": executor,
        "modeled_speedup": None,
        "contraction_ratios": [],
        "phase_seconds": {},
    }


def parallel_mincut(
    graph: Graph,
    *,
    workers: int = 4,
    pq_kind: str = "bqueue",
    executor: str = "serial",
    kernel: str = DEFAULT_KERNEL,
    use_viecut: bool = True,
    rng: np.random.Generator | int | None = None,
    compute_side: bool = True,
    start_method: str | None = None,
    timeout: float | None = None,
    on_worker_failure: str = "degrade",
    fault_plan: FaultPlan | None = None,
    tracer: Tracer | None = None,
    _seed_first: bool = False,
) -> MinCutResult:
    """Exact minimum cut via Algorithm 2 (ParCut).

    Parameters
    ----------
    workers:
        Number of parallel CAPFOREST regions ``p`` (and contraction chunks).
    pq_kind:
        Worker priority queue; the paper finds ``"bqueue"`` best in parallel.
    executor:
        ``"serial"`` (deterministic round-robin) or ``"processes"`` — see
        :mod:`~repro.core.parallel_capforest`.
    kernel:
        CAPFOREST relaxation kernel of the sequential fallback pass, the
        only place it reaches (:data:`~repro.core.capforest.KERNELS`, default
        :data:`~repro.core.capforest.DEFAULT_KERNEL`).  Whatever the kernel,
        the region workers run the scan core on arrays on ``processes`` with
        the BQueue and on lists otherwise (each ``parallel_pass`` trace
        event names which ran).
    start_method:
        Multiprocessing start method for ``executor="processes"`` (default:
        ``fork`` where available, else ``spawn``); the method actually used
        is reported in ``stats["start_method"]``.
    use_viecut:
        Seed ``λ̂`` with VieCut by the default solve's rule
        (:func:`~repro.core.noi.viecut_seed`).  Disable to measure the
        contribution of the seed (ablation).
    timeout:
        Per-round deadline (seconds) for process workers; a finite backstop
        applies even when ``None`` (:data:`repro.runtime.DEFAULT_TIMEOUT`).
    on_worker_failure:
        ``"degrade"`` (default) tolerates lost workers and steps a fully
        failed executor down the ladder; ``"fail"`` raises the underlying
        :class:`~repro.runtime.RuntimeFault` on the first worker loss.
    fault_plan:
        Deterministic fault injection for testing (:class:`repro.runtime.FaultPlan`).
    tracer:
        Optional :class:`repro.observability.Tracer` receiving structured
        round / λ̂ / worker / degradation events.  ``None`` (default) emits
        nothing and adds no per-edge work.
    _seed_first:
        Private to the figure harness's ParCut variants, which Figure 5
        runs: with ``use_viecut``, seed before the first round instead, in
        Algorithm 2's order.
    """
    check_failure_policy(on_worker_failure)
    check_queue(pq_kind)
    check_kernel(kernel)
    check_executor(executor, workers)
    n = graph.n
    if n < 2:
        raise ValueError(f"minimum cut requires at least 2 vertices, got {n}")
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)

    stats = _new_stats(pq_kind, executor, kernel, workers)
    timer = Timer()
    algo = f"parcut-{pq_kind}" + ("" if use_viecut else "-noseed")

    if tracer is not None:
        tracer.emit(
            "solve_start",
            algorithm=algo,
            n=n,
            m=graph.m,
            workers=workers,
            pq_kind=pq_kind,
            executor=executor,
            kernel=kernel,
            use_viecut=use_viecut,
        )
    parallel = SupervisedPass(
        stats, executor, on_worker_failure, tracer, workers=workers, pq_kind=pq_kind,
        rng=rng, start_method=start_method, timeout=timeout, fault_plan=fault_plan,
    )

    def certify(g: Graph, inc: Incumbent, r: int):
        with timer.phase("capforest"):
            pres = parallel(g, inc.value, r)
        if pres.start_method is not None:
            stats["start_method"] = pres.start_method
        stats["total_work"] += pres.total_work
        stats["makespan_work"] += pres.makespan_work
        inc.offer(pres.lambda_hat, "scan-cut", lambda: pres.best_side, round=r)
        if pres.n_marked:
            return pres
        # Algorithm 2 line 5: one complete sequential pass, which marks
        stats["seq_fallback_rounds"] += 1
        with timer.phase("seq_fallback"):
            seq = capforest(
                g, inc.value, pq_kind=pq_kind, bounded=True, rng=rng, kernel=kernel,
                tracer=tracer,
            )
        _absorb(stats, seq)
        stats["total_work"] += seq.edges_scanned + seq.vertices_scanned
        stats["makespan_work"] += seq.edges_scanned + seq.vertices_scanned
        inc.offer(seq.lambda_hat, "seq-fallback", lambda: seq.best_cut_mask(g.n), round=r)
        return seq

    def contract(g: Graph, uf):
        return parallel_contract_by_labels(g, uf.labels(), workers=workers)

    seed = partial(viecut_seed, stats=stats, timer=timer, rng=rng, tracer=tracer)
    inc = contraction_rounds(
        graph, certify, contract, stats, timer, tracer=tracer, compute_side=compute_side,
        prepare=seed if use_viecut and _seed_first else None,
        after_first_round=seed if use_viecut and not _seed_first else None,
    )
    # seal the schema on the one return path
    stats["phase_seconds"] = {ph: round(timer.total(ph), 6) for ph in PARCUT_PHASES}
    stats["final_executor"] = parallel.executor
    if stats["makespan_work"] > 0:
        stats["modeled_speedup"] = stats["total_work"] / stats["makespan_work"]
    if tracer is not None:
        tracer.emit(
            "solve_end", value=int(inc.value), rounds=stats["rounds"],
            final_executor=parallel.executor,
            phase_seconds=stats["phase_seconds"],
        )
    return MinCutResult(inc.value, inc.side, n, algo, stats)
