"""ParCut — the paper's full parallel exact minimum-cut system (Algorithm 2).

::

    λ̂  ← VieCut(G);  G_C ← G
    while G_C has more than 2 vertices:
        λ̂ ← Parallel CAPFOREST(G_C, λ̂)
        if no edges marked contractible:
            λ̂ ← CAPFOREST(G_C, λ̂)          # sequential fallback
        G_C, λ̂ ← Parallel Graph Contract(G_C)
    return λ̂

plus the same Stoer–Wagner-phase progress guarantee used by
:func:`~repro.core.noi.noi_mincut` for the (rare) case where even the
sequential fallback marks nothing under an externally tightened bound.

The paper's variant names map to parameters as
``ParCutλ̂-BStack/BQueue/Heap`` ↔ ``pq_kind=...`` with ``use_viecut=True``.

Failure model
-------------
The round loop runs under the supervised execution runtime
(:mod:`~repro.runtime`).  Lost workers within a round are tolerated
outright — the survivors' marks remain exact (Lemma 3.2(1)) — and an
executor that loses *all* its workers degrades ``processes → serial``
(sticky for the rest of the solve), with every event recorded in
``stats["worker_events"]`` / ``stats["degradations"]``.  A round that
fails to shrink the contracted graph raises
:class:`~repro.runtime.NoProgressError` instead of looping forever.

Observability
-------------
``stats`` follows the versioned schema v2 contract
(:data:`repro.observability.PARCUT_STATS_KEYS`): **every** return path —
including the disconnected-graph and two-vertex early exits — emits the
identical key set, with ``stats["stats_schema"] == 2``, per-phase wall
times in ``stats["phase_seconds"]`` (viecut / capforest / seq_fallback /
sw_fallback / contract), and per-round ``stats["contraction_ratios"]``.
Passing ``tracer=`` additionally emits structured round/λ̂/worker events
(see :mod:`repro.observability`); the tracer is consulted once per round,
never per edge, so disabled runs cost nothing in the scan hot loops.
"""

from __future__ import annotations

import numpy as np

from ..graph.components import connected_components
from ..graph.contract import compose_labels
from ..graph.csr import Graph
from ..graph.parallel_contract import parallel_contract_by_labels
from ..kernels import resolve_kernel
from ..observability import PARCUT_PHASES, STATS_SCHEMA_VERSION, Tracer
from ..runtime.errors import NoProgressError
from ..runtime.faults import FaultPlan
from ..runtime.supervisor import call_with_degradation, raise_for_events
from ..utils.timers import Timer
from .capforest import capforest, check_queue
from .noi import _absorb
from .parallel_capforest import check_executor, parallel_capforest
from .result import MinCutResult


def _new_stats(
    pq_kind: str,
    executor: str,
    kernel: str,
    workers: int,
    kernel_resolved: str | None = None,
    kernel_fallback: str | None = None,
) -> dict:
    """The schema-v2 stats dict: every key present from the start."""
    return {
        "stats_schema": STATS_SCHEMA_VERSION,
        "pq_kind": pq_kind,
        "executor": executor,
        "kernel": kernel,
        "kernel_resolved": kernel_resolved if kernel_resolved is not None else kernel,
        "kernel_fallback": kernel_fallback,
        "workers": workers,
        "rounds": 0,
        "seq_fallback_rounds": 0,
        "sw_fallback_rounds": 0,
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


def _finalize_stats(stats: dict, timer: Timer, final_executor: str) -> dict:
    """Seal the schema: phases, final executor, modeled speedup.

    Called on **every** return path so consumers never have to guess which
    keys exist (``stats["final_executor"]`` / ``stats["modeled_speedup"]``
    used to be missing on the early exits).
    """
    stats["phase_seconds"] = {ph: round(timer.total(ph), 6) for ph in PARCUT_PHASES}
    stats["final_executor"] = final_executor
    if stats["makespan_work"] > 0:
        stats["modeled_speedup"] = stats["total_work"] / stats["makespan_work"]
    return stats


def parallel_mincut(
    graph: Graph,
    *,
    workers: int = 4,
    pq_kind: str = "bqueue",
    executor: str = "serial",
    kernel: str = "scalar",
    use_viecut: bool = True,
    rng: np.random.Generator | int | None = None,
    compute_side: bool = True,
    start_method: str | None = None,
    timeout: float | None = None,
    on_worker_failure: str = "degrade",
    fault_plan: FaultPlan | None = None,
    tracer: Tracer | None = None,
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
        CAPFOREST relaxation kernel (``"scalar"``, ``"vector"`` or
        ``"compiled"`` — :data:`repro.kernels.KERNELS`) of the VieCut seed
        and both sequential fallbacks.  It does not reach the parallel
        region workers, which run the sequential pass's scan core on
        arrays on ``processes`` with the BQueue (draining at-the-clamp
        buckets) whatever the kernel, and on lists otherwise (each
        ``parallel_pass`` trace event names which ran).  ``"compiled"`` resolves through
        :func:`repro.kernels.resolve_kernel` and runs as ``"vector"``,
        with the requested name in ``stats["kernel"]``, the executed one
        in ``stats["kernel_resolved"]``, and the reason in
        ``stats["kernel_fallback"]`` (plus one ``kernel_fallback`` trace
        event when a tracer is given).
    start_method:
        Multiprocessing start method for ``executor="processes"`` (default:
        ``fork`` where available, else ``spawn``); the method actually used
        is reported in ``stats["start_method"]``.
    use_viecut:
        Seed ``λ̂`` with VieCut (Algorithm 2 line 1).  Disable to measure
        the contribution of the seed (ablation).
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
    """
    if on_worker_failure not in ("degrade", "fail"):
        raise ValueError(
            f"on_worker_failure must be 'degrade' or 'fail', got {on_worker_failure!r}"
        )
    check_queue(pq_kind)
    check_executor(executor, workers)
    n = graph.n
    if n < 2:
        raise ValueError(f"minimum cut requires at least 2 vertices, got {n}")
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)

    requested_kernel = kernel
    kernel, kernel_fb = resolve_kernel(kernel, tracer=tracer)
    stats = _new_stats(
        pq_kind, executor, requested_kernel, workers,
        kernel_resolved=kernel, kernel_fallback=kernel_fb,
    )
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
            kernel=requested_kernel,
            kernel_resolved=kernel,
            use_viecut=use_viecut,
        )

    ncomp, comp_labels = connected_components(graph)
    if ncomp > 1:
        side = comp_labels == 0 if compute_side else None
        if tracer is not None:
            tracer.lambda_update(0, "disconnected", components=ncomp)
            tracer.emit("solve_end", value=0, rounds=0)
        return MinCutResult(0, side, n, algo, _finalize_stats(stats, timer, executor))

    v0, deg0 = graph.min_weighted_degree()
    best_value = deg0
    best_side: np.ndarray | None = None
    if compute_side:
        best_side = np.zeros(n, dtype=bool)
        best_side[v0] = True
    if tracer is not None:
        tracer.lambda_update(deg0, "min-degree", vertex=int(v0))

    if use_viecut:
        from ..viecut.viecut import viecut

        # Algorithm 2 line 1: VieCut's synchronous LP is the same on
        # every executor, so the seed does not depend on the executor
        with timer.phase("viecut"):
            seed = viecut(graph, rng=rng, tracer=tracer, kernel=kernel)
        stats["viecut_value"] = seed.value
        if seed.value < best_value:
            best_value = seed.value
            if compute_side:
                best_side = seed.side.copy()
            if tracer is not None:
                tracer.lambda_update(best_value, "viecut")

    lam = best_value
    labels = np.arange(n, dtype=np.int64)
    g = graph

    active_executor = executor
    while g.n > 2 and lam > 0:
        round_n = g.n
        round_idx = stats["rounds"]
        pq_before = (
            stats["pq_pushes"], stats["pq_updates"],
            stats["pq_skipped_updates"], stats["pq_pops"],
        )
        if tracer is not None:
            tracer.emit(
                "round_start", round=round_idx, n=g.n, m=g.m, lambda_hat=int(lam),
                executor=active_executor,
            )

        def run_pass(exe, _g=g, _lam=lam):
            return parallel_capforest(
                _g, _lam, workers=workers, pq_kind=pq_kind, executor=exe, rng=rng,
                start_method=start_method, timeout=timeout, fault_plan=fault_plan,
                tracer=tracer,
            )

        def record_degradation(src, dst, exc):
            stats["degradations"].append(
                {"stage": "capforest", "round": stats["rounds"], "from": src, "to": dst,
                 "reason": str(exc)}
            )

        # degradation is sticky: once an executor has lost every worker we
        # stay on the simpler one rather than re-paying the failure per round
        with timer.phase("capforest"):
            pres, active_executor = call_with_degradation(
                run_pass, active_executor, policy=on_worker_failure,
                on_degrade=record_degradation, tracer=tracer,
            )
        if pres.start_method is not None:
            stats["start_method"] = pres.start_method
        if pres.events:
            stats["worker_events"].extend(
                dict(ev, round=stats["rounds"]) for ev in pres.events
            )
            if on_worker_failure == "fail":
                raise_for_events(active_executor, pres.events)
        stats["rounds"] += 1
        stats["total_work"] += pres.total_work
        stats["makespan_work"] += pres.makespan_work
        for rep in pres.workers:
            stats["edges_scanned"] += rep.edges_scanned
            stats["vertices_scanned"] += rep.vertices_scanned
            stats["pq_pushes"] += rep.pq_stats.pushes
            stats["pq_updates"] += rep.pq_stats.updates
            stats["pq_skipped_updates"] += rep.pq_stats.skipped_updates
            stats["pq_pops"] += rep.pq_stats.pops
        uf = pres.uf
        if pres.lambda_hat < best_value:
            best_value = pres.lambda_hat
            lam = pres.lambda_hat
            if compute_side and pres.best_side is not None:
                best_side = pres.best_side[labels]
            if tracer is not None:
                tracer.lambda_update(best_value, "scan-cut", round=round_idx)

        if pres.n_marked == 0:
            # Algorithm 2 line 5: one sequential CAPFOREST pass
            stats["seq_fallback_rounds"] += 1
            with timer.phase("seq_fallback"):
                seq = capforest(
                    g, lam, pq_kind=pq_kind, bounded=True, rng=rng, kernel=kernel,
                    tracer=tracer,
                )
            _absorb(stats, seq)
            stats["total_work"] += seq.edges_scanned + seq.vertices_scanned
            stats["makespan_work"] += seq.edges_scanned + seq.vertices_scanned
            uf = seq.uf
            if seq.lambda_hat < best_value:
                best_value = seq.lambda_hat
                lam = seq.lambda_hat
                if compute_side:
                    mask = seq.best_cut_mask(g.n)
                    if mask is not None:
                        best_side = mask[labels]
                if tracer is not None:
                    tracer.lambda_update(best_value, "seq-fallback", round=round_idx)
            if seq.n_marked == 0:
                # Stoer–Wagner phase guarantee (see noi.py module docstring)
                stats["sw_fallback_rounds"] += 1
                with timer.phase("sw_fallback"):
                    sw = capforest(
                        g, lam, pq_kind="heap", bounded=False, rng=rng, kernel=kernel,
                        tracer=tracer,
                    )
                _absorb(stats, sw)
                if sw.lambda_hat < best_value:
                    best_value = sw.lambda_hat
                    lam = sw.lambda_hat
                    if compute_side:
                        mask = sw.best_cut_mask(g.n)
                        if mask is not None:
                            best_side = mask[labels]
                    if tracer is not None:
                        tracer.lambda_update(best_value, "sw-fallback", round=round_idx)
                uf = sw.uf
                uf.union(sw.scan_order[-2], sw.scan_order[-1])

        block_labels = uf.labels()
        with timer.phase("contract"):
            g, contraction = parallel_contract_by_labels(g, block_labels, workers=workers)
        labels = compose_labels(labels, contraction)
        ratio = g.n / round_n
        stats["contraction_ratios"].append(round(ratio, 6))
        if tracer is not None:
            tracer.emit(
                "round_end", round=round_idx, n_before=round_n, n_after=g.n,
                contraction_ratio=round(ratio, 6), lambda_hat=int(lam),
                marked=pres.n_marked,
                seq_fallback=stats["seq_fallback_rounds"] > 0
                and pres.n_marked == 0,
                pq_delta={
                    "pushes": stats["pq_pushes"] - pq_before[0],
                    "updates": stats["pq_updates"] - pq_before[1],
                    "skipped_updates": stats["pq_skipped_updates"] - pq_before[2],
                    "pops": stats["pq_pops"] - pq_before[3],
                },
            )
        if g.n >= round_n:
            # watchdog: the SW-phase fallback guarantees >= 1 union per
            # round, so a non-shrinking round means corrupt state — abort
            # rather than loop forever
            raise NoProgressError(
                f"contraction round {stats['rounds']} left the graph at {g.n} vertices"
            )
        if g.n < 2:
            break
        v, d = g.min_weighted_degree()
        if d < best_value:
            best_value = d
            if compute_side:
                best_side = labels == v
            if tracer is not None:
                tracer.lambda_update(best_value, "min-degree", round=round_idx)
        lam = min(lam, d)

    _finalize_stats(stats, timer, active_executor)
    if tracer is not None:
        tracer.emit(
            "solve_end", value=int(best_value), rounds=stats["rounds"],
            final_executor=active_executor,
            phase_seconds=stats["phase_seconds"],
        )
    return MinCutResult(best_value, best_side if compute_side else None, n, algo, stats)
