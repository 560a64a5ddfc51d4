"""Experiment harness: algorithm variant registry, timing, result records.

The eight sequential variants of the paper's Figures 2–4 and the three
parallel ParCut variants of Figure 5 are registered here by their paper
names, so every experiment script and benchmark selects them identically.

Timing follows the paper's protocol (mean over repetitions); each record
also keeps the solver's operation counters, because in pure Python the
*operation counts* are the noise-free signal the paper's wall-clock ratios
correspond to (see DESIGN.md §2).
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ..core.mincut import parallel_mincut
from ..core.noi import noi_mincut
from ..core.result import MinCutResult
from ..graph.csr import Graph


def _seeded(rng_seed: int) -> np.random.Generator:
    return np.random.default_rng(rng_seed)


def make_sequential_variants() -> dict[str, Callable[[Graph, int], MinCutResult]]:
    """The paper's sequential line-up, keyed by its variant names.

    ``HO-CGKLS`` / ``NOI-CGKLS`` are the Chekuri et al. codes; our stand-ins
    are the same algorithms (flow-based Hao–Orlin; NOI with an unbounded
    heap and no VieCut seed) — see DESIGN.md.  The bounded and VieCut NOI
    variants run the ``"scalar"`` relaxation kernel.

    ``NOI-CGKLS`` vs ``NOI-HNSS``: both are unbounded-heap NOI — the
    *algorithm* is the same, the codes differ in implementation tuning
    (the paper benchmarks both binaries).  The one axis we have is the
    relaxation kernel: ``NOI-HNSS`` pins ``"scalar"`` and ``NOI-CGKLS``
    pins ``"vector"``.  Both kernels are bit-identical in results and PQ
    counters (the kernel-parity tests), so the cross-variant agreement
    and operation-count comparisons are unaffected.  A heap scan keeps
    its state in lists on either kernel, so an unbounded heap scan runs
    the same code under both and the two stand-ins no longer differ in
    time either (EXPERIMENTS, "The NOI-CGKLS stand-in"); the committed
    ``results/`` timings predate this.
    """

    def ho(graph: Graph, seed: int, tracer=None) -> MinCutResult:
        from ..baselines.hao_orlin import hao_orlin

        # tracer accepted for a uniform variant signature; HO is untraced
        return hao_orlin(graph, compute_side=False)

    def noi_cgkls(graph: Graph, seed: int, tracer=None) -> MinCutResult:
        return noi_mincut(graph, pq_kind="heap", bounded=False, rng=_seeded(seed),
                          compute_side=False, kernel="vector", tracer=tracer)

    def noi_hnss(graph: Graph, seed: int, tracer=None) -> MinCutResult:
        return noi_mincut(graph, pq_kind="heap", bounded=False, rng=_seeded(seed),
                          compute_side=False, kernel="scalar", tracer=tracer)

    def bounded(pq: str) -> Callable[..., MinCutResult]:
        def run(graph: Graph, seed: int, tracer=None) -> MinCutResult:
            return noi_mincut(graph, pq_kind=pq, bounded=True, rng=_seeded(seed),
                              compute_side=False, kernel="scalar", tracer=tracer)

        return run

    def with_viecut(pq: str, bounded_flag: bool) -> Callable[..., MinCutResult]:
        def run(graph: Graph, seed: int, tracer=None) -> MinCutResult:
            from ..viecut.viecut import viecut

            rng = _seeded(seed)
            seed_cut = viecut(graph, rng=rng, tracer=tracer)
            return noi_mincut(
                graph,
                pq_kind=pq,
                bounded=bounded_flag,
                initial_bound=seed_cut.value,
                rng=rng,
                compute_side=False,
                kernel="scalar",
                tracer=tracer,
            )

        return run

    return {
        "HO-CGKLS": ho,
        "NOI-CGKLS": noi_cgkls,
        "NOI-HNSS": noi_hnss,
        "NOIlam-BStack": bounded("bstack"),
        "NOIlam-BQueue": bounded("bqueue"),
        "NOIlam-Heap": bounded("heap"),
        "NOI-HNSS-VieCut": with_viecut("heap", False),
        "NOIlam-Heap-VieCut": with_viecut("heap", True),
    }


def make_parallel_variants(
    workers: int, executor: str = "serial"
) -> dict[str, Callable[[Graph, int], MinCutResult]]:
    """ParCutλ̂-{BStack, BQueue, Heap} at a given worker count, in
    Algorithm 2's order: VieCut seeds λ̂ before the first pass.  Figure 5
    and its benchmark take their ParCut solves from here."""

    def parcut(pq: str) -> Callable[..., MinCutResult]:
        def run(graph: Graph, seed: int, tracer=None) -> MinCutResult:
            return parallel_mincut(
                graph,
                workers=workers,
                pq_kind=pq,
                executor=executor,
                use_viecut=True,
                _seed_first=True,
                rng=_seeded(seed),
                compute_side=False,
                tracer=tracer,
            )

        return run

    return {
        "ParCutlam-BStack": parcut("bstack"),
        "ParCutlam-BQueue": parcut("bqueue"),
        "ParCutlam-Heap": parcut("heap"),
    }


def make_engine_variants(
    algorithms: dict[str, str] | None = None, **solve_kwargs
) -> dict[str, Callable[..., MinCutResult]]:
    """Variants that route through a shared :class:`~repro.engine.SolverEngine`.

    ``algorithms`` maps variant display names to registry algorithm names
    (default: the engine default plus ParCut).  The returned callables
    follow the harness protocol with one extra keyword, ``engine`` —
    :func:`time_variant`/:func:`run_matrix` inject the shared engine there,
    so a whole matrix reuses one worker pool, one set of shared-memory
    planes, and one result cache.  Without an engine they fall back to
    direct :func:`~repro.core.api.minimum_cut` calls (same results, no
    amortisation), so the variants stay usable in engine-less scripts.

    Per-solve tracers are ignored by design: engine requests cannot carry
    live tracer objects — trace at the engine level instead.
    ``Engine-NOIlam-Heap-VieCut`` pins the heap and the scalar kernel, the
    paper's configuration its name promises, which the default solve no
    longer runs; ``solve_kwargs`` override the pin.  It runs
    ``noi-viecut``, so it follows that entry's seeding rule: VieCut seeds
    the graph the first CAPFOREST pass left, and only if that graph kept
    more than 64 vertices, where the paper (and the
    ``*-VieCut`` variants of :func:`make_sequential_variants`) seed
    before the first pass.
    """
    if algorithms is None:
        algorithms = {
            "Engine-NOIlam-Heap-VieCut": "noi-viecut",
            "Engine-ParCutlam-BQueue": "parcut",
        }
    pinned = {"Engine-NOIlam-Heap-VieCut": {"pq_kind": "heap", "kernel": "scalar"}}

    def through_engine(name: str, algo: str) -> Callable[..., MinCutResult]:
        def run(graph: Graph, seed: int, tracer=None, engine=None) -> MinCutResult:
            from ..core.api import minimum_cut

            kwargs = {**pinned.get(name, {}), **solve_kwargs}
            kwargs.setdefault("compute_side", False)
            return minimum_cut(graph, algorithm=algo, engine=engine,
                               rng=int(seed), **kwargs)

        return run

    return {name: through_engine(name, algo) for name, algo in algorithms.items()}


@dataclass
class RunRecord:
    """One (algorithm, instance) measurement."""

    algorithm: str
    instance: str
    n: int
    m: int
    seconds: float
    value: int
    stats: dict = field(default_factory=dict)
    trace_summary: dict | None = None

    @property
    def ns_per_edge(self) -> float:
        """The paper's Figure 2 y-axis."""
        return self.seconds * 1e9 / max(self.m, 1)


def time_variant(
    name: str,
    fn: Callable[..., MinCutResult],
    graph: Graph,
    instance: str,
    *,
    repetitions: int = 1,
    seed: int = 0,
    trace: bool = False,
    engine=None,
) -> RunRecord:
    """Run ``fn`` ``repetitions`` times; record the mean time and result.

    ``trace=True`` attaches a :class:`~repro.observability.Tracer` to the
    *last* repetition and stores its compact digest in
    ``record.trace_summary`` (event counts, λ̂ trajectory with provenance).
    Variants that do not support tracing (e.g. ``HO-CGKLS``) accept and
    ignore the tracer, yielding an empty summary.

    ``engine`` (a :class:`~repro.engine.SolverEngine`) is forwarded to
    variants whose callable declares an ``engine`` parameter (see
    :func:`make_engine_variants`); classic variants never see it.
    """
    import inspect

    extra: dict = {}
    if engine is not None and "engine" in inspect.signature(fn).parameters:
        extra["engine"] = engine
    times = []
    result: MinCutResult | None = None
    trace_summary: dict | None = None
    for rep in range(repetitions):
        tracer = None
        if trace and rep == repetitions - 1:
            from ..observability import Tracer

            tracer = Tracer()
        t0 = time.perf_counter()
        result = (
            fn(graph, seed + rep, **extra)
            if tracer is None
            else fn(graph, seed + rep, tracer, **extra)
        )
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            trace_summary = tracer.summary()
    assert result is not None
    return RunRecord(
        algorithm=name,
        instance=instance,
        n=graph.n,
        m=graph.m,
        seconds=sum(times) / len(times),
        value=result.value,
        stats=dict(result.stats),
        trace_summary=trace_summary,
    )


def run_matrix(
    variants: dict[str, Callable[..., MinCutResult]],
    instances: list[tuple[str, Graph]],
    *,
    repetitions: int = 1,
    seed: int = 0,
    check_agreement: bool = True,
    trace: bool = False,
    engine=None,
) -> list[RunRecord]:
    """Cross product of variants × instances; optionally asserts all exact
    solvers agree on every instance (they must — they are exact).
    ``trace=True`` attaches a tracer per run (see :func:`time_variant`).
    ``engine=`` shares one :class:`~repro.engine.SolverEngine` across the
    whole matrix for engine-aware variants — the pool, planes, and cache
    are reused for every (variant, instance, repetition) cell."""
    records: list[RunRecord] = []
    for inst_name, graph in instances:
        values: set[int] = set()
        for algo_name, fn in variants.items():
            rec = time_variant(algo_name, fn, graph, inst_name, repetitions=repetitions,
                               seed=seed, trace=trace, engine=engine)
            records.append(rec)
            values.add(rec.value)
        if check_agreement and len(values) > 1:
            raise AssertionError(
                f"exact solvers disagree on {inst_name}: {sorted(values)}"
            )
    return records
