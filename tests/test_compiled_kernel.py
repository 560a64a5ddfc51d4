"""Tests for the compiled kernel tier (`repro.kernels`).

Four concerns, matching the satellites of the compiled-tier PR:

* **registry centralization** — `KERNELS` / `check_kernel` live in one
  place and every consumer (capforest, parallel_capforest, CLI, API)
  uses that copy, so the advertised set cannot drift; every advertised
  kernel actually solves a fixture through the public API.
* **fallback** — `kernel="compiled"` without numba degrades to the
  vector kernel *visibly*: `kernel_fallback` stats key, one
  `kernel_fallback` trace event, and the tier state in
  `engine.stats()["kernels"]` / `GET /v1/stats`.
* **pure-Python parity** — with ``REPRO_COMPILED_PUREPY=1`` the jitted
  kernels run as interpreted Python, so the label-propagation and
  contraction twins are provably bit-equal to their references without
  the dependency (the CAPFOREST twin is covered by
  ``test_kernel_parity.py``).
* **warmup** — idempotent, counted, and wired into pooled engine
  workers; the real JIT-compilation assertions skip cleanly when numba
  is absent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import minimum_cut
from repro.core.mincut import parallel_mincut
from repro.core.noi import noi_mincut
from repro.generators.gnm import connected_gnm, gnm
from repro.kernels import (
    COMPILED_FALLBACK,
    KERNEL_CROSSOVERS,
    KERNELS,
    NUMBA_AVAILABLE,
    check_kernel,
    compile_count,
    compiled_available,
    compiled_status,
    resolve_kernel,
    warmup,
)
from repro.observability import Tracer
from repro.observability.schema import (
    EVENT_KINDS,
    PARCUT_STATS_KEYS,
    validate_parcut_stats,
    validate_trace_events,
)


@pytest.fixture
def purepy(monkeypatch):
    """Force the compiled tier to run as interpreted Python."""
    monkeypatch.setenv("REPRO_COMPILED_PUREPY", "1")


@pytest.fixture
def no_tier(monkeypatch):
    """Guarantee the compiled tier is unavailable (skip when numba is)."""
    if NUMBA_AVAILABLE:
        pytest.skip("numba installed: the fallback path cannot be exercised")
    monkeypatch.delenv("REPRO_COMPILED_PUREPY", raising=False)


# ---------------------------------------------------------------------------
# registry centralization
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_single_source_of_truth(self):
        # `repro.core.capforest` the *attribute* is the capforest function
        # (re-exported by the package), so import the names directly
        from repro.core.capforest import KERNELS as cf_kernels
        from repro.core.capforest import check_kernel as cf_check
        from repro.core.parallel_capforest import resolve_kernel as pcf_resolve

        assert KERNELS == ("scalar", "vector", "compiled")
        assert cf_kernels is KERNELS
        assert cf_check is check_kernel
        assert pcf_resolve is resolve_kernel

    def test_cli_choices_come_from_registry(self):
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        kernel_action = next(
            a for a in parser._actions
            if isinstance(a, argparse.Action) and a.dest == "kernel"
        )
        assert tuple(kernel_action.choices) == KERNELS

    def test_check_kernel_rejects_unknowns(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            check_kernel("simd")
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel("simd")

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("algorithm", ["noi", "parcut", "noi-viecut"])
    def test_every_advertised_kernel_solves(self, kernel, algorithm):
        # no purepy forcing: this must hold in *any* environment — a
        # compiled request without numba resolves to vector and still solves
        g = connected_gnm(60, 180, rng=2, weights=(1, 7))
        expected = minimum_cut(g, algorithm="stoer-wagner")
        res = minimum_cut(g, algorithm=algorithm, rng=4, kernel=kernel)
        assert res.value == expected.value

    def test_crossover_constants_are_tier_aware(self):
        from repro.core.capforest import MIN_BATCH, POP_VECTOR_MIN_DEGREE

        assert set(KERNEL_CROSSOVERS) == {"vector", "compiled"}
        for tier in KERNEL_CROSSOVERS.values():
            assert set(tier) == {"min_batch", "pop_vector_min_degree"}
        # the module-level constants are the vector tier's entries
        assert MIN_BATCH == KERNEL_CROSSOVERS["vector"]["min_batch"]
        assert POP_VECTOR_MIN_DEGREE == KERNEL_CROSSOVERS["vector"]["pop_vector_min_degree"]
        # machine-code loops have no per-call overhead to amortize
        assert KERNEL_CROSSOVERS["compiled"]["min_batch"] <= 1
        assert KERNEL_CROSSOVERS["compiled"]["pop_vector_min_degree"] == 0


# ---------------------------------------------------------------------------
# resolution and fallback visibility
# ---------------------------------------------------------------------------


class TestFallback:
    def test_resolve_passthrough(self, purepy):
        assert compiled_available()
        assert resolve_kernel("scalar") == ("scalar", None)
        assert resolve_kernel("vector") == ("vector", None)
        assert resolve_kernel("compiled") == ("compiled", None)

    def test_resolve_degrades_without_tier(self, no_tier):
        resolved, reason = resolve_kernel("compiled")
        assert resolved == COMPILED_FALLBACK == "vector"
        assert reason is not None and "compiled tier unavailable" in reason

    def test_fallback_event_is_in_taxonomy(self):
        assert "kernel_fallback" in EVENT_KINDS

    def test_noi_stats_and_trace_surface_fallback(self, no_tier):
        g = connected_gnm(50, 140, rng=1)
        tr = Tracer()
        res = noi_mincut(g, rng=3, kernel="compiled", tracer=tr)
        assert res.stats["kernel"] == "compiled"
        assert res.stats["kernel_resolved"] == "vector"
        assert res.stats["kernel_fallback"] is not None
        events = tr.events("kernel_fallback")
        assert len(events) == 1  # resolved once per solve, not per round
        assert events[0]["requested"] == "compiled"
        assert events[0]["resolved"] == "vector"
        validate_trace_events(tr.events())

    @pytest.mark.parametrize(
        "algorithm", ["noi", "noi-hnss", "noi-viecut", "parcut", "viecut"]
    )
    def test_one_fallback_event_per_solve(self, no_tier, algorithm):
        # noi-viecut runs VieCut and then NOI, and each used to report the
        # fallback: every algorithm that takes kernel= reports it once
        g = connected_gnm(60, 200, rng=1)
        tr = Tracer()
        res = minimum_cut(g, algorithm=algorithm, rng=0, kernel="compiled", tracer=tr)
        assert len(tr.events("kernel_fallback")) == 1
        assert res.stats["kernel"] == "compiled"
        assert res.stats["kernel_resolved"] == "vector"
        assert res.stats["kernel_fallback"] is not None

    def test_parcut_stats_schema_covers_kernel_keys(self, no_tier):
        g = connected_gnm(80, 250, rng=5, weights=(1, 5))
        assert {"kernel_resolved", "kernel_fallback"} <= PARCUT_STATS_KEYS
        res = parallel_mincut(g, workers=2, rng=7, kernel="compiled")
        validate_parcut_stats(res.stats)
        assert res.stats["kernel"] == "compiled"
        assert res.stats["kernel_resolved"] == "vector"
        assert res.stats["kernel_fallback"] is not None
        # a native-kernel run emits the same keys with a null fallback
        res2 = parallel_mincut(g, workers=2, rng=7, kernel="vector")
        validate_parcut_stats(res2.stats)
        assert res2.stats["kernel_resolved"] == "vector"
        assert res2.stats["kernel_fallback"] is None

    def test_resolved_runs_match_requested_fallback(self, no_tier):
        # compiled-with-fallback must equal an explicit vector run exactly
        g = connected_gnm(90, 300, rng=8, weights=(1, 9))
        a = parallel_mincut(g, workers=3, rng=2, kernel="vector")
        b = parallel_mincut(g, workers=3, rng=2, kernel="compiled")
        assert a.value == b.value
        assert a.stats["pq_pops"] == b.stats["pq_pops"]
        assert a.stats["total_work"] == b.stats["total_work"]


# ---------------------------------------------------------------------------
# pure-Python parity of the LP and contraction twins
# ---------------------------------------------------------------------------


class TestPurePythonParity:
    def test_label_propagation_bit_equal_to_async(self, purepy):
        from repro.viecut.label_propagation import (
            propagate_labels,
            propagate_labels_compiled,
        )

        for seed in range(6):
            g = connected_gnm(100, 400, rng=seed, weights=(1, 8))
            for iters in (1, 3):
                rng_a = np.random.default_rng(seed * 10 + iters)
                rng_b = np.random.default_rng(seed * 10 + iters)
                a = propagate_labels(g, iterations=iters, rng=rng_a)
                b = propagate_labels_compiled(g, iterations=iters, rng=rng_b)
                assert np.array_equal(a, b), (seed, iters)

    def test_label_propagation_isolated_vertices(self, purepy):
        from repro.viecut.label_propagation import (
            propagate_labels,
            propagate_labels_compiled,
        )

        g = gnm(40, 25, rng=3)  # sparse: some isolated vertices
        a = propagate_labels(g, rng=np.random.default_rng(0))
        b = propagate_labels_compiled(g, rng=np.random.default_rng(0))
        assert np.array_equal(a, b)

    def test_cluster_labels_accepts_compiled_method(self, purepy):
        from repro.viecut.label_propagation import cluster_labels

        g = connected_gnm(80, 300, rng=4)
        dense = cluster_labels(g, rng=1, method="compiled")
        nc = int(dense.max()) + 1
        assert sorted(set(dense.tolist())) == list(range(nc))
        with pytest.raises(ValueError, match="unknown method"):
            cluster_labels(g, rng=1, method="jit")

    def test_compiled_unavailable_raises(self, no_tier):
        from repro.viecut.label_propagation import propagate_labels_compiled

        with pytest.raises(RuntimeError, match="compiled kernel tier"):
            propagate_labels_compiled(gnm(10, 15, rng=0))

    def test_contraction_element_identical(self, purepy):
        from repro.graph.contract import contract_by_labels, contract_by_union_find
        from repro.datastructures.union_find import UnionFind

        rng = np.random.default_rng(7)
        for seed in range(5):
            g = connected_gnm(90, 500, rng=seed, weights=(1, 9))
            raw = rng.integers(0, 12, size=g.n)
            _, labels = np.unique(raw, return_inverse=True)
            a, _ = contract_by_labels(g, labels)
            b, _ = contract_by_labels(g, labels, kernel="compiled")
            assert np.array_equal(a.xadj, b.xadj), seed
            assert np.array_equal(a.adjncy, b.adjncy), seed
            assert np.array_equal(a.adjwgt, b.adjwgt), seed
        uf = UnionFind(g.n)
        for v in range(0, g.n - 1, 3):
            uf.union(v, v + 1)
        a, _ = contract_by_union_find(g, uf)
        b, _ = contract_by_union_find(g, uf, kernel="compiled")
        assert np.array_equal(a.adjwgt, b.adjwgt)

    def test_parallel_contract_threads_kernel(self, purepy):
        from repro.graph.contract import contract_by_labels
        from repro.graph.parallel_contract import parallel_contract_by_labels

        g = connected_gnm(100, 600, rng=2, weights=(1, 6))
        labels = np.arange(g.n, dtype=np.int64) % 9
        a, _ = contract_by_labels(g, labels)
        b, _ = parallel_contract_by_labels(g, labels, workers=4, kernel="compiled")
        assert np.array_equal(a.xadj, b.xadj)
        assert np.array_equal(a.adjncy, b.adjncy)
        assert np.array_equal(a.adjwgt, b.adjwgt)


# ---------------------------------------------------------------------------
# warmup and engine observability
# ---------------------------------------------------------------------------


class TestWarmupAndStats:
    def test_warmup_idempotent(self, purepy):
        first = warmup()
        assert first >= 0.0
        before = compile_count()
        assert warmup() == 0.0  # second call is a no-op
        assert compile_count() == before

    def test_compile_count_zero_without_numba(self):
        if NUMBA_AVAILABLE:
            pytest.skip("numba installed: dispatchers have real signatures")
        assert compile_count() == 0

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="requires numba")
    def test_jit_warmup_compiles_once(self, monkeypatch):
        monkeypatch.delenv("REPRO_COMPILED_PUREPY", raising=False)
        warmup()
        status = compiled_status()
        assert status["warmed"] is True
        # every jitted dispatcher has at least one signature after warmup,
        # and re-warming adds none (compile-once per process)
        count = compile_count()
        assert count > 0
        assert warmup() == 0.0
        assert compile_count() == count

    def test_compiled_status_shape(self, purepy):
        status = compiled_status()
        assert status["registry"] == list(KERNELS)
        assert status["compiled_available"] is True
        assert status["pure_python_forced"] is True
        assert status["fallback"] is None
        assert isinstance(status["compile_count"], int)

    def test_engine_stats_expose_kernel_tier(self):
        from repro.engine import SolverEngine

        with SolverEngine(pool_size=1) as eng:
            g = connected_gnm(40, 100, rng=1)
            res = eng.solve(g, "noi", rng=0, kernel="compiled")
            assert res.value == minimum_cut(g, algorithm="stoer-wagner").value
            stats = eng.stats()
        kernels = stats["kernels"]
        assert kernels["registry"] == list(KERNELS)
        assert kernels["numba"] is NUMBA_AVAILABLE
        if not compiled_available():
            assert kernels["fallback"] is not None

    def test_service_stats_expose_kernel_tier(self):
        from repro.service import ServiceClient, ServiceConfig
        from repro.service.testing import ServiceThread

        with ServiceThread(
            engine_kwargs={"pool_size": 1},
            config=ServiceConfig(max_inflight=4, per_client_inflight=4),
        ) as st:
            with ServiceClient("127.0.0.1", st.port) as client:
                payload = client.stats()
        kernels = payload["engine"]["kernels"]
        assert kernels["registry"] == list(KERNELS)
        assert "compile_count" in kernels and "warmup_seconds" in kernels
