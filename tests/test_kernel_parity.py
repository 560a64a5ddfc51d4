"""Property test: every CAPFOREST kernel in the registry is interchangeable.

A kernel is only admissible as a *kernel registry* entry because it is
observationally identical to the scalar reference — same λ̂, same marked
partition, same priority-queue operation counts — on every configuration.
These tests check that equivalence on random GNM and RMAT instances, for the
sequential kernel, the full NOI/ParCut drivers, and the serial-executor
parallel pass (whose round-robin pop interleaving makes worker-level parity
deterministic).

The registry's ``"compiled"`` entry runs as the vector kernel, so its
cases repeat the vector ones through the fallback.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.capforest import KERNELS, MIN_VECTOR_N, capforest, check_kernel
from repro.core.mincut import parallel_mincut
from repro.core.noi import noi_mincut
from repro.core.parallel_capforest import parallel_capforest
from repro.generators.gnm import connected_gnm, gnm
from repro.generators.rmat import rmat
from repro.observability import Tracer


def _instances():
    for seed in range(6):
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 120))
        m = int(r.integers(0, min(n * (n - 1) // 2, 4 * n) + 1))
        yield f"gnm-{seed}", gnm(n, m, rng=seed, weights=None if seed % 2 else (1, 9))
    yield "rmat", rmat(8, 1500, rng=3)
    yield "gnm-dense", connected_gnm(150, 2000, rng=9, weights=(1, 100))
    # above the small-scan crossover, where kernel="vector" batches on a BQueue
    yield "gnm-large", connected_gnm(2 * MIN_VECTOR_N, 12 * MIN_VECTOR_N, rng=10,
                                     weights=(1, 9))
    yield "rmat-large", rmat(9, 3000, rng=5)


def test_kernel_registry():
    assert KERNELS == ("scalar", "vector", "compiled")
    assert check_kernel("vector") == "vector"
    assert check_kernel("compiled") == "compiled"
    with pytest.raises(ValueError, match="unknown kernel"):
        check_kernel("simd")
    with pytest.raises(ValueError, match="unknown kernel"):
        capforest(gnm(4, 3, rng=0), 1, kernel="simd")
    with pytest.raises(ValueError, match="unknown kernel"):
        parallel_capforest(gnm(4, 3, rng=0), 1, kernel="simd")


@pytest.mark.parametrize("pq_kind", ["bqueue", "bstack", "heap"])
def test_sequential_kernels_identical(pq_kind):
    for name, g in _instances():
        lam = g.min_weighted_degree()[1] if g.n else 0
        runs = {
            kern: capforest(g, lam, pq_kind=pq_kind, rng=11, kernel=kern)
            for kern in KERNELS
        }
        a = runs["scalar"]
        for kern in KERNELS[1:]:
            b = runs[kern]
            assert a.lambda_hat == b.lambda_hat, (name, kern)
            assert a.n_marked == b.n_marked, (name, kern)
            assert a.min_alpha == b.min_alpha, (name, kern)
            assert a.scan_order == b.scan_order, (name, kern)
            # pop counts (and every PQ counter) must match event-for-event
            assert a.pq_stats.as_dict() == b.pq_stats.as_dict(), (name, kern)
            # identical union–find partitions: same labels, same block count
            assert np.array_equal(a.uf.labels(), b.uf.labels()), (name, kern)


def test_sequential_kernels_identical_fixed_bound():
    g = connected_gnm(120, 700, rng=2, weights=(1, 9))
    lam = g.min_weighted_degree()[1]
    a = capforest(g, lam, pq_kind="bqueue", rng=5, fixed_bound=True, kernel="scalar")
    for kern in KERNELS[1:]:
        b = capforest(g, lam, pq_kind="bqueue", rng=5, fixed_bound=True, kernel=kern)
        assert a.lambda_hat == b.lambda_hat == lam, kern
        assert a.scan_order == b.scan_order, kern
        assert a.pq_stats.as_dict() == b.pq_stats.as_dict(), kern
        assert np.array_equal(a.uf.labels(), b.uf.labels()), kern


@pytest.mark.parametrize("n", [MIN_VECTOR_N - 1, MIN_VECTOR_N])
def test_small_scan_crossover(n):
    """Below MIN_VECTOR_N a vector BQueue scan runs the scalar kernel (the
    trace names the kernel that ran); the result is the same either way."""
    g = connected_gnm(n, 4 * n, rng=n, weights=(1, 9))
    lam = g.min_weighted_degree()[1]
    tr = Tracer()
    a = capforest(g, lam, pq_kind="bqueue", rng=1, kernel="scalar")
    b = capforest(g, lam, pq_kind="bqueue", rng=1, kernel="vector", tracer=tr)
    ran = tr.events("capforest_pass")[0]["kernel"]
    assert ran == ("scalar" if n < MIN_VECTOR_N else "vector")
    assert a.scan_order == b.scan_order
    assert a.pq_stats.as_dict() == b.pq_stats.as_dict()
    assert np.array_equal(a.uf.labels(), b.uf.labels())


@pytest.mark.parametrize("pq_kind", ["bqueue", "bstack"])
def test_parallel_serial_executor_kernels_identical(pq_kind):
    """Serial-executor parity: per-pop vectorization must not change the
    deterministic round-robin interleaving, so every worker-level counter
    and the merged partition agree bit-for-bit."""
    for name, g in [("a", connected_gnm(200, 900, rng=1, weights=(1, 9))),
                    ("b", connected_gnm(80, 200, rng=4)),
                    ("c", rmat(8, 1200, rng=7))]:
        lam = g.min_weighted_degree()[1]
        runs = {
            kern: parallel_capforest(
                g, lam, workers=4, pq_kind=pq_kind, executor="serial", rng=13, kernel=kern
            )
            for kern in KERNELS
        }
        a = runs["scalar"]
        for kern in KERNELS[1:]:
            b = runs[kern]
            assert a.lambda_hat == b.lambda_hat, (name, kern)
            assert a.n_marked == b.n_marked, (name, kern)
            assert np.array_equal(a.uf.labels(), b.uf.labels()), (name, kern)
            for wa, wb in zip(a.workers, b.workers):
                assert wa.start_vertex == wb.start_vertex, (name, kern)
                assert wa.vertices_scanned == wb.vertices_scanned, (name, kern)
                assert wa.edges_scanned == wb.edges_scanned, (name, kern)
                assert wa.blacklisted == wb.blacklisted, (name, kern)
                assert wa.best_alpha == wb.best_alpha, (name, kern)
                assert wa.best_prefix == wb.best_prefix, (name, kern)
                assert wa.pq_stats.as_dict() == wb.pq_stats.as_dict(), (name, kern)


def test_noi_driver_kernels_identical():
    for name, g in _instances():
        if g.n < 2:
            continue
        vals = {
            kern: noi_mincut(g, pq_kind="bqueue", rng=3, kernel=kern)
            for kern in KERNELS
        }
        a = vals["scalar"]
        for kern in KERNELS[1:]:
            b = vals[kern]
            assert a.value == b.value, (name, kern)
            assert a.stats["rounds"] == b.stats["rounds"], (name, kern)
            assert a.stats["pq_pops"] == b.stats["pq_pops"], (name, kern)
            if a.side is not None:
                assert np.array_equal(a.side, b.side), (name, kern)


def test_parcut_driver_kernels_identical():
    g = connected_gnm(150, 600, rng=6, weights=(1, 9))
    runs = {
        kern: parallel_mincut(g, workers=3, executor="serial", rng=8, kernel=kern)
        for kern in KERNELS
    }
    a = runs["scalar"]
    for kern in KERNELS[1:]:
        b = runs[kern]
        assert a.value == b.value, kern
        assert a.stats["rounds"] == b.stats["rounds"], kern
        assert a.stats["pq_pops"] == b.stats["pq_pops"], kern
        assert a.stats["total_work"] == b.stats["total_work"], kern
