"""A sequential CAPFOREST pass is a one-worker ParCut region.

Both run one scan core.  With one worker no other scan claims a vertex in
``T``, so on a connected graph (where a sequential pass never restarts) the
region scans exactly what the sequential pass scans from the same start:
the same λ̂, best α and prefix, marks, queue counters and scan counts, on
either kernel's storage, and through drains on the ``processes`` executor.
"""

from __future__ import annotations

from functools import cache

import numpy as np
import pytest

from repro.core.capforest import MIN_BATCH, MIN_VECTOR_N, capforest
from repro.core.parallel_capforest import parallel_capforest
from repro.generators import chung_lu, connected_gnm
from repro.graph import from_edges, largest_component

from .conftest import clamp_bucket_graph


@cache
def _graph(case):
    if case == "gnm":
        return connected_gnm(60, 180, rng=1, weights=(1, 5))
    if case == "clamp-bucket":  # at λ̂ = 1 every first pop fills the clamp bucket
        return clamp_bucket_graph(MIN_BATCH)
    if case == "gnm-large":  # above the small-scan crossover: vector BQueue drains
        return connected_gnm(2 * MIN_VECTOR_N, 8 * MIN_VECTOR_N, rng=2, weights=(1, 3))
    if case == "hub":  # one vertex with 150 arcs: a single pop relaxes them as arrays
        g = connected_gnm(MIN_VECTOR_N, 4 * MIN_VECTOR_N, rng=4, weights=(1, 3))
        us, vs, ws = g.edge_arrays()
        spokes = np.arange(150)
        return from_edges(g.n + 1, np.r_[us, spokes], np.r_[vs, np.full(150, g.n)],
                          np.r_[ws, np.ones(150, dtype=np.int64)])
    g, _ = largest_component(chung_lu(400, 8, gamma=2.3, communities=4, mu=0.4, rng=3))
    return g


def _assert_same_scan(par, seq):
    (w,) = par.workers
    assert w.blacklisted == 0
    assert par.lambda_hat == seq.lambda_hat
    assert w.best_alpha == seq.min_alpha
    assert w.best_prefix == seq.scan_order[: seq.best_prefix]
    assert np.array_equal(par.uf.labels(), seq.uf.labels())
    assert w.pq_stats.as_dict() == seq.pq_stats.as_dict()
    assert (w.vertices_scanned, w.edges_scanned) == (seq.vertices_scanned, seq.edges_scanned)


@pytest.mark.parametrize("kernel", ["scalar", "vector"])
@pytest.mark.parametrize("pq_kind", ["bqueue", "bstack", "heap"])
@pytest.mark.parametrize("case", ["gnm", "clamp-bucket", "gnm-large", "hub", "power-law"])
def test_sequential_pass_is_a_one_worker_region(case, pq_kind, kernel):
    g = _graph(case)
    delta = g.min_weighted_degree()[1]
    for lam in (delta, delta // 2, 1):
        for fixed_bound in (False, True):
            par = parallel_capforest(g, lam, workers=1, pq_kind=pq_kind, executor="serial",
                                     rng=lam, fixed_bound=fixed_bound)
            seq = capforest(g, lam, pq_kind=pq_kind, start=par.workers[0].start_vertex,
                            fixed_bound=fixed_bound, kernel=kernel)
            _assert_same_scan(par, seq)


def test_one_process_worker_drains_as_the_sequential_pass():
    g = _graph("power-law")
    par = parallel_capforest(g, 2, workers=1, executor="processes", rng=0)
    assert par.workers[0].drained > 0
    for kernel in ("scalar", "vector"):
        seq = capforest(g, 2, pq_kind="bqueue", start=par.workers[0].start_vertex,
                        kernel=kernel)
        _assert_same_scan(par, seq)
