"""Tests for parallel CAPFOREST (Algorithm 1): safety, coverage, executors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.capforest import MIN_BATCH
from repro.core.parallel_capforest import (
    WorkerReport,
    _FrozenBound,
    _MarkBuffer,
    _region_worker,
    _SharedBound,
    parallel_capforest,
)
from repro.datastructures.union_find import UnionFind
from repro.generators import chung_lu, connected_gnm
from repro.graph import from_edges, largest_component
from repro.graph.contract import contract_by_union_find
from repro.observability import Tracer

from .conftest import clamp_bucket_graph, graph_to_nx, oracle_mincut


class TestInterface:
    def test_unknown_executor(self, dumbbell):
        with pytest.raises(ValueError):
            parallel_capforest(dumbbell, 3, executor="gpu")

    def test_invalid_workers(self, dumbbell):
        with pytest.raises(ValueError):
            parallel_capforest(dumbbell, 3, workers=0)

    def test_negative_bound(self, dumbbell):
        with pytest.raises(ValueError):
            parallel_capforest(dumbbell, -1)

    def test_empty_graph(self):
        res = parallel_capforest(from_edges(0, [], []), 3)
        assert res.n_marked == 0
        assert res.workers == []

    def test_workers_capped_at_n(self, triangle):
        res = parallel_capforest(triangle, 2, workers=10, rng=0)
        assert len(res.workers) == 3


class TestCoverage:
    """Every vertex of a connected graph is scanned by exactly one worker.

    Only the serial executor promises *exactly* one: two processes can both
    claim a vertex in Algorithm 1's benign race on ``T``, which costs a
    rescan, never correctness.
    """

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.parametrize("executor", ["serial"])
    def test_all_vertices_scanned_once(self, workers, executor):
        rng = np.random.default_rng(1)
        g = connected_gnm(40, 90, rng=rng)
        res = parallel_capforest(g, 5, workers=workers, executor=executor, rng=2)
        total = sum(w.vertices_scanned for w in res.workers)
        assert total == g.n

    def test_serial_deterministic(self):
        rng = np.random.default_rng(3)
        g = connected_gnm(30, 60, rng=rng)
        r1 = parallel_capforest(g, 4, workers=3, executor="serial", rng=9)
        r2 = parallel_capforest(g, 4, workers=3, executor="serial", rng=9)
        assert r1.n_marked == r2.n_marked
        assert np.array_equal(r1.uf.labels(), r2.uf.labels())
        assert [w.vertices_scanned for w in r1.workers] == [
            w.vertices_scanned for w in r2.workers
        ]

    def test_worker_reports_have_starts(self):
        rng = np.random.default_rng(5)
        g = connected_gnm(20, 40, rng=rng)
        res = parallel_capforest(g, 4, workers=4, rng=1)
        starts = [w.start_vertex for w in res.workers]
        assert len(set(starts)) == 4  # sampled without replacement

    def test_work_accounting(self):
        rng = np.random.default_rng(6)
        g = connected_gnm(30, 70, rng=rng)
        res = parallel_capforest(g, 5, workers=3, rng=2)
        assert res.total_work >= res.makespan_work > 0
        assert res.total_work == sum(w.work for w in res.workers)


class TestSafety:
    """Marks never cross a cut smaller than the final λ̂ (Lemma 3.2)."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        workers=st.integers(1, 5),
        pq=st.sampled_from(["bstack", "bqueue", "heap"]),
    )
    def test_property_marks_never_cross_mincut(self, seed, workers, pq):
        import networkx as nx

        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 16))
        m = min(int(rng.integers(n, 3 * n)), n * (n - 1) // 2)
        g = connected_gnm(n, m, rng=rng, weights=(1, 5))
        _, deg0 = g.min_weighted_degree()
        res = parallel_capforest(g, deg0, workers=workers, pq_kind=pq, rng=rng)
        lam_true, (side_a, _) = nx.stoer_wagner(graph_to_nx(g))
        assert res.lambda_hat >= lam_true  # λ̂ stays a valid upper bound
        if res.lambda_hat <= lam_true:
            return
        side = np.zeros(g.n, dtype=bool)
        side[list(side_a)] = True
        labels = res.uf.labels()
        for b in range(labels.max() + 1):
            block = labels == b
            assert not ((block & side).any() and (block & ~side).any())

    def test_best_side_is_real_cut(self):
        rng = np.random.default_rng(11)
        g = connected_gnm(30, 45, rng=rng)
        _, deg0 = g.min_weighted_degree()
        res = parallel_capforest(g, deg0 + 3, workers=3, rng=4)
        if res.best_side is not None:
            assert g.cut_value(res.best_side) == res.lambda_hat


class TestExecutorEquivalence:
    """Both executors produce *safe* marks.  (Mark sets may differ — scan
    interleaving is scheduling-dependent — but every executor's output must
    be usable by ParCut.)"""

    @pytest.mark.parametrize("executor", ["serial"])
    def test_marks_progress_dumbbell(self, dumbbell, executor):
        res = parallel_capforest(dumbbell, 1, workers=2, executor=executor, rng=0)
        # bound λ̂=1: nothing to mark is legal, but coverage must hold
        total = sum(w.vertices_scanned for w in res.workers)
        assert total == dumbbell.n

    def test_processes_executor_safety(self):
        rng = np.random.default_rng(13)
        g = connected_gnm(40, 80, rng=rng, weights=(1, 4))
        _, deg0 = g.min_weighted_degree()
        res = parallel_capforest(g, deg0, workers=3, executor="processes", rng=5)
        total = sum(w.vertices_scanned for w in res.workers)
        assert total == g.n
        assert res.lambda_hat <= deg0

    def test_processes_marks_merge_safely(self):
        """The coordinator's merge of the workers' pair rows never crosses a
        cut below the marking bound (Lemma 3.2(1)): two clusters joined by
        one light edge keep that edge as the contracted graph's minimum cut.
        The bound is frozen so a scan cut cannot lower it to the bridge."""
        rng = np.random.default_rng(17)
        half = connected_gnm(25, 100, rng=rng, weights=(2, 5))
        us, vs, ws = half.edge_arrays()
        g = from_edges(50, np.r_[us, us + 25, 0], np.r_[vs, vs + 25, 25], np.r_[ws, ws, 1])
        _, deg0 = g.min_weighted_degree()
        res = parallel_capforest(
            g, deg0, workers=4, executor="processes", rng=6, fixed_bound=True
        )
        assert res.n_marked == g.n - res.uf.count > 0
        gc, _ = contract_by_union_find(g, res.uf)
        assert gc.n >= 2
        assert oracle_mincut(gc) == 1


class TestDrains:
    """``processes`` workers drain the BQueue's at-the-clamp bucket."""

    def test_processes_pass_drains_at_lambda_one(self):
        g = clamp_bucket_graph(MIN_BATCH)
        tracer = Tracer()
        res = parallel_capforest(g, 1, workers=2, executor="processes", rng=0, tracer=tracer)
        drained = [w.drained for w in res.workers]
        assert sum(drained) > 0
        # every vertex is scanned (twice at most, in the benign race on T)
        assert sum(w.vertices_scanned for w in res.workers) >= g.n
        (summary,) = tracer.events("parallel_pass")
        assert summary["kernel"] == "vector"
        assert summary["drained"] == sum(drained)
        assert [ev["drained"] for ev in tracer.events("worker_report")] == drained

    @pytest.mark.parametrize("case", ["bucket-16", "bridge-3", "gnm-pendant", "power-law",
                                      "frozen", "leaves"])
    def test_drain_matches_one_pop_loop(self, case):
        """With no other worker acting, a worker that drains scans exactly
        what the one-pop loop scans: the same counters, α, scan prefix,
        λ̂, claims and marks.  Some vertices start claimed in ``T``, as if
        by other workers, so drains blacklist members: a random third, or
        (``leaves``) the leaves, whose region's α is smallest at its end."""
        g, bound = _drain_case(case)
        if case == "leaves":
            preclaimed = np.arange(g.n) >= g.n - 8
        else:
            preclaimed = np.random.default_rng(5).random(g.n) < 0.3
        start = int(np.argmax(np.where(preclaimed, -1, g.weighted_degrees())))
        runs = []
        for drains in (False, True):
            T = bytearray(preclaimed.astype(np.uint8).tobytes())
            box = _FrozenBound(bound) if case == "frozen" else _SharedBound(bound)
            marks, rep = _MarkBuffer(), WorkerReport(worker_id=0, start_vertex=start)
            for _ in _region_worker(g, T, box, marks, start, "bqueue", bound, rep,
                                    drains=drains):
                pass
            pairs = marks.published(g.n)
            uf = UnionFind(g.n)
            uf.union_pairs(pairs[:, 0], pairs[:, 1])
            runs.append((rep.vertices_scanned, rep.edges_scanned, rep.blacklisted,
                         rep.pq_stats.as_dict(), rep.best_alpha, rep.best_prefix, box.value,
                         bytes(T), uf.labels().tolist(), rep.drained))
        assert runs[0][-1] == 0 and runs[1][-1] > 0
        assert runs[0][:-1] == runs[1][:-1]

    def test_serial_executor_never_drains(self):
        g = clamp_bucket_graph(MIN_BATCH)
        tracer = Tracer()
        res = parallel_capforest(g, 1, workers=2, executor="serial", rng=0, tracer=tracer)
        assert all(w.drained == 0 for w in res.workers)
        (summary,) = tracer.events("parallel_pass")
        assert (summary["kernel"], summary["drained"]) == ("scalar", 0)


def _drain_case(case):
    """A graph and a bound at which a BQueue scan drains often."""
    if case == "bucket-16":
        return clamp_bucket_graph(MIN_BATCH), 1
    if case in ("bridge-3", "frozen"):
        # weight-3 blocks on a weight-1 bridge: λ = 1 below the bound 3
        g3 = clamp_bucket_graph(MIN_BATCH, weight=3)
        us, vs, ws = g3.edge_arrays()
        bridge = (np.minimum(us, vs) == 0) & (np.maximum(us, vs) == g3.n // 2)
        return from_edges(g3.n, us, vs, np.where(bridge, 1, ws)), 3
    if case == "gnm-pendant":
        g = connected_gnm(300, 1500, rng=np.random.default_rng(9), weights=(1, 3))
        us, vs, ws = g.edge_arrays()
        return from_edges(301, np.r_[us, 7], np.r_[vs, 300], np.r_[ws, 2]), 2
    if case == "leaves":  # eight weight-2 leaves hung on a gnm graph
        g = connected_gnm(200, 1000, rng=np.random.default_rng(4), weights=(1, 3))
        us, vs, ws = g.edge_arrays()
        leaves = np.arange(200, 208)
        return from_edges(208, np.r_[us, leaves - 200], np.r_[vs, leaves],
                          np.r_[ws, np.full(8, 2)]), 2
    g, _ = largest_component(chung_lu(600, 8, gamma=2.3, communities=4, mu=0.4, rng=3))
    return g, 2


def _two_clusters():
    half = connected_gnm(24, 90, rng=np.random.default_rng(21), weights=(2, 5))
    us, vs, ws = half.edge_arrays()
    return from_edges(48, np.r_[us, us + 24, 0, 5], np.r_[vs, vs + 24, 24, 30],
                      np.r_[ws, ws, 1, 2])


#: ``executor="serial"`` results recorded before process workers could drain:
#: (graph, pq_kind, workers, λ̂ offset over δ, rng) -> (λ̂ in, λ̂ out, marks,
#: per-worker (start, scanned, edges, blacklisted, (pushes, updates,
#: skipped, pops), best α, best-prefix length), labels, best side)
SERIAL_PINS = {
    "gnm-bqueue": (
        (lambda: connected_gnm(40, 90, rng=np.random.default_rng(1), weights=(1, 3)),
         "bqueue", 3, 0, 7),
        (1, 1, 39,
         [(35, 13, 37, 17, (30, 0, 8, 30), 13, 2), (24, 14, 41, 15, (29, 0, 13, 29), 4, 1),
          (27, 13, 41, 17, (30, 0, 12, 30), 7, 1)],
         [0] * 40, None),
    ),
    "clusters-bstack": (
        (_two_clusters, "bstack", 2, 0, 2),
        (9, 3, 43,
         [(12, 24, 92, 2, (26, 37, 30, 26), 3, 24), (39, 24, 92, 2, (26, 35, 32, 26), 3, 24)],
         [0] * 11 + [1, 2] + [0] * 11 + [3] * 15 + [4] + [3] * 8, list(range(24))),
    ),
    "gnm-heap": (
        (lambda: connected_gnm(50, 150, rng=np.random.default_rng(3), weights=(1, 9)),
         "heap", 4, 5, 7),
        (16, 16, 6,
         [(44, 11, 45, 25, (36, 10, 0, 36), 17, 1), (30, 13, 67, 27, (40, 28, 0, 40), 43, 1),
          (49, 9, 42, 28, (37, 6, 0, 37), 20, 1), (33, 17, 65, 23, (40, 26, 0, 40), 32, 1)],
         [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 8, 10, 11, 8, 12, 8, 13, 14, 15, 16, 17, 18, 19,
          20, 21, 22, 18, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 8, 32, 33, 34, 35, 36,
          37, 38, 39, 40, 41, 42, 43],
         None),
    ),
}


@pytest.mark.parametrize("case", sorted(SERIAL_PINS))
def test_serial_executor_pinned(case):
    """The ``serial`` executor pops one vertex per turn on list-backed state:
    its counters, marks, λ̂ and side are the recorded ones, bit for bit."""
    (make, pq, workers, offset, seed), (lam_in, lam_out, marked, reps, labels, side) = (
        SERIAL_PINS[case]
    )
    g = make()
    assert g.min_weighted_degree()[1] + offset == lam_in
    res = parallel_capforest(g, lam_in, workers=workers, pq_kind=pq, executor="serial",
                             rng=seed)
    assert (res.lambda_hat, res.n_marked) == (lam_out, marked)
    assert [
        (w.start_vertex, w.vertices_scanned, w.edges_scanned, w.blacklisted,
         tuple(w.pq_stats.as_dict().values()), w.best_alpha, len(w.best_prefix))
        for w in res.workers
    ] == reps
    assert res.uf.labels().tolist() == labels
    assert (None if res.best_side is None else np.flatnonzero(res.best_side).tolist()) == side
