"""Tests for parallel CAPFOREST (Algorithm 1): safety, coverage, executors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.parallel_capforest import parallel_capforest
from repro.generators import connected_gnm
from repro.graph import from_edges
from repro.graph.contract import contract_by_union_find

from .conftest import graph_to_nx, oracle_mincut


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
