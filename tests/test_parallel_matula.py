"""Tests for the parallel Matula approximation (the paper's §5 future work)
and the frozen-bound parallel CAPFOREST it is built on."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import matula
from repro.baselines.matula import matula_approx
from repro.core import mincut
from repro.core.parallel_capforest import parallel_capforest
from repro.generators import connected_gnm
from repro.graph import from_edges
from repro.graph.contract import contract_by_union_find
from repro.runtime import NoProgressError

from .conftest import clamp_bucket_graph, discard_marks, oracle_mincut


class TestFrozenBoundParallelCapforest:
    def test_bound_not_tightened(self, dumbbell):
        # scan cuts of value 1 exist; the frozen threshold must stay at 3
        res = parallel_capforest(dumbbell, 3, workers=2, rng=0, fixed_bound=True)
        assert res.lambda_hat == 3

    def test_scan_cuts_still_reported(self, dumbbell):
        res = parallel_capforest(dumbbell, 3, workers=2, rng=0, fixed_bound=True)
        alphas = [w.best_alpha for w in res.workers if w.best_alpha is not None]
        assert alphas, "workers must report their scan cuts"
        assert min(alphas) >= 1

    def test_coverage_unaffected(self):
        rng = np.random.default_rng(2)
        g = connected_gnm(40, 90, rng=rng)
        res = parallel_capforest(g, 3, workers=3, rng=1, fixed_bound=True)
        assert sum(w.vertices_scanned for w in res.workers) == g.n

    @pytest.mark.parametrize("executor", ["serial", "processes"])
    def test_marks_respect_frozen_threshold(self, executor):
        """With a frozen threshold t, every marked edge has connectivity >= t
        in the scanned-subgraph sense; spot-check via the exact solver on a
        graph where the threshold sits below δ."""
        rng = np.random.default_rng(3)
        g = connected_gnm(20, 60, rng=rng, weights=(1, 4))
        res = parallel_capforest(g, 2, workers=2, executor=executor, rng=4, fixed_bound=True)
        # contracting these marks must never produce a multigraph whose min
        # cut is below min(2, λ): cuts smaller than the threshold survive
        from repro.graph.contract import contract_by_union_find

        lam = oracle_mincut(g)
        gc, _ = contract_by_union_find(g, res.uf)
        if gc.n >= 2:
            assert oracle_mincut(gc) >= min(2, lam)


    @pytest.mark.parametrize("seed", range(3))
    def test_drains_keep_the_threshold_frozen(self, seed):
        """Process workers drain at-the-clamp buckets under a frozen
        threshold too.  Blocks of weight-3 edges hang on a weight-1 bridge:
        at threshold 3 a first pop fills the clamp bucket, the scan cut of
        value 1 leaves the threshold at 3, and the marks keep the bridge.
        A drain needs the scheduling to leave one: a worker that scans the
        whole graph first leaves the other nothing to drain.  So the pass
        runs up to 8 times; every pass keeps the threshold and the bridge,
        and at least one must drain."""
        g3 = clamp_bucket_graph(16, weight=3)
        us, vs, ws = g3.edge_arrays()
        bridge = (np.minimum(us, vs) == 0) & (np.maximum(us, vs) == g3.n // 2)
        g = from_edges(g3.n, us, vs, np.where(bridge, 1, ws))
        drained = 0
        for _ in range(8):
            res = parallel_capforest(g, 3, workers=2, executor="processes", rng=seed,
                                     fixed_bound=True)
            assert res.lambda_hat == 3
            gc, _ = contract_by_union_find(g, res.uf)
            assert gc.n >= 2 and oracle_mincut(gc) == 1
            drained = sum(w.drained for w in res.workers)
            if drained:
                break
        assert drained > 0


class TestParallelMatula:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100_000), workers=st.integers(2, 4))
    def test_property_guarantee_holds_parallel(self, seed, workers):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 26))
        m = min(int(rng.integers(n, 4 * n)), n * (n - 1) // 2)
        g = connected_gnm(n, m, rng=rng, weights=(1, 7))
        lam = oracle_mincut(g)
        res = matula_approx(g, eps=0.5, rng=rng, workers=workers)
        assert res.verify(g)
        assert lam <= res.value <= 2.5 * lam

    def test_parallel_matches_quality_statistically(self):
        rng = np.random.default_rng(7)
        seq_exact = par_exact = total = 0
        for _ in range(12):
            g = connected_gnm(30, 120, rng=rng, weights=(1, 5))
            lam = oracle_mincut(g)
            total += 1
            seq_exact += matula_approx(g, rng=rng, workers=1).value == lam
            par_exact += matula_approx(g, rng=rng, workers=3).value == lam
        # both modes should usually land on the exact cut on easy instances
        assert seq_exact >= total - 3
        assert par_exact >= total - 3

    @pytest.mark.parametrize("members", [15, 16])
    def test_guarantee_holds_with_drains(self, members):
        g = clamp_bucket_graph(members)
        res = matula_approx(g, eps=0.5, rng=0, workers=2, executor="processes")
        assert res.verify(g)
        assert 1 <= res.value <= 2.5

    @pytest.mark.parametrize("workers", [1, 3])
    def test_discarded_passes_raise_no_progress(self, monkeypatch, workers):
        """Matula's rounds run the same watchdog: with every pass's marks
        discarded, round 1 raises instead of stopping early."""
        parallel_calls = discard_marks(monkeypatch, mincut, "parallel_capforest")
        calls = discard_marks(monkeypatch, matula, "capforest")
        g = connected_gnm(30, 80, rng=np.random.default_rng(9), weights=(1, 5))
        with pytest.raises(NoProgressError, match="round 1 left the graph at 30 vertices"):
            matula_approx(g, rng=0, workers=workers)
        assert (len(parallel_calls), len(calls)) == (int(workers > 1), 1)

    def test_disconnected_parallel(self, two_triangles_disconnected):
        res = matula_approx(two_triangles_disconnected, rng=0, workers=3)
        assert res.value == 0

    def test_stats_rounds(self):
        rng = np.random.default_rng(8)
        g = connected_gnm(50, 200, rng=rng)
        res = matula_approx(g, rng=0, workers=2)
        assert res.stats["rounds"] >= 1
        assert res.stats["edges_scanned"] > 0
