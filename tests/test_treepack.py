"""Tests for the ``karger-nlt`` tree-packing exact solver (`repro.treepack`).

Layered like the package: the Euler-tour/LCA machinery and the per-tree
1-/2-respecting DP against naive oracles, the greedy packing's certificate
arithmetic, then the full solver — brute-force/oracle parity over a
random gnm sweep (weighted + unit, n ≤ 64), determinism under a fixed
seed, stats-schema discipline on every return path, trace validation, the
round cap's raise, and the end-to-end surfaces (engine cache, CLI batch,
service).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.baselines.brute_force import brute_force_mincut
from repro.core.api import minimum_cut
from repro.engine import SolverEngine, UnkeyableRequest
from repro.generators.gnm import connected_gnm
from repro.graph import from_edges
from repro.graph.io import write_metis
from repro.observability import Tracer
from repro.observability.schema import (
    TREEPACK_STATS_KEYS,
    validate_trace_events,
    validate_treepack_stats,
)
from repro.runtime import NoProgressError
from repro.treepack import RootedTree, TreePacking, evaluate_tree, karger_nlt_mincut
from repro.treepack import solver as treepack_solver
from repro.treepack.respect import _INF

from .conftest import CANONICAL_CUTS, oracle_mincut


# ---------------------------------------------------------------------------
# Euler tour + LCA
# ---------------------------------------------------------------------------


def _random_parent(rng: np.random.Generator, n: int) -> np.ndarray:
    """A random tree on [0, n) rooted at 0 (each vertex hangs off an earlier
    one, then labels are shuffled so the parent array is not sorted)."""
    perm = np.concatenate(([0], 1 + rng.permutation(n - 1)))
    parent = np.full(n, -1, dtype=np.int64)
    for i in range(1, n):
        parent[perm[i]] = perm[int(rng.integers(0, i))]
    return parent


def _naive_lca(parent: np.ndarray, u: int, v: int) -> int:
    anc = set()
    while u != -1:
        anc.add(u)
        u = int(parent[u])
    while v not in anc:
        v = int(parent[v])
    return v


class TestRootedTree:
    def test_requires_root_at_zero(self):
        with pytest.raises(ValueError):
            RootedTree(np.array([0, -1], dtype=np.int64))

    def test_subtree_intervals_partition(self):
        rng = np.random.default_rng(0)
        parent = _random_parent(rng, 17)
        t = RootedTree(parent)
        # tin is a permutation of [0, n); every subtree is a contiguous
        # interval containing its own tin
        assert sorted(t.tin.tolist()) == list(range(17))
        for v in range(17):
            mask = t.subtree_mask(v)
            assert mask[v]
            assert mask.sum() == t.tout[v] - t.tin[v] + 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_lca_matches_naive(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        parent = _random_parent(rng, n)
        t = RootedTree(parent)
        us = rng.integers(0, n, size=64)
        vs = rng.integers(0, n, size=64)
        got = t.lca(us, vs)
        for u, v, g in zip(us, vs, got):
            assert int(g) == _naive_lca(parent, int(u), int(v))


# ---------------------------------------------------------------------------
# per-tree 1-/2-respecting DP
# ---------------------------------------------------------------------------


def _naive_respecting(n, us, vs, ws, parent):
    """Oracle: enumerate every subtree and pair of subtrees directly."""
    t = RootedTree(parent)
    masks = [t.subtree_mask(v) for v in range(n)]

    def cut_of(side):
        cross = side[us] != side[vs]
        return int(ws[cross].sum())

    one = min(cut_of(masks[v]) for v in range(1, n))
    two = _INF
    for a in range(1, n):
        for b in range(1, n):
            if a == b:
                continue
            ma, mb = masks[a], masks[b]
            if not (ma & mb).any():
                two = min(two, cut_of(ma | mb))
            elif (mb & ~ma).sum() == 0:  # b nested in a
                two = min(two, cut_of(ma & ~mb))
    return one, two


@pytest.mark.parametrize("seed", range(6))
def test_evaluate_tree_matches_naive(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 14))
    g = connected_gnm(n, min(3 * n, n * (n - 1) // 2), rng=rng,
                      weights=(1, 9) if seed % 2 else None)
    us, vs, ws = g.edge_arrays()
    packing = TreePacking(n, us, vs, ws, np.random.default_rng(seed))
    parent, _key = packing.pack_tree()
    value, side, one, two = evaluate_tree(n, us, vs, ws, parent)
    exp_one, exp_two = _naive_respecting(n, us, vs, ws, parent)
    assert one == exp_one
    assert two == exp_two
    assert value == min(one, two)
    assert g.cut_value(side) == value
    assert 0 < side.sum() < n


def test_evaluate_tree_two_vertices():
    us = np.array([0]); vs = np.array([1]); ws = np.array([7])
    parent = np.array([-1, 0], dtype=np.int64)
    value, side, one, two = evaluate_tree(2, us, vs, ws, parent)
    assert value == one == 7
    assert two == _INF  # no pair of distinct non-root subtrees exists
    assert side.tolist() == [False, True]


# ---------------------------------------------------------------------------
# greedy packing + certificate
# ---------------------------------------------------------------------------


class TestTreePacking:
    def test_spanning_trees_and_loads(self):
        g = connected_gnm(12, 30, rng=0, weights=(1, 5))
        us, vs, ws = g.edge_arrays()
        packing = TreePacking(12, us, vs, ws, np.random.default_rng(0))
        for _ in range(5):
            parent, key = packing.pack_tree()
            assert len(key) == 11 and len(set(key)) == 11
            assert (parent[1:] >= 0).all() and parent[0] == -1
        assert packing.trees_packed == 5
        assert packing.loads.sum() == 5 * 11

    def test_disconnected_raises(self):
        g = from_edges(4, [0, 2], [1, 3])
        us, vs, ws = g.edge_arrays()
        packing = TreePacking(4, us, vs, ws, np.random.default_rng(0))
        with pytest.raises(ValueError, match="disconnected"):
            packing.pack_tree()

    def test_certificate_is_exact_integer_arithmetic(self):
        # C4 unit: λ = 2.  After k trees the max load edge has ℓ*/c* = ?
        g = from_edges(4, [0, 1, 2, 3], [1, 2, 3, 0])
        us, vs, ws = g.edge_arrays()
        packing = TreePacking(4, us, vs, ws, np.random.default_rng(1))
        assert not packing.certifies(2)  # nothing packed yet
        packing.pack_tree()
        # one tree of 3 edges over a 4-cycle: ℓ* = 1, c* = 1 → lb = 1,
        # and 3·1·1 > 2·1 certifies λ̂ = 2
        assert packing.value_lower_bound() == 1.0
        assert packing.certifies(2)
        assert not packing.certifies(3)

    def test_lower_bound_is_feasible(self):
        g = connected_gnm(16, 40, rng=3, weights=(1, 9))
        us, vs, ws = g.edge_arrays()
        packing = TreePacking(16, us, vs, ws, np.random.default_rng(3))
        for _ in range(8):
            packing.pack_tree()
        l_star, c_star = packing.max_relative_load()
        # feasibility of the uniform weighting: load(e)·c*/ℓ* ≤ c(e) ∀e
        assert (packing.loads * c_star <= l_star * ws).all()
        assert packing.value_lower_bound() == pytest.approx(
            packing.trees_packed * c_star / l_star)


# ---------------------------------------------------------------------------
# full solver: parity sweeps
# ---------------------------------------------------------------------------


class TestSolverParity:
    @pytest.mark.parametrize("name", sorted(CANONICAL_CUTS))
    def test_canonical_fixtures(self, name, request):
        g = request.getfixturevalue(name)
        res = karger_nlt_mincut(g, rng=0)
        assert res.value == CANONICAL_CUTS[name]
        assert g.cut_value(res.side) == res.value
        assert res.stats["certified"]
        validate_treepack_stats(res.stats)

    @pytest.mark.parametrize("seed", range(16))
    def test_brute_force_parity_small(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 14))
        m = int(rng.integers(n, min(n * (n - 1) // 2, 3 * n)))
        g = connected_gnm(n, m, rng=seed, weights=(1, 9) if seed % 2 else None)
        expected = brute_force_mincut(g, compute_side=False).value
        res = karger_nlt_mincut(g, rng=seed)
        assert res.value == expected
        assert g.cut_value(res.side) == res.value
        assert res.stats["certified"]

    @pytest.mark.parametrize("seed", range(16, 28))
    def test_oracle_parity_up_to_64(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(16, 65))
        m = int(rng.integers(2 * n, 4 * n))
        g = connected_gnm(n, m, rng=seed, weights=(1, 9) if seed % 2 else None)
        res = karger_nlt_mincut(g, rng=seed)
        assert res.value == oracle_mincut(g)
        assert g.cut_value(res.side) == res.value
        assert res.stats["certified"]

    def test_registry_route(self, dumbbell):
        res = minimum_cut(dumbbell, "karger-nlt", rng=0)
        assert res.value == 1
        assert res.algorithm == "karger-nlt"
        assert sorted(res.smaller_side()) in ([0, 1, 2, 3], [4, 5, 6, 7])

    def test_all_cuts_attaches_cactus(self, weighted_cycle):
        res = minimum_cut(weighted_cycle, "karger-nlt", rng=0, all_cuts=True)
        assert res.value == 2
        assert res.cactus is not None
        assert res.stats["num_min_cuts"] == res.cactus.num_min_cuts() >= 1


# ---------------------------------------------------------------------------
# determinism + stats schema + traces
# ---------------------------------------------------------------------------


class TestSolverContract:
    def test_deterministic_under_int_seed(self):
        g = connected_gnm(24, 70, rng=7, weights=(1, 9))
        a = karger_nlt_mincut(g, rng=5)
        b = karger_nlt_mincut(g, rng=5)
        assert a.value == b.value
        assert np.array_equal(a.side, b.side)
        assert a.stats["rounds"] == b.stats["rounds"]
        assert a.stats["trees_packed"] == b.stats["trees_packed"]
        assert a.stats["seed"] == 5

    def test_stats_keys_identical_on_every_path(self, two_vertices,
                                                two_triangles_disconnected):
        g = connected_gnm(16, 40, rng=1, weights=(1, 5))
        paths = [
            karger_nlt_mincut(g, rng=0),
            karger_nlt_mincut(g, rng=0, compute_side=False),
            karger_nlt_mincut(two_vertices, rng=0),
            karger_nlt_mincut(two_triangles_disconnected, rng=0),
        ]
        for res in paths:
            validate_treepack_stats(res.stats)
            assert set(res.stats) == TREEPACK_STATS_KEYS

    def test_disconnected_early_exit(self, two_triangles_disconnected):
        res = karger_nlt_mincut(two_triangles_disconnected, rng=0)
        assert res.value == 0
        assert res.stats["certified"]
        assert res.stats["rounds"] == 0
        side = res.side
        assert 0 < side.sum() < 6
        assert two_triangles_disconnected.cut_value(side) == 0

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            karger_nlt_mincut(from_edges(1, [], []), rng=0)

    def test_trace_validates_and_lands_on_value(self):
        g = connected_gnm(20, 60, rng=4, weights=(1, 9))
        with Tracer() as tracer:
            res = karger_nlt_mincut(g, rng=2, tracer=tracer)
            events = tracer.events()
        summary = validate_trace_events(events)
        assert summary["final_lambda"] == res.value
        by_kind = summary["by_kind"]
        assert by_kind["solve_start"] == by_kind["solve_end"] == 1
        assert by_kind["treepack_round"] == res.stats["rounds"]
        assert by_kind["treepack_tree"] == res.stats["trees_evaluated"]
        rounds = [e for e in events if e["kind"] == "treepack_round"]
        assert rounds[-1]["certified"] is True
        assert rounds[-1]["lambda_hat"] == res.value

    def test_uncertified_when_rounds_capped(self, monkeypatch, dumbbell, tmp_path):
        # a solve that ends without its certificate has only an upper
        # bound (the dumbbell's min degree, 3, against λ = 1): it raises
        # on every surface, and the engine caches nothing for it
        from repro.cli import EXIT_NO_PROGRESS, main
        from repro.service import ServiceClient, ServiceConfig
        from repro.service.testing import ServiceThread

        monkeypatch.setattr(treepack_solver, "MAX_ROUNDS", 0)
        match = r"0 trees in 0 rounds .*packing bound 0\.0, lambda-hat 3"
        with pytest.raises(NoProgressError, match=match):
            minimum_cut(dumbbell, "karger-nlt", rng=0)
        with pytest.raises(NoProgressError, match=match):
            minimum_cut(dumbbell, "karger-nlt", rng=0, all_cuts=True)
        write_metis(dumbbell, tmp_path / "g.metis")
        assert main(["--algorithm", "karger-nlt", str(tmp_path / "g.metis")]) == EXIT_NO_PROGRESS
        with ServiceThread(engine_kwargs={"pool_size": 0},
                           config=ServiceConfig()) as st:
            with ServiceClient("127.0.0.1", st.port) as client:
                status, _h, body = client.solve(
                    dumbbell, algorithm="karger-nlt", kwargs={"rng": 0})
                assert status == 500 and body["kind"] == "fault", body
                assert "without a certificate" in body["error"]
        with SolverEngine(pool_size=0) as eng:
            with pytest.raises(NoProgressError, match=match):
                eng.solve(dumbbell, "karger-nlt", rng=0)
            monkeypatch.undo()
            res = eng.solve(dumbbell, "karger-nlt", rng=0)
            assert res.value == 1 and res.stats["certified"]
            assert eng.stats()["cache"]["hits"] == 0


# ---------------------------------------------------------------------------
# engine: cacheability + seeding contract
# ---------------------------------------------------------------------------


class TestEngineIntegration:
    def test_engine_cache_hit_with_int_seed(self):
        g = connected_gnm(20, 55, rng=6, weights=(1, 9))
        with SolverEngine(pool_size=0) as eng:
            a = eng.solve(g, "karger-nlt", rng=4)
            b = eng.solve(g, "karger-nlt", rng=4)
            assert a.value == b.value
            assert eng.stats()["cache"]["hits"] == 1

    def test_live_rng_is_unkeyable(self):
        g = connected_gnm(12, 30, rng=0)
        with SolverEngine(pool_size=0) as eng:
            with pytest.raises(UnkeyableRequest):
                eng.solve(g, "karger-nlt", rng=np.random.default_rng(0),
                          cache=True)

    def test_pooled_solve(self):
        g = connected_gnm(20, 55, rng=6, weights=(1, 9))
        with SolverEngine(pool_size=1) as eng:
            res = eng.solve(g, "karger-nlt", rng=4)
            assert res.value == karger_nlt_mincut(g, rng=4).value


# ---------------------------------------------------------------------------
# CLI + service surfaces
# ---------------------------------------------------------------------------


class TestSurfaces:
    def test_cli_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        g = connected_gnm(24, 70, rng=8, weights=(1, 5))
        path = tmp_path / "g.metis"
        write_metis(g, path)
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        rc = main(["--algorithm", "karger-nlt", "--seed", "3",
                   "--trace", str(trace), "--metrics-json", str(metrics),
                   str(path)])
        assert rc == 0
        expected = karger_nlt_mincut(g, rng=3).value
        assert f"mincut    {expected}" in capsys.readouterr().out
        doc = json.loads(metrics.read_text())
        validate_treepack_stats(doc["stats"])
        assert doc["stats"]["certified"]
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert validate_trace_events(events)["final_lambda"] == expected

    def test_service_solves_karger_nlt(self, dumbbell):
        from repro.service import ServiceClient, ServiceConfig
        from repro.service.testing import ServiceThread

        with ServiceThread(engine_kwargs={"pool_size": 0},
                           config=ServiceConfig()) as st:
            with ServiceClient("127.0.0.1", st.port) as client:
                status, _h, body = client.solve(
                    dumbbell, algorithm="karger-nlt", kwargs={"rng": 0},
                    include_side=True)
                assert status == 200, body
                assert body["value"] == 1
                assert sorted(body["side"]) in ([0, 1, 2, 3], [4, 5, 6, 7])
                assert body["algorithm"] == "karger-nlt"
