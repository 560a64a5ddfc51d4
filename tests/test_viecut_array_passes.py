"""The array passes of VieCut's seeding give exactly what the loops they
replaced gave.

The Padberg–Rinaldi tests, the synchronous label-propagation half-updates
and the connectivity hooking used to run as Python loops, a lexsort and
``np.minimum.at`` scatters.  Those versions live on here as oracles; every
test compares the shipped code against them output for output: union–find
partitions (through :meth:`UnionFind.labels`, which numbers blocks by their
smallest member), raw and split LP labels, component labels, and whole
:func:`viecut` results.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.datastructures.union_find import UnionFind
from repro.generators import connected_gnm, gnm
from repro.generators.worlds import DEFAULT_WORLDS, build_suite
from repro.graph import Graph, from_edges
from repro.graph import components as components_mod
from repro.viecut import label_propagation as lp_mod
from repro.viecut import padberg_rinaldi as pr_mod
from repro.viecut.label_propagation import (
    _split_into_connected_clusters,
    cluster_labels,
    propagate_labels_sync,
)
from repro.viecut.padberg_rinaldi import padberg_rinaldi_marks, pr12_marks, pr34_marks

# the package re-exports the function under the module's name
viecut_mod = importlib.import_module("repro.viecut.viecut")


# ---------------------------------------------------------------------------
# oracles: the loops the array passes replaced
# ---------------------------------------------------------------------------


def oracle_pr12(graph, lambda_hat, uf=None):
    """PR1/PR2 with one scalar ``union`` per passing edge."""
    if uf is None:
        uf = UnionFind(graph.n)
    src = graph.arc_sources()
    dst = graph.adjncy
    w = graph.adjwgt
    wdeg = graph.weighted_degrees()
    passing = (w >= lambda_hat) | (2 * w >= np.minimum(wdeg[src], wdeg[dst]))
    passing &= src < dst
    for u, v in zip(src[passing].tolist(), dst[passing].tolist()):
        uf.union(u, v)
    return uf


def oracle_pr34(graph, lambda_hat, uf=None, *, work_budget=None):
    """PR3/PR4 walking common neighbours through per-vertex dicts."""
    if uf is None:
        uf = UnionFind(graph.n)
    if graph.n == 0:
        return uf
    if work_budget is None:
        work_budget = 8 * graph.m
    xadj, adjncy, adjwgt = graph.xadj, graph.adjncy, graph.adjwgt
    wdeg = graph.weighted_degrees()
    deg = graph.degrees()
    cache = {}

    def nbr_map(v):
        m = cache.get(v)
        if m is None:
            lo, hi = xadj[v], xadj[v + 1]
            m = dict(zip(adjncy[lo:hi].tolist(), adjwgt[lo:hi].tolist()))
            cache[v] = m
        return m

    src = graph.arc_sources()
    canon = src < adjncy
    eu, ev, ew = src[canon], adjncy[canon], adjwgt[canon]
    order = np.argsort(deg[eu] + deg[ev], kind="stable")
    spent = 0
    for idx in order.tolist():
        u, v, w = int(eu[idx]), int(ev[idx]), int(ew[idx])
        du, dv = int(deg[u]), int(deg[v])
        cost = min(du, dv) + 2
        if spent + cost > work_budget:
            break
        spent += cost
        if du > dv:
            u, v = v, u
        mu, mv = nbr_map(u), nbr_map(v)
        cu, cv = int(wdeg[u]), int(wdeg[v])
        pr4_sum = w
        pr3_hit = False
        for t, wut in mu.items():
            wvt = mv.get(t)
            if wvt is None:
                continue
            pr4_sum += wut if wut < wvt else wvt
            if not pr3_hit and 2 * (w + wut) >= cu and 2 * (w + wvt) >= cv:
                pr3_hit = True
        if pr3_hit or pr4_sum >= lambda_hat:
            uf.union(u, v)
    return uf


def oracle_pr(graph, lambda_hat, *, work_budget=None):
    return oracle_pr34(graph, lambda_hat, oracle_pr12(graph, lambda_hat),
                       work_budget=work_budget)


def oracle_sync(graph, *, iterations=2, rng=None):
    """Semi-synchronous LP grouping every arc each half, winners by lexsort."""
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)
    n = graph.n
    labels = np.arange(n, dtype=np.int64)
    if n == 0 or graph.num_arcs == 0 or iterations == 0:
        return labels
    src, dst, wgt = graph.arc_sources(), graph.adjncy, graph.adjwgt

    def compute_winners(current):
        keys = src * np.int64(n) + current[dst]
        order = np.argsort(keys, kind="stable")
        k_sorted = keys[order]
        w_sorted = wgt[order]
        boundary = np.empty(len(k_sorted), dtype=bool)
        boundary[0] = True
        np.not_equal(k_sorted[1:], k_sorted[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        ends = np.concatenate((starts[1:], [len(k_sorted)]))
        csum = np.concatenate(([0], np.cumsum(w_sorted, dtype=np.int64)))
        gains = csum[ends] - csum[starts]
        group_src = k_sorted[starts] // n
        group_label = k_sorted[starts] % n
        scaled = gains * 2 + (group_label == current[group_src])
        sort2 = np.lexsort((scaled, group_src))
        gs = group_src[sort2]
        seg_end = np.empty(len(gs), dtype=bool)
        seg_end[-1] = True
        np.not_equal(gs[1:], gs[:-1], out=seg_end[:-1])
        winners = sort2[seg_end]
        return group_src[winners], group_label[winners]

    for _ in range(iterations):
        changed = False
        half = rng.random(n) < 0.5
        for active in (half, ~half):
            upd_src, upd_label = compute_winners(labels)
            take = active[upd_src]
            new_labels = labels.copy()
            new_labels[upd_src[take]] = upd_label[take]
            if not np.array_equal(new_labels, labels):
                changed = True
            labels = new_labels
        if not changed:
            break
    return labels


def oracle_components_from_arcs(n, src, dst):
    """Min-label hooking with two ``np.minimum.at`` scatters per round."""
    if n == 0:
        return 0, np.empty(0, dtype=np.int64)
    labels = np.arange(n, dtype=np.int64)
    while True:
        prev = labels
        labels = labels.copy()
        np.minimum.at(labels, src, prev[dst])
        np.minimum.at(labels, dst, prev[src])
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        if np.array_equal(labels, prev):
            break
    _, dense = np.unique(labels, return_inverse=True)
    return int(dense.max()) + 1, dense.astype(np.int64)


def oracle_connected_components(graph):
    return oracle_components_from_arcs(graph.n, graph.arc_sources(), graph.adjncy)


def oracle_split(graph, raw):
    src, dst = graph.arc_sources(), graph.adjncy
    same = raw[src] == raw[dst]
    return oracle_components_from_arcs(graph.n, src[same], dst[same])[1]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def unsorted_rows(graph: Graph, seed: int) -> Graph:
    """The same graph with every adjacency row shuffled (built directly)."""
    rng = np.random.default_rng(seed)
    adjncy, adjwgt = graph.adjncy.copy(), graph.adjwgt.copy()
    for v in range(graph.n):
        lo, hi = graph.xadj[v], graph.xadj[v + 1]
        perm = lo + rng.permutation(hi - lo)
        adjncy[lo:hi], adjwgt[lo:hi] = graph.adjncy[perm], graph.adjwgt[perm]
    return Graph(graph.xadj.copy(), adjncy, adjwgt)


def huge_weights(graph: Graph, seed: int) -> Graph:
    """The same edges with weights above 2**53 (exact only as integers)."""
    us, vs, _ = graph.edge_arrays()
    rng = np.random.default_rng(seed)
    ws = (1 << 53) + rng.integers(1, 1 << 20, size=len(us))
    # a few edges of exactly 2**53 + 1 give ties a float sum would blur
    ws[::7] = (1 << 53) + 1
    return from_edges(graph.n, us, vs, ws)


def with_isolated(graph: Graph, extra: int) -> Graph:
    us, vs, ws = graph.edge_arrays()
    return from_edges(graph.n + extra, us, vs, ws)


def _graphs() -> list[tuple[str, Graph]]:
    out = []
    for seed in range(3):
        out.append((f"gnm-unit-{seed}", connected_gnm(120, 420, rng=seed)))
        out.append((f"gnm-weighted-{seed}",
                    connected_gnm(150, 600, rng=10 + seed, weights=(1, 9))))
    out.append(("gnm-dense", connected_gnm(60, 900, rng=4, weights=(1, 3))))
    for inst in build_suite(DEFAULT_WORLDS, scale=0.08)[::3]:
        out.append((f"suite-{inst.name}", inst.graph))
    out.append(("disconnected-isolated",
                with_isolated(gnm(80, 110, rng=5, weights=(1, 4)), 6)))
    out.append(("two-blobs", from_edges(
        9, [0, 0, 1, 4, 5, 5, 6], [1, 2, 2, 5, 6, 7, 7], [3, 1, 2, 1, 1, 5, 2])))
    out.append(("huge-weights", huge_weights(connected_gnm(90, 300, rng=6), 6)))
    out.append(("unsorted-rows",
                unsorted_rows(connected_gnm(100, 380, rng=7, weights=(1, 6)), 7)))
    out.append(("unsorted-huge", unsorted_rows(
        huge_weights(connected_gnm(70, 260, rng=8), 8), 8)))
    out.append(("single-edge", from_edges(2, [0], [1], [5])))
    out.append(("edgeless", from_edges(4, [], [])))
    return out


GRAPHS = _graphs()
IDS = [name for name, _ in GRAPHS]


def _bounds(graph: Graph) -> list[int]:
    """λ̂ values that make PR1/PR4 fire rarely, sometimes and often."""
    if graph.m == 0:
        return [0, 1]
    wdeg = graph.weighted_degrees()
    low = int(wdeg.min())
    return [low, max(1, low // 2), int(np.median(wdeg)), int(graph.adjwgt.max())]


def _budgets(graph: Graph) -> list[int | None]:
    return [0, graph.m // 3, None, 1 << 40]


def _partition(uf: UnionFind) -> tuple[int, list[int]]:
    return uf.count, uf.labels().tolist()


# ---------------------------------------------------------------------------
# Padberg–Rinaldi
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, graph", GRAPHS, ids=IDS)
class TestPadbergRinaldi:
    def test_pr12_partition(self, name, graph):
        for lam in _bounds(graph):
            assert _partition(pr12_marks(graph, lam)) == _partition(
                oracle_pr12(graph, lam)), lam

    def test_pr34_partition(self, name, graph):
        for lam in _bounds(graph):
            for budget in _budgets(graph):
                got = pr34_marks(graph, lam, work_budget=budget)
                want = oracle_pr34(graph, lam, work_budget=budget)
                assert _partition(got) == _partition(want), (lam, budget)

    def test_full_pass_partition(self, name, graph):
        for lam in _bounds(graph):
            for budget in _budgets(graph):
                got = padberg_rinaldi_marks(graph, lam, work_budget=budget)
                want = oracle_pr(graph, lam, work_budget=budget)
                assert _partition(got) == _partition(want), (lam, budget)

    def test_pr34_extends_a_given_union_find(self, name, graph):
        lam = _bounds(graph)[0]
        uf = UnionFind(graph.n)
        ref = UnionFind(graph.n)
        if graph.n >= 4:
            uf.union(0, graph.n - 1)
            ref.union(0, graph.n - 1)
        got = pr34_marks(graph, lam, uf)
        assert got is uf
        assert _partition(got) == _partition(oracle_pr34(graph, lam, ref))


def test_budget_admits_the_same_prefix():
    """Cutting the budget edge by edge: each cut point agrees with the loop."""
    g = connected_gnm(40, 120, rng=3, weights=(1, 4))
    lam = 10**9  # PR4 never fires, so every union comes from PR3 hits
    for budget in range(0, 8 * g.m + 1, 7):
        assert _partition(pr34_marks(g, lam, work_budget=budget)) == _partition(
            oracle_pr34(g, lam, work_budget=budget)), budget


def test_pr4_sum_is_exact_above_2_53():
    """A star sum that a float64 reduction would round to ``λ̂ - 1``."""
    big = 1 << 53
    # edge (0, 1) plus two triangles through 2 and 3; weights chosen so the
    # exact PR4 sum w + min + min equals λ̂, while float64 loses the +1s
    us = [0, 0, 1, 0, 1, 4]
    vs = [1, 2, 2, 3, 3, 0]
    ws = [1, big, big + 1, big, big + 1, 4 * big]
    g = from_edges(5, us, vs, ws)
    lam = 1 + big + big  # exactly w(0,1) + min(w02, w12) + min(w03, w13)
    got = pr34_marks(g, lam)
    assert _partition(got) == _partition(oracle_pr34(g, lam))
    assert got.same(0, 1)
    assert not pr34_marks(g, lam + 1).same(0, 1)


# ---------------------------------------------------------------------------
# label propagation and connectivity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, graph", GRAPHS, ids=IDS)
class TestLabelsAndComponents:
    def test_sync_labels(self, name, graph):
        for seed in range(3):
            for iterations in (1, 2, 5):
                got = propagate_labels_sync(graph, iterations=iterations, rng=seed)
                want = oracle_sync(graph, iterations=iterations, rng=seed)
                assert np.array_equal(got, want), (seed, iterations)

    def test_cluster_split(self, name, graph):
        for seed in range(3):
            raw = oracle_sync(graph, rng=seed)
            assert np.array_equal(_split_into_connected_clusters(graph, raw),
                                  oracle_split(graph, raw))
        # every vertex its own label: nothing joins
        raw = np.arange(graph.n, dtype=np.int64)
        assert np.array_equal(_split_into_connected_clusters(graph, raw),
                              oracle_split(graph, raw))

    def test_cluster_labels_sync(self, name, graph):
        for seed in range(3):
            got = cluster_labels(graph, rng=seed)
            want = oracle_split(graph, oracle_sync(graph, rng=seed))
            assert np.array_equal(got, want)

    def test_connected_components(self, name, graph):
        k, labels = components_mod.connected_components(graph)
        k_ref, labels_ref = oracle_connected_components(graph)
        assert k == k_ref
        assert np.array_equal(labels, labels_ref)
        assert labels.dtype == np.int64


def test_half_update_with_no_arcs():
    """One half holds every vertex that has an arc; the other half has none."""
    g = from_edges(6, [0, 0, 1], [1, 2, 2], [2, 1, 1])
    hits = 0
    for seed in range(64):
        half = np.random.default_rng(seed).random(g.n) < 0.5
        if len({bool(half[0]), bool(half[1]), bool(half[2])}) != 1:
            continue
        hits += 1
        for iterations in (1, 2):
            assert np.array_equal(
                propagate_labels_sync(g, iterations=iterations, rng=seed),
                oracle_sync(g, iterations=iterations, rng=seed))
    assert hits >= 3


def test_sync_ties_pick_the_largest_label():
    # vertex 0 sees labels 1, 2, 3 at equal weight and holds none of them
    g = from_edges(4, [0, 0, 0], [1, 2, 3])
    for seed in range(16):
        assert np.array_equal(propagate_labels_sync(g, iterations=1, rng=seed),
                              oracle_sync(g, iterations=1, rng=seed))


# ---------------------------------------------------------------------------
# whole VieCut runs
# ---------------------------------------------------------------------------


@pytest.fixture
def oracles_patched(monkeypatch):
    """Route VieCut (and its exact remnant solve) through the oracles."""
    from repro.core import noi as noi_mod

    def patch():
        monkeypatch.setattr(pr_mod, "pr12_marks", oracle_pr12)
        monkeypatch.setattr(pr_mod, "pr34_marks", oracle_pr34)
        monkeypatch.setattr(lp_mod, "propagate_labels_sync", oracle_sync)
        monkeypatch.setattr(lp_mod, "_split_into_connected_clusters", oracle_split)
        monkeypatch.setattr(viecut_mod, "connected_components",
                            oracle_connected_components)
        monkeypatch.setattr(noi_mod, "connected_components", oracle_connected_components)

    return patch


VIECUT_GRAPHS = [(name, g) for name, g in GRAPHS if g.n >= 2]


@pytest.mark.parametrize("name, graph", VIECUT_GRAPHS,
                         ids=[name for name, _ in VIECUT_GRAPHS])
def test_viecut_matches_the_loops(name, graph, oracles_patched, monkeypatch):
    # (SMALL_THRESHOLD, PR34_MAX_ARCS): cluster small graphs too, with and
    # without the triangle/star tests, then the shipped constants
    configs = [(8, viecut_mod.PR34_MAX_ARCS), (8, 0),
               (viecut_mod.SMALL_THRESHOLD, viecut_mod.PR34_MAX_ARCS)]

    def runs():
        out = []
        for seed in range(3):
            for small, pr34 in configs:
                monkeypatch.setattr(viecut_mod, "SMALL_THRESHOLD", small)
                monkeypatch.setattr(viecut_mod, "PR34_MAX_ARCS", pr34)
                out.append(viecut_mod.viecut(graph, rng=seed))
        return out

    got = runs()
    oracles_patched()
    want = runs()
    for a, b in zip(got, want):
        assert a.value == b.value
        assert np.array_equal(a.side, b.side)
        assert a.stats == b.stats
