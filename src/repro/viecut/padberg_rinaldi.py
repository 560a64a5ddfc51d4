"""Padberg–Rinaldi local tests for contractible edges.

Padberg & Rinaldi [26] give four local conditions under which an edge
``e = (u, v)`` of weight ``w`` can be contracted while preserving at least
one minimum cut, *provided the trivial cuts (single-vertex cuts) are kept
as candidates* — which every driver in this package does by checking the
minimum weighted degree after each contraction.  With ``λ̂`` the current
minimum-cut upper bound and ``c(·)`` weighted degrees:

* **PR1**: ``w ≥ λ̂``.  Any cut separating u and v contains e, so
  ``λ(u, v) ≥ w ≥ λ̂`` — unconditionally safe, exactly like a CAPFOREST
  mark.
* **PR2**: ``2w ≥ min(c(u), c(v))``.  If a non-trivial minimum cut
  separated u and v, moving the lighter endpoint to the other side would
  not increase the cut — so some minimum cut keeps u, v together or is
  trivial.
* **PR3** (triangle): there is a common neighbour ``t`` with
  ``2(w + c(u, t)) ≥ c(u)`` and ``2(w + c(v, t)) ≥ c(v)``.
* **PR4** (star): ``w + Σ_t min(c(u, t), c(v, t)) ≥ λ̂`` over common
  neighbours ``t`` — the triangle paths certify ``λ(u, v) ≥ λ̂``.
  Unconditionally safe like PR1.

VieCut (paper §2.4) interleaves a linear-work pass of these tests with its
label-propagation contractions; this module reproduces that pass as whole-
array numpy passes.  PR1/PR2 are evaluated over all arcs.  PR3/PR4 need
common-neighbour intersections, so they run under a work budget (default
linear in m) over the lowest-degree endpoints first, mirroring VieCut's
bounded scan: the admitted edges are the longest prefix, in that order,
whose costs fit the budget, and each common neighbour is found by a binary
search over the sorted ``(source, head)`` keys of all arcs.

Batching note: all tests are evaluated against the *input* graph and the
passing edges are contracted together — one
:meth:`~repro.datastructures.union_find.UnionFind.union_pairs` call per
test pair.  No test reads the union–find, so the partition (and
:meth:`~repro.datastructures.union_find.UnionFind.labels`) does not depend
on the order of the unions.  PR1/PR4 marks are safe to batch (each
certifies ``λ(u, v) ≥ λ̂`` in the input graph, as in Lemma 3.2).
PR2/PR3 are individually min-cut-preserving; batching them can in contrived
cases discard all minimum cuts, which is why the exact solvers use only
CAPFOREST marks while these tests power the *inexact* VieCut bound.
"""

from __future__ import annotations

import numpy as np

from ..datastructures.union_find import UnionFind
from ..graph.csr import Graph


def pr12_marks(graph: Graph, lambda_hat: int, uf: UnionFind | None = None) -> UnionFind:
    """Union the endpoints of every edge passing PR1 or PR2."""
    if uf is None:
        uf = UnionFind(graph.n)
    src = graph.arc_sources()
    dst = graph.adjncy
    w = graph.adjwgt
    wdeg = graph.weighted_degrees()
    passing = (w >= lambda_hat) | (2 * w >= np.minimum(wdeg[src], wdeg[dst]))
    # each undirected edge appears as two arcs; one canonical direction suffices
    passing &= src < dst
    uf.union_pairs(src[passing], dst[passing])
    return uf


def pr34_marks(
    graph: Graph,
    lambda_hat: int,
    uf: UnionFind | None = None,
    *,
    work_budget: int | None = None,
) -> UnionFind:
    """Union endpoints passing PR3 or PR4, under a common-neighbour work budget.

    ``work_budget`` bounds the total number of adjacency entries touched
    (default ``8 * m``), keeping the pass near-linear as in VieCut.  An
    edge ``(u, v)`` costs ``min(deg(u), deg(v)) + 2``; edges are admitted
    in order of ``deg(u) + deg(v)`` (ties in arc order) for as long as the
    running total stays within the budget.
    """
    if uf is None:
        uf = UnionFind(graph.n)
    if work_budget is None:
        work_budget = 8 * graph.m
    n = graph.n
    xadj, adjncy, adjwgt = graph.xadj, graph.adjncy, graph.adjwgt
    wdeg = graph.weighted_degrees()
    deg = graph.degrees()

    # cheapest intersections first: edges ordered by deg(u) + deg(v)
    src = graph.arc_sources()
    canon = src < adjncy
    eu, ev, ew = src[canon], adjncy[canon], adjwgt[canon]
    order = np.argsort(deg[eu] + deg[ev], kind="stable")
    cost = np.minimum(deg[eu], deg[ev])[order] + 2
    take = order[: np.searchsorted(np.cumsum(cost), work_budget, side="right")]
    if len(take) == 0:
        return uf
    u, v, w = eu[take], ev[take], ew[take]
    # walk the smaller neighbourhood (a), probe the other endpoint's (b)
    swap = deg[u] > deg[v]
    a = np.where(swap, v, u)
    b = np.where(swap, u, v)

    # one entry per (edge, neighbour t of a); every edge has t = b at least
    lens = deg[a]
    seg = np.cumsum(lens) - lens
    edge = np.repeat(np.arange(len(take)), lens)
    arc = np.arange(int(lens.sum())) + np.repeat(xadj[a] - seg, lens)
    t = adjncy[arc]
    w_at = adjwgt[arc]

    # find arc b->t among the sorted (source, head) keys of all arcs
    keys, weights = src * n + adjncy, adjwgt
    if not (keys[1:] > keys[:-1]).all():  # rows not sorted by head
        perm = np.argsort(keys)
        keys, weights = keys[perm], adjwgt[perm]
    query = b[edge] * n + t
    pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    common = keys[pos] == query
    w_bt = weights[pos]

    # PR3: 2(w + c(a, t)) >= c(a) and 2(w + c(b, t)) >= c(b), in integers
    # that cannot overflow: x >= ceil(c / 2)
    half_a = wdeg[a] - wdeg[a] // 2
    half_b = wdeg[b] - wdeg[b] // 2
    we = w[edge]
    triangle = common & (we + w_at >= half_a[edge]) & (we + w_bt >= half_b[edge])
    pr3 = np.logical_or.reduceat(triangle, seg)
    # PR4: w + sum over common neighbours of min(c(a, t), c(b, t))
    star = np.where(common, np.minimum(w_at, w_bt), 0)
    pr4 = w + np.add.reduceat(star, seg)
    passing = pr3 | (pr4 >= lambda_hat)
    uf.union_pairs(u[passing], v[passing])
    return uf


def padberg_rinaldi_marks(
    graph: Graph,
    lambda_hat: int,
    *,
    work_budget: int | None = None,
) -> UnionFind:
    """One full PR pass: PR1/PR2 over all edges, then PR3/PR4 budgeted."""
    uf = pr12_marks(graph, lambda_hat)
    return pr34_marks(graph, lambda_hat, uf, work_budget=work_budget)
