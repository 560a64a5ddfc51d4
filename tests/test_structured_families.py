"""Exact minimum cuts on structured graph families with known closed forms.

Each family has a provable λ; every exact solver must hit it.  These
complement the random-oracle tests with instances whose structure stresses
specific code paths: perfect symmetry (tie-breaking), long paths (queue
depth), bipartite completeness (dense scans), hypercubes (uniform cuts),
trees (λ = min edge weight), and weight-scaled copies (integer handling).
"""

import pytest

from repro import minimum_cut
from repro.core import EXACT_ALGORITHMS
from repro.graph import from_edges

SOLVERS = sorted(EXACT_ALGORITHMS)


def complete_bipartite(a, b):
    us, vs = [], []
    for i in range(a):
        for j in range(b):
            us.append(i)
            vs.append(a + j)
    return from_edges(a + b, us, vs)


def hypercube(dim):
    n = 1 << dim
    us, vs = [], []
    for v in range(n):
        for d in range(dim):
            u = v ^ (1 << d)
            if u > v:
                us.append(v)
                vs.append(u)
    return from_edges(n, us, vs)


def binary_tree(depth, weight=1):
    n = (1 << (depth + 1)) - 1
    us = list(range(1, n))
    vs = [(i - 1) // 2 for i in range(1, n)]
    return from_edges(n, vs, us, [weight] * (n - 1))


def wheel(k):
    """Hub 0 + cycle 1..k."""
    us = [0] * k + list(range(1, k + 1))
    vs = list(range(1, k + 1)) + [i % k + 1 for i in range(1, k + 1)]
    return from_edges(k + 1, us, vs)


class TestCompleteBipartite:
    @pytest.mark.parametrize("algo", SOLVERS)
    def test_k33(self, algo):
        # λ(K_{3,3}) = 3 (isolate one vertex)
        g = complete_bipartite(3, 3)
        assert minimum_cut(g, algorithm=algo, rng=0).value == 3

    @pytest.mark.parametrize("algo", SOLVERS)
    def test_k25(self, algo):
        # λ(K_{2,5}) = 2 (isolate a degree-2 vertex on the large side)
        g = complete_bipartite(2, 5)
        assert minimum_cut(g, algorithm=algo, rng=0).value == 2


class TestHypercube:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_lambda_equals_dimension(self, dim):
        g = hypercube(dim)
        for algo in ("noi", "parcut", "stoer-wagner"):
            res = minimum_cut(g, algorithm=algo, rng=0)
            assert res.value == dim
            assert res.verify(g)


class TestTrees:
    @pytest.mark.parametrize("algo", SOLVERS)
    def test_unit_tree_lambda_one(self, algo):
        g = binary_tree(3)
        assert minimum_cut(g, algorithm=algo, rng=0).value == 1

    def test_weighted_tree_min_edge(self):
        # tree with distinct weights: λ = the smallest edge weight and the
        # cut side is that edge's subtree
        us = [0, 0, 1, 1]
        vs = [1, 2, 3, 4]
        ws = [7, 5, 3, 9]
        g = from_edges(5, us, vs, ws)
        res = minimum_cut(g, rng=0)
        assert res.value == 3
        assert sorted(min(res.partition(), key=len)) == [3]


class TestWheel:
    @pytest.mark.parametrize("k", [4, 6, 9])
    def test_rim_vertex_cut(self, k):
        # every rim vertex has degree 3; λ = 3
        g = wheel(k)
        for algo in ("noi", "hao-orlin"):
            assert minimum_cut(g, algorithm=algo, rng=0).value == 3


class TestWeightScaling:
    """λ(c·G) = c·λ(G): scaling all weights scales the cut exactly."""

    @pytest.mark.parametrize("scale", [2, 10, 1000, 10**7])
    def test_scaled_dumbbell(self, dumbbell, scale):
        us, vs, ws = dumbbell.edge_arrays()
        g = from_edges(dumbbell.n, us, vs, ws * scale)
        for algo in ("noi", "noi-hnss", "stoer-wagner", "hao-orlin"):
            assert minimum_cut(g, algorithm=algo, rng=0).value == scale

    def test_large_weights_no_overflow(self):
        # weights near 2^40: int64 arithmetic must hold up everywhere
        w = 1 << 40
        g = from_edges(4, [0, 1, 2, 3], [1, 2, 3, 0], [3 * w, w, 3 * w, w])
        for algo in ("noi", "noi-hnss", "stoer-wagner", "hao-orlin", "parcut"):
            assert minimum_cut(g, algorithm=algo, rng=0).value == 2 * w


class TestSymmetricTieBreaking:
    """Perfectly symmetric instances: all queue variants must agree on λ
    even though tie-breaking differs."""

    def test_cycle_all_queues(self):
        g = from_edges(10, range(10), [(i + 1) % 10 for i in range(10)])
        values = {
            pq: minimum_cut(g, algorithm="noi", pq_kind=pq, rng=0).value
            for pq in ("bstack", "bqueue", "heap")
        }
        assert set(values.values()) == {2}

    def test_complete_graph_all_queues(self):
        us, vs = [], []
        for i in range(7):
            for j in range(i + 1, 7):
                us.append(i)
                vs.append(j)
        g = from_edges(7, us, vs)
        for pq in ("bstack", "bqueue", "heap"):
            assert minimum_cut(g, algorithm="noi", pq_kind=pq, rng=0).value == 6
