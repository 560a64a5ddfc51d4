"""Substrate benchmarks: the infrastructure under the minimum-cut solvers.

Not a paper figure — these isolate the cost of each building block so a
regression in one shows up independently of the full-solver benchmarks:
generators, CSR construction, k-core peeling, connected components,
contraction, reverse-arc computation, and the Gomory–Hu tree.
"""

import numpy as np
import pytest

from repro.baselines.gomory_hu import gomory_hu_tree
from repro.baselines.push_relabel import reverse_arcs
from repro.generators import chung_lu, connected_gnm, gnm, rhg, rmat
from repro.graph import connected_components, core_numbers, from_edges, k_core
from repro.graph.contract import contract_by_labels


@pytest.fixture(scope="module")
def medium_graph():
    return connected_gnm(5000, 40_000, rng=0, weights=(1, 8))


class TestGenerators:
    def test_gen_gnm(self, benchmark):
        benchmark.pedantic(lambda: gnm(5000, 40_000, rng=1), rounds=3, iterations=1)
        benchmark.group = "substrate-generators"

    def test_gen_rmat(self, benchmark):
        benchmark.pedantic(lambda: rmat(12, 16, rng=1), rounds=3, iterations=1)
        benchmark.group = "substrate-generators"

    def test_gen_chung_lu(self, benchmark):
        benchmark.pedantic(
            lambda: chung_lu(4096, 16, communities=16, rng=1), rounds=3, iterations=1
        )
        benchmark.group = "substrate-generators"

    def test_gen_rhg(self, benchmark):
        benchmark.pedantic(lambda: rhg(2048, 16, rng=1), rounds=2, iterations=1)
        benchmark.group = "substrate-generators"


class TestGraphOps:
    def test_csr_construction(self, benchmark):
        rng = np.random.default_rng(0)
        us = rng.integers(0, 5000, size=40_000)
        vs = rng.integers(0, 5000, size=40_000)
        benchmark.pedantic(lambda: from_edges(5000, us, vs), rounds=3, iterations=1)
        benchmark.group = "substrate-graph-ops"

    def test_connected_components(self, benchmark, medium_graph):
        benchmark.pedantic(lambda: connected_components(medium_graph), rounds=3, iterations=1)
        benchmark.group = "substrate-graph-ops"

    def test_core_numbers(self, benchmark, medium_graph):
        benchmark.pedantic(lambda: core_numbers(medium_graph), rounds=2, iterations=1)
        benchmark.group = "substrate-graph-ops"

    def test_k_core_extraction(self, benchmark, medium_graph):
        benchmark.pedantic(lambda: k_core(medium_graph, 8), rounds=3, iterations=1)
        benchmark.group = "substrate-graph-ops"

    def test_contraction(self, benchmark, medium_graph):
        labels = (np.arange(medium_graph.n) // 5).astype(np.int64)
        benchmark.pedantic(
            lambda: contract_by_labels(medium_graph, labels), rounds=3, iterations=1
        )
        benchmark.group = "substrate-graph-ops"

    def test_reverse_arcs(self, benchmark, medium_graph):
        benchmark.pedantic(lambda: reverse_arcs(medium_graph), rounds=3, iterations=1)
        benchmark.group = "substrate-graph-ops"


class TestExtensions:
    def test_gomory_hu_tree(self, benchmark):
        g = connected_gnm(60, 300, rng=2, weights=(1, 8))
        tree = benchmark.pedantic(lambda: gomory_hu_tree(g), rounds=1, iterations=1)
        benchmark.group = "substrate-extensions"
        benchmark.extra_info["global_min_cut"] = tree.global_min_cut()[0]
