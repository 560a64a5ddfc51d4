"""Shared fixtures and helpers for the test suite.

``networkx`` serves strictly as an *oracle* (known-good minimum cut,
max-flow, core numbers); every algorithm under test is this package's own
implementation.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.graph import from_edges
from repro.graph.csr import Graph


def nx_to_graph(G) -> Graph:
    """Convert a networkx graph (optional 'weight' attributes) to CSR."""
    n = G.number_of_nodes()
    mapping = {v: i for i, v in enumerate(G.nodes())}
    us, vs, ws = [], [], []
    for u, v, data in G.edges(data=True):
        us.append(mapping[u])
        vs.append(mapping[v])
        ws.append(int(data.get("weight", 1)))
    return from_edges(n, us, vs, ws)


def graph_to_nx(g: Graph):
    """Convert CSR to networkx (for oracle calls)."""
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    for u, v, w in zip(*g.edge_arrays()):
        G.add_edge(int(u), int(v), weight=int(w), capacity=int(w))
    return G


def oracle_mincut(g: Graph) -> int:
    """Exact minimum cut via networkx Stoer–Wagner (connected graphs)."""
    import networkx as nx

    value, _ = nx.stoer_wagner(graph_to_nx(g))
    return value


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def assert_workers_exit_when_owner_is_killed(script: str, workers: int) -> None:
    """Run ``script`` in a fresh interpreter: it starts ``workers`` worker
    processes, prints their pids on one line and waits.  Kill it with
    SIGKILL, so no exit handler runs, and assert that every worker exits
    within 30 s (reads ``/proc``)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # stderr dropped: the killed owner's resource tracker reports the
    # shared memory it unlinks on the owner's behalf
    owner = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, env=env)
    try:
        pids = [int(pid) for pid in owner.stdout.readline().split()]
    finally:
        owner.kill()
        owner.wait(timeout=30)
        owner.stdout.close()
    assert len(pids) == workers
    deadline = time.monotonic() + 30.0
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, pids))


def random_connected_weighted(rng: np.random.Generator, n_max: int = 40, w_max: int = 10) -> Graph:
    """A random connected weighted graph for oracle comparisons."""
    from repro.generators import connected_gnm

    n = int(rng.integers(2, n_max))
    extra = int(rng.integers(0, max(1, n)))
    m = n - 1 + extra
    m = min(m, n * (n - 1) // 2)
    return connected_gnm(n, m, rng=rng, weights=(1, w_max))


def clamp_bucket_graph(members: int, weight: int = 1) -> Graph:
    """Two dense blocks joined by one bridge: λ = ``weight``, and all but at
    most one vertex per block have exactly ``members`` neighbours.

    Every edge weighs ``weight``, so at λ̂ = ``weight`` a scan's first pop
    puts each neighbour of its start vertex in the at-the-clamp bucket.
    An odd ``members`` gives each block ``K_{members+2}`` minus a perfect
    matching and one more edge at vertex 0, which the bridge restores (all
    vertices then have ``members`` neighbours); an even one gives
    ``K_{members+1}`` minus the edge (0, 1), so only vertex 1 has one fewer.
    """
    k = members + 2 if members % 2 else members + 1
    us, vs = np.triu_indices(k, 1)
    drop = (us == 0) & (vs == (k - 1 if members % 2 else 1))
    if members % 2:
        drop |= (us % 2 == 0) & (vs == us + 1)
    us, vs = us[~drop], vs[~drop]
    u = np.r_[us, us + k, 0]
    v = np.r_[vs, vs + k, k]
    return from_edges(2 * k, u, v, np.full(len(u), weight, dtype=np.int64))


# -- canonical small graphs ---------------------------------------------------


def discard_marks(monkeypatch, module, *names) -> list[str]:
    """Patch the CAPFOREST passes ``names`` of ``module`` to return their
    results with every mark discarded; returns the names of the calls made."""
    from repro.datastructures.union_find import UnionFind

    calls: list[str] = []
    for name in names:
        def discard(graph, lam, _real=getattr(module, name), _name=name, **kw):
            calls.append(_name)
            res = _real(graph, lam, **kw)
            return dataclasses.replace(res, uf=UnionFind(graph.n), n_marked=0)

        monkeypatch.setattr(module, name, discard)
    return calls


@pytest.fixture
def triangle() -> Graph:
    return from_edges(3, [0, 1, 2], [1, 2, 0], [1, 2, 3])


@pytest.fixture
def dumbbell() -> Graph:
    """Two K4s joined by one unit edge: λ = 1, sides {0..3} / {4..7}."""
    edges = []
    for base in (0, 4):
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append((base + i, base + j, 1))
    edges.append((3, 4, 1))
    us, vs, ws = zip(*edges)
    return from_edges(8, us, vs, ws)


@pytest.fixture
def weighted_cycle() -> Graph:
    """C4 with weights 3,1,3,1: λ = 2 (the two weight-1 edges)."""
    return from_edges(4, [0, 1, 2, 3], [1, 2, 3, 0], [3, 1, 3, 1])


@pytest.fixture
def star() -> Graph:
    """Star K1,5 with distinct weights: λ = min leaf weight = 2."""
    return from_edges(6, [0] * 5, [1, 2, 3, 4, 5], [2, 3, 4, 5, 6])


@pytest.fixture
def clique6() -> Graph:
    """K6 unit weights: λ = 5."""
    us, vs = [], []
    for i in range(6):
        for j in range(i + 1, 6):
            us.append(i)
            vs.append(j)
    return from_edges(6, us, vs)


@pytest.fixture
def path4() -> Graph:
    """P4: λ = 1."""
    return from_edges(4, [0, 1, 2], [1, 2, 3])


@pytest.fixture
def two_triangles_disconnected() -> Graph:
    """Two disjoint triangles: disconnected, λ = 0."""
    return from_edges(6, [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3])


@pytest.fixture
def two_vertices() -> Graph:
    return from_edges(2, [0], [1], [7])


CANONICAL_CUTS = {
    "dumbbell": 1,
    "weighted_cycle": 2,
    "star": 2,
    "clique6": 5,
    "path4": 1,
    "two_vertices": 7,
}
