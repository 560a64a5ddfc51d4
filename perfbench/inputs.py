"""Seeded inputs and independent reference answers for the benchmark.

The graphs are the program's own instance families at fixed generator
seeds: the synthetic Table-1 k-core suite (``DEFAULT_WORLDS``) and the
Figure-2 RHG grid.  The workload seed draws everything else: a random
vertex relabeling of every instance (so each seed hands the program
different CSR arrays, start vertices and tie-breaks, on graphs of the same
shape and minimum cut), the solver's ``rng``, the small gnm graphs of the
service mix, the order of that mix, and the update batches.  Reseeding the
generators themselves instead changed a pass's cost by 10-20% from seed to
seed, more than any bound the benchmark could then enforce.  The program
only ever receives the generated graphs.

Reference values never come from the solver under test.  A connected
graph with a bridge of weight 1 has minimum cut 1, which a depth-first
low-link search proves outright; every other graph is solved with the
Hao-Orlin push-relabel baseline, a flow-based exact algorithm from a
different family than NOI/CAPFOREST.  Hao-Orlin runs in a two-process pool
during set-up, outside every timed region.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import zlib
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro import minimum_cut
from repro.experiments.instances import rhg_instance, rhg_instances
from repro.generators import connected_gnm
from repro.generators.worlds import DEFAULT_WORLDS, build_suite
from repro.graph.builder import from_edges

#: worker processes for the reference pool (the host has two cores)
REFERENCE_WORKERS = 2


def sub_seed(seed: int, *tags) -> int:
    """A 31-bit seed derived from the workload seed and a tag path."""
    return zlib.crc32(repr((seed, *tags)).encode()) & 0x7FFFFFFF


# -- instances ---------------------------------------------------------------

def clear_caches() -> None:
    """Forget memoised instances, so a repeated set-up generates them again."""
    rhg_instance.cache_clear()


def suite(seed: int, scale: float) -> list[tuple[str, object]]:
    """The synthetic Table-1 k-core suite, each instance relabeled by ``seed``."""
    return [(inst.name, relabel(inst.graph, sub_seed(seed, "relabel", inst.name)))
            for inst in build_suite(DEFAULT_WORLDS, scale=scale)]


def rhg_grid(seed: int, n_exps: tuple[int, ...], deg_exps: tuple[int, ...]):
    """The Figure-2 RHG grid, each instance relabeled by ``seed``."""
    return [(name, relabel(g, sub_seed(seed, "relabel", name)))
            for name, g in rhg_instances(n_exps, deg_exps)]


def largest(instances, count: int):
    """The ``count`` largest instances by edge count (the Figure-5 inputs)."""
    return sorted(instances, key=lambda item: item[1].m, reverse=True)[:count]


def gnm_graph(seed: int, index: int, n: int, m: int):
    """A small connected gnm graph, distinct per ``index``."""
    return connected_gnm(n, m, rng=sub_seed(seed, "gnm", index))


def relabel(graph, rng):
    """An isomorphic copy under a random vertex permutation drawn from ``rng``
    (a generator or an integer seed).

    The copy has a different digest, so the service has never seen it, but
    the same minimum cut, so one reference answers every copy.
    """
    us, vs, ws = graph.edge_arrays()
    perm = np.random.default_rng(rng).permutation(graph.n)
    return from_edges(graph.n, perm[us], perm[vs], ws)


def solve_body(graph) -> bytes:
    """The ``/v1/solve`` request body, serialised once at set-up."""
    us, vs, ws = graph.edge_arrays()
    edges = np.stack((us, vs, ws), axis=1).tolist()
    return json.dumps({"graph": {"n": int(graph.n), "edges": edges}}).encode()


# -- references --------------------------------------------------------------

def _has_unit_bridge(graph) -> bool:
    """Does a connected graph have a bridge of weight 1?  Low-link DFS.

    With positive integer weights a cut of value 1 is exactly one edge of
    weight 1 whose removal disconnects the graph.
    """
    xadj, adj, wgt = graph.xadj.tolist(), graph.adjncy.tolist(), graph.adjwgt.tolist()
    n = graph.n
    disc = [-1] * n
    low = [0] * n
    up_weight = [0] * n  # weight of the tree edge from each vertex's parent
    clock = 0
    disc[0] = low[0] = clock
    stack = [(0, -1, xadj[0])]
    while stack:
        v, parent, pos = stack[-1]
        if pos < xadj[v + 1]:
            stack[-1] = (v, parent, pos + 1)
            w = adj[pos]
            if w == parent:
                continue
            if disc[w] < 0:
                clock += 1
                disc[w] = low[w] = clock
                up_weight[w] = wgt[pos]
                stack.append((w, v, xadj[w]))
            elif disc[w] < low[v]:
                low[v] = disc[w]
            continue
        stack.pop()
        if stack:
            u = stack[-1][0]
            if low[v] < low[u]:
                low[u] = low[v]
            if low[v] > disc[u] and up_weight[v] == 1:
                return True
    return False


def _quick_reference(graph) -> int | None:
    """λ when a linear-time proof exists (0 or 1), else ``None``."""
    matrix = csr_matrix((graph.adjwgt, graph.adjncy, graph.xadj), shape=(graph.n, graph.n))
    if connected_components(matrix, directed=False)[0] > 1:
        return 0
    if _has_unit_bridge(graph):
        return 1
    return None


def _hao_orlin(graph) -> int:
    return int(minimum_cut(graph, algorithm="hao-orlin").value)


def references(graphs: list, *, workers: int = REFERENCE_WORKERS) -> list[int]:
    """Exact minimum cuts of ``graphs`` from outside the NOI family."""
    out = [_quick_reference(g) for g in graphs]
    hard = [i for i, v in enumerate(out) if v is None]
    if len(hard) > 1 and workers > 1:
        ctx = mp.get_context("spawn")
        with ProcessPoolExecutor(min(workers, len(hard)), mp_context=ctx) as pool:
            for i, value in zip(hard, pool.map(_hao_orlin, [graphs[i] for i in hard])):
                out[i] = value
    else:
        for i in hard:
            out[i] = _hao_orlin(graphs[i])
    return out
