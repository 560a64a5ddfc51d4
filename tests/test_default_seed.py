"""The default solve and ParCut seed λ̂ with VieCut after their first pass.

``noi-viecut`` runs its first pass at the min-degree bound and contracts,
then runs VieCut on the contracted graph only if more than
``SMALL_THRESHOLD`` vertices remain; ParCut runs the same seed function
after its first parallel round.  A cut of the contracted graph is a cut of
the input, so the seed is a valid λ̂ and its side, mapped back through the
first contraction, a valid side.  The inputs below put the first
contraction exactly at the rule's boundary (64 and 65 vertices, as the
first contraction ratio shows, for the default solve and for a one-worker
ParCut) and
are checked against Hao–Orlin.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import minimum_cut
from repro.core import noi
from repro.core.capforest import capforest
from repro.core.mincut import parallel_mincut
from repro.generators import connected_gnm, rhg
from repro.graph import from_edges
from repro.observability import Tracer
from repro.observability.schema import validate_trace_events
from repro.runtime import NoProgressError
from repro.viecut.viecut import SMALL_THRESHOLD

from .conftest import discard_marks


def joined_rhg(a: tuple, b: tuple, bridges: int, seed: int):
    """Two hyperbolic graphs ``rhg(n, avg_degree, rng=s)`` joined by
    ``bridges`` unit edges between random endpoints."""
    gen = np.random.default_rng(seed)
    h1, h2 = rhg(a[0], a[1], rng=a[2]), rhg(b[0], b[1], rng=b[2])
    u1, v1, w1 = h1.edge_arrays()
    u2, v2, w2 = h2.edge_arrays()
    bu = gen.integers(h1.n, size=bridges)
    bv = gen.integers(h2.n, size=bridges) + h1.n
    return from_edges(
        h1.n + h2.n,
        np.concatenate([u1, u2 + h1.n, bu]),
        np.concatenate([v1, v2 + h1.n, bv]),
        np.concatenate([w1, w2, np.ones(bridges, dtype=np.int64)]),
    )


def cycle(n: int):
    u = np.arange(n)
    return from_edges(n, u, (u + 1) % n)


#: name -> (graph, vertices the first contraction leaves under rng=0)
BOUNDARY = {
    "left-64": (joined_rhg((64, 24, 2), (64, 24, 2), bridges=10, seed=0), 64),
    # the first pass stops at λ̂ = 10; VieCut finds the bridge cut of 8
    "left-65": (joined_rhg((128, 24, 0), (160, 24, 1), bridges=8, seed=0), 65),
}


def hao_orlin_value(g) -> int:
    return minimum_cut(g, algorithm="hao-orlin").value


def first_contraction_left(res, g) -> int:
    return round(res.stats["contraction_ratios"][0] * g.n)


@pytest.mark.parametrize("name", sorted(BOUNDARY))
def test_seed_runs_iff_first_contraction_leaves_more_than_threshold(name):
    g, left = BOUNDARY[name]
    res = minimum_cut(g, rng=0)
    assert first_contraction_left(res, g) == left
    ran = left > SMALL_THRESHOLD
    assert (res.stats["viecut_value"] is not None) == ran
    assert (res.stats["phase_seconds"]["viecut"] > 0.0) == ran
    assert res.algorithm == "noi-lambda-bqueue-viecut"
    assert res.value == hao_orlin_value(g)
    assert res.verify(g)


def test_seed_side_maps_back_through_the_first_contraction():
    g, _ = BOUNDARY["left-65"]
    tracer = Tracer()
    res = minimum_cut(g, rng=0, tracer=tracer)
    # the seed, not a later round, set the answer: its side is the one
    # returned, mapped from the contracted graph to input vertices
    assert res.stats["viecut_value"] < tracer.events("round_end")[0]["lambda_hat"]
    assert res.value == res.stats["viecut_value"] == hao_orlin_value(g)
    assert res.verify(g)
    assert minimum_cut(g, rng=0, compute_side=False).value == res.value


@pytest.mark.parametrize("name", sorted(BOUNDARY))
def test_parcut_seeds_iff_first_round_leaves_more_than_threshold(name):
    g, left = BOUNDARY[name]
    res = parallel_mincut(g, workers=1, executor="serial", rng=0)
    assert round(res.stats["contraction_ratios"][0] * g.n) == left
    ran = left > SMALL_THRESHOLD
    assert (res.stats["viecut_value"] is not None) == ran
    assert (res.stats["phase_seconds"]["viecut"] > 0.0) == ran
    assert res.value == hao_orlin_value(g)
    assert res.verify(g)


@pytest.mark.parametrize("executor", ["serial", "processes"])
@pytest.mark.parametrize("name", sorted(BOUNDARY))
def test_parcut_p2_seed_rule(name, executor):
    # a p=2 round leaves a count that depends on the schedule; the rule
    # holds whatever it is
    g, _ = BOUNDARY[name]
    res = parallel_mincut(g, workers=2, executor=executor, rng=0)
    left = round(res.stats["contraction_ratios"][0] * g.n)
    assert (res.stats["viecut_value"] is not None) == (left > SMALL_THRESHOLD)
    assert res.value == hao_orlin_value(g)
    assert res.verify(g)


@pytest.mark.parametrize("seed", range(40))
def test_a_complete_pass_at_the_min_degree_bound_marks(seed):
    """No input makes the first pass mark nothing: the last vertex scanned
    climbs to its weighted degree, at least λ̂, and λ̂ cannot drop below it
    first (IMPLEMENTATION_NOTES §3)."""
    gen = np.random.default_rng(seed)
    n = int(gen.integers(3, 40))
    g = connected_gnm(n, int(gen.integers(n - 1, n * (n - 1) // 2 + 1)),
                      rng=seed, weights=(1, int(gen.integers(1, 20))))
    lam = g.min_weighted_degree()[1]
    for pq_kind in ("bqueue", "bstack", "heap"):
        assert capforest(g, lam, pq_kind=pq_kind, bounded=True, rng=seed).n_marked > 0


@pytest.mark.parametrize("name", ["cycle-80", "left-65"])
def test_discarded_first_pass_raises_no_progress(monkeypatch, name):
    """A first pass whose marks are discarded leaves the graph as it was,
    and the round loop's watchdog raises before the seed: no fallback hides
    it (a complete pass at the min-degree bound always marks, as the test
    above checks)."""
    g = cycle(80) if name == "cycle-80" else BOUNDARY[name][0]
    calls = discard_marks(monkeypatch, noi, "capforest")
    with pytest.raises(NoProgressError,
                       match=f"round 1 left the graph at {g.n} vertices"):
        minimum_cut(g, rng=0)
    assert calls == ["capforest"]


def test_trace_of_a_solve_seeded_after_round_one():
    g, _ = BOUNDARY["left-65"]
    tracer = Tracer()
    res = minimum_cut(g, rng=0, tracer=tracer)
    events = tracer.events()
    summary = validate_trace_events(events)
    kinds = [ev["kind"] for ev in events]
    first_round_end = kinds.index("round_end")
    start = kinds.index("viecut_start")
    assert first_round_end < start < kinds.index("viecut_end")
    assert events[start]["n"] == events[first_round_end]["n_after"] == 65
    provenances = [ev["provenance"] for ev in tracer.events("lambda_update")]
    assert "viecut" in provenances
    assert summary["final_lambda"] == tracer.events("solve_end")[0]["value"] == res.value
