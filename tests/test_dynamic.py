"""Tests for the dynamic-graph update path (`repro.dynamic` + engine wiring).

Three layers, matching the subsystem's own structure:

* the **incremental CSR merge** (:func:`repro.dynamic.graph.apply_updates`)
  must be indistinguishable from a from-scratch rebuild — same digest, so
  the content-addressed cache/plane machinery can't tell them apart;
* the **handle** (:class:`repro.dynamic.DynamicGraph`) must version
  atomically and reject malformed batches without mutating;
* **warm re-solves** (:meth:`repro.engine.SolverEngine.update`) must be
  bit-identical to cold re-solves over randomized update streams — value
  always, side/num_min_cuts whenever the cactus is requested — across
  λ-increasing, λ-decreasing, and disconnecting batches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import minimum_cut
from repro.core.capforest import DEFAULT_PQ_KIND, capforest
from repro.dynamic import (
    DynamicGraph,
    EdgeUpdateError,
    apply_updates,
    make_warm_state,
    warm_solve,
)
from repro.dynamic.graph import row_weights
from repro.engine import ResultCache, SolverEngine, graph_digest, request_key
from repro.generators import connected_gnm
from repro.graph import Graph, from_edges
from repro.observability import Tracer
from repro.observability.schema import validate_trace_events

from .conftest import oracle_mincut


def _edge_dict(graph) -> dict[tuple[int, int], int]:
    us, vs, ws = graph.edge_arrays()
    return {
        (min(int(u), int(v)), max(int(u), int(v))): int(w)
        for u, v, w in zip(us, vs, ws)
    }


def _rebuild(n: int, edges: dict[tuple[int, int], int]):
    if not edges:
        return from_edges(n, [], [], [])
    us, vs = zip(*edges)
    return from_edges(n, us, vs, [edges[k] for k in edges])


def _random_batch(rng, n: int, edges: dict, *, p_insert: float = 0.6,
                  max_ops: int = 6):
    """A well-formed random batch against the current edge set."""
    inserts: list[tuple[int, int, int]] = []
    deletes: list[tuple[int, int]] = []
    deletable = list(edges)
    inserted: set[tuple[int, int]] = set()
    deleted: set[tuple[int, int]] = set()
    for _ in range(int(rng.integers(1, max_ops + 1))):
        if rng.random() < p_insert or not deletable:
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if key in deleted:
                continue  # never insert+delete one edge in the same batch
            inserts.append((u, v, int(rng.integers(1, 9))))
            inserted.add(key)
            if key in deletable:
                deletable.remove(key)
        else:
            key = deletable.pop(int(rng.integers(0, len(deletable))))
            if key in inserted:
                continue
            deletes.append(key)
            deleted.add(key)
    return inserts, deletes


def _shaped_batch(rng, n: int, edges: dict, shape: int):
    """A well-formed batch of a shape that stresses the merge's row
    boundaries: 0 empties a row, 1 fills an empty row, 2 hits one row many
    times, 3 bumps weights beside new arcs, 4 touches vertices 0 and n-1,
    5 is a larger random batch."""
    def pair(u, v):
        return (min(u, v), max(u, v))

    def weight():
        return int(rng.integers(1, 9))

    v = int(rng.choice([0, n - 1, int(rng.integers(0, n))]))
    if shape == 1:  # a vertex whose row is empty, else empty v's row
        ends = {u for key in edges for u in key}
        v = next((u for u in (v, *rng.permutation(n).tolist())
                  if u not in ends), v)
    adjacent = [key for key in edges if v in key]
    inserts: list[tuple[int, int, int]] = []
    deletes: list[tuple[int, int]] = []
    if shape == 0 or (shape == 1 and adjacent):
        deletes = adjacent
    elif shape == 1:
        inserts = [(v, u, weight()) for u in range(n) if u != v]
    elif shape == 2:
        deletes = [key for key in adjacent if rng.random() < 0.5]
        for _ in range(int(rng.integers(1, 40))):
            u = int(rng.integers(0, n))
            if u != v and pair(u, v) not in deletes:
                inserts.append((u, v, weight()))
    elif shape == 3:
        keys = list(edges)
        for i in rng.permutation(len(keys))[:8]:
            u, w = keys[i]
            inserts.append((w, u, 1))  # bump u -> w, then new arcs beside it
            for x in (w - 1, w + 1):
                if 0 <= x < n and x != u and pair(u, x) not in edges:
                    inserts.append((u, x, weight()))
    elif shape == 4:
        for key in sorted({pair(0, n - 1), pair(0, 1), pair(n - 2, n - 1)}):
            if key in edges and rng.random() < 0.5:
                deletes.append(key)
            else:
                inserts.append((key[1], key[0], weight()))
    else:
        return _random_batch(rng, n, edges, max_ops=60)
    return inserts, deletes


def _apply_to_dict(edges: dict, inserts, deletes) -> dict:
    out = dict(edges)
    for key in deletes:
        del out[key]
    for u, v, w in inserts:
        key = (min(u, v), max(u, v))
        out[key] = out.get(key, 0) + w
    return out


# ---------------------------------------------------------------------------
# incremental CSR merge == from-scratch rebuild
# ---------------------------------------------------------------------------


class TestApplyUpdates:
    def test_insert_new_edge_matches_rebuild(self, weighted_cycle):
        new, *_ = apply_updates(weighted_cycle, [(0, 2, 5)], ())
        expect = _rebuild(4, _apply_to_dict(_edge_dict(weighted_cycle),
                                            [(0, 2, 5)], ()))
        assert graph_digest(new) == graph_digest(expect)

    def test_insert_existing_edge_bumps_weight(self, weighted_cycle):
        new, *_ = apply_updates(weighted_cycle, [(1, 0, 4)], ())
        assert _edge_dict(new)[(0, 1)] == 3 + 4
        assert new.m == weighted_cycle.m  # no new arcs, just a heavier one

    def test_delete_edge_matches_rebuild(self, dumbbell):
        new, *rest = apply_updates(dumbbell, (), [(0, 1)])
        expect = _rebuild(8, _apply_to_dict(_edge_dict(dumbbell), (), [(0, 1)]))
        assert graph_digest(new) == graph_digest(expect)
        del_w = rest[-1]
        assert del_w.sum() == 1  # the deleted weight is reported

    def test_batch_duplicate_inserts_merge(self, weighted_cycle):
        new, *_ = apply_updates(weighted_cycle, [(0, 2, 2), (2, 0, 3)], ())
        assert _edge_dict(new)[(0, 2)] == 5

    def test_fuzz_merge_equals_rebuild(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            n = int(rng.integers(4, 32))
            edges = {}
            graph = _rebuild(n, edges)
            for _ in range(8):
                inserts, deletes = _random_batch(rng, n, edges)
                graph, *_ = apply_updates(graph, inserts, deletes)
                edges = _apply_to_dict(edges, inserts, deletes)
                assert graph_digest(graph) == graph_digest(_rebuild(n, edges))

    def test_fuzz_merge_arrays_equal_rebuild(self):
        # the arrays themselves, element by element, not their digest
        rng = np.random.default_rng(20)
        for _ in range(12):
            n = int(rng.integers(2, 400))
            m = int(rng.integers(0, min(n * (n - 1) // 2, 6 * n) + 1))
            us, vs = rng.integers(0, n, m), rng.integers(0, n, m)
            edges = {}
            for u, v in zip(us.tolist(), vs.tolist()):
                if u != v:
                    edges[(min(u, v), max(u, v))] = int(rng.integers(1, 9))
            graph = _rebuild(n, edges)
            for shape in rng.permutation(np.repeat(np.arange(6), 2)):
                inserts, deletes = _shaped_batch(rng, n, edges, int(shape))
                graph, *_ = apply_updates(graph, inserts, deletes)
                edges = _apply_to_dict(edges, inserts, deletes)
                expect = _rebuild(n, edges)
                for name in ("xadj", "adjncy", "adjwgt"):
                    np.testing.assert_array_equal(
                        getattr(graph, name), getattr(expect, name), err_msg=name
                    )
                np.testing.assert_array_equal(  # the warm path's trivial cuts
                    row_weights(graph, np.arange(n)), expect.weighted_degrees()
                )

    def test_unsorted_row_raises(self, weighted_cycle):
        xadj = weighted_cycle.xadj
        adjncy = weighted_cycle.adjncy.copy()
        adjwgt = weighted_cycle.adjwgt.copy()
        row = slice(xadj[1], xadj[2])  # vertex 1's heads 0, 2 become 2, 0
        adjncy[row], adjwgt[row] = adjncy[row][::-1].copy(), adjwgt[row][::-1].copy()
        unsorted = Graph(xadj, adjncy, adjwgt)
        with pytest.raises(EdgeUpdateError, match="canonical sorted order"):
            apply_updates(unsorted, [(0, 2, 1)], ())
        with pytest.raises(EdgeUpdateError, match="canonical sorted order"):
            DynamicGraph(unsorted).apply(deletes=[(0, 1)])

    @pytest.mark.parametrize(
        "inserts, deletes, match",
        [
            ([(0, 0, 1)], (), "self-loop"),
            ([(0, 1, 0)], (), "positive"),
            ([(0, 9, 1)], (), "out of range"),
            ((), [(0, 2)], "absent"),
            ((), [(0, 1), (1, 0)], "duplicate"),
            ([(0, 1, 2)], [(0, 1)], "one batch"),
        ],
    )
    def test_malformed_batches_raise(self, weighted_cycle, inserts, deletes, match):
        with pytest.raises(EdgeUpdateError, match=match):
            apply_updates(weighted_cycle, inserts, deletes)


class TestDynamicGraph:
    def test_versions_and_digests_track_batches(self, weighted_cycle):
        dyn = DynamicGraph(weighted_cycle)
        d0 = dyn.digest
        delta = dyn.apply(inserts=[(0, 2, 5)])
        assert dyn.version == 1
        assert delta.old_digest == d0 and delta.new_digest == dyn.digest
        assert dyn.digest != d0

    def test_noop_batch_keeps_version_and_object(self, weighted_cycle):
        dyn = DynamicGraph(weighted_cycle)
        delta = dyn.apply()
        assert delta.is_noop and dyn.version == 0
        assert dyn.graph is weighted_cycle

    def test_failed_batch_leaves_handle_untouched(self, weighted_cycle):
        dyn = DynamicGraph(weighted_cycle)
        with pytest.raises(EdgeUpdateError):
            dyn.apply(inserts=[(0, 2, 5)], deletes=[(0, 2)])
        assert dyn.version == 0 and dyn.graph is weighted_cycle

    def test_delta_crossing_weights(self, dumbbell):
        dyn = DynamicGraph(dumbbell)
        side = np.zeros(8, dtype=bool)
        side[4:] = True  # the λ=1 bridge cut
        delta = dyn.apply(inserts=[(0, 7, 3), (1, 2, 2)], deletes=[(3, 4)])
        ins_cross, del_cross = delta.crossing_weights(side)
        assert ins_cross == 3  # only (0,7) crosses
        assert del_cross == 1  # the bridge


# ---------------------------------------------------------------------------
# warm-solve unit behavior (direct, engine-free)
# ---------------------------------------------------------------------------

#: λ = 3, and the cold solve (rng=0) cuts edge (0, 1).  Deleting it is a
#: fast path that decays the certificate's bound from 4 to 3; the insert of
#: (0, 10) then crosses the carried cut, and its seeded solve is the
#: certificate's first use.  λ stays 2 after it through another minimum
#: cut, which a certificate pass at the decayed bound contracts away.
_CERT_EDGES = {
    (0, 1): 1, (0, 5): 2, (1, 10): 2, (2, 5): 2, (2, 6): 1, (2, 8): 6,
    (2, 10): 2, (3, 4): 3, (3, 5): 1, (3, 10): 3, (4, 6): 3, (4, 7): 3,
    (4, 8): 2, (6, 10): 2, (7, 9): 3, (7, 10): 2,
}
_CERT_STREAM = [((), [(0, 1)]), ([(0, 10, 1)], ())]


class TestWarmSolve:
    def test_fast_path_on_intra_side_insert(self, dumbbell):
        digest = graph_digest(dumbbell)
        res = minimum_cut(dumbbell, algorithm="noi-viecut", rng=0)
        state = make_warm_state(dumbbell, digest, res)
        dyn = DynamicGraph(dumbbell)
        delta = dyn.apply(inserts=[(0, 1, 5)])  # inside one K4: cut untouched
        out = warm_solve(dyn.graph, state, delta, algorithm="noi-viecut")
        assert out is not None
        result, info = out
        assert info["mode"] == "fast-path" and result.value == 1
        assert result.verify(dyn.graph)

    def test_certificate_runs_on_first_use_at_solve_bound(self, monkeypatch):
        g0 = _rebuild(11, _CERT_EDGES)
        res0 = minimum_cut(g0, algorithm="noi-viecut", rng=0)
        calls = []

        def recording(graph, bound, **kwargs):
            calls.append((graph, bound))
            return capforest(graph, bound, **kwargs)

        monkeypatch.setattr("repro.dynamic.warm.capforest", recording)
        state = make_warm_state(g0, graph_digest(g0), res0)
        dyn = DynamicGraph(g0)
        modes = []
        for inserts, deletes in _CERT_STREAM:
            delta = dyn.apply(inserts, deletes)
            result, info = warm_solve(dyn.graph, state, delta,
                                      algorithm="noi-viecut")
            modes.append(info["mode"])
            if info["mode"] == "fast-path":
                assert calls == []  # neither the solve nor the fast path pays
                state.advance(delta, result)
        assert modes == ["fast-path", "seeded-contracted"]
        # one pass, on the solved graph at λ_solve + 1, not the decayed bound
        assert [(graph is g0, bound) for graph, bound in calls] == [
            (True, res0.value + 1)
        ]
        expect = capforest(g0, res0.value + 1, pq_kind=DEFAULT_PQ_KIND,
                           fixed_bound=True, start=0, rng=0).uf.labels()
        np.testing.assert_array_equal(state.certificate(), expect)
        assert len(calls) == 1

    def test_non_warmable_algorithm_returns_none(self, dumbbell):
        digest = graph_digest(dumbbell)
        res = minimum_cut(dumbbell, algorithm="noi-viecut", rng=0)
        state = make_warm_state(dumbbell, digest, res)
        dyn = DynamicGraph(dumbbell)
        delta = dyn.apply(inserts=[(0, 1, 5)])
        assert warm_solve(dyn.graph, state, delta, algorithm="stoer-wagner") is None


# ---------------------------------------------------------------------------
# engine.update: randomized streams, warm bit-identical to cold
# ---------------------------------------------------------------------------


def _stream_check(engine, base_edges: dict, n: int, batches, *,
                  check_cactus_every: int = 0):
    """Drive one stream through engine.update, cold-checking every step."""
    dyn = DynamicGraph(_rebuild(n, base_edges))
    engine.update(dyn, rng=0)  # install warm state via the initial cold solve
    edges = dict(base_edges)
    for step, (inserts, deletes) in enumerate(batches):
        warm = engine.update(dyn, inserts, deletes, rng=0)
        edges = _apply_to_dict(edges, inserts, deletes)
        cold_graph = _rebuild(n, edges)
        assert graph_digest(cold_graph) == dyn.digest
        cold = minimum_cut(cold_graph, algorithm="noi-viecut", rng=0)
        assert warm.value == cold.value, (
            f"step {step}: warm {warm.value} != cold {cold.value} "
            f"({warm.stats.get('warm')})"
        )
        if warm.side is not None:
            assert warm.verify(cold_graph)
        if check_cactus_every and step % check_cactus_every == 0:
            wboth = engine.update(dyn, all_cuts=True, most_balanced=True, rng=0)
            cboth = minimum_cut(cold_graph, algorithm="noi-viecut", rng=0,
                                all_cuts=True, most_balanced=True)
            assert wboth.num_min_cuts() == cboth.num_min_cuts()
            assert np.array_equal(wboth.side, cboth.side)
    return dyn


class TestEngineUpdateStreams:
    @pytest.fixture()
    def inline_engine(self):
        with SolverEngine(pool_size=0) as eng:
            yield eng

    def test_mixed_random_streams_match_cold(self, inline_engine):
        rng = np.random.default_rng(11)
        for trial in range(4):
            n = int(rng.integers(6, 65))
            # seed a connected base: a ring
            edges = {(i, (i + 1) % n): 2 for i in range(n - 1)}
            edges[(0, n - 1)] = 2
            edges = {(min(u, v), max(u, v)): w for (u, v), w in edges.items()}
            batches = []
            cur = dict(edges)
            for _ in range(6):
                batch = _random_batch(rng, n, cur)
                batches.append(batch)
                cur = _apply_to_dict(cur, *batch)
            _stream_check(inline_engine, edges, n, batches,
                          check_cactus_every=3 if trial == 0 else 0)

    def test_lambda_increasing_stream(self, inline_engine):
        # a sparse ring, then inserts only: λ climbs, seeds stay upper bounds
        n = 12
        edges = {(i, (i + 1) % n): 1 for i in range(n)}
        edges = {(min(u, v), max(u, v)): w for (u, v), w in edges.items()}
        batches = [
            ([(i, (i + 2) % n, 2) for i in range(0, n, 2)], ()),
            ([(i, (i + 3) % n, 1) for i in range(0, n, 3)], ()),
            ([(0, 6, 4), (1, 7, 4), (2, 8, 4)], ()),
        ]
        _stream_check(inline_engine, edges, n, batches)

    def test_lambda_decreasing_and_disconnecting_stream(self, inline_engine):
        # K4–K4 dumbbell with a weight-3 bridge: thin the bridge to 0
        edges = {}
        for base in (0, 4):
            for i in range(4):
                for j in range(i + 1, 4):
                    edges[(base + i, base + j)] = 2
        edges[(3, 4)] = 3
        batches = [
            ((), [(3, 4)]),          # λ: 3 → 0 (disconnected)
            ([(3, 4, 1)], ()),       # reconnect: λ = 1
            ((), [(0, 1), (2, 3)]),  # thin one K4
        ]
        dyn = _stream_check(inline_engine, edges, 8, batches)
        assert dyn.version == 3

    def test_decayed_certificate_stream_reaches_seeded_contracted(
        self, inline_engine
    ):
        edges = dict(_CERT_EDGES)
        dyn = DynamicGraph(_rebuild(11, edges))
        inline_engine.update(dyn, rng=0)
        modes = []
        for inserts, deletes in _CERT_STREAM:
            warm = inline_engine.update(dyn, inserts, deletes, rng=0)
            edges = _apply_to_dict(edges, inserts, deletes)
            cold = minimum_cut(_rebuild(11, edges), algorithm="noi-viecut", rng=0)
            assert warm.value == cold.value == oracle_mincut(dyn.graph)
            assert warm.verify(dyn.graph)
            modes.append(warm.stats["warm"]["mode"])
        assert modes == ["fast-path", "seeded-contracted"]

    def test_oracle_agreement_on_connected_steps(self, inline_engine):
        rng = np.random.default_rng(3)
        n = 10
        edges = {(i, (i + 1) % n): 3 for i in range(n)}
        edges = {(min(u, v), max(u, v)): w for (u, v), w in edges.items()}
        dyn = DynamicGraph(_rebuild(n, edges))
        inline_engine.update(dyn, rng=0)
        for _ in range(5):
            inserts, _ = _random_batch(rng, n, edges, p_insert=1.0)
            res = inline_engine.update(dyn, inserts, (), rng=0)
            edges = _apply_to_dict(edges, inserts, ())
            assert res.value == oracle_mincut(_rebuild(n, edges))

    def test_cache_hit_seeds_warm_state(self, inline_engine):
        g = connected_gnm(200, 800, rng=3, weights=(1, 5))
        batch = [(0, 199, 1)]
        inline_engine.solve(g, rng=0)
        dyn = DynamicGraph(g)
        inline_engine.update(dyn, rng=0)  # registration served from the cache
        assert dyn.warm is not None and dyn.warm.digest == dyn.digest
        state = dyn.warm
        inline_engine.update(dyn, rng=0)  # a read keeps the state it has
        assert dyn.warm is state
        res = inline_engine.update(dyn, inserts=batch, rng=0)
        assert res.stats["warm"]["mode"] == "fast-path"
        assert res.value == oracle_mincut(dyn.graph)
        # a batch that lands on a cached graph moves the state to that graph
        other = DynamicGraph(g)
        inline_engine.update(other, rng=0)
        inline_engine.update(other, inserts=batch, rng=0)  # cache hit
        assert other.warm.digest == other.digest

    def test_cold_registration_digests_its_graph_once(
        self, inline_engine, dumbbell, monkeypatch
    ):
        calls = []

        def counting(graph):
            calls.append(graph)
            return graph_digest(graph)

        monkeypatch.setattr("repro.engine.engine.graph_digest", counting)
        monkeypatch.setattr("repro.dynamic.graph.graph_digest", counting)
        dyn = DynamicGraph(dumbbell)
        res = inline_engine.update(dyn, rng=0)
        assert res.stats["warm"]["mode"] == "cold"
        assert calls == [dumbbell]  # the handle's digest keys the cold solve

    def test_update_counters_and_cache_lineage(self, dumbbell):
        with SolverEngine(pool_size=0) as eng:
            dyn = DynamicGraph(dumbbell)
            eng.update(dyn, rng=0)  # cold
            eng.update(dyn, inserts=[(0, 1, 5)], rng=0)  # fast-path
            eng.update(dyn, rng=0)  # no-op batch: cache hit, no invalidation
            stats = eng.stats()
            assert stats["updates"] == 3
            assert stats["updates_cold"] == 1
            assert stats["updates_fast_path"] == 1
            # one real batch evicted the superseded digest's entry
            assert stats["cache_invalidated"] == 1
            assert stats["cache"]["entries"] == 1  # only the live digest

    def test_update_trace_events_validate(self, dumbbell):
        tracer = Tracer()
        with SolverEngine(pool_size=0, tracer=tracer) as eng:
            dyn = DynamicGraph(dumbbell)
            eng.update(dyn, rng=0)
            eng.update(dyn, inserts=[(0, 7, 1)], rng=0)
        summary = validate_trace_events(tracer.events())
        by_kind = summary["by_kind"]
        assert by_kind["graph_update"] == 2
        assert by_kind["warm_solve"] == 2

    def test_bad_batch_surfaces_without_mutation(self, dumbbell):
        with SolverEngine(pool_size=0) as eng:
            dyn = DynamicGraph(dumbbell)
            eng.update(dyn, rng=0)
            with pytest.raises(EdgeUpdateError):
                eng.update(dyn, deletes=[(0, 7)], rng=0)
            assert dyn.version == 0
            # the handle still updates warm afterwards
            res = eng.update(dyn, inserts=[(0, 4, 2)], rng=0)
            assert res.value == minimum_cut(dyn.graph, rng=0).value

    @pytest.mark.parametrize("batch, mode", [
        ([(0, 1, 5)], "fast-path"),  # inside one K4: the carried cut holds
        ([(3, 4, 2)], "seeded"),  # the bridge: the cut moves
    ], ids=["fast-path", "seeded"])
    @pytest.mark.parametrize("algorithm, option, error, match", [
        ("noi-viecut", {"kernel": "compiled"}, ValueError, "unknown kernel 'compiled'"),
        ("noi-viecut", {"pq_kind": "bogus"}, ValueError,
         "unknown priority queue kind 'bogus'"),
        ("parcut", {"executor": "threads"}, ValueError, "unknown executor 'threads'"),
        ("parcut", {"workers": 0}, ValueError, "workers must be >= 1"),
        ("parcut", {"on_worker_failure": "bogus"}, ValueError,
         "on_worker_failure must be 'degrade' or 'fail'"),
        ("parcut", {"bogus": 1}, TypeError, "unexpected keyword argument 'bogus'"),
        ("noi", {"executor": "threads"}, TypeError, "unexpected keyword argument 'executor'"),
        ("noi", {"workers": 0}, TypeError, "unexpected keyword argument 'workers'"),
        ("noi", {"on_worker_failure": "bogus"}, TypeError,
         "unexpected keyword argument 'on_worker_failure'"),
        ("noi", {"bogus": 1}, TypeError, "unexpected keyword argument 'bogus'"),
        ("viecut", {"lp_method": "sync"}, TypeError,
         "unexpected keyword argument 'lp_method'"),
    ], ids=["kernel", "pq_kind", "parcut-executor", "parcut-workers",
            "parcut-on_worker_failure", "parcut-bogus", "noi-executor", "noi-workers",
            "noi-on_worker_failure", "noi-bogus", "viecut-lp_method"])
    def test_bad_option_leaves_handle_untouched(self, dumbbell, batch, mode,
                                                algorithm, option, error, match):
        # neither warm path runs a solver's entry checks, and a cold solve
        # runs them only after the batch is in, so the engine checks the
        # options the algorithm's solver checks before it applies the batch
        with SolverEngine(pool_size=0) as eng:
            dyn = DynamicGraph(dumbbell)
            eng.update(dyn, rng=0)
            version, digest = dyn.version, dyn.digest
            with pytest.raises(error, match=match):
                eng.update(dyn, inserts=batch, algorithm=algorithm, rng=0, **option)
            assert (dyn.version, dyn.digest) == (version, digest)
            res = eng.update(dyn, inserts=batch, algorithm="noi-viecut", rng=0)
            assert res.stats["warm"]["mode"] == mode
            assert dyn.version == version + 1

    def test_pooled_engine_update_works(self, dumbbell):
        with SolverEngine(pool_size=1) as eng:
            dyn = DynamicGraph(dumbbell)
            assert eng.update(dyn, rng=0).value == 1
            assert eng.update(dyn, inserts=[(3, 4, 2)], rng=0).value == 3


# ---------------------------------------------------------------------------
# cache lineage invalidation + counter-neutral peek
# ---------------------------------------------------------------------------


def _mk(value=3):
    from repro.core.result import MinCutResult

    return MinCutResult(value, None, 8, "test", {"stats_schema": 2})


class TestCacheLineage:
    def test_invalidate_digest_scopes_to_lineage(self):
        cache = ResultCache(8)
        k_old1 = request_key("a" * 32, "noi", {"rng": 0})
        k_old2 = request_key("a" * 32, "noi", {"rng": 1})
        k_other = request_key("b" * 32, "noi", {"rng": 0})
        for k in (k_old1, k_old2, k_other):
            cache.put(k, _mk())
        assert cache.invalidate_digest("a" * 32) == 2
        assert k_old1 not in cache and k_old2 not in cache
        assert k_other in cache  # unrelated graph untouched

    def test_invalidate_digest_is_counter_neutral(self):
        cache = ResultCache(8)
        cache.put(request_key("a" * 32, "noi", {}), _mk())
        cache.invalidate_digest("a" * 32)
        cache.invalidate_digest("a" * 32)  # second call finds nothing
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_peek_returns_clone_without_counting(self):
        cache = ResultCache(8)
        cache.put("k", _mk())
        got = cache.peek("k")
        assert got is not None and got.value == 3
        got.stats["poison"] = True
        assert "poison" not in cache.peek("k").stats  # mutation-isolated
        assert cache.peek("absent") is None
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_peek_does_not_refresh_lru(self):
        cache = ResultCache(2)
        cache.put("a", _mk(1))
        cache.put("b", _mk(2))
        cache.peek("a")  # must NOT promote "a"
        cache.put("c", _mk(3))
        assert "a" not in cache and "b" in cache and "c" in cache
