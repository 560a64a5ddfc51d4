"""Tests for the persistent solver engine (`repro.engine`).

Covers the four subsystems separately (keys, cache, planes, pool-backed
engine) and the threading surface: API pass-through, harness reuse,
deadline/crash/cancellation semantics, degradation to in-process solving,
and the engine-level trace event contract.

Fault injection uses the pool's deterministic ``test_fault`` task hooks
(``exit``/``hang``/``torn``), threaded through ``submit(..., _test_fault=...)`` —
the same philosophy as ``tests/test_fault_injection.py``: faults are
planned, never random.
"""

from __future__ import annotations

import os
import random
import signal
import statistics
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.api import minimum_cut
from repro.core.result import MinCutResult
from repro.engine import (
    EngineClosed,
    RequestCancelled,
    ResultCache,
    SolverEngine,
    UnkeyableRequest,
    graph_digest,
    request_key,
)
from repro.engine.planes import PlaneRegistry
from repro.generators.gnm import connected_gnm
from repro.graph.builder import GraphBuilder
from repro.observability import Tracer
from repro.observability.schema import EVENT_KINDS, validate_trace_events
from repro.runtime.errors import WorkerCrashed, WorkerTimeout

from .conftest import _running, assert_workers_exit_when_owner_is_killed


def ring(n: int, w: int = 2):
    b = GraphBuilder(n)
    for i in range(n):
        b.add_edge(i, (i + 1) % n, w)
    return b.build()


# ---------------------------------------------------------------------------
# request keying
# ---------------------------------------------------------------------------


class TestKeys:
    def test_digest_is_content_addressed(self, dumbbell, weighted_cycle):
        assert graph_digest(dumbbell) == graph_digest(dumbbell)
        assert graph_digest(dumbbell) != graph_digest(weighted_cycle)

    def test_digest_distinguishes_weights(self):
        assert graph_digest(ring(8, w=2)) != graph_digest(ring(8, w=3))

    def test_rebuilt_graph_digests_equal(self, dumbbell):
        from repro.graph.csr import Graph

        rebuilt = Graph(
            dumbbell.xadj.copy(), dumbbell.adjncy.copy(), dumbbell.adjwgt.copy()
        )
        assert graph_digest(rebuilt) == graph_digest(dumbbell)

    def test_request_key_canonicalises_kwarg_order(self):
        a = request_key("d", "parcut", {"rng": 1, "pq_kind": "bqueue"})
        b = request_key("d", "parcut", {"pq_kind": "bqueue", "rng": 1})
        assert a == b

    def test_request_key_separates_algorithms_and_kwargs(self):
        base = request_key("d", "parcut", {"rng": 1})
        assert base != request_key("d", "noi", {"rng": 1})
        assert base != request_key("d", "parcut", {"rng": 2})

    def test_live_objects_are_unkeyable(self):
        with pytest.raises(UnkeyableRequest):
            request_key("d", "parcut", {"rng": np.random.default_rng(0)})

    def test_truthy_option_values_coerce_to_bool(self):
        # all_cuts=1 and all_cuts=True are the same output shape; keeping
        # the raw value verbatim used to split the cache between them
        canonical = request_key("d", "noi", {"rng": 0}, {"all_cuts": True})
        assert request_key("d", "noi", {"rng": 0}, {"all_cuts": 1}) == canonical
        assert request_key("d", "noi", {"rng": 0}, {"all_cuts": "yes"}) == canonical

    def test_falsy_options_keep_legacy_key_byte_stable(self):
        legacy = request_key("d", "noi", {"rng": 0})
        assert legacy == 'd:noi:{"rng":0}'  # the historical 3-segment form
        assert request_key(
            "d", "noi", {"rng": 0}, {"all_cuts": False, "most_balanced": 0}
        ) == legacy


# ---------------------------------------------------------------------------
# result cache
# ---------------------------------------------------------------------------


def _result(value: int = 3) -> MinCutResult:
    return MinCutResult(value, None, 8, "test", {"stats_schema": 2})


class TestResultCache:
    def test_hit_returns_equal_result(self):
        cache = ResultCache(4)
        cache.put("k", _result())
        got = cache.get("k")
        assert got is not None and got.value == 3
        assert cache.stats() == {
            "capacity": 4, "entries": 1, "hits": 1, "misses": 0,
            "hit_ratio": 1.0, "miss_ratio": 0.0,
        }

    def test_miss_counts(self):
        cache = ResultCache(4)
        assert cache.get("absent") is None
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["miss_ratio"] == 1.0 and stats["hit_ratio"] == 0.0

    def test_ratios_before_any_lookup_are_zero(self):
        stats = ResultCache(4).stats()
        assert stats["hit_ratio"] == 0.0 and stats["miss_ratio"] == 0.0

    def test_ratios_track_mixed_lookups(self):
        cache = ResultCache(4)
        cache.put("k", _result())
        cache.get("k")
        cache.get("k")
        cache.get("absent")  # 2 hits, 1 miss
        stats = cache.stats()
        assert stats["hit_ratio"] == round(2 / 3, 6)
        assert stats["miss_ratio"] == round(1 / 3, 6)

    def test_clear_resets_counters(self):
        cache = ResultCache(4)
        cache.put("k", _result())
        cache.get("k")
        cache.get("absent")
        cache.clear()
        assert cache.stats() == {
            "capacity": 4, "entries": 0, "hits": 0, "misses": 0,
            "hit_ratio": 0.0, "miss_ratio": 0.0,
        }

    def test_returned_results_are_mutation_isolated(self):
        cache = ResultCache(4)
        cache.put("k", _result())
        first = cache.get("k")
        first.stats["poison"] = True
        second = cache.get("k")
        assert "poison" not in second.stats

    def test_stored_result_is_snapshot_not_reference(self):
        cache = ResultCache(4)
        res = _result()
        cache.put("k", res)
        res.stats["later"] = True
        assert "later" not in cache.get("k").stats

    def test_lru_eviction_order(self):
        cache = ResultCache(2)
        cache.put("a", _result(1))
        cache.put("b", _result(2))
        assert cache.get("a").value == 1  # refresh "a"; "b" becomes LRU
        cache.put("c", _result(3))
        assert "b" not in cache and "a" in cache and "c" in cache

    def test_capacity_zero_disables(self):
        cache = ResultCache(0)
        cache.put("k", _result())
        assert len(cache) == 0 and cache.get("k") is None


# ---------------------------------------------------------------------------
# plane registry
# ---------------------------------------------------------------------------


class TestPlaneRegistry:
    def test_lease_reuses_one_export_per_digest(self, dumbbell):
        with PlaneRegistry(capacity=4) as reg:
            d = graph_digest(dumbbell)
            p1 = reg.lease(d, dumbbell)
            p2 = reg.lease(d, dumbbell)
            assert p1 is p2
            assert reg.stats()["exports"] == 1 and reg.stats()["reuses"] == 1
            reg.release(d)
            reg.release(d)
            assert reg.leased() == 0 and len(reg) == 1  # parked, not unlinked

    def test_parked_plane_revived_without_reexport(self, dumbbell):
        with PlaneRegistry(capacity=4) as reg:
            d = graph_digest(dumbbell)
            reg.lease(d, dumbbell)
            reg.release(d)
            reg.lease(d, dumbbell)
            assert reg.stats()["exports"] == 1
            reg.release(d)

    def test_eviction_skips_leased_planes(self, dumbbell, weighted_cycle, star):
        with PlaneRegistry(capacity=1) as reg:
            d1 = graph_digest(dumbbell)
            reg.lease(d1, dumbbell)  # leased: may not be evicted
            d2 = graph_digest(weighted_cycle)
            reg.lease(d2, weighted_cycle)
            reg.release(d2)  # parked: evictable
            d3 = graph_digest(star)
            reg.lease(d3, star)
            stats = reg.stats()
            assert stats["leased"] == 2  # d1 and d3 survived over capacity
            reg.release(d1)
            reg.release(d3)

    def test_over_release_raises(self, dumbbell):
        with PlaneRegistry() as reg:
            d = graph_digest(dumbbell)
            reg.lease(d, dumbbell)
            reg.release(d)
            with pytest.raises(ValueError, match="released more"):
                reg.release(d)

    def test_close_is_idempotent_and_final(self, dumbbell):
        reg = PlaneRegistry()
        reg.lease(graph_digest(dumbbell), dumbbell)
        reg.close()
        reg.close()
        with pytest.raises(ValueError, match="closed"):
            reg.lease(graph_digest(dumbbell), dumbbell)


# ---------------------------------------------------------------------------
# the engine: happy paths
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def engine():
    """One pooled engine shared by the happy-path tests (that is the point)."""
    with SolverEngine(pool_size=2, cache_size=32) as eng:
        yield eng


class TestEngineSolving:
    def test_matches_direct_solves_on_fixtures(
        self, engine, dumbbell, weighted_cycle, clique6
    ):
        for g in (dumbbell, weighted_cycle, clique6):
            assert engine.solve(g).value == minimum_cut(g).value
        # a pool worker runs the kernel named, as inline
        res = engine.solve(clique6, "noi", rng=0, kernel="scalar")
        assert res.value == minimum_cut(clique6).value
        assert res.stats["kernel_resolved"] == "scalar"

    def test_solve_many_mixed_item_forms(self, engine, dumbbell, weighted_cycle):
        results = engine.solve_many(
            [
                dumbbell,
                (weighted_cycle, "parcut"),
                {"graph": dumbbell, "algorithm": "stoer-wagner"},
            ],
            rng=0,
        )
        assert [r.value for r in results] == [1, 2, 1]
        assert results[1].algorithm.startswith("parcut")

    def test_repeat_solves_hit_cache(self, dumbbell):
        with SolverEngine(pool_size=1) as eng:
            eng.solve(dumbbell)
            hits_before = eng.stats()["cache"]["hits"]
            assert eng.solve(dumbbell).value == 1
            assert eng.stats()["cache"]["hits"] == hits_before + 1

    def test_cache_false_bypasses(self, dumbbell):
        with SolverEngine(pool_size=1) as eng:
            eng.solve(dumbbell, cache=False)
            eng.solve(dumbbell, cache=False)
            assert eng.stats()["cache"]["hits"] == 0
            assert eng.stats()["cache"]["entries"] == 0

    def test_api_engine_passthrough(self, engine, weighted_cycle):
        res = minimum_cut(weighted_cycle, engine=engine)
        assert res.value == 2

    def test_processes_executor_coerced_in_pool(self, engine, dumbbell):
        # daemonic pool workers cannot fork; the engine switches to serial
        res = engine.solve(dumbbell, "parcut", executor="processes", rng=0)
        assert res.value == 1
        assert res.stats["executor"] == "serial"

    def test_distinct_graphs_share_plane_exports(self, engine, path4):
        before = engine.stats()["planes"]["exports"]
        engine.solve(path4, cache=False)
        engine.solve(path4, cache=False)
        planes = engine.stats()["planes"]
        assert planes["exports"] == before + 1  # second solve reused the plane

    def test_solve_many_return_exceptions(self, engine, dumbbell):
        results = engine.solve_many(
            [dumbbell, {"graph": dumbbell, "bogus_kwarg": 1, "cache": False}],
            return_exceptions=True,
        )
        assert results[0].value == 1
        assert isinstance(results[1], Exception)


class TestEngineValidation:
    def test_unknown_algorithm_rejected(self, engine, dumbbell):
        with pytest.raises(ValueError, match="unknown algorithm"):
            engine.submit(dumbbell, "no-such-solver")

    def test_tracer_kwarg_rejected(self, engine, dumbbell):
        with pytest.raises(ValueError, match="tracer"):
            engine.submit(dumbbell, tracer=Tracer())

    def test_live_rng_rejected(self, engine, dumbbell):
        with pytest.raises(UnkeyableRequest):
            engine.submit(dumbbell, rng=np.random.default_rng(0))

    def test_private_solver_kwarg_rejected(self, engine, dumbbell):
        # Figure 5's paper order is private to the library
        with pytest.raises(TypeError, match="unexpected keyword argument '_seed_first'"):
            engine.submit(dumbbell, "parcut", _seed_first=True)

    def test_nonpositive_deadline_rejected(self, engine, dumbbell):
        with pytest.raises(ValueError, match="deadline"):
            engine.submit(dumbbell, deadline=0)

    def test_bad_default_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            SolverEngine(pool_size=0, default_algorithm="nope")


# ---------------------------------------------------------------------------
# fault tolerance: deadlines, crashes, degradation, cancellation
# ---------------------------------------------------------------------------


class TestEngineFaults:
    def test_deadline_on_hung_worker_recycles(self, dumbbell):
        with SolverEngine(pool_size=1, max_recycles=4) as eng:
            fut = eng.submit(
                dumbbell, deadline=0.4, cache=False,
                _test_fault={"test_fault": "hang", "sleep_seconds": 60},
            )
            with pytest.raises(WorkerTimeout):
                fut.result(timeout=30)
            assert eng.stats()["pool"]["recycles"] == 1
            # the recycled pool keeps solving
            assert eng.solve(dumbbell).value == 1

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs fork and /proc")
    def test_deadline_ends_a_worker_forked_under_a_sigterm_handler(self, dumbbell):
        # python -m repro.service handles SIGTERM on its event loop, and the
        # workers the engine forks after that inherit the handler
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            with SolverEngine(pool_size=1, start_method="fork") as eng:
                pid = eng._pool.workers(1)[0][0].pid
                fut = eng.submit(
                    dumbbell, deadline=0.4, cache=False,
                    _test_fault={"test_fault": "hang", "sleep_seconds": 10},
                )
                with pytest.raises(WorkerTimeout):
                    fut.result(timeout=30)
                survived = _running(pid)
                if survived:  # a survivor would block the test run's exit
                    os.kill(pid, signal.SIGKILL)
                assert not survived  # the recycle's terminate() ended it
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_crash_retries_once_then_fails(self, dumbbell):
        with SolverEngine(pool_size=1, max_recycles=4) as eng:
            fut = eng.submit(
                dumbbell, cache=False, _test_fault={"test_fault": "exit", "exit_code": 7}
            )
            with pytest.raises(WorkerCrashed):
                fut.result(timeout=30)
            stats = eng.stats()
            assert stats["retries"] == 1  # one retry, then the crash surfaced
            assert stats["pool"]["recycles"] == 2
            assert eng.solve(dumbbell).value == 1

    def test_recycle_budget_exhaustion_degrades_to_inline(self, dumbbell, path4):
        with SolverEngine(pool_size=1, max_recycles=0) as eng:
            fut = eng.submit(dumbbell, cache=False, _test_fault={"test_fault": "exit"})
            # the pool is abandoned, the request requeued and solved inline
            assert fut.result(timeout=30).value == 1
            stats = eng.stats()
            assert stats["pool_abandoned"] is True
            assert stats["inline_solves"] >= 1
            # degraded engine still serves (and still caches)
            assert eng.solve(path4).value == 1
            assert eng.solve(path4).value == 1
            assert eng.stats()["cache"]["hits"] >= 1

    def test_cancel_queued_request(self, dumbbell, weighted_cycle):
        with SolverEngine(pool_size=1) as eng:
            blocker = eng.submit(
                dumbbell, cache=False,
                _test_fault={"test_fault": "hang", "sleep_seconds": 0.8},
            )
            victim = eng.submit(weighted_cycle, cache=False)
            assert victim.cancel() is True
            assert victim.cancelled() and victim.done()
            with pytest.raises(RequestCancelled):
                victim.result(timeout=5)
            assert blocker.result(timeout=30).value == 1
            assert eng.stats()["cancelled"] == 1

    def test_cancel_after_completion_returns_false(self, dumbbell):
        with SolverEngine(pool_size=0) as eng:
            fut = eng.submit(dumbbell)
            fut.result(timeout=30)
            assert fut.cancel() is False

    def test_queued_deadline_expires_without_running(self, dumbbell, weighted_cycle):
        with SolverEngine(pool_size=1) as eng:
            eng.submit(
                dumbbell, cache=False,
                _test_fault={"test_fault": "hang", "sleep_seconds": 0.8},
            )
            starved = eng.submit(weighted_cycle, deadline=0.2, cache=False)
            with pytest.raises(WorkerTimeout):
                starved.result(timeout=30)
            # the worker was never recycled: the request died in the queue
            assert eng.stats()["pool"]["recycles"] == 0

    def test_queue_expiry_message_names_the_request_not_a_worker(
        self, dumbbell, weighted_cycle
    ):
        # a queue-expired request never touched a worker; its error used to
        # blame "worker -1", which sent operators hunting a phantom crash
        with SolverEngine(pool_size=1) as eng:
            eng.submit(
                dumbbell, cache=False,
                _test_fault={"test_fault": "hang", "sleep_seconds": 0.8},
            )
            starved = eng.submit(weighted_cycle, deadline=0.2, cache=False)
            with pytest.raises(WorkerTimeout) as exc_info:
                starved.result(timeout=30)
            exc = exc_info.value
            assert exc.worker_id is None  # not a real (or phantom) worker
            message = str(exc)
            assert "expired in queue" in message
            assert "never assigned to a worker" in message
            assert starved.digest[:12] in message
            assert starved.algorithm in message
            assert "deadline 0.2s" in message
            assert not message.startswith("worker")  # no "worker -1" blame


class TestEngineLifecycle:
    def test_submit_after_close_raises(self, dumbbell):
        eng = SolverEngine(pool_size=0)
        eng.close()
        with pytest.raises(EngineClosed):
            eng.submit(dumbbell)

    def test_close_drain_false_cancels_pending(self, dumbbell, weighted_cycle):
        eng = SolverEngine(pool_size=1)
        eng.submit(
            dumbbell, cache=False,
            _test_fault={"test_fault": "hang", "sleep_seconds": 0.6},
        )
        pending = eng.submit(weighted_cycle, cache=False)
        eng.close(drain=False)
        assert pending.cancelled()

    def test_close_is_idempotent(self):
        eng = SolverEngine(pool_size=0)
        eng.close()
        eng.close()

    def test_inline_engine_needs_no_pool(self, dumbbell, weighted_cycle):
        with SolverEngine(pool_size=0) as eng:
            values = [r.value for r in eng.solve_many([dumbbell, weighted_cycle])]
            assert values == [1, 2]
            stats = eng.stats()
            assert stats["inline_solves"] == 2
            assert stats["pool"]["size"] == 0

    def test_future_result_timeout(self, dumbbell):
        with SolverEngine(pool_size=1) as eng:
            fut = eng.submit(
                dumbbell, cache=False,
                _test_fault={"test_fault": "hang", "sleep_seconds": 0.5},
            )
            with pytest.raises(TimeoutError):
                fut.result(timeout=0.05)
            assert fut.result(timeout=30).value == 1

    def test_future_timeout_message_carries_request_context(self, dumbbell):
        with SolverEngine(pool_size=1) as eng:
            fut = eng.submit(
                dumbbell, cache=False, deadline=5.0,
                _test_fault={"test_fault": "hang", "sleep_seconds": 0.5},
            )
            with pytest.raises(TimeoutError) as exc_info:
                fut.result(timeout=0.05)
            message = str(exc_info.value)
            # a blown wait must be actionable without the future in hand
            assert fut.digest[:12] in message
            assert fut.algorithm in message
            assert "since submit" in message
            assert "deadline in" in message
            fut.result(timeout=30)

    def test_future_timeout_message_without_deadline(self, dumbbell):
        with SolverEngine(pool_size=1) as eng:
            fut = eng.submit(
                dumbbell, cache=False,
                _test_fault={"test_fault": "hang", "sleep_seconds": 0.5},
            )
            with pytest.raises(TimeoutError, match="no deadline"):
                fut.exception(timeout=0.05)
            fut.result(timeout=30)

    def test_stats_expose_queue_depth_and_inflight(self, dumbbell, weighted_cycle):
        with SolverEngine(pool_size=1) as eng:
            idle = eng.stats()
            assert idle["queue_depth"] == 0 and idle["inflight"] == 0
            blocker = eng.submit(
                dumbbell, cache=False,
                _test_fault={"test_fault": "hang", "sleep_seconds": 0.6},
            )
            queued = eng.submit(weighted_cycle, cache=False)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                stats = eng.stats()
                if stats["inflight"] == 1 and stats["queue_depth"] >= 1:
                    break
                time.sleep(0.01)
            else:
                pytest.fail(f"never observed busy stats: {eng.stats()}")
            assert blocker.result(timeout=30).value == 1
            assert queued.result(timeout=30).value == 2
            settled = eng.stats()
            assert settled["queue_depth"] == 0 and settled["inflight"] == 0


#: solves once on a two-worker pool, prints the worker pids, then waits to
#: be killed
SOLVE_AND_WAIT = """
import time
from repro.engine import SolverEngine
from repro.generators import connected_gnm
eng = SolverEngine(pool_size=2)
eng.solve(connected_gnm(40, 100, rng=1), cache=False)
procs, _ = eng._pool.workers(2)
print(*(proc.pid for proc in procs), flush=True)
time.sleep(120)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc")
def test_pool_workers_exit_when_the_engine_is_killed():
    assert_workers_exit_when_owner_is_killed(SOLVE_AND_WAIT, workers=2)


# ---------------------------------------------------------------------------
# concurrent cancellation: half a batch cancelled mid-flight
# ---------------------------------------------------------------------------


def _shm_names() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # non-Linux: fall back to no leak tracking
        return set()


class TestConcurrentCancellation:
    def test_cancel_half_of_concurrent_batch_pool_stays_healthy(self, dumbbell):
        # 8 distinct graphs through a 1-worker pool: the head request hangs
        # briefly, so the tail sits queued and is cancellable.
        graphs = [ring(8 + i) for i in range(8)]
        shm_before = _shm_names()
        with SolverEngine(pool_size=1, max_recycles=8) as eng:
            head = eng.submit(
                dumbbell, cache=False,
                _test_fault={"test_fault": "hang", "sleep_seconds": 0.6},
            )
            futures = [eng.submit(g, cache=False) for g in graphs]
            victims, survivors = futures[::2], futures[1::2]
            cancelled = [fut.cancel() for fut in victims]
            assert all(cancelled)  # all were still queued behind the hang
            for fut in victims:
                assert fut.cancelled() and fut.done()
                with pytest.raises(RequestCancelled):
                    fut.result(timeout=5)
            # the survivors and the hanging head still complete exactly
            assert head.result(timeout=30).value == 1
            # a weight-2 ring cuts at two edges: λ = 4
            assert [f.result(timeout=30).value for f in survivors] == [4] * 4
            stats = eng.stats()
            assert stats["cancelled"] == len(victims)
            assert stats["pool"]["recycles"] == 0  # cancel is not a crash
            assert stats["queue_depth"] == 0 and stats["inflight"] == 0
        assert _shm_names() <= shm_before  # no orphaned planes after close

    def test_cancellation_with_deadline_recycles_cleanly(self, dumbbell, path4):
        # mix cancellation with a deadline-blown hang: the worker is
        # recycled, queued victims are cancelled, and nothing leaks
        shm_before = _shm_names()
        with SolverEngine(pool_size=1, max_recycles=8) as eng:
            doomed = eng.submit(
                dumbbell, cache=False, deadline=0.3,
                _test_fault={"test_fault": "hang", "sleep_seconds": 60},
            )
            victim = eng.submit(path4, cache=False)
            survivor = eng.submit(path4, cache=False, rng=1)
            assert victim.cancel() is True
            with pytest.raises(WorkerTimeout):
                doomed.result(timeout=30)
            assert survivor.result(timeout=30).value == 1
            stats = eng.stats()
            assert stats["pool"]["recycles"] == 1
            assert stats["cancelled"] == 1
        assert _shm_names() <= shm_before


# ---------------------------------------------------------------------------
# cache accounting: one lookup per request
# ---------------------------------------------------------------------------


class TestCacheAccounting:
    def test_queued_duplicate_served_without_double_count(self, dumbbell, weighted_cycle):
        # a cacheable request misses at submit, waits behind a busy worker,
        # and a twin result lands in the cache meanwhile; assignment must
        # serve it via the counter-neutral peek, NOT a second counted get —
        # the old double-count inflated the hit ratio for every request
        # served from the queue
        tracer = Tracer()
        with SolverEngine(pool_size=1, tracer=tracer) as eng:
            blocker = eng.submit(
                dumbbell, cache=False,
                _test_fault={"test_fault": "hang", "sleep_seconds": 0.6},
            )
            queued = eng.submit(weighted_cycle)  # the submit-time miss
            eng._cache.put(queued._request.key, minimum_cut(weighted_cycle, rng=0))
            assert queued.result(timeout=30).value == 2
            blocker.result(timeout=30)
            stats = eng.stats()["cache"]
        # exactly one counted lookup: the submit-time miss.  Before the fix
        # this read hits=1, misses=1 (ratio 0.5) for a sequence with no
        # counted hit at all.
        assert stats["hits"] == 0
        assert stats["misses"] == 1
        assert stats["hit_ratio"] == 0.0
        # the request really was served from the cache, not re-solved
        statuses = {
            e["req_id"]: e["status"]
            for e in tracer.events() if e["kind"] == "request_end"
        }
        assert statuses[queued.req_id] == "cached"


# ---------------------------------------------------------------------------
# engine traces
# ---------------------------------------------------------------------------


class TestEngineTracing:
    def test_trace_validates_and_covers_lifecycle(self, dumbbell, weighted_cycle):
        tracer = Tracer()
        with SolverEngine(pool_size=1, tracer=tracer) as eng:
            eng.solve(dumbbell)
            eng.solve(dumbbell)  # cache hit
            eng.solve(weighted_cycle)
        events = tracer.events()
        assert all(e["kind"] in EVENT_KINDS for e in events)
        summary = validate_trace_events(events)
        by_kind = summary["by_kind"]
        assert by_kind["engine_start"] == 1
        assert by_kind["engine_stop"] == 1
        assert by_kind["request_start"] == 3
        assert by_kind["request_end"] == 3
        assert by_kind["cache_hit"] == 1

    def test_request_end_statuses(self, dumbbell):
        tracer = Tracer()
        with SolverEngine(pool_size=1, tracer=tracer, max_recycles=4) as eng:
            eng.solve(dumbbell)
            fut = eng.submit(
                dumbbell, deadline=0.3, cache=False,
                _test_fault={"test_fault": "hang", "sleep_seconds": 60},
            )
            with pytest.raises(WorkerTimeout):
                fut.result(timeout=30)
        statuses = {
            e["status"] for e in tracer.events() if e["kind"] == "request_end"
        }
        assert {"ok", "timeout"} <= statuses
        recycles = [e for e in tracer.events() if e["kind"] == "pool_recycle"]
        assert recycles and recycles[0]["reason"] == "deadline"

    def test_jsonl_sink_passes_file_validator(self, tmp_path, dumbbell):
        from repro.observability.schema import validate_trace_file

        sink = tmp_path / "engine.jsonl"
        tracer = Tracer(sink=str(sink))
        with SolverEngine(pool_size=0, tracer=tracer) as eng:
            eng.solve(dumbbell)
        tracer.close()
        assert validate_trace_file(sink)["events"] >= 4


# ---------------------------------------------------------------------------
# harness integration
# ---------------------------------------------------------------------------


class TestHarnessIntegration:
    def test_run_matrix_reuses_one_engine(self, dumbbell, weighted_cycle):
        from repro.experiments import (
            make_engine_variants,
            make_sequential_variants,
            run_matrix,
        )

        instances = [("dumbbell", dumbbell), ("wcycle", weighted_cycle)]
        with SolverEngine(pool_size=1) as eng:
            records = run_matrix(
                make_engine_variants(), instances, repetitions=2, engine=eng
            )
            stats = eng.stats()
        # 2 variants x 2 instances x 2 repetitions, all through one engine
        assert len(records) == 4
        assert stats["submitted"] == 8
        # repetitions vary the seed (distinct cache keys by design), but the
        # shared-memory planes are exported once per instance and reused
        assert stats["planes"]["exports"] == 2
        assert stats["planes"]["reuses"] == 6
        # engine records agree with the classic sequential variants
        seq = run_matrix(
            {"NOIlam-Heap-VieCut": make_sequential_variants()["NOIlam-Heap-VieCut"]},
            instances,
        )
        by_inst = {r.instance: r.value for r in seq}
        for rec in records:
            assert rec.value == by_inst[rec.instance]

    def test_engine_variants_work_without_engine(self, dumbbell):
        from repro.experiments import make_engine_variants, time_variant

        fn = make_engine_variants()["Engine-NOIlam-Heap-VieCut"]
        rec = time_variant("engineless", fn, dumbbell, "dumbbell")
        assert rec.value == 1


# ---------------------------------------------------------------------------
# the event-driven dispatcher: latency, concurrency, fd hygiene
# ---------------------------------------------------------------------------


class TestEventDrivenDispatch:
    def test_idle_pool_solves_without_a_poll_tick(self):
        # a request reaching an idle pool is assigned on submit and its
        # result read the moment it is posted; a 20 ms result poll used to
        # add most of a tick to every solve (a median of 15-23 ms on a
        # 2-core host, against about 2.5 ms without it)
        g = connected_gnm(16, 40, rng=0, weights=(1, 5))
        with SolverEngine(pool_size=2) as eng:
            eng.solve(g, cache=False)  # warm: plane export, worker imports
            walls = []
            for _ in range(20):
                t0 = time.perf_counter()
                eng.submit(g, cache=False).result(timeout=30)
                walls.append(time.perf_counter() - t0)
        assert statistics.median(walls) < 0.008, walls

    def test_queued_deadline_fires_behind_the_head(
        self, dumbbell, weighted_cycle, path4
    ):
        # a queued request's deadline fires as it passes even while it waits
        # behind another queued request; only the head of the queue used to
        # be checked, so it expired when the hang ended
        with SolverEngine(pool_size=1) as eng:
            eng.submit(dumbbell, cache=False,
                       _test_fault={"test_fault": "hang", "sleep_seconds": 1.5})
            head = eng.submit(weighted_cycle, cache=False)
            t0 = time.monotonic()
            starved = eng.submit(path4, cache=False, deadline=0.2)
            with pytest.raises(WorkerTimeout, match="expired in queue"):
                starved.result(timeout=30)
            assert time.monotonic() - t0 < 1.0
            assert head.result(timeout=30).value == 2

    def test_concurrent_submitters_all_accounted(self):
        graphs = [connected_gnm(12 + 3 * i, 40 + 8 * i, rng=i, weights=(1, 5))
                  for i in range(6)]
        expected = [minimum_cut(g).value for g in graphs]
        errors: list[str] = []
        stop_at = time.monotonic() + 1.5

        def submitter(eng: SolverEngine, seed: int) -> None:
            rng = random.Random(seed)
            try:
                while time.monotonic() < stop_at:
                    batch = []
                    for _ in range(4):
                        i = rng.randrange(len(graphs))
                        fut = eng.submit(graphs[i], cache=rng.random() < 0.5)
                        if rng.random() < 0.2:
                            fut.cancel()
                        batch.append((i, fut))
                    for i, fut in batch:
                        try:
                            value = fut.result(timeout=60).value
                        except RequestCancelled:
                            continue
                        if value != expected[i]:
                            errors.append(f"graph {i}: {value} != {expected[i]}")
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with SolverEngine(pool_size=2, cache_size=4) as eng:
                threads = [threading.Thread(target=submitter, args=(eng, seed))
                           for seed in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                stats = eng.stats()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[:5]
        assert stats["submitted"] > 0
        assert stats["submitted"] == (
            stats["completed"] + stats["failed"] + stats["cancelled"]
        )
        assert stats["failed"] == 0
        assert stats["queue_depth"] == 0 and stats["inflight"] == 0

    def test_worker_dying_mid_result_is_a_crash(self, dumbbell):
        # a torn result frame must surface as that worker's crash (retried
        # once, then WorkerCrashed), never wedge or kill the dispatcher
        with SolverEngine(pool_size=1, max_recycles=4) as eng:
            fut = eng.submit(dumbbell, cache=False,
                             _test_fault={"test_fault": "torn"})
            with pytest.raises(WorkerCrashed):
                fut.result(timeout=30)
            stats = eng.stats()
            assert stats["retries"] == 1 and stats["pool"]["recycles"] == 2
            assert eng.solve(dumbbell).value == 1

    def test_recycles_close_their_pipes(self, dumbbell):
        fd_dir = "/proc/self/fd"
        if not os.path.isdir(fd_dir):
            pytest.skip("open-fd count needs /proc/self/fd")
        with SolverEngine(pool_size=1, max_recycles=16) as eng:
            eng.solve(dumbbell, cache=False)  # warm: plane export, trackers
            before = len(os.listdir(fd_dir))
            for _ in range(5):  # each: crash, recycle, retry, crash, recycle
                fut = eng.submit(dumbbell, cache=False,
                                 _test_fault={"test_fault": "exit"})
                with pytest.raises(WorkerCrashed):
                    fut.result(timeout=30)
            assert eng.stats()["pool"]["recycles"] == 10
            assert eng.solve(dumbbell, cache=False).value == 1
            assert len(os.listdir(fd_dir)) == before
