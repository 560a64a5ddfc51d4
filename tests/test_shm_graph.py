"""Shared-memory graph plane: lifecycle, zero-copy attach, and cleanup.

Covers the three segment types of :mod:`repro.graph.shm`, the process
executor running over them under both ``fork`` and ``spawn`` start methods,
and the supervisor-owned cleanup guarantee: killed workers must not leak
``/dev/shm`` segments.
"""

from __future__ import annotations

import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.core.mincut import parallel_mincut
from repro.core.noi import noi_mincut
from repro.core.parallel_capforest import default_start_method, parallel_capforest
from repro.generators.gnm import connected_gnm
from repro.graph.shm import SharedBytes, SharedGraph, SharedPairsBuffer
from repro.runtime.errors import ExecutorUnavailable
from repro.runtime.faults import FaultPlan, WorkerFault

START_METHODS = [m for m in ("fork", "spawn") if m in mp.get_all_start_methods()]


def _shm_names() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # non-Linux: fall back to no leak tracking
        return set()


# ---------------------------------------------------------------------------
# segment lifecycle
# ---------------------------------------------------------------------------


def test_shared_graph_roundtrip_and_zero_copy():
    g = connected_gnm(60, 200, rng=0, weights=(1, 9))
    with SharedGraph.export(g) as sg:
        name = sg.name
        assert sg.n == g.n and sg.num_arcs == g.num_arcs
        attached = SharedGraph.attach(sg.name)
        try:
            h = attached.graph()
            assert np.array_equal(h.xadj, g.xadj)
            assert np.array_equal(h.adjncy, g.adjncy)
            assert np.array_equal(h.adjwgt, g.adjwgt)
            # zero-copy: the arrays are views into the mapped segment
            assert not h.xadj.flags.owndata
            assert not h.adjncy.flags.owndata
        finally:
            # views must be dropped before close (BufferError otherwise)
            del h
            attached.close()
    # owner context exit unlinked the segment: re-attach must fail
    with pytest.raises(FileNotFoundError):
        SharedGraph.attach(name)


def test_shared_graph_close_then_use_raises():
    g = connected_gnm(10, 20, rng=1)
    sg = SharedGraph.export(g)
    sg.unlink()
    with pytest.raises(ValueError, match="closed"):
        sg.graph()
    sg.unlink()  # idempotent
    sg.close()  # idempotent


def test_shared_pairs_buffer_roundtrip():
    buf = SharedPairsBuffer.create(3, 10)
    try:
        assert buf.read_pairs(0).shape == (0, 2)
        buf.write_pairs(1, [(2, 3), (4, 5)])
        got = SharedPairsBuffer.attach(buf.name, 3, 10)
        try:
            assert got.read_pairs(1).tolist() == [[2, 3], [4, 5]]
            assert got.read_pairs(0).shape == (0, 2)
        finally:
            got.close()
        # a full row (the dedup bound: n-1 pairs) fits exactly
        buf.write_pairs(2, [(i, i + 1) for i in range(9)])
        assert len(buf.read_pairs(2)) == 9
        with pytest.raises(ValueError, match="exceed"):
            buf.write_pairs(2, [(i, i + 1) for i in range(10)])
    finally:
        buf.unlink()


def test_shared_pairs_buffer_clamps_corrupt_count():
    buf = SharedPairsBuffer.create(1, 5)
    try:
        buf._rows[0, 0] = 10**6  # scribbled count from a corrupt worker
        assert len(buf.read_pairs(0)) <= SharedPairsBuffer.row_len(5) // 2
        buf._rows[0, 0] = -3
        assert buf.read_pairs(0).shape == (0, 2)
    finally:
        buf.unlink()


def test_shared_bytes_zeroed_and_shared():
    b = SharedBytes.create(16)
    try:
        assert bytes(b.buf[:16]) == bytes(16)
        other = SharedBytes.attach(b.name, 16)
        try:
            other.buf[3] = 7
            assert b.buf[3] == 7
        finally:
            other.close()
    finally:
        b.unlink()


def test_no_segments_leaked_by_lifecycle():
    before = _shm_names()
    g = connected_gnm(40, 100, rng=2)
    sg = SharedGraph.export(g)
    pb = SharedPairsBuffer.create(2, g.n)
    sb = SharedBytes.create(g.n)
    for seg in (sg, pb, sb):
        seg.unlink()
    assert _shm_names() <= before


# ---------------------------------------------------------------------------
# process executor over the shared plane
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("start_method", START_METHODS)
@pytest.mark.parametrize("kernel", ["scalar", "vector"])
def test_processes_executor_exact_under_both_start_methods(start_method, kernel):
    g = connected_gnm(120, 500, rng=3, weights=(1, 9))
    expected = noi_mincut(g, rng=0).value
    before = _shm_names()
    res = parallel_mincut(
        g, workers=3, executor="processes", rng=5, kernel=kernel,
        start_method=start_method, timeout=120.0,
    )
    assert res.value == expected
    assert res.stats["start_method"] == start_method
    assert _shm_names() <= before


@pytest.mark.parametrize("start_method", START_METHODS)
def test_parallel_capforest_processes_reports_start_method(start_method):
    g = connected_gnm(80, 300, rng=4)
    lam = g.min_weighted_degree()[1]
    res = parallel_capforest(
        g, lam, workers=2, executor="processes", rng=1,
        start_method=start_method, timeout=120.0,
    )
    assert res.start_method == start_method
    assert res.lambda_hat <= lam
    assert len(res.workers) == 2
    # marks came back through the shared pair buffer, deduplicated: the
    # merged partition can never exceed the n-1 pair bound per worker
    assert res.n_marked <= g.n - 1


def test_default_start_method_matches_platform(monkeypatch):
    methods = mp.get_all_start_methods()
    monkeypatch.delenv("REPRO_START_METHOD", raising=False)
    assert default_start_method() == ("fork" if "fork" in methods else "spawn")
    g = connected_gnm(60, 150, rng=6)
    lam = g.min_weighted_degree()[1]
    res = parallel_capforest(g, lam, workers=2, executor="processes", rng=2, timeout=120.0)
    assert res.start_method == default_start_method()


def test_start_method_env_override(monkeypatch):
    # CI's start-method matrix axis drives the parallel suites through this
    for method in mp.get_all_start_methods():
        monkeypatch.setenv("REPRO_START_METHOD", method)
        assert default_start_method() == method
    monkeypatch.setenv("REPRO_START_METHOD", "no-such-method")
    with pytest.raises(ValueError, match="REPRO_START_METHOD"):
        default_start_method()


# ---------------------------------------------------------------------------
# fault tolerance: killed workers leave no shm segments behind
# ---------------------------------------------------------------------------


def test_killed_workers_leak_no_segments():
    g = connected_gnm(100, 400, rng=7)
    lam = g.min_weighted_degree()[1]
    before = _shm_names()
    plan = FaultPlan.kill(range(3), after_pops=2, executors=("processes",))
    with pytest.raises(ExecutorUnavailable):
        parallel_capforest(
            g, lam, workers=3, executor="processes", rng=3,
            fault_plan=plan, timeout=60.0,
        )
    # supervisor-owned cleanup: the coordinator unlinks every segment even
    # when every worker was hard-killed mid-scan
    assert _shm_names() <= before


def test_partial_kill_keeps_survivors_and_cleans_up():
    g = connected_gnm(100, 400, rng=8, weights=(1, 9))
    lam = g.min_weighted_degree()[1]
    before = _shm_names()
    plan = FaultPlan.kill([0], after_pops=1, executors=("processes",))
    res = parallel_capforest(
        g, lam, workers=3, executor="processes", rng=4,
        fault_plan=plan, timeout=60.0,
    )
    assert any(ev["kind"] == "crashed" for ev in res.events)
    assert len(res.workers) == 2  # survivors only
    assert _shm_names() <= before


def test_corrupt_pair_row_rejected_not_merged():
    g = connected_gnm(60, 200, rng=9)
    lam = g.min_weighted_degree()[1]
    plan = FaultPlan(faults={0: WorkerFault("corrupt_pairs")}, executors=("processes",))
    res = parallel_capforest(
        g, lam, workers=2, executor="processes", rng=6,
        fault_plan=plan, timeout=60.0,
    )
    assert any(ev["kind"] == "corrupt" for ev in res.events)
    # the corrupt worker's report is discarded along with its pairs
    assert len(res.workers) == 1


def test_engine_cancellation_storm_leaks_no_segments():
    # the engine's plane registry exports one shm segment per distinct
    # graph; cancelling half a concurrent batch mid-flight (while the
    # head request blows its deadline and recycles the worker) must
    # still release and unlink every plane by close()
    from repro.engine import RequestCancelled, SolverEngine

    graphs = [connected_gnm(30 + i, 90, rng=10 + i) for i in range(6)]
    before = _shm_names()
    with SolverEngine(pool_size=1, max_recycles=8) as eng:
        doomed = eng.submit(
            graphs[0], cache=False, deadline=0.3,
            _test_fault={"test_fault": "hang", "sleep_seconds": 60},
        )
        futures = [eng.submit(g, cache=False) for g in graphs[1:]]
        for fut in futures[::2]:
            assert fut.cancel() is True
        with pytest.raises(Exception) as exc_info:
            doomed.result(timeout=30)
        assert "deadline" in str(exc_info.value)
        for fut in futures[1::2]:
            assert fut.result(timeout=60).value >= 1
        for fut in futures[::2]:
            with pytest.raises(RequestCancelled):
                fut.result(timeout=5)
    assert _shm_names() <= before
