"""End-to-end fault-injection tests: crashed, hung and lying workers.

The safety argument is Lemma 3.2(1): every contraction mark a worker emits
is individually safe, and unions commute — so dropping a lost worker's
marks costs progress, never correctness.  These tests kill, hang, starve
and corrupt workers mid-scan and check that ParCut still returns the
*exact* minimum cut (against the networkx Stoer–Wagner oracle), records
what happened in ``stats``, and honours the requested failure policy.
"""

import time

import numpy as np
import pytest

from repro.baselines.matula import matula_approx
from repro.core.mincut import parallel_mincut
from repro.core.parallel_capforest import parallel_capforest
from repro.generators import connected_gnm
from repro.runtime import (
    ExecutorUnavailable,
    FaultPlan,
    RuntimeFault,
    WorkerFault,
)

from .conftest import oracle_mincut


@pytest.fixture(scope="module")
def fault_graph():
    """A graph big enough that 4 regions all get real work."""
    g = connected_gnm(48, 120, rng=np.random.default_rng(7), weights=(1, 6))
    return g, oracle_mincut(g)


class TestProcessFaults:
    def test_kill_one_of_four_mid_scan(self, fault_graph):
        """Acceptance: one worker dies mid-scan; exact value, crash recorded."""
        g, truth = fault_graph
        plan = FaultPlan.kill([1], after_pops=3, executors=("processes",))
        t0 = time.perf_counter()
        res = parallel_mincut(
            g, workers=4, executor="processes", rng=0, timeout=30.0, fault_plan=plan
        )
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0  # completed within its deadline, no hang
        assert res.value == truth
        kinds = [ev["kind"] for ev in res.stats["worker_events"]]
        assert "crashed" in kinds
        crashed = [ev for ev in res.stats["worker_events"] if ev["kind"] == "crashed"]
        assert crashed[0]["worker_id"] == 1
        assert all("round" in ev for ev in res.stats["worker_events"])
        # partial results were merged: the surviving executor is unchanged
        assert res.stats["final_executor"] == "processes"

    def test_kill_all_workers_degrades_and_stays_exact(self, fault_graph):
        """Acceptance: every process worker dies; the ladder still delivers."""
        g, truth = fault_graph
        plan = FaultPlan.kill(range(4), executors=("processes",))
        res = parallel_mincut(
            g, workers=4, executor="processes", rng=0, timeout=30.0, fault_plan=plan
        )
        assert res.value == truth
        assert res.stats["degradations"], "expected a recorded degradation"
        hop = res.stats["degradations"][0]
        assert (hop["from"], hop["to"]) == ("processes", "serial")
        assert res.stats["final_executor"] == "serial"

    def test_hung_worker_times_out_not_hangs(self, fault_graph):
        """The old unconditional ``out.get()`` would block forever here."""
        g, truth = fault_graph
        plan = FaultPlan.hang([2], after_pops=2)
        t0 = time.perf_counter()
        res = parallel_capforest(
            g, truth, workers=4, executor="processes", rng=0, timeout=2.0, fault_plan=plan
        )
        elapsed = time.perf_counter() - t0
        assert elapsed < 15.0
        kinds = {ev["kind"] for ev in res.events}
        assert "timeout" in kinds

    def test_all_hung_raises_executor_unavailable(self, fault_graph):
        g, truth = fault_graph
        plan = FaultPlan.hang(range(2), after_pops=1)
        with pytest.raises(ExecutorUnavailable) as ei:
            parallel_capforest(
                g, truth, workers=2, executor="processes", rng=0,
                timeout=1.5, fault_plan=plan,
            )
        assert ei.value.dominant_kind == "timeout"

    def test_dropped_result_recorded_as_lost(self, fault_graph):
        g, truth = fault_graph
        plan = FaultPlan(
            faults={3: WorkerFault("drop_result")}, executors=("processes",)
        )
        res = parallel_mincut(
            g, workers=4, executor="processes", rng=0, timeout=30.0, fault_plan=plan
        )
        assert res.value == truth
        kinds = {ev["kind"] for ev in res.stats["worker_events"]}
        assert "lost" in kinds

    def test_corrupt_payload_rejected_before_merge(self, fault_graph):
        """Out-of-range pairs must never reach the shared union–find."""
        g, truth = fault_graph
        plan = FaultPlan(
            faults={0: WorkerFault("corrupt_pairs")}, executors=("processes",)
        )
        res = parallel_mincut(
            g, workers=4, executor="processes", rng=0, timeout=30.0, fault_plan=plan
        )
        assert res.value == truth
        kinds = {ev["kind"] for ev in res.stats["worker_events"]}
        assert "corrupt" in kinds

    def test_fail_policy_raises(self, fault_graph):
        g, _ = fault_graph
        plan = FaultPlan.kill([1], executors=("processes",))
        with pytest.raises(RuntimeFault):
            parallel_mincut(
                g, workers=4, executor="processes", rng=0,
                timeout=30.0, fault_plan=plan, on_worker_failure="fail",
            )


class TestSerialFaults:
    def test_all_serial_workers_crash_exhausts_ladder(self, fault_graph):
        """``serial`` is the ladder's last rung: losing every worker there
        raises instead of degrading further."""
        g, _ = fault_graph
        plan = FaultPlan.kill(range(4), executors=("serial",))
        with pytest.raises(ExecutorUnavailable) as ei:
            parallel_mincut(g, workers=4, executor="serial", rng=0, fault_plan=plan)
        assert ei.value.dominant_kind == "crashed"

    def test_serial_crash_tolerated_and_deterministic(self, fault_graph):
        g, truth = fault_graph
        plan = FaultPlan.kill([1], after_pops=1, executors=("serial",))
        values = set()
        for _ in range(2):
            res = parallel_mincut(g, workers=4, executor="serial", rng=0, fault_plan=plan)
            values.add(res.value)
            assert {ev["kind"] for ev in res.stats["worker_events"]} == {"crashed"}
        assert values == {truth}  # deterministic under injection

    def test_no_fault_plan_leaves_stats_clean(self, fault_graph):
        g, truth = fault_graph
        res = parallel_mincut(g, workers=4, executor="serial", rng=0)
        assert res.value == truth
        assert res.stats["worker_events"] == []
        assert res.stats["degradations"] == []


class TestMatulaFaults:
    def test_parallel_matula_survives_worker_loss(self, fault_graph):
        g, truth = fault_graph
        plan = FaultPlan.kill(range(4), executors=("processes",))
        res = matula_approx(
            g, eps=0.5, workers=4, executor="processes", rng=0, fault_plan=plan,
            timeout=30.0,
        )
        # approximation guarantee must hold even after degradation
        assert truth <= res.value <= (2 + 0.5) * truth
        assert res.stats["degradations"]
