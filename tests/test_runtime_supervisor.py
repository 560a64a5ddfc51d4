"""Unit tests for the supervised execution runtime (repro.runtime)."""

import numpy as np
import pytest

from repro.core.mincut import parallel_mincut
from repro.generators import connected_gnm
from repro.runtime import (
    DEGRADATION_LADDER,
    ExecutorUnavailable,
    FaultClock,
    FaultPlan,
    NoProgressError,
    RuntimeFault,
    WorkerCrashed,
    WorkerFault,
    WorkerTimeout,
    call_with_degradation,
    raise_for_events,
    worker_event,
)
from repro.runtime.supervisor import _validate_payload


class TestErrors:
    def test_taxonomy_hierarchy(self):
        for cls in (WorkerCrashed, WorkerTimeout, ExecutorUnavailable, NoProgressError):
            assert issubclass(cls, RuntimeFault)
        assert issubclass(RuntimeFault, RuntimeError)

    def test_worker_crashed_message(self):
        exc = WorkerCrashed(3, exit_code=70, detail="injected")
        assert exc.worker_id == 3
        assert exc.exit_code == 70
        assert "worker 3" in str(exc) and "70" in str(exc)

    def test_worker_timeout_message(self):
        exc = WorkerTimeout(1, 2.5)
        assert exc.worker_id == 1
        assert "2.5" in str(exc)

    def test_executor_unavailable_dominant_kind(self):
        exc = ExecutorUnavailable("processes", "x", [worker_event(0, "crashed")])
        assert exc.dominant_kind == "crashed"
        exc = ExecutorUnavailable(
            "processes", "x", [worker_event(0, "crashed"), worker_event(1, "timeout")]
        )
        assert exc.dominant_kind == "timeout"


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            WorkerFault("explode")

    def test_scoped_to_executor(self):
        plan = FaultPlan.kill([0], executors=("processes",))
        assert plan.for_worker(0, "processes") is not None
        assert plan.for_worker(0, "serial") is None
        assert plan.for_worker(1, "processes") is None

    def test_clock_fires_once_after_pops(self):
        clock = FaultClock(WorkerFault("crash", after_pops=2))
        assert clock.tick() is None
        assert clock.tick() is None
        fault = clock.tick()
        assert fault is not None and fault.kind == "crash"
        assert clock.tick() is None  # never re-fires

    def test_clock_fires_at_the_end_of_a_drain(self):
        """A drain ticks once with its member count; a trigger inside it
        fires when it ends, and single pops after it tick as before."""
        clock = FaultClock(WorkerFault("crash", after_pops=20))
        assert clock.tick() is None
        assert clock.tick(16) is None  # pops 2..17
        assert clock.tick(16) is not None  # pops 18..33 contain the trigger
        assert clock.tick() is None
        edge = FaultClock(WorkerFault("crash", after_pops=16))
        assert edge.tick(16) is None and edge.tick() is not None

    def test_clock_without_fault(self):
        clock = FaultClock(None)
        assert all(clock.tick() is None for _ in range(5))

    def test_hang_sleep_default(self):
        assert WorkerFault("hang").sleep_seconds > 100
        assert WorkerFault("hang", delay=0.1).sleep_seconds == 0.1
        assert WorkerFault("crash").sleep_seconds == 0.0


class TestPayloadValidation:
    def test_accepts_clean_payload(self):
        wid, rep = _validate_payload((1, {"a": 1}), n_workers=2)
        assert wid == 1 and rep == {"a": 1}

    @pytest.mark.parametrize(
        "payload",
        [
            "garbage",
            (1, None, {}),  # wrong arity: pairs travel in shared memory
            (9, {}),  # worker id out of range
            (-1, {}),  # negative worker id
            ("0", {}),  # worker id not an int
            (0, "not a dict"),
        ],
    )
    def test_rejects_corrupt_payloads(self, payload):
        with pytest.raises((ValueError, TypeError)):
            _validate_payload(payload, n_workers=2)


class TestDegradationLadder:
    def test_ladder_shape(self):
        assert DEGRADATION_LADDER == {"processes": "serial", "serial": None}

    def test_degrades_until_success(self):
        seen = []

        def call(executor):
            seen.append(executor)
            if executor != "serial":
                raise ExecutorUnavailable(executor, "boom")
            return 42

        result, used = call_with_degradation(call, "processes")
        assert result == 42 and used == "serial"
        assert seen == ["processes", "serial"]

    def test_records_each_degradation(self):
        hops = []

        def call(executor):
            if executor == "processes":
                raise ExecutorUnavailable(executor, "boom")
            return 1

        call_with_degradation(
            call, "processes", on_degrade=lambda a, b, e: hops.append((a, b))
        )
        assert hops == [("processes", "serial")]

    def test_fail_policy_raises_immediately(self):
        def call(executor):
            raise ExecutorUnavailable(executor, "boom")

        with pytest.raises(ExecutorUnavailable):
            call_with_degradation(call, "processes", policy="fail")

    def test_serial_failure_exhausts_ladder(self):
        def call(executor):
            raise ExecutorUnavailable(executor, "boom")

        with pytest.raises(ExecutorUnavailable):
            call_with_degradation(call, "serial")

    def test_no_progress_is_not_degradable(self):
        def call(executor):
            raise NoProgressError("stalled")

        with pytest.raises(NoProgressError):
            call_with_degradation(call, "processes")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            call_with_degradation(lambda e: 1, "serial", policy="retry")


class TestRaiseForEvents:
    def test_timeout_dominated(self):
        with pytest.raises(WorkerTimeout):
            raise_for_events("processes", [worker_event(2, "timeout", deadline_s=1.0)])

    def test_crash_dominated(self):
        with pytest.raises(WorkerCrashed):
            raise_for_events(
                "processes",
                [worker_event(0, "crashed", exit_code=70), worker_event(1, "timeout")],
            )

    def test_empty_events(self):
        with pytest.raises(ExecutorUnavailable):
            raise_for_events("processes", [])


class TestNoProgressWatchdog:
    def test_stalled_contraction_raises(self, monkeypatch):
        """A round that fails to shrink the graph must abort, not loop."""
        import repro.core.mincut as mincut_mod

        monkeypatch.setattr(
            mincut_mod,
            "parallel_contract_by_labels",
            lambda g, labels, workers=4: (g, np.arange(g.n, dtype=np.int64)),
        )
        g = connected_gnm(20, 40, rng=np.random.default_rng(0), weights=(1, 4))
        with pytest.raises(NoProgressError):
            parallel_mincut(g, workers=2, rng=0)

    def test_invalid_policy_rejected(self):
        g = connected_gnm(10, 15, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            parallel_mincut(g, rng=0, on_worker_failure="shrug")


class TestCliExitCodes:
    def test_mapping(self):
        from repro.cli import (
            EXIT_NO_PROGRESS,
            EXIT_TIMEOUT,
            EXIT_WORKER_FAILURE,
            exit_code_for,
        )

        assert exit_code_for(WorkerTimeout(0, 1.0)) == EXIT_TIMEOUT
        assert exit_code_for(WorkerCrashed(0, 1)) == EXIT_WORKER_FAILURE
        assert exit_code_for(NoProgressError("x")) == EXIT_NO_PROGRESS
        assert (
            exit_code_for(ExecutorUnavailable("p", "x", [worker_event(0, "timeout")]))
            == EXIT_TIMEOUT
        )
        assert (
            exit_code_for(ExecutorUnavailable("p", "x", [worker_event(0, "crashed")]))
            == EXIT_WORKER_FAILURE
        )

    def test_flags_accepted(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graph import from_edges, write_metis

        path = tmp_path / "g.graph"
        write_metis(from_edges(4, [0, 1, 2, 3], [1, 2, 3, 0]), path)
        code = main(
            [
                "--algorithm", "parcut", "--workers", "2",
                "--timeout", "30", "--on-worker-failure", "degrade",
                str(path),
            ]
        )
        assert code == 0
        assert "mincut" in capsys.readouterr().out

    def test_timeout_flag_rejected_for_sequential_solver(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graph import from_edges, write_metis

        path = tmp_path / "g.graph"
        write_metis(from_edges(4, [0, 1, 2, 3], [1, 2, 3, 0]), path)
        # stoer-wagner takes no timeout kwarg: invalid usage, exit code 2
        assert main(["--algorithm", "stoer-wagner", "--timeout", "5", str(path)]) == 2


# -- supervise_processes over one result pipe per worker -----------------------


def _post_and_exit(conn, payload) -> None:
    conn.send(payload)
    conn.close()


def _exit_with(conn, code: int) -> None:
    import os

    os._exit(code)


def _sleep(conn, seconds: float) -> None:
    import time

    time.sleep(seconds)


def _supervise(behaviours, *, timeout: float = 30.0):
    """Start one process per ``(target, arg)`` pair, each with its own
    result pipe, and supervise them; every process is stopped afterwards."""
    import multiprocessing as mp

    from repro.runtime import default_start_method, supervise_processes

    ctx = mp.get_context(default_start_method())
    procs, conns = [], []
    try:
        for target, arg in behaviours:
            recv, send = ctx.Pipe(duplex=False)
            conns.append(recv)
            proc = ctx.Process(target=target, args=(send, arg))
            proc.start()
            send.close()
            procs.append(proc)
        outcome = supervise_processes(procs, conns, timeout=timeout)
        alive = [proc.is_alive() for proc in procs]
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=10.0)
        for conn in conns:
            conn.close()
    return outcome, alive


class TestPipeSupervision:
    def test_unreadable_worker_id_is_one_corrupt_event_for_the_sender(self):
        outcome, _ = _supervise([(_post_and_exit, ("x", {})),
                                 (_post_and_exit, (1, {"ok": 1}))])
        assert outcome.events == [outcome.events[0]]
        assert outcome.events[0]["kind"] == "corrupt"
        assert outcome.events[0]["worker_id"] == 0
        assert all(ev["worker_id"] != -1 for ev in outcome.events)
        assert list(outcome.results) == [1]

    def test_report_under_another_workers_id_is_charged_to_the_sender(self):
        outcome, _ = _supervise([(_post_and_exit, (1, {})),
                                 (_post_and_exit, (1, {}))])
        assert [(ev["worker_id"], ev["kind"]) for ev in outcome.events] == [(0, "corrupt")]
        assert list(outcome.results) == [1]

    def test_report_posted_just_before_exit_is_kept(self):
        outcome, _ = _supervise([(_post_and_exit, (i, {"i": i})) for i in range(4)])
        assert not outcome.events
        assert sorted(outcome.results) == [0, 1, 2, 3]
        assert outcome.results[2] == {"i": 2}

    def test_exits_without_report_are_crashed_or_lost(self):
        outcome, _ = _supervise([(_exit_with, 3), (_exit_with, 0),
                                 (_post_and_exit, (2, {}))])
        assert sorted((ev["worker_id"], ev["kind"], ev["exit_code"]) for ev in outcome.events) == [
            (0, "crashed", 3), (1, "lost", 0)]
        assert list(outcome.results) == [2]

    def test_deadline_reports_timeout_and_leaves_the_process_to_its_owner(self):
        outcome, alive = _supervise([(_sleep, 60.0), (_post_and_exit, (1, {}))],
                                    timeout=1.0)
        assert [(ev["worker_id"], ev["kind"]) for ev in outcome.events] == [(0, "timeout")]
        assert alive[0], "supervise_processes must not terminate the processes it watches"
