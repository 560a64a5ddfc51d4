"""Deterministic fault injection for the supervised execution runtime.

Supervisor behaviour (crash detection, deadline enforcement, partial-result
merging, the degradation ladder) must be unit-testable without relying on
real nondeterministic crashes, so every parallel worker entry point accepts
an optional :class:`FaultPlan` describing exactly which workers fail, how,
and when.  A plan is inert in production (the default is ``None``) and the
injection points are a single ``if`` per worker, so the harness costs
nothing when unused.

Fault kinds
-----------
``"crash"``
    Process workers call ``os._exit(exit_code)`` after ``after_pops`` queue
    pops — a hard kill: no result is enqueued and the exit code is nonzero.
    Serial workers are abandoned by the round-robin coordinator, which
    records the crash and keeps the marks made so far.
``"hang"``
    The worker sleeps for ``delay`` seconds (default: effectively forever)
    after ``after_pops`` pops — a wedged worker the supervisor must time
    out.  Process executor only (an in-process worker cannot be killed).
``"delay"``
    The worker sleeps ``delay`` seconds once, then continues normally —
    exercises supervisor patience (the result must still be collected).
``"drop_result"``
    The worker completes its scan but exits cleanly *without* enqueueing a
    result — a lost-message failure distinct from a crash (exit code 0).
``"corrupt_pairs"``
    The worker publishes out-of-range contraction pairs in its shared
    pair row — the pass must reject the row rather than poison the merged
    union–find.

All faults are keyed by worker id, so a plan is deterministic given the
worker numbering (worker ``i`` scans from the ``i``-th start vertex).
"""

from __future__ import annotations

from dataclasses import dataclass, field

FAULT_KINDS = ("crash", "hang", "delay", "drop_result", "corrupt_pairs")

#: sleep used by ``"hang"`` when no delay is given — far beyond any test
#: deadline, short enough that a leaked worker cannot outlive CI.
HANG_SLEEP = 3600.0


@dataclass(frozen=True)
class WorkerFault:
    """One worker's scripted failure."""

    kind: str
    #: trigger after this many priority-queue pops (0 = before the first)
    after_pops: int = 0
    #: sleep length for ``"hang"``/``"delay"`` (``"hang"`` default: HANG_SLEEP)
    delay: float | None = None
    #: process exit code for ``"crash"``
    exit_code: int = 70

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")

    @property
    def sleep_seconds(self) -> float:
        if self.delay is not None:
            return self.delay
        return HANG_SLEEP if self.kind == "hang" else 0.0


@dataclass(frozen=True)
class FaultPlan:
    """Which workers fail, keyed by worker id.

    ``executors`` limits the plan to specific executors — e.g. a plan that
    kills every process worker but lets the degraded ``serial`` retry run
    clean uses ``executors=("processes",)``.
    """

    faults: dict[int, WorkerFault] = field(default_factory=dict)
    executors: tuple[str, ...] = ("processes", "serial")

    def for_worker(self, worker_id: int, executor: str) -> WorkerFault | None:
        if executor not in self.executors:
            return None
        return self.faults.get(worker_id)

    @classmethod
    def kill(
        cls,
        worker_ids,
        *,
        after_pops: int = 0,
        executors: tuple[str, ...] = ("processes", "serial"),
    ) -> "FaultPlan":
        """Crash each listed worker after ``after_pops`` pops."""
        return cls(
            {i: WorkerFault("crash", after_pops=after_pops) for i in worker_ids},
            executors=executors,
        )

    @classmethod
    def hang(
        cls,
        worker_ids,
        *,
        after_pops: int = 0,
        delay: float | None = None,
        executors: tuple[str, ...] = ("processes",),
    ) -> "FaultPlan":
        """Wedge each listed worker (processes only — see ``"hang"``)."""
        return cls(
            {i: WorkerFault("hang", after_pops=after_pops, delay=delay) for i in worker_ids},
            executors=executors,
        )


class FaultClock:
    """Per-worker pop counter that fires a :class:`WorkerFault` on schedule.

    The worker loop calls :meth:`tick` once per step with the number of
    priority-queue pops the step made (one, or a drain's member count); the
    method returns the fault at the first step that takes the count past
    ``after_pops`` (exactly once), else ``None``.  A trigger inside a drain
    therefore fires when the drain ends.  Counting pops — rather than wall
    time — is what makes injected failures deterministic.
    """

    __slots__ = ("fault", "pops", "fired")

    def __init__(self, fault: WorkerFault | None) -> None:
        self.fault = fault
        self.pops = 0
        self.fired = False

    def tick(self, pops: int = 1) -> WorkerFault | None:
        if self.fault is None or self.fired:
            return None
        if self.pops + pops > self.fault.after_pops:
            self.fired = True
            return self.fault
        self.pops += pops
        return None
