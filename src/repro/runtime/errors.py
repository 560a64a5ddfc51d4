"""Structured failure taxonomy for the supervised execution runtime.

Every parallel code path in this package (parallel CAPFOREST, parallel
contraction, parallel Matula) reports failures
through these types instead of hanging or raising bare ``ValueError``s.
The hierarchy is deliberately shallow:

``RuntimeFault``
    Base class — "the execution substrate failed", as opposed to "the
    input was invalid" (``ValueError``) or "the algorithm is wrong"
    (would be a bug).  Catching it is how callers opt into the
    degradation ladder (:func:`~repro.runtime.supervisor.call_with_degradation`).

``WorkerCrashed`` / ``WorkerTimeout``
    One specific worker died (nonzero exit code, or exited without
    reporting) or blew its deadline.  Losing a worker's contraction marks
    is *safe* — Lemma 3.2(1): unions commute and any subset of marks is
    still exact — so these are raised only when the caller asked for
    fail-fast semantics (``on_worker_failure="fail"``) or when no worker
    survived at all.

``ExecutorUnavailable``
    An entire executor produced nothing usable (every worker lost, or the
    backend cannot start).  Carries the per-worker event dicts so callers
    and the CLI can distinguish timeout-dominated from crash-dominated
    losses.

``NoProgressError``
    A watchdog tripped: a contraction round failed to shrink the graph, or
    a scan popped more vertices than exist.  Without it the round loop of
    NOI, ParCut and Matula (and a corrupted scan) would spin forever.
"""

from __future__ import annotations


class RuntimeFault(RuntimeError):
    """Base class for execution-substrate failures (not input errors)."""


class WorkerCrashed(RuntimeFault):
    """A worker process/thread died before reporting its result.

    ``exit_code`` is the process exit code (``None`` for thread workers,
    whose "crash" is an uncaught exception captured by the drain wrapper).
    """

    def __init__(self, worker_id: int, exit_code: int | None = None, detail: str = "") -> None:
        self.worker_id = worker_id
        self.exit_code = exit_code
        self.detail = detail
        msg = f"worker {worker_id} crashed"
        if exit_code is not None:
            msg += f" (exit code {exit_code})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class WorkerTimeout(RuntimeFault):
    """A worker failed to report within its deadline.

    ``worker_id`` is ``None`` when no worker was ever involved — e.g. a
    request whose deadline expired while still queued; such callers supply
    their own ``message`` with request context instead of the per-worker
    default.
    """

    def __init__(
        self, worker_id: int | None, deadline: float, message: str | None = None
    ) -> None:
        self.worker_id = worker_id
        self.deadline = deadline
        super().__init__(
            message or f"worker {worker_id} exceeded its {deadline:.3g}s deadline"
        )


class ExecutorUnavailable(RuntimeFault):
    """An executor produced no usable results (all workers lost).

    ``events`` is the list of per-worker event dicts recorded by the
    supervisor (see :mod:`~repro.runtime.supervisor`); ``dominant_kind``
    summarises them so callers can map the loss to a failure mode.
    """

    def __init__(self, executor: str, reason: str = "", events: list[dict] | None = None) -> None:
        self.executor = executor
        self.reason = reason
        self.events = events or []
        msg = f"executor {executor!r} unavailable"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)

    @property
    def dominant_kind(self) -> str:
        """``"timeout"`` if any worker timed out, else ``"crashed"``."""
        kinds = {e.get("kind") for e in self.events}
        return "timeout" if "timeout" in kinds else "crashed"


class NoProgressError(RuntimeFault):
    """A progress watchdog tripped (stalled round loop or runaway scan)."""

    def __init__(self, detail: str) -> None:
        super().__init__(f"no progress: {detail}")
