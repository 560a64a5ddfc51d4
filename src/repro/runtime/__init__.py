"""Supervised execution runtime: supervision, fault injection, degradation.

Every parallel code path in the package routes its worker management
through this subsystem so that no executor can hang the coordinator, every
failure is observable as a structured event, and a failing executor
degrades ``processes → threads → serial`` instead of aborting (Lemma
3.2(1) makes dropped workers safe; the sequential fallback guarantees
progress when everything else dies).  See the module docstrings of
:mod:`~repro.runtime.supervisor`, :mod:`~repro.runtime.pool`,
:mod:`~repro.runtime.faults` and :mod:`~repro.runtime.errors` for the
pieces.
"""

from .errors import (
    ExecutorUnavailable,
    NoProgressError,
    RuntimeFault,
    WorkerCrashed,
    WorkerTimeout,
)
from .faults import FaultClock, FaultPlan, WorkerFault
from .pool import WorkerGroup, WorkerPool, default_start_method
from .supervisor import (
    DEFAULT_TIMEOUT,
    DEGRADATION_LADDER,
    SupervisedOutcome,
    call_with_degradation,
    raise_for_events,
    supervise_processes,
    worker_event,
)

__all__ = [
    "RuntimeFault",
    "WorkerCrashed",
    "WorkerTimeout",
    "ExecutorUnavailable",
    "NoProgressError",
    "FaultPlan",
    "WorkerFault",
    "FaultClock",
    "DEFAULT_TIMEOUT",
    "DEGRADATION_LADDER",
    "SupervisedOutcome",
    "call_with_degradation",
    "raise_for_events",
    "supervise_processes",
    "worker_event",
    "WorkerPool",
    "WorkerGroup",
    "default_start_method",
]
