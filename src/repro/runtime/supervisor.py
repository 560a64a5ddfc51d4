"""Worker supervision for the ``processes`` executor + the degradation ladder.

The original process executor did ``results = [out.get() for _ in procs]``
— one crashed or wedged worker and the coordinator blocked forever.  The
supervisor replaces that with a bounded collection loop over one result
pipe per worker:

* the loop blocks in one :func:`multiprocessing.connection.wait` over the
  pending workers' result pipes and process sentinels, so a report is read
  the moment it is posted and a death is seen the moment it happens;
* a worker's id is the index of its pipe, never a field it reports, so a
  mangled report is charged to the worker that sent it;
* when a worker's sentinel fires, its pipe is drained first — a pipe write
  is complete before the writer exits, so a report posted just before the
  exit still counts — and only then is the worker recorded as *crashed*
  (nonzero exit) or *lost* (clean exit, no report);
* an overall deadline (default :data:`DEFAULT_TIMEOUT`, a backstop so no
  run can hang even when the caller passes no timeout) converts the
  remaining workers into *timeout* events;
* payloads are sanitised before they are merged — a worker reporting
  out-of-range contraction pairs is recorded as *corrupt* and its payload
  discarded, never unioned.

The supervisor neither terminates nor joins the processes it watches:
their owner decides whether a worker is replaced (the round workers of
:mod:`repro.core.parallel_capforest` live across passes) or joined (the
per-call fan-out of :mod:`repro.treepack.solver`).

Losing workers is safe by the paper's Lemma 3.2(1): contraction marks are
unions, unions commute, and any *subset* of safe marks is still safe — the
merged result of the survivors is exact, merely (potentially) slower to
converge.  Only when *no* worker survives does the supervisor's caller
raise :class:`~repro.runtime.errors.ExecutorUnavailable`, which the
degradation ladder (``processes → threads → serial``) turns into a retry
on the next-simpler executor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from multiprocessing import connection

from .errors import ExecutorUnavailable, NoProgressError, RuntimeFault, WorkerCrashed, WorkerTimeout

#: backstop deadline applied when the caller supplies no timeout — generous
#: enough for any in-repo workload, finite so nothing can hang forever.
DEFAULT_TIMEOUT = 600.0

#: how long to wait for the exit code of a worker whose sentinel fired
EXIT_CODE_WAIT = 1.0

#: executor downgrade chain; ``None`` means nowhere left to go
DEGRADATION_LADDER: dict[str, str | None] = {
    "processes": "threads",
    "threads": "serial",
    "serial": None,
}


def worker_event(worker_id: int, kind: str, **detail) -> dict:
    """A structured per-worker event for result ``stats``/``events`` lists."""
    ev = {"worker_id": worker_id, "kind": kind}
    ev.update(detail)
    return ev


@dataclass
class SupervisedOutcome:
    """What the supervisor salvaged from one process fan-out."""

    #: validated payloads, keyed by worker id
    results: dict[int, tuple] = field(default_factory=dict)
    #: structured events for every worker that did not report cleanly
    events: list[dict] = field(default_factory=list)

    @property
    def all_lost(self) -> bool:
        return not self.results


def _validate_payload(payload, n: int, n_workers: int) -> tuple[int, list, dict]:
    """Sanitise one worker payload; raise ``ValueError`` on corruption.

    Merging is a sequence of union–find unions, so the only way a bad
    payload can poison the result is through its pair list — every pair
    must be a valid vertex pair.  ``pairs`` may be ``None``: the sentinel
    meaning the pairs travelled through the shared-memory return buffer
    instead of the pipe (the coordinator range-checks that buffer row
    itself before merging).  The report dict only feeds statistics, but
    its fields are type-checked too so a mangled payload cannot crash the
    coordinator later.
    """
    if not isinstance(payload, tuple) or len(payload) != 3:
        raise ValueError(f"malformed payload (expected 3-tuple, got {type(payload).__name__})")
    worker_id, pairs, rep = payload
    if not isinstance(worker_id, int) or not (0 <= worker_id < n_workers):
        raise ValueError(f"worker id {worker_id!r} out of range")
    for pair in pairs if pairs is not None else ():
        if len(pair) != 2:
            raise ValueError(f"worker {worker_id}: malformed pair {pair!r}")
        u, v = pair
        if not (0 <= int(u) < n and 0 <= int(v) < n):
            raise ValueError(f"worker {worker_id}: pair ({u}, {v}) out of range for n={n}")
    if not isinstance(rep, dict):
        raise ValueError(f"worker {worker_id}: report is not a dict")
    return worker_id, pairs, rep


def supervise_processes(
    procs, conns, *, n: int, timeout: float | None = None
) -> SupervisedOutcome:
    """Collect one payload per process in ``procs`` without ever hanging.

    ``procs`` and ``conns`` are indexed by worker id: ``conns[i]`` is the
    receiving end of worker ``i``'s own result pipe.  ``n`` is the vertex
    count used to validate contraction pairs.  Returns the surviving
    payloads plus one event per worker that did not report cleanly.
    """
    budget = DEFAULT_TIMEOUT if timeout is None else timeout
    deadline = time.monotonic() + budget
    outcome = SupervisedOutcome()
    pending = set(range(len(procs)))
    broken: set[int] = set()  # pipe at end-of-file: only the sentinel is left

    def read(wid: int) -> None:
        """Take worker ``wid``'s report if one is waiting on its pipe."""
        conn = conns[wid]
        try:
            if not conn.poll():
                return
            payload = conn.recv()
        except (EOFError, OSError):
            broken.add(wid)
            return
        except Exception as exc:  # noqa: BLE001 - an unreadable report is corrupt
            outcome.events.append(
                worker_event(wid, "corrupt", detail=f"unreadable report: {exc!r}")
            )
            pending.discard(wid)
            return
        pending.discard(wid)
        try:
            worker_id, pairs, rep = _validate_payload(payload, n, len(procs))
            if worker_id != wid:
                raise ValueError(f"worker {wid} reported as worker {worker_id}")
        except (ValueError, TypeError) as exc:
            outcome.events.append(worker_event(wid, "corrupt", detail=str(exc)))
            return
        outcome.results[wid] = (wid, pairs, rep)

    while pending:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            for wid in sorted(pending):
                outcome.events.append(worker_event(wid, "timeout", deadline_s=budget))
            break
        owners = {procs[wid].sentinel: wid for wid in pending}
        owners.update((conns[wid], wid) for wid in pending - broken)
        for ready in connection.wait(list(owners), remaining):
            wid = owners[ready]
            if wid not in pending:
                continue
            read(wid)  # a sentinel's worker may have posted before it exited
            if wid in pending and ready is not conns[wid]:
                procs[wid].join(EXIT_CODE_WAIT)
                code = procs[wid].exitcode
                kind = "lost" if code == 0 else "crashed"
                outcome.events.append(worker_event(wid, kind, exit_code=code))
                pending.discard(wid)
    return outcome


def raise_for_events(executor: str, events: list[dict]):
    """Raise the most specific fault for a fatal (or fail-fast) event set."""
    timeouts = [e for e in events if e.get("kind") == "timeout"]
    crashes = [e for e in events if e.get("kind") in ("crashed", "lost", "corrupt")]
    if timeouts and not crashes:
        ev = timeouts[0]
        raise WorkerTimeout(ev["worker_id"], ev.get("deadline_s", 0.0))
    if crashes:
        ev = crashes[0]
        raise WorkerCrashed(ev["worker_id"], ev.get("exit_code"), ev.get("detail", ev["kind"]))
    raise ExecutorUnavailable(executor, "no workers reported", events)


def call_with_degradation(
    call,
    executor: str,
    *,
    policy: str = "degrade",
    on_degrade=None,
    tracer=None,
):
    """Run ``call(executor)``, stepping down the ladder on executor faults.

    ``call`` is retried on the next-simpler executor each time it raises a
    :class:`RuntimeFault` (other than :class:`NoProgressError`, which
    signals an algorithmic stall, not an executor problem).  Retries are
    capped by the ladder length, so the call runs at most three times.
    ``on_degrade(from_executor, to_executor, exc)`` is invoked before each
    retry — callers use it to record the event in their ``stats``.

    ``tracer`` (optional :class:`repro.observability.Tracer`) receives one
    structured ``degradation`` event per ladder step, in addition to the
    ``on_degrade`` callback.

    Returns ``(result, executor_used)`` so callers can stay degraded for
    subsequent rounds instead of re-paying the failure each time.
    """
    if policy not in ("degrade", "fail"):
        raise ValueError(f"unknown degradation policy {policy!r}")
    while True:
        try:
            return call(executor), executor
        except NoProgressError:
            raise
        except RuntimeFault as exc:
            nxt = DEGRADATION_LADDER.get(executor)
            if policy != "degrade" or nxt is None:
                raise
            if on_degrade is not None:
                on_degrade(executor, nxt, exc)
            if tracer is not None:
                tracer.emit(
                    "degradation",
                    stage="capforest",
                    from_executor=executor,
                    to_executor=nxt,
                    reason=str(exc),
                )
            executor = nxt
