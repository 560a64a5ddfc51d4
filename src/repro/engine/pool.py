"""The engine's solve loop, run in a long-lived :class:`~repro.runtime.WorkerPool`.

The engine keeps ``size`` worker processes alive for its whole lifetime
(:class:`repro.runtime.pool.WorkerPool`, which the ``processes`` executor
of parallel CAPFOREST also builds its round workers from) and streams
*solve requests* to them: each task names a shared-memory plane
(:mod:`~repro.engine.planes`), an algorithm, and the solve kwargs; the
worker attaches to the plane zero-copy, runs the full solve through
:func:`repro.core.api.minimum_cut`, and posts the result back.  Process
startup, interpreter warm-up, and numpy import costs are paid once per
worker instead of once per solve.

Workers are daemonic, so solves inside the pool use the in-process
``serial`` executor; the pool itself provides the process parallelism
*across* requests.  The engine rewrites ``executor="processes"`` to
``"serial"`` accordingly (daemonic processes may not have children).

Supervision never blocks forever and turns failures into structured
events: the owning engine blocks in one
:func:`multiprocessing.connection.wait` over every worker's result pipe
and process sentinel (:meth:`WorkerPool.waitables`), so a result is read
the moment it is posted and a death is seen the moment the process exits.
A worker that dies partway through sending a result closes its pipe
mid-message, which reads as an error on the engine side and is handled
as that worker's crash.  :meth:`WorkerPool.recycle` replaces a crashed or
deadline-blown worker with a fresh process (the ``pool_recycle`` trace
event).  A pool that exhausts its recycle budget is abandoned and the
engine degrades to in-process solving — the same ladder shape as
``processes → serial``, one level up.
"""

from __future__ import annotations

import gc
import os
import pickle
import struct
import time


def _portable_error(exc: BaseException) -> bytes | None:
    """``exc`` pickled, so the engine can raise what an inline solve raises.

    ``None`` unless ``exc`` is an :class:`Exception` that survives a pickle
    round trip with its type and message intact (a
    :class:`~repro.runtime.WorkerTimeout`, for one, does not: its
    constructor needs arguments its pickled form lacks).  The engine then
    falls back to a :class:`RuntimeError` naming ``repr(exc)``.
    """
    if not isinstance(exc, Exception):
        return None
    try:
        blob = pickle.dumps(exc)
        back = pickle.loads(blob)
    except Exception:  # noqa: BLE001 - any failure means "not portable"
        return None
    if type(back) is not type(exc) or str(back) != str(exc):
        return None
    return blob


def _pooled_error(req_id: int, payload) -> Exception:
    """The engine's reading of an ``("error", payload)`` message: the
    exception the inline solve raises when it crossed the pipe intact,
    else a :class:`RuntimeError` naming its repr.  A blob that cannot be
    decoded here fails only its own request."""
    blob, text = payload
    if blob is not None:
        try:
            exc = pickle.loads(blob)
        except Exception:  # noqa: BLE001 - undecodable here: fall back
            exc = None
        if isinstance(exc, Exception):
            return exc
    return RuntimeError(f"pooled solve of request {req_id} failed: {text}")


def _pool_worker_main(tasks, results) -> None:
    # pragma: no cover — exercised via subprocesses (tests/test_engine.py)
    """One pool worker: loop over tasks until :func:`next_task` says stop
    (the ``None`` sentinel, a closed pipe or a dead engine).

    Every task posts exactly one ``(req_id, status, payload)`` message on
    ``results``: ``("ok", result-tuple)`` or ``("error", (blob, repr(exc)))``
    with ``blob`` from :func:`_portable_error`.  Worker deaths post nothing
    — the engine detects them through the process sentinel.
    """
    from ..core.api import minimum_cut
    from ..graph.shm import SharedGraph
    from ..runtime.pool import next_task

    while True:
        task = next_task(tasks)
        if task is None:
            return
        req_id = task["req_id"]
        fault = task.get("test_fault")
        if fault == "exit":  # deterministic crash injection for tests
            os._exit(task.get("exit_code", 9))
        if fault == "torn":  # die partway through posting a result
            os.write(results.fileno(), struct.pack("!i", 1 << 20) + b"partial")
            os._exit(task.get("exit_code", 9))
        if fault == "hang":
            time.sleep(task.get("sleep_seconds", 3600.0))
        plane = g = res = None
        try:
            plane = SharedGraph.attach(task["plane"])
            g = plane.graph()
            res = minimum_cut(
                g, algorithm=task["algorithm"],
                **task.get("options", {}), **task["kwargs"],
            )
            side = None if res.side is None else res.side.copy()
            results.send(
                (req_id, "ok",
                 (int(res.value), side, res.n, res.algorithm, res.stats,
                  res.cactus))
            )
        except BaseException as exc:  # noqa: BLE001 - any failure must be reported
            try:
                results.send((req_id, "error",
                              (_portable_error(exc), repr(exc))))
            except Exception:  # pragma: no cover - engine end already closed
                pass
        finally:
            # solver results never alias the plane (sides/labels are fresh
            # arrays), but the attached Graph's views do — drop every local
            # reference before close or the segment refuses to unmap.  This
            # runs *after* the except handler so no in-flight exception's
            # traceback frames still pin the views; cyclic garbage (e.g. a
            # solver traceback caught above) may need a collection pass.
            g = res = side = None
            if plane is not None:
                try:
                    plane.close()
                except BufferError:  # pragma: no cover - cycle-held views
                    gc.collect()
                    plane.close()
