"""Long-lived supervised solve-worker pool.

Where :mod:`~repro.core.parallel_capforest` spawns fresh processes for
every CAPFOREST pass, the engine keeps ``size`` worker processes alive for
its whole lifetime and streams *solve requests* to them: each task names a
shared-memory plane (:mod:`~repro.engine.planes`), an algorithm, and the
solve kwargs; the worker attaches to the plane zero-copy, runs the full
solve through :func:`repro.core.api.minimum_cut`, and posts the result
back.  Process startup, interpreter warm-up, and numpy import costs are
paid once per worker instead of once per solve — the overhead the paper's
shared-memory design amortises, applied at request granularity.

Workers are daemonic, so solves inside the pool use the in-process
executors (``serial``/``threads``); the pool itself provides the process
parallelism *across* requests.  The engine coerces ``executor="processes"``
accordingly (daemonic processes may not have children).

Each worker owns a private task pipe and result pipe, both replaced when
the worker is respawned.  Supervision mirrors
:mod:`repro.runtime.supervisor`'s philosophy — never block forever, turn
failures into structured events: the owning engine blocks in one
:func:`multiprocessing.connection.wait` over every worker's result pipe
and process sentinel (:meth:`WorkerPool.waitables`), so a result is read
the moment it is posted and a death is seen the moment the process exits.
A worker that dies partway through sending a result closes its pipe
mid-message, which reads as an error on the engine side and is handled
as that worker's crash.  :meth:`WorkerPool.recycle` replaces a crashed or
deadline-blown worker with a fresh process (the ``pool_recycle`` trace
event).  A pool that exhausts its recycle budget is abandoned and the
engine degrades to in-process solving — the same ladder shape as
``processes → threads → serial``, one level up.
"""

from __future__ import annotations

import gc
import os
import struct
import time

#: how long WorkerPool.shutdown waits for a worker to exit cleanly
SHUTDOWN_GRACE = 2.0


def _pool_worker_main(tasks, results) -> None:
    # pragma: no cover — exercised via subprocesses (tests/test_engine.py)
    """One pool worker: loop over tasks until the ``None`` sentinel.

    Every task posts exactly one ``(req_id, status, payload)`` message on
    ``results``: ``("ok", result-tuple)`` or ``("error", repr(exc))``.
    Worker deaths post nothing — the engine detects them through the
    process sentinel.
    """
    from ..core.api import minimum_cut
    from ..graph.shm import SharedGraph
    from ..kernels import warmup

    # JIT-compile (or cache-load) the compiled kernel tier once, before the
    # first request, so no request pays compilation latency.  No-op without
    # numba; idempotent within the process.
    warmup()

    while True:
        try:
            task = tasks.recv()
        except EOFError:
            return  # the engine closed its end of the task pipe
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
                results.send((req_id, "error", repr(exc)))
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


class WorkerPool:
    """``size`` persistent solve workers, each with its own pipe pair.

    Assignment is engine-side (one in-flight task per worker), so crashes
    and deadlines are always attributable to exactly one request.
    """

    def __init__(self, size: int, start_method: str | None = None) -> None:
        import multiprocessing as mp

        from ..core.parallel_capforest import default_start_method

        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = size
        self.start_method = start_method or default_start_method()
        self._ctx = mp.get_context(self.start_method)
        self._procs: list = [None] * size
        self._tasks: list = [None] * size  # engine's send end, per worker
        self._results: list = [None] * size  # engine's receive end, per worker
        self.recycles = 0
        for i in range(size):
            self._spawn(i)

    def _spawn(self, worker_id: int) -> None:
        # fresh pipes per (re)spawn: a terminated worker may have died
        # mid-message, leaving a partial frame in its old pipes
        task_recv, task_send = self._ctx.Pipe(duplex=False)
        result_recv, result_send = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(task_recv, result_send),
            daemon=True,
        )
        try:
            proc.start()
        except BaseException:
            task_send.close()
            result_recv.close()
            raise
        finally:
            # the worker holds its own copies now; dropping the engine's is
            # what makes a worker death read as end-of-file on its pipe
            task_recv.close()
            result_send.close()
        self._procs[worker_id] = proc
        self._tasks[worker_id] = task_send
        self._results[worker_id] = result_recv

    def submit(self, worker_id: int, task: dict) -> None:
        """Hand one task to one worker (the engine keeps it single-flight).

        Raises :class:`OSError` when the worker is already dead; its
        sentinel then reports the death to the engine.
        """
        self._tasks[worker_id].send(task)

    def waitables(self) -> tuple[list, list]:
        """What the engine waits on, indexed by worker id: the result pipes
        (readable once a result is posted) and the process sentinels (ready
        once the process has exited)."""
        return list(self._results), [proc.sentinel for proc in self._procs]

    def receive(self, worker_id: int):
        """The worker's posted ``(req_id, status, payload)``, or ``None``
        when nothing is waiting.  Raises :class:`EOFError` or
        :class:`OSError` once the worker has closed its pipe — by dying,
        possibly partway through a message."""
        conn = self._results[worker_id]
        return conn.recv() if conn.poll() else None

    def reap(self, worker_id: int) -> int | None:
        """Exit code of a worker seen dying, waiting briefly for the exit
        to land (``None`` if the process is somehow still running)."""
        proc = self._procs[worker_id]
        proc.join(timeout=SHUTDOWN_GRACE)
        return proc.exitcode

    def recycle(self, worker_id: int) -> None:
        """Terminate and respawn one worker (crash or deadline recovery)."""
        self._stop(worker_id)
        self.recycles += 1
        self._spawn(worker_id)

    def _stop(self, worker_id: int) -> None:
        """Terminate (if alive) and join one worker; release its pipes and
        its process handle."""
        proc = self._procs[worker_id]
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=SHUTDOWN_GRACE)
        if proc.exitcode is not None:
            proc.close()
        self._tasks[worker_id].close()
        self._results[worker_id].close()

    def shutdown(self) -> None:
        """Stop every worker: sentinel, grace join, then terminate."""
        for conn in self._tasks:
            try:
                conn.send(None)
            except OSError:  # worker already dead
                pass
        deadline = time.monotonic() + SHUTDOWN_GRACE
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for worker_id in range(self.size):
            self._stop(worker_id)


__all__ = ["WorkerPool"]
