"""Persistent worker processes, each with its own task and result pipe.

:class:`WorkerPool` keeps ``size`` worker processes alive and runs one
entry point ``target(tasks, results)`` in each: worker ``i`` reads tasks
from its own task pipe and posts results on its own result pipe, so a
result, a death, or a blown deadline is always attributable to exactly
one worker.  Process start-up, interpreter warm-up and import costs are
paid once per worker instead of once per task.  The solver engine runs
whole solves in a pool (:mod:`repro.engine.pool`); the ``processes``
executor of parallel CAPFOREST runs one scan region per worker and pass
(:mod:`repro.core.parallel_capforest`).

:class:`WorkerGroup` is one process-wide pool for one entry point.  It
starts on the first :meth:`~WorkerGroup.lease`, grows when a lease needs
more workers, is replaced when a lease asks for another start method,
and is closed at interpreter exit, or once no lease has used it for
:data:`IDLE_CLOSE_S`.  Leases from different threads take turns.  A
forked child forgets its parent's group instead of inheriting it.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from contextlib import contextmanager

#: how long WorkerPool.shutdown waits for a worker to exit cleanly
SHUTDOWN_GRACE = 2.0

#: a WorkerGroup nobody has leased for this long closes itself, so a
#: program that stopped solving holds no idle workers, and a parent that
#: waits for its children before it exits is not kept waiting on them
IDLE_CLOSE_S = 2.0


def default_start_method() -> str:
    """``fork`` where the platform offers it, else ``spawn``.

    The ``REPRO_START_METHOD`` environment variable overrides the platform
    default (CI uses this to run the parallel suites under both methods on
    Linux); an unsupported value raises rather than silently degrading.
    """
    import multiprocessing as mp

    override = os.environ.get("REPRO_START_METHOD")
    if override:
        if override not in mp.get_all_start_methods():
            raise ValueError(
                f"REPRO_START_METHOD={override!r} not supported here; "
                f"available: {mp.get_all_start_methods()}"
            )
        return override
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


class WorkerPool:
    """``size`` persistent workers running ``target``, each with its own
    pipe pair.

    ``target(tasks, results)`` is a picklable module-level function that
    loops over ``tasks.recv()`` until it reads ``None`` (or end-of-file)
    and posts on ``results``.  Callers keep each worker single-flight, so
    every message on a result pipe answers the one task in flight.
    """

    def __init__(self, target, size: int, start_method: str | None = None) -> None:
        import multiprocessing as mp

        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.start_method = start_method or default_start_method()
        self._target = target
        self._ctx = mp.get_context(self.start_method)
        self._procs: list = []
        self._tasks: list = []  # the caller's send end, per worker
        self._results: list = []  # the caller's receive end, per worker
        self.recycles = 0
        self.grow(size)

    @property
    def size(self) -> int:
        return len(self._procs)

    def grow(self, size: int) -> None:
        """Start workers until the pool has ``size`` of them."""
        while len(self._procs) < size:
            proc, task_send, result_recv = self._start()
            self._procs.append(proc)
            self._tasks.append(task_send)
            self._results.append(result_recv)

    def _start(self):
        # fresh pipes per (re)start: a terminated worker may have died
        # mid-message, leaving a partial frame in its old pipes
        task_recv, task_send = self._ctx.Pipe(duplex=False)
        result_recv, result_send = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=self._target,
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
            # the worker holds its own copies now; dropping ours is what
            # makes a worker death read as end-of-file on its pipe
            task_recv.close()
            result_send.close()
        return proc, task_send, result_recv

    def submit(self, worker_id: int, task) -> None:
        """Hand one task to one worker.

        Raises :class:`OSError` when the worker is already dead; its
        sentinel then reports the death.
        """
        self._tasks[worker_id].send(task)

    def workers(self, count: int) -> tuple[list, list]:
        """The first ``count`` workers' processes and result pipes."""
        return self._procs[:count], self._results[:count]

    def waitables(self) -> tuple[list, list]:
        """What an owner waits on, indexed by worker id: the result pipes
        (readable once a result is posted) and the process sentinels (ready
        once the process has exited)."""
        return list(self._results), [proc.sentinel for proc in self._procs]

    def receive(self, worker_id: int):
        """The worker's posted message, or ``None`` when nothing is
        waiting.  Raises :class:`EOFError` or :class:`OSError` once the
        worker has closed its pipe — by dying, possibly partway through a
        message."""
        conn = self._results[worker_id]
        return conn.recv() if conn.poll() else None

    def reap(self, worker_id: int) -> int | None:
        """Exit code of a worker seen dying, waiting briefly for the exit
        to land (``None`` if the process is somehow still running)."""
        proc = self._procs[worker_id]
        proc.join(timeout=SHUTDOWN_GRACE)
        return proc.exitcode

    def recycle(self, worker_id: int) -> None:
        """Terminate and restart one worker (crash or deadline recovery)."""
        self._stop(worker_id)
        self.recycles += 1
        (self._procs[worker_id], self._tasks[worker_id],
         self._results[worker_id]) = self._start()

    def recycle_exited(self, count: int) -> None:
        """Restart every worker among the first ``count`` that has exited.

        Asks the sentinels, not ``is_alive``: a process's sentinel is
        ready once it has died, a moment before it can be reaped.
        """
        from multiprocessing.connection import wait

        ended = set(wait([proc.sentinel for proc in self._procs[:count]], timeout=0))
        for worker_id in range(count):
            if self._procs[worker_id].sentinel in ended:
                self.recycle(worker_id)

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


class WorkerGroup:
    """One process-wide :class:`WorkerPool` running ``target``.

    The pool keeps no task state between leases: a lease's owner must
    :meth:`WorkerPool.recycle` every worker it cannot vouch for (one that
    timed out, died, or posted a bad result) before the lease ends.
    """

    def __init__(self, target) -> None:
        self._target = target
        self._exit_hook = False
        self._forget()
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        """Start from no pool, without stopping any: after a fork the
        inherited pool's workers belong to the parent."""
        self._lock = threading.Lock()
        self._pool: WorkerPool | None = None
        self._last_used = 0.0

    @contextmanager
    def lease(self, size: int, start_method: str):
        """The pool, with at least ``size`` live workers started by
        ``start_method``, held by this caller until the block exits."""
        with self._lock:
            pool = self._pool
            if pool is not None and pool.start_method != start_method:
                self._shutdown_locked()
                pool = None
            if pool is None:
                pool = self._pool = WorkerPool(self._target, size, start_method)
                if not self._exit_hook:
                    # registered after multiprocessing's own exit handler,
                    # so it runs first: workers get a clean stop, not the
                    # terminate() multiprocessing sends daemonic children
                    atexit.register(self.close)
                    self._exit_hook = True
                threading.Thread(target=self._close_when_idle, args=(pool,),
                                 name="worker-group-idle", daemon=True).start()
            else:
                pool.grow(size)
                pool.recycle_exited(size)
            try:
                yield pool
            finally:
                self._last_used = time.monotonic()

    def _close_when_idle(self, pool: WorkerPool) -> None:
        left = IDLE_CLOSE_S
        while True:
            time.sleep(left)
            with self._lock:
                if self._pool is not pool:
                    return  # closed or replaced meanwhile
                left = self._last_used + IDLE_CLOSE_S - time.monotonic()
                if left <= 0:
                    self._shutdown_locked()
                    return

    def close(self) -> None:
        """Stop the pool, if any; the next lease starts a new one."""
        with self._lock:
            self._shutdown_locked()

    def _shutdown_locked(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()


__all__ = ["IDLE_CLOSE_S", "WorkerGroup", "WorkerPool", "default_start_method"]
