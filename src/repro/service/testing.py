"""In-process service harness for tests and benchmarks.

:class:`ServiceThread` runs a :class:`~repro.service.server.MinCutService`
on a private asyncio event loop in a daemon thread, so synchronous test
code (and the benchmark load generator) can speak real HTTP to a real
server without subprocess plumbing.  The context manager guarantees
teardown: drain, close, loop shutdown, thread join — a test that fails
mid-request still releases its port and its engine.
"""

from __future__ import annotations

import asyncio
import threading

from ..engine import SolverEngine
from .server import MinCutService, ServiceConfig


class ServiceThread:
    """Run engine + service on a background event loop; expose the port.

    Parameters mirror the two constructors: ``engine_kwargs`` builds the
    :class:`SolverEngine` (owned and closed by this harness), ``config``
    is the :class:`ServiceConfig`, ``tracer`` is shared by both layers so
    one trace file carries the full request→engine event stream.
    """

    def __init__(self, *, engine_kwargs: dict | None = None,
                 config: ServiceConfig | None = None, tracer=None) -> None:
        self._engine_kwargs = dict(engine_kwargs or {})
        self._config = config or ServiceConfig()
        self._tracer = tracer
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._startup_error: BaseException | None = None
        self.service: MinCutService | None = None
        self.engine: SolverEngine | None = None
        self.port: int | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServiceThread":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="service-thread")
        self._thread.start()
        if not self._ready.wait(timeout=60.0):
            raise RuntimeError("service thread failed to start in time")
        if self._startup_error is not None:
            self._thread.join(timeout=10.0)
            raise RuntimeError("service startup failed") from self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            self.engine = SolverEngine(tracer=self._tracer,
                                       **self._engine_kwargs)
            self.service = MinCutService(self.engine, self._config,
                                         tracer=self._tracer)
            await self.service.start()
            self.port = self.service.port
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self.service.close()
        self.engine.close()

    def drain(self, grace: float | None = None) -> dict:
        """Run the service's graceful drain from the calling thread."""
        fut = asyncio.run_coroutine_threadsafe(
            self.service.drain(grace), self._loop
        )
        return fut.result(timeout=120.0)

    def run(self, coro):
        """Run an arbitrary coroutine on the service loop (test hook)."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(
            timeout=120.0
        )

    def stop(self) -> None:
        """Close the service and engine, stop the loop, join the thread."""
        if self._thread is None or not self._thread.is_alive():
            return
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=120.0)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
