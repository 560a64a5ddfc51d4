"""The service under test as a subprocess, and the clients that drive it.

:class:`ServiceProcess` starts ``python -m repro.service --port 0`` with its
default configuration (or, for the traced run, the same entry point behind
``traced_service.py``), reads the bound port from the first line it prints,
and stops it with SIGTERM so the service drains and joins its pool.

:class:`Connection` is one keep-alive HTTP/1.1 connection that posts
pre-serialised bodies, so the client's own JSON encoding is never timed.
:func:`open_loop` replays a fixed-rate schedule over at most two such
connections and times each request from the moment it was due.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
HEADERS = {"Content-Type": "application/json"}


class ServiceProcess:
    """``python -m repro.service`` in its own session, started at construction."""

    def __init__(self, root: Path, *, traced_dir: Path | None = None) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        if traced_dir is None:
            cmd = [sys.executable, "-m", "repro.service", "--port", "0"]
        else:
            cmd = [
                sys.executable, str(HERE / "traced_service.py"),
                "--spans-out", str(traced_dir / "spans.json"),
                "--port", "0", "--trace", str(traced_dir / "events.jsonl"),
            ]
        self.traced_dir = traced_dir
        self._snapshots = 0
        self._drain: threading.Thread | None = None
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("listening on "):
            self.stop()
            raise RuntimeError(f"service failed to start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        self._drain = threading.Thread(target=self.proc.stdout.read, daemon=True)
        self._drain.start()

    def connect(self) -> "Connection":
        return Connection(self.port)

    def stats(self) -> dict:
        with self.connect() as conn:
            return conn.get("/v1/stats")

    def spans(self) -> dict:
        """Current span totals of a traced service (see traced_service.py)."""
        self._snapshots += 1
        path = self.traced_dir / f"spans.json.{self._snapshots}"
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not path.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("traced service wrote no span snapshot")
            time.sleep(0.01)
        return json.loads(path.read_text())

    def events(self) -> list[dict]:
        """The service's own ``--trace`` events (complete after :meth:`stop`)."""
        lines = (self.traced_dir / "events.jsonl").read_text().splitlines()
        return [json.loads(line) for line in lines if line.strip()]

    def stop(self) -> None:
        """SIGTERM (the service drains and joins its pool), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait(timeout=30)
        if self._drain is not None:
            self._drain.join(timeout=10)
        self.proc.stdout.close()


def tree_hwm_mb(root_pid: int) -> float:
    """Summed peak RSS (VmHWM) of a process and all its descendants, in MB."""
    return sum(_vm_hwm_kb(pid) for pid in process_tree(root_pid)) / 1024.0


def process_tree(root_pid: int) -> list[int]:
    """``root_pid`` followed by every live process under it."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [root_pid]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def _vm_hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class Connection:
    """One keep-alive connection posting pre-serialised JSON bodies."""

    def __init__(self, port: int) -> None:
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def post(self, path: str, body: bytes) -> tuple[int, dict]:
        self._conn.request("POST", path, body=body, headers=HEADERS)
        resp = self._conn.getresponse()
        return resp.status, json.loads(resp.read())

    def get(self, path: str) -> dict:
        self._conn.request("GET", path)
        return json.loads(self._conn.getresponse().read())

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def closed_loop(port: int, bodies: list[bytes], connections: int) -> tuple[float, list]:
    """Send every body once, ``connections`` requests outstanding at a time.

    Returns the wall time and one ``(index, status, reply, latency_s)``
    record per request.
    """
    records: list = []
    lock = threading.Lock()
    cursor = iter(range(len(bodies)))

    def client() -> None:
        with Connection(port) as conn:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                t0 = time.perf_counter()
                status, reply = conn.post("/v1/solve", bodies[i])
                records.append((i, status, reply, time.perf_counter() - t0))

    t0 = time.perf_counter()
    _run_threads(client, connections)
    return time.perf_counter() - t0, records


def open_loop(port: int, bodies: list[bytes], rate: float, connections: int) -> list:
    """Send body ``i`` when it falls due at ``i / rate`` seconds.

    Each connection takes the next due request as soon as it is free, so a
    request waits on the client side while both connections are busy.
    Returns one ``(status, reply, latency_s, late_s)`` record per request,
    ``None`` where the request was never answered: latency counts from the
    due time, and ``late_s`` is how far behind the schedule it was sent.
    """
    n = len(bodies)
    records: list = [None] * n
    lock = threading.Lock()
    cursor = iter(range(n))
    start = time.perf_counter() + 0.05

    def client() -> None:
        with Connection(port) as conn:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                due = start + i / rate
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                sent = time.perf_counter()
                status, reply = conn.post("/v1/solve", bodies[i])
                records[i] = (status, reply, time.perf_counter() - due, sent - due)

    _run_threads(client, connections)
    return records


def _run_threads(target, count: int) -> None:
    threads = [threading.Thread(target=target) for _ in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
