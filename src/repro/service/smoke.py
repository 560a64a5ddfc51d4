"""``python -m repro.service.smoke`` — end-to-end service smoke driver.

Boots a real ``python -m repro.service`` subprocess with a deliberately
tiny admission budget, then walks the full robustness surface CI cares
about in one pass:

1. ``/v1/healthz`` answers 200 while running;
2. a solve returns the exact minimum cut;
3. every other route answers: ``/v1/update`` registers a graph and
   applies an insert batch (the value is the updated graph's minimum
   cut), a two-item ``/v1/solve_many`` solves both items, an unknown path
   is a 404, a wrong method a 405, and a solver option the pooled solve
   rejects is a 400 ``invalid``;
4. a solve whose worker exits on every attempt is a 500 ``retryable``
   after the engine's one retry, the engine keeps its pool, and the next
   solve returns the exact minimum cut;
5. with the budget occupied by hanging requests, a further solve is
   *shed* — 429, ``Retry-After``, structured ``shed_reason`` body;
6. SIGTERM mid-load drains gracefully: the process exits 0 on its own,
   the inflight work having finished or deadlined out;
7. the trace file the server wrote validates against the closed event
   taxonomy and contains the service lifecycle (start → drain → stop).

Exits 0 on success, 1 with a diagnostic on any violated expectation —
one bounded, deterministic pass (the hangs carry ``timeout_ms`` so the
drain never waits on a 60 s sleep).
"""

from __future__ import annotations

import argparse
import signal
import subprocess
import sys
import threading
import time

from ..generators.gnm import connected_gnm
from .client import ServiceClient, graph_payload

STARTUP_TIMEOUT_S = 30.0
EXIT_TIMEOUT_S = 60.0


class SmokeFailure(Exception):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def _launch(trace_path: str) -> tuple[subprocess.Popen, str, int]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service",
         "--port", "0", "--pool-size", "1", "--max-inflight", "2",
         "--per-client-inflight", "2", "--drain-grace", "10",
         "--trace", trace_path, "--allow-test-faults"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    line = ""
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if line.startswith("listening on "):
            break
        if proc.poll() is not None:
            raise SmokeFailure(
                f"server exited {proc.returncode} before binding: "
                f"{line + proc.stdout.read()}"
            )
    else:
        proc.kill()
        raise SmokeFailure("server never printed its listen address")
    host, _, port = line.removeprefix("listening on ").strip().rpartition(":")
    return proc, host, int(port)


def _absent_edges(graph, count: int, weight: int) -> list[list[int]]:
    """The first ``count`` vertex pairs of ``graph`` that are not edges."""
    pairs = ([u, v, weight] for u in range(graph.n)
             for v in range(u + 1, graph.n) if not graph.has_edge(u, v))
    return [next(pairs) for _ in range(count)]


def _walk_routes(client: ServiceClient, graph) -> None:
    """Step 3 of the module docstring: the routes besides ``/v1/solve``."""
    from ..core.api import minimum_cut
    from ..dynamic import apply_updates

    status, _h, body = client.update("smoke", graph=graph)
    _expect(status == 200 and body["version"] == 0,
            f"update registration failed: {status} {body}")
    inserts = _absent_edges(graph, 2, weight=5)
    expected = minimum_cut(apply_updates(graph, inserts)[0]).value
    status, _h, body = client.update("smoke", inserts=inserts)
    _expect(status == 200 and body["version"] == 1,
            f"update batch failed: {status} {body}")
    _expect(body["value"] == expected,
            f"update returned {body['value']}, expected {expected}")
    print(f"smoke: update ok (value={body['value']}, "
          f"{body['warm']['mode']})", flush=True)

    other = connected_gnm(30, 80, rng=1, weights=(1, 9))
    status, _h, body = client.solve_many(
        [{"graph": graph_payload(g)} for g in (graph, other)]
    )
    values = [minimum_cut(g).value for g in (graph, other)]
    _expect(status == 200 and body["failed"] == 0,
            f"solve_many failed: {status} {body}")
    _expect([r["value"] for r in body["results"]] == values,
            f"solve_many returned {body['results']}, expected {values}")
    print(f"smoke: solve_many ok (values={values})", flush=True)

    status, _h, body = client.request("GET", "/v1/no-such-route")
    _expect(status == 404, f"unknown path answered {status} {body}")
    status, _h, body = client.request("GET", "/v1/solve")
    _expect(status == 405, f"wrong method answered {status} {body}")
    status, _h, body = client.solve(graph, cache=False,
                                    kwargs={"pq_kind": "bogus"})
    _expect(status == 400 and body.get("kind") == "invalid",
            f"bogus pq_kind answered {status} {body}")
    print("smoke: 404, 405 and invalid-option 400 ok", flush=True)


def _crash_once(client: ServiceClient, graph, expected: int) -> None:
    """Step 4 of the module docstring: one crash, one retry."""
    crash = {"_test_fault": {"test_fault": "exit", "exit_code": 3}}
    status, _h, body = client.solve(graph, cache=False, kwargs=crash)
    _expect(status == 500 and body.get("kind") == "retryable",
            f"crashing solve answered {status} {body}")
    engine = client.stats()["engine"]
    _expect(engine["retries"] == 1 and engine["pool_abandoned"] is False,
            f"one crash left the engine at retries={engine['retries']}, "
            f"pool_abandoned={engine['pool_abandoned']}")
    status, _h, body = client.solve(graph, cache=False)
    _expect(status == 200 and body["value"] == expected,
            f"solve after the crash: {status} {body}, expected {expected}")
    print("smoke: crash ok (500 retryable after one engine retry, "
          "pool kept)", flush=True)


def run_smoke(trace_path: str) -> None:
    graph = connected_gnm(60, 200, rng=0, weights=(1, 9))
    from ..core.api import minimum_cut

    expected = minimum_cut(graph).value

    proc, host, port = _launch(trace_path)
    try:
        client = ServiceClient(host, port)

        status, _h, body = client.healthz()
        _expect(status == 200 and body["status"] == "running",
                f"healthz while running: {status} {body}")

        status, _h, body = client.solve(graph)
        _expect(status == 200, f"solve failed: {status} {body}")
        _expect(body["value"] == expected,
                f"solve returned {body['value']}, expected {expected}")
        print(f"smoke: solve ok (value={body['value']})", flush=True)

        _walk_routes(client, graph)
        _crash_once(client, graph, expected)

        # occupy the 2-unit budget with bounded hangs, then provoke a shed
        hang = {"graph": graph_payload(graph), "cache": False,
                "timeout_ms": 8_000,
                "kwargs": {"_test_fault": {"test_fault": "hang",
                                           "sleep_seconds": 60}}}
        occupiers = [
            threading.Thread(
                target=ServiceClient(host, port).request,
                args=("POST", "/v1/solve", hang), daemon=True,
            )
            for _ in range(2)
        ]
        for t in occupiers:
            t.start()
        # wait until both hangs hold the budget, so the probe below cannot
        # race in ahead of them and queue behind the hung worker instead
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if client.stats()["admission"]["inflight"] >= 2:
                break
            time.sleep(0.02)
        else:
            raise SmokeFailure("hang requests were never admitted")
        status, headers, body = client.solve(graph, cache=False,
                                             timeout_ms=2_000)
        _expect(status == 429,
                f"overloaded service never shed: {status} {body}")
        _expect(headers.get("Retry-After") is not None,
                f"shed without Retry-After: {headers}")
        _expect(body.get("shed_reason") in ("global_inflight", "client_queue"),
                f"shed body malformed: {body}")
        _expect("queue_depth" in body, f"shed body lacks queue_depth: {body}")
        print(f"smoke: shed ok ({body['shed_reason']}, "
              f"retry-after {headers['Retry-After']})", flush=True)

        # SIGTERM while the hangs are still inflight: graceful drain
        proc.send_signal(signal.SIGTERM)
        try:
            out, _ = proc.communicate(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise SmokeFailure("server did not exit within the drain window")
        _expect(proc.returncode == 0,
                f"drain exit code {proc.returncode}; output:\n{out}")
        _expect("drain:" in out, f"no drain summary in output:\n{out}")
        print(f"smoke: drain ok (exit 0); server said: "
              f"{out.strip().splitlines()[-1]}", flush=True)
        for t in occupiers:
            t.join(timeout=10.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)

    # the trace must validate and carry the full service lifecycle
    from ..observability.schema import validate_trace_file

    summary = validate_trace_file(trace_path)
    by_kind = summary["by_kind"]
    for kind in ("service_start", "request_admitted", "request_done",
                 "request_shed", "graph_update", "warm_solve", "drain_begin",
                 "drain_end", "service_stop"):
        _expect(by_kind.get(kind, 0) >= 1, f"trace lacks {kind}: {by_kind}")
    print(f"smoke: trace ok ({summary['events']} events, "
          f"{by_kind['request_shed']} shed)", flush=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.service.smoke",
        description="end-to-end solve/route/shed/drain smoke test",
    )
    ap.add_argument("--trace", default="service-trace.jsonl",
                    help="trace sink path handed to the server")
    args = ap.parse_args(argv)
    try:
        run_smoke(args.trace)
    except SmokeFailure as exc:
        print(f"smoke FAILED: {exc}", file=sys.stderr)
        return 1
    print("smoke: all checks passed", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
