"""The process-wide round workers of the ``processes`` executor.

Every parallel CAPFOREST pass on the ``processes`` executor runs on one
long-lived group of worker processes (``_ROUND_WORKERS``): it starts on the
first pass, grows on demand, is replaced for another start method, restarts
every worker a pass could not vouch for, and is closed at interpreter exit.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import threading
import time
from multiprocessing.connection import wait
from multiprocessing.process import BaseProcess

import pytest

from repro.core.mincut import parallel_mincut
from repro.core.noi import noi_mincut
from repro.core.parallel_capforest import _ROUND_WORKERS, parallel_capforest
from repro.generators import connected_gnm
from repro.runtime import FaultPlan, WorkerFault


def _graphs(count: int, seed: int):
    return [connected_gnm(48 + 8 * k, 150 + 30 * k, rng=seed + k, weights=(1, 9))
            for k in range(count)]


def _pass(g, workers: int, rng: int, **kwargs):
    lam = g.min_weighted_degree()[1]
    return parallel_capforest(g, lam, workers=workers, executor="processes", rng=rng,
                              timeout=120.0, **kwargs)


def _worker_pids(count: int) -> list[int]:
    procs, _ = _ROUND_WORKERS._pool.workers(count)
    return [proc.pid for proc in procs]


@pytest.fixture
def starts(monkeypatch):
    """Every process started from now on, by any multiprocessing context."""
    _ROUND_WORKERS.close()  # count from an empty group
    started: list = []
    real_start = BaseProcess.start

    def counting_start(self):
        started.append(self)
        real_start(self)

    monkeypatch.setattr(BaseProcess, "start", counting_start)
    return started


def test_twenty_passes_start_p_workers_in_total(starts):
    graphs = _graphs(4, seed=20)
    for i in range(20):
        res = _pass(graphs[i % len(graphs)], workers=3, rng=i)
        assert len(res.workers) == 3 and not res.events
    assert len(starts) == 3


def test_group_grows_only_when_a_pass_needs_more_workers(starts):
    g = _graphs(1, seed=30)[0]
    for workers, total in ((2, 2), (4, 4), (3, 4), (2, 4)):
        res = _pass(g, workers=workers, rng=workers)
        assert len(res.workers) == workers
        assert len(starts) == total


@pytest.mark.skipif("spawn" not in mp.get_all_start_methods(), reason="needs spawn")
def test_other_start_method_replaces_the_group():
    g = _graphs(1, seed=40)[0]
    other = "spawn" if _pass(g, workers=2, rng=0).start_method != "spawn" else "fork"
    if other not in mp.get_all_start_methods():
        pytest.skip(f"needs {other}")
    before = _worker_pids(2)
    res = _pass(g, workers=2, rng=1, start_method=other)
    assert res.start_method == other and len(res.workers) == 2
    assert _ROUND_WORKERS._pool.start_method == other
    assert not set(before) & set(_worker_pids(2))


def test_crashed_and_hung_workers_are_replaced():
    g = _graphs(1, seed=50)[0]
    _pass(g, workers=3, rng=0)
    before = _worker_pids(3)
    plan = FaultPlan(
        faults={0: WorkerFault("crash", after_pops=1), 1: WorkerFault("hang", after_pops=1)},
        executors=("processes",),
    )
    lam = g.min_weighted_degree()[1]
    res = parallel_capforest(g, lam, workers=3, executor="processes", rng=1,
                             timeout=2.0, fault_plan=plan)
    assert {ev["worker_id"]: ev["kind"] for ev in res.events} == {0: "crashed", 1: "timeout"}
    assert [rep.worker_id for rep in res.workers] == [2]
    after = _worker_pids(3)
    assert after[0] != before[0] and after[1] != before[1]
    assert after[2] == before[2]  # the clean worker stays
    res = _pass(g, workers=3, rng=2)
    assert len(res.workers) == 3 and not res.events


def test_worker_killed_between_passes_is_replaced_before_the_next():
    g = _graphs(1, seed=60)[0]
    _pass(g, workers=2, rng=0)
    procs, _ = _ROUND_WORKERS._pool.workers(2)
    victim = procs[1].pid
    os.kill(victim, signal.SIGKILL)
    assert wait([procs[1].sentinel], timeout=30.0)  # the kill has landed
    res = _pass(g, workers=2, rng=1)
    assert len(res.workers) == 2 and not res.events
    assert victim not in _worker_pids(2)


def test_threads_take_turns_on_the_group():
    graphs = _graphs(4, seed=70)
    expected = [noi_mincut(g, rng=0).value for g in graphs]
    got: dict[int, list] = {k: [] for k in range(len(graphs))}
    errors: list = []

    def solve(k: int) -> None:
        try:
            for r in range(5):
                res = parallel_mincut(graphs[k], workers=2, executor="processes", rng=r,
                                      timeout=120.0)
                got[k].append((res.value, res.stats["final_executor"]))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=solve, args=(k,)) for k in range(len(graphs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=240.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "solves did not finish in time"
    assert not errors
    for k, value in enumerate(expected):
        assert got[k] == [(value, "processes")] * 5


#: runs a command as the child of a subreaper, then prints how many of the
#: command's descendants it inherited (each one outlived the command)
LEFTOVERS = """
import ctypes, os, subprocess, sys
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)
subprocess.run(sys.argv[1:], capture_output=True, check=True, timeout=60)
me, left = str(os.getpid()), 0
for entry in filter(str.isdigit, os.listdir("/proc")):
    try:
        stat = open(f"/proc/{entry}/stat").read()
    except OSError:
        continue
    left += stat.rsplit(")", 1)[1].split()[1] == me
print(left)
"""

#: processes-executor solves, then a plain interpreter exit.  The
#: multiprocessing resource tracker outlives its parent by a moment unless
#: stopped; stopping it from the first exit handler registered (so it runs
#: last) waits for every process holding its pipe — here the third worker,
#: started once the tracker was running — so the group must be closed by
#: then, not merely terminated by multiprocessing's own exit handler.
SOLVE = """
import atexit
from multiprocessing import resource_tracker
atexit.register(resource_tracker._resource_tracker._stop)
from repro.core.mincut import parallel_mincut
from repro.generators import connected_gnm
g = connected_gnm(80, 300, rng=1, weights=(1, 9))
for workers in (2, 3):
    print(parallel_mincut(g, workers=workers, executor="processes", rng=0).value)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc and prctl")
def test_interpreter_exit_leaves_no_worker_behind():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", LEFTOVERS, sys.executable, "-c", SOLVE],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "0"


#: solves with two round workers, prints their pids, then waits to be killed
SOLVE_AND_WAIT = """
import time
from repro.core.mincut import parallel_mincut
from repro.core.parallel_capforest import _ROUND_WORKERS
from repro.generators import connected_gnm
g = connected_gnm(80, 300, rng=1, weights=(1, 9))
parallel_mincut(g, workers=2, executor="processes", rng=0)
procs, _ = _ROUND_WORKERS._pool.workers(2)
print(*(proc.pid for proc in procs), flush=True)
time.sleep(120)
"""


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc")
def test_workers_exit_when_the_coordinator_is_killed():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    coordinator = subprocess.Popen([sys.executable, "-c", SOLVE_AND_WAIT],
                                   stdout=subprocess.PIPE, text=True, env=env)
    try:
        pids = [int(pid) for pid in coordinator.stdout.readline().split()]
    finally:
        coordinator.kill()  # no exit handler runs
        coordinator.wait(timeout=30)
        coordinator.stdout.close()
    assert len(pids) == 2
    deadline = time.monotonic() + 30.0
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, pids))
