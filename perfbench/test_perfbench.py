"""Tiny-size runs of every workload, end-to-end and traced.

Run with ``python -m pytest perfbench`` from the root of the repository.
Each run must answer correctly and emit every metric ``BENCHMARK.json``
names, with its unit.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, seed: int = 3) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, metric["name"]


#: runs a command as the child of a subreaper, then prints how many of the
#: command's descendants outlived it (re-parented here, zombies included)
LEFTOVERS = """
import ctypes, os, subprocess, sys
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)
subprocess.run(sys.argv[1:], capture_output=True, check=True)
me, left = str(os.getpid()), 0
for entry in filter(str.isdigit, os.listdir("/proc")):
    try:
        stat = open(f"/proc/{entry}/stat").read()
    except OSError:
        continue
    left += stat.rsplit(")", 1)[1].split()[1] == me
print(left)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc and prctl")
@pytest.mark.parametrize("workload", ["suite-solve", "service-mix"])
def test_no_process_outlives_a_run(workload):
    cmd = [sys.executable, "-c", LEFTOVERS, sys.executable, str(HERE / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0",
           "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "0"


def test_same_seed_same_inputs():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import inputs

    a = inputs.suite(5, 0.08)
    b = inputs.suite(5, 0.08)
    c = inputs.suite(6, 0.08)
    assert [g for _, g in a] == [g for _, g in b]
    assert [g for _, g in a] != [g for _, g in c]


def test_references_match_an_exact_solver():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import inputs
    from repro import minimum_cut

    graphs = [inputs.gnm_graph(1, i, 24, 40) for i in range(6)]
    graphs += [g for _, g in inputs.suite(1, 0.08)]
    expected = [minimum_cut(g, algorithm="stoer-wagner").value for g in graphs]
    assert inputs.references(graphs, workers=1) == expected


def test_missing_sources_fail_fast(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite-solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
