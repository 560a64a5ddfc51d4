"""Solver options are checked on entry, and NOI reports its phase times.

An invalid queue, kernel, executor or worker-count option used
to surface only on the path that consumed it: a two-vertex or disconnected
graph returned a value where a triangle raised.  Every solver now rejects
it before any work.
"""

from __future__ import annotations

import importlib
import json
import time

import pytest

from repro import minimum_cut
from repro.core.api import check_options
from repro.core.mincut import parallel_mincut
from repro.core.noi import NOI_PHASES, noi_mincut
from repro.generators import connected_gnm, rhg
from repro.graph import from_edges
from repro.viecut import viecut
from repro.viecut.viecut import SMALL_THRESHOLD

SMALL_GRAPHS = {
    "two-vertices": from_edges(2, [0], [1], [5]),
    "disconnected": from_edges(4, [0, 2], [1, 3]),
    "triangle": from_edges(3, [0, 1, 2], [1, 2, 0]),
}

#: karger-nlt's retired options: it takes only rng, compute_side and tracer
RETIRED_KARGER_NLT = {"executor": "serial", "workers": 2, "timeout": 30.0,
                      "on_worker_failure": "fail", "trees_per_round": 8,
                      "max_rounds": 0}


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
class TestOptionsCheckedOnEntry:
    @pytest.mark.parametrize("algorithm", ["noi", "noi-hnss", "noi-viecut", "parcut", "matula"])
    def test_unknown_queue(self, name, algorithm):
        with pytest.raises(ValueError, match="unknown priority queue kind 'bogus'"):
            minimum_cut(SMALL_GRAPHS[name], algorithm=algorithm, pq_kind="bogus")

    @pytest.mark.parametrize("algorithm", ["noi", "noi-hnss", "noi-viecut", "parcut"])
    def test_unknown_kernel(self, name, algorithm):
        # "compiled" named a retired tier; it fails as any unknown kernel does
        with pytest.raises(ValueError, match="unknown kernel 'compiled'"):
            minimum_cut(SMALL_GRAPHS[name], algorithm=algorithm, kernel="compiled")

    @pytest.mark.parametrize("algorithm", ["noi", "noi-viecut"])
    @pytest.mark.parametrize("pq_kind", ["bqueue", "bstack"])
    def test_unbounded_bucket_queue(self, name, algorithm, pq_kind):
        with pytest.raises(ValueError, match="requires the heap queue"):
            minimum_cut(SMALL_GRAPHS[name], algorithm=algorithm, bounded=False,
                        pq_kind=pq_kind)

    @pytest.mark.parametrize("option, match", [
        ({"executor": "bogus"}, "unknown executor 'bogus'"),
        ({"workers": 0}, "workers must be >= 1"),
        ({"executor": "threads"}, "unknown executor 'threads'"),
    ], ids=["executor", "workers", "threads"])
    def test_bad_executor_option(self, name, option, match):
        for algorithm in ("parcut", "matula"):
            with pytest.raises(ValueError, match=match):
                minimum_cut(SMALL_GRAPHS[name], algorithm=algorithm, **option)

    def test_retired_viecut_keywords(self, name):
        # VieCut takes only rng and tracer; its retired options are unknown
        retired = {"lp_method": "sync", "kernel": "scalar", "lp_iterations": 2,
                   "max_rounds": 32, "small_threshold": 64, "pr34_max_arcs": 1 << 16}
        for key, value in retired.items():
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{key}'"):
                minimum_cut(SMALL_GRAPHS[name], algorithm="viecut", **{key: value})

    def test_retired_karger_nlt_keywords(self, name):
        for key, value in RETIRED_KARGER_NLT.items():
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{key}'"):
                minimum_cut(SMALL_GRAPHS[name], algorithm="karger-nlt", **{key: value})

    def test_valid_options_still_solve(self, name):
        g = SMALL_GRAPHS[name]
        expected = minimum_cut(g, algorithm="stoer-wagner").value
        assert noi_mincut(g, bounded=False, pq_kind="heap").value == expected
        assert parallel_mincut(g, pq_kind="bstack", rng=0).value == expected
        assert viecut(g, rng=0).value >= expected


def test_retired_karger_nlt_keywords_on_the_cli(tmp_path, capsys):
    from repro.cli import main
    from repro.graph.io import write_metis

    path = tmp_path / "g.metis"
    write_metis(connected_gnm(12, 30, rng=0), path)
    for flags in (["--executor", "serial"], ["--workers", "2"], ["--timeout", "30"],
                  ["--on-worker-failure", "fail"]):
        assert main(["--algorithm", "karger-nlt", *flags, str(path)]) == 2, flags
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(
        json.dumps({"path": str(path), key: value}) + "\n"
        for key, value in RETIRED_KARGER_NLT.items()))
    assert main(["--algorithm", "karger-nlt", "--batch", str(manifest),
                 "--pool-size", "0"]) == 2
    lines = capsys.readouterr().out.splitlines()
    for i, key in enumerate(RETIRED_KARGER_NLT):
        line = next(line for line in lines if line.startswith(f"batch[{i}] "))
        assert "exit=2" in line and f"unexpected keyword argument '{key}'" in line


def test_retired_karger_nlt_keywords_on_the_service():
    from repro.service import ServiceClient, ServiceConfig
    from repro.service.testing import ServiceThread

    with ServiceThread(engine_kwargs={"pool_size": 0}, config=ServiceConfig()) as st:
        with ServiceClient("127.0.0.1", st.port) as client:
            for key, value in RETIRED_KARGER_NLT.items():
                status, _h, body = client.solve(
                    SMALL_GRAPHS["triangle"], algorithm="karger-nlt",
                    kwargs={"rng": 0, key: value})
                assert status == 400, (key, body)
                assert f"unexpected keyword argument '{key}'" in body["error"]


@pytest.mark.parametrize("algorithm, key", [
    ("noi", "_viecut_seed"), ("noi-viecut", "_viecut_seed"), ("parcut", "_seed_first"),
])
def test_private_keywords_are_not_options(algorithm, key):
    # a solver parameter with a leading underscore is private to the
    # library's own callers, so SolverEngine.update's check refuses it
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{key}'"):
        check_options(algorithm, {key: True})


def test_noi_viecut_fails_before_viecut(monkeypatch):
    # the package re-exports the function under the module's name
    vc_mod = importlib.import_module("repro.viecut.viecut")

    def boom(*args, **kwargs):
        raise AssertionError("VieCut ran before the options were checked")

    monkeypatch.setattr(vc_mod, "viecut", boom)
    g = connected_gnm(80, 240, rng=3)
    with pytest.raises(ValueError, match="unknown priority queue kind"):
        minimum_cut(g, algorithm="noi-viecut", pq_kind="bogus")
    with pytest.raises(ValueError, match="requires the heap queue"):
        minimum_cut(g, algorithm="noi-viecut", bounded=False, pq_kind="bqueue")


def test_parcut_fails_before_viecut(monkeypatch):
    vc_mod = importlib.import_module("repro.viecut.viecut")

    def boom(*args, **kwargs):
        raise AssertionError("VieCut ran before the options were checked")

    monkeypatch.setattr(vc_mod, "viecut", boom)
    g = connected_gnm(80, 240, rng=3)
    with pytest.raises(ValueError, match="unknown priority queue kind"):
        parallel_mincut(g, pq_kind="bogus")
    with pytest.raises(ValueError, match="unknown executor"):
        parallel_mincut(g, executor="bogus")
    with pytest.raises(ValueError, match="workers must be >= 1"):
        parallel_mincut(g, workers=0, executor="processes")


# ---------------------------------------------------------------------------
# phase_seconds
# ---------------------------------------------------------------------------


def _timed(algorithm, graph, **kw):
    t0 = time.perf_counter()
    res = minimum_cut(graph, algorithm=algorithm, rng=0, **kw)
    return res, time.perf_counter() - t0


def _return_paths():
    multi = connected_gnm(300, 1200, rng=5, weights=(1, 6))
    return {
        "multi-round": multi,
        "disconnected": SMALL_GRAPHS["disconnected"],
        "two-vertices": SMALL_GRAPHS["two-vertices"],
        "triangle": SMALL_GRAPHS["triangle"],
    }


@pytest.mark.parametrize("path", sorted(_return_paths()))
@pytest.mark.parametrize("algorithm, phases", [
    ("noi", set(NOI_PHASES)),
    ("noi-hnss", set(NOI_PHASES)),
    ("noi-viecut", {"viecut", *NOI_PHASES}),
])
def test_phase_keys_on_every_path(path, algorithm, phases):
    g = _return_paths()[path]
    res, wall = _timed(algorithm, g)
    assert set(res.stats["phase_seconds"]) == phases
    assert all(isinstance(v, float) and v >= 0.0 for v in res.stats["phase_seconds"].values())
    assert sum(res.stats["phase_seconds"].values()) <= wall
    if path == "disconnected":
        assert res.value == 0
        assert res.stats["phase_seconds"]["capforest"] == 0.0
        assert res.stats["phase_seconds"]["contract"] == 0.0


def test_phases_that_ran_are_timed():
    ran = []
    # the first pass leaves 18 vertices of the gnm graph and 182 of the rhg
    for g in (connected_gnm(300, 1200, rng=5, weights=(1, 6)), rhg(256, 32, rng=1)):
        res, wall = _timed("noi-viecut", g)
        phases = res.stats["phase_seconds"]
        assert res.stats["rounds"] > 0
        assert phases["capforest"] > 0.0 and phases["contract"] > 0.0
        # VieCut seeds the graph the first pass left, if it kept > 64 vertices
        left = round(res.stats["contraction_ratios"][0] * g.n)
        ran.append(phases["viecut"] > 0.0)
        assert ran[-1] == (left > SMALL_THRESHOLD)
        assert sum(phases.values()) <= wall
        plain = noi_mincut(g, rng=0)
        assert plain.stats["phase_seconds"]["capforest"] > 0.0
    assert ran == [False, True]
