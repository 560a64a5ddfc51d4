"""Registry-consistency tests: the algorithm lists can never silently skew.

A new solver registration touches three lists (``ALGORITHMS``,
``EXACT_ALGORITHMS``, ``TRACEABLE_ALGORITHMS``); these tests make a missed
list a test failure instead of a latent gap: every claimed-exact algorithm
is checked against brute force on the shared fixture set, the subset
relations between the lists are asserted, and the ``UnknownAlgorithmError``
contract is pinned on every surface (facade, engine, CLI batch, service →
HTTP 400) so the error type cannot drift apart again.
"""

from __future__ import annotations

import json

import pytest

from repro.baselines.brute_force import brute_force_mincut
from repro.core.api import (
    ALGORITHMS,
    EXACT_ALGORITHMS,
    TRACEABLE_ALGORITHMS,
    UnknownAlgorithmError,
    minimum_cut,
)
from repro.engine import SolverEngine

from .conftest import CANONICAL_CUTS

#: per-algorithm kwargs needed for a deterministic small-fixture solve
_SOLVE_KWARGS = {
    "parcut": {"workers": 2, "executor": "processes"},
    "karger-nlt": {"rng": 0},
}


class TestRegistryConsistency:
    def test_exact_algorithms_are_registered(self):
        assert set(EXACT_ALGORITHMS) <= set(ALGORITHMS)

    def test_traceable_algorithms_are_registered(self):
        assert set(TRACEABLE_ALGORITHMS) <= set(ALGORITHMS)

    @pytest.mark.parametrize("algorithm", sorted(EXACT_ALGORITHMS))
    @pytest.mark.parametrize("name", sorted(CANONICAL_CUTS))
    def test_every_exact_algorithm_matches_brute_force(self, algorithm, name,
                                                       request):
        g = request.getfixturevalue(name)
        expected = brute_force_mincut(g, compute_side=False).value
        assert expected == CANONICAL_CUTS[name]
        res = minimum_cut(g, algorithm, **_SOLVE_KWARGS.get(algorithm, {}))
        assert res.value == expected, (algorithm, name)
        if res.side is not None:
            assert g.cut_value(res.side) == expected


class TestUnknownAlgorithmError:
    def test_facade_raises_one_type(self, two_vertices):
        with pytest.raises(UnknownAlgorithmError, match="unknown algorithm"):
            minimum_cut(two_vertices, "nope")
        # the type is a ValueError so legacy callers keep working
        with pytest.raises(ValueError):
            minimum_cut(two_vertices, "nope")

    def test_engine_surfaces_raise_same_type(self, two_vertices):
        with pytest.raises(UnknownAlgorithmError):
            SolverEngine(default_algorithm="nope")
        with SolverEngine(pool_size=0) as eng:
            with pytest.raises(UnknownAlgorithmError):
                eng.submit(two_vertices, algorithm="nope")

    def test_package_root_exports_the_type(self):
        import repro

        assert repro.UnknownAlgorithmError is UnknownAlgorithmError

    def test_cli_batch_maps_to_invalid_input_exit(self, tmp_path, capsys):
        from repro.cli import EXIT_INVALID_INPUT, main
        from repro.generators.gnm import connected_gnm
        from repro.graph.io import write_metis

        write_metis(connected_gnm(8, 16, rng=0), tmp_path / "g.metis")
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps(
            {"path": str(tmp_path / "g.metis"), "algorithm": "nope"}) + "\n")
        rc = main(["--batch", str(manifest), "--pool-size", "0"])
        assert rc == EXIT_INVALID_INPUT
        assert "unknown algorithm" in capsys.readouterr().out

    def test_service_maps_to_http_400(self, two_vertices):
        from repro.service import ServiceClient, ServiceConfig, classify_failure
        from repro.service.testing import ServiceThread

        kind, status = classify_failure(UnknownAlgorithmError("nope"))
        assert (kind, status) == ("invalid", 400)

        with ServiceThread(engine_kwargs={"pool_size": 0},
                           config=ServiceConfig()) as st:
            with ServiceClient("127.0.0.1", st.port) as client:
                status, _h, body = client.solve(two_vertices,
                                                algorithm="nope")
                assert status == 400
                assert "unknown algorithm" in body["error"]
