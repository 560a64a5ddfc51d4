"""Tests for MinCutResult and the public minimum_cut facade."""

import numpy as np
import pytest

from repro import minimum_cut
from repro.core import ALGORITHMS, EXACT_ALGORITHMS, MinCutResult
from repro.core.capforest import MAX_BUCKET_BOUND, MIN_VECTOR_N
from repro.generators import connected_gnm
from repro.graph import from_edges
from repro.viecut.viecut import SMALL_THRESHOLD

from .conftest import oracle_mincut

#: inputs on either side of every switch of the default solve: the VieCut
#: seed (run after the first pass only if it left more than SMALL_THRESHOLD
#: vertices), the vector kernel's small-scan crossover
#: (MIN_VECTOR_N), a λ̂ above MAX_BUCKET_BOUND (the BQueue request runs on
#: the heap), and the disconnected and two-vertex early exits
DEFAULT_PATH_GRAPHS = {
    "n63": connected_gnm(63, 190, rng=1, weights=(1, 5)),
    "n64": connected_gnm(64, 192, rng=2, weights=(1, 5)),
    "n65": connected_gnm(65, 195, rng=3, weights=(1, 5)),
    "below-crossover": connected_gnm(MIN_VECTOR_N - 1, 4 * MIN_VECTOR_N, rng=4,
                                     weights=(1, 5)),
    "at-crossover": connected_gnm(MIN_VECTOR_N, 4 * MIN_VECTOR_N, rng=5, weights=(1, 5)),
    "above-bucket-bound": connected_gnm(
        80, 240, rng=6, weights=(MAX_BUCKET_BOUND + 1, 2 * MAX_BUCKET_BOUND)
    ),
    "disconnected": from_edges(6, [0, 1, 3, 4], [1, 2, 4, 5]),
    "two-vertices": from_edges(2, [0], [1], [5]),
}


class TestMinCutResult:
    def test_partition(self, dumbbell):
        side = np.zeros(8, dtype=bool)
        side[:4] = True
        res = MinCutResult(1, side, 8, "test")
        a, b = res.partition()
        assert a == [0, 1, 2, 3] and b == [4, 5, 6, 7]

    def test_verify_true(self, dumbbell):
        side = np.zeros(8, dtype=bool)
        side[:4] = True
        assert MinCutResult(1, side, 8, "t").verify(dumbbell)

    def test_verify_wrong_value(self, dumbbell):
        side = np.zeros(8, dtype=bool)
        side[:4] = True
        assert not MinCutResult(2, side, 8, "t").verify(dumbbell)

    def test_verify_empty_side_invalid(self, dumbbell):
        assert not MinCutResult(0, np.zeros(8, dtype=bool), 8, "t").verify(dumbbell)
        assert not MinCutResult(0, np.ones(8, dtype=bool), 8, "t").verify(dumbbell)

    def test_no_side_raises(self, dumbbell):
        res = MinCutResult(1, None, 8, "t")
        with pytest.raises(ValueError):
            res.partition()
        with pytest.raises(ValueError):
            res.verify(dumbbell)

    def test_repr(self):
        r = repr(MinCutResult(3, None, 5, "x"))
        assert "value=3" in r and "x" in r


class TestFacade:
    def test_default_algorithm(self, dumbbell):
        res = minimum_cut(dumbbell, rng=0)
        assert res.value == 1
        assert res.algorithm == "noi-lambda-bqueue-viecut"

    @pytest.mark.parametrize("name", sorted(DEFAULT_PATH_GRAPHS))
    def test_default_solve_matches_oracle(self, name):
        g = DEFAULT_PATH_GRAPHS[name]
        res = minimum_cut(g, rng=0)
        assert res.value == (0 if name == "disconnected" else oracle_mincut(g))
        assert res.verify(g)
        assert res.algorithm == "noi-lambda-bqueue-viecut"
        assert res.stats["kernel_resolved"] == "vector"
        ratios = res.stats["contraction_ratios"]
        ran = bool(ratios) and round(ratios[0] * g.n) > SMALL_THRESHOLD
        assert (res.stats["viecut_value"] is not None) == ran
        if not ran:
            assert res.stats["phase_seconds"]["viecut"] == 0.0

    def test_unknown_algorithm(self, dumbbell):
        with pytest.raises(ValueError, match="unknown algorithm"):
            minimum_cut(dumbbell, algorithm="quantum")

    @pytest.mark.parametrize("algo", sorted(ALGORITHMS))
    def test_every_algorithm_runs(self, dumbbell, algo):
        res = minimum_cut(dumbbell, algorithm=algo, rng=0)
        assert res.value >= 1
        if algo in EXACT_ALGORITHMS:
            assert res.value == 1

    @pytest.mark.parametrize("algo", sorted(EXACT_ALGORITHMS))
    def test_exact_algorithms_agree_random(self, algo):
        rng = np.random.default_rng(5)
        g = connected_gnm(20, 45, rng=rng, weights=(1, 7))
        expected = oracle_mincut(g)
        assert minimum_cut(g, algorithm=algo, rng=1).value == expected

    def test_kwargs_forwarded(self, dumbbell):
        res = minimum_cut(dumbbell, algorithm="parcut", workers=2, pq_kind="bstack", rng=0)
        assert res.value == 1
        assert res.algorithm == "parcut-bstack"

    def test_lazy_top_level_import(self):
        import repro

        assert callable(repro.minimum_cut)
        with pytest.raises(AttributeError):
            repro.does_not_exist  # noqa: B018

    def test_quickstart_docstring_example(self):
        from repro import GraphBuilder

        g = (
            GraphBuilder(4)
            .add_edge(0, 1, 3)
            .add_edge(1, 2, 1)
            .add_edge(2, 3, 3)
            .add_edge(3, 0, 1)
            .build()
        )
        assert minimum_cut(g).value == 2
