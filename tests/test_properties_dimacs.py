"""Tests for graph profiling utilities and DIMACS IO."""

import math

import numpy as np
import pytest

from repro.generators import chung_lu, gnm, rhg
from repro.graph import (
    conductance_of_cut,
    degree_histogram,
    diameter_lower_bound,
    from_edges,
    powerlaw_exponent_estimate,
    profile,
    read_dimacs,
    write_dimacs,
)


class TestProfile:
    def test_clique(self, clique6):
        p = profile(clique6)
        assert p.n == 6 and p.m == 15
        assert p.min_degree == p.max_degree == 5
        assert p.avg_degree == 5.0
        assert p.diameter_lower_bound == 1
        assert p.degree_skew == 1.0

    def test_path_diameter(self, path4):
        assert diameter_lower_bound(path4) == 3

    def test_profile_empty_rejected(self):
        with pytest.raises(ValueError):
            profile(from_edges(0, [], []))

    def test_as_dict_keys(self, dumbbell):
        d = profile(dumbbell).as_dict()
        assert {"n", "m", "min_degree", "degree_skew"} <= set(d)

    def test_degree_histogram(self, star):
        hist = degree_histogram(star)
        assert hist[1] == 5  # five leaves
        assert hist[5] == 1  # the hub

    def test_powerlaw_estimate_on_powerlaw_graph(self):
        g = chung_lu(6000, 12, gamma=2.5, rng=0)
        est = powerlaw_exponent_estimate(g, d_min=3)
        assert 1.8 <= est <= 3.5, f"estimate {est} implausible for gamma=2.5"

    def test_powerlaw_estimate_recovers_generator_exponents(self):
        """With d_min in the genuine tail (above the mean degree), the MLE
        recovers the generators' target exponents: RHG α=2 ⇒ γ = 5 (the
        paper's setting), Chung–Lu γ = 2.2."""
        g_rhg = rhg(4096, 16, alpha=2.0, rng=1)
        g_cl = chung_lu(4096, 16, gamma=2.2, rng=1)
        est_rhg = powerlaw_exponent_estimate(g_rhg, 32)
        est_cl = powerlaw_exponent_estimate(g_cl, 32)
        assert 4.0 <= est_rhg <= 6.5, f"RHG tail exponent {est_rhg} != ~5"
        assert 2.0 <= est_cl <= 3.0, f"Chung-Lu tail exponent {est_cl} != ~2.2"

    def test_powerlaw_estimate_tiny_graph_nan(self, triangle):
        assert math.isnan(powerlaw_exponent_estimate(triangle))

    def test_conductance(self, dumbbell):
        side = np.zeros(8, dtype=bool)
        side[:4] = True
        # bridge weight 1, side volume 2*6+1 = 13
        assert conductance_of_cut(dumbbell, side) == 1 / 13

    def test_conductance_invalid_side(self, dumbbell):
        with pytest.raises(ValueError):
            conductance_of_cut(dumbbell, np.zeros(8, dtype=bool))
        with pytest.raises(ValueError):
            conductance_of_cut(dumbbell, np.ones(3, dtype=bool))


class TestDimacs:
    def test_roundtrip(self, tmp_path, weighted_cycle):
        path = tmp_path / "g.dimacs"
        write_dimacs(weighted_cycle, path)
        assert read_dimacs(path) == weighted_cycle

    def test_roundtrip_random(self, tmp_path):
        g = gnm(30, 120, rng=2, weights=(1, 9))
        path = tmp_path / "r.dimacs"
        write_dimacs(g, path)
        assert read_dimacs(path) == g

    def test_reads_e_designator_and_comments(self, tmp_path):
        path = tmp_path / "e.dimacs"
        path.write_text("c hello\np edge 3 2\ne 1 2\ne 2 3 4\n")
        g = read_dimacs(path)
        assert g.m == 2
        assert g.edge_weight(1, 2) == 4

    def test_symmetric_duplicates_merge(self, tmp_path):
        path = tmp_path / "d.dimacs"
        path.write_text("p max 2 2\na 1 2 5\na 2 1 5\n")
        g = read_dimacs(path)
        assert g.m == 1 and g.edge_weight(0, 1) == 5

    def test_self_loops_dropped(self, tmp_path):
        path = tmp_path / "s.dimacs"
        path.write_text("p cut 2 2\na 1 1 3\na 1 2 1\n")
        g = read_dimacs(path)
        assert g.m == 1

    def test_errors(self, tmp_path):
        bad = tmp_path / "bad.dimacs"
        bad.write_text("a 1 2 3\n")
        with pytest.raises(ValueError, match="edge before problem"):
            read_dimacs(bad)
        bad.write_text("p cut 2 1\nz 1 2\n")
        with pytest.raises(ValueError, match="unknown designator"):
            read_dimacs(bad)
        bad.write_text("p cut 2 1\na 1 5 1\n")
        with pytest.raises(ValueError, match="out of range"):
            read_dimacs(bad)
        bad.write_text("c only comments\n")
        with pytest.raises(ValueError, match="missing problem"):
            read_dimacs(bad)
        bad.write_text("p cut 4 4\na 1 2 1\n")
        with pytest.raises(ValueError, match="declares"):
            read_dimacs(bad)
