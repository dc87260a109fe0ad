import hashlib
import json
import math

import pytest

from stitsim import Atoms, HyperplaneMeasure, geometry, measures, rectangle
from stitsim.cli import main
from stitsim.geometry import offset_interval, random_convex_polygon, scale_about_centroid
from stitsim.measures import (
    axis_aligned,
    hitting_mass,
    joint_hitting_mass,
    sample_hitting,
)

from conftest import trapezoid_width_integral


class TestDirectionalDistributions:
    def test_atoms_need_two_directions(self):
        with pytest.raises(ValueError):
            Atoms((0.3, 0.3), (0.5, 0.5))

    def test_atoms_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Atoms((0.0, 1.0), (0.6, 0.6))

    def test_intensity_must_be_positive(self):
        with pytest.raises(ValueError):
            HyperplaneMeasure(0.0)


class TestHittingMass:
    def test_axis_aligned_unit_square(self, unit_square):
        L = HyperplaneMeasure(1.0, axis_aligned())
        assert hitting_mass(L, unit_square) == pytest.approx(1.0)

    def test_isotropic_unit_square_vs_quadrature_oracle(self, unit_square, iso_measure):
        # independent 256-point trapezoid quadrature of the width integral
        oracle = trapezoid_width_integral(unit_square)
        assert oracle == pytest.approx(4.0 / math.pi, rel=1e-4)
        assert hitting_mass(iso_measure, unit_square) == pytest.approx(4.0 / math.pi, rel=1e-14)

    def test_translation_invariance(self, iso_measure, rng):
        poly = random_convex_polygon(rng, n_points=7)
        moved = poly.translate(13.7, -4.2)
        assert hitting_mass(iso_measure, moved) == pytest.approx(
            hitting_mass(iso_measure, poly), rel=1e-12
        )

    def test_monotone_in_containment(self, iso_measure, rng):
        for _ in range(50):
            poly = random_convex_polygon(rng, n_points=8)
            inner = scale_about_centroid(poly, 0.3 + 0.6 * rng.random())
            assert hitting_mass(iso_measure, inner) <= hitting_mass(iso_measure, poly) + 1e-12


class TestJointHittingMass:
    def test_contained_probe_reduces_to_plain_mass(self, unit_square, iso_measure):
        B = rectangle(0.25, 0.25, 0.75, 0.75)
        assert joint_hitting_mass(iso_measure, B, unit_square) == pytest.approx(
            hitting_mass(iso_measure, B), rel=1e-12
        )

    def test_disjoint_squares_positive_but_smaller(self, iso_measure):
        A = rectangle(0, 0, 1, 1)
        B = rectangle(3, 0, 4, 1)
        j = joint_hitting_mass(iso_measure, A, B)
        assert 0.0 < j < hitting_mass(iso_measure, A)

    def test_atoms_exact(self, unit_square):
        L = HyperplaneMeasure(2.0, axis_aligned())
        B = rectangle(0.5, 0.0, 1.5, 1.0)  # overlaps on the right
        # theta=0: offsets [0,1] vs [0.5,1.5] overlap 0.5; theta=pi/2: [0,1] vs [0,1] overlap 1
        assert joint_hitting_mass(L, unit_square, B) == pytest.approx(
            2.0 * (0.5 * 0.5 + 0.5 * 1.0), rel=1e-14
        )


class TestSampleHitting:
    def test_always_hits(self, iso_measure, rng):
        poly = random_convex_polygon(rng, n_points=6)
        for _ in range(300):
            h = sample_hitting(iso_measure, poly, rng)
            lo, hi = offset_interval(poly, h.theta)
            assert lo - poly.snap_tol <= h.a <= hi + poly.snap_tol

    def test_axis_aligned_square_direction_split(self, unit_square, rng):
        L = HyperplaneMeasure(1.0, axis_aligned())
        n = 100_000
        k = sum(1 for _ in range(n) if sample_hitting(L, unit_square, rng).theta == 0.0)
        sigma = math.sqrt(0.25 / n)
        assert abs(k / n - 0.5) < 3 * sigma

    def test_axis_aligned_rectangle_weighted_direction(self, rng):
        # 2x1 rectangle: vertical-normal lines (theta=0) hit with weight 2/3
        L = HyperplaneMeasure(1.0, axis_aligned())
        r = rectangle(0, 0, 2, 1)
        n = 100_000
        k = sum(1 for _ in range(n) if sample_hitting(L, r, rng).theta == 0.0)
        p = 2.0 / 3.0
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(k / n - p) < 3 * sigma

    def test_atoms_project_once_per_atom(self, rng, monkeypatch):
        thetas = (0.0, 0.4, math.pi / 2)
        L = HyperplaneMeasure(1.0, Atoms(thetas, (0.2, 0.3, 0.5)))
        poly = random_convex_polygon(rng, n_points=7)
        calls = []

        def counting(C, theta):
            calls.append(theta)
            return offset_interval(C, theta)

        # width() reaches offset_interval through geometry, sample_hitting through measures
        monkeypatch.setattr(geometry, "offset_interval", counting)
        monkeypatch.setattr(measures, "offset_interval", counting)
        for _ in range(50):
            sample_hitting(L, poly, rng)
        assert calls == list(thetas) * 50

    def test_axis_aligned_stit_dump_is_unchanged(self, tmp_path):
        # sha256 of the dump at t = 20, seed 1, recorded before the atom intervals were kept
        cfg = tmp_path / "axis.json"
        measure = {"intensity": 1.0, "directions": [[0.0, 0.5], [math.pi / 2, 0.5]]}
        square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
        cfg.write_text(json.dumps({"version": 1, "seed": 1, "window": square, "rules": {"stit": {"measure": measure}}, "time": 20.0}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        digest = hashlib.sha256((tmp_path / "o" / "tessellation.txt").read_bytes()).hexdigest()
        assert digest == "a72fd0081781358920ae5fd638c579222082533446477679b07082e4777af967"

    def test_empirical_matches_analytic_hitting_prob(self, unit_square, iso_measure, rng):
        B = rectangle(0.2, 0.3, 0.7, 0.8)
        p = hitting_mass(iso_measure, B) / hitting_mass(iso_measure, unit_square)
        n = 100_000
        hits = 0
        for _ in range(n):
            h = sample_hitting(iso_measure, unit_square, rng)
            lo, hi = offset_interval(B, h.theta)
            if lo <= h.a <= hi:
                hits += 1
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 3 * sigma


class TestHittingProb:
    # P(a line drawn from the restriction to W hits B) = mass(B) / mass(W) for B in W

    def test_full_window(self, unit_square, iso_measure):
        p = hitting_mass(iso_measure, unit_square) / hitting_mass(iso_measure, unit_square)
        assert p == pytest.approx(1.0)

    def test_centered_half_square_axis_aligned(self, unit_square):
        L = HyperplaneMeasure(1.0, axis_aligned())
        B = rectangle(0.25, 0.25, 0.75, 0.75)
        assert hitting_mass(L, B) / hitting_mass(L, unit_square) == pytest.approx(0.5)

    def test_centered_half_square_isotropic(self, unit_square, iso_measure):
        B = rectangle(0.25, 0.25, 0.75, 0.75)
        assert hitting_mass(iso_measure, B) / hitting_mass(iso_measure, unit_square) == pytest.approx(0.5)


class TestFundamentalIdentity:
    def test_shared_measure_identity_random_triples(self, rng):
        from stitsim.analysis import fundamental_residual

        for spec in (HyperplaneMeasure(1.0), HyperplaneMeasure(0.7, axis_aligned())):
            for _ in range(20):
                W = random_convex_polygon(rng, n_points=8, scale=2.0)
                V = scale_about_centroid(W, 0.6)
                B = scale_about_centroid(V, 0.5)
                assert fundamental_residual(spec, V, W, B) < 1e-10

    def test_nu_sequence_monotone_and_stabilizes(self):
        from stitsim.analysis import nu_limit
        from stitsim import stit_pair

        L = HyperplaneMeasure(1.0)
        rules = stit_pair(L)
        probe = rectangle(0.0, 0.0, 1.0, 1.0)  # touches the corner of W_1
        est = nu_limit(rules, probe, [1.0, 2.0, 3.0, 4.0, 5.0])
        assert est.limit_reached
        assert all(b >= a - 1e-10 for a, b in zip(est.values, est.values[1:]))
        # contained from side 2 on: constant at the probe's own hitting mass
        for v in est.values[1:]:
            assert v == pytest.approx(4.0 / math.pi, rel=1e-10)
