import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from stitsim import HyperplaneMeasure, new_process
from stitsim.engine import replicate_seeds
from stitsim.geometry import offset_interval, random_convex_polygon, rectangle, split
from stitsim.measures import axis_aligned
from stitsim.rules import (
    HittingMeasure,
    IntrinsicVolume,
    PointDriven,
    RestrictedMeasure,
    RulePair,
    VertexCount,
    check_bound,
    divide,
    min_expected_chords,
    rate,
    stit_pair,
)
from stitsim.errors import DegenerateSplit

from reference import translate


class TestRate:
    def test_area_rule_unit_square(self, unit_square):
        assert rate(IntrinsicVolume(2), unit_square) == pytest.approx(1.0)

    def test_vertex_count_triangle(self, triangle):
        assert rate(VertexCount(), triangle) == 3.0

    def test_hitting_measure_isotropic(self, unit_square, iso_measure):
        assert rate(HittingMeasure(iso_measure), unit_square) == pytest.approx(4.0 / math.pi)

    def test_strict_positivity_random_polygons(self, iso_measure, rng):
        sels = [IntrinsicVolume(0), IntrinsicVolume(1), IntrinsicVolume(2), VertexCount(), HittingMeasure(iso_measure)]
        for _ in range(200):
            poly = random_convex_polygon(rng, n_points=int(rng.integers(4, 10)), scale=0.3)
            for s in sels:
                assert rate(s, poly) > 0.0

    def test_translation_equivariance(self, iso_measure, rng):
        sels = [IntrinsicVolume(1), IntrinsicVolume(2), VertexCount(), HittingMeasure(iso_measure)]
        for _ in range(50):
            poly = random_convex_polygon(rng, n_points=6)
            moved = translate(poly, 5.0, -7.0)
            for s in sels:
                assert rate(s, moved) == pytest.approx(rate(s, poly), rel=1e-10, abs=1e-10)


class TestDivide:
    def test_restricted_measure_always_hits(self, iso_measure, rng):
        r = RestrictedMeasure(iso_measure)
        poly = random_convex_polygon(rng, n_points=6)
        for _ in range(300):
            h = divide(r, poly, rng)
            lo, hi = offset_interval(poly, h.theta)
            assert lo - poly.snap_tol <= h.a <= hi + poly.snap_tol

    def test_point_driven_axis_aligned_offset_uniform(self, unit_square, rng):
        # for theta=0 draws, the offset is the x coordinate of a uniform point
        r = PointDriven(axis_aligned())
        offs = []
        while len(offs) < 10_000:
            h = divide(r, unit_square, rng)
            if h.theta == 0.0:
                offs.append(h.a)
        _, p = scipy_stats.kstest(offs, "uniform")
        assert p > 0.01

    def test_point_driven_isotropic_disk_hit_vs_quadrature_oracle(self, unit_square, rng):
        # P(line through uniform point hits a centered disk): for a point at
        # distance d from the center, the fraction of directions whose line
        # meets the disk is 1 if d <= rho else (2/pi) asin(rho/d); integrate
        # that over the square on a midpoint grid.
        rho = 0.1
        c = (0.5, 0.5)
        m = 1200
        xs = (np.arange(m) + 0.5) / m
        gx, gy = np.meshgrid(xs, xs)
        d = np.hypot(gx - c[0], gy - c[1])
        frac = np.where(d <= rho, 1.0, (2.0 / math.pi) * np.arcsin(np.minimum(1.0, rho / np.maximum(d, rho))))
        p_oracle = float(frac.mean())

        disk = []
        n = 100_000
        r = PointDriven()
        hits = 0
        for _ in range(n):
            h = divide(r, unit_square, rng)
            ux, uy = h.normal
            if abs(c[0] * ux + c[1] * uy - h.a) <= rho:
                hits += 1
        sigma = math.sqrt(p_oracle * (1 - p_oracle) / n)
        assert abs(hits / n - p_oracle) < 3 * sigma

    def test_divide_splits_cell_with_rare_degenerates(self, iso_measure, rng):
        pair = stit_pair(iso_measure)
        poly = random_convex_polygon(rng, n_points=7)
        failures = 0
        n = 5000
        for _ in range(n):
            h = divide(pair.division, poly, rng)
            try:
                plus, minus, _ = split(poly, h)
            except DegenerateSplit:
                failures += 1
                continue
            if plus is None or minus is None:
                failures += 1
        assert failures / n < 1e-3


class TestCheckBound:
    def test_area_monotone(self, rng):
        poly = random_convex_polygon(rng, n_points=7)
        assert check_bound(IntrinsicVolume(2), poly, 500, rng) <= 1.0 + 1e-12

    def test_hitting_measure_monotone(self, unit_square, iso_measure, rng):
        assert check_bound(HittingMeasure(iso_measure), unit_square, 500, rng) <= 1.0 + 1e-12

    def test_vertex_count_square_bound(self, unit_square, rng):
        # pieces of a 4-gon have at most 6 vertices
        k_hat = check_bound(VertexCount(), unit_square, 10_000, rng)
        assert k_hat <= 1.5
        assert k_hat > 1.0  # generic chords do create 5-gons


class TestRulePair:
    def test_stit_measure_requires_identical_measure_object(self, iso_measure):
        assert stit_pair(iso_measure).stit_measure is iso_measure
        other = HyperplaneMeasure(1.0)
        assert other == iso_measure and other is not iso_measure
        assert RulePair(HittingMeasure(iso_measure), RestrictedMeasure(other)).stit_measure is None
        assert RulePair(IntrinsicVolume(2), RestrictedMeasure(iso_measure)).stit_measure is None
        assert RulePair(HittingMeasure(iso_measure), PointDriven()).stit_measure is None

    def test_intrinsic_volume_index_validated(self):
        with pytest.raises(ValueError):
            IntrinsicVolume(3)


class TestMinExpectedChords:
    def test_area_selection_is_t_times_area(self, iso_measure):
        rules = RulePair(IntrinsicVolume(2), PointDriven())
        assert min_expected_chords(rules, rectangle(0, 0, 100, 100), 2000.0) == 2e7

    def test_hitting_selection_is_t_times_window_rate(self, unit_square, iso_measure):
        rules = RulePair(HittingMeasure(iso_measure), PointDriven())
        assert min_expected_chords(rules, unit_square, 3.0) == 3.0 * rate(rules.selection, unit_square)

    def test_isotropic_stit_mean(self, unit_square):
        rules = stit_pair(HyperplaneMeasure(2.0))
        t = 6000.0
        expected = 2.0 * t * 4.0 / math.pi + 4.0 * t * t / math.pi
        assert min_expected_chords(rules, unit_square, t) == pytest.approx(expected, rel=1e-15)

    def test_axis_aligned_stit_gets_only_the_linear_term(self, unit_square):
        rules = stit_pair(HyperplaneMeasure(1.0, axis_aligned()))
        assert min_expected_chords(rules, unit_square, 10.0) == pytest.approx(10.0)

    def test_exponential_bounds(self, unit_square, iso_measure):
        vertex = RulePair(VertexCount(), RestrictedMeasure(iso_measure))
        assert min_expected_chords(vertex, unit_square, 2.0) == math.expm1(6.0)
        assert min_expected_chords(vertex, unit_square, 1e6) == math.expm1(700.0)
        cells = RulePair(IntrinsicVolume(0), RestrictedMeasure(iso_measure))
        assert min_expected_chords(cells, unit_square, 2.0) == math.expm1(2.0)

    def test_isotropic_stit_mean_matches_simulation(self, unit_square, stit_rules):
        # 400 trajectories in [0,1]^2 to t = 2; the mean is 8/pi + 4/pi = 3.82 chords
        t = 2.0
        counts = [len(new_process(unit_square, stit_rules, (77, rep)).advance(t).segments) for rep in range(400)]
        stderr = np.std(counts, ddof=1) / math.sqrt(len(counts))
        assert abs(np.mean(counts) - min_expected_chords(stit_rules, unit_square, t)) < 4.5 * stderr

    @pytest.mark.parametrize(
        "division", [PointDriven(), RestrictedMeasure(HyperplaneMeasure(1.0))], ids=["point-driven", "restricted"]
    )
    def test_area_selection_count_is_poisson(self, division):
        # law (v): the cells' areas always sum to area(W), so every division
        # rule gives Poisson(t * area(W)) chords; lambda = 3 in [0,2]x[0,1] at t = 1.5
        W, t = rectangle(0.0, 0.0, 2.0, 1.0), 1.5
        rules = RulePair(IntrinsicVolume(2), division)
        seeds = replicate_seeds(2301, 0, 0, 4000)
        counts = np.array([len(new_process(W, rules, seed).advance(t).segments) for seed in seeds])
        lam = min_expected_chords(rules, W, t)
        assert lam == 3.0
        assert abs(counts.mean() - lam) < 4.5 * counts.std(ddof=1) / math.sqrt(len(counts))
        # var/mean of a Poisson sample of 4000 at lambda = 3 has sd about 0.024
        assert abs(counts.var(ddof=1) / counts.mean() - 1.0) < 0.15
