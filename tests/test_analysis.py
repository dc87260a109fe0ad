import hashlib
import math

import pytest

from stitsim import (
    ContainmentViolation,
    CroppedTessellation,
    HyperplaneMeasure,
    InsufficientSamples,
    Polygon,
    ReplicateAborted,
    Segment,
    analysis,
    crop,
    new_process,
    rectangle,
    regular_ngon,
)
from stitsim.analysis import (
    CONSISTENT,
    _collect_chunk,
    chi_square_2x2,
    consistency_test,
    default_probes,
    holm_adjust,
    identity_suite,
    ks_two_sample,
    nu_limit,
    rate_estimate,
    window_stats,
)
from stitsim.geometry import scale_about_centroid
from stitsim.rules import HittingMeasure, IntrinsicVolume, PointDriven, RestrictedMeasure, RulePair, VertexCount


class TestWindowStats:
    def test_empty_tessellation(self, unit_square):
        probes = default_probes(unit_square)
        s = window_stats(CroppedTessellation(unit_square, ()), probes)
        assert s.total_length == 0.0
        assert s.segment_count == 0
        assert s.interior_endpoints == 0
        assert s.probe_hits == (False,) * len(probes)

    def test_single_full_chord(self, unit_square):
        t = CroppedTessellation(unit_square, (Segment((0.0, 0.5), (1.0, 0.5)),))
        s = window_stats(t)
        assert s.total_length == pytest.approx(1.0)
        assert s.segment_count == 1
        assert s.interior_endpoints == 0

    def test_two_crossing_chords_have_no_interior_endpoints(self, unit_square):
        t = CroppedTessellation(
            unit_square,
            (Segment((0.0, 0.5), (1.0, 0.5)), Segment((0.5, 0.0), (0.5, 1.0))),
        )
        s = window_stats(t)
        assert s.segment_count == 2
        assert s.interior_endpoints == 0

    def test_dead_end_counts_as_interior_endpoint(self, unit_square):
        t = CroppedTessellation(unit_square, (Segment((0.0, 0.5), (0.6, 0.5)),))
        assert window_stats(t).interior_endpoints == 1

    def test_probe_hit_detection(self, unit_square):
        probe = rectangle(0.4, 0.4, 0.6, 0.6)
        hit = CroppedTessellation(unit_square, (Segment((0.0, 0.5), (1.0, 0.5)),))
        miss = CroppedTessellation(unit_square, (Segment((0.0, 0.1), (1.0, 0.1)),))
        assert window_stats(hit, [probe]).probe_hits == (True,)
        assert window_stats(miss, [probe]).probe_hits == (False,)

    def test_default_probes_of_unit_square(self, unit_square):
        grid = [regular_ngon(((i + 1) / 4, (j + 1) / 4), 0.1, 32) for i in range(3) for j in range(3)]
        assert default_probes(unit_square) == grid

    def test_default_probes_lie_in_a_triangle(self, triangle):
        probes = default_probes(triangle)
        assert 0 < len(probes) < 9
        assert all(triangle.contains_polygon(pr) for pr in probes)


class TestKSTwoSample:
    def test_identical_samples(self, rng):
        a = list(rng.random(100))
        stat, p = ks_two_sample(a, a)
        assert stat == 0.0
        assert p == pytest.approx(1.0)

    def test_shifted_uniform_strongly_rejected(self, rng):
        a = rng.random(5000)
        b = rng.random(5000) + 0.5
        _, p = ks_two_sample(a, b)
        assert p < 1e-10

    def test_minimum_sample_size(self, rng):
        with pytest.raises(InsufficientSamples):
            ks_two_sample(list(rng.random(10)), list(rng.random(100)))

    def test_null_calibration(self, rng):
        # rejection rate at alpha=0.05 should sit near 0.05
        rejections = 0
        reps = 1000
        for _ in range(reps):
            _, p = ks_two_sample(rng.random(200), rng.random(200))
            if p < 0.05:
                rejections += 1
        assert abs(rejections / reps - 0.05) < 0.02


class TestHolmAndChi2:
    def test_holm_adjust_known_example(self):
        adj = holm_adjust([0.01, 0.04, 0.03, 0.005])
        assert adj == pytest.approx([0.03, 0.06, 0.06, 0.02])

    def test_holm_monotone_and_bounded(self, rng):
        ps = list(rng.random(10))
        adj = holm_adjust(ps)
        assert all(0.0 <= a <= 1.0 for a in adj)
        assert all(a >= p for a, p in zip(adj, ps))

    def test_chi2_degenerate_table(self):
        assert chi_square_2x2([True] * 50, [True] * 50) == (0.0, 1.0)
        assert chi_square_2x2([False] * 50, [False] * 50) == (0.0, 1.0)

    def test_chi2_detects_gross_difference(self):
        _, p = chi_square_2x2([True] * 90 + [False] * 10, [True] * 10 + [False] * 90)
        assert p < 1e-10


class TestConsistencyPipeline:
    def test_null_same_window_not_rejected(self, unit_square, stit_rules):
        report = consistency_test(
            stit_rules, unit_square, unit_square, [1.0], 200, seed=4, alpha=0.01
        )
        assert report.verdict == CONSISTENT

    def test_null_calibration_rejection_rate(self, unit_square, stit_rules):
        # V = W: the full pipeline should reject at most alpha + 2% of the time
        alpha = 0.05
        rejections = 0
        runs = 60
        for k in range(runs):
            report = consistency_test(
                stit_rules, unit_square, unit_square, [1.0], 100, seed=1000 + k, alpha=alpha
            )
            if report.verdict != CONSISTENT:
                rejections += 1
        assert rejections / runs <= alpha + 0.02

    def test_area_selection_detected_inconsistent(self, unit_square, iso_measure):
        pair = RulePair(IntrinsicVolume(2), RestrictedMeasure(iso_measure))
        report = consistency_test(
            pair, unit_square, rectangle(0, 0, 3, 3), [0.75, 1.5], 500, seed=2, alpha=0.001
        )
        assert report.verdict == "inconsistent-detected"

    def test_stit_consistent_on_a_triangle(self, triangle, stit_rules):
        W = Polygon([(-1.0, -1.0), (3.0, -1.0), (-1.0, 3.0)])
        times = [0.75, 1.5]
        report = consistency_test(stit_rules, triangle, W, times, 100, seed=11)
        assert report.verdict == CONSISTENT
        for t in times:
            assert sum(r.time == t and r.kind == "chi2" for r in report.results) == 3

    def test_parallel_report_equals_serial(self, unit_square, stit_rules):
        W = rectangle(0, 0, 2, 2)
        serial = consistency_test(stit_rules, unit_square, W, [0.5], 100, seed=3, n_jobs=1)
        parallel = consistency_test(stit_rules, unit_square, W, [0.5], 100, seed=3, n_jobs=2)
        assert serial.to_dict() == parallel.to_dict()

    def test_replicate_independent_of_chunking(self, unit_square, stit_rules):
        W = rectangle(0, 0, 2, 2)
        probes = default_probes(unit_square)
        times = [0.5, 1.0]
        for arm in (0, 1):
            whole, aborted = _collect_chunk(stit_rules, unit_square, W, times, probes, 7, (arm, 0, 6))
            assert aborted == 0
            for rep in (0, 3, 5):
                alone, _ = _collect_chunk(stit_rules, unit_square, W, times, probes, 7, (arm, rep, 1))
                assert [column[0] for column in alone] == [column[rep] for column in whole]

    def test_crop_once_matches_crop_of_full_window_snapshots(self, unit_square, stit_rules):
        W = rectangle(0, 0, 3, 3)
        probes = default_probes(unit_square)
        times = [0.75, 1.5]
        stats, aborted = _collect_chunk(stit_rules, unit_square, W, times, probes, 1, (1, 0, 20))
        assert aborted == 0
        old_route = [[] for _ in times]
        for rep in range(20):
            snaps = new_process(W, stit_rules, (1, 1, rep)).snapshots(times)
            for column, snap in zip(old_route, snaps):
                column.append(window_stats(crop(snap, unit_square), probes))
        assert stats == old_route

    # sha256 of repr([[(segment_count, interior_endpoints, probe_hits) per time] per replicate])
    # for 100 STIT replicates, seed 1, V = [0,1]^2, W = [0,3]^2; integers and booleans
    # only, so a change in the last bit of a float cannot move it.
    PINNED_DIGESTS = {
        0: "206bf11ed3bbeaf344fe4fef9cf0b0b1f70529b7b13292e5ec50ef6f3f0c81ec",
        1: "2a3a5f75911001f9bdc4f533d9e2e8683a3b44c2ca4e607c8a98f98bf19f21f0",
    }

    @pytest.mark.parametrize("arm", [0, 1], ids=["direct", "cropped"])
    def test_discrete_statistics_are_pinned(self, unit_square, stit_rules, arm):
        W = rectangle(0, 0, 3, 3)
        per_time, aborted = _collect_chunk(
            stit_rules, unit_square, W, [0.75, 1.5], default_probes(unit_square), 1, (arm, 0, 100)
        )
        assert aborted == 0
        rows = [[(s.segment_count, s.interior_endpoints, s.probe_hits) for s in rep] for rep in zip(*per_time)]
        assert len(rows) == 100
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == self.PINNED_DIGESTS[arm]

    @pytest.mark.parametrize(
        "times",
        [[], [float("nan")], [float("inf")], [0.0], [-1.0], [1.5, 0.75], [0.5, float("nan")]],
        ids=["empty", "nan", "inf", "zero", "negative", "descending", "nan-last"],
    )
    def test_times_checked_before_replicates(self, unit_square, stit_rules, monkeypatch, times):
        monkeypatch.setattr(analysis, "new_process", None)  # no replicate may run
        with pytest.raises(ValueError, match="times"):
            consistency_test(stit_rules, unit_square, unit_square, times, 100)

    def test_probe_containment_checked_before_replicates(self, unit_square, stit_rules, monkeypatch):
        def no_replicates(*args):
            raise AssertionError("a replicate ran before the probes were checked")

        monkeypatch.setattr(analysis, "new_process", no_replicates)
        with pytest.raises(ContainmentViolation, match="probe polygon outside the window"):
            consistency_test(
                stit_rules, unit_square, unit_square, [1.0], 100, probes=[rectangle(0.5, 0.5, 2.0, 2.0)]
            )

    def test_requires_min_replicates(self, unit_square, stit_rules):
        with pytest.raises(ValueError):
            consistency_test(stit_rules, unit_square, unit_square, [1.0], 50)

    def test_requires_positive_n_jobs(self, unit_square, stit_rules):
        with pytest.raises(ValueError):
            consistency_test(stit_rules, unit_square, unit_square, [1.0], 100, n_jobs=0)

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0, 5.0, float("nan")])
    def test_alpha_must_lie_in_unit_interval(self, unit_square, stit_rules, monkeypatch, alpha):
        monkeypatch.setattr("stitsim.analysis.new_process", None)  # no replicate may run
        with pytest.raises(ValueError, match="alpha"):
            consistency_test(stit_rules, unit_square, unit_square, [1.0], 100, alpha=alpha)

    def test_report_serialization_roundtrip(self, unit_square, stit_rules):
        report = consistency_test(
            stit_rules, unit_square, unit_square, [1.0], 100, seed=6, alpha=0.01
        )
        d = report.to_dict()
        assert d["verdict"] == report.verdict
        assert len(d["results"]) == len(report.results)
        assert all(0.0 <= r["p_holm"] <= 1.0 for r in d["results"])
        assert "verdict" in report.to_text()


def _reference_columns(rules, V, W, times, probes, seed, arm, reps):
    """window_stats(crop(snapshot, V), probes) of each replicate at each time, one by one."""
    columns = [[] for _ in times]
    for rep in reps:
        snaps = new_process(W if arm else V, rules, (seed, arm, rep)).snapshots(times)
        for column, snap in zip(columns, snaps):
            column.append(window_stats(crop(snap, V), probes))
    return columns


class _FixedChords:
    """Stands in for a ProcessState whose chords and birth times are given."""

    def __init__(self, window, segments, births):
        self.window = window
        self._chords = list(zip(segments, births))

    def advance(self, t):
        born = [(s, b) for s, b in self._chords if b <= t]
        self.segments = [s for s, _ in born]
        self.births = [b for _, b in born]
        return self


def _boundary_chords(V):
    """Chords that end on V's edges or vertices, or run along them."""
    vs = V.vertices
    cx, cy = V.centroid()
    chords = []
    for i, (x0, y0) in enumerate(vs):
        x1, y1 = vs[(i + 1) % len(vs)]
        ex, ey = x1 - x0, y1 - y0
        mx, my = x0 + 0.5 * ex, y0 + 0.5 * ey
        chords += [
            ((x0, y0), (x1, y1)),  # an edge, vertex to vertex
            ((x0 - 0.5 * ex, y0 - 0.5 * ey), (x1 + 0.5 * ex, y1 + 0.5 * ey)),  # the edge's line, beyond V
            ((x0 + 0.25 * ex, y0 + 0.25 * ey), (mx, my)),  # part of an edge
            ((cx, cy), (mx, my)),  # from inside to an edge
            ((mx, my), (2 * mx - cx, 2 * my - cy)),  # from an edge outward: touches V at a point
            ((cx, cy), (x0, y0)),  # from inside to a vertex
            ((x0, y0), (2 * x0 - cx, 2 * y0 - cy)),  # from a vertex outward
            ((2 * cx - x0, 2 * cy - y0), (2 * x0 - cx, 2 * y0 - cy)),  # through a vertex and the centroid
        ]
        chords += [((x0, y0), vs[j]) for j in range(i + 2, len(vs)) if (j + 1) % len(vs) != i]  # diagonals
    # inside, shorter than crop's floor but longer than clip_segment's snap_tol, and shorter than both
    chords += [((cx, cy), (cx + 1e-10, cy)), ((cx, cy), (cx, cy + 1e-13))]
    return [Segment(p, q) for p, q in chords]


class TestChunkKernel:
    """_collect_chunk gives exactly the window_stats of each replicate's crop at each time."""

    @pytest.mark.parametrize("case", ["triangle", "hexagon", "area", "point-driven"])
    @pytest.mark.parametrize("arm", [0, 1], ids=["direct", "cropped"])
    def test_equals_window_stats_of_crops(self, unit_square, iso_measure, stit_rules, case, arm):
        big = rectangle(0, 0, 3, 3)
        V, W, rules = {
            "triangle": (Polygon([(0, 0), (1, 0), (0, 1)]), Polygon([(-1, -1), (3, -1), (-1, 3)]), stit_rules),
            "hexagon": (regular_ngon((0, 0), 1, 6), regular_ngon((0.5, 0), 3, 6), stit_rules),
            "area": (unit_square, big, RulePair(IntrinsicVolume(2), RestrictedMeasure(iso_measure))),
            "point-driven": (unit_square, big, RulePair(HittingMeasure(iso_measure), PointDriven())),
        }[case]
        probes = default_probes(V)
        times = [0.75, 1.5]
        stats, aborted = _collect_chunk(rules, V, W, times, probes, 3, (arm, 0, 15))
        assert aborted == 0
        assert stats == _reference_columns(rules, V, W, times, probes, 3, arm, range(15))
        assert sum(s.segment_count for s in stats[-1]) > 15

    @pytest.mark.parametrize(
        "V",
        [rectangle(0, 0, 1, 1), Polygon([(0, 0), (1, 0), (0, 1)]), regular_ngon((0, 0), 1, 6)],
        ids=["square", "triangle", "hexagon"],
    )
    def test_chords_on_the_boundary(self, stit_rules, monkeypatch, V):
        W = scale_about_centroid(V, 4.0)
        chords = _boundary_chords(V)
        born = [0.2, 0.75, 1.0, 1.5, 2.0]  # two are snapshot times: born at t counts at t
        plans = [
            (chords, [born[i % len(born)] for i in range(len(chords))]),
            ([], []),
            (chords[::-1], [born[i % 3] for i in range(len(chords))]),
        ]
        monkeypatch.setattr(analysis, "new_process", lambda window, rules, seed: _FixedChords(window, *plans[seed[2]]))
        probes = default_probes(V) + [V, scale_about_centroid(V, 0.5)]
        times = [0.75, 1.5]
        stats, aborted = _collect_chunk(stit_rules, V, W, times, probes, 0, (1, 0, len(plans)))
        assert aborted == 0
        expected = [
            [
                window_stats(crop(CroppedTessellation(W, tuple(s for s, b in zip(*plan) if b <= t)), V), probes)
                for plan in plans
            ]
            for t in times
        ]
        assert stats == expected
        assert 0 < expected[-1][0].segment_count < len([b for b in plans[0][1] if b <= 1.5])  # some are dropped

    def test_aborted_replicate_is_left_out_of_every_time(self, unit_square, stit_rules, monkeypatch):
        W = rectangle(0, 0, 2, 2)
        probes = default_probes(unit_square)
        times = [0.5, 1.0, 1.5]
        real = analysis.new_process

        class AbortsAfterFirstTime:
            def __init__(self, state):
                self.state = state

            def advance(self, t):
                if t > times[0]:
                    raise ReplicateAborted("spy: aborted between the first and the last time")
                return self.state.advance(t)

        def new_process_spy(window, rules, seed):
            state = real(window, rules, seed)
            return AbortsAfterFirstTime(state) if seed[2] == 2 else state

        monkeypatch.setattr(analysis, "new_process", new_process_spy)
        stats, aborted = _collect_chunk(stit_rules, unit_square, W, times, probes, 7, (1, 0, 5))
        assert aborted == 1
        assert stats == _reference_columns(stit_rules, unit_square, W, times, probes, 7, 1, [0, 1, 3, 4])


class TestRateEstimate:
    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -0.01])
    def test_dt_must_be_positive_and_finite(self, unit_square, stit_rules, dt):
        with pytest.raises(ValueError, match="dt"):
            rate_estimate(stit_rules, unit_square, rectangle(0.25, 0.25, 0.75, 0.75), dt, 100)

    @pytest.mark.parametrize("n_reps", [0, -1])
    def test_needs_a_replicate(self, unit_square, stit_rules, n_reps):
        with pytest.raises(ValueError, match="n_reps"):
            rate_estimate(stit_rules, unit_square, rectangle(0.25, 0.25, 0.75, 0.75), 0.01, n_reps)

    def test_dt_precondition(self, unit_square, stit_rules):
        B = rectangle(0.25, 0.25, 0.75, 0.75)
        with pytest.raises(ValueError):
            rate_estimate(stit_rules, unit_square, B, 0.5, 1000)

    def test_containment(self, unit_square, stit_rules):
        with pytest.raises(ContainmentViolation):
            rate_estimate(stit_rules, unit_square, rectangle(0.5, 0.5, 2, 2), 0.01, 1000)

    def test_estimate_near_hitting_mass(self, unit_square, stit_rules):
        # target 2/pi for the centered half-side square
        B = rectangle(0.25, 0.25, 0.75, 0.75)
        dt, n = 0.02, 20_000
        est = rate_estimate(stit_rules, unit_square, B, dt, n, seed=5)
        target = 2.0 / math.pi
        p = target * dt
        sigma = math.sqrt(p * (1 - p) / n) / dt
        # generous first-order bias allowance on top of 3 sigma
        assert abs(est - target) < 3 * sigma + 1.0 * dt

    def test_tiny_probe_rate_vanishes(self, unit_square, stit_rules):
        B = rectangle(0.5, 0.5, 0.5 + 1e-6, 0.5 + 1e-6)
        est = rate_estimate(stit_rules, unit_square, B, 0.01, 2000, seed=8)
        assert est < 0.05


class TestNuLimit:
    def test_requires_shared_measure_pair(self, unit_square, iso_measure):
        pair = RulePair(VertexCount(), RestrictedMeasure(iso_measure))
        with pytest.raises(ValueError):
            nu_limit(pair, unit_square, [1.0, 2.0])

    def test_sizes_must_ascend(self, unit_square, stit_rules):
        with pytest.raises(ValueError):
            nu_limit(stit_rules, unit_square, [2.0, 1.0])

    def test_rectangle_and_square_exhaustions_agree(self, stit_rules, iso_measure):
        from stitsim.measures import hitting_mass, joint_hitting_mass

        probe = rectangle(-0.3, -0.2, 0.4, 0.3)
        est = nu_limit(stit_rules, probe, [1.0, 2.0, 4.0])
        # rectangle exhaustion computed directly: same limit
        rects = [rectangle(-s, -s / 2, s, s / 2) for s in (1.0, 2.0, 4.0)]
        vals = [joint_hitting_mass(iso_measure, probe, r) for r in rects]
        assert est.values[-1] == pytest.approx(vals[-1], rel=1e-10)
        assert est.values[-1] == pytest.approx(hitting_mass(iso_measure, probe), rel=1e-10)


class TestIdentitySuite:
    def test_shared_measure_pair_passes_everything(self, stit_rules):
        results = identity_suite(
            stit_rules,
            ["fundamental", "corollary", "nu_limit", "rate_matches_nu", "division_bound"],
            n_cases=20,
            seed=1,
        )
        assert all(r.passed for r in results), [(r.name, r.max_residual) for r in results]

    def test_vertex_count_selection_fails_rate_identity(self, iso_measure):
        pair = RulePair(VertexCount(), RestrictedMeasure(iso_measure))
        results = identity_suite(pair, ["rate_matches_nu", "fundamental"], n_cases=10, seed=2)
        by_name = {r.name: r for r in results}
        assert not by_name["rate_matches_nu"].passed
        assert by_name["fundamental"].passed  # the division side alone is still exact

    def test_division_bound_passes_for_vertex_count(self):
        pair = RulePair(VertexCount(), PointDriven())
        [result] = identity_suite(pair, ["division_bound"], n_cases=20, seed=4)
        assert result.passed, result.max_residual

    @pytest.mark.parametrize(
        "division, identity, detail",
        [
            (PointDriven(), "fundamental", "needs a measure-driven division rule"),
            (RestrictedMeasure(HyperplaneMeasure(1.0)), "nu_limit", "needs a shared-measure pair"),
        ],
        ids=["point-driven", "unshared-measure"],
    )
    def test_inapplicable_identity_fails_with_reason(self, iso_measure, division, identity, detail):
        pair = RulePair(HittingMeasure(iso_measure), division)  # never a shared-measure pair
        [result] = identity_suite(pair, [identity], n_cases=10, seed=5)
        assert not result.passed
        assert result.max_residual == math.inf
        assert result.detail == detail
