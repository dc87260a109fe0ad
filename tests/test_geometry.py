import dataclasses
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stitsim import DegenerateSplit, InvalidPolygon, Polygon, geometry
from stitsim.geometry import (
    Hyperplane,
    Segment,
    clip_segment,
    clip_segments,
    intrinsic_volumes,
    offset_interval,
    random_convex_polygon,
    rectangle,
    regular_ngon,
    sample_uniform_point,
    segment_hits_polygon,
    segments_hit_polygon,
    split,
    vertex_count,
    width,
)

from reference import (
    _reference_clip_segment,
    _reference_contains_point,
    _reference_polygon,
    _reference_segment_hits_polygon,
    translate,
)


class TestPolygonValidation:
    def test_canonical_start_is_lexicographic_min(self):
        p = Polygon([(1, 1), (0, 1), (0, 0), (1, 0)])
        assert p.vertices[0] == (0.0, 0.0)

    def test_rejects_clockwise(self):
        with pytest.raises(InvalidPolygon):
            Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])

    def test_rejects_too_few_vertices(self):
        with pytest.raises(InvalidPolygon):
            Polygon([(0, 0), (1, 0)])

    @pytest.mark.parametrize(
        "vertices",
        [
            [(math.cos(4 * math.pi * k / 5), math.sin(4 * math.pi * k / 5)) for k in range(5)],
            [(0, 0), (1, 0), (1, 1), (0, 1)] * 2,
        ],
        ids=["pentagram", "square-twice"],
    )
    def test_rejects_doubly_wound(self, vertices):
        # every turn is a left turn, but the boundary goes round twice
        with pytest.raises(InvalidPolygon, match="winds more than once"):
            Polygon(vertices)

    def test_rejects_nonconvex(self):
        with pytest.raises(InvalidPolygon):
            Polygon([(0, 0), (2, 0), (1, 0.1), (2, 2), (0, 2)])

    def test_drops_collinear_midpoints(self):
        p = Polygon([(0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)])
        assert vertex_count(p) == 4

    def test_rejects_nan(self):
        with pytest.raises(InvalidPolygon):
            Polygon([(0, 0), (1, 0), (float("nan"), 1)])

    def test_rejects_an_area_that_overflows(self):
        # finite vertices and perimeter, but twice the area is 2e310
        with pytest.raises(InvalidPolygon, match="non-finite signed area"):
            Polygon([(0, 0), (1e155, 0), (1e155, 1e155), (0, 1e155)])

    def test_rejects_zero_extent(self):
        with pytest.raises(InvalidPolygon, match="zero extent"):
            Polygon([(1.0, 2.0)] * 3)

    def test_rejects_a_clockwise_triangle_behind_reversals(self):
        # (0, 0) -> (0, 2) -> (2, 0) is clockwise, but each of its vertices is
        # reached through a point past it on the line from the vertex before:
        # every turn is then a left turn or a reversal, which the slow pass
        # drops as collinear, and only the signed area is left to reject it
        with pytest.raises(InvalidPolygon, match="non-positive signed area"):
            Polygon([(0, 0), (0, 4), (0, 2), (4, -2), (2, 0), (-2, 0)])

    def test_duplicate_vertices_deduped(self):
        p = Polygon([(0, 0), (1, 0), (1, 0), (1, 1), (0, 1)])
        assert vertex_count(p) == 4

    def test_pickles_to_an_equal_polygon(self, triangle):
        again = pickle.loads(pickle.dumps(triangle))
        assert again == triangle and again is not triangle
        assert (again.area, again.perimeter, again._box) == (triangle.area, triangle.perimeter, triangle._box)

    @pytest.mark.parametrize("name", ["vertices", "area", "extra"])
    def test_is_immutable(self, unit_square, name):
        with pytest.raises(AttributeError, match="Polygon is immutable"):
            setattr(unit_square, name, 2.0)
        assert unit_square.area == 1.0

    def test_repr_rebuilds_the_polygon(self, triangle):
        assert repr(triangle) == "Polygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])"
        assert eval(repr(triangle), {"Polygon": Polygon}) == triangle


class TestSegment:
    """A trace that `split` builds through the slot writers keeps the contract of `Segment(p, q)`."""

    @pytest.fixture
    def trace(self, unit_square):
        return split(unit_square, Hyperplane(0.0, 0.25))[2]

    def test_equals_and_hashes_as_the_constructed_segment(self, trace):
        built = Segment((0.25, 0.0), (0.25, 1.0))
        assert (trace.p, trace.q, trace.length) == (built.p, built.q, 1.0)
        assert trace == built and hash(trace) == hash(built) == hash((built.p, built.q))
        assert trace != Segment(built.q, built.p)
        assert trace != (built.p, built.q)
        assert len({trace, built}) == 1

    def test_repr(self, trace):
        assert repr(trace) == "Segment(p=(0.25, 0.0), q=(0.25, 1.0))"

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickles_to_an_equal_segment(self, trace, protocol):
        again = pickle.loads(pickle.dumps(trace, protocol))
        assert type(again) is Segment and again == trace and again is not trace

    @pytest.mark.parametrize("name", ["p", "q", "extra"])
    def test_is_immutable(self, trace, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(trace, name, (0.0, 0.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(trace, name)
        assert trace == Segment((0.25, 0.0), (0.25, 1.0))


class TestHyperplane:
    @pytest.mark.parametrize(
        "theta, a, message",
        [
            (math.pi, 0.0, "theta must lie in"),
            (-0.1, 0.0, "theta must lie in"),
            (float("nan"), 0.0, "theta must lie in"),
            (0.5, float("inf"), "parameters must be finite"),
            (0.5, float("nan"), "parameters must be finite"),
        ],
        ids=["theta-pi", "theta-negative", "theta-nan", "offset-inf", "offset-nan"],
    )
    def test_rejects_bad_parameters(self, theta, a, message):
        with pytest.raises(ValueError, match=message):
            Hyperplane(theta, a)


class TestSplit:
    def test_vertical_bisection_of_square(self, unit_square):
        plus, minus, trace = split(unit_square, Hyperplane(0.0, 0.5))
        assert plus.area == pytest.approx(0.5, abs=1e-15)
        assert minus.area == pytest.approx(0.5, abs=1e-15)
        assert trace.length == pytest.approx(1.0, abs=1e-15)
        # plus side holds the larger x values (normal points along +x)
        assert all(x >= 0.5 - 1e-12 for x, _ in plus.vertices)

    def test_missing_line_returns_whole_cell(self, unit_square):
        plus, minus, trace = split(unit_square, Hyperplane(0.0, 2.0))
        assert plus is None
        assert minus is unit_square
        assert trace is None

    def test_diagonal_split_of_triangle(self, triangle):
        # line x + y = 0.5: small corner triangle has area 1/8, the rest 3/8
        plus, minus, trace = split(triangle, Hyperplane(math.pi / 4, math.sqrt(2) / 4))
        assert minus.area == pytest.approx(0.125, rel=1e-12)
        assert plus.area == pytest.approx(0.375, rel=1e-12)
        assert plus.area + minus.area == pytest.approx(triangle.area, rel=1e-12)

    def test_generic_chord_adds_two_vertices_per_piece(self, unit_square):
        plus, minus, _ = split(unit_square, Hyperplane(0.3, 0.4))
        assert vertex_count(plus) + vertex_count(minus) == 8

    def test_split_through_vertex_small_pieces(self, unit_square):
        # line through two opposite corners: both pieces are triangles
        plus, minus, trace = split(unit_square, Hyperplane(3 * math.pi / 4, 0.0))
        assert vertex_count(plus) == 3
        assert vertex_count(minus) == 3
        assert trace.length == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_snap_tolerance_absorbs_near_edge_line(self, unit_square):
        # within snap tolerance of the boundary: treated as a non-hitting line
        plus, minus, trace = split(unit_square, Hyperplane(0.0, 1e-16))
        assert (plus is None) != (minus is None)
        assert trace is None

    def test_sliver_raises_degenerate(self, unit_square):
        # corner cut with area ~1e-16, far below the sliver floor
        with pytest.raises(DegenerateSplit):
            split(unit_square, Hyperplane(math.pi / 4, 1e-8))

    # A needle about 5e-12 thick and 1.8 long, cut nearly along its length:
    # each piece is too thin for its own turn tolerance.  Found by a random search.
    NEEDLE = [
        (-0.9162589066243496, 2.4884563375748958e-12),
        (0.11148479565586711, -2.0500388700419752e-13),
        (0.8483794019049113, 3.215072901667789e-12),
        (0.01719412730243386, 5.074226263792332e-12),
    ]

    def test_needle_cut_along_its_length_leaves_no_piece(self):
        with pytest.raises(DegenerateSplit, match="both split pieces degenerate"):
            split(Polygon(self.NEEDLE), Hyperplane(1.5707963265900888, 1.331945357486856e-11))

    def test_degenerate_plus_piece_counts_as_a_tangent_line(self):
        C = Polygon(
            [
                (-0.9828504177009447, -3.3207577618875277e-12),
                (0.4804811741688033, 3.521971133787413e-12),
                (-0.3941167832859729, 2.307851107193058e-12),
            ]
        )
        h = Hyperplane(1.5707963269250875, 4.9223008069939966e-11)
        ux, uy = h.normal
        side = [x * ux + y * uy - h.a for x, y in C.vertices]
        assert min(side) < -C.snap_tol < C.snap_tol < max(side)  # a vertex beyond snap_tol on each side
        assert split(C, h) == (None, C, None)

    @pytest.mark.parametrize(
        "vertices, message",
        [
            ([(-1.0, 0.0), (0.0, -1.0), (1.0, 1.0)], "zero-length trace"),
            ([(-1.0, 0.0), (0.0, -1.0), (1.0, 0.0), (0.0, 1.0)], "no crossing point"),
        ],
        ids=["one-crossing", "none"],
    )
    def test_vertices_at_exactly_snap_tol_are_no_crossing_points(self, vertices, message):
        # the line x = -snap_tol puts each vertex with x = 0 at exactly
        # +snap_tol: in both pieces, but not on the trace
        C = Polygon(vertices)
        h = Hyperplane(0.0, -C.snap_tol)
        ux, uy = h.normal
        assert [x * ux + y * uy - h.a for x, y in C.vertices].count(C.snap_tol) == len(vertices) - 2
        with pytest.raises(DegenerateSplit, match=message):
            split(C, h)


class TestSupportWidth:
    def test_square_axis(self, unit_square):
        lo, hi = offset_interval(unit_square, 0.0)
        assert hi == pytest.approx(1.0)
        assert -lo == pytest.approx(0.0)

    def test_square_diagonal(self, unit_square):
        assert offset_interval(unit_square, math.pi / 4)[1] == pytest.approx(math.sqrt(2))
        assert width(unit_square, math.pi / 4) == pytest.approx(math.sqrt(2))

    def test_square_widths(self, unit_square):
        assert width(unit_square, 0.0) == pytest.approx(1.0)
        assert width(unit_square, math.pi / 2) == pytest.approx(1.0)

    def test_hitting_interval(self, unit_square):
        lo, hi = offset_interval(unit_square, 0.0)
        assert (lo, hi) == (0.0, 1.0)


class TestIntrinsicVolumes:
    def test_unit_square(self, unit_square):
        assert intrinsic_volumes(unit_square) == pytest.approx((1.0, 2.0, 1.0))

    def test_rectangle_2x3(self):
        r = rectangle(0, 0, 2, 3)
        assert intrinsic_volumes(r) == pytest.approx((1.0, 5.0, 6.0))

    def test_right_triangle(self, triangle):
        v0, v1, v2 = intrinsic_volumes(triangle)
        assert v0 == 1.0
        assert v1 == pytest.approx((2.0 + math.sqrt(2)) / 2.0)
        assert v2 == pytest.approx(0.5)

    @pytest.mark.parametrize("leg", [1e-8, 1e-9])
    def test_tiny_triangle_far_from_origin(self, leg):
        tri = Polygon([(0.5, 0.5), (0.5 + leg, 0.5), (0.5, 0.5 + leg)])
        assert tri.area == pytest.approx(leg * leg / 2, rel=1e-6)
        cx, cy = tri.centroid()
        assert (cx - 0.5, cy - 0.5) == pytest.approx((leg / 3, leg / 3), rel=1e-6)


class TestUniformSampling:
    def test_square_mean(self, unit_square, rng):
        n = 100_000
        pts = np.array([sample_uniform_point(unit_square, rng) for _ in range(n)])
        sigma = (1.0 / math.sqrt(12.0)) / math.sqrt(n)
        assert abs(pts[:, 0].mean() - 0.5) < 3 * sigma
        assert abs(pts[:, 1].mean() - 0.5) < 3 * sigma

    def test_containment(self, rng):
        poly = random_convex_polygon(rng, n_points=7)
        for _ in range(500):
            assert poly.contains_point(sample_uniform_point(poly, rng))

    def test_triangle_corner_probability(self, triangle, rng):
        # P(x + y < 0.5) = 0.25 by similar triangles
        n = 50_000
        hits = sum(1 for _ in range(n) if sum(sample_uniform_point(triangle, rng)) < 0.5)
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert abs(hits / n - 0.25) < 3 * sigma


def _random_hitting_line(poly, rng):
    theta = rng.random() * math.pi
    lo, hi = offset_interval(poly, theta)
    return Hyperplane(theta, lo + rng.random() * (hi - lo))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_split_additivity_and_perimeter(seed):
    rng = np.random.default_rng(seed)
    poly = random_convex_polygon(rng, n_points=int(rng.integers(4, 10)))
    h = _random_hitting_line(poly, rng)
    try:
        plus, minus, trace = split(poly, h)
    except DegenerateSplit:
        return
    if plus is None or minus is None:
        return
    assert abs(plus.area + minus.area - poly.area) <= 1e-12 * poly.area
    assert abs(
        plus.perimeter + minus.perimeter - poly.perimeter - 2 * trace.length
    ) <= 1e-10 * max(1.0, poly.perimeter)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_split_vertex_bound_and_convexity(seed):
    rng = np.random.default_rng(seed)
    poly = random_convex_polygon(rng, n_points=int(rng.integers(4, 10)))
    n = vertex_count(poly)
    h = _random_hitting_line(poly, rng)
    try:
        plus, minus, _ = split(poly, h)
    except DegenerateSplit:
        return
    for piece in (plus, minus):
        if piece is not None:
            assert vertex_count(piece) <= n + 2
            Polygon(piece.vertices)  # revalidates convexity


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_width_translation_invariance(seed):
    rng = np.random.default_rng(seed)
    poly = random_convex_polygon(rng, n_points=6)
    theta = rng.random() * math.pi
    moved = translate(poly, rng.standard_normal() * 10, rng.standard_normal() * 10)
    w = width(poly, theta)
    assert abs(width(moved, theta) - w) <= 1e-12 * max(1.0, w) * 20


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_hitting_predicate_matches_split(seed):
    rng = np.random.default_rng(seed)
    poly = random_convex_polygon(rng, n_points=6)
    theta = rng.random() * math.pi
    lo, hi = offset_interval(poly, theta)
    margin = 0.05 * (hi - lo)
    a = lo - margin + rng.random() * (hi - lo + 2 * margin)
    try:
        plus, minus, _ = split(poly, Hyperplane(theta, a))
    except DegenerateSplit:
        return
    both = plus is not None and minus is not None
    strictly_inside = lo + poly.snap_tol < a < hi - poly.snap_tol
    strictly_outside = a < lo - poly.snap_tol or a > hi + poly.snap_tol
    if strictly_inside:
        assert both
    if strictly_outside:
        assert not both


def _piece_test_polygon(rng, kind):
    center = tuple(rng.uniform(-1e3, 1e3, 2))
    if kind == "random":
        return random_convex_polygon(rng, n_points=int(rng.integers(3, 12)), scale=10 ** rng.uniform(-2, 2), center=center)
    if kind == "32-gon":
        return regular_ngon(center, 10 ** rng.uniform(-2, 2), 32)
    # a tiny right triangle far from the origin, as vertex-count trajectories reach
    leg = float(rng.choice([1e-8, 1e-9]))
    cx, cy = abs(center[0]) + 0.5, abs(center[1]) + 0.5
    return Polygon([(cx, cy), (cx + leg, cy), (cx, cy + leg)])


def _piece_test_line(rng, C, kind):
    if kind == "random":
        return _random_hitting_line(C, rng)
    vs = C.vertices
    i = int(rng.integers(len(vs)))
    (vx, vy), (wx, wy) = vs[i], vs[(i + 1) % len(vs)]
    if kind == "vertex":
        theta = rng.random() * math.pi
        return Hyperplane(theta, vx * math.cos(theta) + vy * math.sin(theta))
    # nearly parallel to the edge v -> w and within a few snap_tol of it: the
    # crossing point on that edge makes a nearly flat turn in one piece
    normal = math.atan2(vx - wx, wy - vy)
    theta = (normal + rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-16, -8)) % math.pi
    t = rng.random()
    mx, my = vx + t * (wx - vx), vy + t * (wy - vy)
    return Hyperplane(theta, mx * math.cos(theta) + my * math.sin(theta) + rng.uniform(-4, 4) * C.snap_tol)


def _split_checking_pieces(C, h):
    """split(C, h), checking every piece against the reference constructor; returns the number of slow passes.

    A piece that passes the fast check (`_strict_measures`) must also be kept
    point for point by the slow pass (`_convex_vertices`).
    """
    build = geometry._build  # split builds each piece with it, and rejects it by its InvalidPolygon
    slow_passes = 0

    def checked_build(piece, pts):
        nonlocal slow_passes
        expected = _reference_polygon(pts) if len(pts) >= 3 else None
        with mock.patch.object(geometry, "_convex_vertices", wraps=geometry._convex_vertices) as slow:
            try:
                build(piece, pts)
            except InvalidPolygon:
                assert expected is None
                raise
            finally:
                slow_passes += slow.call_count
        assert expected is not None
        assert (piece.vertices, piece.area, piece.perimeter, piece._scale, piece._box) == expected
        if not slow.call_count:
            assert geometry._convex_vertices(pts, piece.snap_tol, piece.snap_tol * piece._scale) == pts

    with mock.patch.object(geometry, "_build", checked_build):
        try:
            split(C, h)
        except DegenerateSplit:
            pass
    return slow_passes


@settings(max_examples=1000, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["random", "32-gon", "tiny"]),
    st.sampled_from(["random", "vertex", "near-edge"]),
)
def test_split_pieces_match_full_constructor(seed, polygon_kind, line_kind):
    rng = np.random.default_rng(seed)
    C = _piece_test_polygon(rng, polygon_kind)
    _split_checking_pieces(C, _piece_test_line(rng, C, line_kind))


def test_split_piece_fallback_is_reached():
    # random lines almost never make a flat turn; lines along an edge do
    slow_passes = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        C = _piece_test_polygon(rng, "random")
        slow_passes += _split_checking_pieces(C, _piece_test_line(rng, C, "near-edge"))
    assert slow_passes > 0


def test_split_piece_with_crossings_within_snap_tol_takes_the_slow_pass():
    # a line across the sharp apex of a thin triangle turned by 45 degrees:
    # its two crossing points lie within snap_tol of each other, and each
    # turns by more than the turn tolerance, so only the edge test catches them
    e, n = (math.sqrt(0.5), math.sqrt(0.5)), (-math.sqrt(0.5), math.sqrt(0.5))
    C = Polygon([(-0.01 * n[0], -0.01 * n[1]), e, (0.01 * n[0], 0.01 * n[1])])
    assert _split_checking_pieces(C, Hyperplane(math.pi / 4, 1.0 - 3.1e-11)) == 1


class TestRandomConvexPolygon:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_points": 2}, "at least 3 points"),
            ({"scale": 0.0}, "positive and finite"),
            ({"scale": -1.0}, "positive and finite"),
            ({"scale": math.inf}, "positive and finite"),
            ({"scale": math.nan}, "positive and finite"),
            ({"center": (math.inf, 0.0)}, "center must be finite"),
        ],
        ids=["two-points", "scale-0", "scale-negative", "scale-inf", "scale-nan", "center-inf"],
    )
    def test_rejects_inputs_that_no_draw_can_make_a_polygon_of(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            random_convex_polygon(np.random.default_rng(0), **kwargs)

    class Draws:
        def __init__(self, values):
            self.values = iter(values)

        def standard_normal(self):
            return next(self.values)

    def test_draws_again_until_the_hull_is_a_polygon(self):
        draws = self.Draws(
            [0.0] * 6  # one point three times: its hull has fewer than 3 points
            + [0.0, 0.0, 1.0, 0.0, 2.0, 1e-14]  # a turn within the tolerance: InvalidPolygon
            + [0.0, 0.0, 1.0, 0.0, 0.0, 1.0]
        )
        assert random_convex_polygon(draws, n_points=3) == Polygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        assert next(draws.values, None) is None

    @pytest.mark.parametrize(
        "kwargs",
        [{"center": (1e300, 0.0), "scale": 1e-300}, {"scale": 1e307}],
        ids=["scale-lost-in-center", "area-overflows"],
    )
    def test_gives_up_when_no_draw_is_a_polygon(self, kwargs):
        # every point rounds to the center, or every hull's area overflows
        with pytest.raises(ValueError, match=f"no polygon in {geometry.RANDOM_POLYGON_DRAWS} draws"):
            random_convex_polygon(np.random.default_rng(0), **kwargs)

    def test_gives_up_after_exactly_its_draws(self):
        triangle = [0.0, 0.0, 1.0, 0.0, 0.0, 1.0]
        draws = self.Draws([0.0] * 6 * geometry.RANDOM_POLYGON_DRAWS + triangle)
        with pytest.raises(ValueError, match="no polygon"):
            random_convex_polygon(draws, n_points=3)
        assert list(draws.values) == triangle


def test_diameter_is_the_largest_vertex_distance():
    rng = np.random.default_rng(5)
    for n in (3, 4, 7, 32):
        C = random_convex_polygon(rng, n_points=n)
        vs = C.vertices
        brute = max(math.hypot(p[0] - q[0], p[1] - q[1]) for i, p in enumerate(vs) for q in vs[i + 1:])
        assert C.diameter() == brute


class TestClipSegment:
    def test_crossing_segment(self, unit_square):
        s = clip_segment(Segment((-1.0, 0.5), (2.0, 0.5)), unit_square)
        assert s.length == pytest.approx(1.0)

    def test_disjoint_segment(self, unit_square):
        assert clip_segment(Segment((2.0, 2.0), (3.0, 3.0)), unit_square) is None

    def test_inside_segment_unchanged(self, unit_square):
        s = clip_segment(Segment((0.2, 0.2), (0.8, 0.8)), unit_square)
        assert s.p == (0.2, 0.2) and s.q == (0.8, 0.8)


def _test_polygon(rng, kind):
    center = tuple(rng.standard_normal(2) * 10 ** rng.uniform(-1, 3))
    size = 10 ** rng.uniform(-3, 3)
    if kind == "random":
        return random_convex_polygon(rng, n_points=int(rng.integers(3, 12)), scale=size, center=center)
    if kind == "probe":
        return regular_ngon(center, size, 32)
    # long thin triangle or quadrilateral, rotated
    thin = size * 10 ** rng.uniform(-9, -1)
    pts = [(0.0, 0.0), (size, 0.0), (size, thin)] + ([(0.0, thin)] if rng.random() < 0.5 else [])
    c, s = math.cos(rng.uniform(0, 2 * math.pi)), math.sin(rng.uniform(0, 2 * math.pi))
    return Polygon([(center[0] + c * x - s * y, center[1] + s * x + c * y) for x, y in pts])


def _band_segment(rng, C, shape):
    """A segment tangent to, or ending on, C's inscribed or circumscribed circle,
    moved off it by +-10^k * R for k in -15..-3, or a zero-length or shorter
    than snap_tol segment placed the same way.  The centre and radii are
    computed here independently of `Polygon._circle_terms`."""
    cx, cy = C.centroid()
    vs = C.vertices
    edges = list(zip(vs, vs[1:] + vs[:1]))
    outer = max(math.hypot(x - cx, y - cy) for x, y in vs)
    inner = min(
        ((x1 - x0) * (cy - y0) - (y1 - y0) * (cx - x0)) / math.hypot(x1 - x0, y1 - y0)
        for (x0, y0), (x1, y1) in edges
    )
    radius = inner if rng.random() < 0.5 else outer
    radius += outer * 10.0 ** int(rng.integers(-15, -2)) * rng.choice([-1.0, 1.0])
    aim = rng.integers(3)
    if aim == 0:  # toward a vertex, where the outer circle touches C
        x, y = vs[int(rng.integers(len(vs)))]
        phi = math.atan2(y - cy, x - cx)
    elif aim == 1:  # along an edge normal, where the inner circle may touch C
        (x0, y0), (x1, y1) = edges[int(rng.integers(len(edges)))]
        phi = math.atan2(x0 - x1, y1 - y0)
    else:
        phi = rng.uniform(0, 2 * math.pi)
    ux, uy = math.cos(phi), math.sin(phi)
    p = np.array([cx + radius * ux, cy + radius * uy])
    length = C._scale * 10 ** rng.uniform(-4, 1)
    if shape == "tangent":
        along = np.array([-uy, ux]) * length
        p = p - rng.random() * along
        q = p + along
    elif shape == "ending":  # leaves the circle outward, so its nearest point to the centre is p
        psi = phi + rng.uniform(-0.5, 0.5) * math.pi
        q = p + length * np.array([math.cos(psi), math.sin(psi)])
    elif shape == "point":
        q = p
    else:  # shorter than snap_tol
        psi = rng.uniform(0, 2 * math.pi)
        q = p + C.snap_tol * 10 ** rng.uniform(-3, 0) * np.array([math.cos(psi), math.sin(psi)])
    return Segment((float(p[0]), float(p[1])), (float(q[0]), float(q[1])))


def _test_segment(rng, C, kind):
    vs = C.vertices
    i = int(rng.integers(len(vs)))
    v, w = np.array(vs[i]), np.array(vs[(i + 1) % len(vs)])
    edge = w - v
    outward = np.array([edge[1], -edge[0]]) / np.hypot(*edge)
    # offsets from far inside the snap tolerance to well outside it, either side
    eps = C.snap_tol * 10 ** rng.uniform(-3, 5) * rng.choice([-1.0, 1.0])
    length = C._scale * 10 ** rng.uniform(-4, 1)
    angle = rng.choice([rng.uniform(0, 2 * math.pi), 0.0, math.pi / 2, math.atan2(edge[1], edge[0])])
    direction = np.array([math.cos(angle), math.sin(angle)])
    if kind == "near":
        p = v + eps * np.array([math.cos(rng.uniform(0, 7)), math.sin(rng.uniform(0, 7))])
        q = p + length * direction
    elif kind == "touching":
        p = v + rng.random() * edge + eps * outward
        q = p + length * direction * (1.0 if direction @ outward >= 0 else -1.0)
    elif kind == "vertex":
        p = v + length * rng.random() * direction
        q = v - length * rng.random() * direction
    elif kind == "collinear":  # with an edge, shifted off its line by eps
        p = v + rng.uniform(-1, 2) * edge + eps * outward
        q = v + rng.uniform(-1, 2) * edge + eps * outward
    else:
        return _band_segment(rng, C, kind)
    return Segment((float(p[0]), float(p[1])), (float(q[0]), float(q[1])))


@settings(max_examples=6000, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["random", "probe", "thin"]),
    st.sampled_from(["near", "touching", "vertex", "collinear", "tangent", "ending", "point", "short"]),
)
def test_clip_and_hit_equal_the_exact_references(seed, polygon_kind, segment_kind):
    """clip_segment and segment_hits_polygon, with the circle decision, give every result of the exact tests."""
    rng = np.random.default_rng(seed)
    try:
        C = _test_polygon(rng, polygon_kind)
    except InvalidPolygon:
        return
    seg = _test_segment(rng, C, segment_kind)
    assert clip_segment(seg, C) == _reference_clip_segment(seg, C)
    assert segment_hits_polygon(seg, C) == _reference_segment_hits_polygon(seg, C)


@pytest.mark.parametrize("polygon_kind", ["random", "probe", "thin"])
def test_batched_clip_and_hit_equal_the_scalar_ones(polygon_kind):
    """clip_segments and segments_hit_polygon give every float and flag of the scalar
    exact references, row by row, over all the segment kinds above."""
    kinds = ["near", "touching", "vertex", "collinear", "tangent", "ending", "point", "short"]
    decided = 0
    for seed in range(150):
        rng = np.random.default_rng((seed, 7))
        try:
            C = _test_polygon(rng, polygon_kind)
        except InvalidPolygon:
            continue
        segs = [_test_segment(rng, C, kind) for kind in kinds for _ in range(8)]
        xy = np.array([s.p + s.q for s in segs])
        expected = [_reference_clip_segment(s, C) for s in segs]
        rows, clipped, lengths = clip_segments(xy, C)
        assert rows.tolist() == [i for i, c in enumerate(expected) if c is not None]
        got = [Segment(tuple(r[:2]), tuple(r[2:])) for r in clipped.tolist()]
        assert got == [c for c in expected if c is not None]
        assert lengths == [c.length for c in got]
        assert segments_hit_polygon(xy, C).tolist() == [_reference_segment_hits_polygon(s, C) for s in segs]
        decided += len(rows)
    assert decided > 1000  # the comparison saw many clipped segments, not only misses
    rows, clipped, lengths = clip_segments(np.zeros((0, 4)), C)
    assert (len(rows), clipped.shape, lengths) == (0, (0, 4), [])
    assert segments_hit_polygon(np.zeros((0, 4)), C).shape == (0,)


@pytest.mark.parametrize("polygon_kind", ["random", "probe", "thin"])
def test_containment_equals_the_exact_reference(polygon_kind):
    """contains_point and contains_polygon, one edge_margins call each, give every answer of the scalar test."""
    inside = outside = held = 0
    for seed in range(150):
        rng = np.random.default_rng((seed, 8))
        try:
            C = _test_polygon(rng, polygon_kind)
        except InvalidPolygon:
            continue
        segs = [_test_segment(rng, C, kind) for kind in ["near", "touching", "vertex", "collinear"] for _ in range(8)]
        points = [pt for s in segs for pt in (s.p, s.q)]
        for p in points:
            expected = _reference_contains_point(C, p)
            assert C.contains_point(p) == expected
            inside += expected
            outside += not expected
        for p, q, r in zip(points, points[1:], points[2:]):
            ccw = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]) > 0
            try:
                P = Polygon([p, q, r] if ccw else [p, r, q])
            except InvalidPolygon:
                continue
            tol = max(C.snap_tol, P.snap_tol)
            expected = all(_reference_contains_point(C, v, tol) for v in P.vertices)
            assert C.contains_polygon(P) == expected
            held += expected
    assert inside > 1000 and outside > 1000 and held > 100


def test_circle_decision_skips_the_exact_tests(monkeypatch):
    probe = regular_ngon((0.5, 0.5), 0.1, 32)
    cases = [
        (Segment((0.0, 0.45), (1.0, 0.55)), True),  # through the centre
        (Segment((0.5, 0.52), (0.5, 0.52)), True),  # zero length, deep inside
        (Segment((0.405, 0.405), (0.415, 0.405)), False),  # in the box's corner, outside the circle
        (Segment((0.0, 0.385), (1.0, 0.385)), False),  # passes below the disk
    ]
    for seg, expected in cases:  # the exact tests agree
        assert _reference_segment_hits_polygon(seg, probe) == expected

    def exact_test(*args, **kwargs):
        raise AssertionError("the circle decision fell through to an exact test")

    monkeypatch.setattr(geometry, "edge_margins", exact_test)
    monkeypatch.setattr(geometry, "clip_segments", exact_test)
    with pytest.raises(AssertionError):  # the containment methods are edge_margins calls, so patched too
        probe.contains_point((0.5, 0.5))
    for seg, expected in cases:
        assert segment_hits_polygon(seg, probe) == expected
    xy = np.array([seg.p + seg.q for seg, _ in cases])
    assert segments_hit_polygon(xy, probe).tolist() == [expected for _, expected in cases]
