"""Convex-polygon primitives: line splits, offset intervals/width, intrinsic volumes, sampling.

Everything here is pure and reentrant; randomness always comes from an rng
passed in by the caller.  Polygons are immutable, counter-clockwise, strictly
convex up to a snap tolerance that is relative to the polygon's size.
"""

from __future__ import annotations

import math
import sys
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DegenerateSplit, InvalidPolygon

# Relative snap tolerance for vertex dedup and near-vertex line hits.
SNAP_REL = 1e-12
# A nonempty split piece smaller than this fraction of the parent is a sliver.
SLIVER_AREA_REL = 1e-14
# random_convex_polygon gives up after this many draws without a polygon; at a usable scale
# the first draw is one with probability 1.
RANDOM_POLYGON_DRAWS = 100


@dataclass(frozen=True)
class Hyperplane:
    """A line {x : <x, u> = a} with unit normal u = (cos theta, sin theta), theta in [0, pi)."""

    theta: float
    a: float

    def __post_init__(self):
        check_line(self.theta, self.a)

    @property
    def normal(self) -> tuple[float, float]:
        return (math.cos(self.theta), math.sin(self.theta))


def check_line(theta: float, a: float) -> None:
    """The checks of a line (theta, a): theta in [0, pi) and a finite offset; raises ValueError."""
    if not (0.0 <= theta < math.pi):
        raise ValueError(f"theta must lie in [0, pi), got {theta}")
    if not math.isfinite(a):
        raise ValueError("hyperplane parameters must be finite")


class Segment:
    """A closed line segment with distinct endpoints; immutable, with the eq, hash
    and repr of a frozen dataclass of the fields p and q."""

    __slots__ = ("p", "q")
    __match_args__ = ("p", "q")

    def __init__(self, p: tuple[float, float], q: tuple[float, float]):
        _set_p(self, p)
        _set_q(self, q)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.p, self.q) == (other.p, other.q)
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.q))

    def __repr__(self):
        return f"Segment(p={self.p!r}, q={self.q!r})"

    def __reduce__(self):
        return (Segment, (self.p, self.q))

    @property
    def length(self) -> float:
        return math.hypot(self.q[0] - self.p[0], self.q[1] - self.p[1])


# Writers of Segment's slots, which go around its __setattr__ (that refuses every write).
_set_p = Segment.p.__set__
_set_q = Segment.q.__set__


class Polygon:
    """Strictly convex polygon, CCW vertex tuple, canonicalized and validated once."""

    __slots__ = ("vertices", "area", "perimeter", "_diameter", "_scale", "_box", "_circles", "_edge_arrays")

    def __init__(self, vertices: Iterable[Sequence[float]]):
        pts = [(float(x), float(y)) for x, y in vertices]
        for x, y in pts:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise InvalidPolygon("non-finite vertex coordinate")
        if len(pts) < 3:
            raise InvalidPolygon(f"need at least 3 vertices, got {len(pts)}")
        _build(self, pts)

    def __setattr__(self, name, value):
        raise AttributeError("Polygon is immutable")

    def __eq__(self, other):
        return isinstance(other, Polygon) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Polygon({list(self.vertices)!r})"

    def __reduce__(self):
        return (Polygon, (list(self.vertices),))

    @property
    def snap_tol(self) -> float:
        return SNAP_REL * self._scale

    def diameter(self) -> float:
        """Largest vertex-pair distance (valid width envelope for every direction)."""
        d = self._diameter
        if d is None:
            vs = self.vertices
            hypot = math.hypot
            d = 0.0
            for i, (xi, yi) in enumerate(vs):
                for xj, yj in vs[i + 1:]:
                    e = hypot(xi - xj, yi - yj)
                    if e > d:
                        d = e
            _set_diameter(self, d)
        return d

    def _reach_terms(self) -> tuple[float, float]:
        """(a, b): the exact tests accept no point further than a + b*L from
        the polygon; see the derivation above `edge_margins`."""
        vs = self.vertices
        n = len(vs)
        a = b = 0.0
        for i in range(n):
            x0, y0 = vs[i - 1]
            x1, y1 = vs[i]
            x2, y2 = vs[(i + 1) % n]
            l_in = math.hypot(x1 - x0, y1 - y0)
            l_out = math.hypot(x2 - x1, y2 - y1)
            sine = _orient(x0, y0, x1, y1, x2, y2) / (l_in * l_out)
            if sine <= 1e-14:  # too flat for the computed turn to be trusted
                return (math.inf, math.inf)
            a = max(a, (1.0 / l_in + 1.0 / l_out) / sine)
            b = max(b, 1.0 / sine)
        return (2.0 * self.snap_tol * self._scale * a, 40.0 * sys.float_info.epsilon * b)

    def _circle_terms(self) -> tuple[float, float, float, float, float, float]:
        """(cx, cy, far, far_rate, deep, deep_rate): a segment at distance d from
        (cx, cy), with s the sum of |x - cx| and |y - cy| over its endpoints,
        misses when d > far + far_rate*s and hits when d < deep - deep_rate*s;
        see `segment_hits_polygon`."""
        t = self._circles
        if t is None:
            cx, cy = self.centroid()
            vs = self.vertices
            hypot = math.hypot
            outer = max(hypot(x - cx, y - cy) for x, y in vs)
            inner = min(
                _orient(x0, y0, x1, y1, cx, cy) / hypot(x1 - x0, y1 - y0)
                for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1])
            )
            x_lo, y_lo, x_hi, y_hi = self._box
            k = max(x_hi, cx) - min(x_lo, cx) + max(y_hi, cy) - min(y_lo, cy)
            a, b = self._reach_terms()
            eps = sys.float_info.epsilon
            far_slope = b + 16.0 * eps
            t = (
                cx,
                cy,
                outer + a + far_slope * k,
                2.0 * far_slope,
                inner - self.snap_tol - 64.0 * eps * (k + max(abs(cx), abs(cy))),
                192.0 * eps,
            )
            _set_circles(self, t)
        return t

    def centroid(self) -> tuple[float, float]:
        cx = cy = 0.0
        a2 = 0.0
        ox, oy = self.vertices[0]  # local origin, as for the area in __init__
        rel = [(x - ox, y - oy) for x, y in self.vertices]
        for (x0, y0), (x1, y1) in zip(rel, rel[1:] + rel[:1]):
            w = x0 * y1 - x1 * y0
            a2 += w
            cx += (x0 + x1) * w
            cy += (y0 + y1) * w
        return (ox + cx / (3.0 * a2), oy + cy / (3.0 * a2))

    def contains_point(self, p: Sequence[float], tol: Optional[float] = None) -> bool:
        """Closed containment test (`edge_margins`); tol widens the polygon slightly."""
        if tol is None:
            tol = self.snap_tol
        return bool(edge_margins(self, p[0], p[1])[0] >= -tol * self._scale)

    def contains_polygon(self, other: "Polygon") -> bool:
        """Every vertex of other passes `contains_point` at the larger snap tolerance."""
        x, y = np.array(other.vertices).T
        return bool(edge_margins(self, x, y).min() >= -max(self.snap_tol, other.snap_tol) * self._scale)


# Writers of Polygon's slots, which go around its __setattr__ (that refuses every write).
_set_vertices = Polygon.vertices.__set__
_set_area = Polygon.area.__set__
_set_perimeter = Polygon.perimeter.__set__
_set_diameter = Polygon._diameter.__set__
_set_scale = Polygon._scale.__set__
_set_box = Polygon._box.__set__
_set_circles = Polygon._circles.__set__
_set_edge_arrays = Polygon._edge_arrays.__set__


def _build(poly: Polygon, pts: list[tuple[float, float]]) -> None:
    """Check at least 3 finite points as a CCW strictly convex polygon and set poly's slots.

    The vertices start at the lexicographically smallest one.  `_strict_measures`
    tests them and sums their measures in one pass.  `_convex_vertices` drops or
    rejects points, and runs only when that test fails: when it holds, the slow
    pass would keep every point in order.  It runs on the points as given, as
    which of two near duplicates it keeps depends on where it starts."""
    x_lo = x_hi = pts[0][0]
    y_lo = y_hi = pts[0][1]
    for x, y in pts:
        if x < x_lo:
            x_lo = x
        elif x > x_hi:
            x_hi = x
        if y < y_lo:
            y_lo = y
        elif y > y_hi:
            y_hi = y
    scale = max(x_hi - x_lo, y_hi - y_lo)
    if scale <= 0.0:
        raise InvalidPolygon("degenerate polygon: zero extent")
    tol = SNAP_REL * scale
    cross_tol = tol * scale
    start = pts.index(min(pts))
    kept = pts[start:] + pts[:start]
    measures = _strict_measures(kept, tol, cross_tol)
    if measures is None:
        kept = _convex_vertices(pts, tol, cross_tol)
        start = kept.index(min(kept))
        kept = kept[start:] + kept[:start]
        measures = _measures(kept)
    area2, perim, flips = measures
    if area2 <= 0.0:
        raise InvalidPolygon("non-positive signed area")
    if not math.isfinite(area2):  # finite points whose area overflows, or a NaN from inf - inf
        raise InvalidPolygon("non-finite signed area")
    if flips > 2:
        raise InvalidPolygon("boundary winds more than once")

    # the box of the points covers the kept vertices, a subset of them
    _set_vertices(poly, tuple(kept))
    _set_area(poly, 0.5 * area2)
    _set_perimeter(poly, perim)
    _set_diameter(poly, None)
    _set_scale(poly, scale)
    _set_box(poly, (x_lo, y_lo, x_hi, y_hi))
    _set_circles(poly, None)
    _set_edge_arrays(poly, None)


def _measures(kept: list[tuple[float, float]]) -> tuple[float, float, int]:
    """(2 * signed area, perimeter, sign flips of the edge dy) of the closed path through kept.

    When all turns are left turns, the boundary winds once exactly when the
    signs of the nonzero edge dy change at most twice (up, then down).  The
    cross products are taken about kept[0]: about (0, 0) they cancel for a
    small cell far from the origin."""
    hypot = math.hypot
    area2 = 0.0
    perim = 0.0
    up = None
    flips = 0
    ox, oy = x0, y0 = kept[0]
    for x1, y1 in kept[1:] + kept[:1]:
        area2 += (x0 - ox) * (y1 - oy) - (x1 - ox) * (y0 - oy)
        perim += hypot(x1 - x0, y1 - y0)
        dy = y1 - y0
        if dy != 0.0:
            if up is not None and up != (dy > 0.0):
                flips += 1
            up = dy > 0.0
        x0, y0 = x1, y1
    return area2, perim, flips


def _strict_measures(
    kept: list[tuple[float, float]], tol: float, cross_tol: float
) -> Optional[tuple[float, float, int]]:
    """`_measures(kept)`, with the same sums in the same order, or None unless every
    edge is longer than tol and every turn is a left turn by more than cross_tol,
    the two tests of `_convex_vertices`."""
    hypot = math.hypot
    area2 = 0.0
    perim = 0.0
    up = None
    flips = 0
    ax, ay = kept[-1]
    ox, oy = bx, by = kept[0]
    for cx, cy in kept[1:] + kept[:1]:
        # edge b -> c, and the turn at b; a NaN turn fails, as `_convex_vertices` drops it
        e = hypot(cx - bx, cy - by)
        if not (e > tol and (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > cross_tol):
            return None
        area2 += (bx - ox) * (cy - oy) - (cx - ox) * (by - oy)
        perim += e
        dy = cy - by
        if dy != 0.0:
            if up is not None and up != (dy > 0.0):
                flips += 1
            up = dy > 0.0
        ax, ay, bx, by = bx, by, cx, cy
    return area2, perim, flips


def _convex_vertices(pts: list[tuple[float, float]], tol: float, cross_tol: float) -> list[tuple[float, float]]:
    """The points without consecutive duplicates (within tol), then without
    collinear ones (turns within cross_tol); raises InvalidPolygon on a right
    turn or when fewer than 3 are left."""
    dedup: list[tuple[float, float]] = []
    for p in pts:
        if not dedup or math.hypot(p[0] - dedup[-1][0], p[1] - dedup[-1][1]) > tol:
            dedup.append(p)
    while len(dedup) > 1 and math.hypot(dedup[0][0] - dedup[-1][0], dedup[0][1] - dedup[-1][1]) <= tol:
        dedup.pop()
    if len(dedup) < 3:
        raise InvalidPolygon("fewer than 3 distinct vertices")

    n = len(dedup)
    kept = []
    for i in range(n):
        ax, ay = dedup[i - 1]
        bx, by = dedup[i]
        cx, cy = dedup[(i + 1) % n]
        cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if cross > cross_tol:
            kept.append(dedup[i])
        elif cross < -cross_tol:
            raise InvalidPolygon("vertices not in CCW convex position")
        # collinear midpoints are dropped
    if len(kept) < 3:
        raise InvalidPolygon("polygon collapses after collinear removal")
    return kept


def rectangle(x0: float, y0: float, x1: float, y1: float) -> Polygon:
    return Polygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


def regular_ngon(center: Sequence[float], radius: float, n: int) -> Polygon:
    cx, cy = center
    return Polygon(
        [(cx + radius * math.cos(2 * math.pi * k / n), cy + radius * math.sin(2 * math.pi * k / n)) for k in range(n)]
    )


def scale_about_centroid(C: Polygon, factor: float) -> Polygon:
    """Shrink/grow about the centroid; for factor in (0, 1] the result is contained in C."""
    cx, cy = C.centroid()
    return Polygon([(cx + factor * (x - cx), cy + factor * (y - cy)) for x, y in C.vertices])


def random_convex_polygon(
    rng, n_points: int = 8, scale: float = 1.0, center: Sequence[float] = (0.0, 0.0)
) -> Polygon:
    """Convex hull of gaussian points, as a valid polygon.

    Draws again until the hull is one; raises ValueError first when no draw can give one, and
    after RANDOM_POLYGON_DRAWS draws without one (a scale lost in the rounding of the center,
    or one whose coordinates or area overflow)."""
    if n_points < 3:
        raise ValueError(f"need at least 3 points, got {n_points}")
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    cx, cy = center
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise ValueError(f"center must be finite, got {center}")
    for _ in range(RANDOM_POLYGON_DRAWS):
        pts = [(cx + scale * rng.standard_normal(), cy + scale * rng.standard_normal()) for _ in range(n_points)]
        hull = _convex_hull(pts)
        if len(hull) >= 3:
            try:
                return Polygon(hull)
            except InvalidPolygon:
                continue
    raise ValueError(f"no polygon in {RANDOM_POLYGON_DRAWS} draws of {n_points} points at scale {scale} about {center}")


def _convex_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Andrew monotone chain, CCW output."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def build(seq):
        out: list[tuple[float, float]] = []
        for p in seq:
            while len(out) >= 2 and _orient(*out[-2], *out[-1], *p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = build(pts)
    upper = build(reversed(pts))
    return lower[:-1] + upper[:-1]


def offset_interval(C: Polygon, theta: float) -> tuple[float, float]:
    """Offsets a for which the line (theta, a) hits C: [-h_C(-u), h_C(u)]."""
    ux = math.cos(theta)
    uy = math.sin(theta)
    proj = [x * ux + y * uy for x, y in C.vertices]
    return (min(proj), max(proj))


def width(C: Polygon, theta: float) -> float:
    lo, hi = offset_interval(C, theta)
    return hi - lo


def intrinsic_volumes(C: Polygon) -> tuple[float, float, float]:
    """(1, perimeter/2, area) in the standard 2D normalization."""
    return (1.0, 0.5 * C.perimeter, C.area)


def vertex_count(C: Polygon) -> int:
    return len(C.vertices)


def split(
    C: Polygon, h: Hyperplane
) -> tuple[Optional[Polygon], Optional[Polygon], Optional[Segment]]:
    """Split C by h into (C n h+, C n h-, h n C): `split_line` by h's normal and offset."""
    ux, uy = h.normal
    return split_line(C, ux, uy, h.a)


def split_line(
    C: Polygon, ux: float, uy: float, a: float
) -> tuple[Optional[Polygon], Optional[Polygon], Optional[Segment]]:
    """Split C by the line {x : <x, (ux, uy)> = a} into (C n h+, C n h-, h n C).

    (ux, uy) is the unit normal (cos theta, sin theta) of the line.  A side
    with empty interior comes back as None; the trace is None unless both
    sides are nonempty.  Raises DegenerateSplit for sliver pieces so the
    caller can resample the line.  Each piece is built by `_build` from the
    parent's vertices and the crossing points, in the parent's CCW order, so
    it is exactly what `Polygon(points)` would build; the points are CCW
    finite floats, so `Polygon.__init__` has nothing to check.  Each side has
    a vertex beyond snap_tol, and its piece gets it, a point before it and a
    point after it, so `_build` gets at least 3 points.  A piece that
    `_build` rejects is degenerate.
    """
    vs = C.vertices
    tol = C.snap_tol

    side = [vx * ux + vy * uy - a for vx, vy in vs]
    if min(side) >= -tol:
        return (C, None, None)
    if max(side) <= tol:
        return (None, C, None)

    plus_pts: list[tuple[float, float]] = []
    minus_pts: list[tuple[float, float]] = []
    cross_pts: list[tuple[float, float]] = []
    for v, s, w, s2 in zip(vs, side, vs[1:] + vs[:1], side[1:] + side[:1]):
        if s > tol:
            plus_pts.append(v)
            if s2 >= -tol:
                continue
        elif s < -tol:
            minus_pts.append(v)
            if s2 <= tol:
                continue
        else:  # in both pieces, and a crossing point unless at exactly +-tol
            plus_pts.append(v)
            minus_pts.append(v)
            if -tol < s < tol:
                cross_pts.append(v)
            continue
        # the edge v -> w crosses from one side beyond tol to the other
        t = s / (s - s2)
        ip = (v[0] + t * (w[0] - v[0]), v[1] + t * (w[1] - v[1]))
        plus_pts.append(ip)
        minus_pts.append(ip)
        cross_pts.append(ip)

    new = object.__new__
    plus = new(Polygon)
    try:
        _build(plus, plus_pts)
    except InvalidPolygon:
        plus = None
    minus = new(Polygon)
    try:
        _build(minus, minus_pts)
    except InvalidPolygon:
        minus = None

    if plus is None and minus is None:
        raise DegenerateSplit("both split pieces degenerate")
    if plus is None:
        return (None, C, None)
    if minus is None:
        return (C, None, None)

    floor = SLIVER_AREA_REL * C.area
    if plus.area < floor or minus.area < floor:
        raise DegenerateSplit(
            f"sliver piece: areas {plus.area:.3e}/{minus.area:.3e} vs parent {C.area:.3e}"
        )

    # Trace endpoints: the two extreme crossing points along the line direction,
    # with ties in list order, as a stable sort leaves them.  A vertex at exactly
    # +-tol from the line is in both pieces but is no crossing point, so there
    # may be fewer than two.
    dx, dy = -uy, ux  # along the line
    if len(cross_pts) == 2:
        p0, p1 = cross_pts
        if p1[0] * dx + p1[1] * dy < p0[0] * dx + p0[1] * dy:
            p0, p1 = p1, p0
    elif cross_pts:
        cross_pts.sort(key=lambda p: p[0] * dx + p[1] * dy)
        p0, p1 = cross_pts[0], cross_pts[-1]
    else:
        raise DegenerateSplit("no crossing point")
    if math.hypot(p1[0] - p0[0], p1[1] - p0[1]) <= tol:
        raise DegenerateSplit("zero-length trace")
    trace = new(Segment)  # Segment(p0, p1), less the call to its __init__
    _set_p(trace, p0)
    _set_q(trace, p1)
    return (plus, minus, trace)


def sample_uniform_point(C: Polygon, rng) -> tuple[float, float]:
    """Uniform point in C via fan triangulation and the square-root trick."""
    vs = C.vertices
    n = len(vs)
    x0, y0 = vs[0]
    areas = []
    total = 0.0
    for i in range(1, n - 1):
        x1, y1 = vs[i]
        x2, y2 = vs[i + 1]
        a = 0.5 * abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
        total += a
        areas.append(total)
    u = rng.random() * total
    k = 0
    while areas[k] < u and k < len(areas) - 1:
        k += 1
    x1, y1 = vs[k + 1]
    x2, y2 = vs[k + 2]
    r1 = math.sqrt(rng.random())
    r2 = rng.random()
    px = (1 - r1) * x0 + r1 * ((1 - r2) * x1 + r2 * x2)
    py = (1 - r1) * y0 + r1 * ((1 - r2) * y1 + r2 * y2)
    return (px, py)


# How far outside C the exact tests accept a point.
#
# Let tau = C.snap_tol * C._scale and, for an edge e from v0, cross_e(x) =
# cross(e, x - v0).  The containment test (`edge_margins`) and the
# parallel-edge rule of `clip_segments` accept x when cross_e(x) >= -tau for
# every edge, that is up to tau/|e| beyond e's line.  When `clip_segments`
# returns a row, its start p + t0*d, 0 <= t0 <= 1, satisfies cross_e >= 0 for
# every edge not parallel to it, because t0 lies on the inner side of each
# edge crossing.  Rounding moves each computed cross product by at most
# 20u*|e|*L (u = eps/2), where L is the x span plus the y span of the
# segment's and C's boxes together, since num, den and t0*den are sums of
# products of an edge component with a distance at most L.  So every point the
# tests accept satisfies cross_e(x) >= -tau_e, with tau_e = tau + 20u*|e|*L.
#
# Take a vertex v furthest along some direction.  Its neighbours are no
# further, so -e_in and e_out point back from that direction, and the turn
# X = cross(e_in, e_out) is positive.  The two relaxed constraints at v alone
# leave the wedge v + w + cone(-e_in, e_out), w = (tau_out*e_in -
# tau_in*e_out)/X, which reaches no further along the direction than v + w.
# With s = X/(|e_in||e_out|), the sine of the turn,
#     |w| <= tau*(1/|e_in| + 1/|e_out|)/s + 40u*L/s.
# That holds for every direction, so no accepted point lies further from C
# than the maximum of that bound over the vertices.  `_reach_terms` doubles
# the maximum, for the rounding of s and of the comparisons, and gives it up
# when a turn is too flat to trust (s <= 1e-14; s is computed to within 4u).


def _edges(C: Polygon) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(x0, y0, ex, ey): the start and the vector of each of C's edges, in CCW
    order, as (n_edges, 1) arrays that broadcast against a 1-d array of points.
    Built on first use and kept read-only on C."""
    edges = C._edge_arrays
    if edges is None:
        vs = C.vertices
        v = np.array(vs + vs[:1])
        e = v[1:] - v[:-1]
        edges = (v[:-1, 0, None], v[:-1, 1, None], e[:, 0, None], e[:, 1, None])
        for a in edges:
            a.flags.writeable = False
        _set_edge_arrays(C, edges)
    return edges


def edge_margins(C: Polygon, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The least of (x1-x0)*(y-y0) - (y1-y0)*(x-x0) over C's edges, per point.

    The closed containment test: a point is in C, widened by the snap
    tolerance, when its margin is at least -C.snap_tol*C._scale
    (`Polygon.contains_point`).
    """
    x0, y0, ex, ey = _edges(C)
    return (ex * (y - y0) - ey * (x - x0)).min(axis=0)


def segment_rows(segments: Iterable[Segment]) -> np.ndarray:
    """The segments as the rows (px, py, qx, qy) of an (n, 4) float array."""
    return np.array([s.p + s.q for s in segments], dtype=float).reshape(-1, 4)


def clip_segment(seg: Segment, C: Polygon) -> Optional[Segment]:
    """Intersection of a segment with a convex polygon, or None if empty/degenerate.

    `clip_segments` of one row.
    """
    _, clipped, _ = clip_segments(segment_rows([seg]), C)
    if not len(clipped):
        return None
    px, py, qx, qy = clipped[0].tolist()
    return Segment((px, py), (qx, qy))


def clip_segments(xy: np.ndarray, C: Polygon) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Intersection of each row (px, py, qx, qy) of xy with C (Cyrus-Beck).

    Returns (rows, clipped, lengths): the indices of the rows that clip to a
    segment longer than snap_tol, those segments as rows, and their
    `Segment.length`s (by `math.hypot`).  A row parallel to an edge is cut
    only when it lies more than the snap tolerance outside that edge.
    """
    px, py, qx, qy = xy.T
    dx = qx - px
    dy = qy - py
    # one row per edge; inside means cross((edge), (point - v0)) >= 0
    x0, y0, ex, ey = _edges(C)
    num = ex * (py - y0) - ey * (px - x0)
    den = ex * dy - ey * dx
    parallel = np.abs(den) < 1e-300
    alive = ~(parallel & (num < -C.snap_tol * C._scale)).any(axis=0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = -num / den
    # the largest entry and the smallest exit parameter, within [0, 1]
    t0 = np.where(~parallel & (den > 0) & (t > 0.0), t, 0.0).max(axis=0)
    t1 = np.where(~parallel & (den < 0) & (t < 1.0), t, 1.0).min(axis=0)
    rows = np.flatnonzero(alive & (t0 <= t1))

    # snap to the original endpoints so re-clipping is exactly idempotent;
    # the threshold is geometric (absolute movement), not parametric
    px, py, dx, dy, t0, t1 = px[rows], py[rows], dx[rows], dy[rows], t0[rows], t1[rows]
    hypot = math.hypot
    seg_len = np.array([hypot(u, v) for u, v in zip(dx.tolist(), dy.tolist())])
    with np.errstate(divide="ignore"):
        snap = np.where(seg_len > 0, np.maximum(1e-12, C.snap_tol / seg_len), 1e-12)
    t0 = np.where(t0 < snap, 0.0, t0)
    t1 = np.where(t1 > 1.0 - snap, 1.0, t1)
    clipped = np.column_stack(
        (
            np.where(t0 == 0.0, px, px + t0 * dx),
            np.where(t0 == 0.0, py, py + t0 * dy),
            np.where(t1 == 1.0, qx[rows], px + t1 * dx),
            np.where(t1 == 1.0, qy[rows], py + t1 * dy),
        )
    )
    lengths = [hypot(x1 - x0, y1 - y0) for x0, y0, x1, y1 in clipped.tolist()]
    long = [i for i, length in enumerate(lengths) if length > C.snap_tol]
    return rows[long], clipped[long], [lengths[i] for i in long]


def _orient(ax, ay, bx, by, cx, cy) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


# Early decision by the inner and outer circles, exact with respect to the
# full tests.
#
# Let c = C.centroid() as computed, R the largest vertex distance from c and r
# the smallest signed distance from c to an edge line, so C lies in the disk
# B(c, R) and, when r > 0, holds B(c, r).  For a segment p -> q let s be the sum
# of |p_x - c_x|, |p_y - c_y|, |q_x - c_x| and |q_y - c_y|, k the x span plus
# the y span of C's box and c together, and S = k + 2s.  S bounds L above (an
# axis span of the union of the two boxes is at most the box's plus twice the
# larger endpoint offset from c), and with it |p - c|, |q - c|, |q - p| and R;
# M = max(|c_x|, |c_y|) + s bounds every coordinate on the segment.  d, the
# distance from c to the segment, is computed within 20u*S (u = eps/2 as
# above): each branch below rounds by at most 10u*S, and a branch taken
# wrongly (t near 0 or near |q - p|^2, computed within 8u*S*|q - p|) has the
# foot of the perpendicular within 8u*S of the endpoint.  np.hypot may differ
# from math.hypot by 1 ulp, which that bound covers.  The computed R and r
# are within 3u*S and 8u*S.
#
# Far.  By the wedge argument above, every accepted point lies within
# rho = a + b*L of C, (a, b) = `_reach_terms()`, and within R + rho of c.
# d > R + a + (b + 16eps)*S thus leaves no accepted point on the segment:
# 16eps*S = 32u*S covers the rounding of d and R, and the doubling in
# `_reach_terms` the rounding of the sum.
#
# Deep.  Let delta = r - d > 0 and x the point of the segment nearest c; then
# B(x, delta) lies in C, and a point y with B(y, h) in C has cross_e(y) >=
# h*|e| for every edge.  If an endpoint lies within delta/2 of x it is delta/2
# deep, and the containment test accepts it once delta/2 > 20u*L.  Otherwise
# x -/+ (delta/2)(q - p)/|q - p| lie on the segment, at t- < t+, both delta/2
# deep.  In `clip_segments` the computed function num + t*den of an edge is
# within 20u*|e|*L of cross_e on [0, 1], so for den > 0 it is positive at t-
# and its root lies below t-; the quotient adds u, so t0 <= t- + u.  Likewise
# t1 >= t+ - u and no parallel edge rejects.  Snapping only widens [t0, t1]
# and the ends are computed within 3u*M of the exact points, so the clip is
# longer than snap_tol once delta > snap_tol + 40u*(L + M).
# d < r - snap_tol - 64eps*(S + M) keeps delta above that after the rounding
# of d, r and the sum.


def segment_hits_polygon(seg: Segment, C: Polygon) -> bool:
    """Nonempty intersection of a closed segment with a closed convex polygon.

    `segments_hit_polygon` of one row.
    """
    return bool(segments_hit_polygon(segment_rows([seg]), C)[0])


def segments_hit_polygon(xy: np.ndarray, C: Polygon) -> np.ndarray:
    """Whether each closed segment, a row (px, py, qx, qy) of xy, meets C, as a bool array.

    Decided from C's inner and outer circles when the segment passes well
    inside the one or well outside the other.  The rows in the band between
    go to the exact tests: a hit when an endpoint is in C or the segment
    clips to a piece.
    """
    cx, cy, far, far_rate, deep, deep_rate = C._circle_terms()
    px, py, qx, qy = xy.T
    ax, ay = px - cx, py - cy
    bx, by = qx - cx, qy - cy
    vx, vy = qx - px, qy - py
    t = -(ax * vx + ay * vy)
    vv = vx * vx + vy * vy
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(
            t <= 0.0,
            np.hypot(ax, ay),
            np.where(t >= vv, np.hypot(bx, by), np.abs(ax * vy - ay * vx) / np.sqrt(vv)),
        )
    s = np.abs(ax) + np.abs(ay) + np.abs(bx) + np.abs(by)
    hit = d < deep - deep_rate * s
    band = np.flatnonzero(~hit & ~(d > far + far_rate * s))
    if len(band):
        rows = xy[band]
        floor = -C.snap_tol * C._scale
        hit[band] = (edge_margins(C, rows[:, 0], rows[:, 1]) >= floor) | (
            edge_margins(C, rows[:, 2], rows[:, 3]) >= floor
        )
        hit[band[clip_segments(rows, C)[0]]] = True
    return hit
