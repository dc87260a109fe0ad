"""Convex-polygon primitives: line splits, offset intervals/width, intrinsic volumes, sampling.

Everything here is pure and reentrant; randomness always comes from an rng
passed in by the caller.  Polygons are immutable, counter-clockwise, strictly
convex up to a snap tolerance that is relative to the polygon's size.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import DegenerateSplit, InvalidPolygon

# Relative snap tolerance for vertex dedup and near-vertex line hits.
SNAP_REL = 1e-12
# A nonempty split piece smaller than this fraction of the parent is a sliver.
SLIVER_AREA_REL = 1e-14


@dataclass(frozen=True)
class Hyperplane:
    """A line {x : <x, u> = a} with unit normal u = (cos theta, sin theta), theta in [0, pi)."""

    theta: float
    a: float

    def __post_init__(self):
        if not (0.0 <= self.theta < math.pi):
            raise ValueError(f"theta must lie in [0, pi), got {self.theta}")
        if not (math.isfinite(self.theta) and math.isfinite(self.a)):
            raise ValueError("hyperplane parameters must be finite")

    @property
    def normal(self) -> tuple[float, float]:
        return (math.cos(self.theta), math.sin(self.theta))

    @property
    def direction(self) -> tuple[float, float]:
        ux, uy = self.normal
        return (-uy, ux)


@dataclass(frozen=True)
class Segment:
    """A closed line segment with distinct endpoints."""

    p: tuple[float, float]
    q: tuple[float, float]

    @property
    def length(self) -> float:
        return math.hypot(self.q[0] - self.p[0], self.q[1] - self.p[1])


class Polygon:
    """Strictly convex polygon, CCW vertex tuple, canonicalized and validated once."""

    __slots__ = ("vertices", "area", "perimeter", "_diameter", "_scale", "_box", "_reach")

    def __init__(self, vertices: Iterable[Sequence[float]]):
        pts = [(float(x), float(y)) for x, y in vertices]
        for x, y in pts:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise InvalidPolygon("non-finite vertex coordinate")
        if len(pts) < 3:
            raise InvalidPolygon(f"need at least 3 vertices, got {len(pts)}")

        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
        scale = max(x_hi - x_lo, y_hi - y_lo)
        if scale <= 0.0:
            raise InvalidPolygon("degenerate polygon: zero extent")
        tol = SNAP_REL * scale

        # Drop consecutive duplicates (snap tolerance), then collinear vertices.
        dedup: list[tuple[float, float]] = []
        for p in pts:
            if not dedup or math.hypot(p[0] - dedup[-1][0], p[1] - dedup[-1][1]) > tol:
                dedup.append(p)
        while len(dedup) > 1 and math.hypot(
            dedup[0][0] - dedup[-1][0], dedup[0][1] - dedup[-1][1]
        ) <= tol:
            dedup.pop()
        if len(dedup) < 3:
            raise InvalidPolygon("fewer than 3 distinct vertices")

        n = len(dedup)
        kept = []
        cross_tol = tol * scale
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

        # Canonical start: lexicographically smallest vertex.
        start = min(range(len(kept)), key=lambda i: kept[i])
        kept = kept[start:] + kept[:start]

        # All turns are left turns, so the boundary winds once exactly when the
        # signs of the nonzero edge dy change at most twice (up, then down).
        # The cross products are taken about kept[0]: about (0, 0) they cancel
        # for a small cell far from the origin.
        area2 = 0.0
        perim = 0.0
        m = len(kept)
        up = None
        flips = 0
        ox, oy = kept[0]
        for i in range(m):
            x0, y0 = kept[i]
            x1, y1 = kept[(i + 1) % m]
            area2 += (x0 - ox) * (y1 - oy) - (x1 - ox) * (y0 - oy)
            perim += math.hypot(x1 - x0, y1 - y0)
            dy = y1 - y0
            if dy != 0.0:
                if up is not None and up != (dy > 0.0):
                    flips += 1
                up = dy > 0.0
        if area2 <= 0.0:
            raise InvalidPolygon("non-positive signed area")
        if flips > 2:
            raise InvalidPolygon("boundary winds more than once")

        object.__setattr__(self, "vertices", tuple(kept))
        object.__setattr__(self, "area", 0.5 * area2)
        object.__setattr__(self, "perimeter", perim)
        object.__setattr__(self, "_diameter", None)
        object.__setattr__(self, "_scale", scale)
        # box of the input points; the kept vertices are a subset, so it covers them
        object.__setattr__(self, "_box", (x_lo, y_lo, x_hi, y_hi))
        object.__setattr__(self, "_reach", None)

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
            d = max(
                math.hypot(vs[i][0] - vs[j][0], vs[i][1] - vs[j][1])
                for i in range(len(vs))
                for j in range(i + 1, len(vs))
            )
            object.__setattr__(self, "_diameter", d)
        return d

    def _reach_terms(self) -> tuple[float, float]:
        """(a, b): the containment tests accept no point further than a + b*span
        outside the bounding box; see `_box_misses`."""
        r = self._reach
        if r is None:
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
                    a = b = math.inf
                    break
                a = max(a, (1.0 / l_in + 1.0 / l_out) / sine)
                b = max(b, 1.0 / sine)
            r = (2.0 * self.snap_tol * self._scale * a, 40.0 * sys.float_info.epsilon * b)
            object.__setattr__(self, "_reach", r)
        return r

    def translate(self, dx: float, dy: float) -> "Polygon":
        return Polygon([(x + dx, y + dy) for x, y in self.vertices])

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
        """Closed containment test; tol widens the polygon slightly."""
        if tol is None:
            tol = self.snap_tol
        x, y = p
        vs = self.vertices
        for i in range(len(vs)):
            x0, y0 = vs[i]
            x1, y1 = vs[(i + 1) % len(vs)]
            if (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) < -tol * self._scale:
                return False
        return True

    def strictly_contains_point(self, p: Sequence[float], tol: Optional[float] = None) -> bool:
        if tol is None:
            tol = self.snap_tol
        x, y = p
        vs = self.vertices
        for i in range(len(vs)):
            x0, y0 = vs[i]
            x1, y1 = vs[(i + 1) % len(vs)]
            if (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) <= tol * self._scale:
                return False
        return True

    def contains_polygon(self, other: "Polygon") -> bool:
        tol = max(self.snap_tol, other.snap_tol)
        return all(self.contains_point(v, tol=tol) for v in other.vertices)


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
    """Convex hull of gaussian points; always yields a valid polygon."""
    cx, cy = center
    while True:
        pts = [(cx + scale * rng.standard_normal(), cy + scale * rng.standard_normal()) for _ in range(n_points)]
        hull = _convex_hull(pts)
        if len(hull) >= 3:
            try:
                return Polygon(hull)
            except InvalidPolygon:
                continue


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
    """Split C by h into (C n h+, C n h-, h n C).

    A side with empty interior comes back as None; the trace is None unless
    both sides are nonempty.  Raises DegenerateSplit for sliver pieces so the
    caller can resample the line.
    """
    ux, uy = h.normal
    a = h.a
    vs = C.vertices
    n = len(vs)
    tol = C.snap_tol

    side = [vx * ux + vy * uy - a for vx, vy in vs]
    if all(s >= -tol for s in side):
        return (C, None, None)
    if all(s <= tol for s in side):
        return (None, C, None)

    plus_pts: list[tuple[float, float]] = []
    minus_pts: list[tuple[float, float]] = []
    cross_pts: list[tuple[float, float]] = []
    for i in range(n):
        v = vs[i]
        s = side[i]
        if s >= -tol:
            plus_pts.append(v)
        if s <= tol:
            minus_pts.append(v)
        if -tol < s < tol:
            cross_pts.append(v)
        j = (i + 1) % n
        s2 = side[j]
        if (s > tol and s2 < -tol) or (s < -tol and s2 > tol):
            w = vs[j]
            t = s / (s - s2)
            ip = (v[0] + t * (w[0] - v[0]), v[1] + t * (w[1] - v[1]))
            plus_pts.append(ip)
            minus_pts.append(ip)
            cross_pts.append(ip)

    try:
        plus = Polygon(plus_pts) if len(plus_pts) >= 3 else None
    except InvalidPolygon:
        plus = None
    try:
        minus = Polygon(minus_pts) if len(minus_pts) >= 3 else None
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

    # Trace endpoints: the two extreme crossing points along the line direction.
    dx, dy = h.direction
    cross_pts.sort(key=lambda p: p[0] * dx + p[1] * dy)
    p0, p1 = cross_pts[0], cross_pts[-1]
    if math.hypot(p1[0] - p0[0], p1[1] - p0[1]) <= tol:
        raise DegenerateSplit("zero-length trace")
    return (plus, minus, Segment(p0, p1))


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


# Early rejection by bounding box, exact with respect to the full tests.
#
# Let tau = C.snap_tol * C._scale and, for an edge e from v0, cross_e(x) =
# cross(e, x - v0).  contains_point and the parallel-edge branch of
# clip_segment accept x when cross_e(x) >= -tau for every edge, that is up to
# tau/|e| beyond e's line.  When clip_segment returns a segment, its start
# p + t0*d, 0 <= t0 <= 1, satisfies cross_e >= 0 for every edge not parallel
# to it, because t0 lies on the inner side of each edge crossing.  Rounding
# moves each computed cross product by at most 20u*|e|*L (u = eps/2), where L
# is the x span plus the y span of the segment's and C's boxes together, since
# num, den and t0*den are sums of products of an edge component with a
# distance at most L.  So every point the tests accept satisfies
# cross_e(x) >= -tau_e, with tau_e = tau + 20u*|e|*L.
#
# Take a vertex v furthest along an axis direction.  Its neighbours are no
# further, so -e_in and e_out point back from that direction, and the turn
# X = cross(e_in, e_out) is positive.  The two relaxed constraints at v alone
# leave the wedge v + w + cone(-e_in, e_out), w = (tau_out*e_in -
# tau_in*e_out)/X, which reaches no further along the axis than v + w.  With
# s = X/(|e_in||e_out|), the sine of the turn,
#     |w| <= tau*(1/|e_in| + 1/|e_out|)/s + 40u*L/s.
# The box holds v, so no accepted point lies further outside it than the
# maximum of that bound over the vertices.  `_reach_terms` doubles the
# maximum, for the rounding of s and of the comparisons, and gives it up when
# a turn is too flat to trust (s <= 1e-14; s is computed to within 4u).


def _box_misses(seg: Segment, C: Polygon) -> bool:
    """True when no point of seg can pass C's containment or clip tests."""
    px, py = seg.p
    qx, qy = seg.q
    x_lo, y_lo, x_hi, y_hi = C._box
    sx_lo, sx_hi = (px, qx) if px <= qx else (qx, px)
    sy_lo, sy_hi = (py, qy) if py <= qy else (qy, py)
    if sx_lo <= x_hi and x_lo <= sx_hi and sy_lo <= y_hi and y_lo <= sy_hi:
        return False
    a, b = C._reach_terms()
    span = max(sx_hi, x_hi) - min(sx_lo, x_lo) + max(sy_hi, y_hi) - min(sy_lo, y_lo)
    return max(sx_lo - x_hi, x_lo - sx_hi, sy_lo - y_hi, y_lo - sy_hi) > a + b * span


def clip_segment(seg: Segment, C: Polygon) -> Optional[Segment]:
    """Intersection of a segment with a convex polygon, or None if empty/degenerate."""
    if _box_misses(seg, C):
        return None
    px, py = seg.p
    dx = seg.q[0] - px
    dy = seg.q[1] - py
    t0, t1 = 0.0, 1.0
    vs = C.vertices
    n = len(vs)
    for i in range(n):
        x0, y0 = vs[i]
        x1, y1 = vs[(i + 1) % n]
        # inside means cross((edge), (point - v0)) >= 0
        ex, ey = x1 - x0, y1 - y0
        num = ex * (py - y0) - ey * (px - x0)
        den = ex * dy - ey * dx
        if abs(den) < 1e-300:
            if num < -C.snap_tol * C._scale:
                return None
            continue
        t = -num / den
        if den > 0:
            if t > t0:
                t0 = t
        else:
            if t < t1:
                t1 = t
        if t0 > t1:
            return None
    # snap to the original endpoints so re-clipping is exactly idempotent;
    # threshold is geometric (absolute movement), not parametric
    seg_len = math.hypot(dx, dy)
    snap = max(1e-12, C.snap_tol / seg_len) if seg_len > 0 else 1e-12
    if t0 < snap:
        t0 = 0.0
    if t1 > 1.0 - snap:
        t1 = 1.0
    p = seg.p if t0 == 0.0 else (px + t0 * dx, py + t0 * dy)
    q = seg.q if t1 == 1.0 else (px + t1 * dx, py + t1 * dy)
    if math.hypot(q[0] - p[0], q[1] - p[1]) <= C.snap_tol:
        return None
    return Segment(p, q)


def _orient(ax, ay, bx, by, cx, cy) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def segment_hits_polygon(seg: Segment, C: Polygon) -> bool:
    """Nonempty intersection of a closed segment with a closed convex polygon."""
    if _box_misses(seg, C):
        return False
    if C.contains_point(seg.p) or C.contains_point(seg.q):
        return True
    return clip_segment(seg, C) is not None
