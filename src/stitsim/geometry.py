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

import numpy as np

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

    __slots__ = ("vertices", "area", "perimeter", "_diameter", "_scale", "_box", "_reach", "_circles")

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

        self._finish(kept, scale, (x_lo, y_lo, x_hi, y_hi))

    def _finish(self, kept: list[tuple[float, float]], scale: float, box: tuple) -> None:
        """Rotate the checked vertex list to its canonical start, measure it, set the slots.

        `box` is the bounding box of the input points; the kept vertices are a
        subset, so it covers them.
        """
        # Canonical start: lexicographically smallest vertex.
        start = kept.index(min(kept))
        kept = kept[start:] + kept[:start]

        # All turns are left turns, so the boundary winds once exactly when the
        # signs of the nonzero edge dy change at most twice (up, then down).
        # The cross products are taken about kept[0]: about (0, 0) they cancel
        # for a small cell far from the origin.
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
        if area2 <= 0.0:
            raise InvalidPolygon("non-positive signed area")
        if flips > 2:
            raise InvalidPolygon("boundary winds more than once")

        object.__setattr__(self, "vertices", tuple(kept))
        object.__setattr__(self, "area", 0.5 * area2)
        object.__setattr__(self, "perimeter", perim)
        object.__setattr__(self, "_diameter", None)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_box", box)
        object.__setattr__(self, "_reach", None)
        object.__setattr__(self, "_circles", None)

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
            object.__setattr__(self, "_circles", t)
        return t

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


def _piece(pts: list[tuple[float, float]]) -> Polygon:
    """Polygon(pts) for a split piece, without redoing what the parent proved.

    The points are CCW, and each is a parent vertex or a convex combination of
    two, so they are finite floats inside the parent's box.  The dedup and
    turn tests of `Polygon.__init__` run on every vertex, but only as checks:
    when none lands within tolerance the full constructor would keep every
    point, so the same shared tail gives the same polygon.  Otherwise the full
    constructor decides what to drop or reject.
    """
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
    tol = SNAP_REL * scale
    cross_tol = tol * scale
    hypot = math.hypot
    ax, ay = pts[-2]
    bx, by = pts[-1]
    for cx, cy in pts:
        # edge b -> c, and the turn at b
        if hypot(cx - bx, cy - by) <= tol or (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) <= cross_tol:
            return Polygon(pts)
        ax, ay, bx, by = bx, by, cx, cy
    poly = object.__new__(Polygon)
    poly._finish(pts, scale, (x_lo, y_lo, x_hi, y_hi))
    return poly


def split(
    C: Polygon, h: Hyperplane
) -> tuple[Optional[Polygon], Optional[Polygon], Optional[Segment]]:
    """Split C by h into (C n h+, C n h-, h n C).

    A side with empty interior comes back as None; the trace is None unless
    both sides are nonempty.  Raises DegenerateSplit for sliver pieces so the
    caller can resample the line.  Each piece is built by `_piece` from the
    parent's vertices and the crossing points, in the parent's CCW order:
    it checks every edge length and turn against the snap tolerances and
    falls back to the full `Polygon` constructor when one lands within them
    (a flat turn, as when the line runs nearly along an edge), so a piece is
    always exactly what `Polygon(points)` would build.
    """
    ux, uy = h.normal
    a = h.a
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
        if s >= -tol:
            plus_pts.append(v)
        if s <= tol:
            minus_pts.append(v)
        if -tol < s < tol:
            cross_pts.append(v)
        if (s > tol and s2 < -tol) or (s < -tol and s2 > tol):
            t = s / (s - s2)
            ip = (v[0] + t * (w[0] - v[0]), v[1] + t * (w[1] - v[1]))
            plus_pts.append(ip)
            minus_pts.append(ip)
            cross_pts.append(ip)

    try:
        plus = _piece(plus_pts) if len(plus_pts) >= 3 else None
    except InvalidPolygon:
        plus = None
    try:
        minus = _piece(minus_pts) if len(minus_pts) >= 3 else None
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
    dx, dy = -uy, ux  # h.direction
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


def clip_segments(xy: np.ndarray, C: Polygon) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """`clip_segment` of each row (px, py, qx, qy) of xy, operation for operation.

    Returns (rows, clipped, lengths): the indices of the rows that clip to a
    segment, those segments as rows, and their `Segment.length`s.  The
    products, the parallel-edge rule and the snap are those of `clip_segment`
    in the same order, and lengths come from `math.hypot`, so every float is
    the one `clip_segment` gives.  The `_box_misses` early exit is left out:
    it rejects only segments the full tests reject (derivation above it).
    """
    px, py, qx, qy = xy.T
    dx = qx - px
    dy = qy - py
    alive = np.ones(len(xy), dtype=bool)
    t0 = np.zeros(len(xy))
    t1 = np.ones(len(xy))
    vs = C.vertices
    for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1]):
        ex, ey = x1 - x0, y1 - y0
        num = ex * (py - y0) - ey * (px - x0)
        den = ex * dy - ey * dx
        parallel = np.abs(den) < 1e-300
        alive &= ~(parallel & (num < -C.snap_tol * C._scale))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t = -num / den
        t0 = np.where(~parallel & (den > 0) & (t > t0), t, t0)
        t1 = np.where(~parallel & (den < 0) & (t < t1), t, t1)
    rows = np.flatnonzero(alive & (t0 <= t1))

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
# the y span of C's box and c together, and S = k + 2s.  S bounds L of
# `_box_misses` (an axis span of the union of the two boxes is at most the
# box's plus twice the larger endpoint offset from c), and with it |p - c|,
# |q - c|, |q - p| and R; M = max(|c_x|, |c_y|) + s bounds every coordinate on
# the segment.  d, the distance from c to the segment, is computed within
# 20u*S (u = eps/2 as above): each branch below rounds by at most 10u*S, and a
# branch taken wrongly (t near 0 or near |q - p|^2, computed within
# 8u*S*|q - p|) has the foot of the perpendicular within 8u*S of the endpoint.
# The computed R and r are within 3u*S and 8u*S.
#
# Far.  The wedge argument of `_box_misses` holds for the vertex furthest along
# any direction, not only an axis, so every accepted point lies within
# rho = a + b*L of C, (a, b) = `_reach_terms()`, and within R + rho of c.  d > R + a + (b + 16eps)*S thus
# leaves no accepted point on the segment: 16eps*S = 32u*S covers the rounding
# of d and R, and the doubling in `_reach_terms` the rounding of the sum.
#
# Deep.  Let delta = r - d > 0 and x the point of the segment nearest c; then
# B(x, delta) lies in C, and a point y with B(y, h) in C has cross_e(y) >=
# h*|e| for every edge.  If an endpoint lies within delta/2 of x it is delta/2
# deep, and contains_point accepts it once delta/2 > 20u*L.  Otherwise
# x -/+ (delta/2)(q - p)/|q - p| lie on the segment, at t- < t+, both delta/2
# deep.  In clip_segment the computed function num + t*den of an edge is within
# 20u*|e|*L of cross_e on [0, 1], so for den > 0 it is positive at t- and its
# root lies below t-; the quotient adds u, so t0 <= t- + u.  Likewise
# t1 >= t+ - u, no parallel edge rejects, and the box test passes (x lies in
# both boxes).  Snapping only widens [t0, t1] and the ends are computed within
# 3u*M of the exact points, so the clip is longer than snap_tol once
# delta > snap_tol + 40u*(L + M).  d < r - snap_tol - 64eps*(S + M) keeps
# delta above that after the rounding of d, r and the sum.


def segment_hits_polygon(seg: Segment, C: Polygon) -> bool:
    """Nonempty intersection of a closed segment with a closed convex polygon.

    Decided from C's inner and outer circles when the segment passes well
    inside the one or well outside the other, by the exact tests otherwise.
    """
    cx, cy, far, far_rate, deep, deep_rate = C._circle_terms()
    px, py = seg.p
    qx, qy = seg.q
    ax, ay = px - cx, py - cy
    bx, by = qx - cx, qy - cy
    vx, vy = qx - px, qy - py
    t = -(ax * vx + ay * vy)
    vv = vx * vx + vy * vy
    if t <= 0.0:
        d = math.hypot(ax, ay)
    elif t >= vv:
        d = math.hypot(bx, by)
    else:
        d = abs(ax * vy - ay * vx) / math.sqrt(vv)
    s = abs(ax) + abs(ay) + abs(bx) + abs(by)
    if d > far + far_rate * s:
        return False
    if d < deep - deep_rate * s:
        return True
    if _box_misses(seg, C):
        return False
    if C.contains_point(seg.p) or C.contains_point(seg.q):
        return True
    return clip_segment(seg, C) is not None


def segments_hit_polygon(xy: np.ndarray, C: Polygon) -> np.ndarray:
    """`segment_hits_polygon` of each row (px, py, qx, qy) of xy, as a bool array.

    The circle decision runs on all rows at once; the rows in the band
    between the circles go to `segment_hits_polygon` one by one.
    """
    cx, cy, far, far_rate, deep, deep_rate = C._circle_terms()
    px, py, qx, qy = xy.T
    ax, ay = px - cx, py - cy
    bx, by = qx - cx, qy - cy
    vx, vy = qx - px, qy - py
    t = -(ax * vx + ay * vy)
    vv = vx * vx + vy * vy
    # np.hypot may differ from math.hypot by 1 ulp; that is within the 20u*S
    # allowed for the computed d in the derivation above.
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(
            t <= 0.0,
            np.hypot(ax, ay),
            np.where(t >= vv, np.hypot(bx, by), np.abs(ax * vy - ay * vx) / np.sqrt(vv)),
        )
    s = np.abs(ax) + np.abs(ay) + np.abs(bx) + np.abs(by)
    hit = d < deep - deep_rate * s
    for i in np.flatnonzero(~hit & ~(d > far + far_rate * s)).tolist():
        px_i, py_i, qx_i, qy_i = xy[i].tolist()
        hit[i] = segment_hits_polygon(Segment((px_i, py_i), (qx_i, qy_i)), C)
    return hit
