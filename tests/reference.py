"""Exact scalar references for the polygon constructor, containment,
clipping, hit tests, crop, window statistics, the two-sample tests, the
rate estimate and the dump and SVG writers, and the helpers only the tests use.

The geometric references work one point, segment and edge at a time in
plain Python and share no code with `stitsim.geometry` (its polygon builder
and the array kernels `clip_segments`, `segments_hit_polygon`,
`edge_margins`), so a test that compares the two compares independent
arithmetic.  The two-sample references are scipy's own tests, one pair of
samples per call.  The writers format one chord at a time with plain
Python floats, for comparison with the block-wise array writers of
`stitsim.output`.
"""

import json
import math

import numpy as np

from stitsim.analysis import WindowStats
from stitsim.config import rules_to_dict
from stitsim.engine import MIN_CHORD_REL, new_process, replicate_seeds
from stitsim.geometry import SNAP_REL, Polygon, Segment, segment_rows, segments_hit_polygon

TILING_REL_TOL = 1e-9  # check_tiling's bound on |sum of cell areas - window area| / window area


def translate(poly, dx, dy):
    return Polygon([(x + dx, y + dy) for x, y in poly.vertices])


def live_cells(state):
    """The live cells of a state, in heap order."""
    return list(state._heap)


def check_tiling(state):
    """The live cells of a state built without a region cover its window: their areas add up to its area."""
    total = sum(c.polygon.area for c in live_cells(state))
    return abs(total - state.window.area) <= TILING_REL_TOL * state.window.area


def _reference_polygon(pts):
    """(vertices, area, perimeter, _scale, _box) of `Polygon(pts)` for at least 3 finite
    points, or None when it rejects them: consecutive duplicates within the snap
    tolerance dropped, then collinear points, on every point, then the canonical
    start, the measures and the winding check."""
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    box = (min(xs), min(ys), max(xs), max(ys))
    scale = max(box[2] - box[0], box[3] - box[1])
    if scale <= 0.0:
        return None
    tol = SNAP_REL * scale
    dedup = []
    for p in pts:
        if not dedup or math.hypot(p[0] - dedup[-1][0], p[1] - dedup[-1][1]) > tol:
            dedup.append(p)
    while len(dedup) > 1 and math.hypot(dedup[0][0] - dedup[-1][0], dedup[0][1] - dedup[-1][1]) <= tol:
        dedup.pop()
    kept = []
    for i in range(len(dedup)):
        (ax, ay), (bx, by), (cx, cy) = dedup[i - 1], dedup[i], dedup[(i + 1) % len(dedup)]
        cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if cross < -tol * scale:
            return None
        if cross > tol * scale:
            kept.append(dedup[i])
    if len(dedup) < 3 or len(kept) < 3:
        return None
    start = kept.index(min(kept))
    kept = kept[start:] + kept[:start]
    area2 = perim = 0.0
    ox, oy = kept[0]
    dys = []
    for (x0, y0), (x1, y1) in zip(kept, kept[1:] + kept[:1]):
        area2 += (x0 - ox) * (y1 - oy) - (x1 - ox) * (y0 - oy)
        perim += math.hypot(x1 - x0, y1 - y0)
        if y1 != y0:
            dys.append(y1 > y0)
    if area2 <= 0.0 or sum(a != b for a, b in zip(dys, dys[1:])) > 2:
        return None
    return (tuple(kept), 0.5 * area2, perim, scale, box)


def _reference_contains_point(C, p, tol=None):
    """Closed containment, widened by tol (default: the snap tolerance): every edge's cross product is at least -tol*_scale."""
    if tol is None:
        tol = C.snap_tol
    x, y = p
    vs = C.vertices
    for i in range(len(vs)):
        x0, y0 = vs[i]
        x1, y1 = vs[(i + 1) % len(vs)]
        if (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) < -tol * C._scale:
            return False
    return True


def _reference_clip_segment(seg, C):
    """Cyrus-Beck clip of seg to C, or None, with the snap to the endpoints and the snap_tol floor."""
    px, py = seg.p
    dx = seg.q[0] - px
    dy = seg.q[1] - py
    t0, t1 = 0.0, 1.0
    vs = C.vertices
    n = len(vs)
    for i in range(n):
        x0, y0 = vs[i]
        x1, y1 = vs[(i + 1) % n]
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


def _reference_segment_hits_polygon(seg, C):
    """An endpoint in C (closed, widened by the snap tolerance), or a nonempty clip."""
    if _reference_contains_point(C, seg.p) or _reference_contains_point(C, seg.q):
        return True
    return _reference_clip_segment(seg, C) is not None


def _reference_crop(segments, V):
    """Each segment clipped to V, keeping the pieces longer than MIN_CHORD_REL times V's extent."""
    min_length = MIN_CHORD_REL * V._scale
    clipped = (_reference_clip_segment(s, V) for s in segments)
    return [c for c in clipped if c is not None and c.length > min_length]


def _reference_window_stats(segments, V, probes):
    """`window_stats(crop(T, V), probes)` for a tessellation T with these segments.

    An endpoint is interior when it lies more than 1e-9 * V._scale inside
    every edge of V.
    """
    cropped = _reference_crop(segments, V)
    vs = V.vertices
    edges = list(zip(vs, vs[1:] + vs[:1]))
    total = 0.0
    interior = 0
    for s in cropped:
        total += s.length
        for x, y in (s.p, s.q):
            if all((x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) > 1e-9 * V._scale for (x0, y0), (x1, y1) in edges):
                interior += 1
    hits = tuple(any(_reference_segment_hits_polygon(s, pr) for s in cropped) for pr in probes)
    return WindowStats(total, len(cropped), interior, hits)


def _reference_ks_two_sample(a, b):
    """scipy's two-sided two-sample KS test of one pair of samples, with its asymptotic method."""
    from scipy import stats

    res = stats.ks_2samp(np.asarray(a, float), np.asarray(b, float), method="asymp")
    return float(res.statistic), float(res.pvalue)


def _reference_chi_square_2x2(hits_a, hits_b):
    """scipy's Yates-corrected chi-square test of one 2x2 table of hits; (0.0, 1.0) for an empty row or column."""
    from scipy import stats

    ha = int(np.count_nonzero(hits_a))
    hb = int(np.count_nonzero(hits_b))
    table = np.array([[ha, len(hits_a) - ha], [hb, len(hits_b) - hb]], dtype=float)
    if (table.sum(axis=0) == 0).any() or (table.sum(axis=1) == 0).any():
        return 0.0, 1.0
    chi2, p, _, _ = stats.chi2_contingency(table, correction=True)
    return float(chi2), float(p)


def _reference_rate_estimate(rules, V, B, dt, n_reps, seed=0):
    """`rate_estimate` as its own loop: each replicate of stream 2 built in V and advanced to dt,
    all their chords tested against B in one call, and the replicates with a hit counted.
    """
    chords = []
    owner = []
    for rep, rep_seed in enumerate(replicate_seeds(seed, 2, 0, n_reps)):
        state = new_process(V, rules, rep_seed)
        state.advance(dt)
        chords += state.segments
        owner += [rep] * len(state.segments)
    hit = segments_hit_polygon(segment_rows(chords), B)
    hits = len(np.unique(np.array(owner, dtype=int)[hit]))
    return hits / (n_reps * dt)


def _fmt(x):
    return format(x, ".17g")


def _reference_dump_geometry(state, path):
    """`dump_geometry`, one f-string per record."""
    meta = {
        "seed": state.seed,
        "time": state.clock,
        "rules": rules_to_dict(state.rules),
        "window": [list(v) for v in state.window.vertices],
        "n_segments": len(state.segments),
    }
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        for seg, birth in zip(state.segments, state.births):
            fh.write(f"{_fmt(seg.p[0])} {_fmt(seg.p[1])} {_fmt(seg.q[0])} {_fmt(seg.q[1])} {_fmt(birth)}\n")


_REFERENCE_CMAP = [
    (0.267, 0.005, 0.329),
    (0.283, 0.141, 0.458),
    (0.254, 0.265, 0.530),
    (0.207, 0.372, 0.553),
    (0.164, 0.471, 0.558),
    (0.128, 0.567, 0.551),
    (0.135, 0.659, 0.518),
    (0.267, 0.749, 0.441),
    (0.478, 0.821, 0.318),
    (0.741, 0.873, 0.150),
    (0.993, 0.906, 0.144),
]


def _reference_blend(t):
    """The RGB of t on the ramp, each channel in [0, 1] before scaling to 255."""
    t = min(1.0, max(0.0, t))
    x = t * (len(_REFERENCE_CMAP) - 1)
    i = min(int(x), len(_REFERENCE_CMAP) - 2)
    f = x - i
    return [(1 - f) * a + f * b for a, b in zip(_REFERENCE_CMAP[i], _REFERENCE_CMAP[i + 1])]


def _reference_color(t):
    return "#" + "".join(f"{round(255 * c):02x}" for c in _reference_blend(t))


def _reference_render_svg(state, path):
    """`render_svg`, one f-string per coordinate and one list of all lines, joined once."""
    window = state.window
    xs = [v[0] for v in window.vertices]
    ys = [v[1] for v in window.vertices]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0)
    margin = 0.04 * span
    scale = 640 / (span + 2 * margin)

    def sx(x):
        return f"{(x - x0 + margin) * scale:.3f}"

    def sy(y):
        return f"{(y1 - y + margin) * scale:.3f}"

    w = (x1 - x0 + 2 * margin) * scale
    h = (y1 - y0 + 2 * margin) * scale
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
        f'viewBox="0 0 {w:.3f} {h:.3f}">',
        f'<rect width="{w:.3f}" height="{h:.3f}" fill="white"/>',
        '<polygon points="'
        + " ".join(f"{sx(vx)},{sy(vy)}" for vx, vy in window.vertices)
        + '" fill="none" stroke="black" stroke-width="1.5"/>',
    ]
    sw = max(0.6, 0.0015 * 640)
    for seg, birth in zip(state.segments, state.births):
        color = _reference_color(birth / state.clock if state.clock > 0 else 0.0)
        lines.append(
            f'<line x1="{sx(seg.p[0])}" y1="{sy(seg.p[1])}" '
            f'x2="{sx(seg.q[0])}" y2="{sy(seg.q[1])}" '
            f'stroke="{color}" stroke-width="{sw:.2f}" stroke-linecap="round"/>'
        )
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
