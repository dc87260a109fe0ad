"""Event-driven cell-division process in a convex window.

A trajectory draws from one generator, `np.random.default_rng(seed)`, where
the seed is an int or a tuple such as (seed, arm, replicate).  Events pop
from the heap in a fixed order, (death time, cell index), and each draws the
dividing line or lines of the popped cell, then the life times of its plus
and minus children.  So a trajectory is a pure function of its seed, and
advancing in stages equals advancing in one shot.  Life times are fixed at
cell birth: death = birth + Exp(1)/rate(cell).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContainmentViolation, DegenerateSplit, ReplicateAborted
from .geometry import Polygon, Segment, clip_segment, split
from .rules import RulePair, divide, rate

MAX_RESAMPLE = 100
MAX_EVENTS = 10_000_000
MERGE_REL_TOL = 1e-9
TILING_REL_TOL = 1e-9  # check_tiling's bound on |sum of cell areas - window area| / window area


class Cell(NamedTuple):
    """A live cell; it is its own heap entry, ordered by (death time, index)."""

    death_time: float
    index: int  # unique, so two entries never compare their polygons
    polygon: Polygon


@dataclass(frozen=True)
class CroppedTessellation:
    """Maximal closed chords of a tessellation inside a window, window boundary excluded."""

    window: Polygon
    segments: tuple[Segment, ...]


class ProcessState:
    """Mutable trajectory state; `advance` mutates in place and returns self.

    `segments[i]` is the chord of the i-th division and `births[i]` its time.
    """

    __slots__ = ("window", "rules", "seed", "clock", "segments", "births", "_heap", "_next_index", "_rng")

    def __init__(self, window: Polygon, rules: RulePair, seed: int | tuple[int, ...]):
        self.window = window
        self.rules = rules
        self.seed = seed
        self.clock = 0.0
        self.segments: list[Segment] = []
        self.births: list[float] = []
        self._heap: list[Cell] = []
        self._next_index = 0
        self._rng = np.random.default_rng(seed)
        self._spawn(window, 0.0)

    def _spawn(self, polygon: Polygon, birth: float) -> None:
        idx = self._next_index
        self._next_index += 1
        tau = self._rng.standard_exponential()
        heapq.heappush(self._heap, Cell(birth + tau / rate(self.rules.selection, polygon), idx, polygon))

    @property
    def live_cells(self) -> list[Cell]:
        return list(self._heap)

    def check_tiling(self) -> bool:
        total = sum(c.polygon.area for c in self._heap)
        return abs(total - self.window.area) <= TILING_REL_TOL * self.window.area

    def advance(self, t: float) -> "ProcessState":
        if t < self.clock:
            raise ValueError(f"cannot advance backwards: {t} < {self.clock}")
        div = self.rules.division
        while self._heap and self._heap[0].death_time <= t:
            t_div, idx, polygon = heapq.heappop(self._heap)
            for _ in range(MAX_RESAMPLE):
                h = divide(div, polygon, self._rng)
                try:
                    plus, minus, trace = split(polygon, h)
                except DegenerateSplit:
                    continue
                if plus is not None and minus is not None:
                    break
                # else a tangent line: resample as for a degenerate hit
            else:
                raise ReplicateAborted(
                    f"cell {idx}: {MAX_RESAMPLE} degenerate dividing lines in a row"
                )
            self.segments.append(trace)
            self.births.append(t_div)
            self._spawn(plus, t_div)
            self._spawn(minus, t_div)
            if len(self.segments) > MAX_EVENTS:
                raise ReplicateAborted(f"event cap {MAX_EVENTS} exceeded")
        self.clock = t
        return self

    def snapshots(self, times: list[float]) -> list[CroppedTessellation]:
        """Crops of one trajectory at each time (crop window = full window)."""
        if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("snapshot times must be ascending")
        if times and times[0] < self.clock:
            raise ValueError("snapshot times must not precede the current clock")
        out = []
        for t in times:
            self.advance(t)
            out.append(crop(self, self.window))
        return out


def new_process(W: Polygon, rules: RulePair, seed: int | tuple[int, ...]) -> ProcessState:
    return ProcessState(W, rules, seed)


def _merge_collinear(segments: list[Segment], scale: float) -> list[Segment]:
    """Merge touching collinear segments into maximal ones."""
    tol = MERGE_REL_TOL * scale
    keyed = []
    for s in segments:
        dx = s.q[0] - s.p[0]
        dy = s.q[1] - s.p[1]
        phi = math.atan2(dy, dx) % math.pi
        theta = (phi + math.pi / 2) % math.pi
        ux, uy = math.cos(theta), math.sin(theta)
        a = s.p[0] * ux + s.p[1] * uy
        if theta >= math.pi - MERGE_REL_TOL:
            theta -= math.pi
            a = -a
        keyed.append((theta, a, s))
    keyed.sort(key=lambda k: (k[0], k[1]))

    out: list[Segment] = []
    i = 0
    n = len(keyed)
    while i < n:
        j = i + 1
        while (
            j < n
            and keyed[j][0] - keyed[i][0] <= MERGE_REL_TOL
            and abs(keyed[j][1] - keyed[i][1]) <= tol
        ):
            j += 1
        group = [keyed[k][2] for k in range(i, j)]
        if len(group) == 1:
            out.append(group[0])
        else:
            theta = keyed[i][0]
            dx, dy = -math.sin(theta), math.cos(theta)
            intervals = []
            for s in group:
                tp = s.p[0] * dx + s.p[1] * dy
                tq = s.q[0] * dx + s.q[1] * dy
                if tp <= tq:
                    intervals.append((tp, tq, s.p, s.q))
                else:
                    intervals.append((tq, tp, s.q, s.p))
            intervals.sort(key=lambda iv: iv[0])
            lo, hi, plo, phi_pt = intervals[0]
            for t0, t1, p0, p1 in intervals[1:]:
                if t0 <= hi + tol:
                    if t1 > hi:
                        hi, phi_pt = t1, p1
                else:
                    out.append(Segment(plo, phi_pt))
                    lo, hi, plo, phi_pt = t0, t1, p0, p1
            out.append(Segment(plo, phi_pt))
        i = j
    return out


def _on_boundary(seg: Segment, V: Polygon, tol: float) -> bool:
    vs = V.vertices
    n = len(vs)
    for i in range(n):
        x0, y0 = vs[i]
        x1, y1 = vs[(i + 1) % n]
        ex, ey = x1 - x0, y1 - y0
        norm = math.hypot(ex, ey)
        d_p = abs(ex * (seg.p[1] - y0) - ey * (seg.p[0] - x0)) / norm
        d_q = abs(ex * (seg.q[1] - y0) - ey * (seg.q[0] - x0)) / norm
        if d_p <= tol and d_q <= tol:
            return True
    return False


def crop(source: ProcessState | CroppedTessellation, V: Polygon) -> CroppedTessellation:
    """Intersect the source's chord set with V, merging collinear pieces.

    Reads only `source.window` and `source.segments`.  Cell provenance is
    forgotten: chords from distinct parent cells that lie on one line become a
    single maximal segment.  Chords falling onto the boundary of V are dropped.
    """
    if not source.window.contains_polygon(V):
        raise ContainmentViolation("crop window V must be contained in the source window")

    scale = V._scale  # V's extent, so the tolerances do not depend on where V sits
    tol = MERGE_REL_TOL * scale
    clipped = []
    for s in source.segments:
        c = clip_segment(s, V)
        if c is not None and c.length > tol and not _on_boundary(c, V, tol):
            clipped.append(c)
    return CroppedTessellation(V, tuple(_merge_collinear(clipped, scale)))
