"""Event-driven cell-division process in a convex window.

A trajectory draws from one generator, `np.random.default_rng(seed)`, where
the seed is an int or a tuple such as (seed, arm, replicate).  Events pop
from the heap in a fixed order, (death time, cell index), and each draws the
dividing line or lines of the popped cell, then the life times of its plus
and minus children.  So a trajectory is a pure function of its seed (and its
region, below), and advancing in stages equals advancing in one shot.  Life
times are fixed at cell birth: death = birth + Exp(1)/rate(cell).
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContainmentViolation, DegenerateSplit, ReplicateAborted
from .geometry import Polygon, Segment, clip_segments, segment_rows, split
from .rules import RulePair, divide, rate

MAX_RESAMPLE = 100
# A trajectory keeps about 780 bytes per event: its chord, its birth time and
# two heap cells with their polygons (tracemalloc, one STIT trajectory of
# 51 782 events in [0,1]^2).  2e6 events are then about 1.6 GB, so two pool
# workers at the cap stay near 3 GB, well under a 7 GB host.
MAX_EVENTS = 2_000_000
MIN_CHORD_REL = 1e-9  # crop keeps chords longer than this fraction of V's extent


class Cell(NamedTuple):
    """A live cell; it is its own heap entry, ordered by (death time, index)."""

    death_time: float
    index: int  # unique, so two entries never compare their polygons
    polygon: Polygon


@dataclass(frozen=True)
class CroppedTessellation:
    """Closed chords of a tessellation clipped to a window, each a maximal segment (see `crop`)."""

    window: Polygon
    segments: tuple[Segment, ...]


class ProcessState:
    """Mutable trajectory state; `advance` mutates in place and returns self.

    `segments[i]` is the chord of the i-th division and `births[i]` its time.
    With a `region` V, the state builds only the cells that can meet V: it
    pushes no cell whose box misses V's box widened by the margin derived
    above `_keep_box`, so none of the cells it leaves out has a chord that a
    crop to V keeps.  The crop of the state to V keeps the law of the full
    trajectory's crop, but the cells left out draw nothing, so the seeded
    draws differ.  Such a state is cropped only to windows inside V (`crop`
    checks this), and `snapshots` crops it to V.
    """

    __slots__ = (
        "window", "rules", "seed", "region", "clock", "segments", "births", "_heap", "_next_index", "_rng", "_keep"
    )

    def __init__(
        self, window: Polygon, rules: RulePair, seed: int | tuple[int, ...], region: Polygon | None = None
    ):
        self.window = window
        self.rules = rules
        self.seed = seed
        self.region = region
        self.clock = 0.0
        self.segments: list[Segment] = []
        self.births: list[float] = []
        self._heap: list[Cell] = []
        self._next_index = 0
        self._rng = np.random.default_rng(seed)
        self._keep = None if region is None else _keep_box(region, window)
        self._spawn(window, 0.0)

    def _spawn(self, polygon: Polygon, birth: float) -> None:
        keep = self._keep
        if keep is not None:
            x_lo, y_lo, x_hi, y_hi = polygon._box
            if x_hi < keep[0] or y_hi < keep[1] or x_lo > keep[2] or y_lo > keep[3]:
                return
        idx = self._next_index
        self._next_index += 1
        tau = self._rng.standard_exponential()
        heapq.heappush(self._heap, Cell(birth + tau / rate(self.rules.selection, polygon), idx, polygon))

    @property
    def live_cells(self) -> list[Cell]:
        return list(self._heap)

    def advance(self, t: float) -> "ProcessState":
        if not math.isfinite(t):
            raise ValueError(f"cannot advance to a non-finite time: {t}")
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
        """Crops of one trajectory at each time, to the full window, or to the region if it has one."""
        if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("snapshot times must be ascending")
        if times and times[0] < self.clock:
            raise ValueError("snapshot times must not precede the current clock")
        out = []
        for t in times:
            self.advance(t)
            out.append(crop(self, self.window if self.region is None else self.region))
        return out


def new_process(
    W: Polygon, rules: RulePair, seed: int | tuple[int, ...], region: Polygon | None = None
) -> ProcessState:
    return ProcessState(W, rules, seed, region)


# Which cells a state with a region V may leave out.
#
# Every rule reads only the cell, its rate and its dividing line, so a cell
# evolves on its own once born.  A state built in W with region V pushes no
# cell whose box (`Polygon._box`, the box of the points the cell was built
# from) misses `_keep_box(V, W)`, V's box widened by a margin m.  This shows
# that no chord of such a cell, or of its descendants, has a piece that
# `crop(state, V)` keeps.
#
# Drift.  A chord's endpoints and a child's new vertices are the crossing
# points v + t*(w - v) of `split`, with v, w vertices of the cell and t =
# s/(s - s2) for s, s2 of opposite signs, so t rounds into [0, 1].  Computed,
# such a point lies within 5u*M of [v, w] in each coordinate (u = eps/2, M a
# bound on |x| and |y|): 4u*M for the difference and the product, u*M for the
# sum.  A cell's box holds the points it was built from, so a child's box lies
# within 5u*M of its parent's, and the chord of a cell j generations below a
# left-out cell lies within (j + 1)*5u*M of that cell's box.  A replicate that
# completes has at most MAX_EVENTS chords, so j + 1 <= MAX_EVENTS: every chord
# of a left-out cell and of its descendants lies within D = MAX_EVENTS*5u*M of
# its box.
#
# Acceptance.  By the wedge bound above `geometry.edge_margins`, every point
# that `clip_segments(xy, V)` accepts lies within rho = a + b*L of V, with
# (a, b) = V._reach_terms() and L the x span plus the y span of the segment's
# box and V's together; clip_segments returns a row only when the start of
# its piece, a point of the segment, is such a point.  `crop_rows` keeps only
# rows that clip_segments returns, so its floor (MIN_CHORD_REL) only drops
# more, and the margin does not count on it.
#
# A left-out cell's box misses V's box widened by m along some axis, so its
# chords and its descendants' stay more than m - D from V along that axis.
# Take M and L from W's box: the chords lie in it widened by D, which moves M
# and L by a factor below 1 + 1e-8.  Then m = 2*(a + b*L + D) leaves m - D >
# rho with room for that and for the rounding of m, and clip_segments returns
# no row of those chords.  When a turn of V is too flat for `_reach_terms`,
# a = inf and no cell is left out.


def _keep_box(V: Polygon, W: Polygon) -> tuple[float, float, float, float]:
    """V's box widened by the margin m derived above: (x_lo, y_lo, x_hi, y_hi)."""
    a, b = V._reach_terms()
    x_lo, y_lo, x_hi, y_hi = W._box
    drift = MAX_EVENTS * 2.5 * sys.float_info.epsilon * max(map(abs, W._box))
    m = 2.0 * (a + b * (x_hi - x_lo + y_hi - y_lo) + drift)
    x_lo, y_lo, x_hi, y_hi = V._box
    return (x_lo - m, y_lo - m, x_hi + m, y_hi + m)


def crop_rows(xy: np.ndarray, V: Polygon) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """`clip_segments(xy, V)` less the pieces not longer than MIN_CHORD_REL times V's extent.

    The floor is relative to V's extent, so it does not depend on where V sits.
    """
    rows, clipped, lengths = clip_segments(xy, V)
    keep = [i for i, length in enumerate(lengths) if length > MIN_CHORD_REL * V._scale]
    return rows[keep], clipped[keep], [lengths[i] for i in keep]


def crop(source: ProcessState | CroppedTessellation, V: Polygon) -> CroppedTessellation:
    """Clip each of the source's chords to V and keep the pieces longer than a floor (`crop_rows`).

    Reads only `source.window`, `source.segments` and a state's `region`, and
    keeps the segments' order.
    Every division rule draws the line offset from a continuous law, so with
    probability 1 no two chords are collinear and no chord lies along an edge
    of V: each clipped chord is already a maximal segment.
    """
    if not source.window.contains_polygon(V):
        raise ContainmentViolation("crop window V must be contained in the source window")
    region = getattr(source, "region", None)
    if region is not None and not region.contains_polygon(V):
        raise ContainmentViolation("crop window V must be contained in the state's region")

    _, clipped, _ = crop_rows(segment_rows(source.segments), V)
    return CroppedTessellation(V, tuple(Segment((px, py), (qx, qy)) for px, py, qx, qy in clipped.tolist()))
