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
MIN_CHORD_REL = 1e-9  # crop keeps chords longer than this fraction of V's extent
TILING_REL_TOL = 1e-9  # check_tiling's bound on |sum of cell areas - window area| / window area


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


def crop(source: ProcessState | CroppedTessellation, V: Polygon) -> CroppedTessellation:
    """Clip each of the source's chords to V and keep the pieces longer than a floor.

    Reads only `source.window` and `source.segments`, and keeps their order.
    The floor is MIN_CHORD_REL times V's extent, so it does not depend on
    where V sits.  Every division rule draws the line offset from a continuous
    law, so with probability 1 no two chords are collinear and no chord lies
    along an edge of V: each clipped chord is already a maximal segment.
    """
    if not source.window.contains_polygon(V):
        raise ContainmentViolation("crop window V must be contained in the source window")

    min_length = MIN_CHORD_REL * V._scale
    clipped = (clip_segment(s, V) for s in source.segments)
    return CroppedTessellation(V, tuple(c for c in clipped if c is not None and c.length > min_length))
