"""Event-driven cell-division process in a convex window.

A trajectory draws from one generator, `np.random.default_rng(seed)`, where
the seed is an int or a tuple such as (seed, arm, replicate).  Loops over
replicates take their seeds from `replicate_seeds`, which precomputes them in
blocks; each still gives the generator `default_rng((seed, arm, rep))`.  Events pop
from the heap in a fixed order, (death time, cell index), and each draws the
dividing line or lines of the popped cell, then the life times of its plus
and minus children.  So a trajectory is a pure function of its seed (and its
region, below), and advancing in stages equals advancing in one shot.  Life
times are fixed at cell birth: death = birth + Exp(1)/rate(cell)
(`death_time`).  The root's is the first draw, so the replicate loop
(`analysis._collect_chunk`) draws it first from a generator of its own: a
replicate whose root outlives the last time has no chord, and it builds no
state.  A state it does build re-seeds and redraws that same death.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ContainmentViolation, DegenerateSplit, ReplicateAborted
from .geometry import Polygon, Segment, clip_segments, segment_rows, split
from .rules import RulePair, divide, rate

MAX_RESAMPLE = 100
MAX_EVENTS = 2_000_000
MIN_CHORD_REL = 1e-9  # crop keeps chords longer than this fraction of V's extent


def death_time(birth: float, rng: np.random.Generator, cell_rate: float) -> float:
    """A cell's death: birth + Exp(1)/rate, one draw from the trajectory's generator."""
    return birth + rng.standard_exponential() / cell_rate


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
        self,
        window: Polygon,
        rules: RulePair,
        seed: int | tuple[int, ...],
        region: Polygon | None = None,
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
        self._keep = None if region is None else _keep_box(region, window)
        self._rng = np.random.default_rng(seed)
        self._spawn(window, 0.0)

    def _spawn(self, polygon: Polygon, birth: float) -> None:
        keep = self._keep
        if keep is not None:
            x_lo, y_lo, x_hi, y_hi = polygon._box
            if x_hi < keep[0] or y_hi < keep[1] or x_lo > keep[2] or y_lo > keep[3]:
                return
        idx = self._next_index
        self._next_index = idx + 1
        death = death_time(birth, self._rng, rate(self.rules.selection, polygon))
        heappush(self._heap, tuple.__new__(Cell, (death, idx, polygon)))  # a Cell, less the call to its __new__

    def advance(self, t: float) -> "ProcessState":
        if not math.isfinite(t):
            raise ValueError(f"cannot advance to a non-finite time: {t}")
        if t < self.clock:
            raise ValueError(f"cannot advance backwards: {t} < {self.clock}")
        div = self.rules.division
        heap = self._heap
        rng = self._rng
        segments = self.segments
        births = self.births
        spawn = self._spawn
        while heap and heap[0][0] <= t:  # the first cell's death time
            t_div, idx, polygon = heappop(heap)
            for _ in range(MAX_RESAMPLE):
                h = divide(div, polygon, rng)
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
            segments.append(trace)
            births.append(t_div)
            spawn(plus, t_div)
            spawn(minus, t_div)
            if len(segments) > MAX_EVENTS:
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
    W: Polygon,
    rules: RulePair,
    seed: int | tuple[int, ...],
    region: Polygon | None = None,
) -> ProcessState:
    """A trajectory in W at time 0: one live cell, W itself."""
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


@functools.lru_cache(maxsize=64)
def _keep_box(V: Polygon, W: Polygon) -> tuple[float, float, float, float]:
    """V's box widened by the margin m derived above: (x_lo, y_lo, x_hi, y_hi)."""
    a, b = V._reach_terms()
    x_lo, y_lo, x_hi, y_hi = W._box
    drift = MAX_EVENTS * 2.5 * sys.float_info.epsilon * max(map(abs, W._box))
    m = 2.0 * (a + b * (x_hi - x_lo + y_hi - y_lo) + drift)
    x_lo, y_lo, x_hi, y_hi = V._box
    return (x_lo - m, y_lo - m, x_hi + m, y_hi + m)


# Replicate seeds.  `np.random.default_rng((seed, stream, rep))` spends most of
# its 20 us building `SeedSequence((seed, stream, rep))`, whose only use is the
# four uint64 words that seed PCG64.  `replicate_seeds` computes those words
# for a block of replicates at once, with numpy's SeedSequence arithmetic on
# uint32 arrays: hash the entropy words into a pool of four, mix every pool
# word into every other, mix in the entropy words past the fourth, then hash
# the pool out into eight uint32 words.  A `ReplicateSeed` hands them to PCG64
# through numpy's `ISeedSequence` hook, so default_rng(rep_seed) is the
# generator default_rng((seed, stream, rep)).
SEED_BLOCK = 1024
_MASK32 = 0xFFFF_FFFF


class ReplicateSeed(tuple, ISeedSequence):
    """The tuple (seed, stream, rep) with its SeedSequence words; pickles as the plain tuple.

    Built only by `replicate_seeds`, which sets `_words`.
    """

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words == 4 and dtype is np.uint64:  # PCG64's call; the words are read-only
            return self._words
        return np.random.SeedSequence(tuple(self)).generate_state(n_words, dtype)

    def __reduce__(self):
        return tuple, (tuple(self),)


def _uint32_words(n: int) -> list[int]:
    """n as SeedSequence reads an int: little-endian 32-bit words, [0] for 0."""
    return [n >> s & _MASK32 for s in range(0, max(n.bit_length(), 1), 32)]


def _hasher(h: int, mult: int):
    """SeedSequence's hash of a uint32 array with a running constant h: xor h, step h, multiply, fold."""

    def hash_(v: np.ndarray) -> np.ndarray:
        nonlocal h
        v = v ^ np.uint32(h)
        h = h * mult & _MASK32
        v = v * np.uint32(h)
        return v ^ (v >> 16)

    return hash_


def _seed_words(prefix: list[int], reps: range) -> np.ndarray:
    """SeedSequence's generate_state(4, np.uint64) for the entropy words prefix + [rep], per rep (< 2**32)."""
    n = len(reps)
    entropy = [np.full(n, w, np.uint32) for w in prefix] + [np.arange(reps.start, reps.stop, dtype=np.uint32)]
    entropy += [np.zeros(n, np.uint32)] * (4 - len(entropy))
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x, y):
        r = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
        return r ^ (r >> 16)

    pool = [hashmix(e) for e in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(e))
    out = _hasher(0x8B51F9DD, 0x58F38DED)
    state = np.column_stack([out(pool[i % 4]) for i in range(8)])
    return state.astype("<u4").view("<u8").astype(np.uint64)


def replicate_seeds(seed: int, stream: int, start: int, count: int) -> Iterator[tuple[int, int, int]]:
    """Seeds of replicates start .. start + count - 1; default_rng of each is default_rng((seed, stream, rep)).

    Yields a `ReplicateSeed` per replicate, computed SEED_BLOCK at a time.  It
    yields the plain tuples instead for a block with a rep of 2**32 or more
    (such a rep takes two entropy words), for a seed or stream that is not an
    int, and for the whole call when the first seed's words differ from
    numpy's own SeedSequence.  Seeds that default_rng rejects raise as it does.
    """
    expected = np.random.SeedSequence((seed, stream, start)).generate_state(4, np.uint64)
    fast = isinstance(seed, (int, np.integer)) and isinstance(stream, (int, np.integer))
    prefix = _uint32_words(int(seed)) + _uint32_words(int(stream)) if fast else []
    for lo in range(start, start + count, SEED_BLOCK):
        reps = range(lo, min(lo + SEED_BLOCK, start + count))
        words = _seed_words(prefix, reps) if fast and reps[-1] < 2**32 else None
        if words is not None and lo == start and not np.array_equal(words[0], expected):
            fast, words = False, None
        if words is None:
            yield from ((seed, stream, rep) for rep in reps)
            continue
        words.flags.writeable = False
        for rep, row in zip(reps, words):
            rep_seed = tuple.__new__(ReplicateSeed, (seed, stream, rep))
            rep_seed._words = row
            yield rep_seed


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
