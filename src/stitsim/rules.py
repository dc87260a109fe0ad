"""Selection rules (division rates) and division rules (dividing-line laws)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

from .geometry import (
    Hyperplane,
    Polygon,
    check_line,
    intrinsic_volumes,
    sample_uniform_point,
    split_line,
    vertex_count,
)
from .measures import (
    DirectionalDistribution,
    HyperplaneMeasure,
    Isotropic,
    Line,
    hitting_drawer,
    hitting_mass_function,
    sample_atom,
)
from .errors import DegenerateSplit


@dataclass(frozen=True)
class IntrinsicVolume:
    """Rate = the i-th intrinsic volume of the cell (i in {0, 1, 2})."""

    index: int

    def __post_init__(self):
        if self.index not in (0, 1, 2):
            raise ValueError("intrinsic volume index must be 0, 1 or 2")


@dataclass(frozen=True)
class VertexCount:
    """Rate = number of vertices of the cell."""


@dataclass(frozen=True)
class HittingMeasure:
    """Rate = mass of the lines hitting the cell under a fixed measure."""

    measure: HyperplaneMeasure


SelectionRule = Union[IntrinsicVolume, VertexCount, HittingMeasure]


@dataclass(frozen=True)
class RestrictedMeasure:
    """Dividing line drawn from a fixed measure conditioned to hit the cell."""

    measure: HyperplaneMeasure


@dataclass(frozen=True)
class PointDriven:
    """Dividing line through a uniform point of the cell, direction drawn separately."""

    directions: DirectionalDistribution = Isotropic()


DivisionRule = Union[RestrictedMeasure, PointDriven]


@dataclass(frozen=True)
class RulePair:
    selection: SelectionRule
    division: DivisionRule

    @property
    def stit_measure(self) -> HyperplaneMeasure | None:
        """The pair's STIT line measure: the one measure object that selection and division both hold; else None."""
        sel, div = self.selection, self.division
        shared = isinstance(sel, HittingMeasure) and isinstance(div, RestrictedMeasure) and sel.measure is div.measure
        return sel.measure if shared else None


def stit_pair(measure: HyperplaneMeasure) -> RulePair:
    return RulePair(HittingMeasure(measure), RestrictedMeasure(measure))


def rate_function(r: SelectionRule) -> Callable[[Polygon], float]:
    """C -> the rate of C under r; `ProcessState` binds it once."""
    if isinstance(r, IntrinsicVolume):
        index = r.index
        return lambda C: intrinsic_volumes(C)[index]
    if isinstance(r, VertexCount):
        return lambda C: float(vertex_count(C))
    return hitting_mass_function(r.measure)


def rate(r: SelectionRule, C: Polygon) -> float:
    return rate_function(r)(C)


def min_expected_chords(rules: RulePair, W: Polygon, t: float) -> float:
    """A lower bound on the expected number of chords in W by time t.

    Chords arrive at the rate sum over the live cells C of rate(C).
    - `VertexCount`: every cell divides at rate >= 3, and under
      `IntrinsicVolume(0)` at rate exactly 1, so the cell count dominates a
      Yule process of that rate, whose mean is e^{rate*t}: E[chords] >=
      e^{rate*t} - 1.  The exponent is capped below float overflow.
    - Otherwise the rates of the cells sum to at least rate(W): areas add up,
      perimeters only grow, and a line that hits W hits some cell.  So
      E[chords] >= t*rate(W), with equality for `IntrinsicVolume(2)`.
    - For the isotropic STIT pair of intensity I, where the mean total length
      is I*t*area(W), the mean is exactly I*t*per(W)/pi + I^2*t^2*area(W)/pi.
    """
    r = rules.selection
    if isinstance(r, VertexCount):
        return math.expm1(min(3.0 * t, 700.0))
    if isinstance(r, IntrinsicVolume) and r.index == 0:
        return math.expm1(min(t, 700.0))
    n = t * rate(r, W)
    if (measure := rules.stit_measure) is not None and isinstance(measure.directions, Isotropic):
        intensity = measure.intensity
        n += intensity * intensity * t * t * W.area / math.pi
    return n


def line_drawer(r: DivisionRule) -> Callable[[Polygon, object], Line]:
    """(C, rng) -> r's dividing line (theta, ux, uy, a) of C; `ProcessState` binds it once.

    Restricted division draws from `measures.hitting_drawer`.  Point-driven
    division draws a uniform point of C, then the direction.  The line passes
    `check_line`.
    """
    if isinstance(r, RestrictedMeasure):
        return hitting_drawer(r.measure)
    d = r.directions
    atoms = None if isinstance(d, Isotropic) else (d.thetas, d.weights)
    cos, sin, pi = math.cos, math.sin, math.pi

    def draw(C: Polygon, rng) -> Line:
        x, y = sample_uniform_point(C, rng)
        theta = rng.random() * pi if atoms is None else sample_atom(*atoms, rng)
        ux = cos(theta)
        uy = sin(theta)
        a = x * ux + y * uy
        check_line(theta, a)
        return (theta, ux, uy, a)

    return draw


def divide(r: DivisionRule, C: Polygon, rng) -> Hyperplane:
    """r's dividing line of C (`line_drawer`)."""
    theta, _, _, a = line_drawer(r)(C, rng)
    return Hyperplane(theta, a)


def check_bound(r: SelectionRule, C: Polygon, n_samples: int, rng) -> float:
    """Empirical sup of rate(piece)/rate(C) over random hitting lines.

    Samples dividing lines from an isotropic reference measure; returns the
    largest ratio seen.  Monotone rules stay at or below 1, vertex count at
    or below (n+2)/n.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    draw = hitting_drawer(HyperplaneMeasure(1.0, Isotropic()))
    rate_of = rate_function(r)
    base = rate_of(C)
    k_hat = 0.0
    for _ in range(n_samples):
        _, ux, uy, a = draw(C, rng)
        try:
            plus, minus, _ = split_line(C, ux, uy, a)
        except DegenerateSplit:
            continue
        for piece in (plus, minus):
            if piece is not None and piece is not C:
                k_hat = max(k_hat, rate_of(piece) / base)
    return k_hat
