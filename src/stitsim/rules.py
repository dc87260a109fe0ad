"""Selection rules (division rates) and division rules (dividing-line laws)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .geometry import (
    Hyperplane,
    Polygon,
    intrinsic_volumes,
    sample_uniform_point,
    split,
    vertex_count,
)
from .measures import (
    DirectionalDistribution,
    HyperplaneMeasure,
    Isotropic,
    hitting_mass,
    sample_atom,
    sample_hitting,
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


def rate(r: SelectionRule, C: Polygon) -> float:
    if isinstance(r, IntrinsicVolume):
        return intrinsic_volumes(C)[r.index]
    if isinstance(r, VertexCount):
        return float(vertex_count(C))
    return hitting_mass(r.measure, C)


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


def divide(r: DivisionRule, C: Polygon, rng) -> Hyperplane:
    if isinstance(r, RestrictedMeasure):
        return sample_hitting(r.measure, C, rng)
    x, y = sample_uniform_point(C, rng)
    d = r.directions
    if isinstance(d, Isotropic):
        theta = rng.random() * math.pi
    else:
        theta = sample_atom(d.thetas, d.weights, rng)
    a = x * math.cos(theta) + y * math.sin(theta)
    return Hyperplane(theta, a)


def check_bound(r: SelectionRule, C: Polygon, n_samples: int, rng) -> float:
    """Empirical sup of rate(piece)/rate(C) over random hitting lines.

    Samples dividing lines from an isotropic reference measure; returns the
    largest ratio seen.  Monotone rules stay at or below 1, vertex count at
    or below (n+2)/n.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    ref = HyperplaneMeasure(1.0, Isotropic())
    base = rate(r, C)
    k_hat = 0.0
    for _ in range(n_samples):
        h = sample_hitting(ref, C, rng)
        try:
            plus, minus, _ = split(C, h)
        except DegenerateSplit:
            continue
        for piece in (plus, minus):
            if piece is not None and piece is not C:
                k_hat = max(k_hat, rate(r, piece) / base)
    return k_hat
