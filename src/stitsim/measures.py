"""Translation-invariant line measures: hitting masses, conditional sampling.

A measure here factorizes as intensity * phi(dtheta) x da with phi a
directional distribution on [0, pi).  Two families are supported: a finite
set of direction atoms, and the isotropic (uniform) distribution.  Both give
exact hitting masses; isotropic uses the Cauchy formula (mass = intensity *
perimeter / pi).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, Union

from .geometry import Hyperplane, Polygon, check_line, offset_interval, width


def ordered_sum(values: Iterable[float]) -> float:
    """Sum from left to right, one rounding per term.

    From CPython 3.12 on, sum() of floats is compensated and can differ in the
    last bit; a hitting mass is a rate, so that bit would move death times and
    dumps between Python versions.
    """
    total = 0.0
    for v in values:
        total += v
    return total


@dataclass(frozen=True)
class Isotropic:
    """Uniform directional density 1/pi on [0, pi)."""


@dataclass(frozen=True)
class Atoms:
    """Finite directional distribution; needs two distinct angles to span the plane."""

    thetas: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.thetas) != len(self.weights):
            raise ValueError("thetas and weights must have equal length")
        if len(set(self.thetas)) < 2:
            raise ValueError("need at least two distinct directions")
        if any(not (0.0 <= t < math.pi) for t in self.thetas):
            raise ValueError("atom angles must lie in [0, pi)")
        if any(not (w > 0 and math.isfinite(w)) for w in self.weights):
            raise ValueError("atom weights must be positive and finite")
        if abs(ordered_sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("atom weights must sum to 1")


DirectionalDistribution = Union[Isotropic, Atoms]


def axis_aligned() -> Atoms:
    return Atoms((0.0, math.pi / 2), (0.5, 0.5))


@dataclass(frozen=True)
class HyperplaneMeasure:
    intensity: float
    directions: DirectionalDistribution = field(default_factory=Isotropic)

    def __post_init__(self):
        if not (self.intensity > 0 and math.isfinite(self.intensity)):
            raise ValueError("intensity must be positive and finite")


# A dividing line as a division event carries it from its draw to
# `geometry.split_line`: (theta, ux, uy, a), with the unit normal
# (ux, uy) = (cos theta, sin theta) and the offset a.
Line = tuple[float, float, float, float]


def hitting_mass_function(L: HyperplaneMeasure) -> Callable[[Polygon], float]:
    """C -> the mass of the lines of L hitting C: intensity * integral of width(C, theta) phi(dtheta)."""
    k = L.intensity
    d = L.directions
    if isinstance(d, Isotropic):
        pi = math.pi
        return lambda C: k * C.perimeter / pi
    thetas, weights = d.thetas, d.weights
    return lambda C: k * ordered_sum(w * width(C, t) for t, w in zip(thetas, weights))


def hitting_mass(L: HyperplaneMeasure, C: Polygon) -> float:
    """Mass of the lines hitting C (`hitting_mass_function`)."""
    return hitting_mass_function(L)(C)


def joint_hitting_mass(L: HyperplaneMeasure, A: Polygon, B: Polygon) -> float:
    """Mass of the lines hitting both A and B (offset-interval overlap per direction)."""

    def overlap(theta: float) -> float:
        lo_a, hi_a = offset_interval(A, theta)
        lo_b, hi_b = offset_interval(B, theta)
        return max(0.0, min(hi_a, hi_b) - max(lo_a, lo_b))

    d = L.directions
    if isinstance(d, Atoms):
        return L.intensity * ordered_sum(w * overlap(t) for t, w in zip(d.thetas, d.weights))
    from scipy.integrate import IntegrationWarning, quad  # only the isotropic case needs scipy

    # Isotropic: the integrand is piecewise smooth with kinks at edge-normal
    # angles of either polygon; hand those to the quadrature as breakpoints.
    kinks = sorted(
        set(_edge_normal_angles(A)) | set(_edge_normal_angles(B))
    )
    with warnings.catch_warnings():
        # near machine precision quad reports roundoff; the breakpoint split
        # keeps the true error well below the 1e-10 identity tolerances
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(overlap, 0.0, math.pi, points=kinks, limit=200, epsabs=1e-12, epsrel=1e-12)
    return L.intensity * val / math.pi


def _edge_normal_angles(C: Polygon) -> list[float]:
    out = []
    vs = C.vertices
    for i in range(len(vs)):
        x0, y0 = vs[i]
        x1, y1 = vs[(i + 1) % len(vs)]
        t = math.atan2(x0 - x1, y1 - y0) % math.pi  # normal of the edge direction
        out.append(t)
    return out


def sample_atom(thetas: Sequence[float], weights: Sequence[float], rng) -> float:
    """Draw one of the angles with probability proportional to its weight.

    u = r * (the sum of the weights), r in [0, 1), is at most the last partial
    sum, which adds the same weights in the same order; so the last angle is
    drawn when u passes every partial sum before it."""
    u = rng.random() * ordered_sum(weights)
    acc = 0.0
    for t, w in zip(thetas[:-1], weights):
        acc += w
        if u <= acc:
            return t
    return thetas[-1]


def hitting_drawer(L: HyperplaneMeasure) -> Callable[[Polygon, object], Line]:
    """(C, rng) -> a line (theta, ux, uy, a) drawn from the restriction of L to the lines hitting C.

    The angle density is proportional to width(C, theta) * phi(theta); the
    offset is then uniform on the hitting interval for that angle.  The line
    passes `check_line`.
    """
    d = L.directions
    cos, sin = math.cos, math.sin
    if isinstance(d, Atoms):
        thetas, weights = d.thetas, d.weights

        def draw(C: Polygon, rng) -> Line:
            intervals = [offset_interval(C, t) for t in thetas]
            theta = sample_atom(thetas, [w * (hi - lo) for (lo, hi), w in zip(intervals, weights)], rng)
            lo, hi = intervals[thetas.index(theta)]  # hi - lo is width(C, theta)
            a = lo + rng.random() * (hi - lo)
            check_line(theta, a)
            return (theta, cos(theta), sin(theta), a)

        return draw
    pi = math.pi

    def draw(C: Polygon, rng) -> Line:
        envelope = C.diameter()
        vs = C.vertices
        while True:
            theta = rng.random() * pi
            # offset_interval(C, theta), inline
            ux = cos(theta)
            uy = sin(theta)
            proj = [x * ux + y * uy for x, y in vs]
            lo = min(proj)
            hi = max(proj)
            if rng.random() * envelope <= hi - lo:  # hi - lo is width(C, theta)
                break
        a = lo + rng.random() * (hi - lo)
        check_line(theta, a)
        return (theta, ux, uy, a)

    return draw


def sample_hitting(L: HyperplaneMeasure, C: Polygon, rng) -> Hyperplane:
    """Draw a line from the restriction of L to the lines hitting C (`hitting_drawer`)."""
    theta, _, _, a = hitting_drawer(L)(C, rng)
    return Hyperplane(theta, a)
