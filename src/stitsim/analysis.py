"""Statistics on cropped tessellations and the consistency / identity test harness.

The two-sample machinery compares a process built directly in a small window V
against a process built in a larger window W and cropped to V, over a fixed,
pre-registered family of statistics (total chord length, maximal segment
count, interior endpoints, probe hits) at fixed times, with Holm correction
over the whole family.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np
from scipy import stats as scipy_stats

from .engine import MIN_CHORD_REL, CroppedTessellation, new_process
from .errors import ContainmentViolation, InsufficientSamples, ReplicateAborted
from .geometry import (
    Polygon,
    clip_segments,
    random_convex_polygon,
    regular_ngon,
    scale_about_centroid,
    segment_hits_polygon,
    segments_hit_polygon,
    vertex_count,
)
from .measures import HyperplaneMeasure, hitting_mass, joint_hitting_mass
from .rules import (
    RestrictedMeasure,
    RulePair,
    VertexCount,
    check_bound,
    rate,
)

MIN_REPS = 100  # fewest replicates per arm that consistency_test accepts
MAX_ABORT_FRAC = 0.01  # consistency_test fails when more of an arm's replicates abort
PROBE_GRID = 3  # default_probes places PROBE_GRID x PROBE_GRID disks
PROBE_RADIUS_FRAC = 0.1  # default probe radius over the shorter side of V's bounding box
MAX_DIVISIONS_PER_DT = 0.1  # rate_estimate's bound on rate(V) * dt


@dataclass(frozen=True)
class WindowStats:
    total_length: float
    segment_count: int
    interior_endpoints: int
    probe_hits: tuple[bool, ...]


def window_stats(T: CroppedTessellation, probes: Sequence[Polygon] = ()) -> WindowStats:
    """Statistics of one crop; every probe must lie in `T.window` (not checked here)."""
    V = T.window
    total = 0.0
    interior = 0
    for s in T.segments:
        total += s.length
        for endpoint in (s.p, s.q):
            if V.strictly_contains_point(endpoint, tol=1e-9):
                interior += 1
    hits = tuple(any(segment_hits_polygon(s, pr) for s in T.segments) for pr in probes)
    return WindowStats(total, len(T.segments), interior, hits)


def default_probes(V: Polygon) -> list[Polygon]:
    """The 32-gon disks of a grid spanning the bounding box of V that V contains."""
    xs = [p[0] for p in V.vertices]
    ys = [p[1] for p in V.vertices]
    side = min(max(xs) - min(xs), max(ys) - min(ys))
    r = PROBE_RADIUS_FRAC * side
    probes = []
    for i in range(PROBE_GRID):
        for j in range(PROBE_GRID):
            cx = min(xs) + (i + 1) / (PROBE_GRID + 1) * (max(xs) - min(xs))
            cy = min(ys) + (j + 1) / (PROBE_GRID + 1) * (max(ys) - min(ys))
            disk = regular_ngon((cx, cy), r, 32)
            if V.contains_polygon(disk):
                probes.append(disk)
    return probes


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sided two-sample Kolmogorov-Smirnov with asymptotic p-value."""
    if len(a) < 20 or len(b) < 20:
        raise InsufficientSamples(f"need >= 20 samples per side, got {len(a)}/{len(b)}")
    res = scipy_stats.ks_2samp(np.asarray(a, float), np.asarray(b, float), method="asymp")
    return float(res.statistic), float(res.pvalue)


def chi_square_2x2(hits_a: Sequence[bool], hits_b: Sequence[bool]) -> tuple[float, float]:
    """Chi-square test for equal hit frequency; degenerate tables give p = 1."""
    ha = int(np.count_nonzero(hits_a))
    hb = int(np.count_nonzero(hits_b))
    table = np.array([[ha, len(hits_a) - ha], [hb, len(hits_b) - hb]], dtype=float)
    if (table.sum(axis=0) == 0).any() or (table.sum(axis=1) == 0).any():
        return 0.0, 1.0
    chi2, p, _, _ = scipy_stats.chi2_contingency(table, correction=True)
    return float(chi2), float(p)


def holm_adjust(pvalues: Sequence[float]) -> list[float]:
    m = len(pvalues)
    order = sorted(range(m), key=lambda i: pvalues[i])
    adjusted = [0.0] * m
    running = 0.0
    for rank, idx in enumerate(order):
        running = max(running, (m - rank) * pvalues[idx])
        adjusted[idx] = min(1.0, running)
    return adjusted


@dataclass(frozen=True)
class TestResult:
    time: float
    statistic: str
    kind: str  # "ks" or "chi2"
    value: float
    p_raw: float
    p_holm: float = float("nan")


CONSISTENT = "consistent-not-rejected"
INCONSISTENT = "inconsistent-detected"


@dataclass(frozen=True)
class ConsistencyReport:
    results: tuple[TestResult, ...]
    n_reps: int
    aborted: tuple[int, int]
    alpha: float
    verdict: str

    @property
    def min_p_holm(self) -> float:
        return min(r.p_holm for r in self.results)

    def to_dict(self) -> dict:
        return {
            "n_reps": self.n_reps,
            "aborted_direct": self.aborted[0],
            "aborted_cropped": self.aborted[1],
            "alpha": self.alpha,
            "verdict": self.verdict,
            "results": [asdict(r) for r in self.results],
        }

    def to_text(self) -> str:
        lines = [
            f"consistency report  (n_reps={self.n_reps}, alpha={self.alpha})",
            f"verdict: {self.verdict}",
            f"{'time':>8} {'statistic':<20} {'kind':<5} {'value':>10} {'p_raw':>10} {'p_holm':>10}",
        ]
        for r in self.results:
            lines.append(
                f"{r.time:>8.4g} {r.statistic:<20} {r.kind:<5} "
                f"{r.value:>10.4g} {r.p_raw:>10.3e} {r.p_holm:>10.3e}"
            )
        return "\n".join(lines)


def _collect_chunk(
    rules: RulePair,
    V: Polygon,
    W: Polygon,
    times: Sequence[float],
    probes: Sequence[Polygon],
    seed: int,
    chunk: tuple[int, int, int],
) -> tuple[list[list[WindowStats]], int]:
    """Per-time statistics of one chunk of replicates; returns (stats, aborted count).

    The chunk is (arm, rep_start, rep_count).  Arm 0 builds in V, arm 1 builds
    in W.  Replicate `rep` runs on seed (seed, arm, rep), so its statistics do
    not depend on how the replicates are chunked.  Each replicate advances once,
    to the last time; `times` must be ascending.  The statistics at each time
    are `window_stats(crop(snapshot, V), probes)` of that replicate's snapshot.
    """
    arm, rep_start, rep_count = chunk
    build_window = W if arm else V
    chords: list[tuple[float, float, float, float]] = []
    births: list[float] = []
    counts: list[int] = []
    aborted = 0
    for rep in range(rep_start, rep_start + rep_count):
        state = new_process(build_window, rules, (seed, arm, rep))
        try:
            state.advance(times[-1])
        except ReplicateAborted:
            aborted += 1
            continue
        chords.extend(s.p + s.q for s in state.segments)
        births.extend(state.births)
        counts.append(len(state.segments))
    owner = np.repeat(np.arange(len(counts)), np.array(counts, dtype=int))
    xy = np.array(chords, dtype=float).reshape(-1, 4)
    return _window_columns(xy, np.array(births), owner, len(counts), V, times, probes), aborted


def _window_columns(
    chords: np.ndarray,
    births: np.ndarray,
    owner: np.ndarray,
    n_reps: int,
    V: Polygon,
    times: Sequence[float],
    probes: Sequence[Polygon],
) -> list[list[WindowStats]]:
    """`window_stats` of each replicate's crop to V at each time, from its chords.

    Row i of `chords` is the chord (px, py, qx, qy) of replicate owner[i],
    born at births[i]; a replicate's rows are in its division order.  Each
    chord is clipped and tested once: a snapshot at time t holds the chords
    born by t, so each time only selects them.  `np.bincount` adds in input
    order, so the total lengths are the floats `window_stats` sums.
    """
    rows, clipped, lengths = clip_segments(chords, V)
    keep = [i for i, length in enumerate(lengths) if length > MIN_CHORD_REL * V._scale]  # as `crop`
    clipped, births, owner = clipped[keep], births[rows[keep]], owner[rows[keep]]
    lengths = np.array(lengths)[keep]
    interior = np.zeros(len(clipped))
    floor = 1e-9 * V._scale  # the arithmetic of strictly_contains_point(tol=1e-9)
    vs = V.vertices
    for x, y in (clipped[:, :2].T, clipped[:, 2:].T):
        inside = np.ones(len(clipped), dtype=bool)
        for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1]):
            inside &= (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) > floor
        interior += inside
    m = len(probes)
    hits = np.zeros((len(clipped), m), dtype=bool)
    for j, pr in enumerate(probes):
        hits[:, j] = segments_hit_polygon(clipped, pr)
    slots = owner[:, None] * m + np.arange(m)
    columns = []
    for t in times:
        sel = births <= t
        o = owner[sel]
        total = np.bincount(o, weights=lengths[sel], minlength=n_reps).tolist()
        count = np.bincount(o, minlength=n_reps).tolist()
        inner = np.bincount(o, weights=interior[sel], minlength=n_reps).astype(int).tolist()
        hit = (np.bincount(slots[sel][hits[sel]], minlength=n_reps * m) > 0).reshape(n_reps, m).tolist()
        columns.append([WindowStats(tl, n, k, tuple(h)) for tl, n, k, h in zip(total, count, inner, hit)])
    return columns


def consistency_test(
    rules: RulePair,
    V: Polygon,
    W: Polygon,
    times: Sequence[float],
    n_reps: int,
    probes: Optional[Sequence[Polygon]] = None,
    seed: int = 0,
    alpha: float = 0.001,
    n_jobs: int = 1,
) -> ConsistencyReport:
    """Two-sample comparison of Y(V, t) against Y(W, t) cropped to V."""
    if n_reps < MIN_REPS:
        raise ValueError(f"n_reps must be >= {MIN_REPS}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    if len(times) == 0:
        raise ValueError("times must not be empty")
    if not all(math.isfinite(t) and t > 0 for t in times):
        raise ValueError(f"times must be positive and finite, got {list(times)}")
    if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError(f"times must be ascending, got {list(times)}")
    if not W.contains_polygon(V):
        raise ContainmentViolation("V must be contained in W")
    if probes is None:
        probes = default_probes(V)
    if not all(V.contains_polygon(pr) for pr in probes):
        raise ContainmentViolation("probe polygon outside the window")

    size = -(-n_reps // (4 * n_jobs))
    chunks = [
        (arm, start, min(size, n_reps - start)) for arm in (0, 1) for start in range(0, n_reps, size)
    ]
    work = partial(_collect_chunk, rules, V, W, times, probes, seed)
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(work, chunks))
    else:
        results = list(map(work, chunks))
    per_arm: list[list[list[WindowStats]]] = [[[] for _ in times] for _ in (0, 1)]
    aborted = [0, 0]
    for (arm, _, _), (stats, ab) in zip(chunks, results):
        aborted[arm] += ab
        for column, part in zip(per_arm[arm], stats):
            column.extend(part)
    direct, cropped = per_arm
    ab_d, ab_c = aborted
    if ab_d > MAX_ABORT_FRAC * n_reps or ab_c > MAX_ABORT_FRAC * n_reps:
        raise ReplicateAborted(
            f"too many aborted replicates: {ab_d}/{ab_c} of {n_reps} per arm"
        )

    raw: list[TestResult] = []
    for k, t in enumerate(times):
        sa, sb = direct[k], cropped[k]
        for name in ("total_length", "segment_count", "interior_endpoints"):
            a = [getattr(s, name) for s in sa]
            b = [getattr(s, name) for s in sb]
            stat, p = ks_two_sample(a, b)
            raw.append(TestResult(t, name, "ks", stat, p))
        for j in range(len(probes)):
            stat, p = chi_square_2x2([s.probe_hits[j] for s in sa], [s.probe_hits[j] for s in sb])
            raw.append(TestResult(t, f"probe_{j}", "chi2", stat, p))

    adjusted = holm_adjust([r.p_raw for r in raw])
    results = tuple(
        TestResult(r.time, r.statistic, r.kind, r.value, r.p_raw, ph)
        for r, ph in zip(raw, adjusted)
    )
    verdict = INCONSISTENT if min(adjusted) < alpha else CONSISTENT
    return ConsistencyReport(results, n_reps, (ab_d, ab_c), alpha, verdict)


def rate_estimate(
    rules: RulePair,
    V: Polygon,
    B: Polygon,
    dt: float,
    n_reps: int,
    seed: int = 0,
) -> float:
    """(1/dt) * P-hat(the tessellation in V hits B by time dt).

    For a shared-measure pair this converges to the hitting mass of B as
    dt -> 0 (first-order division rate).
    """
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {n_reps}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not V.contains_polygon(B):
        raise ContainmentViolation("B must be contained in V")
    if rate(rules.selection, V) * dt >= MAX_DIVISIONS_PER_DT:
        raise ValueError(
            f"dt too large: expected divisions in (0, dt) must stay below {MAX_DIVISIONS_PER_DT}"
        )
    hits = 0
    for rep in range(n_reps):
        state = new_process(V, rules, (seed, 2, rep))
        state.advance(dt)
        if any(segment_hits_polygon(s, B) for s in state.segments):
            hits += 1
    return hits / (n_reps * dt)


@dataclass(frozen=True)
class NuEstimate:
    values: tuple[float, ...]
    limit_reached: bool


def nu_limit(rules: RulePair, H_probe: Polygon, sizes: Sequence[float]) -> NuEstimate:
    """Monotone window-exhaustion sequence whose limit reconstructs the driving measure.

    Evaluates rate(W_n) * P(hit probe | hit W_n) for centered square windows of
    the given sizes; for a shared-measure pair this equals the mass of lines
    hitting both the probe and W_n, which stabilizes at the probe's hitting
    mass once the probe is contained.
    """
    if any(s2 <= s1 for s1, s2 in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly ascending")
    if not rules.stit_flag:
        raise ValueError("nu_limit needs a shared-measure (selection = division) pair")
    measure = rules.division.measure
    values = []
    limit_reached = False
    for s in sizes:
        half = s / 2.0
        Wn = Polygon([(-half, -half), (half, -half), (half, half), (-half, half)])
        values.append(joint_hitting_mass(measure, H_probe, Wn))
        if Wn.contains_polygon(H_probe):
            limit_reached = True
    return NuEstimate(tuple(values), limit_reached)


def fundamental_residual(
    measure: HyperplaneMeasure, V: Polygon, W: Polygon, B: Polygon
) -> float:
    """Relative residual of rate(V)*P_V(hit B) = rate(W)*P_W(hit B) = mass(B).

    The left-hand sides are evaluated through the offset-overlap route (for the
    isotropic family: numerical quadrature), the right-hand side through the
    closed-form hitting mass, so agreement is a genuine cross-check.
    """
    if not (V.contains_polygon(B) and W.contains_polygon(V)):
        raise ContainmentViolation("need B subset V subset W")
    mass_b = hitting_mass(measure, B)
    via_v = joint_hitting_mass(measure, B, V)
    via_w = joint_hitting_mass(measure, B, W)
    return max(abs(via_v - via_w), abs(via_v - mass_b), abs(via_w - mass_b)) / mass_b


def rate_vs_nu_residual(rules: RulePair, measure: HyperplaneMeasure, C: Polygon) -> float:
    """Relative gap between a selection rule's rate and the reconstructed measure mass.

    Zero (to rounding) exactly when the selection rule is the hitting-mass rule
    of the given measure; order-one for area or vertex-count selection.
    """
    nu_c = hitting_mass(measure, C)
    return abs(rate(rules.selection, C) - nu_c) / nu_c


@dataclass(frozen=True)
class IdentityResult:
    name: str
    passed: bool
    max_residual: float
    threshold: float
    detail: str = ""


def _random_nested_triple(rng) -> tuple[Polygon, Polygon, Polygon]:
    W = random_convex_polygon(
        rng,
        n_points=int(rng.integers(5, 11)),
        scale=0.5 + 2.0 * rng.random(),
        center=(4.0 * rng.standard_normal(), 4.0 * rng.standard_normal()),
    )
    V = scale_about_centroid(W, 0.35 + 0.4 * rng.random())
    B = scale_about_centroid(V, 0.3 + 0.4 * rng.random())
    return V, W, B


EXACT = 1e-10  # residual threshold of the exact identities


class _NotApplicable(Exception):
    """The rule pair lacks what an identity is about; the message says what."""


def _division_measure(rules: RulePair) -> HyperplaneMeasure:
    if not isinstance(rules.division, RestrictedMeasure):
        raise _NotApplicable("needs a measure-driven division rule")
    return rules.division.measure


# Each check draws n_cases random cases and returns (passed, max residual, threshold).


def _fundamental(rules: RulePair, rng, n_cases: int) -> tuple[bool, float, float]:
    measure = _division_measure(rules)
    worst = 0.0
    for _ in range(n_cases):
        V, W, B = _random_nested_triple(rng)
        worst = max(worst, fundamental_residual(measure, V, W, B))
    return worst < EXACT, worst, EXACT


def _corollary(rules: RulePair, rng, n_cases: int) -> tuple[bool, float, float]:
    measure = _division_measure(rules)
    worst = 0.0
    for _ in range(n_cases):
        _, W, B = _random_nested_triple(rng)
        mass_b = hitting_mass(measure, B)
        worst = max(worst, abs(joint_hitting_mass(measure, B, W) - mass_b) / mass_b)
    return worst < EXACT, worst, EXACT


def _nu_limit(rules: RulePair, rng, n_cases: int) -> tuple[bool, float, float]:
    if not rules.stit_flag:
        raise _NotApplicable("needs a shared-measure pair")
    measure = rules.division.measure
    worst = 0.0
    ok = True
    for _ in range(max(1, n_cases // 10)):
        probe = random_convex_polygon(
            rng, n_points=6, scale=0.5, center=(rng.standard_normal(), rng.standard_normal())
        )
        est = nu_limit(rules, probe, [1.0, 2.0, 4.0, 8.0, 16.0])
        ok = ok and est.limit_reached
        target = hitting_mass(measure, probe)
        for v1, v2 in zip(est.values, est.values[1:]):
            worst = max(worst, (v1 - v2) / target)  # monotonicity violation
        worst = max(worst, abs(est.values[-1] - target) / target)
    return ok and worst < EXACT, worst, EXACT


def _rate_matches_nu(rules: RulePair, rng, n_cases: int) -> tuple[bool, float, float]:
    measure = _division_measure(rules)
    worst = 0.0
    for _ in range(n_cases):
        C = random_convex_polygon(rng, n_points=int(rng.integers(4, 10)), scale=1.0)
        worst = max(worst, rate_vs_nu_residual(rules, measure, C))
    return worst < EXACT, worst, EXACT


def _division_bound(rules: RulePair, rng, n_cases: int) -> tuple[bool, float, float]:
    sel = rules.selection
    worst = 0.0
    for _ in range(max(1, n_cases // 5)):
        C = random_convex_polygon(rng, n_points=int(rng.integers(4, 10)), scale=1.0)
        k_hat = check_bound(sel, C, 200, rng)
        if isinstance(sel, VertexCount):
            n = vertex_count(C)
            bound = (n + 2) / n
        else:  # IntrinsicVolume or HittingMeasure: monotone under inclusion
            bound = 1.0 + 1e-12
        worst = max(worst, k_hat - bound)
    return worst <= 0.0, max(worst, 0.0), 0.0


# name -> (random stream id, check); the id keys the identity's generator to
# (seed, id), so an identity's result for a seed does not depend on the others.
IDENTITIES = {
    "fundamental": (0, _fundamental),
    "corollary": (1, _corollary),
    "nu_limit": (2, _nu_limit),
    "rate_matches_nu": (3, _rate_matches_nu),
    "division_bound": (4, _division_bound),
}


def identity_suite(
    rules: RulePair, identities: Sequence[str], n_cases: int = 100, seed: int = 0
) -> list[IdentityResult]:
    """Analytic identity checks for a rule pair; failures are informative, not errors.

    The shared-measure pair passes everything; an area or vertex-count
    selection fails 'rate_matches_nu' by design.
    """
    results: list[IdentityResult] = []
    for name in identities:
        if name not in IDENTITIES:
            raise ValueError(f"unknown identity '{name}'")
        stream, check = IDENTITIES[name]
        rng = np.random.default_rng((seed, stream))
        try:
            passed, worst, threshold = check(rules, rng, n_cases)
        except _NotApplicable as exc:
            results.append(IdentityResult(name, False, math.inf, EXACT, str(exc)))
            continue
        results.append(IdentityResult(name, passed, worst, threshold))
    return results
