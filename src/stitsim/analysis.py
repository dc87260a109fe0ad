"""Statistics on cropped tessellations and the consistency / identity test harness.

The two-sample machinery compares a process built directly in a small window V
against a process built in a larger window W and cropped to V, over a fixed,
pre-registered family of statistics (total chord length, maximal segment
count, interior endpoints, probe hits) at fixed times, with Holm correction
over the whole family.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
import sys
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, NoReturn, Optional, Sequence

import numpy as np

from .engine import EVENT_BYTES, MAX_EVENTS, SEED_BLOCK, CroppedTessellation, crop_rows, new_process, replicate_seeds
from .errors import ContainmentViolation, InsufficientSamples, ReplicateAborted
from .geometry import (
    Polygon,
    Segment,
    edge_margins,
    random_convex_polygon,
    regular_ngon,
    scale_about_centroid,
    segment_rows,
    segments_hit_polygon,
    vertex_count,
)
from .measures import HyperplaneMeasure, hitting_mass, joint_hitting_mass
from .rules import (
    RestrictedMeasure,
    RulePair,
    VertexCount,
    check_bound,
    min_expected_chords,
    rate,
)

MIN_REPS = 100  # fewest replicates per arm that consistency_test accepts
MAX_ABORT_FRAC = 0.01  # consistency_test fails when more of an arm's replicates abort
PROBE_GRID = 3  # default_probes places PROBE_GRID x PROBE_GRID disks
PROBE_RADIUS_FRAC = 0.1  # default probe radius over the shorter side of V's bounding box
MAX_DIVISIONS_PER_DT = 0.1  # rate_estimate's bound on rate(V) * dt
# rate_estimate's chunk: at small dt a chunk's fixed cost is worth tens of replicates
# (SEED_BLOCK chunks made rate_small_dt 7-9% slower), and 64 blocks bound its table at 2 MB.
RATE_CHUNK = 64 * SEED_BLOCK


@dataclass(frozen=True)
class WindowStats:
    total_length: float
    segment_count: int
    interior_endpoints: int
    probe_hits: tuple[bool, ...]


def window_stats(T: CroppedTessellation, probes: Sequence[Polygon] = ()) -> WindowStats:
    """Statistics of one crop; every probe must lie in `T.window` (not checked here).

    One replicate at one time of `_window_table`.
    """
    segs = T.segments
    zeros = np.zeros(len(segs), dtype=int)
    row = _window_table(segment_rows(segs), [s.length for s in segs], zeros, zeros, 1, T.window, [0], probes)[0, 0]
    total, count, interior, *hits = row.tolist()
    return WindowStats(total, int(count), int(interior), tuple(h > 0 for h in hits))


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


def _column_pair(a: Sequence | np.ndarray, b: Sequence | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a and b as (samples, columns) arrays with the same columns; a 1-D sample is one column."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != b.ndim or a.ndim not in (1, 2) or a.shape[1:] != b.shape[1:]:
        raise ValueError(f"need two 1-D samples or two 2-D arrays with as many columns, got shapes {a.shape}/{b.shape}")
    return (a[:, None], b[:, None]) if a.ndim == 1 else (a, b)


def ks_two_sample(a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray) -> tuple:
    """Two-sided two-sample Kolmogorov-Smirnov test of each column of `a` against the same column of `b`.

    `a` is (m,) or (m, columns) and `b` is (n,) or (n, columns).  Each column
    gets scipy's `ks_2samp(method="asymp")` arithmetic: D is the largest gap
    between the empirical CDFs at the pooled points, and its p-value is
    `kstwo.sf(D, round(m*n/(m+n)))`, the exact law of the one-sample KS
    statistic at the effective sample size, clipped to [0, 1].  All columns
    share one `kstwo.sf` call.  A 1-D pair gives (D, p) as floats; 2-D arrays
    give an array of D and one of p, a value per column.
    """
    xs, ys = (x.astype(float) for x in _column_pair(a, b))
    m, n = len(xs), len(ys)
    if m < 20 or n < 20:
        raise InsufficientSamples(f"need >= 20 samples per side, got {m}/{n}")
    from scipy import stats as scipy_stats  # about 1 s to import, paid on the first test only

    gaps = np.empty((xs.shape[1], m + n))  # empirical CDF of a minus that of b, at the pooled points
    for c, (x, y) in enumerate(zip(np.sort(xs.T, axis=1), np.sort(ys.T, axis=1))):
        pooled = np.concatenate([x, y])
        gaps[c] = np.searchsorted(x, pooled, side="right") / m - np.searchsorted(y, pooled, side="right") / n
    below = np.clip(-gaps.min(axis=1), 0, 1)
    above = gaps.max(axis=1)
    d = np.where(below > above, below, above)
    p = np.clip(scipy_stats.kstwo.sf(d, np.round(m * n / (m + n))), 0, 1)
    return (float(d[0]), float(p[0])) if np.ndim(a) == 1 else (d, p)


def chi_square_2x2(hits_a: Sequence[bool] | np.ndarray, hits_b: Sequence[bool] | np.ndarray) -> tuple:
    """Chi-square test for equal hit frequency in each column of `hits_a` and the same column of `hits_b`.

    Shapes as in `ks_two_sample`; a nonzero entry is a hit.  Each column's
    2x2 table of hits and misses per side gets scipy's
    `chi2_contingency(correction=True)` arithmetic: expected counts from the
    margins, Yates' continuity step, and the four Pearson terms summed in
    table order; p = `chdtrc(1, statistic)`, one call for all columns.  A
    table with an empty row or column gives (0.0, 1.0).
    """
    ha, hb = _column_pair(hits_a, hits_b)
    hit_a, hit_b = np.count_nonzero(ha, axis=0), np.count_nonzero(hb, axis=0)
    table = np.moveaxis(np.array([[hit_a, len(ha) - hit_a], [hit_b, len(hb) - hit_b]], dtype=float), -1, 0)
    rows, cols = table.sum(axis=2, keepdims=True), table.sum(axis=1, keepdims=True)
    proper = (rows > 0).all(axis=(1, 2)) & (cols > 0).all(axis=(1, 2))
    stat, p = np.zeros(len(table)), np.ones(len(table))
    if proper.any():
        from scipy import special

        observed = table[proper]
        expected = rows[proper] * cols[proper] / observed.sum(axis=(1, 2), keepdims=True)
        gap = expected - observed
        observed = observed + np.minimum(0.5, np.abs(gap)) * np.sign(gap)
        stat[proper] = ((observed - expected) ** 2 / expected).reshape(-1, 4).sum(axis=1)
        p[proper] = special.chdtrc(1, stat[proper])
    return (float(stat[0]), float(p[0])) if np.ndim(hits_a) == 1 else (stat, p)


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


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS reports one, else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def available_memory() -> Optional[int]:
    """Bytes of memory available: MemAvailable of /proc/meminfo, else os.sysconf's free pages, else None."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError):
        pass
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None


def max_workers(rules: RulePair, W: Polygon, t: float) -> int:
    """The processes, the caller included, that a consistency test of `rules` in W up to time t may use.

    At most `usable_cpus()`, and at most `available_memory()` over one
    trajectory's size: `min_expected_chords(rules, W, t)` events, capped at
    MAX_EVENTS, at EVENT_BYTES each.  The chord count is a lower bound on
    the mean, so this is an estimate, not a hard bound: a trajectory may
    keep more, and a chunk also keeps the chords of its finished replicates.
    Where the memory cannot be read only the CPUs bound it; it is always at
    least 1, and 1 off Linux, the one platform where the extra processes are
    forked.
    """
    if not sys.platform.startswith("linux"):
        return 1
    free = available_memory()
    if free is None:
        return usable_cpus()
    trajectory = max(1.0, min(min_expected_chords(rules, W, t), MAX_EVENTS)) * EVENT_BYTES
    return max(1, min(usable_cpus(), int(free // trajectory)))


def _forked_map(n_jobs: int, work: Callable, chunks: list) -> list:
    """[work(chunk) for chunk in chunks] on n_jobs processes: this one and n_jobs - 1 forked children.

    Process i runs share chunks[i::n_jobs]; this process runs share 0, so a
    child gets the call's inputs, warm caches included, by the fork and
    pickles only its results (or the exception it raised) back through its
    own pipe.  A child that ends without writing its whole result raises
    `ChildProcessError` here; a child whose caller is gone exits before its
    next chunk.  On return or error every child is killed and reaped.
    Linux only.
    """
    n_jobs = min(n_jobs, len(chunks))
    results: list = [None] * len(chunks)
    pipes: list = []  # read ends as files, child i's at i - 1
    pids: list[int] = []  # children not yet reaped
    caller = os.getpid()
    try:
        for i in range(1, n_jobs):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                if (pid := os.fork()) == 0:
                    _run_share(work, chunks[i::n_jobs], w, pipes, caller)
                pids.append(pid)
            finally:
                os.close(w)
        results[::n_jobs] = map(work, chunks[::n_jobs])
        for i, (pid, pipe) in enumerate(zip(pids, pipes), 1):
            blob = pipe.read()
            try:
                ok, out = pickle.loads(blob)
            except Exception:  # empty or cut short: the child ended before its whole result was written
                pids.remove(pid)  # reaped here, for its status
                status = os.waitpid(pid, 0)[1]
                raise ChildProcessError(f"worker process {pid} ended without a result (wait status {status})") from None
            if not ok:
                raise out
            results[i::n_jobs] = out
        return results
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            # gone already where something else reaps children (SIGCHLD ignored, a waitpid(-1) elsewhere)
            with contextlib.suppress(ChildProcessError, ProcessLookupError):
                if not os.waitpid(pid, os.WNOHANG)[0]:  # still running: kill only a pid that is still ours
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)


def _run_share(work: Callable, share: list, w: int, pipes: list, caller: int) -> NoReturn:
    """A forked child's life: pickles (True, results) or (False, exception) to pipe `w`, then exits (1 if it cannot)."""
    try:
        for pipe in pipes:  # the read ends it inherited, its own among them
            pipe.close()
        try:
            results = []
            for chunk in share:
                if os.getppid() != caller:  # the caller was killed: nothing will read the pipe
                    os._exit(1)
                results.append(work(chunk))
            out = (True, results)
        except Exception as exc:
            out = (False, exc)
        blob = pickle.dumps(out)  # whole before the write, so a failure to pickle leaves the pipe empty
        with open(w, "wb") as pipe:
            pipe.write(blob)
        os._exit(0)
    finally:
        os._exit(1)


def _collect_chunk(
    rules: RulePair,
    V: Polygon,
    W: Polygon,
    times: Sequence[float],
    probes: Sequence[Polygon],
    seed: int,
    chunk: tuple[int, int, int],
) -> tuple[np.ndarray, int]:
    """The `_window_table` of one chunk of replicates; returns (table, aborted count).

    The chunk is (arm, rep_start, rep_count).  Arm 1 builds in W with region V,
    only the cells that can meet V (see `ProcessState`): the crop to V keeps its
    law, not its seeded draws.  Arms 0 and 2 (`rate_estimate`'s) build in V.
    Replicate `rep` runs on the generator of seed (seed, arm, rep), from
    `replicate_seeds`, so its statistics do not depend on how the replicates
    are chunked.  Each replicate advances once, to the last time; `times`
    must be ascending.  Each replicate that did not abort has a row per time:
    `window_stats(crop(snapshot, V), probes)`.
    """
    arm, rep_start, rep_count = chunk
    build_window, region = (W, V) if arm == 1 else (V, None)
    chords: list[Segment] = []
    births: list[float] = []
    counts: list[int] = []
    aborted = 0
    for rep_seed in replicate_seeds(seed, arm, rep_start, rep_count):
        state = new_process(build_window, rules, rep_seed, region=region)
        try:
            state.advance(times[-1])
        except ReplicateAborted:
            aborted += 1
            continue
        chords += state.segments
        births += state.births
        counts.append(len(state.segments))
    owner = np.repeat(np.arange(len(counts)), np.array(counts, dtype=int))
    rows, clipped, lengths = crop_rows(segment_rows(chords), V)
    return _window_table(clipped, lengths, np.array(births)[rows], owner[rows], len(counts), V, times, probes), aborted


def _window_table(
    chords: np.ndarray,
    lengths: Sequence[float],
    births: np.ndarray,
    owner: np.ndarray,
    n_reps: int,
    V: Polygon,
    times: Sequence[float],
    probes: Sequence[Polygon],
) -> np.ndarray:
    """The statistics of each replicate's crop to V at each time, shape (len(times), n_reps, 3 + len(probes)).

    Row i of `chords` is a cropped chord (px, py, qx, qy) of replicate
    owner[i], of length lengths[i], born at births[i]; a replicate's rows are
    in its division order.  The columns are the total length, the chord
    count, the endpoints more than 1e-9*V._scale inside every edge of V, and
    a 0/1 hit flag per probe.  A snapshot at time t holds the chords born by
    t.  `np.bincount` adds in input order, so a total length is the sum of
    its chords' lengths in order.
    """
    floor = 1e-9 * V._scale
    inside = [edge_margins(V, chords[:, i], chords[:, i + 1]) > floor for i in (0, 2)]
    hits = [segments_hit_polygon(chords, pr) for pr in probes]
    weights = np.column_stack([lengths, np.ones(len(chords)), np.add(*inside, dtype=float)] + hits)
    table = np.empty((len(times), n_reps, weights.shape[1]))
    for k, t in enumerate(times):
        sel = births <= t
        for c, w in enumerate(weights[sel].T):
            table[k, :, c] = np.bincount(owner[sel], weights=w, minlength=n_reps)
    table[:, :, 3:] = table[:, :, 3:] > 0
    return table


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
    """Two-sample comparison of Y(V, t) against Y(W, t) cropped to V, on at most `max_workers()` processes.

    With n_jobs > 1 the call forks n_jobs - 1 children on Linux, runs a
    share of the replicates itself, and kills and reaps the children before
    it returns (see `_forked_map`); elsewhere it runs in process.  The
    report does not depend on the process count.  At each time the three KS
    statistics are one `ks_two_sample` call and the probe hits one
    `chi_square_2x2` call; Holm's correction runs over the whole family.
    """
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

    # Each arm in near-equal chunks of at most SEED_BLOCK replicates (one seeder
    # block; it bounds a chunk's chord arrays), as many as a multiple of n_jobs,
    # so share chunks[i::n_jobs] of every process holds the same work of each arm.
    if n_jobs > 1:
        n_jobs = min(n_jobs, max_workers(rules, W, times[-1]))
    per_arm = min(n_reps, n_jobs * -(-n_reps // (n_jobs * SEED_BLOCK)))
    bounds = [n_reps * j // per_arm for j in range(per_arm + 1)]
    chunks = [(arm, lo, hi - lo) for arm in (0, 1) for lo, hi in zip(bounds, bounds[1:])]
    work = partial(_collect_chunk, rules, V, W, times, probes, seed)
    results = _forked_map(n_jobs, work, chunks) if n_jobs > 1 else list(map(work, chunks))
    tables: list[list[np.ndarray]] = [[], []]
    aborted = [0, 0]
    for (arm, _, _), (table, ab) in zip(chunks, results):
        tables[arm].append(table)
        aborted[arm] += ab
    ab_d, ab_c = aborted
    if ab_d > MAX_ABORT_FRAC * n_reps or ab_c > MAX_ABORT_FRAC * n_reps:
        raise ReplicateAborted(
            f"too many aborted replicates: {ab_d}/{ab_c} of {n_reps} per arm"
        )

    direct, cropped = (np.concatenate(arm_tables, axis=1) for arm_tables in tables)
    names = ("total_length", "segment_count", "interior_endpoints") + tuple(f"probe_{j}" for j in range(len(probes)))
    kinds = ("ks",) * 3 + ("chi2",) * len(probes)
    raw = []
    for k, t in enumerate(times):
        ks_values, ks_p = ks_two_sample(direct[k, :, :3], cropped[k, :, :3])
        chi2_values, chi2_p = chi_square_2x2(direct[k, :, 3:], cropped[k, :, 3:])
        values = np.concatenate([ks_values, chi2_values]).tolist()
        pvalues = np.concatenate([ks_p, chi2_p]).tolist()
        raw += zip([t] * len(names), names, kinds, values, pvalues)
    adjusted = holm_adjust([p for *_, p in raw])
    results = tuple(TestResult(*r, ph) for r, ph in zip(raw, adjusted))
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
    dt -> 0 (first-order division rate).  It sums the probe column of stream 2
    of `_collect_chunk`; any aborted replicate raises `ReplicateAborted`.
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
    hits = aborted = 0
    for start in range(0, n_reps, RATE_CHUNK):
        table, ab = _collect_chunk(rules, V, V, [dt], [B], seed, (2, start, min(RATE_CHUNK, n_reps - start)))
        hits += table[0, :, 3].sum()
        aborted += ab
    if aborted:
        raise ReplicateAborted(f"{aborted} of {n_reps} replicates aborted")
    return float(hits / (n_reps * dt))


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
    """Relative gap between the selection rate and the division measure's hitting mass.

    Zero (to rounding) exactly when the selection rule is the hitting-mass rule
    of that measure; order-one for area or vertex-count selection.
    """
    measure = _division_measure(rules)
    worst = 0.0
    for _ in range(n_cases):
        C = random_convex_polygon(rng, n_points=int(rng.integers(4, 10)), scale=1.0)
        nu_c = hitting_mass(measure, C)
        worst = max(worst, abs(rate(rules.selection, C) - nu_c) / nu_c)
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
