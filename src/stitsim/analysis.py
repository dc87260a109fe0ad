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

from .engine import SEED_BLOCK, CroppedTessellation, crop_rows, death_time, new_process, replicate_seeds
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
    rate,
)

MIN_REPS = 100  # fewest replicates per arm that consistency_test accepts
MAX_ABORT_FRAC = 0.01  # consistency_test fails when more of an arm's replicates abort
PROBE_GRID = 3  # default_probes places PROBE_GRID x PROBE_GRID disks
PROBE_RADIUS_FRAC = 0.1  # default probe radius over the shorter side of V's bounding box
MAX_DIVISIONS_PER_DT = 0.1  # rate_estimate's bound on rate(V) * dt
# rate_estimate's chunk: at small dt a chunk's fixed cost is worth a hundred or more replicates
# (SEED_BLOCK chunks made a 20 000-replicate call at dt = 0.005 5-12% slower), and 64 blocks
# bound its table at 2 MB.
RATE_CHUNK = 64 * SEED_BLOCK
# rate_estimate runs one process per RATE_FORK_MIN replicates, up to usable_cpus().  On a 2-vCPU
# Xeon a fork costs 4-6 ms: one process against two took 2.0 vs 5.7 ms at 100 replicates, 10.8
# vs 11.4 ms at 1024 and 21.0 vs 17.4 ms at 2048 at dt = 0.07 (medians of 20 alternating pairs).
# At dt = 0.005, where a replicate whose root outlives dt costs only its seeding and one draw,
# they took 1.2 vs 4.4, 3.5 vs 7.5 and 7.0 vs 10.8 ms.  The floor is the break-even of the
# costliest replicates, near the largest dt that MAX_DIVISIONS_PER_DT allows.
RATE_FORK_MIN = 1024


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


def _column_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a and b as (samples, columns) arrays with the same columns."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"need two 2-D arrays with as many columns, got shapes {a.shape}/{b.shape}")
    return a, b


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided two-sample Kolmogorov-Smirnov test of each column of `a` against the same column of `b`.

    `a` is (m, columns) and `b` is (n, columns).  Each column gets scipy's
    `ks_2samp(method="asymp")` arithmetic: D is the largest gap between the
    empirical CDFs at the pooled points, and its p-value is
    `kstwo_sf(D, round(m*n/(m+n)))`, the exact law of the one-sample KS
    statistic at the effective sample size (Simard & L'Ecuyer 2011),
    clipped to [0, 1].  `kstwo_sf` is a port of scipy's `kstwo.sf` with the
    same bits that loads only `scipy.special`, not `scipy.stats`.  All
    columns share one `kstwo_sf` call.  Returns an array of D and one of p,
    a value per column.
    """
    xs, ys = (x.astype(float) for x in _column_pair(a, b))
    m, n = len(xs), len(ys)
    if m < 20 or n < 20:
        raise InsufficientSamples(f"need >= 20 samples per side, got {m}/{n}")
    from .kstwo import kstwo_sf  # loaded by the first test, so `import stitsim` does no more work than before

    gaps = np.empty((xs.shape[1], m + n))  # empirical CDF of a minus that of b, at the pooled points
    for c, (x, y) in enumerate(zip(np.sort(xs.T, axis=1), np.sort(ys.T, axis=1))):
        pooled = np.concatenate([x, y])
        gaps[c] = np.searchsorted(x, pooled, side="right") / m - np.searchsorted(y, pooled, side="right") / n
    below = np.clip(-gaps.min(axis=1), 0, 1)
    above = gaps.max(axis=1)
    d = np.where(below > above, below, above)
    p = np.clip(kstwo_sf(d, np.round(m * n / (m + n))), 0, 1)
    return d, p


def chi_square_2x2(hits_a: np.ndarray, hits_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chi-square test for equal hit frequency in each column of `hits_a` and the same column of `hits_b`.

    Shapes as in `ks_two_sample`; a nonzero entry is a hit.  Each column's
    2x2 table of hits and misses per side gets scipy's
    `chi2_contingency(correction=True)` arithmetic: expected counts from the
    margins, Yates' continuity step, and the four Pearson terms summed in
    table order; p = `chdtrc(1, statistic)`, one call for all columns.  A
    table with an empty row or column gives statistic 0 and p 1.
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
    return stat, p


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
    p_holm: float


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


def _forked_map(n_jobs: int, work: Callable, chunks: list) -> list:
    """[work(chunk) for chunk in chunks] on n_jobs processes: this one and n_jobs - 1 forked children.

    Process i runs share chunks[i::n_jobs]; this process runs share 0, so a
    child gets the call's inputs, warm caches included, by the fork and
    pickles only its results (or the exception it raised) back through its
    own pipe.  A child that ends without writing its whole result raises
    `ChildProcessError` here; a child whose caller is gone exits before its
    next chunk.  On return or error every child is killed and reaped.
    With n_jobs = 1, or off Linux, where fork is missing or unsafe, it forks
    nothing and maps in this process.
    """
    n_jobs = min(n_jobs, len(chunks)) if sys.platform.startswith("linux") else 1
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


def _chunk_bounds(n_reps: int, n_jobs: int, size: int) -> list[int]:
    """Cuts of range(n_reps) into near-equal chunks of at most `size`, as many as a multiple of n_jobs.

    Chunk j is [bounds[j], bounds[j + 1]).  With fewer replicates than that
    many chunks, each chunk is one replicate.  Share chunks[i::n_jobs] of
    `_forked_map` then holds the same work, to one replicate a chunk.
    """
    count = min(n_reps, n_jobs * -(-n_reps // (n_jobs * size)))
    return [n_reps * j // count for j in range(count + 1)]


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
    are chunked.  The loop first draws the root's death from a generator of
    its own; a replicate whose root outlives the last time has no chord by
    then, and builds no state.  Any other replicate builds one from the seed,
    which re-seeds and redraws the same death (the root is kept, as V lies in
    W), and advances once, to the last time; `times` must be ascending.  Each
    replicate that did not abort has a row per time:
    `window_stats(crop(snapshot, V), probes)`.
    """
    arm, rep_start, rep_count = chunk
    build_window, region = (W, V) if arm == 1 else (V, None)
    root_rate = rate(rules.selection, build_window)
    last = times[-1]
    default_rng = np.random.default_rng
    chords: list[Segment] = []
    births: list[float] = []
    counts: list[int] = []
    aborted = 0
    for rep_seed in replicate_seeds(seed, arm, rep_start, rep_count):
        death = death_time(0.0, default_rng(rep_seed), root_rate)
        if death > last:  # advance pops a cell only at death_time <= t
            counts.append(0)
            continue
        state = new_process(build_window, rules, rep_seed, region=region)
        try:
            state.advance(last)
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
    """Two-sample comparison of Y(V, t) against Y(W, t) cropped to V, on at most `usable_cpus()` processes.

    With n_jobs > 1 the call forks min(n_jobs, usable_cpus()) - 1 children
    on Linux, runs a share of the replicates itself, and kills and reaps the
    children before it returns (see `_forked_map`); elsewhere it runs in
    process.  The report does not depend on the process count.  At each
    time the three KS statistics are one `ks_two_sample` call and the probe
    hits one `chi_square_2x2` call; Holm's correction runs over the whole
    family.
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

    # Chunks of at most SEED_BLOCK replicates (one seeder block; it bounds a
    # chunk's chord arrays), so every process gets the same work of each arm.
    n_jobs = min(n_jobs, usable_cpus())
    bounds = _chunk_bounds(n_reps, n_jobs, SEED_BLOCK)
    chunks = [(arm, lo, hi - lo) for arm in (0, 1) for lo, hi in zip(bounds, bounds[1:])]
    work = partial(_collect_chunk, rules, V, W, times, probes, seed)
    results = _forked_map(n_jobs, work, chunks)
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


def _rate_chunk(
    rules: RulePair, V: Polygon, B: Polygon, dt: float, seed: int, chunk: tuple[int, int, int]
) -> tuple[int, int]:
    """(replicates that hit B by dt, aborted replicates) of one chunk of `rate_estimate`."""
    table, aborted = _collect_chunk(rules, V, V, [dt], [B], seed, chunk)
    return int(table[0, :, 3].sum()), aborted


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
    dt -> 0 (first-order division rate).  It counts the replicates of stream 2
    whose `_collect_chunk` probe column is 1; any aborted replicate raises
    `ReplicateAborted`.  A replicate whose root cell outlives dt has no chord
    and builds no state; as rate(V) * dt < MAX_DIVISIONS_PER_DT, that is
    over 90% of them (exp(-0.1)).  The replicates run on min(`usable_cpus()`,
    ceil(n_reps / RATE_FORK_MIN)) processes; a count of hits is exact, so
    the estimate does not depend on the process count.  Above RATE_FORK_MIN
    replicates on Linux the call forks children with `os.fork` (see
    `_forked_map`), so it must not be called from a multi-threaded process:
    a child may block on a lock that another thread held at the fork.
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
    n_jobs = min(usable_cpus(), -(-n_reps // RATE_FORK_MIN))
    bounds = _chunk_bounds(n_reps, n_jobs, RATE_CHUNK)
    chunks = [(2, lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]
    results = _forked_map(n_jobs, partial(_rate_chunk, rules, V, B, dt, seed), chunks)
    hits, aborted = map(sum, zip(*results))
    if aborted:
        raise ReplicateAborted(f"{aborted} of {n_reps} replicates aborted")
    return float(hits / (n_reps * dt))


def fundamental_residual(
    measure: HyperplaneMeasure, V: Polygon, W: Polygon, B: Polygon
) -> float:
    """Relative residual of rate(V)*P_V(hit B) = rate(W)*P_W(hit B) = mass(B).

    The left-hand sides are evaluated through the offset-overlap route (for the
    isotropic family: numerical quadrature), the right-hand side through the
    closed-form hitting mass, so agreement is a genuine cross-check of the
    quadrature of `joint_hitting_mass`.  It reads only the measure (the
    `fundamental` identity passes the division's) and takes each rate to be
    its hitting mass: it does not check the rule pair.
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
NU_SIZES = (1.0, 2.0, 4.0, 8.0, 16.0)  # sides of the nu_limit identity's centred squares


class _NotApplicable(Exception):
    """The rule pair lacks what an identity is about; the message says what."""


def _division_measure(rules: RulePair) -> HyperplaneMeasure:
    if not isinstance(rules.division, RestrictedMeasure):
        raise _NotApplicable("needs a measure-driven division rule")
    return rules.division.measure


# Each check draws one random case and returns its residual.


def _fundamental(rules: RulePair, rng) -> float:
    return fundamental_residual(_division_measure(rules), *_random_nested_triple(rng))


def _corollary(rules: RulePair, rng) -> float:
    measure = _division_measure(rules)
    _, W, B = _random_nested_triple(rng)
    mass_b = hitting_mass(measure, B)
    return abs(joint_hitting_mass(measure, B, W) - mass_b) / mass_b


def _nu_limit(rules: RulePair, rng) -> float:
    """Window exhaustion over the centred squares W_n of side NU_SIZES, for a random probe.

    rate(W_n) * P(the first line hits the probe) is the mass of the lines that
    hit both; it rises to the probe's hitting mass.  Returns the worst rise
    violation or gap to that limit; inf for a probe that the largest square
    does not contain.
    """
    if (measure := rules.stit_measure) is None:
        raise _NotApplicable("needs a shared-measure pair")
    probe = random_convex_polygon(
        rng, n_points=6, scale=0.5, center=(rng.standard_normal(), rng.standard_normal())
    )
    halves = [s / 2.0 for s in NU_SIZES]
    squares = [Polygon([(-h, -h), (h, -h), (h, h), (-h, h)]) for h in halves]
    if not squares[-1].contains_polygon(probe):
        return math.inf
    values = [joint_hitting_mass(measure, probe, Wn) for Wn in squares]
    target = hitting_mass(measure, probe)
    gaps = [(v1 - v2) / target for v1, v2 in zip(values, values[1:])]
    return max(gaps + [abs(values[-1] - target) / target])


def _rate_matches_nu(rules: RulePair, rng) -> float:
    """Relative gap between the selection rate and the division measure's hitting mass.

    Zero (to rounding) exactly when the selection rule is the hitting-mass rule
    of that measure; order-one for area or vertex-count selection.
    """
    measure = _division_measure(rules)
    C = random_convex_polygon(rng, n_points=int(rng.integers(4, 10)), scale=1.0)
    nu_c = hitting_mass(measure, C)
    return abs(rate(rules.selection, C) - nu_c) / nu_c


def _division_bound(rules: RulePair, rng) -> float:
    """How far the largest rate ratio of a random cell's pieces exceeds the selection rule's bound."""
    sel = rules.selection
    C = random_convex_polygon(rng, n_points=int(rng.integers(4, 10)), scale=1.0)
    k_hat = check_bound(sel, C, 200, rng)
    if isinstance(sel, VertexCount):
        n = vertex_count(C)
        bound = (n + 2) / n
    else:  # IntrinsicVolume or HittingMeasure: monotone under inclusion
        bound = 1.0 + 1e-12
    return k_hat - bound


# name -> (random stream id, cases divisor, check, threshold).  The id keys the
# identity's generator to (seed, id), so an identity's result for a seed does
# not depend on the others; the costlier checks draw n_cases // divisor cases.
IDENTITIES = {
    "fundamental": (0, 1, _fundamental, EXACT),
    "corollary": (1, 1, _corollary, EXACT),
    "nu_limit": (2, 10, _nu_limit, EXACT),
    "rate_matches_nu": (3, 1, _rate_matches_nu, EXACT),
    "division_bound": (4, 5, _division_bound, 0.0),
}


def identity_suite(
    rules: RulePair, identities: Sequence[str], n_cases: int = 100, seed: int = 0
) -> list[IdentityResult]:
    """Analytic identity checks for a rule pair; failures are informative, not errors.

    Each identity checks max(1, n_cases // divisor) cases drawn from its own
    stream and reports its largest residual, 0 at least; it passes below its
    threshold, or at 0.  The shared-measure pair passes everything; an area
    or vertex-count selection fails 'rate_matches_nu' by design.
    """
    if n_cases < 1:
        raise ValueError(f"n_cases must be >= 1, got {n_cases}")
    results: list[IdentityResult] = []
    for name in identities:
        if name not in IDENTITIES:
            raise ValueError(f"unknown identity '{name}'")
        stream, divisor, check, threshold = IDENTITIES[name]
        rng = np.random.default_rng((seed, stream))
        worst = 0.0
        try:
            for _ in range(max(1, n_cases // divisor)):
                worst = max(worst, check(rules, rng))
        except _NotApplicable as exc:
            results.append(IdentityResult(name, False, math.inf, threshold, str(exc)))
        else:
            results.append(IdentityResult(name, worst < threshold or worst == 0.0, worst, threshold))
    return results
