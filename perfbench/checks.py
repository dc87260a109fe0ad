"""Correctness checks on workload outputs.

Every check returns a list of failure messages; an empty list means the output
passed.  The checks read only plain outputs (report dicts, dump records,
estimates), so `selftest.py` can feed them corrupted copies and show that each
one can fail.
"""

from __future__ import annotations

import math
from typing import Sequence

CONSISTENT = "consistent-not-rejected"
INCONSISTENT = "inconsistent-detected"
N_KS_STATISTICS = 3  # total_length, segment_count, interior_endpoints


def holm(pvalues: Sequence[float]) -> list[float]:
    """Holm step-down adjustment, written independently of the library's."""
    m = len(pvalues)
    adjusted = [0.0] * m
    running = 0.0
    for rank, idx in enumerate(sorted(range(m), key=lambda i: pvalues[i])):
        running = max(running, (m - rank) * pvalues[idx])
        adjusted[idx] = min(1.0, running)
    return adjusted


def check_consistency_report(
    report: dict,
    *,
    n_times: int,
    n_probes: int,
    n_reps: int,
    max_abort_frac: float,
    expect_verdict: str | None = None,
    exit_code: int | None = None,
) -> list[str]:
    """A consistency report is well formed, Holm-adjusted and self-consistent."""
    fails = []
    rows = report.get("results", [])
    want_rows = n_times * (N_KS_STATISTICS + n_probes)
    if len(rows) != want_rows:
        fails.append(f"{len(rows)} result rows, expected {want_rows}")
    if report.get("n_reps") != n_reps:
        fails.append(f"n_reps {report.get('n_reps')} != {n_reps}")
    p_raw = [r.get("p_raw", math.nan) for r in rows]
    p_holm = [r.get("p_holm", math.nan) for r in rows]
    if not all(0.0 <= p <= 1.0 for p in p_raw + p_holm):
        fails.append("a p-value lies outside [0, 1]")
    if any(ph < pr for pr, ph in zip(p_raw, p_holm)):
        fails.append("p_holm < p_raw in some row")
    if rows and any(abs(a - b) > 1e-12 for a, b in zip(holm(p_raw), p_holm)):
        fails.append("p_holm is not the Holm adjustment of p_raw")
    for arm in ("aborted_direct", "aborted_cropped"):
        if not 0 <= report.get(arm, -1) <= max_abort_frac * n_reps:
            fails.append(f"{arm}={report.get(arm)} exceeds {max_abort_frac} of {n_reps}")
    verdict = report.get("verdict")
    if verdict not in (CONSISTENT, INCONSISTENT):
        fails.append(f"unknown verdict {verdict!r}")
    elif rows:
        implied = INCONSISTENT if min(p_holm) < report.get("alpha", math.nan) else CONSISTENT
        if verdict != implied:
            fails.append(f"verdict {verdict} disagrees with min p_holm {min(p_holm):.3g}")
    if expect_verdict is not None and verdict != expect_verdict:
        fails.append(f"verdict {verdict}, expected {expect_verdict}")
    if exit_code is not None and exit_code != (0 if verdict == CONSISTENT else 2):
        fails.append(f"exit code {exit_code} does not match verdict {verdict}")
    return fails


def check_mean_length(lengths: Sequence[float], t: float, area: float, z_max: float) -> list[str]:
    """Sample mean of total chord length in V against E[L(V, t)] = t * area(V)."""
    n = len(lengths)
    if n < 2:
        return [f"mean-length sample has {n} values"]
    mean = sum(lengths) / n
    var = sum((x - mean) ** 2 for x in lengths) / (n - 1)
    se = math.sqrt(var / n)
    z = (mean - t * area) / se if se > 0 else math.inf
    if not abs(z) <= z_max:
        return [f"mean length {mean:.4f} vs t*area {t * area:.4f}: z = {z:.2f} beyond {z_max}"]
    return []


def check_rate_estimate(
    estimate: float, n_reps: int, dt: float, target: float, z_max: float
) -> list[str]:
    """(hits / n) / dt within z_max binomial standard errors plus a first-order bias target*dt."""
    p = target * dt
    se = math.sqrt(p * (1.0 - p) / n_reps) / dt
    tol = z_max * se + target * dt
    if not abs(estimate - target) <= tol:
        return [f"rate estimate {estimate:.4f} vs {target:.4f}: off by more than {tol:.4f}"]
    return []


def check_dump(
    meta: dict,
    records: Sequence[tuple],
    *,
    printed_count: int,
    window,
    t: float,
    seed: int,
) -> list[str]:
    """A loaded `simulate` dump matches the run: count, window, birth order, header."""
    fails = []
    if len(records) != printed_count:
        fails.append(f"dump has {len(records)} chords, the CLI printed {printed_count}")
    if meta.get("time") != t or meta.get("seed") != seed:
        fails.append(f"header time/seed {meta.get('time')}/{meta.get('seed')} != {t}/{seed}")
    # contains_point scales tol by the window size, so 1e-9 is relative
    outside = sum(
        1 for seg, _ in records for pt in (seg.p, seg.q) if not window.contains_point(pt, tol=1e-9)
    )
    if outside:
        fails.append(f"{outside} chord endpoints lie outside the window")
    births = [b for _, b in records]
    if any(b2 < b1 for b1, b2 in zip(births, births[1:])):
        fails.append("birth times are not non-decreasing")
    if births and not (0.0 < births[0] and births[-1] <= t):
        fails.append(f"birth times span [{births[0]}, {births[-1]}], outside (0, {t}]")
    return fails
