"""Mutation self-test of the unit suite.

Each mutant replaces one exact piece of text in a file of `src/stitsim` and
names the tests that must fail on it.  The script applies each mutant to a
temporary copy of `src/` of its own, never to the tree, and runs only the
named tests against that copy, up to four mutants at a time (one per CPU).
A named test id may be a test, a parametrized test or a class; it counts as
failed when one of the tests it names fails.

    python3 tools/mutants.py

It first runs every named test on an unmutated copy, which must pass.  It
exits 1 if one of them fails there, if a mutant's old text is not found
exactly once, if a mutant survives (a named test passes), or if a listed
survivor is killed (then it belongs in MUTANTS).  The script lives outside
pytest's collection (`testpaths = ["tests"]`).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
RATE = "tests/test_analysis.py::TestRateEstimate"
BATCHED = "tests/test_analysis.py::TestBatchedTestsMatchScipy"
FORKED = "tests/test_analysis.py::TestForkedMap"
PIPELINE = "tests/test_analysis.py::TestConsistencyPipeline"
IDENT = "tests/test_analysis.py::TestIdentitySuite"
CHUNK = "tests/test_analysis.py::TestChunkKernel"
HITS = "tests/test_geometry.py::test_batched_clip_and_hit_equal_the_scalar_ones"
REGION = "tests/test_engine.py::TestRegion"
PIECES = "tests/test_geometry.py::test_split_pieces_match_full_constructor"
SLOW_PASS = "tests/test_geometry.py::test_split_piece_fallback_is_reached"
NEAR_DUPLICATES = "tests/test_geometry.py::test_split_piece_with_crossings_within_snap_tol_takes_the_slow_pass"
SEEDS = "tests/test_engine.py::TestReplicateSeeds"
BAD_CLI = "tests/test_config_cli.py::TestCliBadInput"
BAD_INPUT = f"{BAD_CLI}::test_exits_1_with_config_error"
VALIDATION = "tests/test_config_cli.py::TestConfigValidation"
RULES = "tests/test_config_cli.py::TestRulesParsing"
CLI_SIMULATE = "tests/test_config_cli.py::TestCliSimulate"
WRITERS = "tests/test_output.py::test_writers_equal_the_references"
PAUSE = "tests/test_config_cli.py::TestCliPausesTheCollector"
RULE_PAIR = "tests/test_rules.py::TestRulePair"
ADVANCE = "tests/test_engine.py::TestAdvance"
FAMILY_BITS = "tests/test_engine.py::test_every_rule_family_keeps_its_trajectory_bits"
VALIDATION_POLYGON = "tests/test_geometry.py::TestPolygonValidation"
SPLIT = "tests/test_geometry.py::TestSplit"
KSTWO = "tests/test_kstwo.py::test_equals_scipy_bit_for_bit"
RANDOM_POLYGON = "tests/test_geometry.py::TestRandomConvexPolygon"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/stitsim
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # every one must fail on the mutant


MUTANTS = [
    # rate_estimate on the chunk collector, through the forked map
    Mutant(
        "rate on stream 0",
        "analysis.py",
        "chunks = [(2, lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]",
        "chunks = [(0, lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]",
        (f"{RATE}::test_estimate_is_pinned", f"{RATE}::test_equals_its_own_loop"),
    ),
    Mutant(
        "the children's hits dropped",
        "analysis.py",
        "hits, aborted = map(sum, zip(*results))",
        "hits, aborted = map(sum, zip(*results[::n_jobs]))",
        (
            f"{RATE}::test_estimate_does_not_depend_on_the_process_count[2]",
            f"{RATE}::test_abort_in_a_child_share_raises",
            "tests/test_config_cli.py::TestCliRate::test_report_does_not_depend_on_the_process_count",
        ),
    ),
    Mutant(
        "no RATE_FORK_MIN floor on forking",
        "analysis.py",
        "n_jobs = min(usable_cpus(), -(-n_reps // RATE_FORK_MIN))",
        "n_jobs = usable_cpus()",
        (f"{RATE}::test_under_rate_fork_min_forks_nothing",),
    ),
    Mutant(
        "probe columns not made 0/1",
        "analysis.py",
        "table[:, :, 3:] = table[:, :, 3:] > 0",
        "table[:, :, 3:] = table[:, :, 3:]",
        (f"{RATE}::test_counts_replicates_not_chords", f"{RATE}::test_equals_its_own_loop[stit-V]"),
    ),
    Mutant(
        "an arm may abort 1% of its replicates no more",
        "analysis.py",
        "if ab_d > MAX_ABORT_FRAC * n_reps or ab_c > MAX_ABORT_FRAC * n_reps:",
        "if ab_d >= MAX_ABORT_FRAC * n_reps or ab_c >= MAX_ABORT_FRAC * n_reps:",
        (
            f"{PIPELINE}::test_one_aborted_replicate_in_100_is_reported",
            f"{CHUNK}::test_chunk_of_aborted_replicates",
        ),
    ),
    Mutant(
        "rate ignores aborts",
        "analysis.py",
        "    if aborted:\n        raise ReplicateAborted(f\"{aborted} of {n_reps} replicates aborted\")\n",
        "",
        (f"{RATE}::test_any_aborted_replicate_raises", f"{RATE}::test_abort_in_a_child_share_raises"),
    ),
    # the replicate loop's root screen: no state for a replicate whose root outlives the last time
    Mutant(
        "a root that dies at the last time screened out",
        "analysis.py",
        "if death > last:",
        "if death >= last:",
        (f"{CHUNK}::test_builds_a_state_only_for_a_root_that_dies_by_the_last_time",),
    ),
    Mutant(
        "screen at the first time",
        "analysis.py",
        "if death > last:",
        "if death > times[0]:",
        (
            f"{CHUNK}::test_equals_crops_of_snapshots_where_roots_outlive_a_time",
            f"{PIPELINE}::test_discrete_statistics_are_pinned",
        ),
    ),
    Mutant(
        "root rate of V on arm 1",
        "analysis.py",
        "root_rate = rate(rules.selection, build_window)",
        "root_rate = rate(rules.selection, V)",
        (
            f"{CHUNK}::test_equals_crops_of_snapshots_where_roots_outlive_a_time[cropped]",
            f"{PIPELINE}::test_discrete_statistics_are_pinned[cropped]",
        ),
    ),
    Mutant(
        "screen seeded with rep + 1",
        "analysis.py",
        "death = death_time(0.0, default_rng(rep_seed), root_rate)",
        "death = death_time(0.0, default_rng((*rep_seed[:2], rep_seed[2] + 1)), root_rate)",
        (
            f"{CHUNK}::test_screen_draws_the_root_death_of_the_state",
            f"{CHUNK}::test_builds_a_state_only_for_a_root_that_dies_by_the_last_time",
        ),
    ),
    Mutant(
        "every stream but 0 built in W",
        "analysis.py",
        "if arm == 1 else (V, None)",
        "if arm else (V, None)",
        (f"{CHUNK}::test_screen_draws_the_root_death_of_the_state[2-stit]",),
    ),
    # the forked map of a pooled consistency test
    Mutant(
        "results one share off",
        "analysis.py",
        "results[i::n_jobs] = out",
        "results[i - 1::n_jobs] = out",
        (f"{FORKED}::test_results_in_chunk_order", f"{FORKED}::test_back_to_back_calls_equal_serial"),
    ),
    Mutant(
        "child's exception dropped",
        "analysis.py",
        "            if not ok:\n                raise out\n",
        "",
        (f"{FORKED}::test_exception_in_a_child_is_raised",),
    ),
    Mutant(
        "children not reaped",
        "analysis.py",
        "os.kill(pid, signal.SIGKILL)\n                    os.waitpid(pid, 0)\n",
        "os.kill(pid, signal.SIGKILL)\n",
        (f"{FORKED}::test_exception_in_share_0_ends_the_children",),
    ),
    Mutant(
        "orphans run out their share",
        "analysis.py",
        "if os.getppid() != caller:",
        "if False:",
        (f"{FORKED}::test_orphan_ends_before_its_next_chunk",),
    ),
    Mutant(
        "no CPU cap",
        "analysis.py",
        "    n_jobs = min(n_jobs, usable_cpus())\n",
        "",
        (f"{PIPELINE}::test_workers_bounded_by_cores", f"{PIPELINE}::test_workers_bounded_by_affinity"),
    ),
    Mutant(
        "forks off Linux",
        "analysis.py",
        'if sys.platform.startswith("linux") else 1',
        "if True else 1",
        (f"{FORKED}::test_in_process_off_linux",),
    ),
    Mutant(
        "chunks of at most size, shares uneven",
        "analysis.py",
        "count = min(n_reps, n_jobs * -(-n_reps // (n_jobs * size)))",
        "count = min(n_reps, -(-n_reps // size))",
        (f"{PIPELINE}::test_every_share_holds_the_same_work_of_each_arm",),
    ),
    # the batched KS and chi-square kernels
    Mutant(
        "chi-square terms summed in reverse",
        "analysis.py",
        ".reshape(-1, 4).sum(axis=1)",
        ".reshape(-1, 4)[:, ::-1].sum(axis=1)",
        (f"{BATCHED}::test_chi2_every_small_table", f"{BATCHED}::test_chi2_random_tables"),
    ),
    Mutant(
        "no Yates cap",
        "analysis.py",
        "np.minimum(0.5, np.abs(gap))",
        "0.5",
        (f"{BATCHED}::test_chi2_every_small_table",),
    ),
    Mutant(
        "effective size not rounded",
        "analysis.py",
        "np.round(m * n / (m + n))",
        "m * n / (m + n)",
        (f"{BATCHED}::test_ks_columns_equal_ks_2samp[137-61]", f"{BATCHED}::test_ks_columns_equal_ks_2samp[500-501]"),
    ),
    Mutant(
        "sides with different columns accepted",
        "analysis.py",
        "if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:",
        "if a.ndim != 2 or b.ndim != 2:",
        (f"{BATCHED}::test_sides_need_the_same_columns",),
    ),
    Mutant(
        'searchsorted side="left"',
        "analysis.py",
        'np.searchsorted(x, pooled, side="right")',
        'np.searchsorted(x, pooled, side="left")',
        (f"{BATCHED}::test_ks_columns_equal_ks_2samp", "tests/test_analysis.py::TestKSTwoSample::test_identical_samples"),
    ),
    # the KS p-value: scipy's kstwo.sf, ported
    Mutant(
        "DMTW/Pomeranz cut strict",
        "kstwo.py",
        "if nxsquared <= 0.754693:",
        "if nxsquared < 0.754693:",
        (f"{KSTWO}[10]",),
    ),
    Mutant(
        "smirnov branch above n > 140 strict",
        "kstwo.py",
        "elif nxsquared >= 2.2:",
        "elif nxsquared > 2.2:",
        (f"{KSTWO}[150]",),
    ),
    Mutant(
        "DMTW matrix power not rescaled",
        "kstwo.py",
        "if np.abs(H[k - 1, k - 1]) > _EP128:",
        "if False:",
        (f"{KSTWO}[140]",),
    ),
    Mutant(
        "Pelz-Good survival by scipy's cdf=False sign flip, not 1 - cdf",
        "kstwo.py",
        "    K0to3 /= powers_of_n\n\n    return sum(K0to3)",
        "    K0to3 /= powers_of_n\n\n    K0to3 *= -1\n    K0to3[0] += 1\n    return 1.0 - sum(K0to3)",
        (f"{KSTWO}[1000]",),
    ),
    Mutant(
        "support edge 0.5/n open",
        "kstwo.py",
        "sf = (d <= 0.5 / n).astype(float)",
        "sf = (d < 0.5 / n).astype(float)",
        (f"{KSTWO}[10]", "tests/test_kstwo.py::test_support_edges_and_no_point"),
    ),
    Mutant(
        "non-integral n accepted",
        "kstwo.py",
        "if not (n >= 1 and float(n).is_integer()):",
        "if not n >= 1:",
        ("tests/test_kstwo.py::test_n_must_be_a_positive_integer",),
    ),

    # the identity suite: one loop over each identity's cases
    Mutant(
        "wrong case divisor",
        "analysis.py",
        '"nu_limit": (2, 10, _nu_limit, EXACT)',
        '"nu_limit": (2, 1, _nu_limit, EXACT)',
        (f"{IDENT}::test_results_are_pinned[stit-isotropic]",),
    ),
    Mutant(
        "nu_limit containment tested on the smallest square",
        "analysis.py",
        "if not squares[-1].contains_polygon(probe):",
        "if not squares[0].contains_polygon(probe):",
        (f"{IDENT}::test_results_are_pinned[stit-isotropic]",),
    ),
    Mutant(
        "worst residual from -inf",
        "analysis.py",
        "worst = 0.0\n        try:",
        "worst = -math.inf\n        try:",
        (f"{IDENT}::test_division_bound_passes_for_vertex_count", f"{IDENT}::test_results_are_pinned[point-driven]"),
    ),
    Mutant(
        "two streams swapped",
        "analysis.py",
        '"fundamental": (0, 1, _fundamental, EXACT),\n    "corollary": (1, 1, _corollary, EXACT),',
        '"fundamental": (1, 1, _fundamental, EXACT),\n    "corollary": (0, 1, _corollary, EXACT),',
        (
            f"{IDENT}::test_results_are_pinned[vertex-count]",
            "tests/test_config_cli.py::TestCliVerify::test_report_is_pinned",
        ),
    ),
    Mutant(
        "no cases pass",
        "analysis.py",
        '    if n_cases < 1:\n        raise ValueError(f"n_cases must be >= 1, got {n_cases}")\n',
        "",
        (f"{IDENT}::test_no_cases_is_an_error",),
    ),
    Mutant(
        "unknown identity looked up",
        "analysis.py",
        "        if name not in IDENTITIES:\n",
        "        if False:\n",
        (f"{IDENT}::test_unknown_identity_is_an_error",),
    ),
    Mutant(
        "fundamental residual without V in W",
        "analysis.py",
        "if not (V.contains_polygon(B) and W.contains_polygon(V)):",
        "if not V.contains_polygon(B):",
        (f"{IDENT}::test_fundamental_residual_needs_nested_windows[V-outside-W]",),
    ),
    Mutant(
        "consistency test without V in W",
        "analysis.py",
        "    if not W.contains_polygon(V):\n",
        "    if False:\n",
        (f"{PIPELINE}::test_window_containment_checked_before_replicates",),
    ),
    Mutant(
        "min_p_holm the largest",
        "analysis.py",
        "return min(r.p_holm for r in self.results)",
        "return max(r.p_holm for r in self.results)",
        (f"{PIPELINE}::test_min_p_holm_is_the_smallest_adjusted_p_value",),
    ),
    # random_convex_polygon: checks up front, then at most RANDOM_POLYGON_DRAWS draws
    Mutant(
        "two points accepted",
        "geometry.py",
        "    if n_points < 3:\n",
        "    if n_points < 2:\n",
        (f"{RANDOM_POLYGON}::test_rejects_inputs_that_no_draw_can_make_a_polygon_of[two-points]",),
    ),
    Mutant(
        "any finite scale accepted",
        "geometry.py",
        "if not (math.isfinite(scale) and scale > 0.0):",
        "if not math.isfinite(scale):",
        (
            f"{RANDOM_POLYGON}::test_rejects_inputs_that_no_draw_can_make_a_polygon_of[scale-0]",
            f"{RANDOM_POLYGON}::test_rejects_inputs_that_no_draw_can_make_a_polygon_of[scale-negative]",
        ),
    ),
    Mutant(
        "infinite center accepted",
        "geometry.py",
        "if not (math.isfinite(cx) and math.isfinite(cy)):",
        "if not (math.isfinite(cx) or math.isfinite(cy)):",
        (f"{RANDOM_POLYGON}::test_rejects_inputs_that_no_draw_can_make_a_polygon_of[center-inf]",),
    ),
    Mutant(
        "one draw more",
        "geometry.py",
        "    for _ in range(RANDOM_POLYGON_DRAWS):\n",
        "    for _ in range(RANDOM_POLYGON_DRAWS + 1):\n",
        (f"{RANDOM_POLYGON}::test_gives_up_after_exactly_its_draws",),
    ),
    # the one polygon builder: a fast check, else the slow pass
    Mutant(
        "fast check without its turn test",
        "geometry.py",
        "if not (e > tol and (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > cross_tol):",
        "if not e > tol:",
        (PIECES, SLOW_PASS),
    ),
    Mutant(
        "fast check without its edge-length test",
        "geometry.py",
        "if not (e > tol and (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > cross_tol):",
        "if not (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > cross_tol:",
        (NEAR_DUPLICATES,),
    ),
    Mutant(
        "no perimeter on the fast pass",
        "geometry.py",
        "        perim += e\n",
        "",
        ("tests/test_geometry.py::TestIntrinsicVolumes", FAMILY_BITS),
    ),
    Mutant(
        "diameter written to the circles slot",
        "geometry.py",
        "_set_diameter = Polygon._diameter.__set__",
        "_set_diameter = Polygon._circles.__set__",
        ("tests/test_geometry.py::test_diameter_is_the_largest_vertex_distance",),
    ),
    Mutant(
        "zero extent let through",
        "geometry.py",
        "if scale <= 0.0:",
        "if scale < 0.0:",
        (f"{VALIDATION_POLYGON}::test_rejects_zero_extent",),
    ),
    Mutant(
        "no signed-area check",
        "geometry.py",
        '    if area2 <= 0.0:\n        raise InvalidPolygon("non-positive signed area")\n',
        "",
        (f"{VALIDATION_POLYGON}::test_rejects_a_clockwise_triangle_behind_reversals",),
    ),
    # split's pieces, and its trace from the crossing points
    Mutant(
        "two degenerate pieces as a tangent line",
        "geometry.py",
        "if plus is None and minus is None:",
        "if False:",
        (f"{SPLIT}::test_needle_cut_along_its_length_leaves_no_piece",),
    ),
    Mutant(
        "a degenerate plus piece keeps the cell on the plus side",
        "geometry.py",
        "    if plus is None:\n        return (None, C, None)",
        "    if plus is None:\n        return (C, None, None)",
        (f"{SPLIT}::test_degenerate_plus_piece_counts_as_a_tangent_line",),
    ),
    Mutant(
        "two-point trace comparison reversed",
        "geometry.py",
        "if p1[0] * dx + p1[1] * dy < p0[0] * dx + p0[1] * dy:",
        "if p1[0] * dx + p1[1] * dy > p0[0] * dx + p0[1] * dy:",
        (FAMILY_BITS,),
    ),
    Mutant(
        "no crossing point sorted",
        "geometry.py",
        "    elif cross_pts:\n",
        "    elif True:\n",
        (f"{SPLIT}::test_vertices_at_exactly_snap_tol_are_no_crossing_points[none]",),
    ),
    Mutant(
        "zero-length trace kept",
        "geometry.py",
        "if math.hypot(p1[0] - p0[0], p1[1] - p0[1]) <= tol:",
        "if math.hypot(p1[0] - p0[0], p1[1] - p0[1]) < 0.0:",
        (f"{SPLIT}::test_vertices_at_exactly_snap_tol_are_no_crossing_points[one-crossing]",),
    ),
    Mutant(
        "slow pass keeps a flat turn",
        "geometry.py",
        "        if cross > cross_tol:\n            kept.append(dedup[i])",
        "        if cross >= -cross_tol:\n            kept.append(dedup[i])",
        (PIECES, SLOW_PASS),
    ),
    # one clip kernel and one hit kernel
    Mutant(
        "no clip in the band",
        "geometry.py",
        "        hit[band[clip_segments(rows, C)[0]]] = True\n",
        "",
        (f"{HITS}[probe]",),
    ),
    Mutant(
        "only the first endpoint tested",
        "geometry.py",
        "(edge_margins(C, rows[:, 0], rows[:, 1]) >= floor) | (\n"
        "            edge_margins(C, rows[:, 2], rows[:, 3]) >= floor\n        )",
        "edge_margins(C, rows[:, 0], rows[:, 1]) >= floor",
        (f"{HITS}[probe]",),
    ),
    Mutant(
        "interior floor 0",
        "analysis.py",
        "floor = 1e-9 * V._scale",
        "floor = 0.0",
        (
            f"{CHUNK}::test_chords_on_the_boundary[hexagon]",
            f"{CHUNK}::test_equals_window_stats_of_crops[direct-triangle]",
        ),
    ),
    Mutant(
        "no crop floor",
        "engine.py",
        "if length > MIN_CHORD_REL * V._scale]",
        "if length >= 0.0]",
        (f"{CHUNK}::test_chords_on_the_boundary[square]",),
    ),
    # RulePair.stit_measure, the one answer to "is this pair STIT", and its readers
    Mutant(
        "STIT by equal measures, not one object",
        "rules.py",
        "and sel.measure is div.measure",
        "and sel.measure == div.measure",
        (
            f"{RULE_PAIR}::test_stit_measure_requires_identical_measure_object",
            f"{RULES}::test_separate_measures_have_no_stit_measure",
        ),
    ),
    Mutant(
        "no pair is STIT",
        "rules.py",
        "return sel.measure if shared else None",
        "return None",
        (
            f"{RULE_PAIR}::test_stit_measure_requires_identical_measure_object",
            f"{RULES}::test_stit_shortcut_shares_one_measure",
            f"{RULES}::test_roundtrip_through_dict",
            f"{IDENT}::test_shared_measure_pair_passes_everything",
        ),
    ),
    Mutant(
        "no STIT term in the chord budget",
        "rules.py",
        "        n += intensity * intensity * t * t * W.area / math.pi\n",
        "",
        (
            "tests/test_rules.py::TestMinExpectedChords::test_isotropic_stit_mean",
            f"{VALIDATION}::test_window_dependent_budget_checked_at_parse_time[simulate-stit-t6000]",
        ),
    ),
    # a division's resample loop and the event cap
    Mutant(
        "one resample fewer",
        "engine.py",
        "for _ in range(MAX_RESAMPLE):",
        "for _ in range(MAX_RESAMPLE - 1):",
        (f"{ADVANCE}::test_a_division_resamples_99_degenerate_lines",),
    ),
    Mutant(
        "event cap one chord early",
        "engine.py",
        "if len(segments) > MAX_EVENTS:",
        "if len(segments) >= MAX_EVENTS:",
        (f"{ADVANCE}::test_event_cap",),
    ),
    # the W arm builds only the cells that can meet V
    Mutant(
        "margin -0.05",
        "engine.py",
        "m = 2.0 * (a + b * (x_hi - x_lo + y_hi - y_lo) + drift)",
        "m = -0.05",
        (
            f"{REGION}::test_cells_at_the_margin_are_kept",
            f"{REGION}::test_left_out_cells_have_no_chord_that_crop_keeps[stit-axis-aligned-square]",
        ),
    ),
    Mutant(
        "margin 0",
        "engine.py",
        "m = 2.0 * (a + b * (x_hi - x_lo + y_hi - y_lo) + drift)",
        "m = 0.0",
        (f"{REGION}::test_cells_at_the_margin_are_kept",),
    ),
    Mutant(
        "box test on the wrong side",
        "engine.py",
        "if x_hi < keep[0] or y_hi < keep[1] or x_lo > keep[2] or y_lo > keep[3]:",
        "if x_lo < keep[0] or y_lo < keep[1] or x_hi > keep[2] or y_hi > keep[3]:",
        (f"{REGION}::test_left_out_cells_have_no_chord_that_crop_keeps[stit-square]",),
    ),
    Mutant(
        "containment over the first vertex only",
        "geometry.py",
        "x, y = np.array(other.vertices).T",
        "x, y = np.array(other.vertices[:1]).T",
        (
            "tests/test_geometry.py::test_containment_equals_the_exact_reference[probe]",
            f"{PIPELINE}::test_probe_containment_checked_before_replicates",
        ),
    ),
    Mutant(
        "keep box not cached",
        "engine.py",
        "@functools.lru_cache(maxsize=64)\ndef _keep_box",
        "def _keep_box",
        ("tests/test_engine.py::test_keep_box_is_computed_once_per_window_pair",),
    ),
    # the replicate seeder
    Mutant(
        "words past the fourth not mixed in",
        "engine.py",
        "    for e in entropy[4:]:\n        for dst in range(4):\n            pool[dst] = mix(pool[dst], hashmix(e))\n",
        "",
        (f"{SEEDS}::test_generators_equal_default_rng_of_the_tuple",),
    ),
    Mutant(
        "wrong mix constant",
        "engine.py",
        "0xCA01F9DD",
        "0xCA01F9DE",
        (f"{SEEDS}::test_generators_equal_default_rng_of_the_tuple",),
    ),
    Mutant(
        "first seed not checked against numpy",
        "engine.py",
        "if words is not None and lo == start and not np.array_equal(words[0], expected):",
        "if False:",
        (f"{SEEDS}::test_words_that_differ_from_numpy_give_plain_tuples",),
    ),
    Mutant(
        "the words for every generate_state call",
        "engine.py",
        "if n_words == 4 and dtype is np.uint64:",
        "if True:",
        (f"{SEEDS}::test_other_states_come_from_numpy",),
    ),
    Mutant(
        "reps up to 2**33 as one word",
        "engine.py",
        "reps[-1] < 2**32",
        "reps[-1] < 2**33",
        (f"{SEEDS}::test_reps_from_2_to_the_32_are_plain_tuples",),
    ),
    # the config parsers and the dump
    Mutant(
        "booleans are numbers",
        "config.py",
        "if isinstance(value, (bool, str)):",
        "if isinstance(value, str):",
        (f"{BAD_INPUT}[simulate-time-bool]", f"{BAD_INPUT}[simulate-window-bool-coordinates]"),
    ),
    Mutant(
        "negative seed accepted",
        "config.py",
        "    if seed < 0:\n",
        "    if False:\n",
        (
            "tests/test_config_cli.py::TestConfigValidation::test_seed_must_be_non_negative_integer[-1]",
            f"{CLI_SIMULATE}::test_bad_seed_exits_1[1-override0]",
        ),
    ),
    Mutant(
        "probe outside the rate window accepted",
        "config.py",
        "    if not window.contains_polygon(probe):\n",
        "    if False:\n",
        (f"{BAD_INPUT}[rate-probe-outside-window]",),
    ),
    Mutant(
        "dt of 0 accepted",
        "config.py",
        "if not dts or any(d <= 0 or not math.isfinite(d) for d in dts):",
        "if not dts or any(not math.isfinite(d) for d in dts):",
        (f"{BAD_INPUT}[rate-dts-zero]",),
    ),
    Mutant(
        "NaN dt accepted",
        "config.py",
        "if not dts or any(d <= 0 or not math.isfinite(d) for d in dts):",
        "if not dts or any(d <= 0 for d in dts):",
        (f"{BAD_INPUT}[rate-dts-nan]",),
    ),
    Mutant(
        "no time steps accepted",
        "config.py",
        "if not dts or any(d <= 0 or not math.isfinite(d) for d in dts):",
        "if any(d <= 0 or not math.isfinite(d) for d in dts):",
        (f"{BAD_INPUT}[rate-dts-empty]",),
    ),
    Mutant(
        "no bound on rate(window) * dt",
        "config.py",
        "        if window_rate * dt >= MAX_DIVISIONS_PER_DT:\n",
        "        if False:\n",
        (f"{BAD_INPUT}[rate-dt-too-large]",),
    ),
    Mutant(
        "rate n_reps of 0 accepted",
        "config.py",
        "    if n_reps < 1:\n",
        "    if False:\n",
        (f"{BAD_INPUT}[rate-n_reps-zero]",),
    ),
    Mutant(
        "path separator in out_prefix accepted",
        "config.py",
        'any(c in prefix for c in ("/", os.sep, "\\0"))',
        'any(c in prefix for c in ("\\0",))',
        (f"{BAD_INPUT}[simulate-out_prefix-path]",),
    ),
    Mutant(
        "empty out_prefix accepted",
        "config.py",
        "not isinstance(prefix, str) or not prefix or any(",
        "not isinstance(prefix, str) or any(",
        (f"{BAD_INPUT}[simulate-out_prefix-empty]", f"{VALIDATION}::test_out_prefix_must_be_a_file_name[empty]"),
    ),
    Mutant(
        "key of another rule kind accepted",
        "config.py",
        '_require_keys(spec, path, ["kind", *required], optional)',
        '_require_keys(spec, path, ["kind", *required], spec)',
        (f"{RULES}::test_key_of_another_kind_rejected",),
    ),
    Mutant(
        "wrong schema version accepted",
        "config.py",
        'if cfg.get("version") != SCHEMA_VERSION:',
        "if False:",
        (f"{BAD_INPUT}[simulate-version-2]",),
    ),
    Mutant(
        "consistency n_reps below MIN_REPS accepted",
        "config.py",
        "    if n_reps < MIN_REPS:\n",
        "    if False:\n",
        (f"{BAD_INPUT}[consistency-n_reps-below-100]",),
    ),
    Mutant(
        "alpha outside (0, 1) accepted",
        "config.py",
        "    if not 0 < alpha < 1:\n",
        "    if False:\n",
        (f"{BAD_INPUT}[consistency-alpha-negative]", f"{BAD_INPUT}[consistency-alpha-above-1]"),
    ),
    Mutant(
        "descending times accepted",
        "config.py",
        "    if any(b < a for a, b in zip(times, times[1:])):\n",
        "    if False:\n",
        (f"{BAD_INPUT}[consistency-times-descending]",),
    ),
    Mutant(
        "window_inner outside window_outer accepted",
        "config.py",
        "    if not W.contains_polygon(V):\n",
        "    if False:\n",
        (f"{VALIDATION}::test_consistency_requires_nesting",),
    ),
    Mutant(
        "no event budget",
        "config.py",
        "    if floor > MAX_EVENTS:\n",
        "    if False:\n",
        (
            f"{VALIDATION}::test_event_budget_checked_at_parse_time",
            f"{VALIDATION}::test_window_dependent_budget_checked_at_parse_time",
        ),
    ),
    Mutant(
        "n_cases of 0 accepted",
        "config.py",
        "    if n_cases < 1:\n",
        "    if False:\n",
        (f"{BAD_INPUT}[verify-n_cases-zero]",),
    ),
    Mutant(
        "empty identity list accepted",
        "config.py",
        "if not isinstance(idents, list) or not idents:",
        "if not isinstance(idents, list):",
        (f"{BAD_INPUT}[verify-identities-empty]", "tests/test_config_cli.py::TestCliVerify::test_empty_identities_exit_1"),
    ),
    Mutant(
        "probe outside window_inner accepted",
        "config.py",
        "            if not V.contains_polygon(probe):\n",
        "            if False:\n",
        (f"{BAD_INPUT}[consistency-probe-outside-window_inner]",),
    ),
    Mutant(
        "dump records in reverse order",
        "output.py",
        "np.column_stack([rows, births])",
        "np.column_stack([rows, births])[::-1]",
        (f"{CLI_SIMULATE}::test_isotropic_outputs_are_pinned", f"{WRITERS}[random]"),
    ),
    Mutant(
        "dump numbers to 16 digits",
        "output.py",
        '"%.17g %.17g %.17g %.17g %.17g\\n"',
        '"%.16g %.16g %.16g %.16g %.16g\\n"',
        (f"{CLI_SIMULATE}::test_isotropic_outputs_are_pinned", f"{CLI_SIMULATE}::test_dump_roundtrip"),
    ),
    # the SVG's colours and the writers' blocks
    Mutant(
        "colour channels rounded half up",
        "output.py",
        "np.rint(255 * ((1 - f) * _CMAP[i] + f * _CMAP[i + 1]))",
        "np.floor(255 * ((1 - f) * _CMAP[i] + f * _CMAP[i + 1]) + 0.5)",
        (f"{WRITERS}[halves-rounded-to-even]",),
    ),
    Mutant(
        "no cap on the ramp interval",
        "output.py",
        "i = np.minimum(x.astype(int), len(_CMAP) - 2)",
        "i = x.astype(int)",
        (f"{WRITERS}[birth-at-the-clock]", f"{WRITERS}[ramp-anchors]"),
    ),
    Mutant(
        "no [0, 1] clip on the ramp",
        "output.py",
        "t = np.clip(births / clock if clock > 0 else np.zeros_like(births), 0.0, 1.0)",
        "t = births / clock if clock > 0 else np.zeros_like(births)",
        (f"{WRITERS}[births-outside-0-to-the-clock]",),
    ),
    Mutant(
        "last partial block skipped",
        "output.py",
        "for lo in range(0, len(state.segments), BLOCK):",
        "for lo in range(0, len(state.segments) - BLOCK + 1, BLOCK):",
        (f"{WRITERS}[one-block-plus-one]", f"{WRITERS}[random]"),
    ),
    # the CLI's command line: a usage error exits 1, as 2 means "inconsistent"
    Mutant(
        "--threads 0 accepted",
        "cli.py",
        "if count < 1:",
        "if count < 0:",
        (f"{BAD_CLI}::test_threads_below_1_exits_1",),
    ),
    Mutant(
        "usage error exits 2",
        "cli.py",
        "return 1 if exc.code else 0",
        "return 2 if exc.code else 0",
        (f"{BAD_CLI}::test_bad_command_line_exits_1[no-config]", f"{BAD_CLI}::test_threads_only_on_consistency[verify]"),
    ),
    # the CLI's collector pause
    Mutant(
        "collector not paused",
        "cli.py",
        "        gc.disable()\n",
        "",
        (f"{PAUSE}::test_command_runs_paused_and_the_collector_comes_back[return-0]",),
    ),
    Mutant(
        "collector not restored on an error path",
        "cli.py",
        """        try:
            return run(cfg, args)
        finally:
            if was_enabled:
                gc.enable()
""",
        """        code = run(cfg, args)
        if was_enabled:
            gc.enable()
        return code
""",
        (
            f"{PAUSE}::test_command_runs_paused_and_the_collector_comes_back[config-error]",
            f"{PAUSE}::test_command_runs_paused_and_the_collector_comes_back[stitsim-error]",
            f"{PAUSE}::test_command_runs_paused_and_the_collector_comes_back[os-error]",
            f"{PAUSE}::test_collector_comes_back_when_an_unexpected_exception_propagates",
        ),
    ),
    Mutant(
        "collector enabled whatever the caller had",
        "cli.py",
        """            if was_enabled:
                gc.enable()""",
        """            gc.enable()""",
        (f"{PAUSE}::test_a_caller_that_paused_the_collector_keeps_it_paused",),
    ),
]

# Mutants that no test can kill, with the reason.  They are run too, and must survive.
SURVIVORS = [
    (
        Mutant(
            "<= for < on the exact identities",
            "analysis.py",
            "worst < threshold or",
            "worst <= threshold or",
            (IDENT, "tests/test_config_cli.py::TestCliVerify"),
        ),
        "no residual of an exact identity lands on 1e-10 itself",
    ),
    (
        Mutant(
            "> for >= in the band containment",
            "geometry.py",
            "edge_margins(C, rows[:, 0], rows[:, 1]) >= floor) | (",
            "edge_margins(C, rows[:, 0], rows[:, 1]) > floor) | (",
            (HITS,),
        ),
        "rounding-sized: no drawn endpoint has a margin of exactly -snap_tol times the scale",
    ),
    (
        Mutant(
            ">= for > at the interior floor",
            "analysis.py",
            "chords[:, i + 1]) > floor",
            "chords[:, i + 1]) >= floor",
            (CHUNK, "tests/test_analysis.py::TestWindowStats"),
        ),
        "rounding-sized: no endpoint sits exactly 1e-9 times the scale inside an edge",
    ),
    (
        Mutant(
            "the container's own snap tolerance in contains_polygon",
            "geometry.py",
            "-max(self.snap_tol, other.snap_tol) * self._scale",
            "-self.snap_tol * self._scale",
            ("tests/test_geometry.py::test_containment_equals_the_exact_reference", REGION),
        ),
        "the tolerances differ by rounding-sized amounts, and no tested vertex lies between them",
    ),
]


def run_tests(src: Path, tests: tuple[str, ...]) -> tuple[bool, set[str]]:
    """Runs the tests against the stitsim in `src`; returns (all passed, the failed test ids)."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    where = subprocess.run(
        [sys.executable, "-c", "import stitsim; print(stitsim.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(where).is_relative_to(src):
        sys.exit(f"stitsim imports from {where}, not from the copy in {src}")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rf", *tests],
        cwd=REPO, env=env, capture_output=True, text=True,
    )
    failed = {line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")}
    if done.returncode not in (0, 1):
        sys.exit(f"pytest exited {done.returncode} on {' '.join(tests)}:\n{done.stdout}{done.stderr}")
    return done.returncode == 0, failed


def killed_by(test: str, failed: set[str]) -> bool:
    return any(f == test or f.startswith((test + "::", test + "[")) for f in failed)


def copy_src(dest: Path) -> Path:
    shutil.copytree(REPO / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest / "src"


def try_mutant(tmp: str, k: int, m: Mutant) -> tuple[str | None, set[str]]:
    """Applies mutant k to its own copy of src/ and runs its tests; returns (an error or None, the failed test ids)."""
    src = copy_src(Path(tmp) / str(k))
    path = src / "stitsim" / m.file
    text = path.read_text()
    if text.count(m.old) != 1:
        return f"old text found {text.count(m.old)} times in {m.file}, not once", set()
    path.write_text(text.replace(m.old, m.new))
    return None, run_tests(src, m.tests)[1]


def main() -> int:
    table = [(m, None) for m in MUTANTS] + SURVIVORS
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    bad = 0
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(min(4, cpus)) as pool:
        every_test = tuple(dict.fromkeys(t for m, _ in table for t in m.tests))
        passed, failed = run_tests(copy_src(Path(tmp) / "clean"), every_test)
        if not passed:
            print(f"unmutated copy fails: {sorted(failed)}")
            return 1
        outcomes = pool.map(partial(try_mutant, tmp), range(len(table)), [m for m, _ in table])
        for (m, why), (error, failed) in zip(table, outcomes):
            if error:
                print(f"{m.name}: {error}")
                bad += 1
                continue
            survived_by = [t for t in m.tests if not killed_by(t, failed)]
            if why is None:
                bad += bool(survived_by)
                print(f"{m.name}: " + (f"SURVIVES {survived_by}" if survived_by else f"killed ({len(failed)} failed)"))
            else:
                bad += bool(failed)
                print(f"{m.name}: " + (f"KILLED {sorted(failed)}; move it to MUTANTS" if failed else "survives, as listed: " + why))
    print("ok" if not bad else f"{bad} of {len(table)} mutants not as listed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
