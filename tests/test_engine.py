import functools
import gc
import hashlib
import heapq
import itertools
import math
import pickle

import numpy as np
import pytest

from stitsim import (
    ContainmentViolation,
    CroppedTessellation,
    DegenerateSplit,
    HittingMeasure,
    HyperplaneMeasure,
    IntrinsicVolume,
    PointDriven,
    Polygon,
    ReplicateAborted,
    Segment,
    crop,
    engine,
    geometry,
    new_process,
    rectangle,
    regular_ngon,
    stit_pair,
)
from stitsim.geometry import clip_segments, scale_about_centroid, segment_rows
from stitsim.measures import axis_aligned, sample_hitting
from stitsim.rules import RestrictedMeasure, RulePair, VertexCount, divide, rate

from reference import check_tiling, live_cells, translate

ISO = HyperplaneMeasure(1.0)


@pytest.fixture
def hexagon():
    return regular_ngon((0.0, 0.0), 1.0, 6)


# The slanted edges of the triangle and the hexagon exercise splitting and
# clipping off the axes.
@pytest.fixture(params=["unit_square", "triangle", "hexagon"])
def window(request):
    return request.getfixturevalue(request.param)


class TestNewProcess:
    def test_deterministic_for_seed(self, unit_square, stit_rules):
        a = new_process(unit_square, stit_rules, 42).advance(2.0)
        b = new_process(unit_square, stit_rules, 42).advance(2.0)
        assert (a.segments, a.births) == (b.segments, b.births)

    def test_different_seeds_differ(self, unit_square, stit_rules):
        a = new_process(unit_square, stit_rules, 1).advance(2.0)
        b = new_process(unit_square, stit_rules, 2).advance(2.0)
        assert a.segments != b.segments

    def test_single_live_cell_is_window(self, unit_square, stit_rules):
        state = new_process(unit_square, stit_rules, 0)
        cells = live_cells(state)
        assert len(cells) == 1
        assert cells[0].polygon == unit_square
        assert math.isfinite(cells[0].death_time) and cells[0].death_time > 0

    def test_mean_first_division_time(self, unit_square, stit_rules):
        # rate = 4/pi, so the first division time averages pi/4
        n = 10_000
        mean = np.mean(
            [live_cells(new_process(unit_square, stit_rules, s))[0].death_time for s in range(n)]
        )
        target = math.pi / 4.0
        assert abs(mean - target) < 3 * target / math.sqrt(n)


def _degenerate_draws(monkeypatch, n):
    """Makes the first n splits degenerate, alternately a DegenerateSplit and a
    tangent line (one empty piece); the later ones are real.  Returns the list
    of dividing lines drawn, as (ux, uy, a)."""
    real = engine.split_line
    drawn = []

    def stand_in(C, ux, uy, a):
        drawn.append((ux, uy, a))
        if len(drawn) > n:
            return real(C, ux, uy, a)
        if len(drawn) % 2:
            raise DegenerateSplit("stand-in: degenerate")
        return C, None, None

    monkeypatch.setattr(engine, "split_line", stand_in)
    return drawn


class TestAdvance:
    def test_no_segments_before_first_division(self, unit_square, stit_rules):
        state = new_process(unit_square, stit_rules, 5)
        first = live_cells(state)[0].death_time
        state.advance(0.999 * first)
        assert state.segments == [] and state.births == []

    def test_advance_is_two_stage_consistent(self, unit_square, stit_rules):
        one_shot = new_process(unit_square, stit_rules, 9).advance(3.0)
        staged = new_process(unit_square, stit_rules, 9).advance(1.0).advance(3.0)
        assert (one_shot.segments, one_shot.births) == (staged.segments, staged.births)

    def test_cannot_go_backwards(self, unit_square, stit_rules):
        state = new_process(unit_square, stit_rules, 1).advance(1.0)
        with pytest.raises(ValueError):
            state.advance(0.5)

    @pytest.mark.parametrize("t", [float("nan"), float("-inf")])
    def test_non_finite_time_raises(self, unit_square, stit_rules, t):
        state = new_process(unit_square, stit_rules, 1).advance(0.5)
        with pytest.raises(ValueError, match="non-finite"):
            state.advance(t)
        assert state.clock == 0.5

    def test_a_division_resamples_99_degenerate_lines(self, monkeypatch, unit_square, stit_rules):
        drawn = _degenerate_draws(monkeypatch, 99)
        state = new_process(unit_square, stit_rules, 5)
        state.advance(live_cells(state)[0].death_time)
        assert len(drawn) == 100
        assert len(state.segments) == 1 and len(live_cells(state)) == 2

    def test_100_degenerate_lines_abort(self, monkeypatch, unit_square, stit_rules):
        drawn = _degenerate_draws(monkeypatch, 100)
        state = new_process(unit_square, stit_rules, 5)
        with pytest.raises(ReplicateAborted, match="^cell 0: 100 degenerate dividing lines in a row$"):
            state.advance(live_cells(state)[0].death_time)
        assert len(drawn) == 100 and state.segments == []

    def test_event_cap(self, monkeypatch, unit_square, stit_rules):
        # no region: a region state would cache a _keep_box margin computed from the lowered cap
        births = new_process(unit_square, stit_rules, 3).advance(20.0).births
        monkeypatch.setattr(engine, "MAX_EVENTS", 5)
        state = new_process(unit_square, stit_rules, 3).advance(births[4])
        assert len(state.segments) == 5
        with pytest.raises(ReplicateAborted, match="^event cap 5 exceeded$"):
            state.advance(births[5])
        assert len(state.segments) == 6

    @pytest.mark.parametrize("family", ["stit-axis-aligned", "vertex-count-axis-point-driven"])
    def test_a_pickled_state_continues_the_same_trajectory(self, family):
        rules, t = FAMILY_TRAJECTORIES[family]
        state = new_process(regular_ngon((0.0, 0.0), 1.0, 6), rules, 4).advance(t / 2)
        again = pickle.loads(pickle.dumps(state))
        assert (again.segments, again.births, again.clock) == (state.segments, state.births, state.clock)
        again.advance(t)
        state.advance(t)
        assert len(state.segments) > 50
        assert repr((again.segments, again.births)) == repr((state.segments, state.births))

    def test_cells_equal_segments_plus_one(self, unit_square, stit_rules):
        state = new_process(unit_square, stit_rules, 17).advance(2.0)
        assert len(live_cells(state)) == len(state.segments) + 1

    def test_tiling_invariant(self, window, stit_rules):
        for seed in range(30):
            state = new_process(window, stit_rules, seed).advance(4.0)
            assert check_tiling(state)

    def test_vertex_count_reaches_sub_resolution_cells_without_aborting(self, unit_square, iso_measure):
        # this replicate cuts cells far from (0, 0) down to diameters near
        # 1e-9; their areas must stay accurate for their splits to pass
        rules = RulePair(VertexCount(), RestrictedMeasure(iso_measure))
        new_process(unit_square, rules, (1, 0, 110)).advance(1.5)

    @pytest.mark.parametrize(
        "rules, W, seed, t",
        [
            (stit_pair(ISO), rectangle(0.0, 0.0, 3.0, 3.0), (1, 0, 0), 10.0),
            (RulePair(IntrinsicVolume(2), RestrictedMeasure(ISO)), rectangle(0.0, 0.0, 3.0, 3.0), (1, 0, 1), 40.0),
            (RulePair(VertexCount(), RestrictedMeasure(ISO)), rectangle(0.0, 0.0, 1.0, 1.0), (1, 0, 110), 1.5),
            (RulePair(HittingMeasure(ISO), PointDriven()), rectangle(0.0, 0.0, 3.0, 3.0), (1, 0, 2), 10.0),
        ],
        ids=["stit", "area", "vertex-count", "point-driven"],
    )
    def test_split_pieces_equal_full_constructor_pieces(self, monkeypatch, rules, W, seed, t):
        built = new_process(W, rules, seed).advance(t)
        slow_passes = 0
        convex_vertices = geometry._convex_vertices

        def counted_slow_pass(pts, tol, cross_tol):
            nonlocal slow_passes
            slow_passes += 1
            return convex_vertices(pts, tol, cross_tol)

        # every piece through the slow pass, as if no fast check passed
        monkeypatch.setattr(geometry, "_strict_measures", lambda kept, tol, cross_tol: None)
        monkeypatch.setattr(geometry, "_convex_vertices", counted_slow_pass)
        full = new_process(W, rules, seed).advance(t)
        assert len(built.segments) > 300
        assert slow_passes >= 2 * len(full.segments)
        assert (built.segments, built.births) == (full.segments, full.births)

    def test_segments_inside_window(self, window, stit_rules):
        state = new_process(window, stit_rules, 23).advance(4.0)
        assert len(state.segments) == len(state.births) > 0
        for seg, birth in zip(state.segments, state.births):
            assert window.contains_point(seg.p, tol=1e-9)
            assert window.contains_point(seg.q, tol=1e-9)
            assert 0 < birth <= state.clock


class TestSnapshots:
    def test_empty_times(self, unit_square, stit_rules):
        assert new_process(unit_square, stit_rules, 0).snapshots([]) == []

    def test_repeated_time_identical(self, unit_square, stit_rules):
        snaps = new_process(unit_square, stit_rules, 3).snapshots([1.5, 1.5])
        assert snaps[0].segments == snaps[1].segments

    def test_segments_monotone_in_time(self, unit_square, stit_rules):
        state = new_process(unit_square, stit_rules, 7)
        t1 = state.snapshots([1.0])[0]
        raw_at_t1 = list(state.segments)
        state.advance(3.0)
        assert raw_at_t1 == state.segments[: len(raw_at_t1)]
        assert len(state.segments) >= len(raw_at_t1)

    def test_times_must_ascend(self, unit_square, stit_rules):
        with pytest.raises(ValueError):
            new_process(unit_square, stit_rules, 0).snapshots([2.0, 1.0])

    def test_times_must_not_precede_the_clock(self, unit_square, stit_rules):
        state = new_process(unit_square, stit_rules, 0).advance(1.0)
        with pytest.raises(ValueError, match="precede the current clock"):
            state.snapshots([0.5, 2.0])
        assert state.clock == 1.0


class TestCrop:
    def test_full_window_crop_keeps_chords(self, unit_square, stit_rules):
        state = new_process(unit_square, stit_rules, 11).advance(2.0)
        full = crop(state, unit_square)
        assert len(full.segments) <= len(state.segments)
        total_raw = sum(s.length for s in state.segments)
        total_crop = sum(s.length for s in full.segments)
        assert total_crop == pytest.approx(total_raw, rel=1e-9)

    def test_single_chord_clipped(self, unit_square):
        t = CroppedTessellation(unit_square, (Segment((-1.0, 0.4), (2.0, 0.4)),))
        out = crop(t, rectangle(0.25, 0.0, 0.75, 1.0))
        assert len(out.segments) == 1
        assert out.segments[0].length == pytest.approx(0.5)

    def test_disjoint_region_empty(self, unit_square):
        t = CroppedTessellation(unit_square, (Segment((0.1, 0.1), (0.2, 0.1)),))
        out = crop(t, rectangle(0.5, 0.5, 0.9, 0.9))
        assert out.segments == ()

    def test_idempotent(self, window, stit_rules):
        state = new_process(window, stit_rules, 13).advance(3.0)
        V = scale_about_centroid(window, 0.6)
        once = crop(state, V)
        twice = crop(once, V)
        assert once.segments and once.segments == twice.segments

    def test_commutes_with_time(self, stit_rules):
        W = rectangle(0.0, 0.0, 2.0, 2.0)
        V = rectangle(0.5, 0.5, 1.5, 1.5)
        state = new_process(W, stit_rules, 19)
        snap = state.snapshots([1.5])[0]
        via_snapshot = crop(snap, V)
        via_state = crop(state, V)
        assert via_snapshot.segments == via_state.segments

    def test_containment_enforced(self, unit_square, stit_rules):
        state = new_process(unit_square, stit_rules, 0)
        with pytest.raises(ContainmentViolation):
            crop(state, rectangle(0.5, 0.5, 2.0, 2.0))

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_short_chord_kept_wherever_the_window_sits(self, unit_square, offset):
        V = translate(unit_square, offset, offset)
        chord = Segment((offset + 0.5, offset + 0.5), (offset + 0.5 + 1e-4, offset + 0.5))
        out = crop(CroppedTessellation(V, (chord,)), V)
        assert out.segments == (chord,)

    @pytest.mark.parametrize(
        "chord",
        [
            Segment((0.5, 1e-10), (0.5 + 1e-9, 9e-10)),
            # a chord of vertex-count replicate (9, 1, 32), in a sub-resolution cell at y = 0
            Segment((0.002135450349503824, 6.97e-10), (0.0021354493241716177, 9.40e-10)),
        ],
        ids=["slanted", "vertex-count-replicate"],
    )
    def test_chord_near_an_edge_kept(self, unit_square, chord):
        # both endpoints lie within 1e-9 of y = 0, but the chord crosses that band
        assert chord.length > 1e-9
        out = crop(CroppedTessellation(unit_square, (chord,)), unit_square)
        assert out.segments == (chord,)

    def test_crop_of_stit_replicates_is_pinned(self, unit_square, stit_rules):
        # sha256 of every float of 50 crops (116 segments), recorded before crop clipped in one batch
        W = rectangle(0.0, 0.0, 3.0, 3.0)
        crops = [
            [s.p + s.q for s in crop(new_process(W, stit_rules, (9, k)).advance(1.5), unit_square).segments]
            for k in range(50)
        ]
        assert sum(map(len, crops)) == 116
        digest = hashlib.sha256(repr(crops).encode()).hexdigest()
        assert digest == "7b75dbe2b19bdb79dbadc3992b0a56abd426eb4a040081b89ed6f3407cbd2552"

    def test_mean_length_is_intensity_times_time_times_area(self, unit_square, stit_rules):
        # STIT built in W and cropped to V has the law of STIT built in V, and
        # E[total chord length in V] = I * t * area(V), with I = 1 here
        W = rectangle(0.0, 0.0, 3.0, 3.0)
        t = 1.5
        lengths = [
            sum(s.length for s in crop(new_process(W, stit_rules, (2026, rep)).advance(t), unit_square).segments)
            for rep in range(400)
        ]
        stderr = np.std(lengths, ddof=1) / math.sqrt(len(lengths))
        assert abs(np.mean(lengths) - t * unit_square.area) < 4.5 * stderr


# (V, W) pairs of the consistency tests, with V's box inside W
REGIONS = {
    "square": (rectangle(0.0, 0.0, 1.0, 1.0), rectangle(0.0, 0.0, 3.0, 3.0)),
    "triangle": (Polygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]), Polygon([(-1.0, -1.0), (3.0, -1.0), (-1.0, 3.0)])),
    "hexagon": (regular_ngon((0.0, 0.0), 1.0, 6), regular_ngon((0.5, 0.0), 3.0, 6)),
}
RULE_PAIRS = {
    "stit": stit_pair(ISO),
    "stit-axis-aligned": stit_pair(HyperplaneMeasure(1.0, axis_aligned())),
    "area": RulePair(IntrinsicVolume(2), RestrictedMeasure(ISO)),
    "vertex-count": RulePair(VertexCount(), RestrictedMeasure(ISO)),
    "point-driven": RulePair(HittingMeasure(ISO), PointDriven()),
}


def _left_out(state, cell):
    """Whether the state, built with a region, leaves the cell out when it is born."""
    n = len(live_cells(state))
    state._spawn(cell, 0.0)
    return len(live_cells(state)) == n


class TestRegion:
    """A state built with a region V leaves out the cells whose box misses V's widened box."""

    @pytest.mark.parametrize("region", list(REGIONS))
    @pytest.mark.parametrize("pair", list(RULE_PAIRS))
    def test_left_out_cells_have_no_chord_that_crop_keeps(self, monkeypatch, pair, region):
        V, W = REGIONS[region]
        pruned = new_process(W, RULE_PAIRS[pair], 0, region=V)
        drift = 2.5 * np.finfo(float).eps * max(map(abs, W._box)) * (1 + 1e-8)
        divisions = []

        def recording_split(C, ux, uy, a):
            pieces = geometry.split_line(C, ux, uy, a)
            if pieces[0] is not None and pieces[1] is not None:
                divisions.append((C, pieces))
            return pieces

        monkeypatch.setattr(engine, "split_line", recording_split)
        for seed in range(20):
            new_process(W, RULE_PAIRS[pair], (5, seed)).advance(1.5)  # no region: every cell divides
        left_out = 0
        for C, (plus, minus, chord) in divisions:
            # a piece's box lies within one crossing point's rounding of its parent's box,
            # so the chords of a cell's descendants are covered by the margin as well
            x_lo, y_lo, x_hi, y_hi = C._box
            for piece in (plus, minus):
                px_lo, py_lo, px_hi, py_hi = piece._box
                assert px_lo >= x_lo - drift and py_lo >= y_lo - drift
                assert px_hi <= x_hi + drift and py_hi <= y_hi + drift
            if _left_out(pruned, C):
                left_out += 1
                assert len(clip_segments(segment_rows([chord]), V)[0]) == 0
        assert left_out > 20

    @pytest.mark.parametrize("region", list(REGIONS))
    def test_cells_at_the_margin_are_kept(self, stit_rules, region):
        V, W = REGIONS[region]
        keep = engine._keep_box(V, W)
        x_lo, y_lo, x_hi, y_hi = V._box
        size = x_hi - x_lo  # a cell size, large next to the margin
        margin = x_lo - keep[0]
        assert 0 < margin < 1e-7 * V._scale
        mid_x, mid_y = 0.5 * (x_lo + x_hi), 0.5 * (y_lo + y_hi)
        kept = [
            rectangle(x_hi, mid_y, x_hi + size, mid_y + 0.1 * size),  # touches V's box
            rectangle(keep[2], mid_y, x_hi + size, mid_y + 0.1 * size),  # touches the widened box
            rectangle(x_hi + 0.5 * margin, mid_y, x_hi + size, mid_y + 0.1 * size),  # within the margin, each side
            rectangle(x_lo - size, mid_y, x_lo - 0.5 * margin, mid_y + 0.1 * size),
            rectangle(mid_x, y_hi + 0.5 * margin, mid_x + 0.1 * size, y_hi + size),
            rectangle(mid_x, y_lo - size, mid_x + 0.1 * size, y_lo - 0.5 * margin),
            rectangle(x_hi + 0.5 * margin, y_hi + 0.5 * margin, x_hi + size, y_hi + size),  # off a corner
            Polygon([(x_hi, y_hi), (x_hi - 0.01 * size, y_hi), (x_hi, y_hi - 0.01 * size)]),  # in V's box, in V or not
        ]
        left_out = [
            rectangle(x_hi + 2 * margin, mid_y, x_hi + size, mid_y + 0.1 * size),
            rectangle(x_lo - size, mid_y, x_lo - 2 * margin, mid_y + 0.1 * size),
            rectangle(mid_x, y_hi + 2 * margin, mid_x + 0.1 * size, y_hi + size),
            rectangle(mid_x, y_lo - size, mid_x + 0.1 * size, y_lo - 2 * margin),
        ]
        state = new_process(W, stit_rules, 0, region=V)
        assert not any(_left_out(state, cell) for cell in kept)
        assert all(_left_out(state, cell) for cell in left_out)

    def test_region_leaves_cells_out(self, stit_rules):
        V, W = REGIONS["square"]
        full = new_process(W, stit_rules, (5, 1)).advance(1.5)
        pruned = new_process(W, stit_rules, (5, 1), region=V).advance(1.5)
        assert len(pruned.segments) < len(full.segments)
        assert len(live_cells(pruned)) < len(pruned.segments) + 1

    def test_crop_and_snapshots_stay_inside_the_region(self, stit_rules):
        V, W = REGIONS["square"]
        state = new_process(W, stit_rules, 3, region=V)
        snaps = state.snapshots([0.75, 1.5])
        assert all(snap.window == V for snap in snaps)
        assert snaps[-1].segments == crop(state, V).segments
        crop(state, rectangle(0.25, 0.25, 0.75, 0.75))
        with pytest.raises(ContainmentViolation, match="region"):
            crop(state, rectangle(0.0, 0.0, 2.0, 2.0))


# Every rule family on both window shapes, with times chosen for about 1.5e3
# to 7e3 chords per family and shape over 25 seeds, plus a state with a region.
FAMILY_TRAJECTORIES = {
    "stit": (stit_pair(ISO), 24.0),
    "stit-axis-aligned": (stit_pair(HyperplaneMeasure(1.0, axis_aligned())), 24.0),
    "hitting-mass-point-driven": (RulePair(HittingMeasure(ISO), PointDriven()), 24.0),
    "vertex-count-axis-point-driven": (RulePair(VertexCount(), PointDriven(axis_aligned())), 1.4),
    "area": (RulePair(IntrinsicVolume(2), RestrictedMeasure(ISO)), 120.0),
}


def test_every_rule_family_keeps_its_trajectory_bits(unit_square, triangle):
    # sha256 of repr((segments, births)) of each trajectory in turn, recorded
    # before the division path was rewritten in one pass per piece
    digest = hashlib.sha256()
    chords = 0
    for rules, t in FAMILY_TRAJECTORIES.values():
        for W in (unit_square, triangle):
            for seed in range(25):
                state = new_process(W, rules, (31, seed)).advance(t)
                digest.update(repr((state.segments, state.births)).encode())
                chords += len(state.segments)
    state = new_process(rectangle(0.0, 0.0, 3.0, 3.0), stit_pair(ISO), (31, 99), region=unit_square).advance(30.0)
    digest.update(repr((state.segments, state.births)).encode())
    chords += len(state.segments)
    assert (chords, digest.hexdigest()) == (43489, "7a543c3e8949b12e655ee824953617704ebb71654d4346debb6d65dfbd6d406f")


def _public_trajectory(W, rules, seed, t, draw):
    """The trajectory of `new_process(W, rules, seed).advance(t)`, rebuilt in the
    event order of `advance` from the public `rate`, `draw(C, rng) -> Hyperplane`
    and `split(C, h)`."""
    rng = np.random.default_rng(seed)
    heap, segments, births = [], [], []
    index = itertools.count()

    def spawn(C, birth):
        heapq.heappush(heap, (birth + rng.standard_exponential() / rate(rules.selection, C), next(index), C))

    spawn(W, 0.0)
    while heap and heap[0][0] <= t:
        t_div, _, C = heapq.heappop(heap)
        for _ in range(engine.MAX_RESAMPLE):
            h = draw(C, rng)
            try:
                plus, minus, trace = geometry.split(C, h)
            except DegenerateSplit:
                continue
            if plus is not None and minus is not None:
                break
        else:
            raise AssertionError("no dividing line")
        segments.append(trace)
        births.append(t_div)
        spawn(plus, t_div)
        spawn(minus, t_div)
    return segments, births


@pytest.mark.parametrize(
    "family, entry",
    [(family, "divide") for family in FAMILY_TRAJECTORIES]
    + [
        (family, "sample_hitting")
        for family, (rules, _) in FAMILY_TRAJECTORIES.items()
        if isinstance(rules.division, RestrictedMeasure)
    ],
)
def test_public_entry_points_draw_the_same_trajectory(unit_square, triangle, family, entry):
    rules, t = FAMILY_TRAJECTORIES[family]
    if entry == "divide":
        draw = functools.partial(divide, rules.division)
    else:
        draw = functools.partial(sample_hitting, rules.division.measure)
    chords = 0
    for W in (unit_square, triangle):
        for seed in range(10):
            state = new_process(W, rules, (31, seed)).advance(t)
            rebuilt = _public_trajectory(W, rules, (31, seed), t, draw)
            assert repr(rebuilt) == repr((state.segments, state.births))
            chords += len(state.segments)
    assert chords > 300


# The intrinsic-volume selections, whose rates are no hitting mass, each with
# isotropic restricted and axis-aligned point-driven division.
INTRINSIC_VOLUME_TRAJECTORIES = {
    "v0-isotropic": (RulePair(IntrinsicVolume(0), RestrictedMeasure(ISO)), 5.0),
    "v0-axis-point-driven": (RulePair(IntrinsicVolume(0), PointDriven(axis_aligned())), 5.0),
    "v1-isotropic": (RulePair(IntrinsicVolume(1), RestrictedMeasure(ISO)), 14.0),
    "v1-axis-point-driven": (RulePair(IntrinsicVolume(1), PointDriven(axis_aligned())), 8.0),
}


def test_intrinsic_volume_selections_keep_their_trajectory_bits(unit_square, triangle):
    # sha256 of repr((segments, births)) of each trajectory in turn, recorded
    # before the rate became a function bound once per state
    digest = hashlib.sha256()
    chords = 0
    for rules, t in INTRINSIC_VOLUME_TRAJECTORIES.values():
        for W in (unit_square, triangle):
            for seed in range(25):
                state = new_process(W, rules, (32, seed)).advance(t)
                digest.update(repr((state.segments, state.births)).encode())
                chords += len(state.segments)
    assert (chords, digest.hexdigest()) == (28499, "3effb0e1bee1ea51dfc4ae15afa590f326c0d94f84c8e6735d56bf0e5aad24f5")


def test_keep_box_is_computed_once_per_window_pair():
    V, W = REGIONS["square"]
    box = engine._keep_box(V, W)
    assert engine._keep_box(Polygon(V.vertices), Polygon(W.vertices)) is box
    assert engine._keep_box.__wrapped__(V, W) == box


def _stit_chords():
    return len(new_process(rectangle(0.0, 0.0, 1.0, 1.0), stit_pair(ISO), 1).advance(100.0).segments)


def _vertex_count_chords():
    rules = RulePair(VertexCount(), RestrictedMeasure(ISO))
    return len(new_process(rectangle(0.0, 0.0, 1.0, 1.0), rules, (1, 0, 110)).advance(1.5).segments)


def _area_point_driven_chords():
    rules = RulePair(IntrinsicVolume(2), PointDriven())
    return len(new_process(rectangle(0.0, 0.0, 3.0, 3.0), rules, 2).advance(40.0).segments)


def _region_crop_chords():
    V, W = REGIONS["square"]
    state = new_process(W, stit_pair(ISO), 3, region=V)
    snaps = state.snapshots([0.75, 1.5])
    return len(snaps[-1].segments) + len(crop(state, rectangle(0.25, 0.25, 0.75, 0.75)).segments)


@pytest.mark.parametrize(
    "build, least",
    [(_stit_chords, 2000), (_vertex_count_chords, 300), (_area_point_driven_chords, 200), (_region_crop_chords, 1)],
    ids=["stit", "vertex-count", "area-point-driven", "region-snapshots-crop"],
)
def test_trajectories_make_no_reference_cycles(build, least):
    # The CLI runs each command with the cyclic collector paused; that is safe
    # only while a trajectory, once dropped, is freed by reference counts alone.
    gc.collect()
    gc.disable()
    try:
        assert build() >= least  # everything it built is dropped on return
        assert gc.collect() == 0
    finally:
        gc.enable()


def _crossings(segments, p, q):
    """How many of the segments cross the segment pq, each at one interior point of both."""
    rows = segment_rows(segments)
    a, b = rows[:, :2], rows[:, 2:]
    p, q = np.array(p), np.array(q)

    def side(o, d, xy):  # the sign of the turn o -> d -> xy, row by row
        u, v = d - o, xy - o
        return np.sign(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])

    return int(np.sum((side(p, q, a) * side(p, q, b) < 0) & (side(a, b, p) * side(a, b, q) < 0)))


@pytest.mark.parametrize("S", [((0.2, 0.5), (0.8, 0.5)), ((0.2, 0.2), (0.7, 0.7))], ids=["across", "diagonal"])
@pytest.mark.parametrize("arm", [0, 1], ids=["direct", "cropped"])
def test_crossings_of_a_fixed_segment_are_poisson(unit_square, stit_rules, arm, S):
    # law (ii): the chords of STIT (intensity 1) crossing a fixed segment S number
    # Poisson(t * 2|S|/pi), built in V or built in W with region V and cropped to V
    build, region = (rectangle(0, 0, 3, 3), unit_square) if arm else (unit_square, None)
    t, n = 1.5, 2000
    counts = np.array([
        _crossings(new_process(build, stit_rules, seed, region=region).snapshots([t])[0].segments, *S)
        for seed in engine.replicate_seeds(2502, arm, 0, n)
    ])
    lam = t * 2 * math.dist(*S) / math.pi  # 0.573 across, 0.675 on the diagonal
    assert abs(counts.mean() - lam) < 4.5 * counts.std(ddof=1) / math.sqrt(n)
    assert abs(counts.var(ddof=1) / counts.mean() - 1.0) < 0.2


def _draws(seed):
    rng = np.random.default_rng(seed)
    return rng.random(4).tolist() + rng.standard_exponential(4).tolist()


# Seeds of one to four entropy words; with the stream and rep words, the last
# two make more than the four words of SeedSequence's pool.
SEEDS = [0, 1, 5, 2**31 - 1, 2**32, 2**40 + 7, 2**64 + 3, 2**100 + 1, 12 * 10**28]


class TestReplicateSeeds:
    @pytest.mark.parametrize("stream", [0, 1, 2])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_generators_equal_default_rng_of_the_tuple(self, seed, stream):
        start, count = 5, engine.SEED_BLOCK + 6  # two blocks
        seeds = list(engine.replicate_seeds(seed, stream, start, count))
        assert seeds == [(seed, stream, rep) for rep in range(start, start + count)]
        assert all(type(s) is engine.ReplicateSeed for s in seeds)
        boundary = engine.SEED_BLOCK
        for s in seeds[:2] + seeds[boundary - 2 : boundary + 2] + seeds[-2:]:
            assert _draws(s) == _draws(tuple(s))

    def test_reps_from_2_to_the_32_are_plain_tuples(self):
        for start in (2**32 - 2, 2**32 + 5):
            seeds = list(engine.replicate_seeds(3, 1, start, 4))
            assert seeds == [(3, 1, rep) for rep in range(start, start + 4)]
            assert all(type(s) is tuple for s in seeds)

    def test_words_that_differ_from_numpy_give_plain_tuples(self, monkeypatch):
        monkeypatch.setattr(engine, "_seed_words", lambda prefix, reps: np.zeros((len(reps), 4), np.uint64))
        seeds = list(engine.replicate_seeds(3, 1, 0, engine.SEED_BLOCK + 1))
        assert all(type(s) is tuple for s in seeds)
        assert seeds == [(3, 1, rep) for rep in range(engine.SEED_BLOCK + 1)]

    @pytest.mark.parametrize("seed", [-1, 1.5, np.float64(2.0)])
    def test_bad_seed_raises_as_default_rng_does(self, seed):
        with pytest.raises(Exception) as expected:
            np.random.default_rng((seed, 0, 0))
        with pytest.raises(expected.type):
            list(engine.replicate_seeds(seed, 0, 0, 3))

    def test_pickles_as_the_plain_tuple(self):
        (s,) = engine.replicate_seeds(7, 2, 11, 1)
        back = pickle.loads(pickle.dumps(s))
        assert type(back) is tuple and back == (7, 2, 11)
        assert _draws(back) == _draws(s)

    def test_other_states_come_from_numpy(self):
        (s,) = engine.replicate_seeds(7, 2, 11, 1)
        expected = np.random.SeedSequence((7, 2, 11))
        assert np.array_equal(s.generate_state(4, np.uint64), expected.generate_state(4, np.uint64))
        assert np.array_equal(s.generate_state(3), expected.generate_state(3))
