import math

import numpy as np
import pytest

from stitsim import (
    ContainmentViolation,
    CroppedTessellation,
    HittingMeasure,
    HyperplaneMeasure,
    IntrinsicVolume,
    PointDriven,
    Polygon,
    Segment,
    crop,
    geometry,
    new_process,
    rectangle,
    regular_ngon,
    stit_pair,
)
from stitsim.geometry import scale_about_centroid
from stitsim.rules import RestrictedMeasure, RulePair, VertexCount

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
        cells = state.live_cells
        assert len(cells) == 1
        assert cells[0].polygon == unit_square
        assert math.isfinite(cells[0].death_time) and cells[0].death_time > 0

    def test_mean_first_division_time(self, unit_square, stit_rules):
        # rate = 4/pi, so the first division time averages pi/4
        n = 10_000
        mean = np.mean(
            [new_process(unit_square, stit_rules, s).live_cells[0].death_time for s in range(n)]
        )
        target = math.pi / 4.0
        assert abs(mean - target) < 3 * target / math.sqrt(n)


class TestAdvance:
    def test_no_segments_before_first_division(self, unit_square, stit_rules):
        state = new_process(unit_square, stit_rules, 5)
        first = state.live_cells[0].death_time
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

    def test_cells_equal_segments_plus_one(self, unit_square, stit_rules):
        state = new_process(unit_square, stit_rules, 17).advance(2.0)
        assert len(state.live_cells) == len(state.segments) + 1

    def test_tiling_invariant(self, window, stit_rules):
        for seed in range(30):
            state = new_process(window, stit_rules, seed).advance(4.0)
            assert state.check_tiling()

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
        monkeypatch.setattr(geometry, "_piece", Polygon)
        full = new_process(W, rules, seed).advance(t)
        assert len(built.segments) > 300
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
        V = unit_square.translate(offset, offset)
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
