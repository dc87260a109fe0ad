import hashlib
import io
import math
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from stitsim import (
    ContainmentViolation,
    CroppedTessellation,
    HyperplaneMeasure,
    InsufficientSamples,
    Polygon,
    ReplicateAborted,
    Segment,
    analysis,
    crop,
    new_process,
    rectangle,
    regular_ngon,
    stit_pair,
)
from stitsim.analysis import (
    CONSISTENT,
    WindowStats,
    _collect_chunk,
    chi_square_2x2,
    consistency_test,
    default_probes,
    holm_adjust,
    identity_suite,
    ks_two_sample,
    nu_limit,
    rate_estimate,
    window_stats,
)
from stitsim.geometry import scale_about_centroid
from stitsim.rules import (
    HittingMeasure,
    IntrinsicVolume,
    PointDriven,
    RestrictedMeasure,
    RulePair,
    VertexCount,
    min_expected_chords,
)

from reference import (
    _reference_chi_square_2x2,
    _reference_ks_two_sample,
    _reference_rate_estimate,
    _reference_window_stats,
)


def _stats(table):
    """The rows of a `_collect_chunk` table as WindowStats, a list of replicates per time."""
    return [
        [WindowStats(total, int(n), int(inner), tuple(h > 0 for h in hits)) for total, n, inner, *hits in rows]
        for rows in table.tolist()
    ]


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replaces the forked map by one that maps in this process; returns the n_jobs it is asked for."""
    asked = []

    def in_process_map(n_jobs, work, chunks):
        asked.append(n_jobs)
        return list(map(work, chunks))

    monkeypatch.setattr(analysis, "_forked_map", in_process_map)
    return asked


class TestWindowStats:
    def test_empty_tessellation(self, unit_square):
        probes = default_probes(unit_square)
        s = window_stats(CroppedTessellation(unit_square, ()), probes)
        assert s.total_length == 0.0
        assert s.segment_count == 0
        assert s.interior_endpoints == 0
        assert s.probe_hits == (False,) * len(probes)

    def test_single_full_chord(self, unit_square):
        t = CroppedTessellation(unit_square, (Segment((0.0, 0.5), (1.0, 0.5)),))
        s = window_stats(t)
        assert s.total_length == pytest.approx(1.0)
        assert s.segment_count == 1
        assert s.interior_endpoints == 0

    def test_two_crossing_chords_have_no_interior_endpoints(self, unit_square):
        t = CroppedTessellation(
            unit_square,
            (Segment((0.0, 0.5), (1.0, 0.5)), Segment((0.5, 0.0), (0.5, 1.0))),
        )
        s = window_stats(t)
        assert s.segment_count == 2
        assert s.interior_endpoints == 0

    def test_dead_end_counts_as_interior_endpoint(self, unit_square):
        t = CroppedTessellation(unit_square, (Segment((0.0, 0.5), (0.6, 0.5)),))
        assert window_stats(t).interior_endpoints == 1

    def test_probe_hit_detection(self, unit_square):
        probe = rectangle(0.4, 0.4, 0.6, 0.6)
        hit = CroppedTessellation(unit_square, (Segment((0.0, 0.5), (1.0, 0.5)),))
        miss = CroppedTessellation(unit_square, (Segment((0.0, 0.1), (1.0, 0.1)),))
        assert window_stats(hit, [probe]).probe_hits == (True,)
        assert window_stats(miss, [probe]).probe_hits == (False,)

    def test_default_probes_of_unit_square(self, unit_square):
        grid = [regular_ngon(((i + 1) / 4, (j + 1) / 4), 0.1, 32) for i in range(3) for j in range(3)]
        assert default_probes(unit_square) == grid

    def test_default_probes_lie_in_a_triangle(self, triangle):
        probes = default_probes(triangle)
        assert 0 < len(probes) < 9
        assert all(triangle.contains_polygon(pr) for pr in probes)


class TestKSTwoSample:
    def test_identical_samples(self, rng):
        a = list(rng.random(100))
        stat, p = ks_two_sample(a, a)
        assert stat == 0.0
        assert p == pytest.approx(1.0)

    def test_shifted_uniform_strongly_rejected(self, rng):
        a = rng.random(5000)
        b = rng.random(5000) + 0.5
        _, p = ks_two_sample(a, b)
        assert p < 1e-10

    def test_minimum_sample_size(self, rng):
        with pytest.raises(InsufficientSamples):
            ks_two_sample(list(rng.random(10)), list(rng.random(100)))

    def test_null_calibration(self, rng):
        # rejection rate at alpha=0.05 should sit near 0.05
        rejections = 0
        reps = 1000
        for _ in range(reps):
            _, p = ks_two_sample(rng.random(200), rng.random(200))
            if p < 0.05:
                rejections += 1
        assert abs(rejections / reps - 0.05) < 0.02


class TestHolmAndChi2:
    def test_holm_adjust_known_example(self):
        adj = holm_adjust([0.01, 0.04, 0.03, 0.005])
        assert adj == pytest.approx([0.03, 0.06, 0.06, 0.02])

    def test_holm_monotone_and_bounded(self, rng):
        ps = list(rng.random(10))
        adj = holm_adjust(ps)
        assert all(0.0 <= a <= 1.0 for a in adj)
        assert all(a >= p for a, p in zip(adj, ps))

    def test_chi2_degenerate_table(self):
        assert chi_square_2x2([True] * 50, [True] * 50) == (0.0, 1.0)
        assert chi_square_2x2([False] * 50, [False] * 50) == (0.0, 1.0)

    def test_chi2_detects_gross_difference(self):
        _, p = chi_square_2x2([True] * 90 + [False] * 10, [True] * 10 + [False] * 90)
        assert p < 1e-10


def _tied(rng, size, columns):
    """Integer samples with many ties."""
    return rng.integers(0, 8, size=(size, columns)).astype(float)


class TestBatchedTestsMatchScipy:
    """Each column of the batched tests gives scipy's scalar result, bit for bit."""

    @pytest.mark.parametrize("m, n", [(20, 20), (20, 2000), (137, 61), (500, 501), (2000, 2000)])
    def test_ks_columns_equal_ks_2samp(self, rng, m, n):
        a = np.column_stack([rng.random((m, 3)), _tied(rng, m, 3), rng.random((m, 1)) + 0.3])
        b = np.column_stack([rng.random((n, 3)), _tied(rng, n, 3), rng.random((n, 1))])
        b[:, 2] = a[: min(m, n), 2].repeat(-(-n // m))[:n]  # values shared with the other side
        d, p = ks_two_sample(a, b)
        expected = [_reference_ks_two_sample(a[:, c], b[:, c]) for c in range(a.shape[1])]
        assert list(zip(d.tolist(), p.tolist())) == expected

    def test_ks_one_dimensional_pair_gives_floats(self, rng):
        a, b = rng.random(50), rng.random(70)
        result = ks_two_sample(list(a), list(b))
        assert result == _reference_ks_two_sample(a, b)
        assert all(type(x) is float for x in result)

    def test_ks_needs_twenty_samples_in_every_column(self, rng):
        with pytest.raises(InsufficientSamples):
            ks_two_sample(rng.random((19, 3)), rng.random((100, 3)))

    @staticmethod
    def _hit_columns(size, counts):
        """A (size, len(counts)) array whose column j has counts[j] hits."""
        return np.arange(size)[:, None] < np.array(counts)[None, :]

    def test_chi2_every_small_table(self):
        for m in range(1, 9):
            for n in range(1, 9):
                pairs = [(i, j) for i in range(m + 1) for j in range(n + 1)]
                a = self._hit_columns(m, [i for i, _ in pairs])
                b = self._hit_columns(n, [j for _, j in pairs])
                stat, p = chi_square_2x2(a, b)
                expected = [_reference_chi_square_2x2(a[:, c], b[:, c]) for c in range(len(pairs))]
                assert list(zip(stat.tolist(), p.tolist())) == expected, (m, n)

    def test_chi2_random_tables(self, rng):
        for _ in range(20):
            m, n = rng.integers(20, 6001, size=2)
            a = self._hit_columns(m, rng.integers(0, m + 1, size=25))
            b = self._hit_columns(n, rng.integers(0, n + 1, size=25))
            stat, p = chi_square_2x2(a, b)
            expected = [_reference_chi_square_2x2(a[:, c], b[:, c]) for c in range(25)]
            assert list(zip(stat.tolist(), p.tolist())) == expected, (m, n)

    def test_chi2_degenerate_margins(self):
        # all hits, no hits, and an empty side, next to a proper table
        a = self._hit_columns(40, [40, 0, 7, 40, 0])
        b = self._hit_columns(30, [30, 0, 20, 0, 30])
        stat, p = chi_square_2x2(a, b)
        expected = [_reference_chi_square_2x2(a[:, c], b[:, c]) for c in range(5)]
        assert list(zip(stat.tolist(), p.tolist())) == expected
        assert expected[:2] == [(0.0, 1.0)] * 2
        assert chi_square_2x2([], [True, False]) == (0.0, 1.0) == _reference_chi_square_2x2([], [True, False])
        stat, p = chi_square_2x2(np.zeros((0, 3)), np.ones((10, 3)))
        assert stat.tolist() == [0.0] * 3 and p.tolist() == [1.0] * 3

    @pytest.mark.parametrize("test", [ks_two_sample, chi_square_2x2])
    def test_sides_need_the_same_columns(self, rng, test):
        mismatched = [
            (rng.random((30, 3)), rng.random((30, 2))),
            (rng.random(30), rng.random((30, 1))),
            (rng.random((30, 2, 2)),) * 2,
        ]
        for a, b in mismatched:
            with pytest.raises(ValueError, match="columns"):
                test(a, b)

    def test_chi2_without_columns(self):
        stat, p = chi_square_2x2(np.zeros((100, 0)), np.zeros((90, 0)))
        assert stat.shape == p.shape == (0,)


class TestConsistencyPipeline:
    def test_null_same_window_not_rejected(self, unit_square, stit_rules):
        report = consistency_test(
            stit_rules, unit_square, unit_square, [1.0], 200, seed=4, alpha=0.01
        )
        assert report.verdict == CONSISTENT

    def test_null_calibration_rejection_rate(self, unit_square, stit_rules):
        # V = W: the full pipeline should reject at most alpha + 2% of the time
        alpha = 0.05
        rejections = 0
        runs = 60
        for k in range(runs):
            report = consistency_test(
                stit_rules, unit_square, unit_square, [1.0], 100, seed=1000 + k, alpha=alpha
            )
            if report.verdict != CONSISTENT:
                rejections += 1
        assert rejections / runs <= alpha + 0.02

    def test_area_selection_detected_inconsistent(self, unit_square, iso_measure):
        pair = RulePair(IntrinsicVolume(2), RestrictedMeasure(iso_measure))
        report = consistency_test(
            pair, unit_square, rectangle(0, 0, 3, 3), [0.75, 1.5], 500, seed=2, alpha=0.001
        )
        assert report.verdict == "inconsistent-detected"

    def test_stit_consistent_on_a_triangle(self, triangle, stit_rules):
        W = Polygon([(-1.0, -1.0), (3.0, -1.0), (-1.0, 3.0)])
        times = [0.75, 1.5]
        report = consistency_test(stit_rules, triangle, W, times, 100, seed=11)
        assert report.verdict == CONSISTENT
        for t in times:
            assert sum(r.time == t and r.kind == "chi2" for r in report.results) == 3

    def test_parallel_report_equals_serial(self, unit_square, stit_rules):
        W = rectangle(0, 0, 2, 2)
        serial = consistency_test(stit_rules, unit_square, W, [0.5], 100, seed=3, n_jobs=1)
        parallel = consistency_test(stit_rules, unit_square, W, [0.5], 100, seed=3, n_jobs=2)
        assert serial.to_dict() == parallel.to_dict()

    def test_replicate_independent_of_chunking(self, unit_square, stit_rules):
        W = rectangle(0, 0, 2, 2)
        probes = default_probes(unit_square)
        times = [0.5, 1.0]
        for arm in (0, 1):
            whole, aborted = _collect_chunk(stit_rules, unit_square, W, times, probes, 7, (arm, 0, 6))
            assert aborted == 0
            assert whole.shape == (len(times), 6, 3 + len(probes))
            for rep in (0, 3, 5):
                alone, _ = _collect_chunk(stit_rules, unit_square, W, times, probes, 7, (arm, rep, 1))
                assert np.array_equal(alone[:, 0], whole[:, rep])

    @pytest.mark.parametrize("cores, pool", [(2, [2]), (None, [])], ids=["two-cores", "unknown-cores"])
    def test_workers_bounded_by_cores(self, unit_square, stit_rules, monkeypatch, in_process_pool, cores, pool):
        # 100000 real processes would be 99999 forks; the in-process map starts none.
        # Where the OS reports no affinity set, the bound is os.cpu_count(), or 1.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        W = rectangle(0, 0, 2, 2)
        bounded = consistency_test(stit_rules, unit_square, W, [0.5], 100, seed=3, n_jobs=100_000)
        assert in_process_pool == pool
        assert bounded.to_dict() == consistency_test(stit_rules, unit_square, W, [0.5], 100, seed=3).to_dict()

    def test_workers_bounded_by_affinity(self, unit_square, stit_rules, monkeypatch, in_process_pool):
        # pinned to 3 of 64 CPUs: 3 workers
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert analysis.usable_cpus() == 3
        consistency_test(stit_rules, unit_square, rectangle(0, 0, 2, 2), [0.5], 100, seed=3, n_jobs=100_000)
        assert in_process_pool == [3]

    def test_in_process_arm_is_chunked_by_seed_block(self, unit_square, stit_rules, monkeypatch):
        W = rectangle(0, 0, 2, 2)
        whole = consistency_test(stit_rules, unit_square, W, [0.5, 1.0], 130, seed=3)
        chunks = []

        def spy(*args):
            chunks.append(args[-1])
            return _collect_chunk(*args)

        monkeypatch.setattr(analysis, "_collect_chunk", spy)
        assert consistency_test(stit_rules, unit_square, W, [0.5, 1.0], 130, seed=3).to_dict() == whole.to_dict()
        assert chunks == [(0, 0, 130), (1, 0, 130)]
        chunks.clear()
        monkeypatch.setattr(analysis, "SEED_BLOCK", 50)
        assert consistency_test(stit_rules, unit_square, W, [0.5, 1.0], 130, seed=3).to_dict() == whole.to_dict()
        assert chunks == [(arm, start, count) for arm in (0, 1) for start, count in ((0, 43), (43, 43), (86, 44))]

    def test_each_process_gets_half_of_each_arm(self, unit_square, stit_rules, monkeypatch, in_process_pool):
        chunks = []

        def spy(*args):
            chunks.append(args[-1])
            return _collect_chunk(*args)

        monkeypatch.setattr(analysis, "_collect_chunk", spy)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        consistency_test(stit_rules, unit_square, rectangle(0, 0, 2, 2), [0.5, 1.0], 130, seed=3, n_jobs=2)
        assert in_process_pool == [2]
        assert chunks == [(arm, start, 65) for arm in (0, 1) for start in (0, 65)]  # share i is chunks[i::2]

    @pytest.mark.parametrize("n_jobs, n_reps", [(2, 6000), (4, 6000), (5, 6000), (4, 4097), (3, 100)])
    def test_every_share_holds_the_same_work_of_each_arm(self, unit_square, stit_rules, monkeypatch, n_jobs, n_reps):
        class Stop(Exception):
            pass

        def record(n, work, chunks):
            assert n == n_jobs
            shares.extend(chunks[i::n] for i in range(n))
            raise Stop

        shares = []
        monkeypatch.setattr(analysis, "_forked_map", record)
        monkeypatch.setattr(analysis, "max_workers", lambda *args: n_jobs)
        with pytest.raises(Stop):
            consistency_test(stit_rules, unit_square, rectangle(0, 0, 2, 2), [0.5], n_reps, n_jobs=n_jobs)
        chunks = sorted(c for share in shares for c in share)
        for arm in (0, 1):
            ends = [start + count for a, start, count in chunks if a == arm]
            assert [start for a, start, _ in chunks if a == arm] == [0] + ends[:-1] and ends[-1] == n_reps
        assert max(count for *_, count in chunks) <= analysis.SEED_BLOCK
        for arm in (0, 1):
            per_share = [sorted(count for a, _, count in share if a == arm) for share in shares]
            assert len({len(counts) for counts in per_share}) == 1  # as many chunks of the arm in each share
            assert max(map(sum, per_share)) - min(map(sum, per_share)) <= len(per_share[0])  # 1 a chunk at most

    def test_crop_once_matches_crop_of_full_window_snapshots(self, unit_square, stit_rules):
        W = rectangle(0, 0, 3, 3)
        probes = default_probes(unit_square)
        times = [0.75, 1.5]
        table, aborted = _collect_chunk(stit_rules, unit_square, W, times, probes, 1, (1, 0, 20))
        assert aborted == 0
        old_route = [[] for _ in times]
        for rep in range(20):
            snaps = new_process(W, stit_rules, (1, 1, rep), region=unit_square).snapshots(times)
            for column, snap in zip(old_route, snaps):
                column.append(window_stats(crop(snap, unit_square), probes))
        assert _stats(table) == old_route

    # sha256 of repr([[(segment_count, interior_endpoints, probe_hits) per time] per replicate])
    # for 100 STIT replicates, seed 1, V = [0,1]^2, W = [0,3]^2; integers and booleans
    # only, so a change in the last bit of a float cannot move it.  Arm 1 builds
    # only the cells that can meet V; "unpruned" is the same W arm built whole.
    PINNED_DIGESTS = {
        0: "206bf11ed3bbeaf344fe4fef9cf0b0b1f70529b7b13292e5ec50ef6f3f0c81ec",
        1: "4ee5d8e84a2850b8baf207985355955d8d42936edfebb618fd98b8ab5e1b1e8b",
        "unpruned": "2a3a5f75911001f9bdc4f533d9e2e8683a3b44c2ca4e607c8a98f98bf19f21f0",
    }

    @staticmethod
    def _digest(per_time):
        rows = [[(s.segment_count, s.interior_endpoints, s.probe_hits) for s in rep] for rep in zip(*per_time)]
        assert len(rows) == 100
        return hashlib.sha256(repr(rows).encode()).hexdigest()

    @pytest.mark.parametrize("arm", [0, 1], ids=["direct", "cropped"])
    def test_discrete_statistics_are_pinned(self, unit_square, stit_rules, arm):
        W = rectangle(0, 0, 3, 3)
        table, aborted = _collect_chunk(
            stit_rules, unit_square, W, [0.75, 1.5], default_probes(unit_square), 1, (arm, 0, 100)
        )
        assert aborted == 0
        assert self._digest(_stats(table)) == self.PINNED_DIGESTS[arm]

    def test_unpruned_cropped_statistics_are_pinned(self, unit_square, stit_rules):
        W = rectangle(0, 0, 3, 3)
        probes = default_probes(unit_square)
        times = [0.75, 1.5]
        per_time = [[] for _ in times]
        for rep in range(100):
            for column, snap in zip(per_time, new_process(W, stit_rules, (1, 1, rep)).snapshots(times)):
                column.append(window_stats(crop(snap, unit_square), probes))
        assert self._digest(per_time) == self.PINNED_DIGESTS["unpruned"]

    @pytest.mark.parametrize(
        "times",
        [[], [float("nan")], [float("inf")], [0.0], [-1.0], [1.5, 0.75], [0.5, float("nan")]],
        ids=["empty", "nan", "inf", "zero", "negative", "descending", "nan-last"],
    )
    def test_times_checked_before_replicates(self, unit_square, stit_rules, monkeypatch, times):
        monkeypatch.setattr(analysis, "new_process", None)  # no replicate may run
        with pytest.raises(ValueError, match="times"):
            consistency_test(stit_rules, unit_square, unit_square, times, 100)

    def test_probe_containment_checked_before_replicates(self, unit_square, stit_rules, monkeypatch):
        def no_replicates(*args):
            raise AssertionError("a replicate ran before the probes were checked")

        monkeypatch.setattr(analysis, "new_process", no_replicates)
        with pytest.raises(ContainmentViolation, match="probe polygon outside the window"):
            consistency_test(
                stit_rules, unit_square, unit_square, [1.0], 100, probes=[rectangle(0.5, 0.5, 2.0, 2.0)]
            )

    def test_requires_min_replicates(self, unit_square, stit_rules):
        with pytest.raises(ValueError):
            consistency_test(stit_rules, unit_square, unit_square, [1.0], 50)

    def test_requires_positive_n_jobs(self, unit_square, stit_rules):
        with pytest.raises(ValueError):
            consistency_test(stit_rules, unit_square, unit_square, [1.0], 100, n_jobs=0)

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0, 5.0, float("nan")])
    def test_alpha_must_lie_in_unit_interval(self, unit_square, stit_rules, monkeypatch, alpha):
        monkeypatch.setattr("stitsim.analysis.new_process", None)  # no replicate may run
        with pytest.raises(ValueError, match="alpha"):
            consistency_test(stit_rules, unit_square, unit_square, [1.0], 100, alpha=alpha)

    def test_report_serialization_roundtrip(self, unit_square, stit_rules):
        report = consistency_test(
            stit_rules, unit_square, unit_square, [1.0], 100, seed=6, alpha=0.01
        )
        d = report.to_dict()
        assert d["verdict"] == report.verdict
        assert len(d["results"]) == len(report.results)
        assert all(0.0 <= r["p_holm"] <= 1.0 for r in d["results"])
        assert "verdict" in report.to_text()


def _reference_columns(rules, V, W, times, probes, seed, arm, reps):
    """The reference window statistics of each replicate's crop to V at each time, one by one."""
    columns = [[] for _ in times]
    for rep in reps:
        state = new_process(W, rules, (seed, arm, rep), region=V) if arm else new_process(V, rules, (seed, arm, rep))
        for column, t in zip(columns, times):
            column.append(_reference_window_stats(state.advance(t).segments, V, probes))
    return columns


class TestWorkerPool:
    """The processes of a pooled call: forked for the call, killed and reaped before it returns.

    Each test starts at most two real children; `forks` records their pids.
    """

    @pytest.fixture
    def forks(self, monkeypatch):
        pids = []
        real = os.fork

        def fork():
            pid = real()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        return pids

    @staticmethod
    def _reaped(pids):
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        return True

    @staticmethod
    def _call(rules, n_jobs, seed=3):
        return consistency_test(rules, rectangle(0, 0, 1, 1), rectangle(0, 0, 2, 2), [0.5], 100, seed=seed, n_jobs=n_jobs)

    @pytest.mark.parametrize("n_jobs", [2, 3])
    def test_results_in_chunk_order(self, forks, n_jobs):
        assert analysis._forked_map(n_jobs, lambda c: (c, os.getpid()), list(range(5))) == [
            (c, os.getpid() if c % n_jobs == 0 else forks[c % n_jobs - 1]) for c in range(5)
        ]
        assert len(forks) == n_jobs - 1 and self._reaped(forks)

    def test_exception_in_a_child_is_raised(self, forks):
        def work(c):
            if c == 3:
                raise ReplicateAborted(f"spy: chunk {c}")
            return c

        with pytest.raises(ReplicateAborted, match="spy: chunk 3"):
            analysis._forked_map(2, work, list(range(5)))
        assert len(forks) == 1 and self._reaped(forks)

    def test_child_without_a_result(self, forks):
        with pytest.raises(ChildProcessError) as caught:
            analysis._forked_map(2, lambda c: os._exit(3) if c % 2 else c, list(range(5)))
        assert str(caught.value) == f"worker process {forks[0]} ended without a result (wait status {3 << 8})"
        assert self._reaped(forks)

    def test_child_with_half_a_result(self, forks, monkeypatch):
        # the child writes half its pickled result and exits, as if killed mid-write
        halved = type(pickle)("halved_pickle")
        halved.dumps = lambda obj: pickle.dumps(obj)[: len(pickle.dumps(obj)) // 2]
        halved.loads = pickle.loads
        monkeypatch.setattr(analysis, "pickle", halved)
        with pytest.raises(ChildProcessError) as caught:
            analysis._forked_map(2, lambda c: np.full(1000, c), list(range(5)))
        assert str(caught.value) == f"worker process {forks[0]} ended without a result (wait status 0)"
        assert self._reaped(forks)

    def test_children_reaped_elsewhere(self, forks):
        # with SIGCHLD ignored the kernel reaps each child: a result or an exception must still come through
        def work(c):
            if c == 1:
                time.sleep(30)
            raise ValueError(f"spy: chunk {c}")

        old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            assert analysis._forked_map(2, lambda c: c, list(range(5))) == list(range(5))
            start = time.monotonic()
            with pytest.raises(ValueError, match="spy: chunk 0"):
                analysis._forked_map(2, work, list(range(5)))
            assert time.monotonic() - start < 2.0
        finally:
            signal.signal(signal.SIGCHLD, old)
        assert len(forks) == 2 and self._reaped(forks)

    def test_exception_in_share_0_ends_the_children(self, forks):
        def work(c):
            if c % 2:
                time.sleep(30)
            raise ValueError(f"spy: chunk {c}")

        start = time.monotonic()
        with pytest.raises(ValueError, match="spy: chunk 0"):
            analysis._forked_map(2, work, list(range(5)))
        assert time.monotonic() - start < 2.0
        assert len(forks) == 1 and self._reaped(forks)

    def test_in_process_off_linux(self, stit_rules, monkeypatch):
        serial = self._call(stit_rules, 1)

        def fork():
            raise AssertionError("forked off Linux")

        monkeypatch.setattr(analysis.sys, "platform", "darwin")
        monkeypatch.setattr(os, "fork", fork)
        assert self._call(stit_rules, 2).to_dict() == serial.to_dict()

    def test_back_to_back_calls_equal_serial(self, unit_square):
        # a child must not answer the second call with the first call's inputs
        W = rectangle(0, 0, 2, 2)
        calls = [
            (stit_pair(HyperplaneMeasure(1.0)), 3),
            (RulePair(IntrinsicVolume(2), RestrictedMeasure(HyperplaneMeasure(1.0))), 5),
        ]
        pooled = [consistency_test(r, unit_square, W, [0.5, 1.0], 100, seed=k, n_jobs=2).to_dict() for r, k in calls]
        serial = [consistency_test(r, unit_square, W, [0.5, 1.0], 100, seed=k, n_jobs=1).to_dict() for r, k in calls]
        assert pooled == serial
        assert serial[0] != serial[1]

    @pytest.mark.skipif(analysis.usable_cpus() < 2, reason="one usable CPU: nothing is forked")
    def test_pooled_call_leaves_no_thread(self, stit_rules, forks):
        # The warning is Python 3.12+'s for a fork while threads run; older versions never give it.
        before = threading.active_count()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self._call(stit_rules, 2)
        assert len(forks) == 1 and self._reaped(forks)
        assert threading.active_count() == before
        assert not [w for w in caught if issubclass(w.category, DeprecationWarning) and "fork" in str(w.message)]

    @staticmethod
    def _group_life_after_kill(loop: str) -> float:
        """Seconds the session of a caller running `loop` lives on once it is killed right after its first fork.

        The caller runs in its own session and prints each child's pid once it is forked.  Gives up at 10 s.
        """
        code = (
            "import os, time\n"
            "from stitsim import HyperplaneMeasure, analysis, rectangle, stit_pair\n"
            "fork = os.fork\n"
            "def announced_fork():\n"
            "    pid = fork()\n"
            "    if pid:\n"
            "        print(pid, flush=True)\n"
            "    return pid\n"
            "os.fork = announced_fork\n"
        ) + loop
        src = os.path.dirname(os.path.dirname(os.path.abspath(analysis.__file__)))  # the stitsim under test
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        with subprocess.Popen(
            [sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
        ) as proc:
            try:
                assert int(proc.stdout.readline()) > 0
                proc.kill()
                proc.wait()
                start = time.monotonic()
                while _group_lives(proc.pid) and time.monotonic() - start < 10.0:
                    time.sleep(0.1)
                return time.monotonic() - start
            finally:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    @pytest.mark.skipif(analysis.usable_cpus() < 2, reason="one usable CPU: nothing is forked")
    def test_no_process_outlives_a_killed_caller(self):
        loop = (
            "while True:\n"
            "    analysis.consistency_test(stit_pair(HyperplaneMeasure(1.0)), rectangle(0, 0, 1, 1), "
            "rectangle(0, 0, 2, 2), [0.5], 100, n_jobs=2)\n"
        )
        assert self._group_life_after_kill(loop) < 10.0

    def test_orphan_ends_before_its_next_chunk(self):
        # Share 1 is 16 chunks of 0.5 s: an orphan that ran it out would live 8 s, one that stops before its
        # next chunk 0.5 s, plus the time the session's new parent takes to reap it.
        loop = "analysis._forked_map(2, lambda c: time.sleep(0.5), list(range(32)))\n"
        assert self._group_life_after_kill(loop) < 5.0


def _group_lives(pgid: int) -> bool:
    """Whether process group `pgid` has a process in it (a zombie counts)."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


class TestMemoryBound:
    MEMINFO = "MemTotal:        8211568 kB\nMemFree:         6587304 kB\nMemAvailable:    7711812 kB\n"

    @pytest.fixture
    def meminfo(self, monkeypatch):
        """Serves /proc/meminfo from `content`; None makes it unreadable."""
        content = {"text": self.MEMINFO}

        def fake_open(path, *args, **kwargs):
            assert path == "/proc/meminfo"
            if content["text"] is None:
                raise FileNotFoundError(path)
            return io.StringIO(content["text"])

        monkeypatch.setattr(analysis, "open", fake_open, raising=False)
        return content

    @staticmethod
    def _sysconf(values):
        def sysconf(name):
            if name not in values:
                raise ValueError(f"unrecognized configuration name {name}")
            return values[name]

        return sysconf

    def test_reads_mem_available(self, meminfo, monkeypatch):
        monkeypatch.setattr(os, "sysconf", self._sysconf({}))
        assert analysis.available_memory() == 7711812 * 1024

    @pytest.mark.parametrize("text", [None, "MemTotal: 8211568 kB\n"], ids=["unreadable", "no-MemAvailable"])
    def test_falls_back_to_sysconf(self, meminfo, monkeypatch, text):
        meminfo["text"] = text
        monkeypatch.setattr(os, "sysconf", self._sysconf({"SC_AVPHYS_PAGES": 1000, "SC_PAGE_SIZE": 4096}))
        assert analysis.available_memory() == 4096 * 1000

    def test_unknown_without_meminfo_or_sysconf(self, meminfo, monkeypatch):
        meminfo["text"] = None
        monkeypatch.setattr(os, "sysconf", self._sysconf({}))
        assert analysis.available_memory() is None
        monkeypatch.delattr(os, "sysconf")
        assert analysis.available_memory() is None

    @pytest.fixture
    def host(self, monkeypatch):
        """Sets the host's CPUs and available bytes."""

        def set_host(cpus, free):
            monkeypatch.setattr(analysis, "usable_cpus", lambda: cpus)
            monkeypatch.setattr(analysis, "available_memory", lambda: free)

        return set_host

    def test_trajectories_at_the_event_cap(self, host):
        # e^30 - 1 expected chords are capped at MAX_EVENTS, about 1.56 GB a trajectory
        rules = RulePair(VertexCount(), RestrictedMeasure(HyperplaneMeasure(1.0)))
        per_trajectory = analysis.MAX_EVENTS * analysis.EVENT_BYTES
        for free, workers in [(7.5e9, 4), (4 * per_trajectory, 4), (4 * per_trajectory - 1, 3), (1e6, 1)]:
            host(64, free)
            assert analysis.max_workers(rules, rectangle(0, 0, 3, 3), 10.0) == workers

    def test_trajectory_of_expected_chords(self, host, stit_rules):
        W = rectangle(0, 0, 2, 2)
        per_trajectory = min_expected_chords(stit_rules, W, 0.5) * analysis.EVENT_BYTES
        host(64, 3.5 * per_trajectory)
        assert analysis.max_workers(stit_rules, W, 0.5) == 3
        host(2, 3.5 * per_trajectory)
        assert analysis.max_workers(stit_rules, W, 0.5) == 2

    def test_cpus_alone_without_a_reading(self, host, stit_rules):
        host(5, None)
        assert analysis.max_workers(stit_rules, rectangle(0, 0, 2, 2), 0.5) == 5

    def test_pointdriven_t3_keeps_two_workers_on_a_two_cpu_host(self, host):
        # the bench's pooled workload, with 7.5 GB available
        rules = RulePair(HittingMeasure(HyperplaneMeasure(1.0)), PointDriven())
        host(2, 7.5e9)
        assert analysis.max_workers(rules, rectangle(0, 0, 3, 3), 3.0) == 2

    def test_consistency_test_asks_for_the_bounded_pool(self, unit_square, stit_rules, monkeypatch, in_process_pool):
        W = rectangle(0, 0, 2, 2)
        per_trajectory = min_expected_chords(stit_rules, W, 0.5) * analysis.EVENT_BYTES
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        monkeypatch.setattr(analysis, "available_memory", lambda: 3.5 * per_trajectory)
        bounded = consistency_test(stit_rules, unit_square, W, [0.5], 100, seed=3, n_jobs=64)
        assert in_process_pool == [3]
        monkeypatch.setattr(analysis, "available_memory", lambda: 0.5 * per_trajectory)
        in_process = consistency_test(stit_rules, unit_square, W, [0.5], 100, seed=3, n_jobs=64)
        assert in_process.to_dict() == bounded.to_dict()
        assert in_process_pool == [3]  # one trajectory's worth or less: in process

    def test_in_process_call_reads_no_bound(self, unit_square, stit_rules, monkeypatch):
        def unread():
            raise AssertionError("one worker needs no bound")

        monkeypatch.setattr(analysis, "max_workers", lambda *args: unread())
        consistency_test(stit_rules, unit_square, rectangle(0, 0, 2, 2), [0.5], 100, seed=3, n_jobs=1)


class _FixedChords:
    """Stands in for a ProcessState whose chords and birth times are given."""

    def __init__(self, window, segments, births):
        self.window = window
        self._chords = list(zip(segments, births))

    def advance(self, t):
        born = [(s, b) for s, b in self._chords if b <= t]
        self.segments = [s for s, _ in born]
        self.births = [b for _, b in born]
        return self


def _boundary_chords(V):
    """Chords that end on V's edges or vertices, or run along them."""
    vs = V.vertices
    cx, cy = V.centroid()
    chords = []
    for i, (x0, y0) in enumerate(vs):
        x1, y1 = vs[(i + 1) % len(vs)]
        ex, ey = x1 - x0, y1 - y0
        mx, my = x0 + 0.5 * ex, y0 + 0.5 * ey
        chords += [
            ((x0, y0), (x1, y1)),  # an edge, vertex to vertex
            ((x0 - 0.5 * ex, y0 - 0.5 * ey), (x1 + 0.5 * ex, y1 + 0.5 * ey)),  # the edge's line, beyond V
            ((x0 + 0.25 * ex, y0 + 0.25 * ey), (mx, my)),  # part of an edge
            ((cx, cy), (mx, my)),  # from inside to an edge
            ((mx, my), (2 * mx - cx, 2 * my - cy)),  # from an edge outward: touches V at a point
            ((cx, cy), (x0, y0)),  # from inside to a vertex
            ((x0, y0), (2 * x0 - cx, 2 * y0 - cy)),  # from a vertex outward
            ((2 * cx - x0, 2 * cy - y0), (2 * x0 - cx, 2 * y0 - cy)),  # through a vertex and the centroid
        ]
        chords += [((x0, y0), vs[j]) for j in range(i + 2, len(vs)) if (j + 1) % len(vs) != i]  # diagonals
    # inside, shorter than crop's floor but longer than clip_segment's snap_tol, and shorter than both
    chords += [((cx, cy), (cx + 1e-10, cy)), ((cx, cy), (cx, cy + 1e-13))]
    return [Segment(p, q) for p, q in chords]


class TestChunkKernel:
    """_collect_chunk gives exactly the window_stats of each replicate's crop at each time."""

    @pytest.mark.parametrize("case", ["triangle", "hexagon", "area", "point-driven"])
    @pytest.mark.parametrize("arm", [0, 1], ids=["direct", "cropped"])
    def test_equals_window_stats_of_crops(self, unit_square, iso_measure, stit_rules, case, arm):
        big = rectangle(0, 0, 3, 3)
        V, W, rules = {
            "triangle": (Polygon([(0, 0), (1, 0), (0, 1)]), Polygon([(-1, -1), (3, -1), (-1, 3)]), stit_rules),
            "hexagon": (regular_ngon((0, 0), 1, 6), regular_ngon((0.5, 0), 3, 6), stit_rules),
            "area": (unit_square, big, RulePair(IntrinsicVolume(2), RestrictedMeasure(iso_measure))),
            "point-driven": (unit_square, big, RulePair(HittingMeasure(iso_measure), PointDriven())),
        }[case]
        probes = default_probes(V)
        times = [0.75, 1.5]
        table, aborted = _collect_chunk(rules, V, W, times, probes, 3, (arm, 0, 15))
        assert aborted == 0
        assert _stats(table) == _reference_columns(rules, V, W, times, probes, 3, arm, range(15))
        assert table[-1, :, 1].sum() > 15

    @pytest.mark.parametrize(
        "V",
        [rectangle(0, 0, 1, 1), Polygon([(0, 0), (1, 0), (0, 1)]), regular_ngon((0, 0), 1, 6)],
        ids=["square", "triangle", "hexagon"],
    )
    def test_chords_on_the_boundary(self, stit_rules, monkeypatch, V):
        W = scale_about_centroid(V, 4.0)
        chords = _boundary_chords(V)
        born = [0.2, 0.75, 1.0, 1.5, 2.0]  # two are snapshot times: born at t counts at t
        plans = [
            (chords, [born[i % len(born)] for i in range(len(chords))]),
            ([], []),
            (chords[::-1], [born[i % 3] for i in range(len(chords))]),
        ]
        monkeypatch.setattr(
            analysis, "new_process", lambda window, rules, seed, region=None: _FixedChords(window, *plans[seed[2]])
        )
        probes = default_probes(V) + [V, scale_about_centroid(V, 0.5)]
        times = [0.75, 1.5]
        table, aborted = _collect_chunk(stit_rules, V, W, times, probes, 0, (1, 0, len(plans)))
        assert aborted == 0
        snapshots = [[CroppedTessellation(W, tuple(s for s, b in zip(*plan) if b <= t)) for plan in plans] for t in times]
        expected = [[_reference_window_stats(snap.segments, V, probes) for snap in column] for column in snapshots]
        assert _stats(table) == expected
        assert [[window_stats(crop(snap, V), probes) for snap in column] for column in snapshots] == expected
        assert 0 < expected[-1][0].segment_count < len([b for b in plans[0][1] if b <= 1.5])  # some are dropped

    def test_aborted_replicate_is_left_out_of_every_time(self, unit_square, stit_rules, monkeypatch):
        W = rectangle(0, 0, 2, 2)
        probes = default_probes(unit_square)
        times = [0.5, 1.0, 1.5]
        real = analysis.new_process

        class AbortsAfterFirstTime:
            def __init__(self, state):
                self.state = state

            def advance(self, t):
                if t > times[0]:
                    raise ReplicateAborted("spy: aborted between the first and the last time")
                return self.state.advance(t)

        def new_process_spy(window, rules, seed, region=None):
            state = real(window, rules, seed, region=region)
            return AbortsAfterFirstTime(state) if seed[2] == 2 else state

        monkeypatch.setattr(analysis, "new_process", new_process_spy)
        table, aborted = _collect_chunk(stit_rules, unit_square, W, times, probes, 7, (1, 0, 5))
        assert aborted == 1
        assert _stats(table) == _reference_columns(stit_rules, unit_square, W, times, probes, 7, 1, [0, 1, 3, 4])

    def test_chunk_of_aborted_replicates(self, unit_square, stit_rules, monkeypatch, in_process_pool):
        W = rectangle(0, 0, 2, 2)
        probes = default_probes(unit_square)
        real = analysis.new_process

        class Aborts:
            def advance(self, t):
                raise ReplicateAborted("spy: always aborts")

        def new_process_spy(window, rules, seed, region=None):
            return Aborts() if seed[1:] == (1, 0) else real(window, rules, seed, region=region)

        monkeypatch.setattr(analysis, "new_process", new_process_spy)
        table, aborted = _collect_chunk(stit_rules, unit_square, W, [0.5, 1.0], probes, 7, (1, 0, 1))
        assert aborted == 1
        assert table.shape == (2, 0, 3 + len(probes))
        # 100 processes give chunks of one replicate; one abort of 100 is within the limit
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(100)), raising=False)
        report = consistency_test(stit_rules, unit_square, W, [0.5, 1.0], 100, probes=probes, seed=7, n_jobs=100)
        assert in_process_pool == [100]
        assert report.aborted == (0, 1)
        assert len(report.results) == 2 * (3 + len(probes))


class TestPrunedArm:
    def test_mean_length_is_intensity_times_time_times_area(self, unit_square, stit_rules):
        # law (iii): STIT of intensity 1 built in W and cropped to V has mean total
        # length t*area(V) in V; arm 1 builds only the cells that can meet V
        W = rectangle(0, 0, 3, 3)
        t, n = 1.5, 3000
        table, aborted = _collect_chunk(stit_rules, unit_square, W, [t], [], 11, (1, 0, n))
        assert aborted == 0
        lengths = table[0, :, 0]
        z = (lengths.mean() - t * unit_square.area) / (lengths.std(ddof=1) / math.sqrt(n))
        assert abs(z) < 4.0


class TestRateEstimate:
    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -0.01])
    def test_dt_must_be_positive_and_finite(self, unit_square, stit_rules, dt):
        with pytest.raises(ValueError, match="dt"):
            rate_estimate(stit_rules, unit_square, rectangle(0.25, 0.25, 0.75, 0.75), dt, 100)

    @pytest.mark.parametrize("n_reps", [0, -1])
    def test_needs_a_replicate(self, unit_square, stit_rules, n_reps):
        with pytest.raises(ValueError, match="n_reps"):
            rate_estimate(stit_rules, unit_square, rectangle(0.25, 0.25, 0.75, 0.75), 0.01, n_reps)

    def test_dt_precondition(self, unit_square, stit_rules):
        B = rectangle(0.25, 0.25, 0.75, 0.75)
        with pytest.raises(ValueError):
            rate_estimate(stit_rules, unit_square, B, 0.5, 1000)

    def test_containment(self, unit_square, stit_rules):
        with pytest.raises(ContainmentViolation):
            rate_estimate(stit_rules, unit_square, rectangle(0.5, 0.5, 2, 2), 0.01, 1000)

    def test_estimate_near_hitting_mass(self, unit_square, stit_rules):
        # target 2/pi for the centered half-side square
        B = rectangle(0.25, 0.25, 0.75, 0.75)
        dt, n = 0.02, 20_000
        est = rate_estimate(stit_rules, unit_square, B, dt, n, seed=5)
        target = 2.0 / math.pi
        p = target * dt
        sigma = math.sqrt(p * (1 - p) / n) / dt
        # generous first-order bias allowance on top of 3 sigma
        assert abs(est - target) < 3 * sigma + 1.0 * dt

    def test_estimate_is_pinned(self, unit_square, stit_rules):
        # recorded before the replicates' chords were tested in one batch
        B = rectangle(0.25, 0.25, 0.75, 0.75)
        assert rate_estimate(stit_rules, unit_square, B, 0.02, 3000, seed=5) == 0.6166666666666667

    def test_counts_replicates_not_chords(self, unit_square, stit_rules, monkeypatch):
        B = rectangle(0.25, 0.25, 0.75, 0.75)
        across, down = Segment((0.0, 0.5), (1.0, 0.5)), Segment((0.5, 0.0), (0.5, 1.0))
        corner = Segment((0.0, 0.1), (0.1, 0.0))
        plans = [[across, down], [], [corner], [down, corner], [across]]
        monkeypatch.setattr(
            analysis,
            "new_process",
            lambda V, rules, seed, region=None: _FixedChords(V, plans[seed[2]], [0.001] * len(plans[seed[2]])),
        )
        assert rate_estimate(stit_rules, unit_square, B, 0.01, len(plans)) == 3 / (len(plans) * 0.01)

    def test_any_aborted_replicate_raises(self, unit_square, stit_rules, monkeypatch):
        real = analysis.new_process

        class Aborts:
            def advance(self, t):
                raise ReplicateAborted("stand-in: aborts")

        def new_process_spy(window, rules, seed, region=None):
            return Aborts() if seed[2] == 3 else real(window, rules, seed, region=region)

        monkeypatch.setattr(analysis, "new_process", new_process_spy)
        with pytest.raises(ReplicateAborted, match="1 of 50 replicates"):
            rate_estimate(stit_rules, unit_square, rectangle(0.25, 0.25, 0.75, 0.75), 0.01, 50)

    @pytest.mark.parametrize("B", ["centre", "V", "corner"])
    @pytest.mark.parametrize("pair", ["stit", "area"])
    def test_equals_its_own_loop(self, unit_square, stit_rules, iso_measure, pair, B):
        rules = {"stit": stit_rules, "area": RulePair(IntrinsicVolume(2), RestrictedMeasure(iso_measure))}[pair]
        B = {"centre": rectangle(0.25, 0.25, 0.75, 0.75), "V": unit_square, "corner": rectangle(0, 0, 0.2, 0.2)}[B]
        for dt in (0.02, 0.005):
            for seed in range(5):
                expected = _reference_rate_estimate(rules, unit_square, B, dt, 600, seed=seed)
                assert rate_estimate(rules, unit_square, B, dt, 600, seed=seed) == expected

    def test_equals_its_own_loop_over_two_chunks(self, unit_square, stit_rules, monkeypatch):
        chunks = []

        def spy(*args):
            chunks.append(args[-1])
            return _collect_chunk(*args)

        monkeypatch.setattr(analysis, "_collect_chunk", spy)
        B = rectangle(0.25, 0.25, 0.75, 0.75)
        n = analysis.RATE_CHUNK + 1000
        assert rate_estimate(stit_rules, unit_square, B, 0.02, n, seed=3) == _reference_rate_estimate(
            stit_rules, unit_square, B, 0.02, n, seed=3
        )
        assert chunks == [(2, 0, analysis.RATE_CHUNK), (2, analysis.RATE_CHUNK, 1000)]

    def test_tiny_probe_rate_vanishes(self, unit_square, stit_rules):
        B = rectangle(0.5, 0.5, 0.5 + 1e-6, 0.5 + 1e-6)
        est = rate_estimate(stit_rules, unit_square, B, 0.01, 2000, seed=8)
        assert est < 0.05


class TestNuLimit:
    def test_requires_shared_measure_pair(self, unit_square, iso_measure):
        pair = RulePair(VertexCount(), RestrictedMeasure(iso_measure))
        with pytest.raises(ValueError):
            nu_limit(pair, unit_square, [1.0, 2.0])

    def test_sizes_must_ascend(self, unit_square, stit_rules):
        with pytest.raises(ValueError):
            nu_limit(stit_rules, unit_square, [2.0, 1.0])

    def test_rectangle_and_square_exhaustions_agree(self, stit_rules, iso_measure):
        from stitsim.measures import hitting_mass, joint_hitting_mass

        probe = rectangle(-0.3, -0.2, 0.4, 0.3)
        est = nu_limit(stit_rules, probe, [1.0, 2.0, 4.0])
        # rectangle exhaustion computed directly: same limit
        rects = [rectangle(-s, -s / 2, s, s / 2) for s in (1.0, 2.0, 4.0)]
        vals = [joint_hitting_mass(iso_measure, probe, r) for r in rects]
        assert est.values[-1] == pytest.approx(vals[-1], rel=1e-10)
        assert est.values[-1] == pytest.approx(hitting_mass(iso_measure, probe), rel=1e-10)


class TestIdentitySuite:
    def test_shared_measure_pair_passes_everything(self, stit_rules):
        results = identity_suite(
            stit_rules,
            ["fundamental", "corollary", "nu_limit", "rate_matches_nu", "division_bound"],
            n_cases=20,
            seed=1,
        )
        assert all(r.passed for r in results), [(r.name, r.max_residual) for r in results]

    def test_vertex_count_selection_fails_rate_identity(self, iso_measure):
        pair = RulePair(VertexCount(), RestrictedMeasure(iso_measure))
        results = identity_suite(pair, ["rate_matches_nu", "fundamental"], n_cases=10, seed=2)
        by_name = {r.name: r for r in results}
        assert not by_name["rate_matches_nu"].passed
        assert by_name["fundamental"].passed  # the division side alone is still exact

    def test_division_bound_passes_for_vertex_count(self):
        pair = RulePair(VertexCount(), PointDriven())
        [result] = identity_suite(pair, ["division_bound"], n_cases=20, seed=4)
        assert result.passed, result.max_residual

    @pytest.mark.parametrize(
        "division, identity, detail",
        [
            (PointDriven(), "fundamental", "needs a measure-driven division rule"),
            (RestrictedMeasure(HyperplaneMeasure(1.0)), "nu_limit", "needs a shared-measure pair"),
        ],
        ids=["point-driven", "unshared-measure"],
    )
    def test_inapplicable_identity_fails_with_reason(self, iso_measure, division, identity, detail):
        pair = RulePair(HittingMeasure(iso_measure), division)  # never a shared-measure pair
        [result] = identity_suite(pair, [identity], n_cases=10, seed=5)
        assert not result.passed
        assert result.max_residual == math.inf
        assert result.detail == detail
