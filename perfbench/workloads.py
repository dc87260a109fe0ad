"""The four benchmark workloads: inputs, main call, and output checks.

A workload's `setup` builds every input (windows, rules, probes, config
files); `call(i)` runs main call i and returns its output; `check(output)`
returns failure messages.  `done(n_calls)` is the work that many checked
calls completed, which `reps_per_s` divides by their wall time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re

import numpy as np

import stitsim as s
from stitsim import cli
from stitsim.analysis import consistency_test, default_probes, rate_estimate
from stitsim.output import load_geometry

import checks

ISO = {"intensity": 1.0, "directions": "isotropic"}
UNIT_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
OUTER_SQUARE = [[0.0, 0.0], [3.0, 0.0], [3.0, 3.0], [0.0, 3.0]]


def sub_seed(seed: int, i: int) -> int:
    """Seed of main call i: a pure function of the benchmark seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0] % (2**31))


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Workload:
    units = 1  # work per main call
    min_calls = 0
    threads = 1  # processes a main call runs on

    def arm_of(self, window):
        """Consistency arm of a replicate built in `window`, for the tracer."""
        return None

    def done(self, n_calls: int) -> float:
        return self.units * n_calls

    def side_checks(self) -> dict[str, list[str]]:
        return {}


class StitSmallT(Workload):
    """Library consistency_test, shared-measure pair, V = [0,1]^2 in W = [0,3]^2."""

    name = "stit_small_t"
    times = [0.75, 1.5]
    units = 300  # replicate pairs per call (library minimum is 100)
    # Holm family-wise false-alarm bound per call; small enough that a full
    # set of benchmark runs (a few hundred calls) almost never rejects a
    # consistent pair by chance.
    alpha = 1e-5
    nominal_call_s = 1.6  # one call on a 2-vCPU Xeon, CPython 3.11; sizes traced runs
    side_reps = 300  # cropped replicates for the E[L] = t * area(V) check
    z_max = 4.5  # two-sided false alarm 7e-6 per run; a 20% bias in E[L] gives z near 4.7

    def setup(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.V = s.rectangle(0.0, 0.0, 1.0, 1.0)
        self.W = s.rectangle(0.0, 0.0, 3.0, 3.0)
        self.rules = s.stit_pair(s.HyperplaneMeasure(1.0))
        self.probes = default_probes(self.V)

    def arm_of(self, window):
        return "direct" if window == self.V else "cropped" if window == self.W else None

    def call(self, i: int, n_jobs: int | None = None):
        report = consistency_test(
            self.rules,
            self.V,
            self.W,
            self.times,
            self.units,
            probes=self.probes,
            seed=sub_seed(self.seed, i),
            alpha=self.alpha,
            n_jobs=n_jobs or 1,
        )
        return report.to_dict()

    def check(self, report: dict) -> list[str]:
        return checks.check_consistency_report(
            report,
            n_times=len(self.times),
            n_probes=len(self.probes),
            n_reps=self.units,
            max_abort_frac=0.01,
            expect_verdict=checks.CONSISTENT,
        )

    def side_lengths(self) -> list[float]:
        """Total chord length in V at the last time, of replicates built in W and cropped."""
        t = self.times[-1]
        lengths = []
        for k in range(self.side_reps):
            state = s.new_process(self.W, self.rules, sub_seed(self.seed, 1_000_000 + k))
            lengths.append(sum(seg.length for seg in s.crop(state.advance(t), self.V).segments))
        return lengths

    def side_checks(self) -> dict[str, list[str]]:
        lengths = self.side_lengths()
        return {"mean_length": checks.check_mean_length(lengths, self.times[-1], self.V.area, self.z_max)}


class PointDrivenT3(StitSmallT):
    """CLI `stitsim consistency`: hitting-mass selection, point-driven division, t = 3."""

    name = "pointdriven_t3"
    times = [3.0]
    units = 200
    alpha = 0.001
    nominal_call_s = 1.7  # on one worker
    threads = 2

    def setup(self, seed: int, scratch: str) -> None:
        super().setup(seed, scratch)
        self.scratch = scratch
        self.config = os.path.join(scratch, "pointdriven.json")
        cfg = {
            "version": 1,
            "seed": seed,
            "window_inner": UNIT_SQUARE,
            "window_outer": OUTER_SQUARE,
            "rules": {
                "shared_measure": ISO,
                "selection": {"kind": "hitting_measure", "measure": "shared"},
                "division": {"kind": "point_driven", "directions": "isotropic"},
            },
            "times": self.times,
            "n_reps": self.units,
            "alpha": self.alpha,
        }
        with open(self.config, "w") as fh:
            json.dump(cfg, fh)

    def call(self, i: int, n_jobs: int | None = None):
        out = os.path.join(self.scratch, f"consistency-{i}")
        threads = self.threads if n_jobs is None else n_jobs
        argv = ["consistency", "--config", self.config, "--seed", str(sub_seed(self.seed, i))]
        code, printed = _run_cli(argv + ["--threads", str(threads), "--out", out])
        return code, printed, out

    def check(self, output) -> list[str]:
        code, printed, out = output
        if code not in (0, 2):
            return [f"exit code {code}"]
        with open(os.path.join(out, "consistency_report.json")) as fh:
            report = json.load(fh)
        with open(os.path.join(out, "consistency_report.txt")) as fh:
            text = fh.read()
        fails = checks.check_consistency_report(
            report,
            n_times=len(self.times),
            n_probes=len(self.probes),
            n_reps=self.units,
            max_abort_frac=0.01,
            exit_code=code,
        )
        if text != printed:
            fails.append("printed report differs from consistency_report.txt")
        return fails

    def side_checks(self) -> dict[str, list[str]]:
        # The verdict is no correctness signal at this replicate count, and
        # point-driven division does not follow the STIT mean-length law.
        return {}


class RateSmallDt(Workload):
    """Library rate_estimate, shared-measure pair, V = [0,1]^2, B = [0.25,0.75]^2, dt = 0.005."""

    name = "rate_small_dt"
    dt = 0.005
    units = 20_000  # replicates per call
    nominal_call_s = 1.0
    target = 2.0 / math.pi  # hitting mass of B: perimeter / pi
    z_max = 5.0

    def setup(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.V = s.rectangle(0.0, 0.0, 1.0, 1.0)
        self.B = s.rectangle(0.25, 0.25, 0.75, 0.75)
        self.rules = s.stit_pair(s.HyperplaneMeasure(1.0))
        self.estimates: dict[int, float] = {}  # call seed -> estimate

    def call(self, i: int, n_jobs: int | None = None):
        seed = sub_seed(self.seed, i)
        return seed, rate_estimate(self.rules, self.V, self.B, self.dt, self.units, seed=seed)

    def check(self, output) -> list[str]:
        seed, estimate = output
        if self.estimates.setdefault(seed, estimate) != estimate:
            return [f"seed {seed}: estimate differs between identical calls"]
        return checks.check_rate_estimate(estimate, self.units, self.dt, self.target, self.z_max)

    def side_checks(self) -> dict[str, list[str]]:
        # the run's distinct calls pooled: a tighter test of the same law
        n = len(self.estimates)
        pooled = sum(self.estimates.values()) / n
        return {
            "pooled_rate": checks.check_rate_estimate(
                pooled, n * self.units, self.dt, self.target, self.z_max
            )
        }


class SimulateLarge(Workload):
    """CLI `stitsim simulate`, shared-measure pair in [0,1]^2 to t = 200 (about 1.3e4 chords).

    Its unit of work is a chord written, not a trajectory: trajectories of
    different seeds differ in size by a few percent.
    """

    name = "simulate_large"
    time = 200.0
    nominal_call_s = 2.3
    # Calls cycle through this many seeds, so a run averages over trajectories
    # of different sizes and every seed after the first cycle is a repeat whose
    # dump must be byte-identical.
    seed_cycle = 3
    min_calls = seed_cycle + 1

    def setup(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self.window = s.rectangle(0.0, 0.0, 1.0, 1.0)
        self.config = os.path.join(scratch, "simulate.json")
        cfg = {
            "version": 1,
            "seed": seed,
            "window": UNIT_SQUARE,
            "rules": {"stit": {"measure": ISO}},
            "time": self.time,
        }
        with open(self.config, "w") as fh:
            json.dump(cfg, fh)
        self.digests: dict[int, str] = {}
        self.chords = 0  # written by calls that passed their checks

    def call(self, i: int, n_jobs: int | None = None):
        seed = sub_seed(self.seed, i % self.seed_cycle)
        out = os.path.join(self.scratch, f"simulate-{i}")
        code, printed = _run_cli(["simulate", "--config", self.config, "--seed", str(seed), "--out", out])
        return code, printed, out, seed

    def check(self, output) -> list[str]:
        code, printed, out, seed = output
        if code != 0:
            return [f"exit code {code}"]
        m = re.search(r"\((\d+) segments\)", printed)
        if m is None:
            return [f"unexpected CLI output {printed!r}"]
        count = int(m.group(1))
        dump = os.path.join(out, "tessellation.txt")
        meta, records = load_geometry(dump)
        fails = checks.check_dump(
            meta, records, printed_count=count, window=self.window, t=self.time, seed=seed
        )
        with open(dump, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if self.digests.setdefault(seed, digest) != digest:
            fails.append(f"seed {seed}: dump sha256 differs between identical runs")
        with open(os.path.join(out, "tessellation.svg")) as fh:
            svg = fh.read()
        if not (svg.startswith("<svg") and svg.endswith("</svg>\n")) or svg.count("<line") != count:
            fails.append("SVG is not one <line> per chord inside an <svg> element")
        if not fails:
            self.chords += count
        return fails

    def done(self, n_calls: int) -> float:
        return self.chords


WORKLOADS = {w.name: w for w in (StitSmallT, PointDrivenT3, RateSmallDt, SimulateLarge)}
