"""Self-test of the benchmark's correctness checks: none of them is vacuous.

    python3 perfbench/selftest.py

Builds small real outputs with the library and CLI, requires every check to
pass on them, then corrupts each output in the way its check is meant to
catch and requires the check to fail.  Exits 1 if any real output fails or
any corruption passes.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import copy
import json
import os
import shutil
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import stitsim as s  # noqa: E402
from stitsim.output import load_geometry  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

results: list[tuple[bool, str]] = []


def expect(name: str, fails: list[str], should_fail: bool) -> None:
    ok = bool(fails) == should_fail
    results.append((ok, name))
    verdict = "rejected" if fails else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}" + (f" ({fails[0]})" if fails else ""))


def mutate(obj, fn):
    out = copy.deepcopy(obj)
    fn(out)
    return out


def consistency_report_checks(report: dict) -> None:
    kw = dict(n_times=2, n_probes=9, n_reps=100, max_abort_frac=0.01)
    expect("consistency report, real", checks.check_consistency_report(report, **kw, expect_verdict=checks.CONSISTENT), False)

    def unadjusted(r):
        for row in r["results"]:
            row["p_holm"] = row["p_raw"]

    def flip(r):
        r["verdict"] = checks.INCONSISTENT

    corruptions = {
        "a result row missing": lambda r: r["results"].pop(),
        "n_reps wrong": lambda r: r.update(n_reps=99),
        "p-value above 1": lambda r: r["results"][0].update(p_raw=1.5),
        "p_holm below p_raw": lambda r: r["results"][0].update(p_holm=r["results"][0]["p_raw"] / 2),
        "p_holm left unadjusted": unadjusted,
        "too many aborted replicates": lambda r: r.update(aborted_cropped=2),
        "unknown verdict": lambda r: r.update(verdict="maybe"),
        "verdict disagrees with p_holm": flip,
    }
    for name, fn in corruptions.items():
        expect(f"consistency report, {name}", checks.check_consistency_report(mutate(report, fn), **kw), True)
    expect(
        "consistency report, verdict not the expected one",
        checks.check_consistency_report(report, **kw, expect_verdict=checks.INCONSISTENT),
        True,
    )
    expect("consistency report, exit code mismatch", checks.check_consistency_report(report, **kw, exit_code=2), True)


def main() -> int:
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_build")
    try:
        run(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    bad = [name for ok, name in results if not ok]
    print(f"{len(results) - len(bad)}/{len(results)} self-test cases behave as expected")
    return 1 if bad else 0


def run(scratch: str) -> None:
    # stit_small_t: library report, then the workload-level verdict check
    stit = workloads.StitSmallT()
    stit.units = 100
    stit.setup(7, scratch)
    report = stit.call(0)
    consistency_report_checks(report)
    expect("stit_small_t check, real", stit.check(report), False)
    expect("stit_small_t check, inconsistent verdict", stit.check(mutate(report, lambda r: r.update(verdict=checks.INCONSISTENT))), True)

    # E[L(V, t)] = t * area(V): the run's side sample, then an engine 30% too long
    lengths = stit.side_lengths()
    z = stit.z_max
    expect("mean length, real side sample", checks.check_mean_length(lengths, 1.5, 1.0, z), False)
    expect("mean length, lengths 30% too long", checks.check_mean_length([1.3 * x for x in lengths], 1.5, 1.0, z), True)
    expect("mean length, sample too small", checks.check_mean_length(lengths[:1], 1.5, 1.0, z), True)

    # pointdriven_t3: CLI report files and exit code
    pd = workloads.PointDrivenT3()
    pd.units = 100
    pd.setup(7, scratch)
    code, printed, out = pd.call(0, 1)
    expect("pointdriven_t3 check, real", pd.check((code, printed, out)), False)
    expect("pointdriven_t3 check, exit code 1", pd.check((1, printed, out)), True)
    expect("pointdriven_t3 check, printed text differs", pd.check((code, printed + "x", out)), True)
    path = os.path.join(out, "consistency_report.json")
    with open(path) as fh:
        good = json.load(fh)
    with open(path, "w") as fh:
        json.dump(mutate(good, lambda r: r["results"][0].update(p_raw=-0.1)), fh)
    expect("pointdriven_t3 check, corrupted report file", pd.check((code, printed, out)), True)

    # rate_small_dt: estimate against 2/pi, and determinism per seed
    rate = workloads.RateSmallDt()
    rate.setup(7, scratch)
    seed, est = rate.call(0)
    expect("rate check, real", rate.check((seed, est)), False)
    expect("rate pooled, real", rate.side_checks()["pooled_rate"], False)
    expect("rate check, same seed gives another estimate", rate.check((seed, est * (1 + 1e-12))), True)
    expect("rate check, estimate doubled", rate.check((seed + 1, 2 * est)), True)
    rate.estimates = {0: 0.5 * est, 1: 0.5 * est, 2: 0.5 * est}
    expect("rate pooled, estimates halved", rate.side_checks()["pooled_rate"], True)

    # simulate_large: dump, SVG and byte determinism
    sim = workloads.SimulateLarge()
    sim.time = 20.0
    sim.setup(7, scratch)
    output = sim.call(0)
    expect("simulate check, real", sim.check(output), False)
    code, printed, out, seed = output
    expect("simulate check, exit code 1", sim.check((1, printed, out, seed)), True)
    expect("simulate check, printed count wrong", sim.check((code, printed.replace(" segments", "0 segments"), out, seed)), True)
    meta, records = load_geometry(os.path.join(out, "tessellation.txt"))
    kw = dict(printed_count=len(records), window=sim.window, t=sim.time, seed=seed)
    expect("dump, real", checks.check_dump(meta, records, **kw), False)
    seg0, b0 = records[0]
    outside = [(s.Segment((seg0.p[0], -0.01), seg0.q), b0)] + records[1:]
    expect("dump, endpoint outside the window", checks.check_dump(meta, outside, **kw), True)
    swapped = [records[1], records[0]] + records[2:]
    if records[0][1] != records[1][1]:
        expect("dump, birth times out of order", checks.check_dump(meta, swapped, **kw), True)
    late = records[:-1] + [(records[-1][0], sim.time * 1.01)]
    expect("dump, birth after t", checks.check_dump(meta, late, **kw), True)
    expect("dump, chord missing", checks.check_dump(meta, records[:-1], **kw), True)
    expect("dump, header time wrong", checks.check_dump(dict(meta, time=sim.time + 1), records, **kw), True)
    svg = os.path.join(out, "tessellation.svg")
    with open(svg) as fh:
        text = fh.read()
    with open(svg, "w") as fh:
        fh.write(text.replace("<line", "<path", 1))
    expect("simulate check, SVG chord missing", sim.check(output), True)
    with open(svg, "w") as fh:
        fh.write(text)
    dump = os.path.join(out, "tessellation.txt")
    with open(dump) as fh:
        lines = fh.readlines()
    lines[1] = lines[1].replace(lines[1].split()[4], repr(float(lines[1].split()[4]) * (1 - 1e-15)), 1)
    with open(dump, "w") as fh:
        fh.writelines(lines)
    expect("simulate check, dump bytes differ for a repeated seed", sim.check(output), True)


if __name__ == "__main__":
    sys.exit(main())
