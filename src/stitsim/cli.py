"""Config-driven command line: simulate, consistency, verify, rate.

Exit codes: 0 success (or consistency not rejected / identities pass),
1 bad command line, configuration or runtime error, 2 inconsistency
detected or an identity check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from dataclasses import asdict

from . import config as cfgmod
from .analysis import (
    CONSISTENT,
    consistency_test,
    identity_suite,
    rate_estimate,
    usable_cpus,
)
from .engine import new_process
from .errors import ConfigError, StitsimError
from .measures import hitting_mass
from .output import dump_geometry, render_svg


def _out_path(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _write_report(out_dir: str, name: str, report) -> None:
    with open(_out_path(out_dir, name), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_simulate(cfg: dict, args: argparse.Namespace) -> int:
    state = new_process(cfg["window"], cfg["rules"], cfg["seed"])
    state.advance(cfg["time"])
    prefix = cfg["out_prefix"]
    dump = _out_path(args.out, f"{prefix}.txt")
    svg = _out_path(args.out, f"{prefix}.svg")
    dump_geometry(state, dump)
    render_svg(state, svg)
    print(f"wrote {dump} ({len(state.segments)} segments) and {svg}")
    return 0


def cmd_consistency(cfg: dict, args: argparse.Namespace) -> int:
    report = consistency_test(
        cfg["rules"],
        cfg["V"],
        cfg["W"],
        cfg["times"],
        cfg["n_reps"],
        probes=cfg["probes"],
        seed=cfg["seed"],
        alpha=cfg["alpha"],
        n_jobs=args.threads,
    )
    _write_report(args.out, "consistency_report.json", report.to_dict())
    text = report.to_text()
    with open(_out_path(args.out, "consistency_report.txt"), "w") as fh:
        fh.write(text + "\n")
    print(text)
    return 0 if report.verdict == CONSISTENT else 2


def cmd_verify(cfg: dict, args: argparse.Namespace) -> int:
    results = identity_suite(cfg["rules"], cfg["identities"], cfg["n_cases"], cfg["seed"])
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        extra = f"  ({r.detail})" if r.detail else ""
        print(f"{status}  {r.name:<16} residual {r.max_residual:.3e} (threshold {r.threshold:g}){extra}")
    _write_report(args.out, "verify_report.json", [asdict(r) for r in results])
    return 0 if all(r.passed for r in results) else 2


def cmd_rate(cfg: dict, args: argparse.Namespace) -> int:
    rules = cfg["rules"]
    target = None
    if (measure := rules.stit_measure) is not None:
        target = hitting_mass(measure, cfg["probe"])
        print(f"analytic hitting mass of probe: {target:.12g}")
    rows = []
    for dt in cfg["dts"]:
        est = rate_estimate(rules, cfg["window"], cfg["probe"], dt, cfg["n_reps"], seed=cfg["seed"])
        rows.append({"dt": dt, "estimate": est, "n_reps": cfg["n_reps"]})
        print(f"dt={dt:<10g} rate estimate {est:.6g}")
    _write_report(args.out, "rate_report.json", {"target": target, "rows": rows})
    return 0


_COMMANDS = {
    "simulate": (cfgmod.parse_simulate, cmd_simulate),
    "consistency": (cfgmod.parse_consistency, cmd_consistency),
    "verify": (cfgmod.parse_verify, cmd_verify),
    "rate": (cfgmod.parse_rate, cmd_rate),
}


def _process_count(text: str) -> int:
    """The value of --threads: an integer of at least 1."""
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stitsim",
        description="Cell-division tessellation simulator and consistency test harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
        if name == "consistency":
            p.add_argument(
                "--threads",
                type=_process_count,
                default=usable_cpus(),
                help="processes, this one included (default: the CPUs this process may run on)",
            )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed the help (code 0) or a usage error (its code 2 means "inconsistent" here)
        return 1 if exc.code else 0
    parse, run = _COMMANDS[args.command]
    try:
        raw = cfgmod.load_config(args.config)
        if args.seed is not None:
            raw["seed"] = args.seed
        cfg = parse(raw)
        # A trajectory makes no reference cycles, so the cyclic collector
        # would only rescan it; the cycles of argparse and the config are
        # collected once the command returns.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return run(cfg, args)
        finally:
            if was_enabled:
                gc.enable()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (StitsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
