import copy
import gc
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stitsim import analysis, cli
from stitsim.cli import build_parser, main
from stitsim.config import (
    ConfigError,
    directions_to_spec,
    parse_consistency,
    parse_directions,
    parse_rate,
    parse_rules,
    parse_simulate,
    parse_verify,
    rules_to_dict,
)
from stitsim.errors import StitsimError
from stitsim.measures import HyperplaneMeasure, axis_aligned
from stitsim.output import load_geometry
from stitsim.rules import HittingMeasure, IntrinsicVolume, PointDriven, RestrictedMeasure, RulePair, VertexCount


SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
BIG = [[0.0, 0.0], [3.0, 0.0], [3.0, 3.0], [0.0, 3.0]]
ISO = {"intensity": 1.0, "directions": "isotropic"}
STIT_RULES = {"stit": {"measure": ISO}}
TRIANGLE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
# star order: every turn is a left turn, but the boundary winds twice
PENTAGRAM = [[math.cos(4 * math.pi * k / 5), math.sin(4 * math.pi * k / 5)] for k in range(5)]
SIMULATE = {"version": 1, "seed": 1, "window": SQUARE, "rules": STIT_RULES, "time": 1.0}
CONSISTENCY = {
    "version": 1,
    "seed": 1,
    "window_inner": SQUARE,
    "window_outer": BIG,
    "rules": STIT_RULES,
    "times": [0.5],
    "n_reps": 100,
}
VERIFY = {"version": 1, "seed": 1, "rules": STIT_RULES, "identities": ["corollary"]}
RATE = {
    "version": 1,
    "seed": 1,
    "window": SQUARE,
    "probe": [[0.25, 0.25], [0.75, 0.25], [0.75, 0.75], [0.25, 0.75]],
    "rules": STIT_RULES,
    "dts": [0.02],
    "n_reps": 10,
}


def src_env():
    """The environment of a subprocess that imports the stitsim under test."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestRulesParsing:
    def test_stit_shortcut_shares_one_measure(self):
        rules = parse_rules(STIT_RULES)
        assert rules.stit_measure is rules.selection.measure is rules.division.measure

    def test_shared_measure_gives_pointer_identity(self):
        rules = parse_rules(
            {
                "selection": {"kind": "hitting_measure", "measure": "shared"},
                "division": {"kind": "restricted_measure", "measure": "shared"},
                "shared_measure": ISO,
            }
        )
        assert rules.stit_measure is rules.selection.measure
        assert rules.selection.measure is rules.division.measure

    def test_separate_measures_have_no_stit_measure(self):
        rules = parse_rules(
            {
                "selection": {"kind": "hitting_measure", "measure": ISO},
                "division": {"kind": "restricted_measure", "measure": ISO},
            }
        )
        assert rules.selection.measure == rules.division.measure
        assert rules.stit_measure is None

    def test_unknown_rule_kind_rejected(self):
        with pytest.raises(ConfigError):
            parse_rules({"selection": {"kind": "aera"}, "division": {"kind": "restricted_measure", "measure": ISO}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_rules({"stit": {"measure": ISO}, "extra": 1})

    @pytest.mark.parametrize(
        "selection, division, key",
        [
            ({"kind": "vertex_count"}, {"kind": "point_driven", "measure": ISO}, "measure"),
            ({"kind": "vertex_count", "index": 1}, {"kind": "restricted_measure", "measure": ISO}, "index"),
            ({"kind": "intrinsic_volume", "index": 1, "measure": ISO}, {"kind": "point_driven"}, "measure"),
            ({"kind": "vertex_count"}, {"kind": "restricted_measure", "measure": ISO, "directions": "isotropic"}, "directions"),
        ],
        ids=["point-driven-measure", "vertex-count-index", "intrinsic-volume-measure", "restricted-measure-directions"],
    )
    def test_key_of_another_kind_rejected(self, selection, division, key):
        rules = copy.deepcopy({"selection": selection, "division": division})
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_rules(rules)
        for block in rules.values():
            block.pop(key, None)
        parse_rules(rules)

    @pytest.mark.parametrize(
        "selection, division, message",
        [
            ({"kind": "intrinsic_volume"}, {"kind": "point_driven"}, "selection: missing required key 'index'"),
            ({"kind": "hitting_measure"}, {"kind": "point_driven"}, "selection: missing required key 'measure'"),
            ({"kind": "vertex_count"}, {"kind": "restricted_measure"}, "division: missing required key 'measure'"),
        ],
        ids=["intrinsic-volume-index", "hitting-measure-measure", "restricted-measure-measure"],
    )
    def test_key_of_the_kind_required(self, selection, division, message):
        with pytest.raises(ConfigError, match=f"^rules.{message}$"):
            parse_rules({"selection": selection, "division": division})

    def test_atom_directions(self):
        rules = parse_rules(
            {
                "selection": {"kind": "vertex_count"},
                "division": {"kind": "point_driven", "directions": [[0.0, 0.5], [math.pi / 2, 0.5]]},
            }
        )
        assert isinstance(rules.division, PointDriven)

    def test_roundtrip_through_dict(self):
        rules = parse_rules(STIT_RULES)
        again = parse_rules(rules_to_dict(rules))
        assert again.stit_measure is again.division.measure
        assert again.stit_measure == rules.stit_measure
        assert isinstance(again.selection, HittingMeasure)
        assert isinstance(again.division, RestrictedMeasure)

    @pytest.mark.parametrize(
        "rules",
        [
            RulePair(IntrinsicVolume(1), RestrictedMeasure(HyperplaneMeasure(1.0))),
            RulePair(VertexCount(), PointDriven(axis_aligned())),
            RulePair(HittingMeasure(HyperplaneMeasure(2.0)), PointDriven()),
            RulePair(HittingMeasure(HyperplaneMeasure(1.0)), RestrictedMeasure(HyperplaneMeasure(1.5, axis_aligned()))),
        ],
        ids=["intrinsic-volume", "vertex-count-axis-point-driven", "hitting-point-driven", "hitting-axis-measure"],
    )
    def test_roundtrip_through_json(self, rules):
        again = parse_rules(json.loads(json.dumps(rules_to_dict(rules))))
        assert again == rules
        assert again.stit_measure is None and rules.stit_measure is None

    @pytest.mark.parametrize("spec", ["isotropic", [[0.0, 0.25], [0.1, 0.75]]], ids=["isotropic", "atoms"])
    def test_directions_writer_inverts_the_parser(self, spec):
        assert directions_to_spec(parse_directions(spec, "directions")) == spec


class TestConfigValidation:
    def test_simulate_happy_path(self):
        cfg = parse_simulate(
            {"version": 1, "seed": 1, "window": SQUARE, "rules": STIT_RULES, "time": 2.0}
        )
        assert cfg["time"] == 2.0

    def test_version_required(self):
        with pytest.raises(ConfigError):
            parse_simulate({"seed": 1, "window": SQUARE, "rules": STIT_RULES, "time": 2.0})

    def test_seed_mandatory(self):
        with pytest.raises(ConfigError):
            parse_simulate({"version": 1, "window": SQUARE, "rules": STIT_RULES, "time": 2.0})

    @pytest.mark.parametrize("seed", [True, -1])
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ConfigError):
            parse_simulate({"version": 1, "seed": seed, "window": SQUARE, "rules": STIT_RULES, "time": 2.0})

    def test_self_intersecting_window_rejected(self):
        bowtie = [[0, 0], [1, 1], [1, 0], [0, 1]]
        with pytest.raises(ConfigError):
            parse_simulate({"version": 1, "seed": 1, "window": bowtie, "rules": STIT_RULES, "time": 1.0})

    def test_consistency_requires_nesting(self):
        with pytest.raises(ConfigError):
            parse_consistency(
                {
                    "version": 1,
                    "seed": 1,
                    "window_inner": BIG,
                    "window_outer": SQUARE,
                    "rules": STIT_RULES,
                    "times": [1.0],
                    "n_reps": 100,
                }
            )

    # Only the parsers run here: a run this budget rejects would take hours.
    @pytest.mark.parametrize(
        "selection, time, accepted",
        [
            ({"kind": "vertex_count"}, 6.0, False),
            ({"kind": "vertex_count"}, 1.5, True),
            ({"kind": "vertex_count"}, 1e6, False),  # e^{3t} would overflow a float
            ({"kind": "intrinsic_volume", "index": 0}, 17.0, False),
            ({"kind": "intrinsic_volume", "index": 0}, 1.5, True),
            ({"kind": "intrinsic_volume", "index": 2}, 17.0, True),  # 17 chords expected in [0,1]², 153 in [0,3]²
        ],
        ids=["vertex-count-t6", "vertex-count-t1.5", "vertex-count-t1e6", "iv0-t17", "iv0-t1.5", "area-t17"],
    )
    @pytest.mark.parametrize("command", ["simulate", "consistency"])
    def test_event_budget_checked_at_parse_time(self, selection, time, accepted, command):
        rules = {"selection": selection, "division": {"kind": "restricted_measure", "measure": ISO}}
        if command == "simulate":
            parse, cfg = parse_simulate, dict(SIMULATE, rules=rules, time=time)
        else:
            parse, cfg = parse_consistency, dict(CONSISTENCY, rules=rules, times=[0.5, time])
        if accepted:
            parse(cfg)
        else:
            with pytest.raises(ConfigError, match="event cap"):
                parse(cfg)

    # Means that grow with the window and with the intensity; parsers only again.
    @pytest.mark.parametrize(
        "rules, window, time, accepted",
        [
            ({"stit": {"measure": dict(ISO, intensity=1e4)}}, SQUARE, 1.0, False),  # 3.2e7 chords
            (STIT_RULES, SQUARE, 6000.0, False),  # 1.15e7 chords
            (STIT_RULES, SQUARE, 5000.0, False),  # 7.96e6 chords
            (STIT_RULES, SQUARE, 2500.0, True),  # 1.99e6 chords, just under the cap of 2e6
            (
                {"selection": {"kind": "intrinsic_volume", "index": 2}, "division": {"kind": "restricted_measure", "measure": ISO}},
                [[0.0, 0.0], [100.0, 0.0], [100.0, 100.0], [0.0, 100.0]],
                2000.0,
                False,
            ),  # 2e7 chords
            ({"stit": {"measure": dict(ISO, intensity=1e308)}}, SQUARE, 1.0, False),  # the mean overflows to inf
        ],
        ids=[
            "stit-intensity-1e4",
            "stit-t6000",
            "stit-t5000",
            "stit-t2500",
            "area-100-square-t2000",
            "stit-intensity-1e308",
        ],
    )
    @pytest.mark.parametrize("command", ["simulate", "consistency"])
    def test_window_dependent_budget_checked_at_parse_time(self, rules, window, time, accepted, command):
        if command == "simulate":
            parse, cfg = parse_simulate, dict(SIMULATE, rules=rules, window=window, time=time)
        else:
            parse, cfg = parse_consistency, dict(CONSISTENCY, rules=rules, window_outer=window, times=[0.5, time])
        if accepted:
            parse(cfg)
        else:
            with pytest.raises(ConfigError, match="event cap"):
                parse(cfg)

    @pytest.mark.parametrize(
        "prefix", ["sub/x", "a\0b", "", 3], ids=["path", "nul", "empty", "not-a-string"]
    )
    def test_out_prefix_must_be_a_file_name(self, prefix):
        with pytest.raises(ConfigError, match="out_prefix"):
            parse_simulate(dict(SIMULATE, out_prefix=prefix))

    def test_verify_unknown_identity_rejected(self):
        with pytest.raises(ConfigError):
            parse_verify({"version": 1, "seed": 1, "rules": STIT_RULES, "identities": ["nope"]})


class TestCliSimulate:
    def test_deterministic_dump_bytes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"version": 1, "seed": 42, "window": SQUARE, "rules": STIT_RULES, "time": 3.0},
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "tessellation.txt").read_bytes() == (out2 / "tessellation.txt").read_bytes()
        assert (out1 / "tessellation.svg").read_bytes() == (out2 / "tessellation.svg").read_bytes()

    # sha256 of the dump and the SVG of STIT in [0,1]^2 to t = 20, seed 1 (137 chords)
    PINNED_OUTPUTS = {
        "tessellation.txt": "57c72e7f27a6cc9acfde4ccdc8d67d252938be371f784cba148fda2f6e2dff11",
        "tessellation.svg": "25db609c084ed3167ba71e4a89b6c346f55af9f2a8938911e093c73f941daf5e",
    }

    def test_isotropic_outputs_are_pinned(self, tmp_path):
        cfg = write_config(tmp_path, {**SIMULATE, "time": 20.0})
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in self.PINNED_OUTPUTS}
        assert digests == self.PINNED_OUTPUTS

    def test_different_seeds_differ(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"version": 1, "seed": 1, "window": SQUARE, "rules": STIT_RULES, "time": 3.0},
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg, "--out", str(out1)])
        main(["simulate", "--config", cfg, "--seed", "2", "--out", str(out2)])
        assert (out1 / "tessellation.txt").read_bytes() != (out2 / "tessellation.txt").read_bytes()

    def test_tiny_time_gives_empty_dump(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"version": 1, "seed": 7, "window": SQUARE, "rules": STIT_RULES, "time": 1e-9},
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        meta, records = load_geometry(str(out / "tessellation.txt"))
        assert records == []
        assert meta["n_segments"] == 0
        assert (out / "tessellation.svg").exists()

    def test_dump_roundtrip(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"version": 1, "seed": 42, "window": SQUARE, "rules": STIT_RULES, "time": 3.0},
        )
        out = tmp_path / "o"
        main(["simulate", "--config", cfg, "--out", str(out)])
        meta, records = load_geometry(str(out / "tessellation.txt"))
        assert meta["seed"] == 42
        assert meta["n_segments"] == len(records) > 0
        # every float round-trips exactly through the 17-digit text format
        from stitsim import new_process
        from stitsim.config import parse_rules as pr
        from stitsim.geometry import Polygon

        state = new_process(Polygon(SQUARE), pr(STIT_RULES), 42).advance(3.0)
        assert list(zip(state.segments, state.births)) == records

    @pytest.mark.parametrize("seed, override", [(1, ["--seed", "-1"]), (True, [])])
    def test_bad_seed_exits_1(self, tmp_path, capsys, seed, override):
        cfg = write_config(
            tmp_path,
            {"version": 1, "seed": seed, "window": SQUARE, "rules": STIT_RULES, "time": 1.0},
        )
        assert main(["simulate", "--config", cfg, *override, "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_malformed_window_exits_1(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"version": 1, "seed": 1, "window": [[0, 0], [1, 1], [1, 0], [0, 1]], "rules": STIT_RULES, "time": 1.0},
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1


class TestLoadGeometry:
    @pytest.mark.parametrize(
        "text, where",
        [
            ('# {"n_segments": 1}\n1 2 3 x 5\n', ":2:"),
            ('# {"n_segments": 1\n0 0 1 1 0.5\n', ":1:"),
            ("# [1]\n0 0 1 1 0.5\n", ":1:"),
            ('# {"n_segments": 2}\n0 0 1 1 0.5\n0 nan 1 inf 0.5\n', ":3:"),
            ("0 0 1 1 0.5\n", ": missing metadata header"),
            ('# {"n_segments": 1}\n0 0 1 1\n', ":2: expected 5 fields, got 4"),
            ('# {"n_segments": 2}\n0 0 1 1 0.5\n', ": header says 2 segments, found 1"),
        ],
        ids=[
            "non-numeric-field",
            "broken-json-header",
            "header-not-an-object",
            "non-finite-field",
            "no-header",
            "four-fields",
            "count-differs-from-header",
        ],
    )
    def test_malformed_dump_raises_config_error(self, tmp_path, text, where):
        path = tmp_path / "dump.txt"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"{path}{where}")):
            load_geometry(str(path))

    @pytest.mark.parametrize(
        "content, where",
        [(b"# \xff\n", ": not UTF-8 text: "), (b"# " + b"[" * 100_000 + b"\n", ":1: bad metadata header: ")],
        ids=["not-utf-8", "nested-too-deeply"],
    )
    def test_undecodable_dump_raises_config_error(self, tmp_path, content, where):
        path = tmp_path / "dump.txt"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match=re.escape(f"{path}{where}")):
            load_geometry(str(path))


class TestCliVerify:
    def test_shared_measure_identities_pass(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "version": 1,
                "seed": 3,
                "rules": STIT_RULES,
                "identities": ["fundamental", "corollary", "nu_limit", "rate_matches_nu"],
                "n_cases": 10,
            },
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert all(r["passed"] for r in report)

    def test_vertex_count_fails_rate_identity_exit_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "version": 1,
                "seed": 3,
                "rules": {
                    "selection": {"kind": "vertex_count"},
                    "division": {"kind": "restricted_measure", "measure": ISO},
                },
                "identities": ["rate_matches_nu"],
                "n_cases": 5,
            },
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2

    # sha256 of verify_report.json for every identity of the vertex-count pair,
    # 7 cases, seed 3: passes, a failure and an inapplicable identity (residual
    # Infinity); recorded while each identity still ran its own loop over its cases
    PINNED_REPORT = "2f179e69a48f3b05adfe9ddb1d5ee71bbf439714bfc57e42ab5edd58e4c665a0"

    def test_report_is_pinned(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "version": 1,
                "seed": 3,
                "rules": {
                    "selection": {"kind": "vertex_count"},
                    "division": {"kind": "restricted_measure", "measure": ISO},
                },
                "identities": list(analysis.IDENTITIES),
                "n_cases": 7,
            },
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert hashlib.sha256((tmp_path / "verify_report.json").read_bytes()).hexdigest() == self.PINNED_REPORT

    def test_empty_identities_exit_1(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"version": 1, "seed": 3, "rules": STIT_RULES, "identities": []},
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1


class TestCliConsistency:
    def test_null_run_exit_0(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "version": 1,
                "seed": 5,
                "window_inner": SQUARE,
                "window_outer": SQUARE,
                "rules": STIT_RULES,
                "times": [1.0],
                "n_reps": 100,
                "alpha": 0.01,
            },
        )
        assert main(["consistency", "--config", cfg, "--threads", "1", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "consistency_report.json").read_text())
        assert report["verdict"] == "consistent-not-rejected"

    def test_area_rule_exit_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "version": 1,
                "seed": 5,
                "window_inner": SQUARE,
                "window_outer": BIG,
                "rules": {
                    "selection": {"kind": "intrinsic_volume", "index": 2},
                    "division": {"kind": "restricted_measure", "measure": ISO},
                },
                "times": [0.75, 1.5],
                "n_reps": 500,
                "alpha": 0.001,
            },
        )
        assert main(["consistency", "--config", cfg, "--threads", "1", "--out", str(tmp_path)]) == 2

    def test_triangular_inner_window_with_default_probes(self, tmp_path):
        cfg = write_config(tmp_path, {**CONSISTENCY, "window_inner": TRIANGLE})
        assert main(["consistency", "--config", cfg, "--threads", "1", "--out", str(tmp_path)]) in (0, 2)
        report = json.loads((tmp_path / "consistency_report.json").read_text())
        assert report["n_reps"] == 100

    def test_pooled_run_leaves_no_process(self, tmp_path):
        # The children a pooled run forks must not outlive it.
        cfg = write_config(tmp_path, CONSISTENCY)  # 100 replicates, t = 0.5
        argv = [sys.executable, "-m", "stitsim", "consistency", "--config", cfg, "--threads", "2"]
        with subprocess.Popen(
            argv + ["--out", str(tmp_path)], env=src_env(), start_new_session=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        ) as proc:
            _, err = proc.communicate(timeout=120)
        assert proc.returncode in (0, 2), err
        assert json.loads((tmp_path / "consistency_report.json").read_text())["n_reps"] == 100
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # the session's process group is empty


def test_python_m_stitsim_runs_the_cli():
    done = subprocess.run(
        [sys.executable, "-m", "stitsim", "--help"], env=src_env(), capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: stitsim ")


class TestCliBadInput:
    @pytest.mark.parametrize(
        "command, base, key, value, message",
        [
            ("simulate", SIMULATE, "time", "abc", "config.time: expected a number, got 'abc'"),
            ("simulate", SIMULATE, "version", 2, "config: 'version' must be 1"),
            ("simulate", SIMULATE, "window", PENTAGRAM, "config.window: invalid window: boundary winds more than once"),
            (
                "simulate",
                SIMULATE,
                "rules",
                {"stit": {"measure": {"intensity": None, "directions": "isotropic"}}},
                "rules.stit.measure.intensity: expected a number, got None",
            ),
            (
                "simulate",
                SIMULATE,
                "out_prefix",
                "sub/x",
                "config.out_prefix: expected a non-empty file name (no path separator or NUL byte), got 'sub/x'",
            ),
            (
                "simulate",
                SIMULATE,
                "out_prefix",
                "a\0b",
                "config.out_prefix: expected a non-empty file name (no path separator or NUL byte), got 'a\\x00b'",
            ),
            (
                "simulate",
                SIMULATE,
                "out_prefix",
                "",
                "config.out_prefix: expected a non-empty file name (no path separator or NUL byte), got ''",
            ),
            ("simulate", SIMULATE, "time", True, "config.time: expected a number, got True"),
            (
                "simulate",
                SIMULATE,
                "window",
                [["0", "0"], [1, 0], [True, True], [0, 1]],
                "config.window[0]: expected a number, got '0'",
            ),
            (
                "simulate",
                SIMULATE,
                "window",
                [[0, 0], [1, 0], [True, True], [0, 1]],
                "config.window[2]: expected a number, got True",
            ),
            (
                "simulate",
                SIMULATE,
                "window",
                [[0, 0], [1, 0], [1, 1, 1], [0, 1]],
                "config.window[2]: expected an [x, y] vertex, got [1, 1, 1]",
            ),
            (
                "simulate",
                SIMULATE,
                "window",
                [[0, 0], [1e155, 0], [1e155, 1e155], [0, 1e155]],
                "config.window: invalid window: non-finite signed area",
            ),
            (
                "simulate",
                SIMULATE,
                "rules",
                {"stit": {"measure": {"intensity": 1.0, "directions": [[0.0, float("nan")], [1.5, 0.5]]}}},
                "rules.stit.measure.directions: bad direction atoms: atom weights must be positive and finite",
            ),
            (
                "simulate",
                SIMULATE,
                "rules",
                {"stit": {"measure": {"intensity": 1.0, "directions": [[0.0, 0.5], [math.pi, 0.5]]}}},
                "rules.stit.measure.directions: bad direction atoms: atom angles must lie in [0, pi)",
            ),
            (
                "simulate",
                SIMULATE,
                "rules",
                {"selection": {"kind": "hitting_measure", "measure": "shared"}, "division": {"kind": "point_driven"}},
                "rules.selection: 'shared' used without shared_measure",
            ),
            ("simulate", SIMULATE, "time", 0, "config.time: must be positive and finite"),
            ("simulate", SIMULATE, "time", -1, "config.time: must be positive and finite"),
            ("consistency", CONSISTENCY, "times", [0.5, "abc"], "config.times[1]: expected a number, got 'abc'"),
            ("consistency", CONSISTENCY, "times", [1.0, 0.5], "config.times: times must be ascending"),
            ("consistency", CONSISTENCY, "times", [], "config.times: expected a non-empty list of times"),
            ("consistency", CONSISTENCY, "times", 0.5, "config.times: expected a non-empty list of times"),
            ("consistency", CONSISTENCY, "times", [0.0], "config.times: times must be positive and finite"),
            ("consistency", CONSISTENCY, "n_reps", "abc", "config.n_reps: expected a number, got 'abc'"),
            ("consistency", CONSISTENCY, "n_reps", 99, "config.n_reps: must be >= 100, got 99"),
            ("consistency", CONSISTENCY, "n_reps", 150.5, "config.n_reps: expected an integer, got 150.5"),
            ("consistency", CONSISTENCY, "n_reps", "150", "config.n_reps: expected a number, got '150'"),
            ("consistency", CONSISTENCY, "alpha", "abc", "config.alpha: expected a number, got 'abc'"),
            ("consistency", CONSISTENCY, "alpha", -1, "config.alpha: must lie in (0, 1), got -1.0"),
            ("consistency", CONSISTENCY, "alpha", 5, "config.alpha: must lie in (0, 1), got 5.0"),
            ("consistency", CONSISTENCY, "probes", 5, 'config.probes: expected "default" or a list of polygons'),
            (
                "consistency",
                CONSISTENCY,
                "window_inner",
                [[0, 0], ["1", 0], [1, 1], [0, 1]],
                "config.window_inner[1]: expected a number, got '1'",
            ),
            (
                "consistency",
                CONSISTENCY,
                "window_outer",
                [[0, 0], [3, 0], [3, 3], [False, 3]],
                "config.window_outer[3]: expected a number, got False",
            ),
            (
                "consistency",
                CONSISTENCY,
                "window_outer",
                [[0, 0], [1e155, 0], [1e155, 1e155], [0, 1e155]],
                "config.window_outer: invalid window: non-finite signed area",
            ),
            (
                "consistency",
                CONSISTENCY,
                "probes",
                [[[0.1, 0.1], [0.2, 0.1], [True, True], [0.1, 0.2]]],
                "config.probes[0][2]: expected a number, got True",
            ),
            (
                "consistency",
                CONSISTENCY,
                "probes",
                [[[0.1, 0.1], [0.2, 0.1], [0.2, 0.2]], [[0.5, 0.5], [1.5, 0.5], [0.5, 1.5]]],
                "config.probes[1]: probe must be contained in window_inner",
            ),
            (
                "consistency",
                CONSISTENCY,
                "rules",
                {"selection": {"kind": "intrinsic_volume", "index": "a"}, "division": {"kind": "point_driven"}},
                "rules.selection.index: expected a number, got 'a'",
            ),
            (
                "consistency",
                CONSISTENCY,
                "rules",
                {"selection": {"kind": "intrinsic_volume", "index": 1.5}, "division": {"kind": "point_driven"}},
                "rules.selection.index: expected an integer, got 1.5",
            ),
            (
                "consistency",
                CONSISTENCY,
                "rules",
                {"selection": {"kind": "intrinsic_volume", "index": 3}, "division": {"kind": "point_driven"}},
                "rules.selection.index: intrinsic volume index must be 0, 1 or 2",
            ),
            ("verify", VERIFY, "n_cases", "abc", "config.n_cases: expected a number, got 'abc'"),
            ("verify", VERIFY, "n_cases", 0, "config.n_cases: must be >= 1, got 0"),
            ("verify", VERIFY, "identities", [["x"]], "config.identities: unknown identity '['x']'"),
            ("verify", VERIFY, "identities", [], "config.identities: expected a non-empty list of identity names"),
            ("rate", RATE, "dts", ["abc"], "config.dts[0]: expected a number, got 'abc'"),
            ("rate", RATE, "dts", [float("nan")], "config.dts: need positive, finite time steps"),
            ("rate", RATE, "dts", [0.0], "config.dts: need positive, finite time steps"),
            ("rate", RATE, "dts", [], "config.dts: need positive, finite time steps"),
            ("rate", RATE, "n_reps", "abc", "config.n_reps: expected a number, got 'abc'"),
            ("rate", RATE, "n_reps", 0, "config.n_reps: must be >= 1, got 0"),
            ("rate", RATE, "window", [[0, 0], [True, 0], [1, 1], [0, 1]], "config.window[1]: expected a number, got True"),
            (
                "rate",
                RATE,
                "probe",
                [[0.25, 0.25], [0.75, 0.25], ["0.75", "0.75"], [0.25, 0.75]],
                "config.probe[2]: expected a number, got '0.75'",
            ),
            (
                "rate",
                RATE,
                "probe",
                [[0.5, 0.5], [1.5, 0.5], [1.5, 1.5], [0.5, 1.5]],
                "config: probe must be contained in window",
            ),
            # rate(unit square) = 4/pi for the isotropic STIT pair, so dt = 0.1 gives 0.127
            ("rate", RATE, "dts", [0.02, 0.1], "config.dts[1]: 0.1 too large; rate(window) * dt = 0.127 must stay below 0.1"),
        ],
        ids=[
            "simulate-time",
            "simulate-version-2",
            "simulate-window-pentagram",
            "simulate-intensity-null",
            "simulate-out_prefix-path",
            "simulate-out_prefix-nul",
            "simulate-out_prefix-empty",
            "simulate-time-bool",
            "simulate-window-string-and-bool-coordinates",
            "simulate-window-bool-coordinates",
            "simulate-window-vertex-not-a-pair",
            "simulate-window-area-overflows",
            "simulate-atom-weight-nan",
            "simulate-atom-angle-pi",
            "simulate-shared-without-shared_measure",
            "simulate-time-zero",
            "simulate-time-negative",
            "consistency-times",
            "consistency-times-descending",
            "consistency-times-empty",
            "consistency-times-not-a-list",
            "consistency-times-zero",
            "consistency-n_reps",
            "consistency-n_reps-below-100",
            "consistency-n_reps-fractional",
            "consistency-n_reps-string",
            "consistency-alpha",
            "consistency-alpha-negative",
            "consistency-alpha-above-1",
            "consistency-probes",
            "consistency-window_inner-string-coordinate",
            "consistency-window_outer-bool-coordinate",
            "consistency-window_outer-area-overflows",
            "consistency-probe-bool-coordinates",
            "consistency-probe-outside-window_inner",
            "consistency-intrinsic-volume-index",
            "consistency-intrinsic-volume-index-fractional",
            "consistency-intrinsic-volume-index-3",
            "verify-n_cases",
            "verify-n_cases-zero",
            "verify-identities-not-strings",
            "verify-identities-empty",
            "rate-dts",
            "rate-dts-nan",
            "rate-dts-zero",
            "rate-dts-empty",
            "rate-n_reps",
            "rate-n_reps-zero",
            "rate-window-bool-coordinate",
            "rate-probe-string-coordinates",
            "rate-probe-outside-window",
            "rate-dt-too-large",
        ],
    )
    def test_exits_1_with_config_error(self, tmp_path, capsys, command, base, key, value, message):
        cfg = write_config(tmp_path, {**base, key: value})
        threads = ["--threads", "1"] if command == "consistency" else []
        assert main([command, "--config", cfg, *threads, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err and message in err

    def test_out_naming_a_file_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SIMULATE)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["simulate", "--config", cfg, "--out", str(taken)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "content", [b'\xff\xfe{"version": 1}', b"[" * 100_000], ids=["not-utf-8", "nested-too-deeply"]
    )
    def test_undecodable_config_exits_1(self, tmp_path, capsys, content):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(content)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: cannot read config {cfg}: ")

    def test_config_root_not_an_object_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, [SIMULATE])
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "config error: config root must be a JSON object\n"

    def test_threads_below_1_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CONSISTENCY)
        assert main(["consistency", "--config", cfg, "--threads", "0", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: stitsim consistency ")
        assert err.endswith("error: argument --threads: must be an integer >= 1, got '0'\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["consistency"], "error: the following arguments are required: --config\n"),
            (["consistency", "--config", "unread.json", "--seed", "abc"], "error: argument --seed: invalid int value: 'abc'\n"),
            (["consistency", "--config", "unread.json", "--threads", "two"], "must be an integer >= 1, got 'two'\n"),
        ],
        ids=["no-config", "seed-not-an-integer", "threads-not-an-integer"],
    )
    def test_bad_command_line_exits_1(self, capsys, argv, message):
        # argparse's own exit code, 2, would read as "inconsistency detected"
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: stitsim consistency ") and err.endswith(message)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="children are forked only on Linux")
    def test_child_without_a_result_exits_1(self, tmp_path, capsys, monkeypatch):
        parent = os.getpid()
        real = analysis._collect_chunk
        monkeypatch.setattr(analysis, "_collect_chunk", lambda *a: real(*a) if os.getpid() == parent else os._exit(3))
        monkeypatch.setattr(analysis, "usable_cpus", lambda: 2)
        cfg = write_config(tmp_path, CONSISTENCY)
        assert main(["consistency", "--config", cfg, "--threads", "2", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: worker process \d+ ended without a result \(wait status 768\)\n", err)

    def test_threads_default_is_the_affinity_set(self, monkeypatch):
        # a process pinned to 3 of 64 CPUs gets 3 processes, not 64
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert build_parser().parse_args(["consistency", "--config", "unread.json"]).threads == 3

    @pytest.mark.parametrize("command", ["simulate", "verify", "rate"])
    def test_threads_only_on_consistency(self, capsys, command):
        assert main([command, "--config", "unread.json", "--threads", "2"]) == 1
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: --threads 2\n")


class TestCliPausesTheCollector:
    """Each command runs with the cyclic garbage collector off, and `main` gives it back as it found it."""

    @pytest.fixture(autouse=True)
    def collector_back_on(self):
        yield
        gc.enable()  # whatever a failed test left, the rest of the suite runs with it on

    @pytest.fixture
    def run_stub(self, tmp_path, monkeypatch):
        """Runs `main` on a `simulate` whose command returns or raises `outcome`; returns (exit code, collector on inside)."""
        cfg = write_config(tmp_path, {})
        inside = []

        def run(outcome):
            def command(cfg, args):
                inside.append(gc.isenabled())
                if isinstance(outcome, BaseException):
                    raise outcome
                return outcome

            monkeypatch.setitem(cli._COMMANDS, "simulate", (lambda raw: raw, command))
            return main(["simulate", "--config", cfg, "--out", str(tmp_path)]), inside.pop()

        return run

    @pytest.mark.parametrize(
        "outcome, code",
        [(0, 0), (2, 2), (ConfigError("bad"), 1), (StitsimError("failed"), 1), (OSError("disk"), 1)],
        ids=["return-0", "return-2", "config-error", "stitsim-error", "os-error"],
    )
    def test_command_runs_paused_and_the_collector_comes_back(self, run_stub, outcome, code):
        assert run_stub(outcome) == (code, False)
        assert gc.isenabled()

    def test_collector_comes_back_when_an_unexpected_exception_propagates(self, run_stub):
        with pytest.raises(ZeroDivisionError):
            run_stub(ZeroDivisionError())
        assert gc.isenabled()

    @pytest.mark.parametrize("outcome", [0, OSError("disk")], ids=["return-0", "os-error"])
    def test_a_caller_that_paused_the_collector_keeps_it_paused(self, run_stub, outcome):
        gc.disable()
        try:
            assert run_stub(outcome)[1] is False
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_cyclic_garbage_of_a_simulate_does_not_grow_with_time(self, tmp_path, capsys):
        def garbage(time):
            cfg = write_config(tmp_path, {**SIMULATE, "time": time})
            gc.collect()
            gc.disable()  # main leaves it off, so every cycle of the call is still there to count
            try:
                assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
                return gc.collect()
            finally:
                gc.enable()

        garbage(1.0)  # first-call caches
        short = garbage(1.0)
        long = garbage(100.0)
        assert int(re.search(r"\((\d+) segments\)", capsys.readouterr().out.splitlines()[-1])[1]) > 3000
        assert long <= short


class TestCliRate:
    def test_rate_report(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "version": 1,
                "seed": 5,
                "window": SQUARE,
                "probe": [[0.25, 0.25], [0.75, 0.25], [0.75, 0.75], [0.25, 0.75]],
                "rules": STIT_RULES,
                "dts": [0.02],
                "n_reps": 5000,
            },
        )
        assert main(["rate", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "rate_report.json").read_text())
        assert report["target"] == pytest.approx(2.0 / math.pi)
        assert abs(report["rows"][0]["estimate"] - 2.0 / math.pi) < 0.2

    def test_report_does_not_depend_on_the_process_count(self, tmp_path, monkeypatch):
        # 3000 replicates fill three seeder blocks, so 2 usable CPUs give 2 processes
        real = analysis._forked_map
        asked = []

        def spy(n_jobs, work, chunks):
            asked.append(n_jobs)
            return real(n_jobs, work, chunks)

        monkeypatch.setattr(analysis, "_forked_map", spy)
        cfg = write_config(tmp_path, {**RATE, "dts": [0.02, 0.005], "n_reps": 3000})
        reports = []
        for cpus in (1, 2):
            monkeypatch.setattr(analysis, "usable_cpus", lambda: cpus)
            assert main(["rate", "--config", cfg, "--out", str(tmp_path / str(cpus))]) == 0
            reports.append((tmp_path / str(cpus) / "rate_report.json").read_bytes())
        assert asked == [1, 1, 2, 2]
        assert reports[0] == reports[1]


# Valid rule blocks beside STIT_RULES, so that every branch of parse_rules has
# leaves to replace.
GENERAL_RULES = [
    STIT_RULES,
    {
        "shared_measure": {"intensity": 2.0, "directions": [[0.0, 0.5], [1.5, 0.5]]},
        "selection": {"kind": "hitting_measure", "measure": "shared"},
        "division": {"kind": "restricted_measure", "measure": "shared"},
    },
    {
        "selection": {"kind": "intrinsic_volume", "index": 1},
        "division": {"kind": "point_driven", "directions": [[0.0, 0.3], [1.0, 0.7]]},
    },
    {"selection": {"kind": "vertex_count"}, "division": {"kind": "restricted_measure", "measure": ISO}},
]
CONFIG_KEYS = sorted(
    {k for base in (SIMULATE, CONSISTENCY, VERIFY, RATE) for k in base}
    | {"out_prefix", "alpha", "probes", "n_cases", "stit", "measure", "intensity", "directions"}
    | {"shared_measure", "selection", "division", "kind", "index"}
)
# Any JSON value, with the keys and names the schema knows among the strings.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["isotropic", "shared", "default", "corollary", "vertex_count", "point_driven"]),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(CONFIG_KEYS) | st.text(max_size=6), inner, max_size=5),
    max_leaves=16,
)


def _paths(node, prefix=()):
    """Every key path into a JSON tree, the root excluded."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_configs(draw, base):
    cfg = copy.deepcopy(dict(base, rules=draw(st.sampled_from(GENERAL_RULES))))
    *parents, last = draw(st.sampled_from(list(_paths(cfg))))
    node = cfg
    for key in parents:
        node = node[key]
    node[last] = draw(JSON_VALUES)
    return cfg


class TestParsersRejectOnlyWithConfigError:
    """Bad input is a ConfigError, never a Python traceback.  Parsers only: nothing is simulated."""

    @pytest.mark.parametrize(
        "parse, base",
        [(parse_simulate, SIMULATE), (parse_consistency, CONSISTENCY), (parse_verify, VERIFY), (parse_rate, RATE)],
        ids=["simulate", "consistency", "verify", "rate"],
    )
    def test_one_replaced_value(self, parse, base):
        @settings(max_examples=250, deadline=None)
        @given(mutated_configs(base))
        def check(cfg):
            try:
                parse(cfg)
            except ConfigError:
                pass

        check()


def readme_json_blocks() -> list[tuple[str, dict]]:
    """(the command of its "### <command>" section, or "rules" for a rules fragment, JSON) per README json block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks, section = [], None
    for heading, block in re.findall(r"^### (\w+)|^```json\n(.*?)^```$", text, re.M | re.S):
        section = heading or section
        if block.startswith('"rules"'):
            blocks.append(("rules", json.loads("{" + block + "}")))
        elif block:
            blocks.append((section, json.loads(block)))
    return blocks


class TestReadmeExamples:
    """Each JSON example of the README parses.  Parsers only: nothing is simulated."""

    BLOCKS = readme_json_blocks()
    PARSERS = {
        "simulate": parse_simulate,
        "consistency": parse_consistency,
        "rules": lambda fragment: parse_rules(fragment["rules"]),
        "verify": parse_verify,
        "rate": parse_rate,
    }

    def test_every_example_found(self):
        assert [name for name, _ in self.BLOCKS] == list(self.PARSERS)

    @pytest.mark.parametrize("name, example", BLOCKS, ids=[name for name, _ in BLOCKS])
    def test_example_parses(self, name, example):
        self.PARSERS[name](example)
