import copy
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stitsim import analysis
from stitsim.cli import build_parser, main
from stitsim.config import (
    ConfigError,
    parse_consistency,
    parse_rate,
    parse_rules,
    parse_simulate,
    parse_verify,
    rules_to_dict,
)
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


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestRulesParsing:
    def test_stit_shortcut_sets_flag(self):
        rules = parse_rules(STIT_RULES)
        assert rules.stit_flag

    def test_shared_measure_gives_pointer_identity(self):
        rules = parse_rules(
            {
                "selection": {"kind": "hitting_measure", "measure": "shared"},
                "division": {"kind": "restricted_measure", "measure": "shared"},
                "shared_measure": ISO,
            }
        )
        assert rules.stit_flag
        assert rules.selection.measure is rules.division.measure

    def test_separate_measures_do_not_set_flag(self):
        rules = parse_rules(
            {
                "selection": {"kind": "hitting_measure", "measure": ISO},
                "division": {"kind": "restricted_measure", "measure": ISO},
            }
        )
        assert not rules.stit_flag

    def test_unknown_rule_kind_rejected(self):
        with pytest.raises(ConfigError):
            parse_rules({"selection": {"kind": "aera"}, "division": {"kind": "restricted_measure", "measure": ISO}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_rules({"stit": {"measure": ISO}, "extra": 1})

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
        assert again.stit_flag
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
        assert again.stit_flag == rules.stit_flag


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
        ],
        ids=["non-numeric-field", "broken-json-header", "header-not-an-object"],
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
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = [sys.executable, "-m", "stitsim.cli", "consistency", "--config", cfg, "--threads", "2"]
        with subprocess.Popen(
            argv + ["--out", str(tmp_path)], env=env, start_new_session=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        ) as proc:
            _, err = proc.communicate(timeout=120)
        assert proc.returncode in (0, 2), err
        assert json.loads((tmp_path / "consistency_report.json").read_text())["n_reps"] == 100
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # the session's process group is empty


class TestCliBadInput:
    @pytest.mark.parametrize(
        "command, base, key, value",
        [
            ("simulate", SIMULATE, "time", "abc"),
            ("simulate", SIMULATE, "window", PENTAGRAM),
            ("simulate", SIMULATE, "rules", {"stit": {"measure": {"intensity": None, "directions": "isotropic"}}}),
            ("simulate", SIMULATE, "out_prefix", "sub/x"),
            ("simulate", SIMULATE, "out_prefix", "a\0b"),
            ("simulate", SIMULATE, "time", True),
            ("simulate", SIMULATE, "window", [["0", "0"], [1, 0], [True, True], [0, 1]]),
            ("simulate", SIMULATE, "window", [[0, 0], [1, 0], [True, True], [0, 1]]),
            ("simulate", SIMULATE, "window", [[0, 0], [1, 0], [1, 1, 1], [0, 1]]),
            (
                "simulate",
                SIMULATE,
                "rules",
                {"stit": {"measure": {"intensity": 1.0, "directions": [[0.0, float("nan")], [1.5, 0.5]]}}},
            ),
            ("consistency", CONSISTENCY, "times", [0.5, "abc"]),
            ("consistency", CONSISTENCY, "n_reps", "abc"),
            ("consistency", CONSISTENCY, "n_reps", 99),
            ("consistency", CONSISTENCY, "n_reps", 150.5),
            ("consistency", CONSISTENCY, "n_reps", "150"),
            ("consistency", CONSISTENCY, "alpha", "abc"),
            ("consistency", CONSISTENCY, "alpha", -1),
            ("consistency", CONSISTENCY, "alpha", 5),
            ("consistency", CONSISTENCY, "probes", 5),
            ("consistency", CONSISTENCY, "window_inner", [[0, 0], ["1", 0], [1, 1], [0, 1]]),
            ("consistency", CONSISTENCY, "window_outer", [[0, 0], [3, 0], [3, 3], [False, 3]]),
            ("consistency", CONSISTENCY, "probes", [[[0.1, 0.1], [0.2, 0.1], [True, True], [0.1, 0.2]]]),
            (
                "consistency",
                CONSISTENCY,
                "rules",
                {"selection": {"kind": "intrinsic_volume", "index": "a"}, "division": {"kind": "point_driven"}},
            ),
            (
                "consistency",
                CONSISTENCY,
                "rules",
                {"selection": {"kind": "intrinsic_volume", "index": 1.5}, "division": {"kind": "point_driven"}},
            ),
            ("verify", VERIFY, "n_cases", "abc"),
            ("verify", VERIFY, "n_cases", 0),
            ("verify", VERIFY, "identities", [["x"]]),
            ("rate", RATE, "dts", ["abc"]),
            ("rate", RATE, "dts", [float("nan")]),
            ("rate", RATE, "n_reps", "abc"),
            ("rate", RATE, "n_reps", 0),
            ("rate", RATE, "window", [[0, 0], [True, 0], [1, 1], [0, 1]]),
            ("rate", RATE, "probe", [[0.25, 0.25], [0.75, 0.25], ["0.75", "0.75"], [0.25, 0.75]]),
            # rate(unit square) = 4/pi for the isotropic STIT pair, so dt = 0.1 gives 0.127
            ("rate", RATE, "dts", [0.02, 0.1]),
        ],
        ids=[
            "simulate-time",
            "simulate-window-pentagram",
            "simulate-intensity-null",
            "simulate-out_prefix-path",
            "simulate-out_prefix-nul",
            "simulate-time-bool",
            "simulate-window-string-and-bool-coordinates",
            "simulate-window-bool-coordinates",
            "simulate-window-vertex-not-a-pair",
            "simulate-atom-weight-nan",
            "consistency-times",
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
            "consistency-probe-bool-coordinates",
            "consistency-intrinsic-volume-index",
            "consistency-intrinsic-volume-index-fractional",
            "verify-n_cases",
            "verify-n_cases-zero",
            "verify-identities-not-strings",
            "rate-dts",
            "rate-dts-nan",
            "rate-n_reps",
            "rate-n_reps-zero",
            "rate-window-bool-coordinate",
            "rate-probe-string-coordinates",
            "rate-dt-too-large",
        ],
    )
    def test_exits_1_with_config_error(self, tmp_path, capsys, command, base, key, value):
        cfg = write_config(tmp_path, {**base, key: value})
        threads = ["--threads", "1"] if command == "consistency" else []
        assert main([command, "--config", cfg, *threads, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err

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

    def test_threads_below_1_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CONSISTENCY)
        assert main(["consistency", "--config", cfg, "--threads", "0", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: --threads must be >= 1\n"

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
    def test_threads_only_on_consistency(self, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", "unread.json", "--threads", "2"])
        assert exc.value.code == 2


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
