"""Experiment configuration: a strict, versioned JSON schema.

Unknown keys are rejected everywhere so that a typo in a rule name cannot
silently change an experiment.  A shared measure is declared once under
"shared_measure" and referenced as "shared" from both rule blocks; this is
what makes the shared-measure (STIT) pairing a pointer identity.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Optional, Sequence

from .analysis import IDENTITIES, MAX_DIVISIONS_PER_DT, MIN_REPS
from .engine import MAX_EVENTS
from .errors import ConfigError, InvalidPolygon
from .geometry import Polygon
from .measures import Atoms, HyperplaneMeasure, Isotropic
from .rules import (
    HittingMeasure,
    IntrinsicVolume,
    PointDriven,
    RestrictedMeasure,
    RulePair,
    VertexCount,
    min_expected_chords,
    rate,
)

SCHEMA_VERSION = 1


def _require_keys(obj: dict, path: str, required: Sequence[str], optional: Sequence[str] = ()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    for k in required:
        if k not in obj:
            raise ConfigError(f"{path}: missing required key '{k}'")
    allowed = set(required) | set(optional)
    for k in obj:
        if k not in allowed:
            raise ConfigError(f"{path}: unknown key '{k}' (allowed: {sorted(allowed)})")


def _number(value: Any, path: str, kind: type = float):
    """value as a float (or int), or a ConfigError naming the path.

    A boolean, a string or, for an int, a non-integral value is an error
    rather than a silent conversion.
    """
    if isinstance(value, (bool, str)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: expected a number, got {value!r}") from exc
    if kind is int and number != value:
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return number


def parse_directions(spec: Any, path: str):
    if spec == "isotropic":
        return Isotropic()
    if isinstance(spec, list):
        try:
            thetas = tuple(_number(t, path) for t, _ in spec)
            weights = tuple(_number(w, path) for _, w in spec)
            return Atoms(thetas, weights)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad direction atoms: {exc}") from exc
    raise ConfigError(f"{path}: directions must be 'isotropic' or [[theta, weight], ...]")


def parse_measure(spec: Any, path: str) -> HyperplaneMeasure:
    _require_keys(spec, path, ["intensity", "directions"])
    try:
        intensity = _number(spec["intensity"], f"{path}.intensity")
        return HyperplaneMeasure(intensity, parse_directions(spec["directions"], f"{path}.directions"))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def measure_to_dict(m: HyperplaneMeasure) -> dict:
    if isinstance(m.directions, Isotropic):
        dirs: Any = "isotropic"
    else:
        dirs = [[t, w] for t, w in zip(m.directions.thetas, m.directions.weights)]
    return {"intensity": m.intensity, "directions": dirs}


def parse_rules(spec: Any, path: str = "rules") -> RulePair:
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object")
    if "stit" in spec:
        _require_keys(spec, path, ["stit"])
        block = spec["stit"]
        _require_keys(block, f"{path}.stit", ["measure"])
        measure = parse_measure(block["measure"], f"{path}.stit.measure")
        return RulePair(HittingMeasure(measure), RestrictedMeasure(measure))

    _require_keys(spec, path, ["selection", "division"], ["shared_measure"])
    shared: Optional[HyperplaneMeasure] = None
    if "shared_measure" in spec:
        shared = parse_measure(spec["shared_measure"], f"{path}.shared_measure")

    def resolve_measure(block: dict, sub: str) -> HyperplaneMeasure:
        m = block.get("measure")
        if m == "shared":
            if shared is None:
                raise ConfigError(f"{path}.{sub}: 'shared' used without shared_measure")
            return shared
        return parse_measure(m, f"{path}.{sub}.measure")

    sel_spec = spec["selection"]
    _require_keys(sel_spec, f"{path}.selection", ["kind"], ["index", "measure"])
    kind = sel_spec["kind"]
    if kind == "intrinsic_volume":
        if "index" not in sel_spec:
            raise ConfigError(f"{path}.selection: intrinsic_volume needs 'index'")
        index = _number(sel_spec["index"], f"{path}.selection.index", int)
        try:
            selection: Any = IntrinsicVolume(index)
        except ValueError as exc:
            raise ConfigError(f"{path}.selection.index: {exc}") from exc
    elif kind == "vertex_count":
        selection = VertexCount()
    elif kind == "hitting_measure":
        selection = HittingMeasure(resolve_measure(sel_spec, "selection"))
    else:
        raise ConfigError(f"{path}.selection: unknown kind '{kind}'")

    div_spec = spec["division"]
    _require_keys(div_spec, f"{path}.division", ["kind"], ["measure", "directions"])
    kind = div_spec["kind"]
    if kind == "restricted_measure":
        division: Any = RestrictedMeasure(resolve_measure(div_spec, "division"))
    elif kind == "point_driven":
        dirs = div_spec.get("directions", "isotropic")
        division = PointDriven(parse_directions(dirs, f"{path}.division.directions"))
    else:
        raise ConfigError(f"{path}.division: unknown kind '{kind}'")
    return RulePair(selection, division)


def rules_to_dict(rules: RulePair) -> dict:
    if rules.stit_flag:
        return {"stit": {"measure": measure_to_dict(rules.division.measure)}}
    sel = rules.selection
    if isinstance(sel, IntrinsicVolume):
        sel_d: dict = {"kind": "intrinsic_volume", "index": sel.index}
    elif isinstance(sel, VertexCount):
        sel_d = {"kind": "vertex_count"}
    else:
        sel_d = {"kind": "hitting_measure", "measure": measure_to_dict(sel.measure)}
    div = rules.division
    if isinstance(div, RestrictedMeasure):
        div_d: dict = {"kind": "restricted_measure", "measure": measure_to_dict(div.measure)}
    else:
        div_d = {"kind": "point_driven", "directions": measure_to_dict(
            HyperplaneMeasure(1.0, div.directions)
        )["directions"]}
    return {"selection": sel_d, "division": div_d}


def parse_window(spec: Any, path: str) -> Polygon:
    if not isinstance(spec, list) or len(spec) < 3:
        raise ConfigError(f"{path}: window must be a list of at least 3 [x, y] vertices")
    vertices = []
    for i, vertex in enumerate(spec):
        if not isinstance(vertex, list) or len(vertex) != 2:
            raise ConfigError(f"{path}[{i}]: expected an [x, y] vertex, got {vertex!r}")
        vertices.append(tuple(_number(c, f"{path}[{i}]") for c in vertex))
    try:
        return Polygon(vertices)
    except InvalidPolygon as exc:
        raise ConfigError(f"{path}: invalid window: {exc}") from exc


def parse_times(spec: Any, path: str) -> list[float]:
    if not isinstance(spec, list) or not spec:
        raise ConfigError(f"{path}: expected a non-empty list of times")
    times = [_number(t, f"{path}[{i}]") for i, t in enumerate(spec)]
    if any(t <= 0 or not math.isfinite(t) for t in times):
        raise ConfigError(f"{path}: times must be positive and finite")
    if any(b < a for a, b in zip(times, times[1:])):
        raise ConfigError(f"{path}: times must be ascending")
    return times


def _check_event_budget(rules: RulePair, t: float, path: str) -> None:
    """Reject a run whose selection rule is known to exceed the engine's event cap by time t."""
    floor = min_expected_chords(rules.selection, t)
    if floor > MAX_EVENTS:
        raise ConfigError(
            f"{path}: the selection rule expects at least {floor:.3g} chords by t = {t},"
            f" over the event cap of {MAX_EVENTS}; use a smaller time"
        )


def _check_version_and_seed(cfg: dict, path: str = "config"):
    if cfg.get("version") != SCHEMA_VERSION:
        raise ConfigError(f"{path}: 'version' must be {SCHEMA_VERSION}")
    seed = cfg.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"{path}: integer 'seed' is mandatory (no wall-clock seeding)")
    if seed < 0:
        raise ConfigError(f"{path}: 'seed' must be a non-negative integer, got {seed}")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def parse_simulate(cfg: dict) -> dict:
    _require_keys(cfg, "config", ["version", "seed", "window", "rules", "time"], ["out_prefix"])
    _check_version_and_seed(cfg)
    t = _number(cfg["time"], "config.time")
    if t <= 0 or not math.isfinite(t):
        raise ConfigError("config.time: must be positive and finite")
    prefix = cfg.get("out_prefix", "tessellation")
    if not isinstance(prefix, str) or any(c in prefix for c in ("/", os.sep, "\0")):
        raise ConfigError(
            f"config.out_prefix: expected a file name (no path separator or NUL byte), got {prefix!r}"
        )
    window = parse_window(cfg["window"], "config.window")
    rules = parse_rules(cfg["rules"])
    _check_event_budget(rules, t, "config.time")
    return {
        "seed": cfg["seed"],
        "window": window,
        "rules": rules,
        "time": t,
        "out_prefix": prefix,
    }


def parse_consistency(cfg: dict) -> dict:
    _require_keys(
        cfg,
        "config",
        ["version", "seed", "window_inner", "window_outer", "rules", "times", "n_reps"],
        ["alpha", "probes"],
    )
    _check_version_and_seed(cfg)
    V = parse_window(cfg["window_inner"], "config.window_inner")
    W = parse_window(cfg["window_outer"], "config.window_outer")
    if not W.contains_polygon(V):
        raise ConfigError("config: window_inner must be contained in window_outer")
    probes = None
    if "probes" in cfg and cfg["probes"] != "default":
        if not isinstance(cfg["probes"], list):
            raise ConfigError("config.probes: expected \"default\" or a list of polygons")
        probes = [parse_window(p, f"config.probes[{i}]") for i, p in enumerate(cfg["probes"])]
    n_reps = _number(cfg["n_reps"], "config.n_reps", int)
    if n_reps < MIN_REPS:
        raise ConfigError(f"config.n_reps: must be >= {MIN_REPS}, got {n_reps}")
    alpha = _number(cfg.get("alpha", 0.001), "config.alpha")
    if not 0 < alpha < 1:
        raise ConfigError(f"config.alpha: must lie in (0, 1), got {alpha}")
    rules = parse_rules(cfg["rules"])
    times = parse_times(cfg["times"], "config.times")
    _check_event_budget(rules, times[-1], "config.times")
    return {
        "seed": cfg["seed"],
        "V": V,
        "W": W,
        "rules": rules,
        "times": times,
        "n_reps": n_reps,
        "alpha": alpha,
        "probes": probes,
    }


def parse_verify(cfg: dict) -> dict:
    _require_keys(
        cfg, "config", ["version", "seed", "rules", "identities"], ["n_cases"]
    )
    _check_version_and_seed(cfg)
    idents = cfg["identities"]
    if not isinstance(idents, list):
        raise ConfigError("config.identities: expected a list")
    for name in idents:
        if not isinstance(name, str) or name not in IDENTITIES:
            raise ConfigError(
                f"config.identities: unknown identity '{name}' (known: {list(IDENTITIES)})"
            )
    n_cases = _number(cfg.get("n_cases", 100), "config.n_cases", int)
    if n_cases < 1:
        raise ConfigError(f"config.n_cases: must be >= 1, got {n_cases}")
    return {
        "seed": cfg["seed"],
        "rules": parse_rules(cfg["rules"]),
        "identities": list(idents),
        "n_cases": n_cases,
    }


def parse_rate(cfg: dict) -> dict:
    _require_keys(
        cfg, "config", ["version", "seed", "window", "probe", "rules", "dts", "n_reps"], []
    )
    _check_version_and_seed(cfg)
    window = parse_window(cfg["window"], "config.window")
    probe = parse_window(cfg["probe"], "config.probe")
    if not window.contains_polygon(probe):
        raise ConfigError("config: probe must be contained in window")
    if not isinstance(cfg["dts"], list):
        raise ConfigError("config.dts: expected a list of time steps")
    dts = [_number(d, f"config.dts[{i}]") for i, d in enumerate(cfg["dts"])]
    if not dts or any(d <= 0 or not math.isfinite(d) for d in dts):
        raise ConfigError("config.dts: need positive, finite time steps")
    rules = parse_rules(cfg["rules"])
    window_rate = rate(rules.selection, window)
    for i, dt in enumerate(dts):
        if window_rate * dt >= MAX_DIVISIONS_PER_DT:
            raise ConfigError(
                f"config.dts[{i}]: {dt} too large; rate(window) * dt = {window_rate * dt:.3g}"
                f" must stay below {MAX_DIVISIONS_PER_DT}"
            )
    n_reps = _number(cfg["n_reps"], "config.n_reps", int)
    if n_reps < 1:
        raise ConfigError(f"config.n_reps: must be >= 1, got {n_reps}")
    return {
        "seed": cfg["seed"],
        "window": window,
        "probe": probe,
        "rules": rules,
        "dts": dts,
        "n_reps": n_reps,
    }
