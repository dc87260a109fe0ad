"""Geometry dumps and SVG rendering.

The dump is line-delimited text: a single '#'-prefixed JSON metadata header,
then one record per segment with fields (px, py, qx, qy, birth_time) printed
with 17 significant digits so floats round-trip exactly.  The SVG writer is
hand-rolled to keep output byte-deterministic.
"""

from __future__ import annotations

import json

from .config import rules_to_dict
from .engine import ProcessState
from .errors import ConfigError
from .geometry import Segment

SVG_SIZE = 640  # pixels along the longer side of the window's bounding box, margins included


def _fmt(x: float) -> str:
    return format(x, ".17g")


def dump_geometry(state: ProcessState, path: str) -> None:
    meta = {
        "seed": state.seed,
        "time": state.clock,
        "rules": rules_to_dict(state.rules),
        "window": [list(v) for v in state.window.vertices],
        "n_segments": len(state.segments),
    }
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        for seg, birth in zip(state.segments, state.births):
            fh.write(
                f"{_fmt(seg.p[0])} {_fmt(seg.p[1])} {_fmt(seg.q[0])} {_fmt(seg.q[1])} {_fmt(birth)}\n"
            )


def load_geometry(path: str) -> tuple[dict, list[tuple[Segment, float]]]:
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("# "):
            raise ConfigError(f"{path}: missing metadata header")
        try:
            meta = json.loads(header[2:])
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:1: bad metadata header: {exc}") from exc
        if not isinstance(meta, dict):
            raise ConfigError(f"{path}:1: metadata header must be a JSON object")
        records = []
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if len(parts) != 5:
                raise ConfigError(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
            try:
                px, py, qx, qy, birth = (float(p) for p in parts)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
            records.append((Segment((px, py), (qx, qy)), birth))
    if meta.get("n_segments") != len(records):
        raise ConfigError(f"{path}: header says {meta.get('n_segments')} segments, found {len(records)}")
    return meta, records


# Perceptually ordered anchors (dark blue -> teal -> yellow); linear blend.
_CMAP = [
    (0.267, 0.005, 0.329),
    (0.283, 0.141, 0.458),
    (0.254, 0.265, 0.530),
    (0.207, 0.372, 0.553),
    (0.164, 0.471, 0.558),
    (0.128, 0.567, 0.551),
    (0.135, 0.659, 0.518),
    (0.267, 0.749, 0.441),
    (0.478, 0.821, 0.318),
    (0.741, 0.873, 0.150),
    (0.993, 0.906, 0.144),
]


def _color(t: float) -> str:
    t = min(1.0, max(0.0, t))
    x = t * (len(_CMAP) - 1)
    i = min(int(x), len(_CMAP) - 2)
    f = x - i
    rgb = [(1 - f) * a + f * b for a, b in zip(_CMAP[i], _CMAP[i + 1])]
    return "#" + "".join(f"{round(255 * c):02x}" for c in rgb)


def render_svg(state: ProcessState, path: str) -> None:
    """Window outline plus segments colored by birth time."""
    window = state.window
    xs = [v[0] for v in window.vertices]
    ys = [v[1] for v in window.vertices]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0)
    margin = 0.04 * span
    scale = SVG_SIZE / (span + 2 * margin)

    def sx(x: float) -> str:
        return f"{(x - x0 + margin) * scale:.3f}"

    def sy(y: float) -> str:
        # flip y so the svg matches the mathematical orientation
        return f"{(y1 - y + margin) * scale:.3f}"

    w = (x1 - x0 + 2 * margin) * scale
    h = (y1 - y0 + 2 * margin) * scale
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
        f'viewBox="0 0 {w:.3f} {h:.3f}">',
        f'<rect width="{w:.3f}" height="{h:.3f}" fill="white"/>',
        '<polygon points="'
        + " ".join(f"{sx(vx)},{sy(vy)}" for vx, vy in window.vertices)
        + '" fill="none" stroke="black" stroke-width="1.5"/>',
    ]
    sw = max(0.6, 0.0015 * SVG_SIZE)
    for seg, birth in zip(state.segments, state.births):
        color = _color(birth / state.clock if state.clock > 0 else 0.0)
        lines.append(
            f'<line x1="{sx(seg.p[0])}" y1="{sy(seg.p[1])}" '
            f'x2="{sx(seg.q[0])}" y2="{sy(seg.q[1])}" '
            f'stroke="{color}" stroke-width="{sw:.2f}" stroke-linecap="round"/>'
        )
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
