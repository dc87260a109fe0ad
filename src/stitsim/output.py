"""Geometry dumps and SVG rendering.

The dump is line-delimited text: a single '#'-prefixed JSON metadata header,
then one record per segment with fields (px, py, qx, qy, birth_time) printed
with 17 significant digits so floats round-trip exactly.  The SVG writer is
hand-rolled to keep output byte-deterministic.  Both files are written as they
are formatted, BLOCK chords at a time from coordinate and colour arrays, so no
trajectory's output is held as one string.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .config import rules_to_dict
from .engine import ProcessState
from .errors import ConfigError
from .geometry import Segment, segment_rows

SVG_SIZE = 640  # pixels along the longer side of the window's bounding box, margins included
BLOCK = 1024  # chords per formatted string, in both writers; bounds their memory, not their output


def _blocks(state: ProcessState):
    """The chords BLOCK at a time: their rows (px, py, qx, qy) as an (n, 4) array, and their births."""
    for lo in range(0, len(state.segments), BLOCK):
        yield segment_rows(state.segments[lo : lo + BLOCK]), np.array(state.births[lo : lo + BLOCK], dtype=float)


def _write_rows(fh, line: str, columns: np.ndarray) -> None:
    """One `line` per row of columns, formatted by one `%`.

    No container is made per chord: thousands of per-line tuples or lists would
    start full garbage collections over the trajectory's live cells.
    """
    fh.write((line * len(columns)) % tuple(columns.ravel().tolist()))


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
        for rows, births in _blocks(state):
            _write_rows(fh, "%.17g %.17g %.17g %.17g %.17g\n", np.column_stack([rows, births]))


def load_geometry(path: str) -> tuple[dict, list[tuple[Segment, float]]]:
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
            if not header.startswith("# "):
                raise ConfigError(f"{path}: missing metadata header")
            try:
                meta = json.loads(header[2:])
            except (RecursionError, json.JSONDecodeError) as exc:
                raise ConfigError(f"{path}:1: bad metadata header: {exc}") from exc
            if not isinstance(meta, dict):
                raise ConfigError(f"{path}:1: metadata header must be a JSON object")
            records = []
            for lineno, line in enumerate(fh, start=2):
                parts = line.split()
                if len(parts) != 5:
                    raise ConfigError(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
                try:
                    px, py, qx, qy, birth = fields = [float(p) for p in parts]
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from exc
                if not all(map(math.isfinite, fields)):
                    raise ConfigError(f"{path}:{lineno}: every field must be finite, got {line.strip()!r}")
                records.append((Segment((px, py), (qx, qy)), birth))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    if meta.get("n_segments") != len(records):
        raise ConfigError(f"{path}: header says {meta.get('n_segments')} segments, found {len(records)}")
    return meta, records


# Perceptually ordered anchors (dark blue -> teal -> yellow); linear blend.
_CMAP = np.array(
    [
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
)


def _colors(births: np.ndarray, clock: float) -> np.ndarray:
    """The (n, 3) int RGB of each birth on the ramp: time 0 at the first anchor, the clock at the last."""
    t = np.clip(births / clock if clock > 0 else np.zeros_like(births), 0.0, 1.0)
    x = t * (len(_CMAP) - 1)
    i = np.minimum(x.astype(int), len(_CMAP) - 2)
    f = (x - i)[:, None]
    return np.rint(255 * ((1 - f) * _CMAP[i] + f * _CMAP[i + 1])).astype(int)


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

    def to_svg(xy: np.ndarray) -> np.ndarray:
        """Columns (x, y, x, y, ...) to pixels, y flipped so the svg matches the mathematical orientation."""
        xy[:, 0::2] = (xy[:, 0::2] - x0 + margin) * scale
        xy[:, 1::2] = (y1 - xy[:, 1::2] + margin) * scale
        return xy

    w = (x1 - x0 + 2 * margin) * scale
    h = (y1 - y0 + 2 * margin) * scale
    sw = max(0.6, 0.0015 * SVG_SIZE)
    line = (
        '<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" stroke="#%02x%02x%02x" '
        f'stroke-width="{sw:.2f}" stroke-linecap="round"/>\n'
    )
    with open(path, "w") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
            f'viewBox="0 0 {w:.3f} {h:.3f}">\n'
            f'<rect width="{w:.3f}" height="{h:.3f}" fill="white"/>\n'
            '<polygon points="'
            + " ".join("%.3f,%.3f" % tuple(v) for v in to_svg(np.array(window.vertices)).tolist())
            + '" fill="none" stroke="black" stroke-width="1.5"/>\n'
        )
        for rows, births in _blocks(state):
            columns = np.empty((len(rows), 7), dtype=object)  # floats for %.3f, ints for %02x
            columns[:, :4] = to_svg(rows)
            columns[:, 4:] = _colors(births, state.clock)
            _write_rows(fh, line, columns)
        fh.write("</svg>\n")
