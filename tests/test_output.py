"""The dump and SVG writers equal their one-chord-at-a-time references byte for byte.

Each case is a stand-in state: a window, chords drawn in its bounding box and
crafted births, so the colour ramp is driven where the array code could part
from the scalar one (its ends, its anchors, halves that round to even), and the
writers' blocks are filled exactly, and one chord past.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from reference import _REFERENCE_CMAP, _reference_blend, _reference_dump_geometry, _reference_render_svg
from stitsim import Polygon, rectangle
from stitsim.geometry import Segment
from stitsim.output import BLOCK, dump_geometry, render_svg


def _half_even_births():
    """Births at clock 1 whose colour has a channel at exactly (2m + 0.5) / 255, where
    rounding half to even and rounding half up part."""
    births = []
    for i, (lo, hi) in enumerate(zip(_REFERENCE_CMAP, _REFERENCE_CMAP[1:])):
        for k, (a, b) in enumerate(zip(lo, hi)):
            for m in range(math.ceil(255 * min(a, b)), math.floor(255 * max(a, b)) + 1):
                f = ((m + 0.5) / 255 - a) / (b - a)
                t = (i + f) / (len(_REFERENCE_CMAP) - 1)
                if m % 2 == 0 and 0 < f < 1 and 255 * _reference_blend(t)[k] == m + 0.5:
                    births.append(t)
    assert len(births) > 100
    return births


SQUARE = rectangle(0.0, 0.0, 1.0, 1.0)
CLOCK = 3.7

# name -> (window, clock, births or the number of uniform births in [0, clock])
CASES = {
    "no-chords": (SQUARE, CLOCK, []),
    "birth-at-the-clock": (SQUARE, CLOCK, [CLOCK, 0.0, CLOCK]),
    "ramp-anchors": (SQUARE, CLOCK, [CLOCK * j / 10 for j in range(11)]),
    "halves-rounded-to-even": (SQUARE, 1.0, _half_even_births()),
    "births-outside-0-to-the-clock": (SQUARE, CLOCK, [-1.0, -1e-300, CLOCK * (1 + 1e-15), 2 * CLOCK, 1e300]),
    "clock-0": (SQUARE, 0.0, [0.0, 0.0]),
    "random": (SQUARE, CLOCK, 500),
    "one-block": (SQUARE, CLOCK, BLOCK),
    "one-block-plus-one": (SQUARE, CLOCK, BLOCK + 1),
    "triangle": (Polygon([(0.0, 0.0), (2.0, 0.25), (0.5, 1.5)]), CLOCK, 300),
    "far-from-the-origin": (rectangle(1e6, -3e7, 1e6 + 2.5, -3e7 + 1.0), CLOCK, 300),
}


@pytest.mark.parametrize("case", CASES)
def test_writers_equal_the_references(tmp_path, stit_rules, case):
    window, clock, births = CASES[case]
    rng = np.random.default_rng(sorted(CASES).index(case))
    if isinstance(births, int):
        births = rng.uniform(0.0, clock, births).tolist()
    x_lo, y_lo, x_hi, y_hi = window._box
    ends = rng.uniform((x_lo, y_lo, x_lo, y_lo), (x_hi, y_hi, x_hi, y_hi), (len(births), 4)).tolist()
    state = SimpleNamespace(
        seed=11,
        clock=clock,
        rules=stit_rules,
        window=window,
        segments=[Segment((px, py), (qx, qy)) for px, py, qx, qy in ends],
        births=births,
    )
    for write, reference, name in (
        (dump_geometry, _reference_dump_geometry, "tessellation.txt"),
        (render_svg, _reference_render_svg, "tessellation.svg"),
    ):
        write(state, str(tmp_path / name))
        reference(state, str(tmp_path / f"reference-{name}"))
        assert (tmp_path / name).read_bytes() == (tmp_path / f"reference-{name}").read_bytes(), name
