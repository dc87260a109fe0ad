import math
import os

import numpy as np
import pytest
from hypothesis import settings

from stitsim import HyperplaneMeasure, Polygon, rectangle, stit_pair

# CI selects "ci" (HYPOTHESIS_PROFILE=ci): the same examples on every run, and
# a failure prints the blob that reproduces it.  Local runs keep the default.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def unit_square():
    return rectangle(0.0, 0.0, 1.0, 1.0)


@pytest.fixture
def triangle():
    return Polygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])


@pytest.fixture
def iso_measure():
    return HyperplaneMeasure(1.0)


@pytest.fixture
def stit_rules(iso_measure):
    return stit_pair(iso_measure)


@pytest.fixture
def rng():
    return np.random.default_rng(20230815)


def trapezoid_width_integral(poly, n=256):
    """Independent quadrature oracle for the isotropic hitting mass (intensity 1)."""
    from scipy.integrate import trapezoid  # np.trapezoid is NumPy >= 2.0 only

    from stitsim.geometry import width

    thetas = np.linspace(0.0, math.pi, n + 1)
    vals = [width(poly, t) for t in thetas]
    return trapezoid(vals, thetas) / math.pi
