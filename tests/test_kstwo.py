"""`stitsim.kstwo.kstwo_sf` against `scipy.stats.kstwo.sf`, bit for bit, at every edge of the
support and of Simard & L'Ecuyer's choice of method, and one float to each side of it."""

import math

import numpy as np
import pytest

from stitsim.kstwo import kstwo_sf

# both sides of the n <= 140 and n <= 100000 cuts, and of DMTW's and Pomeranz's rescaling
NS = [1, 2, 10, 100, 140, 141, 150, 1000, 3000, 100001]


def edges(n: int) -> np.ndarray:
    """The values of d where, for this n, the support or the method changes, each with its two neighbouring floats."""
    cuts = [0.0, 0.5 / n, 1.0 / n, (n - 1) / n, 0.5, 1.0]
    cuts += [math.sqrt(c / n) for c in (0.754693, 2.2, 4.0, 18.0, 370.0)]  # n d^2 = c
    cuts.append((1.4 / n) ** (2 / 3))  # n d^1.5 = 1.4
    return np.array([x for c in cuts for x in (np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf))])


@pytest.mark.parametrize("n", NS)
def test_equals_scipy_bit_for_bit(n):
    from scipy.stats import kstwo

    d = edges(n)
    got, want = kstwo_sf(d, float(n)), kstwo.sf(d, float(n))
    assert got.dtype == want.dtype == np.float64
    mismatched = got.view(np.int64) != want.view(np.int64)
    assert not mismatched.any(), list(zip(d[mismatched], got[mismatched], want[mismatched]))


def test_support_edges_and_no_point():
    assert kstwo_sf([0.0, 0.05, 1.0, 2.0], 10.0).tolist() == [1.0, 1.0, 0.0, 0.0]
    assert kstwo_sf(np.empty(0), 10.0).shape == (0,)


@pytest.mark.parametrize("n", [0.0, 42.2, math.nan, math.inf])
def test_n_must_be_a_positive_integer(n):
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        kstwo_sf([0.3], n)
