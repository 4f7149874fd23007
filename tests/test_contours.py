"""The Gruet contour rows at their default abscissa, the saddle point.

The honesty gate runs ``gruet`` on the three spaces over a grid of n, t and r
and compares every value with an independent row: the closed form on R^n,
the eigenfunction series on S^n (t >= SPECTRAL_MIN_T) and the oscillatory
line integral ``gruet-classic`` on H^n (t >= 0.5).  Each pair must agree
within the sum of the two errors; no cell of the grid refuses.
"""

import math

import pytest

from ckernels import euclid, hyperbolic, sphere
from ckernels.quadrature import sigma_default, sigma_saddle

DIMS = (1, 2, 3, 4, 7, 8, 12, 15)
TIMES = (1e-3, 0.01, 0.1, 0.9, 9.0, 100.0)
RADII = (0.0, 0.02, 0.3, 1.0, 2.0, 3.0)


def _flat_log_modulus(n, t, r, s):
    """log of 2 s exp(s^2/4t) (r^2 + s^2)^(-(n+1)/2) on the real axis."""
    return math.log(2.0 * s) + s * s / (4.0 * t) - 0.5 * (n + 1) * math.log(r * r + s * s)


@pytest.mark.parametrize("n, t, r", [(8, 0.1, 0.0), (4, 0.2, 0.3), (15, 0.05, 0.5), (2, 0.9, 0.5)])
def test_saddle_is_the_flat_modulus_minimum(n, t, r):
    s = sigma_saddle(n, t, r, math.inf)
    h = 1e-4 * s
    mid = _flat_log_modulus(n, t, r, s)
    assert mid < _flat_log_modulus(n, t, r, s - h)
    assert mid < _flat_log_modulus(n, t, r, s + h)


@pytest.mark.parametrize(
    "n, t, r",
    [
        (3, 0.1, 1.0),  # 2nt <= r^2: no interior minimum
        (2, 0.8, 1.5),  # 2nt > r^2, but a negative discriminant
        (1, 1e300, 1e150),  # the discriminant overflows to nan
    ],
)
def test_without_a_saddle_the_abscissa_is_the_default_rule(n, t, r):
    assert sigma_saddle(n, t, r, 3.0) == sigma_default(t, r, 3.0)


def test_saddle_keeps_the_caps():
    # the saddle sigma^2 = 2nt at r = 0 lies past both caps
    assert sigma_saddle(8, 0.85, 0.0, 3.0) == 3.0
    assert sigma_saddle(15, 100.0, 0.5, math.pi) == math.pi
    # and past the small-t cancellation cap sqrt(4t log 1e9 - r^2)
    t, r = 0.01, 0.8
    assert sigma_saddle(15, t, r, 3.0) == pytest.approx(math.sqrt(4.0 * t * math.log(1e9) - r * r))


def _has_reference(space, t):
    return space == "euclidean" or t >= (sphere.SPECTRAL_MIN_T if space == "sphere" else 0.5)


def _reference(space, n, t, r):
    """(value, err) of an independent row."""
    if space == "euclidean":
        return euclid.heat_closed(n, t, r), 0.0
    route = sphere.heat_spectral if space == "sphere" else hyperbolic.heat_classic
    res = route(n, t, r)
    return res.value, res.err_estimate


# Off the saddle (2nt <= r^2 at t = 1e-3), the default abscissa's last
# contour panel reaches past the envelope's e^-25 point, where K15 - G7 does
# not bound the rounding of values cancelling to 0: R^3 (1e-3, 2) returns
# 2.81e-12 +- 4.3e-13 against 0.
FALSE_CLAIMS = {
    ("euclidean", 3, 1e-3, 2.0), ("euclidean", 7, 1e-3, 3.0), ("euclidean", 8, 1e-3, 3.0),
}
_FALSE_CLAIM = pytest.mark.xfail(
    strict=True, reason="the contour's rounding past its envelope fall-off is not in its error"
)


def _grid():
    cells = []
    for space in ("euclidean", "sphere", "hyperbolic"):
        for n in DIMS:
            for t in TIMES:
                if not _has_reference(space, t):
                    continue
                for r in RADII:
                    marks = [_FALSE_CLAIM] if (space, n, t, r) in FALSE_CLAIMS else []
                    cells.append(pytest.param(space, n, t, r, marks=marks))
    return cells


@pytest.mark.parametrize("space, n, t, r", _grid())
def test_gruet_is_within_its_error_of_an_independent_row(space, n, t, r):
    route = {"euclidean": euclid, "sphere": sphere, "hyperbolic": hyperbolic}[space].heat_gruet
    res = route(n, t, r)
    want, want_err = _reference(space, n, t, r)
    assert abs(res.value - want) <= res.err_estimate + want_err
