"""Euclidean heat and Poisson kernels: closed forms and alternative routes.

Closed-form reference values were frozen from an independent 30-digit
computation of (4 pi t)^(-n/2) exp(-r^2/4t) and
Gamma((n+1)/2) pi^(-(n+1)/2) y (r^2+y^2)^(-(n+1)/2).
"""

import math
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckernels import Space, euclid, evaluate
from ckernels.errors import DomainError

EPS = 2.0**-52

HEAT_N3_T08_R15 = 0.015530552852043673
HEAT_N2_T03_R07 = 0.1763323387835621
HEAT_N5_T21_R00 = 0.00027952914949114206
POISSON_N1_Y09_R13 = 0.11459155902616464
POISSON_N2_Y09_R13 = 0.036237032715230665
POISSON_N3_Y09_R13 = 0.014590250444496639
POISSON_N4_Y05_R22 = 0.0006500354870413713


# ---------------------------------------------------------------------------
# closed forms


def test_heat_closed_frozen_values():
    assert euclid.heat_closed(3, 0.8, 1.5) == pytest.approx(HEAT_N3_T08_R15, rel=1e-13)
    assert euclid.heat_closed(2, 0.3, 0.7) == pytest.approx(HEAT_N2_T03_R07, rel=1e-13)
    assert euclid.heat_closed(5, 2.1, 0.0) == pytest.approx(HEAT_N5_T21_R00, rel=1e-13)


def test_poisson_closed_frozen_values():
    assert euclid.poisson_closed(1, 0.9, 1.3) == pytest.approx(POISSON_N1_Y09_R13, rel=1e-13)
    assert euclid.poisson_closed(2, 0.9, 1.3) == pytest.approx(POISSON_N2_Y09_R13, rel=1e-13)
    assert euclid.poisson_closed(3, 0.9, 1.3) == pytest.approx(POISSON_N3_Y09_R13, rel=1e-13)
    assert euclid.poisson_closed(4, 0.5, 2.2) == pytest.approx(POISSON_N4_Y05_R22, rel=1e-13)


def test_heat_closed_peak_value():
    for n in (1, 2, 3):
        assert euclid.heat_closed(n, 0.6, 0.0) == pytest.approx(
            (4.0 * math.pi * 0.6) ** (-0.5 * n), rel=1e-15
        )


def _log_space_heat(n: int, t: float, r: float) -> float:
    """(4 pi t)^(-n/2) exp(-r^2/4t) as one 40-digit exponent, rounded once."""
    with mpmath.workdps(40):
        t, r = mpmath.mpf(t), mpmath.mpf(r)
        return float(mpmath.exp(-n * mpmath.log(4 * mpmath.pi * t) / 2 - r * r / (4 * t)))


@pytest.mark.parametrize("n", range(1, 16))
@pytest.mark.parametrize("t", [1e-300, 1e-200, 1e-30])
@pytest.mark.parametrize("r", [1e-3, 1.0])
def test_heat_closed_at_a_tiny_time_is_the_kernel(n, t, r):
    # the amplitude alone overflows from n = 3 at t = 1e-300 and n = 4 at
    # t = 1e-200, where exp(-r^2/4t) makes the kernel 0
    assert euclid.heat_closed(n, t, r) == _log_space_heat(n, t, r)


@pytest.mark.parametrize(
    "n,t,r",
    [
        # the amplitude overflows, and the kernel is a float near 1e-100
        (15, 1e-50, 6.56e-24), (5, 1e-300, 8.83e-149), (3, 1e-300, 7.1e-149),
        # exp(-r^2/4t) alone is subnormal (r^2/4t = 740) or 0 (800): the
        # product was 0.26% off, or 0 against 2.5e-56
        (15, 1e-40, 5.44e-19), (15, 1e-40, 5.657e-19),
    ],
)
def test_heat_closed_past_its_factors_is_a_float(n, t, r):
    ref = _log_space_heat(n, t, r)
    assert 1e-120 < ref < 1e-20
    # the exponent's terms are ~1e3, whose rounding the value inherits
    assert euclid.heat_closed(n, t, r) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_heat_closed_overflows_with_the_kernel():
    with pytest.raises(OverflowError):
        euclid.heat_closed(5, 1e-300, 0.0)


def test_poisson_closed_halfplane_formula():
    y, r = 0.4, 1.1
    assert euclid.poisson_closed(1, y, r) == pytest.approx(
        y / (math.pi * (r * r + y * y)), rel=1e-15
    )


def test_domain_validation():
    with pytest.raises(DomainError):
        euclid.heat_closed(0, 1.0, 1.0)
    with pytest.raises(DomainError):
        euclid.heat_closed(2, -1.0, 1.0)
    with pytest.raises(DomainError):
        euclid.heat_closed(2, 1.0, -0.5)
    with pytest.raises(DomainError):
        euclid.poisson_closed(2, 0.0, 1.0)


# ---------------------------------------------------------------------------
# scaling symmetries (hypothesis)


pos = st.floats(min_value=0.1, max_value=3.0, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), pos, pos, st.floats(min_value=0.3, max_value=2.5))
def test_heat_parabolic_scaling(n, t, r, a):
    left = euclid.heat_closed(n, a * a * t, a * r) * a**n
    assert left == pytest.approx(euclid.heat_closed(n, t, r), rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), pos, pos, st.floats(min_value=0.3, max_value=2.5))
def test_poisson_homogeneous_scaling(n, y, r, a):
    left = euclid.poisson_closed(n, a * y, a * r) * a**n
    assert left == pytest.approx(euclid.poisson_closed(n, y, r), rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), pos, pos, pos)
def test_heat_decreases_with_distance(n, t, r, dr):
    assert euclid.heat_closed(n, t, r + dr) < euclid.heat_closed(n, t, r)


# ---------------------------------------------------------------------------
# heat representations against the closed form


HEAT_POINTS = [(0.3, 0.7), (0.8, 1.5), (2.0, 0.0), (1.2, 2.4)]


@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("t,r", HEAT_POINTS)
def test_heat_raise_odd_is_machine_exact(n, t, r):
    res = euclid.heat_raise(n, t, r)
    # at r = 0 the pole jet claims its rounding, one product per raise
    assert res.err_estimate <= (n - 1) * EPS * res.value if r == 0.0 else res.err_estimate == 0.0
    assert res.value == pytest.approx(euclid.heat_closed(n, t, r), rel=1e-12)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("t,r", HEAT_POINTS)
def test_heat_raise_even(n, t, r):
    res = euclid.heat_raise(n, t, r, tol=1e-11)
    assert res.value == pytest.approx(euclid.heat_closed(n, t, r), rel=5e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("t,r", HEAT_POINTS)
def test_heat_descent(n, t, r):
    res = euclid.heat_descent(n, t, r, tol=1e-11)
    assert res.value == pytest.approx(euclid.heat_closed(n, t, r), rel=5e-10)


@pytest.mark.parametrize("n", range(1, 16))
@pytest.mark.parametrize("t", [1e-3, 0.1, 9.0])
def test_heat_descent_at_the_origin_takes_one_sweep(sweeps, n, t):
    # the first fall-off panel, halved in the endpoint variable u = sqrt(s),
    # holds the Gaussian's flat top; unseeded it took a second sweep
    euclid.heat_descent(n, t, 0.0)
    assert sweeps[0] <= 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("t,r", HEAT_POINTS)
def test_heat_contour(n, t, r):
    res = euclid.heat_gruet(n, t, r, tol=1e-11)
    exact = euclid.heat_closed(n, t, r)
    assert res.value == pytest.approx(exact, rel=5e-9)
    assert abs(res.value - exact) <= max(10.0 * res.err_estimate, 1e-12 * exact)


def test_heat_contour_deformation_invariance():
    base = euclid.heat_gruet(3, 0.9, 1.4, sigma=0.7, tol=1e-11)
    other = euclid.heat_gruet(3, 0.9, 1.4, sigma=1.8, tol=1e-11)
    assert other.value == pytest.approx(base.value, rel=1e-9)


def test_heat_raise_guard_band():
    # near the origin raising takes the pole jet, within its err of the
    # closed form, where it used to refuse 0 < r < 1e-3
    for n in (3, 4, 9, 15):
        for r in (1e-5, 0.0021, 0.0076):
            res = euclid.heat_raise(n, 0.5, r)
            assert abs(res.value - euclid.heat_closed(n, 0.5, r)) <= res.err_estimate
    # r = 0 itself goes through the exact parity path
    assert euclid.heat_raise(3, 0.5, 0.0).value == pytest.approx(
        euclid.heat_closed(3, 0.5, 0.0), rel=1e-12
    )


# ---------------------------------------------------------------------------
# poisson representations against the closed form


POISSON_POINTS = [(0.9, 1.3), (0.5, 2.2), (1.5, 0.0)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("y,r", POISSON_POINTS)
def test_poisson_integral_representation(n, y, r):
    res = euclid.poisson_integral(n, y, r, tol=1e-12)
    assert res.value == pytest.approx(euclid.poisson_closed(n, y, r), rel=1e-10)


@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("y,r", POISSON_POINTS)
def test_poisson_raise_odd_is_machine_exact(n, y, r):
    res = euclid.poisson_raise(n, y, r)
    assert res.err_estimate <= (n - 1) * EPS * res.value if r == 0.0 else res.err_estimate == 0.0
    assert res.value == pytest.approx(euclid.poisson_closed(n, y, r), rel=1e-12)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("y,r", POISSON_POINTS)
def test_poisson_raise_even(n, y, r):
    res = euclid.poisson_raise(n, y, r, tol=1e-11)
    assert res.value == pytest.approx(euclid.poisson_closed(n, y, r), rel=5e-10)


EVEN_RAISE_POINTS = POISSON_POINTS + [(0.1, 2.9), (0.9, 0.0)]


def _assert_honest_poisson_raise(n, y, r):
    res = euclid.poisson_raise(n, y, r)
    want = euclid.poisson_closed(n, y, r)
    assert abs(res.value - want) <= max(res.err_estimate, 1e-10 * abs(want))


@pytest.mark.parametrize("n", range(2, 16, 2))
@pytest.mark.parametrize("y,r", EVEN_RAISE_POINTS)
def test_poisson_raise_even_outside_is_honest(n, y, r):
    _assert_honest_poisson_raise(n, y, r)


_CONDITION_LIMITED = pytest.mark.xfail(
    strict=False, reason="ROADMAP item 1: raising is condition-limited here"
)


@pytest.mark.parametrize(
    "y,r,n",
    [(8.6, 1.07, 12), pytest.param(8.6, 1.07, 14, marks=_CONDITION_LIMITED),
     pytest.param(9.2, 1.07, 12, marks=_CONDITION_LIMITED),
     pytest.param(9.2, 1.07, 14, marks=_CONDITION_LIMITED)],
)
def test_poisson_raise_even_outside_condition_limited(n, y, r):
    _assert_honest_poisson_raise(n, y, r)


@pytest.mark.parametrize("n", [2, 8, 14])
@pytest.mark.parametrize("route", [euclid.heat_raise, euclid.poisson_raise], ids=["heat", "poisson"])
def test_even_raise_runs_no_quadrature(route, n):
    # even n raises the closed 2-d kernel, as odd n raises the 1-d one
    for p, r in EVEN_RAISE_POINTS:
        assert route(n, p, r).n_evals == 0


@pytest.mark.parametrize(
    "route, closed",
    [(euclid.heat_raise, euclid.heat_closed), (euclid.poisson_raise, euclid.poisson_closed)],
    ids=["heat", "poisson"],
)
def test_even_raise_at_n2_is_the_closed_form(route, closed):
    for p, r in EVEN_RAISE_POINTS:
        assert route(2, p, r).value == pytest.approx(closed(2, p, r), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("y,r", POISSON_POINTS)
def test_poisson_descent(n, y, r):
    res = euclid.poisson_descent(n, y, r, tol=1e-11)
    assert res.value == pytest.approx(euclid.poisson_closed(n, y, r), rel=5e-10)


def test_poisson_raise_guard_band():
    for n in (3, 4, 9, 14):
        for r in (1e-5, 0.0021, 0.0076):
            res = euclid.poisson_raise(n, 0.5, r)
            assert abs(res.value - euclid.poisson_closed(n, 0.5, r)) <= res.err_estimate
    assert euclid.poisson_raise(5, 0.8, 0.0).value == pytest.approx(
        euclid.poisson_closed(5, 0.8, 0.0), rel=1e-12
    )


@pytest.mark.parametrize("rep", ["closed", "auto", "raise"])
@pytest.mark.parametrize("r", [0.0, 1e-3])
@pytest.mark.parametrize("y", [1e-100, 1e-200, 1e-300])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_poisson_where_y_squared_underflows(n, y, r, rep):
    # y^2 (and r^2 + y^2 at r = 0) is 0 in floats here: the closed form
    # divided by it, the 1-d jet divided by it and the 2-d one raised it to a
    # power.  The log-space kernel either overflows, or the row returns it
    # within its error; `raise` may refuse with OverflowError instead
    half = 0.5 * (n + 1)
    log_kernel = (math.lgamma(half) - half * math.log(math.pi) + math.log(y)
                  - (n + 1) * math.log(math.hypot(r, y)))
    route = lambda: evaluate(Space.EUCLIDEAN, n, "poisson", y, r, rep=rep)
    if log_kernel > math.log(sys.float_info.max) or rep == "raise":
        try:
            res = route()
        except OverflowError:
            return
        assert log_kernel <= math.log(sys.float_info.max)
    else:
        res = route()
    want = math.exp(log_kernel)
    assert abs(res.value - want) <= max(res.err_estimate, 1e-12 * want)


def test_poisson_closed_scales_where_rho_alone_overflows():
    # r >> y, both tiny: rho^-4 overflows, y rho^-5 = 1e200 does not
    want = math.gamma(2.5) / math.pi**2.5 * 1e200
    assert euclid.poisson_closed(4, 1e-300, 1e-100) == pytest.approx(want, rel=1e-14)
