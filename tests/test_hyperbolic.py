"""Hyperbolic heat and Poisson kernels.

Frozen values come from independent 30-digit computations: the
(rho/sinh rho)-corrected Gaussian in dimension 3, high-precision descent
quadrature for dimension 2, symbolic differentiation of those base cases for
dimensions 4 and 5, and the closed strip form for the Poisson kernel.  All
heat values are in the convention whose total mass grows as
exp((n-1)^2 t / 4); "markovian" rescales to unit mass.
"""

import json
import math
import os
import sys

import mpmath
import pytest

from ckernels import analysis, hyperbolic
from ckernels.errors import ConvergenceError, DomainError, SingularPointError
from ckernels.geometry import Space
from ckernels.quadrature import DEFAULT_TOL

HEAT_N3_T08_R15 = 0.010940710117840375
HEAT_N3_T03_R22 = 0.0011945895476972103
HEAT_N2_T08_R15 = 0.039152068486058744
HEAT_N2_T03_R22 = 0.003239342573697513
HEAT_N4_T08_R15 = 0.00336306035647014
HEAT_N5_T08_R15 = 0.0011249493073970195
POISSON_N1_Y09_R14 = 0.081521799162612736
POISSON_N2_Y09_R14 = 0.023306875239189156
POISSON_N3_Y22_R08 = 0.0055212145626571147


def closed3(t: float, rho: float) -> float:
    """The exact 3-dimensional kernel (rho/sinh rho) Gaussian."""
    ratio = 1.0 if rho == 0.0 else rho / math.sinh(rho)
    return (4.0 * math.pi * t) ** -1.5 * ratio * math.exp(-rho * rho / (4.0 * t))


# ---------------------------------------------------------------------------
# raising (odd dimensions)


def test_heat_raise_frozen_values():
    assert hyperbolic.heat_raise(3, 0.8, 1.5).value == pytest.approx(
        HEAT_N3_T08_R15, rel=1e-12
    )
    assert hyperbolic.heat_raise(3, 0.3, 2.2).value == pytest.approx(
        HEAT_N3_T03_R22, rel=1e-12
    )
    assert hyperbolic.heat_raise(5, 0.8, 1.5).value == pytest.approx(
        HEAT_N5_T08_R15, rel=1e-12
    )


def test_heat_raise_dimension_three_closed_form():
    for t, rho in [(0.25, 0.6), (1.7, 3.1), (0.6, 0.0)]:
        assert hyperbolic.heat_raise(3, t, rho).value == pytest.approx(
            closed3(t, rho), rel=1e-12
        )


def test_heat_raise_dimension_one_is_flat_gaussian():
    t, rho = 0.9, 1.2
    flat = (4.0 * math.pi * t) ** -0.5 * math.exp(-rho * rho / (4.0 * t))
    assert hyperbolic.heat_raise(1, t, rho).value == pytest.approx(flat, rel=1e-14)


def test_heat_raise_guard_band_extrapolation():
    # near rho = 0 the pole jet, within an err that meets the default tol
    t = 0.5
    for rho in (0.004, 0.009):
        res = hyperbolic.heat_raise(3, t, rho)
        want = closed3(t, rho)
        assert abs(res.value - want) <= res.err_estimate <= 1e-10 * want
    # rho = 0 itself is exact by parity
    assert hyperbolic.heat_raise(3, t, 0.0).value == pytest.approx(
        closed3(t, 0.0), rel=1e-12
    )


def test_heat_raise_rejects_even_dimension():
    with pytest.raises(DomainError):
        hyperbolic.heat_raise(2, 0.5, 1.0)


def test_markovian_convention_restores_unit_mass_scale():
    # the routes give the paper kernel; evaluate applies the convention
    t, rho = 0.8, 1.5
    paper = analysis.evaluate(Space.HYPERBOLIC, 3, "heat", t, rho, rep="raise").value
    markov = analysis.evaluate(
        Space.HYPERBOLIC, 3, "heat", t, rho, rep="raise", convention="markovian"
    ).value
    assert markov == pytest.approx(paper * math.exp(-t), rel=1e-14)
    with pytest.raises(DomainError):
        analysis.evaluate(Space.HYPERBOLIC, 3, "heat", t, rho, rep="raise", convention="physical")


# ---------------------------------------------------------------------------
# descent (even dimensions)


def test_heat_descent_frozen_values():
    assert hyperbolic.heat_descent(2, 0.8, 1.5).value == pytest.approx(HEAT_N2_T08_R15, rel=5e-10)
    assert hyperbolic.heat_descent(2, 0.3, 2.2).value == pytest.approx(HEAT_N2_T03_R22, rel=5e-10)
    assert hyperbolic.heat_descent(4, 0.8, 1.5).value == pytest.approx(HEAT_N4_T08_R15, rel=5e-10)


def test_heat_descent_rejects_odd_dimension():
    with pytest.raises(DomainError):
        hyperbolic.heat_descent(3, 0.5, 1.0)


def test_heat_descent_near_origin():
    for rho in (0.0, 0.003):
        res = hyperbolic.heat_descent(2, 0.7, rho)
        ref = hyperbolic.heat_gruet(2, 0.7, rho, tol=1e-13)
        assert abs(res.value - ref.value) <= DEFAULT_TOL * abs(ref.value) + ref.err_estimate


# the guard-band cells of the benchmark's H^n descent pool: the first fall-off
# panel, halved in the endpoint variable down to the scale rho, finishes in
# one sweep, where 6 + 4 + 4 panels in three sweeps did
@pytest.mark.parametrize("n", [2, 4, 6, 8])
@pytest.mark.parametrize("t", [0.09306, 0.1])
@pytest.mark.parametrize("rho", [0.0, 0.003, 0.0075])
def test_descent_next_to_the_pole_takes_one_sweep(sweeps, n, t, rho):
    hyperbolic.heat_descent(n, t, rho)
    assert sweeps[0] <= 1


# ROADMAP item 11's grid: the even descent against the contour rows at tol
# 1e-13, from the pole to rho = 1.5.  Near the pole at n >= 10 and large t
# the direct raise at the nodes cancels (ROADMAP item 1), so the quadrature
# cannot meet tol there and refuses with ConvergenceError
DESCENT_REFUSALS = {
    (n, rho, t)
    for rho in (0.0, 0.005, 0.02)
    for n, t in [(10, 0.9), (10, 9.0), (12, 0.9), (12, 9.0), (14, 0.05), (14, 0.9), (14, 9.0)]
}


@pytest.mark.parametrize("n", range(2, 16, 2))
@pytest.mark.parametrize("rho", [0.0, 0.005, 0.02, 0.5, 1.5])
@pytest.mark.parametrize("t", [1e-3, 0.05, 0.9, 9.0])
def test_even_descent_is_within_its_error_or_refuses(n, rho, t):
    reference = hyperbolic.heat_gruet if t < 0.5 else hyperbolic.heat_classic
    ref = reference(n, t, rho, tol=1e-13)
    try:
        res = hyperbolic.heat_descent(n, t, rho)
    except ConvergenceError:
        assert (n, rho, t) in DESCENT_REFUSALS
        return
    bound = max(res.err_estimate, DEFAULT_TOL * abs(ref.value)) + ref.err_estimate
    assert abs(res.value - ref.value) <= bound


# The even descent against 30-digit mpmath quadratures of the same integral
# (tests/make_descent_references.py), on a grid that reaches into the
# benchmark pool's guard band next to the pole, by ROADMAP item 1's rule.
# From n = 10 on, near the pole, the direct raise at the nodes just past
# SERIES_REACH cancels (ROADMAP item 1): the quadrature cannot meet tol and
# refuses with ConvergenceError, or at three cells its rounding passes the
# quadrature unseen and the value misses its error.
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "hyperbolic_descent_references.json")) as fh:
    DESCENT_CELLS = json.load(fh)
_EVERY_RHO = (0.0, 1e-4, 1e-3, 0.005, 0.02, 0.05, 0.1)
DESCENT_REF_REFUSALS = {
    (10, 0.3): (0.1,),
    (10, 0.9): _EVERY_RHO,
    (12, 0.05): (0.1,),
    (12, 0.1): _EVERY_RHO,
    **{(n, t): _EVERY_RHO + (0.2,) for n in (12, 14) for t in (0.3, 0.9)},
    (14, 0.05): _EVERY_RHO,
    (14, 0.1): _EVERY_RHO,
}
DESCENT_MISS = pytest.mark.xfail(
    strict=True, reason="the direct raise at the nodes cancels unseen: ROADMAP item 1"
)
DESCENT_MISSES = {(10, 0.3, 0.005), (12, 0.05, 0.001), (14, 0.1, 0.2)}


@pytest.mark.parametrize(
    "n, t, rho, ref",
    [
        pytest.param(
            c["n"], c["t"], c["rho"], float(c["ref"]),
            marks=[DESCENT_MISS] if (c["n"], c["t"], c["rho"]) in DESCENT_MISSES else [],
        )
        for c in DESCENT_CELLS
    ],
)
def test_descent_is_within_its_error_against_references(n, t, rho, ref):
    try:
        res = hyperbolic.heat_descent(n, t, rho)
    except ConvergenceError:
        assert rho in DESCENT_REF_REFUSALS.get((n, t), ())
        return
    assert abs(res.value - ref) <= max(res.err_estimate, DEFAULT_TOL * abs(ref))


# ---------------------------------------------------------------------------
# oscillatory line integral and vertical contour


@pytest.mark.parametrize(
    "n,frozen",
    [
        (2, HEAT_N2_T08_R15),
        (3, HEAT_N3_T08_R15),
        (4, HEAT_N4_T08_R15),
        (5, HEAT_N5_T08_R15),
    ],
)
def test_heat_classic_frozen_values(n, frozen):
    res = hyperbolic.heat_classic(n, 0.8, 1.5, tol=1e-10)
    assert res.value == pytest.approx(frozen, rel=1e-8)
    # the oscillatory cancellation makes the roundoff floor approximate; the
    # estimate must still be within two orders of the realized error
    assert abs(res.value - frozen) <= max(100.0 * res.err_estimate, 1e-10 * frozen)


def test_heat_classic_large_time_uses_log_form():
    res = hyperbolic.heat_classic(3, 40.0, 1.0, tol=1e-9)
    assert res.value == pytest.approx(closed3(40.0, 1.0), rel=1e-7)


@pytest.mark.parametrize(
    "n,frozen",
    [
        (2, HEAT_N2_T08_R15),
        (3, HEAT_N3_T08_R15),
        (4, HEAT_N4_T08_R15),
        (5, HEAT_N5_T08_R15),
    ],
)
def test_heat_contour_frozen_values(n, frozen):
    res = hyperbolic.heat_gruet(n, 0.8, 1.5, tol=1e-10)
    assert res.value == pytest.approx(frozen, rel=1e-8)


def test_heat_contour_deformation_invariance():
    a = hyperbolic.heat_gruet(3, 0.6, 1.8, sigma=0.5, tol=1e-10)
    b = hyperbolic.heat_gruet(3, 0.6, 1.8, sigma=2.8, tol=1e-10)
    assert b.value == pytest.approx(a.value, rel=1e-9)


# Large times against 30-digit values (tests/make_contour_references.py):
# odd n raised from the closed H^3 kernel, even n its descent integral, both
# in mpmath.  The float direct raise cancels here (ROADMAP item 1), so it is
# not gated; the two contour rows must be within their error at every cell.
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "contour_references.json")) as fh:
    CONTOUR_REFS = {(c["n"], c["t"], c["rho"]): float(c["ref"]) for c in json.load(fh)}


@pytest.mark.parametrize("n", [12, 13, 14, 15])
def test_heat_contour_at_large_time_underflows_to_zero(n):
    # past xi ~ 90 the base's power passes 1e308 in modulus: the integrand
    # is 0 there, not a non-finite value
    got = hyperbolic.heat_gruet(n, 100.0, 0.5)
    assert abs(got.value - CONTOUR_REFS[n, 100.0, 0.5]) <= got.err_estimate


@pytest.mark.parametrize("route", [hyperbolic.heat_gruet, hyperbolic.heat_classic],
                         ids=["gruet", "gruet-classic"])
@pytest.mark.parametrize("n, t, rho", sorted(CONTOUR_REFS))
def test_contours_are_within_their_error_at_large_time(route, n, t, rho):
    # gruet-classic's power (cosh rho + cosh xi)^((n+1)/2) used to overflow
    # from H^4 at t = 100, H^8 at t = 50 and H^11 at t = 30
    res = route(n, t, rho)
    assert abs(res.value - CONTOUR_REFS[n, t, rho]) <= res.err_estimate


def test_heat_contour_abscissa_range():
    with pytest.raises(DomainError):
        hyperbolic.heat_gruet(3, 0.5, 1.0, sigma=3.5)
    # rho = 0 is regular for the contour
    assert hyperbolic.heat_gruet(3, 0.5, 0.0, tol=1e-10).value == pytest.approx(
        closed3(0.5, 0.0), rel=1e-8
    )


def test_heat_small_time_and_large_distance():
    # sharp Gaussian regime: all working representations stay consistent
    t, rho = 0.1, 3.0
    want = closed3(t, rho)
    assert hyperbolic.heat_raise(3, t, rho).value == pytest.approx(want, rel=1e-12)
    assert hyperbolic.heat_gruet(3, t, rho, tol=1e-10).value == pytest.approx(
        want, rel=1e-7
    )


# ---------------------------------------------------------------------------
# poisson


def test_poisson_closed_frozen_values():
    assert hyperbolic.poisson_closed(1, 0.9, 1.4) == pytest.approx(
        POISSON_N1_Y09_R14, rel=1e-13
    )
    assert hyperbolic.poisson_closed(2, 0.9, 1.4) == pytest.approx(
        POISSON_N2_Y09_R14, rel=1e-13
    )
    assert hyperbolic.poisson_closed(3, 2.2, 0.8) == pytest.approx(
        POISSON_N3_Y22_R08, rel=1e-13
    )


def test_poisson_closed_log_form_seam():
    # p ~ exp(-(n+1) rho / 2) for large rho; the ratio over one unit of rho
    # at rho = 350 must follow that decay to machine accuracy
    for n in (1, 2, 3):
        lo = hyperbolic.poisson_closed(n, 1.0, 349.5)
        hi = hyperbolic.poisson_closed(n, 1.0, 350.5)
        assert lo > 0.0 and hi > 0.0
        assert hi / lo == pytest.approx(math.exp(-0.5 * (n + 1)), rel=1e-12)


def poisson_oracle(n: int, y: float, rho: float):
    """The closed strip form in 40-digit arithmetic, as printed."""
    with mpmath.workdps(40):
        h = mpmath.mpf(n + 1) / 2
        y, rho = mpmath.mpf(y), mpmath.mpf(rho)
        return mpmath.gamma(h) / (2 * mpmath.pi) ** h * mpmath.sin(y) / (
            mpmath.cosh(rho) - mpmath.cos(y)
        ) ** h


# small heights, where cosh rho - cos y cancels, and points where the power
# of the base overflowed although the kernel underflows
POISSON_ORACLE_POINTS = [
    (y, rho) for y in (1e-3, 0.001154, 0.05) for rho in (0.0, 2e-3, 1.0)
] + [(0.103, 278.7), (0.001082, 274.9), (0.001137, 261.4), (0.001006, 229.1), (2.0, 800.0)]


@pytest.mark.parametrize("n", range(1, 16))
def test_poisson_closed_matches_oracle(n):
    for y, rho in POISSON_ORACLE_POINTS:
        got, want = hyperbolic.poisson_closed(n, y, rho), poisson_oracle(n, y, rho)
        if abs(want) >= sys.float_info.min:
            assert abs((got - want) / want) <= 1e-14
        else:
            assert abs(got) < sys.float_info.min


def test_poisson_height_validation():
    for bad in (0.0, -0.5, math.pi, 4.0, math.inf):
        with pytest.raises(DomainError):
            hyperbolic.poisson_closed(2, bad, 1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_poisson_raise_matches_closed(n):
    for y, rho in [(0.9, 1.4), (2.2, 0.8), (1.5, 0.0)]:
        res = hyperbolic.poisson_raise(n, y, rho)
        assert res.value == pytest.approx(hyperbolic.poisson_closed(n, y, rho), rel=1e-11)


def test_poisson_raise_guard_band():
    # (n, y, rho, tol): the registry row passes tol on to the raise, so at
    # 1e-13 the pole series claims 1e-13, not the default tol's 2e-12
    for n, y, rho, tol in [(3, 1.0, 0.005, 1e-10), (15, 0.9, 0.05, 1e-13)]:
        res = analysis.evaluate(Space.HYPERBOLIC, n, "poisson", y, rho, rep="raise", tol=tol)
        want = hyperbolic.poisson_closed(n, y, rho)
        assert abs(res.value - want) <= res.err_estimate <= tol * want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_poisson_descent_matches_closed(n):
    for y, rho in [(0.9, 1.4), (2.2, 0.8)]:
        res = hyperbolic.poisson_descent(n, y, rho, tol=1e-11)
        assert res.value == pytest.approx(hyperbolic.poisson_closed(n, y, rho), rel=5e-10)


def test_poisson_tends_to_zero_at_infinity():
    vals = [hyperbolic.poisson_closed(2, 1.0, rho) for rho in (5.0, 50.0, 500.0)]
    assert vals[0] > vals[1] > vals[2] >= 0.0


# ---------------------------------------------------------------------------
# auto


def mp_heat4(t: float, rho: float) -> float:
    """The 4-dimensional kernel at 30 digits: the descent integral

    H_4(rho) = sqrt(2) integral_rho^inf H_5(s) sinh s (cosh s - cosh rho)^(-1/2) ds

    with H_5 sinh s = -(1/2 pi) d/ds H_3 taken from the exact 3-dimensional
    kernel, and s = rho + w^2 removing the endpoint singularity.
    """
    with mpmath.workdps(30):
        t, rho = mpmath.mpf(t), mpmath.mpf(rho)
        amp = (4 * mpmath.pi * t) ** -1.5

        def d_heat3(s):
            sh = mpmath.sinh(s)
            return amp * mpmath.exp(-s * s / (4 * t)) * (
                (sh - s * mpmath.cosh(s)) / sh**2 - s * s / (2 * t * sh)
            )

        def f(w):
            s = rho + w * w
            gap = 2 * mpmath.sinh((s + rho) / 2) * mpmath.sinh(w * w / 2)
            return d_heat3(s) / mpmath.sqrt(gap) * 2 * w

        # the Gaussian factor is below 1e-50 past the top
        top = mpmath.sqrt(mpmath.sqrt(rho * rho + 4 * t * 120) - rho)
        total = mpmath.quad(f, mpmath.linspace(0, top, 9))
        return float(-mpmath.sqrt(2) / (2 * mpmath.pi) * total)


def test_mp_heat4_matches_frozen_value():
    assert mp_heat4(0.8, 1.5) == pytest.approx(HEAT_N4_T08_R15, rel=1e-13)


def test_auto_heat_at_large_time():
    # descent, the only even-n row auto took before, runs out of bisection
    # depth here (ConvergenceError); the walk returns the contour value
    res = analysis.evaluate(Space.HYPERBOLIC, 4, "heat", 200.0, 1.0)
    want = mp_heat4(200.0, 1.0)
    assert f"{res.value:.2e}" == "1.19e-06"
    assert abs(res.value - want) <= max(res.err_estimate, 1e-10 * abs(want))
