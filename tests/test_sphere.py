"""Sphere heat and Poisson kernels against eigenfunction-expansion oracles.

The frozen values come from 30-digit spectral sums (Fourier series on the
circle, Legendre series on the 2-sphere, sine series on the 3-sphere), which
share no code or mathematical route with the package's image sums, raising
recursion, or contour integrals.  The runtime oracle below extends the same
expansion to any dimension through Gegenbauer polynomials:

    h_n(t, phi) = sum_l exp(-(l + (n-1)/2)^2 t) (2l + n - 1)/(n - 1)
                  C_l^((n-1)/2)(cos phi) / vol(S^n).

Both use the normalization in which total mass decays as exp(-(n-1)^2 t/4).
Where the sum cancels (near the antipode) or its value nears the underflow
threshold, the same series is summed in 40-digit mpmath arithmetic with
mpmath's own Gegenbauer polynomials instead.
"""

import json
import math
import os
import sys
import time

import mpmath
import pytest
from scipy.special import eval_gegenbauer

from ckernels import analysis, sphere
from ckernels.errors import ConvergenceError, DomainError, SingularPointError
from ckernels.geometry import Space

THETA1_T07_P11 = 0.21888416330250216
THETA1_T025_P29 = 0.00013163819524974176
THETA2_T07_P11 = 0.088212668150802007
THETA2_T025_P29 = 0.00028229199088512984
THETA3_T07_P11 = 0.030694469626993302
THETA3_T025_P29 = 0.00045747064507240986
SPHERE2_SPECTRAL_T15_P04 = 0.062242941105411673
POISSON_N1_Y07_P12 = 0.13522717790644064
POISSON_N2_Y07_P12 = 0.050598677280631894
POISSON_N3_Y11_P25 = 0.0055469852461975508
DOUBLING_N1_Y08_P09 = 0.19745952068173536
DOUBLING_N2_Y08_P09 = 0.082514383773674493


def spectral_oracle(n: int, t: float, phi: float, terms: int = 80) -> float:
    """Eigenfunction-sum heat kernel on the n-sphere (n >= 2)."""
    alpha = 0.5 * (n - 1)
    vol = 2.0 * math.pi ** (0.5 * (n + 1)) / math.gamma(0.5 * (n + 1))
    c = math.cos(phi)
    total = 0.0
    for l in range(terms):
        total += (
            math.exp(-((l + alpha) ** 2) * t)
            * (2.0 * l + n - 1.0)
            / (n - 1.0)
            * float(eval_gegenbauer(l, alpha, c))
        )
    return total / vol


def mp_spectral_oracle(n: int, t: float, phi: float) -> float:
    """The same series at 40 digits, summed until the terms fall below 1e-45."""
    with mpmath.workdps(40):
        alpha = mpmath.mpf(n - 1) / 2
        vol = 2 * mpmath.pi ** (alpha + 1) / mpmath.gamma(alpha + 1)
        c = mpmath.cos(mpmath.mpf(phi))
        total = mpmath.mpf(0)
        for l in range(400):
            weight = mpmath.exp(-((l + alpha) ** 2) * t) * (2 * l + n - 1) / (n - 1)
            total += weight * mpmath.gegenbauer(l, alpha, c)
            # |C_l(c)| <= C_l(1) = binomial(l + 2 alpha - 1, l)
            if weight * mpmath.binomial(l + 2 * alpha - 1, l) < 1e-45 * abs(total):
                break
        return float(total / vol)


def circle_oracle(t: float, phi: float, terms: int = 80) -> float:
    s = 1.0 + 2.0 * sum(
        math.exp(-m * m * t) * math.cos(m * phi) for m in range(1, terms)
    )
    return s / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# theta series


def test_theta_series_frozen_spectral_values():
    assert sphere.heat_theta1(0.7, 1.1).value == pytest.approx(THETA1_T07_P11, rel=1e-12)
    assert sphere.heat_theta1(0.25, 2.9).value == pytest.approx(THETA1_T025_P29, rel=1e-12)
    assert sphere.heat_theta2(0.7, 1.1).value == pytest.approx(THETA2_T07_P11, rel=5e-11)
    assert sphere.heat_theta2(0.25, 2.9).value == pytest.approx(THETA2_T025_P29, rel=5e-11)
    assert sphere.heat_theta3(0.7, 1.1).value == pytest.approx(THETA3_T07_P11, rel=1e-12)
    assert sphere.heat_theta3(0.25, 2.9).value == pytest.approx(THETA3_T025_P29, rel=1e-12)
    assert sphere.heat_theta2(1.5, 0.4).value == pytest.approx(
        SPHERE2_SPECTRAL_T15_P04, rel=5e-11
    )


@pytest.mark.parametrize("t,phi", [(0.35, 0.6), (1.0, 2.0)])
def test_theta_series_cross_spectral_oracle(t, phi):
    assert sphere.heat_theta1(t, phi).value == pytest.approx(
        circle_oracle(t, phi), rel=1e-11
    )
    assert sphere.heat_theta2(t, phi).value == pytest.approx(
        spectral_oracle(2, t, phi), rel=1e-10
    )
    assert sphere.heat_theta3(t, phi).value == pytest.approx(
        spectral_oracle(3, t, phi), rel=1e-11
    )


def test_theta_error_estimates_are_honest():
    for t, phi, frozen in [(0.7, 1.1, THETA2_T07_P11), (0.25, 2.9, THETA2_T025_P29)]:
        res = sphere.heat_theta2(t, phi)
        assert abs(res.value - frozen) <= max(10.0 * res.err_estimate, 1e-14)


@pytest.mark.parametrize("t", [0.5, 0.9, 9.0])
def test_theta2_at_the_pole_for_large_t(t):
    # at phi = 0 each image m != 0 diverges logarithmically at psi = 0 and
    # only the pair m, -m is finite; integrated one by one they ran out of
    # bisection depth from t = 0.5 on
    res = sphere.heat_theta2(t, 0.0)
    ref = sphere.heat_spectral(2, t, 0.0, 1e-13)
    assert abs(res.value - ref.value) <= (
        max(res.err_estimate, 1e-10 * abs(ref.value)) + ref.err_estimate
    )


@pytest.mark.parametrize("t", [1e-300, 1e-200, 1e-30])
@pytest.mark.parametrize("phi", [1e-3, 1.0])
@pytest.mark.parametrize("n", [2, 3])
def test_theta_at_a_tiny_time_is_the_kernel(n, t, phi):
    # (4 pi t)^(-3/2) overflows at t = 1e-300: the theta rows raised
    # OverflowError where the kernel is 0.  Its leading image in one
    # exponent, (4 pi t)^(-n/2) (phi/sin phi)^((n-1)/2) exp(-phi^2/4t),
    # rounds to 0 here, and the other images are smaller still
    with mpmath.workdps(40):
        mt, mphi = mpmath.mpf(t), mpmath.mpf(phi)
        expo = -n * mpmath.log(4 * mpmath.pi * mt) / 2 - mphi**2 / (4 * mt)
        ref = float(mpmath.exp(expo) * (mphi / mpmath.sin(mphi)) ** ((n - 1) / 2))
    res = sphere.heat_theta(n, t, phi)
    assert ref == 0.0
    assert abs(res.value - ref) <= res.err_estimate < 1e-20


@pytest.mark.parametrize("x", [700.0, 712.0, 725.0, 735.0])
def test_theta3_is_within_its_error_at_a_large_exponent(x):
    # phi^2/4t = x: from 708 on exp(-x) alone is subnormal, the kernel a
    # normal float, and the image sum was up to 6% off, claiming err 0; at
    # 700 it was 1.5e-13 off, the rounding of x, claiming 1.8e-15
    t = 1e-15
    phi = math.sqrt(4.0 * t * x)
    with mpmath.workdps(40):
        mt, mphi = mpmath.mpf(t), mpmath.mpf(phi)
        expo = -(mphi**2) / (4 * mt)
        ref = float((4 * mpmath.pi * mt) ** -1.5 * mphi / mpmath.sin(mphi) * mpmath.exp(expo))
    res = sphere.heat_theta3(t, phi)
    assert ref > sys.float_info.min
    assert abs(res.value - ref) <= res.err_estimate <= 1e-12 * ref


@pytest.mark.parametrize("phi", [0.0, 1e-150, 6.06e-149])
def test_theta2_past_its_amplitude_is_the_flat_kernel(phi):
    # at t = 1e-300 the 2-sphere is flat to far below eps where its kernel
    # is a float: (4 pi t)^-1 exp(-phi^2/4t), one 40-digit exponent
    t = 1e-300
    with mpmath.workdps(40):
        mt, mphi = mpmath.mpf(t), mpmath.mpf(phi)
        ref = float(mpmath.exp(-mpmath.log(4 * mpmath.pi * mt) - mphi**2 / (4 * mt)))
    res = sphere.heat_theta2(t, phi)
    assert ref > 1e-120
    assert abs(res.value - ref) <= res.err_estimate <= 1e-11 * ref


def test_theta_dispatch():
    assert sphere.heat_theta(1, 0.5, 1.0).value == sphere.heat_theta1(0.5, 1.0).value
    assert sphere.heat_theta(3, 0.5, 1.0).value == sphere.heat_theta3(0.5, 1.0).value
    with pytest.raises(DomainError):
        sphere.heat_theta(4, 0.5, 1.0)


def test_theta_singular_points():
    with pytest.raises(SingularPointError):
        sphere.heat_theta3(0.5, 0.0)
    with pytest.raises(SingularPointError):
        sphere.heat_theta3(0.5, math.pi)
    with pytest.raises(SingularPointError):
        sphere.heat_theta2(0.5, math.pi)
    # the circle kernel is regular everywhere, including the antipode
    assert sphere.heat_theta1(0.5, math.pi).value > 0.0


@pytest.mark.parametrize("t", [1e8, 1e17, 1e300])
@pytest.mark.parametrize("n, rep", [(1, "theta"), (2, "theta"), (3, "theta"), (3, "raise"),
                                    (4, "raise"), (1, "gruet")])
def test_image_sums_refuse_past_their_count(n, rep, t):
    # the images grow like sqrt(t): at 1e300 the sums asked numpy for an
    # array past its size limit, and at 1e17 for more memory than there was;
    # each of these counts is refused before anything is allocated
    with pytest.raises(ConvergenceError, match="images a side"):
        analysis.evaluate(Space.SPHERE, n, "heat", t, 0.001, rep=rep)


@pytest.mark.parametrize("t", [1e8, 1e17, 1e300])
def test_auto_circle_heat_past_the_image_count_is_the_fourier_row(t):
    # auto refused here with the image sums; the Fourier row, ranked first
    # from t = 0.1 on, is its first term
    res = analysis.evaluate(Space.SPHERE, 1, "heat", t, 0.001)
    assert abs(res.value - 0.5 / math.pi) <= res.err_estimate <= 1e-15
    assert res.n_evals == 1


def test_theta_domain_validation():
    with pytest.raises(DomainError):
        sphere.heat_theta1(-0.5, 1.0)
    with pytest.raises(DomainError):
        sphere.heat_theta2(0.5, 3.5)


def test_theta_positivity():
    for t in (0.15, 0.7, 3.0):
        for phi in (0.1, 1.5, 3.0):
            assert sphere.heat_theta1(t, phi).value > 0.0
            if phi < math.pi:
                assert sphere.heat_theta2(t, phi).value > 0.0


# ---------------------------------------------------------------------------
# raising


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("t,phi", [(0.7, 1.1), (0.3, 2.2)])
def test_heat_raise_matches_spectral_oracle(n, t, phi):
    res = sphere.heat_raise(n, t, phi, tol=1e-9)
    assert res.value == pytest.approx(spectral_oracle(n, t, phi), rel=5e-8)


def test_heat_raise_origin_is_exact_for_odd_dimension():
    t = 0.6
    want = sum(k * k * math.exp(-k * k * t) for k in range(1, 60)) / (
        2.0 * math.pi**2
    )
    assert sphere.heat_raise(3, t, 0.0).value == pytest.approx(want, rel=1e-11)
    want5 = spectral_oracle(5, t, 0.0)
    assert sphere.heat_raise(5, t, 0.0).value == pytest.approx(want5, rel=1e-10)


@pytest.mark.parametrize("n", [3, 4])
def test_heat_raise_guard_band_extrapolation(n):
    # both parities within POLE_REACH of both poles: odd n takes the pole
    # jets, even n the pole series at the nodes of its integral
    t = 0.7
    for phi in (0.004, math.pi - 0.004):
        res = sphere.heat_raise(n, t, phi, tol=1e-9)
        want = spectral_oracle(n, t, phi)
        assert abs(res.value - want) <= res.err_estimate <= 2e-9 * abs(want)


def test_heat_raise_skips_wrapped_pieces_that_underflow():
    # at t ~ 0.001 far from the pole every image's Gaussian underflows to 0
    # on [phi, pi]: nothing is integrated
    res = sphere.heat_raise(14, 0.001158, 2.818)
    assert (res.value, res.err_estimate, res.n_evals) == (0.0, 0.0, 0)


@pytest.mark.parametrize(
    "n, t, phi, frozen",
    [
        (8, 0.001073, 1.137, 1.0251629755530488e-123),
        (12, 0.001156, 1.116, 3.674239817481451e-106),
    ],
)
def test_heat_raise_skipped_pieces_keep_the_value(n, t, phi, frozen):
    # past psi = sqrt(4t 746) every image's Gaussian is exactly 0, and the
    # integral leaves that range out; the value is within its error
    res = sphere.heat_raise(n, t, phi)
    assert abs(res.value - frozen) <= res.err_estimate <= 1e-10 * frozen


@pytest.mark.parametrize(
    "n, t, phi, frozen",
    [
        # 40-digit spectral sums (perfbench/make_references.py)
        (10, 0.0011, 1.0, 8.478611376859583e-90),
        (14, 0.001122, 1.015, 5.742663528303872e-87),
    ],
)
def test_heat_raise_answers_where_a_piece_is_subnormal(n, t, phi, frozen):
    # an image's high piece peaks at a subnormal: its K15 - G7 differences
    # cannot fall below a relative target there, and once exhausted the panel
    # budget; the quadrature's floor of the least normal float per unit
    # length ends it in one sweep
    res = sphere.heat_raise(n, t, phi)
    assert abs(res.value - frozen) <= res.err_estimate <= 1e-9 * frozen


# ROADMAP item 16's grid: even n raised under the 2-sphere's integral,
# against 30-digit spectral sums (tests/make_sphere_raise_references.py).
# Where the direct raise at the nodes cancels (ROADMAP item 1), its rounding
# is noise that the quadrature cannot resolve, and it refuses with
# ConvergenceError.  Next to the antipode every node takes the pole series,
# whose err carries the images' cancellation: it answers within that, or
# refuses where that exceeds the value (t = 9, n >= 6).  At S^4 (9, 3) the
# direct raise's rounding is smooth enough to pass the quadrature unseen.
_HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(_HERE, "sphere_raise_references.json")) as fh:
    RAISE_CELLS = json.load(fh)
_NEAR_POLE = (0.0, 0.005, 0.02)
_EVERY_ANGLE = _NEAR_POLE + (0.5, 1.5, 3.0, math.pi - 0.005, math.pi)
RAISE_REFUSALS = {
    (14, 0.05): _NEAR_POLE,
    (8, 0.9): _NEAR_POLE + (3.0,),
    (10, 0.9): _NEAR_POLE + (0.5, 3.0),
    (12, 0.9): _NEAR_POLE + (0.5, 1.5, 3.0),
    (14, 0.9): _NEAR_POLE + (0.5, 1.5, 3.0),
    (4, 9.0): _NEAR_POLE + (0.5, 1.5),
    **{(n, 9.0): _EVERY_ANGLE for n in (6, 8, 10, 12, 14)},
}
RAISE_MISS = pytest.mark.xfail(
    strict=True, reason="the direct raise at t = 9 cancels unseen: ROADMAP item 1"
)


@pytest.mark.parametrize(
    "n, t, phi, ref",
    [
        pytest.param(
            c["n"], c["t"], c["phi"], float(c["ref"]),
            marks=[RAISE_MISS] if (c["n"], c["t"], c["phi"]) == (4, 9.0, 3.0) else [],
        )
        for c in RAISE_CELLS
    ],
)
def test_even_raise_is_within_its_error_or_refuses(n, t, phi, ref):
    start = time.process_time()
    try:
        res = sphere.heat_raise(n, t, phi)
    except ConvergenceError:
        assert phi in RAISE_REFUSALS.get((n, t), ())
        assert time.process_time() - start < 0.5
        return
    assert abs(res.value - ref) <= max(res.err_estimate, 1e-10 * abs(ref))


# ---------------------------------------------------------------------------
# contour


@pytest.mark.parametrize(
    "n,t,phi,frozen,rtol",
    [
        (1, 0.7, 1.1, THETA1_T07_P11, 1e-9),
        (1, 0.25, 2.9, THETA1_T025_P29, 1e-8),
        (2, 0.7, 1.1, THETA2_T07_P11, 1e-9),
        (2, 0.25, 2.9, THETA2_T025_P29, 1e-8),
        (3, 0.7, 1.1, THETA3_T07_P11, 1e-9),
        (3, 0.25, 2.9, THETA3_T025_P29, 1e-8),
    ],
)
def test_heat_contour_matches_frozen_values(n, t, phi, frozen, rtol):
    res = sphere.heat_gruet(n, t, phi, tol=1e-10)
    assert res.value == pytest.approx(frozen, rel=rtol)


def test_heat_contour_deformation_invariance():
    a = sphere.heat_gruet(2, 0.6, 1.8, sigma=0.6, tol=1e-10)
    b = sphere.heat_gruet(2, 0.6, 1.8, sigma=1.4, tol=1e-10)
    assert b.value == pytest.approx(a.value, rel=1e-9)
    assert abs(a.value - b.value) <= 10.0 * (a.err_estimate + b.err_estimate)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_even_heat_contour_is_within_its_error(n):
    # even n takes the half-integer power by square root and flips the
    # branch at the cuts xi = pi, 3 pi, ...
    for t in (0.3, 0.8, 2.0):
        for phi in (0.0, 0.7, 2.0, 3.0, math.pi - 1e-5):
            got = sphere.heat_gruet(n, t, phi)
            want = sphere.heat_spectral(n, t, phi)
            assert abs(got.value - want.value) <= got.err_estimate + want.err_estimate, (t, phi)


def test_heat_contour_covers_both_poles():
    # phi = 0 and the antipode are regular for the contour representation
    assert sphere.heat_gruet(2, 0.5, 0.0).value == pytest.approx(
        spectral_oracle(2, 0.5, 0.0), rel=1e-8
    )
    assert sphere.heat_gruet(3, 0.5, math.pi).value == pytest.approx(
        spectral_oracle(3, 0.5, math.pi), rel=1e-8
    )


# ---------------------------------------------------------------------------
# poisson


def test_poisson_closed_frozen_values():
    assert sphere.poisson_closed(1, 0.7, 1.2) == pytest.approx(POISSON_N1_Y07_P12, rel=1e-13)
    assert sphere.poisson_closed(2, 0.7, 1.2) == pytest.approx(POISSON_N2_Y07_P12, rel=1e-13)
    assert sphere.poisson_closed(3, 1.1, 2.5) == pytest.approx(POISSON_N3_Y11_P25, rel=1e-13)


def poisson_oracle(n: int, y: float, phi: float):
    """The closed sphere form in 40-digit arithmetic, as printed."""
    with mpmath.workdps(40):
        h = mpmath.mpf(n + 1) / 2
        y, phi = mpmath.mpf(y), mpmath.mpf(phi)
        return mpmath.gamma(h) / mpmath.pi**h * mpmath.sinh(y) / (
            2 * mpmath.cosh(y) - 2 * mpmath.cos(phi)
        ) ** h


# small heights, where 2 cosh y - 2 cos phi cancels, and large ones, where
# the power of the base overflowed although the kernel is a float
POISSON_ORACLE_POINTS = [
    (y, phi) for y in (1e-3, 0.001154, 0.05) for phi in (0.0, 2e-3, 1.0)
] + [(95.31, 1.164), (96.38, 1.195), (800.0, 3.0)]


@pytest.mark.parametrize("n", range(1, 16))
def test_poisson_closed_matches_oracle(n):
    for y, phi in POISSON_ORACLE_POINTS:
        got, want = sphere.poisson_closed(n, y, phi), poisson_oracle(n, y, phi)
        if abs(want) >= sys.float_info.min:
            assert abs((got - want) / want) <= 1e-14
        else:
            assert abs(got) < sys.float_info.min


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_poisson_raise_matches_closed(n):
    for y, phi in [(0.7, 1.2), (1.1, 2.5), (0.4, 0.0)]:
        res = sphere.poisson_raise(n, y, phi)
        assert res.value == pytest.approx(sphere.poisson_closed(n, y, phi), rel=1e-11)


def test_poisson_raise_guard_band():
    # (n, y, phi, tol): the registry row passes tol on to the raise, so at
    # 1e-13 the pole series claims 1e-13, not the default tol's 1.2e-12
    cells = [(3, 0.8, 0.003, 1e-10), (3, 0.8, math.pi - 0.003, 1e-10), (15, 0.9, 0.05, 1e-13)]
    for n, y, phi, tol in cells:
        res = analysis.evaluate(Space.SPHERE, n, "poisson", y, phi, rep="raise", tol=tol)
        want = sphere.poisson_closed(n, y, phi)
        assert abs(res.value - want) <= res.err_estimate <= tol * want


@pytest.mark.parametrize("variant", ["angle", "half"])
@pytest.mark.parametrize(
    "n,frozen", [(1, DOUBLING_N1_Y08_P09), (2, DOUBLING_N2_Y08_P09)]
)
def test_poisson_doubling_reproduces_closed_form(variant, n, frozen):
    res = sphere.poisson_doubling(n, 0.8, 0.9, tol=1e-11, variant=variant)
    assert res.value == pytest.approx(frozen, rel=1e-9)
    assert res.value == pytest.approx(sphere.poisson_closed(n, 0.8, 0.9), rel=1e-9)


def test_poisson_doubling_variants_agree():
    a = sphere.poisson_doubling(2, 1.3, 2.1, tol=1e-11, variant="angle")
    b = sphere.poisson_doubling(2, 1.3, 2.1, tol=1e-11, variant="half")
    assert a.value == pytest.approx(b.value, rel=1e-9)


@pytest.mark.parametrize("variant", ["angle", "half"])
@pytest.mark.parametrize("n", [2, 8, 14, 15])
@pytest.mark.parametrize("y", [30.0, 60.0, 96.38])
@pytest.mark.parametrize("phi", [1.0, 1.195])
def test_poisson_doubling_does_not_overflow_at_large_height(variant, n, y, phi):
    # the (2n+1)-kernel's base 2 cosh(y/2) - 2 cos psi, raised to n + 1,
    # overflowed at S^14 (96.38, 1.195) and S^15 (96.38, 1.0)
    res = sphere.poisson_doubling(n, y, phi, variant=variant)
    ref = sphere.poisson_closed(n, y, phi)
    assert abs(res.value - ref) <= max(res.err_estimate, 1e-10 * abs(ref))


@pytest.mark.parametrize("n", [1, 2, 3, 8, 14, 15])
@pytest.mark.parametrize("y", [0.01, 1.0, 96.38])
def test_half_angle_doubling_covers_its_rounding_near_the_antipode(n, y):
    # [phi, 2 pi - phi] is 5e-6 wide at phi = 3.14159, so rounding its nodes
    # and endpoint moves the value by up to 2e-10 relative
    res = sphere.poisson_doubling(n, y, 3.14159, variant="half")
    ref = sphere.poisson_closed(n, y, 3.14159)
    assert abs(res.value - ref) <= max(res.err_estimate, 1e-10 * abs(ref))


def test_poisson_doubling_edge_cases():
    with pytest.raises(SingularPointError):
        sphere.poisson_doubling(1, 0.5, 0.0, variant="half")
    with pytest.raises(DomainError):
        sphere.poisson_doubling(1, 0.5, 1.0, variant="diagonal")
    # the smooth-angle variant is regular at phi = 0
    res = sphere.poisson_doubling(2, 0.5, 0.0, tol=1e-11, variant="angle")
    assert res.value == pytest.approx(sphere.poisson_closed(2, 0.5, 0.0), rel=1e-9)


@pytest.mark.xfail(
    strict=True,
    reason="doubling at tiny y and phi is 2.6-4.6 times its error bar off: ROADMAP item 25",
)
@pytest.mark.parametrize(
    "n, y, phi", [(3, 1e-3, 1e-3), (11, 0.00108, 0.0012), (11, 0.00135, 0.00234)]
)
def test_doubling_at_tiny_height_and_angle_is_within_its_error(n, y, phi):
    # closed is within 5e-16 of 40-digit values of the kernel at these cells
    tol = 1e-10
    ref = analysis.evaluate(Space.SPHERE, n, "poisson", y, phi, rep="closed", tol=tol).value
    res = analysis.evaluate(Space.SPHERE, n, "poisson", y, phi, rep="doubling", tol=tol)
    assert abs(res.value - ref) <= max(res.err_estimate, tol * abs(ref))


# ---------------------------------------------------------------------------
# spectral

SPECTRAL_TIMES = (sphere.SPECTRAL_MIN_T, 0.1, 0.3, 1.0, 5.0, 20.0, 100.0)
SPECTRAL_ANGLES = (0.0, 0.05, 1.0, 1.5, math.pi - 1e-3, math.pi)


def _heat_oracle(n: int, t: float, phi: float) -> float:
    value = spectral_oracle(n, t, phi)
    if phi >= math.pi - 1e-3 or abs(value) < 1e-290:
        return mp_spectral_oracle(n, t, phi)
    return value


@pytest.mark.parametrize("n", [2, 3, 4, 6, 9, 13])
def test_heat_spectral_matches_oracle(n):
    wrong = []
    for t in SPECTRAL_TIMES:
        for phi in SPECTRAL_ANGLES:
            res = sphere.heat_spectral(n, t, phi)
            want = _heat_oracle(n, t, phi)
            if not abs(res.value - want) <= max(res.err_estimate, 1e-10 * abs(want)):
                wrong.append((t, phi, res.value, want, res.err_estimate))
    assert not wrong, wrong


# The band where auto ranks the spectral series first below t = 0.1:
# n = 1..15, t in [0.01, 0.1), phi at the pole, halfway to phi^2 = 24 t and
# on it, both conventions, against 30-digit sums
# (tests/make_spectral_references.py)
with open(os.path.join(_HERE, "spectral_references.json")) as fh:
    SPECTRAL_CELLS = json.load(fh)


def test_spectral_below_a_tenth_is_within_its_error():
    outside, missed, elsewhere = [], 0, []
    for c in SPECTRAL_CELLS:
        n, t, phi = c["n"], c["t"], c["phi"]
        for convention in ("paper", "markovian"):
            res = sphere.heat_spectral(n, t, phi, convention=convention)
            ref = float(mpmath.mpf(c[convention]))
            if not abs(res.value - ref) <= res.err_estimate:
                outside.append((n, t, phi, convention, res.value, ref, res.err_estimate))
            if res.err_estimate <= 1e-10 * abs(res.value):
                auto = analysis.evaluate(Space.SPHERE, n, "heat", t, phi, convention=convention)
                if (auto.value, auto.err_estimate) != (res.value, res.err_estimate):
                    elsewhere.append((n, t, phi, convention))
            else:
                missed += 1
    assert not outside, outside
    assert missed <= 0.01 * 2 * len(SPECTRAL_CELLS)
    # where it meets tol auto returns it: it is the first row tried
    assert not elsewhere, elsewhere


def test_heat_spectral_roundoff_floor_covers_the_antipode():
    # at t = 0.1 the sum cancels to ~3e-10 of its largest terms, and the
    # value is off by ~2e-7 relative: only the roundoff floor covers that
    t, phi = 0.1, math.pi
    res = sphere.heat_spectral(2, t, phi)
    want = mp_spectral_oracle(2, t, phi)
    assert abs(res.value - want) > 1e-10 * want
    assert abs(res.value - want) <= res.err_estimate


@pytest.mark.parametrize(
    "n,t,phi,published",
    [(6, 50.0, 1.0, 5.80e-138), (13, 1.0, 0.05, 2.76e-17)],
)
def test_heat_spectral_fixes_large_time_points(n, t, phi, published):
    res = sphere.heat_spectral(n, t, phi)
    want = mp_spectral_oracle(n, t, phi)
    assert res.value == pytest.approx(published, rel=5e-3)
    assert abs(res.value - want) <= max(res.err_estimate, 1e-10 * want)
    assert res.err_estimate <= 1e-9 * want


@pytest.mark.parametrize(
    "n,t,phi",
    [
        (2, 0.05, 0.0),
        # heat_theta2 runs out of bisection depth at the pole (ConvergenceError)
        (2, 0.8, 0.0),
        # heat_theta3 refuses phi < 1e-6 (SingularPointError)
        (3, 0.05, 1e-7),
    ],
)
def test_auto_heat_at_the_pole(n, t, phi):
    res = analysis.evaluate(Space.SPHERE, n, "heat", t, phi)
    want = mp_spectral_oracle(n, t, phi)
    assert abs(res.value - want) <= max(res.err_estimate, 1e-10 * abs(want))


@pytest.mark.parametrize(
    "n,t,phi,published",
    # raising returned 2.8e-21, 2.2e-6 and 7.8e-20 here, claiming 1e-10
    [(6, 50.0, 1.0, 5.80e-138), (13, 1.0, 0.05, 2.76e-17), (4, 20.0, 1.0, 1.09e-21)],
)
def test_auto_heat_fixes_raising_misses(n, t, phi, published):
    res = analysis.evaluate(Space.SPHERE, n, "heat", t, phi)
    want = mp_spectral_oracle(n, t, phi)
    assert res.value == pytest.approx(published, rel=5e-3)
    assert abs(res.value - want) <= max(res.err_estimate, 1e-10 * abs(want))


def test_auto_heat_accepts_an_underflowed_kernel():
    # the kernel is about exp(-4766): auto returns 0 with an absolute bound,
    # where raising returned -5.9e-20 and claimed 5.9e-30
    res = analysis.evaluate(Space.SPHERE, 15, "heat", 97.26, 0.9898)
    assert res.value == 0.0
    assert res.err_estimate <= 1e-300
    assert mp_spectral_oracle(15, 97.26, 0.9898) == 0.0


@pytest.mark.parametrize(
    "n,t,phi,want",
    # markovian references: the series at 40 digits with exp(a^2 t) folded
    # into its weights.  Formed on its own that factor is e^861 and e^1932,
    # and every row raised OverflowError here
    [(7, 95.67, 0.005656, 0.0307979467640530), (10, 95.4, 0.00778, 0.0482505725419601)],
)
def test_markovian_heat_at_large_time_does_not_overflow(n, t, phi, want):
    for res in (
        sphere.heat_spectral(n, t, phi, convention="markovian"),
        analysis.evaluate(Space.SPHERE, n, "heat", t, phi, convention="markovian"),
        analysis.evaluate(
            Space.SPHERE, n, "heat", t, phi, rep="spectral", convention="markovian"
        ),
    ):
        assert abs(res.value - want) <= max(res.err_estimate, 1e-10 * abs(want))


@pytest.mark.parametrize("n", range(1, 16))
def test_markovian_spectral_at_large_time_is_one_over_the_volume(n):
    # one term, 1/vol(S^n) = exp(-log vol): the three terms of log vol
    # cancel (to 2.5 of 13.8 at n = 12), and their rounding, not log vol's
    # own, sets the error; from log vol alone S^12 and S^13 claimed
    # 1.214e-16 and 1.62e-16 where they were 1.217e-16 and 2.03e-16 off
    res = sphere.heat_spectral(n, 50.0, 1.0, convention="markovian")
    with mpmath.workdps(30):
        half = mpmath.mpf(n + 1) / 2
        want = mpmath.gamma(half) / (2 * mpmath.pi**half)
        assert res.n_evals == 1
        assert abs(res.value - want) <= res.err_estimate


def test_heat_spectral_convention_is_the_factor():
    for n, t, phi in [(2, 0.3, 1.0), (5, 2.0, 0.4), (9, 1.0, 3.0)]:
        paper = sphere.heat_spectral(n, t, phi)
        markov = sphere.heat_spectral(n, t, phi, convention="markovian")
        factor = math.exp(0.25 * (n - 1) ** 2 * t)
        assert markov.value == pytest.approx(paper.value * factor, rel=1e-13)
        assert markov.n_evals == paper.n_evals
    with pytest.raises(DomainError):
        sphere.heat_spectral(3, 1.0, 1.0, convention="physics")


# S^3 raise at large t claims tol 1e-10 of its value where it is 6.3e-9 and
# 6.1e-5 relative off a 40-digit sum; theta and spectral are within their
# bars there, and auto returns spectral
S3_RAISE_MISS = pytest.mark.xfail(
    strict=True, reason="S^3 raise at t = 20 and 30 is 6e-9 and 6e-5 off: ROADMAP item 1"
)


@pytest.mark.parametrize("t", [20.0, 30.0])
@pytest.mark.parametrize(
    "rep", [pytest.param("raise", marks=S3_RAISE_MISS), "theta", "spectral", "auto"]
)
def test_s3_heat_at_large_time_is_within_its_bar(rep, t):
    res = analysis.evaluate(Space.SPHERE, 3, "heat", t, 0.5, rep=rep)
    want = mp_spectral_oracle(3, t, 0.5)
    assert abs(res.value - want) <= max(res.err_estimate, 1e-10 * abs(res.value))


def test_heat_spectral_needs_few_terms_at_large_time():
    assert sphere.heat_spectral(2, 50.0, 1.0).n_evals == 1
    assert sphere.heat_spectral(2, 5.0, 1.0).n_evals <= 3
    assert sphere.heat_spectral(2, 0.2, 1.0).n_evals <= 15


def test_heat_spectral_domain():
    with pytest.raises(DomainError):
        sphere.heat_spectral(2, 0.5 * sphere.SPECTRAL_MIN_T, 1.0)
    # the circle takes the Fourier series
    circle, images = sphere.heat_spectral(1, 1.0, 1.0), sphere.heat_theta1(1.0, 1.0)
    assert abs(circle.value - images.value) <= circle.err_estimate + images.err_estimate
    with pytest.raises(DomainError):
        sphere.heat_spectral(3, 1.0, 3.5)
    # tol lies in (0, 1), as evaluate's does
    for tol in (math.nan, 1.0, 2.0):
        with pytest.raises(DomainError):
            sphere.heat_spectral(3, 1.0, 1.0, tol)
    assert sphere.heat_spectral(2, sphere.SPECTRAL_MIN_T, 1.0).value > 0.0
