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

import math
import sys

import mpmath
import pytest
from scipy.special import eval_gegenbauer

from ckernels import analysis, sphere
from ckernels.errors import DomainError, SingularPointError
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
    t = 0.7
    for phi in (0.004, math.pi - 0.004):
        res = sphere.heat_raise(n, t, phi, tol=1e-9)
        want = spectral_oracle(n, t, phi)
        assert res.value == pytest.approx(want, rel=1e-4)
        assert abs(res.value - want) <= max(10.0 * res.err_estimate, 1e-9 * abs(want))


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
    n, y = 3, 0.8
    for phi in (0.003, math.pi - 0.003):
        res = sphere.poisson_raise(n, y, phi)
        want = sphere.poisson_closed(n, y, phi)
        assert res.value == pytest.approx(want, rel=1e-5)


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


def test_poisson_doubling_edge_cases():
    with pytest.raises(SingularPointError):
        sphere.poisson_doubling(1, 0.5, 0.0, variant="half")
    with pytest.raises(DomainError):
        sphere.poisson_doubling(1, 0.5, 1.0, variant="diagonal")
    # the smooth-angle variant is regular at phi = 0
    res = sphere.poisson_doubling(2, 0.5, 0.0, tol=1e-11, variant="angle")
    assert res.value == pytest.approx(sphere.poisson_closed(2, 0.5, 0.0), rel=1e-9)


# ---------------------------------------------------------------------------
# spectral

SPECTRAL_TIMES = (sphere.SPECTRAL_MIN_T, 0.3, 1.0, 5.0, 20.0, 100.0)
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


def test_heat_spectral_roundoff_floor_covers_the_antipode():
    # at the shortest time the sum cancels to ~3e-10 of its largest terms, and
    # the value is off by ~2e-7 relative: only the roundoff floor covers that
    t, phi = sphere.SPECTRAL_MIN_T, math.pi
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


def test_heat_spectral_convention_is_the_factor():
    for n, t, phi in [(2, 0.3, 1.0), (5, 2.0, 0.4), (9, 1.0, 3.0)]:
        paper = sphere.heat_spectral(n, t, phi)
        markov = sphere.heat_spectral(n, t, phi, convention="markovian")
        factor = math.exp(0.25 * (n - 1) ** 2 * t)
        assert markov.value == pytest.approx(paper.value * factor, rel=1e-13)
        assert markov.n_evals == paper.n_evals
    with pytest.raises(DomainError):
        sphere.heat_spectral(3, 1.0, 1.0, convention="physics")


def test_heat_spectral_needs_few_terms_at_large_time():
    assert sphere.heat_spectral(2, 50.0, 1.0).n_evals == 1
    assert sphere.heat_spectral(2, 5.0, 1.0).n_evals <= 3
    assert sphere.heat_spectral(2, 0.2, 1.0).n_evals <= 15


def test_heat_spectral_domain():
    with pytest.raises(DomainError):
        sphere.heat_spectral(2, 0.5 * sphere.SPECTRAL_MIN_T, 1.0)
    with pytest.raises(DomainError):
        sphere.heat_spectral(1, 1.0, 1.0)
    with pytest.raises(DomainError):
        sphere.heat_spectral(3, 1.0, 3.5)
    with pytest.raises(DomainError):
        sphere.heat_spectral(3, 1.0, 1.0, math.nan)
    assert sphere.heat_spectral(2, sphere.SPECTRAL_MIN_T, 1.0).value > 0.0
