"""Heat and Poisson kernels on Euclidean space, by every available route.

The closed forms are

    heat:     H_n(t, r) = (4 pi t)^(-n/2) exp(-r^2 / 4t)
    poisson:  P_n(y, r) = Gamma((n+1)/2) / pi^((n+1)/2) * y / (r^2+y^2)^((n+1)/2)

and the alternative representations cross-validate them:

* raising: apply D = -(2 pi w)^(-1) d/dr, which sends dimension n to n+2,
  (n-1)/2 times to the closed 1-d kernel for odd n, and (n-2)/2 times to
  the closed 2-d kernel for even n.
* descent: the inverse-square-root integral
  integral_r^inf (s^2-r^2)^(-1/2) K_(n+1)(s) 2s ds, which lowers n+1 to n
  with multiplicative constant exactly 1.
* contour: a vertical-line integral with Gaussian envelope exp(y^2/4t)
  (the flat case of the curved-space contour formulas).
* poisson integral: P_n as a Gaussian average,
  2y / pi^((n+1)/2) * integral_0^inf w^n exp(-(r^2+y^2) w^2) dw.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .geometry import Space, check_positive, check_query
from .jets import Jet, RadialGenerator, gauss_jet, raise_kernel
from .quadrature import (
    DEFAULT_TOL,
    QuadResult,
    bump_seeds,
    contour_power,
    contour_spec,
    descent_breakpoints,
    integrate_adaptive,
    integrate_contour,
    integrate_sqrt_endpoint,
    integrate_to_infinity,
    scale_seeds,
    sigma_saddle,
)

# bound once: an enum member lookup costs about as much as the entry check
_EUCLIDEAN = Space.EUCLIDEAN
_TINY = sys.float_info.min


# ---------------------------------------------------------------------------
# closed forms


# One body per closed form serves the public function, at a float r, and the
# descent integrands, at the array of a sweep's nodes; each takes the math
# module or numpy as ``xp`` accordingly.  heat_closed writes the heat body
# out, to join the two factors also where exp(-r^2/4t) alone is subnormal.


def _heat(xp, n: int, t: float, r):
    x = r * r / (4.0 * t)
    try:
        return (4.0 * math.pi * t) ** (-0.5 * n) * xp.exp(-x)
    except OverflowError:
        # a float t so small that the amplitude overflows: it joins the
        # exponent, as in heat_closed, which leaves 0 where the kernel is
        return xp.exp(-0.5 * n * math.log(4.0 * math.pi * t) - x)


def _poisson(xp, n: int, y: float, r):
    """A y / rho^(n+1), rho = hypot(r, y), as (A y / rho) rho^-n: A y / rho
    <= A, and rho neither under- nor overflows where r^2 + y^2 would."""
    half = 0.5 * (n + 1)
    rho = xp.hypot(r, y)
    return math.gamma(half) / math.pi**half * y / rho * rho**-n


def heat_closed(n: int, t: float, r: float) -> float:
    """(4 pi t)^(-n/2) exp(-r^2/4t), as :func:`_heat` takes it where
    exp(-r^2/4t) is a normal float and the amplitude does not overflow.
    Elsewhere, at tiny t, the two factors are one exponent: 0 where the
    kernel is, a float where it is one (exp(-r^2/4t) alone would be 0 or
    subnormal), and OverflowError only where the kernel itself overflows."""
    check_query(_EUCLIDEAN, n, "heat", t, r)
    x = r * r / (4.0 * t)
    if x < 708.0:
        try:
            return (4.0 * math.pi * t) ** (-0.5 * n) * math.exp(-x)
        except OverflowError:
            pass
    return math.exp(-0.5 * n * math.log(4.0 * math.pi * t) - x)


def poisson_closed(n: int, y: float, r: float) -> float:
    check_query(_EUCLIDEAN, n, "poisson", y, r)
    try:
        return _poisson(math, n, y, r)
    except OverflowError:
        # rho^-n alone overflows where r >> y, both tiny: scale y / rho^(n+1)
        # by powers of 2; the kernel at (y, r) = (1, 0) is the amplitude A
        (m, e), (my, ey) = math.frexp(math.hypot(r, y)), math.frexp(y)
        return math.ldexp(_poisson(math, n, 1.0, 0.0) * my * m ** -(n + 1), ey - (n + 1) * e)


# ---------------------------------------------------------------------------
# raising


def heat_raise(n: int, t: float, r: float, *, tol: float = DEFAULT_TOL) -> QuadResult:
    """Heat kernel through the dimension-raising recursion: :func:`raise_kernel`
    on jets of the closed 1-d Gaussian for odd n, of the 2-d one for even n."""
    check_query(_EUCLIDEAN, n, "heat", t, r)
    if n % 2 == 1:
        return raise_kernel(_EUCLIDEAN, gauss_jet(t), (n - 1) // 2, r, tol)
    return raise_kernel(_EUCLIDEAN, gauss_jet(t, 2), (n - 2) // 2, r, tol)


# ---------------------------------------------------------------------------
# descent


def heat_descent(n: int, t: float, r: float, tol: float = DEFAULT_TOL) -> QuadResult:
    """Heat kernel as the descent integral of the closed (n+1)-kernel.

    The integrand takes a sweep's nodes at once, seeded by
    :func:`descent_breakpoints`.
    """
    check_query(_EUCLIDEAN, n, "heat", t, r)

    def f_regular(s: np.ndarray) -> np.ndarray:
        return _heat(np, n + 1, t, s) * 2.0 * s / np.sqrt(s + r)

    s_max = math.sqrt(r * r + 4.0 * t * (math.log(1.0 / tol) + 5.0)) + 1.0
    seeds = descent_breakpoints(t, r, s_max)
    return integrate_sqrt_endpoint(
        f_regular, r, s_max, tol, abs_tol=0.0, breakpoints=seeds, vectorized=True
    )


# ---------------------------------------------------------------------------
# contour


def heat_gruet(
    n: int,
    t: float,
    r: float,
    *,
    sigma: float | None = None,
    tol: float = DEFAULT_TOL,
) -> QuadResult:
    """Heat kernel as a vertical-contour integral.

    Parametrized by y = sigma - i xi, the integrand
    2 y exp(y^2/4t) (r^2+y^2)^(-(n+1)/2) has a Gaussian envelope in xi and
    algebraic spikes where y^2 approaches -r^2 (near xi = r for small sigma);
    the spike is seeded at its widths.  The value is independent of sigma,
    which the error estimate must cover (the basis of the deformation
    cross-check); by default the line runs through the saddle point on the
    real axis (:func:`~ckernels.quadrature.sigma_saddle`, capped at 3), where
    the panels do not cancel.  The integrand takes a sweep's nodes at once.
    """
    check_query(_EUCLIDEAN, n, "heat", t, r)
    if sigma is None:
        sigma = sigma_saddle(n, t, r, 3.0)
    check_positive("sigma", sigma)
    pref = math.gamma(0.5 * (n + 1)) / (
        math.pi ** (0.5 * n + 1.0) * math.sqrt(4.0 * t)
    )
    inv4t = 0.25 / t

    def f(y: np.ndarray) -> np.ndarray:
        yy = y * y
        return 2.0 * y * np.exp(yy * inv4t) * contour_power(r * r + yy, n)

    res = integrate_contour(f, contour_spec(sigma, 4.0 * t, tol), spikes=[r])
    return res.scaled(pref)


# ---------------------------------------------------------------------------
# poisson representations


def poisson_integral(n: int, y: float, r: float, tol: float = DEFAULT_TOL) -> QuadResult:
    """Poisson kernel as a one-sided Gaussian average over the scale w.

    The integrand takes a sweep's nodes at once.
    """
    check_query(_EUCLIDEAN, n, "poisson", y, r)
    c = r * r + y * y
    w_max = math.sqrt((math.log(1.0 / tol) + n + 4.0) / c)

    def f(w: np.ndarray) -> np.ndarray:
        return w**n * np.exp(-c * w * w)

    seeds = bump_seeds(n, (y,), (r,), 0.0, w_max)
    res = integrate_adaptive(f, 0.0, w_max, tol, abs_tol=0.0, breakpoints=seeds, vectorized=True)
    return res.scaled(2.0 * y / math.pi ** (0.5 * (n + 1)))


def _tiny_base(n: int, y: float, center: float, order: int) -> Jet:
    """The order-0 jet of the n-d Poisson kernel where c^2 + y^2 is below the
    normal floats, from the closed form.  A higher order raises
    OverflowError: the pole asks for order 2 and up, and the second
    derivative there exceeds 1/y^3."""
    if order:
        raise OverflowError(f"the Poisson kernel's derivatives overflow at y = {y}")
    return Jet(center, np.array([poisson_closed(n, y, center)]))


def _halfplane_jet(y: float) -> RadialGenerator:
    """Jets of the 1-d Poisson kernel y / (pi (r^2 + y^2)).

    (y^2 + (c + h)^2) f' = -2 (c + h) f gives the Chebyshev-U recurrence
    (y^2 + c^2) a_(j+1) = -2c a_j - a_(j-1), run on Python floats.  Where
    y^2 + c^2 is below the normal floats, the value is the closed form's and
    the derivatives overflow.
    """

    def gen(center: float, order: int) -> Jet:
        s = center * center + y * y
        if s < _TINY:
            return _tiny_base(1, y, center, order)
        a = [y / math.pi / s]
        prev = 0.0
        for j in range(order):
            a.append(-(2.0 * center * a[j] + prev) / s)
            prev = a[j]
        return Jet(center, np.array(a))

    return gen


def _poisson_jet(n: int, y: float) -> RadialGenerator:
    """Jets of the closed n-d Poisson kernel: its base (c + h)^2 + y^2, of
    coefficients c^2 + y^2, 2c, 1, 0, ..., raised by :meth:`Jet.power`, or
    :func:`_tiny_base` where c^2 + y^2 is below the normal floats."""
    half = 0.5 * (n + 1)
    amp = math.gamma(half) / math.pi**half * y

    def gen(center: float, order: int) -> Jet:
        s = center * center + y * y
        if s < _TINY:
            return _tiny_base(n, y, center, order)
        base = [s, 2.0 * center, 1.0, *[0.0] * (order - 2)]
        return Jet(center, np.array(base[: order + 1])).power(-half) * amp

    return gen


def poisson_raise(n: int, y: float, r: float, *, tol: float = DEFAULT_TOL) -> QuadResult:
    """Poisson kernel through the dimension-raising recursion: the parity
    split and raises of :func:`heat_raise`, over the Poisson base kernels."""
    check_query(_EUCLIDEAN, n, "poisson", y, r)
    if n % 2 == 1:
        return raise_kernel(_EUCLIDEAN, _halfplane_jet(y), (n - 1) // 2, r, tol)
    return raise_kernel(_EUCLIDEAN, _poisson_jet(2, y), (n - 2) // 2, r, tol)


def poisson_descent(n: int, y: float, r: float, tol: float = DEFAULT_TOL) -> QuadResult:
    """Poisson kernel as the descent integral of the closed (n+1)-kernel.

    Both integrands take a sweep's nodes at once.
    """
    check_query(_EUCLIDEAN, n, "poisson", y, r)

    def f_regular(s: np.ndarray) -> np.ndarray:
        return _poisson(np, n + 1, y, s) * 2.0 * s / np.sqrt(s + r)

    def f_tail(s: np.ndarray) -> np.ndarray:
        return _poisson(np, n + 1, y, s) * 2.0 * s / np.sqrt(s * s - r * r)

    split = r + 4.0 * max(y, r, 1.0)
    seeds = scale_seeds(r, 0.25 * y, split - r, r, split)
    res1 = integrate_sqrt_endpoint(
        f_regular, r, split, tol, abs_tol=0.0, breakpoints=seeds, vectorized=True
    )
    # the tail falls off as s^-(n+2); seeded where s doubles, the midpoint of
    # the compactified range, it mostly finishes in its first sweep
    res2 = integrate_to_infinity(
        f_tail, split, tol, abs_tol=0.0, scale=split, breakpoints=(2.0 * split,), vectorized=True
    )
    return QuadResult(
        res1.value + res2.value,
        res1.err_estimate + res2.err_estimate,
        res1.n_evals + res2.n_evals,
    )
