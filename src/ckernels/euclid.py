"""Heat and Poisson kernels on Euclidean space, by every available route.

The closed forms are

    heat:     H_n(t, r) = (4 pi t)^(-n/2) exp(-r^2 / 4t)
    poisson:  P_n(y, r) = Gamma((n+1)/2) / pi^((n+1)/2) * y / (r^2+y^2)^((n+1)/2)

and the alternative representations cross-validate them:

* raising: apply D = -(2 pi w)^(-1) d/dr, which sends dimension n to n+2,
  (n-1)/2 times to the 1-d kernel for odd n; for even n either apply it to
  the descent integral of the 3-d kernel ("outside") or move it under the
  integral sign ("inside").  Outside, the descent integral separates: the
  jet in r of a closed-form factor multiplies one scalar integral.
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

import numpy as np

from .errors import DomainError, SingularPointError
from .geometry import Space, check_positive, check_query
from .jets import (
    MAX_ORDER,
    Jet,
    RadialGenerator,
    gauss_jet,
    raise_operator,
    raise_origin_jet,
    variable,
)
from .quadrature import (
    DEFAULT_TOL,
    QuadResult,
    contour_spec,
    integrate_adaptive,
    integrate_contour,
    integrate_sqrt_endpoint,
    integrate_to_infinity,
    sigma_default,
)

# Raising at 0 < r < GUARD_RADIUS divides by a near-vanishing weight; callers
# should use the closed form there (r = 0 itself is evaluated exactly by
# parity).
GUARD_RADIUS = 1e-3

# bound once: an enum member lookup costs about as much as the entry check
_EUCLIDEAN = Space.EUCLIDEAN


# ---------------------------------------------------------------------------
# closed forms


# One body per closed form serves the public function, at a float r, and the
# descent integrands, at the array of a sweep's nodes; _heat takes the math
# module or numpy as ``xp`` accordingly.


def _heat(xp, n: int, t: float, r):
    return (4.0 * math.pi * t) ** (-0.5 * n) * xp.exp(-r * r / (4.0 * t))


def _poisson(n: int, y: float, r):
    half = 0.5 * (n + 1)
    return math.gamma(half) / math.pi**half * y / (r * r + y * y) ** half


def heat_closed(n: int, t: float, r: float) -> float:
    check_query(_EUCLIDEAN, n, "heat", t, r)
    return _heat(math, n, t, r)


def poisson_closed(n: int, y: float, r: float) -> float:
    check_query(_EUCLIDEAN, n, "poisson", y, r)
    return _poisson(n, y, r)


# ---------------------------------------------------------------------------
# raising


def _guarded_raised(gen: RadialGenerator, k: int):
    """Pointwise k-raised kernel, safe arbitrarily close to the origin.

    Inside the guard band direct raising divides by a near-vanishing weight,
    so integrands that sweep s toward 0 (the under-the-integral raising
    variants at r = 0) substitute an origin-centred jet of the raised kernel;
    its truncation error at s < GUARD_RADIUS is far below roundoff.
    """
    cache: list = []

    def kernel(s: float) -> float:
        if s < GUARD_RADIUS:
            if not cache:
                spare = MAX_ORDER - 2 * k
                cache.append(raise_origin_jet(Space.EUCLIDEAN, gen, k, min(8, spare)))
            return cache[0](s)
        return raise_operator(Space.EUCLIDEAN, gen, k, s)

    return kernel


def _plane_descent_jet(t: float, tol: float, evals: list) -> RadialGenerator:
    """Jets of the 2-d kernel written as the descent integral of the 3-d one.

    With z = s^2 - r^2 the integral becomes
    (4 pi t)^(-3/2) exp(-r^2/4t) integral_0^inf z^(-1/2) exp(-z/4t) dz: the
    integrand separates, so the jet in r multiplies one scalar integral.
    """
    amp = (4.0 * math.pi * t) ** -1.5
    z_max = 4.0 * t * (math.log(1.0 / tol) + 5.0)

    def gen(center: float, order: int) -> Jet:
        x = variable(center, order)
        radial = (x * x * (-0.25 / t)).exp()
        res = integrate_sqrt_endpoint(
            lambda z: np.exp(-z / (4.0 * t)),
            0.0,
            z_max,
            tol * 0.1,
            abs_tol=0.0,
            vectorized=True,
        )
        evals.append(res.n_evals)
        return radial * (res.value * amp)

    return gen


def heat_raise(
    n: int,
    t: float,
    r: float,
    *,
    variant: str = "outside",
    tol: float = DEFAULT_TOL,
) -> QuadResult:
    """Heat kernel through the dimension-raising recursion.

    Odd n reduces to jets of the 1-d Gaussian (no quadrature, error 0).
    Even n needs one inverse-square-root integral; ``variant`` selects
    whether the raising operator acts outside it ("outside") or under the
    integral sign on the 3-d kernel ("inside").
    """
    check_query(_EUCLIDEAN, n, "heat", t, r)
    if 0.0 < r < GUARD_RADIUS:
        raise SingularPointError(
            f"raising is ill-conditioned for 0 < r < {GUARD_RADIUS}; use the closed form"
        )
    if n % 2 == 1:
        k = (n - 1) // 2
        value = raise_operator(Space.EUCLIDEAN, gauss_jet(t), k, r)
        return QuadResult(value, 0.0, 0)
    if variant == "outside":
        evals: list = []
        k = (n - 2) // 2
        value = raise_operator(Space.EUCLIDEAN, _plane_descent_jet(t, tol, evals), k, r)
        return QuadResult(value, tol * abs(value), sum(evals))
    if variant == "inside":
        kernel = _guarded_raised(gauss_jet(t), n // 2)

        def f_regular(s: float) -> float:
            return kernel(s) * 2.0 * s / math.sqrt(s + r)

        s_max = math.sqrt(r * r + 4.0 * t * (math.log(1.0 / tol) + 5.0)) + 1.0
        res = integrate_sqrt_endpoint(f_regular, r, s_max, tol, abs_tol=0.0)
        return res
    raise DomainError(f"unknown raising variant {variant!r}")


# ---------------------------------------------------------------------------
# descent


def heat_descent(n: int, t: float, r: float, tol: float = DEFAULT_TOL) -> QuadResult:
    """Heat kernel as the descent integral of the closed (n+1)-kernel.

    The integrand takes a sweep's nodes at once.
    """
    check_query(_EUCLIDEAN, n, "heat", t, r)

    def f_regular(s: np.ndarray) -> np.ndarray:
        return _heat(np, n + 1, t, s) * 2.0 * s / np.sqrt(s + r)

    s_max = math.sqrt(r * r + 4.0 * t * (math.log(1.0 / tol) + 5.0)) + 1.0
    return integrate_sqrt_endpoint(f_regular, r, s_max, tol, abs_tol=0.0, vectorized=True)


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
    the spike is seeded as a breakpoint.  The value is independent of sigma,
    which the error estimate must cover (the basis of the deformation
    cross-check).  The integrand takes a sweep's nodes at once.
    """
    check_query(_EUCLIDEAN, n, "heat", t, r)
    if sigma is None:
        sigma = sigma_default(t, r, 3.0)
    check_positive("sigma", sigma)
    pref = math.gamma(0.5 * (n + 1)) / (
        math.pi ** (0.5 * n + 1.0) * math.sqrt(4.0 * t)
    )
    half = 0.5 * (n + 1)
    inv4t = 0.25 / t

    def f(y: np.ndarray) -> np.ndarray:
        yy = y * y
        return 2.0 * y * np.exp(yy * inv4t) / (r * r + yy) ** half

    spec = contour_spec(sigma, 4.0 * t, tol)
    bps = [r] if 0.0 < r < spec.xi_max else []
    res = integrate_contour(f, spec, bps)
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

    res = integrate_adaptive(f, 0.0, w_max, tol, abs_tol=0.0, vectorized=True)
    return res.scaled(2.0 * y / math.pi ** (0.5 * (n + 1)))


def _halfplane_jet(y: float) -> RadialGenerator:
    """Jets of the 1-d Poisson kernel y / (pi (r^2 + y^2))."""

    def gen(center: float, order: int) -> Jet:
        x = variable(center, order)
        return (y / math.pi) / (x * x + y * y)

    return gen


def _space_descent_jet(y: float, tol: float, evals: list) -> RadialGenerator:
    """Jets of the 2-d Poisson kernel as the descent integral of the 3-d one.

    P_3(y, s) = y / (pi^2 (s^2+y^2)^2); with s^2 - r^2 = (r^2+y^2) v^2 the
    integral becomes y/pi^2 (r^2+y^2)^(-3/2) integral_0^inf 2 (1+v^2)^(-2) dv:
    the integrand separates, so the jet in r multiplies one scalar integral.
    """
    amp = y / math.pi**2

    def gen(center: float, order: int) -> Jet:
        x = variable(center, order)
        radial = (x * x + y * y).power(-1.5)
        res = integrate_to_infinity(
            lambda v: 2.0 / (1.0 + v * v) ** 2, 0.0, tol * 0.1, abs_tol=0.0, vectorized=True
        )
        evals.append(res.n_evals)
        return radial * (res.value * amp)

    return gen


def poisson_raise(
    n: int,
    y: float,
    r: float,
    *,
    variant: str = "outside",
    tol: float = DEFAULT_TOL,
) -> QuadResult:
    """Poisson kernel through the dimension-raising recursion.

    Same parity split as :func:`heat_raise`, over the Poisson base kernels.
    """
    check_query(_EUCLIDEAN, n, "poisson", y, r)
    if 0.0 < r < GUARD_RADIUS:
        raise SingularPointError(
            f"raising is ill-conditioned for 0 < r < {GUARD_RADIUS}; use the closed form"
        )
    if n % 2 == 1:
        k = (n - 1) // 2
        value = raise_operator(Space.EUCLIDEAN, _halfplane_jet(y), k, r)
        return QuadResult(value, 0.0, 0)
    if variant == "outside":
        evals: list = []
        k = (n - 2) // 2
        value = raise_operator(Space.EUCLIDEAN, _space_descent_jet(y, tol, evals), k, r)
        return QuadResult(value, tol * abs(value), sum(evals))
    if variant == "inside":
        kernel = _guarded_raised(_halfplane_jet(y), n // 2)

        def f_regular(s: float) -> float:
            return kernel(s) * 2.0 * s / math.sqrt(s + r)

        def f_tail(s: float) -> float:
            return kernel(s) * 2.0 * s / math.sqrt(s * s - r * r)

        split = r + 4.0 * max(y, r, 1.0)
        res1 = integrate_sqrt_endpoint(f_regular, r, split, tol, abs_tol=0.0)
        res2 = integrate_to_infinity(f_tail, split, tol, abs_tol=0.0, scale=split)
        return QuadResult(
            res1.value + res2.value,
            res1.err_estimate + res2.err_estimate,
            res1.n_evals + res2.n_evals,
        )
    raise DomainError(f"unknown raising variant {variant!r}")


def poisson_descent(n: int, y: float, r: float, tol: float = DEFAULT_TOL) -> QuadResult:
    """Poisson kernel as the descent integral of the closed (n+1)-kernel.

    Both integrands take a sweep's nodes at once.
    """
    check_query(_EUCLIDEAN, n, "poisson", y, r)

    def f_regular(s: np.ndarray) -> np.ndarray:
        return _poisson(n + 1, y, s) * 2.0 * s / np.sqrt(s + r)

    def f_tail(s: np.ndarray) -> np.ndarray:
        return _poisson(n + 1, y, s) * 2.0 * s / np.sqrt(s * s - r * r)

    split = r + 4.0 * max(y, r, 1.0)
    res1 = integrate_sqrt_endpoint(f_regular, r, split, tol, abs_tol=0.0, vectorized=True)
    res2 = integrate_to_infinity(
        f_tail, split, tol, abs_tol=0.0, scale=split, vectorized=True
    )
    return QuadResult(
        res1.value + res2.value,
        res1.err_estimate + res2.err_estimate,
        res1.n_evals + res2.n_evals,
    )
