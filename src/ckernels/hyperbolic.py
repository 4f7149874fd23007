"""Heat and Poisson kernels on hyperbolic space.

Heat representations:

* raising (odd n): (n-1)/2 applications of D = -(2 pi sinh rho)^(-1) d/drho
  to the flat 1-d Gaussian; in particular
  H_3(t, rho) = (4 pi t)^(-3/2) (rho/sinh rho) exp(-rho^2/4t).
* descent (even n): the inverse-square-root integral
  integral_rho^inf (cosh^2(s/2) - cosh^2(rho/2))^(-1/2) H_(n+1)(t,s)
  sinh s ds, with the raising operator acting either outside the integral
  ("outside", jets of the integral through z = cosh s - cosh rho) or under
  the integral sign on the odd closed forms ("inside").
* classic: the real oscillatory integral along the line through pi,
  K_n (2t)^(-1/2) integral_0^inf exp((pi^2 - xi^2)/4t) sinh xi
  sin(pi xi / 2t) (cosh rho + cosh xi)^(-(n+1)/2) dxi.
* contour: the general vertical line sigma - i xi against
  exp(y^2/4t) sin y (cosh rho - cos y)^(-(n+1)/2), sigma in (0, pi].

These all produce the convention="paper" kernel, whose generator carries the
spectral shift +(n-1)^2/4 (total mass exp((n-1)^2 t/4));
convention="markovian" multiplies by exp(-(n-1)^2 t/4) to restore unit mass.

The Poisson kernel is the strip-type closed form

    P_n(y, rho) = Gamma((n+1)/2)/(2 pi)^((n+1)/2)
                  * sin y / (cosh rho - cos y)^((n+1)/2),  0 < y < pi,

harmonic in (y, rho) for the shifted operator; it is 2 pi periodic in y
(equivalently, the image sum of the subordinated heat kernel), its n = 1 mass
is (pi - y)/pi, and its mass integral diverges for n >= 3.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, SingularPointError
from .geometry import Space, check_query, convention_factor
from .jets import Jet, RadialGenerator, gauss_jet, raise_operator, variable
from .quadrature import (
    DEFAULT_TOL,
    QuadResult,
    contour_spec,
    even_extrapolate,
    integrate_adaptive,
    integrate_contour,
    integrate_sqrt_endpoint,
    sigma_default,
)

GUARD_RHO = 1e-2

# bound once: an enum member lookup costs about as much as the entry check
_HYPERBOLIC = Space.HYPERBOLIC


def raises_directly(k: int, rho: float) -> bool:
    """Whether the raising routes raise k times at rho itself, with err 0.

    Elsewhere, in the guard band 0 < rho < GUARD_RHO, they extrapolate evenly
    from 2 and 4 GUARD_RHO, where the weight sinh rho is not small.
    """
    return rho == 0.0 or k == 0 or rho >= GUARD_RHO


# ---------------------------------------------------------------------------
# heat kernels


def heat_raise(
    n: int,
    t: float,
    rho: float,
    *,
    convention: str = "paper",
    tol: float = DEFAULT_TOL,
) -> QuadResult:
    """Odd-dimensional heat kernel by raising the flat 1-d Gaussian."""
    check_query(_HYPERBOLIC, n, "heat", t, rho)
    if n % 2 == 0:
        raise DomainError("raising reaches odd dimensions only; use heat_descent")
    factor = convention_factor(Space.HYPERBOLIC, convention, n, t)
    k = (n - 1) // 2

    def at(r: float) -> QuadResult:
        value = raise_operator(Space.HYPERBOLIC, gauss_jet(t), k, r) * factor
        return QuadResult(value, 0.0, 0)

    if raises_directly(k, rho):
        return at(rho)
    return even_extrapolate(at, rho, 2.0 * GUARD_RHO, 4.0 * GUARD_RHO)


def _descent_jet(t: float, tol: float, evals: list) -> RadialGenerator:
    """Jets of the 2-d kernel as the descent integral of the 3-d one.

    Since H_3 sinh s ds = (4 pi t)^(-3/2) s exp(-s^2/4t) ds, substituting
    z = cosh s - cosh rho (so cosh^2(s/2) - cosh^2(rho/2) = z/2) gives

        H_2(rho) = sqrt(2) (4 pi t)^(-3/2)
                   integral_0^inf z^(-1/2) (s/sinh s) exp(-s^2/4t) dz,

    with s = arccosh(cosh rho + z); the jets in rho flow through arccosh.
    Where cosh(s) would overflow at the top, the integral stops where the
    Gaussian has underflowed to 0, if that comes first, and is 0 if that is
    below rho.  The integrand runs once per quadrature sweep, on a batch of
    jets.
    """
    amp = math.sqrt(2.0) * (4.0 * math.pi * t) ** -1.5
    # exp(-s^2/4t) is exactly 0 beyond this s
    s_zero = math.sqrt(4.0 * t * 746.0)

    def gen(center: float, order: int) -> Jet:
        if center <= 0.0:
            raise SingularPointError("descent jets need a positive distance")
        s_top = math.sqrt(center * center + 4.0 * t * (math.log(1.0 / tol) + 5.0)) + 2.0
        if s_top > 710.0:
            s_top = min(s_top, s_zero)
        if s_top <= center:
            evals.append(0)
            return Jet(center, np.zeros(order + 1))
        x = variable(center, order)
        ch = x.cosh()
        z_top = math.cosh(s_top) - math.cosh(center)

        def body(z: np.ndarray):
            s_jet = (ch + z).arccosh()
            val = (s_jet / s_jet.sinh()) * (s_jet * s_jet * (-0.25 / t)).exp()
            return val.coeffs

        res = integrate_sqrt_endpoint(
            body, 0.0, z_top, tol * 0.1, abs_tol=0.0, vectorized=True
        )
        evals.append(res.n_evals)
        return Jet(center, res.value) * amp

    return gen


def heat_descent(
    n: int,
    t: float,
    rho: float,
    *,
    convention: str = "paper",
    tol: float = DEFAULT_TOL,
    variant: str = "outside",
) -> QuadResult:
    """Even-dimensional heat kernel through the descent integral."""
    check_query(_HYPERBOLIC, n, "heat", t, rho)
    if n % 2 == 1:
        raise DomainError("descent reaches even dimensions only; use heat_raise")
    factor = convention_factor(Space.HYPERBOLIC, convention, n, t)

    if variant == "outside":
        k = (n - 2) // 2

        def at(r: float) -> QuadResult:
            evals: list = []
            value = raise_operator(Space.HYPERBOLIC, _descent_jet(t, tol, evals), k, r)
            return QuadResult(value * factor, 2.0 * tol * abs(value) * factor, sum(evals))

        if rho >= GUARD_RHO:
            return at(rho)
        return even_extrapolate(at, rho, 2.0 * GUARD_RHO, 4.0 * GUARD_RHO)

    if variant == "inside":
        gauss = gauss_jet(t)
        k_inner = n // 2

        def f_regular(s: float) -> float:
            h_next = raise_operator(Space.HYPERBOLIC, gauss, k_inner, s)
            d = s - rho
            ratio = 2.0 if d == 0.0 else d / math.sinh(0.5 * d)
            return (
                h_next
                * math.sinh(s)
                * math.sqrt(ratio / math.sinh(0.5 * (s + rho)))
            )

        s_top = math.sqrt(rho * rho + 4.0 * t * (math.log(1.0 / tol) + 5.0)) + 2.0
        res = integrate_sqrt_endpoint(f_regular, rho, s_top, tol, abs_tol=0.0)
        return res.scaled(factor)

    raise DomainError(f"unknown descent variant {variant!r}")


def heat_classic(
    n: int,
    t: float,
    rho: float,
    *,
    convention: str = "paper",
    tol: float = DEFAULT_TOL,
) -> QuadResult:
    """Heat kernel from the oscillatory real integral along the pi line.

    The integrand takes a sweep's nodes at once and switches each node past
    xi = 350 to a log form.  As math does at a float, it raises
    OverflowError where its Gaussian or its power overflows.
    """
    check_query(_HYPERBOLIC, n, "heat", t, rho)
    factor = convention_factor(Space.HYPERBOLIC, convention, n, t)
    pref = (
        math.gamma(0.5 * (n + 1))
        / (2.0 ** (0.5 * n) * math.pi ** (0.5 * n + 1.0))
        / math.sqrt(2.0 * t)
    )
    half = 0.5 * (n + 1)
    inv4t = 0.25 / t
    cosh_rho = math.cosh(rho)
    pi_sq = math.pi * math.pi

    def direct(xi: np.ndarray, osc: np.ndarray) -> np.ndarray:
        gauss = np.exp((pi_sq - xi * xi) * inv4t)
        den = (cosh_rho + np.cosh(xi)) ** half
        if np.isinf(gauss).any() or np.isinf(den).any():
            raise OverflowError(f"exp(pi^2/4t) or (cosh rho + cosh xi)^{half} overflows")
        return gauss * np.sinh(xi) * osc / den

    def log_form(xi: np.ndarray, osc: np.ndarray) -> np.ndarray:
        # cosh overflows past ~710, and large xi arises whenever t is large
        # because the integrand support scales with t
        log_sinh = xi - math.log(2.0) + np.log1p(-np.exp(-2.0 * xi))
        log_den = xi - math.log(2.0) + np.log1p(
            (2.0 * cosh_rho + np.exp(-2.0 * xi)) * np.exp(-xi)
        )
        expo = (pi_sq - xi * xi) * inv4t + log_sinh - half * log_den
        return np.exp(np.where(expo < -745.0, -np.inf, expo)) * osc

    def f(xi: np.ndarray) -> np.ndarray:
        osc = np.sin(math.pi * xi / (2.0 * t))
        far = xi >= 350.0
        if not far.any():
            return direct(xi, osc)
        out = np.empty_like(xi)
        near = ~far
        out[near] = direct(xi[near], osc[near])
        out[far] = log_form(xi[far], osc[far])
        return out

    xi_max = 2.0 * math.sqrt(t * (math.log(1.0 / tol) + 5.0)) + 2.0 * t + 2.0
    # seed the sign-change lattice of the oscillation
    step = 2.0 * t
    count = min(int(xi_max / step), 400)
    bps = [step * k for k in range(1, count + 1)]
    res = integrate_adaptive(
        f, 0.0, xi_max, tol, abs_tol=0.0, breakpoints=bps, vectorized=True
    )
    return res.scaled(pref * factor)


def heat_gruet(
    n: int,
    t: float,
    rho: float,
    *,
    sigma: float | None = None,
    convention: str = "paper",
    tol: float = DEFAULT_TOL,
) -> QuadResult:
    """Heat kernel as a vertical-contour integral at abscissa sigma.

    The integrand sin(y) (cosh rho - cos y)^(-(n+1)/2) exp(y^2/4t) with
    y = sigma - i xi is analytic for 0 < sigma < 2 pi, so no branch tracking
    is needed; the singular points y = +-(i rho) + 2 pi k show up as a spike
    near xi = rho for small sigma, seeded as a breakpoint.  The integrand
    takes a sweep's nodes at once.
    """
    check_query(_HYPERBOLIC, n, "heat", t, rho)
    if sigma is None:
        # the abscissa must lie in (0, pi]
        sigma = sigma_default(t, rho, math.pi)
    if not 0.0 < sigma <= math.pi:
        raise DomainError(f"abscissa must lie in (0, pi], got {sigma}")
    factor = convention_factor(Space.HYPERBOLIC, convention, n, t)
    pref = (
        math.gamma(0.5 * (n + 1))
        / (2.0 ** (0.5 * (n - 1)) * math.pi ** (0.5 * n + 1.0))
        / math.sqrt(4.0 * t)
    )
    half = 0.5 * (n + 1)
    inv4t = 0.25 / t
    cosh_rho = math.cosh(rho)

    def f(y: np.ndarray) -> np.ndarray:
        return np.exp(y * y * inv4t) * np.sin(y) * (cosh_rho - np.cos(y)) ** (-half)

    spec = contour_spec(sigma, 4.0 * t, tol)
    bps = [rho] if 0.0 < rho < spec.xi_max else []
    res = integrate_contour(f, spec, bps)
    return res.scaled(pref * factor)


# ---------------------------------------------------------------------------
# poisson


def poisson_closed(n: int, y: float, rho: float) -> float:
    """Gamma(h)/(2 pi)^h sin(y) / (cosh rho - cos y)^h, h = (n+1)/2.

    With v = e^(-rho/2) the base is d/(2v^2), d = (1 - v^2)^2 +
    (2v sin(y/2))^2: a sum of squares, 1 - v^2 taken by expm1, so nothing
    cancels as rho and y go to 0.  The kernel is then Gamma(h)/pi^h sin(y)
    v^(n+1) d^-h.  No factor overflows where the kernel is a float: v^(n+1)
    underflows only with the kernel, and d <= 4, its power taken as a square
    (sqrt(d)^-h)^2 so that a tiny d overflows only with the kernel too.
    """
    check_query(_HYPERBOLIC, n, "poisson", y, rho)
    return _poisson(math, n, y, rho)


def _poisson(xp, n: int, y: float, rho):
    """The arithmetic of :func:`poisson_closed`: at a float rho with the math
    module as ``xp``, or at an array of distances with numpy."""
    half = 0.5 * (n + 1)
    v = xp.exp(-0.5 * rho)
    q = xp.hypot(xp.expm1(-rho), 2.0 * v * math.sin(0.5 * y)) ** -half
    amp = math.gamma(half) / math.pi**half * math.sin(y)
    return amp * v ** (n + 1) * q * q


def _poisson_jet(base_dim: int, y: float) -> RadialGenerator:
    half = 0.5 * (base_dim + 1)
    amp = math.gamma(half) / (2.0 * math.pi) ** half * math.sin(y)

    def gen(center: float, order: int) -> Jet:
        x = variable(center, order)
        return (x.cosh() - math.cos(y)).power(-half) * amp

    return gen


def poisson_raise(n: int, y: float, rho: float) -> QuadResult:
    """Poisson kernel raised from the closed 1-d or 2-d strip kernel."""
    check_query(_HYPERBOLIC, n, "poisson", y, rho)
    base_dim = 1 if n % 2 == 1 else 2
    k = (n - base_dim) // 2

    def at(r: float) -> QuadResult:
        value = raise_operator(Space.HYPERBOLIC, _poisson_jet(base_dim, y), k, r)
        return QuadResult(value, 0.0, 0)

    if raises_directly(k, rho):
        return at(rho)
    return even_extrapolate(at, rho, 2.0 * GUARD_RHO, 4.0 * GUARD_RHO)


def poisson_descent(n: int, y: float, rho: float, tol: float = DEFAULT_TOL) -> QuadResult:
    """Poisson kernel as the descent integral of the closed (n+1)-kernel.

    The integrand takes a sweep's nodes at once.  As math does at a float, it
    raises OverflowError where sinh s overflows, past s ~ 710.
    """
    check_query(_HYPERBOLIC, n, "poisson", y, rho)

    def f_regular(s: np.ndarray) -> np.ndarray:
        d = s - rho
        # s rounds to rho at the nodes nearest the endpoint
        ratio = np.where(d == 0.0, 2.0, d / np.sinh(0.5 * d))
        sinh_s = np.sinh(s)
        if np.isinf(sinh_s).any():
            raise OverflowError("sinh s overflows in the descent weight")
        return _poisson(np, n + 1, y, s) * sinh_s * np.sqrt(ratio / np.sinh(0.5 * (s + rho)))

    s_top = rho + 2.0 * (math.log(1.0 / tol) + 5.0) / (n + 1) + 5.0
    return integrate_sqrt_endpoint(f_regular, rho, s_top, tol, abs_tol=0.0, vectorized=True)
