"""Heat and Poisson kernels on hyperbolic space.

Heat representations:

* raising (odd n): (n-1)/2 applications of D = -(2 pi sinh rho)^(-1) d/drho
  to the flat 1-d Gaussian; in particular
  H_3(t, rho) = (4 pi t)^(-3/2) (rho/sinh rho) exp(-rho^2/4t).
* descent (even n): the inverse-square-root integral
  integral_rho^inf (cosh^2(s/2) - cosh^2(rho/2))^(-1/2) H_(n+1)(t,s)
  sinh s ds of the odd (n+1)-kernel, a float integral whose integrand
  raises the 1-d Gaussian at a whole sweep's nodes in one batch.
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

from .errors import DomainError
from .geometry import Space, check_query, convention_factor
from .jets import _INV_FACTORIAL, Jet, RadialGenerator, _raised_at_nodes, gauss_jet, raise_kernel
from .quadrature import (
    DEFAULT_TOL,
    QuadResult,
    contour_power,
    contour_spec,
    descent_breakpoints,
    gaussian_breakpoints,
    integrate_adaptive,
    integrate_contour,
    integrate_sqrt_endpoint,
    scale_seeds,
    sigma_saddle,
)

# bound once: an enum member lookup costs about as much as the entry check
_HYPERBOLIC = Space.HYPERBOLIC


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
    """Odd-dimensional heat kernel by raising the flat 1-d Gaussian, with
    :func:`raise_kernel`'s pole series and error within POLE_REACH of 0."""
    check_query(_HYPERBOLIC, n, "heat", t, rho)
    if n % 2 == 0:
        raise DomainError("raising reaches odd dimensions only; use heat_descent")
    factor = convention_factor(Space.HYPERBOLIC, convention, n, t)
    return raise_kernel(_HYPERBOLIC, gauss_jet(t), (n - 1) // 2, rho, tol).scaled(factor)


def heat_descent(
    n: int,
    t: float,
    rho: float,
    *,
    convention: str = "paper",
    tol: float = DEFAULT_TOL,
) -> QuadResult:
    """Even-dimensional heat kernel as the descent integral of the odd
    (n+1)-kernel,

        H_n(rho) = sqrt(2) integral_rho^inf H_(n+1)(s) sinh s
                   (cosh s - cosh rho)^(-1/2) ds,

    with cosh s - cosh rho = 2 sinh((s + rho)/2) sinh((s - rho)/2), so that
    the square-root endpoint comes off as (s - rho)^(-1/2).  H_(n+1) takes a
    sweep's nodes from :func:`_raised_at_nodes`: the pole series near 0 and
    one batched raise of the 1-d Gaussian beyond.  The Gaussian's fall-off
    points and, for n < 10, halvings of the first fall-off panel down to the
    scale rho (:func:`descent_breakpoints`) seed the partition.  Where sinh s
    would overflow at the top, the integral stops where the Gaussian has
    underflowed to 0, if that comes first, and is 0 if that is below rho;
    if the Gaussian is not yet 0 there, it raises OverflowError.  The err
    is the quadrature's; the raise adds none of its own.
    """
    check_query(_HYPERBOLIC, n, "heat", t, rho)
    if n % 2 == 1:
        raise DomainError("descent reaches even dimensions only; use heat_raise")
    s_top = math.sqrt(rho * rho + 4.0 * t * (math.log(1.0 / tol) + 5.0)) + 2.0
    if s_top > 710.0:
        # exp(-s^2/4t) is exactly 0 beyond this s
        s_top = min(s_top, math.sqrt(4.0 * t * 746.0))
    if s_top <= rho:
        return QuadResult(0.0, 0.0, 0)
    if s_top > 710.0:
        raise OverflowError("sinh s overflows before the Gaussian underflows")
    factor = convention_factor(Space.HYPERBOLIC, convention, n, t)
    kernel = _raised_at_nodes(_HYPERBOLIC, gauss_jet(t), n // 2, tol)

    def f_regular(s: np.ndarray) -> np.ndarray:
        d = s - rho
        # s rounds to rho at the nodes nearest the endpoint
        ratio = np.where(d == 0.0, 2.0, d / np.sinh(0.5 * d))
        return kernel(s)[0] * np.sinh(s) * np.sqrt(ratio / np.sinh(0.5 * (s + rho)))

    # from n = 10 on the direct raise at the nodes is rounding-limited
    # (ROADMAP item 1), and more seeds there only move which cells miss
    if n < 10:
        seeds = descent_breakpoints(t, rho, s_top)
    else:
        seeds = gaussian_breakpoints(0.0, t, rho, s_top)
    res = integrate_sqrt_endpoint(
        f_regular, rho, s_top, tol, abs_tol=0.0, breakpoints=seeds, vectorized=True
    )
    return res.scaled(factor)


def heat_classic(
    n: int,
    t: float,
    rho: float,
    *,
    convention: str = "paper",
    tol: float = DEFAULT_TOL,
) -> QuadResult:
    """Heat kernel from the oscillatory real integral along the pi line.

    The integrand takes a sweep's nodes at once and takes a log form at
    each node where the direct form's power (cosh rho + cosh xi)^((n+1)/2)
    could pass e^700.  As math does at a float, it raises OverflowError
    where its Gaussian exp(pi^2/4t) overflows.
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
        if np.isinf(gauss).any():
            raise OverflowError("exp(pi^2/4t) overflows")
        return gauss * np.sinh(xi) * osc / (cosh_rho + np.cosh(xi)) ** half

    def log_form(xi: np.ndarray, osc: np.ndarray) -> np.ndarray:
        # the power overflows first, and large xi arises whenever t is large
        # because the integrand support scales with t
        log_sinh = xi - math.log(2.0) + np.log1p(-np.exp(-2.0 * xi))
        log_den = xi - math.log(2.0) + np.log1p(
            (2.0 * cosh_rho + np.exp(-2.0 * xi)) * np.exp(-xi)
        )
        expo = (pi_sq - xi * xi) * inv4t + log_sinh - half * log_den
        return np.exp(np.where(expo < -745.0, -np.inf, expo)) * osc

    # cosh rho + cosh xi <= 2 e^max(rho, xi), so the direct form's power
    # and cosh xi stay below e^700 where max(rho, xi) is at most this
    reach = 700.0 / half - math.log(2.0)
    if rho > reach:
        reach = -1.0

    def f(xi: np.ndarray) -> np.ndarray:
        osc = np.sin(math.pi * xi / (2.0 * t))
        far = xi > reach
        if not far.any():
            return direct(xi, osc)
        out = np.empty_like(xi)
        near = ~far
        out[near] = direct(xi[near], osc[near])
        out[far] = log_form(xi[far], osc[far])
        return out

    xi_max = 2.0 * math.sqrt(t * (math.log(1.0 / tol) + 5.0)) + 2.0 * t + 2.0
    # seed the sign-change lattice of the oscillation, and its extrema where
    # the Gaussian exp(-xi^2/4t) has fallen by less than e^-9
    step = 2.0 * t
    count = min(int(xi_max / step), 400)
    bps = [step * k for k in range(1, count + 1)]
    bps += [t * k for k in range(1, min(int(6.0 / math.sqrt(t)), 400), 2)]
    bps += scale_seeds(0.0, 0.5 * min(t, 1.0), 2.0 * math.sqrt(t), 0.0, xi_max)
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
    near xi = rho for small sigma, seeded at its widths.  By default sigma
    is the flat integrand's saddle point
    (:func:`~ckernels.quadrature.sigma_saddle`, capped at pi).  The
    integrand takes a sweep's nodes at once.
    """
    check_query(_HYPERBOLIC, n, "heat", t, rho)
    if sigma is None:
        # the abscissa must lie in (0, pi]
        sigma = sigma_saddle(n, t, rho, math.pi)
    if not 0.0 < sigma <= math.pi:
        raise DomainError(f"abscissa must lie in (0, pi], got {sigma}")
    factor = convention_factor(Space.HYPERBOLIC, convention, n, t)
    pref = (
        math.gamma(0.5 * (n + 1))
        / (2.0 ** (0.5 * (n - 1)) * math.pi ** (0.5 * n + 1.0))
        / math.sqrt(4.0 * t)
    )
    inv4t = 0.25 / t
    cosh_rho = math.cosh(rho)

    def f(y: np.ndarray) -> np.ndarray:
        return np.exp(y * y * inv4t) * np.sin(y) * contour_power(cosh_rho - np.cos(y), n)

    res = integrate_contour(f, contour_spec(sigma, 4.0 * t, tol), spikes=[rho])
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
    half = 0.5 * (n + 1)
    v = math.exp(-0.5 * rho)
    q = math.hypot(math.expm1(-rho), 2.0 * v * math.sin(0.5 * y)) ** -half
    amp = math.gamma(half) / math.pi**half * math.sin(y)
    return amp * v ** (n + 1) * q * q


def _poisson_jet(base_dim: int, y: float) -> RadialGenerator:
    """Jets of the closed strip kernel in dimension ``base_dim``, its base
    cosh x - cos y valued as 2 sinh^2(x/2) + 2 sin^2(y/2), which does not
    cancel as x and y go to 0; the higher coefficients are cosh x's."""
    half = 0.5 * (base_dim + 1)
    amp = math.gamma(half) / (2.0 * math.pi) ** half * math.sin(y)
    floor = 2.0 * math.sin(0.5 * y) ** 2

    def gen(center: float, order: int) -> Jet:
        # cosh^(j)(c) / j!, the derivatives cycling with period 2
        cycle = (math.cosh(center), math.sinh(center))
        base = [2.0 * math.sinh(0.5 * center) ** 2 + floor]
        base += [cycle[j % 2] * _INV_FACTORIAL[j] for j in range(1, order + 1)]
        return Jet(center, np.array(base)).power(-half) * amp

    return gen


def poisson_raise(n: int, y: float, rho: float) -> QuadResult:
    """Poisson kernel raised from the closed 1-d or 2-d strip kernel."""
    check_query(_HYPERBOLIC, n, "poisson", y, rho)
    base_dim = 1 if n % 2 == 1 else 2
    return raise_kernel(_HYPERBOLIC, _poisson_jet(base_dim, y), (n - base_dim) // 2, rho)


def poisson_descent(n: int, y: float, rho: float, tol: float = DEFAULT_TOL) -> QuadResult:
    """Poisson kernel as the descent integral of the closed (n+1)-kernel.

    The integrand is P_(n+1)(y, s) sinh s (ratio / sinh((s + rho)/2))^(1/2),
    ratio = (s - rho)/sinh((s - rho)/2).  On the base of
    :func:`poisson_closed`, with v = e^(-s/2), P_(n+1) = A v^(n+2) q^2,
    sinh s = (1 - e^(-2s))/(2 v^2) and sinh((s + rho)/2)^(-1/2)
    = (2/(1 - e^(-(s+rho))))^(1/2) e^(-(s+rho)/4); the powers of e^(-s/2)
    and e^(-rho/4) fold into the one exponential e^(-(2n+1)s/4 - rho/4),
    which underflows only with the kernel, so no factor overflows at large
    rho.  The integrand takes a sweep's nodes at once.
    """
    check_query(_HYPERBOLIC, n, "poisson", y, rho)
    half = 0.5 * (n + 2)
    amp = math.gamma(half) / math.pi**half * math.sin(y) * math.sqrt(0.5)
    two_sin = 2.0 * math.sin(0.5 * y)

    def f_regular(s: np.ndarray) -> np.ndarray:
        d = s - rho
        # s rounds to rho at the nodes nearest the endpoint
        ratio = np.where(d == 0.0, 2.0, d / np.sinh(0.5 * d))
        q = np.hypot(np.expm1(-s), two_sin * np.exp(-0.5 * s)) ** -half
        power = np.exp(-0.25 * ((2 * n + 1) * s + rho))
        return (
            amp * q * q * power * -np.expm1(-2.0 * s) * np.sqrt(ratio / -np.expm1(-(s + rho)))
        )

    s_top = rho + 2.0 * (math.log(1.0 / tol) + 5.0) / (n + 1) + 5.0
    # the bump of width y at s = 0, and the decay e^(-(2n+1)s/4)
    seeds = scale_seeds(rho, min(0.25 * y, 4.0 / (2 * n + 1)), s_top - rho, rho, s_top)
    return integrate_sqrt_endpoint(
        f_regular, rho, s_top, tol, abs_tol=0.0, breakpoints=seeds, vectorized=True
    )
