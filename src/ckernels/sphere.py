"""Heat and Poisson kernels on the unit sphere.

Heat kernels come in five representations:

* theta series: the wrapped Gaussian on the circle (n = 1), the
  inverse-square-root wrapped integral on the 2-sphere (n = 2), and the
  explicit image sum with the 1/sin(phi) Jacobian on the 3-sphere.
* raising: (n-1)/2 or (n-2)/2 applications of D = -(2 pi sin phi)^(-1) d/dphi
  to the circle or 2-sphere series, with the angular derivatives carried by
  truncated jets (including jets of the wrapped integral itself).
* contour: a vertical-line integral against exp(y^2/4t) sinh y
  (cosh y - cos phi)^(-(n+1)/2); for even n the half-integer power needs the
  analytic branch, tracked by an explicit sign on successive cut crossings.
* spectral (n >= 2, t >= SPECTRAL_MIN_T): the Gegenbauer eigenfunction
  series, summed by the three-term recurrence with a rigorous tail bound.
* doubling (Poisson): the kernel at angle phi written as an average of the
  (2n+1)-sphere kernel at half the height.

All heat kernels here follow the geometric normalization whose generator is
the plain Laplacian; their mass therefore decays like exp(-(n-1)^2 t / 4).
The Poisson kernel below is the closed form

    P_n(y, phi) = Gamma((n+1)/2)/pi^((n+1)/2)
                  * sinh y / (2 cosh y - 2 cos phi)^((n+1)/2),

the semigroup kernel of exp(-y sqrt(-(Laplacian - (n-1)^2/4))), with
multiplicative total mass exp(-y (n-1)/2).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, SingularPointError
from .geometry import Space, check_positive, check_query, convention_exponent
from .jets import Jet, RadialGenerator, raise_operator, variable
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

# Raising and image-sum paths degrade within this angle of the poles; they
# switch to an even quadratic extrapolation from just outside the band
# (documented accuracy loss around 1e-6 relative).
GUARD_ANGLE = 1e-2

# The spectral series refuses shorter times: its terms grow like t^(-n/2)
# before they decay, so near the antipode, where the sum cancels to about
# exp(-pi^2/4t), the roundoff floor swamps the value.  Sphere subordination
# takes its inner heat kernel from the series from this time on; at 0.1 a
# call costs about as much as heat_theta3 and a twentieth of heat_theta2.
SPECTRAL_MIN_T = 0.1

# bound once: an enum member lookup costs about as much as the entry check
_SPHERE = Space.SPHERE
_EPS = float(np.finfo(float).eps)


def _pole_guarded(at, phi: float) -> QuadResult:
    """at(phi), extrapolated evenly from outside GUARD_ANGLE near either pole."""
    if phi < GUARD_ANGLE:
        return even_extrapolate(at, phi, 2.0 * GUARD_ANGLE, 4.0 * GUARD_ANGLE)
    if math.pi - phi < GUARD_ANGLE:
        return even_extrapolate(
            lambda u: at(math.pi - u),
            math.pi - phi,
            2.0 * GUARD_ANGLE,
            4.0 * GUARD_ANGLE,
        )
    return at(phi)


# ---------------------------------------------------------------------------
# theta series


def _image_range(t: float, phi: float, tol: float) -> range:
    """Indices m for which the image at phi + 2 pi m still matters."""
    reach = math.sqrt(phi * phi + 4.0 * t * (math.log(1.0 / tol) + 3.0)) + 2.0 * math.pi
    m_max = int(reach / (2.0 * math.pi)) + 1
    return range(-m_max, m_max + 1)


def heat_theta1(t: float, phi: float, tol: float = DEFAULT_TOL) -> QuadResult:
    """Circle heat kernel: the wrapped Gaussian sum over images."""
    check_query(_SPHERE, 1, "heat", t, phi)
    ms = _image_range(t, phi, tol)
    args = phi + 2.0 * math.pi * np.arange(ms.start, ms.stop)
    terms = np.exp(-(args * args) / (4.0 * t))
    value = float(terms.sum()) * (4.0 * math.pi * t) ** -0.5
    # truncation bound: the first omitted pair of images
    edge = abs(float(args[0])) + 2.0 * math.pi
    tail = 2.0 * math.exp(-edge * edge / (4.0 * t)) * (4.0 * math.pi * t) ** -0.5
    return QuadResult(value, tail + 4.0 * _EPS * value, 0)


def _theta1_jet(t: float, tol: float) -> RadialGenerator:
    amp = (4.0 * math.pi * t) ** -0.5

    def gen(center: float, order: int) -> Jet:
        x = variable(center, order)
        total = None
        for m in _image_range(t, center, tol):
            shifted = x + 2.0 * math.pi * m
            term = (shifted * shifted * (-0.25 / t)).exp()
            total = term if total is None else total + term
        return total * amp

    return gen


def heat_theta3(t: float, phi: float, tol: float = DEFAULT_TOL) -> QuadResult:
    """3-sphere heat kernel: image sum with the phi/sin(phi) Jacobian."""
    check_query(_SPHERE, 3, "heat", t, phi)
    if phi < 1e-6 or math.pi - phi < 1e-6:
        raise SingularPointError(
            "image sum needs 1/sin(phi); evaluate away from the poles"
        )
    ms = _image_range(t, phi, tol)
    args = phi + 2.0 * math.pi * np.arange(ms.start, ms.stop)
    terms = args * np.exp(-(args * args) / (4.0 * t))
    value = float(terms.sum()) / math.sin(phi) * (4.0 * math.pi * t) ** -1.5
    edge = abs(float(args[0])) + 2.0 * math.pi
    tail = (
        2.0
        * edge
        * math.exp(-edge * edge / (4.0 * t))
        / abs(math.sin(phi))
        * (4.0 * math.pi * t) ** -1.5
    )
    floor = 8.0 * _EPS * float(np.abs(terms).max() / abs(math.sin(phi))) * (
        4.0 * math.pi * t
    ) ** -1.5
    return QuadResult(value, tail + floor, 0)


def _half_sine_sq(x: float) -> float:
    s = math.sin(0.5 * x)
    return s * s


def heat_theta2(t: float, phi: float, tol: float = DEFAULT_TOL) -> QuadResult:
    """2-sphere heat kernel: wrapped inverse-square-root integral.

    Each image m contributes
    integral_phi^pi exp(-(psi+2 pi m)^2/4t) (psi+2 pi m)
    (sin^2(psi/2) - sin^2(phi/2))^(-1/2) dpsi with alternating sign; the
    endpoint singularity at psi = phi is removed by the x = phi + u^2
    substitution, using sin^2(psi/2) - sin^2(phi/2)
    = sin((psi+phi)/2) sin((psi-phi)/2) for cancellation-free evaluation.
    The integrand takes a sweep's nodes at once.
    """
    check_query(_SPHERE, 2, "heat", t, phi)
    if phi == math.pi:
        raise SingularPointError("representation degenerates at the antipode")
    amp = (4.0 * math.pi * t) ** -1.5
    inv4t = 0.25 / t

    def piece(m: int, abs_tol: float) -> QuadResult:
        off = 2.0 * math.pi * m

        def f_regular(psi: np.ndarray) -> np.ndarray:
            d = psi - phi
            # psi rounds to phi at the nodes nearest the endpoint
            ratio = np.where(d == 0.0, 2.0, d / np.sin(0.5 * d))
            arg = psi + off
            return arg * np.exp(-arg * arg * inv4t) * np.sqrt(ratio / np.sin(0.5 * (psi + phi)))

        return integrate_sqrt_endpoint(
            f_regular, phi, math.pi, tol * 0.3, abs_tol=abs_tol, vectorized=True
        )

    head = piece(0, 0.0)
    value = head.value
    err = head.err_estimate
    evals = head.n_evals
    scale_tol = tol * 0.3 * abs(head.value)
    for m in _image_range(t, phi, tol):
        if m == 0:
            continue
        # skip images whose Gaussian factor is negligible on [phi, pi]
        low = min(abs(phi + 2.0 * math.pi * m), abs(math.pi + 2.0 * math.pi * m))
        if phi + 2.0 * math.pi * m < 0.0 < math.pi + 2.0 * math.pi * m:
            low = 0.0
        if math.exp(-low * low * inv4t) * (abs(low) + math.pi) < scale_tol:
            continue
        sign = -1.0 if m % 2 else 1.0
        res = piece(m, scale_tol)
        value += sign * res.value
        err += res.err_estimate
        evals += res.n_evals
    return QuadResult(value * amp, err * amp, evals)


def _theta2_jet(t: float, tol: float, evals: list) -> RadialGenerator:
    """Jets of the wrapped inverse-square-root integral.

    Differentiation under the integral sign is only legitimate once every
    moving endpoint is removed, so each image integral is split at a fixed
    interior level z* of z = sin^2(psi/2) - sin^2(phi/2).  Below z* the
    z-substituted integrand has constant limits [0, z*] and is expanded in
    jets through psi(z) = 2 arcsin(sqrt(sin^2(phi/2) + z)).  Above z* the
    psi-range [psi_up(phi), pi] still moves with phi, so it is mapped to the
    fixed interval s in [0, 1] with the endpoint psi_up carried as a jet.
    Both integrands run once per quadrature sweep, on a batch of jets.
    Images whose Gaussian factor underflows to 0 on all of [0, pi] add
    exact zeros and are skipped.
    """
    amp = (4.0 * math.pi * t) ** -1.5
    inv4t = 0.25 / t

    def gen(center: float, order: int) -> Jet:
        if not 0.0 < center < math.pi:
            raise SingularPointError("wrapped-integral jets need an interior angle")
        x = variable(center, order)
        sin_half = (x * 0.5).sin()
        q_base = sin_half * sin_half
        z_star = 0.5 * (1.0 - _half_sine_sq(center))  # half of cos^2(phi/2)
        psi_up = (q_base + z_star).sqrt().arcsin() * 2.0
        span = math.pi - psi_up
        count = 0
        total = None

        def add(piece_val):
            nonlocal total
            total = piece_val if total is None else total + piece_val

        for m in _image_range(t, center, tol):
            off = 2.0 * math.pi * m
            # exp underflows to exactly 0 below -745.14, so such an image
            # adds zeros
            low = min(abs(off), abs(off + math.pi))
            if low * low * inv4t > 746.0:
                continue
            sign = -1.0 if m % 2 else 1.0

            def g_of(psi_jet):
                arg = psi_jet + off
                return arg * (arg * arg * (-inv4t)).exp()

            def low_body(z: np.ndarray):
                q = q_base + z
                psi_jet = q.sqrt().arcsin() * 2.0
                dens = (q * (1.0 - q)).sqrt()
                return (g_of(psi_jet) / dens).coeffs

            def high_body(s: np.ndarray):
                psi_jet = psi_up + span * s
                half = (psi_jet * 0.5).sin()
                base = half * half - q_base
                return (g_of(psi_jet) * base.power(-0.5) * span).coeffs

            res_low = integrate_sqrt_endpoint(
                low_body, 0.0, z_star, tol * 0.2, abs_tol=0.0, vectorized=True
            )
            res_high = integrate_adaptive(
                high_body, 0.0, 1.0, tol * 0.2, abs_tol=0.0, vectorized=True
            )
            count += res_low.n_evals + res_high.n_evals
            add(sign * (Jet(center, res_low.value) + Jet(center, res_high.value)))
        evals.append(count)
        return total * amp

    return gen


def heat_theta(n: int, t: float, phi: float, tol: float = DEFAULT_TOL) -> QuadResult:
    """Theta-series heat kernel; available for n in {1, 2, 3}."""
    if n == 1:
        return heat_theta1(t, phi, tol)
    if n == 2:
        return heat_theta2(t, phi, tol)
    if n == 3:
        return heat_theta3(t, phi, tol)
    raise DomainError(f"theta series is implemented for n in {{1,2,3}}, got {n}")


# ---------------------------------------------------------------------------
# raising


def heat_raise(n: int, t: float, phi: float, tol: float = DEFAULT_TOL) -> QuadResult:
    """Sphere heat kernel through the dimension-raising recursion.

    Near the poles the division by sin(phi) is replaced by an even quadratic
    extrapolation from just outside GUARD_ANGLE (phi = 0 itself is exact by
    parity for the circle-based branch).
    """
    check_query(_SPHERE, n, "heat", t, phi)
    if n == 1:
        return heat_theta1(t, phi, tol)
    if n == 2:
        return heat_theta2(t, phi, tol)

    def at(angle: float) -> QuadResult:
        if n % 2 == 1:
            k = (n - 1) // 2
            value = raise_operator(Space.SPHERE, _theta1_jet(t, tol), k, angle)
            return QuadResult(value, tol * abs(value), 0)
        evals: list = []
        k = (n - 2) // 2
        value = raise_operator(Space.SPHERE, _theta2_jet(t, tol, evals), k, angle)
        return QuadResult(value, 2.0 * tol * abs(value), sum(evals))

    if phi == 0.0 and n % 2 == 1:
        return at(phi)
    return _pole_guarded(at, phi)


# ---------------------------------------------------------------------------
# spectral


def heat_spectral(
    n: int, t: float, phi: float, tol: float = DEFAULT_TOL, *, convention: str = "paper"
) -> QuadResult:
    """Sphere heat kernel as its Gegenbauer eigenfunction series (n >= 2):

    h_n(t, phi) = sum_l w_l C_l^a(cos phi) / vol(S^n),
    w_l = exp(-(l+a)^2 t) (2l+n-1)/(n-1),  a = (n-1)/2,

    summed by the recurrence (l+1) C_(l+1) = 2 (l+a) x C_l - (l+2a-1) C_(l-1).
    Since |C_l^a(x)| <= C_l^a(1), term l is at most b_l = w_l C_l^a(1), and
    the ratio b_(l+1)/b_l decreases in l; so the tail past term l is at most
    b_(l+1) / (1 - q) with q = b_(l+2)/b_(l+1).  The sum stops once that bound
    is at most tol |sum|, which holds too once the b_l underflow to 0.  The
    error estimate is the tail bound plus a roundoff floor proportional to
    the sum of the b_l, the larger term near the antipode, where the sum
    cancels.  Times below SPECTRAL_MIN_T are refused.  ``n_evals`` counts
    the terms summed.  The "markovian" convention's factor exp(a^2 t) is
    folded into the final scaling, which it cancels, so it never overflows.
    """
    check_query(_SPHERE, n, "heat", t, phi)
    if n == 1:
        raise DomainError("the spectral series is implemented for n >= 2")
    if t < SPECTRAL_MIN_T:
        raise DomainError(f"the spectral series needs t >= {SPECTRAL_MIN_T}, got {t}")
    check_positive("tolerance", tol)
    a = 0.5 * (n - 1)
    two_a = 2.0 * a
    x2 = 2.0 * math.cos(phi)
    log_vol = math.log(2.0) + (a + 1.0) * math.log(math.pi) - math.lgamma(a + 1.0)
    # w_l carries exp(-(l+a)^2 t) / exp(-a^2 t); that factor, times the
    # convention's, and 1/vol(S^n) are applied once, at the end
    carried = a * a * t - convention_exponent(_SPHERE, convention, n, t)
    scale = math.exp(-carried - log_vol)
    exp = math.exp
    c_prev, c = 0.0, 1.0  # C_(l-1), C_l at cos(phi)
    w, w_next = 1.0, exp(-(1.0 + two_a) * t) * (1.0 + a) / a
    c_one, c_one_next = 1.0, two_a  # C_l, C_(l+1) at 1
    b_next = w_next * c_one_next
    total = bound = 0.0
    l = 0
    while True:
        total += w * c
        bound += w * c_one
        k = l + 2.0
        c_one_2 = c_one_next * (k - 1.0 + two_a) / k
        w_2 = exp(-k * (k + two_a) * t) * (k + a) / a
        b_2 = w_2 * c_one_2
        # tail <= b_next / (1 - b_2/b_next) <= tol |total|, multiplied out
        if b_next * b_next <= tol * abs(total) * (b_next - b_2):
            break
        l += 1
        c_prev, c = c, (x2 * (l - 1.0 + a) * c - (l - 2.0 + two_a) * c_prev) / l
        w, w_next = w_next, w_2
        c_one, c_one_next = c_one_next, c_one_2
        b_next = b_2
    tail = b_next * b_next / (b_next - b_2) if b_next > 0.0 else 0.0
    # rounding: the recurrence and the sum lose about l + 1 units in the
    # last place of the largest term, and each weight one per unit of its
    # exponent l (l + 2a) t; the final scaling one per unit of its exponent,
    # and it may land among the subnormals
    floor = _EPS * bound * (2.0 * (l + 1) + l * (l + two_a) * t)
    value = total * scale
    err = (tail + floor) * scale + _EPS * (carried + abs(log_vol) + 2.0) * abs(value)
    return QuadResult(value, err + math.ulp(0.0) * (bound + 1.0), l + 1)


# ---------------------------------------------------------------------------
# contour


def heat_gruet(
    n: int,
    t: float,
    phi: float,
    *,
    sigma: float | None = None,
    tol: float = DEFAULT_TOL,
) -> QuadResult:
    """Sphere heat kernel as a branch-tracked vertical-contour integral.

    The integrand sinh(y) (cosh y - cos phi)^(-(n+1)/2) exp(y^2/4t) with
    y = sigma - i xi crosses the cut of the principal half-integer power at
    xi = pi, 3 pi, ...; for even n the analytic branch flips sign there.
    Spikes sit where cosh y approaches cos phi (xi near 2 pi k +/- phi); both
    families are seeded as breakpoints.  The integrand takes a sweep's nodes
    at once.
    """
    check_query(_SPHERE, n, "heat", t, phi)
    if sigma is None:
        sigma = sigma_default(t, phi, 3.0)
    check_positive("sigma", sigma)
    pref = (
        math.gamma(0.5 * (n + 1))
        / (2.0 ** (0.5 * (n - 1)) * math.pi ** (0.5 * n + 1.0))
        / math.sqrt(4.0 * t)
    )
    half = 0.5 * (n + 1)
    inv4t = 0.25 / t
    even = n % 2 == 0
    cos_phi = math.cos(phi)

    def f(y: np.ndarray) -> np.ndarray:
        base = np.cosh(y) - cos_phi
        val = np.exp(y * y * inv4t) * np.sinh(y) * base ** (-half)
        if even:
            # The base crosses the cut where Im(base) = -sinh(sigma) sin(xi)
            # changes sign at an odd multiple of pi, and cos(xi/2) changes
            # sign there and only there.  Both signs follow the float xi
            # itself, so the branch is taken from the side of the cut the
            # computed base lies on, also where xi / pi rounds onto 1 or 3.
            val *= np.copysign(1.0, np.cos(0.5 * y.imag))
        return val

    spec = contour_spec(sigma, 4.0 * t, tol)
    bps = set()
    k = 1
    while k * math.pi < spec.xi_max:
        bps.add(k * math.pi)
        k += 1
    base = 0.0
    while base - phi < spec.xi_max:
        for cand in (base + phi, base - phi):
            if 0.0 < cand < spec.xi_max:
                bps.add(cand)
        base += 2.0 * math.pi
    res = integrate_contour(f, spec, sorted(bps))
    return res.scaled(pref)


# ---------------------------------------------------------------------------
# poisson


def poisson_closed(n: int, y: float, phi: float) -> float:
    """Gamma(h)/pi^h sinh(y) / (2 cosh y - 2 cos phi)^h, h = (n+1)/2.

    With v = e^(-y/2) the base is d/v^2, d = (1 - v^2)^2 + (2v sin(phi/2))^2:
    a sum of squares, 1 - v^2 taken by expm1, so nothing cancels as y and
    phi go to 0.  Since sinh(y) v^2 = (1 - v^2)(1 + v^2)/2, the kernel is
    Gamma(h)/pi^h (1 - v^2)(1 + v^2)/2 v^(n-1) d^-h.  No factor overflows
    where the kernel is a float: v^(n-1) underflows only with the kernel,
    and d <= 4, its power taken as a square (sqrt(d)^-h)^2 so that a tiny d
    overflows only with the kernel too.
    """
    check_query(_SPHERE, n, "poisson", y, phi)
    half = 0.5 * (n + 1)
    v = math.exp(-0.5 * y)
    e = math.expm1(-y)
    q = math.hypot(e, 2.0 * v * math.sin(0.5 * phi)) ** -half
    amp = math.gamma(half) / math.pi**half * (-0.5 * e) * (2.0 + e)
    return amp * v ** (n - 1) * q * q


def _poisson_jet(base_dim: int, y: float) -> RadialGenerator:
    """Jets of the closed Poisson kernel in dimension 1 or 2."""
    half = 0.5 * (base_dim + 1)
    amp = math.gamma(half) / math.pi**half * math.sinh(y)

    def gen(center: float, order: int) -> Jet:
        x = variable(center, order)
        return (2.0 * math.cosh(y) - 2.0 * x.cos()).power(-half) * amp

    return gen


def poisson_raise(n: int, y: float, phi: float) -> QuadResult:
    """Sphere Poisson kernel raised from the circle or 2-sphere closed form."""
    check_query(_SPHERE, n, "poisson", y, phi)
    base_dim = 1 if n % 2 == 1 else 2
    k = (n - base_dim) // 2

    def at(angle: float) -> QuadResult:
        value = raise_operator(Space.SPHERE, _poisson_jet(base_dim, y), k, angle)
        return QuadResult(value, 0.0, 0)

    if phi == 0.0 or k == 0:
        return at(phi)
    return _pole_guarded(at, phi)


def poisson_doubling(
    n: int,
    y: float,
    phi: float,
    tol: float = DEFAULT_TOL,
    *,
    variant: str = "angle",
) -> QuadResult:
    """Poisson kernel at angle phi from the (2n+1)-sphere kernel at height y/2.

    Variant "angle" integrates over the substituted angle theta with
    cos psi = sin(theta) cos(phi/2) (a smooth integrand); variant "half"
    keeps the printed half-angle form over psi in [phi, 2 pi - phi] with its
    inverse-square-root endpoints.  Both integrands take a sweep's nodes at
    once.

    The (2n+1)-kernel at height y/2 takes the base of :func:`poisson_closed`:
    with v = e^(-y/4), 2 cosh(y/2) - 2 cos psi = d/v^2,
    d = (1 - v^2)^2 + 2 v^2 (1 - cos psi).  Both integrands weight it by
    cosh(y/2), and cosh(y/2) sinh(y/2) v^(2n+2) = (1 - v^8)/4 v^(2n-2), so
    the weighted kernel is Gamma(n+1)/pi^(n+1) (1 - v^8)/4 v^(2n-2)
    d^-(n+1), the power taken as a square as there.  No factor overflows
    where the kernel is a float, and v^(2n-2) underflows only with it.
    """
    check_query(_SPHERE, n, "poisson", y, phi)
    c_n = math.pi ** (0.5 * (n + 1)) / (2.0 ** (n - 1) * math.gamma(0.5 * (n + 1)))
    cos_half_phi = math.cos(0.5 * phi)
    half_m = n + 1.0  # (m + 1)/2 for m = 2n + 1
    v_sq = math.exp(-0.5 * y)
    e = math.expm1(-0.5 * y)  # v^2 - 1
    two_v_sq = 2.0 * v_sq
    amp = math.gamma(half_m) / math.pi**half_m * (-0.25 * math.expm1(-2.0 * y)) * v_sq ** (n - 1)

    def weighted_kernel(c: np.ndarray) -> np.ndarray:
        # cosh(y/2) times the closed (2n+1)-kernel at height y/2, cos(psi) = c
        q = np.sqrt(e * e + two_v_sq * (1.0 - c)) ** -half_m
        return amp * q * q

    if variant == "angle":

        def f(theta: np.ndarray) -> np.ndarray:
            return weighted_kernel(np.sin(theta) * cos_half_phi) * np.cos(theta) ** n

        res = integrate_adaptive(
            f, -0.5 * math.pi, 0.5 * math.pi, tol, abs_tol=0.0, vectorized=True
        )
        return res.scaled(c_n)

    if variant == "half":
        if phi == 0.0:
            raise SingularPointError("half-angle doubling degenerates at phi = 0")

        def g(psi: np.ndarray) -> np.ndarray:
            c = np.cos(0.5 * psi)
            ratio = c / cos_half_phi
            body = np.maximum(0.0, 1.0 - ratio * ratio)
            return (
                body ** (0.5 * (n - 1))
                * weighted_kernel(c)
                * np.sin(0.5 * psi)
                / cos_half_phi
            )

        res = integrate_adaptive(
            g,
            phi,
            2.0 * math.pi - phi,
            tol,
            abs_tol=0.0,
            breakpoints=[math.pi],
            vectorized=True,
        )
        return res.scaled(0.5 * c_n)

    raise DomainError(f"unknown doubling variant {variant!r}")
