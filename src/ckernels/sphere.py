"""Heat and Poisson kernels on the unit sphere.

Heat kernels come in five representations:

* theta series: the wrapped Gaussian on the circle (n = 1), the
  inverse-square-root wrapped integral on the 2-sphere (n = 2), and the
  explicit image sum with the 1/sin(phi) Jacobian on the 3-sphere.
* raising: (n-1)/2 or (n-2)/2 applications of D = -(2 pi sin phi)^(-1) d/dphi
  to the circle's image sum, or under the 2-sphere's integral at its nodes,
  with the angular derivatives carried by truncated jets.
* contour: a vertical-line integral against exp(y^2/4t) sinh y
  (cosh y - cos phi)^(-(n+1)/2); for even n the half-integer power needs the
  analytic branch, tracked by an explicit sign on successive cut crossings.
* spectral (t >= SPECTRAL_MIN_T): the Gegenbauer eigenfunction series, the
  Fourier series on the circle, summed by the three-term recurrence with a
  rigorous tail bound.
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

from .errors import ConvergenceError, DomainError, SingularPointError
from .geometry import Space, check_query, check_tol, convention_exponent
from .jets import _INV_FACTORIAL, Jet, RadialGenerator, _divide, _gauss_coeffs, _raised_at_nodes
from .jets import raise_kernel
from .quadrature import (
    DEFAULT_TOL,
    QuadResult,
    contour_power,
    contour_spec,
    gaussian_breakpoints,
    integrate_adaptive,
    integrate_contour,
    integrate_sqrt_endpoint,
    scale_seeds,
    sigma_saddle,
)

# The spectral series refuses shorter times: its terms grow like t^(-n/2)
# before they decay, and at angle phi the sum cancels to about
# exp(-phi^2/4t) of them, so the roundoff floor grows like exp(phi^2/4t)
# relative to the value and, at small t, swamps it away from the pole.  At
# t = 0.01 the sum takes up to ~57 terms; ``auto`` ranks the series first
# from t = 0.1 on, and below that only where phi^2 <= 24 t, where the
# floor's growth stays below e^6 (analysis._spectral_rank).  Sphere
# subordination takes its inner heat kernel from the node-array form of
# the series (_spectral_nodes) at every time, against an absolute target
# that the outer weight exp(-y^2/4t) sets, which that floor meets except
# for high n at small t; a node that misses it takes the auto walk.  The
# node-array form sums at most _NODE_TERMS terms, which bounds its
# matrices.
SPECTRAL_MIN_T = 0.01
_NODE_TERMS = 1024
_MAX_IMAGES = 10_000

# bound once: an enum member lookup costs about as much as the entry check
_SPHERE = Space.SPHERE
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


# ---------------------------------------------------------------------------
# theta series


def _image_range(t: float, phi: float, tol: float) -> range:
    """Indices m for which the image at phi + 2 pi m still matters.

    They grow like sqrt(t); past _MAX_IMAGES a side, first near t = 4e7 at
    tol 1e-10, the sums would allocate without bound, so they refuse with
    ConvergenceError before anything is allocated (:func:`_check_images`),
    as the contour's cuts and spikes do (:func:`heat_gruet`).
    """
    reach = math.sqrt(phi * phi + 4.0 * t * (math.log(1.0 / tol) + 3.0)) + 2.0 * math.pi
    m_max = _check_images(int(reach / (2.0 * math.pi)) + 1, t)
    return range(-m_max, m_max + 1)


def _check_images(m_max: int, t: float) -> int:
    """``m_max``, or ConvergenceError if it passes _MAX_IMAGES."""
    if m_max > _MAX_IMAGES:
        raise ConvergenceError(f"t = {t} needs {m_max:.3g} images a side, past {_MAX_IMAGES}")
    return m_max


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
    """Jets of the circle's image sum: the Gaussian recurrence of
    :func:`_gauss_coeffs` per image centre on Python floats, the leading
    values from one np.exp over the images.  The rows are added in image
    order onto a total that starts at 0.0: the bits numpy gives summing an
    array of one row an image over axis 0, from order 1 on (the raise asks
    no less; a single column numpy sums pairwise).  A row that leads with
    0.0 under a finite p holds only signed zeros, which leave that total as
    it is, so it is skipped."""
    amp = (4.0 * math.pi * t) ** -0.5
    u = 0.25 / t
    q = -2.0 * u

    def gen(center: float, order: int) -> Jet:
        ms = _image_range(t, center, tol)
        images = center + 2.0 * math.pi * np.arange(ms.start, ms.stop)
        # at tiny t u c^2 and the recurrence overflow; the raise refuses what
        # is not finite
        with np.errstate(over="ignore", invalid="ignore"):
            leads = amp * np.exp(-u * images * images)
        total = [0.0] * (order + 1)
        for c, a in zip(images.tolist(), leads.tolist()):
            p = q * c  # not finite where q is not
            if a == 0.0 and abs(p) < math.inf:
                continue
            total[0] += a
            prev = 0.0
            for j in range(1, order + 1):
                a, prev = (p * a + q * prev) / j, a
                total[j] += a
        return Jet(center, np.array(total))

    return gen


def heat_theta3(t: float, phi: float, tol: float = DEFAULT_TOL) -> QuadResult:
    """3-sphere heat kernel: image sum with the phi/sin(phi) Jacobian."""
    check_query(_SPHERE, 3, "heat", t, phi)
    if phi < 1e-6 or math.pi - phi < 1e-6:
        raise SingularPointError(
            "image sum needs 1/sin(phi); evaluate away from the poles"
        )
    try:
        amp = (4.0 * math.pi * t) ** -1.5
    except OverflowError:
        # t < 1e-206, and every image is at least 1e-6 away: exp(-phi^2/4t)
        # < e^-1e193 makes the kernel 0 whatever the amplitude
        return QuadResult(0.0, 0.0, 0)
    ms = _image_range(t, phi, tol)
    args = phi + 2.0 * math.pi * np.arange(ms.start, ms.stop)
    expo = -(args * args) / (4.0 * t)
    lift, scale = 0.0, amp
    if phi * phi > 2832.0 * t:
        # every image's Gaussian, the nearest phi's, is below the normal
        # floats, e^-708: the amplitude joins the exponent, so that the
        # terms keep their digits
        lift, scale = math.log(amp), 1.0
        expo += lift
    terms = args * np.exp(expo)
    value = float(terms.sum()) / math.sin(phi) * scale
    edge = abs(float(args[0])) + 2.0 * math.pi
    tail = 2.0 * edge * math.exp(-edge * edge / (4.0 * t)) / abs(math.sin(phi)) * amp
    # a term's exponent, args^2/4t + lift, rounds to eps times itself
    spread = (8.0 + 2.0 * lift - expo) * np.abs(terms)
    floor = _EPS * float(spread.max() / abs(math.sin(phi))) * scale
    return QuadResult(value, tail + floor, 0)


def heat_theta2(t: float, phi: float, tol: float = DEFAULT_TOL) -> QuadResult:
    """2-sphere heat kernel: wrapped inverse-square-root integral.

    Each image m contributes
    integral_phi^pi exp(-(psi+2 pi m)^2/4t) (psi+2 pi m)
    (sin^2(psi/2) - sin^2(phi/2))^(-1/2) dpsi with the sign (-1)^m; the
    endpoint singularity at psi = phi is removed by the x = phi + u^2
    substitution, using sin^2(psi/2) - sin^2(phi/2)
    = sin((psi+phi)/2) sin((psi-phi)/2) for cancellation-free evaluation.
    At phi = 0 that leaves 1/sin(psi/2), and each image m != 0 diverges
    logarithmically at psi = 0; only the sum of m and -m is finite there.  So
    the images m and -m are summed as psi (E_+ + E_-) + c E_- expm1(-psi c/t),
    c = 2 pi m, which vanishes at psi = 0 without cancelling.  The image
    m = 0 is one integral, which sets the images' target; the pairs are one
    more, of their signed sum, with a column bounding that sum's rounding
    and each pair's (exp's, magnified by its exponent) for the quadrature to
    carry.  An image whose Gaussian is not negligible on [phi, pi] seeds the
    pairs' integral with its fall-off points there
    (:func:`gaussian_breakpoints`).  A pair with no such image is left out
    where its bound (below) is under the images' target, and that bound
    joins the error: the images cancel down to the kernel, so the left-out
    pairs can matter beside it.  The integrands take a sweep's nodes at once.
    """
    check_query(_SPHERE, 2, "heat", t, phi)
    if phi == math.pi:
        raise SingularPointError("representation degenerates at the antipode")
    inv4t = 0.25 / t
    try:
        amp = (4.0 * math.pi * t) ** -1.5
    except OverflowError:
        # t < 1e-206: where exp(-phi^2/4t) leaves the kernel a float, phi <
        # 1e-100, and it is the flat (4 pi t)^-1 exp(-phi^2/4t) times
        # (phi/sin phi)^(1/2) (1 + O(t)), both factors 1 to far below eps.
        # One exponent, 0 where the kernel is; the rounding of its two
        # terms, magnified by their size, is the error
        x, log_amp = phi * phi * inv4t, -math.log(4.0 * math.pi * t)
        value = math.exp(log_amp - x)
        return QuadResult(value, 4.0 * _EPS * (1.0 + x + log_amp) * value, 0)

    def integral(ms: tuple, seeded: set, abs_tol: float) -> QuadResult:
        """The integral of the image m = 0, ms = (0,), or of the pairs m, -m."""
        c = 2.0 * math.pi * np.array(ms, float)[:, None]
        signs = np.where(np.array(ms) % 2, -1.0, 1.0)

        def f_regular(psi: np.ndarray):
            d = psi - phi
            # psi rounds to phi at the nodes nearest the endpoint
            ratio = np.where(d == 0.0, 2.0, d / np.sin(0.5 * d))
            root = np.sqrt(ratio / np.sin(0.5 * (psi + phi)))
            if ms == (0,):
                return psi * np.exp(-psi * psi * inv4t) * root
            near = (psi - c) ** 2 * inv4t
            above, below = np.exp(-(psi + c) ** 2 * inv4t), np.exp(-near)
            terms = psi * (above + below) + c * below * np.expm1(-4.0 * inv4t * psi * c)
            rounding = _EPS * ((len(ms) + 3.0 * near) * np.abs(terms)).sum(axis=0)
            return signs @ terms * root, rounding * root

        return integrate_sqrt_endpoint(
            f_regular,
            phi,
            math.pi,
            tol * 0.3,
            abs_tol=abs_tol,
            breakpoints=[
                x for k in seeded for x in gaussian_breakpoints(-2.0 * math.pi * k, t, phi, math.pi)
            ],
        )

    head = integral((0,), {0}, 0.0)
    value = head.value
    err = head.err_estimate
    evals = head.n_evals
    scale_tol = tol * 0.3 * abs(head.value)

    def matters(m: int) -> bool:
        """Whether image m != 0's Gaussian factor is not negligible on [phi, pi]."""
        low = min(abs(phi + 2.0 * math.pi * m), abs(math.pi + 2.0 * math.pi * m))
        return math.exp(-low * low * inv4t) * (abs(low) + math.pi) >= scale_tol

    pairs = []
    seeded = set()
    for m in range(1, _image_range(t, phi, tol).stop):
        images = [k for k in (m, -m) if matters(k)]
        if not images:
            # the pair's Gaussians are g(c + psi) - g(c - psi), g(x) = x e^(-x^2/4t),
            # at most 2 psi max |g'| on [c - pi, c + pi]; psi over the root is
            # at most pi psi / sqrt(psi^2 - phi^2), whose integral is under pi^2
            c = 2.0 * math.pi * m
            bound = (
                2.0 * math.pi**2
                * (1.0 + (c + math.pi) ** 2 * 2.0 * inv4t)
                * math.exp(-((c - math.pi) ** 2) * inv4t)
            )
            if bound < scale_tol:
                err += bound
                continue
        pairs.append(m)
        seeded.update(images)
    if pairs:
        res = integral(tuple(pairs), seeded, scale_tol)
        value += res.value
        err += res.err_estimate
        evals += res.n_evals
    return QuadResult(value * amp, err * amp, evals)


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


def _wrapped_jet(t: float, tol: float, magnitude: bool = False) -> RadialGenerator:
    """Jets of Psi = F/sin(psi/2), F the signed image sum of :func:`heat_theta2`,
    sum_m (-1)^m (psi + 2 pi m) exp(-(psi + 2 pi m)^2/4t): :func:`_gauss_coeffs`
    at the image centres times (c + h), summed, over the rows of sin((c + h)/2)
    (period 4, scaled by 2^-j/j!), shifted where both lead with 0 at c = 0.  A
    node array of centres gives one row a centre.  With ``magnitude`` the rows
    are sum_m |row_m| over the same divisor, positive at both poles (those of
    h/sin(h/2) and 1/cos(h/2)): their eps multiple bounds Psi's rounding."""
    u = 0.25 / t
    images = _image_range(t, math.pi, tol)
    ms = np.arange(images.start, images.stop)
    offsets, signs = 2.0 * math.pi * ms, np.where(ms % 2, -1.0, 1.0)

    def gen(center, order: int) -> Jet:
        shift = 0 if isinstance(center, np.ndarray) or center != 0.0 else 1
        images = np.add.outer(center, offsets)
        g = _gauss_coeffs(u, images, 1.0, order + shift)
        rows = g * images[..., None]
        rows[..., 1:] += g[..., :-1]
        f = np.abs(rows).sum(axis=-2) if magnitude else signs @ rows
        sin, cos = np.sin(0.5 * center), np.cos(0.5 * center)
        cycle = (sin, cos, -sin, -cos)
        half = [cycle[j % 4] * 0.5**j / math.factorial(j) for j in range(shift, order + 1 + shift)]
        return Jet(center, _divide(f[..., shift:], np.stack(np.broadcast_arrays(*half), axis=-1)))

    return gen


def heat_raise(n: int, t: float, phi: float, tol: float = DEFAULT_TOL) -> QuadResult:
    """Sphere heat kernel through the dimension-raising recursion.

    Odd n raises the circle's image sum by :func:`raise_kernel` and claims
    tol |v|, far above the sum's truncation, or the pole series' larger bound.
    Even n = 2 + 2k raises under :func:`heat_theta2`'s integral, whose limits
    cos(psi/2) = cos(phi/2) sin(theta) fixes: with D = (2 pi)^-1 d/dx in
    x = cos phi and Psi (:func:`_wrapped_jet`) even about both poles,

        K_n(phi) = 2 (4 pi t)^(-3/2) integral_0^(pi/2) sin^(2k)(theta)
                   (D^k Psi)(psi(theta)) dtheta,

    psi/2 the arctangent of hypot(sin(phi/2), cos(phi/2) cos theta) over
    cos(phi/2) sin theta.  D^k Psi takes a sweep's nodes from
    :func:`_raised_at_nodes`.  The integral starts where psi = sqrt(4t 746)
    puts every image's Gaussian at exactly 0 (it is 0 if that is at most
    phi), seeded at the m = 0 Gaussian's fall-off points.  The quadrature
    cannot see an error that a pole series carries smoothly (next to the
    antipode, where the images cancel at large t), so where a sweep has
    series nodes their weighted bounds, Psi's rounding included, are the
    integrand's error column; where the err exceeds the value, it refuses.
    """
    check_query(_SPHERE, n, "heat", t, phi)
    if n == 1:
        return heat_theta1(t, phi, tol)
    if n == 2:
        return heat_theta2(t, phi, tol)
    if n % 2 == 1:
        res = raise_kernel(_SPHERE, _theta1_jet(t, tol), (n - 1) // 2, phi, tol)
        return QuadResult(res.value, max(tol * abs(res.value), res.err_estimate), 0)
    k = (n - 2) // 2
    top = math.sqrt(4.0 * t * 746.0)
    if top <= phi:
        return QuadResult(0.0, 0.0, 0)
    cos_half, sin_half = math.cos(0.5 * phi), math.sin(0.5 * phi)

    def theta_at(psi: float) -> float:
        return math.asin(min(1.0, math.cos(0.5 * psi) / cos_half))

    low = theta_at(top) if top < math.pi else 0.0
    kernel = _raised_at_nodes(_SPHERE, _wrapped_jet(t, tol), k, tol, _wrapped_jet(t, tol, True))

    def f(theta: np.ndarray):
        sin_t = np.sin(theta)
        psi = 2.0 * np.arctan2(np.hypot(sin_half, cos_half * np.cos(theta)), cos_half * sin_t)
        values, errs = np.array(kernel(psi)) * sin_t ** (2 * k)
        return (values, errs) if errs.any() else values

    # a direct raise that cancels is noise no panel count resolves; the
    # integrals that converge on n = 4..14, t = 1e-3..9 take <= 11 panels
    seeds = [theta_at(psi) for psi in gaussian_breakpoints(0.0, t, phi, min(top, math.pi))]
    res = integrate_adaptive(f, low, 0.5 * math.pi, tol, breakpoints=seeds, max_panels=256)
    if res.err_estimate > abs(res.value):
        raise ConvergenceError("the raised integral's error exceeds its value")
    return res.scaled(2.0 * (4.0 * math.pi * t) ** -1.5)


# ---------------------------------------------------------------------------
# spectral


def heat_spectral(
    n: int, t: float, phi: float, tol: float = DEFAULT_TOL, *, convention: str = "paper"
) -> QuadResult:
    """Sphere heat kernel as its Gegenbauer eigenfunction series:

    h_n(t, phi) = sum_l w_l C_l^a(cos phi) / vol(S^n),
    w_l = exp(-(l+a)^2 t) (2l+n-1)/(n-1),  a = (n-1)/2,

    summed by the recurrence (l+1) C_(l+1) = 2 (l+a) x C_l - (l+2a-1) C_(l-1)
    (:func:`_gegenbauer_sum`).  On the circle, a = 0, it is the Fourier
    series (1 + 2 sum_l exp(-l^2 t) T_l(cos phi)) / 2 pi
    (:func:`_fourier_sum`).  Since |C_l^a(x)| <= C_l^a(1) (|T_l| <= 1), term
    l is at most b_l = w_l C_l^a(1), and the ratio b_(l+1)/b_l decreases in
    l; so the tail past term l is at most b_(l+1) / (1 - q) with
    q = b_(l+2)/b_(l+1).  The error estimate is that tail bound plus a
    roundoff floor proportional to the sum of the b_l, the larger term near
    the antipode, where the sum cancels (:func:`_spectral_bounds`).  The sum
    stops at the first term where the tail bound is at most tol |sum|
    (which holds once the b_l underflow to 0) and the whole estimate is
    too, unless the floor alone leaves it no room: where the floor is not
    negligible, that costs a term or two more, not a missed tol.  Times
    below SPECTRAL_MIN_T are refused.  ``n_evals`` counts the terms summed.
    The "markovian" convention's factor exp(a^2 t) is folded into the final
    scaling, which it cancels, so it never overflows: this is the one curved
    heat route that takes ``convention``; the others give the paper kernel,
    which ``analysis`` scales.
    """
    check_query(_SPHERE, n, "heat", t, phi)
    if t < SPECTRAL_MIN_T:
        raise DomainError(f"the spectral series needs t >= {SPECTRAL_MIN_T}, got {t}")
    check_tol(tol)
    a = 0.5 * (n - 1)
    log_vol, log_size = _log_volume(a)
    # w_l carries exp(-(l+a)^2 t) / exp(-a^2 t); that factor, times the
    # convention's, and 1/vol(S^n) are applied once, at the end
    carried = a * a * t - convention_exponent(_SPHERE, convention, n, t)
    scale = math.exp(-carried - log_vol)
    # the final scaling loses one unit in the last place per unit of its
    # exponent's terms, and it may land among the subnormals
    spread = _EPS * (carried + log_size + 2.0)
    x2 = 2.0 * math.cos(phi)
    if n == 1:
        total, bound, l, tail, floor = _fourier_sum(t, x2, tol, spread)
    else:
        total, bound, l, tail, floor = _gegenbauer_sum(a, t, x2, tol, spread)
    value = total * scale
    err = (tail + floor) * scale + spread * abs(value)
    return QuadResult(value, err + math.ulp(0.0) * (bound + 1.0), l + 1)


def _log_volume(a: float) -> tuple:
    """log vol(S^n), a = (n-1)/2, and the sum of its three terms' sizes:
    they cancel (to 2.5 of 13.8 at n = 12), and each rounds to eps times
    itself."""
    terms = (math.log(2.0), (a + 1.0) * math.log(math.pi), -math.lgamma(a + 1.0))
    return sum(terms), sum(map(abs, terms))


def _spectral_bounds(bound: float, l: int, exponent: float, b_next: float, b_2: float) -> tuple:
    """The tail bound past term l and the rounding floor of a sum of terms
    at most b_0 .. b_l, ``bound`` their sum, the last weight
    exp(-``exponent``) relative to the first."""
    tail = b_next * b_next / (b_next - b_2) if b_next > 0.0 else 0.0
    # the recurrence and the sum lose about l + 1 units in the last place of
    # the largest term, and each weight one per unit of its exponent
    return tail, _EPS * bound * (2.0 * (l + 1) + exponent)


def _gegenbauer_sum(a: float, t: float, x2: float, tol: float, spread: float) -> tuple:
    """:func:`heat_spectral`'s sum for a > 0, x2 = 2 cos phi, ``spread``
    the final scaling's relative rounding: the sum, the sum of the b_l, the
    last term l, the tail bound and the floor."""
    two_a = 2.0 * a
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
            tail, floor = _spectral_bounds(bound, l, l * (l + two_a) * t, b_next, b_2)
            room = (tol - spread) * abs(total) - floor
            if tail <= room or room <= 0.0:
                return total, bound, l, tail, floor
        l += 1
        c_prev, c = c, (x2 * (l - 1.0 + a) * c - (l - 2.0 + two_a) * c_prev) / l
        w, w_next = w_next, w_2
        c_one, c_one_next = c_one_next, c_one_2
        b_next = b_2


def _fourier_sum(t: float, x2: float, tol: float, spread: float) -> tuple:
    """:func:`_gegenbauer_sum` on the circle (a = 0): w_l T_l(cos phi) with
    w_0 = 1, w_l = 2 exp(-l^2 t), T_(l+1) = x2 T_l - T_(l-1), and b_l = w_l."""
    exp = math.exp
    c_prev, c = 0.5 * x2, 1.0  # T_(l-1), T_l; T_(-1) = T_1
    w, b_next = 1.0, 2.0 * exp(-t)
    total = bound = 0.0
    l = 0
    while True:
        total += w * c
        bound += w
        k = l + 2.0
        b_2 = 2.0 * exp(-k * k * t)
        if b_next * b_next <= tol * abs(total) * (b_next - b_2):
            tail, floor = _spectral_bounds(bound, l, l * l * t, b_next, b_2)
            room = (tol - spread) * abs(total) - floor
            if tail <= room or room <= 0.0:
                return total, bound, l, tail, floor
        l += 1
        c_prev, c = c, x2 * c - c_prev
        w, b_next = b_next, b_2


def _spectral_nodes(n: int, phi: float):
    """:func:`heat_spectral`'s series at all the times of a sweep (n >= 2):
    ``series(ts, weights, tol)`` gives the values and errors.  With phi
    fixed, one scalar recurrence gives the C_l^a(cos phi), the times one
    weight matrix, one matrix product the sums.  A node's target is tol
    times |h| or a tenth of the largest |weights h| yet seen over its weight.
    A node stops where its tail bound is 1e-3 of its target, zeroes its
    later weights, and takes heat_spectral's bounds at its own term count.
    Terms start at 32 and double for the nodes that need more, up to
    _NODE_TERMS; past that a node's error is inf.  Most nodes of a sweep
    at small t carry a tiny weight, so a loose target: sizing every node
    for the smallest t would cost them the full width."""
    a = 0.5 * (n - 1)
    two_a = 2.0 * a
    x2 = 2.0 * math.cos(phi)
    log_vol, log_size = _log_volume(a)
    ls = np.arange(_NODE_TERMS + 2.0)
    growth, gl = ls * (ls + two_a), (2.0 * ls + two_a) / two_a
    # C_l^a(cos phi), by the recurrence as far as asked, and C_l^a(1)
    coef = np.empty((len(ls), 2))
    coef[:2, 0] = 1.0, a * x2
    coef[:, 1] = np.cumprod(np.r_[1.0, (ls[1:] - 1.0 + two_a) / ls[1:]])
    known, peak = 2, 0.0

    @np.errstate(over="ignore", divide="ignore")  # targets over a weight near 0 are inf
    def series(ts: np.ndarray, weights: np.ndarray, tol: float):
        nonlocal known, peak
        values, errs = np.zeros(len(ts)), np.full(len(ts), np.inf)
        scale = np.exp(-a * a * ts - log_vol)  # the carried exp(-a^2 t), and 1/vol
        outer = np.maximum(weights * scale, _TINY)
        terms, todo = 32, np.arange(len(ts))
        while len(todo):
            for l in range(known - 1, terms - 1):
                c = coef[l - 1 : l + 1, 0]
                coef[l + 1, 0] = (x2 * (l + a) * c[1] - (l - 1.0 + two_a) * c[0]) / (l + 1.0)
            known = max(known, terms)
            t, wt = ts[todo], outer[todo]
            w = np.multiply.outer(t, -growth[: terms + 2])
            w = np.exp(w, out=w) * gl[: terms + 2]
            b = w[:, 1:] * coef[1 : terms + 2, 1]
            # the tail past term l is at most sq/drop while drop > 0, and it
            # falls with l: if any term meets a bound, the last one does
            drop = b[:, :-1] - b[:, 1:]
            sq = np.square(b[:, :-1], out=b[:, :-1])
            full = np.abs(w[:, :terms] @ coef[:terms, 0])
            # the nodes whose sums already meet tol/10 relatively set the scale
            near = sq[:, -1] <= 0.1 * tol * full * drop[:, -1]
            if near.any():
                peak = max(peak, float((wt * full)[near].max()))
            # a weight near 0 gives a slack of 1e299 peak: huge, but finite
            slack = 0.1 * peak / np.maximum(wt, 1e-300 * peak)
            done = sq <= drop * (1e-3 * tol * np.maximum(full, slack))[:, None]
            ok = done[:, -1]
            rows, at = np.flatnonzero(ok), todo[ok]
            last, t = done[ok].argmax(axis=1), t[ok]
            w = w[rows, :terms]
            w[ls[:terms] > last[:, None]] = 0.0
            total, bound = (w @ coef[:terms]).T
            tail = sq[rows, last] / np.maximum(drop[rows, last], _TINY)
            floor = _EPS * bound * (2.0 * (last + 1) + growth[last] * t)
            err = tail + floor + _EPS * (a * a * t + log_size + 2.0) * np.abs(total)
            values[at] = total * scale[at]
            errs[at] = err * scale[at] + math.ulp(0.0) * (bound + 1.0)
            if terms >= _NODE_TERMS:
                break
            todo, terms = todo[~ok], 2 * terms
        return values, errs

    return series


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
    Spikes sit where cosh y approaches cos phi (xi near 2 pi k +/- phi); the
    cuts are breakpoints, the spikes seeded at their widths.  ``sigma`` is a
    route-level argument for the deformation checks; by default, the one
    ``evaluate`` uses, it is the flat integrand's saddle point
    (:func:`~ckernels.quadrature.sigma_saddle`, capped at 3).  The integrand
    takes a sweep's nodes at once.
    """
    check_query(_SPHERE, n, "heat", t, phi)
    if sigma is None:
        sigma = sigma_saddle(n, t, phi, 3.0)
    pref = (
        math.gamma(0.5 * (n + 1))
        / (2.0 ** (0.5 * (n - 1)) * math.pi ** (0.5 * n + 1.0))
        / math.sqrt(4.0 * t)
    )
    inv4t = 0.25 / t
    even = n % 2 == 0
    cos_phi = math.cos(phi)

    def f(y: np.ndarray) -> np.ndarray:
        base = np.cosh(y) - cos_phi
        val = np.exp(y * y * inv4t) * np.sinh(y) * contour_power(base, n)
        if even:
            # The base crosses the cut where Im(base) = -sinh(sigma) sin(xi)
            # changes sign at an odd multiple of pi, and cos(xi/2) changes
            # sign there and only there.  Both signs follow the float xi
            # itself, so the branch is taken from the side of the cut the
            # computed base lies on, also where xi / pi rounds onto 1 or 3.
            val *= np.copysign(1.0, np.cos(0.5 * y.imag))
        return val

    spec = contour_spec(sigma, 4.0 * t, tol)
    top = _check_images(int((spec.xi_max + phi) / (2.0 * math.pi)), t)
    cuts = [k * math.pi for k in range(1, int(spec.xi_max / math.pi) + 1)]
    spikes = [2.0 * math.pi * k + s * phi for k in range(top + 1) for s in (-1.0, 1.0)]
    res = integrate_contour(f, spec, cuts, spikes=spikes)
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
    """Jets of the closed Poisson kernel in dimension ``base_dim``, its base
    2 cosh y - 2 cos x valued as 4 sinh^2(y/2) + 4 sin^2(x/2), which does not
    cancel as x and y go to 0; the higher coefficients are -2 cos x's."""
    half = 0.5 * (base_dim + 1)
    amp = math.gamma(half) / math.pi**half * math.sinh(y)
    floor = 4.0 * math.sinh(0.5 * y) ** 2

    def gen(center: float, order: int) -> Jet:
        # -2 cos^(j)(c) / j!, the derivatives cycling with period 4
        cos, sin = 2.0 * math.cos(center), 2.0 * math.sin(center)
        cycle = (-cos, sin, cos, -sin)
        base = [4.0 * math.sin(0.5 * center) ** 2 + floor]
        base += [cycle[j % 4] * _INV_FACTORIAL[j] for j in range(1, order + 1)]
        return Jet(center, np.array(base)).power(-half) * amp

    return gen


def poisson_raise(n: int, y: float, phi: float, *, tol: float = DEFAULT_TOL) -> QuadResult:
    """Sphere Poisson kernel raised from the circle or 2-sphere closed form."""
    check_query(_SPHERE, n, "poisson", y, phi)
    base_dim = 1 if n % 2 == 1 else 2
    return raise_kernel(_SPHERE, _poisson_jet(base_dim, y), (n - base_dim) // 2, phi, tol)


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
    once.  Near the antipode the half-angle interval is narrow, and the
    rounding of its nodes and of its endpoint 2 pi - phi, about eps pi,
    shifts them by eps pi/(pi - phi) of its half-width; that, times the
    integrand's variation over its mean (about sqrt(n + 1)), is added to
    the error relatively.

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

        # cos^n theta is about exp(-n theta^2/2), a Gaussian at t = 1/2n, and
        # the kernel peaks at theta = pi/2 in a bump of width about y/2
        top = 0.5 * math.pi
        seeds = gaussian_breakpoints(0.0, 0.5 / n, -top, top)
        seeds += scale_seeds(top, 0.25 * y, math.pi, -top, top)
        res = integrate_adaptive(f, -top, top, tol, breakpoints=seeds)
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

        res = integrate_adaptive(g, phi, 2.0 * math.pi - phi, tol, breakpoints=[math.pi])
        shift = math.pi * _EPS / (math.pi - phi)
        err = res.err_estimate + math.sqrt(n + 1.0) * shift * abs(res.value)
        return QuadResult(res.value, err, res.n_evals).scaled(0.5 * c_n)

    raise DomainError(f"unknown doubling variant {variant!r}")
