"""Adaptive quadrature with honest error estimates.

The core rule is the embedded Gauss-Kronrod G7/K15 pair of QUADPACK
(Piessens et al., 1983) applied on a worst-panel-first heap, refined in
sweeps (Shampine, "Vectorized adaptive quadrature in MATLAB", J. Comput.
Appl. Math. 211, 2008): each sweep cuts the worst panels in four, two
bisection levels, until their errors sum to the excess of the total error
over the target, and evaluates all the children together: a sweep's
bookkeeping costs what a vectorized integrand does on a few hundred nodes,
so fewer sweeps beat fewer nodes; a first sweep that meets its target,
as most seeded ones do, builds no heap.  The 15 Kronrod nodes contain the 7
Gauss nodes, so a panel costs 15 integrand evaluations.  A panel's error is
the raw difference |K15 - G7|, without QUADPACK's (200 |K15 - G7| /
resasc)^1.5 rescaling, which can report less than the difference itself.
The reported error is the accumulated panel differences plus a roundoff
floor proportional to the integral of |f|, so results near the
double-precision cancellation limit carry error estimates that reflect it
instead of the nominal tolerance, plus 15 least subnormals a panel, the
absolute rounding of an integral of subnormal values.  A sweep's K15 sums,
K15 - G7 differences and integrals of |f| come from one matrix product,
and its panels' midpoints and half-widths from another.

Integrands return floats.  With ``vectorized=True`` the integrand is called
once per sweep on the array of the 15 nodes of each of its panels and
returns their values, so one batched raise can carry a whole sweep.  It may
return a tuple (values, errors) of node arrays instead, the errors bounding
its own values' (an inner integral's, say): their K15 integral, one more
column of the sweep's matrix product, joins the reported error and never
drives the refinement, the nested error budget of Gander and Gautschi
(BIT 40, 2000).

Three transforms cover the singular and unbounded shapes that arise in the
kernel formulas: an inverse-square-root endpoint factor (substitute
x = a + u^2), a half-line tail (substitute x = a + s u/(1-u)), and vertical
complex contours with Gaussian envelopes, where truncation at xi_max is
chosen from the envelope and the discarded tail is added to the error
estimate.  A contour integrand always takes the complex array of a sweep's
nodes.

The kernel rows seed their float integrals at the integrand's length
scales, as QUADPACK places breakpoints, so that most finish in their first
sweep: :func:`gaussian_breakpoints`, :func:`descent_breakpoints`,
:func:`bump_seeds` and :func:`scale_seeds`.
"""

from __future__ import annotations

import heapq
import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable, Union

import numpy as np

from .errors import ContourError, ConvergenceError, DomainError

DEFAULT_TOL = 1e-10
_EPS = float(np.finfo(float).eps)
# below the normal range the rounding of a panel's 15 weighted values is
# absolute, up to the least subnormal each, which no relative floor covers
_PANEL_SUBNORMAL_ERR = 15 * 5e-324

# QUADPACK qk15: the non-negative Kronrod abscissae of the rule on [-1, 1] in
# decreasing order, of which xgk[1], xgk[3], xgk[5] and xgk[7] are the 7-point
# Gauss abscissae; wgk are the K15 weights and wg the G7 weights of those
# Gauss abscissae.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

# The same rule mirrored onto [-1, 1] in increasing order; the Gauss nodes
# sit at the odd indices, and _WG7 holds zero on the Kronrod-only nodes.
_XK15 = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_WK15 = np.array(_WGK[:-1] + _WGK[::-1])
_WG7 = np.zeros(15)
_WG7[1::2] = _WG[:-1] + _WG[::-1]
# (values, |values|, errors) of a panel times _W4: K15, K15 - G7, K15 of |f|
# and K15 of the errors; _W3, its top left, takes (values, |values|)
_W4 = np.zeros((45, 4))
_W4[:15, 0], _W4[:15, 1], _W4[15:30, 2], _W4[30:, 3] = _WK15, _WK15 - _WG7, _WK15, _WK15
_W3 = np.ascontiguousarray(_W4[:30, :3])
# (lo, hi) @ _MID_HALF is a panel's (midpoint, half-width)
_MID_HALF = np.array([[0.5, -0.5], [0.5, 0.5]])

Value = Union[float, np.ndarray]


@dataclass(eq=False, slots=True)
class QuadResult:
    """Integral estimate with an error bound and the evaluation count."""

    value: Value
    err_estimate: float
    n_evals: int

    def scaled(self, factor: float) -> "QuadResult":
        """The result of multiplying the integrand by a constant."""
        return QuadResult(self.value * factor, self.err_estimate * abs(factor), self.n_evals)


@dataclass(frozen=True)
class ContourSpec:
    """Geometry of a truncated vertical contour sigma - i xi, xi in [0, xi_max].

    ``envelope_scale`` is the constant G in the integrand's Gaussian envelope
    exp((sigma^2 - xi^2)/G); it drives both the default truncation point and
    the tail bound added to the error estimate.
    """

    sigma: float
    xi_max: float
    tol: float
    envelope_scale: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise DomainError(f"contour abscissa must be positive, got {self.sigma}")
        if not (math.isfinite(self.xi_max) and self.xi_max > 0.0):
            raise DomainError(f"contour truncation must be positive, got {self.xi_max}")
        if not 0.0 < self.tol < 1.0:
            raise DomainError(f"contour tolerance must lie in (0, 1), got {self.tol}")
        if not (math.isfinite(self.envelope_scale) and self.envelope_scale > 0.0):
            raise DomainError("envelope scale must be positive")


def contour_spec(sigma: float, envelope_scale: float, tol: float) -> ContourSpec:
    """Build a contour whose truncated tail is below ``tol`` relatively.

    The envelope exp((sigma^2 - xi^2)/G) falls to tol of its xi = 0 value at
    xi = sqrt(sigma^2 + G log(1/tol)); the extra margin absorbs algebraic
    prefactors.
    """
    if not 0.0 < tol < 1.0:
        raise DomainError(f"tolerance must lie in (0, 1), got {tol}")
    G = float(envelope_scale)
    xi_max = math.sqrt(max(0.0, sigma * sigma) + G * math.log(1.0 / tol))
    xi_max += 1.0 + 0.5 * math.sqrt(G)
    return ContourSpec(sigma=sigma, xi_max=xi_max, tol=tol, envelope_scale=G)


def sigma_default(t: float, r: float, cap: float) -> float:
    """Abscissa of a heat-kernel contour with envelope exp(y^2/4t) where it
    has no saddle point (:func:`sigma_saddle`).

    Half the larger of 1 and r (clear of the branch point), at most ``cap``,
    and capped so the oscillatory factor exp(sigma^2/4t) cannot push the
    relative cancellation floor above about 1e-9 at small t.
    """
    return min(0.5 * max(1.0, r), _cancellation_cap(t, r), cap)


def _cancellation_cap(t: float, r: float) -> float:
    """The largest abscissa whose factor exp(sigma^2/4t) keeps the relative
    cancellation floor of the contour below about 1e-9."""
    floor_sq = 4.0 * t * math.log(1e9) - r * r
    return math.sqrt(floor_sq) if floor_sq > 0.04 else 0.2


def sigma_saddle(n: int, t: float, r: float, cap: float) -> float:
    """Abscissa through the saddle point of a heat-kernel contour.

    On the real axis the flat integrand's modulus
    2 sigma exp(sigma^2/4t) (r^2 + sigma^2)^(-(n+1)/2) has its interior
    minimum at sigma^2 = x, the larger root of
    x^2 + (r^2 - 2nt) x + 2t r^2 = 0.  A vertical line through it is a
    steepest-descent line: |f| peaks at xi = 0 and the panels do not cancel
    (Weideman & Trefethen, Math. Comp. 76, 2007).  The curved integrands of
    S^n and H^n take the same flat root.  Where there is none (2nt <= r^2,
    or a negative discriminant) this is :func:`sigma_default`; either way
    the abscissa keeps that rule's small-t cap and ``cap``.
    """
    b = 2.0 * n * t - r * r
    disc = b * b - 8.0 * t * r * r
    # disc is nan where b * b and 8 t r^2 both overflow
    if b <= 0.0 or not disc >= 0.0:
        return sigma_default(t, r, cap)
    return min(math.sqrt(0.5 * (b + math.sqrt(disc))), _cancellation_cap(t, r), cap)


def gaussian_breakpoints(c: float, t: float, a: float, b: float) -> list:
    """Where the envelope exp(-(x - c)^2/4t) falls off on [a, b].

    The points of (a, b), in increasing order, at which the envelope has
    fallen by e^-1, e^-4, e^-9, e^-16 and e^-25 from its maximum on [a, b]:
    with x0 the point of [a, b] nearest c, those with
    (x - c)^2 = (x0 - c)^2 + 4t j^2, j = 1..5.  Passed as ``breakpoints``,
    mapped to the integration variable, they let the first sweep resolve a
    narrow Gaussian instead of bisecting toward it one level per sweep.
    There are none where the envelope's maximum on [a, b] is below the
    normal range (e^-708): there the integrand is 0 or subnormal rounding
    noise, which one panel takes in one sweep and more panels only refine.
    """
    near = min(max(c, a), b)
    base = (near - c) ** 2
    if base > 4.0 * t * 708.0:
        return []
    out = []
    for j in (1.0, 2.0, 3.0, 4.0, 5.0):
        w = math.sqrt(base + 4.0 * t * j * j)
        out += [x for x in (c - w, c + w) if a < x < b]
    return sorted(out)


def descent_breakpoints(t: float, a: float, b: float) -> list:
    """Seeds on (a, b) for exp(-x^2/4t) times an integrand with a square-root
    endpoint at a, as :func:`integrate_sqrt_endpoint` takes it.

    The Gaussian's fall-off points (:func:`gaussian_breakpoints`), plus up
    to four points a + w/4^j, j = 1, 2, ..., w the first fall-off point
    minus a, stopping after the first w/4^j below 4a, and none where 4a
    >= w.  In u = sqrt(x - a) they halve the first fall-off panel down to
    the endpoint scale a: that panel holds both the Gaussian's flat top and
    the descent's factor (x + a)^(-1/2), or sinh((x + a)/2)^(-1/2), which
    varies on the scale a, and without them the first sweep misses there.
    """
    out = gaussian_breakpoints(0.0, t, a, b)
    if not out or 4.0 * a >= out[0] - a:
        return out
    near = []
    w = out[0] - a
    for _ in range(4):
        w *= 0.25
        near.append(a + w)
        if w < 4.0 * a:
            break
    return near[::-1] + out


def scale_seeds(c: float, shortest: float, longest: float, a: float, b: float) -> list:
    """c and c -+ l, l = shortest, 2 shortest, ... up to ``longest``, in (a, b):
    seeds for a spike off the path at c, or for a decay from c."""
    out = [c]
    while shortest <= longest:
        out += [c - shortest, c + shortest]
        shortest *= 2.0
    return [x for x in out if a < x < b]


def bump_seeds(n: int, heights: tuple, lengths: tuple, a: float, b: float) -> list:
    """Seeds on [a, b] for an integrand in v with heat factors at t = 1/4v^2.

    At short times the heat factor takes v^n exp(-d^2 v^2) from a geodesic
    of length d, so with an outer weight exp(-h^2 v^2) the integrand is
    about v^n exp(-c v^2), c = h^2 + d^2: at most its value at
    v* = sqrt(n/2c) times exp(-c (v - v*)^2).  The seeds are v* for each
    height h and length d, that Gaussian's fall-off points and each outer
    weight's (:func:`gaussian_breakpoints`), so the first sweep resolves
    the bumps also where they are narrow beside [a, b].
    """
    seeds = []
    for h in heights:
        seeds += gaussian_breakpoints(0.0, 0.25 / (h * h), a, b)
        for d in lengths:
            c = h * h + d * d
            peak = math.sqrt(0.5 * n / c)
            seeds += [peak] + gaussian_breakpoints(peak, 0.25 / c, a, b)
    return seeds


def _sweep(f, los: list, his: list, vectorized: bool):
    """Embedded G7/K15 estimates on the panels [los[i], his[i]] of one sweep.

    One integrand call per Kronrod node, 15 per panel, or one call on the
    array of all the sweep's nodes if ``vectorized``.  Returns (values, errs,
    resabs, inner, where_bad) with one entry per panel: the K15 value, the
    raw |K15 - G7|, the K15 integral of |f| and the K15 integral of the
    integrand's own errors (0 if it gives none).  ``where_bad`` is the first
    node at which f or its error is not finite, in which case the other
    fields are None.
    """
    if len(los) == 1:  # the first sweep of an integral without breakpoints
        h = 0.5 * (his[0] - los[0])
        nodes = h * _XK15 + 0.5 * (los[0] + his[0])
    else:
        # each panel's midpoint and half-width: 0.5 a + 0.5 b is 0.5 (a + b)
        mid_h = np.array((los, his)).T @ _MID_HALF
        h = mid_h[:, 1:]
        nodes = (h * _XK15 + mid_h[:, :1]).ravel()
    out = f(nodes) if vectorized else [f(x) for x in nodes]
    paired = isinstance(out, tuple)  # (values, errors)
    v = np.asarray(out[0] if paired else out, float).reshape(len(los), 15)
    blocks = [v, np.abs(v)]
    if paired:
        blocks.append(np.asarray(out[1], float).reshape(len(los), 15))
    # the rule's weights times each panel's blocks of 15: the products a
    # panel alone would get, whatever the sweep.  An inf times a zero weight
    # is a nan, and is reported like the inf
    with nullcontext() if vectorized else np.errstate(invalid="ignore"):
        cols = np.concatenate(blocks, axis=1) @ (_W4 if paired else _W3)
        cols *= h
    values, errs, resabs, *inner = cols.T.tolist()
    # a non-finite node makes its panel's integral of |f| or of the errors
    # non-finite
    if not math.isfinite(sum(resabs) + sum(inner[0] if paired else ())):
        finite = np.isfinite(blocks[1]) & np.isfinite(blocks[-1])
        if not finite.all():
            return None, None, None, None, float(nodes[np.argmin(finite.ravel())])
    return values, list(map(abs, errs)), resabs, inner[0] if paired else [0.0] * len(los), None


def integrate_adaptive(
    f: Callable[[float], Value],
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    *,
    abs_tol: float | None = None,
    breakpoints: Iterable[float] = (),
    max_depth: int = 60,
    max_panels: int = 4096,
    vectorized: bool = False,
) -> QuadResult:
    """Integrate f over [a, b] to max(abs_tol, tol * |integral|).

    ``abs_tol`` defaults to ``tol``; pass 0.0 for a purely relative target.
    Interior ``breakpoints`` seed the initial partition (place them at kinks,
    spikes and branch switches).  Refinement goes in sweeps: each cuts the
    worst panels in four until their errors sum to the excess of the total
    error over the target, and evaluates all the children together; the last
    split takes fewer parts if that fills ``max_panels``.  ``max_depth``
    counts bisection levels, two per cut in four.  With ``vectorized``
    f takes the array of a sweep's nodes, a multiple of 15, and returns their
    values, or a tuple (values, errors) whose errors' integral joins the
    reported error; ``n_evals`` still counts nodes.  Raises
    :class:`ConvergenceError`, carrying the best estimate, if the panel or
    depth budget runs out, and reports a roundoff-floor error term
    proportional to the integral of |f|, plus 15 least subnormals a panel,
    so that cancellation-limited and subnormal results are not overclaimed.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration endpoints must be finite")
    if b < a:
        raise DomainError(f"integration range is reversed: [{a}, {b}]")
    if abs_tol is None:
        abs_tol = tol
    if b == a:
        return QuadResult(0.0, 0.0, 0)

    los = [a]
    for p in sorted(set(float(p) for p in breakpoints)):
        if a < p < b:
            los.append(p)
    his = los[1:] + [b]
    depths = [0] * len(los)

    heap = []  # entries: (-err, seq, lo, hi, value, err, resabs, inner, depth)
    split = []  # the heap entries that the panels of the sweep replace
    seq = 0
    panels = 0
    total_value = 0.0
    total_err = 0.0
    total_resabs = 0.0
    total_inner = 0.0  # the integral of the integrand's own errors
    n_evals = 0

    def reported() -> QuadResult:
        """The estimate with the integrand's errors, the roundoff floor and
        subnormal rounding added."""
        err = total_err + total_inner + 30.0 * _EPS * total_resabs
        return QuadResult(total_value, err + _PANEL_SUBNORMAL_ERR * panels, n_evals)

    # numpy's warnings are off for a vectorized f: an overflow is reported as
    # a non-finite value.  The floor ends subnormal noise above a target of 0
    floor = (b - a) * sys.float_info.min
    with np.errstate(all="ignore") if vectorized else nullcontext():
        while True:
            values, errs, resabs, inner, bad_at = _sweep(f, los, his, vectorized)
            n_evals += 15 * len(los)
            if bad_at is not None:
                best = QuadResult(total_value, math.inf, n_evals) if split else None
                raise ConvergenceError(
                    f"integrand returned a non-finite value near x = {bad_at}", best
                )
            for _, _, _, _, value, err, ra, ie, _ in split:
                total_value -= value
                total_err -= err
                total_resabs -= ra
                total_inner -= ie
            for value, err, ra, ie in zip(values, errs, resabs, inner):
                total_value += value
                total_err += err
                total_resabs += ra
                total_inner += ie
            panels += len(los) - len(split)
            # sums of finite values can overflow, and a total that is not
            # finite (or nan, from inf - inf) chooses no panel to split
            if not abs(total_value) + total_err + total_resabs + total_inner < math.inf:
                raise ConvergenceError("the panel sums overflow")

            target = max(abs_tol, tol * abs(total_value))
            excess = total_err - max(target, 100.0 * _EPS * total_resabs) - floor
            if excess <= 0.0:
                break
            room = max_panels - panels
            if room <= 0:
                raise ConvergenceError(
                    f"panel budget {max_panels} exhausted (error {total_err:.3e}, "
                    f"target {target:.3e})",
                    reported(),
                )
            # the sweep's panels join the heap only to be split: a sweep that
            # meets its target, as most first sweeps do, builds none
            for lo, hi, value, err, ra, ie, dep in zip(
                los, his, values, errs, resabs, inner, depths
            ):
                heapq.heappush(heap, (-err, seq, lo, hi, value, err, ra, ie, dep))
                seq += 1
            # the worst panels whose errors cover the excess, as far as the
            # panel budget allows: splitting fewer cannot reach the target.
            # Each is cut in four, or in as many parts (k adding k - 1
            # panels) as there is room
            split = []
            removed = 0.0
            los, his, depths = [], [], []
            while heap and removed < excess and room > 0:
                entry = heapq.heappop(heap)
                _, _, lo, hi, _, err, _, _, depth = entry
                if depth >= max_depth:
                    raise ConvergenceError(
                        f"bisection depth {max_depth} exhausted near [{lo}, {hi}]", reported()
                    )
                split.append(entry)
                removed += err
                parts = min(2 if depth + 2 > max_depth else 4, room + 1)
                room -= parts - 1
                mid = 0.5 * (lo + hi)
                if parts == 2:
                    cuts, levels = (lo, mid, hi), (1, 1)
                elif parts == 3:  # the right half stays whole
                    cuts, levels = (lo, 0.5 * (lo + mid), mid, hi), (2, 2, 1)
                else:
                    cuts, levels = (lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi), hi), (2,) * 4
                los += cuts[:-1]
                his += cuts[1:]
                depths += [depth + k for k in levels]

    return reported()


def integrate_sqrt_endpoint(
    f_regular: Callable[[float], Value],
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    *,
    abs_tol: float | None = None,
    breakpoints: Iterable[float] = (),
    max_depth: int = 60,
    max_panels: int = 4096,
    vectorized: bool = False,
) -> QuadResult:
    """Integrate f_regular(x) (x - a)^(-1/2) over [a, b].

    The substitution x = a + u^2 removes the endpoint singularity exactly;
    ``f_regular`` itself must be smooth on [a, b].  ``breakpoints`` are given
    in x coordinates; ``vectorized`` is as for :func:`integrate_adaptive`.
    """
    if b <= a:
        raise DomainError(f"need b > a for a square-root endpoint, got [{a}, {b}]")

    def g(u: float) -> Value:
        return f_regular(a + u * u)

    bps = [math.sqrt(p - a) for p in breakpoints if a < p < b]
    res = integrate_adaptive(
        g,
        0.0,
        math.sqrt(b - a),
        tol,
        abs_tol=None if abs_tol is None else 0.5 * abs_tol,
        breakpoints=bps,
        max_depth=max_depth,
        max_panels=max_panels,
        vectorized=vectorized,
    )
    return res.scaled(2.0)


def integrate_to_infinity(
    f: Callable[[float], Value],
    a: float,
    tol: float = DEFAULT_TOL,
    *,
    abs_tol: float | None = None,
    scale: float = 1.0,
    breakpoints: Iterable[float] = (),
    max_depth: int = 60,
    max_panels: int = 4096,
    vectorized: bool = False,
) -> QuadResult:
    """Integrate a decaying f over [a, infinity).

    The map x = a + scale * u/(1-u) compactifies the half line; ``scale``
    should be of the order of the integrand's decay length so the transformed
    integrand is well resolved.  f must decay faster than x^(-2) for the
    transformed integrand to stay bounded.  ``breakpoints`` are given in x
    coordinates; ``vectorized`` is as for :func:`integrate_adaptive`, but f
    returns values only.
    """
    if not (math.isfinite(scale) and scale > 0.0):
        raise DomainError(f"scale must be positive, got {scale}")

    def g(u: Value) -> Value:
        onemu = 1.0 - u
        return f(a + scale * u / onemu) * (scale / (onemu * onemu))

    return integrate_adaptive(
        g,
        0.0,
        1.0,
        tol,
        abs_tol=abs_tol,
        breakpoints=[(p - a) / (p - a + scale) for p in breakpoints if a < p < math.inf],
        max_depth=max_depth,
        max_panels=max_panels,
        vectorized=vectorized,
    )


def contour_power(z: np.ndarray, n: int) -> np.ndarray:
    """z^(-(n+1)/2) on the principal branch, 0 rather than nan at huge |z|:
    an integer power of 1/z for odd n, and (1/sqrt(z))^(n+1), a fraction of
    the cost of numpy's half-integer power, for even n."""
    return (1.0 / z) ** ((n + 1) // 2) if n % 2 else (1.0 / np.sqrt(z)) ** (n + 1)


def integrate_contour(
    f: Callable[[np.ndarray], np.ndarray],
    spec: ContourSpec,
    breakpoints: Iterable[float] | None = None,
    *,
    spikes: Iterable[float] = (),
    max_depth: int = 60,
    max_panels: int = 4096,
) -> QuadResult:
    """Integrate Re f(sigma - i xi) for xi in [0, xi_max].

    ``f`` takes the complex array of a sweep's nodes sigma - i xi and returns
    its values there; it runs once per sweep, like a ``vectorized`` integrand
    of :func:`integrate_adaptive`.  The fall-off points xi = sqrt(G) j of the
    envelope exp((sigma^2 - xi^2)/G) (:func:`gaussian_breakpoints`) join the
    caller's ``breakpoints`` (kinks and branch cuts).  Each xi of ``spikes``,
    nearest a singular point sigma off the line, is seeded at xi -+ sigma/2,
    -+ sigma, -+ 2 sigma and on to sqrt(G) (:func:`scale_seeds`).  The tail
    beyond xi_max, bounded by the envelope from f at xi_max (one more node
    of the first sweep), joins the error.  Any convergence failure,
    including a non-finite integrand on the line or at xi_max, is reported
    as :class:`ContourError`; the usual cure is a different abscissa sigma.
    """
    sigma, xi_max = spec.sigma, spec.xi_max
    seeds = gaussian_breakpoints(0.0, 0.25 * spec.envelope_scale, 0.0, xi_max)
    reach = max(2.0 * sigma, math.sqrt(spec.envelope_scale))
    for xi in spikes:
        seeds += scale_seeds(xi, 0.5 * sigma, reach, 0.0, xi_max)
    end = []  # |f| at xi_max, from the first sweep

    def g(xi: np.ndarray) -> np.ndarray:
        if end:
            return f(sigma - 1j * xi).real
        val = f(sigma - 1j * np.append(xi, xi_max))
        end.append(abs(val[-1]))
        return val[:-1].real

    try:
        res = integrate_adaptive(
            g,
            0.0,
            xi_max,
            spec.tol,
            abs_tol=0.0,
            breakpoints=[*(breakpoints or ()), *seeds],
            max_depth=max_depth,
            max_panels=max_panels,
            vectorized=True,
        )
    except ConvergenceError as exc:
        raise ContourError(
            f"contour integration at sigma = {sigma} failed: {exc}; "
            "a different abscissa may avoid the problem",
            exc.result,
        ) from exc

    # Tail of a Gaussian envelope: integral_X^inf exp(-x^2/G) dx is below
    # (G / 2X) exp(-X^2/G), and |f(sigma - i X)| already carries the envelope.
    end_mag = float(end[0])
    if not math.isfinite(end_mag):
        raise ContourError(
            f"contour integrand at sigma = {sigma} is not finite at the truncation "
            f"point xi = {xi_max}; a different abscissa may avoid the problem",
            QuadResult(res.value, math.inf, res.n_evals + 1),
        )
    tail = end_mag * spec.envelope_scale / (2.0 * xi_max)
    return QuadResult(res.value, res.err_estimate + 2.0 * tail, res.n_evals + 1)
