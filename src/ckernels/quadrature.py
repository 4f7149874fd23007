"""Adaptive quadrature with honest error estimates.

The core rule is the embedded Gauss-Kronrod G7/K15 pair of QUADPACK
(Piessens et al., 1983) applied on a worst-panel-first bisection heap,
refined in sweeps (Shampine, "Vectorized adaptive quadrature in MATLAB",
J. Comput. Appl. Math. 211, 2008): each sweep bisects the worst panels until
their errors sum to the excess of the total error over the target, and
evaluates all the children together.  The 15 Kronrod nodes contain the 7
Gauss nodes, so a panel costs 15 integrand evaluations.  A panel's error is
the raw difference |K15 - G7|, without QUADPACK's (200 |K15 - G7| /
resasc)^1.5 rescaling, which can report less than the difference itself.
The reported error is the accumulated panel differences plus a roundoff
floor proportional to the integral of |f|, so results near the
double-precision cancellation limit carry error estimates that reflect it
instead of the nominal tolerance.

Integrands may return scalars or numpy arrays of a fixed shape; array mode is
what lets Taylor-jet-valued integrands (derivatives under the integral sign)
be integrated in a single adaptive pass, with the error measured in the
max norm across components.  With ``vectorized=True`` the integrand is called
once per sweep on the array of the 15 nodes of each of its panels and
returns the values stacked along the leading axis, which lets a batch of
jets carry a whole sweep.

Three transforms cover the singular and unbounded shapes that arise in the
kernel formulas: an inverse-square-root endpoint factor (substitute
x = a + u^2), a half-line tail (substitute x = a + s u/(1-u)), and vertical
complex contours with Gaussian envelopes, where truncation at xi_max is
chosen from the envelope and the discarded tail is added to the error
estimate.  A contour integrand always takes the complex array of a sweep's
nodes.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Union

import numpy as np

from .errors import ContourError, ConvergenceError, DomainError

DEFAULT_TOL = 1e-10
_EPS = float(np.finfo(float).eps)

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
_WDIFF = _WK15 - _WG7

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


def even_extrapolate(f, x: float, x1: float, x2: float) -> QuadResult:
    """Evaluate an even function near its symmetry point by quadratic fit.

    ``f`` maps a coordinate to a QuadResult; the fit is linear in x^2 through
    x1 and x2, exact for even quadratics, with the spread between the two
    samples folded into the error estimate.
    """
    r1 = f(x1)
    r2 = f(x2)
    slope = (r2.value - r1.value) / (x2 * x2 - x1 * x1)
    value = r1.value + (x * x - x1 * x1) * slope
    err = r1.err_estimate + r2.err_estimate + 0.05 * abs(r2.value - r1.value)
    return QuadResult(value, err, r1.n_evals + r2.n_evals)


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
    """Default abscissa of a heat-kernel contour with envelope exp(y^2/4t).

    Half the larger of 1 and r (clear of the branch point), at most ``cap``,
    and capped so the oscillatory factor exp(sigma^2/4t) cannot push the
    relative cancellation floor above about 1e-9 at small t.
    """
    floor_sq = 4.0 * t * math.log(1e9) - r * r
    floor_cap = math.sqrt(floor_sq) if floor_sq > 0.04 else 0.2
    return min(0.5 * max(1.0, r), floor_cap, cap)


def _norm(v: Value) -> float:
    if isinstance(v, np.ndarray):
        return float(np.max(np.abs(v)))
    return abs(v)


def _sweep(f, los: list, his: list, vectorized: bool):
    """Embedded G7/K15 estimates on the panels [los[i], his[i]] of one sweep.

    One integrand call per Kronrod node, 15 per panel, or one call on the
    array of all the sweep's nodes if ``vectorized``; such a call runs with
    numpy's floating-point warnings off, since a node that overflows yields a
    non-finite value and is reported like any other.  Returns (values, errs,
    resabs, where_bad) with one entry per panel: the K15 value (a float, or an
    array of the integrand's shape), the raw |K15 - G7| (max norm for array
    values) and the K15 integral of |f|.  ``where_bad`` is the first node at
    which f is not finite, in which case the other fields are None.
    """
    h = [0.5 * (b - a) for a, b in zip(los, his)]
    if len(h) == 1:  # the first sweep of an integral without breakpoints
        nodes = 0.5 * (los[0] + his[0]) + h[0] * _XK15
    else:
        nodes = np.multiply.outer(h, _XK15)
        nodes += np.array([0.5 * (a + b) for a, b in zip(los, his)])[:, None]
        nodes = nodes.ravel()
    if vectorized:
        with np.errstate(all="ignore"):
            v = np.asarray(f(nodes), float)
    else:
        vals = [f(x) for x in nodes]
        if isinstance(vals[0], np.ndarray):
            v = np.stack([np.asarray(u, float) for u in vals])
        else:
            v = np.array(vals, float)
    shape = v.shape[1:]
    # the rule's weights times each panel's (15, components) block: the
    # products a panel alone would get, whatever the sweep.  Array values
    # take the max norm over their components
    v = v.reshape(len(h), 15, -1)
    absum = _WK15 @ np.abs(v)
    absum = (absum.max(axis=1) if shape else absum[:, 0]).tolist()
    # a non-finite node makes its panel's integral of |f| non-finite
    if not math.isfinite(sum(absum)):
        finite = np.isfinite(v).all(axis=2)
        if not finite.all():
            return None, None, None, float(nodes[np.argmin(finite)])
    diffs = np.abs(_WDIFF @ v)
    diffs = (diffs.max(axis=1) if shape else diffs[:, 0]).tolist()
    sums = _WK15 @ v
    resabs = [hp * r for hp, r in zip(h, absum)]
    errs = [hp * d for hp, d in zip(h, diffs)]
    if shape:
        values = [hp * k.reshape(shape) for hp, k in zip(h, sums)]
    else:
        values = [hp * k for hp, k in zip(h, sums[:, 0].tolist())]
    return values, errs, resabs, None


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
    spikes and branch switches).  Refinement goes in sweeps: each bisects the
    worst panels until their errors sum to the excess of the total error over
    the target, and evaluates all the children together.  With ``vectorized``
    f takes the array of a sweep's nodes, a multiple of 15, and returns their
    values stacked along the leading axis; ``n_evals`` still counts nodes.
    Raises :class:`ConvergenceError`, carrying the best estimate, if the panel
    or depth budget runs out, and reports a roundoff-floor error term
    proportional to the integral of |f| so that cancellation-limited results
    are not overclaimed.
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

    heap = []  # entries: (-err, seq, lo, hi, value, err, resabs, depth)
    split = []  # the heap entries that the panels of the sweep replace
    seq = 0
    total_value = 0.0
    total_err = 0.0
    total_resabs = 0.0
    n_evals = 0

    while True:
        values, errs, resabs, bad_at = _sweep(f, los, his, vectorized)
        n_evals += 15 * len(los)
        if bad_at is not None:
            best = QuadResult(total_value, math.inf, n_evals) if split else None
            raise ConvergenceError(
                f"integrand returned a non-finite value near x = {bad_at}", best
            )
        for _, _, _, _, value, err, ra, _ in split:
            total_value = total_value - value
            total_err -= err
            total_resabs -= ra
        for lo, hi, value, err, ra, depth in zip(los, his, values, errs, resabs, depths):
            total_value = total_value + value
            total_err += err
            total_resabs += ra
            heapq.heappush(heap, (-err, seq, lo, hi, value, err, ra, depth))
            seq += 1

        target = max(abs_tol, tol * _norm(total_value))
        excess = total_err - max(target, 100.0 * _EPS * total_resabs)
        if excess <= 0.0:
            break
        room = max_panels - len(heap)
        if room <= 0:
            best = QuadResult(total_value, total_err + 30.0 * _EPS * total_resabs, n_evals)
            raise ConvergenceError(
                f"panel budget {max_panels} exhausted (error {total_err:.3e}, "
                f"target {target:.3e})",
                best,
            )
        # the worst panels whose errors cover the excess, as far as the panel
        # budget allows: splitting fewer cannot reach the target
        split = []
        removed = 0.0
        while heap and removed < excess and len(split) < room:
            entry = heapq.heappop(heap)
            if entry[7] >= max_depth:
                best = QuadResult(total_value, total_err + 30.0 * _EPS * total_resabs, n_evals)
                raise ConvergenceError(
                    f"bisection depth {max_depth} exhausted near [{entry[2]}, {entry[3]}]",
                    best,
                )
            split.append(entry)
            removed += entry[5]
        los, his, depths = [], [], []
        for _, _, lo, hi, _, _, _, depth in split:
            mid = 0.5 * (lo + hi)
            los += (lo, mid)
            his += (mid, hi)
            depths += (depth + 1, depth + 1)

    return QuadResult(total_value, total_err + 30.0 * _EPS * total_resabs, n_evals)


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
    max_depth: int = 60,
    max_panels: int = 4096,
    vectorized: bool = False,
) -> QuadResult:
    """Integrate a decaying f over [a, infinity).

    The map x = a + scale * u/(1-u) compactifies the half line; ``scale``
    should be of the order of the integrand's decay length so the transformed
    integrand is well resolved.  f must decay faster than x^(-2) for the
    transformed integrand to stay bounded.  ``vectorized`` is as for
    :func:`integrate_adaptive`.
    """
    if not (math.isfinite(scale) and scale > 0.0):
        raise DomainError(f"scale must be positive, got {scale}")

    def g(u: Value) -> Value:
        onemu = 1.0 - u
        x = a + scale * u / onemu
        jac = scale / (onemu * onemu)
        val = f(x)
        if vectorized:
            # one Jacobian factor per node, along the leading axis
            jac = np.reshape(jac, jac.shape + (1,) * (np.ndim(val) - 1))
        return val * jac

    return integrate_adaptive(
        g,
        0.0,
        1.0,
        tol,
        abs_tol=abs_tol,
        max_depth=max_depth,
        max_panels=max_panels,
        vectorized=vectorized,
    )


def integrate_contour(
    f: Callable[[np.ndarray], np.ndarray],
    spec: ContourSpec,
    breakpoints: Iterable[float] | None = None,
    *,
    max_depth: int = 60,
    max_panels: int = 4096,
) -> QuadResult:
    """Integrate Re f(sigma - i xi) for xi in [0, xi_max].

    ``f`` takes the complex array of a sweep's nodes sigma - i xi and returns
    its values there; it runs once per sweep, like a ``vectorized`` integrand
    of :func:`integrate_adaptive`.  The discarded tail beyond xi_max is
    bounded by the Gaussian envelope and added to the error estimate.  Any
    convergence failure, including a non-finite integrand on the line or at
    xi_max, is reported as :class:`ContourError`; the usual cure is a
    different abscissa sigma.
    """
    sigma = spec.sigma

    def g(xi: np.ndarray) -> np.ndarray:
        return f(sigma - 1j * xi).real

    try:
        res = integrate_adaptive(
            g,
            0.0,
            spec.xi_max,
            spec.tol,
            abs_tol=0.0,
            breakpoints=breakpoints or (),
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
    with np.errstate(all="ignore"):
        end_mag = float(np.abs(f(np.array([complex(sigma, -spec.xi_max)]))[0]))
    if not math.isfinite(end_mag):
        raise ContourError(
            f"contour integrand at sigma = {sigma} is not finite at the truncation "
            f"point xi = {spec.xi_max}; a different abscissa may avoid the problem",
            QuadResult(res.value, math.inf, res.n_evals + 1),
        )
    tail = end_mag * spec.envelope_scale / (2.0 * spec.xi_max)
    return QuadResult(res.value, res.err_estimate + 2.0 * tail, res.n_evals + 1)
