"""Cross-representation validation and spectral diagnostics.

This module ties the per-space kernel representations together:

* a uniform :func:`evaluate` entry point over (space, dimension, kind,
  representation),
* subordination, turning any heat kernel into its Poisson companion,
* total-mass integrals and least-squares fits of the spectral shift that
  each space's normalization carries,
* pointwise PDE residuals using exact jet derivatives in the radial
  variable and finite differences in time or height,
* a semigroup (Chapman-Kolmogorov) self-consistency check,
* the named validation suites behind the command-line ``validate``.

Spectral shifts: with A_n the radial Laplacian, the implemented kernels obey

    euclidean:   d/dt u = A_n u
    sphere:      d/dt u = (A_n - (n-1)^2/4) u
    hyperbolic:  d/dt u = (A_n + (n-1)^2/4) u   (convention "paper")

and the Poisson kernels solve d^2/dy^2 u + (A_n + shift) u = 0 with the same
shift per space.
"""

from __future__ import annotations

import math
import operator
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from . import euclid, hyperbolic, sphere
from .errors import ConvergenceError, DomainError, SingularPointError
from .geometry import (
    CONVENTIONS,
    KINDS,
    Space,
    check_convention,
    check_positive,
    check_query,
    check_tol,
    convention_factor,
    radial_laplacian,
    spectral_shift,
    sphere_surface_coeff,
)
from .jets import Jet, _lower_jet, _raised_at_nodes, gauss_jet, raise_jet, raise_kernel
from .quadrature import (
    DEFAULT_TOL,
    QuadResult,
    bump_seeds,
    integrate_adaptive,
    integrate_to_infinity,
)


def _any_n(n: int) -> bool:
    return True


def _rank(cost: int):
    """A row's ``auto`` rank that depends on neither n, t nor r."""
    return lambda n, t, r: (cost, False)


# A Gruet contour integrates exp(y^2/4t) against a kernel of size about
# exp(-r^2/4t), so its relative rounding floor grows like exp(r^2/4t).  A scan
# of the S^n and H^n heat contours over 1001 cells (n in {2, 3, 4, 6, 8, 11,
# 14}, t from 1e-3 to 0.3, r from 0 to 6 on H^n and to 3.1 on S^n) at tol
# 1e-10: none of the 378 cells with r^2/4t >= 32 met tol, claiming 1e-3 to 1e3
# relative; 2 of the 28 in [28, 32) did, and 392 of the 455 below 8.  Past
# r^2 = _CONTOUR_REACH t ``auto`` runs the contour only as a last resort.
_CONTOUR_REACH = 128.0


def _contour_rank(cost: int):
    """A Gruet contour row's rank: last resort past r^2 = _CONTOUR_REACH t."""
    return lambda n, t, r: (cost, r * r > _CONTOUR_REACH * t)


def _spectral_rank(n: int, t: float, r: float):
    """The S^n spectral row's rank: first from t = 0.1 on and, down to
    sphere.SPECTRAL_MIN_T, where r^2 <= 24 t.  Its relative rounding floor
    grows like exp(r^2/4t), under e^6 there: on 1500 random cells of that
    band (n 1..15, both conventions, 15% at r = 0) it met tol 1e-10 at
    every one, within its error of a 30-digit sum.  It takes 0.01-0.05 ms
    there, where the contour takes 0.08-0.25 ms and even-n raising
    0.6-1.4 ms."""
    if t >= 0.1 or (t >= sphere.SPECTRAL_MIN_T and r * r <= 24.0 * t):
        return 0, False
    return None


def _paper(space: Space, route):
    """A sphere or hyperbolic heat row whose ``route`` maps (n, t, r, tol)
    to the paper-convention kernel.  The markovian kernel is that
    kernel times :func:`~ckernels.geometry.convention_factor`, applied here
    for every such row; where the factor overflows (S^n at large (n-1)^2 t)
    this raises OverflowError and ``auto`` passes to the next row.  The
    spectral row is not wrapped: ``sphere.heat_spectral`` folds the
    convention into its own exponent, so its markovian value stays finite
    where its paper value underflows and the factor overflows."""

    def call(n, t, r, tol, convention):
        res = route(n, t, r, tol)
        if convention == "paper":
            return res
        return res.scaled(convention_factor(space, convention, n, t))

    return call


# exp(x) overflows for x > ln(DBL_MAX); exp(pi^2/4t) does below this time
_CLASSIC_MIN_T = math.pi**2 / (4.0 * math.log(sys.float_info.max))

# Which representation serves which (space, kind, n).  Rows are
# (name, dimension rule, call, rank); ``compare`` takes the rows whose rule
# admits n.  ``rank(n, t, r)`` is None where ``auto`` skips the row, else
# (cost, last resort): the cost orders the rows ``auto`` tries, cheapest first
# (measured per point on the benchmark's auto sweep), and a last-resort row
# runs after the others, and only if none of them finished (see
# :func:`_walk`).  A table with one ranked row, its closed form,
# gets that row's call as ``auto`` itself; the sphere and hyperbolic heat
# kernels get the error-guarded walk of :func:`_walk`.  A call maps
# (n, param, r, tol, convention) to a QuadResult and looks its route up as a
# module attribute when it runs, so rebinding that attribute (to trace or to
# mock it) reaches every caller.  The contour rows run on the default
# abscissa; the deformation checks call the ``heat_gruet`` routes themselves.
_REPRESENTATIONS = {
    (Space.EUCLIDEAN, "heat"): (
        ("closed", _any_n,
         lambda n, t, r, tol, c: QuadResult(euclid.heat_closed(n, t, r), 0.0, 0), _rank(0)),
        ("raise", _any_n, lambda n, t, r, tol, c: euclid.heat_raise(n, t, r, tol=tol), None),
        ("descent", _any_n, lambda n, t, r, tol, c: euclid.heat_descent(n, t, r, tol), None),
        ("gruet", _any_n, lambda n, t, r, tol, c: euclid.heat_gruet(n, t, r, tol=tol), None),
    ),
    (Space.SPHERE, "heat"): (
        ("theta", lambda n: n <= 3,
         _paper(Space.SPHERE, lambda n, t, r, tol: sphere.heat_theta(n, t, r, tol)),
         _rank(1)),
        # pure jets for odd n (0.02-0.07 ms on n = 3..15), a float integral
        # over a batched raise for even n (0.5-3.4 ms, a refusal up to 25 ms;
        # best of 5 on n = 4..14, t = 1e-3..9); for n <= 2 it is the theta
        # row itself
        ("raise", _any_n,
         _paper(Space.SPHERE, lambda n, t, r, tol: sphere.heat_raise(n, t, r, tol)),
         lambda n, t, r: None if n <= 2 else (2 if n % 2 else 4, False)),
        ("gruet", _any_n,
         _paper(Space.SPHERE, lambda n, t, r, tol: sphere.heat_gruet(n, t, r, tol=tol)),
         _contour_rank(3)),
        # 0.01-0.05 ms wherever it is ranked; the Fourier series on the circle
        ("spectral", _any_n,
         lambda n, t, r, tol, c: sphere.heat_spectral(n, t, r, tol, convention=c),
         _spectral_rank),
    ),
    (Space.HYPERBOLIC, "heat"): (
        ("raise", lambda n: n % 2 == 1,
         _paper(Space.HYPERBOLIC, lambda n, t, r, tol: hyperbolic.heat_raise(n, t, r, tol=tol)),
         _rank(0)),
        # a float integral over a batched raise (0.2-4 ms): tried last
        ("descent", lambda n: n % 2 == 0,
         _paper(Space.HYPERBOLIC,
                lambda n, t, r, tol: hyperbolic.heat_descent(n, t, r, tol=tol)),
         _rank(4)),
        ("gruet", _any_n,
         _paper(Space.HYPERBOLIC, lambda n, t, r, tol: hyperbolic.heat_gruet(n, t, r, tol=tol)),
         _contour_rank(2)),
        # from t = 0.5 on it meets tol and costs less than gruet (0.3-0.5 ms
        # against 0.6-1 ms); below it cancels, and below _CLASSIC_MIN_T its
        # exp(pi^2/4t) overflows at the first node, so auto skips it there
        ("gruet-classic", _any_n,
         _paper(Space.HYPERBOLIC,
                lambda n, t, r, tol: hyperbolic.heat_classic(n, t, r, tol=tol)),
         lambda n, t, r: None if t < _CLASSIC_MIN_T else (1 if t >= 0.5 else 3, False)),
    ),
    (Space.EUCLIDEAN, "poisson"): (
        ("closed", _any_n,
         lambda n, y, r, tol, c: QuadResult(euclid.poisson_closed(n, y, r), 0.0, 0), _rank(0)),
        ("integral", _any_n, lambda n, y, r, tol, c: euclid.poisson_integral(n, y, r, tol), None),
        ("raise", _any_n, lambda n, y, r, tol, c: euclid.poisson_raise(n, y, r, tol=tol), None),
        ("descent", _any_n, lambda n, y, r, tol, c: euclid.poisson_descent(n, y, r, tol), None),
        ("subordinate", _any_n, lambda n, y, r, tol, c: _euclid_subordinate(n, y, r, tol), None),
    ),
    (Space.SPHERE, "poisson"): (
        ("closed", _any_n,
         lambda n, y, r, tol, c: QuadResult(sphere.poisson_closed(n, y, r), 0.0, 0), _rank(0)),
        ("raise", _any_n, lambda n, y, r, tol, c: sphere.poisson_raise(n, y, r, tol=tol), None),
        ("doubling", _any_n, lambda n, y, r, tol, c: sphere.poisson_doubling(n, y, r, tol), None),
        ("subordinate", _any_n, lambda n, y, r, tol, c: _sphere_subordinate(n, y, r, tol), None),
    ),
    (Space.HYPERBOLIC, "poisson"): (
        ("closed", _any_n,
         lambda n, y, r, tol, c: QuadResult(hyperbolic.poisson_closed(n, y, r), 0.0, 0),
         _rank(0)),
        ("raise", _any_n,
         lambda n, y, r, tol, c: hyperbolic.poisson_raise(n, y, r, tol=tol), None),
        ("descent", _any_n,
         lambda n, y, r, tol, c: hyperbolic.poisson_descent(n, y, r, tol), None),
        ("subordinate", _any_n, lambda n, y, r, tol, c: poisson_images(n, y, r, tol), None),
    ),
}

# the failures after which ``auto`` tries the next row; any other
# DomainError is the caller's, and ends the walk
_FALL_THROUGH = (ConvergenceError, SingularPointError, OverflowError)
_TINY = sys.float_info.min
# exp(-x^2) is exactly 0.0 in double precision for x beyond this
_EXP_UNDERFLOW = math.sqrt(746.0)


def _walk(space: Space, kind: str, rows: tuple):
    """``auto`` over several ranked rows: the first result that meets tol.

    The rows that admit n and have a rank at (t, r) run cheapest first.  A
    result is accepted when its error is at most max(tol |value|, abs_tol,
    the smallest normal float), so a kernel that underflows is accepted as 0
    with its absolute bound.  A row that raises one of _FALL_THROUGH passes
    to the next.  For a relative target (abs_tol 0) the last-resort rows run
    after the others, and only while none of them has finished: a contour
    whose rounding floor lies above tol then costs nothing where another row
    answers.  An absolute target can be met whatever the relative floor, so
    with abs_tol > 0 every row runs in cost order.  If no row meets tol, the
    finished result with the smallest error is returned; if every row
    raised, the first row's exception is.
    """

    def walk(n, param, r, tol, convention, abs_tol=0.0):
        check_query(space, n, kind, param, r)
        order = []
        for _, admits, call, rank in rows:
            key = rank(n, param, r) if admits(n) else None
            if key is not None:
                cost, last = key
                order.append((last and not abs_tol, cost, call))
        order.sort(key=operator.itemgetter(0, 1))
        best = first = None
        for last, _, call in order:
            if last and best is not None:
                break
            try:
                res = call(n, param, r, tol, convention)
            except _FALL_THROUGH as exc:
                if first is None:
                    first = exc
                continue
            if res.err_estimate <= max(tol * abs(res.value), abs_tol, _TINY):
                return res
            if best is None or res.err_estimate < best.err_estimate:
                best = res
        if best is None:
            raise first
        return best

    return walk


def _auto(space: Space, kind: str, rows: tuple):
    """The call of a table's only ranked row, else the walk over its rows."""
    ranked = [call for _, _, call, rank in rows if rank is not None]
    return ranked[0] if len(ranked) == 1 else _walk(space, kind, rows)


_AUTO = {key: _auto(*key, rows) for key, rows in _REPRESENTATIONS.items()}


def _rows(space: Space, kind: str) -> tuple:
    rows = _REPRESENTATIONS.get((space, kind))
    if rows is None:
        if kind not in KINDS:
            raise DomainError(f"kind must be 'heat' or 'poisson', got {kind!r}")
        raise DomainError(f"unknown space {space!r}")
    return rows


def _route(space: Space, kind: str, rep: str):
    """The call of the named row, or for "auto" the ``_AUTO`` entry."""
    if rep == "auto":
        call = _AUTO.get((space, kind))
        if call is not None:
            return call
    for name, _, call, _ in _rows(space, kind):
        if name == rep:
            return call
    raise DomainError(
        f"representation {rep!r} is not available for the {space.value} {kind} kernel"
    )


def representation_names(space: Space, kind: str) -> tuple[str, ...]:
    """The representations of (space, kind), in table order.

    ``auto`` calls the closed form where there is one; on the sphere and
    hyperbolic heat kernels it walks these rows by cost rank (see
    :func:`evaluate`).
    """
    return tuple(row[0] for row in _rows(space, kind))


def evaluate(
    space: Space,
    n: int,
    kind: str,
    param: float,
    r: float,
    *,
    rep: str = "auto",
    tol: float = DEFAULT_TOL,
    convention: str = "paper",
) -> QuadResult:
    """Evaluate one kernel by the named representation.

    ``param`` is the time t (heat) or height y (poisson).  A named ``rep``
    runs that row alone and raises what it raises; the contour rows run on
    their default abscissa, the saddle point (the deformation checks call
    the ``heat_gruet`` routes on others).  ``rep`` of "auto" is the one
    fallback: it calls the closed form where one exists.  For the sphere and hyperbolic
    heat kernels it tries the representations cheapest first (a cost rank
    per row that may depend on n, t and r) and returns the first result whose
    error is at most max(tol |value|, the smallest normal float).  A row that
    raises ConvergenceError, SingularPointError or OverflowError passes to
    the next one.  Past r^2 = 128 t the Gruet contour runs last, and only if
    every other row raised: it integrates exp(y^2/4t) against a kernel of
    size exp(-r^2/4t), so its rounding floor lies above tol there.  If no
    row meets tol, the result with the smallest error of the rows that ran
    is returned; if every row raised, the first row's exception is raised.
    The convention applies to sphere and hyperbolic heat kernels: every
    route gives the paper kernel, and "markovian" multiplies it by
    exp(-spectral_shift t) to the unit-mass normalization, in the one row
    wrapper :func:`_paper`, except ``sphere.heat_spectral``, which folds the
    factor into its own exponent.  It is validated everywhere and ignored
    where the normalizations coincide, and so is ``tol``, which must lie in
    (0, 1).
    """
    call = _route(space, kind, rep)
    check_convention(convention)
    check_tol(tol)
    return call(n, param, r, tol, convention)


# ---------------------------------------------------------------------------
# subordination


def _heat_nodes(space: Space, n: int, r: float, tol: float) -> Callable:
    """The paper-convention heat kernel at r inside a nested integral:
    ``heat(ts, w)`` gives its values and errors at a sweep's times ``ts``
    under the outer weights ``w``.

    The space's batch runs first: the S^n node series
    (:func:`sphere._spectral_nodes`, n >= 2) or, on odd H^n, one
    :func:`raise_kernel` of the Gaussian at every time.  Each node the batch
    leaves takes the ``auto`` walk, looked up when it runs, heaviest first,
    with the absolute target the outer weight sets: the inner tolerance
    times a tenth of the largest |w h| yet met, over |w|, so that a node of
    tiny weight needs little of the kernel.  A node whose walk raises keeps
    the batch's value and error where they are finite; a node of weight 0
    needs none.
    """
    inner = max(tol * 0.1, 1e-12)
    batch = None
    if space is Space.SPHERE and n >= 2:
        series = sphere._spectral_nodes(n, r)
        batch = lambda ts, w: series(ts, w, inner)
    elif space is Space.HYPERBOLIC and n % 2:

        def batch(ts: np.ndarray, w: np.ndarray) -> tuple:
            res = raise_kernel(Space.HYPERBOLIC, gauss_jet(ts), (n - 1) // 2, r, inner)
            return res.value, res.err_estimate + np.zeros(len(ts))

    walk = _route(space, "heat", "auto")
    peak = 0.0

    def heat(ts: np.ndarray, w: np.ndarray) -> tuple:
        nonlocal peak
        values, errs = np.zeros(len(ts)), np.full(len(ts), math.inf)
        if batch is not None:
            try:
                values, errs = batch(ts, w)
            except (OverflowError, SingularPointError):  # sinh r > ~710; k >= 15
                pass
        weight = np.abs(w)
        zero = weight == 0.0
        values[zero] = errs[zero] = 0.0
        met = errs <= inner * np.abs(values)
        if met.any():
            peak = max(peak, float((weight * np.abs(values))[met].max()))
        todo = np.flatnonzero(~met)
        # the heavy nodes raise the peak, which loosens the light ones' targets
        for i in todo[np.argsort(-weight[todo], kind="stable")]:
            target = 0.1 * inner * peak / weight[i]
            if errs[i] <= target:
                continue
            try:
                res = walk(n, ts[i], r, inner, "paper", target)
            except _FALL_THROUGH:
                if math.isfinite(values[i]) and math.isfinite(errs[i]):
                    continue
                raise
            if not res.err_estimate >= errs[i]:
                values[i], errs[i] = res.value, res.err_estimate
                if errs[i] <= inner * abs(values[i]):
                    peak = max(peak, weight[i] * abs(values[i]))
        return values, errs

    return heat


def subordinate(
    heat_fn: Callable[[np.ndarray, float], np.ndarray],
    y: float,
    r: float,
    tol: float = DEFAULT_TOL,
    *,
    dim_hint: int = 3,
) -> QuadResult:
    """Poisson kernel from a heat kernel by the half-line average

    P(y, r) = (2 y / sqrt(pi)) integral_0^inf exp(-v^2 y^2) H(1/(4 v^2), r) dv.

    ``heat_fn(ts, r)`` takes the array of a sweep's times, as an
    integrand of :func:`integrate_adaptive` does, and returns the heat
    values there, or a tuple (values, errors): the integral of the weighted
    errors then joins the error.  ``dim_hint`` n widens the truncation to
    absorb the (4 pi t)^(-n/2) short-time growth of the heat factor near
    the upper limit, and places the first sweep's seeds at the bump of
    v^n exp(-(y^2 + r^2) v^2), which the integrand follows at short times
    (:func:`bump_seeds`).
    """
    return _subordinate(lambda ts, w: heat_fn(ts, r), y, tol, dim_hint, (r,))


def _subordinate(
    heat: Callable, y: float, tol: float, dim_hint: int, lengths: tuple
) -> QuadResult:
    """:func:`subordinate` of ``heat(ts, w)``, which also sees the outer
    weights w, seeded at the bumps of the geodesics of ``lengths`` between
    the two points."""
    check_positive("height", y)
    check_tol(tol)
    v_max = math.sqrt(math.log(1.0 / tol) + 6.0 + dim_hint) / y * 1.2

    def f(v: np.ndarray):
        w = np.exp(-v * v * y * y)
        out = heat(0.25 / (v * v), w)
        return (w * out[0], w * out[1]) if isinstance(out, tuple) else w * out

    seeds = bump_seeds(dim_hint, (y,), lengths, 0.0, v_max)
    res = integrate_adaptive(f, 0.0, v_max, tol, breakpoints=seeds)
    return res.scaled(2.0 * y / math.sqrt(math.pi))


def _euclid_subordinate(n: int, y: float, r: float, tol: float) -> QuadResult:
    """The euclidean ``subordinate`` row: the closed heat kernel on a sweep's times."""
    check_query(Space.EUCLIDEAN, n, "poisson", y, r)
    return subordinate(lambda ts, x: euclid._heat(np, n, ts, x), y, r, tol, dim_hint=n)


def _sphere_subordinate(n: int, y: float, phi: float, tol: float) -> QuadResult:
    """The sphere ``subordinate`` row, on :func:`_heat_nodes`.  The seeds
    take both arcs of the great circle, phi and 2 pi - phi: the heat kernel
    leaves the flat one where the longer arc's Gaussian rises."""
    check_query(Space.SPHERE, n, "poisson", y, phi)
    heat = _heat_nodes(Space.SPHERE, n, phi, tol)
    return _subordinate(heat, y, tol, n, (phi, 2.0 * math.pi - phi))


def _theta_weight(v, y: float) -> np.ndarray:
    """(2/sqrt(pi)) sum over k of (y + 2 pi k) exp(-v^2 (y + 2 pi k)^2), at
    a node array v (a float gives a 0-d array).

    The image series converges rapidly for v above ~0.3 and the
    Poisson-summation dual (a sine series in y) below it.  Each is summed on
    all its nodes at once, out to the term at which the slowest-decaying
    node's exp underflows to 0, so every omitted term is 0.  Below
    v ~ 0.054 the weight is under 1e-30 and is treated as zero.
    """
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape)
    images, dual = v >= 0.3, (v >= 0.054) & (v < 0.3)
    if images.any():
        vi = v[images]
        k_max = math.ceil((_EXP_UNDERFLOW / vi.min() + abs(y)) / (2.0 * math.pi))
        args = y + 2.0 * math.pi * np.arange(-k_max, k_max + 1)
        va = vi[:, None] * args
        out[images] = (args * np.exp(-va * va)).sum(axis=1) * (2.0 / math.sqrt(math.pi))
    if dual.any():
        vd = v[dual]
        m = np.arange(1.0, math.ceil(2.0 * _EXP_UNDERFLOW * vd.max()) + 1.0)
        terms = m * np.exp(-np.outer(0.25 / (vd * vd), m * m)) * np.sin(m * y)
        out[dual] = terms.sum(axis=1) / (math.pi * vd**3)
    return out


def poisson_images(n: int, y: float, rho: float, tol: float = DEFAULT_TOL) -> QuadResult:
    """Hyperbolic Poisson kernel as the 2 pi periodization in y of the
    subordinated heat kernel (odd in y), summed over images y + 2 pi k.

    Exchanging the image sum with the subordination integral leaves a single
    integral of the heat kernel against a theta-type weight in the
    subordination variable, so no image truncation is needed.

    The integrand runs once per quadrature sweep, on the 15 nodes of each of
    the sweep's panels, and takes the inner heat kernel from
    :func:`_heat_nodes`: for odd n one batched :func:`raise_kernel` of the
    Gaussian, the ``auto`` walk at the nodes it leaves and for even n.  The
    integral of the weighted inner errors joins the error, as does 1e-30 for
    the weight below v = 0.054, which is left out.
    """
    check_query(Space.HYPERBOLIC, n, "poisson", y, rho)
    check_tol(tol)
    heat = _heat_nodes(Space.HYPERBOLIC, n, rho, tol)
    v_max = math.sqrt(math.log(1.0 / tol) + 6.0 + n) / y * 1.2 + 1.0

    def f(vs: np.ndarray) -> tuple:
        w = _theta_weight(vs, y)
        values, errs = heat(0.25 / (vs * vs), w)
        return w * values, np.abs(w) * errs

    # breakpoints: the series switch inside the weight, v = 0.5 (t = 1), a
    # seed of the partition the odd-n rows are timed on, and the bumps of the
    # weight's widest images y and y - 2 pi (0 < y < pi), whose sum leaves
    # the single image where the second one's Gaussian rises
    seeds = [0.3, 0.5] + bump_seeds(n, (y, 2.0 * math.pi - y), (rho,), 0.054, v_max)
    res = integrate_adaptive(f, 0.054, v_max, tol, breakpoints=seeds)
    return QuadResult(res.value, res.err_estimate + 1e-30, res.n_evals)


# ---------------------------------------------------------------------------
# masses and spectral shifts


def heat_mass(
    space: Space,
    n: int,
    t: float,
    *,
    convention: str = "paper",
    tol: float = 1e-10,
) -> QuadResult:
    """Total mass of the heat kernel over its space.

    Expected values: 1 on Euclidean space; exp(-(n-1)^2 t/4) on the sphere
    and exp(+(n-1)^2 t/4) on hyperbolic space in the "paper" convention, both 1
    in the markovian convention.  The integrand evaluates the row at each
    node, and the rows' errors, under the shell weight, join the err.
    """
    check_query(space, n, "heat", t, 0.0)
    check_convention(convention)
    check_tol(tol)
    coeff = sphere_surface_coeff(n)
    inner = max(0.05 * tol, 1e-12)
    # on S^n the image sums or raising, never ``auto``: the spectral series'
    # mass is exactly its l = 0 term, so it would test nothing
    if space is Space.SPHERE:
        rep = "theta" if n <= 3 else "raise"
    else:
        rep = "closed" if space is Space.EUCLIDEAN else "auto"
    call = _route(space, "heat", rep)

    def f(xs: np.ndarray) -> tuple:
        rows = [call(n, t, x, inner, convention) for x in xs.tolist()]
        shell = coeff * np.array([space.weight(x) ** (n - 1) for x in xs.tolist()])
        values, errs = np.array([(row.value, row.err_estimate) for row in rows]).T
        return values * shell, errs * np.abs(shell)

    if space is Space.SPHERE:
        top = math.pi
    elif space is Space.EUCLIDEAN:
        top = math.sqrt(4.0 * t * (math.log(1.0 / tol) + 6.0)) + 1.0
    else:
        top = 2.0 * t * (n - 1) + math.sqrt(4.0 * t * (math.log(1.0 / tol) + 6.0)) + 3.0
    return integrate_adaptive(f, 0.0, top, tol)


def poisson_mass(space: Space, n: int, y: float, *, tol: float = 1e-10) -> QuadResult:
    """Total mass of the Poisson kernel.

    1 on Euclidean space, exp(-y (n-1)/2) on the sphere; on hyperbolic space
    the strip kernel has mass (pi - y)/pi for n = 1, a finite non-product
    value for n = 2, and a divergent integral for n >= 3 (the closed kernel
    decays like exp(-(n+1) rho / 2) against volume growth exp((n-1) rho)).
    """
    check_query(space, n, "poisson", y, 0.0)
    check_tol(tol)
    coeff = sphere_surface_coeff(n)
    if space is Space.EUCLIDEAN:

        def f(r: np.ndarray) -> np.ndarray:
            return euclid._poisson(np, n, y, r) * coeff * r ** (n - 1)

        return integrate_to_infinity(f, 0.0, tol, scale=max(y, 1.0))

    if space is Space.SPHERE:

        def at(phi: float) -> float:
            return sphere.poisson_closed(n, y, phi) * coeff * math.sin(phi) ** (n - 1)

        return integrate_adaptive(np.vectorize(at, otypes=[float]), 0.0, math.pi, tol)

    if n >= 3:
        raise DomainError(
            "hyperbolic poisson mass diverges for n >= 3 "
            "(kernel decay exp(-(n+1) rho/2) loses to volume growth)"
        )

    half = 0.5 * (n + 1)
    log_amp = (
        math.lgamma(half)
        - half * math.log(2.0 * math.pi)
        + math.log(math.sin(y))
        + math.log(coeff)
    )

    def at(rho: float) -> float:
        if rho < 350.0:
            return hyperbolic.poisson_closed(n, y, rho) * coeff * math.sinh(rho) ** (n - 1)
        # log form: cosh/sinh overflow, but the integrand still decays like
        # exp(-(3 - n) rho / 2) for n < 3
        log_base = rho - math.log(2.0) + math.log1p(
            (math.exp(-rho) - 2.0 * math.cos(y)) * math.exp(-rho)
        )
        log_sinh = rho - math.log(2.0) + math.log1p(-math.exp(-2.0 * rho))
        expo = log_amp - half * log_base + (n - 1) * log_sinh
        return math.exp(expo) if expo > -745.0 else 0.0

    return integrate_to_infinity(np.vectorize(at, otypes=[float]), 0.0, tol, scale=4.0 / (3 - n))


@dataclass(frozen=True)
class ShiftFit:
    """Least-squares fit of log(mass) = shift * t + intercept."""

    shift: float
    intercept: float
    residual: float
    t_grid: tuple
    masses: tuple


def fit_spectral_shift(
    space: Space,
    n: int,
    t_grid: Sequence[float] = (0.25, 0.5, 1.0, 2.0),
    *,
    convention: str = "paper",
    tol: float = 1e-9,
) -> ShiftFit:
    """Fit the exponential rate of the total heat mass against time."""
    masses = [heat_mass(space, n, t, convention=convention, tol=tol).value for t in t_grid]
    logs = np.log(masses)
    ts = np.asarray(t_grid, float)
    slope, intercept = np.polyfit(ts, logs, 1)
    residual = float(np.max(np.abs(logs - (slope * ts + intercept))))
    return ShiftFit(float(slope), float(intercept), residual, tuple(t_grid), tuple(masses))


# ---------------------------------------------------------------------------
# PDE residuals


def _kernel_jet(
    space: Space, n: int, kind: str, param: float, convention: str, tol: float
) -> Callable[[float, int], Jet]:
    """Jets (in the radial variable) of the kernel at fixed t or y.

    The query has passed check_query, so a kind other than heat is poisson.
    """
    inner = max(tol, 1e-12)
    if kind == "heat":
        if space is Space.EUCLIDEAN:
            return gauss_jet(param, n)
        factor = convention_factor(space, convention, n, param)
        if n % 2 == 0:
            # even H^n descent and S^n raise give values only: the jet is
            # lowered from K_n, K_(n+2), ... at the centre, at DEFAULT_TOL or
            # looser, below which S^8 raise refuses on its rounding at t = 1
            row = hyperbolic.heat_descent if space is Space.HYPERBOLIC else sphere.heat_raise
            row_tol = max(tol, DEFAULT_TOL)

            def lowered(center: float, order: int) -> Jet:
                ns = range(n, n + 2 * order + 1, 2)
                values = [row(m, param, center, tol=row_tol).value for m in ns]
                return _lower_jet(space, values, center) * factor

            return lowered
        base = sphere._theta1_jet(param, inner) if space is Space.SPHERE else gauss_jet(param)
        k = (n - 1) // 2
        return lambda center, order: raise_jet(space, base, k, center, order) * factor

    if space is Space.EUCLIDEAN:
        return euclid._poisson_jet(n, param)
    if space is Space.SPHERE:
        return sphere._poisson_jet(n, param)
    return hyperbolic._poisson_jet(n, param)


def pde_residual(
    space: Space,
    n: int,
    kind: str,
    param: float,
    r: float,
    *,
    convention: str = "paper",
    shift: float | None = None,
    h_scale: float = 1e-4,
    tol: float = 1e-12,
) -> float:
    """Relative residual of the defining PDE at one point.

    Radial derivatives come from jets (exact for the representation);
    the t or y derivative is a central finite difference with step
    h_scale * param, so the residual of a true solution is dominated by the
    O(h^2) truncation of that single stencil.  With ``shift`` None the
    convention's own spectral shift is used.

    The denominator is the largest PDE term, floored by the parabolic scale
    |u|/t (|u|/y^2 for the Poisson equation): the individual terms share
    isolated zero crossings, where a purely pointwise normalization would
    turn rounding noise into an O(1) "residual".
    """
    check_query(space, n, kind, param, r)
    space.validate_distance(r, strict=True)
    if shift is None:
        shift = spectral_shift(space, n) if convention == "paper" else 0.0

    def spatial(p: float) -> tuple[float, float]:
        gen = _kernel_jet(space, n, kind, p, convention, tol)
        jet = gen(r, 2)
        lap = radial_laplacian(space, n, jet)
        return jet.value, lap.value

    u, lap_u = spatial(param)
    h = h_scale * param
    if kind == "heat":
        u_plus, _ = spatial(param + h)
        u_minus, _ = spatial(param - h)
        du_dt = (u_plus - u_minus) / (2.0 * h)
        residual = lap_u + shift * u - du_dt
        scale = max(abs(du_dt), abs(lap_u), abs(shift * u), abs(u) / param, 1e-300)
        return abs(residual) / scale
    u_plus, _ = spatial(param + h)
    u_minus, _ = spatial(param - h)
    d2u = (u_plus - 2.0 * u + u_minus) / (h * h)
    residual = d2u + lap_u + shift * u
    scale = max(
        abs(d2u), abs(lap_u), abs(shift * u), abs(u) / (param * param), 1e-300
    )
    return abs(residual) / scale


# ---------------------------------------------------------------------------
# cross-representation comparison


def _bar(value: float, err: float, tol: float) -> float:
    """A value's error bar: its own error estimate, never under tol of it."""
    return max(err, tol * abs(value))


@dataclass
class ValidationReport:
    """Representations evaluated on one grid, and the pairs that disagree.

    ``values`` and ``errs`` map each representation to its grid, indexed
    [param][r].  A point it refused is NaN in both and listed in ``refused``
    as (rep, param, r).  Two rows are apart at a cell (param, r) when
    |a - b| > max(err_a, tol |a|) + max(err_b, tol |b|): each row's bar is
    its own error estimate, but never under tol of its value.  ``apart``
    lists each such (param, r, rep_a, rep_b).  ``worst`` is the largest
    relative gap |a - b| / max(|a|, |b|) of any pair, and ``worst_pair``
    names that pair.
    """

    space: Space
    n: int
    kind: str
    params: tuple
    rs: tuple
    reps: tuple
    values: dict
    errs: dict
    apart: tuple = ()
    refused: tuple = ()
    worst: float = 0.0
    worst_pair: tuple = ()


def compare(
    space: Space,
    n: int,
    kind: str,
    params: Sequence[float],
    rs: Sequence[float],
    *,
    reps: Sequence[str] | None = None,
    tol: float = DEFAULT_TOL,
    convention: str = "paper",
) -> ValidationReport:
    """Evaluate the chosen representations on a grid and judge every pair by
    its error bars (see :class:`ValidationReport`).

    By default every representation that admits n runs.  Points a
    representation refuses, with a DomainError (a singular point, a domain
    limit) or a failure after which ``auto`` tries the next row (a
    quadrature that misses its target, an overflow), are recorded as NaN,
    listed in ``refused`` and skipped in the comparison; an unknown
    representation name or convention raises DomainError.
    """
    if reps is None:
        reps = [name for name, admits, _, _ in _rows(space, kind) if admits(n)]
    for rep in reps:
        _route(space, kind, rep)
    check_convention(convention)
    check_tol(tol)
    values = {}
    errs = {}
    refused = []
    for rep in reps:
        values[rep] = grid = [[math.nan] * len(rs) for _ in params]
        errs[rep] = egrid = [[math.nan] * len(rs) for _ in params]
        for ip, p in enumerate(params):
            for ir, r in enumerate(rs):
                try:
                    res = evaluate(
                        space, n, kind, p, r, rep=rep, tol=tol, convention=convention
                    )
                except (DomainError, *_FALL_THROUGH):
                    refused.append((rep, p, r))
                    continue
                grid[ip][ir] = float(res.value)
                egrid[ip][ir] = res.err_estimate
    apart = []
    worst, worst_pair = 0.0, ()
    names = list(values)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            for ip, p in enumerate(params):
                for ir, r in enumerate(rs):
                    x, z = values[a][ip][ir], values[b][ip][ir]
                    if math.isnan(x) or math.isnan(z):
                        continue
                    gap = abs(x - z)
                    if gap > _bar(x, errs[a][ip][ir], tol) + _bar(z, errs[b][ip][ir], tol):
                        apart.append((p, r, a, b))
                    rel = gap / max(abs(x), abs(z), 1e-300)
                    if rel > worst:
                        worst, worst_pair = rel, (a, b)
    return ValidationReport(
        space, n, kind, tuple(params), tuple(rs), tuple(names), values, errs,
        tuple(apart), tuple(refused), worst, worst_pair,
    )


# ---------------------------------------------------------------------------
# semigroup


@dataclass(frozen=True)
class SemigroupResult:
    """A t-kernel convolved with an s-kernel, against the (t+s)-kernel.

    ``err`` bounds the convolution's error: the outer quadrature's estimate,
    which takes in the kernel values' and the inner integrals' errors as
    its integrand's error column.  ``direct_err`` is the direct kernel's own
    error.  ``rel_deviation`` is |convolution - direct| / |direct|, 0 where
    both are 0.
    """

    convolution: float
    err: float
    direct: float
    direct_err: float
    rel_deviation: float
    n_evals: int


def semigroup_check(
    space: Space, n: int, t: float, s: float, r: float, *, tol: float = 1e-8
) -> SemigroupResult:
    """Chapman-Kolmogorov check: the t- and s-kernels convolve to the
    (t+s)-kernel at distance r.  Supported for n = 1 (line) and n = 3 (flat
    and hyperbolic), where one or two nested integrals suffice.  The kernels
    take a sweep's nodes: the closed form on flat space, with err 0, and on
    hyperbolic space the raised 1-d Gaussian of ``hyperbolic.heat_raise``
    with its pole series' bound (``jets._raised_at_nodes``), in the paper
    convention.  Each integrand returns a product of two (values, errors)
    pairs and its error da b + a db + da db.  Judge the two values by their
    error bars (``err``, ``direct_err``)."""
    check_query(space, n, "heat", t, r)
    check_query(space, n, "heat", s, r)
    check_tol(tol)
    if space is Space.SPHERE:
        raise DomainError("semigroup check is implemented on the flat and hyperbolic spaces")
    line = space is Space.EUCLIDEAN and n == 1
    if not line and n != 3:
        raise DomainError("semigroup check supports n = 1 (flat) and n = 3")
    flat = space is Space.EUCLIDEAN
    if flat:
        direct = QuadResult(euclid.heat_closed(n, t + s, r), 0.0, 1)

        def kernel(time: float):
            return lambda d: (euclid._heat(np, n, time, d), np.zeros_like(d))

    else:
        direct = hyperbolic.heat_raise(3, t + s, r, tol=tol)

        def kernel(time: float):
            return _raised_at_nodes(Space.HYPERBOLIC, gauss_jet(time), 1, tol)

    kt, ks = kernel(t), kernel(s)

    def product(first: tuple, second: tuple) -> tuple:
        (a, da), (b, db) = first, second
        return a * b, da * np.abs(b) + np.abs(a) * db + da * db

    width = math.sqrt(4.0 * max(t, s) * 40.0)
    evals = [0]
    if line:

        def f(x: np.ndarray) -> tuple:
            return product(kt(np.abs(x)), ks(np.abs(x - r)))

        res = integrate_adaptive(f, -width, r + width, tol, breakpoints=[0.0, r])
    else:
        # On the shell of radius rho about the origin, the distance d to the
        # point at r has J(d) dd = J(r) J(rho) du, with J(x) = x or sinh x and
        # u the cosine of the angle.  So the s-kernel's integral over u is one
        # over d in [|r - rho|, r + rho], smooth where the one over u spikes
        # in a width of about 1/(J(r) J(rho)) at u = 1.  sinh is finite up to
        # the acosh of the largest float, past which the kernel is 0.
        jac, far = (np.abs, math.inf) if flat else (np.sinh, math.acosh(sys.float_info.max))

        def weighted(d: np.ndarray) -> tuple:
            (values, errs), j = ks(d), jac(d)
            return values * j, errs * j

        def shell(rho: float) -> tuple:
            """The s-kernel's integral over d on the shell of radius rho, and its error."""
            near = abs(r - rho)
            inner = integrate_adaptive(
                lambda x: weighted(near + x), 0.0, min(2.0 * min(r, rho), far - near), tol * 0.3
            )
            evals[0] += inner.n_evals
            return inner.value, inner.err_estimate

        def outer(rhos: np.ndarray) -> tuple:
            if r:
                values, errs = np.array([shell(rho) for rho in rhos.tolist()]).T
                w = 2.0 * math.pi * jac(rhos) / (r if flat else math.sinh(r))
            else:  # r = 0: the whole shell lies at distance rho
                values, errs = ks(rhos)
                w = 4.0 * math.pi * jac(rhos) * jac(rhos)
            return product(kt(rhos), (values * w, errs * w))

        res = integrate_adaptive(outer, 0.0, min(r + width, far), tol)
    gap = abs(res.value - direct.value)
    return SemigroupResult(
        res.value,
        res.err_estimate,
        direct.value,
        direct.err_estimate,
        gap / max(abs(direct.value), _TINY) if gap else 0.0,
        evals[0] + res.n_evals,
    )


# ---------------------------------------------------------------------------
# subordination sweep


@dataclass(frozen=True)
class SweepRow:
    convention: str
    extra_shift: float
    mismatch: float
    note: str


@dataclass(frozen=True)
class SweepReport:
    space: Space
    n: int
    points: tuple
    rows: tuple
    best: SweepRow
    images_mismatch: float | None


def subordination_sweep(
    space: Space,
    n: int,
    points: Sequence[tuple[float, float]] = ((0.8, 0.5), (1.8, 1.5)),
    tol: float = 1e-9,
) -> SweepReport:
    """Try (convention, extra shift) pairings of subordination against the
    closed Poisson kernel on a few (y, r) points.

    Each candidate subordinates exp(-delta t) times the convention's heat
    kernel; divergent integrals are reported as infinite mismatch.  On
    hyperbolic space the winning candidate is additionally corrected by the
    2 pi image sum in y, whose residual is reported separately.
    """
    closed_form = _route(space, "poisson", "closed")
    closed = lambda y, r: closed_form(n, y, r, tol, "paper").value
    flat = space is Space.EUCLIDEAN
    shift = spectral_shift(space, n)
    quarter = 0.25 * (n - 1) ** 2
    deltas = sorted({0.0, quarter, -quarter})

    def mismatch(rate: float) -> tuple:
        """The worst relative mismatch over the points, and its note."""
        worst = 0.0
        for y, r in points:
            if flat:
                heat = lambda ts, w, r=r: (euclid._heat(np, n, ts, r), np.zeros(len(ts)))
            else:
                heat = _heat_nodes(space, n, r, tol)

            def shifted(ts, w, heat=heat):
                factor = np.exp(-rate * ts)
                values, errs = heat(ts, w * factor)
                return values * factor, errs * factor

            try:
                got = _subordinate(shifted, y, tol, n, (r,)).value
                want = closed(y, r)
                worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
            except (ConvergenceError, OverflowError):
                return math.inf, "integral diverges"
        return worst, "ok"

    # the markovian kernel is the paper one times exp(-shift t), so
    # candidates of one rate, a multiple of 1/4 and exact, are one integral
    candidates = [
        (convention, delta, delta + (shift if convention == "markovian" else 0.0))
        for convention in (("paper",) if flat else CONVENTIONS)
        for delta in deltas
    ]
    by_rate = {rate: mismatch(rate) for rate in {rate for _, _, rate in candidates}}
    rows = [SweepRow(convention, delta, *by_rate[rate]) for convention, delta, rate in candidates]
    rows.sort(key=lambda row: row.mismatch)
    best = rows[0]
    images = None
    if space is Space.HYPERBOLIC:
        worst = 0.0
        for y, r in points:
            got = poisson_images(n, y, r, tol).value
            want = closed(y, r)
            worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
        images = worst
    return SweepReport(space, n, tuple(points), tuple(rows), best, images)


# ---------------------------------------------------------------------------
# validation suites


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    checks: list
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "elapsed_seconds": round(self.elapsed, 3),
            "checks": [asdict(c) for c in self.checks],
        }


SUITES = ("representations", "pde", "mass", "subordination", "semigroup")

# Checks without an error bar: the pde residual is a finite difference, the
# fitted shift a fit, and the sweep's best mismatch a worst over points
_PDE_RESIDUAL = 1e-5
_SHIFT_FIT = 1e-6
_SWEEP_MISMATCH = 1e-8


def _within(
    name: str, gap: float, bar: float, detail: str = "", scale: float = 1.0
) -> CheckResult:
    """Pass when gap <= bar; both are reported relative to |scale|."""
    scale = max(abs(scale), _TINY)
    return CheckResult(name, gap <= bar, gap / scale, bar / scale, detail)


def _exact(name: str, got: QuadResult, want: float, tol: float) -> CheckResult:
    """A computed value against an exact one: |got - want| <= max(err, tol |want|)."""
    return _within(name, abs(got.value - want), _bar(want, got.err_estimate, tol), scale=want)


# The cross-row grid.  ``validate --suite representations`` and tier-1 run
# one ``compare`` per (space, kind, n), over every row that admits n, at tol
# 1e-10 and the paper convention.  The hyperbolic Poisson kernel needs
# y < pi, so it takes 2.5 in place of 9.  ``subordinate`` runs for n <= 5
# only: on even hyperbolic n it costs ~0.2 s a height.
_GRID_NS = (1, 2, 3, 4, 5, 7, 8, 12, 15)
_GRID_RS = (0.02, 0.5, 1.5, 3.0)
_GRID_TOL = 1e-10

# The known-bad table: the cells where some pair of rows is apart, as
# {(space, kind, n): {param: rs}}, and the calls that refuse, as
# {(space, kind, n, rep): {param: rs}}.  A check passes when what ``compare``
# finds equals its entries exactly, so a fix that makes an entry agree
# deletes it.  Every apart pair involves ``raise`` (ROADMAP item 1); every
# listed refusal is a ConvergenceError.
_R = _GRID_RS
_KNOWN_APART = {
    (Space.EUCLIDEAN, "heat", 12): {9.0: (0.5,)},
    (Space.EUCLIDEAN, "heat", 15): {0.9: (0.5,), 9.0: (0.5, 1.5)},
    (Space.EUCLIDEAN, "poisson", 12): {9.0: (0.5,)},
    (Space.EUCLIDEAN, "poisson", 15): {9.0: (0.5, 1.5)},
    (Space.HYPERBOLIC, "heat", 15): {0.9: (0.5,), 9.0: (0.5,)},
    (Space.SPHERE, "heat", 4): {9.0: (3.0,)},
    (Space.SPHERE, "heat", 5): {9.0: _R},
    (Space.SPHERE, "heat", 7): {9.0: _R},
    (Space.SPHERE, "heat", 15): {0.9: _R, 9.0: _R},
    (Space.SPHERE, "poisson", 7): {9.0: (0.02, 0.5, 3.0)},
    (Space.SPHERE, "poisson", 8): {9.0: _R},
    (Space.SPHERE, "poisson", 12): {0.05: (3.0,), 0.9: (3.0,), 9.0: _R},
    (Space.SPHERE, "poisson", 15): {0.05: (3.0,), 0.9: (3.0,), 9.0: _R},
}
_KNOWN_REFUSED = {
    (Space.SPHERE, "heat", 4, "raise"): {9.0: (0.02, 0.5, 1.5)},
    (Space.SPHERE, "heat", 8, "raise"): {0.9: (0.02, 3.0), 9.0: _R},
    (Space.SPHERE, "heat", 12, "raise"): {0.9: _R, 9.0: _R},
    (Space.HYPERBOLIC, "heat", 12, "descent"): {0.9: (0.02,), 9.0: (0.02,)},
}


def _grid_params(space: Space, kind: str) -> tuple:
    return (0.05, 0.9, 2.5 if (space, kind) == (Space.HYPERBOLIC, "poisson") else 9.0)


def _grid_report(space: Space, kind: str, n: int) -> ValidationReport:
    """The cross-row grid's ``compare`` for one (space, kind, n)."""
    reps = [
        name for name, admits, _, _ in _rows(space, kind)
        if admits(n) and (name != "subordinate" or n <= 5)
    ]
    return compare(space, n, kind, _grid_params(space, kind), _GRID_RS, reps=reps, tol=_GRID_TOL)


def _cells(entry: dict) -> set:
    return {(p, r) for p, rs in entry.items() for r in rs}


def _grid_check(report: ValidationReport) -> CheckResult:
    """Pass when the report's apart cells and refusals are the table's.

    An unlisted failure fails the check, and so does a listed one that now
    agrees.  The value is the number of mismatches; the detail names each
    mismatched cell (param, r) with its pairs or row.
    """
    key = (report.space, report.kind, report.n)
    pairs = {}
    for p, r, a, b in report.apart:
        pairs.setdefault((p, r), []).append(f"{a}/{b}")
    listed_apart = _cells(_KNOWN_APART.get(key, {}))
    listed_refused = {
        (rep, p, r) for rep in report.reps for p, r in _cells(_KNOWN_REFUSED.get((*key, rep), {}))
    }
    wrong = [
        f"({p:g}, {r:g}) {', '.join(names)} apart"
        for (p, r), names in pairs.items() if (p, r) not in listed_apart
    ]
    wrong += [
        f"({p:g}, {r:g}) listed apart but agrees" for p, r in sorted(listed_apart - set(pairs))
    ]
    wrong += [
        f"({p:g}, {r:g}) {rep} refuses"
        for rep, p, r in report.refused if (rep, p, r) not in listed_refused
    ]
    wrong += [
        f"({p:g}, {r:g}) {rep} listed as refusing but answers"
        for rep, p, r in sorted(listed_refused - set(report.refused))
    ]
    return CheckResult(
        f"rows within their error bars: {report.space.value} {report.kind} n={report.n}",
        not wrong,
        float(len(wrong)),
        0.0,
        "; ".join(wrong),
    )


def _suite_representations() -> list:
    checks = [
        _grid_check(_grid_report(space, kind, n))
        for space in Space
        for kind in KINDS
        for n in _GRID_NS
    ]
    # contour deformation: moving the abscissa must stay inside error bars
    for space, make in (
        (Space.EUCLIDEAN, lambda s: euclid.heat_gruet(3, 0.8, 1.5, sigma=s, tol=1e-10)),
        (Space.SPHERE, lambda s: sphere.heat_gruet(2, 0.8, 1.5, sigma=s, tol=1e-10)),
        (Space.HYPERBOLIC, lambda s: hyperbolic.heat_gruet(3, 0.8, 1.5, sigma=s, tol=1e-10)),
    ):
        base_sigma = 0.8
        res_a = make(base_sigma)
        res_b = make(1.5 * base_sigma)
        gap = abs(res_a.value - res_b.value)
        allowed = res_a.err_estimate + res_b.err_estimate + 1e-13 * abs(res_a.value)
        checks.append(
            _within(f"contour deformation: {space.value}", gap, allowed,
                    f"values {res_a.value:.12e} / {res_b.value:.12e}")
        )
    return checks


def _suite_pde() -> list:
    checks = []
    pts = ((0.7, 0.9), (2.0, 1.7))
    for space in Space:
        for n in (1, 2, 3):
            for kind in ("heat", "poisson"):
                worst = 0.0
                for param, r in pts:
                    if kind == "poisson" and space is Space.HYPERBOLIC and param >= math.pi:
                        continue
                    worst = max(worst, pde_residual(space, n, kind, param, r))
                name = f"pde residual: {space.value} {kind} n={n}"
                checks.append(_within(name, worst, _PDE_RESIDUAL))
    return checks


def _suite_mass() -> list:
    tol, t, y = 1e-10, 0.7, 0.9

    def heat(space: Space, n: int, want: float, convention: str = "paper") -> CheckResult:
        label = space.value if convention == "paper" else f"{space.value} {convention}"
        got = heat_mass(space, n, t, convention=convention, tol=tol)
        return _exact(f"heat mass: {label} n={n}", got, want, tol)

    def poisson(space: Space, n: int, want: float) -> CheckResult:
        got = poisson_mass(space, n, y, tol=tol)
        return _exact(f"poisson mass: {space.value} n={n}", got, want, tol)

    checks = [heat(Space.EUCLIDEAN, n, 1.0) for n in (1, 2, 3, 4)]
    checks += [heat(Space.SPHERE, n, math.exp(-0.25 * (n - 1) ** 2 * t)) for n in (1, 2, 3)]
    checks += [heat(Space.HYPERBOLIC, 3, math.exp(t)), heat(Space.HYPERBOLIC, 3, 1.0, "markovian")]
    fit = fit_spectral_shift(Space.HYPERBOLIC, 3)
    checks.append(
        _within("fitted shift: hyperbolic n=3", abs(fit.shift - 1.0), _SHIFT_FIT,
                f"intercept {fit.intercept:.2e}")
    )
    fit = fit_spectral_shift(Space.SPHERE, 2)
    checks.append(_within("fitted shift: sphere n=2", abs(fit.shift + 0.25), _SHIFT_FIT))
    checks += [poisson(Space.EUCLIDEAN, n, 1.0) for n in (1, 2, 3)]
    checks += [poisson(Space.SPHERE, n, math.exp(-0.5 * y * (n - 1))) for n in (1, 2, 3)]
    checks.append(poisson(Space.HYPERBOLIC, 1, (math.pi - y) / math.pi))
    return checks


def _suite_subordination() -> list:
    checks = []
    for n in (1, 2, 3):
        for y, r in ((0.8, 0.5), (1.5, 2.0)):
            got = _euclid_subordinate(n, y, r, 1e-10)
            name = f"subordination closes: euclidean n={n} ({y:g}, {r:g})"
            checks.append(_exact(name, got, euclid.poisson_closed(n, y, r), 1e-10))
    sweep = subordination_sweep(Space.SPHERE, 2, tol=1e-9)
    best = sweep.best
    checks.append(
        CheckResult(
            "subordination sweep: sphere n=2 best is (paper, 0)",
            (best.convention, best.extra_shift) == ("paper", 0.0)
            and best.mismatch <= _SWEEP_MISMATCH,
            best.mismatch,
            _SWEEP_MISMATCH,
            f"best ({best.convention}, {best.extra_shift})",
        )
    )
    for y, r in ((0.8, 0.5), (1.8, 1.5)):
        got = poisson_images(3, y, r, 1e-9)
        name = f"poisson images close: hyperbolic n=3 ({y:g}, {r:g})"
        checks.append(_exact(name, got, hyperbolic.poisson_closed(3, y, r), 1e-9))
    return checks


def _suite_semigroup() -> list:
    checks = []
    for space, n, tol in (
        (Space.EUCLIDEAN, 1, 1e-9),
        (Space.EUCLIDEAN, 3, 1e-9),
        (Space.HYPERBOLIC, 3, 1e-7),
    ):
        res = semigroup_check(space, n, 0.5, 0.9, 1.1, tol=tol)
        bar = _bar(res.convolution, res.err, tol) + _bar(res.direct, res.direct_err, tol)
        gap = abs(res.convolution - res.direct)
        checks.append(_within(f"semigroup: {space.value} n={n}", gap, bar, scale=res.direct))
    return checks


def run_suite(suite: str) -> SuiteReport:
    """Run one named validation suite (or "all") and report check results.

    Every check with an error bar passes when its value lies within it:
    against an exact value, |got - want| <= max(err, tol |want|); between
    two computed values (the cross-row grid, the semigroup), |a - b| <=
    max(err_a, tol |a|) + max(err_b, tol |b|).  Such a check reports the gap
    as its value and the bar as its threshold, both relative to the exact or
    direct value; the cross-row grid's checks are judged against the
    known-bad table (see :func:`_grid_check`).  The three checks without a
    bar compare with named constants: the pde residual (``_PDE_RESIDUAL``),
    the fitted shift (``_SHIFT_FIT``) and the sweep's best mismatch
    (``_SWEEP_MISMATCH``).
    """
    runners = {
        "representations": _suite_representations,
        "pde": _suite_pde,
        "mass": _suite_mass,
        "subordination": _suite_subordination,
        "semigroup": _suite_semigroup,
    }
    if suite != "all" and suite not in runners:
        raise DomainError(f"suite must be one of {SUITES + ('all',)}, got {suite!r}")
    names = list(runners) if suite == "all" else [suite]
    start = time.perf_counter()
    checks = []
    for name in names:
        checks.extend(runners[name]())
    return SuiteReport(suite, checks, time.perf_counter() - start)
