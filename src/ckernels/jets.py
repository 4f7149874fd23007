"""Truncated Taylor jets and the dimension-raising derivative operator.

A :class:`Jet` stores the coefficients (c_0, ..., c_K) of a polynomial
c_0 + c_1 h + ... + c_K h^K approximating f(center + h).  The generators
below write them by recurrences or in closed form, and the raise applies
D to them exactly (in floating point), so K nested derivatives cost one jet
instead of K finite-difference stencils.  A jet may also carry a batch of m
coefficient rows, one a node of a quadrature sweep, which the raise reads.
The few operations on single jets (sum, product, quotient, real power,
derivative and antiderivative) serve the radial Laplacian, the lowering of
:func:`_lower_jet` and the Poisson bases.

The raising operator

    D f = -(1 / (2 pi w(r))) df/dr

maps the radial kernel in dimension n to the kernel in dimension n + 2 on
every model space.  :func:`raise_operator` iterates it k times against a
generator that can produce jets of the base kernel at any requested order;
each application consumes one derivative order, which is why generators take
an explicit order argument.  The k steps run on the generator's coefficients
against one weight row: on Python floats for one jet about one centre, where
a numpy call on a row of at most 33 floats costs more than its arithmetic,
and on numpy rows for a batch.  :func:`raise_kernel` adds an error bound and,
near the zeros of w, sums the raised kernel's Taylor series there
(:func:`pole_series`): D is linear, so those coefficients are one cached
matrix, built by the steps of :func:`raise_origin_jet`, times the
generator's.  One jet's series runs on Python floats too, with no numpy
call; a batch's on numpy rows.

The closed generators write their Taylor coefficients directly, on Python
floats for a single jet, and wrap only the result in a Jet.  The Gaussian
exp(-u (c + h)^2), u = 1/4t, obeys f' = -2u (c + h) f, so

    (j + 1) a_(j+1) = -2uc a_j - 2u a_(j-1)

(:func:`gauss_jet`; a node array of times or of image centres runs it on
numpy rows).  The half-plane Poisson kernel obeys
(y^2 + (c + h)^2) f' = -2 (c + h) f, the Chebyshev-U recurrence
(y^2 + c^2) a_(j+1) = -2c a_j - a_(j-1).  The sphere and hyperbolic
Poisson bases are closed forms whose derivatives cycle with period 4
(cos) and 2 (cosh), raised to a real power by :meth:`Jet.power`, as is the
flat base (c + h)^2 + y^2; the power skips the exact zeros of its row (the
odd terms of a base at the pole, the tail of the flat one).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, SingularPointError
from .geometry import Space
from .quadrature import DEFAULT_TOL, QuadResult

# one cap for every jet: the pole series of n = 15 takes 2k = 14 orders and 16 more
MAX_ORDER = 32

# raising within this distance of a zero of the weight, r = 0 and on the
# sphere also phi = pi, takes the pole's Taylor series (see pole_series), and
# out to SERIES_REACH where the series meets tol: the direct raise can cancel
# there, and at 0.1 the series' order for tol 1e-10 fits MAX_ORDER to n = 15
POLE_REACH = 1e-2
SERIES_REACH = 0.1
_EPS = float(np.finfo(float).eps)

# A radial generator maps (center, order) to a jet of that order at the
# given centre.  Kernel base cases are provided in this form so the raising
# operator can request exactly the derivative depth it needs.
RadialGenerator = Callable[[float, int], "Jet"]


def _check_order(order: int) -> None:
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise DomainError(f"jet order must be a nonnegative integer, got {order}")
    if order > MAX_ORDER:
        raise DomainError(f"jet order {order} exceeds the cap of {MAX_ORDER}")


# -- coefficient rows: (K+1,) for one jet, (m, K+1) for a batch, one jet a row

_F64 = np.dtype(float)

# 0, 1, ..., MAX_ORDER + 1 as floats, the index weights of the recurrences
_IDX = np.arange(MAX_ORDER + 2, dtype=float)
# 1/j! for j <= MAX_ORDER, the Taylor weights of closed-form derivatives
_INV_FACTORIAL = [1.0 / math.factorial(j) for j in range(MAX_ORDER + 1)]


def _at(c0, single, batch):
    """single(c0) (a math function) for a float, batch(c0) for a node array."""
    return batch(c0) if isinstance(c0, np.ndarray) else single(c0)


def _refuse(bad: np.ndarray, message: str) -> None:
    """Raise DomainError if ``bad`` holds at any node of a batch."""
    if bad.any():
        raise DomainError(message)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (m, k) arrays; a (1, k) one broadcasts."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _divide(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated series quotient a/b of coefficient rows of one length.

    Either side may be a batch; a single quotient runs the scalar loop.
    """
    if a.ndim == 2 or b.ndim == 2:
        a, b = np.atleast_2d(a, b)
        b0 = b[:, 0]
        _refuse(b0 == 0.0, "division by a jet with vanishing value")
        out = np.empty((max(len(a), len(b)), a.shape[1]))
        out[:, 0] = a[:, 0] / b0
        for i in range(1, a.shape[1]):
            out[:, i] = (a[:, i] - _rowdot(b[:, 1 : i + 1], out[:, i - 1 :: -1])) / b0
        return out
    n, b0 = a.size, b[0]
    if b0 == 0.0:
        raise DomainError("division by a jet with vanishing value")
    # out reversed, so that each dot product reads a contiguous slice
    out, rev = np.empty(n), np.empty(n)
    for i in range(n):
        out[i] = rev[n - 1 - i] = (a[i] - np.dot(b[1 : i + 1], rev[n - i :])) / b0
    return out


def _weight_row(space: Space, center: float, size: int) -> list:
    """The first ``size`` Taylor coefficients of the weight w(r) about one
    centre, as Python floats: those of r, or of sin r or sinh r.

    sin(x0 + h) and cos(x0 + h) have s_k = c_(k-1)/k and c_k = -s_(k-1)/k
    (sinh and cosh +s_(k-1)/k).  The general recurrence for sin and cos of
    a jet sums products with the jet's coefficients, which from k = 2 on
    turns a zero into +0.0 before the sign applies; the ``+ 0.0`` repeats
    that, so the row is the general recurrence's bit for bit.
    """
    if space is Space.EUCLIDEAN:
        return [center, 1.0, *[0.0] * (size - 2)][:size]
    if space is Space.SPHERE:
        sign, s0, c0 = -1.0, math.sin(center), math.cos(center)
    else:
        sign, s0, c0 = 1.0, math.sinh(center), math.cosh(center)
    s, c = [s0, c0], [c0, sign * s0]
    for k in range(2, size):
        s.append((c[k - 1] + 0.0) / k)
        c.append(sign * (s[k - 1] + 0.0) / k)
    return s[:size]


@dataclass(eq=False, slots=True)
class Jet:
    """Taylor coefficients of a function about a fixed centre.

    ``coeffs`` holds (c_0, ..., c_K) of a single jet, which the raise
    returns (:func:`raise_jet`, :func:`raise_origin_jet`) and which the
    radial Laplacian and :func:`_lower_jet` combine.  It may also hold an
    (m, K+1) array of rows that the raise reads: a batch of m jets about one
    centre (:func:`gauss_jet` of a node array of times, say), or one centre
    a row, ``center`` then being that node array.  Combining two jets,
    adding a scalar, ``power``, ``antideriv``, ``value``, ``derivative`` and
    evaluation take single jets only; a batch raises DomainError there.
    A single jet's rows take math.* leading values, so one that overflows
    raises OverflowError, as does a single raise whose result is not finite
    (:func:`raise_operator`); a batch's take numpy's, where an overflow
    gives inf.
    """

    center: float
    coeffs: np.ndarray

    # numpy defers to the reflected operators below, so a numpy scalar
    # times a jet is a jet, not an object array
    __array_ufunc__ = None

    def __post_init__(self):
        # the operations below build float64 arrays; other input is coerced
        c = self.coeffs
        if type(c) is not np.ndarray or c.dtype is not _F64 or c.ndim == 0:
            c = self.coeffs = np.atleast_1d(np.asarray(c, dtype=float))
            self.center = float(self.center)
        if c.ndim > 2 or c.shape[-1] == 0:
            raise DomainError("jet coefficients must form a nonempty (K+1,) or (m, K+1) array")
        if c.shape[-1] > MAX_ORDER + 1:
            raise DomainError(f"jet order {c.shape[-1] - 1} exceeds the cap of {MAX_ORDER}")

    # -- basic structure ---------------------------------------------------

    @property
    def order(self) -> int:
        return self.coeffs.shape[-1] - 1

    def _single(self) -> np.ndarray:
        if self.coeffs.ndim != 1:
            raise DomainError("a batch of jets has no single value")
        return self.coeffs

    @property
    def value(self) -> float:
        return float(self._single()[0])

    def derivative(self, k: int) -> float:
        """The k-th derivative of the underlying function at the centre."""
        _check_order(k)
        if k > self.order:
            raise DomainError(f"jet of order {self.order} has no derivative {k}")
        return float(self._single()[k]) * math.factorial(k)

    def __call__(self, h: float) -> float:
        """Evaluate the truncated polynomial at centre + h."""
        return float(np.polynomial.polynomial.polyval(h, self._single()))

    # -- ring operations ---------------------------------------------------
    # A scalar shifts the leading coefficient or scales every coefficient,
    # which gives what combining with a constant jet gives (the + 0.0 turns
    # -0.0 into 0.0, as that sum and product do); combining two jets
    # truncates to the shorter one (the honest order).

    def _paired(self, other: "Jet") -> tuple[np.ndarray, np.ndarray]:
        a, b = self._single(), other._single()
        if other.center != self.center:
            raise DomainError("jets must share a centre to combine")
        k = min(a.size, b.size)
        return a[:k], b[:k]

    def __add__(self, other) -> "Jet":
        if isinstance(other, Jet):
            a, b = self._paired(other)
            return Jet(self.center, a + b)
        out = self._single() + 0.0
        out[0] += float(other)
        return Jet(self.center, out)

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return Jet(self.center, -self.coeffs)

    def __mul__(self, other) -> "Jet":
        if isinstance(other, Jet):
            a, b = self._paired(other)
            return Jet(self.center, np.convolve(a, b)[: a.size])
        return Jet(self.center, self.coeffs * float(other) + 0.0)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        if isinstance(other, Jet):
            return Jet(self.center, _divide(*self._paired(other)))
        if other == 0.0:
            raise DomainError("division by a jet with vanishing value")
        return Jet(self.center, self.coeffs / float(other))

    # -- calculus ----------------------------------------------------------

    def deriv(self) -> "Jet":
        """Jet of f', one order shorter."""
        if self.order == 0:
            raise DomainError("cannot differentiate an order-0 jet")
        return Jet(self.center, self.coeffs[..., 1:] * _IDX[1 : self.order + 1])

    def antideriv(self, value_at_center: float = 0.0) -> "Jet":
        """Jet of the antiderivative taking the given value at the centre."""
        c = self._single()
        return Jet(self.center, np.concatenate(([value_at_center], c / _IDX[1 : c.size + 1])))

    def power(self, alpha: float) -> "Jet":
        """Jet of f^alpha for real alpha; requires a positive jet value.

        The recurrence runs on Python floats: K^2/2 products cost less than
        K numpy calls.  It skips the exact zeros of the row (the odd
        coefficients of an even base, the tail of a polynomial one): their
        products are exact zeros, which leave a sum that starts at +0.0
        unchanged, so the coefficients are those of the full recurrence bit
        for bit while they stay finite.
        """
        g = self._single().tolist()
        if g[0] <= 0.0:
            raise DomainError("power requires a positive jet value")
        a1, g0 = alpha + 1.0, g[0]
        out, live = [g0**alpha], []
        for k in range(1, len(g)):
            if g[k] != 0.0:
                live.append((k, a1 * k, g[k]))
            acc = 0.0
            for i, ai, gi in live:
                acc += (ai - k) * gi * out[k - i]
            out.append(acc / (k * g0))
        return Jet(self.center, np.array(out))


def _gauss_coeffs(u, c, amp, order: int) -> np.ndarray:
    """Taylor coefficients in h of amp exp(-u (c + h)^2), to ``order``, by
    the three-term recurrence of the module docstring: on Python floats, or
    on numpy rows for a node array of u (times) or of c (image centres),
    one row a node."""
    p, q = -2.0 * u * c, -2.0 * u
    a = [amp * _at(-u * c * c, math.exp, np.exp)]
    prev = 0.0
    for j in range(order):
        a.append((p * a[j] + q * prev) / (j + 1))
        prev = a[j]
    return np.stack(a, axis=-1) if isinstance(p, np.ndarray) else np.array(a)


def gauss_jet(t, n: int = 1) -> RadialGenerator:
    """Jets of the flat n-d heat kernel (4 pi t)^(-n/2) exp(-r^2/4t).

    A node array of times gives a batch of jets, one row a time; a node
    array of centres, one row a centre.
    """
    amp = (4.0 * math.pi * t) ** (-0.5 * n)
    u = 0.25 / t

    def gen(center: float, order: int) -> Jet:
        return Jet(center, _gauss_coeffs(u, center, amp, order))

    return gen


def weight_jet(space: Space, center, order: int) -> Jet:
    """Jet of the metric weight w(r) about ``center``.

    A node array of centres gives one row a centre, in closed form: the
    derivatives of sin and sinh cycle with period 4 and 2.
    """
    if isinstance(center, np.ndarray):
        if space is Space.EUCLIDEAN:
            rows = np.zeros(center.shape + (order + 1,))
            rows[:, 0] = center
            rows[:, 1:2] = 1.0
            return Jet(center, rows)
        if space is Space.SPHERE:
            sin, cos = np.sin(center), np.cos(center)
            cycle = (sin, cos, -sin, -cos)
        else:
            cycle = (np.sinh(center), np.cosh(center))
        rows = [cycle[j % len(cycle)] * _INV_FACTORIAL[j] for j in range(order + 1)]
        return Jet(center, np.stack(rows, axis=-1))
    _check_order(order)
    return Jet(center, np.array(_weight_row(space, float(center), order + 1)))


# the weight jets at r = 0, which every batch origin raise slices
_ORIGIN_WEIGHT = {space: weight_jet(space, 0.0, MAX_ORDER).coeffs for space in Space}


def _check_raise_count(k) -> None:
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise DomainError(f"raise count must be a nonnegative integer, got {k}")


def _generate(generator: RadialGenerator, center: float, order: int) -> Jet:
    """The generator's jet at ``center``, checked to carry ``order`` orders."""
    _check_order(order)
    jet = generator(center, int(order))
    if jet.order < order:
        raise DomainError(f"generator produced order {jet.order}, need at least {order}")
    return jet


_RAISE_SCALE = -1.0 / (2.0 * math.pi)


def _raise_k(space: Space, c: np.ndarray, k: int, center) -> np.ndarray:
    """Apply D = -(2 pi w)^(-1) d/dr k times to a jet's coefficients.

    The k steps run on coefficients against one weight row, written once at
    the order of the first derivative and sliced by each step.  One row
    about one centre runs on Python floats (:func:`_raise_row`); a batch, of
    rows about one centre or one centre a row (``center`` then being a node
    array of positive centres), runs on numpy rows.  Away from the origin a
    step consumes one order.  At ``center`` = 0 the weight vanishes, and so
    must the derivative of an even kernel: one power of h cancels from both
    before the division, so a step consumes two orders, and a derivative
    whose leading coefficient is not exactly 0 is refused.
    """
    if k == 0:
        return c
    lo = 0 if isinstance(center, np.ndarray) or center != 0.0 else 1
    if c.ndim == 1:
        return _raise_row(space, c.tolist(), k, float(center), lo)
    w = _ORIGIN_WEIGHT[space] if lo else weight_jet(space, center, c.shape[-1] - 2).coeffs
    for _ in range(k):
        n = c.shape[-1] - 1
        d = c[..., 1:] * _IDX[1 : n + 1]
        if lo:
            _refuse(d[..., 0] != 0.0, _ORIGIN_REFUSAL)
        c = _divide(d[..., lo:], w[..., lo:n]) * _RAISE_SCALE + 0.0
    return c


_ORIGIN_REFUSAL = "raising at r = 0 needs a derivative that vanishes there"


def _raise_row(space: Space, c: list, k: int, center: float, lo: int) -> np.ndarray:
    """The k steps of :func:`_raise_k` on one row of Python floats.

    A step takes d_j = (j + 1) c_(j+1), drops d_0 = 0 and w_0 at the origin
    (``lo`` = 1), and solves the series quotient by
    q_i = (d_i - sum_(j=1..i) w_j q_(i-j)) / w_0, the sum taken left to
    right, then scales by -1/(2 pi).  The weight row is written on floats
    too, so no numpy call runs until the result.  A result that is not
    finite raises OverflowError, as the math.* leading values of a single
    jet do.  Checking the result suffices: a non-finite coefficient makes
    the later ones of its step non-finite, and the last one of a step
    stays the last one of the next.
    """
    w = _weight_row(space, center, len(c) - 1)[lo:]
    w0, tail = w[0], w[1:]
    if w0 == 0.0:
        raise DomainError("division by a jet with vanishing value")
    for _ in range(k):
        if lo and c[1] != 0.0:
            raise DomainError(_ORIGIN_REFUSAL)
        q = []
        for i in range(lo + 1, len(c)):
            acc = 0.0
            for wj, qv in zip(tail, reversed(q)):
                acc += wj * qv
            q.append((i * c[i] - acc) / w0)
        c = [v * _RAISE_SCALE + 0.0 for v in q]
    if not all(map(math.isfinite, c)):
        raise OverflowError(f"raising {k} times at r = {center} overflows")
    return np.array(c)


def raise_jet(
    space: Space, generator: RadialGenerator, k: int, r: float, order: int
) -> Jet:
    """Jet of the k-times-raised kernel, keeping ``order`` derivative orders.

    Needs the centre strictly away from zeros of the weight; use
    :func:`raise_operator` for plain values (which also handles r = 0).
    """
    _check_raise_count(k)
    _check_order(order)
    space.validate_distance(r, strict=True)
    if space is Space.SPHERE and math.pi - r < 1e-9:
        raise SingularPointError("raising is singular at the antipode")
    jet = _generate(generator, r, k + order)
    return Jet(jet.center, _raise_k(space, jet.coeffs, k, r))


def raise_origin_jet(
    space: Space, generator: RadialGenerator, k: int, order: int = 0
) -> Jet:
    """Jet at r = 0 of the k-times-raised kernel, keeping ``order`` orders.

    Radial kernels are even in r, so the quotient -f'/(2 pi w) is regular at
    the origin; each application costs two derivative orders (one for d/dr,
    one cancelled against the simple zero of w).  The generator's odd
    coefficients, which are rounding noise for an even kernel, are projected
    away so the parity cancellation is exact.  The result stays accurate for
    evaluation well inside the kernel's radius of analyticity, which makes it
    the right substitute when an integrand needs the raised kernel at centres
    too close to 0 for direct raising.
    """
    _check_raise_count(k)
    _check_order(order)
    coeffs = _generate(generator, 0.0, 2 * k + order).coeffs.copy()
    coeffs[..., 1::2] = 0.0
    return Jet(0.0, _raise_k(space, coeffs, k, 0.0))


def _values(c: np.ndarray):
    """The value of a single jet as a float, or a batch's node array."""
    return c[:, 0] if c.ndim == 2 else float(c[0])


def raise_operator(
    space: Space, generator: RadialGenerator, k: int, r: float
) -> float | np.ndarray:
    """Apply the dimension-raising operator k times and evaluate at r.

    ``generator(center, order)`` must return a jet of the base kernel with at
    least the requested order.  Each application of D consumes one derivative
    order (two at r = 0, where the division by w is resolved by parity), so
    the call requests an order-k (or order-2k) jet; that many orders may not
    exceed :data:`MAX_ORDER`.  The result is a float; a generator that
    returns a batch of m jets (``gauss_jet`` of a node array of times, say)
    gets the array of the m raised values.

    At r = 0 the quotient -f'/(2 pi w) is evaluated exactly through the even
    symmetry of the base kernel.  The sphere's antipode is refused here;
    :func:`raise_kernel` evaluates there from the jet at pi.

    The k applications run on the coefficients of the generator's jet
    against one weight row (see ``_raise_k``); no jet is built per step.
    A single value that is not finite raises OverflowError.

    ``r`` may also be a node array of distances off the poles, for a
    generator that takes one (``gauss_jet``'s gives one row a centre): one
    call then raises at every node and returns the array of values.
    """
    _check_raise_count(k)
    if isinstance(r, np.ndarray):
        far = math.pi - 1e-9 if space is Space.SPHERE else math.inf
        _refuse(~((r > 0.0) & (r < far)), "raising at a node array needs nodes off the poles")
        return _values(_raise_k(space, _generate(generator, r, k).coeffs, k, r))
    space.validate_distance(r)
    if k == 0:
        return _values(generator(r, 0).coeffs)
    if space is Space.SPHERE and math.pi - r < 1e-9:
        raise SingularPointError("raising is singular at the antipode")
    if r == 0.0:
        return _values(raise_origin_jet(space, generator, k).coeffs)
    return _values(_raise_k(space, _generate(generator, r, k).coeffs, k, r))


def _lower_jet(space: Space, values, center: float) -> Jet:
    """The jet of order K about ``center`` of the kernel f whose raises f,
    Df, ..., D^K f take ``values`` there: raising undone.

    D f = -(2 pi w)^(-1) f' gives f' = -2 pi w Df, so from the constant jet
    of D^K f each step down is the antiderivative of -2 pi w times the jet
    above, taking the next value at the centre.
    """
    jet = Jet(center, [values[-1]])
    w = weight_jet(space, center, max(len(values) - 2, 0)) * (2.0 * math.pi)
    for value in values[-2::-1]:
        jet = (-(jet * w)).antideriv(value)
    return jet


@functools.cache
def _origin_map(space: Space, k: int, extra: int) -> tuple:
    """(M, |M|): k raises at r = 0 keeping ``extra`` orders, as the matrix
    from a jet's even coefficients to the raised jet's (D is linear).

    Built on first use by the origin steps of :func:`raise_origin_jet` on the
    even unit rows, building no jet; every caller shares the cached arrays,
    so they are read-only.
    """
    m = _raise_k(space, np.eye(2 * k + extra + 1)[::2], k, 0.0)[:, ::2].T
    mag = np.abs(m)
    m.flags.writeable = mag.flags.writeable = False
    return m, mag


@functools.cache
def _origin_rows(space: Space, k: int, extra: int) -> tuple:
    """:func:`_origin_map`'s (M, |M|) as lists of Python floats, one list a
    row, which the series of one jet reads.  A row stops at its last nonzero:
    term i takes the jet's coefficients to order 2(i + k) only, and what
    follows would add exact zeros."""
    m, mag = _origin_map(space, k, extra)
    ends = [int(np.flatnonzero(row)[-1]) + 1 for row in mag]
    return tuple([row[:end] for row, end in zip(a.tolist(), ends)] for a in (m, mag))


def _sum_at(terms, powers: list):
    """sum_j terms_j powers_j: one jet's terms, a list, on Python floats left
    to right; a batch's, one row of its jets' values a term, by one numpy
    product."""
    if isinstance(terms, list):
        return sum(map(operator.mul, terms, powers))
    return powers @ terms


def _pole_terms(
    space: Space, generator: RadialGenerator, k: int, pole: float, reach: float, tol: float,
    rounding: RadialGenerator | None = None,
) -> tuple:
    """:func:`pole_series`' b and e term by term, and the powers reach^(2j).

    One jet's terms are lists of Python floats, made with no numpy call: at
    most 17 of them, whose products cost less than numpy calls on them.  A
    batch's are numpy rows, one a term.  The two forms differ only in how
    they take M c and |M| s, and in :func:`_sum_at`; the choice of orders,
    the retry and the truncation term are one code for both.
    """
    cap = MAX_ORDER - 2 * k
    if reach > 0.0 and cap < 4:
        raise SingularPointError(f"{k} raises leave {cap} of {MAX_ORDER} jet orders for the pole")
    sign = -1.0 if pole and k % 2 else 1.0

    def series(extra: int) -> tuple:
        order = 2 * k + extra
        c = _generate(generator, pole, order).coeffs
        r = None if rounding is None else _generate(rounding, pole, order).coeffs
        grade = order * _EPS
        if c.ndim == 1:
            m, mag = _origin_rows(space, k, extra)
            c = c.tolist()[::2]
            s = [abs(v) for v in c] if r is None else [abs(v) + w for v, w in zip(c, r.tolist()[::2])]
            b = [sign * sum(map(operator.mul, row, c)) for row in m]
            e = [grade * sum(map(operator.mul, row, s)) for row in mag]
        else:
            m, mag = _origin_map(space, k, extra)
            c = c[..., ::2]
            s = np.abs(c) if r is None else np.abs(c) + r[..., ::2]
            b, e = (sign * (c @ m.T)).T, (grade * (s @ mag.T)).T
        if extra:  # the last two terms bound the truncation
            for j in (-2, -1):
                e[j] += abs(b[j])
        return b, e

    def powers(extra: int) -> list:
        return [reach ** (2.0 * j) for j in range(extra // 2 + 1)]

    if reach == 0.0:
        return (*series(0), powers(0))
    extra = cap
    if 2.0 * reach < 1.0:
        extra = min(max(4, 2 * math.ceil(0.5 * math.log(tol) / math.log(2.0 * reach)) + 2), cap)
    b, e = series(extra)
    p = powers(extra)
    if extra < cap:
        short = abs(b[-2]) * p[-2] + abs(b[-1]) * p[-1] > tol * abs(_sum_at(b, p))
        if short if isinstance(short, bool) else short.any():
            b, e = series(cap)
            p = powers(cap)
    return b, e, p


def pole_series(
    space: Space, generator: RadialGenerator, k: int, pole: float, reach: float, tol: float,
    rounding: RadialGenerator | None = None,
) -> tuple:
    """The k-raised kernel at distance h <= ``reach`` from ``pole`` (0, or pi
    on the sphere) is sum_j b_j h^2j within sum_j e_j h^2j: (b, e), one row
    a jet of a batch.

    With c the even coefficients of the generator's jet at the pole, of
    order 2k + K, and M the origin map (:func:`_origin_map`), b = M c, times
    (-1)^k at pi (sin(pi + h) = -sin h).  K is 0 at reach 0, all MAX_ORDER
    leaves at 2 reach >= 1, else the least even K >= 4 with
    (2 reach)^(K-2) <= tol, or all the leaves if that misses tol.  e is the
    last two terms plus the rounding (2k + K) eps |M| |c|, with |c| + r for
    |c| if a generator of rows r >= 0 is passed as ``rounding``: a sum that
    cancels rounds to eps r, not eps |c|.  The terms of one jet are summed
    on Python floats (:func:`_pole_terms`).
    """
    b, e, _ = _pole_terms(space, generator, k, pole, reach, tol, rounding)
    return np.asarray(b).T, np.asarray(e).T


def raise_kernel(
    space: Space, generator: RadialGenerator, k: int, r: float, tol: float = DEFAULT_TOL
) -> QuadResult:
    """The k-times-raised kernel at r with an error bound: within POLE_REACH
    of a pole the :func:`pole_series`, and out to SERIES_REACH too where its
    bound meets tol (node by node in a batch); elsewhere
    :func:`raise_operator` with err 0.  One jet's series, summed on Python
    floats, raises OverflowError where its value or bound is not finite."""
    _check_raise_count(k)
    pole = math.pi if space is Space.SPHERE and r > 0.5 * math.pi else 0.0
    h = abs(r - pole)
    if k and h < SERIES_REACH:
        b, e, powers = _pole_terms(space, generator, k, pole, h, tol)
        value, err = _sum_at(b, powers), _sum_at(e, powers)
        met = err <= tol * abs(value)
        if isinstance(value, float):
            if h < POLE_REACH or met:
                if not (math.isfinite(value) and math.isfinite(err)):
                    raise OverflowError(f"the pole series of {k} raises at r = {r} overflows")
                return QuadResult(value, err, 0)
        elif h < POLE_REACH or met.all():
            return QuadResult(value, err, 0)
        elif met.any():  # the series at the nodes where it meets tol
            direct = raise_operator(space, generator, k, r)
            return QuadResult(np.where(met, value, direct), np.where(met, err, 0.0), 0)
    return QuadResult(raise_operator(space, generator, k, r), 0.0, 0)


def _raised_at_nodes(
    space: Space, gen: RadialGenerator, k: int, tol: float, rounding: RadialGenerator | None = None
):
    """``kernel(s)``: the k-raised kernel at the nodes s of a sweep, and the
    series' bound there (0 at a direct node).  As in :func:`raise_kernel`, a
    :func:`pole_series` (with ``rounding``), formed once a node comes within
    SERIES_REACH of its pole (0, and pi on the sphere), serves the nodes
    within POLE_REACH and those out to SERIES_REACH where its bound meets
    tol; one :func:`raise_operator` on the node array raises at the others."""
    poles = (0.0, math.pi) if space is Space.SPHERE else (0.0,)
    series = {}

    def kernel(s: np.ndarray) -> tuple:
        out, err = np.empty_like(s), np.zeros_like(s)
        direct = np.ones(s.shape, dtype=bool)
        for pole in poles:
            h = np.abs(s - pole)
            near = h < SERIES_REACH
            if not near.any():
                continue
            if pole not in series:
                series[pole] = pole_series(space, gen, k, pole, SERIES_REACH, tol, rounding)
            b, e = series[pole]
            powers = np.power.outer(h[near] ** 2, np.arange(b.size))
            out[near], err[near] = value, bound = powers @ b, powers @ e
            direct[near] = (h[near] >= POLE_REACH) & ~(bound <= tol * np.abs(value))
        if direct.any():
            out[direct] = raise_operator(space, gen, k, s[direct])
            err[direct] = 0.0
        return out, err

    return kernel
