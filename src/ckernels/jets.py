"""Truncated Taylor jets and the dimension-raising derivative operator.

A :class:`Jet` stores the coefficients (c_0, ..., c_K) of a polynomial
c_0 + c_1 h + ... + c_K h^K approximating f(center + h).  All arithmetic and
elementary functions propagate these coefficients exactly (in floating point)
through O(K^2) recurrences, so K nested derivatives of any composite
expression cost one jet evaluation instead of K finite-difference stencils.

The raising operator

    D f = -(1 / (2 pi w(r))) df/dr

maps the radial kernel in dimension n to the kernel in dimension n + 2 on
every model space.  :func:`raise_operator` iterates it k times against a
generator that can produce jets of the base kernel at any requested order;
each application consumes one derivative order, which is why generators take
an explicit order argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import DomainError, SingularPointError
from .geometry import Space

MAX_ORDER = 16

Scalar = Union[int, float]

# A radial generator maps (center, order) to a jet of that order at the
# given centre.  Kernel base cases are provided in this form so the raising
# operator can request exactly the derivative depth it needs.
RadialGenerator = Callable[[float, int], "Jet"]


def _check_order(order: int) -> None:
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise DomainError(f"jet order must be a nonnegative integer, got {order}")
    if order > MAX_ORDER:
        raise DomainError(f"jet order {order} exceeds the cap of {MAX_ORDER}")


@dataclass(frozen=True)
class Jet:
    """Taylor coefficients of a function about a fixed centre."""

    center: float
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("jet coefficients must form a nonempty 1-d array")
        _check_order(arr.size - 1)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "center", float(self.center))

    # -- basic structure ---------------------------------------------------

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    @property
    def value(self) -> float:
        return float(self.coeffs[0])

    def derivative(self, k: int) -> float:
        """The k-th derivative of the underlying function at the centre."""
        if k > self.order:
            raise DomainError(f"jet of order {self.order} has no derivative {k}")
        return float(self.coeffs[k]) * math.factorial(k)

    def truncate(self, order: int) -> "Jet":
        _check_order(order)
        if order >= self.order:
            return self
        return Jet(self.center, self.coeffs[: order + 1])

    def __call__(self, h: float) -> float:
        """Evaluate the truncated polynomial at centre + h."""
        return float(np.polynomial.polynomial.polyval(h, self.coeffs))

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "Jet":
        # Scalars lift to constant jets of matching order; combining two
        # genuine jets truncates to the shorter one (the honest order).
        if isinstance(other, Jet):
            if other.center != self.center:
                raise DomainError("jets must share a centre to combine")
            return other
        return constant(float(other), self.order, self.center)

    @staticmethod
    def _aligned(a: "Jet", b: "Jet") -> int:
        return min(a.order, b.order)

    def __add__(self, other) -> "Jet":
        other = self._coerce(other)
        k = self._aligned(self, other)
        out = self.coeffs[: k + 1] + other.coeffs[: k + 1]
        return Jet(self.center, out)

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return Jet(self.center, -self.coeffs)

    def __sub__(self, other) -> "Jet":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Jet":
        return (-self) + other

    def __mul__(self, other) -> "Jet":
        other = self._coerce(other)
        k = self._aligned(self, other)
        full = np.convolve(self.coeffs[: k + 1], other.coeffs[: k + 1])
        return Jet(self.center, full[: k + 1])

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        other = self._coerce(other)
        k = self._aligned(self, other)
        a = self.coeffs[: k + 1]
        b = other.coeffs[: k + 1]
        if b[0] == 0.0:
            raise DomainError("division by a jet with vanishing value")
        out = np.empty(k + 1)
        for i in range(k + 1):
            out[i] = (a[i] - np.dot(b[1 : i + 1], out[i - 1 :: -1][:i])) / b[0]
        return Jet(self.center, out)

    def __rtruediv__(self, other) -> "Jet":
        return self._coerce(other) / self

    def __pow__(self, exponent):
        if isinstance(exponent, (int, np.integer)):
            if exponent < 0:
                return 1.0 / (self ** (-exponent))
            result = constant(1.0, self.order, self.center)
            base = self
            e = int(exponent)
            while e:
                if e & 1:
                    result = result * base
                base = base * base
                e >>= 1
            return result
        return self.power(float(exponent))

    # -- calculus ----------------------------------------------------------

    def deriv(self) -> "Jet":
        """Jet of f', one order shorter."""
        if self.order == 0:
            raise DomainError("cannot differentiate an order-0 jet")
        k = np.arange(1, self.order + 1, dtype=float)
        return Jet(self.center, self.coeffs[1:] * k)

    def antideriv(self, value_at_center: float = 0.0) -> "Jet":
        """Jet of the antiderivative taking the given value at the centre."""
        k = np.arange(1, self.order + 2, dtype=float)
        out = np.concatenate(([float(value_at_center)], self.coeffs / k))
        return Jet(self.center, out)

    # -- elementary functions ---------------------------------------------

    def exp(self) -> "Jet":
        g = self.coeffs
        out = np.empty_like(g)
        out[0] = math.exp(g[0])
        for k in range(1, g.size):
            j = np.arange(1, k + 1, dtype=float)
            out[k] = np.dot(j * g[1 : k + 1], out[k - 1 :: -1][:k]) / k
        return Jet(self.center, out)

    def log(self) -> "Jet":
        if self.coeffs[0] <= 0.0:
            raise DomainError("log requires a positive jet value")
        if self.order == 0:
            return Jet(self.center, [math.log(self.coeffs[0])])
        body = self.deriv() / self.truncate(self.order - 1)
        return body.antideriv(math.log(self.coeffs[0]))

    def _circular(self, hyperbolic: bool) -> tuple["Jet", "Jet"]:
        g = self.coeffs
        s = np.empty_like(g)
        c = np.empty_like(g)
        if hyperbolic:
            s[0], c[0] = math.sinh(g[0]), math.cosh(g[0])
            sign = 1.0
        else:
            s[0], c[0] = math.sin(g[0]), math.cos(g[0])
            sign = -1.0
        for k in range(1, g.size):
            j = np.arange(1, k + 1, dtype=float)
            dg = j * g[1 : k + 1]
            s[k] = np.dot(dg, c[k - 1 :: -1][:k]) / k
            c[k] = sign * np.dot(dg, s[k - 1 :: -1][:k]) / k
        return Jet(self.center, s), Jet(self.center, c)

    def sin(self) -> "Jet":
        return self._circular(False)[0]

    def cos(self) -> "Jet":
        return self._circular(False)[1]

    def sinh(self) -> "Jet":
        return self._circular(True)[0]

    def cosh(self) -> "Jet":
        return self._circular(True)[1]

    def sqrt(self) -> "Jet":
        if self.coeffs[0] <= 0.0:
            raise DomainError("sqrt requires a positive jet value")
        g = self.coeffs
        out = np.empty_like(g)
        out[0] = math.sqrt(g[0])
        for k in range(1, g.size):
            conv = np.dot(out[1:k], out[k - 1 : 0 : -1]) if k >= 2 else 0.0
            out[k] = (g[k] - conv) / (2.0 * out[0])
        return Jet(self.center, out)

    def power(self, alpha: float) -> "Jet":
        """Jet of f^alpha for real alpha; requires a positive jet value."""
        if self.coeffs[0] <= 0.0:
            raise DomainError("power requires a positive jet value")
        g = self.coeffs
        out = np.empty_like(g)
        out[0] = self.coeffs[0] ** alpha
        for k in range(1, g.size):
            j = np.arange(1, k + 1, dtype=float)
            weights = (alpha + 1.0) * j - k
            out[k] = np.dot(weights * g[1 : k + 1], out[k - 1 :: -1][:k]) / (
                k * g[0]
            )
        return Jet(self.center, out)

    def arcsin(self) -> "Jet":
        if not -1.0 < self.coeffs[0] < 1.0:
            raise DomainError("arcsin requires a jet value in (-1, 1)")
        if self.order == 0:
            return Jet(self.center, [math.asin(self.coeffs[0])])
        short = self.truncate(self.order - 1)
        body = self.deriv() / (1.0 - short * short).sqrt()
        return body.antideriv(math.asin(self.coeffs[0]))

    def arccosh(self) -> "Jet":
        if self.coeffs[0] <= 1.0:
            raise DomainError("arccosh requires a jet value above 1")
        if self.order == 0:
            return Jet(self.center, [math.acosh(self.coeffs[0])])
        short = self.truncate(self.order - 1)
        body = self.deriv() / (short * short - 1.0).sqrt()
        return body.antideriv(math.acosh(self.coeffs[0]))


def variable(center: float, order: int) -> Jet:
    """The identity function r as a jet about ``center``."""
    _check_order(order)
    coeffs = np.zeros(order + 1)
    coeffs[0] = center
    if order >= 1:
        coeffs[1] = 1.0
    return Jet(center, coeffs)


def constant(value: float, order: int, center: float = 0.0) -> Jet:
    _check_order(order)
    coeffs = np.zeros(order + 1)
    coeffs[0] = value
    return Jet(center, coeffs)


def gauss_jet(t: float, n: int = 1) -> RadialGenerator:
    """Jets of the flat n-d heat kernel (4 pi t)^(-n/2) exp(-r^2/4t)."""
    amp = (4.0 * math.pi * t) ** (-0.5 * n)

    def gen(center: float, order: int) -> Jet:
        x = variable(center, order)
        return (x * x * (-0.25 / t)).exp() * amp

    return gen


def weight_jet(space: Space, center: float, order: int) -> Jet:
    """Jet of the metric weight w(r) about ``center``."""
    x = variable(center, order)
    if space is Space.EUCLIDEAN:
        return x
    if space is Space.SPHERE:
        return x.sin()
    return x.sinh()


def _shifted_div(num: Jet, den: Jet) -> Jet:
    """num/den when both vanish at the centre and the quotient is regular.

    Cancels one power of h from each side; requires the leading coefficients
    to be exactly zero, which holds for even kernels expanded about r = 0
    because the jet recurrences preserve exact parity.
    """
    if num.coeffs[0] != 0.0 or den.coeffs[0] != 0.0:
        raise DomainError("shifted division needs both jets to vanish at the centre")
    if num.order < 1 or den.order < 1:
        raise DomainError("shifted division needs jets of order >= 1")
    return Jet(num.center, num.coeffs[1:]) / Jet(den.center, den.coeffs[1:])


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


def _raise_k(space: Space, jet: Jet, k: int, center: float, divide=Jet.__truediv__) -> Jet:
    """Apply D = -(2 pi w)^(-1) d/dr k times to a jet about ``center``.

    ``divide`` takes the quotient by the weight jet: plain division away from
    the origin (one order per application), :func:`_shifted_div` at it (two).
    """
    for _ in range(k):
        d = jet.deriv()
        w = weight_jet(space, center, d.order)
        jet = divide(d, w) * (-1.0 / (2.0 * math.pi))
    return jet


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
    return _raise_k(space, _generate(generator, r, k + order), k, r)


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
    coeffs[1::2] = 0.0
    return _raise_k(space, Jet(0.0, coeffs), k, 0.0, _shifted_div)


def raise_operator(space: Space, generator: RadialGenerator, k: int, r: float) -> float:
    """Apply the dimension-raising operator k times and evaluate at r.

    ``generator(center, order)`` must return a jet of the base kernel with at
    least the requested order.  Each application of D consumes one derivative
    order (two at r = 0, where the division by w is resolved by parity), so
    the call requests an order-k (or order-2k) jet; that many orders may not
    exceed :data:`MAX_ORDER`.

    At r = 0 the quotient -f'/(2 pi w) is evaluated exactly through the even
    symmetry of the base kernel.  On the sphere the antipode has no such
    symmetry rescue and is refused.
    """
    _check_raise_count(k)
    space.validate_distance(r)
    if k == 0:
        return generator(r, 0).value
    if space is Space.SPHERE and math.pi - r < 1e-9:
        raise SingularPointError("raising is singular at the antipode")
    if r == 0.0:
        return raise_origin_jet(space, generator, k).value
    return _raise_k(space, _generate(generator, r, k), k, r).value
