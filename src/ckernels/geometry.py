"""Model geometries and their radial Laplace operators.

The three simply connected constant-curvature spaces share one radial
structure: writing w(r) for the metric weight (the radius of the geodesic
sphere at distance r), the Laplacian of a radial function u(r) in dimension n
is

    A_n u = u'' + (n - 1) (w'/w) u',

with w(r) = r on Euclidean space, sin r on the unit sphere and sinh r on
hyperbolic space.  Everything else in the package (raising operators, descent
integrals, surface measures) is phrased in terms of w, so this module is the
single source of truth for it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError, SingularPointError


class Space(enum.Enum):
    """The three constant-curvature model spaces."""

    EUCLIDEAN = "euclidean"
    SPHERE = "sphere"
    HYPERBOLIC = "hyperbolic"

    @property
    def curvature(self) -> int:
        """Sectional curvature sign: 0, +1 or -1."""
        if self is Space.EUCLIDEAN:
            return 0
        return 1 if self is Space.SPHERE else -1

    @property
    def distance_sup(self) -> float:
        """Supremum of geodesic distance (pi on the sphere, else infinity)."""
        return math.pi if self is Space.SPHERE else math.inf

    def weight(self, r: float) -> float:
        """Metric weight w(r)."""
        if self is Space.EUCLIDEAN:
            return r
        if self is Space.SPHERE:
            return math.sin(r)
        return math.sinh(r)

    def weight_deriv(self, r: float) -> float:
        """w'(r)."""
        if self is Space.EUCLIDEAN:
            return 1.0
        if self is Space.SPHERE:
            return math.cos(r)
        return math.cosh(r)

    def validate_distance(self, r: float, *, strict: bool = False) -> None:
        """Check that r is an admissible geodesic distance.

        The rule is the distance rule of :func:`check_query` (the other
        arguments here are valid placeholders).  With ``strict`` the
        endpoints of the distance range are rejected as well (needed wherever
        w(r) appears in a denominator).
        """
        check_query(self, 1, "heat", 1.0, r)
        if strict:
            if r == 0.0:
                raise SingularPointError("operation is singular at distance 0")
            if self is Space.SPHERE and r == math.pi:
                raise SingularPointError("operation is singular at the antipode")


# check_query runs once per kernel value, inside integrands too, so its rules
# are written inline against module constants: reading an enum member costs
# about as much as the whole check, and a nested call more than a third.
_SPHERE = Space.SPHERE
_HYPERBOLIC = Space.HYPERBOLIC
_PI = math.pi
_INF = math.inf

KINDS = ("heat", "poisson")


def check_query(space: Space, n: int, kind: str, param: float, r: float) -> None:
    """Raise DomainError unless the kernel query lies in its domain.

    The domain: n a positive integer; kind "heat" or "poisson"; the time or
    height ``param`` positive and finite, and a hyperbolic Poisson height
    below pi (the strip kernel); the distance r finite and nonnegative, at
    most pi on the sphere.  Every public route, :class:`KernelQuery` and the
    analysis entry points check their input here.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"dimension must be a positive integer, got {n}")
    if kind != "heat" and kind != "poisson":
        raise DomainError(f"kind must be one of {KINDS}, got {kind!r}")
    if not 0.0 < param < _INF:
        name = "time" if kind == "heat" else "height"
        raise DomainError(f"{name} must be positive and finite, got {param}")
    if param >= _PI and space is _HYPERBOLIC and kind == "poisson":
        raise DomainError(f"hyperbolic Poisson height must lie in (0, pi), got {param}")
    if not 0.0 <= r < _INF:
        raise DomainError(f"distance must be nonnegative and finite, got {r}")
    if r > _PI and space is _SPHERE:
        raise DomainError(f"sphere distance must lie in [0, pi], got {r}")


def check_dim(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"dimension must be a positive integer, got {n}")


def check_positive(name: str, x: float) -> None:
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"{name} must be positive and finite, got {x}")


def check_tol(tol: float) -> None:
    if not 0.0 < tol < 1.0:
        raise DomainError(f"tolerance must lie in (0, 1), got {tol}")


CONVENTIONS = ("paper", "markovian")


def check_convention(convention: str) -> None:
    if convention != "paper" and convention != "markovian":
        raise DomainError(f"convention must be one of {CONVENTIONS}, got {convention!r}")


def spectral_shift(space: Space, n: int) -> float:
    """The shift lambda with d/dt u = (A_n + lambda) u for this package."""
    if space is Space.EUCLIDEAN:
        return 0.0
    shift = 0.25 * (n - 1) ** 2
    return -shift if space is Space.SPHERE else shift


def convention_exponent(space: Space, convention: str, n: int, t: float) -> float:
    """Log of the multiplier taking the "paper"-convention heat kernel to the
    requested one.  The "markovian" kernel drops the spectral shift, so it is
    -spectral_shift * t: 0 on Euclidean space, (n-1)^2 t/4 on the sphere and
    -(n-1)^2 t/4 on hyperbolic space.  On the sphere the factor overflows
    past 709 while the kernel underflows, so ``sphere.heat_spectral`` adds
    this to its own exponent.
    """
    if convention == "markovian":
        return -spectral_shift(space, n) * t
    check_convention(convention)
    return 0.0


def convention_factor(space: Space, convention: str, n: int, t: float) -> float:
    """The multiplier exp(:func:`convention_exponent`)."""
    return math.exp(convention_exponent(space, convention, n, t))


def space_from_name(name: str) -> Space:
    """Parse a space name; accepts the enum values and common aliases."""
    key = name.strip().lower()
    aliases = {
        "euclidean": Space.EUCLIDEAN,
        "euclid": Space.EUCLIDEAN,
        "flat": Space.EUCLIDEAN,
        "rn": Space.EUCLIDEAN,
        "sphere": Space.SPHERE,
        "spherical": Space.SPHERE,
        "sn": Space.SPHERE,
        "hyperbolic": Space.HYPERBOLIC,
        "hyp": Space.HYPERBOLIC,
        "hn": Space.HYPERBOLIC,
    }
    try:
        return aliases[key]
    except KeyError:
        raise DomainError(f"unknown space {name!r}") from None


def sphere_surface_coeff(n: int) -> float:
    """Surface measure of the unit (n-1)-sphere, 2 pi^(n/2) / Gamma(n/2).

    This is the constant in the radial volume element
    dV = sphere_surface_coeff(n) * w(r)^(n-1) dr.  For n = 1 it equals 2,
    counting the two endpoints of an interval.
    """
    check_dim(n)
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def radial_laplacian(space: Space, n: int, u):
    """Apply A_n = d^2/dr^2 + (n-1)(w'/w) d/dr to a jet u.

    ``u`` must support ``deriv()`` and carry at least two derivative orders;
    the result is a jet two orders shorter.  The operator is singular where
    w vanishes, so the jet centre must avoid r = 0 (and the antipode on the
    sphere).
    """
    check_dim(n)
    if u.order < 2:
        raise DomainError("radial_laplacian needs a jet of order >= 2")
    space.validate_distance(u.center, strict=True)
    du = u.deriv()
    d2u = du.deriv()
    if n == 1:
        return d2u
    from .jets import weight_jet

    w = weight_jet(space, u.center, d2u.order + 1)
    ratio = w.deriv() / w
    return d2u + (n - 1) * (ratio * du)


@dataclass(frozen=True)
class KernelQuery:
    """A single kernel evaluation request.

    ``param`` is the time t for heat kernels and the height y for Poisson
    kernels; ``r`` is geodesic distance.  Validation happens on construction
    so downstream code can assume a well-posed query.
    """

    space: Space
    n: int
    kind: str
    param: float
    r: float

    def __post_init__(self):
        check_query(self.space, self.n, self.kind, self.param, self.r)
