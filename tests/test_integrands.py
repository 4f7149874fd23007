"""The vectorized float integrands against their per-node math/cmath forms.

Each route hands its integrand to the quadrature with ``vectorized=True`` (the
contours always take arrays), so the integrand runs once per sweep on the
array of the sweep's nodes.  The reference integrands below are the per-node
``math``/``cmath`` closures the routes used before, kept verbatim: on a few
hundred nodes of each route the two agree to 1e-13 relative, and where the
per-node form raised OverflowError the vectorized one raises it too.
"""

import cmath
import math

import numpy as np
import pytest

from ckernels import euclid, hyperbolic, quadrature, sphere
from ckernels.errors import ContourError
from ckernels.quadrature import QuadResult, contour_spec, integrate_contour

RTOL = 1e-13
N_NODES = 240


# ---------------------------------------------------------------------------
# the per-node references


def ref_euclid_gruet(n, t, r):
    half = 0.5 * (n + 1)
    inv4t = 0.25 / t

    def f(y):
        yy = y * y
        return 2.0 * y * cmath.exp(yy * inv4t) / (r * r + yy) ** half

    return f


def ref_hyperbolic_gruet(n, t, rho):
    half = 0.5 * (n + 1)
    inv4t = 0.25 / t
    cosh_rho = math.cosh(rho)

    def f(y):
        return cmath.exp(y * y * inv4t) * cmath.sin(y) * (cosh_rho - cmath.cos(y)) ** (-half)

    return f


def ref_sphere_gruet(n, t, phi):
    half = 0.5 * (n + 1)
    inv4t = 0.25 / t
    even = n % 2 == 0
    cos_phi = math.cos(phi)

    def f(y):
        base = cmath.cosh(y) - cos_phi
        val = cmath.exp(y * y * inv4t) * cmath.sinh(y) * base ** (-half)
        if even:
            xi = -y.imag
            val *= -1.0 if int((xi / math.pi + 1.0) // 2.0) % 2 else 1.0
        return val

    return f


def ref_heat_classic(n, t, rho):
    half = 0.5 * (n + 1)
    inv4t = 0.25 / t
    cosh_rho = math.cosh(rho)
    pi_sq = math.pi * math.pi

    def f(xi):
        osc = math.sin(math.pi * xi / (2.0 * t))
        if xi < 350.0:
            return (
                math.exp((pi_sq - xi * xi) * inv4t)
                * math.sinh(xi)
                * osc
                / (cosh_rho + math.cosh(xi)) ** half
            )
        log_sinh = xi - math.log(2.0) + math.log1p(-math.exp(-2.0 * xi))
        log_den = xi - math.log(2.0) + math.log1p(
            (2.0 * cosh_rho + math.exp(-2.0 * xi)) * math.exp(-xi)
        )
        expo = (pi_sq - xi * xi) * inv4t + log_sinh - half * log_den
        if expo < -745.0:
            return 0.0
        return math.exp(expo) * osc

    return f


def ref_euclid_heat_descent(n, t, r):
    def f(s):
        return euclid.heat_closed(n + 1, t, s) * 2.0 * s / math.sqrt(s + r)

    return f


def ref_poisson_integral(n, y, r):
    c = r * r + y * y

    def f(w):
        return w**n * math.exp(-c * w * w)

    return f


def ref_euclid_poisson_descent(n, y, r):
    def f_regular(s):
        return euclid.poisson_closed(n + 1, y, s) * 2.0 * s / math.sqrt(s + r)

    def f_tail(s):
        return euclid.poisson_closed(n + 1, y, s) * 2.0 * s / math.sqrt(s * s - r * r)

    return f_regular, f_tail


def ref_hyperbolic_poisson_descent(n, y, rho):
    def f(s):
        d = s - rho
        ratio = 2.0 if d == 0.0 else d / math.sinh(0.5 * d)
        return (
            hyperbolic.poisson_closed(n + 1, y, s)
            * math.sinh(s)
            * math.sqrt(ratio / math.sinh(0.5 * (s + rho)))
        )

    return f


def ref_doubling(n, y, phi):
    """The (angle, half) integrands, on the direct base 2 cosh(y/2) - 2c."""
    half_y = 0.5 * y
    cosh_half = math.cosh(half_y)
    cos_half_phi = math.cos(0.5 * phi)
    half_m = n + 1.0
    amp_m = math.gamma(half_m) / math.pi**half_m * math.sinh(half_y)

    def kernel_at_cos(c):
        return amp_m / (2.0 * math.cosh(half_y) - 2.0 * c) ** half_m

    def f(theta):
        return cosh_half * kernel_at_cos(math.sin(theta) * cos_half_phi) * math.cos(theta) ** n

    def g(psi):
        ratio = math.cos(0.5 * psi) / cos_half_phi
        body = max(0.0, 1.0 - ratio * ratio)
        return (
            (cosh_half / cos_half_phi)
            * body ** (0.5 * (n - 1))
            * kernel_at_cos(math.cos(0.5 * psi))
            * math.sin(0.5 * psi)
        )

    return f, g


# ---------------------------------------------------------------------------
# capturing a route's integrands


@pytest.fixture
def capture(monkeypatch):
    """Replace the quadrature entry points of a module by recorders.

    ``capture(module)`` returns the list of (entry point, integrand, args,
    kwargs) that the routes of ``module`` hand to the quadrature; each
    recorder returns a unit result.
    """

    def install(module):
        calls = []
        for name in (
            "integrate_adaptive",
            "integrate_sqrt_endpoint",
            "integrate_to_infinity",
            "integrate_contour",
        ):
            if hasattr(module, name):

                def fake(f, *args, _name=name, **kwargs):
                    calls.append((_name, f, args, kwargs))
                    return QuadResult(1.0, 0.0, 0)

                monkeypatch.setattr(module, name, fake)
        return calls

    return install


def _nodes(lo, hi, seed=0):
    return np.sort(np.random.default_rng(seed).uniform(lo, hi, N_NODES))


def _vectorized(f, x):
    with np.errstate(all="ignore"):  # as the quadrature calls it
        return f(x)


def _assert_matches(f_vec, f_ref, x):
    got = _vectorized(f_vec, x)
    want = np.array([f_ref(u) for u in x])
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= RTOL * np.abs(want)), np.max(
        np.abs(got - want) / np.abs(want)
    )


def _single(calls, name):
    (call,) = [c for c in calls if c[0] == name]
    if name != "integrate_contour":
        assert call[3]["vectorized"] is True
    return call


# ---------------------------------------------------------------------------
# contours


@pytest.mark.parametrize(
    "module, ref, n, t, r",
    [
        (euclid, ref_euclid_gruet, 2, 0.8, 1.5),
        (euclid, ref_euclid_gruet, 7, 0.3, 0.0),
        (hyperbolic, ref_hyperbolic_gruet, 3, 0.8, 1.5),
        (hyperbolic, ref_hyperbolic_gruet, 6, 2.0, 0.4),
        (sphere, ref_sphere_gruet, 3, 0.7, 1.1),
        (sphere, ref_sphere_gruet, 4, 0.9, 1.0),
        (sphere, ref_sphere_gruet, 9, 0.88, 0.92),
    ],
)
def test_contour_integrands_match_per_node_forms(capture, module, ref, n, t, r):
    calls = capture(module)
    module.heat_gruet(n, t, r)
    _, f, (spec, *_), _ = _single(calls, "integrate_contour")
    xi = _nodes(0.0, spec.xi_max)
    _assert_matches(f, ref(n, t, r), spec.sigma - 1j * xi)


# ---------------------------------------------------------------------------
# real integrands


@pytest.mark.parametrize(
    "n, t, rho",
    [
        (3, 0.8, 1.5),
        (2, 0.3, 0.0),
        # nodes past xi = 350 take the log form
        (1, 200.0, 1.0),
        (2, 150.0, 3.0),
        (3, 300.0, 20.0),
    ],
)
def test_heat_classic_matches_per_node_form(capture, n, t, rho):
    calls = capture(hyperbolic)
    hyperbolic.heat_classic(n, t, rho)
    _, f, (a, b, *_), _ = _single(calls, "integrate_adaptive")
    xi = _nodes(a, b)
    if t > 100.0:
        assert np.any(xi >= 350.0) and np.any(xi < 350.0)
    _assert_matches(f, ref_heat_classic(n, t, rho), xi)


@pytest.mark.parametrize(
    "n, t, lo, hi",
    [
        # (cosh rho + cosh xi)^(5/2) overflows past xi ~ 284
        (4, 200.0, 290.0, 349.0),
        (4, 200.0, 1.0, 349.0),
        # exp(pi^2/4t) overflows at small xi
        (3, 0.001, 0.0, 2.0),
    ],
)
def test_heat_classic_overflows_where_the_per_node_form_does(capture, n, t, lo, hi):
    calls = capture(hyperbolic)
    hyperbolic.heat_classic(n, t, 1.0)
    f = _single(calls, "integrate_adaptive")[1]
    ref = ref_heat_classic(n, t, 1.0)
    xi = _nodes(lo, hi)
    with pytest.raises(OverflowError):
        [ref(u) for u in xi]
    with pytest.raises(OverflowError):
        _vectorized(f, xi)


@pytest.mark.parametrize("n, t, r", [(2, 0.8, 1.5), (5, 0.05, 0.0), (14, 3.0, 0.7)])
def test_euclid_heat_descent_matches_per_node_form(capture, n, t, r):
    calls = capture(euclid)
    euclid.heat_descent(n, t, r)
    _, f, (a, b, *_), _ = _single(calls, "integrate_sqrt_endpoint")
    _assert_matches(f, ref_euclid_heat_descent(n, t, r), _nodes(a, b))


@pytest.mark.parametrize("n, y, r", [(1, 0.9, 1.3), (4, 0.5, 2.2), (15, 2.0, 0.0)])
def test_poisson_integral_matches_per_node_form(capture, n, y, r):
    calls = capture(euclid)
    euclid.poisson_integral(n, y, r)
    _, f, (a, b, *_), _ = _single(calls, "integrate_adaptive")
    _assert_matches(f, ref_poisson_integral(n, y, r), _nodes(a, b))


@pytest.mark.parametrize("n, y, r", [(2, 0.9, 1.3), (3, 0.05, 0.0), (14, 2.0, 4.0)])
def test_euclid_poisson_descent_matches_per_node_forms(capture, n, y, r):
    calls = capture(euclid)
    euclid.poisson_descent(n, y, r)
    ref_regular, ref_tail = ref_euclid_poisson_descent(n, y, r)
    _, f_regular, (a, b, *_), _ = _single(calls, "integrate_sqrt_endpoint")
    _assert_matches(f_regular, ref_regular, _nodes(a, b))
    _, f_tail, (a, *_), kwargs = _single(calls, "integrate_to_infinity")
    _assert_matches(f_tail, ref_tail, a + kwargs["scale"] * _nodes(0.0, 200.0))


@pytest.mark.parametrize("n, y, rho", [(2, 0.9, 1.4), (5, 2.2, 0.0), (13, 0.3, 40.0)])
def test_hyperbolic_poisson_descent_matches_per_node_form(capture, n, y, rho):
    calls = capture(hyperbolic)
    hyperbolic.poisson_descent(n, y, rho)
    _, f, (a, b, *_), _ = _single(calls, "integrate_sqrt_endpoint")
    _assert_matches(f, ref_hyperbolic_poisson_descent(n, y, rho), _nodes(a, b))


def test_hyperbolic_poisson_descent_overflows_where_the_per_node_form_does(capture):
    # sinh s overflows past s ~ 710.5
    calls = capture(hyperbolic)
    hyperbolic.poisson_descent(3, 1.0, 705.0)
    _, f, (a, b, *_), _ = _single(calls, "integrate_sqrt_endpoint")
    ref = ref_hyperbolic_poisson_descent(3, 1.0, 705.0)
    xi = _nodes(711.0, b)
    with pytest.raises(OverflowError):
        [ref(u) for u in xi]
    with pytest.raises(OverflowError):
        _vectorized(f, xi)
    _assert_matches(f, ref, _nodes(a, 710.0))


@pytest.mark.parametrize(
    "n, y, phi", [(1, 0.8, 0.9), (2, 1.3, 2.1), (8, 5.0, 1.0), (15, 0.4, 0.3)]
)
def test_doubling_integrands_match_per_node_forms(capture, n, y, phi):
    calls = capture(sphere)
    ref_angle, ref_half = ref_doubling(n, y, phi)
    sphere.poisson_doubling(n, y, phi, variant="angle")
    _, f, (a, b, *_), _ = _single(calls, "integrate_adaptive")
    _assert_matches(f, ref_angle, _nodes(a, b))
    calls.clear()
    sphere.poisson_doubling(n, y, phi, variant="half")
    _, g, (a, b, *_), _ = _single(calls, "integrate_adaptive")
    _assert_matches(g, ref_half, _nodes(a, b))


def test_constant_descent_integrals_match_per_node_forms(capture):
    calls = capture(euclid)
    t, y = 0.7, 0.9
    euclid.heat_raise(4, t, 1.2)
    euclid.poisson_raise(4, y, 1.2)
    _, f, (a, b, *_), _ = _single(calls, "integrate_sqrt_endpoint")
    _assert_matches(f, lambda z: math.exp(-z / (4.0 * t)), _nodes(a, b))
    _, g, (a, *_), _ = _single(calls, "integrate_to_infinity")
    _assert_matches(g, lambda v: 2.0 / (1.0 + v * v) ** 2, _nodes(a, 1e3))


# ---------------------------------------------------------------------------
# one integrand call per sweep


ROUTES = {
    "euclid.heat_gruet": lambda: euclid.heat_gruet(3, 0.8, 1.5),
    "euclid.heat_descent": lambda: euclid.heat_descent(2, 0.8, 1.5),
    "euclid.heat_raise.outside": lambda: euclid.heat_raise(4, 0.8, 1.5),
    "euclid.poisson_integral": lambda: euclid.poisson_integral(3, 0.9, 1.3),
    "euclid.poisson_descent": lambda: euclid.poisson_descent(2, 0.9, 1.3),
    "euclid.poisson_raise.outside": lambda: euclid.poisson_raise(4, 0.9, 1.3),
    "hyperbolic.heat_gruet": lambda: hyperbolic.heat_gruet(3, 0.8, 1.5),
    "hyperbolic.heat_classic": lambda: hyperbolic.heat_classic(3, 0.8, 1.5),
    "hyperbolic.poisson_descent": lambda: hyperbolic.poisson_descent(2, 0.9, 1.4),
    "sphere.heat_gruet": lambda: sphere.heat_gruet(4, 0.9, 1.0),
    "sphere.poisson_doubling.angle": lambda: sphere.poisson_doubling(3, 0.8, 0.9),
    "sphere.poisson_doubling.half": lambda: sphere.poisson_doubling(3, 0.8, 0.9, variant="half"),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_one_integrand_call_per_sweep(monkeypatch, route):
    counts = []
    sweep = quadrature._sweep

    def counting_sweep(f, los, his, vectorized):
        calls = []

        def counted(x):
            calls.append(len(x))
            return f(x)

        out = sweep(counted, los, his, vectorized)
        assert calls == [15 * len(los)]
        counts.append(len(calls))
        return out

    monkeypatch.setattr(quadrature, "_sweep", counting_sweep)
    ROUTES[route]()
    assert counts and set(counts) == {1}


# ---------------------------------------------------------------------------
# contour failures


def test_non_finite_contour_tail_is_contour_error():
    spec = contour_spec(sigma=1.0, envelope_scale=2.0, tol=1e-10)

    def f(z):
        # finite at every interior node, overflowing at xi_max
        return np.where(z.imag <= -spec.xi_max, np.exp(1000.0 + 0.0 * z), np.exp(z * z / 2.0))

    with pytest.raises(ContourError, match="truncation point"):
        integrate_contour(f, spec)


# ---------------------------------------------------------------------------
# the even-n sphere branch at the cut


@pytest.mark.parametrize("n", [2, 4, 14])
@pytest.mark.parametrize(
    "xi", [np.nextafter(math.pi, 0.0), math.pi, np.nextafter(math.pi, 4.0), 3.0 * math.pi]
)
def test_even_sphere_contour_is_continuous_across_the_cut(capture, n, xi):
    # float(pi) and float(3 pi) lie below the true crossings, where the base
    # is still on the lower side of the cut
    calls = capture(sphere)
    sphere.heat_gruet(n, 0.9, 1.0, sigma=0.5)
    f = _single(calls, "integrate_contour")[1]
    at = np.array([xi - 1e-9, xi, xi + 1e-9])
    vals = _vectorized(f, 0.5 - 1j * at).real
    assert abs(vals[1] - vals[0]) <= 1e-6 * abs(vals[0])
    assert abs(vals[1] - vals[2]) <= 1e-6 * abs(vals[0])
