"""The node-array float integrands against their per-node math/cmath forms.

Every integrand the quadrature takes runs once per sweep on the array of
the sweep's nodes.  The reference integrands below are the per-node
``math``/``cmath`` closures the routes used before, kept verbatim: on a few
hundred nodes of each route the two agree to 1e-13 relative, and where the
per-node form raised OverflowError the node-array one raises it too.
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
    # the direct form where cosh rho + cosh xi <= 2 e^max(rho, xi) keeps its
    # power below e^700
    reach = 700.0 / half - math.log(2.0)

    def f(xi):
        osc = math.sin(math.pi * xi / (2.0 * t))
        if max(xi, rho) <= reach:
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


def _at_nodes(f, x):
    with np.errstate(all="ignore"):  # as the quadrature calls it
        return f(x)


def _assert_matches(f_vec, f_ref, x):
    got = _at_nodes(f_vec, x)
    want = np.array([f_ref(u) for u in x])
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= RTOL * np.abs(want)), np.max(
        np.abs(got - want) / np.abs(want)
    )


def _single(calls, name):
    (call,) = [c for c in calls if c[0] == name]
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
    _assert_matches(f, ref_heat_classic(n, t, rho), _nodes(a, b))


@pytest.mark.parametrize(
    "n, t, lo, hi",
    [
        # (cosh rho + cosh xi)^(5/2) overflows past xi ~ 284, where the
        # direct form raised OverflowError below the old switch at xi = 350
        (4, 200.0, 290.0, 349.0),
        (4, 200.0, 1.0, 349.0),
    ],
)
def test_heat_classic_takes_the_log_form_where_the_power_overflows(capture, n, t, lo, hi):
    calls = capture(hyperbolic)
    hyperbolic.heat_classic(n, t, 1.0)
    f = _single(calls, "integrate_adaptive")[1]
    xi = _nodes(lo, hi)
    with pytest.raises(OverflowError):
        [(math.cosh(1.0) + math.cosh(u)) ** (0.5 * (n + 1)) for u in xi]
    _assert_matches(f, ref_heat_classic(n, t, 1.0), xi)


@pytest.mark.parametrize(
    "n, t, lo, hi",
    [
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
        _at_nodes(f, xi)


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


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("rho", [705.0, 800.0])
def test_hyperbolic_poisson_descent_matches_closed_past_the_sinh_overflow(capture, n, rho):
    # the per-node form overflows in sinh s past s ~ 710.5 (and underflows
    # in P_(n+1) before that); the node-array one folds sinh s into its
    # exponential, which underflows only with the kernel
    res = hyperbolic.poisson_descent(n, 1.0, rho)
    ref = hyperbolic.poisson_closed(n, 1.0, rho)
    assert abs(res.value - ref) <= max(res.err_estimate, 1e-10 * abs(ref))
    calls = capture(hyperbolic)
    hyperbolic.poisson_descent(n, 1.0, rho)
    _, f, (a, b, *_), _ = _single(calls, "integrate_sqrt_endpoint")
    per_node = ref_hyperbolic_poisson_descent(n, 1.0, rho)
    with pytest.raises(OverflowError):
        per_node(b)
    assert np.isfinite(_at_nodes(f, _nodes(a, b))).all()


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


# ---------------------------------------------------------------------------
# one integrand call per sweep


ROUTES = {
    "euclid.heat_gruet": lambda: euclid.heat_gruet(3, 0.8, 1.5),
    "euclid.heat_descent": lambda: euclid.heat_descent(2, 0.8, 1.5),
    "euclid.poisson_integral": lambda: euclid.poisson_integral(3, 0.9, 1.3),
    "euclid.poisson_descent": lambda: euclid.poisson_descent(2, 0.9, 1.3),
    "hyperbolic.heat_gruet": lambda: hyperbolic.heat_gruet(3, 0.8, 1.5),
    "hyperbolic.heat_classic": lambda: hyperbolic.heat_classic(3, 0.8, 1.5),
    "hyperbolic.poisson_descent": lambda: hyperbolic.poisson_descent(2, 0.9, 1.4),
    "sphere.heat_gruet": lambda: sphere.heat_gruet(4, 0.9, 1.0),
    "sphere.heat_raise": lambda: sphere.heat_raise(6, 0.3, 1.0),
    "sphere.poisson_doubling.angle": lambda: sphere.poisson_doubling(3, 0.8, 0.9),
    "sphere.poisson_doubling.half": lambda: sphere.poisson_doubling(3, 0.8, 0.9, variant="half"),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_one_integrand_call_per_sweep(monkeypatch, route):
    counts = []
    sweep = quadrature._sweep

    def counting_sweep(f, los, his):
        calls = []

        def counted(x):
            calls.append(len(x))
            return f(x)

        out = sweep(counted, los, his)
        assert calls == [15 * len(los)]
        counts.append(len(calls))
        return out

    monkeypatch.setattr(quadrature, "_sweep", counting_sweep)
    ROUTES[route]()
    assert counts and set(counts) == {1}


# ---------------------------------------------------------------------------
# Gaussian envelopes seeded at their length scale


@pytest.fixture
def sweeps_per_integral(monkeypatch):
    """Record the sweeps of every integral, keyed by its integrand.

    Each integral hands the quadrature its own integrand object, so the
    returned dict maps one integral to the panel counts of its sweeps.
    """
    counts: dict = {}
    sweep = quadrature._sweep

    def counting_sweep(f, los, his):
        counts.setdefault(f, []).append(len(los))
        return sweep(f, los, his)

    monkeypatch.setattr(quadrature, "_sweep", counting_sweep)
    return counts


@pytest.mark.parametrize(
    "route",
    [
        lambda: hyperbolic.heat_descent(6, 1.029e-3, 0.8735),
        lambda: hyperbolic.heat_descent(10, 0.1044, 1.17),
        lambda: sphere.heat_raise(8, 1.073e-3, 1.137),
    ],
    ids=["H6-descent", "H10-descent", "S8-raise"],
)
def test_seeded_jet_integrals_take_at_most_three_sweeps(sweeps_per_integral, route):
    # unseeded, the first sweeps bisect toward the narrow Gaussian one level
    # at a time: 6 to 7 sweeps, each one batched jet program or batched raise
    route()
    assert sweeps_per_integral
    assert max(len(s) for s in sweeps_per_integral.values()) <= 3


def test_underflowed_theta2_images_are_not_seeded(sweeps_per_integral):
    # every Gaussian underflows to 0 on [2, pi] at t = 0.001: each image
    # integral (m = 0, and the pairs m = +-1, +-2 as one) is one panel, 15
    # evaluations, as without seeds
    res = sphere.heat_theta2(0.001, 2.0)
    assert res.value == 0.0
    assert all(s == [1] for s in sweeps_per_integral.values())
    assert res.n_evals == 15 * len(sweeps_per_integral) == 30


@pytest.mark.parametrize("t", [2.0, 9.448, 20.0, 50.0])
@pytest.mark.parametrize("phi", [1e-12, 0.005746, 1.0, 2.7])
def test_large_t_theta2_is_two_integrals_within_its_error(sweeps_per_integral, t, phi):
    # the image m = 0 and one integral of every pair m, -m that matters;
    # the images cancel down to the kernel, whose error carries the pairs'
    # rounding
    res = sphere.heat_theta2(t, phi)
    assert len(sweeps_per_integral) <= 2
    want = sphere.heat_spectral(2, t, phi)
    assert abs(res.value - want.value) <= res.err_estimate + want.err_estimate


# ---------------------------------------------------------------------------
# float integrals in few sweeps: every row seeded at its integrand's length
# scales, and panels cut in four


@pytest.mark.parametrize(
    "route, panels, n_evals",
    [
        (lambda: euclid.heat_gruet(3, 0.8, 1.5), 12, 181),
        (lambda: sphere.heat_gruet(3, 0.8, 1.2), 30, 451),
        (lambda: hyperbolic.heat_gruet(3, 0.8, 1.5), 12, 181),
    ],
    ids=["R3", "S3", "H3"],
)
def test_gruet_contours_take_one_sweep(sweeps_per_integral, route, panels, n_evals):
    # seeded at the envelope alone they took [7, 8], [12, 16] and [7, 8]
    # panels in two sweeps; unseeded, 4, 3 and 4 sweeps.  S^3 runs through
    # its saddle point (sigma = 1.55, 30 panels); at sigma = 0.6 it took 27
    res = route()
    assert list(sweeps_per_integral.values()) == [[panels]]
    assert res.n_evals == 15 * panels + 1  # and one node at xi_max


@pytest.mark.parametrize(
    "route, sweeps",
    [
        (lambda: euclid.heat_gruet(8, 0.1, 0.0), [6, 4]),
        (lambda: hyperbolic.heat_gruet(4, 0.85, 0.0), [9, 4]),
        (lambda: sphere.heat_gruet(13, 0.9, 0.9), [28, 16]),
    ],
    ids=["R8", "H4", "S13"],
)
def test_saddle_contours_take_few_panels(sweeps_per_integral, route, sweeps):
    # at the abscissa 0.5 the panels cancel, and the same contours took
    # [9, 12], [9, 16] and [30, 44] panels; these counts may only fall
    route()
    (got,) = sweeps_per_integral.values()
    assert len(got) <= len(sweeps)
    assert sum(got) <= sum(sweeps)


def test_descent_takes_one_sweep(monkeypatch):
    # unseeded it took two sweeps, one panel and then 4: calls [15, 60]
    calls = []
    heat = euclid._heat

    def counted(xp, n, t, r):
        calls.append(np.size(r))
        return heat(xp, n, t, r)

    monkeypatch.setattr(euclid, "_heat", counted)
    res = euclid.heat_descent(3, 0.8, 1.5)
    assert calls == [90]
    assert res.n_evals == 90


@pytest.mark.parametrize("n", [1, 2, 5, 9, 14])
@pytest.mark.parametrize("y, r", [(0.83, 0.0), (0.9, 1.04), (0.87, 2.8)])
def test_poisson_descent_tail_takes_one_sweep(sweeps_per_integral, n, y, r):
    # the tail on [split, infinity) is seeded where s doubles; unseeded it
    # took two sweeps, one panel and then 4, at n = 9 and 14
    res = euclid.poisson_descent(n, y, r)
    *_, tail = sweeps_per_integral.values()
    assert len(tail) == 1
    assert abs(res.value - euclid.poisson_closed(n, y, r)) <= max(res.err_estimate, 1e-15)


# every seeded float row on one grid, within its error of a reference, in at
# most two sweeps per integral

GRID_N = (2, 3, 8, 15)
GRID_T = (0.1, 0.9, 8.5)
GRID_R = (0.0, 1.0, 2.9)

# H^n heat at (n, t, rho), 30-digit mpmath values from
# perfbench/make_references.py: hyp_heat_odd for odd n (the H^3 closed form
# raised), hyp_heat_descent for even n (the descent integral of H^(n+1))
HYPERBOLIC_HEAT = {
    (2, 0.1, 0.0): 0.7892563557321237,
    (2, 0.1, 1.0): 0.059791372985853096,
    (2, 0.1, 2.9): 3.310808074479669e-10,
    (2, 0.9, 0.0): 0.08264224120772833,
    (2, 0.9, 1.0): 0.0579466222738271,
    (2, 0.9, 2.9): 0.00460844897737167,
    (2, 8.5, 0.0): 0.006272627480445868,
    (2, 8.5, 1.0): 0.005688548002252433,
    (2, 8.5, 2.9): 0.0029830315991117816,
    (3, 0.1, 0.0): 0.7098804304379308,
    (3, 0.1, 1.0): 0.04958345385521434,
    (3, 0.1, 2.9): 1.6804846998019863e-10,
    (3, 0.9, 0.0): 0.02629186779399744,
    (3, 0.9, 1.0): 0.01694618174495536,
    (3, 0.9, 2.9): 0.0008138645197518088,
    (3, 8.5, 0.0): 0.0009058510986553239,
    (3, 8.5, 1.0): 0.0007484645310190907,
    (3, 8.5, 2.9): 0.00022642461540419548,
    (8, 0.1, 0.0): 0.529027763413406,
    (8, 0.1, 1.0): 0.024282886870524413,
    (8, 0.1, 2.9): 6.668788425222234e-12,
    (8, 0.9, 0.0): 0.0003782391736781491,
    (8, 0.9, 1.0): 0.00014960728852389012,
    (8, 0.9, 2.9): 4.2587302288790556e-07,
    (8, 8.5, 0.0): 3.298058290303857e-06,
    (8, 8.5, 1.0): 1.558110206508961e-06,
    (8, 8.5, 2.9): 1.9069238859287532e-08,
    (15, 0.1, 0.0): 0.6444338156031836,
    (15, 0.1, 1.0): 0.01588194871691694,
    (15, 0.1, 2.9): 1.1178886327606986e-13,
    (15, 0.9, 0.0): 1.360889440504423e-05,
    (15, 0.9, 1.0): 2.4922242281709197e-06,
    (15, 0.9, 2.9): 8.924331225857346e-11,
    (15, 8.5, 0.0): 7.312425072874147e-08,
    (15, 8.5, 1.0): 1.5099311641167242e-08,
    (15, 8.5, 2.9): 1.6233848428195582e-12,
}


def _closed(fn):
    return lambda n, p, r: (fn(n, p, r), 0.0)


def _spectral(n, t, phi):
    res = sphere.heat_spectral(n, t, phi)
    return res.value, res.err_estimate


SEEDED_ROWS = {
    # row: (route, reference (value, error), its t or y)
    "R-heat-gruet": (euclid.heat_gruet, _closed(euclid.heat_closed), GRID_T),
    "R-heat-descent": (euclid.heat_descent, _closed(euclid.heat_closed), GRID_T),
    "R-poisson-integral": (euclid.poisson_integral, _closed(euclid.poisson_closed), GRID_T),
    "R-poisson-descent": (euclid.poisson_descent, _closed(euclid.poisson_closed), GRID_T),
    "S-heat-gruet": (sphere.heat_gruet, _spectral, GRID_T),
    "S-poisson-doubling": (sphere.poisson_doubling, _closed(sphere.poisson_closed), GRID_T),
    "H-heat-gruet": (hyperbolic.heat_gruet, lambda *k: (HYPERBOLIC_HEAT[k], 0.0), GRID_T),
    "H-heat-classic": (hyperbolic.heat_classic, lambda *k: (HYPERBOLIC_HEAT[k], 0.0), GRID_T),
    # the height of the hyperbolic strip lies in (0, pi)
    "H-poisson-descent": (
        hyperbolic.poisson_descent, _closed(hyperbolic.poisson_closed), (0.1, 0.9, 2.9)
    ),
}


@pytest.mark.parametrize("n", GRID_N)
@pytest.mark.parametrize("row", sorted(SEEDED_ROWS))
def test_seeded_rows_take_at_most_two_sweeps(sweeps_per_integral, row, n):
    route, reference, params = SEEDED_ROWS[row]
    for p in params:
        for r in GRID_R:
            sweeps_per_integral.clear()
            res = route(n, p, r)
            # a spectral reference carries its own error into the bound
            want, want_err = reference(n, p, r)
            assert abs(res.value - want) <= max(res.err_estimate + want_err, 1e-10 * abs(want))
            # where the value cancels, the roundoff floor and not tol ends the
            # refinement (err > tol |v|), one sweep later
            limit = 2 if res.err_estimate <= 1e-10 * abs(res.value) else 3
            assert max(map(len, sweeps_per_integral.values())) <= limit, (p, r)


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
    vals = _at_nodes(f, 0.5 - 1j * at).real
    assert abs(vals[1] - vals[0]) <= 1e-6 * abs(vals[0])
    assert abs(vals[1] - vals[2]) <= 1e-6 * abs(vals[0])
