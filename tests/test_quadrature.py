"""Adaptive quadrature, endpoint/half-line transforms, and contour rules.

Frozen reference values were computed independently at 30-digit precision:

    int_0^1 cos(x) x^(-1/2) dx = 1.8090484758005441
    int_0^(pi/2) log(sin x) dx = -(pi/2) log 2 = -1.0887930451518011
    int_0^inf cos(20 x) e^(-x) dx = 1/401 (exact)

The contour test uses an exact identity: for f entire, real on the real
axis, with Gaussian decay on vertical lines, the half-line integral
int_0^inf Re f(sigma - i xi) d xi is independent of sigma (Cauchy), and for
f(z) = exp(z^2 / G) it equals sqrt(pi G) / 2.
"""

import math
import re

import mpmath
import numpy as np
import pytest

from ckernels import quadrature
from ckernels.errors import ContourError, ConvergenceError, DomainError
from ckernels.geometry import Space
from ckernels.jets import gauss_jet
from ckernels.quadrature import (
    _W3,
    _WG7,
    _WK15,
    _XK15,
    ContourSpec,
    QuadResult,
    contour_power,
    contour_spec,
    integrate_adaptive,
    integrate_contour,
    integrate_sqrt_endpoint,
    integrate_to_infinity,
)

INT_SQRT_COS = 1.8090484758005441
INT_LOG_SIN = -1.0887930451518011
INT_OSC = 1.0 / 401.0


# ---------------------------------------------------------------------------
# the G7/K15 rule table


def test_gauss_nodes_and_weights_are_the_7_point_rule():
    nodes, weights = np.polynomial.legendre.leggauss(7)
    assert np.all(np.diff(_XK15) > 0.0)
    assert np.all(_WG7[0::2] == 0.0)
    np.testing.assert_allclose(_XK15[1::2], nodes, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(_WG7[1::2], weights, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("weights, degree", [(_WK15, 22), (_WG7, 13)])
def test_rule_integrates_monomials_exactly(weights, degree):
    for k in range(degree + 1):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert float(weights @ _XK15**k) == pytest.approx(exact, rel=0.0, abs=1e-15)


def test_rule_weights_sum_to_interval_length():
    assert math.fsum(_WK15) == pytest.approx(2.0, rel=0.0, abs=1e-15)
    assert math.fsum(_WG7) == pytest.approx(2.0, rel=0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# core adaptive rule


def test_low_degree_polynomial_is_one_panel_exact():
    res = integrate_adaptive(lambda x: x**4, 0.0, 1.0, 1e-12)
    assert res.value == pytest.approx(0.2, abs=1e-15)
    assert res.n_evals == 15  # a single embedded 15/7 panel suffices


def test_sine_integral():
    res = integrate_adaptive(np.sin, 0.0, math.pi, 1e-12)
    assert res.value == pytest.approx(2.0, rel=1e-13)
    assert abs(res.value - 2.0) <= max(res.err_estimate, 1e-14)


def test_gaussian_against_erf():
    res = integrate_adaptive(lambda x: np.exp(-x * x), -6.0, 6.0, 1e-13)
    assert res.value == pytest.approx(math.sqrt(math.pi) * math.erf(6.0), rel=1e-13)


def test_breakpoints_seed_partition_and_resolve_kink():
    f = lambda x: abs(x - 1.0 / 3.0)
    res = integrate_adaptive(f, 0.0, 1.0, 1e-13, breakpoints=[1.0 / 3.0])
    assert res.value == pytest.approx(5.0 / 18.0, rel=1e-13)
    assert res.n_evals == 30  # two seeded panels, no refinement needed


def test_the_default_target_is_relative():
    # a small integral is refined to tol times its value: an absolute target
    # of tol would accept 5.5e-7 relative here, after 75 evaluations
    res = integrate_adaptive(lambda x: 1e-8 / (1.0 + 25.0 * x * x), -1.0, 1.0, 1e-10)
    assert res.err_estimate <= 1e-10 * abs(res.value)
    assert res.value == pytest.approx(1e-8 * 0.4 * math.atan(5.0), rel=1e-10)


def test_cancellation_reports_roundoff_floor():
    res = integrate_adaptive(np.sin, 0.0, 2.0 * math.pi, 1e-14, abs_tol=0.0)
    assert abs(res.value) <= res.err_estimate  # zero within the stated error


def test_subnormal_integral_is_within_its_error():
    # the K15 sums of subnormal values round by absolute subnormal ulps: this
    # one returns 1.5005e-320, one ulp above 1.5e-320, where a relative floor
    # alone claimed err 0
    res = integrate_adaptive(lambda x: 1e-320 * (1.0 + x), 0.0, 1.0, abs_tol=0.0)
    assert abs(res.value - 1.5e-320) <= res.err_estimate <= 1e-321


def test_log_endpoint_singularity():
    res = integrate_adaptive(lambda x: np.log(np.sin(x)), 0.0, math.pi / 2.0, 1e-11)
    assert res.value == pytest.approx(INT_LOG_SIN, abs=5e-11)
    assert abs(res.value - INT_LOG_SIN) <= 10.0 * res.err_estimate


def _runge(x):
    return 1.0 / (1.0 + 25.0 * x * x)


def test_integrand_errors_join_the_reported_error():
    # (v, c |v|): the same nodes and value as v alone, and the plain error
    # plus c times the integral of |v|; the errors never drive refinement
    c = 1e-6
    plain = integrate_adaptive(_runge, -1.0, 1.0, 1e-13)
    paired = integrate_adaptive(lambda x: (_runge(x), c * np.abs(_runge(x))), -1.0, 1.0, 1e-13)
    assert plain.n_evals > 15  # refined past one panel
    assert paired.n_evals == plain.n_evals
    assert paired.value == pytest.approx(plain.value, rel=1e-15)
    assert paired.err_estimate - plain.err_estimate == pytest.approx(
        c * 0.4 * math.atan(5.0), rel=1e-9
    )


def test_zero_width_interval():
    res = integrate_adaptive(np.exp, 1.5, 1.5, 1e-10)
    assert res.value == 0.0 and res.err_estimate == 0.0 and res.n_evals == 0


def test_invalid_ranges_rejected():
    with pytest.raises(DomainError):
        integrate_adaptive(np.sin, 1.0, 0.0, 1e-10)
    with pytest.raises(DomainError):
        integrate_adaptive(np.sin, 0.0, math.inf, 1e-10)


def test_budget_exhaustion_carries_best_estimate():
    with pytest.raises(ConvergenceError) as exc_info:
        integrate_adaptive(lambda x: np.sin(50.0 * x), 0.0, 10.0, 1e-15, abs_tol=0.0, max_panels=8)
    best = exc_info.value.result
    assert isinstance(best, QuadResult)
    assert math.isfinite(best.value)
    assert best.err_estimate > 0.0


def test_non_finite_integrand_reported_with_location():
    def f(x):
        return np.where((0.4 < x) & (x < 0.6), math.nan, 1.0)

    with pytest.raises(ConvergenceError, match="non-finite"):
        integrate_adaptive(f, 0.0, 1.0, 1e-10)


@pytest.mark.parametrize("node", [4, 7])  # a Kronrod-only node, a Gauss node
def test_non_finite_value_is_reported_at_its_node(node):
    bad_x = float(0.5 + 0.5 * _XK15[node])  # a node of the panel on [0, 1]

    def f(x):
        return np.where(x == bad_x, math.nan, x)

    with pytest.raises(ConvergenceError, match=re.escape(f"x = {bad_x}")):
        integrate_adaptive(f, 0.0, 1.0, 1e-10)


@pytest.mark.parametrize("node", [4, 7])
def test_non_finite_value_is_reported_at_its_node_vectorized(node):
    # a (values, errors) integrand: a non-finite error is reported at its
    # node, as a non-finite value is
    bad_x = float(0.5 + 0.5 * _XK15[node])

    def f(xs):
        return np.ones_like(xs), np.where(xs == bad_x, math.nan, xs)

    with pytest.raises(ConvergenceError, match=re.escape(f"x = {bad_x}")):
        integrate_adaptive(f, 0.0, 1.0, 1e-10)


def test_overflowing_panel_sums_raise_after_one_sweep():
    # every node value is finite, but the K15 sums of a panel 1e10 wide are
    # not: no panel can be chosen for splitting by a non-finite excess
    sweeps = []

    def f(xs):
        sweeps.append(xs.size)
        return np.full_like(xs, 1e300)

    with pytest.raises(ConvergenceError, match="overflow"):
        integrate_adaptive(f, 0.0, 1e10, 1e-10)
    assert len(sweeps) == 1


def _jet_integrand(x):
    """The order-6 Taylor coefficient of exp(-r^2) about 0.4 + x, at a node
    or at each node of an array."""
    return gauss_jet(0.25, 0)(0.4 + x, 6).coeffs[..., 6]


@pytest.mark.parametrize(
    "integrate",
    [
        lambda f: integrate_adaptive(f, 0.0, 3.0, 1e-12),
        lambda f: integrate_to_infinity(f, 0.5, 1e-12),
    ],
    ids=["adaptive", "to_infinity"],
)
def test_vectorized_panels_match_per_node_calls(integrate):
    calls = []

    def counted(x):
        calls.append(np.size(x))
        return _jet_integrand(x)

    # the same integrand taking its jets one node at a time
    per_node = integrate(lambda xs: np.array([counted(x) for x in xs.tolist()]))
    node_calls = len(calls)
    calls.clear()
    batched = integrate(counted)
    # one call per sweep on the 15 nodes of each of its panels, so fewer
    # calls than panels; n_evals counts nodes, and both runs split the same
    # panels
    assert all(size > 0 and size % 15 == 0 for size in calls)
    assert sum(calls) == batched.n_evals
    assert len(calls) < batched.n_evals // 15
    assert batched.n_evals == per_node.n_evals == node_calls
    scale = abs(per_node.value)
    assert abs(batched.value - per_node.value) <= 1e-15 * scale
    # the error estimate is a difference of the same sums, equal to rounding
    assert abs(batched.err_estimate - per_node.err_estimate) <= 1e-15 * scale


def _singular(x):
    """|x - 1/3|^(-1/2): integrable, but bisection gains only a factor of
    about sqrt 2 a level, so tol 1e-15 exhausts any budget.  Its arithmetic
    rounds the same on a node array as on single nodes."""
    return 1.0 / np.sqrt(np.abs(x - 1.0 / 3.0))


def _final_panels(nodes) -> int:
    """The number of panels in the final partition of an integral that saw
    ``nodes``.  A panel's 15 nodes come together with its centre in the
    middle.  A panel that was split holds the centres of its children within
    3/4 of its half-width of its own, while the centres of its neighbours
    and ancestors lie at or beyond its ends."""
    blocks = np.reshape(nodes, (-1, 15))
    centres = blocks[:, 7]
    halves = (blocks[:, 14] - blocks[:, 0]) / (2.0 * _XK15[14])
    return sum(
        int(np.sum(np.abs(centres - c) < 0.9 * h) == 1) for c, h in zip(centres, halves)
    )


@pytest.mark.parametrize(
    "budget",
    [{"max_panels": 1}, {"max_panels": 8}, {"max_panels": 9}, {"max_panels": 64}, {}],
    ids=["panels1", "panels8", "panels9", "panels64", "depth5"],
)
def test_budget_exhaustion_is_the_same_per_node_and_vectorized(budget, monkeypatch):
    if not budget:  # the depth cap is a module constant
        monkeypatch.setattr(quadrature, "_MAX_DEPTH", 5)
    # the integrand computed one node at a time and on the whole array
    found = []
    seen = {False: [], True: []}
    for vectorized in (False, True):

        def f(xs, nodes=seen[vectorized], vectorized=vectorized):
            nodes.extend(xs.tolist())
            if vectorized:
                return _singular(xs)
            return np.array([_singular(x) for x in xs.tolist()])

        with pytest.raises(ConvergenceError, match="exhausted") as exc_info:
            integrate_adaptive(f, 0.0, 1.0, 1e-15, abs_tol=0.0, **budget)
        found.append(exc_info.value.result)
    per_node, batched = found
    assert seen[False] == seen[True]
    assert batched.n_evals == per_node.n_evals == len(seen[True])
    assert batched.value == per_node.value
    assert batched.err_estimate == per_node.err_estimate
    # the partition fills the panel budget but never exceeds it: a split
    # cuts a panel in four unless the budget has room for fewer
    panels = _final_panels(seen[True])
    assert panels == budget.get("max_panels", panels)
    assert abs(batched.value - 2.0 * (math.sqrt(1.0 / 3.0) + math.sqrt(2.0 / 3.0))) < 1.0


def test_non_finite_value_in_a_multi_panel_sweep_is_reported_at_its_node():
    # the four seeded panels are far from tol 1e-12, so the first refinement
    # sweep cuts each in four; the bad node belongs to the child [2.75, 3]
    bad_x = float(2.875 + 0.125 * _XK15[4])
    sizes = []

    def f(x):
        sizes.append(np.size(x))
        return np.where(x == bad_x, math.nan, np.sin(20.0 * x))

    with pytest.raises(ConvergenceError, match=re.escape(f"x = {bad_x}")) as exc_info:
        integrate_adaptive(f, 0.0, 4.0, 1e-12, breakpoints=[1.0, 2.0, 3.0])
    best = exc_info.value.result
    assert best.n_evals == sum(sizes) == 15 * (4 + 16)
    assert sizes == [15 * 4, 15 * 16]
    assert best.err_estimate == math.inf
    assert best.value == pytest.approx((1.0 - math.cos(80.0)) / 20.0, abs=0.1)


def test_n_evals_counts_every_integrand_call():
    calls = 0

    def f(x):
        nonlocal calls
        calls += x.size
        return np.sin(50.0 * x)

    res = integrate_adaptive(f, 0.0, 10.0, 1e-12)
    assert res.n_evals == calls
    assert res.n_evals > 15 * 10  # refined well past the first panel
    assert res.value == pytest.approx((1.0 - math.cos(500.0)) / 50.0, rel=1e-11)


def test_quadresult_scaled():
    res = QuadResult(2.0, 1e-12, 22)
    s = res.scaled(-3.0)
    assert s.value == -6.0
    assert s.err_estimate == pytest.approx(3e-12)
    assert s.n_evals == 22


# The same bits as the per-panel Python bookkeeping that the sweep's array
# products replaced, recorded from it: the integrands take only arithmetic
# and square roots, which round alike everywhere, and the totals add left to
# right, so only the matrix product's order over a rule's 15 products can
# differ between platforms.  The canary shows it: where it differs from the
# recording platform's, the pins cannot hold bit for bit.
_CANARY = [
    [2.0, -2.220446049250313e-16, 5.100056965821189],
    [6.2857142857142865, 4.440892098500626e-16, 9.354368154310304],
]


def _canary() -> list:
    rows = np.arange(30.0).reshape(2, 15)
    return (np.concatenate([rows / 7.0, np.sqrt(rows)], axis=1) @ _W3).tolist()


@pytest.mark.skipif(_canary() != _CANARY, reason="this platform sums in another order")
@pytest.mark.parametrize(
    "integral, pinned",
    [
        (  # seeded, one sweep of 5 panels
            lambda: integrate_adaptive(
                lambda x: 1.0 / (1.0 + x * x), 0.0, 3.0, 1e-12, abs_tol=0.0,
                breakpoints=[0.5, 1.0, 1.5, 2.0],
            ),
            (1.2490457723982544, 9.746602095893567e-14, 75),
        ),
        (  # 11 sweeps toward the root's endpoint
            lambda: integrate_adaptive(lambda x: np.sqrt(x) * (1.0 - x), 0.0, 1.0, 1e-12),
            (0.2666666666666791, 2.46487940701129e-13, 615),
        ),
        (  # (values, errors)
            lambda: integrate_adaptive(
                lambda x: (1.0 / (1.0 + 9.0 * x * x), 1e-13 * x), 0.0, 3.0, 1e-12,
                abs_tol=0.0,
            ),
            (0.4867130352070004, 5.591309279145548e-13, 195),
        ),
        (  # pinned on calls one node at a time; an array gives the same values
            lambda: integrate_adaptive(lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0, 1e-12),
            (0.5493603067780063, 2.603410864978262e-13, 315),
        ),
        (
            lambda: integrate_sqrt_endpoint(lambda x: 1.0 / (1.0 + x), 0.0, 1.0, 1e-12),
            (1.5707963267948966, 1.0512177751353247e-14, 75),
        ),
        (
            lambda: integrate_to_infinity(lambda x: 1.0 / (1.0 + x * x) ** 2, 0.0, 1e-10),
            (0.7853981633974483, 8.437983236565913e-13, 75),
        ),
    ],
    ids=["seeded-one-sweep", "refining", "paired", "per-node", "sqrt-endpoint", "to-infinity"],
)
def test_bookkeeping_keeps_its_bits(integral, pinned):
    res = integral()
    assert (res.value, res.err_estimate, res.n_evals) == pinned


# ---------------------------------------------------------------------------
# endpoint and half-line transforms


def test_sqrt_endpoint_singularity():
    res = integrate_sqrt_endpoint(np.cos, 0.0, 1.0, 1e-12)
    assert res.value == pytest.approx(INT_SQRT_COS, rel=1e-12)
    assert abs(res.value - INT_SQRT_COS) <= 10.0 * res.err_estimate


def test_sqrt_endpoint_requires_forward_range():
    with pytest.raises(DomainError):
        integrate_sqrt_endpoint(np.cos, 1.0, 1.0)


def test_half_line_gaussian():
    res = integrate_to_infinity(lambda x: np.exp(-x * x), 0.0, 1e-12)
    assert res.value == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-12)


def test_half_line_oscillatory_decay():
    res = integrate_to_infinity(lambda x: np.cos(20.0 * x) * np.exp(-x), 0.0, 1e-12)
    assert res.value == pytest.approx(INT_OSC, abs=2e-13)
    assert abs(res.value - INT_OSC) <= 10.0 * res.err_estimate


def test_half_line_scale_validation():
    with pytest.raises(DomainError):
        integrate_to_infinity(np.exp, 0.0, scale=0.0)


# ---------------------------------------------------------------------------
# vertical contours


def test_contour_spec_truncation_covers_envelope():
    spec = contour_spec(sigma=1.5, envelope_scale=2.0, tol=1e-10)
    assert spec.xi_max > math.sqrt(1.5**2 + 2.0 * math.log(1e10))
    assert spec.tol == 1e-10
    with pytest.raises(DomainError):
        contour_spec(1.0, 2.0, 1.5)
    with pytest.raises(DomainError):
        ContourSpec(sigma=-1.0, xi_max=5.0, tol=1e-10, envelope_scale=2.0)


@pytest.mark.parametrize("sigma", [0.7, 2.0])
def test_contour_gaussian_identity(sigma):
    G = 2.0
    spec = contour_spec(sigma=sigma, envelope_scale=G, tol=1e-12)
    res = integrate_contour(lambda z: np.exp(z * z / G), spec)
    exact = 0.5 * math.sqrt(math.pi * G)
    assert res.value == pytest.approx(exact, rel=1e-11)
    assert abs(res.value - exact) <= 10.0 * res.err_estimate


def test_contour_value_is_abscissa_independent():
    G = 3.0
    vals = []
    for sigma in (0.5, 1.3, 2.4):
        spec = contour_spec(sigma=sigma, envelope_scale=G, tol=1e-12)
        vals.append(integrate_contour(lambda z: np.exp(z * z / G), spec).value)
    assert vals[1] == pytest.approx(vals[0], rel=1e-11)
    assert vals[2] == pytest.approx(vals[0], rel=1e-11)


def test_contour_failure_is_contour_error():
    spec = contour_spec(sigma=1.0, envelope_scale=2.0, tol=1e-10)
    with pytest.raises(ContourError):
        integrate_contour(lambda z: np.full(z.shape, complex(math.nan, 0.0)), spec)


def _contour_bases(space: Space) -> np.ndarray:
    """The bases of the kernels' powers at nodes sigma - i xi of their
    contours, and on the sphere next to its cuts at xi = pi and 3 pi."""
    xi = np.linspace(0.0, 40.0, 41)
    bases = []
    for sigma in (0.05, 0.7, 3.0):
        y = sigma - 1j * xi
        if space is Space.EUCLIDEAN:
            bases += [r * r + y * y for r in (0.0, 0.3, 5.0)]
        elif space is Space.HYPERBOLIC:
            bases += [math.cosh(rho) - np.cos(y) for rho in (0.0, 0.3, 5.0)]
        else:
            near = np.array([k * math.pi + d for k in (1, 3) for d in (-1e-12, 0.0, 1e-12)])
            y = sigma - 1j * np.concatenate([xi, near])
            bases += [np.cosh(y) - math.cos(phi) for phi in (0.0, 0.3, 2.0, math.pi)]
    return np.concatenate(bases)


@pytest.mark.parametrize("space", [Space.EUCLIDEAN, Space.SPHERE, Space.HYPERBOLIC])
@pytest.mark.parametrize("n", range(1, 16))
def test_contour_power_is_the_principal_power(space, n):
    # against 30 digits: numpy's own complex power exp(-h log z) loses
    # h log|z| rounding units, 5e-14 at |z| = e^40
    z = _contour_bases(space)
    with mpmath.workdps(30):
        h = -mpmath.mpf(n + 1) / 2
        want = np.array([complex(mpmath.mpc(x) ** h) for x in z])
    got = contour_power(z, n)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
