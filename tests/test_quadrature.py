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

import numpy as np
import pytest

from ckernels.errors import ContourError, ConvergenceError, DomainError
from ckernels.jets import variable
from ckernels.quadrature import (
    _WG7,
    _WK15,
    _XK15,
    ContourSpec,
    QuadResult,
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
    res = integrate_adaptive(math.sin, 0.0, math.pi, 1e-12)
    assert res.value == pytest.approx(2.0, rel=1e-13)
    assert abs(res.value - 2.0) <= max(res.err_estimate, 1e-14)


def test_gaussian_against_erf():
    res = integrate_adaptive(lambda x: math.exp(-x * x), -6.0, 6.0, 1e-13)
    assert res.value == pytest.approx(math.sqrt(math.pi) * math.erf(6.0), rel=1e-13)


def test_breakpoints_seed_partition_and_resolve_kink():
    f = lambda x: abs(x - 1.0 / 3.0)
    res = integrate_adaptive(f, 0.0, 1.0, 1e-13, breakpoints=[1.0 / 3.0])
    assert res.value == pytest.approx(5.0 / 18.0, rel=1e-13)
    assert res.n_evals == 30  # two seeded panels, no refinement needed


def test_cancellation_reports_roundoff_floor():
    res = integrate_adaptive(math.sin, 0.0, 2.0 * math.pi, 1e-14, abs_tol=0.0)
    assert abs(res.value) <= res.err_estimate  # zero within the stated error


def test_log_endpoint_singularity():
    res = integrate_adaptive(
        lambda x: math.log(math.sin(x)), 0.0, math.pi / 2.0, 1e-11
    )
    assert res.value == pytest.approx(INT_LOG_SIN, abs=5e-11)
    assert abs(res.value - INT_LOG_SIN) <= 10.0 * res.err_estimate


def test_array_valued_integrand():
    res = integrate_adaptive(
        lambda x: np.array([math.sin(x), math.cos(x), x * x]), 0.0, 1.0, 1e-12
    )
    expect = [1.0 - math.cos(1.0), math.sin(1.0), 1.0 / 3.0]
    assert res.value == pytest.approx(expect, rel=1e-13)


def test_zero_width_interval():
    res = integrate_adaptive(math.exp, 1.5, 1.5, 1e-10)
    assert res.value == 0.0 and res.err_estimate == 0.0 and res.n_evals == 0


def test_invalid_ranges_rejected():
    with pytest.raises(DomainError):
        integrate_adaptive(math.sin, 1.0, 0.0, 1e-10)
    with pytest.raises(DomainError):
        integrate_adaptive(math.sin, 0.0, math.inf, 1e-10)


def test_budget_exhaustion_carries_best_estimate():
    with pytest.raises(ConvergenceError) as exc_info:
        integrate_adaptive(
            lambda x: math.sin(50.0 * x), 0.0, 10.0, 1e-15, abs_tol=0.0, max_panels=8
        )
    best = exc_info.value.result
    assert isinstance(best, QuadResult)
    assert math.isfinite(best.value)
    assert best.err_estimate > 0.0


def test_non_finite_integrand_reported_with_location():
    def f(x):
        return math.nan if 0.4 < x < 0.6 else 1.0

    with pytest.raises(ConvergenceError, match="non-finite"):
        integrate_adaptive(f, 0.0, 1.0, 1e-10)


@pytest.mark.parametrize("node", [4, 7])  # a Kronrod-only node, a Gauss node
@pytest.mark.parametrize("as_array", [False, True])
def test_non_finite_value_is_reported_at_its_node(node, as_array):
    bad_x = float(0.5 + 0.5 * _XK15[node])  # a node of the panel on [0, 1]

    def f(x):
        y = math.nan if x == bad_x else x
        return np.array([1.0, y]) if as_array else y

    with pytest.raises(ConvergenceError, match=re.escape(f"x = {bad_x}")):
        integrate_adaptive(f, 0.0, 1.0, 1e-10)


@pytest.mark.parametrize("node", [4, 7])
def test_non_finite_value_is_reported_at_its_node_vectorized(node):
    bad_x = float(0.5 + 0.5 * _XK15[node])

    def f(xs):  # all nodes at once, one row each
        return np.stack([np.ones_like(xs), np.where(xs == bad_x, math.nan, xs)], axis=1)

    with pytest.raises(ConvergenceError, match=re.escape(f"x = {bad_x}")):
        integrate_adaptive(f, 0.0, 1.0, 1e-10, vectorized=True)


def _jet_integrand(x):
    """Jets in c about 0.4 of sin(c + x) exp(-(c + x)^2); x a node or a node array."""
    shifted = variable(0.4, 6) + x
    return (shifted.sin() * (shifted * shifted * -1.0).exp()).coeffs


@pytest.mark.parametrize(
    "integrate",
    [
        lambda f, **kw: integrate_adaptive(f, 0.0, 3.0, 1e-12, **kw),
        lambda f, **kw: integrate_sqrt_endpoint(f, 0.0, 2.0, 1e-12, **kw),
        lambda f, **kw: integrate_to_infinity(f, 0.5, 1e-12, abs_tol=0.0, **kw),
    ],
    ids=["adaptive", "sqrt_endpoint", "to_infinity"],
)
def test_vectorized_panels_match_per_node_calls(integrate):
    calls = []

    def counted(x):
        calls.append(np.size(x))
        return _jet_integrand(x)

    per_node = integrate(counted)
    node_calls = len(calls)
    calls.clear()
    batched = integrate(counted, vectorized=True)
    # one call per sweep on the 15 nodes of each of its panels, so fewer
    # calls than panels; n_evals still counts nodes, and both runs split the
    # same panels
    assert all(size > 0 and size % 15 == 0 for size in calls)
    assert sum(calls) == batched.n_evals
    assert len(calls) < batched.n_evals // 15
    assert batched.n_evals == per_node.n_evals == node_calls
    scale = np.max(np.abs(per_node.value))
    assert np.max(np.abs(batched.value - per_node.value)) <= 1e-15 * scale
    # the error estimate is a difference of the same sums, equal to rounding
    assert abs(batched.err_estimate - per_node.err_estimate) <= 1e-15 * scale


def _singular(x):
    """|x - 1/3|^(-1/2): integrable, but bisection gains only a factor of
    about sqrt 2 a level, so tol 1e-15 exhausts any budget.  Its arithmetic
    rounds the same on a node array as on single nodes."""
    return 1.0 / np.sqrt(np.abs(x - 1.0 / 3.0))


@pytest.mark.parametrize(
    "budget",
    [{"max_panels": 1}, {"max_panels": 8}, {"max_panels": 9}, {"max_panels": 64},
     {"max_depth": 5}],
    ids=["panels1", "panels8", "panels9", "panels64", "depth5"],
)
def test_budget_exhaustion_is_the_same_per_node_and_vectorized(budget):
    found = []
    for vectorized in (False, True):
        with pytest.raises(ConvergenceError, match="exhausted") as exc_info:
            integrate_adaptive(
                _singular, 0.0, 1.0, 1e-15, abs_tol=0.0, vectorized=vectorized, **budget
            )
        found.append(exc_info.value.result)
    per_node, batched = found
    assert batched.n_evals == per_node.n_evals
    assert batched.value == per_node.value
    assert batched.err_estimate == per_node.err_estimate
    # one panel to start, and each split adds one panel and evaluates two:
    # the partition fills the panel budget but never exceeds it
    panels = (batched.n_evals // 15 + 1) // 2
    assert panels == budget.get("max_panels", panels)
    assert abs(batched.value - 2.0 * (math.sqrt(1.0 / 3.0) + math.sqrt(2.0 / 3.0))) < 1.0


@pytest.mark.parametrize("vectorized", [False, True])
def test_non_finite_value_in_a_multi_panel_sweep_is_reported_at_its_node(vectorized):
    # the four seeded panels are far from tol 1e-12, so the first refinement
    # sweep splits them all; the bad node belongs to the child [2.5, 3]
    bad_x = float(2.75 + 0.25 * _XK15[4])
    sizes = []

    def f(x):
        sizes.append(np.size(x))
        return np.where(x == bad_x, math.nan, np.sin(20.0 * x))

    with pytest.raises(ConvergenceError, match=re.escape(f"x = {bad_x}")) as exc_info:
        integrate_adaptive(
            f, 0.0, 4.0, 1e-12, breakpoints=[1.0, 2.0, 3.0], vectorized=vectorized
        )
    best = exc_info.value.result
    assert best.n_evals == sum(sizes) == 15 * (4 + 8)
    if vectorized:
        assert sizes == [15 * 4, 15 * 8]
    assert best.err_estimate == math.inf
    assert best.value == pytest.approx((1.0 - math.cos(80.0)) / 20.0, abs=0.1)


def test_n_evals_counts_every_integrand_call():
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return math.sin(50.0 * x)

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


# ---------------------------------------------------------------------------
# endpoint and half-line transforms


def test_sqrt_endpoint_singularity():
    res = integrate_sqrt_endpoint(math.cos, 0.0, 1.0, 1e-12)
    assert res.value == pytest.approx(INT_SQRT_COS, rel=1e-12)
    assert abs(res.value - INT_SQRT_COS) <= 10.0 * res.err_estimate


def test_sqrt_endpoint_requires_forward_range():
    with pytest.raises(DomainError):
        integrate_sqrt_endpoint(math.cos, 1.0, 1.0)


def test_half_line_gaussian():
    res = integrate_to_infinity(lambda x: math.exp(-x * x), 0.0, 1e-12)
    assert res.value == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-12)


def test_half_line_oscillatory_decay():
    res = integrate_to_infinity(
        lambda x: math.cos(20.0 * x) * math.exp(-x), 0.0, 1e-12, abs_tol=1e-13
    )
    assert res.value == pytest.approx(INT_OSC, abs=2e-13)
    assert abs(res.value - INT_OSC) <= 10.0 * res.err_estimate


def test_half_line_scale_validation():
    with pytest.raises(DomainError):
        integrate_to_infinity(math.exp, 0.0, scale=0.0)


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
