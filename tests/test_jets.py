"""Truncated Taylor jets and the dimension-raising operator.

The raising-operator values are checked against hand-derived formulas,

    D g = -g' / (2 pi w),
    D^2 g = g'' / (4 pi^2 w^2) - g' w' / (4 pi^2 w^3),

evaluated independently at 30-digit precision for g(r) = exp(-r^2/(4 t)),
t = 0.7, r = 1.3, and frozen below at full double precision.
"""

import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckernels import euclid, hyperbolic, sphere
from ckernels.errors import DomainError, SingularPointError
from ckernels.geometry import Space
from ckernels.jets import (
    MAX_ORDER,
    Jet,
    _divide,
    _lower_jet,
    _weight_row,
    gauss_jet,
    raise_jet,
    raise_operator,
    raise_origin_jet,
    weight_jet,
)

# frozen oracle values for the raising operator (30-digit computation)
D1_EXPECT = {
    Space.EUCLIDEAN: 0.062167636285514418,
    Space.SPHERE: 0.083874464868125122,
    Space.HYPERBOLIC: 0.047585234866182587,
}
D2_EXPECT = {
    Space.EUCLIDEAN: 0.0070673475822704962,
    Space.SPHERE: 0.0060535475774929946,
    Space.HYPERBOLIC: 0.0058852783848515235,
}
D1_ORIGIN = 0.11368210220849667  # same for all three weights (w'(0) = 1)
D2_ORIGIN = {
    Space.EUCLIDEAN: 0.012923620362543103,
    Space.SPHERE: 0.0068925975266896644,
    Space.HYPERBOLIC: 0.018954643198396542,
}

T0 = 0.7
R0 = 1.3

# exp(-r^2 / 4 T0): the 0-d heat kernel has amplitude 1
gauss_gen = gauss_jet(T0, 0)


def _exp_minus_square(center: float, order: int) -> Jet:
    """Jets of exp(-r^2)."""
    return gauss_jet(0.25, 0)(center, order)


def _sin_cos(space: Space, center: float, order: int) -> tuple:
    """Jets of sin and cos (sinh and cosh on the hyperbolic space): the
    weight and its derivative."""
    return weight_jet(space, center, order), weight_jet(space, center, order + 1).deriv()


# ---------------------------------------------------------------------------
# jet arithmetic against library transcendentals


def test_jet_evaluation_matches_polynomial():
    j = Jet(0.0, [1.0, 2.0, 3.0])
    assert j(0.5) == pytest.approx(1.0 + 2.0 * 0.5 + 3.0 * 0.25, rel=1e-15)


@pytest.mark.parametrize("center", [0.0, 0.4, -1.2, 2.0])
def test_transcendental_jets_reproduce_taylor_coefficients(center):
    sin, cos = _sin_cos(Space.SPHERE, center, 8)
    sinh, cosh = _sin_cos(Space.HYPERBOLIC, center, 8)
    cases = [
        (_exp_minus_square(center, 8), lambda x: math.exp(-x * x)),
        (sin, math.sin),
        (cos, math.cos),
        (sinh, math.sinh),
        (cosh, math.cosh),
    ]
    for jet, fn in cases:
        assert jet.value == pytest.approx(fn(center), rel=1e-15, abs=1e-15)
        # evaluate the truncated series a small step away
        h = 1e-2
        assert jet(h) == pytest.approx(fn(center + h), rel=1e-12, abs=1e-12)


def test_derivative_extraction():
    j = weight_jet(Space.HYPERBOLIC, 0.5, 6)
    for k in range(5):
        want = math.cosh(0.5) if k % 2 else math.sinh(0.5)
        assert j.derivative(k) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("k", [-1, 1.5, 7, MAX_ORDER + 1])
def test_derivative_refuses_a_bad_order(k):
    with pytest.raises(DomainError):
        weight_jet(Space.HYPERBOLIC, 0.5, 6).derivative(k)


def test_division_and_power_consistency():
    f = _exp_minus_square(0.8, 8) + 1.0
    g = _sin_cos(Space.SPHERE, 0.8, 8)[1] + 2.0
    q = f / g
    assert (q * g).coeffs == pytest.approx(f.coeffs, rel=1e-13)
    p = g.power(-1.5)
    assert p.value == pytest.approx((math.cos(0.8) + 2.0) ** -1.5, rel=1e-14)


def test_deriv_antideriv_roundtrip():
    f = weight_jet(Space.SPHERE, 0.9, 8) * _exp_minus_square(0.9, 8)
    g = f.deriv().antideriv(f.value)
    assert g.coeffs == pytest.approx(f.coeffs, rel=1e-14)


def test_scalar_coercion_keeps_order():
    f = _exp_minus_square(0.5, 6)
    assert (f + 1.0).order == 6
    assert (2.0 * f).order == 6
    assert (f / 2.0).order == 6


def test_zero_leading_division_rejected():
    num = weight_jet(Space.EUCLIDEAN, 1.0, 4)
    den = Jet(1.0, [0.0, 1.0, 0.5])
    with pytest.raises(DomainError):
        num / den


def test_order_cap_enforced():
    with pytest.raises(DomainError):
        weight_jet(Space.EUCLIDEAN, 0.0, MAX_ORDER + 1)
    # float64 arrays skip coercion, not the shape and order checks
    with pytest.raises(DomainError):
        Jet(0.0, np.zeros(MAX_ORDER + 2))
    with pytest.raises(DomainError):
        Jet(0.0, np.zeros((2, 0)))


# ---------------------------------------------------------------------------
# batches: one coefficient row per node, which the raise reads


def test_batch_domain_checks_cover_every_node():
    # the batch raise divides rows by the weight rows; a vanishing leading
    # value at any one node is refused
    rows = np.array([[0.25, 1.0, 0.0], [0.0, 1.0, 0.5], [0.125, 1.0, 0.0]])
    with pytest.raises(DomainError):
        _divide(np.ones((3, 3)), rows)
    with pytest.raises(DomainError):
        _divide(np.ones(3), rows)


def test_batch_has_no_single_value():
    batch = Jet(0.5, [[0.7, 1.0, 0.0, 0.0], [0.9, 1.0, 0.0, 0.0]])
    single = weight_jet(Space.SPHERE, 0.5, 3)
    assert batch.order == 3
    refused = [
        lambda: batch.value,
        lambda: batch.derivative(1),
        lambda: batch(0.1),
        lambda: batch.power(0.5),
        lambda: batch.antideriv(),
        lambda: batch + 1.0,
        lambda: batch + single,
        lambda: single * batch,
        lambda: single / batch,
    ]
    for op in refused:
        with pytest.raises(DomainError):
            op()


# ---------------------------------------------------------------------------
# hypothesis: structural identities


coeff = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(coeff, min_size=2, max_size=6), st.floats(min_value=-1.0, max_value=1.0))
def test_product_jet_is_series_product(coeffs, center):
    f = Jet(center, coeffs)
    g = Jet(center, coeffs[::-1])
    prod = f * g
    full = np.convolve(f.coeffs, g.coeffs)[: prod.order + 1]
    assert prod.coeffs == pytest.approx(full, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-1.2, max_value=1.2))
def test_sin_cos_pythagoras(center):
    sin, cos = _sin_cos(Space.SPHERE, center, 8)
    one = sin * sin + cos * cos
    expect = np.zeros(9)
    expect[0] = 1.0
    assert one.coeffs == pytest.approx(expect, abs=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.1, max_value=2.0), st.floats(min_value=-2.0, max_value=2.0))
def test_power_matches_exp_log(alpha, center_shift):
    center = 1.5 + 0.1 * center_shift
    direct = _sin_cos(Space.HYPERBOLIC, center, 7)[1].power(alpha)
    with mpmath.workdps(30):
        exp_log = lambda x: mpmath.exp(alpha * mpmath.log(mpmath.cosh(x)))
        via_log = [float(a) for a in mpmath.taylor(exp_log, mpmath.mpf(center), 7)]
    assert direct.coeffs == pytest.approx(via_log, rel=1e-11, abs=1e-11)


def _full_power(g: list, alpha: float) -> list:
    """The power recurrence over every coefficient of the row, zeros too."""
    a1, g0 = alpha + 1.0, g[0]
    out = [g0**alpha]
    for k in range(1, len(g)):
        acc = 0.0
        for i in range(1, k + 1):
            acc += (a1 * i - k) * g[i] * out[k - i]
        out.append(acc / (k * g0))
    return out


def _power_rows():
    """Random sparse, even and polynomial rows of orders 0..MAX_ORDER, then
    the Poisson bases' rows: the flat (c + h)^2 + y^2 and the cycles of
    cos and cosh at the centres where their odd terms vanish."""
    rng = np.random.default_rng(31)
    for i in range(1500):
        g = rng.normal(size=int(rng.integers(1, MAX_ORDER + 2))) * 10.0 ** rng.integers(-3, 4)
        if i % 3 == 0:
            g[rng.random(g.size) < 0.6] = 0.0
        elif i % 3 == 1:
            g[1::2] = 0.0
        else:
            g[3:] = 0.0
        g[0] = abs(g[0]) + 0.25
        yield g.tolist(), -0.5 * int(rng.integers(2, 17))
    for c in (0.0, 0.5, 3.0, math.pi):
        yield [c * c + 0.09, 2.0 * c, 1.0, *[0.0] * 30], -1.5
        cos, sin = math.cos(c), math.sin(c)
        for cycle in ((math.cosh(c), math.sinh(c)), (cos, -sin, -cos, sin)):
            g = [cycle[j % len(cycle)] / math.factorial(j) for j in range(MAX_ORDER + 1)]
            g[0] += 2.0
            yield g, -2.0


def test_power_skipping_zeros_keeps_every_bit():
    # a skipped product is an exact zero, and a sum that starts at +0.0
    # never becomes -0.0, so even the signs of zeros agree
    for g, alpha in _power_rows():
        got = Jet(0.0, g).power(alpha).coeffs
        want = np.array(_full_power(g, alpha))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# weight jets and the raising operator


@pytest.mark.parametrize("space", list(Space))
def test_weight_jet_matches_weight(space):
    j = weight_jet(space, 0.8, 5)
    assert j.value == pytest.approx(space.weight(0.8), rel=1e-15)
    assert j.derivative(1) == pytest.approx(space.weight_deriv(0.8), rel=1e-14)


@pytest.mark.parametrize("space", list(Space))
def test_raise_operator_once_matches_hand_formula(space):
    got = raise_operator(space, gauss_gen, 1, R0)
    assert got == pytest.approx(D1_EXPECT[space], rel=1e-12)


@pytest.mark.parametrize("space", list(Space))
def test_raise_operator_twice_matches_hand_formula(space):
    got = raise_operator(space, gauss_gen, 2, R0)
    assert got == pytest.approx(D2_EXPECT[space], rel=1e-12)


@pytest.mark.parametrize("space", list(Space))
def test_raise_operator_exact_at_origin(space):
    got = raise_operator(space, gauss_gen, 1, 0.0)
    assert got == pytest.approx(D1_ORIGIN, rel=1e-12)
    got2 = raise_operator(space, gauss_gen, 2, 0.0)
    assert got2 == pytest.approx(D2_ORIGIN[space], rel=1e-12)


def test_raise_operator_zero_applications_is_identity():
    assert raise_operator(Space.EUCLIDEAN, gauss_gen, 0, 1.1) == pytest.approx(
        math.exp(-1.1 * 1.1 / (4.0 * T0)), rel=1e-15
    )


def test_raise_operator_refuses_antipode():
    with pytest.raises(SingularPointError):
        raise_operator(Space.SPHERE, gauss_gen, 1, math.pi)
    with pytest.raises(SingularPointError):
        raise_operator(Space.SPHERE, gauss_gen, 1, math.pi - 1e-12)


def test_raise_operator_order_budget():
    # k applications at the origin need 2k orders; the one cap of 32 leaves
    # the pole jet of n = 15 (k = 7) 18 more, and 17 would exceed it
    assert MAX_ORDER == 32
    with pytest.raises(DomainError):
        raise_operator(Space.EUCLIDEAN, gauss_gen, 17, 0.0)


def test_raise_jet_value_and_derivative_consistent():
    jet = raise_jet(Space.HYPERBOLIC, gauss_gen, 1, R0, 3)
    assert jet.value == pytest.approx(D1_EXPECT[Space.HYPERBOLIC], rel=1e-12)
    h = 1e-6
    up = raise_operator(Space.HYPERBOLIC, gauss_gen, 1, R0 + h)
    down = raise_operator(Space.HYPERBOLIC, gauss_gen, 1, R0 - h)
    assert jet.derivative(1) == pytest.approx((up - down) / (2.0 * h), rel=1e-8)


def test_raise_jet_needs_interior_center():
    with pytest.raises(SingularPointError):
        raise_jet(Space.EUCLIDEAN, gauss_gen, 1, 0.0, 3)


@pytest.mark.parametrize("space", list(Space))
def test_raise_origin_jet_extends_to_nearby_points(space):
    jet = raise_origin_jet(space, gauss_gen, 2, order=8)
    assert jet.value == pytest.approx(D2_ORIGIN[space], rel=1e-12)
    # the even Taylor polynomial tracks direct raising just outside the origin
    for s in (0.02, 0.05):
        direct = raise_operator(space, gauss_gen, 2, s)
        assert jet(s) == pytest.approx(direct, rel=1e-10)


# three heat kernels about one centre, as the quadrature nodes of a panel
# batch them; the single jets are their rows, so both sides raise the same
# coefficients
NODE_TIMES = np.array([0.05, 0.7, 9.0])


def _batch_gen(center: float, order: int) -> Jet:
    return gauss_jet(NODE_TIMES)(center, order)


def _row_gen(i: int):
    return lambda center, order: Jet(center, _batch_gen(center, order).coeffs[i])


@pytest.mark.parametrize("space", list(Space))
def test_batched_origin_jet_matches_its_rows(space):
    # parity projection clears the odd coefficients of every row
    batch = raise_origin_jet(space, _batch_gen, 1, order=2)
    assert batch.coeffs.shape == (len(NODE_TIMES), 3)
    for i in range(len(NODE_TIMES)):
        single = raise_origin_jet(space, _row_gen(i), 1, order=2)
        np.testing.assert_array_equal(batch.coeffs[i], single.coeffs)
    assert not batch.coeffs[:, 1].any()


@pytest.mark.parametrize("space", list(Space))
@pytest.mark.parametrize("r", [0.0, 1.0])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_batched_raise_operator_matches_its_rows(space, r, k):
    # up to two raises every recurrence sums at most one nonzero product per
    # coefficient, so the batch and its rows round alike; further raises
    # differ in the order of summation (see the batch tests above)
    got = raise_operator(space, _batch_gen, k, r)
    assert isinstance(got, np.ndarray) and got.shape == NODE_TIMES.shape
    want = [raise_operator(space, _row_gen(i), k, r) for i in range(len(NODE_TIMES))]
    assert all(isinstance(v, float) for v in want)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("r", [0.0, 2.0, 3.0])
@pytest.mark.parametrize("k", [3, 7])
def test_batched_raise_of_gauss_jet_matches_single_times(k, r):
    # gauss_jet of a node array: numpy's exp and power may differ from
    # math's in the last bit, and raising amplifies that by its condition
    # number; near rho = 0.5 at t = 9 seven raises reach 2e-9 (ROADMAP item 1)
    got = raise_operator(Space.HYPERBOLIC, gauss_jet(NODE_TIMES), k, r)
    for t, v in zip(NODE_TIMES, got):
        want = raise_operator(Space.HYPERBOLIC, gauss_jet(t), k, r)
        assert v == pytest.approx(want, rel=1e-13, abs=0.0)


NODE_CENTRES = np.array([0.02, 0.3, 1.0, 2.5])


@pytest.mark.parametrize("space", list(Space))
def test_weight_rows_at_node_centres_match_each_centre(space):
    # closed-form rows against the identity recurrence, centre by centre
    rows = weight_jet(space, NODE_CENTRES, 9).coeffs
    for c, row in zip(NODE_CENTRES, rows):
        np.testing.assert_allclose(row, weight_jet(space, float(c), 9).coeffs, rtol=1e-15, atol=0)


@pytest.mark.parametrize("space", list(Space))
@pytest.mark.parametrize("k", [0, 1, 3])
def test_raise_at_node_centres_matches_each_centre(space, k):
    # the closed-form weights differ from the recurrence's in the last bits,
    # which raising amplifies by its condition number: 2.5e-13 at three
    # raises at r = 0.02, and 1e-5 and 5e-4 at five and seven (ROADMAP item 1)
    got = raise_operator(space, gauss_jet(0.4), k, NODE_CENTRES)
    want = [raise_operator(space, gauss_jet(0.4), k, float(c)) for c in NODE_CENTRES]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("centres", [np.array([0.0, 1.0]), np.array([1.0, math.pi])])
def test_raise_at_node_centres_refuses_the_poles(centres):
    with pytest.raises(DomainError):
        raise_operator(Space.SPHERE, gauss_jet(0.4), 1, centres)


@pytest.mark.parametrize("space", list(Space))
@pytest.mark.parametrize("order", [0, 1, 4])
def test_lowering_the_raised_values_gives_the_jet(space, order):
    # the values of g, Dg, ..., D^K g at a centre determine g's jet there
    values = [raise_operator(space, gauss_gen, j, R0) for j in range(order + 1)]
    got = _lower_jet(space, values, R0)
    np.testing.assert_allclose(got.coeffs, gauss_gen(R0, order).coeffs, rtol=1e-12, atol=0)


def test_raise_origin_jet_order_budget():
    with pytest.raises(DomainError):
        raise_origin_jet(Space.EUCLIDEAN, gauss_gen, 13, order=8)


# ---------------------------------------------------------------------------
# the raise against the Jet-level loop it replaced
#
# The raise runs on coefficient arrays against one weight jet sliced per
# step, and takes the identity jet's sin/cos/sinh/cosh from a reduced
# recurrence.  The reference below is the loop before that: per application
# a fresh weight jet from the general recurrence, a Jet quotient by the
# scalar division loop and a Jet scaling.  Both must agree bit for bit.


def _identity(x0: float, order: int) -> np.ndarray:
    """The coefficients x0, 1, 0, ... of the identity function about x0."""
    return np.array([x0, 1.0, *[0.0] * order][: order + 1])


def _recurrence_circular(x0: float, order: int, hyp: bool) -> tuple:
    """sin and cos (sinh and cosh if hyp) of the identity jet, general recurrence."""
    g = _identity(x0, order)
    s, c = np.empty_like(g), np.empty_like(g)
    sign = 1.0 if hyp else -1.0
    if hyp:
        s[0], c[0] = math.sinh(x0), math.cosh(x0)
    else:
        s[0], c[0] = math.sin(x0), math.cos(x0)
    for k in range(1, g.size):
        dg = np.arange(1, k + 1, dtype=float) * g[1 : k + 1]
        s[k] = np.dot(dg, c[k - 1 :: -1][:k]) / k
        c[k] = sign * np.dot(dg, s[k - 1 :: -1][:k]) / k
    return s, c


def _reference_weight(space: Space, center: float, order: int) -> Jet:
    if space is Space.EUCLIDEAN:
        return Jet(center, _identity(center, order))
    return Jet(center, _recurrence_circular(center, order, space is Space.HYPERBOLIC)[0])


def _reference_quotient(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.ndim == 2 or b.ndim == 2:
        a, b = np.atleast_2d(a, b)
        out = np.empty((max(len(a), len(b)), a.shape[1]))
        out[:, 0] = a[:, 0] / b[:, 0]
        for i in range(1, a.shape[1]):
            dots = np.matmul(b[:, None, 1 : i + 1], out[:, i - 1 :: -1, None])[:, 0, 0]
            out[:, i] = (a[:, i] - dots) / b[:, 0]
        return out
    # a single row takes its sums on Python floats, left to right
    out = []
    for i in range(a.size):
        acc = 0.0
        for j in range(1, i + 1):
            acc += float(b[j]) * out[i - j]
        out.append((float(a[i]) - acc) / float(b[0]))
    return np.array(out)


def _reference_raise(space: Space, jet: Jet, k: int, center: float) -> Jet:
    for _ in range(k):
        d = jet.deriv()
        w = _reference_weight(space, center, d.order)
        if center == 0.0:  # cancel one power of h from both sides
            d, w = Jet(center, d.coeffs[..., 1:]), Jet(center, w.coeffs[..., 1:])
        jet = Jet(center, _reference_quotient(d.coeffs, w.coeffs)) * (-1.0 / (2.0 * math.pi))
    return jet


def _reference_origin_jet(space: Space, gen, k: int, order: int) -> Jet:
    coeffs = gen(0.0, 2 * k + order).coeffs.copy()
    coeffs[..., 1::2] = 0.0
    return _reference_raise(space, Jet(0.0, coeffs), k, 0.0)


def _reference_operator(space: Space, gen, k: int, r: float):
    if k == 0:
        return gen(r, 0).coeffs[..., 0]
    if r == 0.0:
        return _reference_origin_jet(space, gen, k, 0).coeffs[..., 0]
    return _reference_raise(space, gen(r, k), k, r).coeffs[..., 0]


def _outcome(fn, *args):
    """What a call returns, or the type of what it raises."""
    try:
        return np.asarray(fn(*args))
    except (DomainError, ArithmeticError) as exc:
        return type(exc)


def _assert_same(got, want) -> None:
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
    else:
        np.testing.assert_array_equal(got, want)


POISSON_GENS = {
    Space.EUCLIDEAN: euclid._halfplane_jet(0.8),
    Space.SPHERE: sphere._poisson_jet(1, 0.8),
    Space.HYPERBOLIC: hyperbolic._poisson_jet(1, 0.8),
}
GENERATORS = ("gauss", "poisson", "gauss-batch")


def _generator(space: Space, name: str):
    return {"gauss": gauss_gen, "poisson": POISSON_GENS[space], "gauss-batch": _batch_gen}[name]


def _centres(space: Space) -> list:
    far = math.pi - 0.01 if space is Space.SPHERE else 50.0
    return [0.0, 3e-3, 0.5, 1.0, far]


RAISE_CASES = [
    (space, gen, r) for space in Space for gen in GENERATORS for r in _centres(space)
]


@pytest.mark.parametrize("space, gen, r", RAISE_CASES)
def test_raise_operator_matches_jet_level_loop(space, gen, r):
    g = _generator(space, gen)
    cap = MAX_ORDER // 2 if r == 0.0 else MAX_ORDER
    for k in range(cap + 1):
        _assert_same(
            _outcome(raise_operator, space, g, k, r), _outcome(_reference_operator, space, g, k, r)
        )


@pytest.mark.parametrize("space, gen, r", [c for c in RAISE_CASES if c[2] > 0.0])
def test_raise_jet_matches_jet_level_loop(space, gen, r):
    g, order = _generator(space, gen), 2

    def reference(k):
        return _reference_raise(space, g(r, k + order), k, r).coeffs

    for k in range(MAX_ORDER - order + 1):
        got = _outcome(lambda: raise_jet(space, g, k, r, order).coeffs)
        _assert_same(got, _outcome(reference, k))


@pytest.mark.parametrize("space", list(Space))
@pytest.mark.parametrize("gen", GENERATORS)
def test_raise_origin_jet_matches_jet_level_loop(space, gen):
    g, order = _generator(space, gen), 2
    for k in range((MAX_ORDER - order) // 2 + 1):
        got = _outcome(lambda: raise_origin_jet(space, g, k, order).coeffs)
        want = _outcome(lambda: _reference_origin_jet(space, g, k, order).coeffs)
        _assert_same(got, want)


IDENTITY_CENTRES = [
    0.0, -0.0, 5e-324, 1e-310, 1e-300, 3e-3, 0.5, 1.0, -1.2,
    math.pi - 0.01, math.pi, 3.0, 50.0, 300.0, 700.0, 709.7,
]


@pytest.mark.parametrize("hyp", [False, True])
def test_identity_circular_matches_recurrence_bit_for_bit(hyp):
    # the weight rows, sin (sinh) of the identity jet, take a reduced
    # recurrence; the bytes, signed zeros included, are those of the general one
    space = Space.HYPERBOLIC if hyp else Space.SPHERE
    for x0 in IDENTITY_CENTRES:
        for order in range(MAX_ORDER + 1):
            want = _recurrence_circular(x0, order, hyp)[0].tobytes()
            assert np.array(_weight_row(space, x0, order + 1)).tobytes() == want, (x0, order)
            assert weight_jet(space, x0, order).coeffs.tobytes() == want, (x0, order)


def test_identity_sinh_cosh_still_overflow():
    for order in (0, 1, 8):
        with pytest.raises(OverflowError):
            weight_jet(Space.HYPERBOLIC, 711.0, order)


def test_origin_raise_refuses_a_derivative_that_does_not_vanish():
    # parity keeps the derivative's leading coefficient exactly 0 at r = 0,
    # unless an infinite coefficient turns it into nan on the way
    def gen(center, order):
        coeffs = np.zeros(order + 1)
        coeffs[0], coeffs[2] = 1.0, math.inf
        return Jet(center, coeffs)

    for space in Space:
        with pytest.raises(DomainError), np.errstate(invalid="ignore"):
            raise_origin_jet(space, gen, 2)


@pytest.mark.parametrize("space", list(Space))
@pytest.mark.parametrize("gen", ["gauss", "poisson"])
@pytest.mark.parametrize("r", [0.5, 1.0])
def test_single_raise_matches_the_batch_raise(space, gen, r):
    # one jet raises on Python floats, a one-row batch of it on numpy rows;
    # the two sum in other orders, so they agree to rounding
    g = _generator(space, gen)

    def one_row(center, order):
        return Jet(center, g(center, order).coeffs[None, :])

    for k in range(5):
        single = raise_operator(space, g, k, r)
        assert isinstance(single, float)
        assert single == pytest.approx(raise_operator(space, one_row, k, r)[0], rel=1e-13, abs=0.0)
    # the weight row on floats is the general recurrence's, bit for bit
    for order in (0, 1, 4, MAX_ORDER):
        want = _reference_weight(space, r, order).coeffs
        assert np.array(_weight_row(space, r, order + 1)).tobytes() == want.tobytes()
        assert weight_jet(space, r, order).coeffs.tobytes() == want.tobytes()


@pytest.mark.parametrize("space", list(Space))
def test_single_raise_overflow_raises(space):
    # numpy would give inf with a RuntimeWarning; a single raise refuses it
    def gen(center, order):
        return Jet(center, [1.0, 1e308, 1e308])

    with pytest.raises(OverflowError):
        raise_operator(space, gen, 2, 1.0)


# ---------------------------------------------------------------------------
# the raising generators against independent references
#
# Each generator writes its coefficients by a recurrence or in closed form.
# The references are mpmath rows at 40 digits, written once at MAX_ORDER and
# sliced: the Gaussian by its Hermite closed form, the image sum of the
# circle by the same Gaussians on the generator's images, the half-plane
# kernel by its complex partial fraction, and the sphere and hyperbolic
# Poisson bases by the power recurrence in 40-digit arithmetic.  The
# generators round, so they agree to 1e-13 of the largest scaled
# coefficient, the scale l being the generator's length: sqrt(4t), or
# sqrt(y^2 + c^2) for the Poisson bases.

GEN_TIMES = (1e-3, 0.1, 0.9, 9.0, 100.0)
GEN_CENTRES = (0.0, 3e-3, 0.5, 1.0, 3.0, 20.0)
GEN_ORDERS = (0, 1, 8, MAX_ORDER)
GEN_DPS = 40


def _floats(row) -> np.ndarray:
    return np.array([float(a) for a in row])


def _mp_gauss_row(t, center, amp) -> list:
    """amp exp(-u (c + h)^2), u = 1/4t: a_j = amp e^(-u c^2) H_j(sqrt(u) c)
    (-sqrt(u))^j / j!."""
    root = mpmath.sqrt(1 / (4 * mpmath.mpf(t)))
    x = root * center
    lead = amp * mpmath.exp(-x * x)
    return [
        lead * mpmath.hermite(j, x) * (-root) ** j / mpmath.factorial(j)
        for j in range(MAX_ORDER + 1)
    ]


@functools.cache
def _ref_gauss(t: float, n: int, center: float) -> np.ndarray:
    with mpmath.workdps(GEN_DPS):
        amp = (4 * mpmath.pi * t) ** (-mpmath.mpf(n) / 2)
        return _floats(_mp_gauss_row(t, mpmath.mpf(center), amp))


@functools.cache
def _ref_theta1(t: float, center: float) -> np.ndarray:
    with mpmath.workdps(GEN_DPS):
        amp = (4 * mpmath.pi * t) ** (-mpmath.mpf(1) / 2)
        rows = [
            _mp_gauss_row(t, center + 2 * mpmath.pi * m, amp)
            for m in sphere._image_range(t, center, 1e-10)
        ]
        return _floats([mpmath.fsum(column) for column in zip(*rows)])


@functools.cache
def _ref_halfplane(y: float, center: float) -> np.ndarray:
    """y / (pi ((c + h)^2 + y^2)) = Im 1 / (pi (c + h - iy))."""
    with mpmath.workdps(GEN_DPS):
        z = mpmath.mpc(center, -y)
        return _floats(
            [mpmath.im((-1) ** j / z ** (j + 1)) / mpmath.pi for j in range(MAX_ORDER + 1)]
        )


def _mp_power(g: list, alpha) -> list:
    """The coefficients of (sum_j g_j h^j)^alpha, by the power recurrence."""
    out = [g[0] ** alpha]
    for k in range(1, len(g)):
        acc = mpmath.fsum(((alpha + 1) * i - k) * g[i] * out[k - i] for i in range(1, k + 1))
        out.append(acc / (k * g[0]))
    return out


@functools.cache
def _ref_sphere_poisson(base_dim: int, y: float, center: float) -> np.ndarray:
    """amp (2 cosh y - 2 cos x)^(-half), its base 4 sinh^2(y/2) + 4 sin^2(c/2),
    -2 cos^(j)(c) / j!, ..."""
    with mpmath.workdps(GEN_DPS):
        half = mpmath.mpf(base_dim + 1) / 2
        amp = mpmath.gamma(half) / mpmath.pi**half * mpmath.sinh(y)
        cycle = (-mpmath.cos(center), mpmath.sin(center), mpmath.cos(center), -mpmath.sin(center))
        base = [4 * mpmath.sinh(mpmath.mpf(y) / 2) ** 2 + 4 * mpmath.sin(mpmath.mpf(center) / 2) ** 2]
        base += [2 * cycle[j % 4] / mpmath.factorial(j) for j in range(1, MAX_ORDER + 1)]
        return _floats([amp * a for a in _mp_power(base, -half)])


@functools.cache
def _ref_hyperbolic_poisson(base_dim: int, y: float, center: float) -> np.ndarray:
    """amp (cosh x - cos y)^(-half), its base 2 sin^2(y/2) + 2 sinh^2(c/2),
    cosh^(j)(c) / j!, ..."""
    with mpmath.workdps(GEN_DPS):
        half = mpmath.mpf(base_dim + 1) / 2
        amp = mpmath.gamma(half) / (2 * mpmath.pi) ** half * mpmath.sin(y)
        cycle = (mpmath.cosh(center), mpmath.sinh(center))
        base = [2 * mpmath.sin(mpmath.mpf(y) / 2) ** 2 + 2 * mpmath.sinh(mpmath.mpf(center) / 2) ** 2]
        base += [cycle[j % 2] / mpmath.factorial(j) for j in range(1, MAX_ORDER + 1)]
        return _floats([amp * a for a in _mp_power(base, -half)])


def _gen_cases(family: str) -> list:
    """(generator, its reference row at a centre, centres, length scale at a centre)."""
    on_sphere = [c for c in GEN_CENTRES if c <= math.pi]
    cases = []
    for p in GEN_TIMES:
        gauss_scale = lambda c, p=p: math.sqrt(4.0 * p)
        poisson_scale = lambda c, p=p: math.hypot(p, c)
        if family == "gauss":
            cases += [
                (gauss_jet(p, n), functools.partial(_ref_gauss, p, n), GEN_CENTRES, gauss_scale)
                for n in (1, 6)
            ]
        elif family == "theta1":
            ref = functools.partial(_ref_theta1, p)
            cases.append((sphere._theta1_jet(p, 1e-10), ref, on_sphere, gauss_scale))
        elif family == "halfplane":
            ref = functools.partial(_ref_halfplane, p)
            cases.append((euclid._halfplane_jet(p), ref, GEN_CENTRES, poisson_scale))
        elif family == "sphere poisson":
            cases += [
                (sphere._poisson_jet(d, p), functools.partial(_ref_sphere_poisson, d, p),
                 on_sphere, poisson_scale)
                for d in (1, 2)
            ]
        elif family == "hyperbolic poisson" and p < math.pi:
            # centres up to 1: as cosh grows like exp, the power recurrence
            # sums terms of (1 + half)^j / j! to a result of half^j / j!, and
            # at order 32 the generator is ~5e-13 off mpmath at 3 and ~1e-4
            # at 20, in this scaled measure; the raise takes such orders only
            # at the pole
            cases += [
                (hyperbolic._poisson_jet(d, p), functools.partial(_ref_hyperbolic_poisson, d, p),
                 GEN_CENTRES[:4], poisson_scale)
                for d in (1, 2)
            ]
    return cases


def _assert_scaled_close(got: np.ndarray, want: np.ndarray, scale) -> None:
    powers = np.power.outer(np.asarray(scale, dtype=float), np.arange(want.shape[-1]))
    size = np.max(np.abs(want * powers), axis=-1, keepdims=True)
    assert np.all(np.abs(got - want) * powers <= 1e-13 * size)


@pytest.mark.parametrize("order", GEN_ORDERS)
@pytest.mark.parametrize(
    "family", ["gauss", "theta1", "halfplane", "sphere poisson", "hyperbolic poisson"]
)
def test_generators_match_the_jet_expressions_they_replaced(family, order):
    for new, ref, centres, scale in _gen_cases(family):
        for c in centres:
            got, want = new(c, order), ref(c)[: order + 1]
            assert got.center == c and got.coeffs.shape == want.shape == (order + 1,)
            _assert_scaled_close(got.coeffs, want, scale(c))


def _theta1_image_rows(t: float, tol: float, center: float, order: int) -> np.ndarray:
    """The image-row form that sphere._theta1_jet replaced: the Gaussian
    recurrence on a numpy row an image, the rows summed over axis 0."""
    amp, u = (4.0 * math.pi * t) ** -0.5, 0.25 / t
    ms = sphere._image_range(t, center, tol)
    images = center + 2.0 * math.pi * np.arange(ms.start, ms.stop)
    p, q = -2.0 * u * images, -2.0 * u
    with np.errstate(over="ignore", invalid="ignore"):
        rows = [amp * np.exp(-u * images * images)]
        prev = 0.0
        for j in range(order):
            rows.append((p * rows[j] + q * prev) / (j + 1))
            prev = rows[j]
        return np.stack(rows, axis=-1).sum(axis=0)


# t = 1e-300 overflows the recurrence (inf, nan) at the pole and leaves
# every image 0 elsewhere; at 1e-3 all but the nearest images are 0; at 1e4
# there are 325 images.  From order 1, the least a raise asks, numpy adds
# the rows in order; a single column it sums pairwise
@pytest.mark.parametrize("t", [1e-300, 1e-3, 0.05, 0.9, 9.0, 1e4])
def test_theta1_jet_keeps_the_bits_of_the_image_rows(t):
    for center in (0.0, 1e-12, 1e-3, 0.5, 2.0, math.pi - 1e-3, math.pi):
        for order in (1, 2, 5, 17, MAX_ORDER):
            got = sphere._theta1_jet(t, 1e-10)(center, order).coeffs
            want = _theta1_image_rows(t, 1e-10, center, order)
            assert list(map(repr, got)) == list(map(repr, want)), (center, order)


@pytest.mark.parametrize("order", GEN_ORDERS)
def test_gauss_jet_of_a_time_array_matches_the_jet_expression(order):
    times = np.array(GEN_TIMES)
    for n in (1, 6):
        for c in GEN_CENTRES:
            got = gauss_jet(times, n)(c, order)
            want = np.stack([_ref_gauss(t, n, c)[: order + 1] for t in GEN_TIMES])
            assert got.coeffs.shape == want.shape == (len(times), order + 1)
            _assert_scaled_close(got.coeffs, want, np.sqrt(4.0 * times))


# (space, base dimension, y, centre): the closed Poisson bases at order 32,
# against mpmath's Taylor coefficients of the closed kernel
POISSON_ORACLE_POINTS = [
    (Space.SPHERE, 1, 0.3, 0.5),
    (Space.SPHERE, 2, 0.9, 2.5),
    (Space.HYPERBOLIC, 1, 0.3, 0.0),
    (Space.HYPERBOLIC, 2, 2.0, 1.5),
]


@pytest.mark.parametrize("space, base_dim, y, center", POISSON_ORACLE_POINTS)
def test_poisson_generator_power_matches_mpmath_taylor(space, base_dim, y, center):
    order = MAX_ORDER
    with mpmath.workdps(30):
        half = mpmath.mpf(base_dim + 1) / 2
        y_mp = mpmath.mpf(y)
        if space is Space.SPHERE:
            got = sphere._poisson_jet(base_dim, y)(center, order)
            amp = mpmath.gamma(half) / mpmath.pi**half * mpmath.sinh(y_mp)
            kernel = lambda x: amp * (2 * mpmath.cosh(y_mp) - 2 * mpmath.cos(x)) ** -half
        else:
            got = hyperbolic._poisson_jet(base_dim, y)(center, order)
            amp = mpmath.gamma(half) / (2 * mpmath.pi) ** half * mpmath.sin(y_mp)
            kernel = lambda x: amp * (mpmath.cosh(x) - mpmath.cos(y_mp)) ** -half
        want = np.array([float(a) for a in mpmath.taylor(kernel, mpmath.mpf(center), order)])
    _assert_scaled_close(got.coeffs, want, math.hypot(y, center))
