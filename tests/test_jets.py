"""Truncated Taylor jets and the dimension-raising operator.

The raising-operator values are checked against hand-derived formulas,

    D g = -g' / (2 pi w),
    D^2 g = g'' / (4 pi^2 w^2) - g' w' / (4 pi^2 w^3),

evaluated independently at 30-digit precision for g(r) = exp(-r^2/(4 t)),
t = 0.7, r = 1.3, and frozen below at full double precision.
"""

import math

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
    _lower_jet,
    _weight_row,
    gauss_jet,
    raise_jet,
    raise_operator,
    raise_origin_jet,
    variable,
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


def gauss_gen(center: float, order: int) -> Jet:
    x = variable(center, order)
    return (x * x * (-0.25 / T0)).exp()


# ---------------------------------------------------------------------------
# jet arithmetic against library transcendentals


def test_jet_evaluation_matches_polynomial():
    j = Jet(0.0, [1.0, 2.0, 3.0])
    assert j(0.5) == pytest.approx(1.0 + 2.0 * 0.5 + 3.0 * 0.25, rel=1e-15)


@pytest.mark.parametrize("center", [0.0, 0.4, -1.2, 2.0])
def test_transcendental_jets_reproduce_taylor_coefficients(center):
    x = variable(center, 8)
    cases = [
        (x.exp(), math.exp, lambda k: math.exp(center)),
        (x.sin(), math.sin, None),
        (x.cos(), math.cos, None),
        (x.sinh(), math.sinh, None),
        (x.cosh(), math.cosh, None),
    ]
    for jet, fn, _ in cases:
        assert jet.value == pytest.approx(fn(center), rel=1e-15, abs=1e-15)
        # evaluate the truncated series a small step away
        h = 1e-2
        assert jet(h) == pytest.approx(fn(center + h), rel=1e-12, abs=1e-12)


def test_derivative_extraction():
    x = variable(0.5, 6)
    j = x.exp()
    for k in range(5):
        assert j.derivative(k) == pytest.approx(math.exp(0.5), rel=1e-13)


def test_division_and_power_consistency():
    x = variable(0.8, 8)
    f = x.exp() + 1.0
    g = x.cos() + 2.0
    q = f / g
    assert (q * g).coeffs == pytest.approx(f.coeffs, rel=1e-13)
    p = g.power(-1.5)
    assert p.value == pytest.approx((math.cos(0.8) + 2.0) ** -1.5, rel=1e-14)


def test_sqrt_jet():
    x = variable(0.3, 7)
    s = x.sqrt()
    assert s.value == pytest.approx(math.sqrt(0.3), rel=1e-15)
    assert s.derivative(1) == pytest.approx(0.5 / math.sqrt(0.3), rel=1e-13)


def test_log_exp_roundtrip():
    x = variable(0.6, 8)
    f = x.cosh() + 0.5
    back = f.log().exp()
    assert back.coeffs == pytest.approx(f.coeffs, rel=1e-12)


def test_deriv_antideriv_roundtrip():
    x = variable(0.9, 8)
    f = x.sin() * x.exp()
    g = f.deriv().antideriv(f.value)
    assert g.coeffs == pytest.approx(f.coeffs, rel=1e-14)


def test_scalar_coercion_keeps_order():
    x = variable(0.5, 6)
    f = x.exp()
    assert (f + 1.0).order == 6
    assert (2.0 * f).order == 6
    assert (1.0 / (f + 2.0)).order == 6


def test_zero_leading_division_rejected():
    num = variable(1.0, 4)
    den = Jet(1.0, [0.0, 1.0, 0.5])
    with pytest.raises(DomainError):
        num / den


def test_order_cap_enforced():
    with pytest.raises(DomainError):
        variable(0.0, MAX_ORDER + 1)
    # float64 arrays skip coercion, not the shape and order checks
    with pytest.raises(DomainError):
        Jet(0.0, np.zeros(MAX_ORDER + 2))
    with pytest.raises(DomainError):
        Jet(0.0, np.zeros((2, 0)))


# ---------------------------------------------------------------------------
# batches: one coefficient row per node


def _per_node_close(batch: Jet, singles: list) -> None:
    """Each row of ``batch`` equals its per-node jet, 1e-14 relative in max norm."""
    assert batch.coeffs.shape == (len(singles), singles[0].order + 1)
    for row, single in zip(batch.coeffs, singles):
        scale = np.max(np.abs(single.coeffs))
        assert np.max(np.abs(row - single.coeffs)) <= 1e-14 * scale


# (name, batch operation, per-node operation); ``w`` is the node array and
# ``wi`` its value at one node, ``g`` a single jet about the same centre
_UNARY = [
    ("neg", lambda f: -f),
    ("exp", lambda f: f.exp()),
    ("log", lambda f: f.log()),
    ("sin", lambda f: f.sin()),
    ("cos", lambda f: f.cos()),
    ("sinh", lambda f: f.sinh()),
    ("cosh", lambda f: f.cosh()),
    ("sqrt", lambda f: f.sqrt()),
    ("power", lambda f: f.power(-1.7)),
    ("int power", lambda f: f**3),
    ("negative int power", lambda f: f**-2),
    ("deriv", lambda f: f.deriv() if f.order else f),
    ("antideriv", lambda f: f.antideriv(0.3)),
    ("truncate", lambda f: f.truncate(f.order // 2)),
]
_BINARY = [
    ("jet + scalar", lambda f, g, w: f + 0.7, lambda f, g, wi: f + 0.7),
    ("scalar - jet", lambda f, g, w: 0.7 - f, lambda f, g, wi: 0.7 - f),
    ("jet * scalar", lambda f, g, w: f * -1.3, lambda f, g, wi: f * -1.3),
    ("scalar / jet", lambda f, g, w: 2.0 / f, lambda f, g, wi: 2.0 / f),
    ("jet / scalar", lambda f, g, w: f / 3.0, lambda f, g, wi: f / 3.0),
    ("jet + nodes", lambda f, g, w: f + w, lambda f, g, wi: f + wi),
    ("nodes - jet", lambda f, g, w: w - f, lambda f, g, wi: wi - f),
    ("nodes * jet", lambda f, g, w: w * f, lambda f, g, wi: wi * f),
    ("jet / nodes", lambda f, g, w: f / w, lambda f, g, wi: f / wi),
    ("nodes / jet", lambda f, g, w: w / f, lambda f, g, wi: wi / f),
    ("batch + jet", lambda f, g, w: f + g, lambda f, g, wi: f + g),
    ("jet - batch", lambda f, g, w: g - f, lambda f, g, wi: g - f),
    ("batch * jet", lambda f, g, w: f * g, lambda f, g, wi: f * g),
    ("jet * batch", lambda f, g, w: g * f, lambda f, g, wi: g * f),
    ("batch / jet", lambda f, g, w: f / (g + 2.0), lambda f, g, wi: f / (g + 2.0)),
    ("jet / batch", lambda f, g, w: g / f, lambda f, g, wi: g / f),
    ("batch * batch", lambda f, g, w: f * (g + w), lambda f, g, wi: f * (g + wi)),
    ("batch / batch", lambda f, g, w: (g + w) / f, lambda f, g, wi: (g + wi) / f),
]

tail = st.floats(min_value=-0.25, max_value=0.25, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=8).flatmap(
        lambda k: st.tuples(
            st.lists(tail, min_size=k, max_size=k),
            st.lists(tail, min_size=k, max_size=k),
        )
    ),
    st.lists(st.floats(min_value=0.5, max_value=0.8), min_size=1, max_size=5),
    st.floats(min_value=-1.0, max_value=1.0),
)
def test_batched_operations_match_per_node(tails, leading, center):
    """A batch runs each operation's recurrence on all rows at once.

    Its row dot products sum in order, where a single jet's np.dot may not,
    so the two agree to rounding amplified by the recurrence.  Leading values
    in [0.5, 0.8] and tails within 0.25 keep every operation well conditioned
    (|c_j / c_0| <= 1/2); near a leading value of 0.1 the two orders of
    summation of 1/f^2 differ by up to 1e-13.
    """
    # rows f_i = base + w_i, with leading values w_i inside every domain
    base = Jet(center, [0.0] + tails[0])
    g = Jet(center, [0.5] + tails[1])
    w = np.array(leading)
    batch = base + w
    singles = [base + wi for wi in leading]
    for name, op in _UNARY:
        _per_node_close(op(batch), [op(f) for f in singles])
    for name, op, op1 in _BINARY:
        _per_node_close(op(batch, g, w), [op1(f, g, wi) for f, wi in zip(singles, leading)])
    # an antiderivative may take a different value at each node
    _per_node_close(
        base.antideriv(w), [base.antideriv(wi) for wi in leading]
    )


def test_batch_domain_checks_cover_every_node():
    batch = variable(0.5, 3) + np.array([0.25, -0.75, 0.125])  # one node at -0.25
    for op in (Jet.log, Jet.sqrt, lambda f: f.power(0.5)):
        with pytest.raises(DomainError):
            op(batch)
    with pytest.raises(DomainError):
        1.0 / (batch + 0.25)  # a vanishing leading value at one node


def test_batch_has_no_single_value():
    batch = variable(0.5, 3) + np.array([0.2, 0.4])
    assert batch.order == 3
    with pytest.raises(DomainError):
        batch.value
    with pytest.raises(DomainError):
        batch.derivative(1)
    with pytest.raises(DomainError):
        batch(0.1)


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
    x = variable(center, 8)
    one = x.sin() ** 2 + x.cos() ** 2
    expect = np.zeros(9)
    expect[0] = 1.0
    assert one.coeffs == pytest.approx(expect, abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.2, max_value=2.5))
def test_sqrt_squares_back(center):
    x = variable(center, 8)
    f = x.exp() + 0.3
    s = f.sqrt()
    assert (s * s).coeffs == pytest.approx(f.coeffs, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.1, max_value=2.0), st.floats(min_value=-2.0, max_value=2.0))
def test_power_matches_exp_log(alpha, center_shift):
    x = variable(1.5 + 0.1 * center_shift, 7)
    f = x.cosh()
    direct = f.power(alpha)
    via_log = (f.log() * alpha).exp()
    assert direct.coeffs == pytest.approx(via_log.coeffs, rel=1e-11, abs=1e-11)


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


def _recurrence_circular(x0: float, order: int, hyp: bool) -> tuple:
    """sin and cos (sinh and cosh if hyp) of the identity jet, general recurrence."""
    g = variable(x0, order).coeffs
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
        return variable(center, order)
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
    # the identity jet's sin/cos (sinh/cosh) take a reduced recurrence; the
    # bytes, signed zeros included, are those of the general one
    for x0 in IDENTITY_CENTRES:
        for order in range(MAX_ORDER + 1):
            x = variable(x0, order)
            got = (x.sinh(), x.cosh()) if hyp else (x.sin(), x.cos())
            want = _recurrence_circular(x0, order, hyp)
            for jet, coeffs in zip(got, want):
                assert jet.coeffs.tobytes() == coeffs.tobytes(), (x0, order)


def test_identity_sinh_cosh_still_overflow():
    for order in (0, 1, 8):
        with pytest.raises(OverflowError):
            variable(711.0, order).sinh()
        with pytest.raises(OverflowError):
            variable(711.0, order).cosh()


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
# the raising generators against the Jet expressions they replaced
#
# Each generator writes its coefficients by a recurrence or in closed form.
# The references below are the Jet programs they replaced; the Poisson bases
# take their power through a one-row batch, which runs the numpy recurrence.
# Both sides carry rounding, so they agree to 1e-13 of the largest scaled
# coefficient, the scale l being the generator's length: sqrt(4t), or
# sqrt(y^2 + c^2) for the Poisson bases.

GEN_TIMES = (1e-3, 0.1, 0.9, 9.0, 100.0)
GEN_CENTRES = (0.0, 3e-3, 0.5, 1.0, 3.0, 20.0)
GEN_ORDERS = (0, 1, 8, MAX_ORDER)


def _jet_gauss(t, n: int):
    amp = (4.0 * math.pi * t) ** (-0.5 * n)

    def gen(center, order):
        x = variable(center, order)
        return (x * x * (-0.25 / t)).exp() * amp

    return gen


def _jet_theta1(t: float):
    amp = (4.0 * math.pi * t) ** -0.5

    def gen(center, order):
        x = variable(center, order)
        total = None
        for m in sphere._image_range(t, center, 1e-10):
            shifted = x + 2.0 * math.pi * m
            term = (shifted * shifted * (-0.25 / t)).exp()
            total = term if total is None else total + term
        return total * amp

    return gen


def _jet_halfplane(y: float):
    def gen(center, order):
        x = variable(center, order)
        return (y / math.pi) / (x * x + y * y)

    return gen


def _batch_power(base: Jet, alpha: float) -> Jet:
    """base ** alpha by the numpy recurrence of a one-row batch."""
    return Jet(base.center, Jet(base.center, base.coeffs[None, :]).power(alpha).coeffs[0])


def _jet_sphere_poisson(base_dim: int, y: float):
    half = 0.5 * (base_dim + 1)
    amp = math.gamma(half) / math.pi**half * math.sinh(y)

    def gen(center, order):
        base = variable(center, order).cos() * -2.0
        base.coeffs[0] = 4.0 * math.sin(0.5 * center) ** 2 + 4.0 * math.sinh(0.5 * y) ** 2
        return _batch_power(base, -half) * amp

    return gen


def _jet_hyperbolic_poisson(base_dim: int, y: float):
    half = 0.5 * (base_dim + 1)
    amp = math.gamma(half) / (2.0 * math.pi) ** half * math.sin(y)

    def gen(center, order):
        base = variable(center, order).cosh()
        base.coeffs[0] = 2.0 * math.sinh(0.5 * center) ** 2 + 2.0 * math.sin(0.5 * y) ** 2
        return _batch_power(base, -half) * amp

    return gen


def _gen_cases(family: str) -> list:
    """(generator, its Jet program, centres, length scale at a centre)."""
    on_sphere = [c for c in GEN_CENTRES if c <= math.pi]
    cases = []
    for p in GEN_TIMES:
        gauss_scale = lambda c, p=p: math.sqrt(4.0 * p)
        poisson_scale = lambda c, p=p: math.hypot(p, c)
        if family == "gauss":
            cases += [(gauss_jet(p, n), _jet_gauss(p, n), GEN_CENTRES, gauss_scale) for n in (1, 6)]
        elif family == "theta1":
            cases.append((sphere._theta1_jet(p, 1e-10), _jet_theta1(p), on_sphere, gauss_scale))
        elif family == "halfplane":
            cases.append((euclid._halfplane_jet(p), _jet_halfplane(p), GEN_CENTRES, poisson_scale))
        elif family == "sphere poisson":
            cases += [
                (sphere._poisson_jet(d, p), _jet_sphere_poisson(d, p), on_sphere, poisson_scale)
                for d in (1, 2)
            ]
        elif family == "hyperbolic poisson" and p < math.pi:
            # centres up to 1: as cosh grows like exp, the power recurrence
            # sums terms of (1 + half)^j / j! to a result of half^j / j!, and
            # at order 32 both sides are ~5e-13 off mpmath at 3 and ~1e-4 at
            # 20, in this scaled measure; the raise takes such orders only at
            # the pole
            cases += [
                (hyperbolic._poisson_jet(d, p), _jet_hyperbolic_poisson(d, p), GEN_CENTRES[:4],
                 poisson_scale)
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
    for new, old, centres, scale in _gen_cases(family):
        for c in centres:
            got, want = new(c, order), old(c, order)
            assert got.center == c and got.coeffs.shape == want.coeffs.shape == (order + 1,)
            _assert_scaled_close(got.coeffs, want.coeffs, scale(c))


@pytest.mark.parametrize("order", GEN_ORDERS)
def test_gauss_jet_of_a_time_array_matches_the_jet_expression(order):
    times = np.array(GEN_TIMES)
    for n in (1, 6):
        for c in GEN_CENTRES:
            got, want = gauss_jet(times, n)(c, order), _jet_gauss(times, n)(c, order)
            assert got.coeffs.shape == want.coeffs.shape == (len(times), order + 1)
            _assert_scaled_close(got.coeffs, want.coeffs, np.sqrt(4.0 * times))


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
    import mpmath

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
