"""Cross-representation dispatch, subordination, masses, PDE residuals.

Mass laws used as oracles (exact): Euclidean heat and Poisson masses are 1;
sphere heat mass is exp(-(n-1)^2 t/4) and Poisson mass exp(-y(n-1)/2);
hyperbolic heat mass is exp(+(n-1)^2 t/4) (paper convention, 1 in the
markovian one); the strip Poisson mass is (pi-y)/pi for n = 1, finite for
n = 2 (checked against scipy quadrature of the closed form written out
here), and divergent for n >= 3.
"""

import json
import math
import sys
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.integrate import quad

from ckernels import analysis, euclid, hyperbolic, jets, quadrature, sphere
from ckernels.cli import main
from ckernels.errors import ConvergenceError, DomainError, SingularPointError
from ckernels.geometry import CONVENTIONS, KINDS, Space, convention_exponent, spectral_shift


# ---------------------------------------------------------------------------
# dispatch


@pytest.mark.parametrize(
    "space, t, r, rep, outcome",
    [
        # nodes near s = 700 overflow the sinh jet of the descent integrand
        (Space.HYPERBOLIC, 1e-3, 700.0, "descent", 0.0),
        (Space.EUCLIDEAN, 1e-3, 800.0, "raise", 0.0),
        # a 30-digit descent integral (perfbench/make_references.py)
        (Space.HYPERBOLIC, 200.0, 1.0, "descent", 1.1928701104605602e-06),
    ],
)
def test_batched_jet_routes_warn_nothing(space, t, r, rep, outcome):
    # the 4-d heat kernels integrate a batch of jets per quadrature sweep;
    # each point keeps its value within its error and emits no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = analysis.evaluate(space, 4, "heat", t, r, rep=rep)
    assert abs(res.value - outcome) <= res.err_estimate


def test_representation_names():
    assert analysis.representation_names(Space.EUCLIDEAN, "heat") == (
        "closed",
        "raise",
        "descent",
        "gruet",
    )
    assert analysis.representation_names(Space.SPHERE, "heat") == (
        "theta",
        "raise",
        "gruet",
        "spectral",
    )
    assert "subordinate" in analysis.representation_names(Space.SPHERE, "poisson")
    assert "doubling" in analysis.representation_names(Space.SPHERE, "poisson")
    assert "gruet-classic" in analysis.representation_names(Space.HYPERBOLIC, "heat")
    with pytest.raises(DomainError):
        analysis.representation_names(Space.SPHERE, "wave")


def test_evaluate_dispatches_to_closed_forms():
    assert analysis.evaluate(Space.EUCLIDEAN, 3, "heat", 0.8, 1.5).value == (
        euclid.heat_closed(3, 0.8, 1.5)
    )
    assert analysis.evaluate(Space.HYPERBOLIC, 2, "poisson", 0.9, 1.4).value == (
        hyperbolic.poisson_closed(2, 0.9, 1.4)
    )
    got = analysis.evaluate(Space.SPHERE, 2, "heat", 0.7, 1.1, rep="theta").value
    assert got == sphere.heat_theta2(0.7, 1.1).value


def _contour_last(space, kind, t, r):
    """Whether ``auto`` runs the Gruet contour as a last resort: past
    r^2 = 128 t, where its rounding floor exp(r^2/4t) lies above tol."""
    return kind == "heat" and space is not Space.EUCLIDEAN and r * r > 128.0 * t


def _auto_order(space, kind, n, t, r):
    """The rows ``auto`` tries at time or height t and distance r, cheapest
    first, written out independently of the table."""
    if kind == "poisson" or space is Space.EUCLIDEAN:
        return ["closed"]
    if space is Space.SPHERE:
        # the series' floor grows like exp(r^2/4t): below t = 0.1 it is
        # ranked only where that stays under e^6, and never below t = 0.01
        spectral = t >= 0.1 or (t >= 0.01 and r * r <= 24.0 * t)
        order = ["spectral"] if spectral else []
        order += ["theta"] if n <= 3 else []
        order += ["raise"] if n % 2 == 1 and n >= 3 else []
        order += ["gruet"]
        order += ["raise"] if n % 2 == 0 and n >= 4 else []
    else:
        order = ["raise"] if n % 2 == 1 else []
        if t >= 0.5:
            order += ["gruet-classic", "gruet"]
        else:
            # gruet-classic's exp(pi^2/4t) overflows below pi^2/(4 ln DBL_MAX)
            overflows = t < math.pi**2 / (4.0 * math.log(sys.float_info.max))
            order += ["gruet"] if overflows else ["gruet", "gruet-classic"]
        order += [] if n % 2 == 1 else ["descent"]
    if _contour_last(space, kind, t, r):
        order.remove("gruet")
        order.append("gruet")
    return order


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["heat", "poisson"])
@pytest.mark.parametrize("space", list(Space))
def test_evaluate_auto_matches_named_route(space, kind, n):
    # auto returns the first row of its order that meets tol: the cheapest
    # one at these points, but at H^2 (0.05, 1.5), where gruet claims 1.9e-15
    # against tol |v| = 1.73e-15, descent
    r = 1.5
    for param in (0.05, 0.8):
        auto = analysis.evaluate(space, n, kind, param, r)
        for rep in _auto_order(space, kind, n, param, r):
            named = analysis.evaluate(space, n, kind, param, r, rep=rep)
            if named.err_estimate <= quadrature.DEFAULT_TOL * abs(named.value):
                break
        assert (auto.value, auto.err_estimate) == (named.value, named.err_estimate), rep


@pytest.mark.parametrize(
    "space, kind, rep",
    [
        (space, kind, rep)
        for space in Space
        for kind in KINDS
        for rep in analysis.representation_names(space, kind) + ("auto",)
    ],
)
def test_every_row_returns_plain_floats(space, kind, rep):
    # n = 1 reaches the circle rows, n = 2 the wrapped theta2 integral and the
    # even descent; a row refuses the dimensions it does not reach
    param = 0.7 if kind == "heat" else 0.8
    reached = 0
    for n in (1, 2, 3):
        try:
            res = analysis.evaluate(space, n, kind, param, 0.9, rep=rep)
        except DomainError:
            continue
        assert (type(res.value), type(res.err_estimate), type(res.n_evals)) == (float, float, int)
        reached += 1
    assert reached


def _meets(res, tol):
    return res.err_estimate <= max(tol * abs(res.value), sys.float_info.min)


def _recording_walk(space, log):
    """The heat walk of ``space``, each row appending (name, its result or
    exception) to ``log``."""

    def recorded(name, call):
        def wrapped(*args):
            try:
                res = call(*args)
            except Exception as exc:
                log.append((name, exc))
                raise
            log.append((name, res))
            return res

        return wrapped

    rows = tuple(
        (name, admits, recorded(name, call), rank)
        for name, admits, call, rank in analysis._REPRESENTATIONS[(space, "heat")]
    )
    return analysis._walk(space, "heat", rows)


@pytest.mark.parametrize("space", [Space.SPHERE, Space.HYPERBOLIC])
def test_auto_walk_returns_first_row_meeting_tol_or_smallest_err(space, monkeypatch):
    # auto tries the rows in _auto_order and returns one row's own result:
    # the first that meets tol, else the smallest err of the rows that
    # finished; if every row raised, the first row's exception.  A last-resort
    # contour runs only if no earlier row finished
    tol = 1e-10
    log = []
    monkeypatch.setitem(analysis._AUTO, (space, "heat"), _recording_walk(space, log))
    far = 3.1 if space is Space.SPHERE else 50.0
    for n in range(1, 16):
        for t in (1e-3, 0.05, 0.8, 10.0, 100.0):
            for i, r in enumerate((0.0, 0.02, 1.0, far)):
                convention = CONVENTIONS[(n + i) % 2]
                log.clear()
                try:
                    res = analysis.evaluate(space, n, "heat", t, r, tol=tol, convention=convention)
                except (ConvergenceError, SingularPointError, OverflowError) as exc:
                    res = exc
                names = [name for name, _ in log]
                finished = [out for _, out in log if not isinstance(out, Exception)]
                order = _auto_order(space, "heat", n, t, r)
                if _contour_last(space, "heat", t, r) and any(
                    not isinstance(out, Exception) for name, out in log if name != "gruet"
                ):
                    order.remove("gruet")
                where = (n, t, r, convention, names)
                assert names == order[: len(names)], where
                if isinstance(res, Exception):
                    assert names == order and not finished and res is log[0][1], where
                elif _meets(res, tol):
                    assert res is log[-1][1], where
                    assert not any(_meets(out, tol) for out in finished[:-1]), where
                else:
                    assert names == order, where
                    assert not any(_meets(out, tol) for out in finished), where
                    assert any(res is out for out in finished), where
                    assert res.err_estimate == min(out.err_estimate for out in finished), where


@pytest.mark.parametrize(
    "space, n, t, r, answer",
    [
        # the contours claim 3e2 and 4e3 relative here; before the reach
        # they ran first and their results were thrown away
        (Space.HYPERBOLIC, 6, 0.001029, 0.8735, "descent"),
        (Space.SPHERE, 8, 0.001073, 1.137, "raise"),
    ],
)
def test_auto_skips_the_contour_past_its_reach(space, n, t, r, answer, monkeypatch):
    log = []
    monkeypatch.setitem(analysis._AUTO, (space, "heat"), _recording_walk(space, log))
    auto = analysis.evaluate(space, n, "heat", t, r)
    names = [name for name, _ in log]
    assert "gruet" not in names and names[-1] == answer and auto is log[-1][1]
    named = analysis.evaluate(space, n, "heat", t, r, rep=answer)
    assert (auto.value, auto.err_estimate) == (named.value, named.err_estimate)


def test_auto_tries_the_contour_where_every_other_row_raises(monkeypatch):
    # H^3 (1, 800): every row overflows; the contour still runs, last, and
    # the first row's exception is the one raised
    log = []
    space = Space.HYPERBOLIC
    monkeypatch.setitem(analysis._AUTO, (space, "heat"), _recording_walk(space, log))
    with pytest.raises(OverflowError) as caught:
        analysis.evaluate(space, 3, "heat", 1.0, 800.0)
    assert [name for name, _ in log] == ["raise", "gruet-classic", "gruet"]
    assert caught.value is log[0][1]


def test_walk_to_an_absolute_target_keeps_the_cost_order():
    # a contour with a large relative floor can still meet an absolute
    # target, so the S^n subordinate fallback tries it in its cost order:
    # here it claims 7.8e-13, which meets 1e-9 but not 1e-14
    log = []
    walk = _recording_walk(Space.SPHERE, log)
    args = (8, 0.001073, 1.137, 1e-10, "paper")
    for abs_tol, names in ((1e-9, ["gruet"]), (1e-14, ["gruet", "raise"]), (0.0, ["raise"])):
        log.clear()
        res = walk(*args, abs_tol)
        assert [name for name, _ in log] == names and res is log[-1][1], abs_tol


@pytest.mark.parametrize(
    "space, n, rep",
    [
        (Space.SPHERE, 2, "theta"),
        (Space.SPHERE, 5, "raise"),
        (Space.SPHERE, 4, "gruet"),
        (Space.SPHERE, 3, "spectral"),
        (Space.HYPERBOLIC, 3, "raise"),
        (Space.HYPERBOLIC, 4, "descent"),
        (Space.HYPERBOLIC, 5, "gruet"),
        (Space.HYPERBOLIC, 2, "gruet-classic"),
    ],
)
def test_evaluate_conventions(space, n, rep):
    # every curved heat row: the markovian kernel is the paper kernel times
    # exp(convention_exponent), from the same integral or series
    t, r = 0.8, 1.5
    paper = analysis.evaluate(space, n, "heat", t, r, rep=rep)
    markov = analysis.evaluate(space, n, "heat", t, r, rep=rep, convention="markovian")
    factor = math.exp(convention_exponent(space, "markovian", n, t))
    assert markov.value == pytest.approx(paper.value * factor, rel=1e-13)
    assert markov.n_evals == paper.n_evals


def test_evaluate_rejects_unavailable_representations():
    with pytest.raises(DomainError):
        analysis.evaluate(Space.EUCLIDEAN, 2, "heat", 0.5, 1.0, rep="theta")
    with pytest.raises(DomainError):
        analysis.evaluate(Space.SPHERE, 2, "poisson", 0.5, 1.0, rep="integral")
    with pytest.raises(DomainError):
        analysis.evaluate(Space.EUCLIDEAN, 2, "chart", 0.5, 1.0)
    with pytest.raises(DomainError):
        analysis.evaluate(Space.EUCLIDEAN, 2, "poisson", 0.5, 1.0, convention="bogus")
    with pytest.raises(DomainError):
        analysis.evaluate(Space.SPHERE, 2, "poisson", 0.5, 1.0, convention="bogus")
    # the tolerance is validated like the convention, also for closed forms
    for tol in (0.0, -1e-8, 1.0, 1e300, math.nan):
        for rep in ("closed", "descent"):
            with pytest.raises(DomainError):
                analysis.evaluate(Space.EUCLIDEAN, 2, "heat", 0.5, 1.0, rep=rep, tol=tol)


TOL_ENTRIES = {
    "compare": lambda tol: analysis.compare(Space.EUCLIDEAN, 2, "heat", [0.5], [1.0], tol=tol),
    "subordinate": lambda tol: analysis.subordinate(lambda t, r: 1.0, 0.5, 1.0, tol),
    "poisson_images": lambda tol: analysis.poisson_images(3, 0.9, 0.5, tol=tol),
    "heat_mass": lambda tol: analysis.heat_mass(Space.EUCLIDEAN, 2, 0.5, tol=tol),
    "poisson_mass": lambda tol: analysis.poisson_mass(Space.EUCLIDEAN, 2, 0.5, tol=tol),
    "semigroup_check": lambda tol: analysis.semigroup_check(
        Space.EUCLIDEAN, 3, 0.5, 0.5, 1.0, tol=tol
    ),
}


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, 1.0])
@pytest.mark.parametrize("entry", sorted(TOL_ENTRIES))
def test_entry_points_reject_tolerances_outside_the_unit_interval(entry, tol):
    with pytest.raises(DomainError, match="tolerance"):
        TOL_ENTRIES[entry](tol)


def test_spectral_shift_table():
    assert analysis.spectral_shift(Space.EUCLIDEAN, 4) == 0.0
    assert analysis.spectral_shift(Space.SPHERE, 1) == 0.0
    assert analysis.spectral_shift(Space.SPHERE, 2) == -0.25
    assert analysis.spectral_shift(Space.SPHERE, 3) == -1.0
    assert analysis.spectral_shift(Space.HYPERBOLIC, 3) == 1.0
    assert analysis.spectral_shift(Space.HYPERBOLIC, 5) == 4.0


# ---------------------------------------------------------------------------
# subordination


@pytest.mark.parametrize("n", [1, 2, 3])
def test_subordination_closes_on_flat_space(n):
    for y, r in [(0.8, 0.5), (1.5, 2.0)]:
        res = analysis.subordinate(
            lambda ts, s: euclid._heat(np, n, ts, s), y, r, 1e-10, dim_hint=n
        )
        want = euclid.poisson_closed(n, y, r)
        assert res.value == pytest.approx(want, rel=1e-9)
        assert abs(res.value - want) <= max(10.0 * res.err_estimate, 1e-12 * want)


# the scalar-quad benchmark's bands: y from 0.8 to 0.95; r = 0, 0.8-1.2 and 2.7-3
@pytest.mark.parametrize("n", [1, 3, 6, 11, 15])
@pytest.mark.parametrize("y", [0.8, 0.95])
@pytest.mark.parametrize("r", [0.0, 0.8, 1.2, 2.7, 3.0])
def test_euclidean_subordinate_row_meets_the_closed_form(n, y, r):
    res = analysis.evaluate(Space.EUCLIDEAN, n, "poisson", y, r, rep="subordinate")
    want = euclid.poisson_closed(n, y, r)
    assert abs(res.value - want) <= max(res.err_estimate, 1e-10 * abs(res.value))


@pytest.mark.parametrize("n", [1, 3, 6, 11, 15])
@pytest.mark.parametrize("y, r", [(0.8, 0.0), (0.95, 1.2), (0.1, 3.0), (2.5, 0.5)])
def test_vectorized_subordinate_matches_per_node(n, y, r, monkeypatch):
    # the heat function runs once per sweep on the sweep's times; the same
    # integrand evaluated node by node splits the same panels to the same value
    calls, runs = [], []

    def heat(ts, s):
        calls.append(np.size(ts))
        return euclid._heat(np, n, ts, s)

    def recorded(f, *args, **kwargs):
        runs.append((f, args, kwargs))
        return quadrature.integrate_adaptive(f, *args, **kwargs)

    monkeypatch.setattr(analysis, "integrate_adaptive", recorded)
    batched = analysis.subordinate(heat, y, r, dim_hint=n)
    assert sum(calls) == batched.n_evals
    assert len(calls) < batched.n_evals // 15
    [(f, args, kwargs)] = runs
    per_node = quadrature.integrate_adaptive(
        lambda vs: np.array([f(np.array([v]))[0] for v in vs.tolist()]), *args, **kwargs
    ).scaled(2.0 * y / math.sqrt(math.pi))
    assert per_node.n_evals == batched.n_evals
    assert abs(batched.value - per_node.value) <= 1e-15 * abs(per_node.value)


def test_subordinate_validates_height():
    with pytest.raises(DomainError):
        analysis.subordinate(lambda t, s: 1.0, -1.0, 0.5)


@pytest.mark.parametrize("y", [0.8, 1.5])
def test_sphere_subordinate_at_the_pole(y):
    # the image-sum inner heat fails at r = 0 for large t, the spectral one not
    res = analysis.evaluate(Space.SPHERE, 2, "poisson", y, 0.0, rep="subordinate")
    want = sphere.poisson_closed(2, y, 0.0)
    assert res.value == pytest.approx(want, rel=1e-12)
    assert abs(res.value - want) <= res.err_estimate


ANGLES = (0.0, 1.5, math.pi - 0.01, math.pi)
SPHERE_SUBORDINATE_POINTS = [
    (n, y, phi) for n in range(2, 8) for y in (0.1, 0.8, 3.0) for phi in ANGLES
] + [(n, y, phi) for n in (8, 10) for y in (0.8, 3.0) for phi in ANGLES]


@pytest.mark.parametrize("n, y, phi", SPHERE_SUBORDINATE_POINTS)
def test_sphere_subordinate_meets_the_closed_form(n, y, phi):
    res = analysis.evaluate(Space.SPHERE, n, "poisson", y, phi, rep="subordinate")
    want = sphere.poisson_closed(n, y, phi)
    assert abs(res.value - want) <= max(res.err_estimate, 1e-10 * abs(want))


@pytest.mark.parametrize("n, y, phi", [(2, 0.793, 1.504), (3, 0.819, 1.085), (3, 0.88, 0.005)])
def test_sphere_subordinate_claims_tol_with_its_inner_error(n, y, phi, monkeypatch):
    # the nested-quad benchmark's cells: the claim covers the quadrature and
    # the weighted error of the inner series, and stays within tol.  The
    # inner errors never drive the refinement: without them the integral
    # takes the same nodes to the same value, and claims less
    res = analysis.evaluate(Space.SPHERE, n, "poisson", y, phi, rep="subordinate")
    want = sphere.poisson_closed(n, y, phi)
    assert abs(res.value - want) <= res.err_estimate <= 1e-10 * abs(res.value)

    def values_only(f, *args, **kwargs):
        return quadrature.integrate_adaptive(lambda v: f(v)[0], *args, **kwargs)

    monkeypatch.setattr(analysis, "integrate_adaptive", values_only)
    plain = analysis.evaluate(Space.SPHERE, n, "poisson", y, phi, rep="subordinate")
    assert plain.n_evals == res.n_evals
    assert plain.value == pytest.approx(res.value, rel=1e-15)
    assert res.err_estimate > plain.err_estimate


@pytest.mark.parametrize("n, y, phi", [(2, 0.8, 1.5), (5, 0.8, 0.3), (6, 3.0, 2.0)])
def test_sphere_subordinate_sums_one_series_per_sweep(n, y, phi, monkeypatch):
    # one node-array series per quadrature sweep, on all of the sweep's
    # nodes; no heat kernel is evaluated node by node
    sizes = []
    node_series = sphere._spectral_nodes

    def counted(*args):
        series = node_series(*args)

        def call(ts, weights, tol):
            sizes.append(len(ts))
            return series(ts, weights, tol)

        return call

    def per_node(*args, **kwargs):
        raise AssertionError("a heat kernel was evaluated at one node")

    monkeypatch.setattr(sphere, "_spectral_nodes", counted)
    monkeypatch.setitem(analysis._AUTO, (Space.SPHERE, "heat"), per_node)
    monkeypatch.setattr(sphere, "heat_spectral", per_node)
    res = analysis.evaluate(Space.SPHERE, n, "poisson", y, phi, rep="subordinate")
    assert sum(sizes) == res.n_evals
    assert len(sizes) < res.n_evals // 15
    assert abs(res.value - sphere.poisson_closed(n, y, phi)) <= res.err_estimate


def test_a_node_whose_walk_raises_keeps_the_series(monkeypatch):
    # S^6 at y = 0.1: the series' rounding floor sends ~130 nodes to the
    # walk.  Where the walk raises, a node keeps the series' finite value
    # and error, and the claim covers them; a node with no finite value of
    # its own (on S^1 there is no series) raises the walk's error
    walked = []

    def refuse(n, t, *args):
        walked.append(t)
        raise ConvergenceError("refused")

    monkeypatch.setitem(analysis._AUTO, (Space.SPHERE, "heat"), refuse)
    res = analysis.evaluate(Space.SPHERE, 6, "poisson", 0.1, 1.5, rep="subordinate")
    assert walked
    assert abs(res.value - sphere.poisson_closed(6, 0.1, 1.5)) <= res.err_estimate
    with pytest.raises(ConvergenceError, match="refused"):
        analysis.evaluate(Space.SPHERE, 1, "poisson", 0.8, 1.5, rep="subordinate")


def _subordinate_gate():
    """The subordinate rows of the three spaces against their closed forms,
    from heights of 1e-3, where the integrand is a narrow bump far out in v,
    to 2.5, and distances from the pole to 6 (the antipode's edge on S^n)."""
    dims = {Space.EUCLIDEAN: (1, 2, 3, 4, 7), Space.SPHERE: (1, 2, 3, 4, 7),
            Space.HYPERBOLIC: (1, 3, 5, 7)}
    inner_walk = pytest.mark.xfail(
        strict=True,
        reason="S^4 at the pole: the inner auto walk at t < 1e-4 gets gruet's "
        "ContourError, and even-n raise refuses where the pole series "
        "diverges at tiny t (ROADMAP item 1); the node series has no finite "
        "error there to keep",
    )
    cells = []
    for space, ns in dims.items():
        far = math.pi - 0.01 if space is Space.SPHERE else 6.0
        for n in ns:
            for y in (1e-3, 1e-2, 0.1, 0.8, 2.5):
                for r in (0.0, 0.02, 0.5, 2.0, far):
                    known = space is Space.SPHERE and n == 4 and r == 0.0 and y == 1e-3
                    cells.append(pytest.param(space, n, y, r, marks=[inner_walk] if known else []))
    # even H^n, whose inner heat kernel is the auto walk at every node
    cells += [
        pytest.param(Space.HYPERBOLIC, n, y, r)
        for n in (2, 4, 6, 8, 10) for y in (0.8, 2.0) for r in (0.0, 0.5, 1.5)
    ]
    return cells


@pytest.mark.parametrize("space, n, y, r", _subordinate_gate())
def test_subordinate_rows_meet_the_closed_form(space, n, y, r):
    res = analysis.evaluate(space, n, "poisson", y, r, rep="subordinate")
    want = analysis.evaluate(space, n, "poisson", y, r, rep="closed").value
    assert abs(res.value - want) <= max(res.err_estimate, 1e-10 * abs(want))


def test_subordinate_adds_the_weighted_inner_error():
    # (values, errors): the value is the plain integral's, on the same
    # nodes, and the errors, integrated with the same weight, join
    # err_estimate
    n, y, r = 3, 0.8, 0.5
    plain = analysis.subordinate(lambda ts, s: euclid._heat(np, n, ts, s), y, r, dim_hint=n)
    paired = analysis.subordinate(
        lambda ts, s: (euclid._heat(np, n, ts, s), 1e-6 * euclid._heat(np, n, ts, s)),
        y, r, dim_hint=n,
    )
    assert paired.value == pytest.approx(plain.value, rel=1e-15)
    assert paired.n_evals == plain.n_evals
    assert paired.err_estimate - plain.err_estimate == pytest.approx(1e-6 * plain.value, rel=1e-9)


def _brute_force_theta_weight(v: float, y: float) -> float:
    return sum(
        (y + 2.0 * math.pi * k) * math.exp(-v * v * (y + 2.0 * math.pi * k) ** 2)
        for k in range(-60, 61)
    ) * 2.0 / math.sqrt(math.pi)


def test_theta_weight_matches_brute_force_image_sum():
    for v, y in [(0.4, 0.7), (1.1, 2.2), (2.5, 1.0)]:
        want = _brute_force_theta_weight(v, y)
        assert analysis._theta_weight(v, y) == pytest.approx(want, rel=1e-13, abs=1e-250)


def test_theta_weight_branches_agree_across_series_switch():
    # both the image-sum branch (v >= 0.3) and the dual frequency-series
    # branch (v < 0.3) must track the same reference sum
    y = 1.1
    for v in (0.29, 0.299, 0.3, 0.301):
        want = _brute_force_theta_weight(v, y)
        assert analysis._theta_weight(v, y) == pytest.approx(want, rel=1e-12)


def test_theta_weight_on_a_node_array_matches_mpmath():
    # one sweep's nodes: below the cutoff, in the dual series and in the
    # image sum, each series summed out to its slowest node's underflow
    import mpmath

    def reference(v: float, y: float) -> float:
        with mpmath.workdps(40):
            v, y = mpmath.mpf(v), mpmath.mpf(y)
            args = [y + 2 * mpmath.pi * k for k in range(-200, 201)]
            total = sum(a * mpmath.exp(-(v * a) ** 2) for a in args)
            return float(total * 2 / mpmath.sqrt(mpmath.pi))

    vs = np.array([0.05, 0.054, 0.1, 0.2, 0.299, 0.3, 0.7, 2.5, 20.0])
    for y in (1e-3, 1.1, 3.1):
        want = np.array([reference(v, y) if v >= 0.054 else 0.0 for v in vs])
        got = analysis._theta_weight(vs, y)
        assert got.shape == vs.shape and got[0] == 0.0
        # the sums cancel terms of order 1 to a weight of order y
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


def test_theta_weight_negligible_region_is_zero():
    assert analysis._theta_weight(0.05, 1.0) == 0.0
    assert 0.0 < analysis._theta_weight(0.055, 1.0) < 1e-30
    assert analysis._theta_weight(0.1, 1.0) == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("n,y,rho", [(1, 0.9, 1.4), (2, 0.9, 1.4), (3, 2.2, 0.8)])
def test_poisson_images_matches_closed_strip_kernel(n, y, rho):
    res = analysis.poisson_images(n, y, rho, tol=1e-9)
    want = hyperbolic.poisson_closed(n, y, rho)
    assert res.value == pytest.approx(want, rel=1e-8)
    assert abs(res.value - want) <= max(10.0 * res.err_estimate, 1e-11 * want)


@pytest.mark.parametrize(
    "n,rho",
    [(n, rho) for n in (5, 7, 11, 15) for rho in (0.0, 0.5, 3.0)]
    # within the pole's reach, where the batched raise takes the pole jet
    + [(7, 0.005)],
)
def test_poisson_images_odd_n_matches_closed_form(n, rho):
    res = analysis.poisson_images(n, 0.9, rho)
    want = hyperbolic.poisson_closed(n, 0.9, rho)
    assert abs(res.value - want) <= min(5e-14 * want, res.err_estimate)


@pytest.mark.parametrize(
    "n,rho",
    [pytest.param(n, 1.5, id=str(n)) for n in (1, 3, 7)] + [pytest.param(7, 0.005, id="7-0.005")],
)
def test_poisson_images_raises_once_per_panel(monkeypatch, n, rho):
    # odd n, at interior rho and within the pole's reach: one batched raise
    # per integrand call, which carries the 15 nodes of every panel of a
    # quadrature sweep, and no per-node walk
    calls = []
    sizes = []

    def counting(*args):
        calls.append(args)
        return jets.raise_kernel(*args)

    def counted_quadrature(f, *args, **kwargs):
        def g(vs):
            sizes.append(len(vs))
            return f(vs)

        return quadrature.integrate_adaptive(g, *args, **kwargs)

    monkeypatch.setattr(analysis, "raise_kernel", counting)
    monkeypatch.setattr(hyperbolic, "raise_kernel", counting)
    monkeypatch.setattr(analysis, "integrate_adaptive", counted_quadrature)
    res = analysis.poisson_images(n, 0.8, rho)
    assert len(calls) == len(sizes)
    assert sum(sizes) == res.n_evals
    assert all(size % 15 == 0 for size in sizes)


def test_poisson_subordinate_still_overflows_at_large_distance():
    # sinh(800) overflows in the raising weight, for the batch and for every
    # row of the per-node walk
    with pytest.raises(OverflowError):
        analysis.evaluate(Space.HYPERBOLIC, 3, "poisson", 0.8, 800.0, rep="subordinate")


def test_poisson_images_validates_height():
    with pytest.raises(DomainError):
        analysis.poisson_images(2, math.pi, 1.0)


# ---------------------------------------------------------------------------
# masses


def test_heat_mass_euclidean_is_unit():
    for n in (1, 2, 3, 4, 5):
        got = analysis.heat_mass(Space.EUCLIDEAN, n, 0.7).value
        assert abs(got - 1.0) <= 1e-10


def test_heat_mass_sphere_decay_law():
    t = 0.7
    for n, expected in ((1, 1.0), (2, math.exp(-t / 4.0)), (3, math.exp(-t))):
        got = analysis.heat_mass(Space.SPHERE, n, t).value
        assert got == pytest.approx(expected, rel=2e-9)


def test_heat_mass_hyperbolic_growth_law():
    for t in (0.25, 0.5, 1.0, 2.0):
        got = analysis.heat_mass(Space.HYPERBOLIC, 3, t).value
        assert got == pytest.approx(math.exp(t), rel=1e-8)
    markov = analysis.heat_mass(Space.HYPERBOLIC, 3, 0.7, convention="markovian").value
    assert markov == pytest.approx(1.0, rel=1e-8)
    even = analysis.heat_mass(Space.HYPERBOLIC, 2, 0.5).value
    assert even == pytest.approx(math.exp(0.5 / 4.0), rel=1e-7)


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("t", [0.01, 0.7, 2.0])
def test_heat_mass_even_hyperbolic_growth_law(n, t):
    # the auto walk at each node: heat_classic alone cancelled past its
    # budget at H^4 t = 0.01 and overflowed at H^6 t = 2
    got = analysis.heat_mass(Space.HYPERBOLIC, n, t).value
    assert got == pytest.approx(math.exp((n - 1) ** 2 * t / 4.0), rel=1e-9)


def test_heat_mass_sphere_never_uses_the_spectral_series(monkeypatch):
    # the series' mass is exactly its l = 0 term, so the check would test
    # nothing; the cheapest auto row at this t would be the series
    def refuse(*args, **kwargs):
        raise AssertionError("heat_mass called heat_spectral")

    monkeypatch.setattr(sphere, "heat_spectral", refuse)
    t = 0.2
    got = analysis.heat_mass(Space.SPHERE, 4, t, tol=1e-6).value
    assert got == pytest.approx(math.exp(-9.0 * t / 4.0), rel=1e-6)


def test_fit_spectral_shift():
    fit = analysis.fit_spectral_shift(Space.HYPERBOLIC, 3)
    assert fit.shift == pytest.approx(1.0, abs=1e-6)
    assert abs(fit.intercept) < 1e-6
    assert fit.residual < 1e-6
    assert len(fit.masses) == len(fit.t_grid) == 4
    fit2 = analysis.fit_spectral_shift(Space.SPHERE, 2)
    assert fit2.shift == pytest.approx(-0.25, abs=1e-6)
    flat = analysis.fit_spectral_shift(Space.EUCLIDEAN, 2)
    assert abs(flat.shift) < 1e-8


def test_poisson_mass_flat_and_sphere():
    y = 0.9
    for n in (1, 2, 3):
        assert analysis.poisson_mass(Space.EUCLIDEAN, n, y).value == pytest.approx(
            1.0, rel=1e-9
        )
        assert analysis.poisson_mass(Space.SPHERE, n, y).value == pytest.approx(
            math.exp(-0.5 * y * (n - 1)), rel=1e-9
        )


def test_poisson_mass_strip_line():
    for y in (0.5, 0.9, 2.5):
        got = analysis.poisson_mass(Space.HYPERBOLIC, 1, y).value
        assert got == pytest.approx((math.pi - y) / math.pi, rel=1e-9)


def test_poisson_mass_strip_plane_against_scipy():
    y = 0.9
    amp = math.gamma(1.5) / (2.0 * math.pi) ** 1.5 * math.sin(y)

    def integrand(rho):
        return (
            amp
            * (math.cosh(rho) - math.cos(y)) ** -1.5
            * 2.0
            * math.pi
            * math.sinh(rho)
        )

    want, err = quad(integrand, 0.0, 60.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    got = analysis.poisson_mass(Space.HYPERBOLIC, 2, y).value
    assert got == pytest.approx(want, rel=1e-8)


def test_poisson_mass_strip_diverges_in_higher_dimension():
    with pytest.raises(DomainError):
        analysis.poisson_mass(Space.HYPERBOLIC, 3, 0.9)


# ---------------------------------------------------------------------------
# PDE residuals


@pytest.mark.parametrize("space", list(Space))
@pytest.mark.parametrize("kind", ["heat", "poisson"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pde_residual_is_small(space, kind, n):
    param, r = 0.7, 0.9
    res = analysis.pde_residual(space, n, kind, param, r)
    assert res < 1e-6


def test_pde_residual_decreases_at_second_order():
    coarse = analysis.pde_residual(
        Space.EUCLIDEAN, 3, "heat", 0.7, 0.9, h_scale=2e-2
    )
    fine = analysis.pde_residual(Space.EUCLIDEAN, 3, "heat", 0.7, 0.9, h_scale=1e-2)
    assert 3.0 < coarse / fine < 5.0


def test_pde_residual_detects_wrong_shift():
    right = analysis.pde_residual(Space.SPHERE, 3, "heat", 0.7, 0.9)
    wrong = analysis.pde_residual(Space.SPHERE, 3, "heat", 0.7, 0.9, shift=0.0)
    assert right < 1e-6 < 1e-3 < wrong


def test_pde_residual_needs_interior_point():
    with pytest.raises(SingularPointError):
        analysis.pde_residual(Space.EUCLIDEAN, 2, "heat", 0.7, 0.0)


# ---------------------------------------------------------------------------
# cross-representation comparison


def test_compare_flat_heat_grid():
    report = analysis.compare(
        Space.EUCLIDEAN, 2, "heat", (0.5, 2.0), (0.5, 2.0), tol=1e-10
    )
    assert set(report.values) == {"closed", "raise", "descent", "gruet"}
    assert report.worst < 1e-9
    assert report.worst_pair != ()
    assert report.apart == () and report.refused == ()


def test_compare_records_refusals_as_nan():
    report = analysis.compare(
        Space.SPHERE, 3, "heat", (0.7,), (1.1, math.pi), tol=1e-9
    )
    theta_row = report.values["theta"][0]
    assert math.isnan(theta_row[1])  # antipode refused by the image sum
    assert not math.isnan(theta_row[0])
    assert report.refused == (("theta", 0.7, math.pi),)
    assert report.worst < 1e-7  # comparison proceeds on the surviving points


def test_compare_records_convergence_failures_as_nan():
    # H^14 descent refuses at rho = 0 with ConvergenceError (ROADMAP item 1);
    # the report records the refusal and keeps the other point
    report = analysis.compare(Space.HYPERBOLIC, 14, "heat", [0.05], [0.0, 0.5])
    descent = report.values["descent"][0]
    assert math.isnan(descent[0]) and not math.isnan(descent[1])
    assert report.refused == (("descent", 0.05, 0.0),)


def test_compare_rejects_unknown_representations():
    # a misspelled name is an error, not a grid of refused points
    with pytest.raises(DomainError, match="gruett"):
        analysis.compare(Space.HYPERBOLIC, 3, "heat", [0.5], [1.0], reps=["raise", "gruett"])


def test_compare_rejects_unknown_convention():
    # checked before the grid: every point refused would be NaN, NaNs are
    # skipped, and the worst disagreement would read 0
    with pytest.raises(DomainError, match="markovain"):
        analysis.compare(
            Space.HYPERBOLIC, 3, "heat", [0.5], [1.0], reps=["raise", "gruet"],
            convention="markovain",
        )


def test_compare_skips_representations_that_do_not_reach_n():
    sphere4 = analysis.compare(Space.SPHERE, 4, "heat", (0.8,), (1.5,), tol=1e-9)
    assert sphere4.reps == ("raise", "gruet", "spectral")
    hyp2 = analysis.compare(Space.HYPERBOLIC, 2, "heat", (0.8,), (1.5,), tol=1e-9)
    assert hyp2.reps == ("descent", "gruet", "gruet-classic")
    assert hyp2.worst < 1e-7


def test_compare_records_overflow_as_a_refusal():
    # OverflowError is one of the failures after which auto tries the next
    # row; compare records it like the others instead of aborting
    report = analysis.compare(Space.HYPERBOLIC, 3, "heat", [1.0], [800.0])
    assert set(report.refused) == {(rep, 1.0, 800.0) for rep in report.reps}
    report = analysis.compare(
        Space.SPHERE, 7, "heat", [95.67], [0.005656], convention="markovian"
    )
    assert ("raise", 95.67, 0.005656) in report.refused
    assert report.values["spectral"][0][0] > 0.0


# ---------------------------------------------------------------------------
# the cross-row grid against its known-bad table

GRID_KEYS = [(space, kind, n) for space in Space for kind in KINDS for n in analysis._GRID_NS]


@pytest.fixture(scope="module")
def grid_reports():
    return {key: analysis._grid_report(*key) for key in GRID_KEYS}


def _key_id(key):
    space, kind, n = key
    return f"{space.value}-{kind}-{n}"


@pytest.mark.parametrize("key", GRID_KEYS, ids=_key_id)
def test_grid_rows_agree_within_their_error_bars_but_for_the_table(grid_reports, key):
    check = analysis._grid_check(grid_reports[key])
    assert check.passed, check.detail
    assert (check.value, check.threshold, check.detail) == (0.0, 0.0, "")


def _table_entries():
    """Every listed cell, as (table, key, param, r)."""
    return [
        (table, key, p, r)
        for table in (analysis._KNOWN_APART, analysis._KNOWN_REFUSED)
        for key, cells in table.items()
        for p, rs in cells.items()
        for r in rs
    ]


def _without(table, key, p, r):
    """A copy of table[key] without the cell (p, r)."""
    cells = {q: tuple(s for s in rs if (q, s) != (p, r)) for q, rs in table[key].items()}
    return {q: rs for q, rs in cells.items() if rs}


def test_grid_check_fails_without_any_one_table_entry(grid_reports, monkeypatch):
    entries = _table_entries()
    assert len(entries) == 45 + 19
    for table, key, p, r in entries:
        with monkeypatch.context() as m:
            m.setitem(table, key, _without(table, key, p, r))
            check = analysis._grid_check(grid_reports[key[:3]])
        assert not check.passed and check.value == 1.0, (key, p, r)
        cell = f"({p:g}, {r:g})"
        assert check.detail.startswith(cell), (key, check.detail)
        assert ("refuses" if len(key) == 4 else "apart") in check.detail
        assert (key[3] if len(key) == 4 else "raise") in check.detail


@pytest.mark.parametrize("table, key", [
    (analysis._KNOWN_APART, (Space.EUCLIDEAN, "heat", 2)),
    (analysis._KNOWN_REFUSED, (Space.EUCLIDEAN, "heat", 2, "raise")),
], ids=["apart", "refused"])
def test_grid_check_fails_on_an_entry_that_agrees(grid_reports, monkeypatch, table, key):
    # as xfail(strict=True): a listed failure that is gone fails the check
    monkeypatch.setitem(table, key, {0.9: (1.5,)})
    check = analysis._grid_check(grid_reports[key[:3]])
    assert not check.passed and check.value == 1.0
    assert check.detail.startswith("(0.9, 1.5) ")
    assert ("answers" if len(key) == 4 else "agrees") in check.detail


def test_grid_table_entries_lie_on_the_grid(grid_reports):
    # an entry off the grid, or for a row that does not run, could never
    # be matched, and would hide nothing
    for table, key, p, r in _table_entries():
        space, kind, n = key[:3]
        assert n in analysis._GRID_NS, key
        assert p in analysis._grid_params(space, kind), (key, p)
        assert r in analysis._GRID_RS, (key, r)
        if len(key) == 4:
            assert key[3] in grid_reports[key[:3]].reps, key


def test_validate_exits_1_and_names_the_cell_the_table_misses(grid_reports, monkeypatch):
    monkeypatch.setattr(analysis, "_grid_report", lambda *key: grid_reports[key])
    key = (Space.SPHERE, "heat", 4)
    monkeypatch.setitem(analysis._KNOWN_APART, key, {})
    res = CliRunner().invoke(main, ["validate", "--suite", "representations"])
    assert res.exit_code == 1, res.output
    checks = json.loads(res.output)["checks"]
    assert len(checks) == len(GRID_KEYS) + 3
    failed = [c for c in checks if not c["passed"]]
    assert [c["name"] for c in failed] == ["rows within their error bars: sphere heat n=4"]
    assert failed[0]["detail"].startswith("(9, 3) ") and "raise" in failed[0]["detail"]
    res = CliRunner().invoke(main, ["validate", "--suite", "representations", "--format", "text"])
    assert res.exit_code == 1
    fails = [line for line in res.output.splitlines() if line.startswith("[FAIL]")]
    assert len(fails) == 1 and "sphere heat n=4" in fails[0] and "(9, 3)" in fails[0]


# ---------------------------------------------------------------------------
# semigroup

# the semigroup suite's calls: (space, n, tol) at t = 0.5, s = 0.9, r = 1.1
SEMIGROUP_POINTS = [
    (Space.EUCLIDEAN, 1, 1e-9),
    (Space.EUCLIDEAN, 3, 1e-9),
    (Space.HYPERBOLIC, 3, 1e-7),
]


def test_semigroup_flat():
    for n in (1, 3):
        res = analysis.semigroup_check(Space.EUCLIDEAN, n, 0.5, 0.9, 1.1)
        assert res.rel_deviation < 1e-8
        assert res.direct > 0.0 and res.n_evals > 0


def test_semigroup_hyperbolic():
    res = analysis.semigroup_check(Space.HYPERBOLIC, 3, 0.5, 0.9, 1.1, tol=1e-7)
    assert res.rel_deviation < 1e-5


def test_semigroup_unsupported_cases():
    with pytest.raises(DomainError):
        analysis.semigroup_check(Space.SPHERE, 1, 0.5, 0.5, 1.0)
    with pytest.raises(DomainError):
        analysis.semigroup_check(Space.EUCLIDEAN, 2, 0.5, 0.5, 1.0)
    # each time is checked, not their sum, and so is the distance
    with pytest.raises(DomainError, match="got -0.5"):
        analysis.semigroup_check(Space.EUCLIDEAN, 1, -0.5, 0.5, 1.0)
    with pytest.raises(DomainError, match="distance"):
        analysis.semigroup_check(Space.HYPERBOLIC, 3, 0.5, 0.5, -1.0)


@pytest.mark.parametrize("space, n", [point[:2] for point in SEMIGROUP_POINTS])
def test_semigroup_where_both_kernels_underflow(space, n):
    # the direct kernel is 0 at r = 100; this divided by zero
    res = analysis.semigroup_check(space, n, 0.5, 0.5, 100.0)
    assert (res.convolution, res.direct, res.rel_deviation) == (0.0, 0.0, 0.0)
    assert math.isfinite(res.err) and res.direct_err == 0.0


def _within_semigroup_bars(res, tol):
    bar = max(res.err, tol * abs(res.convolution)) + max(res.direct_err, tol * abs(res.direct))
    return abs(res.convolution - res.direct) <= bar


@pytest.mark.parametrize("space, n, tol", SEMIGROUP_POINTS)
def test_semigroup_err_meets_the_bar_rule_at_the_suite_points(space, n, tol):
    res = analysis.semigroup_check(space, n, 0.5, 0.9, 1.1, tol=tol)
    assert math.isfinite(res.err) and res.err > 0.0
    assert math.isfinite(res.direct_err)
    assert _within_semigroup_bars(res, tol)


@pytest.mark.parametrize("r", [0.0, 400.0, 700.0])
@pytest.mark.parametrize("space", [Space.HYPERBOLIC, Space.EUCLIDEAN])
def test_semigroup_answers_where_cosh_r_cosh_rho_overflows(space, r):
    # cosh r cosh rho overflows past r + rho = 710: no distance of inf may
    # reach the kernel.  At r = 0 the whole shell lies at distance rho, and
    # no inner integral is taken
    res = analysis.semigroup_check(space, 3, 0.5, 0.5, r)
    assert math.isfinite(res.convolution) and math.isfinite(res.err)
    assert _within_semigroup_bars(res, 1e-8)


@pytest.mark.parametrize("space", [Space.HYPERBOLIC, Space.EUCLIDEAN])
def test_semigroup_far_from_the_origin_meets_its_bars(space):
    # on H^3 the s-kernel over a shell is a spike of width ~e^-(r + rho) in
    # the cosine of the angle, which a first sweep over that cosine misses
    res = analysis.semigroup_check(space, 3, 5.0, 5.0, 30.0, tol=1e-7)
    assert res.direct > 0.0
    assert _within_semigroup_bars(res, 1e-7)


# ---------------------------------------------------------------------------
# nested error budgets


def _inflated(factory, c: float):
    """``factory`` of a sweep's kernel, its errors times c."""

    def make(*args):
        kernel = factory(*args)

        def scaled(s):
            values, errs = kernel(s)
            return values, c * errs

        return scaled

    return make


def _inflated_route(route, c: float):
    """``analysis._route`` whose rows claim c times their errors."""

    def make(*args):
        call = route(*args)

        def scaled(*row_args):
            res = call(*row_args)
            return quadrature.QuadResult(res.value, c * res.err_estimate, res.n_evals)

        return scaled

    return make


# (module, attribute, inflate, the integral's (value, err)); the raise and
# the descent next to a pole, where some nodes take the pole series
NESTED = {
    "H4-descent": (
        hyperbolic, "_raised_at_nodes", _inflated,
        lambda: astuple(hyperbolic.heat_descent(4, 0.1, 0.005))[:2],
    ),
    "S4-raise": (
        sphere, "_raised_at_nodes", _inflated,
        lambda: astuple(sphere.heat_raise(4, 2.0, 3.0))[:2],
    ),
    "S2-heat-mass": (
        analysis, "_route", _inflated_route,
        lambda: astuple(analysis.heat_mass(Space.SPHERE, 2, 0.7))[:2],
    ),
    "H3-semigroup": (
        analysis, "_raised_at_nodes", _inflated,
        lambda: astuple(analysis.semigroup_check(Space.HYPERBOLIC, 3, 0.5, 0.9, 1.1))[:2],
    ),
}


@pytest.mark.parametrize("case", sorted(NESTED))
def test_a_nested_integrals_err_carries_its_integrands_errors(case, monkeypatch):
    # the err is the quadrature's own plus the integral of the integrand's
    # errors: it grows in proportion as they do, and the value stays
    module, name, inflate, integral = NESTED[case]
    original = getattr(module, name)
    found = {}
    for c in (1.0, 10.0, 1000.0):
        monkeypatch.setattr(module, name, inflate(original, c))
        found[c] = integral()
    errs = {c: err for c, (_, err) in found.items()}
    carried = errs[10.0] - errs[1.0]
    assert carried > 0.0
    assert errs[1000.0] - errs[1.0] == pytest.approx(111.0 * carried, rel=1e-3)
    assert found[1000.0][0] == pytest.approx(found[1.0][0], rel=1e-15)


# ---------------------------------------------------------------------------
# subordination sweep


def test_sweep_flat_space_closes_directly():
    report = analysis.subordination_sweep(Space.EUCLIDEAN, 1, tol=1e-9)
    assert len(report.rows) == 1  # n = 1 offers no nonzero shift candidate
    assert report.best.mismatch < 1e-8
    assert report.images_mismatch is None
    plane = analysis.subordination_sweep(Space.EUCLIDEAN, 2, tol=1e-9)
    assert len(plane.rows) == 3  # shifts 0 and +-1/4, one convention
    assert plane.best.extra_shift == 0.0
    assert plane.best.mismatch < 1e-8


def test_sweep_sphere_identifies_paper_convention():
    report = analysis.subordination_sweep(Space.SPHERE, 2, tol=1e-9)
    assert len(report.rows) == 6  # two conventions times three shifts
    assert report.best.convention == "paper"
    assert report.best.extra_shift == 0.0
    assert report.best.mismatch < 1e-7


def test_sweep_hyperbolic_needs_image_closure():
    report = analysis.subordination_sweep(Space.HYPERBOLIC, 3, tol=1e-9)
    # no single subordinated kernel reproduces the periodic strip kernel ...
    assert report.best.mismatch > 1e-3
    # ... but the 2 pi image sum closes it to quadrature accuracy
    assert report.images_mismatch is not None
    assert report.images_mismatch < 1e-8


@pytest.mark.parametrize(
    "space, n, mismatches",
    [
        (
            Space.HYPERBOLIC,
            3,
            [0.1499105811176842] * 2 + [0.5204226242162692] * 2 + [0.7415972831585756, math.inf],
        ),
        (Space.SPHERE, 2, [0.0, 0.0, 0.3207336808949312] + [math.inf] * 3),
    ],
    ids=["H3", "S2"],
)
def test_sweep_integrates_each_rate_once(monkeypatch, space, n, mismatches):
    # (paper, delta) and (markovian, delta - shift) subordinate one kernel,
    # exp(-(delta + shift) t) h: of the 6 candidates 4 are integrated.  The
    # mismatches are those of a sweep that integrated all 6, bit for bit on
    # the machine that recorded them
    ys = []
    subordinate = analysis._subordinate

    def counted(heat, y, *args):
        ys.append(y)
        return subordinate(heat, y, *args)

    monkeypatch.setattr(analysis, "_subordinate", counted)
    report = analysis.subordination_sweep(space, n)
    assert ys.count(0.8) == 4
    assert len(set(ys)) == 2 and len(ys) <= 8
    got = [row.mismatch for row in report.rows]
    assert got == pytest.approx(mismatches, rel=1e-12)
    by_rate, shift = {}, spectral_shift(space, n)
    for row in report.rows:
        rate = row.extra_shift + (shift if row.convention == "markovian" else 0.0)
        assert by_rate.setdefault(rate, (row.mismatch, row.note)) == (row.mismatch, row.note)
    assert len(by_rate) == 4


def test_sweep_hyperbolic_even_n_closes_by_images():
    # the even-n inner heat kernel at t ~ 86 overflowed heat_classic's power
    report = analysis.subordination_sweep(Space.HYPERBOLIC, 6)
    assert report.images_mismatch is not None
    assert report.images_mismatch <= 1e-8


# ---------------------------------------------------------------------------
# validation suites


def test_run_suite_semigroup_passes():
    report = analysis.run_suite("semigroup")
    assert report.passed
    assert len(report.checks) == 3
    d = report.to_dict()
    assert d["suite"] == "semigroup"
    assert d["passed"] is True
    assert {c["name"] for c in d["checks"]} == {c.name for c in report.checks}


def test_run_suite_validation():
    with pytest.raises(DomainError):
        analysis.run_suite("everything")


def test_a_mass_twice_its_bar_off_fails_its_check(monkeypatch):
    heat_mass = analysis.heat_mass

    def off(space, n, t, **kwargs):
        res = heat_mass(space, n, t, **kwargs)
        if (space, n) != (Space.SPHERE, 2):
            return res
        bar = max(res.err_estimate, kwargs["tol"] * abs(res.value))
        return quadrature.QuadResult(res.value + 2.0 * bar, res.err_estimate, res.n_evals)

    monkeypatch.setattr(analysis, "heat_mass", off)
    report = analysis.run_suite("mass")
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["heat mass: sphere n=2"]
    assert failed[0].value == pytest.approx(2.0 * failed[0].threshold, rel=1e-3)


# The thresholds of the fixed-threshold profile "strict", which these checks
# replaced: no check may be looser.  First matching prefix wins.
OLD_STRICT = [
    ("pde residual", 1e-5),
    ("heat mass: euclidean", 1e-10),
    ("heat mass", 1e-9),
    ("fitted shift", 1e-6),
    ("poisson mass", 1e-9),
    ("subordination closes", 1e-8),
    ("subordination sweep", 1e-8),
    ("poisson images close", 1e-5),
    ("semigroup: euclidean", 1e-8),
    ("semigroup: hyperbolic", 1e-4),
]


def test_no_check_is_looser_than_the_old_strict_profile():
    for suite in ("pde", "mass", "subordination", "semigroup"):
        for check in analysis.run_suite(suite).checks:
            strict = next(v for prefix, v in OLD_STRICT if check.name.startswith(prefix))
            assert check.passed and check.value <= check.threshold, check
            assert check.threshold <= strict, check
