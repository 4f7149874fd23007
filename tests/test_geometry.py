"""Model-space geometry: weights, measures, the radial Laplacian, and the
one domain check every kernel entry point shares."""

import inspect
import math

import pytest

from ckernels import analysis, euclid, hyperbolic, sphere
from ckernels.errors import DomainError, SingularPointError
from ckernels.geometry import (
    KINDS,
    KernelQuery,
    Space,
    radial_laplacian,
    space_from_name,
    sphere_surface_coeff,
)
from ckernels.jets import weight_jet


def test_curvature_signs():
    assert Space.EUCLIDEAN.curvature == 0
    assert Space.SPHERE.curvature == 1
    assert Space.HYPERBOLIC.curvature == -1


def test_distance_sup():
    assert Space.SPHERE.distance_sup == math.pi
    assert Space.EUCLIDEAN.distance_sup == math.inf
    assert Space.HYPERBOLIC.distance_sup == math.inf


@pytest.mark.parametrize("r", [0.0, 0.3, 1.7, 3.0])
def test_weights_match_reference_functions(r):
    assert Space.EUCLIDEAN.weight(r) == r
    assert Space.SPHERE.weight(r) == math.sin(r)
    assert Space.HYPERBOLIC.weight(r) == math.sinh(r)
    assert Space.EUCLIDEAN.weight_deriv(r) == 1.0
    assert Space.SPHERE.weight_deriv(r) == math.cos(r)
    assert Space.HYPERBOLIC.weight_deriv(r) == math.cosh(r)


@pytest.mark.parametrize("space", list(Space))
def test_weight_deriv_is_derivative(space):
    h = 1e-6
    for r in (0.4, 1.2, 2.6):
        fd = (space.weight(r + h) - space.weight(r - h)) / (2.0 * h)
        assert space.weight_deriv(r) == pytest.approx(fd, rel=1e-8, abs=1e-8)


def test_validate_distance_rejects_bad_values():
    with pytest.raises(DomainError):
        Space.EUCLIDEAN.validate_distance(-0.1)
    with pytest.raises(DomainError):
        Space.SPHERE.validate_distance(3.2)
    with pytest.raises(DomainError):
        Space.HYPERBOLIC.validate_distance(math.inf)
    # unbounded spaces accept any finite nonnegative distance
    Space.HYPERBOLIC.validate_distance(250.0)
    Space.SPHERE.validate_distance(math.pi)


def test_validate_distance_strict_rejects_singular_points():
    with pytest.raises(SingularPointError):
        Space.EUCLIDEAN.validate_distance(0.0, strict=True)
    with pytest.raises(SingularPointError):
        Space.SPHERE.validate_distance(math.pi, strict=True)
    Space.HYPERBOLIC.validate_distance(1e-12, strict=True)


def test_space_from_name_aliases():
    assert space_from_name("euclidean") is Space.EUCLIDEAN
    assert space_from_name("Flat") is Space.EUCLIDEAN
    assert space_from_name(" rn ") is Space.EUCLIDEAN
    assert space_from_name("sphere") is Space.SPHERE
    assert space_from_name("SN") is Space.SPHERE
    assert space_from_name("hyp") is Space.HYPERBOLIC
    assert space_from_name("hyperbolic") is Space.HYPERBOLIC
    with pytest.raises(DomainError):
        space_from_name("minkowski")


def test_sphere_surface_coeff_known_values():
    # 2 pi^(n/2) / Gamma(n/2): two points, circle length, sphere area, ...
    assert sphere_surface_coeff(1) == pytest.approx(2.0, rel=1e-15)
    assert sphere_surface_coeff(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_surface_coeff(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sphere_surface_coeff(4) == pytest.approx(2.0 * math.pi**2, rel=1e-15)
    with pytest.raises(DomainError):
        sphere_surface_coeff(0)


def test_radial_laplacian_euclid_square():
    # u = r^2 in dimension 3: u'' + (2/r) u' = 2 + 4 = 6 everywhere
    x = weight_jet(Space.EUCLIDEAN, 0.9, 4)
    u = x * x
    out = radial_laplacian(Space.EUCLIDEAN, 3, u)
    assert out.value == pytest.approx(6.0, rel=1e-14)


def test_radial_laplacian_sphere_cosine():
    # u = cos r on S^2: u'' + (cos r / sin r) u' = -2 cos r
    r0 = 0.7
    u = weight_jet(Space.SPHERE, r0, 5).deriv()
    out = radial_laplacian(Space.SPHERE, 2, u)
    assert out.value == pytest.approx(-2.0 * math.cos(r0), rel=1e-13)


def test_radial_laplacian_hyperbolic_exponential():
    # u = cosh r on H^3: u'' + 2 (cosh r / sinh r) u' = cosh r + 2 cosh r = 3 cosh r
    r0 = 1.1
    u = weight_jet(Space.HYPERBOLIC, r0, 5).deriv()
    out = radial_laplacian(Space.HYPERBOLIC, 3, u)
    assert out.value == pytest.approx(3.0 * math.cosh(r0), rel=1e-13)


def test_radial_laplacian_dimension_one_is_plain_second_derivative():
    u = weight_jet(Space.SPHERE, 0.5, 4)
    out = radial_laplacian(Space.EUCLIDEAN, 1, u)
    assert out.value == pytest.approx(-math.sin(0.5), rel=1e-14)


def test_radial_laplacian_rejects_center_zero():
    x = weight_jet(Space.EUCLIDEAN, 0.0, 4)
    u = x * x
    with pytest.raises(SingularPointError):
        radial_laplacian(Space.EUCLIDEAN, 3, u)


def test_radial_laplacian_needs_two_orders():
    u = weight_jet(Space.EUCLIDEAN, 1.0, 1)
    with pytest.raises(DomainError):
        radial_laplacian(Space.EUCLIDEAN, 3, u)


def test_kernel_query_validation():
    q = KernelQuery(Space.SPHERE, 2, "heat", 0.5, 1.0)
    assert q.param == 0.5
    with pytest.raises(DomainError):
        KernelQuery(Space.SPHERE, 0, "heat", 0.5, 1.0)
    with pytest.raises(DomainError):
        KernelQuery(Space.SPHERE, 2, "wave", 0.5, 1.0)
    with pytest.raises(DomainError):
        KernelQuery(Space.SPHERE, 2, "heat", -0.5, 1.0)
    with pytest.raises(DomainError):
        KernelQuery(Space.SPHERE, 2, "heat", 0.5, 3.5)
    with pytest.raises(DomainError):
        KernelQuery(Space.HYPERBOLIC, 2, "poisson", 3.2, 1.0)
    # euclidean poisson has no height ceiling
    KernelQuery(Space.EUCLIDEAN, 2, "poisson", 3.2, 1.0)


# ---------------------------------------------------------------------------
# one input-validation path

SPACE_MODULES = ((Space.EUCLIDEAN, euclid), (Space.SPHERE, sphere), (Space.HYPERBOLIC, hyperbolic))


def _entry_points():
    """(id, space, kind, call(n, param, r), takes n, takes r) per public entry point."""
    points = []
    for space, module in SPACE_MODULES:
        for name, fn in vars(module).items():
            if not (
                name.startswith(("heat_", "poisson_"))
                and inspect.isfunction(fn)
                and fn.__module__ == module.__name__
            ):
                continue
            kind = name.split("_")[0]
            if "n" in inspect.signature(fn).parameters:
                points.append((f"{module.__name__}.{name}", space, kind, fn, True, True))
            else:  # heat_theta1/2/3 fix their own dimension
                call = lambda n, p, r, fn=fn: fn(p, r)
                points.append((f"{module.__name__}.{name}", space, kind, call, False, True))
        for kind in KINDS:
            tag = f"{space.value}-{kind}"
            for rep in analysis.representation_names(space, kind) + ("auto",):
                call = lambda n, p, r, s=space, k=kind, rep=rep: analysis.evaluate(
                    s, n, k, p, r, rep=rep
                )
                points.append((f"evaluate-{tag}-{rep}", space, kind, call, True, True))
            call = lambda n, p, r, s=space, k=kind: KernelQuery(s, n, k, p, r)
            points.append((f"KernelQuery-{tag}", space, kind, call, True, True))
            call = lambda n, p, r, s=space, k=kind: analysis.pde_residual(s, n, k, p, r)
            points.append((f"pde_residual-{tag}", space, kind, call, True, True))
        call = lambda n, p, r, s=space: analysis.heat_mass(s, n, p)
        points.append((f"heat_mass-{space.value}", space, "heat", call, True, False))
        call = lambda n, p, r, s=space: analysis.poisson_mass(s, n, p)
        points.append((f"poisson_mass-{space.value}", space, "poisson", call, True, False))
    points.append(
        ("poisson_images", Space.HYPERBOLIC, "poisson", analysis.poisson_images, True, True)
    )
    return points


def _invalid_inputs(space, kind, takes_n, takes_r):
    """(label, n, param, r) outside the domain, each from a valid (2, 0.8, 0.6)."""
    cases = [("param=-1", 2, -1.0, 0.6), ("param=nan", 2, math.nan, 0.6),
             ("param=inf", 2, math.inf, 0.6)]
    if takes_n:
        cases.append(("n=0", 0, 0.8, 0.6))
    if takes_r:
        cases += [("r=-1", 2, 0.8, -1.0), ("r=nan", 2, 0.8, math.nan)]
        if space is Space.SPHERE:
            cases.append(("r=3.5", 2, 0.8, 3.5))
    if space is Space.HYPERBOLIC and kind == "poisson":
        cases += [("y=pi", 2, math.pi, 0.6), ("y=4", 2, 4.0, 0.6)]
    return cases


@pytest.mark.parametrize(
    "space,kind,call,takes_n,takes_r",
    [pytest.param(*point[1:], id=point[0]) for point in _entry_points()],
)
def test_every_entry_point_rejects_invalid_input(space, kind, call, takes_n, takes_r):
    wrong = []
    for label, n, param, r in _invalid_inputs(space, kind, takes_n, takes_r):
        try:
            call(n, param, r)
        except Exception as exc:  # the class is what is checked
            if type(exc) is not DomainError:
                wrong.append(f"{label}: {type(exc).__name__}: {exc}")
        else:
            wrong.append(f"{label}: returned")
    assert not wrong, wrong
