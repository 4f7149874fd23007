"""End-to-end acceptance checks for the kernel library.

Each test below covers one numbered acceptance criterion and finishes by
printing a single ``criterion NN: PASS`` line with the measured numbers
(visible with ``pytest -s``); running ``pytest -v tests/test_acceptance.py``
likewise yields exactly one pass/fail line per criterion.  Tolerances are the
contractual ones, not what the implementation happens to achieve.

Contour representations are compared on a reduced grid (t in [0.5, 4],
distance in [0.2, 2.5]): outside it the double-precision cancellation floor
of any vertical-line contour exceeds the stated tolerance, as recorded in the
project ledger.  Non-contour representations use the full stated grids.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from ckernels import Space, analysis, euclid, hyperbolic, raise_operator, sphere
from ckernels.jets import gauss_jet
from ckernels.quadrature import sigma_saddle

# full grids: four geometric times, four linear distances
T_GRID = [0.1, 0.1 * 40.0 ** (1.0 / 3.0), 0.1 * 40.0 ** (2.0 / 3.0), 4.0]
R_GRID = [0.0, 1.0, 2.0, 3.0]
# reduced grid for contour comparisons (see module docstring)
TC_GRID = [0.5, 1.0, 2.0, 4.0]
DC_GRID = [0.2, 0.2 + 2.3 / 3.0, 0.2 + 4.6 / 3.0, 2.5]


def _line(num: int, detail: str) -> None:
    print(f"criterion {num:02d}: PASS — {detail}")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------


def test_01_flat_cross_representation_agreement():
    """All flat-space heat and Poisson representations agree pairwise to 1e-8
    relative on a 4x4 grid, n = 1..5, in under 60 seconds."""
    start = time.monotonic()
    worst = 0.0
    worst_at = None
    for n in range(1, 6):
        heat = analysis.compare(
            Space.EUCLIDEAN, n, "heat", T_GRID, R_GRID,
            reps=("closed", "raise", "descent", "gruet"),
        )
        poisson = analysis.compare(
            Space.EUCLIDEAN, n, "poisson", T_GRID, R_GRID,
            reps=("closed", "integral", "raise", "descent", "subordinate"),
        )
        for rep_report in (heat, poisson):
            if rep_report.worst > worst:
                worst = rep_report.worst
                worst_at = (n, rep_report.kind, rep_report.worst_pair)
    elapsed = time.monotonic() - start
    assert worst <= 1e-8, (worst, worst_at)
    assert elapsed < 60.0
    _line(1, f"max pairwise rel diff {worst:.2e} (at {worst_at}), {elapsed:.1f} s")


def test_02_descent_identity_constant():
    """The dimension-lowering integral reproduces the target kernel with
    multiplicative constant 1: to 1e-9 on flat space, 1e-7 on hyperbolic."""
    worst_flat = 0.0
    for n in range(1, 5):
        for t in T_GRID:
            for r in R_GRID:
                ratio = euclid.heat_descent(n, t, r).value / euclid.heat_closed(n, t, r)
                worst_flat = max(worst_flat, abs(ratio - 1.0))
    assert worst_flat <= 1e-9, worst_flat

    worst_hyp = 0.0
    for n in (2, 4):
        for t in TC_GRID:
            for rho in DC_GRID:
                descent = hyperbolic.heat_descent(n, t, rho).value
                reference = hyperbolic.heat_gruet(n, t, rho).value
                worst_hyp = max(worst_hyp, abs(descent / reference - 1.0))
    assert worst_hyp <= 1e-7, worst_hyp
    _line(2, f"constant-1 deviation: flat {worst_flat:.2e}, hyperbolic {worst_hyp:.2e}")


def test_03_hyperbolic_contour_every_dimension():
    """The fixed-abscissa contour formula matches the exact odd-dimension
    kernels (n = 3, 5) and the even-dimension descent values (n = 2, 4) to
    1e-7 relative; the tunable-abscissa contour does too."""
    worst = 0.0
    for n in (2, 3, 4, 5):
        for t in TC_GRID:
            for rho in DC_GRID:
                if n % 2 == 1:
                    reference = hyperbolic.heat_raise(n, t, rho).value
                else:
                    reference = hyperbolic.heat_descent(n, t, rho).value
                classic = hyperbolic.heat_classic(n, t, rho).value
                tunable = hyperbolic.heat_gruet(n, t, rho).value
                worst = max(worst, _rel(classic, reference), _rel(tunable, reference))
    assert worst <= 1e-7, worst
    _line(3, f"hyperbolic contour vs raise/descent, n=2..5: max rel diff {worst:.2e}")


def test_04_sphere_contour_matches_theta():
    """The spherical contour formula matches the theta-series kernels for
    n = 1, 2, 3 to 1e-7 on phi in [0.2, 2.9]."""
    phis = [0.2 + 2.7 * i / 5.0 for i in range(6)]
    worst = 0.0
    for n in (1, 2, 3):
        for t in (0.25, 0.7, 2.0):
            for phi in phis:
                theta = sphere.heat_theta(n, t, phi).value
                contour = sphere.heat_gruet(n, t, phi).value
                worst = max(worst, _rel(contour, theta))
    assert worst <= 1e-7, worst
    _line(4, f"sphere contour vs theta, n=1..3: max rel diff {worst:.2e}")


def test_05_contour_deformation_invariance():
    """Moving the contour abscissa by +-50% around the default one (the
    saddle point, where it has one) changes each value by less than the
    combined error estimates (one configuration per space)."""
    cases = [
        ("euclidean", euclid.heat_gruet, 3.0, 2, 0.8, 1.5),
        ("sphere", sphere.heat_gruet, 3.0, 2, 0.7, 1.1),
        ("hyperbolic", hyperbolic.heat_gruet, math.pi, 2, 0.8, 1.5),
    ]
    details = []
    for name, gruet, cap, n, t, d in cases:
        sigma = sigma_saddle(n, t, d, cap)
        low = gruet(n, t, d, sigma=0.5 * sigma)
        high = gruet(n, t, d, sigma=1.5 * sigma)
        drift = abs(low.value - high.value)
        budget = low.err_estimate + high.err_estimate
        assert drift <= budget, (name, drift, budget)
        details.append(f"{name} {drift:.1e} <= {budget:.1e}")
    _line(5, "sigma +-50% drift within combined err: " + "; ".join(details))


def test_06_mass_normalization_and_spectral_shift():
    """Kernel masses: flat masses are 1 +- 1e-10 (n <= 5); the hyperbolic
    n=3 heat mass is e^t +- 1e-8 with fitted exponential rate +1 +- 1e-6;
    the circle heat mass is 1 +- 1e-10."""
    worst_flat = 0.0
    for n in range(1, 6):
        for p in (0.5, 2.0):
            worst_flat = max(
                worst_flat,
                abs(analysis.heat_mass(Space.EUCLIDEAN, n, p).value - 1.0),
                abs(analysis.poisson_mass(Space.EUCLIDEAN, n, p).value - 1.0),
            )
    assert worst_flat <= 1e-10, worst_flat

    worst_hyp = 0.0
    for t in (0.25, 0.5, 1.0, 2.0):
        mass = analysis.heat_mass(Space.HYPERBOLIC, 3, t).value
        worst_hyp = max(worst_hyp, abs(mass - math.exp(t)))
    assert worst_hyp <= 1e-8, worst_hyp

    fit = analysis.fit_spectral_shift(Space.HYPERBOLIC, 3)
    assert abs(fit.shift - 1.0) <= 1e-6, fit

    worst_circle = max(
        abs(analysis.heat_mass(Space.SPHERE, 1, t).value - 1.0) for t in (0.5, 2.0)
    )
    assert worst_circle <= 1e-10, worst_circle
    _line(
        6,
        f"mass deviations: flat {worst_flat:.1e}, hyperbolic e^t {worst_hyp:.1e}, "
        f"circle {worst_circle:.1e}; fitted shift {fit.shift:+.8f}",
    )


def test_07_subordination_and_pairing_sweep():
    """Subordinating the flat heat kernel reproduces the closed Poisson
    kernel to 1e-8 (n = 1, 2, 3); the (convention, shift) sweep identifies
    the operator pairing on the curved spaces."""
    worst = 0.0
    for n in (1, 2, 3):
        for y, r in ((0.5, 0.0), (0.9, 1.3), (1.8, 2.5)):
            got = analysis.subordinate(
                lambda ts, s: euclid._heat(np, n, ts, s), y, r, 1e-10, dim_hint=n
            ).value
            worst = max(worst, _rel(got, euclid.poisson_closed(n, y, r)))
    assert worst <= 1e-8, worst

    sweep_s = analysis.subordination_sweep(Space.SPHERE, 2)
    assert sweep_s.best.convention == "paper"
    assert sweep_s.best.extra_shift == 0.0
    assert sweep_s.best.mismatch < 1e-7, sweep_s.best

    sweep_h = analysis.subordination_sweep(Space.HYPERBOLIC, 3)
    assert sweep_h.best.mismatch > 1e-3  # one subordination term is not enough
    assert sweep_h.images_mismatch is not None and sweep_h.images_mismatch < 1e-8
    _line(
        7,
        f"flat subordination max rel {worst:.1e}; sphere pairing = "
        f"({sweep_s.best.convention}, shift {sweep_s.best.extra_shift:+g}) at "
        f"{sweep_s.best.mismatch:.1e}; hyperbolic needs the height-periodized "
        f"sum: single term {sweep_h.best.mismatch:.1e}, with images "
        f"{sweep_h.images_mismatch:.1e}",
    )


def test_08_pde_residuals():
    """With the convention's spectral shift, every implemented kernel
    satisfies its defining equation to 1e-5 max relative residual on an
    interior grid, and the residual drops second-order under step halving."""
    combos = (
        [(Space.EUCLIDEAN, n) for n in range(1, 6)]
        + [(Space.SPHERE, n) for n in range(1, 5)]
        + [(Space.HYPERBOLIC, n) for n in range(1, 5)]
    )
    worst = 0.0
    worst_at = None
    for space, n in combos:
        for kind in ("heat", "poisson"):
            for param in (0.4, 1.0):
                for r in (0.5, 1.2, 2.0):
                    res = analysis.pde_residual(space, n, kind, param, r)
                    if res > worst:
                        worst, worst_at = res, (space.value, n, kind, param, r)
    assert worst <= 1e-5, (worst, worst_at)

    coarse = analysis.pde_residual(Space.EUCLIDEAN, 3, "heat", 0.7, 0.9, h_scale=2e-2)
    fine = analysis.pde_residual(Space.EUCLIDEAN, 3, "heat", 0.7, 0.9, h_scale=1e-2)
    assert 3.0 < coarse / fine < 5.0, (coarse, fine)
    _line(
        8,
        f"max residual {worst:.1e} (at {worst_at}); halving ratio "
        f"{coarse / fine:.2f} (second order)",
    )


def test_09_sphere_poisson_doubling():
    """Both doubled-kernel constructions reproduce the closed spherical
    Poisson kernel to 1e-8 at six (y, phi) points for n = 1, 2, and match
    each other."""
    points = [(0.4, 0.6), (0.4, 1.5), (0.8, 0.9), (0.8, 2.2), (1.5, 0.5), (1.5, 2.6)]
    worst = 0.0
    for n in (1, 2):
        for y, phi in points:
            closed = sphere.poisson_closed(n, y, phi)
            angle = sphere.poisson_doubling(n, y, phi, 1e-10, variant="angle").value
            half = sphere.poisson_doubling(n, y, phi, 1e-10, variant="half").value
            worst = max(
                worst, _rel(angle, closed), _rel(half, closed), _rel(angle, half)
            )
    assert worst <= 1e-8, worst
    _line(9, f"doubling variants vs closed kernel, n=1,2: max rel diff {worst:.2e}")


def test_10_semigroup_property():
    """Convolving kernels composes their times: to 1e-8 on flat n = 1, 3 and
    to 1e-5 on hyperbolic n = 3 (shift-corrected)."""
    flat1 = analysis.semigroup_check(Space.EUCLIDEAN, 1, 0.4, 0.6, 1.1)
    flat3 = analysis.semigroup_check(Space.EUCLIDEAN, 3, 0.5, 0.7, 0.8)
    assert flat1.rel_deviation <= 1e-8, flat1
    assert flat3.rel_deviation <= 1e-8, flat3
    hyp = analysis.semigroup_check(Space.HYPERBOLIC, 3, 0.5, 0.7, 1.0)
    assert hyp.rel_deviation <= 1e-5, hyp
    _line(
        10,
        f"semigroup deviation: flat n=1 {flat1.rel_deviation:.1e}, n=3 "
        f"{flat3.rel_deviation:.1e}; hyperbolic n=3 {hyp.rel_deviation:.1e}",
    )


def test_11_jet_engine_and_suite_runtime():
    """The jet-based raising operator agrees with hand-derived first and
    second applications for all three weights at 12 significant digits, and
    the complete validation suite finishes in under ten minutes."""
    t0, r0 = 0.7, 1.3

    gen = gauss_jet(t0, 0)  # exp(-r^2 / 4 t0)
    g = math.exp(-r0 * r0 / (4.0 * t0))
    gp = -r0 / (2.0 * t0) * g
    gpp = (r0 * r0 / (4.0 * t0 * t0) - 1.0 / (2.0 * t0)) * g
    weights = {
        Space.EUCLIDEAN: (r0, 1.0),
        Space.SPHERE: (math.sin(r0), math.cos(r0)),
        Space.HYPERBOLIC: (math.sinh(r0), math.cosh(r0)),
    }
    four_pi2 = 4.0 * math.pi * math.pi
    worst = 0.0
    for space, (w, wp) in weights.items():
        d1_hand = -gp / (2.0 * math.pi * w)
        d2_hand = gpp / (four_pi2 * w * w) - gp * wp / (four_pi2 * w**3)
        d1 = raise_operator(space, gen, 1, r0)
        d2 = raise_operator(space, gen, 2, r0)
        worst = max(worst, _rel(d1, d1_hand), _rel(d2, d2_hand))
    assert worst <= 1e-12, worst

    report = analysis.run_suite("all")
    assert report.passed, [c.name for c in report.checks if not c.passed]
    assert report.elapsed < 600.0, report.elapsed
    _line(
        11,
        f"jet raising vs hand-derived k=1,2: max rel diff {worst:.1e}; full "
        f"validation suite passed in {report.elapsed:.1f} s",
    )
