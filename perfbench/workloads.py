"""The benchmark's workloads: fixed cells, a frozen variant pool, a seeded pick.

A *cell* fixes everything about a kernel evaluation except the exact
parameter and distance: space, dimension, kind, representation, convention,
and a narrow band for t (or y) and for r.  Each cell owns ``VARIANTS``
concrete points drawn once from the band (the pool); the stored references
in ``references.json`` cover the whole pool.  A run's seed picks one variant
per cell (the first one for the few heavy cells in ``PINNED``) and the
visiting order, so every seed gives a different point set with the same route
mix and nearly the same cost profile, which is what keeps the end-to-end
figures comparable across seeds.

Cells listed as probes are the known ROADMAP item-1 defects: cells where the
library, as of the commit that defined this benchmark, returns a value
outside its claimed error or raises.  They are evaluated once per run,
outside the timed passes, and reported in the run record instead of gating
``correct``, so a fix shows as a probe that starts to pass.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

VARIANTS = 4
SIG_DIGITS = 4

WORKLOADS = ("jet-raise", "scalar-quad", "nested-quad", "auto-sweep")

# Bands for t (heat) or y (poisson), narrow (10-20% wide) so that the seed
# moves the points but barely moves a workload's cost.  The one-value bands
# pin the heaviest cells and the ROADMAP item-1 examples.
PARAM_BANDS = {
    "tiny": (1.0e-3, 1.2e-3),
    "small": (0.09, 0.11),
    "mid": (0.8, 0.95),
    "large": (8.0, 9.5),
    "huge": (85.0, 100.0),
    "pin": (0.79, 0.81),
    "t1": (1.0, 1.0),
    "t20": (20.0, 20.0),
    "t50": (50.0, 50.0),
    "t100": (100.0, 100.0),
}
# On the hyperbolic strip y < pi, so the top bands are pulled inside (0, pi).
STRIP_BANDS = {"large": (2.0, 2.2), "huge": (2.9, 3.1)}

DIST_BANDS = {
    "zero": (0.0, 0.0),
    "guard": (2e-3, 8e-3),  # inside the 1e-2 raising guard band
    "interior": (0.8, 1.2),
    "far": (2.7, 3.0),
    "antipode": (math.pi - 8e-3, math.pi - 2e-3),
    "huge": (200.0, 800.0),
    "pin": (1.49, 1.51),
    "r0.02": (0.02, 0.02),
    "r0.05": (0.05, 0.05),
    "r1": (1.0, 1.0),
    "r800": (800.0, 800.0),
}


@dataclass(frozen=True)
class Point:
    space: str
    n: int
    kind: str
    rep: str
    convention: str
    param: float
    r: float

    @property
    def key(self) -> str:
        return "|".join(
            (self.space, str(self.n), self.kind, self.rep, self.convention,
             repr(self.param), repr(self.r))
        )

    @property
    def route(self) -> tuple:
        return (self.space, self.kind, self.rep)


@dataclass(frozen=True)
class Cell:
    space: str
    n: int
    kind: str
    rep: str
    param_band: str
    dist_band: str
    convention: str = "paper"

    @property
    def name(self) -> str:
        return (f"{self.space}|{self.n}|{self.kind}|{self.rep}|{self.convention}"
                f"|{self.param_band}|{self.dist_band}")

    def variants(self) -> list:
        """The cell's frozen pool, drawn from a generator keyed by its name."""
        rng = random.Random(self.name)
        lo, hi = PARAM_BANDS[self.param_band]
        if self.space == "hyperbolic" and self.kind == "poisson":
            lo, hi = STRIP_BANDS.get(self.param_band, (lo, hi))
        dlo, dhi = DIST_BANDS[self.dist_band]
        out = []
        for _ in range(VARIANTS):
            param = _round(math.exp(rng.uniform(math.log(lo), math.log(hi))))
            r = _round(rng.uniform(dlo, dhi)) if dhi > 0.0 else 0.0
            out.append(Point(self.space, self.n, self.kind, self.rep,
                             self.convention, param, r))
        return out


def _round(x: float) -> float:
    return float(f"{x:.{SIG_DIGITS - 1}e}")


def _grid(space, kind, rep, dims, dist_bands, param_bands=("mid",)):
    return [Cell(space, n, kind, rep, pb, db)
            for n in dims for db in dist_bands for pb in param_bands]


ODD = range(1, 16, 2)
EVEN = range(2, 15, 2)
ALL_N = range(1, 16)


def _jet_raise() -> list:
    """Pure-jet routes: the raising recursion with no integral anywhere."""
    near = ("zero", "guard", "interior", "far")
    return (
        _grid("euclidean", "heat", "raise", ODD, near)
        + _grid("sphere", "heat", "raise", range(3, 16, 2),
                ("zero", "guard", "interior", "antipode"))
        + _grid("hyperbolic", "heat", "raise", ODD, near)
        + _grid("euclidean", "poisson", "raise", ODD, near)
        + _grid("sphere", "poisson", "raise", ALL_N,
                ("zero", "guard", "interior", "antipode"))
        + _grid("hyperbolic", "poisson", "raise", ALL_N, near)
    )


def _scalar_quad() -> list:
    """Single-level quadrature with float integrands and no jets."""
    three = ("zero", "interior", "far")
    return (
        _grid("euclidean", "heat", "gruet", (1, 2, 3, 5, 8, 12, 15), three, ("small", "mid"))
        + _grid("sphere", "heat", "gruet", (2, 3, 4, 6, 9, 13), ("interior", "far"))
        + _grid("hyperbolic", "heat", "gruet", (2, 3, 4, 7, 10, 15), three)
        + _grid("hyperbolic", "heat", "gruet-classic", (2, 4, 6, 9, 13), three)
        + _grid("sphere", "heat", "theta", (2,), ("guard", "interior", "far"),
                ("small", "mid", "large"))
        + _grid("euclidean", "heat", "descent", (1, 2, 4, 7, 11, 15), three)
        + _grid("euclidean", "poisson", "integral", (1, 3, 6, 10, 15), three)
        + _grid("euclidean", "poisson", "descent", (1, 2, 5, 9, 14), three)
        + _grid("hyperbolic", "poisson", "descent", (1, 2, 5, 9, 14), three)
        + _grid("sphere", "poisson", "doubling", (1, 2, 4, 8, 15),
                ("zero", "interior", "antipode"))
        + _grid("euclidean", "poisson", "subordinate", (1, 3, 6, 11, 15), three)
    )


def _nested_quad() -> list:
    """Jet-valued integrands and integrals nested inside integrands."""
    return (
        _grid("sphere", "heat", "raise", range(4, 15, 2), ("interior", "far"), ("tiny",))
        + _grid("hyperbolic", "heat", "descent", EVEN, ("guard", "interior", "far"),
                ("small",))
        + _grid("euclidean", "heat", "raise", EVEN,
                ("zero", "guard", "interior", "far"), ("small",))
        + _grid("euclidean", "heat", "raise", EVEN, ("interior",), ("large",))
        + _grid("euclidean", "poisson", "raise", EVEN, ("zero", "guard", "interior", "far"))
        + _grid("euclidean", "poisson", "raise", EVEN, ("interior", "far"), ("small", "large"))
        + _grid("hyperbolic", "poisson", "subordinate", (1, 3, 5, 7), ("interior",))
        # the one route that nests an integral in the integrand (~3 s, the
        # heaviest point of any workload), pinned so the seed cannot move the
        # pass time.  H^2 nests the same way at ~7 s a point: with it a pass
        # takes 13 s, too long for enough passes in a run, so it is left out.
        + _grid("sphere", "poisson", "subordinate", (2,), ("pin",), ("pin",))
        + _grid("sphere", "poisson", "subordinate", (3,), ("guard", "interior"))
    )


_SWEEP_PARAMS = ("tiny", "small", "mid", "large", "huge")
_SWEEP_DISTS = {
    "euclidean": ("zero", "guard", "interior", "huge"),
    "sphere": ("zero", "guard", "interior", "antipode"),
    "hyperbolic": ("zero", "guard", "interior", "huge"),
}
_PAIRS = [(s, k) for s in ("euclidean", "sphere", "hyperbolic") for k in ("heat", "poisson")]


def _auto_sweep() -> list:
    """rep="auto" over every (space, kind) and n = 1..15, two regimes each.

    The regimes rotate with n so that every parameter band meets every
    distance band and both conventions across the sweep.
    """
    cells = []
    for p, (space, kind) in enumerate(_PAIRS):
        for n in ALL_N:
            for j in (0, 1):
                pb = _SWEEP_PARAMS[(n + 2 * j + p) % 5]
                db = _SWEEP_DISTS[space][(n + j + p) % 4]
                conv = "markovian" if kind == "heat" and (n + j) % 2 else "paper"
                cells.append(Cell(space, n, kind, "auto", pb, db, conv))
    # the ROADMAP item-1 examples, at their published coordinates
    cells += [
        Cell("hyperbolic", 15, "heat", "auto", "t1", "r0.02"),
        Cell("hyperbolic", 3, "heat", "auto", "t1", "r800"),
        Cell("sphere", 13, "heat", "auto", "t1", "r0.05"),
        Cell("sphere", 6, "heat", "auto", "t50", "r1"),
        Cell("sphere", 4, "heat", "auto", "t20", "r1"),
        Cell("sphere", 8, "heat", "auto", "t100", "r1"),
    ]
    return cells


CELLS = {
    "jet-raise": _jet_raise(),
    "scalar-quad": _scalar_quad(),
    "nested-quad": _nested_quad(),
    "auto-sweep": _auto_sweep(),
}

# Known item-1 defects (ROADMAP open item 1), by cell name, frozen in
# probes.json by find_probes.py.  A probe is evaluated once per run, untimed,
# and reported; one with a variant that took longer than PROBE_CAP_S when it
# was found (mostly a ConvergenceError after seconds of refinement) is listed
# in the record instead of being run again.
PROBE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probes.json")
PROBE_CAP_S = 2.5


def probe_cells(workload: str) -> dict:
    """Probe cell name -> seconds its slowest variant took."""
    with open(PROBE_FILE) as fh:
        return json.load(fh)["probes"][workload]


# Cells that dominate a pass and whose variants differ in cost by 20% or more
# (measured when the benchmark was defined): the seed always takes their
# first variant, so that it moves the cheap points but not the pass time.
PINNED = {
    "nested-quad": (
        "sphere|2|poisson|subordinate|paper|pin|pin",
        "sphere|10|heat|raise|paper|tiny|interior",
        "sphere|8|heat|raise|paper|tiny|interior",
    ),
    "auto-sweep": (
        "sphere|4|heat|auto|paper|small|interior",
        "hyperbolic|14|heat|auto|paper|large|interior",
        "hyperbolic|4|heat|auto|paper|large|zero",
        "sphere|8|heat|auto|paper|tiny|interior",
        "hyperbolic|8|heat|auto|paper|mid|zero",
    ),
}


def pool(workload: str) -> list:
    """Every point the workload can ever run, probes included."""
    return [pt for cell in CELLS[workload] for pt in cell.variants()]


def select(workload: str, seed: int) -> tuple:
    """(timed points in visiting order, probe points to run, slow probe cells)."""
    rng = random.Random(f"{workload}:{seed}")
    probes = probe_cells(workload)
    timed, probe_pts, slow = [], [], []
    pinned = PINNED.get(workload, ())
    for cell in CELLS[workload]:
        pick = rng.randrange(VARIANTS)
        pt = cell.variants()[0 if cell.name in pinned else pick]
        if cell.name not in probes:
            timed.append(pt)
        elif probes[cell.name] <= PROBE_CAP_S:
            probe_pts.append(pt)
        else:
            slow.append(cell.name)
    rng.shuffle(timed)
    return timed, probe_pts, slow
