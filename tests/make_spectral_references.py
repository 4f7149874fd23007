"""Write ``spectral_references.json``: the sphere heat grid of
``tests/test_sphere.py::test_spectral_below_a_tenth_is_within_its_error``.

Run once from the repository root:

    python3 tests/make_spectral_references.py

The grid is the band where ``auto`` ranks the spectral series first below
t = 0.1: n = 1..15, t in [0.01, 0.1), and phi at the pole, halfway to the
edge phi^2 = 24 t, and on that edge (the largest float phi with
phi * phi <= 24 t).  Each value is the Gegenbauer eigenfunction sum of
``perfbench/make_references.py`` (``sphere_heat_spectral``; the Fourier
series on the circle), at a precision raised until the cancellation is
resolved, kept to 30 significant digits in both conventions: "markovian"
is the "paper" value times exp((n-1)^2 t/4).  The 270 cells take a few
seconds.  The file is replaced whole.

    python3 tests/make_spectral_references.py --check 3

recomputes 3 cells, picked by a fixed random seed, and exits 1 unless each
agrees with the file to 1e-20 relative.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

import mpmath as mp

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
from make_references import CROSS_REL, DPS, sphere_heat_spectral  # noqa: E402

OUT = os.path.join(HERE, "spectral_references.json")
DIMS = tuple(range(1, 16))
TIMES = (0.01, 0.015, 0.025, 0.04, 0.065, 0.0999)


def edge(t: float) -> float:
    """The largest float phi with phi * phi <= 24 t."""
    phi = math.sqrt(24.0 * t)
    while phi * phi > 24.0 * t:
        phi = math.nextafter(phi, 0.0)
    return phi


def angles(t: float) -> tuple:
    return (0.0, 0.5 * edge(t), edge(t))


def _references(n: int, t: float, phi: float) -> dict:
    with mp.workdps(DPS):
        paper = sphere_heat_spectral(n, t, phi)
        markovian = paper * mp.exp(mp.mpf(n - 1) ** 2 * mp.mpf(t) / 4)
        return {"paper": mp.nstr(paper, DPS), "markovian": mp.nstr(markovian, DPS)}


def write() -> None:
    cells = [
        {"n": n, "t": t, "phi": phi, **_references(n, t, phi)}
        for n in DIMS
        for t in TIMES
        for phi in angles(t)
    ]
    with open(OUT, "w") as fh:
        json.dump(cells, fh, indent=1)
        fh.write("\n")


def check(count: int) -> int:
    with open(OUT) as fh:
        cells = json.load(fh)
    bad = 0
    for cell in random.Random(0).sample(cells, count):
        fresh = _references(cell["n"], cell["t"], cell["phi"])
        ok = True
        with mp.workdps(DPS):
            for convention, value in fresh.items():
                stored, now = mp.mpf(cell[convention]), mp.mpf(value)
                ok &= abs(now - stored) <= CROSS_REL * abs(stored)
        verdict = "ok" if ok else "DIFFERS"
        print(f"S^{cell['n']} (t={cell['t']}, phi={cell['phi']}): {fresh['paper']} {verdict}")
        bad += not ok
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", type=int, metavar="N", help="recompute N cells and compare")
    args = parser.parse_args()
    if args.check:
        return check(args.check)
    write()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
