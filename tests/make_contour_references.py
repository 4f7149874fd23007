"""Write ``contour_references.json``: the large-time hyperbolic heat grid of
``tests/test_hyperbolic.py::test_contours_are_within_their_error_at_large_time``.

Run once from the repository root:

    python3 tests/make_contour_references.py

The grid is n = 2..15, t in {0.9, 9, 30, 50, 100} and rho in {0.5, 1.5},
where the direct raise cancels (ROADMAP item 1).  Each value comes from
``perfbench/make_references.py``: odd n raised from the closed H^3 kernel
(``hyp_heat_odd``, derivatives taken 20 digits above the target), even n
the descent integral of the odd (n+1)-kernel (``hyp_heat_descent``), kept
to 30 significant digits.  The 140 cells take about a minute on one core.
The file is replaced whole.

    python3 tests/make_contour_references.py --check 3

recomputes 3 cells, picked by a fixed random seed, and exits 1 unless each
agrees with the file to 1e-20 relative; it takes a few seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

import mpmath as mp

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
from make_references import CROSS_REL, DPS, hyp_heat_descent, hyp_heat_odd  # noqa: E402

OUT = os.path.join(HERE, "contour_references.json")
DIMS = tuple(range(2, 16))
TIMES = (0.9, 9.0, 30.0, 50.0, 100.0)
RADII = (0.5, 1.5)


def _reference(n: int, t: float, rho: float) -> str:
    with mp.workdps(DPS):
        value = hyp_heat_odd(n, t, rho) if n % 2 else hyp_heat_descent(n, t, rho)
        return mp.nstr(value, DPS, min_fixed=0, max_fixed=0)


def write() -> None:
    cells = [
        {"n": n, "t": t, "rho": rho, "ref": _reference(n, t, rho)}
        for n in DIMS
        for t in TIMES
        for rho in RADII
    ]
    with open(OUT, "w") as fh:
        json.dump(cells, fh, indent=1)
        fh.write("\n")


def check(count: int) -> int:
    with open(OUT) as fh:
        cells = json.load(fh)
    bad = 0
    for cell in random.Random(0).sample(cells, count):
        fresh = _reference(cell["n"], cell["t"], cell["rho"])
        with mp.workdps(DPS):
            stored, now = mp.mpf(cell["ref"]), mp.mpf(fresh)
            ok = abs(now - stored) <= CROSS_REL * abs(stored)
        verdict = "ok" if ok else "DIFFERS"
        print(f"H^{cell['n']} (t={cell['t']}, rho={cell['rho']}): {fresh} {verdict}")
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
