"""Write ``hyperbolic_descent_references.json``: the even-n hyperbolic heat
grid of ``tests/test_hyperbolic.py::test_descent_is_within_its_error_against_references``.

Run once from the repository root:

    python3 tests/make_descent_references.py

Each value is ``mpmath.quad`` of the descent integral of
``perfbench/make_references.py`` (``hyp_heat_descent``), kept to 30
significant digits.  The 224 cells take about 5 minutes on one core.  The
file is replaced whole.

    python3 tests/make_descent_references.py --check 3

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
from make_references import CROSS_REL, DPS, hyp_heat_descent  # noqa: E402

OUT = os.path.join(HERE, "hyperbolic_descent_references.json")
DIMS = (2, 4, 6, 8, 10, 12, 14)
TIMES = (0.05, 0.1, 0.3, 0.9)
RADII = (0.0, 1e-4, 1e-3, 0.005, 0.02, 0.05, 0.1, 0.2)


def _reference(n: int, t: float, rho: float) -> str:
    with mp.workdps(DPS):
        return mp.nstr(hyp_heat_descent(n, t, rho), DPS)


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
