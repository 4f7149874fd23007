"""Write ``sphere_raise_references.json``: the even-n sphere heat grid of
``tests/test_sphere.py::test_even_raise_is_within_its_error_or_refuses``.

Run once from the repository root:

    python3 tests/make_sphere_raise_references.py

Each value is the Gegenbauer eigenfunction sum of
``perfbench/make_references.py`` (``sphere_heat_spectral``), at a
precision raised until the cancellation at small t is resolved, rounded to
a float.  The 192 cells take about 3 minutes.  The file is replaced whole.

    python3 tests/make_sphere_raise_references.py --check 3

recomputes 3 cells, picked by a fixed random seed, and exits 1 unless each
rounds to the float stored in the file; it takes under a second.
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
from make_references import DPS, sphere_heat_spectral  # noqa: E402

OUT = os.path.join(HERE, "sphere_raise_references.json")
DIMS = (4, 6, 8, 10, 12, 14)
ANGLES = (0.0, 0.005, 0.02, 0.5, 1.5, 3.0, math.pi - 0.005, math.pi)
TIMES = (1e-3, 0.05, 0.9, 9.0)


def _reference(n: int, t: float, phi: float) -> str:
    with mp.workdps(DPS):
        return repr(float(sphere_heat_spectral(n, t, phi)))


def write() -> None:
    cells = [
        {"n": n, "t": t, "phi": phi, "ref": _reference(n, t, phi)}
        for n in DIMS
        for phi in ANGLES
        for t in TIMES
    ]
    with open(OUT, "w") as fh:
        json.dump(cells, fh, indent=1)
        fh.write("\n")


def check(count: int) -> int:
    with open(OUT) as fh:
        cells = json.load(fh)
    bad = 0
    for cell in random.Random(0).sample(cells, count):
        fresh = _reference(cell["n"], cell["t"], cell["phi"])
        ok = fresh == cell["ref"]
        verdict = "ok" if ok else f"DIFFERS from {cell['ref']}"
        print(f"S^{cell['n']} (t={cell['t']}, phi={cell['phi']}): {fresh} {verdict}")
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
