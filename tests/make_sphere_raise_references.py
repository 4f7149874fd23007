"""Write ``sphere_raise_references.json``: the even-n sphere heat grid of
``tests/test_sphere.py::test_even_raise_is_within_its_error_or_refuses``.

Run once from the repository root:

    python3 tests/make_sphere_raise_references.py

Each value is the Gegenbauer eigenfunction sum of
``perfbench/make_references.py`` (``sphere_heat_spectral``), at a
precision raised until the cancellation at small t is resolved, rounded to
a float.  The 192 cells take about 3 minutes.  The file is replaced whole.
"""

from __future__ import annotations

import json
import math
import os
import sys

import mpmath as mp

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
from make_references import DPS, sphere_heat_spectral  # noqa: E402

OUT = os.path.join(HERE, "sphere_raise_references.json")
DIMS = (4, 6, 8, 10, 12, 14)
ANGLES = (0.0, 0.005, 0.02, 0.5, 1.5, 3.0, math.pi - 0.005, math.pi)
TIMES = (1e-3, 0.05, 0.9, 9.0)


def main() -> None:
    cells = []
    with mp.workdps(DPS):
        for n in DIMS:
            for phi in ANGLES:
                for t in TIMES:
                    ref = sphere_heat_spectral(n, t, phi)
                    cells.append({"n": n, "t": t, "phi": phi, "ref": repr(float(ref))})
    with open(OUT, "w") as fh:
        json.dump(cells, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
