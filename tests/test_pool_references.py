"""Every variant of the benchmark pools whose values the raising arithmetic
moves, against the stored references.

The benchmark (``perfbench/run.py``) checks only the variants its seed
picks, so a run at two seeds sees half of each pool.  Here every non-probe
point of the jet-raise and auto-sweep pools, all four variants of each cell,
must meet the benchmark's rule |v - ref| <= max(err_estimate, tol |ref|)
against ``perfbench/references.json`` at tol 1e-10.  The probe cells, the
known ROADMAP item-1 defects listed in ``perfbench/probes.json``, are left
out as the benchmark leaves them out of its timed points.  Both files are
only read.
"""

from __future__ import annotations

import json
import math
import os
import sys

import pytest

from ckernels import Space, analysis

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)
import workloads  # noqa: E402

TOL = 1e-10


@pytest.fixture(scope="module")
def references() -> dict:
    with open(os.path.join(PERFBENCH, "references.json")) as fh:
        return {key: float(entry["ref"]) for key, entry in json.load(fh).items()}


def _miss(pt, ref: float) -> str | None:
    """None if the point meets its reference, else what it did."""
    try:
        res = analysis.evaluate(
            Space(pt.space), pt.n, pt.kind, pt.param, pt.r,
            rep=pt.rep, tol=TOL, convention=pt.convention,
        )
    except Exception as exc:  # a raise is a miss, as in the benchmark
        return f"raised {type(exc).__name__}"
    value, err = float(res.value), float(res.err_estimate)
    if not (math.isfinite(value) and abs(value - ref) <= max(err, TOL * abs(ref))):
        return f"{value!r} err {err!r} vs {ref!r}"
    return None


@pytest.mark.parametrize("workload", ["jet-raise", "auto-sweep"])
def test_every_pool_variant_meets_its_reference(workload, references):
    probes = workloads.probe_cells(workload)
    points = [pt for cell in workloads.CELLS[workload] if cell.name not in probes
              for pt in cell.variants()]
    misses = [(pt.key, why) for pt in points if (why := _miss(pt, references[pt.key]))]
    assert not misses, f"{len(misses)} of {len(points)} miss, e.g. {misses[:5]}"
