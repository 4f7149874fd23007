"""Tests of the outside-in tracer.

Run from the repository root (the name keeps it out of the tier-1 suite):

    python3 -m pytest -q perfbench/check_tracer.py
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import ckernels.cli  # noqa: E402,F401
from ckernels import analysis, jets  # noqa: E402
from ckernels.geometry import Space  # noqa: E402
from tracer import Tracer, layer_metric_names  # noqa: E402

# One fixed point per workload: (space, n, kind, param, r, rep).
POINTS = {
    "jet-raise": (Space.HYPERBOLIC, 7, "heat", 0.8, 1.5, "raise"),
    "scalar-quad": (Space.EUCLIDEAN, 3, "heat", 0.8, 1.5, "gruet"),
    "nested-quad": (Space.HYPERBOLIC, 4, "heat", 0.8, 1.5, "descent"),
    "auto-sweep": (Space.HYPERBOLIC, 15, "heat", 1.0, 0.02, "auto"),
}


def _traced(point) -> dict:
    space, n, kind, param, r, rep = point
    tracer = Tracer()
    with tracer:
        analysis.evaluate(space, n, kind, param, r, rep=rep)
    return tracer.metrics(1)


def _bindings() -> dict:
    """Identity of every attribute of every loaded ckernels module."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "ckernels" or name.startswith("ckernels.")):
            for attr, obj in vars(mod).items():
                out[(name, attr)] = id(obj)
    out[("Jet", "__post_init__")] = id(jets.Jet.__dict__["__post_init__"])
    return out


@pytest.mark.parametrize("workload", sorted(POINTS))
def test_counts_repeat_exactly(workload):
    first = _traced(POINTS[workload])
    second = _traced(POINTS[workload])
    counts = Tracer().counts().keys()
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["analysis.evaluate.calls"] == 1


def test_every_patched_name_is_restored():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    patched = _bindings()
    changed = {key for key in before if patched.get(key) != before[key]}
    # integrate_adaptive is bound by name in five modules and must be
    # rebound in each of them
    adaptive = {mod for mod, attr in changed if attr == "integrate_adaptive"}
    assert {"ckernels.quadrature", "ckernels.euclid", "ckernels.sphere",
            "ckernels.hyperbolic", "ckernels.analysis"} <= adaptive
    assert ("Jet", "__post_init__") in changed
    tracer.uninstall()
    assert _bindings() == before


def test_layer_isolation():
    assert _traced(POINTS["jet-raise"])["quadrature.integrand_evals"] == 0
    assert _traced(POINTS["jet-raise"])["jets.created"] > 0
    assert _traced(POINTS["scalar-quad"])["jets.created"] == 0
    assert _traced(POINTS["scalar-quad"])["quadrature.integrand_evals"] > 0


def test_nested_integrals_and_array_integrands():
    metrics = _traced(POINTS["nested-quad"])
    assert metrics["quadrature.array_evals"] > 0
    sub = _traced((Space.HYPERBOLIC, 3, "poisson", 0.8, 1.5, "subordinate"))
    assert sub["analysis.poisson_images.calls"] == 1
    assert sub["quadrature.max_nesting"] == 1
    assert sub["jets.created"] > 0


def test_failures_are_counted_once():
    tracer = Tracer()
    with tracer, pytest.raises(OverflowError):
        analysis.evaluate(Space.HYPERBOLIC, 3, "heat", 1.0, 800.0)
    assert tracer.jet_failures == 1


def test_metrics_cover_every_reported_name():
    metrics = _traced(POINTS["auto-sweep"])
    assert set(metrics) == set(layer_metric_names())


def test_self_times_partition_the_call():
    tracer = Tracer()
    with tracer:
        analysis.evaluate(Space.HYPERBOLIC, 4, "heat", 0.8, 1.5, rep="descent")
    own = tracer.self_times()
    top = tracer.span_names.index("analysis.evaluate")
    total = tracer.ends[0] - tracer.starts[0]
    assert tracer.name_ids[0] == top
    assert sum(own.values()) == pytest.approx(total, rel=1e-9)
