"""Outside-in tracer for ckernels: spans and counts without touching ``src/``.

:meth:`Tracer.install` wraps the public functions of ``analysis``, the three
representation modules, ``quadrature`` and ``jets`` by rebinding each name in
every ``ckernels`` module that imported it (``integrate_adaptive``, for
instance, is bound in ``quadrature``, ``euclid``, ``sphere``, ``hyperbolic``
and ``analysis``).  Each integrand handed to ``integrate_adaptive`` is wrapped
too, which yields evaluation counts and the integrand span.  ``Jet``
construction is counted through ``Jet.__post_init__`` without a span, since a
single hyperbolic subordination point builds over a million jets.

Spans carry a name, start, end, parent and point id; they stay in memory in
flat arrays, self time is computed from them, and :meth:`Tracer.save` writes
them out.  :meth:`Tracer.uninstall` puts every original object back, so
untraced runs carry no wrapper.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

REPRESENTATION_MODULES = ("euclid", "sphere", "hyperbolic")
ANALYSIS_FUNCTIONS = ("evaluate", "subordinate", "poisson_images")
QUAD_FUNCTIONS = (
    "integrate_adaptive",
    "integrate_sqrt_endpoint",
    "integrate_to_infinity",
    "integrate_contour",
)
RAISE_FUNCTIONS = ("raise_operator", "raise_jet", "raise_origin_jet")

# The per-route metrics the benchmark reports, fixed so that a route a later
# change deletes reads 0 instead of vanishing from the result.
ROUTES = {
    "euclid": ("heat_closed", "heat_raise", "heat_descent", "heat_gruet",
               "poisson_closed", "poisson_integral", "poisson_raise", "poisson_descent"),
    "sphere": ("heat_theta", "heat_theta1", "heat_theta2", "heat_theta3", "heat_raise",
               "heat_gruet", "poisson_closed", "poisson_raise", "poisson_doubling"),
    "hyperbolic": ("heat_raise", "heat_descent", "heat_classic", "heat_gruet",
                   "poisson_closed", "poisson_raise", "poisson_descent"),
}

INTEGRAND = "quadrature.integrand"


def route_functions(module) -> list:
    """Public heat_*/poisson_* functions defined in a representation module."""
    return [
        name
        for name, obj in vars(module).items()
        if name.startswith(("heat_", "poisson_"))
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    ]


def layer_metric_names() -> list:
    """Every per-layer metric name :meth:`Tracer.metrics` reports."""
    names = [
        "jets.created", "jets.created_per_point", "jets.raise.calls", "jets.raise.self_s",
        "jets.max_order", "jets.failures",
        "quadrature.integrals", "quadrature.integrand_evals", "quadrature.evals_per_integral",
        "quadrature.self_s", "quadrature.nested_integrals", "quadrature.max_nesting",
        "quadrature.array_evals", "quadrature.integrand.self_s", "quadrature.failures",
    ]
    for fn in ANALYSIS_FUNCTIONS:
        names += [f"analysis.{fn}.calls", f"analysis.{fn}.self_s"]
    for mod, fns in ROUTES.items():
        names.append(f"{mod}.self_s")
        for fn in fns:
            names += [f"{mod}.{fn}.calls", f"{mod}.{fn}.self_s"]
    return names


class Tracer:
    """Records spans and counts around the library's public functions."""

    def __init__(self):
        self.span_names: list = []
        self._name_ids: dict = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.name_ids = array("q")
        self.point_ids = array("q")
        self.point = -1
        self._stack: list = []
        self._patches: list = []
        self.reset_counts()

    def reset_counts(self) -> None:
        self.calls: Counter = Counter()
        self.jets_created = 0
        self.jets_max_order = 0
        self.integrand_evals = 0
        self.array_evals = 0
        self.nested_integrals = 0
        self.max_nesting = 0
        self.quad_failures = 0
        self.jet_failures = 0
        self._integrand_depth = 0
        self._raise_depth = 0
        self._failures: list = []  # held, so that identity checks stay valid
        self.first_span = len(self.starts)

    # -- spans -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.starts)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.name_ids.append(nid)
        self.point_ids.append(self.point)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            idx = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return wrapper

    def _raise_wrapper(self, name: str, fn, domain_errors: tuple):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            idx = tracer._open(nid)
            tracer._raise_depth += 1
            try:
                return fn(*args, **kwargs)
            except domain_errors:
                if tracer._raise_depth == 1:
                    tracer.jet_failures += 1
                raise
            finally:
                tracer._raise_depth -= 1
                tracer._close(idx)

        return wrapper

    def _count_quad_failure(self, exc: BaseException) -> None:
        # integrate_contour re-raises the adaptive failure as a ContourError
        # chained to it, and an outer integral sees an inner failure again:
        # count each failure once.
        seen = any(exc is e or exc.__cause__ is e for e in self._failures)
        self._failures.append(exc)
        if not seen:
            self.quad_failures += 1

    def _quad_wrapper(self, name: str, fn, convergence_error):
        nid = self._name_id(name)
        integrand_nid = self._name_id(INTEGRAND)
        tracer = self
        adaptive = name.endswith("integrate_adaptive")

        def wrap_integrand(f):
            def integrand(x):
                tracer.integrand_evals += 1
                tracer._integrand_depth += 1
                idx = tracer._open(integrand_nid)
                try:
                    value = f(x)
                finally:
                    tracer._close(idx)
                    tracer._integrand_depth -= 1
                if isinstance(value, np.ndarray):
                    tracer.array_evals += 1
                return value

            return integrand

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            tracer.calls[name] += 1
            if adaptive:
                if tracer._integrand_depth > 0:
                    tracer.nested_integrals += 1
                tracer.max_nesting = max(tracer.max_nesting, tracer._integrand_depth + 1)
                f = wrap_integrand(f)
            idx = tracer._open(nid)
            try:
                return fn(f, *args, **kwargs)
            except convergence_error as exc:
                tracer._count_quad_failure(exc)
                raise
            finally:
                tracer._close(idx)

        return wrapper

    # -- install / uninstall ---------------------------------------------

    def _rebind(self, original, wrapper, name: str) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ckernels" or mod_name.startswith("ckernels.")):
                continue
            if vars(mod).get(name) is original:
                self._patches.append((mod, name, original))
                setattr(mod, name, wrapper)

    def install(self) -> None:
        """Wrap every traced function; the library must already be imported."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        import ckernels.analysis as analysis
        import ckernels.jets as jets
        import ckernels.quadrature as quadrature
        from ckernels.errors import ConvergenceError, DomainError

        for name in ANALYSIS_FUNCTIONS:
            fn = getattr(analysis, name)
            self._rebind(fn, self._span_wrapper(f"analysis.{name}", fn), name)
        for mod_name in REPRESENTATION_MODULES:
            mod = sys.modules[f"ckernels.{mod_name}"]
            for name in route_functions(mod):
                fn = getattr(mod, name)
                self._rebind(fn, self._span_wrapper(f"{mod_name}.{name}", fn), name)
        for name in QUAD_FUNCTIONS:
            fn = getattr(quadrature, name)
            self._rebind(fn, self._quad_wrapper(f"quadrature.{name}", fn, ConvergenceError), name)
        for name in RAISE_FUNCTIONS:
            fn = getattr(jets, name)
            # ArithmeticError covers the OverflowError the recursion can raise
            errors = (DomainError, ArithmeticError)
            self._rebind(fn, self._raise_wrapper(f"jets.{name}", fn, errors), name)

        post_init = jets.Jet.__post_init__
        tracer = self

        def counting_post_init(jet):
            post_init(jet)
            tracer.jets_created += 1
            order = jet.coeffs.size - 1
            if order > tracer.jets_max_order:
                tracer.jets_max_order = order

        self._patches.append((jets.Jet, "__post_init__", post_init))
        jets.Jet.__post_init__ = counting_post_init

    def uninstall(self) -> None:
        """Restore every patched name to its original object."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ---------------------------------------------------------

    def self_times(self, first_span: int = 0) -> dict:
        """Self time per span name over spans from ``first_span`` on."""
        count = len(self.starts) - first_span
        if count <= 0:
            return {}
        starts = np.frombuffer(self.starts, dtype=float)[first_span:]
        ends = np.frombuffer(self.ends, dtype=float)[first_span:]
        parents = np.frombuffer(self.parents, dtype=np.int64)[first_span:] - first_span
        nids = np.frombuffer(self.name_ids, dtype=np.int64)[first_span:]
        dur = ends - starts
        child = np.zeros(count)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = np.bincount(nids, weights=dur - child, minlength=len(self.span_names))
        return {name: float(own[i]) for i, name in enumerate(self.span_names)}

    def counts(self) -> dict:
        """The exact counters of the current measurement window."""
        out = {
            "jets.created": self.jets_created,
            "jets.max_order": self.jets_max_order,
            "jets.failures": self.jet_failures,
            "jets.raise.calls": sum(self.calls[f"jets.{n}"] for n in RAISE_FUNCTIONS),
            "quadrature.integrals": self.calls["quadrature.integrate_adaptive"],
            "quadrature.integrand_evals": self.integrand_evals,
            "quadrature.array_evals": self.array_evals,
            "quadrature.nested_integrals": self.nested_integrals,
            "quadrature.max_nesting": self.max_nesting,
            "quadrature.failures": self.quad_failures,
        }
        for name in ANALYSIS_FUNCTIONS:
            out[f"analysis.{name}.calls"] = self.calls[f"analysis.{name}"]
        for mod, fns in ROUTES.items():
            for fn in fns:
                out[f"{mod}.{fn}.calls"] = self.calls[f"{mod}.{fn}"]
        return out

    def metrics(self, points: int) -> dict:
        """Per-layer metrics of the current window, which covered ``points``."""
        out = dict(self.counts())
        own = self.self_times(self.first_span)
        out["jets.created_per_point"] = self.jets_created / points
        integrals = out["quadrature.integrals"]
        out["quadrature.evals_per_integral"] = (
            self.integrand_evals / integrals if integrals else 0.0
        )
        out["jets.raise.self_s"] = sum(own.get(f"jets.{n}", 0.0) for n in RAISE_FUNCTIONS)
        out["quadrature.self_s"] = sum(own.get(f"quadrature.{n}", 0.0) for n in QUAD_FUNCTIONS)
        out["quadrature.integrand.self_s"] = own.get(INTEGRAND, 0.0)
        for name in ANALYSIS_FUNCTIONS:
            out[f"analysis.{name}.self_s"] = own.get(f"analysis.{name}", 0.0)
        for mod, fns in ROUTES.items():
            prefix = f"{mod}."
            out[f"{mod}.self_s"] = sum(v for k, v in own.items() if k.startswith(prefix))
            for fn in fns:
                out[f"{mod}.{fn}.self_s"] = own.get(f"{mod}.{fn}", 0.0)
        return out

    def discard_window(self) -> None:
        """Drop the spans of the current window, keeping memory to one window."""
        for arr in (self.starts, self.ends, self.parents, self.name_ids, self.point_ids):
            del arr[self.first_span:]

    def save(self, path: str) -> None:
        """Write every span recorded so far as a compressed numpy archive."""
        np.savez_compressed(
            path,
            names=np.array(self.span_names),
            start=np.frombuffer(self.starts, dtype=float),
            end=np.frombuffer(self.ends, dtype=float),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            name_id=np.frombuffer(self.name_ids, dtype=np.int64),
            point=np.frombuffer(self.point_ids, dtype=np.int64),
        )
