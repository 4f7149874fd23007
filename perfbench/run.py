"""End-to-end and per-layer benchmark of ckernels.

Run from the repository root:

    python3 perfbench/run.py --workload jet-raise --seed 0 --seconds 16 --trace 0

Single-threaded processes (BLAS pools pinned to one thread), one at a time,
evaluate the workload's point set, chosen from the frozen pool in
``workloads.py`` by the seed, in whole timed passes for about ``--seconds``
seconds, and check every value against ``references.json`` by the ROADMAP
item-1 rule |v - ref| <= max(err_estimate, tol |ref|).  A point fails if it
raises, returns a non-finite value, or misses its reference.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median CPU time
of fresh interpreters that import ``ckernels`` and ``ckernels.cli`` and
evaluate each route of the workload once), ``points_per_s``, ``point_p50_ms``
and ``point_p90_ms`` (over each point's median latency, in CPU time, over
the passes of four fresh processes), and ``peak_rss_mb`` (the largest of
their peaks).  The times are scaled to a reference host speed measured by a
calibration run beside them (``HostSpeed``); the record holds them
unscaled.  ``--trace 1`` runs in this process and alternates an untraced
pass with a pass under the outside-in tracer (``tracer.py``) and reports the
per-layer metrics of one traced pass plus the tracing overhead; its spans
are written to ``perfbench/out/``.  The last line of standard output is the
result object; the line before it is the run record (run conditions, the
workload's fail fraction and the item-1 probe outcomes).
"""

from __future__ import annotations

import os

# Single-threaded by construction: set before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import array  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads  # noqa: E402

TOL = 1e-10
SETUP_REPEATS = 7
SETUP_CALIBRATIONS = 3
WORKERS = 4
CHILD_TIMEOUT_S = 120
# Host-speed calibration (see HostSpeed): its median CPU time on the 2-vCPU
# VM on which the benchmark was defined, and how much timed work may pass
# between two calibrations.
CAL_REF_S = 2.6e-3
CAL_EVERY_S = 0.1
UNITS = {
    "points_per_s": "1/s",
    "point_p50_ms": "ms",
    "point_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "trace.overhead_frac": "ratio",
    "jets.created_per_point": "count/point",
    "quadrature.evals_per_integral": "count/integral",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _source_root() -> str:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "ckernels", "__init__.py")):
        raise BenchError(f"no ckernels sources under {src}; run from the repository root")
    return src


def _import_library(src: str):
    """Import ckernels from the checkout, never from an installed copy."""
    sys.path.insert(0, src)
    import ckernels

    if not os.path.abspath(ckernels.__file__).startswith(src + os.sep):
        raise BenchError(f"imported ckernels from {ckernels.__file__}, not {src}")
    return ckernels


def _load_references(points) -> dict:
    path = os.path.join(HERE, "references.json")
    if not os.path.isfile(path):
        raise BenchError("references.json is missing; run perfbench/make_references.py")
    with open(path) as fh:
        table = json.load(fh)
    missing = [pt.key for pt in points if pt.key not in table]
    if missing:
        raise BenchError(f"{len(missing)} points lack references, e.g. {missing[0]}")
    return {pt.key: float(table[pt.key]["ref"]) for pt in points}


# -- host speed -------------------------------------------------------------


def _calibration() -> float:
    """CPU seconds of a fixed piece of work of the kinds ckernels does: float
    arithmetic, dict and tuple traffic, and numpy calls on short arrays."""
    clock = time.process_time
    t0 = clock()
    acc, table, coeffs = 0.0, {"w": 1.0}, np.arange(1.0, 9.0)
    for i in range(3000):
        x = (i % 17) * 0.25
        acc += math.exp(-x) * table["w"] + divmod(i, 7)[1]
        acc -= (x, acc)[0] * 1e-6
    for _ in range(300):
        prod = np.convolve(coeffs, coeffs)[:8] * 0.5
        acc += float(prod[1]) + math.sqrt(abs(acc) + 1.0)
    return clock() - t0


class HostSpeed:
    """Scales the latencies of one pass to a reference host speed.

    The host's CPU speed changes by up to 1.6x within seconds (the CPU time
    of the same import, or of ``_calibration``, varies that much), far more
    than a bound can allow, and no statistic over a run of a few seconds
    removes it.  So a calibration runs between points, untimed, whenever
    CAL_EVERY_S of timed work has passed, and each point's latency is
    multiplied by CAL_REF_S over the mean of the calibrations just before and
    after it.  A calibration
    takes about 3 ms, so this adds some 3% to a pass, untimed.
    """

    def __init__(self):
        self.calibrations = [_calibration()]
        self.marks = []
        self.since = 0.0

    def after(self, latency: float) -> None:
        self.marks.append(len(self.calibrations) - 1)
        self.since += latency
        if self.since >= CAL_EVERY_S:
            self.calibrations.append(_calibration())
            self.since = 0.0

    def scale(self, latencies: list) -> list:
        cal = self.calibrations + [_calibration()]
        return [t * 2.0 * CAL_REF_S / (cal[m] + cal[m + 1])
                for t, m in zip(latencies, self.marks)]


# -- evaluation -------------------------------------------------------------


def _verdict(result, error, ref: float) -> str | None:
    """None for a pass, else a short reason."""
    if error is not None:
        return f"raised {type(error).__name__}"
    value, err = float(result.value), float(result.err_estimate)
    if not math.isfinite(value):
        return "non-finite value"
    if abs(value - ref) > max(err, TOL * abs(ref)):
        return f"value {value!r} err {err!r} vs reference {ref!r}"
    return None


def _calls(space_of, points) -> list:
    """The evaluate arguments of each point, built once outside the timed passes."""
    return [(space_of[pt.space], pt.n, pt.kind, pt.param, pt.r, pt.rep, pt.convention)
            for pt in points]


def _run_pass(analysis, calls, points, refs, tracer=None, speed=None):
    """Evaluate every point once: (latencies in s, failed points described).

    A latency is the CPU time of the call alone.  For this single-threaded,
    CPU-bound library it equals the wall time on an idle machine, and unlike
    wall time it leaves out the time a busy host gives to other work.
    """
    # bound per pass, so that a traced pass calls the tracer's wrapper
    evaluate, clock, tol = analysis.evaluate, time.process_time, TOL
    latencies, outcomes = [], []
    for i, (space, n, kind, param, r, rep, convention) in enumerate(calls):
        if tracer is not None:
            tracer.point = i
        result = error = None
        t0 = clock()
        try:
            result = evaluate(space, n, kind, param, r, rep=rep, tol=tol, convention=convention)
        except Exception as exc:  # every raise counts as a failed point
            error = exc
        latencies.append(clock() - t0)
        outcomes.append((result, error))
        if speed is not None:
            speed.after(latencies[-1])
    failures = []
    for pt, (result, error) in zip(points, outcomes):
        reason = _verdict(result, error, refs[pt.key])
        if reason is not None:
            failures.append(f"{_describe(pt)}: {reason}")
    return latencies, failures


def _warm_up(points, refs) -> None:
    """Import the CLI and evaluate each distinct route of the workload once."""
    import ckernels.cli  # noqa: F401

    from ckernels import analysis
    from ckernels.geometry import Space

    space_of = {s.value: s for s in Space}
    first = {}
    # odd n first: for the nested routes it is the cheap member of the route
    for pt in sorted(points, key=lambda p: (p.n % 2 == 0, p.n)):
        first.setdefault(pt.route, pt)
    routes = list(first.values())
    _run_pass(analysis, _calls(space_of, routes), routes, refs)


def _setup_child(workload: str, seed: int) -> dict:
    """Child process: import and warm up, calibrated SETUP_CALIBRATIONS times
    before and after, then report the import time and the calibrations."""
    before = [_calibration() for _ in range(SETUP_CALIBRATIONS)]
    _import_library(_source_root())
    t0 = time.perf_counter()
    import ckernels.cli  # noqa: F401

    cli_import_s = time.perf_counter() - t0
    timed, _, _ = workloads.select(workload, seed)
    _warm_up(timed, _load_references(timed))
    after = [_calibration() for _ in range(SETUP_CALIBRATIONS)]
    return {"cli_import_s": cli_import_s, "calibrations": before + after}


def _passes_child(workload: str, seed: int, budget: float) -> dict:
    """Child process: warm up, then whole passes for about ``budget`` seconds,
    at least one."""
    _import_library(_source_root())
    timed, _, _ = workloads.select(workload, seed)
    refs = _load_references(timed)
    _warm_up(timed, refs)
    from ckernels import analysis
    from ckernels.geometry import Space

    calls = _calls({s.value: s for s in Space}, timed)
    # packed, so that the hundreds of passes of a fast workload add well
    # under a megabyte to the peak RSS the process reports
    runs, scaled, failures = [], [], []
    while not runs or len(runs) < round(budget / sum(runs[0])):
        speed = HostSpeed()
        latencies, more_failures = _run_pass(analysis, calls, timed, refs, speed=speed)
        runs.append(array.array("d", latencies))
        scaled.append(array.array("d", speed.scale(latencies)))
        failures += more_failures
    peak_rss_mb = _peak_rss_mb()
    return {
        "latencies": [run.tolist() for run in runs],
        "scaled": [run.tolist() for run in scaled],
        "passes": len(runs),
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
    }


def _peak_rss_mb() -> float:
    """This process's own peak resident set size (VmHWM).  Not ru_maxrss:
    after fork and exec that also holds the parent's peak."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("/proc/self/status has no VmHWM line")


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _child(mode: str, workload: str, seed: int, seconds: float, src: str) -> tuple:
    """Run this script in a fresh interpreter: (its reply, CPU seconds, wall seconds)."""
    c0, t0 = _children_cpu_s(), time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", mode,
         "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=CHILD_TIMEOUT_S,
    )
    wall, cpu = time.perf_counter() - t0, _children_cpu_s() - c0
    if proc.returncode != 0:
        raise BenchError(f"{mode} child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), cpu, wall


def _measure_setup(workload: str, seed: int, src: str) -> tuple:
    """Median CPU time of fresh interpreters that import and warm up, at the
    reference host speed.

    CPU time (user + system, from the children's resource usage) rather than
    wall time, like the point latencies: it leaves out the time a busy host
    gives to other work.  Each child's time, less its calibrations, is
    scaled by CAL_REF_S over their median (see HostSpeed).  The unscaled CPU
    times and the wall times go into the run record.
    """
    runs = [_child("setup", workload, seed, 0, src) for _ in range(SETUP_REPEATS)]
    raw = [cpu - sum(reply["calibrations"]) for reply, cpu, _ in runs]
    scaled = [t * CAL_REF_S / statistics.median(reply["calibrations"])
              for t, (reply, _, _) in zip(raw, runs)]
    return (statistics.median(scaled),
            statistics.median(reply["cli_import_s"] for reply, _, _ in runs),
            {"setup_cpu_s": raw, "setup_walls_s": [wall for _, _, wall in runs]})


# -- run record ---------------------------------------------------------------


def _run_conditions(args, n_timed: int, n_probes: int, src: str) -> dict:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(os.path.join(src, "ckernels"))):
        if name.endswith(".py"):
            with open(os.path.join(src, "ckernels", name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    git_sha = None
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "tol": TOL,
        "seconds": args.seconds,
        "trace": args.trace,
        "points_per_pass": n_timed,
        "probe_points": n_probes,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def _describe(pt) -> str:
    return f"{pt.space} n={pt.n} {pt.kind} rep={pt.rep} {pt.convention} p={pt.param!r} r={pt.r!r}"


def _percentile(sorted_values: list, q: float) -> float:
    return float(statistics.quantiles(sorted_values, n=100, method="inclusive")[int(q) - 1])


def _latency_metrics(latencies: list) -> dict:
    ordered = sorted(latencies)
    return {
        "points_per_s": len(ordered) / sum(ordered),
        "point_p50_ms": 1e3 * statistics.median(ordered),
        "point_p90_ms": 1e3 * _percentile(ordered, 90),
    }


def _metric(name: str, value: float) -> dict:
    unit = UNITS.get(name, "s" if name.endswith("_s") else "count")
    return {"value": value, "unit": unit}


# -- main ---------------------------------------------------------------------


def _untraced(workload: str, seed: int, budget: float, src: str) -> tuple:
    """Whole passes in WORKERS fresh processes, one after another, for about
    ``budget`` seconds in all (see ``_passes_child``).

    Each point's latency is its median, at the reference host speed (see
    HostSpeed), over the passes of all processes.  The fastest pass of a
    point would depend on whether the run happened to catch a fast phase of
    the host; the median does not.  A process can also run some points
    slower in every one of its passes; pooling the passes of WORKERS
    processes keeps one such process from setting the median.  The record
    holds the same figures unscaled.
    """
    replies = [_child("passes", workload, seed, budget / WORKERS, src)[0]
               for _ in range(WORKERS)]

    def typical(key):
        runs = [run for reply in replies for run in reply[key]]
        return [statistics.median(times) for times in zip(*runs)]

    scaled = typical("scaled")
    metrics = _latency_metrics(scaled)
    metrics["peak_rss_mb"] = max(reply["peak_rss_mb"] for reply in replies)
    passes = [reply["passes"] for reply in replies]
    failures = [f for reply in replies for f in reply["failures"]]
    extra = {"passes": passes, "unscaled": _latency_metrics(typical("latencies"))}
    return metrics, failures, sum(passes) * len(scaled), extra


def _traced(evaluate_pass, budget: float, n_points: int, span_file: str) -> tuple:
    """Untraced and traced passes in pairs: per-layer metrics of the traced ones.

    Counts and the saved spans come from the first traced pass (the record
    says whether every later pass repeated the counts exactly); self times
    are medians over passes.
    """
    from tracer import Tracer

    tracer = Tracer()
    untraced_s = traced_s = 0.0
    windows, failures, attempted = [], [], 0
    while True:
        latencies, fails = evaluate_pass()
        untraced_s += sum(latencies)
        failures += fails
        tracer.reset_counts()
        with tracer:
            traced, fails = evaluate_pass(tracer)
        traced_s += sum(traced)
        failures += fails
        attempted += len(latencies) + len(traced)
        windows.append(tracer.metrics(n_points))
        if len(windows) > 1:
            tracer.discard_window()  # the saved spans are the first traced pass
        pairs = len(windows)
        if (untraced_s + traced_s) * (pairs + 1) / pairs > 1.25 * budget:
            break
    first = windows[0]
    count_names = tracer.counts().keys()
    metrics = {
        name: statistics.median(w[name] for w in windows) if name.endswith("self_s")
        else first[name]
        for name in first
    }
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    os.makedirs(os.path.dirname(span_file), exist_ok=True)
    tracer.save(span_file)
    extra = {
        "traced_passes": len(windows),
        "counts_repeat": all(w[k] == first[k] for w in windows for k in count_names),
        "spans": len(tracer.starts),
        "span_file": os.path.relpath(span_file),
    }
    return metrics, failures, attempted, extra


def run(args) -> int:
    src = _source_root()
    timed, probes, slow_probes = workloads.select(args.workload, args.seed)
    refs = _load_references(timed + probes)
    setup_s, cli_import_s, setup_record = _measure_setup(args.workload, args.seed, src)

    _import_library(src)
    from ckernels import analysis
    from ckernels.geometry import Space

    space_of = {s.value: s for s in Space}
    if args.trace:
        _warm_up(timed, refs)
        calls = _calls(space_of, timed)

        def evaluate_pass(tracer=None):
            return _run_pass(analysis, calls, timed, refs, tracer)

        span_file = os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.npz")
        metrics, failures, attempted, extra = _traced(
            evaluate_pass, args.seconds, len(timed), span_file)
        metrics["cli.import_s"] = cli_import_s
    else:
        metrics, failures, attempted, extra = _untraced(
            args.workload, args.seed, args.seconds, src)
        metrics["setup_s"] = setup_s
        extra.update(setup_record)

    # the known item-1 defects: evaluated once, untimed, reported
    _, probe_failures = _run_pass(analysis, _calls(space_of, probes), probes, refs)
    failed_per_pass = len(failures) * len(timed) / attempted
    record = _run_conditions(args, len(timed), len(probes), src)
    record.update(extra)
    record["fail_frac"] = (failed_per_pass + len(probe_failures)) / (len(timed) + len(probes))
    record["failures"] = failures[:20]
    record["probe_failed"] = len(probe_failures)
    record["probe_failures"] = probe_failures
    record["slow_probes_not_run"] = slow_probes
    print(json.dumps({"record": record}))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: _metric(k, v) for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ckernels benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "passes"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.child == "setup":
            reply = _setup_child(args.workload, args.seed)
        elif args.child == "passes":
            reply = _passes_child(args.workload, args.seed, args.seconds)
        else:
            return run(args)
        print(json.dumps(reply))
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
