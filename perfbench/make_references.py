"""Write ``references.json``: one mpmath reference per workload pool point.

Run once from the repository root, after any change to ``workloads.py``:

    python3 perfbench/make_references.py

It recomputes every entry and replaces the file whole, so the file is always
exactly what this script writes.  Never called during a timed run.

Primary sources (mpmath, at least 30 significant digits):

* Euclidean heat and every Poisson kernel: the closed forms.
* Sphere heat: the Gegenbauer eigenfunction sum (the oracle of
  ``tests/test_sphere.py``; the Fourier series on the circle), summed at a
  precision raised until the cancellation at small t is resolved.
* Hyperbolic heat, odd n: the H^3 closed form raised (n-3)/2 times with
  ``mpmath.diff`` in u = cosh(rho), where the raising operator is
  -(1/2 pi) d/du.
* Hyperbolic heat, even n: ``mpmath.quad`` of the descent integral
  sqrt(2) int_rho^inf H_{n+1}(s) sinh(s) (cosh s - cosh rho)^(-1/2) ds.

Second sources, used as a cross-check that must agree to 1e-20 relative:
raising the n = 1 or n = 2 closed form with ``mpmath.diff`` in the space's
natural variable (r^2, cos(phi), cosh(rho)) for Euclidean heat and every
Poisson kernel, the raised wrapped Gaussian (image sum) for odd-n sphere
heat, and the raised H^1 Gaussian for odd-n hyperbolic heat.  The check is
skipped where the value underflows double precision (below 1e-330), since
the stored reference is then 0.0 either way.  Even-n sphere and hyperbolic
heat have no second source here; their sums and integrals are instead
repeated at a higher precision.
"""

from __future__ import annotations

import json
import os
import sys
import time

import mpmath as mp

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
DPS = 30
CROSS_REL = mp.mpf("1e-20")
# Below this both sources round to 0.0 in double precision, so they only
# need to agree that the value underflows.
UNDERFLOW = mp.mpf("1e-330")


def _agree(a, b) -> bool:
    if abs(a) < UNDERFLOW and abs(b) < UNDERFLOW:
        return True
    return abs(a - b) <= CROSS_REL * abs(a)


def _diff(f, u, k):
    """k-th derivative of f at u, with a step scaled to |u|."""
    if k == 0:
        return f(u)
    h = max(mp.mpf(1), abs(u)) * mp.ldexp(1, -(mp.mp.prec + 20))
    return mp.diff(f, u, k, h=h)


def _raised(f, u, k, step):
    """(step * d/du)^k f at u; ``step`` is the raising constant.

    The raised value can be many orders below the scale of f (high n near
    the origin), so the derivative is taken 20 digits above the target.
    """
    with mp.workdps(mp.mp.dps + 20):
        return +(step**k * _diff(lambda x: mp.re(f(x)), u, k))


# -- closed forms -----------------------------------------------------------


def euclid_heat(n, t, r):
    return (4 * mp.pi * t) ** (-mp.mpf(n) / 2) * mp.exp(-r * r / (4 * t))


def euclid_poisson(n, y, r):
    h = mp.mpf(n + 1) / 2
    return mp.gamma(h) / mp.pi**h * y / (r * r + y * y) ** h


def sphere_poisson(n, y, phi):
    h = mp.mpf(n + 1) / 2
    return mp.gamma(h) / mp.pi**h * mp.sinh(y) / (2 * mp.cosh(y) - 2 * mp.cos(phi)) ** h


def hyp_poisson(n, y, rho):
    h = mp.mpf(n + 1) / 2
    return mp.gamma(h) / (2 * mp.pi) ** h * mp.sin(y) / (mp.cosh(rho) - mp.cos(y)) ** h


def hyp_heat3(t, rho):
    ratio = mp.mpf(1) if rho == 0 else rho / mp.sinh(rho)
    return (4 * mp.pi * t) ** mp.mpf(-1.5) * ratio * mp.exp(-rho * rho / (4 * t))


def hyp_heat1(t, rho):
    return (4 * mp.pi * t) ** mp.mpf(-0.5) * mp.exp(-rho * rho / (4 * t))


# -- raised second sources ----------------------------------------------------


def euclid_raised(kind, n, p, r):
    base = 1 if n % 2 else 2
    f = (lambda u: euclid_heat(base, p, mp.sqrt(u))) if kind == "heat" else (
        lambda u: euclid_poisson(base, p, mp.sqrt(u)))
    return _raised(f, r * r, (n - base) // 2, -1 / mp.pi)


def sphere_poisson_raised(n, y, phi):
    base = 1 if n % 2 else 2
    h = mp.mpf(base + 1) / 2
    amp = mp.gamma(h) / mp.pi**h * mp.sinh(y)
    f = lambda u: amp / (2 * mp.cosh(y) - 2 * u) ** h  # noqa: E731
    return _raised(f, mp.cos(phi), (n - base) // 2, 1 / (2 * mp.pi))


def hyp_poisson_raised(n, y, rho):
    base = 1 if n % 2 else 2
    h = mp.mpf(base + 1) / 2
    amp = mp.gamma(h) / (2 * mp.pi) ** h * mp.sin(y)
    f = lambda u: amp / (u - mp.cos(y)) ** h  # noqa: E731
    return _raised(f, mp.cosh(rho), (n - base) // 2, -1 / (2 * mp.pi))


def _images(t, phi):
    """Wrapped Gaussian sum over images phi + 2 pi m (phi may be complex)."""
    m_max = int(mp.sqrt(4 * t * (mp.mp.dps * 2.4 + 20)) / (2 * mp.pi)) + 2
    total = mp.mpf(0)
    for m in range(-m_max, m_max + 1):
        a = phi + 2 * mp.pi * m
        total += mp.exp(-a * a / (4 * t))
    return total * (4 * mp.pi * t) ** mp.mpf(-0.5)


def sphere_heat_images(n, t, phi):
    return _raised(lambda u: _images(t, mp.acos(u)), mp.cos(phi), (n - 1) // 2,
                   1 / (2 * mp.pi))


def hyp_heat_odd(n, t, rho, base=3):
    f = (lambda u: hyp_heat3(t, mp.acosh(u))) if base == 3 else (
        lambda u: hyp_heat1(t, mp.acosh(u)))
    return _raised(f, mp.cosh(rho), (n - base) // 2, -1 / (2 * mp.pi))


# -- spectral sum and descent integral -----------------------------------------


def _spectral_at(n, t, phi, dps):
    """(sum, sum of |terms|) of the eigenfunction expansion at ``dps`` digits."""
    with mp.workdps(dps):
        x = mp.cos(phi)
        t = mp.mpf(t)
        if n == 1:
            total, absum, m, peak = mp.mpf(1), mp.mpf(1), 1, mp.mpf(1)
            while True:
                w = 2 * mp.exp(-m * m * t)
                total += w * mp.cos(m * phi)
                absum += w
                if w < mp.mpf(10) ** (-dps - 10):
                    break
                m += 1
            return total / (2 * mp.pi), absum / (2 * mp.pi)
        alpha = mp.mpf(n - 1) / 2
        vol = 2 * mp.pi ** (mp.mpf(n + 1) / 2) / mp.gamma(mp.mpf(n + 1) / 2)
        c_prev, c_cur = mp.mpf(0), mp.mpf(1)  # C_{-1}, C_0
        one_prev, one_cur = mp.mpf(0), mp.mpf(1)  # the same at x = 1
        total = absum = peak = mp.mpf(0)
        tiny = mp.mpf(10) ** (-dps - 10)
        l = 0
        while True:
            weight = mp.exp(-((l + alpha) ** 2) * t) * (2 * l + n - 1) / (n - 1)
            total += weight * c_cur
            absum += abs(weight * c_cur)
            bound = weight * one_cur
            peak = max(peak, bound)
            if l > 2 and bound < tiny * peak:
                break
            # C_{l+1} = (2 x (l + alpha) C_l - (l + 2 alpha - 1) C_{l-1}) / (l + 1)
            c_prev, c_cur = c_cur, (2 * x * (l + alpha) * c_cur
                                    - (l + 2 * alpha - 1) * c_prev) / (l + 1)
            one_prev, one_cur = one_cur, (2 * (l + alpha) * one_cur
                                          - (l + 2 * alpha - 1) * one_prev) / (l + 1)
            l += 1
        return total / vol, absum / vol


def sphere_heat_spectral(n, t, phi):
    dps = DPS + 10
    while True:
        total, absum = _spectral_at(n, t, phi, dps)
        lost = 0 if total == 0 else int(mp.log10(absum / abs(total))) + 1
        if total != 0 and lost < dps - DPS:
            again, _ = _spectral_at(n, t, phi, dps + 15)
            if abs(again - total) <= mp.mpf(10) ** (-DPS) * abs(total):
                return mp.mpf(total)
        dps = max(dps + 30, lost + DPS + 15)
        if dps > 4000:
            raise RuntimeError(f"spectral sum did not resolve at n={n}, t={t}, phi={phi}")


def hyp_heat_descent(n, t, rho, dps=DPS):
    """Even n: sqrt(2) int_rho^inf H_{n+1}(s) sinh s (cosh s - cosh rho)^(-1/2) ds.

    The substitution s = rho + w^2 removes the inverse-square-root endpoint.
    """
    with mp.workdps(dps):
        t, rho = mp.mpf(t), mp.mpf(rho)

        def f(w):
            s = rho + w * w
            # cosh s - cosh rho without cancellation
            gap = 2 * mp.sinh((s + rho) / 2) * mp.sinh(w * w / 2)
            return hyp_heat_odd(n + 1, t, s) * mp.sinh(s) / mp.sqrt(gap) * 2 * w

        # the integrand falls like exp(-(s^2 - rho^2)/4t); stop where that
        # is far below the target precision, and split the w range evenly
        decay = 4 * t * (dps * mp.log(10) + 40)
        span = 1.2 * (mp.sqrt(rho * rho + decay) - rho)
        pieces = 4
        nodes = [mp.sqrt(span) * mp.mpf(j) / pieces for j in range(pieces + 1)]
        # mpmath.quad stops on an absolute error, so integrate f / f(0+)
        scale = abs(f(span * mp.mpf(10) ** -dps)) or mp.mpf(1)
        return mp.sqrt(2) * scale * mp.quad(lambda w: f(w) / scale, nodes)


# -- dispatch -------------------------------------------------------------------


def _convention(pt, value):
    if pt.kind != "heat" or pt.convention == "paper" or pt.space == "euclidean":
        return value
    shift = mp.mpf(pt.n - 1) ** 2 / 4 * mp.mpf(pt.param)
    return value * mp.exp(shift if pt.space == "sphere" else -shift)


def reference(pt):
    """(primary value, primary source, cross thunk or None, cross source)."""
    n, p, r = pt.n, mp.mpf(pt.param), mp.mpf(pt.r)
    if pt.space == "euclidean":
        return (euclid_heat(n, p, r) if pt.kind == "heat" else euclid_poisson(n, p, r),
                "closed", lambda: euclid_raised(pt.kind, n, p, r), "raised")
    if pt.kind == "poisson":
        if pt.space == "sphere":
            return (sphere_poisson(n, p, r), "closed",
                    lambda: sphere_poisson_raised(n, p, r), "raised")
        return hyp_poisson(n, p, r), "closed", lambda: hyp_poisson_raised(n, p, r), "raised"
    if pt.space == "sphere":
        primary = sphere_heat_spectral(n, p, r)
        if n % 2:
            return primary, "spectral", lambda: sphere_heat_images(n, p, r), "images-raised"
        return primary, "spectral", None, None
    if n % 2:
        if n == 1:
            return hyp_heat1(p, r), "closed", None, None
        return (hyp_heat_odd(n, p, r), "h3-raised",
                lambda: hyp_heat_odd(n, p, r, base=1), "h1-raised")
    primary = hyp_heat_descent(n, p, r)
    again = hyp_heat_descent(n, p, r, dps=DPS + 10)
    if not _agree(again, primary):
        raise RuntimeError(f"descent quadrature unstable at {pt.key}")
    return primary, "descent-quad", None, None


def compute(pt) -> dict:
    with mp.workdps(DPS):
        raw, source, cross, cross_source = reference(pt)
        value = _convention(pt, raw)
        entry = {"ref": repr(float(value)), "mp": mp.nstr(value, 25), "source": source}
        if cross is None or abs(value) < UNDERFLOW or abs(raw) < UNDERFLOW:
            return entry
        # a raised value far below the scale of its base kernel (large t on
        # the sphere) cancels that many digits inside the derivative
        extra = max(0, int(-mp.log10(abs(raw))))
        with mp.workdps(DPS + extra):
            other = _convention(pt, cross())
        if not _agree(value, other):
            raise RuntimeError(
                f"{pt.key}: {source} {mp.nstr(value, 20)} vs "
                f"{cross_source} {mp.nstr(other, 20)}"
            )
        entry["cross"] = cross_source
        return entry


def main() -> int:
    # workloads share some points; each key is computed once
    pool = list({pt.key: pt for w in workloads.WORKLOADS for pt in workloads.pool(w)}.values())
    print(f"{len(pool)} points to compute", flush=True)
    start = time.perf_counter()
    refs = {}
    for i, pt in enumerate(pool):
        t0 = time.perf_counter()
        refs[pt.key] = compute(pt)
        dt = time.perf_counter() - t0
        if dt > 2.0 or i % 100 == 0:
            print(f"[{i + 1}/{len(pool)}] {pt.key} {dt:.1f}s", flush=True)
    _write(refs)
    print(f"done in {time.perf_counter() - start:.0f}s, {len(refs)} entries")
    return 0


def _write(refs: dict) -> None:
    tmp = OUT + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(dict(sorted(refs.items())), fh, indent=0)
        fh.write("\n")
    os.replace(tmp, OUT)


if __name__ == "__main__":
    raise SystemExit(main())
