"""Command-line interface for kernel evaluation and validation.

Three commands:

* ``eval``: one kernel value at one point.
* ``table``: a parameter-by-distance grid, emitted as CSV, JSON or an
  aligned text table, in deterministic row order with full-precision floats.
* ``validate``: the named self-check suites, as a JSON or text report.

Exit codes: 0 success, 1 a validation check failed, 2 argument errors,
3 mathematical domain errors, 4 quadrature convergence failures and numeric
overflow (partial results are still printed).
The default tolerance honors the CK_DEFAULT_TOL environment variable;
explicit ``--tol`` flags win.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass

import click

from . import __version__
from .analysis import SUITES, evaluate, representation_names, run_suite
from .errors import ConvergenceError, DomainError, SingularPointError
from .geometry import KINDS, Space, space_from_name

# Every representation name of the library, except the doubled-boundary
# construction: a library-level cross-check, not a user-facing representation.
REP_CHOICES = tuple(
    dict.fromkeys(
        name
        for space in Space
        for kind in KINDS
        for name in representation_names(space, kind)
        if name != "doubling"
    )
) + ("auto",)

CSV_HEADER = "space,dim,kind,param,r,rep,value,err,convention"


@dataclass(frozen=True)
class OutputRecord:
    space: str
    dim: int
    kind: str
    param: float
    r: float
    rep: str
    value: float
    err: float
    convention: str

    def csv_row(self) -> str:
        return ",".join(
            (
                self.space,
                str(self.dim),
                self.kind,
                f"{self.param:.17g}",
                f"{self.r:.17g}",
                self.rep,
                f"{self.value:.17g}",
                f"{self.err:.17g}",
                self.convention,
            )
        )

    def to_dict(self) -> dict:
        return {
            "space": self.space,
            "dim": self.dim,
            "kind": self.kind,
            "param": self.param,
            "r": self.r,
            "rep": self.rep,
            "value": self.value,
            "err": self.err,
            "convention": self.convention,
        }


def _resolve_tol(tol: float | None) -> float:
    if tol is None:
        env = os.environ.get("CK_DEFAULT_TOL")
        if not env:
            return 1e-10
        try:
            tol = float(env)
        except ValueError:
            raise click.UsageError(f"CK_DEFAULT_TOL is not a number: {env!r}")
    if not 0.0 < tol < 1.0:
        raise click.UsageError(f"tolerance must lie in (0, 1), got {tol}")
    return tol


def _parse_grid(spec: str, name: str, *, geometric_default: bool) -> list[float]:
    """Parse "start:stop:count" with an optional g/l suffix, or one number.

    The suffix selects geometric or linear spacing; without it, parameter
    grids default to geometric and distance grids to linear.
    """
    spec = spec.strip()
    geometric = geometric_default
    if spec and spec[-1] in ("g", "l"):
        geometric = spec[-1] == "g"
        spec = spec[:-1]
    parts = spec.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) == 3:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        else:
            raise ValueError
    except ValueError:
        raise click.UsageError(
            f"--{name} must be a number or start:stop:count[g|l], got {spec!r}"
        )
    if count < 1:
        raise click.UsageError(f"--{name} needs a positive count")
    if count == 1:
        return [start]
    if geometric:
        if start <= 0.0 or stop <= 0.0:
            raise click.UsageError(f"--{name} geometric grid needs positive endpoints")
        ratio = (stop / start) ** (1.0 / (count - 1))
        return [start * ratio**i for i in range(count)]
    step = (stop - start) / (count - 1)
    return [start + step * i for i in range(count)]


def _emit(records: list[OutputRecord], fmt: str, meta: dict) -> None:
    if fmt == "csv":
        click.echo(CSV_HEADER)
        for rec in records:
            click.echo(rec.csv_row())
    elif fmt == "json":
        payload = {"records": [rec.to_dict() for rec in records], "meta": meta}
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
    else:
        widths = (12, 4, 8, 13, 13, 14, 24, 10, 10)
        headers = CSV_HEADER.split(",")
        click.echo("".join(h.ljust(w) for h, w in zip(headers, widths)))
        for rec in records:
            cells = (
                rec.space,
                str(rec.dim),
                rec.kind,
                f"{rec.param:.6g}",
                f"{rec.r:.6g}",
                rec.rep,
                f"{rec.value:.16e}",
                f"{rec.err:.2e}",
                rec.convention,
            )
            click.echo("".join(c.ljust(w) for c, w in zip(cells, widths)))


def _evaluate_point(
    space: Space,
    dim: int,
    kind: str,
    param: float,
    r: float,
    rep: str,
    tol: float,
    convention: str,
    sigma: float | None,
) -> OutputRecord:
    used_rep = rep
    try:
        res = evaluate(
            space, dim, kind, param, r, rep=rep, tol=tol, convention=convention, sigma=sigma
        )
    except SingularPointError as exc:
        if rep == "auto":
            raise
        click.echo(
            f"warning: {rep} refused (param={param:g}, r={r:g}): {exc}; "
            "substituting the auto representation",
            err=True,
        )
        res = evaluate(
            space, dim, kind, param, r, rep="auto", tol=tol, convention=convention
        )
        used_rep = "auto"
    return OutputRecord(
        space.value,
        dim,
        kind,
        param,
        r,
        used_rep,
        float(res.value),
        float(res.err_estimate),
        convention,
    )


def _common_options(fn):
    fn = click.option(
        "--space",
        required=True,
        help="Model space: euclidean, sphere or hyperbolic.",
    )(fn)
    fn = click.option("--dim", required=True, type=int, help="Dimension n >= 1.")(fn)
    fn = click.option(
        "--kind",
        type=click.Choice(["heat", "poisson"]),
        default="heat",
        show_default=True,
    )(fn)
    fn = click.option(
        "--rep",
        type=click.Choice(list(REP_CHOICES)),
        default="auto",
        show_default=True,
        help="Which representation evaluates the kernel.",
    )(fn)
    fn = click.option(
        "--convention",
        type=click.Choice(["paper", "markovian"]),
        default="paper",
        show_default=True,
        help="Heat normalization on the curved spaces.",
    )(fn)
    fn = click.option("--tol", type=float, default=None, help="Relative tolerance.")(fn)
    fn = click.option(
        "--sigma", type=float, default=None, help="Contour abscissa override."
    )(fn)
    return fn


@click.group()
@click.version_option(version=__version__, prog_name="ckernels")
def main() -> None:
    """Heat and Poisson kernels on the constant-curvature model spaces."""


@main.command("eval")
@_common_options
@click.option("--t", "t_value", type=float, default=None, help="Time (heat kernels).")
@click.option("--y", "y_value", type=float, default=None, help="Height (poisson kernels).")
@click.option("--r", "r_value", type=float, required=True, help="Geodesic distance.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "csv", "json"]),
    default="text",
    show_default=True,
)
def eval_cmd(space, dim, kind, rep, convention, tol, sigma, t_value, y_value, r_value, fmt):
    """Evaluate one kernel value."""
    param = _pick_param(kind, t_value, y_value)
    tol = _resolve_tol(tol)
    try:
        sp = space_from_name(space)
        record = _evaluate_point(sp, dim, kind, param, r_value, rep, tol, convention, sigma)
    except DomainError as exc:
        click.echo(f"domain error: {exc}", err=True)
        sys.exit(3)
    except ConvergenceError as exc:
        click.echo(f"convergence failure: {exc}", err=True)
        sys.exit(4)
    except OverflowError as exc:
        click.echo(f"numeric overflow: {exc}", err=True)
        sys.exit(4)
    if fmt == "text":
        click.echo(
            f"{record.space} n={record.dim} {record.kind} kernel, "
            f"param={record.param:g}, r={record.r:g}, rep={record.rep}: "
            f"value={record.value:.17g} (err estimate {record.err:.3g})"
        )
    else:
        _emit([record], fmt, _meta(tol, convention))


def _pick_param(kind: str, t_value, y_value) -> float:
    if kind == "heat":
        if t_value is None:
            raise click.UsageError("heat kernels need --t")
        if y_value is not None:
            raise click.UsageError("--y applies to poisson kernels only")
        return t_value
    if y_value is None:
        raise click.UsageError("poisson kernels need --y")
    if t_value is not None:
        raise click.UsageError("--t applies to heat kernels only")
    return y_value


def _meta(tol: float, convention: str) -> dict:
    return {"tool": "ckernels", "version": __version__, "tol": tol, "convention": convention}


@main.command("table")
@_common_options
@click.option("--t", "t_spec", default=None, help="Time grid start:stop:count[g|l].")
@click.option("--y", "y_spec", default=None, help="Height grid start:stop:count[g|l].")
@click.option("--r", "r_spec", required=True, help="Distance grid start:stop:count[g|l].")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "json", "text"]),
    default="csv",
    show_default=True,
)
def table_cmd(space, dim, kind, rep, convention, tol, sigma, t_spec, y_spec, r_spec, fmt):
    """Evaluate a kernel over a (param, distance) grid.

    Rows stream in deterministic order: parameter-major, then distance.
    """
    spec = _pick_param(kind, t_spec, y_spec)
    params = _parse_grid(spec, "t" if kind == "heat" else "y", geometric_default=True)
    rs = _parse_grid(r_spec, "r", geometric_default=False)
    tol = _resolve_tol(tol)
    records = []
    try:
        sp = space_from_name(space)
        for param in params:
            for r in rs:
                records.append(
                    _evaluate_point(sp, dim, kind, param, r, rep, tol, convention, sigma)
                )
    except DomainError as exc:
        click.echo(f"domain error: {exc}", err=True)
        sys.exit(3)
    except (ConvergenceError, OverflowError) as exc:
        if records:
            _emit(records, fmt, _meta(tol, convention))
        what = "convergence failure" if isinstance(exc, ConvergenceError) else "numeric overflow"
        click.echo(f"{what} after {len(records)} rows: {exc}", err=True)
        sys.exit(4)
    _emit(records, fmt, _meta(tol, convention))


@main.command("validate")
@click.option(
    "--suite",
    type=click.Choice(list(SUITES) + ["all"]),
    default="all",
    show_default=True,
)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "text"]),
    default="json",
    show_default=True,
)
def validate_cmd(suite, fmt):
    """Run the self-validation suites; exit 0 only if every check passes."""
    try:
        report = run_suite(suite)
    except DomainError as exc:
        click.echo(f"domain error: {exc}", err=True)
        sys.exit(3)
    if fmt == "json":
        click.echo(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for check in report.checks:
            mark = "pass" if check.passed else "FAIL"
            click.echo(
                f"[{mark}] {check.name}: {check.value:.3e} (threshold {check.threshold:.1e})"
                + (f" {check.detail}" if check.detail else "")
            )
        click.echo(
            f"{'all checks passed' if report.passed else 'FAILURES present'} "
            f"in {report.elapsed:.1f}s"
        )
    sys.exit(0 if report.passed else 1)


if __name__ == "__main__":
    main()
