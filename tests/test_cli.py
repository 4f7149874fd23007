"""Command-line interface tests.

These exercise plumbing, not numerics: argument validation, grid parsing,
output formats and exit codes.  Numerical values printed by the CLI are
compared against the library calls they wrap, which are themselves
validated elsewhere.
"""

from __future__ import annotations

import json
import math
import warnings

import pytest
from click.testing import CliRunner

from ckernels import Space, evaluate, hyperbolic
from ckernels.analysis import representation_names
from ckernels.cli import CSV_HEADER, REP_CHOICES, _parse_grid, main
from ckernels.errors import ConvergenceError, DomainError
from ckernels.euclid import heat_closed
from ckernels.quadrature import DEFAULT_TOL
from ckernels.sphere import heat_spectral


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, env=None):
    return runner.invoke(main, args, env=env)


# ----------------------------------------------------------------------------
# version / help


def test_version(runner):
    res = invoke(runner, ["--version"])
    assert res.exit_code == 0
    assert res.stdout.startswith("ckernels, version ")


def test_help_lists_commands(runner):
    res = invoke(runner, ["--help"])
    assert res.exit_code == 0
    for cmd in ("eval", "table", "validate"):
        assert cmd in res.stdout


# ----------------------------------------------------------------------------
# eval: output formats


def test_eval_text_line(runner):
    res = invoke(
        runner,
        ["eval", "--space", "hyperbolic", "--dim", "3", "--kind", "heat",
         "--t", "0.8", "--r", "1.5"],
    )
    assert res.exit_code == 0
    line = res.stdout.strip()
    assert line.startswith("hyperbolic n=3 heat kernel, param=0.8, r=1.5, rep=auto:")
    value = float(line.split("value=")[1].split(" ")[0])
    expected = evaluate(Space.HYPERBOLIC, 3, "heat", 0.8, 1.5).value
    assert value == pytest.approx(expected, rel=1e-15)


def test_eval_csv_header_and_row(runner):
    res = invoke(
        runner,
        ["eval", "--space", "euclidean", "--dim", "3", "--kind", "heat",
         "--t", "0.8", "--r", "1.5", "--rep", "closed", "--format", "csv"],
    )
    assert res.exit_code == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert CSV_HEADER == "space,dim,kind,param,r,rep,value,err,convention"
    fields = lines[1].split(",")
    assert fields[:6] == ["euclidean", "3", "heat", "0.80000000000000004", "1.5", "closed"]
    assert float(fields[6]) == pytest.approx(heat_closed(3, 0.8, 1.5), rel=1e-16)
    assert float(fields[7]) == 0.0
    assert fields[8] == "paper"


def test_eval_csv_roundtrips_17_digits(runner):
    res = invoke(
        runner,
        ["eval", "--space", "euclidean", "--dim", "2", "--kind", "poisson",
         "--y", "0.9", "--r", "1.3", "--format", "csv"],
    )
    assert res.exit_code == 0
    value = float(res.stdout.strip().splitlines()[1].split(",")[6])
    expected = evaluate(Space.EUCLIDEAN, 2, "poisson", 0.9, 1.3).value
    assert value == expected  # %.17g round-trips doubles exactly


def test_eval_json_payload(runner):
    res = invoke(
        runner,
        ["eval", "--space", "sphere", "--dim", "2", "--kind", "heat",
         "--t", "0.7", "--r", "1.1", "--format", "json"],
    )
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert sorted(payload) == ["meta", "records"]
    meta = payload["meta"]
    assert meta["tool"] == "ckernels"
    assert meta["tol"] == 1e-10
    assert meta["convention"] == "paper"
    assert "version" in meta
    (rec,) = payload["records"]
    assert rec["space"] == "sphere"
    assert rec["dim"] == 2
    assert rec["kind"] == "heat"
    assert rec["param"] == 0.7
    assert rec["r"] == 1.1
    assert rec["value"] == pytest.approx(
        evaluate(Space.SPHERE, 2, "heat", 0.7, 1.1).value, rel=1e-15
    )
    assert rec["err"] >= 0.0
    assert rec["convention"] == "paper"


def test_eval_markovian_convention_matches_library(runner):
    res = invoke(
        runner,
        ["eval", "--space", "sphere", "--dim", "3", "--kind", "heat",
         "--t", "0.7", "--r", "1.1", "--convention", "markovian",
         "--format", "json"],
    )
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    rec = payload["records"][0]
    assert rec["convention"] == "markovian"
    assert payload["meta"]["convention"] == "markovian"
    expected = evaluate(Space.SPHERE, 3, "heat", 0.7, 1.1, convention="markovian").value
    assert rec["value"] == pytest.approx(expected, rel=1e-15)


def test_eval_explicit_rep_recorded(runner):
    res = invoke(
        runner,
        ["eval", "--space", "euclidean", "--dim", "2", "--kind", "heat",
         "--t", "0.8", "--r", "1.5", "--rep", "descent", "--format", "csv"],
    )
    assert res.exit_code == 0
    fields = res.stdout.strip().splitlines()[1].split(",")
    assert fields[5] == "descent"
    assert float(fields[6]) == pytest.approx(heat_closed(2, 0.8, 1.5), rel=1e-9)
    assert float(fields[7]) > 0.0  # quadrature reps report an error estimate


# ----------------------------------------------------------------------------
# eval: argument validation (exit code 2)


@pytest.mark.parametrize(
    "args, message",
    [
        (["eval", "--space", "euclidean", "--dim", "2", "--kind", "heat",
          "--r", "1.0"], "heat kernels need --t"),
        (["eval", "--space", "euclidean", "--dim", "2", "--kind", "heat",
          "--t", "0.5", "--y", "0.5", "--r", "1.0"],
         "--y applies to poisson kernels only"),
        (["eval", "--space", "euclidean", "--dim", "2", "--kind", "poisson",
          "--r", "1.0"], "poisson kernels need --y"),
        (["eval", "--space", "euclidean", "--dim", "2", "--kind", "poisson",
          "--t", "0.5", "--y", "0.5", "--r", "1.0"],
         "--t applies to heat kernels only"),
    ],
)
def test_eval_param_mismatch_exits_2(runner, args, message):
    res = invoke(runner, args)
    assert res.exit_code == 2
    assert message in res.stderr


def test_eval_unknown_space_exits_3(runner):
    res = invoke(
        runner,
        ["eval", "--space", "flatland", "--dim", "2", "--kind", "heat",
         "--t", "0.5", "--r", "1.0"],
    )
    assert res.exit_code == 3
    assert "domain error:" in res.stderr


def test_eval_rejects_unknown_rep(runner):
    res = invoke(
        runner,
        ["eval", "--space", "euclidean", "--dim", "2", "--kind", "heat",
         "--t", "0.5", "--r", "1.0", "--rep", "bogus"],
    )
    assert res.exit_code == 2


def test_doubling_is_not_a_cli_rep(runner):
    # The doubled-boundary construction is a library-level cross-check, not a
    # user-facing representation.
    res = invoke(
        runner,
        ["eval", "--space", "sphere", "--dim", "2", "--kind", "poisson",
         "--y", "0.8", "--r", "0.9", "--rep", "doubling"],
    )
    assert res.exit_code == 2


# ----------------------------------------------------------------------------
# eval: domain errors (exit code 3)


@pytest.mark.parametrize(
    "args",
    [
        ["eval", "--space", "euclidean", "--dim", "0", "--kind", "heat",
         "--t", "0.5", "--r", "1.0"],
        ["eval", "--space", "euclidean", "--dim", "2", "--kind", "heat",
         "--t", "-1.0", "--r", "1.0"],
        ["eval", "--space", "sphere", "--dim", "2", "--kind", "heat",
         "--t", "0.5", "--r", "3.5"],
        ["eval", "--space", "hyperbolic", "--dim", "2", "--kind", "poisson",
         "--y", "3.5", "--r", "1.0"],
    ],
)
def test_eval_domain_errors_exit_3(runner, args):
    res = invoke(runner, args)
    assert res.exit_code == 3
    assert res.stderr.startswith("domain error:")
    assert res.stdout == ""


def test_eval_spectral_rep(runner):
    args = ["eval", "--space", "sphere", "--dim", "6", "--kind", "heat",
            "--r", "1", "--rep", "spectral"]
    res = invoke(runner, args + ["--t", "50"])
    assert res.exit_code == 0
    value = float(res.stdout.split("value=")[1].split(" ")[0])
    assert f"{value:.2e}" == "5.80e-138"
    assert "rep=spectral" in res.stdout
    # below SPECTRAL_MIN_T (0.01) the series refuses
    res = invoke(runner, args + ["--t", "0.005"])
    assert res.exit_code == 3
    assert res.stderr.startswith("domain error:")
    assert res.stdout == ""


def test_eval_theta_at_the_pole(runner):
    # the S^2 image integrals are paired, so phi = 0 converges at t >= 0.5
    res = invoke(runner, ["eval", "--space", "sphere", "--dim", "2", "--t", "0.9",
                          "--r", "0", "--rep", "theta"])
    assert res.exit_code == 0
    assert "rep=theta" in res.stdout


# ----------------------------------------------------------------------------
# eval: convergence failure (exit code 4)


def test_eval_convergence_failure_exits_4(runner):
    # even-n S^n raising integrates a float integral under a panel budget
    # that S^8 at t = 9 exhausts
    res = invoke(
        runner,
        ["eval", "--space", "sphere", "--dim", "8", "--t", "9", "--r", "0.5",
         "--rep", "raise"],
    )
    assert res.exit_code == 4
    assert res.stderr.startswith("convergence failure:")
    assert res.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ["eval", "--space", "hyperbolic", "--dim", "3", "--t", "1", "--r", "800"],
        # exp(pi^2/4t) overflows at t = 1e-3; at (200, 1), where the power
        # (cosh rho + cosh xi)^(5/2) overflowed, the log form answers
        ["eval", "--space", "hyperbolic", "--dim", "4", "--t", "0.001", "--r", "1",
         "--rep", "gruet-classic"],
        # sinh(s) overflows past s ~ 710 while exp(-s^2/800) is still nonzero
        ["eval", "--space", "hyperbolic", "--dim", "4", "--t", "200", "--r", "700",
         "--rep", "descent"],
    ],
)
def test_eval_overflow_exits_4(runner, args):
    res = invoke(runner, args)
    assert res.exit_code == 4
    assert res.stderr.startswith("numeric overflow:")
    assert res.stdout == ""


def test_markovian_sphere_heat_at_a_large_time_folds_only_in_spectral(runner):
    # the paper kernel is below 1e-300 here and the markovian factor is
    # e^801: auto answers through the spectral series, which folds the
    # factor into its exponent, while gruet's value is scaled and overflows
    args = ["eval", "--space", "sphere", "--dim", "7", "--t", "95.67", "--r", "0.005656",
            "--convention", "markovian"]
    res = invoke(runner, args + ["--format", "json"])
    assert res.exit_code == 0
    (rec,) = json.loads(res.stdout)["records"]
    assert abs(rec["value"] - 0.0307979467640530) <= rec["err"]
    res = invoke(runner, args + ["--rep", "gruet"])
    assert res.exit_code == 4
    assert res.stderr.startswith("numeric overflow:")


@pytest.mark.parametrize("n, t, rho", [(4, 200.0, 1.0), (11, 30.0, 0.5), (15, 100.0, 0.5)])
def test_eval_classic_at_a_large_time_exits_0(runner, n, t, rho):
    # (cosh rho + cosh xi)^((n+1)/2) overflowed below the old switch to the
    # log form at xi = 350, exit 4; each node where it could now takes it
    res = invoke(runner, ["eval", "--space", "hyperbolic", "--dim", str(n), "--t", str(t),
                          "--r", str(rho), "--rep", "gruet-classic", "--format", "json"])
    assert res.exit_code == 0
    (rec,) = json.loads(res.stdout)["records"]
    gruet = hyperbolic.heat_gruet(n, t, rho)
    assert abs(rec["value"] - gruet.value) <= rec["err"] + gruet.err_estimate


# (space, n, r) at t = 1e-300, where the Gaussian's jet overflows: the pole
# series of one jet printed inf or nan with exit 0, and the sphere's image
# sum and the numpy series warned
TINY_TIME_RAISES = [
    ("hyperbolic", 3, 0.0), ("hyperbolic", 5, 0.001), ("sphere", 5, 0.0),
    ("sphere", 5, 0.001), ("euclidean", 5, 0.0), ("euclidean", 5, 0.001),
]


@pytest.mark.parametrize("space, n, r", TINY_TIME_RAISES)
def test_raise_at_a_tiny_time_overflows_without_a_warning(space, n, r):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            evaluate(Space(space), n, "heat", 1e-300, r, rep="raise")


@pytest.mark.parametrize("rep", ["auto", "raise"])
@pytest.mark.parametrize("space, n, r", TINY_TIME_RAISES)
def test_eval_at_a_tiny_time_exits_4_or_prints_a_value_within_its_error(runner, space, n, r, rep):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = invoke(runner, ["eval", "--space", space, "--dim", str(n), "--t", "1e-300",
                              "--r", str(r), "--rep", rep, "--format", "json"])
    if res.exit_code == 4:
        assert res.stderr.startswith("numeric overflow:")
        return
    assert res.exit_code == 0
    (rec,) = json.loads(res.stdout)["records"]
    # off the origin the kernel at t = 1e-300 is exp(-r^2/4t) = 0 times a float
    assert r > 0.0 and abs(rec["value"]) <= rec["err"] < math.inf


@pytest.mark.parametrize("space", ["euclidean", "sphere"])
def test_eval_closed_heat_at_a_tiny_time_prints_0(runner, space):
    # the amplitude (4 pi t)^(-n/2) overflowed, exit 4, where exp(-r^2/4t)
    # makes the kernel 0
    n = 5 if space == "euclidean" else 3
    res = invoke(runner, ["eval", "--space", space, "--dim", str(n), "--t", "1e-300",
                          "--r", "0.001", "--format", "json"])
    assert res.exit_code == 0
    (rec,) = json.loads(res.stdout)["records"]
    assert rec["value"] == 0.0


def test_eval_descent_at_a_tiny_time_prints_0(runner):
    # the descent integrand's amplitude (4 pi t)^(-3) overflowed, exit 4,
    # where exp(-s^2/4t) makes the kernel 0
    res = invoke(runner, ["eval", "--space", "euclidean", "--dim", "5", "--t", "1e-300",
                          "--r", "0.001", "--rep", "descent", "--format", "json"])
    assert res.exit_code == 0
    (rec,) = json.loads(res.stdout)["records"]
    assert rec["value"] == 0.0


@pytest.mark.parametrize("rep", ["auto", "spectral"])
def test_eval_circle_heat_past_the_image_count_is_the_fourier_row(runner, rep):
    # the image sum needs 1.62e4 images a side (exit 4) and the spectral row
    # refused n = 1 (exit 3); the Fourier series is its first term, 1/2 pi
    res = invoke(runner, ["eval", "--space", "sphere", "--dim", "1", "--t", "1e8",
                          "--r", "1", "--rep", rep, "--format", "json"])
    assert res.exit_code == 0
    (rec,) = json.loads(res.stdout)["records"]
    assert abs(rec["value"] - 0.5 / math.pi) <= rec["err"]


def test_eval_even_hyperbolic_subordinate_exits_0(runner):
    # its inner heat kernel at t ~ 86 overflowed heat_classic's power
    res = invoke(runner, ["eval", "--space", "hyperbolic", "--dim", "6", "--kind", "poisson",
                          "--rep", "subordinate", "--y", "0.8", "--r", "1.5"])
    assert res.exit_code == 0
    assert res.stderr == ""


def test_eval_poisson_closed_underflows_instead_of_overflowing(runner):
    # (cosh rho - cos y)^5 overflows at rho = 278.7; the kernel underflows
    res = invoke(runner, ["eval", "--space", "hyperbolic", "--dim", "9", "--kind", "poisson",
                          "--y", "0.103", "--r", "278.7"])
    assert res.exit_code == 0
    assert "value=0 " in res.stdout


def test_eval_descent_stops_where_the_gaussian_underflows(runner):
    # sinh(s) at the top of the descent integral, and in the raising weight,
    # would overflow past rho ~ 708; the Gaussian is 0 there, and so is the
    # kernel
    for rho in ("709", "800"):
        res = invoke(
            runner,
            ["eval", "--space", "hyperbolic", "--dim", "4", "--t", "0.001", "--r", rho,
             "--rep", "descent", "--format", "json"],
        )
        assert res.exit_code == 0
        (rec,) = json.loads(res.stdout)["records"]
        assert rec["value"] == 0.0
        assert rec["err"] == 0.0


def test_table_partial_rows_before_a_domain_error(runner):
    # the H^n Poisson kernel needs y < pi: y = 1 answers, y = 4 is refused
    res = invoke(
        runner,
        ["table", "--space", "hyperbolic", "--kind", "poisson", "--dim", "3",
         "--y", "1:4:2g", "--r", "1"],
    )
    assert res.exit_code == 3
    lines = res.stdout.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2 and lines[1].startswith("hyperbolic,3,poisson,1,1,auto,")
    assert res.stderr.startswith("domain error after 1 rows:")


def test_table_partial_rows_before_overflow(runner):
    res = invoke(
        runner,
        ["table", "--space", "hyperbolic", "--dim", "3", "--t", "1", "--r", "1:800:2"],
    )
    assert res.exit_code == 4
    lines = res.stdout.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert "numeric overflow after 1 rows" in res.stderr


# ----------------------------------------------------------------------------
# a named representation is that representation


@pytest.mark.parametrize("r", [1e-7, math.pi])
def test_eval_singular_rep_exits_3(runner, r):
    # the S^3 image sum needs 1/sin(phi): it refuses phi < 1e-6 and the
    # antipode, and only ``--rep auto`` passes to another row
    args = ["eval", "--space", "sphere", "--dim", "3", "--kind", "heat",
            "--t", "0.5", "--r", str(r), "--format", "csv"]
    res = invoke(runner, args + ["--rep", "theta"])
    assert res.exit_code == 3
    assert res.stderr.startswith("domain error:")
    assert res.stdout == ""
    res = invoke(runner, args)
    assert res.exit_code == 0
    fields = res.stdout.strip().splitlines()[1].split(",")
    expected = heat_spectral(3, 0.5, r)
    assert fields[5] == "auto" and abs(float(fields[6]) - expected.value) <= expected.err_estimate


# (space, kind, n, cells): r = 0, a point near it, one inside and, on the
# sphere, the antipode; S^8 (9, 0.5) and H^3 (1, 800) refuse with exit 4
_CLI_CELLS = [
    ("euclidean", "heat", 3, [(0.5, 0.0), (0.5, 1e-7), (0.9, 1.5)]),
    ("euclidean", "heat", 31, [(0.9, 0.05)]),
    ("sphere", "heat", 2, [(0.5, 0.0), (0.5, 1.0), (0.5, math.pi)]),
    ("sphere", "heat", 3, [(0.5, 0.0), (0.5, 1e-7), (0.5, 1.0), (0.5, math.pi)]),
    ("sphere", "heat", 8, [(9.0, 0.5)]),
    ("hyperbolic", "heat", 3, [(0.5, 0.0), (0.5, 1e-7), (0.8, 1.5), (1.0, 800.0)]),
    ("hyperbolic", "heat", 2, [(0.8, 0.0), (0.8, 1.5)]),
    ("euclidean", "poisson", 3, [(0.5, 0.0), (0.9, 1.3)]),
    ("sphere", "poisson", 3, [(0.5, 0.0), (0.8, 1.0), (0.8, math.pi)]),
    ("hyperbolic", "poisson", 3, [(0.5, 0.0), (0.8, 1.5)]),
]


def _cli_cases():
    for space, kind, n, cells in _CLI_CELLS:
        reps = [rep for rep in representation_names(Space(space), kind) if rep in REP_CHOICES]
        for rep in reps + ["auto"]:
            for param, r in cells:
                yield pytest.param(space, kind, n, param, r, rep,
                                   id=f"{space}-{kind}-{n}-{param}-{r:.3g}-{rep}")


@pytest.mark.parametrize("space, kind, n, param, r, rep", _cli_cases())
def test_eval_is_evaluate_plus_formatting(runner, space, kind, n, param, r, rep):
    # the value and err of ``evaluate`` to the bit, or its refusal's exit
    # code with nothing on stdout: no representation stands in for another
    pflag = "--t" if kind == "heat" else "--y"
    res = invoke(runner, ["eval", "--space", space, "--kind", kind, "--dim", str(n),
                          pflag, repr(param), "--r", repr(r), "--rep", rep, "--format", "csv"])
    try:
        want = evaluate(Space(space), n, kind, param, r, rep=rep)
    except DomainError:
        assert (res.exit_code, res.stdout) == (3, "")
        return
    except (ConvergenceError, OverflowError):
        assert (res.exit_code, res.stdout) == (4, "")
        return
    assert res.exit_code == 0, res.output
    fields = res.stdout.splitlines()[1].split(",")
    assert fields[5] == rep
    assert (float(fields[6]), float(fields[7])) == (want.value, want.err_estimate)


# ----------------------------------------------------------------------------
# tolerance resolution


def test_the_environment_sets_no_tol(runner):
    # the tolerance is --tol or quadrature.DEFAULT_TOL; CK_DEFAULT_TOL,
    # even an unparsable one, is ignored
    args = ["eval", "--space", "euclidean", "--dim", "2", "--kind", "heat",
            "--t", "0.5", "--r", "1.0", "--format", "json"]
    for env in ("1e-6", "banana"):
        res = invoke(runner, args, env={"CK_DEFAULT_TOL": env})
        assert res.exit_code == 0
        assert json.loads(res.stdout)["meta"]["tol"] == DEFAULT_TOL == 1e-10


def test_explicit_tol_beats_env(runner):
    res = invoke(
        runner,
        ["eval", "--space", "euclidean", "--dim", "2", "--kind", "heat",
         "--t", "0.5", "--r", "1.0", "--tol", "1e-8", "--format", "json"],
        env={"CK_DEFAULT_TOL": "1e-6"},
    )
    assert res.exit_code == 0
    assert json.loads(res.stdout)["meta"]["tol"] == 1e-8


def test_eval_sigma_is_not_an_option(runner):
    res = invoke(runner, ["eval", "--space", "euclidean", "--dim", "2", "--t", "0.5",
                          "--r", "1.0", "--rep", "gruet", "--sigma", "1"])
    assert res.exit_code == 2
    assert "No such option" in res.stderr


def test_nonpositive_tol_exits_2(runner):
    # a tolerance outside (0, 1) is an argument error, also for
    # representations that integrate
    args = ["eval", "--space", "euclidean", "--dim", "2", "--kind", "heat",
            "--t", "0.5", "--r", "1.0"]
    for tol in ("-1e-8", "1", "1e300"):
        for rep in ("auto", "descent"):
            res = invoke(runner, args + ["--rep", rep, "--tol", tol])
            assert res.exit_code == 2, (tol, rep, res.output)
            assert "(0, 1)" in res.stderr


# ----------------------------------------------------------------------------
# grid parsing


def test_parse_grid_single_number():
    assert _parse_grid("2.5", "r", geometric_default=False) == [2.5]


def test_parse_grid_count_one():
    assert _parse_grid("5:9:1", "t", geometric_default=True) == [5.0]


def test_parse_grid_geometric():
    grid = _parse_grid("1:4:3g", "t", geometric_default=False)
    assert grid == pytest.approx([1.0, 2.0, 4.0], rel=1e-15)


def test_parse_grid_linear():
    grid = _parse_grid("1:3:3l", "t", geometric_default=True)
    assert grid == pytest.approx([1.0, 2.0, 3.0], rel=1e-15)


def test_parse_grid_default_spacing():
    geo = _parse_grid("1:4:3", "t", geometric_default=True)
    lin = _parse_grid("1:4:3", "r", geometric_default=False)
    assert geo == pytest.approx([1.0, 2.0, 4.0], rel=1e-15)
    assert lin == pytest.approx([1.0, 2.5, 4.0], rel=1e-15)


@pytest.mark.parametrize("spec", ["1:2", "1:2:0", "a:b:c", "1:2:3x", ""])
def test_parse_grid_rejects_malformed(spec):
    import click

    with pytest.raises(click.UsageError):
        _parse_grid(spec, "t", geometric_default=True)


def test_parse_grid_geometric_needs_positive_endpoints():
    import click

    with pytest.raises(click.UsageError):
        _parse_grid("0:1:3g", "t", geometric_default=False)


# ----------------------------------------------------------------------------
# table command


def test_table_param_major_order(runner):
    res = invoke(
        runner,
        ["table", "--space", "euclidean", "--dim", "1", "--kind", "heat",
         "--t", "1:3:3l", "--r", "0:1:2", "--format", "json"],
    )
    assert res.exit_code == 0
    pairs = [(rec["param"], rec["r"]) for rec in json.loads(res.stdout)["records"]]
    assert pairs == [(1.0, 0.0), (1.0, 1.0), (2.0, 0.0), (2.0, 1.0),
                     (3.0, 0.0), (3.0, 1.0)]


def test_table_t_grid_geometric_by_default(runner):
    res = invoke(
        runner,
        ["table", "--space", "euclidean", "--dim", "1", "--kind", "poisson",
         "--y", "1:4:3", "--r", "0.5", "--format", "json"],
    )
    assert res.exit_code == 0
    params = [rec["param"] for rec in json.loads(res.stdout)["records"]]
    assert params == pytest.approx([1.0, 2.0, 4.0], rel=1e-15)


def test_table_csv_default_format_and_values(runner):
    res = invoke(
        runner,
        ["table", "--space", "euclidean", "--dim", "3", "--kind", "heat",
         "--t", "0.5:2:2g", "--r", "0:1:2"],
    )
    assert res.exit_code == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    for line in lines[1:]:
        fields = line.split(",")
        t, r, value = float(fields[3]), float(fields[4]), float(fields[6])
        assert value == pytest.approx(heat_closed(3, t, r), rel=1e-15)


def test_table_deterministic(runner):
    args = ["table", "--space", "sphere", "--dim", "2", "--kind", "heat",
            "--t", "0.5:1:2g", "--r", "1.0"]
    out1 = invoke(runner, args).stdout
    out2 = invoke(runner, args).stdout
    assert out1 == out2


def test_table_bad_grid_exits_2(runner):
    res = invoke(
        runner,
        ["table", "--space", "euclidean", "--dim", "2", "--kind", "heat",
         "--t", "1:2", "--r", "1.0"],
    )
    assert res.exit_code == 2


def test_table_partial_rows_before_convergence_failure(runner):
    # S^8 raising answers at t = 0.05 but exhausts its panel budget at t = 9;
    # the successful row must still be printed.
    res = invoke(
        runner,
        ["table", "--space", "sphere", "--dim", "8", "--rep", "raise",
         "--t", "0.05:9:2g", "--r", "0.5"],
    )
    assert res.exit_code == 4
    lines = res.stdout.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert "convergence failure after 1 rows" in res.stderr


def test_table_text_format(runner):
    res = invoke(
        runner,
        ["table", "--space", "hyperbolic", "--dim", "2", "--kind", "poisson",
         "--y", "0.5:1:2g", "--r", "1.0", "--format", "text"],
    )
    assert res.exit_code == 0
    lines = res.stdout.strip().splitlines()
    assert len(lines) == 3  # header + 2 rows
    assert lines[0].split() == ["space", "dim", "kind", "param", "r", "rep",
                                "value", "err", "convention"]


# ----------------------------------------------------------------------------
# validate command


def test_validate_semigroup_json(runner):
    res = invoke(runner, ["validate", "--suite", "semigroup"])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["suite"] == "semigroup"
    assert payload["passed"] is True
    assert payload["elapsed_seconds"] >= 0.0
    assert len(payload["checks"]) >= 3
    for check in payload["checks"]:
        assert check["passed"] is True
        assert check["value"] <= check["threshold"]


def test_validate_text_output(runner):
    res = invoke(runner, ["validate", "--suite", "semigroup", "--format", "text"])
    assert res.exit_code == 0
    lines = res.stdout.strip().splitlines()
    assert all(line.startswith("[pass]") for line in lines[:-1])
    assert "all checks passed" in lines[-1]


def test_validate_strict_profile(runner):
    # no option sets a threshold: every check is judged by its own error
    # bar or by one named constant
    res = invoke(
        runner,
        ["validate", "--suite", "semigroup", "--tol-profile", "strict"],
    )
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "No such option" in res.stderr and "Traceback" not in res.output


def test_validate_unknown_suite_exits_2(runner):
    res = invoke(runner, ["validate", "--suite", "nonsense"])
    assert res.exit_code == 2
