"""CLI surface: commands, formats, exit statuses, reproducibility."""

import argparse
import contextlib
import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhermite import cli, coherent, oscillator, polyfam, transform, verify


def run_cli(args, capsys):
    status = cli.main(args)
    out = capsys.readouterr().out
    return status, out


def test_eval_trivial(capsys):
    status, out = run_cli(
        ["eval", "--family", "rogers", "--n", "0", "--x", "0.3", "--q", "0.5", "--format", "json"],
        capsys,
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["rows"][0]["value"] == 1.0


def test_eval_discrete1(capsys):
    status, out = run_cli(
        ["eval", "--family", "discrete1", "--n", "1", "--x", "0.5", "--format", "json"], capsys
    )
    assert status == 0
    assert json.loads(out)["rows"][0]["value"] == pytest.approx(0.5, rel=1e-12)


def test_verify_jackson_exit_zero(capsys):
    status, out = run_cli(
        ["verify", "--suite", "jackson", "--q", "0.5", "--nmax", "15", "--format", "json"], capsys
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["meta"]["overall"] is True
    assert all(r["passed"] for r in payload["rows"])
    assert max(r["measured"] for r in payload["rows"]) < 1e-9


def test_verify_commutator_covers_both_families(capsys):
    status, out = run_cli(
        ["verify", "--suite", "commutator", "--q", "0.9", "--dim", "25", "--format", "json"],
        capsys,
    )
    assert status == 0
    rows = json.loads(out)["rows"]
    assert [r["check"].split(" q=")[0] for r in rows] == [
        "Arik-Coon relation", "lattice q^-1 relation", "lattice q^-2 relation",
        "Arik-Coon relation on lattice source [control>]",
    ]
    *defects, control = rows
    assert all(r["measured"] < 1e-12 for r in defects)
    assert round(control["measured"]) == 325 and control["passed"]


def test_verify_has_no_family_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--family=rogers"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --family=rogers" in capsys.readouterr().err


@pytest.mark.parametrize("q", [0.5, 0.7])
@pytest.mark.parametrize("suite", ["all", *verify.SUITES])
def test_verify_rows_are_the_reports_of_run_suites(suite, q, capsys):
    status, out = run_cli(["verify", f"--suite={suite}", f"--q={q}", "--format=json"], capsys)
    got = [(r["suite"], r["check"], r["measured"], r["bound"], r["passed"]) for r in json.loads(out)["rows"]]
    reports = verify.run_suites(suite, q=q, seed=1234)
    assert got == [(rep.suite, c.name, cli._num(c.measured), cli._num(c.bound), c.passed)
                   for rep in reports for c in rep.checks]
    assert status == (0 if all(rep.overall for rep in reports) else 1)
    if suite == "all":
        assert len(got) == (50 if q == 0.5 else 46)


@pytest.mark.parametrize("suite,tol", [("radius", "1e-3"), ("all", "1")])
def test_tol_replaces_only_defect_bounds(suite, tol, capsys):
    status, out = run_cli(["verify", f"--suite={suite}", f"--tol={tol}", "--format=json"], capsys)
    assert status == 0
    own = {(rep.suite, c.name): c for rep in verify.run_suites(suite, q=0.5, seed=1234) for c in rep.checks}
    for row in json.loads(out)["rows"]:
        chk = own[row["suite"], row["check"]]
        if chk.defect:
            assert (row["bound"], row["passed"]) == (float(tol), chk.measured < float(tol))
        else:  # a negative control or a classification keeps its bound and verdict
            assert (row["bound"], row["passed"]) == (cli._num(chk.bound), chk.passed)
    assert {name for (_, name), c in own.items() if not c.defect} >= {
        "lattice family classified entire", "q^(-n^2) growth classified radius-zero"}


def test_verify_unknown_suite_is_config_error(capsys):
    status = cli.main(["verify", "--suite", "nonsense"])
    assert status == 2


def test_invalid_q_is_config_error(capsys):
    status = cli.main(["eval", "--q", "1.5", "--n", "0", "--x", "0.0"])
    assert status == 2


def test_verify_failure_exits_one(capsys, monkeypatch):
    def failing_suite(**_):
        return verify.VerificationReport(
            "fake", (verify.Check("always fails", 1.0, 0.5, False),)
        )

    monkeypatch.setitem(verify.SUITES, "fake", failing_suite)
    status, out = run_cli(["verify", "--suite", "fake", "--format", "json"], capsys)
    assert status == 1
    assert json.loads(out)["meta"]["overall"] is False


def test_spectrum_table_values(capsys):
    status, out = run_cli(
        ["table", "--kind", "spectrum", "--family", "rogers", "--q", "0.5", "--nmax", "10",
         "--format", "csv"],
        capsys,
    )
    assert status == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 11
    assert float(rows[0]["lambda"]) == 1.0
    assert float(rows[1]["lambda"]) == 2.5


def test_gram_table_discrete2(capsys):
    status, out = run_cli(
        ["table", "--kind", "gram", "--family", "discrete2", "--q", "0.5", "--nmax", "6",
         "--c", "1.0", "--format", "csv"],
        capsys,
    )
    assert status == 0
    rows = list(csv.DictReader(out.splitlines()))
    for i, row in enumerate(rows):
        for j in range(7):
            if i != j:
                assert abs(float(row[f"g{j}"])) < 1e-8


def test_table_empty_range(capsys):
    status, out = run_cli(
        ["table", "--kind", "spectrum", "--nmax", "0", "--format", "csv"], capsys
    )
    assert status == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 2  # header plus a single row


def test_csv_json_numeric_identity(tmp_path, capsys):
    args = ["table", "--kind", "spectrum", "--family", "discrete2", "--q", "0.7", "--nmax", "12"]
    csv_path = tmp_path / "t.csv"
    json_path = tmp_path / "t.json"
    assert cli.main(args + ["--format", "csv", "--out", str(csv_path)]) == 0
    assert cli.main(args + ["--format", "json", "--out", str(json_path)]) == 0
    csv_rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    json_rows = json.loads(json_path.read_text())["rows"]
    assert len(csv_rows) == len(json_rows)
    for crow, jrow in zip(csv_rows, json_rows):
        # shortest round-trip text must reparse to the identical float
        assert float(crow["lambda"]) == jrow["lambda"]


def test_verify_all_deterministic(capsys):
    status1, out1 = run_cli(["verify", "--suite", "overlap", "--seed", "7", "--format", "json"], capsys)
    status2, out2 = run_cli(["verify", "--suite", "overlap", "--seed", "7", "--format", "json"], capsys)
    assert status1 == status2 == 0
    assert out1 == out2


def test_oscillator_command(capsys):
    status, out = run_cli(
        ["oscillator", "--family", "rogers", "--q", "0.5", "--dim", "6", "--kind", "raising",
         "--format", "json"],
        capsys,
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["meta"]["arik_coon_residual"] < 1e-12
    assert payload["rows"][1]["re0"] == pytest.approx(1.0, rel=1e-13)


def test_coherent_command(capsys):
    status, out = run_cli(
        ["coherent", "--family", "discrete2", "--q", "0.5", "--z", "1.5,0.0", "--format", "json"],
        capsys,
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["meta"]["eigen_residual"] < 1e-9
    assert payload["rows"][0]["abs"] > 0


def test_gft_command(capsys):
    status, out = run_cli(["gft", "--q", "0.5", "--nmax", "6", "--format", "json"], capsys)
    assert status == 0
    meta = json.loads(out)["meta"]
    assert meta["max_diag_deviation"] < 1e-8
    assert meta["unitarity_defect"] < 1e-7
    assert meta["fourth_power_defect"] < 1e-7


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "qhermite", "eval", "--n", "0", "--x", "0.1", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rows"][0]["value"] == 1.0


def test_suites_and_table_commands_do_not_import_numpy_ma():
    # numpy.ma adds about 1.7 MB to the resident set of a process that imports it
    code = """if True:
        import contextlib, io, sys
        from qhermite import cli, verify
        verify.run_suites("all")
        with contextlib.redirect_stdout(io.StringIO()):
            for family in ("rogers", "discrete1", "discrete2"):
                assert cli.main(["table", "--kind=polys", f"--family={family}", "--q=0.3"]) == 0
            for family in ("rogers", "discrete2"):
                assert cli.main(["table", "--kind=gram", f"--family={family}", "--q=0.7"]) == 0
            assert cli.main(["gft", "--q=0.6"]) == 0
        print("numpy.ma" in sys.modules)
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize(
    "args",
    [
        ["table", "--kind", "polys", "--nmax", "-1"],
        ["gft", "--nmax", "-1"],
        ["table", "--kind", "gram", "--family", "discrete2", "--nmax", "-1"],
        ["table", "--kind", "polys", "--family", "discrete1", "--nmax", "-1"],
    ],
)
def test_negative_nmax_is_config_error(args, capsys):
    status = cli.main(args)
    err = capsys.readouterr().err
    assert status == 2
    assert "configuration error" in err and "Traceback" not in err


@pytest.mark.parametrize("args,message", [
    (["table", "--kind=coherent", "--dim=0"], "a coherent expansion needs dim >= 1, got 0"),
    (["coherent", "--family=discrete2", "--dim=-5"], "a coherent expansion needs dim >= 1, got -5"),
    (["verify", "--suite=crosseval", "--nmax=-1"], "nmax must be non-negative"),
    (["verify", "--suite=jackson", "--nmax=-1"], "nmax must be non-negative"),
])
def test_a_size_below_the_smallest_exits_2(args, message, capsys):
    # the first three exited 0 before: a 1-term state, and three checks that measured nothing
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qhermite: configuration error: {message}\n"


@pytest.mark.parametrize("message,shown", [
    ("Unable to allocate 142. PiB for an array with shape (100000000, 100000000) and data type complex128",
     "Unable to allocate 142. PiB for an array with shape (100000000, 100000000) and data type complex128"),
    ("", "out of memory"),
])
@pytest.mark.parametrize("command", ["oscillator", "gft"])
def test_memory_error_exits_2_without_a_traceback(command, message, shown, capsys, monkeypatch):
    def too_large(cfg):
        raise MemoryError(message)

    monkeypatch.setitem(cli._COMMANDS, command, (too_large, *cli._COMMANDS[command][1:]))
    assert cli.main([command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qhermite: request too large: {shown}\n"


@pytest.mark.parametrize("family,x", [("rogers", "nan"), ("discrete2", "inf"), ("discrete1", "nan")])
def test_non_finite_x_is_config_error(family, x, capsys):
    status = cli.main(["eval", "--family", family, "--n", "3", f"--x={x}"])
    err = capsys.readouterr().err
    assert status == 2
    assert "configuration error" in err and "finite" in err


@pytest.mark.parametrize("args,message", [
    (["table", "--kind=gram", "--family=discrete2", "--c=inf"], "lattice_scale must be positive and finite"),
    (["verify", "--suite=gram", "--c=nan"], "lattice_scale must be positive and finite"),
    (["coherent", "--z=nan,0"], "coherent states need a finite z"),
    (["table", "--kind=coherent", "--family=discrete2", "--z=0,-inf"], "coherent states need a finite z"),
])
def test_non_finite_c_and_z_are_config_errors(args, message, capsys):
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"qhermite: configuration error: {message}")


def test_nan_gram_is_numerical_error(capsys, monkeypatch):
    monkeypatch.setattr(polyfam, "_discrete2_gram", lambda family, nmax: np.full((nmax + 1, nmax + 1), np.nan))
    assert cli.main(["table", "--kind=gram", "--family=discrete2", "--nmax=3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qhermite: numerical error: off-diagonal Gram mass nan exceeds 1e-6\n"


def test_gram_with_a_wrong_diagonal_is_numerical_error(capsys, monkeypatch):
    monkeypatch.setattr(polyfam, "_discrete2_gram", lambda family, nmax: np.diag([1.0, 2.0, 1.0]))
    assert cli.main(["table", "--kind=gram", "--family=discrete2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qhermite: numerical error: Gram diagonal spread 5.000e-01 exceeds 1e-6\n"


def test_overflow_is_numerical_error(capsys):
    status = cli.main(["eval", "--family=discrete2", "--n=2000", "--x=1"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.startswith("qhermite: numerical error: ")
    assert "Traceback" not in captured.err


def test_overflow_message_names_family_degree_and_q(capsys):
    assert cli.main(["eval", "--family=discrete2", "--n=2000", "--x=1", "--q=0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qhermite: numerical error: discrete2 ")
    assert "degree n = 1024" in err and "q = 0.5" in err


def test_spectrum_overflow_names_the_eigenvalue(capsys):
    assert cli.main(["table", "--kind=spectrum", "--family=discrete2", "--nmax=600"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("qhermite: numerical error: discrete2 eigenvalue lambda_n overflows double range "
                            "at degree n = 512, q = 0.5\n")


@pytest.mark.parametrize("args,message", [
    # ConvergenceError; --q=0.1 --nmax=160 (off-diagonal Gram mass 8.408e-02) and --q=0.5 --nmax=600
    # (k = -645) failed and now exit 0
    (["table", "--kind=gram", "--family=discrete2", "--q=0.1", "--nmax=300"],
     "type-II lattice term is not finite at k = -316, q = 0.1"),
    # InsufficientData from the radius estimator
    (["verify", "--suite=radius", "--q=0.1"], "coefficient magnitudes must be positive and finite"),
    (["coherent", "--family=discrete2", "--z=1e200,0"], "coherent state |z|^2 overflows double range at |z| = 1e+200"),
])
def test_numerical_failures_are_reported_as_numerical_errors(args, message, capsys):
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"qhermite: numerical error: {message}")
    assert "Traceback" not in captured.err


def test_a_non_finite_rogers_quadrature_exits_2_at_once(capsys):
    assert cli.main(["table", "--kind=gram", "--family=rogers", "--q=0.999", "--nmax=10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qhermite: numerical error: Rogers theta rule is not finite at q=0.999 on 128 nodes\n"


@pytest.mark.parametrize("args, n_nodes", [
    (["table", "--kind=gram", "--family=rogers", "--q=0.999", "--nmax=10"], 128),
    (["gft", "--q=0.999"], 128),
    (["verify", "--suite=gft", "--q=0.999"], 2048),
])
def test_q_0_999_rogers_commands_exit_2_without_a_warning_under_warnings_as_errors(args, n_nodes):
    """The density's overflow near q = 1 is expected; with RuntimeWarning raised as an error it
    would otherwise end the process with a traceback instead of the numerical-error line."""
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "qhermite", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    assert proc.stderr == f"qhermite: numerical error: Rogers theta rule is not finite at q=0.999 on {n_nodes} nodes\n"


@pytest.mark.parametrize("c", ["1e-300", "1e100", "1e150"])
def test_discrete2_gram_at_an_extreme_lattice_scale_exits_0_under_warnings_as_errors(c):
    """The lattice scale is reduced into (q, 1] before the sum; summed on c's own lattice,
    c = 1e100 divided by a zero (0, 0) entry and c = 1e-300 overflowed Python's q ** k."""
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "qhermite", "table", "--kind=gram",
                           "--family=discrete2", "--nmax=4", f"--c={c}"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_discrete2_gram_near_q_1_exits_0(capsys):
    assert cli.main(["table", "--kind=gram", "--family=discrete2", "--q=0.99", "--c=2.5", "--nmax=10"]) == 0


@pytest.mark.parametrize("q, nmax", [("0.999", "10"), ("0.1", "160"), ("0.3", "300"), ("0.5", "600"), ("1e-30", "6")])
def test_discrete2_gram_exits_0_under_warnings_as_errors(q, nmax):
    """At q = 0.999 the positive side is a finite sum; walked under the stop rule it needed about
    37,000 points and exited 2 with "no convergence within 10000 terms".  At nmax 160 and 300 the
    log-weights take 2 log x where x^2 overflows; with log1p(x^2) = inf every point past
    x = 1.3e154 had weight 0, and these exited 2 with "off-diagonal Gram mass 8.408e-02" and
    "1.993e-01".  At q = 0.5, nmax 600 and q = 1e-30, nmax 6 a column is rescaled below
    1e120 / max(1, 1e-30 |x|), so x p_m stays finite; with a flat 1e120 these exited 2 with "type-II
    lattice term is not finite at k = -645" and "at k = -8"."""
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "qhermite", "table", "--kind=gram",
                           "--family=discrete2", f"--q={q}", f"--nmax={nmax}"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("args, message", [
    (["table", "--kind=gram", "--family=discrete2", "--q=1e-30", "--nmax=8"],
     "type-II lattice term is not finite at k = -11, q = 1e-30"),
    (["table", "--kind=gram", "--family=discrete2", "--q=1e-7", "--nmax=44"],
     "type-II lattice term is not finite at k = -48, q = 1e-07"),
    (["verify", "--suite=qdiff", "--q=0.05", "--nmax=30"],
     "discrete2 lattice difference residual overflows double range at degree n = 23, q = 0.05"),
])
def test_a_lattice_past_double_range_exits_2_with_a_named_error(args, message, capsys):
    """Before, the Gram at q = 1e-30, nmax 6 printed Python's "(34, 'Numerical result out of range')", the
    Gram at q = 1e-7, nmax 44 exited 0 with a diagonal spread of 1.0, and the qdiff suite's
    lattice residual row passed on a residual that had dropped a NaN."""
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qhermite: numerical error: {message}\n"


@pytest.mark.parametrize("q", ["0.99", "0.995", "0.998", "0.999"])
def test_jackson_suite_passes_near_q_one(q, capsys):
    """The moments are one finite lattice sum; the walk raised OverflowError from q ~ 0.998 on."""
    assert cli.main(["verify", "--suite=jackson", f"--q={q}"]) == 0


def test_qdiff_suite_at_q_0_999_exits_2_with_no_warning():
    """The Rogers weight overflows there; it ended in a RuntimeWarning traceback under -W error, and
    printed NaN rows without it."""
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "qhermite", "verify", "--suite=qdiff",
                           "--q=0.999"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == ("qhermite: numerical error: Rogers weight (u^2;q)_inf (u^-2;q)_inf / sin(theta) is not "
                           "finite at q = 0.999\n")


@pytest.mark.parametrize("suite", ["jackson", "moments"])
def test_moment_suites_pass_at_q_0_99(suite, capsys):
    """At q = 0.99 e_q's power series needs more than 10,000 terms; Euler's product does not."""
    assert cli.main(["verify", f"--suite={suite}", "--q=0.99"]) == 0


@pytest.mark.parametrize("q", ["0.1", "0.5", "0.9"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_discrete1_polys_table_equals_pointwise_build(q, fmt, tmp_path):
    args = ["table", "--kind=polys", "--family=discrete1", f"--q={q}", f"--format={fmt}"]
    assert cli.main(args + [f"--out={tmp_path / 'table'}"]) == 0
    xs = np.linspace(-3.0, 3.0, 41)
    assert 0.0 in xs
    rows = [{"x": cli._num(x)} | {f"p{n}": cli._num(polyfam.discrete1_eval(n, float(x), float(q))) for n in range(11)}
            for x in xs]
    meta = {"command": "table", "kind": "polys", "family": "discrete1", "q": float(q)}
    cli.emit(meta, rows, cli.RunConfig(command="table", fmt=fmt, out=str(tmp_path / "pointwise")))
    assert (tmp_path / "table").read_bytes() == (tmp_path / "pointwise").read_bytes()


def test_negative_values_in_name_equals_value_form(capsys):
    status, out = run_cli(["eval", "--x=-3.7e-05", "--format", "json"], capsys)
    assert status == 0
    assert json.loads(out)["rows"][0]["x"] == -3.7e-05
    status, out = run_cli(["coherent", "--z=-0.3,0.2", "--format", "json"], capsys)
    assert status == 0
    meta = json.loads(out)["meta"]
    assert (meta["z_re"], meta["z_im"]) == (-0.3, 0.2)


# -- the parser is built once per process and shared by every main() call ---


def test_build_parser_is_shared():
    assert cli.build_parser() is cli.build_parser()


def _run_captured(args, capsys):
    status = cli.main(args)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


MIXED_ARGVS = [
    ["eval", "--family", "rogers", "--n", "3", "--x", "0.25", "--q", "0.7"],
    ["eval", "--family=discrete1", "--n=2", "--x=-0.5", "--format", "json"],
    ["table", "--kind", "polys", "--family", "discrete2", "--nmax", "3", "--format", "csv"],
    ["table", "--kind", "spectrum", "--q", "0.3", "--nmax", "5", "--format", "json"],
    ["table", "--kind", "gram", "--family", "discrete2", "--nmax", "3", "--format", "csv"],
    ["table", "--kind", "coherent", "--family", "discrete2", "--z=-0.3,0.2", "--dim", "6"],
    ["table"],
    ["verify", "--suite", "jackson", "--nmax", "8", "--tol", "1e-6", "--format", "json"],
    ["verify", "--suite", "jackson", "--tol", "0"],
    ["oscillator", "--family", "discrete2", "--dim", "4", "--kind", "lowering", "--format", "csv"],
    ["oscillator", "--dim", "3"],
    ["coherent", "--family", "discrete2", "--z", "1.5,0.0", "--format", "json"],
    ["gft", "--nmax", "4", "--format", "csv"],
    ["eval", "--q", "1.5"],
]


def test_shared_parser_matches_fresh_parser(capsys, monkeypatch):
    shared = [_run_captured(args, capsys) for args in MIXED_ARGVS]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [_run_captured(args, capsys) for args in MIXED_ARGVS]
    assert shared == fresh
    assert [s for s, _, _ in shared].count(0) == len(MIXED_ARGVS) - 2


def test_no_default_leaks_between_calls(capsys):
    assert _run_captured(["table", "--kind=gram", "--nmax=2"], capsys)[0] == 0
    status, out, _ = _run_captured(["table"], capsys)
    assert status == 0 and "# kind = spectrum\n" in out
    assert _run_captured(["oscillator", "--kind=raising"], capsys)[0] == 0
    status, out, _ = _run_captured(["oscillator"], capsys)
    assert status == 0 and "# kind = hamiltonian\n" in out


def test_argparse_error_leaves_parser_usable(capsys):
    args = ["eval", "--family=discrete2", "--n=2", "--x=0.5", "--format", "json"]
    before = _run_captured(args, capsys)
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--family=nope"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert before[0] == 0
    assert _run_captured(args, capsys) == before


# -- each command takes --format, --out and only the options it reads --------

DECLARED = {
    "eval": ("family", "q", "n", "x"),
    "table": ("kind", "family", "q", "nmax", "z", "dim", "c"),
    "verify": ("suite", "q", "nmax", "dim", "c", "tol", "seed"),
    "oscillator": ("kind", "family", "q", "dim"),
    "coherent": ("family", "q", "z", "dim"),
    "gft": ("q", "nmax"),
}
#: option -> (argument text, parsed value)
OPTION_VALUES = {"family": ("discrete2", "discrete2"), "q": ("0.25", 0.25), "n": ("3", 3), "nmax": ("4", 4),
                 "dim": ("5", 5), "x": ("-0.5", -0.5), "z": ("-0.3,0.2", complex(-0.3, 0.2)), "c": ("2.0", 2.0),
                 "tol": ("1e-6", 1e-6), "seed": ("7", 7), "suite": ("jackson", "jackson"),
                 "format": ("json", "json"), "out": ("table.csv", "table.csv")}
KIND_VALUES = {"table": "gram", "oscillator": "raising"}
DESTS = {"c": "lattice_scale", "format": "fmt"}


def test_the_cli_has_40_settable_values():
    (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {name: tuple(a.option_strings[0][2:] for a in p._actions if a.dest != "help")
               for name, p in commands.choices.items()}
    assert options == {name: opts + ("format", "out") for name, opts in DECLARED.items()}
    assert sum(map(len, options.values())) == 40


@pytest.mark.parametrize("option", ["kind", *OPTION_VALUES])
@pytest.mark.parametrize("command", DECLARED)
def test_each_command_parses_only_the_options_it_reads(command, option, capsys):
    text, value = (KIND_VALUES.get(command, "polys"),) * 2 if option == "kind" else OPTION_VALUES[option]
    argv = [command, f"--{option}={text}"]
    if option in DECLARED[command] + ("format", "out"):
        assert getattr(cli.build_parser().parse_args(argv), DESTS.get(option, option)) == value
    else:
        # an undeclared option, even one a declared option's name starts with (--n, --nmax)
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# -- table rows against reference builders that fill one cell at a time -------


def _reference_rows(cfg):
    fam = polyfam.FamilyDescriptor(polyfam.Family(cfg.family), cfg.q, cfg.lattice_scale)
    num = cli._num
    rows = []
    if cfg.command == "eval":
        value = (polyfam.discrete1_eval(cfg.n, cfg.x, cfg.q) if cfg.family == "discrete1"
                 else polyfam.eval_orthonormal(fam, cfg.n, cfg.x))
        rows.append({"n": cfg.n, "x": num(cfg.x), "value": num(value)})
    elif cfg.command == "verify":
        for rep in verify.run_suites(cfg.suite, tol=cfg.tol, q=cfg.q, nmax=cfg.nmax, dim=cfg.dim, seed=cfg.seed,
                                     lattice_scale=cfg.lattice_scale):
            for chk in rep.checks:
                rows.append({"suite": rep.suite, "check": chk.name, "measured": num(chk.measured),
                             "bound": num(chk.bound), "passed": chk.passed})
    elif cfg.command == "oscillator":
        dim = cfg.dim if cfg.dim is not None else 8
        op = oscillator.build_operator(oscillator.OperatorKind(cfg.kind), oscillator.source_for_family(fam), cfg.q, dim)
        for i in range(dim):
            row = {"i": i}
            for j in range(dim):
                row[f"re{j}"] = num(op.entries[i, j].real)
                row[f"im{j}"] = num(op.entries[i, j].imag)
            rows.append(row)
    elif cfg.command == "gft":
        nmax = cfg.nmax if cfg.nmax is not None else 8
        f_mat = transform.gft_matrix(nmax, cfg.q)
        expected = (-1j) ** np.arange(nmax + 1)
        for n in range(nmax + 1):
            rows.append({"n": n, "diag_re": num(f_mat[n, n].real), "diag_im": num(f_mat[n, n].imag),
                         "expected_re": num(expected[n].real), "expected_im": num(expected[n].imag)})
    elif cfg.command == "coherent" or cfg.kind == "coherent":
        state = coherent.bg_expansion(fam, cfg.z, dim=cfg.dim)
        for n, c in enumerate(state.coefficients):
            rows.append({"n": n, "abs": num(abs(c)), "re": num(c.real), "im": num(c.imag)})
    elif cfg.kind == "spectrum":
        lam = oscillator.spectrum(oscillator.source_for_family(fam), cfg.q, cfg.nmax)
        for n, value in enumerate(lam):
            rows.append({"n": n, "lambda": num(value)})
    elif cfg.kind == "polys":
        span = 0.99 if cfg.family == "rogers" else 3.0
        xs = np.linspace(-span, span, 41)
        if cfg.family == "discrete1":
            vals = [polyfam.discrete1_eval(n, xs, cfg.q) for n in range(cfg.nmax + 1)]
        else:
            vals = polyfam.eval_orthonormal_sequence(fam, cfg.nmax, xs)
        for j, x in enumerate(xs):
            row = {"x": num(x)}
            for n in range(cfg.nmax + 1):
                row[f"p{n}"] = num(vals[n][j])
            rows.append(row)
    else:  # gram
        report = polyfam.gram_matrix(fam, cfg.nmax)
        for i in range(report.dimension):
            row = {"i": i}
            for j in range(report.dimension):
                row[f"g{j}"] = num(report.matrix[i, j])
            rows.append(row)
    return rows


ROW_ARGVS = [
    ["eval", "--family=discrete1", "--n=3", "--x=0.25"],
    ["eval", "--family=discrete2", "--n=5", "--x=-0.5", "--q=0.9"],
    ["table", "--kind=spectrum", "--family=rogers", "--nmax=12"],
    ["table", "--kind=spectrum", "--family=discrete2", "--nmax=12", "--q=0.3"],
    ["table", "--kind=polys", "--family=rogers", "--nmax=5", "--q=0.1"],
    ["table", "--kind=polys", "--family=discrete1", "--nmax=4"],
    ["table", "--kind=polys", "--family=discrete2", "--nmax=6", "--q=0.9"],
    ["table", "--kind=gram", "--family=rogers", "--nmax=6"],
    ["table", "--kind=gram", "--family=discrete2", "--nmax=5", "--c=0.7"],
    ["table", "--kind=coherent", "--family=rogers", "--z=0.9,-0.4", "--q=0.9"],
    ["table", "--kind=coherent", "--family=discrete2", "--z=-2.0,1.0", "--dim=9"],
    ["verify", "--suite=jackson", "--nmax=8", "--tol=1e-9"],
    ["oscillator", "--kind=momentum", "--family=rogers", "--dim=5"],
    ["oscillator", "--kind=hamiltonian", "--family=discrete2", "--q=0.3"],
    ["coherent", "--family=rogers", "--z=0.5,0.5"],
    ["coherent", "--family=discrete2", "--z=3.0,-1.0", "--q=0.7"],
    ["gft", "--nmax=6", "--q=0.4"],
]


@pytest.mark.parametrize("fmt", ["csv", "json", "pretty"])
@pytest.mark.parametrize("argv", ROW_ARGVS, ids=" ".join)
def test_rows_equal_the_cell_by_cell_reference(argv, fmt, capsys):
    assert cli.main(argv + ["--format=json"]) == 0
    meta = json.loads(capsys.readouterr().out)["meta"]  # JSON keeps each value and the key order
    assert cli.main(argv + [f"--format={fmt}"]) == 0
    got = capsys.readouterr().out
    cfg = cli.RunConfig(**vars(cli.build_parser().parse_args(argv + [f"--format={fmt}"])))
    cli.emit(meta, _reference_rows(cfg), cfg)
    assert got == capsys.readouterr().out


# --- the column-at-a-time emitter against the cell-at-a-time layout ---------

def _emitted(meta, rows, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.emit(meta, rows, cli.RunConfig(command="table", fmt=fmt))
    return out.getvalue()


def _reference_emit(meta, rows, fmt):
    """json.dumps for JSON; one csv.writer row, or one padded line, per table row."""
    if fmt == "json":
        return json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n"
    header = list(rows[0]) if rows else []
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if rows:
            writer.writerow(header)
            for row in rows:
                writer.writerow([cli._fmt_cell(row[k]) for k in header])
        return buf.getvalue()
    lines = [f"# {k} = {cli._fmt_cell(v)}" for k, v in meta.items()]
    if rows:
        widths = [max(len(h), max(len(cli._fmt_cell(r[h])) for r in rows)) for h in header]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            lines.append("  ".join(cli._fmt_cell(row[h]).ljust(w) for h, w in zip(header, widths)))
    return "\n".join(lines) + "\n"


_AWKWARD = ['a, "b"', "}, {", '"', "\\", "two\nlines", "ĉu ŝi? π ≈ 3", "", "nan"]

EMIT_CASES = {
    "no rows": ({"command": "table", "q": 0.5}, []),
    "no meta, no rows": ({}, []),
    "one row": ({"q": 0.25}, [{"n": 0, "x": -0.5, "value": 1.0}]),
    "rows without keys": ({"q": 0.25}, [{}, {}]),
    "extreme floats": ({"tiny": 5e-324}, [{"x": v, "y": -v} for v in (-0.0, 5e-324, 1.7976931348623157e308, 1.0)]),
    "big ints and bools": ({"overall": True, "seed": 2**63},
                           [{"n": 2**53 + k, "passed": k % 2 == 0, "flag": k > 1} for k in range(4)]),
    "non-finite strings in a float column": (
        {"q": cli._num(float("nan"))},
        [{"x": cli._num(v)} for v in (0.5, float("nan"), float("inf"), float("-inf"), -2.0)]),
    "non-finite floats": ({"q": float("inf")}, [{"x": v} for v in (1.0, float("nan"), float("-inf"))]),
    "awkward strings": ({s or "empty": s for s in _AWKWARD},
                        [{"suite": s, "check": s[::-1], "x": float(k)} for k, s in enumerate(_AWKWARD)]),
    "awkward keys": ({"k": 1}, [{s: k for s in _AWKWARD} for k in range(3)]),
    "numpy scalars": ({"q": np.float64(0.5)}, [{"x": np.float64(v), "y": v} for v in (0.1, -3.0, 2.5e-17)]),
    "mixed column": ({}, [{"c": v} for v in (1, 1.5, "s", None, True, np.float64(2.0))]),
    "nested values": ({"shape": [2, [3, {}]], "info": {"a": [], "b": {"c": 1}}},
                      [{"v": [1.5, "x"], "w": {"k": [None]}}, {"v": [], "w": {}}]),
}


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize("case", EMIT_CASES)
def test_emit_matches_the_cell_by_cell_layout(case, fmt):
    meta, rows = EMIT_CASES[case]
    assert _emitted(meta, rows, fmt) == _reference_emit(meta, rows, fmt)


_SCALARS = [
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-2**70, max_value=2**70),
    st.booleans(),
    st.text(max_size=6),
    st.sampled_from(["nan", "inf", "-inf"]),
    st.none(),
]


@st.composite
def _flat_tables(draw):
    """meta and rows of scalars; each column draws from one kind of scalar or from all."""
    keys = draw(st.lists(st.text(max_size=4), max_size=4, unique=True))
    kinds = [draw(st.sampled_from(_SCALARS + [st.one_of(_SCALARS)])) for _ in keys]
    n = draw(st.integers(min_value=0, max_value=5))
    rows = [{k: draw(kind) for k, kind in zip(keys, kinds)} for _ in range(n)]
    meta = draw(st.dictionaries(st.text(max_size=4), st.one_of(_SCALARS), max_size=4))
    return meta, rows


@settings(max_examples=60, deadline=None)
@given(_flat_tables(), st.sampled_from(["json", "csv", "pretty"]))
def test_emit_matches_the_cell_by_cell_layout_on_random_tables(table, fmt):
    meta, rows = table
    assert _emitted(meta, rows, fmt) == _reference_emit(meta, rows, fmt)


# --- lattice coherent states past double range ------------------------------

@pytest.mark.parametrize("args,message", [
    (["--z=1e10,0"], "coherent state |c_n|^2 overflows double range at n = 25, |z| = 10000000000.0"),
    (["--z=1e10,0", "--dim=3"], "e_q_gaussian series: term 23 overflows double range at x = 1e+20"),
])
def test_lattice_coherent_overflow_is_named(args, message, capsys):
    assert cli.main(["coherent", "--family=discrete2"] + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qhermite: numerical error: {message}\n"
