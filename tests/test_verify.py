"""Verification suites and the vectorized kernels they run on, checked
against the pointwise loops they replace."""

import cmath
import functools
import json
import math

import numpy as np
import pytest

from qhermite import DomainError, cli, coherent, polyfam, qdiff_residual_rogers, verify
from qhermite.qcore import q_number, q_pochhammer


def _qdiff_residual_rogers_pointwise(n, q, theta_grid, perturb_order=None):
    """The residual of qdiff_residual_rogers, one grid point at a time."""
    fam = polyfam.rogers(q)
    s = math.sqrt(q)
    lam = 4.0 * q ** (1 - n) * q_number(n if perturb_order is None else perturb_order, q)

    def weight(u):
        return q_pochhammer(u * u, q, math.inf) * q_pochhammer(1.0 / (u * u), q, math.inf) * 2j / (u - 1.0 / u)

    def phi(u):
        return complex(polyfam.eval_orthonormal(fam, n, (u + 1.0 / u) / 2.0))

    def dq_x(u):
        return 0.5 * (s - 1.0 / s) * (u - 1.0 / u)

    def weighted(u):
        return weight(u) * (phi(s * u) - phi(u / s)) / dq_x(u)

    worst = scale = 0.0
    for th in theta_grid:
        u = cmath.exp(1j * th)
        outer = (weighted(s * u) - weighted(u / s)) / dq_x(u)
        rhs = lam * weight(u) * phi(u)
        worst = max(worst, abs((1.0 - q) * outer + rhs))
        scale = max(scale, abs(rhs), abs(weight(u)))
    return worst / scale


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
def test_qdiff_rogers_grid_matches_pointwise(q):
    # residuals are already normalized by the equation's scale, so 1e-13
    # (about 450 ulp of 1) bounds the reordered roundoff of both paths
    grid = np.linspace(0.1, math.pi - 0.1, 20)
    for n in range(9):
        for order in (None, n + 1):
            got = qdiff_residual_rogers(n, q, grid, perturb_order=order)
            assert got == pytest.approx(_qdiff_residual_rogers_pointwise(n, q, grid, order), abs=1e-13)


@pytest.mark.parametrize("bad", [math.pi - 0.01, math.nan])
def test_qdiff_rogers_rejects_bad_point_in_array_grid(bad):
    with pytest.raises(DomainError):
        qdiff_residual_rogers(2, 0.5, np.array([1.0, bad]))


def test_qdiff_rogers_rejects_empty_grid():
    with pytest.raises(DomainError, match="non-empty"):
        qdiff_residual_rogers(2, 0.5, [])


def _crosseval_pointwise(q, nmax, seed):
    """suite_crosseval's measured values with every side evaluated point by point."""
    rng = np.random.default_rng(seed)
    fam_r, fam_d2 = polyfam.rogers(q), polyfam.discrete2(q)
    worst_r = worst_d2 = worst_d1 = 0.0
    for n in range(nmax + 1):
        poch_n = q_pochhammer(q, q, n)
        for x in rng.uniform(-0.99, 0.99, 50):
            trig = polyfam.rogers_trig_eval(n, math.acos(x), q)
            rec = polyfam.eval_orthonormal(fam_r, n, float(x)) * math.sqrt(poch_n)
            worst_r = max(worst_r, abs(trig - rec) / max(1.0, abs(trig)))
        for x in rng.uniform(0.4, 2.5, 50) * rng.choice([-1.0, 1.0], 50):
            ser = polyfam.discrete2_eval_series(n, float(x), q)
            rec = polyfam.eval_orthonormal(fam_d2, n, float(x)) * math.sqrt(poch_n) * q ** (-n * n / 2.0)
            worst_d2 = max(worst_d2, abs(ser - rec) / max(1.0, abs(ser), abs(rec)))
        for x in rng.uniform(0.3, 1.2, 50) * rng.choice([-1.0, 1.0], 50):
            ser1 = polyfam.discrete1_eval(n, float(x), q)
            rec1 = polyfam._monic(polyfam.Family.DISCRETE_I, n, float(x), q)
            worst_d1 = max(worst_d1, abs(ser1 - rec1) / max(1.0, abs(ser1)))
    return [worst_r, worst_d2, worst_d1]


@pytest.mark.parametrize("seed", [1234, 1])
def test_crosseval_suite_same_inputs_and_values(seed):
    report = verify.suite_crosseval(q=0.5, seed=seed)
    assert report.overall
    assert [c.bound for c in report.checks] == [1e-10, 1e-10, 1e-10]
    # same draws and the same arithmetic per point, so the values are equal
    assert [c.measured for c in report.checks] == _crosseval_pointwise(0.5, 12, seed)


def _crosseval_per_degree(q, nmax, seed):
    """suite_crosseval's measured values with one evaluator call per degree and family."""
    rng = np.random.default_rng(seed)
    fam_r = polyfam.rogers(q)
    fam_d2 = polyfam.discrete2(q)
    worst_r = worst_d2 = worst_d1 = 0.0
    for n in range(nmax + 1):
        poch_n = q_pochhammer(q, q, n)
        xs = rng.uniform(-0.99, 0.99, 50)
        recs = polyfam.eval_orthonormal_sequence(fam_r, n, xs)[-1] * math.sqrt(poch_n)
        trig = polyfam.rogers_trig_eval(n, np.array([math.acos(x) for x in xs]), q)
        worst_r = max(worst_r, float(np.max(np.abs(trig - recs) / np.maximum(1.0, np.abs(trig)))))
        xs = rng.uniform(0.4, 2.5, 50) * rng.choice([-1.0, 1.0], 50)
        recs = polyfam.eval_orthonormal_sequence(fam_d2, n, xs)[-1] * math.sqrt(poch_n) * q ** (-n * n / 2.0)
        ser = polyfam.discrete2_eval_series(n, xs, q)
        scale = np.maximum(np.maximum(1.0, np.abs(ser)), np.abs(recs))
        worst_d2 = max(worst_d2, float(np.max(np.abs(ser - recs) / scale)))
        xs = rng.uniform(0.3, 1.2, 50) * rng.choice([-1.0, 1.0], 50)
        recs = polyfam._monic(polyfam.Family.DISCRETE_I, n, xs, q)
        ser = polyfam.discrete1_eval(n, xs, q)
        worst_d1 = max(worst_d1, float(np.max(np.abs(ser - recs) / np.maximum(1.0, np.abs(ser)))))
    return [worst_r, worst_d2, worst_d1]


@pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.7, 0.9, 0.95])
@pytest.mark.parametrize("seed", [1234, 1, 2, 3])
def test_crosseval_in_one_pass_per_family_equals_the_per_degree_loop(q, seed):
    for nmax in (0, 12):
        got = [c.measured for c in verify.suite_crosseval(q=q, nmax=nmax, seed=seed).checks]
        assert list(map(repr, got)) == list(map(repr, _crosseval_per_degree(q, nmax, seed)))


@pytest.mark.parametrize("seed", [1234, 1])
def test_coherent_suite_passes_with_its_bounds(seed):
    report = verify.suite_coherent(q=0.5, seed=seed)
    assert report.overall
    assert [c.bound for c in report.checks] == [1e-9, 1e-9, 1e-10, 1e-10, 1e-12, 1e-9, 1e-8]


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
def test_qdiff_rogers_degree_sequence_is_max_of_single_degree_calls(q):
    grid = np.linspace(0.1, math.pi - 0.1, 20)
    for degrees in (range(9), [4], (7, 2, 0), np.arange(3, 6)):
        for order in (None, 4):
            want = max(qdiff_residual_rogers(int(n), q, grid, perturb_order=order) for n in degrees)
            assert qdiff_residual_rogers(degrees, q, grid, perturb_order=order) == want


def test_qdiff_rogers_rejects_empty_or_negative_degrees():
    with pytest.raises(DomainError, match="non-empty"):
        qdiff_residual_rogers([], 0.5, [1.0])
    with pytest.raises(DomainError):
        qdiff_residual_rogers([2, -1], 0.5, [1.0])


@pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.7, 0.9, 0.95])
def test_moments_suite_values_are_the_two_recurrence_checks(q):
    defect, control = verify.suite_moments(q=q).checks
    assert defect.measured == coherent.moment_recurrence_check(10, q)
    assert control.measured == coherent.moment_recurrence_check(10, q, perturb_base=q * q)


@pytest.mark.parametrize("name", verify.SUITES)
def test_a_suite_rejects_an_argument_it_does_not_read(name):
    with pytest.raises(TypeError):
        verify.SUITES[name](family="rogers")


def test_run_suites_passes_each_suite_the_arguments_its_signature_names(monkeypatch):
    seen = {}

    def suite(q=0.5, dim=20):
        seen.update(q=q, dim=dim)
        return verify.VerificationReport("probe", ())

    # a wrapper that keeps __wrapped__, as a tracer does, exposes the suite's signature
    wrapper = functools.wraps(suite)(lambda *args, **kwargs: suite(*args, **kwargs))
    monkeypatch.setitem(verify.SUITES, "probe", wrapper)
    verify.run_suites("probe", q=0.3, dim=None, nmax=4, seed=1, lattice_scale=2.0)
    assert seen == {"q": 0.3, "dim": 20}


@pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan")])
def test_run_suites_rejects_a_tolerance_that_is_not_positive(tol):
    with pytest.raises(DomainError, match="must be positive"):
        verify.run_suites("radius", tol=tol)


def test_run_suites_rejects_a_keyword_that_no_suite_reads():
    with pytest.raises(TypeError, match=r"no suite reads: seeed$"):
        verify.run_suites("all", seeed=7)
    with pytest.raises(TypeError, match=r"no suite reads: famly, seeed$"):
        verify.run_suites("radius", seeed=None, famly="rogers", q=0.5)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.9])
def test_jackson_suite_passes_at_each_q(q):
    (check,) = verify.suite_jackson(q=q).checks
    assert check.name == f"Jackson moment identity q={q}, n<=15"
    assert check.passed and check.bound == 1e-8


def test_jackson_suite_runs_at_the_default_q_like_the_cli(capsys):
    (report,) = verify.run_suites("jackson")
    assert [c.name for c in report.checks] == ["Jackson moment identity q=0.5, n<=15"]
    assert cli.main(["verify", "--suite", "jackson", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(r["check"], r["measured"]) for r in rows] == [(c.name, c.measured) for c in report.checks]


@pytest.mark.parametrize("name,suite", [("crosseval", verify.suite_crosseval), ("jackson", verify.suite_jackson)])
def test_a_negative_nmax_is_a_domain_error(name, suite):
    # crosseval measured nothing at nmax = -1 and passed; jackson took the max of no moments
    for call in (lambda: suite(nmax=-1), lambda: verify.run_suites(name, nmax=-1)):
        with pytest.raises(DomainError, match="^nmax must be non-negative$"):
            call()
    assert verify.run_suites(name, nmax=0)[0].overall


def test_run_suites_reads_each_suite_signature_once():
    verify._signature.cache_clear()
    for _ in range(3):
        verify.run_suites("radius", q=0.5)  # one lookup per suite for the keyword check, one for radius
    info = verify._signature.cache_info()
    assert info.misses == len(verify.SUITES) and info.hits == 3 * (len(verify.SUITES) + 1) - info.misses
