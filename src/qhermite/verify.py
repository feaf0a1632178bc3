"""Named verification suites aggregating the library's identity checks.

Each suite runs a battery of numeric checks with pinned tolerances and
returns a VerificationReport; the CLI renders reports as pretty text, CSV,
or JSON.  Randomized checks draw from a seeded generator so runs are
reproducible; the seed is recorded by the caller.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass

import numpy as np

from . import coherent, oscillator, polyfam, transform
from .errors import DomainError
from .qcore import (
    as_qparam,
    e_q,
    e_q_reciprocal,
    jackson_integral,
    q_derivative,
    q_factorial,
    q_number,
    q_pochhammer,
)


@dataclass(frozen=True)
class Check:
    name: str
    measured: float
    bound: float
    passed: bool
    defect: bool = False  # a defect bound, made by _below: run_suites' tol replaces it


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    checks: tuple[Check, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)


def _below(name: str, measured: float, bound: float) -> Check:
    return Check(name, float(measured), float(bound), bool(measured < bound), True)


def _above(name: str, measured: float, bound: float) -> Check:
    """Negative-control check: the defect must EXCEED the bound."""
    return Check(name + " [control>]", float(measured), float(bound), bool(measured > bound))


def suite_qcore(q: float = 0.5, seed: int = 1234) -> VerificationReport:
    rng = np.random.default_rng(seed)
    checks = []
    worst = 0.0
    for qq in (0.3, 0.5, 0.7, 0.9):
        prod = 1.0
        for n in range(1, 31):
            prod *= q_number(n, qq)
            fac = q_factorial(n, qq)
            worst = max(worst, abs(prod - fac) / fac)
    checks.append(_below("q-factorial equals running q-number product (n<=30)", worst, 1e-12))

    x = rng.uniform(-0.7, 0.7, (100, 2)).view(complex)[:, 0] / (1.0 - q)
    lhs = 1.0 / e_q(x, q)  # Euler's product ((1-q)x; q)_inf against its series
    rhs = polyfam.phi_1_1(0.0, 0.0, q, (1.0 - q) * x)
    checks.append(_below("1/e_q(x) equals 1phi1(0;0;q,(1-q)x) on 100 random points",
                         np.max(abs(lhs - rhs) / abs(lhs), initial=0.0), 1e-12))

    # the 50 draws of rng.uniform(-1, 1, 4) twice and rng.uniform(0.2, 1.5) each, as uniform scales them;
    # every power is np.float_power, libm's pow as Python's t**i
    draws = rng.random((50, 9))
    cu, cv, x = -1.0 + 2.0 * draws[:, :4], -1.0 + 2.0 * draws[:, 4:8], 0.2 + (1.5 - 0.2) * draws[:, 8]
    u = lambda t: sum(cu[:, i] * np.float_power(t, i) for i in range(4))
    v = lambda t: sum(cv[:, i] * np.float_power(t, i) for i in range(4))
    lhs = q_derivative(lambda t: u(t) * v(t), x, q)
    rhs = u(x) * q_derivative(v, x, q) + v(q * x) * q_derivative(u, x, q)
    checks.append(_below("q-Leibnitz rule on random polynomials",
                         np.max(abs(lhs - rhs) / np.maximum(1.0, abs(lhs)), initial=0.0), 1e-12))

    # the 49 monomial pairs u = t^m, v = t^k, m, k <= 6, each integral an element of one lattice sum
    m, k = (e.ravel().astype(float) for e in np.meshgrid(range(7), range(7), indexing="ij"))
    a = 1.0
    u = lambda t: np.float_power(t, m)
    v = lambda t: np.float_power(t, k)
    lhs = jackson_integral(lambda t: u(t) * q_derivative(v, t, q), a, q)
    boundary = u(a) * v(a) - ((m == 0) & (k == 0))
    rhs = boundary - jackson_integral(lambda t: v(q * t) * q_derivative(u, t, q), a, q)
    checks.append(_below("Jackson integration by parts, monomials deg<=6",
                         np.max(abs(lhs - rhs) / np.maximum(1.0, abs(lhs)), initial=0.0), 1e-10))

    x = np.linspace(0.05, 0.95, 10) * (1.0 / (1.0 - q))
    lhs = q_derivative(lambda t: e_q_reciprocal(t, q), x, q)
    rhs = -e_q_reciprocal(q * x, q)
    checks.append(_below("reciprocal q-exponential derivative identity",
                         np.max(abs(lhs - rhs) / np.maximum(1e-3, abs(rhs)), initial=0.0), 1e-10))
    return VerificationReport("qcore", tuple(checks))


def suite_jackson(q: float = 0.5, nmax: int = 15) -> VerificationReport:
    profile = coherent.resolution_moment_profile(nmax, q)
    worst = max(abs(c - e) / e for c, e in profile)
    return VerificationReport("jackson", (_below(f"Jackson moment identity q={q}, n<={nmax}", worst, 1e-8),))


def suite_moments(q: float = 0.5, nmax: int = 10) -> VerificationReport:
    defect, control = coherent._moment_recurrence_defects(nmax, q, (q, q * q))
    return VerificationReport(
        "moments",
        (
            _below(f"moment recursion defect q={q}, n<={nmax}", defect, 1e-9),
            _above("moment recursion with forged q-number", control, 1e-2),
        ),
    )


def suite_gram(q: float = 0.5, nmax: int = 10, lattice_scale: float = 1.0) -> VerificationReport:
    checks = []
    for qq in ((q, 0.9) if q == 0.5 else (q,)):
        report = polyfam.gram_matrix(polyfam.rogers(qq), nmax)
        checks.append(_below(f"continuous Gram off-diagonal q={qq}", report.max_offdiag, 1e-8))
        diag_err = float(np.max(np.abs(np.diag(report.matrix) - 1.0)))
        checks.append(_below(f"continuous Gram diagonal-vs-1 q={qq}", diag_err, 1e-8))
    report = polyfam.gram_matrix(polyfam.discrete2(q, lattice_scale), min(nmax, 8))
    checks.append(_below(f"lattice Gram off-diagonal q={q}", report.max_offdiag, 1e-8))
    checks.append(_below(f"lattice Gram diagonal spread q={q}", report.diag_spread, 1e-7))
    return VerificationReport("gram", tuple(checks))


def suite_crosseval(q: float = 0.5, nmax: int = 12, seed: int = 1234) -> VerificationReport:
    if nmax < 0:
        raise DomainError("nmax must be non-negative")
    rng = np.random.default_rng(seed)
    # per degree: Rogers, type-II and type-I samples, drawn in that order; the type-I samples keep a gap
    # at the origin, where the series loses digits to cancellation
    draws = [(rng.uniform(-0.99, 0.99, 50), rng.uniform(0.4, 2.5, 50) * rng.choice([-1.0, 1.0], 50),
              rng.uniform(0.3, 1.2, 50) * rng.choice([-1.0, 1.0], 50)) for _ in range(nmax + 1)]
    xs_r, xs_d2, xs_d1 = map(np.array, zip(*draws))
    # row n of each block is degree n: one recurrence pass and one series call per family
    deg, diag = np.arange(nmax + 1)[:, None], (np.arange(nmax + 1),) * 2
    root_poch = np.array([math.sqrt(q_pochhammer(q, q, n)) for n in range(nmax + 1)])[:, None]
    recs = polyfam.eval_orthonormal_sequence(polyfam.rogers(q), nmax, xs_r)[diag] * root_poch
    # the trig sum is the independent path; math.acos per point, as np.arccos can differ in the last bit
    trig = np.array([polyfam.rogers_trig_eval(n, np.array(list(map(math.acos, xs))), q) for n, xs in enumerate(xs_r)])
    rel_r = np.abs(trig - recs) / np.maximum(1.0, np.abs(trig))
    recs = (polyfam.eval_orthonormal_sequence(polyfam.discrete2(q), nmax, xs_d2)[diag] * root_poch
            * np.array([q ** (-n * n / 2.0) for n in range(nmax + 1)])[:, None])
    ser = polyfam.discrete2_eval_series(deg, xs_d2, q)
    rel_d2 = np.abs(ser - recs) / np.maximum(np.maximum(1.0, np.abs(ser)), np.abs(recs))
    recs = np.array([np.broadcast_to(h, xs_d1.shape)
                     for h in polyfam._monic_sequence(polyfam.Family.DISCRETE_I, nmax, xs_d1, q)])[diag]
    ser = polyfam.discrete1_eval(deg, xs_d1, q)
    rel_d1 = np.abs(ser - recs) / np.maximum(1.0, np.abs(ser))
    # from 0.0, row by row, as a running max(worst, row max) takes it
    worst_r, worst_d2, worst_d1 = (max(0.0, *np.max(rel, axis=1).tolist()) for rel in (rel_r, rel_d2, rel_d1))
    return VerificationReport(
        "crosseval",
        (
            _below(f"continuous family trig-sum vs recurrence, n<={nmax}", worst_r, 1e-10),
            _below(f"type-II series vs recurrence, n<={nmax}", worst_d2, 1e-10),
            _below(f"type-I series vs recurrence, n<={nmax}", worst_d1, 1e-10),
        ),
    )


def suite_commutator(q: float = 0.5, dim: int = 20) -> VerificationReport:
    checks = []
    for qq in (q, 0.9) if q == 0.5 else (q,):
        res = oscillator.commutator_residual(
            oscillator.Relation.ARIK_COON, oscillator.rogers_bn(), qq, dim
        )
        checks.append(_below(f"Arik-Coon relation q={qq}, dim={dim}", res, 1e-12))
    for rel, tag in (
        (oscillator.Relation.Q_INVERSE, "q^-1 relation"),
        (oscillator.Relation.Q_INVERSE_SQUARED, "q^-2 relation"),
    ):
        res = oscillator.commutator_residual(rel, oscillator.discrete2_bn(), q, dim)
        checks.append(_below(f"lattice {tag} q={q}, dim={dim}", res, 1e-10))
    mismatch = oscillator.commutator_residual(
        oscillator.Relation.ARIK_COON, oscillator.discrete2_bn(), q, dim
    )
    checks.append(_above("Arik-Coon relation on lattice source", mismatch, 1e-1))
    return VerificationReport("commutator", tuple(checks))


def suite_spectrum(q: float = 0.5, nmax: int = 25) -> VerificationReport:
    checks = []
    for src, tag in ((oscillator.rogers_bn(), "continuous"), (oscillator.discrete2_bn(), "lattice")):
        lam = oscillator.spectrum(src, q, nmax)
        checks.append(_below(f"{tag} lambda_0 = 1", abs(lam[0] - 1.0), 1e-15))
        ham = oscillator.build_operator(oscillator.OperatorKind.HAMILTONIAN, src, q, nmax + 1)
        diag = np.diag(ham.entries).real
        worst = float(np.max(np.abs(diag - np.array(lam)) / np.abs(np.array(lam))))
        checks.append(_below(f"{tag} Hamiltonian diagonal vs closed form, n<={nmax}", worst, 1e-12))
        increasing = all(lam[i + 1] > lam[i] for i in range(len(lam) - 1))
        checks.append(Check(f"{tag} spectrum strictly increasing", 0.0 if increasing else 1.0, 0.5, increasing))
        want = 2.0 / oscillator.ladder_prefactor(src, q) ** 2
        ratio, spread = oscillator.hamiltonian_form_ratio(src, q, 12)
        checks.append(_below(f"{tag} X^2+P^2 vs ladder-form constant {want:g}", abs(ratio - want) + spread, 1e-10))
    return VerificationReport("spectrum", tuple(checks))


def suite_qdiff(q: float = 0.5, nmax: int = 8) -> VerificationReport:
    thetas = np.linspace(0.1, math.pi - 0.1, 20)
    xs = (-2.0, -1.0, 0.5, 1.0, 3.0)
    worst_r = oscillator.qdiff_residual_rogers(range(nmax + 1), q, thetas)
    worst_d = oscillator.qdiff_residual_discrete2(range(nmax + 1), q, xs)
    ctrl_r = oscillator.qdiff_residual_rogers(3, q, thetas, perturb_order=4)
    ctrl_d = oscillator.qdiff_residual_discrete2(4, q, xs, perturb_lhs_q=q * q)
    return VerificationReport(
        "qdiff",
        (
            _below(f"continuous q-difference residual, n<={nmax}", worst_r, 1e-8),
            _below(f"lattice difference residual, n<={nmax}", worst_d, 1e-8),
            _above("continuous residual with forged eigenvalue", ctrl_r, 1e-2),
            _above("lattice residual with forged factor", ctrl_d, 1e-2),
        ),
    )


def suite_coherent(q: float = 0.5, seed: int = 1234) -> VerificationReport:
    rng = np.random.default_rng(seed)
    checks = []
    worst = 0.0
    radius = coherent.rogers_radius(q)
    for _ in range(20):
        z = rng.uniform(0.05, 0.85) * radius * np.exp(2j * math.pi * rng.uniform())
        state = coherent.bg_expansion(polyfam.rogers(q), complex(z))
        worst = max(worst, coherent.eigen_residual(state))
    checks.append(_below("continuous eigen-residual, 20 random z", worst, 1e-9))
    worst = 0.0
    for _ in range(20):
        z = rng.uniform(0.05, 3.0) * np.exp(2j * math.pi * rng.uniform())
        state = coherent.bg_expansion(polyfam.discrete2(q), complex(z))
        worst = max(worst, coherent.eigen_residual(state))
    checks.append(_below("lattice eigen-residual, 20 random z", worst, 1e-9))

    state = coherent.bg_expansion(polyfam.rogers(q), 1.0, dim=30)
    partial_exp = sum(1.0 / q_factorial(n, q) for n in range(30))  # e~_q(1-q), first 30 terms
    err = abs(state.norm_sq_partial - partial_exp) / partial_exp
    checks.append(_below("continuous norm matches q-exponential terms (z=1, dim=30)", err, 1e-10))
    state = coherent.bg_expansion(polyfam.discrete2(q), 2.0, dim=40)
    tail = abs(state.norm_sq_partial - state.norm_sq_closed) / state.norm_sq_closed
    checks.append(_below("lattice norm: partial sum vs closed form (z=2)", tail, 1e-10))
    state = coherent.bg_expansion(polyfam.rogers(q), 1.0)  # auto dim: tail below 1e-26
    tail = abs(state.norm_sq_partial - state.norm_sq_closed) / state.norm_sq_closed
    checks.append(_below("continuous norm: auto-dim partial vs closed form", tail, 1e-12))

    worst = 0.0
    thetas = (0.7, 1.9)
    xs = [math.cos(theta) for theta in thetas]
    for z in (0.4, 0.9 + 0.2j):
        state = coherent.bg_expansion(polyfam.rogers(q), z)
        series = state.coefficients @ polyfam.eval_orthonormal_sequence(polyfam.rogers(q), state.dim - 1, xs)
        for theta, ser in zip(thetas, series):
            closed = coherent.closed_form_rogers_cs(z, theta, q)
            worst = max(worst, abs(ser - closed) / abs(closed))
    checks.append(_below("continuous closed form vs coefficient series", worst, 1e-9))

    worst = 0.0
    xs = np.linspace(-2.0, 2.0, 10)
    for z in (0.5, 1.0):
        state = coherent.bg_expansion(polyfam.discrete2(q), z)
        series = state.coefficients @ polyfam.eval_orthonormal_sequence(polyfam.discrete2(q), state.dim - 1, xs)
        ratios = coherent.closed_form_discrete2_cs(z, xs, q) / series
        worst = max(worst, float(np.max(abs(ratios / ratios[0] - 1.0))))
    checks.append(_below("lattice closed form x-independence of ratio", worst, 1e-8))
    return VerificationReport("coherent", tuple(checks))


def suite_overlap(q: float = 0.5, seed: int = 1234) -> VerificationReport:
    rng = np.random.default_rng(seed)
    radius = coherent.rogers_radius(q)
    fam = polyfam.rogers(q)
    coeff_sums, pairs = [], []
    for _ in range(50):
        z1, z2 = (
            complex(rng.uniform(0.05, 0.9) * radius * np.exp(2j * math.pi * rng.uniform()))
            for _ in range(2)
        )
        s1 = coherent.bg_expansion(fam, z1)
        s2 = coherent.bg_expansion(fam, z2)
        n = min(s1.dim, s2.dim)
        coeff_sum = complex(np.sum(np.conj(s1.coefficients[:n]) * s2.coefficients[:n]))
        coeff_sums.append(coeff_sum * math.sqrt(s1.norm_sq_closed * s2.norm_sq_closed))
        pairs.append((z1, z2))
    closed = coherent.overlap(fam, *np.array(pairs).T)
    worst = np.max(abs(np.array(coeff_sums) - closed) / abs(closed))
    return VerificationReport(
        "overlap", (_below("closed-form overlap vs coefficient sum, 50 pairs", worst, 1e-10),)
    )


def suite_radius(q: float = 0.5) -> VerificationReport:
    u_cont = [1.0 / q_factorial(n, q) for n in range(30)]
    rep = coherent.radius_estimate(u_cont)
    err = abs(rep.estimate - coherent.rogers_radius(q))
    u_latt = [((1 - q) / q) ** n * q ** (n * n) / q_pochhammer(q, q, n) for n in range(30)]
    rep_latt = coherent.radius_estimate(u_latt)
    u_zero = [q ** (-n * n) for n in range(30)]
    rep_zero = coherent.radius_estimate(u_zero)
    return VerificationReport(
        "radius",
        (
            _below(f"continuous radius estimate vs 1/sqrt(1-q), q={q}", err, 1e-6),
            Check("lattice family classified entire", rep_latt.estimate, math.inf, math.isinf(rep_latt.estimate)),
            Check("q^(-n^2) growth classified radius-zero", rep_zero.estimate, 0.0, rep_zero.estimate == 0.0),
        ),
    )


def suite_gft(q: float = 0.5, nmax: int = 12) -> VerificationReport:
    checks = []
    for qq in ((q, 0.9) if q == 0.5 else (q,)):
        fam = polyfam.rogers(qq)
        theta, w = polyfam.rogers_theta_rule(qq, 2048)
        ys = np.cos(theta)
        vals = polyfam.eval_orthonormal_sequence(fam, nmax, ys)
        worst = 0.0
        for n in range(nmax + 1):
            out = transform.gft_apply(lambda xs, k=n: polyfam.eval_orthonormal_sequence(fam, k, xs)[-1],
                                      ys, qq, nmax + 1)
            diff = out - (-1j) ** n * vals[n]
            worst = max(worst, math.sqrt(float(np.sum(w * np.abs(diff) ** 2))))
        checks.append(_below(f"transform diagonal action on basis, q={qq}", worst, 1e-7))
    f_mat = transform.gft_matrix(nmax, q)
    ham = oscillator.build_operator(
        oscillator.OperatorKind.HAMILTONIAN, oscillator.rogers_bn(), q, nmax + 1
    ).entries
    comm = float(np.max(np.abs(f_mat @ ham - ham @ f_mat)))
    checks.append(_below("transform commutes with Hamiltonian", comm, 1e-7))
    fourth = np.linalg.matrix_power(f_mat, 4)
    checks.append(_below("fourth power is the identity", float(np.max(np.abs(fourth - np.eye(nmax + 1)))), 1e-7))
    unit = float(np.max(np.abs(f_mat.conj().T @ f_mat - np.eye(nmax + 1))))
    checks.append(_below("unitarity on the truncated span", unit, 1e-7))
    return VerificationReport("gft", tuple(checks))


SUITES = {
    "qcore": suite_qcore,
    "jackson": suite_jackson,
    "moments": suite_moments,
    "gram": suite_gram,
    "crosseval": suite_crosseval,
    "commutator": suite_commutator,
    "spectrum": suite_spectrum,
    "qdiff": suite_qdiff,
    "coherent": suite_coherent,
    "overlap": suite_overlap,
    "radius": suite_radius,
    "gft": suite_gft,
}

#: the signature of each suite function object, read once
_signature = functools.lru_cache(maxsize=4 * len(SUITES))(inspect.signature)


def run_suites(name: str, tol: float | None = None, **params) -> list[VerificationReport]:
    """Run one named suite, or every suite for name='all', passing each suite the non-None params
    its signature names.  A tol replaces every defect bound (Check.defect); other checks keep theirs.
    A param that no suite reads raises TypeError."""
    unknown = set(params).difference(*(_signature(fn).parameters for fn in SUITES.values()))
    if unknown:
        raise TypeError(f"run_suites() got keyword arguments that no suite reads: {', '.join(sorted(unknown))}")
    if tol is not None and not tol > 0:
        raise DomainError("--tol must be positive")
    if params.get("q") is not None:
        as_qparam(params["q"])  # early validation of the q flag
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    reports = [fn(**{k: v for k, v in params.items() if v is not None and k in _signature(fn).parameters})
               for fn in (SUITES.values() if name == "all" else [SUITES[name]])]
    if tol is None:
        return reports
    return [VerificationReport(r.suite, tuple(_below(c.name, c.measured, tol) if c.defect else c for c in r.checks))
            for r in reports]
