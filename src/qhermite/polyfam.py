"""q-Hermite polynomial families.

Three families are covered: the continuous (Rogers) family, orthogonal on
[-1, 1] against the weight |(e^{2i theta};q)_inf|^2 / sqrt(1-x^2), and the
two discrete families living on geometric lattices.  Every family-specific
constant sits in one row of FAMILY_TABLE: the orthonormal recurrence
coefficients b_n, the monic recurrence coefficients c_n, the ladder
prefactor gamma and the closed-form spectrum lambda_n.  One three-term
recurrence kernel evaluates every family; the type-I family also has its
terminating series.  The continuous and type-II families have an
orthonormal basis, a weight and Gram-matrix checks; the type-I row has no
b_n, gamma or lambda_n, so those operations reject it.
"""

from __future__ import annotations

import cmath
import enum
import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import qcore
from .errors import ConvergenceError, DomainError, PoleError, QuadratureError, UnsupportedFamily
from .qcore import (QParam, Scalar, _first_failing, _q_powers, _sum_series, _terms_above_cutoff, as_qparam,
                    q_number, q_pochhammer)


class Family(enum.Enum):
    ROGERS = "rogers"
    DISCRETE_I = "discrete1"
    DISCRETE_II = "discrete2"


@dataclass(frozen=True)
class FamilyLaws:
    """The family-specific constants, as functions of the degree n and q.

    b:     orthonormal recurrence x p_n = b_n p_{n+1} + b_{n-1} p_{n-1}, n >= 0
    c:     monic recurrence x h_n = h_{n+1} + c_n h_{n-1}
    gamma: ladder prefactor, a+|n> = gamma b_n |n+1>
    lam:   closed-form eigenvalue lambda_n of the ladder Hamiltonian
    None marks a constant the family does not have.
    """

    b: Callable[[int, float], float] | None
    c: Callable[[int, float], float]
    gamma: Callable[[float], float] | None
    lam: Callable[[int, float], float] | None


def _discrete2_overflow(quantity: str, n: int, q: float) -> OverflowError:
    return OverflowError(f"discrete2 {quantity} overflows double range at degree n = {n}, q = {q!r}")


# The type-II laws grow like q^{-2n}; past double range each raises an
# OverflowError naming the family, the quantity, the degree and q.
def _discrete2_b(n: int, q: float) -> float:
    """b_n = q^{-n-1/2} sqrt(1 - q^{n+1})."""
    try:
        return q ** (-n - 0.5) * math.sqrt(1.0 - q ** (n + 1))
    except OverflowError:
        raise _discrete2_overflow("recurrence coefficient b_n", n, q) from None


def _discrete2_c(n: int, q: float) -> float:
    """c_n = q^{1-2n} (1 - q^n)."""
    try:
        return q ** (1 - 2 * n) * (1.0 - q**n)
    except OverflowError:
        raise _discrete2_overflow("monic recurrence coefficient c_n", n, q) from None


def _discrete2_lam(n: int, q: float) -> float:
    """lambda_n = q^{-2n} [n+1]_q + q^{2-2n} [n]_q."""
    try:
        lam = q ** (-2 * n) * q_number(n + 1, q) + q ** (2 - 2 * n) * q_number(n, q)
        if lam == math.inf:  # the sum can pass double range with finite terms
            raise OverflowError
    except OverflowError:
        raise _discrete2_overflow("eigenvalue lambda_n", n, q) from None
    return lam


FAMILY_TABLE = {
    Family.ROGERS: FamilyLaws(
        b=lambda n, q: 0.5 * math.sqrt(1.0 - q ** (n + 1)),
        c=lambda n, q: 0.25 * (1.0 - q**n),
        gamma=lambda q: 2.0 / math.sqrt(1.0 - q),
        lam=lambda n, q: q_number(n, q) + q_number(n + 1, q),
    ),
    # Koekoek-Lesky-Swarttouw, Hypergeometric Orthogonal Polynomials and
    # Their q-Analogues, ch. 14 (discrete q-Hermite I)
    Family.DISCRETE_I: FamilyLaws(b=None, c=lambda n, q: q ** (n - 1) * (1.0 - q**n), gamma=None, lam=None),
    Family.DISCRETE_II: FamilyLaws(
        b=_discrete2_b,
        c=_discrete2_c,
        gamma=lambda q: math.sqrt(q / (1.0 - q)),
        lam=_discrete2_lam,
    ),
}


def orthonormal_laws(kind: Family) -> FamilyLaws:
    """Table row of a family that has an orthonormal basis."""
    laws = FAMILY_TABLE[kind]
    if laws.b is None:
        raise UnsupportedFamily(f"the {kind.value} family has no orthonormal basis, oscillator or coherent states")
    return laws


@dataclass(frozen=True)
class FamilyDescriptor:
    """A polynomial family together with its deformation and lattice scale.

    lattice_scale is the finite c > 0 of the type-II lattice {+-c q^k}; it
    is ignored by the other families.
    """

    kind: Family
    q: QParam
    lattice_scale: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", as_qparam(self.q))
        object.__setattr__(self, "lattice_scale", float(self.lattice_scale))
        if not 0 < self.lattice_scale < math.inf:
            raise DomainError(f"lattice_scale must be positive and finite, got {self.lattice_scale!r}")


def rogers(q: QParam | float) -> FamilyDescriptor:
    return FamilyDescriptor(Family.ROGERS, as_qparam(q))


def discrete1(q: QParam | float) -> FamilyDescriptor:
    return FamilyDescriptor(Family.DISCRETE_I, as_qparam(q))


def discrete2(q: QParam | float, lattice_scale: float = 1.0) -> FamilyDescriptor:
    return FamilyDescriptor(Family.DISCRETE_II, as_qparam(q), lattice_scale)


@dataclass(frozen=True)
class GramReport:
    """Orthonormality check result: the Gram matrix and its defect sizes."""

    dimension: int
    matrix: np.ndarray
    max_offdiag: float
    diag_spread: float

    def __post_init__(self) -> None:
        self.matrix.setflags(write=False)


# factors this close to zero terminate (numerator) or pole (denominator)
# a Pochhammer-ratio series
_ZERO_FACTOR_TOL = 1e-12


def recurrence_coeff(family: FamilyDescriptor, n: int) -> float:
    """Off-diagonal recurrence coefficient b_n; b_{-1} = 0 for both families."""
    laws = orthonormal_laws(family.kind)
    return laws.b(n, family.q.q) if n >= 0 else 0.0


def _three_term(x, a: Sequence[float], d: Sequence[float]) -> Iterator:
    """Yield p_0 = 1, p_1, ... of p_{m+1} = (x p_m - a_m p_{m-1}) / d_m with
    p_{-1} = 0, one step per (a_m, d_m) pair.

    x may be a scalar, an ndarray or a numpy Polynomial.  The first step is
    taken as x / d_0, the same value in one array pass; a_0 is not read.
    """
    yield 1.0
    if not d:
        return
    p_prev, p = 1.0, x / d[0]
    yield p
    for a_m, d_m in zip(a[1:], d[1:]):
        p_prev, p = p, (x * p - a_m * p_prev) / d_m
        yield p


def _orthonormal_coeffs(family: FamilyDescriptor, n: int) -> tuple[list[float], list[float]]:
    """(a, d) = ([b_{-1}, ..., b_{n-2}], [b_0, ..., b_{n-1}]) for _three_term."""
    laws = orthonormal_laws(family.kind)
    b = [laws.b(m, family.q.q) for m in range(n)]
    return [0.0] + b[:-1], b


def _monic_sequence(kind: Family, n: int, x, q: float) -> Iterator:
    """Monic polynomials h_0, ..., h_n of a family at x (scalar, ndarray or Polynomial)."""
    c = FAMILY_TABLE[kind].c
    return _three_term(x, [c(m, q) for m in range(n)], [1.0] * n)


def _monic(kind: Family, n: int, x, q: float):
    """Monic polynomial h_n of a family at x (scalar, ndarray or Polynomial)."""
    *_, h = _monic_sequence(kind, n, x, q)
    return h


def _degrees(n):
    """n, or a degree array as int64; DomainError for a negative degree or a non-integer array dtype."""
    if isinstance(n, np.ndarray) and n.dtype.kind not in "iu":
        raise DomainError(f"a degree array must have an integer dtype, got {n.dtype}")
    if np.any(n < 0) if isinstance(n, np.ndarray) else n < 0:
        raise DomainError("degree must be non-negative")
    return n.astype(np.int64) if isinstance(n, np.ndarray) else n


def _require_finite(x, name: str = "x") -> None:
    """Reject a non-finite scalar, an ndarray with any non-finite element, or anything else (a list)."""
    if not isinstance(x, (numbers.Number, np.ndarray)):
        raise DomainError(f"{name} must be a number or an ndarray, got {type(x).__name__}")
    if isinstance(x, np.ndarray):
        bad = x[~np.isfinite(x)]
        if bad.size:
            raise DomainError(f"{name} must be finite in every element, got {bad[0]!r}")
    elif not cmath.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")


def eval_orthonormal(family: FamilyDescriptor, n: int, x):
    """Orthonormal polynomial of degree n by the three-term recurrence.

    Real Rogers arguments must lie in [-1, 1]; complex arguments are
    accepted for either family as the entire analytic continuation.  x may
    be an ndarray: a value per element of x's shape, each equal bit for bit
    to the scalar call, and a DomainError names the first element outside
    [-1, 1].
    """
    if n < 0:
        raise DomainError("degree must be non-negative")
    _require_finite(x)
    a, d = _orthonormal_coeffs(family, n)
    if family.kind is Family.ROGERS and not np.iscomplexobj(x):
        bad = _first_failing(abs(x) <= 1.0, x)
        if bad is not None:
            raise DomainError(f"Rogers polynomials are defined on [-1, 1], got x = {bad!r}")
    if n == 0 and isinstance(x, np.ndarray):
        return np.ones(x.shape, np.result_type(x, 1.0))[()]  # 0-d: a numpy scalar, as at degree n > 0
    *_, p = _three_term(x, a, d)
    return p


def eval_orthonormal_sequence(family: FamilyDescriptor, nmax: int, x) -> np.ndarray:
    """All orthonormal polynomials of degree 0..nmax at x (scalar or array).

    Returns an array of shape (nmax+1,) + shape(x), complex for complex x
    (the analytic continuation, as in eval_orthonormal) and float otherwise.
    """
    if nmax < 0:
        raise DomainError("nmax must be non-negative")
    a, d = _orthonormal_coeffs(family, nmax)
    xs = np.asarray(x, dtype=complex if np.iscomplexobj(x) else float)
    _require_finite(xs)
    out = np.empty((nmax + 1,) + xs.shape, dtype=xs.dtype)
    for m, p in enumerate(_three_term(xs, a, d)):
        out[m] = p
    return out


def rogers_trig_eval(n: int, theta, q: QParam | float):
    """Continuous q-Hermite value at cos(theta) from its trigonometric sum.

    H_n(cos theta) = sum_k (q;q)_n / ((q;q)_k (q;q)_{n-k}) e^{i(n-2k)theta};
    the imaginary part cancels pairwise and is checked to vanish.  theta
    may be an ndarray; the result then has its shape.
    """
    qq = as_qparam(q).q
    _require_finite(theta, "theta")
    poch = np.ones(n + 1)
    for k in range(1, n + 1):
        poch[k] = poch[k - 1] * (1.0 - qq**k)
    total = 0.0 + 0.0j
    for k in range(n + 1):
        total += poch[n] / (poch[k] * poch[n - k]) * np.exp(1j * (n - 2 * k) * theta)
    if np.any(np.abs(total.imag) > 1e-12 * np.maximum(1.0, np.abs(total.real))):
        raise ConvergenceError("trigonometric sum produced a non-vanishing imaginary part")
    return total.real if isinstance(theta, np.ndarray) else float(total.real)


def _pochhammer_ratio_series(
    numerators: tuple[Scalar, ...],
    denominators: tuple[Scalar, ...],
    q: QParam,
    z: Scalar,
    extra_sign_gauss: bool = False,
) -> Scalar:
    """sum_k prod(a;q)_k / prod(b;q)_k * z^k / (q;q)_k, with optional
    (-1)^k q^binom(k,2) factor (the standard 1-phi-1 normalization).

    Terminates exactly when a numerator factor vanishes; raises PoleError
    if a denominator factor vanishes first.  z and the parameters may be
    ndarrays; the sum is then taken per element of their broadcast shape,
    each element ending on its own, and PoleError is raised if a
    denominator factor vanishes for any element still running.
    """
    qq = q.q
    params = (z, *numerators, *denominators)

    def terms() -> Iterator[Scalar]:
        term: Scalar = 1.0
        for k in itertools.count():
            yield term
            ratio: Scalar = z / (1.0 - qq ** (k + 1))
            if extra_sign_gauss:
                ratio = ratio * (-(qq**k))
            for a in numerators:
                fa = 1.0 - a * qq**k
                if abs(fa) < _ZERO_FACTOR_TOL:  # the series terminates exactly
                    return
                ratio = ratio * fa
            for b in denominators:
                fb = 1.0 - b * qq**k
                if abs(fb) < _ZERO_FACTOR_TOL:
                    raise PoleError(f"denominator Pochhammer factor vanished at k = {k + 1}")
                ratio = ratio / fb
            term = term * ratio

    if np.ndarray not in map(type, params):
        return _sum_series(terms(), "Pochhammer-ratio series")
    running = np.ones(np.broadcast(*params).shape, dtype=bool)

    def array_terms() -> Iterator[np.ndarray]:
        """terms() per element: an element whose numerator factor vanishes
        stops running, and from then on adds nothing."""
        term = np.ones(running.shape)
        for k in itertools.count():
            yield term
            ratio = z / (1.0 - qq ** (k + 1))
            if extra_sign_gauss:
                ratio = ratio * (-(qq**k))
            for a in numerators:
                fa = 1.0 - a * qq**k
                if isinstance(fa, np.ndarray) or abs(fa) < _ZERO_FACTOR_TOL:  # a scalar stays a Python number
                    running[...] &= abs(fa) >= _ZERO_FACTOR_TOL
                ratio = ratio * fa
            for b in denominators:
                fb = 1.0 - b * qq**k
                vanished = abs(fb) < _ZERO_FACTOR_TOL
                if (vanished & running).any() if isinstance(fb, np.ndarray) else vanished and running.any():
                    raise PoleError(f"denominator Pochhammer factor vanished at k = {k + 1}")
                if isinstance(fb, np.ndarray):
                    ratio = ratio / np.where(vanished, 1.0, fb)
                elif not (vanished or fb == 1.0 and isinstance(fb, float) and np.isrealobj(ratio)):
                    ratio = ratio / fb  # a real ratio / 1.0 is itself; a complex one may lose a zero's sign
            term = np.where(running, term * ratio, 0.0)

    return _sum_series(array_terms(), "Pochhammer-ratio series", running)


def phi_2_1(
    a: Scalar,
    b: Scalar,
    c: Scalar,
    q: QParam | float,
    z: Scalar,
) -> Scalar:
    """sum_k (a;q)_k (b;q)_k / (c;q)_k * z^k / (q;q)_k.

    With a = q^{-m} the sum terminates after exactly m+1 terms.
    """
    return _pochhammer_ratio_series((a, b), (c,), as_qparam(q), z)


def phi_1_1(
    a: Scalar,
    b: Scalar,
    q: QParam | float,
    z: Scalar,
) -> Scalar:
    """Standard basic hypergeometric 1-phi-1: the Pochhammer-ratio series
    carrying the (-1)^k q^binom(k,2) normalization factor."""
    return _pochhammer_ratio_series((a,), (b,), as_qparam(q), z, extra_sign_gauss=True)


def discrete1_eval(n, x, q: QParam | float):
    """Type-I discrete q-Hermite polynomial of degree n.

    Evaluated as q^binom(n,2) * phi(q^{-n}, 1/x; 0 | q; -q x); the series
    carries 1/x yet sums to a degree-n polynomial, so the x = 0 value is
    taken from the monic recurrence instead.  x, and n, may be ndarrays (n
    of integer dtype, one degree per element); the result then has their
    broadcast shape, each element equal to its own scalar call.
    """
    qp = as_qparam(q)
    n = _degrees(n)
    _require_finite(x)
    qq = qp.q
    if isinstance(n, np.ndarray) or isinstance(x, np.ndarray):
        ns, xs = np.broadcast_arrays(n, x)
        nz = xs != 0.0
        out, at_zero = np.empty(xs.shape), ns[~nz]
        # one recurrence pass at x = 0 up to the largest degree there
        out[~nz] = np.array(list(_monic_sequence(Family.DISCRETE_I, int(at_zero.max(initial=0)), 0.0, qq)))[at_zero]
        m = ns[nz]  # float_power is libm pow, as Python's q**k
        pref, top = np.float_power(qq, m * (m - 1) // 2), np.float_power(qq, -m)
        out[nz] = pref * phi_2_1(top, 1.0 / xs[nz], 0.0, qp, -qq * xs[nz])
        return out[()]  # a 0-d result as a numpy scalar, as numpy arithmetic gives it
    if x == 0.0:
        return float(_monic(Family.DISCRETE_I, n, 0.0, qq))
    val = phi_2_1(qq ** (-n), 1.0 / x, 0.0, qp, -qq * x)
    return qq ** (n * (n - 1) // 2) * float(val)


def discrete1_polynomial(n: int, q: QParam | float) -> np.polynomial.Polynomial:
    """Degree-n type-I polynomial, built exactly by the monic recurrence
    h_{n+1} = x h_n - q^{n-1}(1-q^n) h_{n-1}."""
    qp = as_qparam(q)
    if n < 0:
        raise DomainError("degree must be non-negative")
    x = np.polynomial.Polynomial([0.0, 1.0])
    return x**0 * _monic(Family.DISCRETE_I, n, x, qp.q)  # x**0 lifts h_0 = 1.0 to a Polynomial


def discrete2_eval_series(n, x, q: QParam | float):
    """Type-II discrete q-Hermite polynomial of degree n from its
    terminating series x^n * phi(q^{-n}, q^{-n+1}; 0 | q^2; -q^2/x^2).

    Singular presentation only: the result is the same degree-n polynomial
    the recurrence produces.  x = 0 is rejected; use the recurrence there.
    x (every element nonzero), and n, may be ndarrays (n of integer dtype,
    one degree per element); the result then has their broadcast shape,
    each element equal to its own scalar call.
    """
    qp = as_qparam(q)
    n = _degrees(n)
    _require_finite(x)
    array = isinstance(x, np.ndarray) or isinstance(n, np.ndarray)
    if (np.any(x == 0.0) if array else x == 0.0):
        raise DomainError("series form of the type-II polynomial is singular at x = 0")
    qq = qp.q
    base = QParam(qq * qq)
    # float_power is libm pow, as Python's x**n; the ufunc power may differ by an ulp
    pw = np.float_power if isinstance(n, np.ndarray) else pow
    val = phi_2_1(pw(qq, -n), pw(qq, 1 - n), 0.0, base, -(qq * qq) / (x * x))
    return np.float_power(x, n) * val if array else x**n * float(val)


def discrete2_eval_monic(n: int, x: Scalar, q: QParam | float) -> Scalar:
    """Monic type-II polynomial via x h_m = h_{m+1} + q^{1-2m}(1-q^m) h_{m-1};
    accepts complex arguments (the recurrence is entire in x)."""
    return _monic(Family.DISCRETE_II, n, x, as_qparam(q).q)


#: theta rules, and Rogers densities, kept per process; one verify-all run uses 6 (and 4) (q, n_nodes) pairs
_THETA_RULE_CACHE_SIZE = 8


def rogers_theta_rule(q: QParam | float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid rule for integrals against the Rogers measure.

    Substituting x = cos(theta) cancels the 1/sqrt(1-x^2) singularity and
    leaves a smooth integrand on [0, pi]; returns (theta nodes, weights)
    where the weights already include the measure density in theta.
    Recent rules are cached, so both arrays are read-only.  Near q = 1 the
    density overflows; a rule whose weights are not finite raises
    QuadratureError.
    """
    return _theta_rule(as_qparam(q).q, n_nodes)


#: rogers_quadrature's first rung, which always refines to the second: its density and basis are the
#: second rung's at the even nodes, byte for byte (the same thetas and the same density factor count)
_FIRST_RUNG = 128


@functools.lru_cache(maxsize=_THETA_RULE_CACHE_SIZE)
def _rogers_density(qq: float, n_nodes: int) -> np.ndarray:
    """|(e^{2i theta};q)_inf|^2 at the n_nodes + 1 trapezoid nodes theta, read-only."""
    half = q_pochhammer(np.exp(2j * np.linspace(0.0, math.pi, n_nodes + 1)), qq, math.inf)
    dens = (half * np.conj(half)).real.copy()  # the factor at conj(u2) is its conjugate, bit for bit
    dens.setflags(write=False)
    return dens


@functools.lru_cache(maxsize=_THETA_RULE_CACHE_SIZE)
def _theta_rule(qq: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    theta = np.linspace(0.0, math.pi, n_nodes + 1)
    step = math.pi / n_nodes
    w = np.full(n_nodes + 1, step)
    w[0] = w[-1] = 0.5 * step
    with np.errstate(over="ignore", invalid="ignore"):  # near q = 1 the density product overflows
        dens = _rogers_density(qq, 2 * n_nodes)[::2] if n_nodes == _FIRST_RUNG else _rogers_density(qq, n_nodes)
        mass = float(q_pochhammer(qq, qq, math.inf))
        weights = w * mass / (2.0 * math.pi) * dens
    if not np.isfinite(weights).all():
        raise QuadratureError(f"Rogers theta rule is not finite at q={qq!r} on {n_nodes} nodes")
    theta.setflags(write=False)
    weights.setflags(write=False)
    return theta, weights


#: Rogers basis tables kept per process; one verify-all run uses 8 (q, n_nodes, nmax) triples
_ROGERS_BASIS_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_ROGERS_BASIS_CACHE_SIZE)
def _rogers_basis(qq: float, n_nodes: int, nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """(xs, vals): the nodes x = cos(theta) of the n_nodes theta rule and the
    orthonormal Rogers polynomials of degree 0..nmax there, both read-only."""
    if n_nodes == _FIRST_RUNG:  # contiguous copies, so that products take the same path as on a fresh table
        xs, vals = (a[..., ::2].copy() for a in _rogers_basis(qq, 2 * n_nodes, nmax))
    else:
        xs = np.cos(_theta_rule(qq, n_nodes)[0])
        vals = eval_orthonormal_sequence(rogers(qq), nmax, xs)
    xs.setflags(write=False)
    vals.setflags(write=False)
    return xs, vals


def rogers_quadrature(q: QParam | float, nmax: int, rhs: Callable[[np.ndarray, np.ndarray], np.ndarray],
                      tol: float, what: str) -> np.ndarray:
    """(vals * w) @ rhs(xs, vals) on the Rogers theta rule, where vals holds
    the orthonormal polynomials of degree 0..nmax at the nodes xs.  Both
    come from a cache and are read-only.

    The node count doubles from 128 until the result changes by less than tol relative to its
    size; QuadratureError names `what` otherwise, and at once on a rung whose result is not finite.
    """
    qp = as_qparam(q)
    n_nodes = _FIRST_RUNG
    prev = None
    while n_nodes <= 1 << 15:
        _, w = rogers_theta_rule(qp, n_nodes)
        xs, vals = _rogers_basis(qp.q, n_nodes, nmax)
        result = (vals * w) @ rhs(xs, vals)
        size = float(np.max(np.abs(result)))
        if not math.isfinite(size):
            raise QuadratureError(f"{what} quadrature is not finite at q={qp.q!r} on {n_nodes} nodes")
        change = float(np.max(np.abs(result - prev))) if prev is not None else math.inf
        if change < tol * (1.0 + size):
            return result
        prev = result
        n_nodes *= 2
    raise QuadratureError(f"{what} quadrature did not stabilize under refinement")


#: lattice points evaluated together in one block of the type-II Gram sum;
#: the cap bounds the block temporaries
_LATTICE_BLOCK_MAX = 64


def _scaled_sequence(a: list[float], d: list[float], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal values of degree 0..len(d) at each point of x (one column
    per point), given the recurrence lists of _orthonormal_coeffs.

    Whenever |p_{m+1}| of a point passes its limit, 1e120 / max(1, 1e-30 |x|),
    that point's column is divided by it and its log is added to the
    point's log-scale, so that huge lattice points stay inside double range:
    |x| times the limit is at most 1e150, and a column just rescaled ends in
    +-1.  Up to |x| = 1e30 the limit is a flat 1e120.
    """
    vals = np.empty((len(d) + 1, x.size))
    vals[0] = 1.0
    log_scale = np.zeros(x.size)
    limit = 1e120 / np.maximum(1.0, 1e-30 * np.abs(x))
    for m in range(len(d)):
        p = vals[m + 1]
        np.multiply(x, vals[m], out=p)
        if m:  # a_0 p_{-1} = 0
            p -= a[m] * vals[m - 1]
        p /= d[m]
        size = np.abs(p)
        over = size > limit
        if over.any():
            div = size[over]
            vals[: m + 2, over] /= div
            log_scale[over] += list(map(math.log, div.tolist()))
    return vals, log_scale


def _reduced_scale(c: float, q: float) -> float:
    """c q^j in (q, 1] for j = ceil(log c / -log q), which leaves the lattice
    {+-c q^k} and its sum c (1-q) sum_k q^k (...) unchanged; q^j is taken in
    two halves so that neither leaves double range."""
    j = math.ceil(math.log(c) / -math.log(q))
    return c * q ** (j // 2) * q ** (j - j // 2)


def _discrete2_gram(family: FamilyDescriptor, nmax: int) -> np.ndarray:
    """Unnormalized Gram sum over the lattice {+-c q^k}, c reduced into (q, 1].

    x_k = c q^k has weight w_k = exp(-L_k), L_k = sum_{t >= k} log1p(x_t^2),
    and the sum runs over the finite lattice k = -M, ..., T-1 plus one point.
    The positive side is its T points x_t >= 1e-9, then one point x = 0 of
    weight q^T / (1 - q) = sum_{t >= T} q^t, exact to double precision as
    L_t < 1e-18 there and p_i p_j of even i + j is p_i(0) p_j(0) + O(x_t^2).

    The negative side ends at M = nmax + 1 + ceil(sqrt(1 + (ln 1e18 +
    nmax ln(4/(1-q))) / ln(1/q))), past which every term is below 1e-18.
    At x = c q^-m, m > nmax: as log1p(y) >= log y, L_-m >= sum_{i=1..m}
    log(c^2 q^-2i), so w q^-m <= q^(m^2) c^(-2m).  The orthonormal step
    gives |p_{i+1}| <= max(|p_i|, |p_{i-1}|) (x + b_{i-1}) / b_i, and with
    b_{i-1} <= q^(-i+1/2), b_i >= q^(-i-1/2) sqrt(1-q) and c > q the
    factor is at most 2 c q^(i+1/2-m) / sqrt(1-q), above 1 for i < m - 1;
    so |p_j|^2 <= 4^j c^(2j) q^(j^2-2jm) / (1-q)^j.  With c^-2 < q^-2 a term
    of degree j <= nmax is at most q^(d^2-2d) (4/(1-q))^nmax, d = m - nmax,
    which is below 1e-18 once (d - 1)^2 >= 1 + (ln 1e18 + nmax ln(4/(1-q)))
    / ln(1/q); M leaves one point to spare.

    L comes from one reverse cumulative sum over the lattice, with
    log1p(x^2) taken as 2 log x above x = 1e150, where the two agree in
    double precision and x^2 would overflow.  Points are evaluated in
    blocks of up to 64, each adding S S^T, S = p(x_k) sqrt(w_k q^k):
    exactly symmetric, and as p_j(-x) = (-1)^j p_j(x) exactly, -x_k doubles
    the entries of even i + j and cancels the others.  A point or term
    that is not finite raises ConvergenceError naming its k.
    """
    q = family.q.q
    c = _reduced_scale(family.lattice_scale, q)
    a, d = _orthonormal_coeffs(family, nmax)
    log_q = math.log(q)
    big_t = _terms_above_cutoff(q, c * 1e-9)  # the positive points c q^t >= 1e-9, x^2 >= 1e-18
    spread = (-math.log(qcore._PRODUCT_CUTOFF) + nmax * math.log(4.0 / (1.0 - q))) / -log_q
    big_m = nmax + 1 + math.ceil(math.sqrt(1.0 + spread))
    if big_m + big_t > 10 * qcore._MAX_TERMS:  # q_pochhammer's cap on its factor count
        raise ConvergenceError(f"type-II lattice sum: {big_m + big_t} points, more than {10 * qcore._MAX_TERMS}")
    with np.errstate(over="ignore", invalid="ignore"):  # a point or term past double range raises below
        x = np.append(c * _q_powers(q, -big_m, big_t), 0.0)
        log_w = np.log1p(x * x)
        big = x > 1e150  # where x^2 may overflow, and log1p(x^2) is 2 log x in double precision
        log_w[big] = 2.0 * np.log(x[big])
        expo = np.arange(-big_m, big_t + 1) * log_q - np.cumsum(log_w[::-1])[::-1]
        expo[-1] -= math.log1p(-q)  # the point x = 0 stands for every t >= T
        gram = np.zeros((nmax + 1, nmax + 1))
        for lo in range(0, x.size, _LATTICE_BLOCK_MAX):
            vals, log_scale = _scaled_sequence(a, d, x[lo : lo + _LATTICE_BLOCK_MAX])
            s = vals * np.exp(0.5 * (expo[lo : lo + _LATTICE_BLOCK_MAX] + 2.0 * log_scale))
            finite = np.isfinite(s).all(axis=0)
            if not finite.all():
                k = lo - big_m + int(finite.argmin())
                raise ConvergenceError(f"type-II lattice term is not finite at k = {k}, q = {q!r}")
            gram += s @ s.T
    gram[1::2, ::2] = gram[::2, 1::2] = 0.0  # the entries of odd i + j
    return 2.0 * c * (1.0 - q) * gram


def gram_matrix(family: FamilyDescriptor, nmax: int) -> GramReport:
    """Gram matrix of the orthonormal basis under the family's measure.

    Rogers uses refined theta-quadrature and should return the identity;
    the type-II lattice sum is normalized by its (0,0) entry, after which
    the diagonal must be 1 and degree-independent.
    """
    if nmax < 0:
        raise DomainError("nmax must be non-negative")
    orthonormal_laws(family.kind)
    if family.kind is Family.ROGERS:
        gram = rogers_quadrature(family.q, nmax, lambda xs, vals: vals.T, 1e-10, "Rogers Gram")
    else:
        gram = _discrete2_gram(family, nmax)
        gram = gram / gram[0, 0]
    dim = nmax + 1
    off = gram - np.diag(np.diag(gram))
    max_offdiag = float(np.max(np.abs(off))) if dim > 1 else 0.0
    diag = np.diag(gram)
    diag_spread = float(np.max(np.abs(diag / diag.mean() - 1.0)))
    if not max_offdiag <= 1e-6:  # a NaN Gram fails too
        raise QuadratureError(f"off-diagonal Gram mass {max_offdiag:.3e} exceeds 1e-6")
    if not diag_spread <= 1e-6:
        raise QuadratureError(f"Gram diagonal spread {diag_spread:.3e} exceeds 1e-6")
    return GramReport(dimension=dim, matrix=gram, max_offdiag=max_offdiag, diag_spread=diag_spread)
