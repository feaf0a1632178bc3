"""Lowering-operator eigenstates (Barut-Girardello coherent states).

For each supported family the expansion coefficients in the orthonormal
basis, the closed-form normalization, overlaps, closed-form state values,
radius-of-convergence diagnostics, and the Jackson-measure moment content
of the resolution of unity.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import polyfam
from .errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    InsufficientData,
    UnsupportedFamily,
)
from .polyfam import Family, FamilyDescriptor
from .qcore import (
    _MAX_TERMS,
    QParam,
    _q_powers,
    _terms_above_cutoff,
    as_qparam,
    e_q_gaussian,
    e_q_tilde,
    q_factorial,
    q_number,
    q_pochhammer,
)

#: expansions grow until the next normalized coefficient would satisfy
#: |c_dim|^2 < 1e-26 (tail below 1e-13 in amplitude)
_TAIL_SQ = 1e-26


@dataclass(frozen=True)
class CoherentStateExpansion:
    """Coefficient vector of a coherent state in the orthonormal basis.

    Coefficients are normalized by the closed-form norm, so sum |c_n|^2
    equals 1 minus the truncation tail; both norm routes are retained.
    """

    family: FamilyDescriptor
    z: complex
    dim: int
    coefficients: np.ndarray
    norm_sq_closed: float
    norm_sq_partial: float

    def __post_init__(self) -> None:
        self.coefficients.setflags(write=False)


@dataclass(frozen=True)
class RadiusReport:
    estimate: float  # math.inf and 0.0 are the divergent/entire sentinels
    samples_used: int
    method: str


def rogers_radius(q: QParam | float) -> float:
    """Domain radius of the continuous-family states, 1/sqrt(1-q)."""
    return 1.0 / math.sqrt(1.0 - as_qparam(q).q)


#: step factors of up to this many powers are cached; a longer table is built for its call alone
_STEP_FACTORS_MAX = 1 << 15


@functools.lru_cache(maxsize=8)  # per (q, family, size); one verify-all run uses 2
def _step_factors(q: float, rogers: bool, n: int) -> tuple[list[float], tuple[float, ...]]:
    """(p, r): the powers q**s for s < max(n, 64) and the factors r[m] of c_{m+1}/c_m for m < len(p) - 1."""
    p = _q_powers(q, 0, max(n, 64)).tolist()
    return p, tuple(math.sqrt((1.0 - pm) / (1.0 - q)) if rogers else math.sqrt((1.0 - q) / (1.0 - pm)) for pm in p[1:])


def _unnormalized_coeffs(family: FamilyDescriptor, z: complex, dim: int | None) -> np.ndarray:
    """c_0 = 1, c_1, ... by the ratio c_{n+1}/c_n of the family: dim of them, or
    with dim=None until the next would satisfy |c|^2 < _TAIL_SQ times the running sum."""
    q = family.q.q
    rogers = family.kind is Family.ROGERS
    p, r = _step_factors(q, rogers, 0)
    coeffs = [1.0 + 0.0j]
    c, total = coeffs[0], 1.0
    try:
        for n in range(_MAX_TERMS if dim is None else dim - 1):
            if n == len(r):  # a table twice as long; past the cap it is built for this call alone
                p, r = (_step_factors if n < _STEP_FACTORS_MAX // 2 else _step_factors.__wrapped__)(q, rogers, 2 * n + 2)
            c = c * z / r[n] if rogers else c * z * p[n] * r[n]
            if dim is None:
                size = abs(c) ** 2
                if n >= 3 and size < _TAIL_SQ * total:
                    return np.array(coeffs)
                total += size
            coeffs.append(c)
    except OverflowError:
        raise OverflowError(f"coherent state |c_n|^2 overflows double range at n = {n + 1}, |z| = {abs(z)!r}") from None
    if dim is None:
        raise ConvergenceError("coherent expansion did not reach its tail bound within max_terms")
    return np.array(coeffs)


def _checked_abs_sq(family: FamilyDescriptor, z: complex) -> float:
    """|z|^2 of one state's z, after the checks on z that need no coefficient."""
    if not cmath.isfinite(z):
        raise DomainError(f"coherent states need a finite z, got {z!r}")
    if family.kind is Family.ROGERS and abs(z) >= rogers_radius(family.q.q):
        raise DomainError(f"continuous-family states need |z| < {rogers_radius(family.q.q)}, got |z| = {abs(z)!r}")
    try:
        return abs(z) ** 2
    except OverflowError:
        raise OverflowError(f"coherent state |z|^2 overflows double range at |z| = {abs(z)!r}") from None


def _state(family: FamilyDescriptor, z: complex, raw: np.ndarray, norm_sq: float) -> CoherentStateExpansion:
    return CoherentStateExpansion(
        family=family,
        z=z,
        dim=len(raw),
        coefficients=raw / math.sqrt(norm_sq),
        norm_sq_closed=norm_sq,
        norm_sq_partial=float(np.sum(np.abs(raw) ** 2)),
    )


def bg_expansion(
    family: FamilyDescriptor,
    z,
    dim: int | None = None,
):
    """Expansion of the lowering-operator eigenstate |z>.

    Continuous family: c_n proportional to z^n / sqrt([n]_q!), defined for
    |z| < 1/sqrt(1-q).  Lattice family: c_n proportional to
    z^n q^{n(n-1)/2} (1-q)^{n/2} / sqrt((q;q)_n), defined for every z.
    With dim=None the truncation grows until |c_dim|^2 < 1e-26.

    z may be an ndarray: a tuple of states, one per element in C order, each
    equal bit for bit to the scalar call.  Every element is checked before
    any coefficient is built, and an error names the first element at fault;
    the continuous-family norms are then one e_q_tilde product.
    """
    polyfam.orthonormal_laws(family.kind)  # rejects type-I, whose normalization series has radius zero
    if dim is not None and dim < 1:
        raise DimensionError(f"a coherent expansion needs dim >= 1, got {dim}")
    q = family.q.q
    scalar = not isinstance(z, np.ndarray)
    if scalar and not isinstance(z, numbers.Number):
        raise DomainError(f"z must be a number or an ndarray, got {type(z).__name__}")
    zs = [complex(z)] if scalar else np.asarray(z, dtype=complex).ravel().tolist()
    abs_sq = [_checked_abs_sq(family, v) for v in zs]
    raws = [_unnormalized_coeffs(family, v, dim) for v in zs]
    if family.kind is not Family.ROGERS:
        norms = [float(e_q_gaussian(a, family.q).real) for a in abs_sq]
    elif scalar:  # a Python float takes the product's factor loop without numpy
        norms = [float(e_q_tilde((1.0 - q) * abs_sq[0], family.q).real)]
    else:  # a real array: the scalar values bit for bit
        norms = e_q_tilde((1.0 - q) * np.array(abs_sq), family.q).tolist()
    states = tuple(_state(family, v, raw, norm_sq) for v, raw, norm_sq in zip(zs, raws, norms))
    return states[0] if scalar else states


@functools.lru_cache(maxsize=8)  # per (family, q, size); one verify-all run uses 4
def _b_table(kind: Family, q: float, size: int) -> np.ndarray:
    """b_0, ..., b_{size-1} of the family, read-only."""
    b = polyfam.FAMILY_TABLE[kind].b
    table = np.array([b(n, q) for n in range(size)])
    table.setflags(write=False)
    return table


def eigen_residual(state: CoherentStateExpansion) -> float:
    """Relative defect of the defining eigen-equation a-|z> = z|z>.

    Computed from the family's lowering matrix on the first dim-1 slots;
    the last slot is excluded because the truncation cuts its source term.
    """
    if state.dim < 3:
        raise DimensionError("eigen residual needs dim >= 3")
    laws = polyfam.orthonormal_laws(state.family.kind)
    q = state.family.q.q
    c = state.coefficients
    try:  # from a table of the next power of two, at least 64
        b = _b_table(state.family.kind, q, max(64, 1 << (state.dim - 2).bit_length()))[: state.dim - 1]
    except OverflowError:  # past double range inside the table: only the b_n the state needs
        b = np.array([laws.b(n, q) for n in range(state.dim - 1)])
    lowered = laws.gamma(q) * b * c[1:]
    target = state.z * c[:-1]
    denom = float(np.linalg.norm(target))
    defect = float(np.linalg.norm(lowered - target))
    return defect if denom == 0.0 else defect / denom


def overlap(
    family: FamilyDescriptor,
    z1,
    z2,
):
    """Un-normalized overlap <z1|z2> of two continuous-family states.

    Closed form e~_q((1-q) conj(z1) z2); the lattice family has no closed
    overlap here (sum its coefficients directly instead).  z1 and z2 may
    be ndarrays: the overlaps of their broadcast pairs, as one e_q_tilde call.
    """
    if family.kind is not Family.ROGERS:
        raise UnsupportedFamily("closed-form overlap is available for the continuous family only")
    q = family.q.q
    r = rogers_radius(q)
    if not (np.all(abs(z1) < r) and np.all(abs(z2) < r)):  # NaN fails too
        raise DomainError(f"overlap needs |z1|, |z2| < {r}")
    if isinstance(z1, np.ndarray) or isinstance(z2, np.ndarray):
        return e_q_tilde(np.asarray((1.0 - q) * np.conj(z1) * z2, dtype=complex), family.q)
    return complex(e_q_tilde((1.0 - q) * complex(z1).conjugate() * complex(z2), family.q))


def closed_form_rogers_cs(
    z: complex,
    theta: float,
    q: QParam | float,
) -> complex:
    """Normalized continuous-family state at x = cos(theta), via the
    generating-function product of two q-exponentials."""
    qp = as_qparam(q)
    q_ = qp.q
    w = math.sqrt(1.0 - q_) * complex(z)
    if abs(w) >= 1.0:
        raise DomainError("closed form needs sqrt(1-q)|z| < 1")
    u = complex(math.cos(theta), math.sin(theta))
    num = e_q_tilde(u * w, qp) * e_q_tilde(w / u, qp)
    norm = math.sqrt(float(e_q_tilde((1.0 - q_) * abs(z) ** 2, qp).real))
    return num / norm


def closed_form_discrete2_cs(
    z: complex,
    x,
    q: QParam | float,
):
    """Lattice-family state value from its product-times-series closed form.

    The series factor must carry the standard 1-phi-1 normalization (the
    extra (-1)^k q^binom(k,2)); the plain Pochhammer-ratio reading does not
    reproduce the state.  The overall scale divides by the entire
    q-exponential of z^2 and is NOT the unit-norm convention, so compare
    against expansions only up to an x-independent factor.  x may be a
    real ndarray, one series element per point.
    """
    qp = as_qparam(q)
    q_ = qp.q
    w = math.sqrt(q_ * (1.0 - q_)) * complex(z)
    pref = q_pochhammer(1j * w, qp, math.inf)
    series = polyfam.phi_1_1(1j * x, 1j * w, qp, -1j * w)
    return pref * series / e_q_gaussian(complex(z) ** 2, qp)


def radius_estimate(coeff_norms: Sequence[float]) -> RadiusReport:
    """Radius of convergence of sum u_n r^{2n} from the u_n alone.

    Consecutive-ratio test with Aitken acceleration; ratios that trend to
    zero classify as entire (inf), ratios that blow up classify as radius
    zero.  Scale-free: multiplying every u_n by a constant changes nothing.
    """
    u = [float(v) for v in coeff_norms]
    if len(u) < 10:
        raise InsufficientData("need at least 10 coefficient magnitudes")
    if any(not (v > 0.0 and math.isfinite(v)) for v in u):
        raise InsufficientData("coefficient magnitudes must be positive and finite")
    ratios = [u[i + 1] / u[i] for i in range(len(u) - 1)]
    tail = ratios[-6:]
    growth = [tail[i + 1] / tail[i] for i in range(len(tail) - 1)]
    geo = math.exp(sum(math.log(g) for g in growth) / len(growth))
    if geo < 0.95 and ratios[-1] < 1e-3 * max(ratios):
        return RadiusReport(math.inf, len(u), "ratio-vanishing")
    if geo > 1.05 and ratios[-1] > 1e3 * min(ratios):
        return RadiusReport(0.0, len(u), "ratio-divergent")
    estimates = [1.0 / math.sqrt(r) for r in ratios[-10:]]
    for _ in range(2):  # two Aitken delta-squared sweeps
        accel = []
        for i in range(len(estimates) - 2):
            d2 = estimates[i + 2] - 2.0 * estimates[i + 1] + estimates[i]
            if abs(d2) < 1e-300:
                accel.append(estimates[i + 2])
            else:
                accel.append(estimates[i + 2] - (estimates[i + 2] - estimates[i + 1]) ** 2 / d2)
        estimates = accel
    return RadiusReport(float(estimates[-1]), len(u), "ratio-aitken")


def _resolution_moments(nmax: int, qp: QParam) -> list[float]:
    """The resolution-of-unity moments I_n = sum_k w_k x_k^n for n = 0..nmax, the Jackson
    integrals of x^n / e_q(qx) over [0, 1/(1-q)]: x_k = q^k / (1-q), w_k = q^k (q^{k+1}; q)_inf.
    log (q^{k+1}; q)_inf = sum_{j>k} log1p(-q^j) is one reverse cumulative sum over the J
    factors q^j >= 1e-18 of q_pochhammer's cutoff.  Past them w_k is q^k to double precision
    and x_k^n < (1e-18/(1-q))^n: one point x = 0 of weight q^J / (1-q), seen by n = 0 only.
    """
    q = qp.q
    big_j = _terms_above_cutoff(q, 1.0)
    if big_j > 10 * _MAX_TERMS:  # q_pochhammer's cap on its factor count
        raise ConvergenceError(f"Jackson moment sum: {big_j} lattice points, more than {10 * _MAX_TERMS}")
    p = _q_powers(q, 0, big_j)
    log_tail = np.append(np.cumsum(np.log1p(-p[:0:-1]))[::-1], 0.0)
    moments = np.float_power(p / (1.0 - q), np.arange(nmax + 1.0)[:, None]) @ (p * np.exp(log_tail))
    moments[0] += q**big_j / (1.0 - q)
    return moments.tolist()


def resolution_moment_profile(nmax: int, q: QParam | float) -> list[tuple[float, float]]:
    """Moments 0..nmax next to their targets [n]_q!, from one finite lattice sum."""
    qp = as_qparam(q)
    if nmax < 0:
        raise DomainError("nmax must be non-negative")
    return [(moment, q_factorial(n, qp)) for n, moment in enumerate(_resolution_moments(nmax, qp))]


def _moment_recurrence_defects(nmax: int, q: QParam | float, bases) -> list[float]:
    """moment_recurrence_check's defect for each factor base, all from one lattice sum."""
    qp = as_qparam(q)
    if nmax < 1:
        raise DomainError("recurrence check needs nmax >= 1")
    bases = [as_qparam(base) for base in bases]
    moments = _resolution_moments(nmax, qp)
    # max from 0.0 in step order, as a running max(worst, defect) would take it
    return [max([0.0] + [abs(moments[n] - q_number(n, base) * moments[n - 1]) / abs(moments[n])
                         for n in range(1, nmax + 1)]) for base in bases]


def moment_recurrence_check(
    nmax: int,
    q: QParam | float,
    perturb_base: float | None = None,
) -> float:
    """Max relative defect of the moment recursion I_n = [n]_q I_{n-1}.

    The I_n are Jackson integrals summed over the lattice, so this check is
    independent of the closed form [n]_q!.  perturb_base swaps the factor
    [n]_q for [n]_{q'} as a negative control.
    """
    return _moment_recurrence_defects(nmax, q, (q if perturb_base is None else perturb_base,))[0]
