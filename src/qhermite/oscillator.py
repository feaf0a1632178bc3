"""Truncated Fock-space operators for the generalized oscillators.

The recurrence coefficients b_n of an orthonormal polynomial family induce
position/momentum/ladder operators on the polynomial basis; this module
builds their dense truncations, checks the deformed commutation relations
and spectra, and verifies the equivalent q-difference equations.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import polyfam
from .errors import DimensionError, DomainError
from .polyfam import Family, FamilyDescriptor
from .qcore import QParam, as_qparam, q_number, q_pochhammer


class OperatorKind(enum.Enum):
    POSITION = "position"
    MOMENTUM = "momentum"
    RAISING = "raising"
    LOWERING = "lowering"
    NUMBER = "number"
    HAMILTONIAN = "hamiltonian"


class Relation(enum.Enum):
    """Deformed commutation relations; LHS is a-a+ minus a scaled a+a-."""

    ARIK_COON = "arik-coon"            # a-a+ - q   a+a- = 1
    Q_INVERSE = "q-inverse"            # a-a+ - 1/q a+a- = q^{-2N}
    Q_INVERSE_SQUARED = "q-inverse-sq"  # a-a+ - 1/q^2 a+a- = q^{-N}


@dataclass(frozen=True)
class BnSequence:
    """Recurrence coefficients feeding the operator construction: b_n on
    demand from the family's polyfam.FAMILY_TABLE row (b_{-1} is zero)."""

    family: Family

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            raise DomainError(f"a b_n sequence needs a Family, got {self.family!r}")
        polyfam.orthonormal_laws(self.family)

    def coeff(self, n: int, q: QParam | float) -> float:
        return polyfam.FAMILY_TABLE[self.family].b(n, as_qparam(q).q) if n >= 0 else 0.0


def rogers_bn() -> BnSequence:
    return BnSequence(Family.ROGERS)


def discrete2_bn() -> BnSequence:
    return BnSequence(Family.DISCRETE_II)


def source_for_family(family: FamilyDescriptor) -> BnSequence:
    return BnSequence(family.kind)


def ladder_prefactor(source: BnSequence, q: QParam | float) -> float:
    """gamma with a+|n> = gamma b_n |n+1>; family-specific convention."""
    return polyfam.FAMILY_TABLE[source.family].gamma(as_qparam(q).q)


@dataclass(frozen=True)
class FockOperator:
    kind: OperatorKind
    dim: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        self.entries.setflags(write=False)


def _ladder_diagonal(b: list[float], gamma: float) -> list[float]:
    """gamma^2 (b_{n-1}^2 + b_n^2) for each b_n of b, with b_{-1} = 0: the
    diagonal of the ladder Hamiltonian a+a- + a-a+."""
    return [gamma**2 * (bm1 * bm1 + bn * bn) for bm1, bn in zip([0.0] + b[:-1], b)]


def build_operator(
    kind: OperatorKind, source: BnSequence, q: QParam | float, dim: int
) -> FockOperator:
    """Dense truncation of X, P, ladder, number, or Hamiltonian.

    Column n carries the action on basis state |n>; the Hamiltonian is the
    ladder form a+a- + a-a+, whose diagonal is exact at every n (it is not
    the truncated matrix product, which would corrupt the last state).
    """
    qp = as_qparam(q)
    if dim < 2:
        raise DimensionError("operator truncation needs dim >= 2")
    b = [source.coeff(n, qp) for n in range(dim)]
    gamma = ladder_prefactor(source, qp)
    m = np.zeros((dim, dim), dtype=complex)
    flat = m.reshape(-1)
    below, above = flat[dim :: dim + 1], flat[1 :: dim + 1]  # views of the entries (n+1, n) and (n, n+1)
    if kind is OperatorKind.POSITION:
        below[:] = above[:] = b[:-1]
    elif kind is OperatorKind.MOMENTUM:
        below[:] = [1j * v for v in b[:-1]]
        above[:] = [-1j * v for v in b[:-1]]
    elif kind is OperatorKind.RAISING:
        below[:] = [gamma * v for v in b[:-1]]
    elif kind is OperatorKind.LOWERING:
        above[:] = [gamma * v for v in b[:-1]]
    elif kind is OperatorKind.NUMBER:
        np.fill_diagonal(m, np.arange(dim))
    elif kind is OperatorKind.HAMILTONIAN:
        np.fill_diagonal(m, _ladder_diagonal(b, gamma))
    else:
        raise DomainError(f"unknown operator kind {kind!r}")
    return FockOperator(kind=kind, dim=dim, entries=m)


def commutator_residual(
    relation: Relation, source: BnSequence, q: QParam | float, dim: int
) -> float:
    """Max-norm defect of a commutation relation on the leading block.

    The final basis state is truncation-corrupted, so the (dim-1)x(dim-1)
    block is compared; the defect is scaled by the right-hand side's
    magnitude, which grows like q^{-2n} for the lattice-family relations.
    """
    qp = as_qparam(q)
    if dim < 3:
        raise DimensionError("commutator check needs dim >= 3")
    q_ = qp.q
    raising = build_operator(OperatorKind.RAISING, source, qp, dim).entries
    lowering = build_operator(OperatorKind.LOWERING, source, qp, dim).entries
    n_idx = np.arange(dim)
    if relation is Relation.ARIK_COON:
        scale, rhs_diag = q_, np.ones(dim)
    elif relation is Relation.Q_INVERSE:
        scale, rhs_diag = 1.0 / q_, q_ ** (-2.0 * n_idx)
    else:
        scale, rhs_diag = 1.0 / q_**2, q_ ** (-1.0 * n_idx)
    lhs = lowering @ raising - scale * (raising @ lowering)
    diff = lhs - np.diag(rhs_diag)
    block = slice(0, dim - 1)
    defect = float(np.max(np.abs(diff[block, block])))
    return defect / max(1.0, float(np.max(np.abs(rhs_diag[: dim - 1]))))


def spectrum(source: BnSequence, q: QParam | float, nmax: int) -> list[float]:
    """Closed-form ladder-Hamiltonian eigenvalues lambda_0..lambda_nmax."""
    qp = as_qparam(q)
    if nmax < 0:
        raise DomainError("nmax must be non-negative")
    lam = polyfam.FAMILY_TABLE[source.family].lam
    return [lam(n, qp.q) for n in range(nmax + 1)]


def hamiltonian_form_ratio(source: BnSequence, q: QParam | float, dim: int) -> tuple[float, float]:
    """Proportionality constant between X^2+P^2 and the ladder Hamiltonian.

    Returns (ratio, spread): the mean diagonal ratio over the first dim-2
    states and its maximum relative deviation.  The two forms agree only up
    to this constant; the ladder form is the canonical one here.
    """
    qp = as_qparam(q)
    if dim < 4:
        raise DimensionError("form comparison needs dim >= 4")
    x = build_operator(OperatorKind.POSITION, source, qp, dim).entries
    p = build_operator(OperatorKind.MOMENTUM, source, qp, dim).entries
    ladder = build_operator(OperatorKind.HAMILTONIAN, source, qp, dim).entries
    quad = (x @ x + p @ p).real
    ratios = np.diag(quad)[: dim - 2] / np.diag(ladder).real[: dim - 2]
    ratio = float(np.mean(ratios))
    spread = float(np.max(np.abs(ratios / ratio - 1.0)))
    return ratio, spread


# ---------------------------------------------------------------------------
# q-difference equations equivalent to the eigenvalue problems
# ---------------------------------------------------------------------------


def _rogers_weight_u(u: np.ndarray, q: float) -> np.ndarray:
    """Analytic continuation of the Rogers measure density in u = e^{i theta}:
    (u^2;q)_inf (u^-2;q)_inf / sin(theta), constants dropped."""
    w = q_pochhammer(u * u, q, math.inf) * q_pochhammer(1.0 / (u * u), q, math.inf)
    return w * 2j / (u - 1.0 / u)


def qdiff_residual_rogers(
    n: int | Sequence[int],
    q: QParam | float,
    theta_grid: Sequence[float],
    perturb_order: int | None = None,
) -> float:
    """Normalized residual of the divided-difference equation
    (1-q) D_q[w D_q phi_n] + 4 q^{1-n} [n]_q w phi_n = 0.

    D_q is the divided difference built from half-shifts e^{i theta} ->
    q^{+-1/2} e^{i theta}, and w is the measure density (weight including
    the 1/sqrt(1-x^2) factor; the identity does not close without it).
    perturb_order swaps [n]_q for [perturb_order]_q as a negative control.
    n may be a sequence of degrees: the result is then the largest residual
    over them, each normalized on its own, equal to the max over
    single-degree calls.  The whole grid and every degree are evaluated at
    once.
    """
    qp = as_qparam(q)
    q_ = qp.q
    degrees = [n] if isinstance(n, numbers.Integral) else list(n)
    if not degrees:
        raise DomainError("degree sequence must be non-empty")
    if min(degrees) < 0:
        raise DomainError("degree must be non-negative")
    thetas = np.asarray(theta_grid, dtype=float)
    if thetas.size == 0:
        raise DomainError("theta grid must be non-empty")
    if not np.all((thetas >= 0.05) & (thetas <= math.pi - 0.05)):  # NaN fails too
        raise DomainError("theta grid must stay 0.05 away from the endpoints")
    s = math.sqrt(q_)

    def dq_x(u: np.ndarray) -> np.ndarray:
        return 0.5 * (s - 1.0 / s) * (u - 1.0 / u)

    u = np.exp(1j * thetas)
    up, down = s * u, u / s
    # phi at both half-shifts of up and of down, and at u, in one recurrence pass
    grids = np.stack([s * up, up / s, s * down, down / s, u])
    phis = polyfam.eval_orthonormal_sequence(polyfam.rogers(qp), max(degrees), (grids + 1.0 / grids) / 2.0)
    phi_up_up, phi_up_down, phi_down_up, phi_down_down, phi_here = np.moveaxis(phis[degrees], 1, 0)

    w_up, w_down, w_here = (_rogers_weight_u(v, q_) for v in (up, down, u))
    weighted_up = w_up * ((phi_up_up - phi_up_down) / dq_x(up))
    weighted_down = w_down * ((phi_down_up - phi_down_down) / dq_x(down))
    outer = (weighted_up - weighted_down) / dq_x(u)
    lam = np.array([[4.0 * q_ ** (1 - m) * q_number(m if perturb_order is None else perturb_order, qp)]
                    for m in degrees])
    rhs = lam * w_here * phi_here
    worst = np.max(np.abs((1.0 - q_) * outer + rhs), axis=1)
    scale = np.max(np.maximum(np.abs(rhs), np.abs(w_here)), axis=1)
    return float(np.max(worst / scale))


def qdiff_residual_discrete2(
    n: int,
    q: QParam | float,
    x_grid: Sequence[float],
    perturb_lhs_q: float | None = None,
) -> float:
    """Normalized residual of the lattice difference equation
    -(1-q^n) x^2 h_n(x) = q h_n(x/q) - (1+q+x^2) h_n(x) + (1+x^2) h_n(qx)

    for the monic type-II polynomials; the shifts step one rung along the
    geometric lattice.  perturb_lhs_q replaces q by another value in the
    left-hand factor (1-q^n) as a negative control.  x, x/q and qx take one
    recurrence pass; a residual that is not finite, where the monic values
    leave double range, raises the family's OverflowError naming n and q.
    """
    q_ = as_qparam(q).q
    if n < 0:
        raise DomainError("degree must be non-negative")
    q_lhs = q_ if perturb_lhs_q is None else perturb_lhs_q
    x = np.asarray(x_grid, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual raises below
        grids = np.stack([x, x / q_, q_ * x])  # at n = 0 the recurrence gives the scalar 1.0
        h_here, h_over_q, h_times_q = np.broadcast_to(polyfam.discrete2_eval_monic(n, grids, q_), grids.shape)
        lhs = -(1.0 - q_lhs**n) * x * x * h_here
        rhs = q_ * h_over_q - (1.0 + q_ + x * x) * h_here + (1.0 + x * x) * h_times_q
        worst = np.max(np.abs(lhs - rhs), initial=0.0)
        scale = np.max(np.maximum(np.abs((1.0 - q_**n) * x * x * h_here), np.abs(h_here)), initial=0.0)
        residual = float(worst / max(scale, 1.0))
    if not math.isfinite(residual):
        raise polyfam._discrete2_overflow("lattice difference residual", n, q_)
    return residual
