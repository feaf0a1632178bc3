"""Poisson kernel and the generalized Fourier transform on the continuous basis.

The transform is defined through the kernel sum_n t^n phi_n(x) phi_n(y) at
t = -i; it is never evaluated as a pointwise boundary limit but applied
term-by-term through the basis, which is exact on polynomial densities.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import polyfam
from .errors import DomainError
from .qcore import QParam, as_qparam


@dataclass(frozen=True)
class KernelSpec:
    """Kernel parameters: deformation q, generating variable t, truncation.

    |t| <= 1; on the boundary (t = -i in particular) the truncated kernel is
    meaningful only inside quadrature against smooth densities.
    """

    q: QParam
    t: complex
    n_terms: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", as_qparam(self.q))
        object.__setattr__(self, "t", complex(self.t))
        if abs(self.t) > 1.0 + 1e-12:
            raise DomainError("kernel requires |t| <= 1")
        if self.n_terms < 1:
            raise DomainError("n_terms must be at least 1")


def poisson_kernel(x: float, y: float, spec: KernelSpec) -> complex:
    """Truncated kernel sum_{n < n_terms} t^n phi_n(x) phi_n(y)."""
    if abs(x) > 1.0 or abs(y) > 1.0:
        raise DomainError("kernel arguments must lie in [-1, 1]")
    fam = polyfam.rogers(spec.q)
    nmax = spec.n_terms - 1
    px = polyfam.eval_orthonormal_sequence(fam, nmax, x)
    py = px if y == x else polyfam.eval_orthonormal_sequence(fam, nmax, y)
    powers = spec.t ** np.arange(spec.n_terms)
    return complex(np.sum(powers * px * py))


def gft_apply(
    f: Callable[[np.ndarray], np.ndarray],
    y_grid: Sequence[float],
    q: QParam | float,
    n_terms: int,
) -> np.ndarray:
    """Transform of f on a grid: sum_n (-i)^n <phi_n, f> phi_n(y).

    Exact up to quadrature error whenever f lies in the span of the first
    n_terms basis polynomials.  The basis on recent output grids is cached.
    """
    qp = as_qparam(q)
    nmax = n_terms - 1
    coeffs = polyfam.rogers_quadrature(
        qp, nmax, lambda xs, vals: np.asarray(f(xs), dtype=complex), 1e-12, "transform"
    )
    ys = np.asarray(y_grid, dtype=float)
    vals = (_grid_basis(qp.q, nmax, ys.tobytes(), ys.shape) if n_terms * ys.size <= _GRID_BASIS_MAX_ENTRIES
            else polyfam.eval_orthonormal_sequence(polyfam.rogers(qp), nmax, ys))
    weighted = (-1j) ** np.arange(n_terms) * coeffs
    # a grid of two or more axes is contracted as its flat point list; 0-d and 1-D keep the plain product's bits
    return weighted @ vals if ys.ndim < 2 else (weighted @ vals.reshape(n_terms, -1)).reshape(ys.shape)


#: gft_apply caches the basis of 4 output grids (verify-all uses 2) of at most this many entries (1 MiB each)
_GRID_BASIS_MAX_ENTRIES = 1 << 16


@functools.lru_cache(maxsize=4)
def _grid_basis(qq: float, nmax: int, grid: bytes, shape: tuple[int, ...]) -> np.ndarray:
    """Read-only Rogers basis of degree 0..nmax on the grid of these float bytes, cast to complex as
    gft_apply's product would cast it, which changes no bit of the product."""
    vals = polyfam.eval_orthonormal_sequence(polyfam.rogers(qq), nmax, np.frombuffer(grid).reshape(shape))
    vals = vals.astype(complex)
    vals.setflags(write=False)
    return vals


def gft_matrix(nmax: int, q: QParam | float) -> np.ndarray:
    """Matrix elements <phi_m, F phi_n> on the truncated span.

    Built as G D G with G the quadrature Gram matrix and D = diag((-i)^n),
    so the result is diagonal exactly to the extent orthonormality holds.
    """
    qp = as_qparam(q)
    gram = polyfam.gram_matrix(polyfam.rogers(qp), nmax).matrix
    phases = (-1j) ** np.arange(nmax + 1)
    return (gram * phases) @ gram
