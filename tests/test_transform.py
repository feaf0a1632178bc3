"""Poisson kernel and generalized Fourier transform checks."""

import math

import numpy as np
import pytest

from qhermite import (
    DomainError,
    KernelSpec,
    OperatorKind,
    QParam,
    build_operator,
    eval_orthonormal_sequence,
    gft_apply,
    gft_matrix,
    poisson_kernel,
    q_pochhammer,
    rogers,
    rogers_bn,
    rogers_theta_rule,
)


def test_kernel_spec_validation():
    with pytest.raises(DomainError):
        KernelSpec(QParam(0.5), 1.2, 10)
    with pytest.raises(DomainError):
        KernelSpec(QParam(0.5), 0.5, 0)
    KernelSpec(QParam(0.5), -1j, 64)  # boundary value allowed


def test_kernel_trivial_and_symmetry():
    spec0 = KernelSpec(QParam(0.5), 0.0, 5)
    assert poisson_kernel(0.1, 0.7, spec0) == pytest.approx(1.0, rel=1e-14)
    spec = KernelSpec(QParam(0.5), 0.5, 150)
    assert poisson_kernel(0.3, -0.6, spec) == poisson_kernel(-0.6, 0.3, spec)
    val = poisson_kernel(0.3, 0.3, spec)
    assert val.real > 0 and abs(val.imag) < 1e-14
    with pytest.raises(DomainError):
        poisson_kernel(1.2, 0.0, spec)


def test_kernel_truncation_doubling():
    for t in (0.5, 0.9):
        a = poisson_kernel(0.3, 0.3, KernelSpec(QParam(0.5), t, 400))
        b = poisson_kernel(0.3, 0.3, KernelSpec(QParam(0.5), t, 800))
        assert abs(a - b) < 1e-10


def test_gft_apply_basis_vectors():
    q = 0.5
    fam = rogers(q)
    ys = np.linspace(-0.95, 0.95, 21)
    out0 = gft_apply(lambda xs: np.ones_like(xs), ys, q, 8)
    assert np.max(np.abs(out0 - 1.0)) < 1e-10
    vals = eval_orthonormal_sequence(fam, 3, ys)
    out3 = gft_apply(lambda xs: eval_orthonormal_sequence(fam, 3, xs)[3], ys, q, 8)
    assert np.max(np.abs(out3 - (-1j) ** 3 * vals[3])) < 1e-8


def test_gft_apply_linearity():
    q = 0.5
    fam = rogers(q)
    ys = np.linspace(-0.9, 0.9, 11)

    def f(xs):
        seq = eval_orthonormal_sequence(fam, 2, xs)
        return seq[1] + 2.0 * seq[2]

    out = gft_apply(f, ys, q, 6)
    seq_y = eval_orthonormal_sequence(fam, 2, ys)
    want = (-1j) * seq_y[1] + 2.0 * (-1j) ** 2 * seq_y[2]
    assert np.max(np.abs(out - want)) < 1e-9


def test_gft_matrix_trivial():
    f = gft_matrix(0, 0.5)
    assert f.shape == (1, 1)
    assert f[0, 0] == pytest.approx(1.0, rel=1e-10)


def test_gft_matrix_diagonal_phases():
    f = gft_matrix(6, 0.5)
    want = np.diag((-1j) ** np.arange(7))
    assert np.max(np.abs(f - want)) < 1e-8


def test_gft_matrix_fourth_power_identity():
    f = gft_matrix(6, 0.5)
    assert np.max(np.abs(np.linalg.matrix_power(f, 4) - np.eye(7))) < 1e-7


def test_gft_diagonality_quadrature_norm():
    for q in (0.5, 0.9):
        fam = rogers(q)
        theta, w = rogers_theta_rule(q, 1024)
        ys = np.cos(theta)
        vals = eval_orthonormal_sequence(fam, 12, ys)
        for n in range(13):
            out = gft_apply(lambda xs, k=n: eval_orthonormal_sequence(fam, k, xs)[-1], ys, q, 13)
            diff = out - (-1j) ** n * vals[n]
            norm = math.sqrt(float(np.sum(w * np.abs(diff) ** 2)))
            assert norm < 1e-7


def test_gft_hamiltonian_invariance():
    nmax = 12
    f = gft_matrix(nmax, 0.5)
    ham = build_operator(OperatorKind.HAMILTONIAN, rogers_bn(), 0.5, nmax + 1).entries
    assert np.max(np.abs(f @ ham - ham @ f)) < 1e-7


def test_gft_unitarity():
    f = gft_matrix(12, 0.5)
    assert np.max(np.abs(f.conj().T @ f - np.eye(13))) < 1e-7


@pytest.mark.parametrize("q", [0.3, 0.5])
@pytest.mark.parametrize("t", [0.0, 0.3])
def test_kernel_on_the_diagonal_equals_the_q_mehler_closed_form(q, t):
    """sum_n t^n phi_n(x)^2 = (t^2;q)_inf / (|(t e^{2i theta};q)_inf|^2 (t;q)_inf^2) at x = cos(theta)."""
    for x in (-0.8, 0.0, 0.3):
        theta = math.acos(x)
        half = q_pochhammer(t * complex(math.cos(2 * theta), math.sin(2 * theta)), q, math.inf)
        closed = q_pochhammer(t * t, q, math.inf) / (abs(half) ** 2 * q_pochhammer(t, q, math.inf) ** 2)
        assert poisson_kernel(x, x, KernelSpec(QParam(q), t, 400)).real == pytest.approx(closed, rel=1e-10)


@pytest.mark.parametrize("x", [[0.3, 0.4], (0.3,), "0.3", None, np.array([0.3, 0.4])])
def test_poisson_kernel_input_other_than_one_number_is_a_domain_error(x):
    """A list gave a bare TypeError from abs(), and an ndarray a bare ValueError from its truth value."""
    spec = KernelSpec(QParam(0.5), 0.5, 8)
    kind = type(x).__name__
    with pytest.raises(DomainError, match=rf"^x must be a number, got {kind}$"):
        poisson_kernel(x, 0.2, spec)
    with pytest.raises(DomainError, match=rf"^y must be a number, got {kind}$"):
        poisson_kernel(0.2, x, spec)
