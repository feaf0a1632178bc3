"""Operator truncations: structure, commutation relations, spectra, q-difference."""

import math

import numpy as np
import pytest

from qhermite import (
    BnSequence,
    DimensionError,
    DomainError,
    OperatorKind,
    Relation,
    UnsupportedFamily,
    build_operator,
    commutator_residual,
    discrete2,
    discrete2_bn,
    hamiltonian_form_ratio,
    q_number,
    qdiff_residual_discrete2,
    qdiff_residual_rogers,
    rogers_bn,
    source_for_family,
    spectrum,
)
from qhermite import discrete1 as discrete1_family

THETA_GRID = np.linspace(0.1, math.pi - 0.1, 20)
X_GRID = (-2.0, -1.0, 0.5, 1.0, 3.0)


def test_matrix_structure():
    for src in (rogers_bn(), discrete2_bn()):
        x = build_operator(OperatorKind.POSITION, src, 0.5, 8).entries
        p = build_operator(OperatorKind.MOMENTUM, src, 0.5, 8).entries
        assert np.allclose(x, x.conj().T)
        assert np.allclose(p, p.conj().T)
        assert np.allclose(x.imag, 0.0)
        assert np.allclose(p.real, 0.0)
        for i in range(8):
            assert x[i, i] == 0 and p[i, i] == 0
        # momentum antisymmetry P_{n+1,n} = -P_{n,n+1}
        assert np.allclose(p + p.T, 0.0)
        raising = build_operator(OperatorKind.RAISING, src, 0.5, 8).entries
        lowering = build_operator(OperatorKind.LOWERING, src, 0.5, 8).entries
        assert np.max(np.abs(raising - lowering.conj().T)) < 1e-14
        assert np.allclose(np.triu(raising), 0.0)
        assert np.allclose(np.tril(lowering), 0.0)


def test_lowering_kills_vacuum():
    lowering = build_operator(OperatorKind.LOWERING, rogers_bn(), 0.5, 6).entries
    assert np.allclose(lowering[:, 0], 0.0)


def test_raising_entry_oracle():
    q = 0.5
    raising = build_operator(OperatorKind.RAISING, rogers_bn(), q, 4).entries
    b0 = 0.5 * math.sqrt(1 - q)
    assert raising[1, 0] == pytest.approx(math.sqrt(4 * b0 * b0 / (1 - q)), rel=1e-14)
    assert raising[1, 0] == pytest.approx(1.0, rel=1e-14)  # sqrt([1]_q)


def test_hamiltonian_ground_entry():
    for q in (0.3, 0.5, 0.9):
        ham = build_operator(OperatorKind.HAMILTONIAN, rogers_bn(), q, 5).entries
        assert ham[0, 0] == pytest.approx(1.0, rel=1e-14)


def test_dimension_errors():
    with pytest.raises(DimensionError):
        build_operator(OperatorKind.POSITION, rogers_bn(), 0.5, 1)
    with pytest.raises(DimensionError):
        commutator_residual(Relation.ARIK_COON, rogers_bn(), 0.5, 2)


def test_source_validation():
    with pytest.raises(UnsupportedFamily):
        source_for_family(discrete1_family(0.5))
    with pytest.raises(DomainError, match="^a b_n sequence needs a Family, got None$"):
        BnSequence(None)


def test_arik_coon_relation():
    for q in (0.5, 0.9):
        res = commutator_residual(Relation.ARIK_COON, rogers_bn(), q, 20)
        assert res < 1e-12


def test_discrete2_relations():
    res1 = commutator_residual(Relation.Q_INVERSE, discrete2_bn(), 0.5, 20)
    res2 = commutator_residual(Relation.Q_INVERSE_SQUARED, discrete2_bn(), 0.5, 20)
    assert res1 < 1e-10
    assert res2 < 1e-10


def test_wrong_algebra_not_satisfied():
    res = commutator_residual(Relation.ARIK_COON, discrete2_bn(), 0.5, 20)
    assert res > 0.1


def test_number_operator_relations():
    # lattice family: a-a+ = q^{-2N}[N+1]_q and a+a- = q^{-2N+2}[N]_q
    q, dim = 0.5, 12
    raising = build_operator(OperatorKind.RAISING, discrete2_bn(), q, dim).entries
    lowering = build_operator(OperatorKind.LOWERING, discrete2_bn(), q, dim).entries
    n = np.arange(dim)
    want_la = np.array([q ** (-2 * k) * q_number(k + 1, q) for k in n])
    want_al = np.array([q ** (-2 * k + 2) * q_number(k, q) for k in n])
    got_la = np.diag(lowering @ raising).real
    got_al = np.diag(raising @ lowering).real
    block = slice(0, dim - 1)
    assert np.max(np.abs(got_la - want_la)[block] / want_la[block]) < 1e-10
    assert np.max(np.abs(got_al - want_al)[block] / np.maximum(want_al[block], 1.0)) < 1e-10


def test_quadratic_form_is_diagonal_and_proportional():
    for src, want in ((rogers_bn(), (1 - 0.5) / 2), (discrete2_bn(), 2 * (1 - 0.5) / 0.5)):
        x = build_operator(OperatorKind.POSITION, src, 0.5, 12).entries
        p = build_operator(OperatorKind.MOMENTUM, src, 0.5, 12).entries
        quad = x @ x + p @ p
        off = quad - np.diag(np.diag(quad))
        scale = np.max(np.abs(np.diag(quad)[:10]))
        assert np.max(np.abs(off[:10, :10])) < 1e-12 * scale
        ratio, spread = hamiltonian_form_ratio(src, 0.5, 12)
        assert ratio == pytest.approx(want, rel=1e-12)
        assert spread < 1e-12


def test_spectrum_examples():
    lam = spectrum(rogers_bn(), 0.5, 1)
    assert lam[0] == 1.0
    assert lam[1] == pytest.approx(2.5, rel=1e-14)
    assert spectrum(discrete2_bn(), 0.5, 0)[0] == pytest.approx(1.0, rel=1e-14)


def test_spectrum_matches_hamiltonian_diagonal():
    for src in (rogers_bn(), discrete2_bn()):
        lam = np.array(spectrum(src, 0.5, 25))
        ham = build_operator(OperatorKind.HAMILTONIAN, src, 0.5, 26).entries
        diag = np.diag(ham).real
        assert np.max(np.abs(diag - lam) / lam) < 1e-12
        assert np.all(np.diff(lam) > 0)


def test_qdiff_rogers():
    assert qdiff_residual_rogers(0, 0.5, THETA_GRID) < 1e-10
    assert qdiff_residual_rogers(3, 0.5, THETA_GRID) < 1e-8
    # negative control: forged eigenvalue order
    assert qdiff_residual_rogers(3, 0.5, THETA_GRID, perturb_order=4) > 1e-2
    with pytest.raises(DomainError):
        qdiff_residual_rogers(2, 0.5, [0.01])


def test_qdiff_discrete2():
    assert qdiff_residual_discrete2(0, 0.5, X_GRID) < 1e-12
    assert qdiff_residual_discrete2(4, 0.5, X_GRID) < 1e-9
    assert qdiff_residual_discrete2(4, 0.5, X_GRID, perturb_lhs_q=0.25) > 1e-2


def test_qdiff_discrete2_raises_where_the_monic_values_overflow():
    """At q = 0.05 the monic values at x / q leave double range from n = 23; the residual is then
    NaN, which a running Python max dropped, so it read 0.0."""
    assert qdiff_residual_discrete2(22, 0.05, X_GRID) < 1e-8
    with pytest.raises(OverflowError, match=r"lattice difference residual overflows double range at degree n = 23, "
                                            r"q = 0\.05"):
        qdiff_residual_discrete2(23, 0.05, X_GRID)


@pytest.mark.parametrize("q,worst,control", [
    (0.3, "0x1.27af030b5e8fap-49", "0x1.382fb1f4138b5p-6"),
    (0.5, "0x1.700d3be1cd3a3p-49", "0x1.1111111111172p-4"),
    (0.7, "0x1.004ccc07de6b0p-48", "0x1.15532d60ec180p-3"),
    (0.9, "0x1.1a570ee9e140fp-46", "0x1.b222b06c628e4p-3"),
])
def test_qdiff_rogers_values_on_the_suite_inputs_are_pinned(q, worst, control):
    """suite_qdiff's two continuous-family residuals, bit for bit."""
    thetas = np.linspace(0.1, math.pi - 0.1, 20)
    assert qdiff_residual_rogers(range(9), q, thetas).hex() == worst
    assert qdiff_residual_rogers(3, q, thetas, perturb_order=4).hex() == control


def test_qdiff_profile_over_degrees():
    for n in range(9):
        assert qdiff_residual_rogers(n, 0.5, THETA_GRID) < 1e-8
        assert qdiff_residual_discrete2(n, 0.5, X_GRID) < 1e-8


def test_operator_entries_read_only():
    op = build_operator(OperatorKind.POSITION, rogers_bn(), 0.5, 4)
    with pytest.raises(ValueError):
        op.entries[0, 0] = 5.0


def test_source_for_family_roundtrip():
    src = source_for_family(discrete2(0.5))
    assert src.coeff(0, 0.5) == pytest.approx(1.0, rel=1e-14)
    assert src.coeff(-1, 0.5) == 0.0


def test_discrete2_spectrum_overflow_names_family_quantity_degree_and_q():
    message = r"^discrete2 eigenvalue lambda_n overflows double range at degree n = 512, q = 0\.5$"
    with pytest.raises(OverflowError, match=message):
        spectrum(discrete2_bn(), 0.5, 600)
