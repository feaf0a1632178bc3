"""Coherent states: expansions, eigen-property, overlaps, closed forms, moments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhermite import (
    DimensionError,
    DomainError,
    InsufficientData,
    UnsupportedFamily,
    bg_expansion,
    closed_form_discrete2_cs,
    closed_form_rogers_cs,
    discrete1,
    discrete2,
    e_q_gaussian,
    e_q_reciprocal,
    e_q_tilde,
    eigen_residual,
    eval_orthonormal,
    jackson_integral,
    moment_recurrence_check,
    overlap,
    q_factorial,
    q_number,
    radius_estimate,
    resolution_moment_profile,
    rogers,
    rogers_radius,
)
from qhermite import oscillator


def _poch(q: float, n: int) -> float:
    out = 1.0
    for k in range(1, n + 1):
        out *= 1 - q**k
    return out


def test_vacuum_state():
    for fam in (rogers(0.5), discrete2(0.5)):
        state = bg_expansion(fam, 0.0)
        assert state.coefficients[0] == pytest.approx(1.0, rel=1e-14)
        assert np.allclose(state.coefficients[1:], 0.0)


def test_rogers_norm_closed_form():
    q = 0.5
    state = bg_expansion(rogers(q), 1.0, dim=30)
    assert state.norm_sq_closed == pytest.approx(float(e_q_tilde((1 - q) * 1.0, q).real), rel=1e-13)
    # term-by-term identity: the 30-term coefficient sum equals the 30-term
    # partial sum of the q-exponential series
    partial, term = 0.0, 1.0
    for n in range(30):
        partial += term
        term *= (1 - q) / (1 - q ** (n + 1))
    assert state.norm_sq_partial == pytest.approx(partial, rel=1e-10)


def test_discrete2_norm_closed_form():
    q, z = 0.5, 2.0
    state = bg_expansion(discrete2(q), z, dim=40)
    assert state.norm_sq_closed == pytest.approx(float(e_q_gaussian(z * z, q).real), rel=1e-13)
    # term-by-term: |c_n N|^2 = ((1-q)/q)^n q^{n^2} |z|^{2n} / (q;q)_n
    partial = sum(
        ((1 - q) / q) ** n * q ** (n * n) * abs(z) ** (2 * n) / _poch(q, n) for n in range(40)
    )
    assert state.norm_sq_partial == pytest.approx(partial, rel=1e-10)


def test_discrete2_coefficients_match_monic_route():
    # same state written through the monic polynomials and converted to the
    # orthonormal basis, degree by degree
    q, z = 0.5, 1.3
    state = bg_expansion(discrete2(q), z, dim=12)
    for n in range(11):
        monic_coeff = (q * (1 - q)) ** (n / 2.0) * q ** (n * n - n) * z**n / _poch(q, n)
        want = monic_coeff * q ** (-n * n / 2.0) * math.sqrt(_poch(q, n))
        got = state.coefficients[n] * math.sqrt(state.norm_sq_closed)
        assert got == pytest.approx(want, rel=1e-12)


def test_domain_and_family_errors():
    with pytest.raises(DomainError):
        bg_expansion(rogers(0.5), rogers_radius(0.5) * 1.01)
    with pytest.raises(UnsupportedFamily):
        bg_expansion(discrete1(0.5), 0.3)
    for fam in (rogers(0.5), discrete2(0.5)):
        for z in (math.nan, math.inf, complex(0.2, math.nan), complex(0.0, -math.inf)):
            with pytest.raises(DomainError, match="finite z"):
                bg_expansion(fam, z)


@pytest.mark.parametrize("dim", [0, -5])
@pytest.mark.parametrize("family", [rogers, discrete2])
def test_dim_below_one_is_a_dimension_error(family, dim):
    with pytest.raises(DimensionError, match=rf"^a coherent expansion needs dim >= 1, got {dim}$"):
        bg_expansion(family(0.5), 0.5, dim)
    assert bg_expansion(family(0.5), 0.5, 1).dim == 1


def test_discrete2_abs_z_squared_overflow_names_the_quantity():
    with pytest.raises(OverflowError, match=r"^coherent state \|z\|\^2 overflows double range at \|z\| = 1e\+200$"):
        bg_expansion(discrete2(0.5), complex(1e200, 0.0))


def test_eigen_residual_examples():
    assert eigen_residual(bg_expansion(rogers(0.5), 0.0)) == 0.0
    assert eigen_residual(bg_expansion(rogers(0.5), 0.8, dim=40)) < 1e-10
    assert eigen_residual(bg_expansion(discrete2(0.5), 1.5, dim=50)) < 1e-10
    with pytest.raises(DimensionError):
        eigen_residual(bg_expansion(rogers(0.5), 0.3, dim=2))


def test_eigen_residual_random_z():
    rng = np.random.default_rng(23)
    for fam, rmax in ((rogers(0.5), 0.85 * rogers_radius(0.5)), (discrete2(0.5), 3.0)):
        for _ in range(20):
            z = rng.uniform(0.05, rmax) * np.exp(2j * math.pi * rng.uniform())
            assert eigen_residual(bg_expansion(fam, complex(z))) < 1e-9


def test_norm_positive_and_increasing_along_ray():
    for fam in (rogers(0.5), discrete2(0.5)):
        rmax = 0.9 * rogers_radius(0.5) if fam.kind.value == "rogers" else 3.0
        norms = [bg_expansion(fam, r).norm_sq_closed for r in np.linspace(0.0, rmax, 8)]
        assert all(v > 0 for v in norms)
        assert all(b > a for a, b in zip(norms, norms[1:]))


def test_overlap_examples():
    q = 0.5
    fam = rogers(q)
    assert overlap(fam, 0.7, 0.0) == pytest.approx(1.0, rel=1e-14)
    assert overlap(fam, 1.0, 1.0) == pytest.approx(
        bg_expansion(fam, 1.0).norm_sq_closed, rel=1e-12
    )
    got = overlap(fam, 1.0, -1.0)
    assert got == pytest.approx(complex(e_q_tilde(-0.5, q)), rel=1e-12)
    with pytest.raises(UnsupportedFamily):
        overlap(discrete2(q), 0.3, 0.3)
    with pytest.raises(DomainError):
        overlap(fam, rogers_radius(q) * 1.1, 0.1)


def test_overlap_vs_coefficient_sum():
    rng = np.random.default_rng(5)
    q = 0.5
    fam = rogers(q)
    for _ in range(50):
        z1, z2 = (
            complex(rng.uniform(0.05, 0.9) * rogers_radius(q) * np.exp(2j * math.pi * rng.uniform()))
            for _ in range(2)
        )
        s1, s2 = bg_expansion(fam, z1), bg_expansion(fam, z2)
        n = min(s1.dim, s2.dim)
        num = complex(np.sum(np.conj(s1.coefficients[:n]) * s2.coefficients[:n]))
        num *= math.sqrt(s1.norm_sq_closed * s2.norm_sq_closed)
        assert abs(num - overlap(fam, z1, z2)) <= 1e-10 * abs(overlap(fam, z1, z2))


@pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.7, 0.9])
def test_overlap_on_arrays_agrees_with_the_scalar_calls(q):
    """One e_q_tilde product over the pairs; within e_q_tilde's complex-array bound of
    (8 + 4/(1-q)) ulps (measured 3.2 at q = 0.05 to 16 at 0.9)."""
    rng = np.random.default_rng(3)
    fam, r = rogers(q), rogers_radius(q)
    z1, z2 = (r * rng.uniform(0.0, 0.9, 50) * np.exp(2j * math.pi * rng.uniform(size=50)) for _ in range(2))
    want = np.array([overlap(fam, complex(a), complex(b)) for a, b in zip(z1, z2)])
    got = overlap(fam, z1, z2)
    assert got.shape == (50,) and got.dtype == complex
    assert np.max(abs(got - want) / abs(want)) <= (8.0 + 4.0 / (1.0 - q)) * 2.0**-52
    assert overlap(fam, z1.reshape(5, 10), 0.2).shape == (5, 10)  # broadcast against a scalar
    assert overlap(fam, np.array([0.3, 0.4]), 0.2).dtype == complex
    with pytest.raises(DomainError, match="overlap needs"):
        overlap(fam, z1, np.append(z2[:-1], 1.01 * r))


@pytest.mark.parametrize("q", [0.3, 0.5])
@pytest.mark.parametrize("z", [0.5, 1.0 + 0.5j, 2.0])
def test_closed_form_discrete2_on_an_array_agrees_with_the_scalar_calls(z, q):
    """phi_1_1 sums each x on its own; numpy's complex arithmetic rounds otherwise than CPython's,
    and the alternating series amplifies that: within 32 ulps (measured at most 14)."""
    xs = np.linspace(-3.0, 3.0, 13)
    want = np.array([closed_form_discrete2_cs(z, float(x), q) for x in xs])
    got = closed_form_discrete2_cs(z, xs, q)
    assert got.shape == xs.shape
    assert np.max(abs(got - want) / abs(want)) <= 32 * 2.0**-52


def test_closed_form_rogers_examples():
    q = 0.5
    assert closed_form_rogers_cs(0.0, 1.1, q) == pytest.approx(1.0, rel=1e-13)
    for z, theta in ((0.5, math.pi / 3), (1.2, 0.8)):
        state = bg_expansion(rogers(q), z)
        series = sum(
            c * eval_orthonormal(rogers(q), n, math.cos(theta))
            for n, c in enumerate(state.coefficients)
        )
        assert closed_form_rogers_cs(z, theta, q) == pytest.approx(series, rel=1e-9)
    with pytest.raises(DomainError):
        closed_form_rogers_cs(1.5, 0.3, 0.5)  # radius is sqrt(2)


def test_closed_form_discrete2_shape_agreement():
    for z, q in ((0.5, 0.5), (1.0, 0.7)):
        state = bg_expansion(discrete2(q), z)
        ratios = []
        for x in np.linspace(-2.0, 2.0, 10):
            series = sum(
                c * eval_orthonormal(discrete2(q), n, float(x))
                for n, c in enumerate(state.coefficients)
            )
            ratios.append(closed_form_discrete2_cs(z, float(x), q) / series)
        spread = max(abs(r / ratios[0] - 1.0) for r in ratios)
        assert spread < 1e-8


def test_closed_form_discrete2_vacuum_constant():
    vals = [closed_form_discrete2_cs(0.0, x, 0.5) for x in (-1.0, 0.2, 2.0)]
    assert all(v == pytest.approx(vals[0], rel=1e-14) for v in vals)


def test_radius_estimate_rogers():
    q = 0.5
    rep = radius_estimate([1.0 / q_factorial(n, q) for n in range(30)])
    assert abs(rep.estimate - rogers_radius(q)) < 1e-6
    assert rep.method == "ratio-aitken"


def test_radius_estimate_discrete2_entire():
    q = 0.5
    u = [((1 - q) / q) ** n * q ** (n * n) / _poch(q, n) for n in range(30)]
    rep = radius_estimate(u)
    assert math.isinf(rep.estimate)


def test_radius_estimate_zero_radius():
    rep = radius_estimate([0.5 ** (-n * n) for n in range(30)])
    assert rep.estimate == 0.0


def test_radius_insufficient_data():
    with pytest.raises(InsufficientData):
        radius_estimate([1.0] * 5)
    with pytest.raises(InsufficientData):
        radius_estimate([1.0] * 9 + [0.0] * 3)


@given(scale=st.floats(1e-6, 1e6))
@settings(max_examples=40, deadline=None)
def test_radius_estimate_scale_free(scale):
    base = [1.0 / q_factorial(n, 0.5) for n in range(25)]
    r1 = radius_estimate(base).estimate
    r2 = radius_estimate([scale * u for u in base]).estimate
    assert abs(r1 - r2) <= 1e-12 * r1


def _direct_moment(n, q):
    """The n-th resolution moment as its own Jackson integral of x^n / e_q(qx) over [0, 1/(1-q)]."""
    return jackson_integral(lambda x: e_q_reciprocal(q * x, q) * x**n, 1 / (1 - q), q)


def test_resolution_moment_profile_matches_direct():
    profile = resolution_moment_profile(15, 0.5)
    for n, (computed, expected) in enumerate(profile):
        assert expected == pytest.approx(q_factorial(n, 0.5), rel=1e-14)
        assert computed == pytest.approx(_direct_moment(n, 0.5), rel=1e-11)
        assert computed == pytest.approx(expected, rel=1e-8)
    assert profile[0][0] == pytest.approx(1.0, rel=1e-12) and profile[0][1] == 1.0
    assert profile[3][0] == pytest.approx(profile[3][1], rel=1e-9)
    computed, expected = resolution_moment_profile(5, 0.9)[5]
    assert computed == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.7, 0.9, 0.95])
def test_moment_profile_agrees_with_each_direct_integral(q):
    """The finite lattice sum against the Jackson walk of each moment; the largest measured
    difference is 2.5e-15 relative, at q = 0.9."""
    for n, (computed, _) in enumerate(resolution_moment_profile(15, q)):
        assert abs(computed - _direct_moment(n, q)) <= 4e-15 * computed, n


@pytest.mark.parametrize("nmax", [-1, -5])
def test_moment_profile_rejects_a_negative_nmax(nmax):
    with pytest.raises(DomainError, match="^nmax must be non-negative$"):
        resolution_moment_profile(nmax, 0.5)
    assert len(resolution_moment_profile(0, 0.5)) == 1


def test_moment_recurrence_examples():
    assert moment_recurrence_check(1, 0.5) < 1e-10
    assert moment_recurrence_check(10, 0.5) < 1e-9
    assert moment_recurrence_check(10, 0.5, perturb_base=0.25) > 1e-2


def _expansion_with_q_number(fam, z, dim):
    """bg_expansion coefficients with the Rogers ratio built from q_number."""
    q = fam.q.q
    coeffs = [1.0 + 0.0j]
    for n in range(dim - 1):
        if fam.kind.value == "rogers":
            coeffs.append(coeffs[-1] * z / math.sqrt(q_number(n + 1, fam.q)))
        else:
            coeffs.append(coeffs[-1] * z * q**n * math.sqrt((1.0 - q) / (1.0 - q ** (n + 1))))
    return np.array(coeffs)


def _residual_with_bn_sequence(state):
    """eigen_residual with b_n read through BnSequence.coeff, one call per slot."""
    source = oscillator.source_for_family(state.family)
    gamma = oscillator.ladder_prefactor(source, state.family.q)
    c = state.coefficients
    lowered = gamma * np.array([source.coeff(int(k), state.family.q) for k in np.arange(state.dim - 1)]) * c[1:]
    target = state.z * c[:-1]
    denom = float(np.linalg.norm(target))
    defect = float(np.linalg.norm(lowered - target))
    return defect if denom == 0.0 else defect / denom


def test_float_q_numbers_and_table_bn_match_the_public_routes_bit_for_bit():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        q = float(rng.uniform(0.05, 0.95))
        fam = rogers(q) if rng.uniform() < 0.5 else discrete2(q)
        rmax = 0.9 * rogers_radius(q) if fam.kind.value == "rogers" else 3.0
        z = complex(rng.uniform(0.0, rmax) * np.exp(2j * math.pi * rng.uniform()))
        dim = int(rng.integers(3, 60))
        state = bg_expansion(fam, z, dim=dim)
        want = _expansion_with_q_number(fam, z, dim) / math.sqrt(state.norm_sq_closed)
        assert state.coefficients.tobytes() == want.tobytes()
        assert eigen_residual(state) == _residual_with_bn_sequence(state)
        grown = bg_expansion(fam, z)
        assert grown.coefficients.tobytes() == (_expansion_with_q_number(fam, z, grown.dim)
                                                / math.sqrt(grown.norm_sq_closed)).tobytes()


def test_discrete2_coefficient_overflow_names_the_index_and_abs_z():
    message = r"^coherent state \|c_n\|\^2 overflows double range at n = 25, \|z\| = 10000000000\.0$"
    with pytest.raises(OverflowError, match=message):
        bg_expansion(discrete2(0.5), complex(1e10, 0.0))


def test_discrete2_norm_overflow_stops_at_the_first_infinite_term():
    # a fixed dim skips the coefficient loop; the normalization series then
    # leaves double range at term 23 instead of running to max_terms
    with pytest.raises(OverflowError, match=r"^e_q_gaussian series: term 23 overflows double range at x = 1e\+20$"):
        bg_expansion(discrete2(0.5), complex(1e10, 0.0), dim=3)


def _same_state(got, want):
    return (got.family == want.family and got.z == want.z and got.dim == want.dim
            and got.coefficients.tobytes() == want.coefficients.tobytes()
            and got.norm_sq_closed.hex() == want.norm_sq_closed.hex()
            and got.norm_sq_partial.hex() == want.norm_sq_partial.hex())


@pytest.mark.parametrize("dim", [None, 7])
@pytest.mark.parametrize("family", [rogers, discrete2])
@pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.7, 0.9, 0.95])
def test_array_bg_expansion_equals_the_scalar_calls_bit_for_bit(q, family, dim):
    rng = np.random.default_rng(7)
    rmax = 0.95 * rogers_radius(q) if family is rogers else 3.0
    z = rmax * rng.uniform(0.0, 1.0, 40) * np.exp(2j * math.pi * rng.uniform(size=40))
    z[:3] = 0.0, 0.5 * rmax, -0.25j * rmax  # the vacuum and the two axes
    states = bg_expansion(family(q), z, dim)
    assert isinstance(states, tuple) and len(states) == 40
    for v, state in zip(z, states):
        assert _same_state(state, bg_expansion(family(q), complex(v), dim)), v


def test_array_bg_expansion_layouts():
    fam = rogers(0.5)
    z = np.array([[0.1, 0.2j, 0.3], [0.4, 0.5 - 0.1j, 0.6]])
    states = bg_expansion(fam, z)
    assert [state.z for state in states] == [complex(v) for v in z.ravel()]  # C order
    assert all(_same_state(state, bg_expansion(fam, complex(v))) for v, state in zip(z.ravel(), states))
    states = bg_expansion(fam, np.asfortranarray(z))
    assert [state.z for state in states] == [complex(v) for v in z.ravel()]
    (state,) = bg_expansion(fam, np.array(0.7))
    assert _same_state(state, bg_expansion(fam, 0.7))
    assert bg_expansion(fam, np.array([])) == ()
    assert bg_expansion(discrete2(0.5), np.zeros((0, 3), complex)) == ()


def test_array_bg_expansion_errors_name_the_first_bad_element():
    r = rogers_radius(0.5)
    with pytest.raises(DomainError, match=rf"^continuous-family states need \|z\| < {r}, got \|z\| = {1.5 * r}$"):
        bg_expansion(rogers(0.5), np.array([0.3, 1.5 * r, 2.0 * r]))
    with pytest.raises(DomainError, match=rf"^continuous-family states need \|z\| < {r}, got \|z\| = {r}$"):
        bg_expansion(rogers(0.5), np.array([0.3, -1j * r]))
    for fam in (rogers(0.5), discrete2(0.5)):
        with pytest.raises(DomainError, match=r"^coherent states need a finite z, got \(nan\+0j\)$"):
            bg_expansion(fam, np.array([0.3, math.nan, math.inf]))
        with pytest.raises(DomainError, match=r"^coherent states need a finite z, got infj$"):
            bg_expansion(fam, np.array([[0.3, complex(0.0, math.inf)], [math.nan, 0.1]]))
        with pytest.raises(DimensionError, match=r"^a coherent expansion needs dim >= 1, got 0$"):
            bg_expansion(fam, np.array([0.3, math.nan]), 0)
    with pytest.raises(UnsupportedFamily):
        bg_expansion(discrete1(0.5), np.array([0.3, 0.4]))
    with pytest.raises(UnsupportedFamily):
        bg_expansion(discrete1(0.5), np.array([]))
    # every element is checked before any walk: a NaN after an element whose walk overflows is named
    with pytest.raises(DomainError, match=r"^coherent states need a finite z, got \(nan\+0j\)$"):
        bg_expansion(discrete2(0.5), np.array([1e10, math.nan]))
    with pytest.raises(OverflowError, match=r"^coherent state \|z\|\^2 overflows double range at \|z\| = 1e\+200$"):
        bg_expansion(discrete2(0.5), np.array([1e10, 1e200, 1e250]))


@pytest.mark.parametrize("z", [[0.3, 0.4], (0.3,), "0.3", None])
def test_z_neither_a_number_nor_an_ndarray_is_a_domain_error(z):
    """A list gave a bare TypeError from complex(z), and a string was parsed by it."""
    for fam in (rogers(0.5), discrete2(0.5)):
        with pytest.raises(DomainError, match=rf"^z must be a number or an ndarray, got {type(z).__name__}$"):
            bg_expansion(fam, z)


def test_array_bg_expansion_walk_overflow_is_the_scalar_message():
    fam = discrete2(0.5)
    with pytest.raises(OverflowError) as scalar:
        bg_expansion(fam, 1e10)
    with pytest.raises(OverflowError) as array:
        bg_expansion(fam, np.array([0.5, 1e10, 2e10]))
    assert str(array.value) == str(scalar.value)
    assert str(array.value) == "coherent state |c_n|^2 overflows double range at n = 25, |z| = 10000000000.0"
    with pytest.raises(OverflowError, match=r"^e_q_gaussian series: term 23 overflows double range at x = 1e\+20$"):
        bg_expansion(fam, np.array([0.5, 1e10]), dim=3)
