"""Polynomial families: recurrence/series agreement, weights, Gram matrices."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhermite import (
    ConvergenceError,
    DomainError,
    Family,
    PoleError,
    QParam,
    QuadratureError,
    UnsupportedFamily,
    discrete1,
    discrete1_eval,
    discrete1_polynomial,
    discrete2,
    discrete2_eval_monic,
    discrete2_eval_series,
    eval_orthonormal,
    eval_orthonormal_sequence,
    gram_matrix,
    phi_2_1,
    polyfam,
    q_pochhammer,
    qcore,
    recurrence_coeff,
    rogers,
    rogers_trig_eval,
)
from qhermite.polyfam import FAMILY_TABLE


def _poch(q: float, n: int) -> float:
    out = 1.0
    for k in range(1, n + 1):
        out *= 1 - q**k
    return out


def test_family_descriptor_validation():
    for c in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            discrete2(0.5, lattice_scale=c)
    assert rogers(0.5).q == QParam(0.5)


def test_recurrence_coeff_examples():
    assert recurrence_coeff(rogers(0.5), 0) == pytest.approx(0.3535533906, abs=1e-9)
    assert recurrence_coeff(rogers(0.5), -1) == 0.0
    assert recurrence_coeff(discrete2(0.5), -1) == 0.0
    # q^{-1/2} sqrt(1-q) at q = 0.5 is exactly 1
    assert recurrence_coeff(discrete2(0.5), 0) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(UnsupportedFamily):
        recurrence_coeff(discrete1(0.5), 0)


def test_eval_orthonormal_degree_zero_and_one():
    for fam in (rogers(0.5), discrete2(0.5)):
        for x in (-0.4, 0.0, 0.7):
            assert eval_orthonormal(fam, 0, x) == 1.0
    q = 0.5
    for x in (-0.8, 0.25):
        assert eval_orthonormal(rogers(q), 1, x) == pytest.approx(
            2 * x / math.sqrt(1 - q), rel=1e-14
        )


def test_eval_orthonormal_domain_and_family_errors():
    with pytest.raises(DomainError):
        eval_orthonormal(rogers(0.5), 2, 1.5)
    with pytest.raises(UnsupportedFamily):
        eval_orthonormal(discrete1(0.5), 1, 0.5)
    # complex arguments are the analytic continuation, no range check
    val = eval_orthonormal(rogers(0.5), 3, 1.5 + 0.5j)
    assert isinstance(val, complex)


@pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.7, 0.95])
def test_rogers_eval_orthonormal_on_an_array_equals_the_scalar_calls_bit_for_bit(q):
    rng = np.random.default_rng(11)
    xs = np.append(rng.uniform(-1.0, 1.0, 197), [-1.0, 0.0, 1.0])
    for n in (0, 1, 2, 7, 25):
        got = eval_orthonormal(rogers(q), n, xs)
        assert got.shape == xs.shape and got.dtype == float
        want = np.array([eval_orthonormal(rogers(q), n, float(x)) for x in xs])
        assert got.tobytes() == want.tobytes(), n
        assert eval_orthonormal(rogers(q), n, xs.reshape(20, 10)).tobytes() == want.tobytes()


def test_rogers_eval_orthonormal_array_errors_name_the_first_element_outside():
    with pytest.raises(DomainError, match=r"^Rogers polynomials are defined on \[-1, 1\], got x = 1\.5$"):
        eval_orthonormal(rogers(0.5), 3, np.array([0.1, 1.5, -2.0]))
    with pytest.raises(DomainError, match=r"^Rogers polynomials are defined on \[-1, 1\], got x = -1\.0000001$"):
        eval_orthonormal(rogers(0.5), 0, np.array([[0.1, 0.2], [-1.0000001, 3.0]]))
    with pytest.raises(DomainError, match=r"^Rogers polynomials are defined on \[-1, 1\], got x = 1\.5$"):
        eval_orthonormal(rogers(0.5), 2, 1.5)
    with pytest.raises(DomainError, match="finite in every element"):
        eval_orthonormal(rogers(0.5), 3, np.array([0.1, math.nan]))
    # complex elements are the analytic continuation, with no range check; numpy's complex
    # arithmetic rounds otherwise than CPython's, so these agree to rounding only
    got = eval_orthonormal(rogers(0.5), 3, np.array([1.5 + 0.5j, 0.2]))
    want = [eval_orthonormal(rogers(0.5), 3, 1.5 + 0.5j), eval_orthonormal(rogers(0.5), 3, 0.2 + 0j)]
    assert got == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("family", [rogers, discrete2])
def test_eval_orthonormal_degree_zero_keeps_the_array_shape(family):
    got = eval_orthonormal(family(0.5), 0, np.array([[0.1, -0.2, 0.3]]))
    assert got.shape == (1, 3) and got.dtype == float and np.all(got == 1.0)
    got = eval_orthonormal(family(0.5), 0, np.array([0.1 + 0.1j]))
    assert got.shape == (1,) and got.dtype == complex and got[0] == 1.0
    assert eval_orthonormal(family(0.5), 0, np.array([0, 1])).dtype == float
    assert eval_orthonormal(family(0.5), 0, 0.3) == 1.0
    for n in (0, 3):  # a 0-d array gives a numpy scalar at every degree
        assert type(eval_orthonormal(family(0.5), n, np.array(0.3))) is np.float64


def test_rogers_recurrence_vs_trig_sum():
    q = 0.5
    x = 0.3
    got = eval_orthonormal(rogers(q), 5, x)
    want = rogers_trig_eval(5, math.acos(x), q) / math.sqrt(_poch(q, 5))
    assert got == pytest.approx(want, rel=1e-12)


def test_rogers_trig_eval_examples():
    assert rogers_trig_eval(0, 0.7, 0.5) == pytest.approx(1.0, rel=1e-14)
    for theta in (0.4, 1.9):
        assert rogers_trig_eval(1, theta, 0.5) == pytest.approx(2 * math.cos(theta), rel=1e-13)
    got = rogers_trig_eval(4, 1.0, 0.5)
    want = eval_orthonormal(rogers(0.5), 4, math.cos(1.0)) * math.sqrt(_poch(0.5, 4))
    assert got == pytest.approx(want, rel=1e-12)


def test_discrete1_examples():
    for x in (-1.0, 0.2, 0.9):
        assert discrete1_eval(0, x, 0.5) == pytest.approx(1.0, rel=1e-14)
    # degree-1 fit through two nearby samples reproduces the midpoint value
    y04, y06 = discrete1_eval(1, 0.4, 0.5), discrete1_eval(1, 0.6, 0.5)
    line_at_half = y04 + (y06 - y04) * (0.5 - 0.4) / (0.6 - 0.4)
    assert discrete1_eval(1, 0.5, 0.5) == pytest.approx(line_at_half, rel=1e-12)
    poly2 = discrete1_polynomial(2, 0.5)
    for x in (-0.9, 0.55, 1.1):
        assert discrete1_eval(2, x, 0.5) == pytest.approx(float(poly2(x)), rel=1e-10)


def test_discrete1_origin_uses_fit():
    # h_1(x) = x, so the fitted value at the origin must vanish
    assert abs(discrete1_eval(1, 0.0, 0.5)) < 1e-13
    # even degrees have a known nonzero constant term; fit stays finite
    assert math.isfinite(discrete1_eval(4, 0.0, 0.5))


def test_discrete2_series_examples():
    for x in (-2.0, 0.5, 1.0):
        assert discrete2_eval_series(0, x, 0.5) == pytest.approx(1.0, rel=1e-14)
    q = 0.5
    got = discrete2_eval_series(1, 1.0, q)
    want = eval_orthonormal(discrete2(q), 1, 1.0) * math.sqrt(_poch(q, 1)) * q ** (-0.5)
    assert got == pytest.approx(want, rel=1e-10)
    q = 0.7
    got = discrete2_eval_series(3, 2.0, q)
    want = eval_orthonormal(discrete2(q), 3, 2.0) * math.sqrt(_poch(q, 3)) * q ** (-4.5)
    assert got == pytest.approx(want, rel=1e-10)
    with pytest.raises(DomainError):
        discrete2_eval_series(2, 0.0, 0.5)


def test_series_recurrence_cross_agreement():
    rng = np.random.default_rng(11)
    for q in (0.5, 0.7):
        fam = discrete2(q)
        for n in range(13):
            scale = math.sqrt(_poch(q, n)) * q ** (-n * n / 2.0)
            for x in rng.uniform(0.4, 2.5, 50) * rng.choice([-1.0, 1.0], 50):
                ser = discrete2_eval_series(n, float(x), q)
                rec = eval_orthonormal(fam, n, float(x)) * scale
                assert abs(ser - rec) <= 1e-10 * max(1.0, abs(ser), abs(rec))


def test_discrete2_monic_matches_series():
    for n in range(9):
        for x in (-1.7, 0.8, 2.2):
            assert discrete2_eval_monic(n, x, 0.5) == pytest.approx(
                discrete2_eval_series(n, x, 0.5), rel=1e-11, abs=1e-11
            )


def test_phi_2_1_trivial_and_termination():
    assert phi_2_1(1.0, 0.3, 0.2, 0.5, 0.7) == 1.0  # (1;q)_k kills k >= 1
    q = 0.5
    a = q**-2
    # manual 3-term sum: k = 0, 1, 2
    b, c, z = 0.3, 0.0, 0.8
    total = 0.0
    term = 1.0
    for k in range(3):
        total += term
        term *= (1 - a * q**k) * (1 - b * q**k) / ((1 - c * q**k) * (1 - q ** (k + 1))) * z
    assert phi_2_1(a, b, c, q, z) == pytest.approx(total, rel=1e-13)


def test_phi_2_1_composes_to_discrete2():
    q = 0.5
    v = phi_2_1(q**-1, q**0, 0.0, QParam(q * q), -(q * q) / 1.0)
    assert v == pytest.approx(discrete2_eval_series(1, 1.0, q), rel=1e-12)


def test_phi_pole_error():
    with pytest.raises(PoleError):
        phi_2_1(0.3, 0.4, 0.5**-1, 0.5, 0.2)
    with pytest.raises(PoleError):
        phi_2_1(0.3, 0.0, 0.5**-2, 0.5, 0.2)


def test_phi_2_1_with_b_zero_examples():
    """b = 0 makes (b;q)_k exactly 1, leaving sum_k (a;q)_k / (c;q)_k z^k / (q;q)_k."""
    assert phi_2_1(1.0, 0.0, 0.3, 0.5, 0.2) == 1.0
    assert phi_2_1(0.7, 0.0, 0.3, 0.5, 0.0) == 1.0
    # high-precision partial-sum oracle
    import mpmath as mp

    mp.mp.dps = 40
    a, b, q, z = 0.5**-1, 0.3, 0.5, 0.2
    tot, term = mp.mpf(0), mp.mpf(1)
    for k in range(60):
        tot += term
        term *= (1 - mp.mpf(a) * mp.mpf(q) ** k) / (1 - mp.mpf(b) * mp.mpf(q) ** k)
        term *= mp.mpf(z) / (1 - mp.mpf(q) ** (k + 1))
    assert phi_2_1(a, 0.0, b, q, z) == pytest.approx(float(tot), rel=1e-12)


def test_rogers_gram_identity():
    rep = gram_matrix(rogers(0.5), 10)
    assert rep.max_offdiag < 1e-8
    assert np.max(np.abs(np.diag(rep.matrix) - 1.0)) < 1e-8
    assert np.max(np.abs(rep.matrix - rep.matrix.T)) < 1e-12


def test_rogers_gram_trivial_two_by_two():
    rep = gram_matrix(rogers(0.5), 1)
    assert np.allclose(rep.matrix, np.eye(2), atol=1e-8)


def test_rogers_quadrature_fails_fast_on_a_non_finite_rung():
    """At q = 0.999 the density product overflows and every rung's weights are non-finite; the
    quadrature raises on the first rung's theta rule, without a numpy warning, instead of
    refining to 32,768 nodes (29 s)."""
    with pytest.raises(QuadratureError, match=r"^Rogers theta rule is not finite at q=0\.999 on 128 nodes$"):
        gram_matrix(rogers(0.999), 10)


def test_discrete2_gram_normalized():
    rep = gram_matrix(discrete2(0.5, 1.0), 8)
    assert rep.max_offdiag < 1e-8
    assert rep.diag_spread < 1e-7
    assert rep.matrix[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(rep.matrix - rep.matrix.T)) < 1e-12


def test_gram_with_a_wrong_diagonal_raises(monkeypatch):
    """A Gram whose off-diagonal is 0 but whose diagonal is not degree-independent fails its gate."""
    monkeypatch.setattr(polyfam, "_discrete2_gram", lambda family, nmax: np.diag([1.0, 2.0, 1.0]))
    with pytest.raises(QuadratureError, match=r"^Gram diagonal spread 5\.000e-01 exceeds 1e-6$"):
        gram_matrix(discrete2(0.5), 2)
    monkeypatch.setattr(polyfam, "_discrete2_gram", lambda family, nmax: np.diag([1.0, 1.0 + 2e-6, 1.0]))
    with pytest.raises(QuadratureError, match=r"^Gram diagonal spread 1\.333e-06 exceeds 1e-6$"):
        gram_matrix(discrete2(0.5), 2)
    monkeypatch.setattr(polyfam, "_discrete2_gram", lambda family, nmax: np.diag([1.0, 1.0 + 1e-6, 1.0]))
    assert gram_matrix(discrete2(0.5), 2).diag_spread < 1e-6


@given(n=st.integers(0, 12), x=st.floats(0.05, 0.95))
@settings(max_examples=60, deadline=None)
def test_parity_rogers(n, x):
    fam = rogers(0.5)
    left = eval_orthonormal(fam, n, -x)
    right = (-1.0) ** n * eval_orthonormal(fam, n, x)
    assert abs(left - right) <= 1e-12 * max(1.0, abs(right))


@given(n=st.integers(0, 10), x=st.floats(0.1, 2.5))
@settings(max_examples=60, deadline=None)
def test_parity_discrete2_monic(n, x):
    left = discrete2_eval_monic(n, -x, 0.5)
    right = (-1.0) ** n * discrete2_eval_monic(n, x, 0.5)
    assert abs(left - right) <= 1e-12 * max(1.0, abs(right))


def test_discrete2_leading_coefficient_is_one():
    # n-th equispaced divided difference = leading coefficient of the
    # degree-n interpolant; well conditioned where direct fits are not
    # (the subleading coefficients reach 1e5 while the leading one is 1)
    h = 2.0
    for n in range(1, 10):
        ys = np.array([discrete2_eval_monic(n, h * k, 0.5) for k in range(n + 1)])
        lead = np.diff(ys, n)[0] / (math.factorial(n) * h**n)
        assert lead == pytest.approx(1.0, abs=1e-8)


def test_eval_sequence_matches_scalar():
    fam = rogers(0.5)
    xs = np.linspace(-0.9, 0.9, 7)
    seq = eval_orthonormal_sequence(fam, 6, xs)
    for n in range(7):
        for j, x in enumerate(xs):
            assert seq[n, j] == pytest.approx(eval_orthonormal(fam, n, float(x)), rel=1e-13)


@pytest.mark.parametrize("family", [rogers(0.5), discrete2(0.7)])
def test_eval_sequence_keeps_complex_points(family):
    xs = np.array([0.3 + 0.2j, -1.5 - 0.4j, 2.0j, 0.7 + 0.0j, -0.0 - 0.0j])
    seq = eval_orthonormal_sequence(family, 12, xs)
    assert seq.dtype == complex and seq.shape == (13, 5)
    real_part = eval_orthonormal_sequence(family, 12, xs.real)
    assert not np.array_equal(seq[2:, 0], real_part[2:, 0])  # 0.3+0.2j is not read as 0.3
    for j in range(xs.size):
        # each point alone takes the same array arithmetic, so it matches bit for bit
        assert eval_orthonormal_sequence(family, 12, xs[j : j + 1]).tobytes() == seq[:, j : j + 1].tobytes()
        for n in range(13):
            # numpy's vectorized complex multiply may fuse multiply and add, so it
            # can round apart from the scalar recurrence in the last bits
            assert seq[n, j] == pytest.approx(eval_orthonormal(family, n, complex(xs[j])), rel=1e-13, abs=1e-300)
    assert eval_orthonormal_sequence(family, 3, [0.5, 0.25 + 0.5j]).dtype == complex
    # an array-like is converted, where the scalar evaluators raise DomainError
    assert eval_orthonormal_sequence(family, 12, list(xs)).tobytes() == seq.tobytes()
    assert eval_orthonormal_sequence(family, 3, np.arange(3)).dtype == float


def test_monic_and_orthonormal_tables_agree():
    # x h_n = h_{n+1} + c_n h_{n-1} is the orthonormal recurrence with c_n = b_{n-1}^2
    for kind in (Family.ROGERS, Family.DISCRETE_II):
        laws = FAMILY_TABLE[kind]
        for q in (0.3, 0.5, 0.9):
            for n in range(1, 20):
                assert laws.c(n, q) == pytest.approx(laws.b(n - 1, q) ** 2, rel=1e-13)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
def test_discrete1_origin_is_exact_zero_for_odd_degree(q):
    for n in range(1, 13, 2):
        assert discrete1_eval(n, 0.0, q) == 0.0


@pytest.mark.parametrize("q", [0.3, 0.8])
def test_discrete1_recurrence_matches_series(q):
    rng = np.random.default_rng(7)
    for n in range(13):
        poly = discrete1_polynomial(n, q)
        assert poly.degree() == n and poly.coef[-1] == 1.0
        for x in rng.uniform(0.3, 1.2, 50) * rng.choice([-1.0, 1.0], 50):
            ser = discrete1_eval(n, float(x), q)
            assert abs(ser - float(poly(float(x)))) <= 1e-10 * max(1.0, abs(ser))


def test_theta_rule_repeat_is_read_only_and_same_bits():
    first = polyfam.rogers_theta_rule(0.37, 96)
    again = polyfam.rogers_theta_rule(0.37, 96)
    fresh = polyfam._theta_rule.__wrapped__(0.37, 96)  # an uncached build
    for a, b, ref in zip(first, again, fresh):
        assert not b.flags.writeable
        assert a.tobytes() == b.tobytes() == ref.tobytes()
    with pytest.raises(ValueError):
        again[1][0] = 0.0


def test_theta_rule_float_and_qparam_share_one_entry():
    polyfam._theta_rule.cache_clear()
    by_float = polyfam.rogers_theta_rule(0.41, 64)
    by_qparam = polyfam.rogers_theta_rule(QParam(0.41), 64)
    assert by_qparam[0] is by_float[0] and by_qparam[1] is by_float[1]
    assert polyfam._theta_rule.cache_info().currsize == 1


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, complex(math.nan, 0.0)])
def test_non_finite_x_is_domain_error(x):
    with pytest.raises(DomainError):
        eval_orthonormal(rogers(0.5), 3, x)
    with pytest.raises(DomainError):
        eval_orthonormal(discrete2(0.5), 3, x)
    with pytest.raises(DomainError):
        discrete1_eval(3, x, 0.5)


@pytest.mark.parametrize("x", [[0.1, 0.2], (0.1, 0.2), "0.1", None])
def test_input_neither_a_number_nor_an_ndarray_is_a_domain_error(x):
    """A list gave a bare TypeError from cmath.isfinite before; now every evaluator names its type."""
    kind = type(x).__name__
    for call in (lambda: eval_orthonormal(rogers(0.5), 3, x), lambda: eval_orthonormal(discrete2(0.5), 3, x),
                 lambda: discrete1_eval(3, x, 0.5), lambda: discrete2_eval_series(3, x, 0.5)):
        with pytest.raises(DomainError, match=rf"^x must be a number or an ndarray, got {kind}$"):
            call()
    with pytest.raises(DomainError, match=rf"^theta must be a number or an ndarray, got {kind}$"):
        polyfam.rogers_trig_eval(3, x, 0.5)


# ---------------------------------------------------------------------------
# array inputs of the series evaluators
# ---------------------------------------------------------------------------

ARRAY_QS = [0.1, 0.3, 0.5, 0.9]


def _assert_matches_pointwise(got, fn, points):
    """got equals fn at each point to 1e-15 relative."""
    want = np.array([fn(float(p)) for p in points.ravel()]).reshape(points.shape)
    assert got.shape == points.shape and got.dtype == np.float64
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


@pytest.mark.parametrize("q", ARRAY_QS)
def test_array_evaluators_match_pointwise(q):
    rng = np.random.default_rng(11)
    for n in range(13):
        thetas = rng.uniform(0.0, math.pi, 50)
        _assert_matches_pointwise(rogers_trig_eval(n, thetas, q), lambda t: rogers_trig_eval(n, t, q), thetas)
        xs = rng.uniform(0.3, 3.0, 50) * rng.choice([-1.0, 1.0], 50)
        _assert_matches_pointwise(discrete2_eval_series(n, xs, q), lambda x: discrete2_eval_series(n, x, q), xs)
        xs = rng.uniform(0.3, 1.5, 50) * rng.choice([-1.0, 1.0], 50)
        _assert_matches_pointwise(discrete1_eval(n, xs, q), lambda x: discrete1_eval(n, x, q), xs)


def test_array_evaluators_keep_shape_and_scalars_stay_float():
    xs = np.array([[0.4, -1.1, 2.0], [0.9, -0.6, 1.3]])
    for fn in (rogers_trig_eval, discrete2_eval_series, discrete1_eval):
        assert fn(4, xs, 0.5).shape == (2, 3)
        assert type(fn(4, 0.7, 0.5)) is float


def test_a_0d_input_gives_a_numpy_scalar_as_numpy_arithmetic_does():
    """A 0-d x, or a 0-d degree, gives a numpy.float64 equal to the scalar call."""
    for fn in (rogers_trig_eval, discrete2_eval_series, discrete1_eval):
        got = fn(4, np.array(0.7), 0.5)
        assert type(got) is np.float64 and got == fn(4, 0.7, 0.5), fn.__name__
    for fn in (discrete2_eval_series, discrete1_eval):
        for n, x in ((np.array(4), 0.7), (np.array(4), np.array(0.7))):
            got = fn(n, x, 0.5)
            assert type(got) is np.float64 and got == fn(4, 0.7, 0.5), fn.__name__
    got = discrete1_eval(np.array(3), 0.0, 0.5)  # the recurrence value at x = 0
    assert type(got) is np.float64 and got == discrete1_eval(3, 0.0, 0.5)


@pytest.mark.parametrize("n", range(9))
def test_discrete1_array_terminates_exactly_per_element(n):
    # at q = 0.5 the numerator 1/x = 2 = q^-1 ends the series after two terms at x = 0.5
    q = 0.5
    xs = np.array([0.5, 0.7, -0.5, 1.1, 0.25])
    _assert_matches_pointwise(discrete1_eval(n, xs, q), lambda x: discrete1_eval(n, x, q), xs)
    assert discrete1_eval(n, xs, q)[0] == discrete1_eval(n, np.array([0.5]), q)[0]
    assert discrete1_eval(n, xs, q)[0] == pytest.approx(float(discrete1_polynomial(n, q)(0.5)), rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("q", ARRAY_QS)
def test_discrete1_array_takes_the_recurrence_value_at_zero(q):
    xs = np.array([0.0, 0.4, 0.0, -0.9])
    for n in range(13):
        got = discrete1_eval(n, xs, q)
        assert got[0] == got[2] == discrete1_eval(n, 0.0, q)
        _assert_matches_pointwise(got[[1, 3]], lambda x: discrete1_eval(n, x, q), xs[[1, 3]])
        assert np.array_equal(discrete1_eval(n, np.zeros(3), q), np.full(3, discrete1_eval(n, 0.0, q)))


def test_discrete2_array_rejects_any_zero_element():
    with pytest.raises(DomainError):
        discrete2_eval_series(3, np.array([0.5, 0.0, 1.0]), 0.5)


def test_array_series_convergence_error_when_any_element_fails(monkeypatch):
    monkeypatch.setattr(qcore, "_MAX_TERMS", 5)
    assert phi_2_1(0.0, 0.0, 0.0, 0.5, np.array([0.0, 0.0])).tolist() == [1.0, 1.0]
    with pytest.raises(ConvergenceError):
        phi_2_1(0.0, 0.0, 0.0, 0.5, np.array([0.0, 0.9]))


def test_array_series_convergence_error_names_the_entry_still_running(monkeypatch):
    monkeypatch.setattr(qcore, "_MAX_TERMS", 5)
    with pytest.raises(ConvergenceError, match=r"within 5 terms \(entry 1: last term [-+.e\d]+, partial sum [-+.e\d]+\)$"):
        phi_2_1(0.0, 0.0, 0.0, 0.5, np.array([0.0, 0.9]))


def test_array_series_pole_only_for_elements_still_running():
    # a = q^-1 ends the series at k = 1, before the denominator q^-2 vanishes at k = 2
    q = 0.5
    got = phi_2_1(np.array([q**-1, q**-1]), 0.0, q**-2, q, 0.2)
    assert got.tolist() == [phi_2_1(q**-1, 0.0, q**-2, q, 0.2)] * 2
    with pytest.raises(PoleError):
        phi_2_1(np.array([q**-1, 0.3]), 0.0, q**-2, q, 0.2)


def test_array_series_stopped_element_adds_nothing_more():
    # the first element ends at k = 1 with a huge z (its factor 1 - q^-1 q is 1.1e-16,
    # not 0); its later terms would overflow while the second element still runs
    q = 0.41
    with np.errstate(over="raise", invalid="raise"):
        got = phi_2_1(np.array([q**-1, 0.0]), 0.0, 0.0, q, np.array([1e150, 0.9]))
    assert got.tolist() == [phi_2_1(q**-1, 0.0, 0.0, q, 1e150), phi_2_1(0.0, 0.0, 0.0, q, 0.9)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_array_paths_reject_non_finite_elements(bad):
    xs = np.array([0.3, bad, 0.8])
    with pytest.raises(DomainError):
        eval_orthonormal_sequence(rogers(0.5), 4, xs)
    with pytest.raises(DomainError):
        eval_orthonormal_sequence(discrete2(0.5), 4, bad)
    with pytest.raises(DomainError):
        rogers_trig_eval(4, xs, 0.5)
    with pytest.raises(DomainError):
        discrete1_eval(4, xs, 0.5)
    with pytest.raises(DomainError):
        discrete2_eval_series(4, xs, 0.5)


# ---------------------------------------------------------------------------
# degree arrays of the series evaluators
# ---------------------------------------------------------------------------

DEGREE_QS = [0.05, 0.3, 0.5, 0.9, 0.99]


@pytest.mark.parametrize("q", DEGREE_QS)
@pytest.mark.parametrize("fn", [discrete1_eval, discrete2_eval_series])
def test_degree_column_against_a_row_of_points_equals_one_call_per_degree(fn, q):
    # the CLI's polys table: x = 0 (type I only), and x = q, where the type-I numerator 1/x = q^-1 ends the series
    xs = np.linspace(-3.0, 3.0, 41) if fn is discrete1_eval else np.linspace(-3.0, 3.0, 40)
    xs = np.concatenate([xs, [q, -q, 1.0 / q]])
    got = fn(np.arange(13)[:, None], xs, q)
    assert got.shape == (13, xs.size) and got.dtype == np.float64
    for n in range(13):
        assert got[n].tobytes() == fn(n, xs, q).tobytes(), n


@pytest.mark.parametrize("q", DEGREE_QS)
@pytest.mark.parametrize("fn", [discrete1_eval, discrete2_eval_series])
def test_degree_column_against_a_block_of_points_equals_one_call_per_degree(fn, q):
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.3, 2.5, (13, 50)) * rng.choice([-1.0, 1.0], (13, 50))
    if fn is discrete1_eval:
        xs[rng.random((13, 50)) < 0.1] = 0.0
    got = fn(np.arange(13)[:, None], xs, q)
    for n in range(13):
        assert got[n].tobytes() == fn(n, xs[n], q).tobytes(), n


@pytest.mark.parametrize("q", DEGREE_QS)
def test_each_element_of_a_degree_array_equals_its_own_call(q):
    """Mixed degrees in one call end their series at different terms; x = 0 takes each type-I
    element's own monic value; a scalar x against a degree array gives the degrees' shape."""
    rng = np.random.default_rng(3)
    ns = rng.integers(0, 16, (4, 6))
    xs = rng.uniform(0.3, 2.5, (4, 6)) * rng.choice([-1.0, 1.0], (4, 6))
    xs[0, :3] = q  # 1/x = q^-1: the type-I series ends after two terms
    zeros = xs.copy()
    zeros[1] = 0.0
    for fn, points in ((discrete1_eval, zeros), (discrete2_eval_series, xs)):
        got = fn(ns, points, q)
        for idx in np.ndindex(ns.shape):
            assert got[idx].tobytes() == fn(int(ns[idx]), np.array([points[idx]]), q)[0].tobytes(), idx
        scalar_x = fn(ns, 1.3, q)
        assert scalar_x.shape == ns.shape
        assert scalar_x.tobytes() == np.array([fn(int(n), np.array([1.3]), q)[0] for n in ns.ravel()]).tobytes()
    at_zero = discrete1_eval(np.arange(16), 0.0, q)
    assert at_zero.tobytes() == np.array([discrete1_eval(n, 0.0, q) for n in range(16)]).tobytes()
    assert {type(discrete1_eval(n, 0.0, q)) for n in range(16)} == {float}  # a scalar degree keeps its float


@pytest.mark.parametrize("bad", [np.array([1, -1]), np.array([1.0, 2.0]), np.array([True]), np.array(-3)])
def test_a_negative_or_non_integer_degree_array_is_a_domain_error(bad):
    for fn in (discrete1_eval, discrete2_eval_series):
        with pytest.raises(DomainError):
            fn(bad, np.array([0.5, 1.5]), 0.5)
        with pytest.raises(DomainError):
            fn(bad, 0.7, 0.5)


def _two_product_theta_rule(qq, n_nodes):
    """The theta rule with (u2;q)_inf and (conj(u2);q)_inf built as two products."""
    theta = np.linspace(0.0, math.pi, n_nodes + 1)
    step = math.pi / n_nodes
    w = np.full(n_nodes + 1, step)
    w[0] = w[-1] = 0.5 * step
    u2 = np.exp(2j * theta)
    dens = q_pochhammer(u2, qq, math.inf) * q_pochhammer(np.conj(u2), qq, math.inf)
    mass = float(q_pochhammer(qq, qq, math.inf))
    return theta, w * mass / (2.0 * math.pi) * dens.real


@pytest.mark.parametrize("qq", [0.05, 0.3, 0.5, 0.9, 0.99])
def test_theta_rule_bits_equal_two_product_build(qq):
    for n_nodes in (128, 2048):
        for got, want in zip(polyfam._theta_rule.__wrapped__(qq, n_nodes), _two_product_theta_rule(qq, n_nodes)):
            assert got.tobytes() == want.tobytes()


def test_discrete2_b_overflow_names_family_degree_and_q():
    with pytest.raises(OverflowError, match=r"discrete2 .*degree n = 1024, q = 0\.5"):
        eval_orthonormal(discrete2(0.5), 2000, 1.0)
    with pytest.raises(OverflowError, match=r"discrete2 .*degree n = \d+, q = 0\.05"):
        recurrence_coeff(discrete2(0.05), 1000)


def test_discrete2_c_and_lambda_overflow_name_family_quantity_degree_and_q():
    with pytest.raises(OverflowError, match=r"^discrete2 monic recurrence coefficient c_n .*degree n = 513, q = 0\.5$"):
        discrete2_eval_monic(600, 1.0, 0.5)
    lam = FAMILY_TABLE[Family.DISCRETE_II].lam
    with pytest.raises(OverflowError, match=r"^discrete2 eigenvalue lambda_n .*degree n = 600, q = 0\.5$"):
        lam(600, 0.5)
    # both terms are finite at n = 993, q = 0.7; only their sum passes double range
    assert math.isfinite(0.7 ** (-2 * 993)) and math.isfinite(0.7 ** (2 - 2 * 993))
    with pytest.raises(OverflowError, match=r"^discrete2 eigenvalue lambda_n .*degree n = 993, q = 0\.7$"):
        lam(993, 0.7)


def _scalar_parameter_cases(q):
    """(series, scalar parameters) for the array series: a plain sum, a
    numerator that terminates it, a zero denominator (factor 1.0), a
    numerator that ends it ahead of a pole, and a pole."""
    return [
        (phi_2_1, (0.3, -0.4, 0.2)),
        (phi_2_1, (q**-3, 0.7, 0.0)),  # 4 terms
        (phi_2_1, (q**-2, 0.5, q**-2)),  # ends at k = 2, where the pole would be
        (phi_2_1, (0.3, 0.4, q**-2)),  # pole at k = 3
        (polyfam.phi_1_1, (0.6, -0.2)),
        (polyfam.phi_1_1, (q**-4, 0.0)),  # 5 terms
        (polyfam.phi_1_1, (0.6, q**-1)),  # pole at k = 2
    ]


def _outcome(fn, *args):
    """repr of each value (so a float and a complex differ), or the PoleError's message."""
    try:
        got = fn(*args)
    except PoleError as exc:
        return "PoleError: " + str(exc)
    return [repr(v) for v in got.tolist()] if isinstance(got, np.ndarray) else repr(got)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
def test_array_series_with_scalar_parameters_equals_per_element_scalar_calls(q):
    zs = np.array([-0.9, -0.3, 0.0, 0.25, 0.8])
    for fn, params in _scalar_parameter_cases(q):
        want = [_outcome(fn, *params, q, float(z)) for z in zs]
        poles = {w for w in want if w.startswith("PoleError")}
        assert _outcome(fn, *params, q, zs) == (poles.pop() if poles else want), (fn.__name__, params)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
def test_array_series_with_scalar_parameters_equals_full_array_parameters(q):
    """A scalar parameter gives the bits of the same value as an array, for real and complex z."""
    zs = np.array([-0.9, -0.3, 0.0, 0.25, 0.8])
    for z in (zs, zs * (0.6 - 0.7j), np.array([-0.0 + 0.5j, 0.3 - 0.0j])):
        for fn, params in _scalar_parameter_cases(q):
            full = [np.full(z.shape, p) for p in params]
            for i in range(len(params)):  # one parameter as an array, then all of them
                mixed = list(params)
                mixed[i] = full[i]
                assert _outcome(fn, *mixed, q, z) == _outcome(fn, *params, q, z), (fn.__name__, params, i)
            assert _outcome(fn, *full, q, z) == _outcome(fn, *params, q, z), (fn.__name__, params)

