"""q-arithmetic: known values with independent oracles, plus identities."""

import cmath
import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhermite import (
    ConvergenceError,
    DomainError,
    QParam,
    e_q,
    e_q_gaussian,
    e_q_reciprocal,
    e_q_tilde,
    jackson_integral,
    phi_1_1,
    q_derivative,
    q_factorial,
    q_number,
    q_pochhammer,
    qcore,
    resolution_moment_profile,
)

Q_GRID = (0.3, 0.5, 0.7, 0.9)


def test_qparam_rejects_closed_interval():
    for bad in (0.0, 1.0, -0.2, 1.5, float("nan")):
        with pytest.raises(DomainError):
            QParam(bad)


def test_q_number_trivial():
    assert q_number(0, 0.5) == 0.0
    for q in Q_GRID:
        assert q_number(1, q) == 1.0


def test_q_number_direct_sum_oracle():
    # [n]_q = 1 + q + ... + q^{n-1}
    assert q_number(3, 0.5) == pytest.approx(1 + 0.5 + 0.25, rel=1e-15)
    for q in Q_GRID:
        for n in range(0, 12):
            assert q_number(n, q) == pytest.approx(sum(q**i for i in range(n)), rel=1e-14)


def test_q_number_range():
    for q in Q_GRID:
        for n in range(0, 40):
            # strictly below 1/(1-q) in exact arithmetic; floats saturate there
            assert 0.0 <= q_number(n, q) <= 1.0 / (1.0 - q)
        for n in range(0, 20):
            assert q_number(n, q) < 1.0 / (1.0 - q)


def test_q_factorial_examples():
    assert q_factorial(0, 0.5) == 1.0
    assert q_factorial(2, 0.5) == pytest.approx(1.0 * 1.5, rel=1e-15)
    for n in range(1, 11):
        ratio = q_factorial(n, 0.5) / q_factorial(n - 1, 0.5)
        assert ratio == pytest.approx(q_number(n, 0.5), rel=1e-14)


def test_q_factorial_product_invariant():
    for q in Q_GRID:
        running = 1.0
        for n in range(1, 31):
            running *= q_number(n, q)
            assert q_factorial(n, q) == pytest.approx(running, rel=1e-12)


def test_q_pochhammer_examples():
    assert q_pochhammer(0.7, 0.5, 0) == 1.0
    assert q_pochhammer(0.5, 0.5, 2) == pytest.approx((1 - 0.5) * (1 - 0.25), rel=1e-15)
    assert q_pochhammer(0.0, 0.5, math.inf) == 1.0


@given(a=st.floats(-2, 2), k=st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_q_pochhammer_matches_naive_product(a, k):
    q = 0.5
    prod = 1.0
    for s in range(k):
        prod *= 1 - a * q**s
    assert q_pochhammer(a, q, k) == pytest.approx(prod, rel=1e-13, abs=1e-13)


def test_e_q_tilde_trivial_and_domain():
    assert e_q_tilde(0.0, 0.5) == 1.0
    with pytest.raises(DomainError):
        e_q_tilde(1.2, 0.5)
    with pytest.raises(DomainError):
        e_q_tilde(1.2j, 0.5)


def decimal_e_q_tilde(x, q):
    """sum_n x^n / (q;q)_n for a complex x, in 40-digit decimal arithmetic, up to the first
    term past n = 100 below 1e-35 in modulus."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        xr, xi, qd = decimal.Decimal(x.real), decimal.Decimal(x.imag), decimal.Decimal(q)
        tr, ti, sr, si, qn, n = decimal.Decimal(1), decimal.Decimal(0), 0, 0, decimal.Decimal(1), 0
        while n < 100 or abs(tr) + abs(ti) > decimal.Decimal("1e-35"):
            sr, si = sr + tr, si + ti
            n += 1
            qn *= qd
            tr, ti = (tr * xr - ti * xi) / (1 - qn), (tr * xi + ti * xr) / (1 - qn)
        return complex(sr, si)


@pytest.mark.parametrize("x", [0.995, -0.995j])
def test_e_q_tilde_near_the_circle(x):
    """At q = 0.9 the series terms fall like |x|^n / (q;q)_inf with (0.9;0.9)_inf = 1.3e-6, so the
    power series would need more than 10,000 terms here; Euler's product has no such cap."""
    got = e_q_tilde(x, 0.9)
    want = decimal_e_q_tilde(complex(x), 0.9)
    assert abs(got - want) <= 5e-15 * abs(want)


def test_e_q_tilde_euler_product_oracle():
    # independent product loop for 1 / (x;q)_inf
    x, q = 0.25, 0.5
    prod = 1.0
    s = 0
    while x * q**s > 1e-19:
        prod *= 1 - x * q**s
        s += 1
    assert e_q_tilde(x, q) == pytest.approx(1.0 / prod, rel=1e-12)


def test_e_q_matches_scaled_variant():
    q = 0.5
    assert e_q(0.0, q) == 1.0
    assert e_q(1.0, q) == pytest.approx(e_q_tilde((1 - q) * 1.0, q), rel=1e-12)
    with pytest.raises(DomainError):
        e_q(2.1, 0.5)  # radius is 2


def test_e_q_identity_random_points():
    """Euler's product 1/e_q(x) = ((1-q)x; q)_inf against his series, phi_1_1(0, 0; q, y) =
    sum (-1)^n q^C(n,2) y^n / (q;q)_n with y = (1-q)x.  The points avoid the positive ray at
    q = 0.9, where the series' alternating terms lose up to 1e-8; q = 0.9 is covered on
    the negative ray, where they do not alternate."""
    rng = np.random.default_rng(7)
    for q in (0.3, 0.5, 0.7):
        radius = 1.0 / (1.0 - q)
        for _ in range(100):
            x = rng.uniform(0.0, 0.6) * radius * np.exp(2j * np.pi * rng.uniform())
            lhs = 1.0 / e_q(complex(x), q)
            rhs = phi_1_1(0.0, 0.0, q, (1 - q) * complex(x))
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
    for x in np.linspace(0.0, -0.9, 25) / (1.0 - 0.9):
        lhs = 1.0 / e_q(float(x), 0.9)
        assert abs(lhs - phi_1_1(0.0, 0.0, 0.9, 0.1 * float(x))) <= 1e-12 * abs(lhs)


def mp_pochhammer(a, q, powers):
    """(a; q)_inf to 1e-20 relative, in mpmath at 30 digits: the factors 1 - a q^s for s < N,
    the first N where |a| q^N <= 1/2 and the tail's |log|, at most 2 |a| q^N / (1 - q), is
    below 1e-21.  powers holds q^s as mpf for s up to at least N."""
    import mpmath

    n = 0
    while not (abs(a) * q**n <= 0.5 and 2 * abs(a) * q**n / (1 - q) < 1e-21):
        n += 1
    a = mpmath.mpmathify(a)
    return mpmath.fprod(1 - a * p for p in powers[:n])


@pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99])
def test_q_exponentials_against_a_high_precision_product(q):
    """e_q_tilde, e_q and e_q_reciprocal up to 0.99 of their radius, in four directions (e_q_reciprocal
    on the real line), against the product in 30-digit arithmetic.  The product's rounding grows with
    its factor count, about 1/(1-q); the worst relative errors measured on these points are 9.2e-16
    (q = 0.5), 2.0e-15 (0.9), 2.9e-15 (0.95) and 2.1e-14 (0.99), under 1e-15 + 4e-16/(1-q)."""
    mpmath = pytest.importorskip("mpmath")
    bound = 1e-15 + 4e-16 / (1.0 - q)
    radius = 1.0 / (1.0 - q)
    with mpmath.workdps(30):
        powers = [mpmath.mpf(q) ** s for s in range(int(math.log(1e-24) / math.log(q)) + 1)]
        for frac in (0.5, 0.9, 0.99):
            for u in (1.0, 1j, -1.0, cmath.exp(0.75j * math.pi)):
                x = frac * u
                want = 1 / mp_pochhammer(x, q, powers)
                assert abs(e_q_tilde(x, q) - want) <= bound * abs(want), ("e_q_tilde", x)
                x = frac * radius * u
                want = 1 / mp_pochhammer((1.0 - q) * x, q, powers)
                assert abs(e_q(x, q) - want) <= bound * abs(want), ("e_q", x)
            for x in (frac * radius, -frac * radius):
                want = mp_pochhammer((1.0 - q) * x, q, powers)
                assert abs(e_q_reciprocal(x, q) - want) <= bound * abs(want), ("e_q_reciprocal", x)


@pytest.mark.parametrize("fn,x", [(e_q, 999.0), (e_q, -999.0), (e_q_tilde, 0.999), (e_q_tilde, -0.999),
                                  (e_q_reciprocal, 999.0), (e_q_reciprocal, -999.0)])
def test_q_exponentials_raise_where_the_product_leaves_the_normal_range(fn, x):
    """At q = 0.999 the product near the edge of the disc is about e^-822 (0 in double) on the
    positive side and e^822 on the negative side: e_q or its reciprocal is out of range."""
    with pytest.raises(OverflowError, match=r"Euler product leaves the normal double range at x = "):
        fn(x, 0.999)


def _radius(fn, q):
    return 1.0 if fn is e_q_tilde else 1.0 / (1.0 - q)


@pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99])
@pytest.mark.parametrize("fn", [e_q, e_q_tilde, e_q_reciprocal])
def test_q_exponentials_on_real_arrays_equal_the_scalar_calls_bit_for_bit(fn, q):
    """One product over the array takes the factor count of its largest |x|; the further factors of
    a smaller real x are 1 - (tiny) = 1.0 exactly."""
    rng = np.random.default_rng(11)
    r = _radius(fn, q)
    x = rng.uniform(0.0 if fn is e_q_reciprocal else -0.95, 0.95, 40) * r
    x[:3] = 0.0, 1e-12 * r, 0.95 * r  # the smallest and largest magnitudes set the factor counts apart
    for xs in (x, x.reshape(5, 8), x[:1], x[::7]):
        got = fn(xs, q)
        want = np.array([fn(float(t), q) for t in xs.ravel()]).reshape(xs.shape)
        assert got.shape == xs.shape and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.7, 0.9, 0.95])
@pytest.mark.parametrize("fn", [e_q, e_q_tilde])
def test_q_exponentials_on_complex_arrays_agree_with_the_scalar_calls(fn, q):
    """numpy's complex product rounds otherwise than CPython's, and a complex factor 1 - a q^s past an
    element's own cutoff is not exactly 1: within (8 + 4/(1-q)) ulps, as both paths lose digits in
    proportion to their factor count (measured 4.4 ulps at q = 0.05 to 48 at 0.95)."""
    rng = np.random.default_rng(5)
    z = _radius(fn, q) * rng.uniform(0.0, 0.9, 200) * np.exp(2j * math.pi * rng.uniform(size=200))
    want = np.array([fn(complex(t), q) for t in z])
    assert np.max(abs(fn(z, q) - want) / abs(want)) <= (8.0 + 4.0 / (1.0 - q)) * 2.0**-52


@pytest.mark.parametrize("fn,x,message", [
    (e_q, np.array([0.5, -2.0, 2.5]), r"^e_q requires \|x\| < 1/\(1-q\) = 2\.0, got \|x\| = 2\.0$"),
    (e_q, np.array([[0.5, 0.0], [1.0, 3j]]), r"^e_q requires \|x\| < 1/\(1-q\) = 2\.0, got \|x\| = 3\.0$"),
    (e_q, np.array([0.5, np.nan]), r"^e_q requires \|x\| < 1/\(1-q\) = 2\.0, got \|x\| = nan$"),
    (e_q_tilde, np.array([0.1, 0.6j, -1.5, 2.0]), r"^e_q_tilde requires \|x\| < 1, got \|x\| = 1\.5$"),
    (e_q_reciprocal, np.array([0.0, 2.5, 3.0]), r"^e_q_reciprocal requires x <= 1/\(1-q\) = 2\.0, got x = 2\.5$"),
    (e_q_reciprocal, np.array([1.0, -2.0]), r"^e_q requires \|x\| < 1/\(1-q\) = 2\.0, got \|x\| = 2\.0$"),
])
def test_q_exponentials_on_arrays_name_the_first_element_out_of_domain(fn, x, message):
    with pytest.raises(DomainError, match=message):
        fn(x, 0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no numpy warning on the way to the error
def test_q_exponentials_on_arrays_name_the_first_element_out_of_range():
    with pytest.raises(OverflowError, match=r"^e_q Euler product leaves the normal double range at "
                                            r"x = 999\.0, q = 0\.999$"):
        e_q(np.array([0.5, 999.0, -999.0]), 0.999)
    with pytest.raises(OverflowError, match=r"^e_q_tilde Euler product .* at x = -0\.999, q = 0\.999$"):
        e_q_tilde(np.array([0.5, -0.999, 0.999]), 0.999)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
def test_e_q_reciprocal_array_pins_each_endpoint_element_to_zero(q):
    radius = 1.0 / (1.0 - q)
    x = np.array([0.5 * radius, radius, radius * (1.0 - 5e-15), radius * (1.0 - 5e-13), 0.0])
    got = e_q_reciprocal(x, q)
    assert [math.isclose(t, radius, rel_tol=1e-14) for t in x] == [False, True, True, False, False]
    assert got.tobytes() == np.array([e_q_reciprocal(float(t), q) for t in x]).tobytes()
    assert got[1] == got[2] == 0.0 and got[3] > 0.0
    for t in (0.5 * radius, radius):  # a 0-d array gives a numpy scalar, as for e_q
        assert type(e_q_reciprocal(np.array(t), q)) is type(e_q(np.array(0.5 * radius), q)) is np.float64


def test_q_derivative_on_an_array():
    x = np.array([0.5, 1.0, 2.0])
    got = q_derivative(lambda t: t**3, x, 0.5)
    assert got.tobytes() == np.array([q_derivative(lambda t: t**3, float(t), 0.5) for t in x]).tobytes()
    with pytest.raises(DomainError, match="^q_derivative is undefined at x = 0$"):
        q_derivative(lambda t: t, np.array([0.5, 0.0, 1.0]), 0.5)


def test_e_q_gaussian_examples(monkeypatch):
    assert e_q_gaussian(0.0, 0.5) == 1.0
    v1 = e_q_gaussian(1.0, 0.5)
    monkeypatch.setattr(qcore, "_MAX_TERMS", 20000)
    monkeypatch.setattr(qcore, "_TERM_TOL", 1e-30)
    v2 = e_q_gaussian(1.0, 0.5)
    assert v1 == pytest.approx(v2, rel=1e-12)
    assert math.isfinite(e_q_gaussian(100.0, 0.9))  # entire: no DomainError


def test_e_q_gaussian_pathological_policy(monkeypatch):
    monkeypatch.setattr(qcore, "_MAX_TERMS", 5)
    with pytest.raises(ConvergenceError):
        e_q_gaussian(50.0, 0.9)


def test_q_derivative_examples():
    assert q_derivative(lambda t: t * t, 1.0, 0.5) == pytest.approx(q_number(2, 0.5), rel=1e-14)
    assert q_derivative(lambda t: 3.25, 0.7, 0.5) == 0.0
    val = q_derivative(lambda t: e_q(t, 0.5), 0.5, 0.5)
    assert val == pytest.approx(e_q(0.5, 0.5), rel=1e-12)
    with pytest.raises(DomainError):
        q_derivative(lambda t: t, 0.0, 0.5)


def test_q_derivative_monomials():
    for n in range(1, 8):
        for x in (0.3, 1.1):
            got = q_derivative(lambda t, k=n: t**k, x, 0.5)
            assert got == pytest.approx(q_number(n, 0.5) * x ** (n - 1), rel=1e-12)


def test_jackson_integral_examples():
    assert jackson_integral(lambda x: 1.0, 1.0, 0.5) == pytest.approx(1.0, rel=1e-14)
    assert jackson_integral(lambda x: x, 1.0, 0.5) == pytest.approx(1.0 / q_number(2, 0.5), rel=1e-13)
    # zeroth moment of the resolution measure
    a = 1.0 / (1.0 - 0.5)
    got = jackson_integral(lambda x: e_q_reciprocal(0.5 * x, 0.5), a, 0.5)
    assert got == pytest.approx(1.0, rel=1e-12)


def test_jackson_integral_convergence_error(monkeypatch):
    monkeypatch.setattr(qcore, "_MAX_TERMS", 4)
    with pytest.raises(ConvergenceError):
        jackson_integral(lambda x: 1.0, 1.0, 0.9)


def test_array_jackson_integral_equals_each_scalar_integral_bit_for_bit():
    orders = np.arange(16.0)
    for q in Q_GRID:
        a = 1.0 / (1.0 - q)
        integrands = (  # entries that stop at different lattice points, one of them at once
            lambda x, n: e_q_reciprocal(q * x, q) * x**n,
            lambda x, n: (-x) ** n * math.sin(n * x),
            lambda x, n: 0.0 if n % 3 == 0 else x**-0.25 / n,
        )
        for f in integrands:
            got = jackson_integral(lambda x: np.array([f(x, n) for n in range(16)]), a, q)
            assert got.shape == (16,)
            for n in range(16):
                assert float(got[n]).hex() == float(jackson_integral(lambda x: f(x, n), a, q)).hex(), (q, n)
        grid = jackson_integral(lambda x: np.float_power(x, orders).reshape(4, 4), a, q)
        assert grid.tobytes() == jackson_integral(lambda x: np.float_power(x, orders), a, q).reshape(4, 4).tobytes()


def test_array_jackson_integral_cap_names_the_entry_still_running(monkeypatch):
    monkeypatch.setattr(qcore, "_MAX_TERMS", 10)
    jackson_integral(lambda x: np.array([0.0, 0.0]), 1.0, 0.9)  # both entries stop after three terms
    # entry 0 stops after three zero terms; entry 1 decays like 0.9^k
    with pytest.raises(ConvergenceError, match=r"^Jackson integral lattice sum: no convergence within 10 terms "
                                               r"\(entry 1: last term [-+.e\d]+, partial sum [-+.e\d]+\)$"):
        jackson_integral(lambda x: np.array([0.0, 1.0]), 1.0, 0.9)


def rising_tiny(x):
    """10^(-100 x): on the lattice of [0, 1] at q = 0.5 the first three terms, 1e-100, 5e-51
    and 2.5e-26, are tiny and rising, and the fourth, 3.9e-14, is not."""
    return 10.0 ** (-100.0 * x)


def lattice_sum(f, a, q, terms):
    total = 0.0
    for k in range(terms):
        total = total + q**k * f(q**k * a)
    return a * (1.0 - q) * total


def test_jackson_sum_goes_past_tiny_rising_leading_terms():
    want = lattice_sum(rising_tiny, 1.0, 0.5, 200)
    assert want > 1e-3  # the three leading terms alone give 1.3e-26
    assert jackson_integral(rising_tiny, 1.0, 0.5) == pytest.approx(want, rel=1e-15)
    # each element on its own, bit for bit as alone: the rising ones sum on, the zero one stops,
    # and one whose first term is large is summed as before
    got = jackson_integral(lambda x: np.array([rising_tiny(x), 0.0, 2.0 * rising_tiny(x), x**0.5]), 1.0, 0.5)
    assert got.tolist() == [jackson_integral(rising_tiny, 1.0, 0.5), 0.0,
                            jackson_integral(lambda x: 2.0 * rising_tiny(x), 1.0, 0.5),
                            jackson_integral(lambda x: x**0.5, 1.0, 0.5)]


@pytest.mark.parametrize("zero", [0.0, np.zeros(2)])
def test_jackson_sum_of_a_zero_integrand_stops_after_three_terms(zero):
    calls = []
    got = jackson_integral(lambda x: calls.append(x) or zero, 1.0, 0.5)
    assert len(calls) == 3 and np.all(got == 0.0)


def test_array_sum_leaves_its_prelude_once_no_running_element_needs_it(monkeypatch):
    """An element of exact zeros stops after three terms; the prelude's restart test ends with it,
    not at the end of the sum, and the other element's value is that of its own call."""
    copies = []
    real_copyto = np.copyto
    monkeypatch.setattr(np, "copyto", lambda *args, **kwargs: copies.append(1) or real_copyto(*args, **kwargs))
    got = jackson_integral(lambda x: np.array([0.0, x**0.5]), 1.0, 0.5)
    monkeypatch.undo()
    assert len(copies) == 4  # terms 0-3: the zero element stops at term 2
    assert got.tolist() == [0.0, jackson_integral(lambda x: x**0.5, 1.0, 0.5)]


@pytest.mark.parametrize("array", [False, True])
def test_tiny_terms_restart_the_run_only_before_the_first_large_term(array):
    """A tiny term larger than every term before it restarts the run of small terms until the
    first term of at least 1e-16; from there three small terms stop the sum, rising or not."""
    def total(terms):
        if array:
            return qcore._sum_series((np.array([t]) for t in terms), "test", np.ones(1, bool))[0]
        return qcore._sum_series(iter(terms), "test")

    assert total([1e-30, 1e-20, 1e-18, 1.0, 0.0, 0.0, 0.0, 5.0]) == 1.0 + 1e-18 + 1e-20 + 1e-30
    assert total([1e-30, 1e-40, 1e-50, 1.0]) == 1e-30 + 1e-40 + 1e-50  # falling: stops after three
    assert total([1.0, 1e-30, 1e-20, 1e-18, 5.0]) == 1.0 + 1e-30 + 1e-20 + 1e-18


@pytest.mark.parametrize("q", [0.99, 0.995])
def test_resolution_moments_near_q_one(q):
    """At q = 0.99 the integrand x^n / e_q(qx) starts near 1e-66 at the end of the lattice; a sum that
    stopped after those three terms would return a defect of 1.0."""
    profile = resolution_moment_profile(15, q)
    assert max(abs(c - e) / e for c, e in profile) < 1e-8


@pytest.mark.parametrize("q", [0.998, 0.999])
def test_resolution_moments_where_the_lattice_weights_are_subnormal(q):
    """From q ~ 0.998 the weights 1/e_q(qx) at the outer end of the lattice are subnormal, so no walk
    can sum them; the lattice sum's log-weights stay in range.  Exponentiating a log of size
    pi^2 / (6 (1-q)) costs digits in proportion, so the bound is u / (1-q): 5.6e-14 and 1.1e-13,
    against 1.2e-14 and 3.5e-14 measured."""
    bound = 2.0**-53 / (1.0 - q)
    assert max(abs(c - e) / e for c, e in resolution_moment_profile(15, q)) < bound


@given(
    cu=st.lists(st.floats(-2, 2), min_size=1, max_size=5),
    cv=st.lists(st.floats(-2, 2), min_size=1, max_size=5),
    x=st.floats(0.05, 2.0),
)
@settings(max_examples=80, deadline=None)
def test_q_leibnitz_rule(cu, cv, x):
    q = 0.5
    u = lambda t: sum(c * t**i for i, c in enumerate(cu))
    v = lambda t: sum(c * t**i for i, c in enumerate(cv))
    lhs = q_derivative(lambda t: u(t) * v(t), x, q)
    rhs = u(x) * q_derivative(v, x, q) + v(q * x) * q_derivative(u, x, q)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_integration_by_parts_monomials():
    q, a = 0.5, 1.0
    for m in range(7):
        for k in range(7):
            u = lambda t, mm=m: t**mm
            v = lambda t, kk=k: t**kk
            lhs = jackson_integral(
                lambda t: u(t) * (q_derivative(v, t, q) if k else 0.0), a, q
            )
            boundary = u(a) * v(a) - (1.0 if m == 0 and k == 0 else 0.0)
            rhs = boundary - jackson_integral(
                lambda t: v(q * t) * (q_derivative(u, t, q) if m else 0.0), a, q
            )
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_reciprocal_derivative_identity():
    q = 0.5
    radius = 1.0 / (1.0 - q)
    for x in np.linspace(0.04, 0.96, 12) * radius:
        lhs = q_derivative(lambda t: e_q_reciprocal(t, q), float(x), q)
        rhs = -e_q_reciprocal(q * float(x), q)
        assert abs(lhs - rhs) <= 1e-10 * max(1e-6, abs(rhs))


def test_e_q_reciprocal_boundary():
    q = 0.5
    assert e_q_reciprocal(1.0 / (1.0 - q), q) == 0.0
    with pytest.raises(DomainError):
        e_q_reciprocal(2.5, q)


def test_moment_identity_direct():
    for q in Q_GRID:
        a = 1.0 / (1.0 - q)
        for n in range(0, 16):
            got = jackson_integral(lambda x: e_q_reciprocal(q * x, q) * x**n, a, q)
            assert got == pytest.approx(q_factorial(n, q), rel=1e-9)


def test_q_pochhammer_infinite_on_arrays():
    zs = np.array([0.0, 0.3, -0.7, 0.5 + 0.5j, 1.5j, np.exp(1j)])
    for q in Q_GRID:
        got = q_pochhammer(zs, q, math.inf)
        assert got.shape == zs.shape
        for g, z in zip(got, zs):
            assert g == pytest.approx(q_pochhammer(complex(z), q, math.inf), rel=1e-14, abs=1e-15)


def test_max_terms_error_reports_the_last_term_and_the_partial_sum(monkeypatch):
    monkeypatch.setattr(qcore, "_MAX_TERMS", 5)
    x, q = 50.0, 0.9
    terms = [1.0]
    for n in range(1, 6):  # e_q_gaussian's term recurrence
        terms.append(terms[-1] * x * (1.0 - q) / q * q ** (2 * n - 1) / (1.0 - q**n))
    partial = 0.0
    for t in terms[:5]:
        partial = partial + t
    message = (f"e_q_gaussian series: no convergence within 5 terms "
               f"(last term {terms[5]!r}, partial sum {partial!r})")
    with pytest.raises(ConvergenceError) as info:
        e_q_gaussian(x, q)
    assert str(info.value) == message


def test_e_q_gaussian_overflow_names_the_term():
    with pytest.raises(OverflowError, match=r"^e_q_gaussian series: term 23 overflows double range at x = 1e\+20$"):
        e_q_gaussian(1e20, 0.5)
    with pytest.raises(OverflowError, match=r"term \d+ overflows double range at x = \(1e\+20\+1e\+20j\)$"):
        e_q_gaussian(complex(1e20, 1e20), 0.5)


def test_q_number_takes_a_degree_array():
    for q in (0.05, 0.5, 0.99):
        got = q_number(np.arange(3000), q)
        assert got.tobytes() == np.array([(1.0 - q**n) / (1.0 - q) for n in range(3000)]).tobytes()
    with pytest.raises(DomainError, match="^degree must be non-negative$"):
        q_number(np.array([2, -1]), 0.5)
    with pytest.raises(DomainError, match="^a degree array must have an integer dtype, got float64$"):
        q_number(np.array([2.0]), 0.5)


@pytest.mark.parametrize("x", [[0.1, 0.2], (0.1, 0.2), "0.1", None])
def test_q_series_input_neither_a_number_nor_an_ndarray_is_a_domain_error(x):
    """A list gave a bare TypeError from abs() or the arithmetic; each function now names its type."""
    kind = type(x).__name__
    with pytest.raises(DomainError, match=rf"^a must be a number or an ndarray, got {kind}$"):
        q_pochhammer(x, 0.5, math.inf)
    with pytest.raises(DomainError, match=rf"^a must be a number or an ndarray, got {kind}$"):
        q_pochhammer(x, 0.5, 3)
    for call in (lambda: e_q(x, 0.5), lambda: e_q_tilde(x, 0.5), lambda: e_q_reciprocal(x, 0.5),
                 lambda: q_derivative(lambda t: t, x, 0.5)):
        with pytest.raises(DomainError, match=rf"^x must be a number or an ndarray, got {kind}$"):
            call()
    with pytest.raises(DomainError, match=rf"^x must be a number, got {kind}$"):
        e_q_gaussian(x, 0.5)


def test_e_q_gaussian_rejects_an_ndarray():
    with pytest.raises(DomainError, match="^x must be a number, got ndarray$"):
        e_q_gaussian(np.array([0.5, 2.0]), 0.5)
