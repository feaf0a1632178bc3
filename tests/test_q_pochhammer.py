"""q_pochhammer against the factor-by-factor reference loop.

`q_pochhammer` multiplies an array's factors in blocks, with its powers of
q from np.float_power; the reference below takes one factor at a time with
Python's q ** s, as the library's own factor loop does.  Both must give the
same bytes, dtype and shape, and stop (or raise) after the same factor.
"""

import math
import warnings

import numpy as np
import pytest

from qhermite import polyfam, qcore
from qhermite.errors import ConvergenceError, DomainError
from qhermite.qcore import q_pochhammer


def reference_pochhammer(a, q, k):
    """(a; q)_k one factor at a time, the product stopping (k = inf) at the
    first factor with max |a| q^s below 1e-18."""
    if isinstance(a, np.ndarray):
        prod, mag = np.ones_like(a), float(np.max(np.abs(a), initial=0.0))
    else:
        prod, mag = (1.0 + 0.0j if isinstance(a, complex) else 1.0), abs(a)
    if k is not math.inf:
        for s in range(k):
            prod = prod * (1.0 - a * q**s)
        return prod
    s = 0
    while mag * q**s >= 1e-18:
        prod = prod * (1.0 - a * q**s)
        s += 1
        if s > 10 * qcore._MAX_TERMS:
            raise ConvergenceError("infinite q-Pochhammer product did not settle")
    return prod


def assert_same(got, want):
    assert type(got) is type(want)
    if isinstance(want, np.ndarray) or isinstance(want, np.generic):
        assert got.dtype == want.dtype and got.shape == want.shape
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


Q_GRID = [1e-6, 0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.995,
          *np.random.default_rng(8).uniform(0.02, 0.98, 3).tolist()]
K_GRID = [math.inf, 0, 1, 2, 5, 13, 40]
SIZES = [0, 1, 2, 3, 20, 129, 257, 513, 2049]
SHAPES_2D = {0: (0, 3), 1: (1, 1), 2: (2, 1), 3: (1, 3), 20: (4, 5), 129: (3, 43), 257: (257, 1), 513: (27, 19),
             2049: (3, 683)}


def grid_arrays(n, q):
    """Complex points on the unit circle (theta = 0 gives the factor 1 - 1 = 0),
    reals with exact zero factors 1 - q^{-s} q^s, and small integers."""
    rng = np.random.default_rng(n)
    theta = np.linspace(0.0, math.pi, n)
    unit = np.exp(2j * theta)
    reals = rng.uniform(-3.0, 3.0, n)
    reals[: min(n, 3)] = [1.0, 1.0 / q, -1.0][: min(n, 3)]
    ints = (np.arange(n) % 7) - 3
    real_valued_complex = reals + 0j  # signs of zero imaginary parts propagate through the product
    return [unit, reals, ints, real_valued_complex]


def check_case(a, q, k):
    with np.errstate(all="ignore"):
        want = reference_pochhammer(a, q, k)
    if np.all(np.isfinite(want)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no warning where the product is finite
            got = q_pochhammer(a, q, k)
    else:
        with np.errstate(all="ignore"):
            got = q_pochhammer(a, q, k)
    assert_same(got, want)


@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("n", SIZES)
def test_arrays_equal_the_factor_loop_bit_for_bit(q, n):
    for a in grid_arrays(n, q):
        for shaped in (a, a.reshape(SHAPES_2D[n])) + ((a.reshape(()),) if n == 1 else ()):
            for k in K_GRID:
                check_case(shaped, q, k)


@pytest.mark.parametrize("q", [0.3, 0.9])
def test_array_layouts_and_narrow_dtypes(q):
    rng = np.random.default_rng(3)
    unit = np.exp(1j * rng.uniform(0.0, math.pi, (60, 40)))
    for a in (unit.T, unit.ravel()[::3], np.asfortranarray(unit), unit.astype(np.complex64),
              rng.uniform(-2.0, 2.0, (30, 40)).astype(np.float32), np.array([True, False, True])):
        for k in (math.inf, 0, 3, 40):
            check_case(a, q, k)


@pytest.mark.parametrize("q", Q_GRID)
def test_scalars_equal_the_factor_loop_bit_for_bit(q):
    for a in (0.0, 0.3, -0.7, 1.0, 2.5, -3, 0.3 + 0.4j, 1.5j, complex(math.cos(1.0), math.sin(1.0)), np.float64(0.6),
              np.complex128(0.2 - 0.9j), q):
        for k in K_GRID:
            check_case(a, q, k)


#: orders on both sides of each power of two from 64 to 4096
TABLE_K_GRID = [0, 1, 2, *(m + d for m in (2**e for e in range(6, 13)) for d in (-1, 0, 1)), 5000, math.inf]


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.99])
def test_scalars_of_many_orders_equal_the_factor_loop(q):
    for a in (0.7, -1.3, 0.4 - 0.9j, complex(-0.0, 2.0)):
        for k in TABLE_K_GRID:
            assert_same(q_pochhammer(a, q, k), reference_pochhammer(a, q, k))


def test_a_product_of_80000_factors_equals_the_factor_loop():
    q = 0.9995
    assert qcore._terms_above_cutoff(q, 0.5) > 80000
    for a in (0.5, 0.3 - 0.4j):
        assert_same(q_pochhammer(a, q, math.inf), reference_pochhammer(a, q, math.inf))


def test_theta_rule_equals_the_factor_loop_build():
    for q in (0.1, 0.5, 0.9):
        for n_nodes in (128, 256, 2048):
            theta, weights = polyfam._theta_rule.__wrapped__(q, n_nodes)
            ref_theta = np.linspace(0.0, math.pi, n_nodes + 1)
            w = np.full(n_nodes + 1, math.pi / n_nodes)
            w[0] = w[-1] = 0.5 * (math.pi / n_nodes)
            half = reference_pochhammer(np.exp(2j * ref_theta), q, math.inf)
            mass = float(reference_pochhammer(q, q, math.inf))
            ref_weights = w * mass / (2.0 * math.pi) * (half * np.conj(half)).real
            assert theta.tobytes() == ref_theta.tobytes()
            assert weights.tobytes() == ref_weights.tobytes()


@pytest.mark.parametrize("s_edge", [99999, 100000, 100001, 100002])
def test_convergence_error_at_the_same_factor(s_edge):
    """|a| = 1e-18 / q^s_edge puts the loop's stop next to factor 10 max_terms."""
    q = 0.9995
    mag = 1e-18 / q**s_edge
    for a in (mag, np.array([0.5, -mag])):
        try:
            with np.errstate(all="ignore"):
                want = reference_pochhammer(a, q, math.inf)
        except ConvergenceError:
            with pytest.raises(ConvergenceError):
                q_pochhammer(a, q, math.inf)
            continue
        with np.errstate(all="ignore"):
            assert_same(q_pochhammer(a, q, math.inf), want)


def test_convergence_error_boundary_is_crossed():
    """The edge cases above raise on one side and return on the other."""
    q = 0.9995
    assert qcore._terms_above_cutoff(q, 1e-18 / q**99999) <= 10 * qcore._MAX_TERMS
    assert qcore._terms_above_cutoff(q, 1e-18 / q**100002) > 10 * qcore._MAX_TERMS
    with pytest.raises(ConvergenceError):
        q_pochhammer(1.0, 0.9999, math.inf)


def test_overflow_gives_the_same_inf_nan_pattern():
    q = 0.9995
    for n in (129,):
        a = np.exp(2j * np.linspace(0.0, math.pi, n))
        with np.errstate(all="ignore"):
            want = reference_pochhammer(a, q, math.inf)
            got = q_pochhammer(a, q, math.inf)
        finite = np.isfinite(want)
        assert not finite.all()  # the product does overflow here
        assert np.array_equal(np.isfinite(got), finite)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert got[finite].tobytes() == want[finite].tobytes()


def test_powers_equal_python_pow():
    for q in Q_GRID + [0.9999]:
        got = qcore._q_powers(q, 3, 3000).tolist()
        assert got == [q**s for s in range(3, 3000)]


def test_terms_above_cutoff_equals_the_loop_count():
    def loop_count(q, mag):
        s = 0
        while mag * q**s >= 1e-18:
            s += 1
        return s

    rng = np.random.default_rng(11)
    mags = [0.0, 1e-19, 1e-18, 2e-18, 0.5, 1.0, 3.0, 1e10, 1e300, 1.7e308, math.inf, math.nan]
    for q in Q_GRID + rng.uniform(0.001, 0.999, 20).tolist():
        for mag in mags + rng.uniform(0.0, 5.0, 5).tolist():
            assert qcore._terms_above_cutoff(q, mag) == loop_count(q, mag)


def test_numpy_integer_orders():
    for k in (np.int64(3), np.int32(3), np.uint8(3)):
        assert_same(q_pochhammer(0.5, 0.5, k), q_pochhammer(0.5, 0.5, 3))
        a = np.array([0.25, -0.5j])
        assert_same(q_pochhammer(a, 0.5, k), q_pochhammer(a, 0.5, 3))
    for bad in (np.int64(-1), 3.0, 2.5):
        with pytest.raises(DomainError):
            q_pochhammer(0.5, 0.5, bad)
