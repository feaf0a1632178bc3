"""The type-II lattice Gram sum against a point-by-point reference loop and
a high-precision oracle.

`_discrete2_gram` reduces the lattice scale c into (q, 1] and sums one
finite lattice, k = -M, ..., T-1, plus one point at 0 for the positive
points below 1e-9; M is computed from q and nmax.  It adds one symmetric
product per block of points.  The reference below walks both sides of the
same reduced lattice one point at a time under the series stop rule, each
point with its own weight product, and adds the points in lattice order.
The sums agree to within GRAM_REL_BOUND of the largest entry, and the
reference's terms just past k = -M are below 1e-18 of it.
"""

import math
import warnings

import numpy as np
import pytest

from qhermite import polyfam, qcore
from qhermite.errors import ConvergenceError, QuadratureError
from qhermite.polyfam import discrete2, gram_matrix

#: max |block sum - reference| / max |reference| over every case below; the
#: largest measured is 1.8e-12 (q = 1e-7, nmax 22), then 1.4e-12 (q = 0.02,
#: c = 1e6, nmax 40), 1.2e-12 (q = 0.5, nmax 70) and 9.2e-13 (q = 0.05,
#: c = 1e4, nmax 40); at nmax <= 10 it is at most 5.8e-14.  The reference
#: rescales at a flat 1e120 and the library below 1e120 / max(1, 1e-30 |x|),
#: so above x = 1e30 the two round differently
GRAM_REL_BOUND = 4e-12


def _psi_sequence_scaled(a, d, x):
    """Orthonormal values at one point with a shared log-scale factored out."""
    nmax = len(d)
    vec = np.empty(nmax + 1)
    log_scale = 0.0
    p_prev, p = 0.0, 1.0
    vec[0] = p
    for m in range(nmax):
        p_next = (x * p - a[m] * p_prev) / d[m]
        p_prev, p = p, p_next
        big = max(abs(p), abs(p_prev))
        if big > 1e120:
            p /= big
            p_prev /= big
            vec[: m + 1] /= big
            log_scale += math.log(big)
        vec[m + 1] = p
    return vec, log_scale


def reference_term(family, nmax, k):
    """(T_k, mag, rescaled): the lattice point k's term q^k w(x) (p(x) p(x)^T + p(-x) p(-x)^T) at
    x = c q^k of the reduced scale c, each of the points x q^s in the weight product on its own,
    with log1p(y^2) taken as 2 log y above y = 1e150, where y^2 overflows; the term's largest
    q^k w(x) p_j(x)^2; and whether p(x) took a 1e120 rescale."""
    q = family.q.q
    c = polyfam._reduced_scale(family.lattice_scale, q)
    a, d = polyfam._orthonormal_coeffs(family, nmax)
    xk = c * q**k
    log_w, s = 0.0, 0
    while (y := xk * q**s) * y >= 1e-18:
        log_w -= 2.0 * math.log(y) if y > 1e150 else math.log1p(y * y)
        s += 1
    term = np.zeros((nmax + 1, nmax + 1))
    mags = []
    for x in (xk, -xk):
        vec, log_scale = _psi_sequence_scaled(a, d, x)
        expo = log_w + 2.0 * log_scale + k * math.log(q)
        if expo > 700.0:
            raise ConvergenceError("type-II lattice term overflow")
        factor = math.exp(expo)
        term += factor * np.outer(vec, vec)
        mags.append(factor * float(np.max(np.abs(vec))) ** 2)
    return term, max(mags), log_scale > 0.0


def reference_gram(family, nmax, stats=None):
    """The lattice sum one point at a time over the lattice of the reduced
    scale, k = 0, 1, ... then -1, -2, ...

    Each side stops after three points whose terms are below 1e-16; until
    the first term of at least 1e-16, a small term larger than every one
    before it restarts that run.  A side raises past 10,000 points.  stats,
    if given, receives the number of points whose values took a 1e120
    rescale.
    """
    q = family.q.q
    c = polyfam._reduced_scale(family.lattice_scale, q)
    gram = np.zeros((nmax + 1, nmax + 1))
    rescales = 0
    for direction in (1, -1):
        k = 0 if direction == 1 else -1
        small_run, biggest, prelude = 0, 0.0, True
        steps = 0
        while small_run < 3:
            term, mag, rescaled = reference_term(family, nmax, k)
            gram += term
            rescales += rescaled
            if prelude and mag < 1e-16:
                small_run, biggest = (1, mag) if mag > biggest else (small_run + 1, biggest)
            else:
                prelude = False
                small_run = small_run + 1 if mag < 1e-16 else 0
            k += direction
            steps += 1
            if steps > 10000:
                raise ConvergenceError("type-II lattice sum did not decay within 10,000 points")
    if stats is not None:
        stats["rescales"] = rescales
    return c * (1.0 - q) * gram


def _rel_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("q", [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95])
def test_block_sum_matches_pointwise_loop(q):
    for nmax in (0, 1, 4, 8, 10, 25):
        for c in (0.01, 1.0, 2.5):
            fam = discrete2(q, c)
            got = polyfam._discrete2_gram(fam, nmax)
            assert np.array_equal(got, got.T), (nmax, c)
            assert _rel_error(got, reference_gram(fam, nmax)) <= GRAM_REL_BOUND, (nmax, c)


@pytest.mark.parametrize("q,nmax,c", [
    (0.1, 2, 1.0),    # the reference's negative side stops on its 8th point
    (0.5, 13, 2.5),   # c reduces to 0.625; the reference reads 24 negative points
    (0.95, 24, 1.0),  # 56 negative points
    (0.01, 10, 1.0),  # the reference's negative side reads more points than its positive side
    (0.1, 20, 1.0),
    (0.05, 40, 1e4),
    (0.01, 25, 100.0),
    (0.02, 40, 1e6),
    (1e-7, 22, 1.0),  # the lattice runs out to c q^-26 = 1e182, whose square overflows
])
def test_finite_lattice_matches_pointwise_loop_without_warnings(q, nmax, c):
    fam = discrete2(q, c)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = polyfam._discrete2_gram(fam, nmax)
        assert _rel_error(got, reference_gram(fam, nmax)) <= GRAM_REL_BOUND


def test_grid_exercises_the_rescale():
    stats = {}
    reference_gram(discrete2(0.05, 2.5), 25, stats=stats)
    assert stats["rescales"] > 0


def _extent(q, nmax):
    """M = nmax + 1 + ceil(sqrt(1 + (ln 1e18 + nmax ln(4/(1-q))) / ln(1/q))), from the docstring's bound."""
    return nmax + 1 + math.ceil(math.sqrt(1.0 + (math.log(1e18) + nmax * math.log(4.0 / (1.0 - q))) / -math.log(q)))


def _gram_and_extent(monkeypatch, fam, nmax):
    """_discrete2_gram(fam, nmax) and the M of its first point c q^-M."""
    starts = []

    def powers(q, start, stop):
        starts.append(start)
        return qcore._q_powers(q, start, stop)

    monkeypatch.setattr(polyfam, "_q_powers", powers)
    gram = polyfam._discrete2_gram(fam, nmax)
    monkeypatch.undo()
    return gram, -starts[0]


def test_extent_examples():
    """M = 19 at q = 0.5, nmax 8 (the verify-suite Gram), where the reference reads 18 negative
    points, and M = 364 at q = 0.999, nmax 10."""
    assert _extent(0.5, 8) == 19
    assert _extent(0.999, 10) == 364


@pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.9, 0.99, 0.999])
def test_terms_past_the_extent_are_below_the_cutoff(q, monkeypatch):
    """The reference's terms at k = -M-1 ... -M-5, which the finite lattice leaves out, are at most
    1e-18 of the Gram's largest entry (2.0e-25 measured, at q = 0.9); the Gram's M is the bound."""
    worst = 0.0
    for nmax in (0, 4, 10, 25, 70):
        for c in (0.01, 1.0, 2.5):
            fam = discrete2(q, c)
            gram, big_m = _gram_and_extent(monkeypatch, fam, nmax)
            assert big_m == _extent(q, nmax), (nmax, c)
            red = polyfam._reduced_scale(c, q)
            for k in range(-big_m - 1, -big_m - 6, -1):
                term = red * (1.0 - q) * reference_term(fam, nmax, k)[0]
                worst = max(worst, float(np.max(np.abs(term)) / np.max(np.abs(gram))))
    assert worst <= 1e-18


def test_lattice_is_capped_at_ten_times_max_terms(monkeypatch):
    """The lattice has T + M points, 2,062 + 86 at q = 0.99 (c = 1), nmax 4; past 10 * _MAX_TERMS of
    them it raises before any is evaluated, the cap q_pochhammer puts on its factor count."""
    fam = discrete2(0.99)
    big_t = polyfam._terms_above_cutoff(0.99, 1e-9)
    assert big_t == 2062
    want, big_m = _gram_and_extent(monkeypatch, fam, 4)
    assert big_m == 86
    monkeypatch.setattr(qcore, "_MAX_TERMS", 214)
    with pytest.raises(ConvergenceError, match=r"type-II lattice sum: 2148 points, more than 2140$"):
        polyfam._discrete2_gram(fam, 4)
    monkeypatch.setattr(qcore, "_MAX_TERMS", 215)
    assert polyfam._discrete2_gram(fam, 4).tobytes() == want.tobytes()
    monkeypatch.undo()
    with pytest.raises(ConvergenceError, match="points, more than 100000"):  # 207,223 positive ones
        gram_matrix(discrete2(0.9999), 4)


@pytest.mark.parametrize("c", [1.0, 2.5])
def test_q_0_999_passes_the_gate(c):
    """About 20,700 positive points, past the 10,000-term cap of the stop rule that walked them before."""
    rep = gram_matrix(discrete2(0.999, c), 10)
    assert rep.max_offdiag < 1e-13  # 1.6e-14 and 2.2e-14 measured
    assert np.array_equal(rep.matrix, rep.matrix.T)
    assert not rep.matrix[1::2, ::2].any() and not rep.matrix[::2, 1::2].any()


@pytest.mark.parametrize("q,nmax,k", [
    (1e-30, 8, -11),     # the first point, q^-11 = 1e330, is past double range
    (1e-7, 44, -48),     # the first point, c q^-48 = 1e336, is past double range
    (0.1, 300, -316),    # the first point, 1e316
    (0.5, 1000, -1057),  # the first point, 2^1057
])
def test_lattice_leaving_double_range_raises_a_convergence_error(q, nmax, k):
    """A point or term that is not finite raises, naming its k and q; q = 1e-7, nmax 44 once passed
    the gate with weight 0 on every point above 1.3e154, where log1p(x^2) was inf, and a diagonal
    spread of 1.0."""
    with pytest.raises(ConvergenceError, match=rf"type-II lattice term is not finite at k = {k}, q = {q!r}$"):
        gram_matrix(discrete2(q), nmax)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("c", [1.0, 2.5])
def test_tail_point_matches_the_pointwise_tail(q, c):
    """The point at 0 of weight q^T / (1 - q) against the points t >= T one at a time, each with its
    own weight product, until q^t < 1e-30, in the entries of even i + j."""
    nmax = 10
    fam = discrete2(q, c)
    red = polyfam._reduced_scale(c, q)
    big_t = polyfam._terms_above_cutoff(q, red * 1e-9)
    p0 = polyfam.eval_orthonormal_sequence(fam, nmax, 0.0)
    point = q**big_t / (1.0 - q) * np.outer(p0, p0)
    pointwise = np.zeros_like(point)
    t = big_t
    while q**t >= 1e-30:
        x = red * q**t
        log_w, s = 0.0, t
        while (red * q**s) ** 2 >= 1e-60:
            log_w -= math.log1p((red * q**s) ** 2)
            s += 1
        p = polyfam.eval_orthonormal_sequence(fam, nmax, x)
        pointwise += q**t * math.exp(log_w) * np.outer(p, p)
        t += 1
    for m in (point, pointwise):
        m[1::2, ::2] = m[::2, 1::2] = 0.0
    whole = polyfam._discrete2_gram(fam, nmax) / (2.0 * red * (1.0 - q))
    assert np.max(np.abs(point - pointwise)) <= 1e-16 * np.max(np.abs(whole))


def test_points_above_1e154_keep_their_weight():
    """log1p(x^2) is inf above x = 1.3e154, which set the weight of that point and of every point
    beyond it to 0; at q = 1e-7, nmax 22 the diagonal spread read 9.6e-8, and 1.0 from nmax 24."""
    rep = gram_matrix(discrete2(1e-7), 22)
    assert rep.diag_spread < 1e-10  # 1.2e-12 measured


@pytest.mark.parametrize("q,nmax", [(0.1, 160), (0.3, 300)])
def test_high_degree_gram_passes_the_gate(q, nmax):
    """Before, both read an off-diagonal Gram mass of 8.4e-2 and 2.0e-1: the walk's weights were 0
    past x = 1.3e154."""
    rep = gram_matrix(discrete2(q), nmax)
    assert rep.max_offdiag < 1e-11  # 1.9e-12 and 6.7e-12 measured
    assert rep.diag_spread < 1e-10  # 1.5e-11 and 2.5e-11 measured


@pytest.mark.parametrize("q,nmax,offdiag,spread", [
    # measured: 2.9e-10 and 9.0e-10, 1.4e-11 and 1.0e-10, 1.5e-19 and 2.9e-12, 4.0e-19 and 4.2e-12,
    # 1.1e-43 and 5.9e-13
    (0.5, 600, 1e-9, 2e-9),
    (0.1, 200, 1e-10, 5e-10),
    (1e-7, 24, 1e-18, 1e-11),
    (1e-7, 30, 1e-18, 1e-11),
    (1e-30, 6, 1e-40, 1e-11),
])
def test_points_above_1e30_keep_x_p_in_double_range(q, nmax, offdiag, spread):
    """A column is rescaled once |p_m| passes 1e120 / max(1, 1e-30 |x|), so |x p_m| <= 1e150.  With a
    flat 1e120, x p_m overflowed at the points above about 1.8e188 (k = -645 at q = 0.5, nmax 600,
    k = -214 at q = 0.1, nmax 200, k = -28 and -34 at q = 1e-7, k = -8 at q = 1e-30) and these raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = gram_matrix(discrete2(q), nmax)
    assert rep.max_offdiag < offdiag and rep.diag_spread < spread


def test_rescale_limit_keeps_every_product_finite():
    """Up to |x| = 1e30 the columns are the pointwise loop's under its flat 1e120; above it every
    value and every product x p_m stays finite, up to x = 2^1000."""
    a, d = polyfam._orthonormal_coeffs(discrete2(0.5), 600)
    x = np.array([2.0**-3, -7.5, 1e10, -1e30, 1e31, 1e188, -1e250, 2.0**1000])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        vals, log_scale = polyfam._scaled_sequence(a, d, x)
        assert np.isfinite(x * vals).all() and np.isfinite(log_scale).all()
    for j in range(4):
        vec, scale = _psi_sequence_scaled(a, d, x[j])
        assert vals[:, j].tobytes() == vec.tobytes() and log_scale[j] == scale


def test_large_nmax_stays_within_the_bound():
    fam = discrete2(0.5)
    got = polyfam._discrete2_gram(fam, 70)
    assert np.array_equal(got, got.T)
    assert _rel_error(got, reference_gram(fam, 70)) <= GRAM_REL_BOUND


def test_gram_matrix_normalizes_the_block_sum():
    fam = discrete2(0.9)
    want = polyfam._discrete2_gram(fam, 10)
    assert gram_matrix(fam, 10).matrix.tobytes() == (want / want[0, 0]).tobytes()


def mp_lattice_gram(q, c, nmax):
    """c (1-q) sum_k q^k w(x) (p(x) p(x)^T + p(-x) p(-x)^T) over x = c q^k, k in Z, in 40-digit
    mpmath: w(x) = 1 / (-x^2; q^2)_inf and the orthonormal p_n from b_n = q^{-n-1/2} sqrt(1 - q^{n+1})
    for the float q as given.  The lattice is c's own, not the reduced one.  Each side runs until
    five points in a row are below 1e-30 of the largest; the weights are one running product from
    the far positive end, where x^2 is below 1e-60."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        q, c = mpmath.mpf(q), mpmath.mpf(c)
        b = [q ** (-m - mpmath.mpf(1) / 2) * mpmath.sqrt(1 - q ** (m + 1)) for m in range(nmax)]

        def values(x):
            p = [mpmath.mpf(1)]
            for m in range(nmax):
                p.append((x * p[m] - (b[m - 1] * p[m - 1] if m else 0)) / b[m])
            return mpmath.matrix(p)

        top = 0
        while (c * q**top) ** 2 >= mpmath.mpf(10) ** -60:
            top += 1
        weight = {top: mpmath.mpf(1)}  # 1 / w(c q^k), down from k = top
        for k in range(top - 1, -1, -1):
            weight[k] = weight[k + 1] * (1 + (c * q**k) ** 2)
        total = mpmath.zeros(nmax + 1, nmax + 1)
        for direction in (1, -1):
            k, peak, small = (0 if direction == 1 else -1), mpmath.mpf(0), 0
            while small < 5:
                x = c * q**k
                if k not in weight:
                    weight[k] = weight[k + 1] * (1 + x**2) if k < 0 else mpmath.mpf(1)
                plus, minus = values(x), values(-x)
                term = q**k / weight[k] * (plus * plus.T + minus * minus.T)
                total += term
                size = max(abs(e) for e in term)
                peak = max(peak, size)
                small = small + 1 if size < peak * mpmath.mpf(10) ** -30 else 0
                k += direction
        total *= c * (1 - q)
        return np.array(total.tolist(), dtype=float)


@pytest.mark.parametrize("q,c,nmax,bound", [
    # measured: 1.9e-13, 3.7e-15, 1.2e-13, 1.6e-15
    (0.05, 0.01, 25, 5e-13),
    (0.5, 1.0, 8, 1e-14),
    (0.3, 2.5, 25, 2e-13),
    (0.9, 1.0, 10, 2e-15),
])
def test_block_sum_against_a_high_precision_lattice_sum(q, c, nmax, bound):
    """The block sum over the reduced lattice against the sum over c's own lattice in 40-digit
    arithmetic, as max |error| / max |entry|."""
    want = mp_lattice_gram(q, c, nmax)
    assert _rel_error(polyfam._discrete2_gram(discrete2(q, c), nmax), want) <= bound


@pytest.mark.parametrize("q,c", [(0.99, 1.5), (0.99, 2.0), (0.99, 2.5), (0.995, 1.0), (0.995, 1.5), (0.995, 2.5)])
def test_near_q_1_both_sides_run_past_tiny_first_terms(q, c):
    """At q = 0.995 the first points of the positive side carry terms near 1e-30 that rise, and
    the stop rule's prelude goes on past them; at q = 0.99 the reduction of c keeps the first
    terms above 1e-16.  Before, each side stopped after three tiny points and the gate read an
    off-diagonal mass of 1e6 to 3e8 at these six points; now it reads at most 6.0e-15."""
    rep = gram_matrix(discrete2(q, c), 4)
    assert rep.max_offdiag < 2e-14
    assert rep.diag_spread < 2e-14


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9])
def test_any_finite_lattice_scale_passes_the_gate(q):
    """The lattice of c and of c q^j is one set; every finite c reduces into (q, 1] and sums
    with no numpy warning.  Summed on c's own lattice, c = 1e100 gave a zero (0, 0) entry to
    divide by, and c = 1e-300 raised Python's OverflowError."""
    base = gram_matrix(discrete2(q, 1.0), 4).matrix
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for c in (1e-300, 1e-200, 0.01, 2.5, 1e100, 1e300, 1.7e308):
            reduced = polyfam._reduced_scale(c, q)
            assert q < reduced <= 1.0, c
            rep = gram_matrix(discrete2(q, c), 4)
            assert rep.max_offdiag < 1e-14, c  # at most 7.8e-16 measured
            assert np.array_equal(rep.matrix, rep.matrix.T), c
            if reduced == 1.0:
                assert rep.matrix.tobytes() == base.tobytes(), c


def test_nan_gram_fails_the_orthogonality_gate(monkeypatch):
    monkeypatch.setattr(polyfam, "_discrete2_gram", lambda family, nmax: np.full((nmax + 1, nmax + 1), math.nan))
    with pytest.raises(QuadratureError, match="off-diagonal Gram mass nan"):
        gram_matrix(discrete2(0.5), 3)
