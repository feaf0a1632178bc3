"""The type-II lattice Gram sum against a point-by-point reference loop.

`_discrete2_gram` evaluates the lattice {+-c q^k} in blocks of points; the
reference below walks it one point at a time.  Both must give the same
bytes, stop at the same point and raise at the same step.
"""

import math
import warnings

import numpy as np
import pytest

from qhermite import polyfam
from qhermite.errors import ConvergenceError, QuadratureError
from qhermite.polyfam import discrete2, gram_matrix


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


def reference_gram(family, nmax, max_terms=10000, stats=None):
    """The lattice sum one point at a time, k = 0, 1, ... then -1, -2, ...

    Each side stops after three points whose terms are below 1e-16 and
    raises past max_terms points.  stats, if given, receives the point
    count of each side and the number of 1e120 rescales.
    """
    q = family.q.q
    c = family.lattice_scale
    gram = np.zeros((nmax + 1, nmax + 1))
    a, d = polyfam._orthonormal_coeffs(family, nmax)
    rescales = 0

    def lattice_term(k):
        nonlocal rescales
        xk = c * q**k
        log_w = 0.0
        s = 0
        while xk * xk * q ** (2 * s) >= 1e-18:
            log_w -= math.log1p(xk * xk * q ** (2 * s))
            s += 1
        contrib = np.zeros((nmax + 1, nmax + 1))
        mag = 0.0
        for x in (xk, -xk):
            vec, log_scale = _psi_sequence_scaled(a, d, x)
            rescales += log_scale > 0.0
            expo = log_w + 2.0 * log_scale + k * math.log(q)
            if expo > 700.0:
                raise ConvergenceError("type-II lattice term overflow")
            factor = math.exp(expo)
            contrib += factor * np.outer(vec, vec)
            mag = max(mag, factor * float(np.max(np.abs(vec))) ** 2)
        return contrib, mag

    for direction in (1, -1):
        k = 0 if direction == 1 else -1
        small_run = 0
        steps = 0
        while small_run < 3:
            contrib, mag = lattice_term(k)
            gram += contrib
            small_run = small_run + 1 if mag < 1e-16 else 0
            k += direction
            steps += 1
            if steps > max_terms:
                raise ConvergenceError("type-II lattice sum did not decay within max_terms")
        if stats is not None:
            stats["positive" if direction == 1 else "negative"] = steps
    if stats is not None:
        stats["rescales"] = rescales
    return c * (1.0 - q) * gram


@pytest.mark.parametrize("q", [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95])
def test_block_sum_equals_pointwise_loop_bit_for_bit(q):
    for nmax in (0, 1, 4, 8, 10, 25):
        for c in (0.01, 1.0, 2.5):
            fam = discrete2(q, c)
            got = polyfam._discrete2_gram(fam, nmax)
            assert got.tobytes() == reference_gram(fam, nmax).tobytes(), (nmax, c)


def test_grid_exercises_the_rescale():
    stats = {}
    reference_gram(discrete2(0.05, 2.5), 25, stats=stats)
    assert stats["rescales"] > 0


@pytest.mark.parametrize("q,nmax,c,positive,negative", [
    (0.1, 2, 1.0, 20, 8),    # each side stops on the last point of its first block
    (0.6, 12, 0.5, 76, 24),  # the negative side stops on the last point of its second block (8 + 16)
])
def test_stop_on_a_block_boundary(q, nmax, c, positive, negative):
    fam = discrete2(q, c)
    stats = {}
    want = reference_gram(fam, nmax, stats=stats)
    assert (stats["positive"], stats["negative"]) == (positive, negative)
    assert polyfam._discrete2_gram(fam, nmax).tobytes() == want.tobytes()


def _outcome(fn):
    try:
        return fn().tobytes()
    except ConvergenceError as exc:
        return f"ConvergenceError: {exc}"


@pytest.mark.parametrize("q,nmax", [(0.3, 4), (0.6, 6)])
def test_max_terms_raises_at_the_same_step(q, nmax, monkeypatch):
    fam = discrete2(q)
    stats = {}
    reference_gram(fam, nmax, stats=stats)
    needed = max(stats["positive"], stats["negative"])
    raised = 0
    for max_terms in range(1, needed + 3):
        monkeypatch.setattr(polyfam, "_MAX_TERMS", max_terms)
        want = _outcome(lambda: reference_gram(fam, nmax, max_terms))
        assert _outcome(lambda: polyfam._discrete2_gram(fam, nmax)) == want, max_terms
        raised += isinstance(want, str)
    assert raised == needed - 1  # max_terms >= needed passes, every smaller cap raises


@pytest.mark.parametrize("q,nmax,c", [
    (0.05, 40, 1e4),
    (0.01, 25, 100.0),
    (0.02, 40, 1e6),
    (1e-7, 44, 1.0),  # the block k = -25 ... -56 reaches a k whose q**k overflows
])
def test_points_past_the_stop_do_not_warn_or_raise(q, nmax, c):
    fam = discrete2(q, c)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = polyfam._discrete2_gram(fam, nmax)
        assert got.tobytes() == reference_gram(fam, nmax).tobytes()


def test_large_nmax_keeps_the_gram_exact():
    fam = discrete2(0.5)
    assert polyfam._discrete2_gram(fam, 70).tobytes() == reference_gram(fam, 70).tobytes()


def test_gram_matrix_normalizes_the_block_sum():
    fam = discrete2(0.9)
    want = reference_gram(fam, 10)
    assert gram_matrix(fam, 10).matrix.tobytes() == (want / want[0, 0]).tobytes()


def test_nan_gram_fails_the_orthogonality_gate(monkeypatch):
    monkeypatch.setattr(polyfam, "_discrete2_gram", lambda family, nmax: np.full((nmax + 1, nmax + 1), math.nan))
    with pytest.raises(QuadratureError, match="off-diagonal Gram mass nan"):
        gram_matrix(discrete2(0.5), 3)
