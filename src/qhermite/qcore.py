"""Foundational q-arithmetic.

q-numbers, q-factorials, q-Pochhammer symbols, the q-exponentials (two
as Euler products, one as a series), the q-derivative, and the Jackson
q-integral, all for a deformation
parameter 0 < q < 1.  Everything here is a pure function; all heavy users
(polynomial families, oscillators, coherent states) sit on top of these.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Union

import numpy as np

from .errors import ConvergenceError, DomainError

Scalar = Union[float, complex]


@dataclass(frozen=True)
class QParam:
    """Deformation parameter on the open interval (0, 1)."""

    q: float

    def __post_init__(self) -> None:
        if not (0.0 < self.q < 1.0):
            raise DomainError(f"deformation parameter must satisfy 0 < q < 1, got {self.q!r}")


#: QParams kept per process, one per distinct float value of q
_QPARAM_CACHE_SIZE = 256


def as_qparam(q: QParam | float) -> QParam:
    """Coerce a float into a validated QParam (idempotent).

    Equal floats share one cached QParam; an invalid q raises every time.
    """
    return q if isinstance(q, QParam) else _qparam(float(q))


@functools.lru_cache(maxsize=_QPARAM_CACHE_SIZE)
def _qparam(q: float) -> QParam:
    return QParam(q)


#: a series or lattice sum is done once this many consecutive terms ...
_CONSECUTIVE_SMALL = 3
#: ... fall below this in modulus, and raises ConvergenceError if it is not
#: done within _MAX_TERMS terms; kernels read both at call time
_TERM_TOL = 1e-16
_MAX_TERMS = 10000

#: an infinite product stops at the first factor 1 - a q^s with |a| q^s below this
_PRODUCT_CUTOFF = 1e-18

#: q_pochhammer's blocks take the powers of q in runs of this many (64 KiB of float64)
_POWER_RUN = 1 << 13

#: q_pochhammer multiplies an array's factors in blocks of this many
#: entries, the running product included (128 KiB of complex128) ...
_POCHHAMMER_BLOCK_ENTRIES = 1 << 13
#: ... when a block holds at least this many factors; larger arrays take
#: the factor loop, as blocks of fewer factors did not measure faster
_POCHHAMMER_MIN_ROWS = 8
_POCHHAMMER_MAX_SIZE = _POCHHAMMER_BLOCK_ENTRIES // (_POCHHAMMER_MIN_ROWS + 1)


def _sum_series(terms: Iterable, what: str, running: np.ndarray | None = None):
    """Sum a term stream until three consecutive terms drop below _TERM_TOL.

    Until the first term of at least _TERM_TOL, a small term above all
    before it restarts the run, so tiny rising leading terms do not end it.
    Raises ConvergenceError if _MAX_TERMS is exhausted first.  For ndarray
    terms, pass `running`, a bool array of their shape shared with the term
    generator: the rule then applies to each element on its own, clearing
    its flag once it stops and freezing its total.  The generator may clear
    flags as well (a series that ends exactly); the sum returns once no
    flag is left and raises if any is still set at _MAX_TERMS.
    """
    total = 0.0
    if running is not None:
        small_run, biggest, prelude = np.zeros(running.shape, dtype=int), np.zeros(running.shape), True
        for k, term in enumerate(terms):
            if k == 0:
                total = np.zeros(running.shape, np.result_type(term, total))
            elif term.dtype != total.dtype:  # a float sum meeting its first complex term
                total = total.astype(np.result_type(term, total))
            if k >= _MAX_TERMS and running.any():
                i = running.argmax()  # the first entry still running
                raise ConvergenceError(f"{what}: no convergence within {_MAX_TERMS} terms (entry {i}: last term "
                                       f"{term.flat[i].item()!r}, partial sum {total.flat[i].item()!r})")
            np.add(total, term, out=total, where=running)
            size = np.abs(term)
            small_run += 1
            small_run *= size < _TERM_TOL  # counts consecutive small terms, 0 after a large one
            if prelude:  # a running element has had small terms only; no other can meet a small term above all before
                np.copyto(small_run, 1, where=(size > biggest) & (size < _TERM_TOL))
                np.maximum(biggest, size, out=biggest)
                prelude = bool((running & (biggest < _TERM_TOL)).any())
            running &= small_run < _CONSECUTIVE_SMALL
            if not running.any():
                break
        return total
    small_run, biggest = 0, 0.0
    max_terms, tol, needed = _MAX_TERMS, _TERM_TOL, _CONSECUTIVE_SMALL  # read once per call
    terms = iter(terms)
    capped = itertools.islice(terms, max_terms)
    for term in capped:  # up to the first large term
        total = total + term
        if not abs(term) < tol:
            break
        small_run, biggest = (1, abs(term)) if abs(term) > biggest else (small_run + 1, biggest)
        if small_run >= needed:
            return total
    small_run = 0
    for term in capped:
        total = total + term
        if abs(term) < tol:
            small_run += 1
            if small_run >= needed:
                return total
        else:
            small_run = 0
    for term in terms:  # a term past the cap
        raise ConvergenceError(f"{what}: no convergence within {max_terms} terms "
                               f"(last term {term!r}, partial sum {total!r})")
    return total


#: the types _require_number admits, the builtin ones first: an isinstance test against the ABC costs more
_NUMBER_TYPES = (float, int, complex, numbers.Number)


def _require_number(x, name: str = "x", array: bool = True) -> None:
    """DomainError naming the type of x unless it is a number or, where array holds, an ndarray."""
    if not isinstance(x, (np.ndarray, *_NUMBER_TYPES) if array else _NUMBER_TYPES):
        kind = "a number or an ndarray" if array else "a number"
        raise DomainError(f"{name} must be {kind}, got {type(x).__name__}")


def _degrees(n):
    """n, or a degree array as int64; DomainError for a negative degree or a non-integer array dtype."""
    if isinstance(n, np.ndarray) and n.dtype.kind not in "iu":
        raise DomainError(f"a degree array must have an integer dtype, got {n.dtype}")
    if (n < 0).any() if isinstance(n, np.ndarray) else n < 0:
        raise DomainError("degree must be non-negative")
    return n.astype(np.int64, copy=False) if isinstance(n, np.ndarray) else n


def _pow(q: float, s):
    """q ** s, or for an ndarray s its np.float_power per element: both are libm's pow, bit for bit."""
    return np.float_power(q, s) if isinstance(s, np.ndarray) else q**s


def q_number(n, q: QParam | float):
    """[n]_q = (1 - q^n) / (1 - q), the deformed integer; n may be an integer degree array."""
    qq = as_qparam(q).q
    return (1.0 - _pow(qq, _degrees(n))) / (1.0 - qq)


def q_factorial(n: int, q: QParam | float) -> float:
    """[n]_q! = prod_{k=1..n} [k]_q, with the empty product equal to 1."""
    qq = as_qparam(q).q
    if n < 0:
        raise DomainError("q_factorial requires n >= 0")
    out = 1.0
    for k in range(1, n + 1):
        out *= (1.0 - qq**k) / (1.0 - qq)
    return out


def _q_powers(q: float, start: int, stop: int) -> np.ndarray:
    """q**s for s in range(start, stop) as a float64 array.

    np.float_power calls libm's pow as Python's q ** n does, so each power
    equals q ** s bit for bit.
    """
    return np.float_power(q, np.arange(start, stop, dtype=float))


def _terms_above_cutoff(q: float, mag: float) -> int:
    """The first s >= 0 where mag * q**s >= 1e-18 fails: the factor count
    of an infinite product over max |a| = mag.

    The test falls monotonically in s, so s is found by stepping from an
    estimate of where it fails with the loop's own float test.
    """
    if not mag >= _PRODUCT_CUTOFF:  # s = 0, where q**0 is 1.0
        return 0
    edge = max(_PRODUCT_CUTOFF / mag, 5e-324)  # the smallest double, where q**s underflows
    s = max(int(math.log(edge) / math.log(q)), 1)
    while not mag * q ** (s - 1) >= _PRODUCT_CUTOFF:
        s -= 1
    while mag * q**s >= _PRODUCT_CUTOFF:
        s += 1
    return s


def _multiply_factors(prod: np.ndarray, a: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """prod (1 - a p_0) (1 - a p_1) ... over the given powers of q, for a
    numeric array a of 2 to _POCHHAMMER_MAX_SIZE entries, equal bit for bit
    to the factor loop.

    A block of factors is written below the running product and multiplied
    out by one np.multiply.reduce along the rows.  With initial=None the
    reduce starts from the first row, not from the identity (1+0j would
    change the sign of a -0.0 in a complex product), and multiplies in the
    loop's order, (prod f_0) f_1 ...
    """
    dtype = np.result_type(a, 1.0)  # that of a * p for a Python float p
    rows = _POCHHAMMER_BLOCK_ENTRIES // a.size - 1
    real = np.finfo(dtype).dtype
    buf = np.empty((min(rows, powers.size) + 1,) + a.shape, dtype)
    # a complex a times a real p: the component products are those of a * (p + 0j), and any
    # sign of zero they differ in is lost in 1 - a p
    src, out = (np.ascontiguousarray(a).view(real), buf.view(real)) if dtype.kind == "c" else (a, buf)
    col = powers.astype(real).reshape((-1,) + (1,) * a.ndim)
    for lo in range(0, powers.size, rows):
        m = min(rows, powers.size - lo)
        np.multiply(src, col[lo : lo + m], out=out[1 : m + 1])
        np.subtract(1.0, buf[1 : m + 1], out=buf[1 : m + 1])
        buf[0] = prod
        prod = np.multiply.reduce(buf[: m + 1], axis=0, initial=None)
    return prod


def q_pochhammer(a, q: QParam | float, k: int | float):
    """(a; q)_k = prod_{s=1..k} (1 - a q^{s-1}) for a scalar or an ndarray a.

    Pass k = math.inf for the convergent infinite product; it is truncated
    once max |a| q^{s-1} falls below 1e-18.  The result equals the product
    taken one factor at a time in s order bit for bit.
    """
    qq = as_qparam(q).q
    _require_number(a, "a")
    infinite = k is math.inf or (isinstance(k, float) and math.isinf(k) and k > 0)
    if not infinite and (not isinstance(k, numbers.Integral) or k < 0):
        raise DomainError("q_pochhammer order k must be a non-negative integer or math.inf")
    if isinstance(a, np.ndarray):
        prod, mag = np.ones_like(a), float(np.max(np.abs(a), initial=0.0))
    else:
        prod, mag = (1.0 + 0.0j if isinstance(a, complex) else 1.0), abs(a)
    if infinite:
        k = _terms_above_cutoff(qq, mag)
        if k > 10 * _MAX_TERMS:  # reached only for q above about 0.9996
            raise ConvergenceError("infinite q-Pochhammer product did not settle")
    # a 1-element array stays in the loop: numpy reduces it with another complex multiply
    if isinstance(a, np.ndarray) and 1 < a.size <= _POCHHAMMER_MAX_SIZE and a.dtype.kind in "biufc":
        for lo in range(0, k, _POWER_RUN):
            prod = _multiply_factors(prod, a, _q_powers(qq, lo, min(lo + _POWER_RUN, k)))
        return prod
    for s in range(k):
        prod = prod * (1.0 - a * qq**s)
    return prod


def _first_failing(ok, x):
    """None where ok holds; else x, or for an ndarray ok the first element of x where it fails."""
    if ok is True:
        return None
    if isinstance(ok, np.ndarray):
        return None if ok.all() else np.asarray(x).flat[ok.argmin()].item()
    return None if ok else x


def _euler_product(a, qp: QParam, what: str, x):
    """(a; q)_inf = 1 / what(x), per element for an ndarray; OverflowError naming the first x
    where it is subnormal (its digits lost, from q ~ 0.9977 near the edge of the disc), 0 or not finite."""
    if isinstance(a, np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):  # an element out of range raises below
            prod = q_pochhammer(a, qp, math.inf)
    else:
        prod = q_pochhammer(a, qp, math.inf)
    size = abs(prod)
    bad = _first_failing((sys.float_info.min <= size) & (size < math.inf), x)
    if bad is not None:
        raise OverflowError(f"{what} Euler product leaves the normal double range at x = {bad!r}, q = {qp.q!r}")
    return prod


def _e_q_product(x, qp: QParam):
    """((1-q) x; q)_inf = 1 / e_q(x), for x inside e_q's disc |x| < 1/(1-q)."""
    radius = 1.0 / (1.0 - qp.q)
    bad = _first_failing(abs(x) < radius, x)
    if bad is not None:
        raise DomainError(f"e_q requires |x| < 1/(1-q) = {radius}, got |x| = {abs(bad)}")
    return _euler_product((1.0 - qp.q) * x, qp, "e_q", x)


def e_q_tilde(x, q: QParam | float):
    """q-exponential sum_n x^n / (q;q)_n for |x| < 1, as Euler's product
    1 / (x; q)_inf; x may be an ndarray, as in e_q."""
    qp = as_qparam(q)
    _require_number(x)
    bad = _first_failing(abs(x) < 1.0, x)
    if bad is not None:
        raise DomainError(f"e_q_tilde requires |x| < 1, got |x| = {abs(bad)}")
    return 1.0 / _euler_product(x, qp, "e_q_tilde", x)


def e_q(x, q: QParam | float):
    """q-exponential sum_n x^n / [n]_q! for |x| < 1/(1-q), as Euler's product 1 / ((1-q) x; q)_inf.

    x may be an ndarray: one product, with the factor count of its largest
    |x|.  The further factors of a smaller real x are exactly 1.0, so a real
    array equals the scalar calls bit for bit, and a complex one agrees to a
    few ulps.  A DomainError or OverflowError names the first bad element.
    """
    _require_number(x)
    return 1.0 / _e_q_product(x, as_qparam(q))


def e_q_reciprocal(x, q: QParam | float):
    """1 / e_q(x) = ((1-q) x; q)_inf on [0, 1/(1-q)], with the boundary value pinned to 0.

    e_q diverges at the right endpoint of its domain, so its reciprocal
    extends continuously by 0 there; the Jackson-measure moment identities
    need exactly that endpoint value.  The product is returned as it is.
    x may be a real ndarray, as in e_q, each element pinned on its own.
    """
    qp = as_qparam(q)
    _require_number(x)
    radius = 1.0 / (1.0 - qp.q)
    bad = _first_failing(x <= radius, x)
    if bad is not None:
        raise DomainError(f"e_q_reciprocal requires x <= 1/(1-q) = {radius}, got x = {bad!r}")
    if isinstance(x, np.ndarray):  # math.isclose per element
        pinned = abs(x - radius) <= 1e-14 * np.maximum(abs(x), radius)
        return np.where(pinned, 0.0, _e_q_product(np.where(pinned, 0.0, x), qp))[()]  # 0-d: a numpy scalar
    if math.isclose(x, radius, rel_tol=1e-14):
        return 0.0
    return _e_q_product(x, qp)


def e_q_gaussian(x: Scalar, q: QParam | float) -> Scalar:
    """Entire q-exponential variant sum_n ((1-q)/q)^n q^{n^2} x^n / (q;q)_n.

    The q^{n^2} damping makes this converge for every x; it is the
    normalization series of the lattice-family coherent states.
    """
    qq = as_qparam(q).q
    _require_number(x, array=False)

    def terms() -> Iterator[Scalar]:
        one_minus_q = 1.0 - qq
        term: Scalar = 1.0
        yield term
        for n in itertools.count(1):
            # ratio of consecutive coefficients: ((1-q)/q) q^{2n-1} / (1 - q^n)
            term = term * x * one_minus_q / qq * qq ** (2 * n - 1) / (1.0 - qq**n)
            if not math.isfinite(abs(term)):  # so is every later term, and the sum
                raise OverflowError(f"e_q_gaussian series: term {n} overflows double range at x = {x!r}")
            yield term

    return _sum_series(terms(), "e_q_gaussian series")


def q_derivative(f: Callable, x, q: QParam | float):
    """(f(x) - f(qx)) / (x (1-q)) for a scalar or ndarray x (f then maps arrays); undefined at x = 0."""
    qq = as_qparam(q).q
    _require_number(x)
    if (x == 0).any() if isinstance(x, np.ndarray) else x == 0:
        raise DomainError("q_derivative is undefined at x = 0")
    return (f(x) - f(qq * x)) / (x * (1.0 - qq))


def jackson_integral(f: Callable[[float], float | np.ndarray], a: float, q: QParam | float) -> float | np.ndarray:
    """Jackson q-integral a (1-q) sum_{k>=0} q^k f(q^k a) over [0, a].

    The lattice sum stops after three consecutive terms |q^k f(q^k a)| below
    _TERM_TOL; ConvergenceError if it has not stopped within _MAX_TERMS.
    f may return an ndarray, several integrands on the one lattice: each
    element is then summed on its own under that rule, equal bit for bit to
    a call integrating that element alone.
    """
    qq = as_qparam(q).q
    if not a > 0:
        raise DomainError("jackson_integral requires a > 0")
    terms = (qq**k * f(qq**k * a) for k in itertools.count())
    first = next(terms)
    running = np.ones(first.shape, dtype=bool) if isinstance(first, np.ndarray) else None
    return a * (1.0 - qq) * _sum_series(itertools.chain([first], terms), "Jackson integral lattice sum", running)
