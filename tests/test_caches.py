"""The tables the library caches: results with warm and with cleared caches,
the q-series and coherent coefficients against today's arithmetic,
read-only arrays and bounded caches."""

import inspect
import math

import numpy as np
import pytest

from qhermite import cli, coherent, oscillator, polyfam, qcore, transform, verify
from qhermite.errors import ConvergenceError, QuadratureError
from qhermite.qcore import e_q, e_q_gaussian, e_q_tilde

MODULES = (qcore, polyfam, oscillator, coherent, transform, verify, cli)

#: the caches of tables: those of q alone, the transform's output-grid basis and the coherent step factors
TABLE_CACHES = (qcore._qparam, polyfam._rogers_density, polyfam._theta_rule,
                polyfam._rogers_basis, transform._grid_basis, coherent._step_factors)

Q_GRID = [0.05, 0.3, 0.5, 0.9, 0.99]


def clear_caches():
    for cache in TABLE_CACHES:
        cache.cache_clear()


def fresh_theta_rule(q, n_nodes):
    """The theta rule of n_nodes built from its own nodes alone, without a cache."""
    theta = np.linspace(0.0, math.pi, n_nodes + 1)
    step = math.pi / n_nodes
    w = np.full(n_nodes + 1, step)
    w[0] = w[-1] = 0.5 * step
    half = qcore.q_pochhammer(np.exp(2j * theta), q, math.inf)
    dens = half * np.conj(half)
    mass = float(qcore.q_pochhammer(q, q, math.inf))
    return theta, w * mass / (2.0 * math.pi) * dens.real


def fresh_rogers_quadrature(q, nmax, rhs, tol):
    """rogers_quadrature with every table built afresh: the theta rule, its
    nodes and the basis values."""
    fam = polyfam.rogers(q)
    n_nodes, prev = 128, None
    while True:
        theta, w = fresh_theta_rule(q, n_nodes)
        xs = np.cos(theta)
        vals = polyfam.eval_orthonormal_sequence(fam, nmax, xs)
        result = (vals * w) @ rhs(xs, vals)
        change = float(np.max(np.abs(result - prev))) if prev is not None else math.inf
        if change < tol * (1.0 + float(np.max(np.abs(result)))):
            return result
        prev, n_nodes = result, 2 * n_nodes


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
def test_quadrature_results_are_the_same_with_warm_and_cleared_caches(q):
    ys = np.linspace(-1.0, 1.0, 33)

    def f(xs):
        return np.exp(xs) * np.sin(3.0 * xs)

    def results():
        return [
            polyfam.rogers_quadrature(q, 8, lambda xs, vals: np.stack([np.cos(xs), xs * xs], 1), 1e-12, "probe"),
            polyfam.gram_matrix(polyfam.rogers(q), 10).matrix,
            transform.gft_apply(f, ys, q, 9),
        ]

    clear_caches()
    cold = results()
    warm = results()
    coeffs = fresh_rogers_quadrature(q, 8, lambda xs, vals: np.asarray(f(xs), dtype=complex), 1e-12)
    fresh = [
        fresh_rogers_quadrature(q, 8, lambda xs, vals: np.stack([np.cos(xs), xs * xs], 1), 1e-12),
        fresh_rogers_quadrature(q, 10, lambda xs, vals: vals.T, 1e-10),
        ((-1j) ** np.arange(9) * coeffs) @ polyfam.eval_orthonormal_sequence(polyfam.rogers(q), 8, ys),
    ]
    for got in (cold, warm):
        assert [a.tobytes() for a in got] == [a.tobytes() for a in fresh]


def fresh_gft_apply(f, ys, q, n_terms):
    """gft_apply with every table built afresh, the output-grid basis included; a grid of
    two or more axes is transformed as its flat point list."""
    ys = np.asarray(ys, dtype=float)
    if ys.ndim > 1:
        return fresh_gft_apply(f, ys.ravel(), q, n_terms).reshape(ys.shape)
    coeffs = fresh_rogers_quadrature(q, n_terms - 1, lambda xs, vals: np.asarray(f(xs), dtype=complex), 1e-12)
    vals = polyfam.eval_orthonormal_sequence(polyfam.rogers(q), n_terms - 1, ys)
    return ((-1j) ** np.arange(n_terms) * coeffs) @ vals


#: (grid, n_terms): the suite's 2,049-point grid, the cap of 2^16 basis entries and one above
#: it, a strided view, a scalar, and a 2-D grid
GFT_GRIDS = [
    (np.cos(np.linspace(0.0, math.pi, 2049)), 13),
    (np.linspace(-1.0, 1.0, 4096), 16),
    (np.linspace(-1.0, 1.0, 4097), 16),
    (np.linspace(-1.0, 1.0, 99)[::2], 9),
    (0.3, 9),
    (np.linspace(-0.9, 0.9, 45).reshape(9, 5), 9),
]


@pytest.mark.parametrize("q", Q_GRID)
def test_gft_apply_equals_a_cache_free_transform_cold_and_warm(q):
    def f(xs):
        return np.exp(xs) * np.cos(2.0 * xs)

    for ys, n_terms in GFT_GRIDS:
        want = fresh_gft_apply(f, ys, q, n_terms)
        clear_caches()
        cold = transform.gft_apply(f, ys, q, n_terms)
        warm = transform.gft_apply(f, ys, q, n_terms)
        cached = transform._grid_basis.cache_info().currsize
        assert cached == (n_terms * np.size(ys) <= 1 << 16), (np.shape(ys), n_terms)
        for got in (cold, warm):
            assert type(got) is type(want) and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (np.shape(ys), n_terms)


@pytest.mark.parametrize("q", [0.3, 0.9])
def test_gft_apply_on_a_2d_grid_is_its_flat_grid_reshaped(q):
    ys = np.linspace(-0.95, 0.95, 12)
    flat = transform.gft_apply(np.exp, ys, q, 9)
    for shape in ((3, 4), (4, 3), (2, 3, 2)):
        got = transform.gft_apply(np.exp, ys.reshape(shape), q, 9)
        assert got.shape == shape and got.tobytes() == flat.tobytes()


@pytest.mark.parametrize("q", Q_GRID + [0.995])
def test_first_rung_is_the_even_nodes_of_the_second_and_equals_a_cache_free_build(q):
    """The 128-node rule and basis are read from the 256-node density and basis; near q = 1 the
    weights are subnormal (0.995), and still every byte agrees."""
    with np.errstate(over="ignore", invalid="ignore"):
        want_theta, want_w = fresh_theta_rule(q, 128)
        want_vals = polyfam.eval_orthonormal_sequence(polyfam.rogers(q), 10, np.cos(want_theta))
        for _ in ("cold", "warm"):
            clear_caches()
            for _ in range(2):
                theta, w = polyfam.rogers_theta_rule(q, 128)
                xs, vals = polyfam._rogers_basis(q, 128, 10)
                assert theta.tobytes() == want_theta.tobytes() and w.tobytes() == want_w.tobytes()
                assert xs.tobytes() == np.cos(want_theta).tobytes() and vals.tobytes() == want_vals.tobytes()
                assert theta.flags.c_contiguous and vals.flags.c_contiguous
                for arr in (theta, w, xs, vals):
                    assert not arr.flags.writeable
            for n_nodes in (256, 512):
                assert [a.tobytes() for a in polyfam.rogers_theta_rule(q, n_nodes)] == \
                    [a.tobytes() for a in fresh_theta_rule(q, n_nodes)]
    # the first rung built the second rung's density, which the second rung then read
    assert polyfam._rogers_density.cache_info().misses == 2
    with pytest.raises(ValueError):
        polyfam._rogers_density(q, 256)[0] = 0.0


@pytest.mark.parametrize("n_nodes", [128, 256, 2048])
def test_a_theta_rule_whose_weights_are_not_finite_raises_and_is_not_cached(n_nodes):
    """At q = 0.999 the density product overflows (the first rung reads it from the second), and
    every rung raises, each time it is asked for."""
    clear_caches()
    for _ in range(2):
        with pytest.raises(QuadratureError, match=rf"^Rogers theta rule is not finite at q=0\.999 on {n_nodes} nodes$"):
            polyfam.rogers_theta_rule(0.999, n_nodes)
    assert polyfam._theta_rule.cache_info().currsize == 0


def reference_eigen_residual(state):
    """eigen_residual with the b_n taken one degree at a time."""
    laws = polyfam.orthonormal_laws(state.family.kind)
    q = state.family.q.q
    c = state.coefficients
    lowered = laws.gamma(q) * np.array([laws.b(n, q) for n in range(state.dim - 1)]) * c[1:]
    target = state.z * c[:-1]
    denom = float(np.linalg.norm(target))
    defect = float(np.linalg.norm(lowered - target))
    return defect if denom == 0.0 else defect / denom


@pytest.mark.parametrize("q", Q_GRID)
def test_eigen_residual_from_one_b_n_array_equals_the_b_n_one_degree_at_a_time(q):
    radius = coherent.rogers_radius(q)
    states = [coherent.bg_expansion(polyfam.rogers(q), z, dim) for z in (0.3 * radius, 0.8j * radius)
              for dim in (None, 3, 64, 65, 300)]
    states += [coherent.bg_expansion(polyfam.discrete2(q), z, dim)
               for z in (1.5, -2.0 + 1.0j) for dim in (None, 3, 129)]
    for clear in (clear_caches, lambda: None):
        clear()
        for state in states:
            assert repr(coherent.eigen_residual(state)) == repr(reference_eigen_residual(state))


def test_eigen_residual_past_the_b_n_overflow_raises_the_named_error():
    # at q = 0.5 the discrete-II b_n leaves double range at n = 1024: a 1000-dimensional state reads
    # b_0..b_998, and a 1100-dimensional one b_0..b_1098, which overflows
    message = "^discrete2 recurrence coefficient b_n overflows double range at degree n = 1024, q = 0.5$"
    state = coherent.bg_expansion(polyfam.discrete2(0.5), 0.5, 1100)
    with pytest.raises(OverflowError, match=message):
        reference_eigen_residual(state)
    for _ in range(2):
        with pytest.raises(OverflowError, match=message):
            coherent.eigen_residual(state)
    small = coherent.bg_expansion(polyfam.discrete2(0.5), 0.5, 1000)
    assert repr(coherent.eigen_residual(small)) == repr(reference_eigen_residual(small))


def test_gft_apply_basis_of_one_grid_is_read_only_and_complex():
    ys = np.linspace(-1.0, 1.0, 33)
    transform._grid_basis.cache_clear()
    transform.gft_apply(np.exp, ys, 0.5, 9)
    vals = transform._grid_basis(0.5, 8, ys.tobytes(), ys.shape)
    assert transform._grid_basis.cache_info().hits == 1
    assert vals.dtype == complex and vals.shape == (9, 33)
    assert vals.tobytes() == polyfam.eval_orthonormal_sequence(polyfam.rogers(0.5), 8, ys).astype(complex).tobytes()
    with pytest.raises(ValueError):
        vals[0, 0] = 0.0


def reference_sum(first, ratio):
    """Today's series: terms from first by term = ratio(term, n), n = 1, 2, ...,
    summed until three consecutive terms fall below 1e-16, and not past 10,000 terms."""
    total, term, n, small = 0.0, first, 0, 0
    while small < 3:
        if n == 10000:
            raise ConvergenceError("no convergence within 10000 terms")
        total = total + term
        small = small + 1 if abs(term) < 1e-16 else 0
        n += 1
        term = ratio(term, n)
    return total


def reference_product(a, q):
    """(a; q)_inf as the factor loop: 1 - a q**s in s order while |a| q**s >= 1e-18."""
    prod, s = (1.0 + 0.0j if isinstance(a, complex) else 1.0), 0
    while abs(a) * q**s >= 1e-18:
        prod = prod * (1.0 - a * q**s)
        s += 1
    return prod


def reference_e_q_tilde(x, q):
    return 1.0 / reference_product(x, q)


def reference_e_q(x, q):
    return 1.0 / reference_product((1.0 - q) * x, q)


def reference_e_q_gaussian(x, q):
    return reference_sum(1.0, lambda t, n: t * x * (1.0 - q) / q * q ** (2 * n - 1) / (1.0 - q**n))


@pytest.mark.parametrize("q", Q_GRID)
def test_series_equal_the_pow_loop(q):
    """e_q_gaussian's series and the Euler products of e_q_tilde and e_q, at points that stop within
    64 terms and points that go past them, from cleared and from warm caches."""
    radius = 1.0 / (1.0 - q)
    cases = [
        (e_q_tilde, reference_e_q_tilde, [0.0, 0.3, -0.5, 0.2 + 0.6j, 0.99, -0.995j]),
        (e_q, reference_e_q, [0.0, 0.3 * radius, -0.6 * radius, (0.5 + 0.3j) * radius, 0.99 * radius]),
        (e_q_gaussian, reference_e_q_gaussian, [0.0, 0.5, -3.0, 2.0 + 1.0j, 40.0]),
    ]
    for warm in (False, True):
        for fn, reference, xs in cases:
            for x in xs:
                if not warm:
                    clear_caches()
                try:
                    want = reference(x, q)
                except ConvergenceError:
                    with pytest.raises(ConvergenceError, match="within 10000 terms"):
                        fn(x, q)
                    continue
                got = fn(x, q)
                assert type(got) is type(want) and type(got) in (float, complex), (fn.__name__, x)
                assert repr(got) == repr(want), (fn.__name__, x)


def reference_coeffs(family, z, dim):
    """Today's coefficient loop of bg_expansion, one closure call per coefficient."""
    q = family.q.q

    def next_coeff(n, prev):
        if family.kind is polyfam.Family.ROGERS:
            return prev * z / math.sqrt((1.0 - q ** (n + 1)) / (1.0 - q))
        return prev * z * q**n * math.sqrt((1.0 - q) / (1.0 - q ** (n + 1)))

    coeffs, total = [1.0 + 0.0j], 1.0
    if dim is not None:
        for n in range(dim - 1):
            coeffs.append(next_coeff(n, coeffs[-1]))
        return np.array(coeffs)
    n = 0
    while True:
        nxt = next_coeff(n, coeffs[-1])
        if n >= 3 and abs(nxt) ** 2 < 1e-26 * total:
            return np.array(coeffs)
        coeffs.append(nxt)
        total += abs(nxt) ** 2
        n += 1


@pytest.mark.parametrize("q", Q_GRID)
def test_coherent_coefficients_equal_the_closure_loop(q):
    radius = coherent.rogers_radius(q)
    cases = [(polyfam.rogers(q), z) for z in (0.0, 0.4 * radius, (0.6 - 0.7j) * radius, 0.98 * radius)]
    cases += [(polyfam.discrete2(q), z) for z in (0.0, 1.5, -2.0 + 1.0j, 30.0)]
    for family, z in cases:
        for dim in (None, 1, 2, 40, 300):
            raw = reference_coeffs(family, complex(z), dim)
            for clear in (clear_caches, lambda: None):  # cleared caches and warm ones
                clear()
                state = coherent.bg_expansion(family, z, dim)
                assert state.dim == len(raw)
                assert state.coefficients.tobytes() == (raw / math.sqrt(state.norm_sq_closed)).tobytes()
                assert type(state.norm_sq_closed) is float


def test_step_factors_are_cached_up_to_their_cap():
    dim = coherent._STEP_FACTORS_MAX + 10
    for family in (polyfam.discrete2(0.5), polyfam.rogers(0.5)):
        clear_caches()
        state = coherent.bg_expansion(family, 0.3, dim)
        assert state.coefficients.tobytes() == (reference_coeffs(family, 0.3 + 0j, dim)
                                                / math.sqrt(state.norm_sq_closed)).tobytes()
        info = coherent._step_factors.cache_info()
        assert info.misses == 10  # sizes 0, 128, 256, ..., 2^15; the 2^16 table is built for the call alone
        rogers = family.kind is polyfam.Family.ROGERS
        p, r = coherent._step_factors(0.5, rogers, coherent._STEP_FACTORS_MAX)
        assert coherent._step_factors.cache_info().hits == info.hits + 1  # the largest table kept
        assert len(p) == coherent._STEP_FACTORS_MAX and len(r) == len(p) - 1
        assert p == [0.5**s for s in range(len(p))]
        steps = [1.0 - 0.5 ** (m + 1) for m in range(len(r))]
        assert r == tuple(math.sqrt(s / 0.5) if rogers else math.sqrt(0.5 / s) for s in steps)


def test_as_qparam_shares_one_qparam_per_value():
    assert qcore.as_qparam(0.5) is qcore.as_qparam(np.float64(0.5))
    assert qcore.as_qparam(0.5) == qcore.QParam(0.5)
    for bad in (0.0, 1.0, math.nan, -0.5):
        for _ in range(2):  # an invalid q is not cached: it raises every time
            with pytest.raises(qcore.DomainError):
                qcore.as_qparam(bad)


def test_cached_arrays_are_read_only():
    theta, weights = polyfam.rogers_theta_rule(0.5, 128)
    xs, vals = polyfam._rogers_basis(0.5, 128, 6)
    seen = []
    polyfam.rogers_quadrature(0.5, 6, lambda x, v: seen.extend([x, v]) or v.T, 1e-10, "probe")
    for arr in (theta, weights, xs, vals, *seen):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_every_cache_is_bounded():
    caches = [obj for mod in MODULES for obj in vars(mod).values() if hasattr(obj, "cache_info")]
    assert set(TABLE_CACHES) <= set(caches)
    for cache in caches:
        # a cache of a function without arguments holds one entry
        assert cache.cache_info().maxsize is not None or not inspect.signature(cache).parameters, cache
