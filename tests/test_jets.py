"""Jet arithmetic: ring axioms, chain rule vs finite differences, primitives."""

import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conformal_gap_lab import jets
from conformal_gap_lab.jets import JetError, conv, seed_jets

COMPLEX_STEP = 1e-100


def _first_partial(f, point, var):
    """Complex-step first derivative (exact to roundoff, no cancellation)."""
    p = [complex(c) for c in point]
    p[var] += 1j * COMPLEX_STEP
    return f(p).imag / COMPLEX_STEP


def central_difference(f, point, alpha, step=1e-5):
    """Finite-difference oracle for d^alpha f, |alpha| <= 2.

    First order is a plain complex-step derivative; second order takes a
    central difference (the stated step) of the complex-step first derivative,
    which keeps the subtraction noise at the 1e-11 level.
    """
    alpha = list(alpha)
    order = sum(alpha)
    if order == 0:
        return f([complex(c) for c in point]).real
    inner = next(i for i, k in enumerate(alpha) if k > 0)
    if order == 1:
        return _first_partial(f, point, inner)
    rest = alpha.copy()
    rest[inner] -= 1
    outer = next(i for i, k in enumerate(rest) if k > 0)
    up = list(point)
    dn = list(point)
    up[outer] += step
    dn[outer] -= step
    return (_first_partial(f, up, inner) - _first_partial(f, dn, inner)) / (2 * step)


def extract_partial(a, alpha):
    """The plain partial d^alpha f of a jet: alpha! times the coefficient in
    the slot of alpha (the slot order of ``_graded_lex``)."""
    order = jets.order_of(np.shape(a)[-1], len(alpha))
    slot = _graded_lex(len(alpha), order).index(tuple(alpha))
    return a[..., slot] * math.prod(map(math.factorial, alpha))


def constant(value, num_vars, order):
    """The jet of a constant function."""
    c = np.zeros(jets.tables(num_vars, order).size)
    c[0] = value
    return c


def test_seed_square_matches_polynomial():
    (x,) = seed_jets((2.0,), order=2)
    assert np.allclose(x, [2.0, 1.0, 0.0])
    sq = conv(x, x, 1, 2)
    assert np.allclose(sq, [4.0, 4.0, 1.0])


def test_seed_two_vars_unit_slots():
    xs = seed_jets((0.0, 0.0), order=1)
    assert np.allclose(xs[0], [0.0, 1.0, 0.0])
    assert np.allclose(xs[1], [0.0, 0.0, 1.0])


def test_sine_taylor_at_zero():
    (x,) = seed_jets((0.0,), order=3)
    assert np.allclose(jets.sin(x, 1, 3), [0.0, 1.0, 0.0, -1.0 / 6.0])


def test_extract_partial_product():
    x, y = seed_jets((1.0, 2.0), order=2)
    assert extract_partial(conv(x, y, 2, 2), (1, 1)) == pytest.approx(1.0)


def test_extract_partial_exp_third_order():
    (x,) = seed_jets((0.0,), order=3)
    assert extract_partial(jets.exp(x, 1, 3), (3,)) == pytest.approx(1.0)


def test_cosh_squared_second_partial_vs_finite_differences():
    (x,) = seed_jets((0.0,), order=2)
    got = extract_partial(jets.power(jets.cosh(x, 1, 2), 2, 1, 2), (2,))
    oracle = central_difference(lambda p: cmath.cosh(p[0]) ** 2, [0.0], (2,))
    assert got == pytest.approx(oracle, abs=1e-8)
    assert got == pytest.approx(2.0, abs=1e-12)


def test_order_range_rejected():
    with pytest.raises(JetError):
        seed_jets((0.0,), order=0)
    with pytest.raises(JetError):
        seed_jets((0.0,), order=7)


def test_partial_order_exceeding_jet_order_rejected():
    (x,) = seed_jets((1.0,), order=1)
    with pytest.raises(JetError):
        jets.hessian(x, 1)
    # an order-0 jet (its value alone) has no first partials, not zero ones
    with pytest.raises(JetError, match="gradient needs jet order >= 1"):
        jets.gradient(x[..., :1], 1)
    assert jets.gradient(x, 1).tolist() == [1.0]


def test_mixed_shapes_rejected():
    (a,) = seed_jets((1.0,), order=2)
    b = seed_jets((1.0, 2.0), order=2)[0]
    c = seed_jets((1.0,), order=3)[0]
    with pytest.raises(JetError):
        conv(a, b, 1, 2)
    with pytest.raises(JetError):
        conv(a, c, 1, 2)
    with pytest.raises(JetError):
        jets.exp(c, 1, 2)
    with pytest.raises(JetError):
        jets.partials(b, 1, 2)


def test_division_and_sqrt_guards():
    (x,) = seed_jets((0.0,), order=2)
    with pytest.raises(JetError):
        jets.reciprocal(x, 1, 2)
    with pytest.raises(JetError):
        jets.sqrt(x, 1, 2)
    with pytest.raises(JetError):
        jets.sqrt(seed_jets((-1.0,), order=2)[0], 1, 2)


def _random_jet(rng, num_vars, order, batch=()):
    size = jets.tables(num_vars, order).size
    return rng.uniform(-2.0, 2.0, batch + (size,))


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_ring_distributivity(seed):
    rng = np.random.default_rng(seed)
    a = _random_jet(rng, 3, 3)
    b = _random_jet(rng, 3, 3)
    c = _random_jet(rng, 3, 3)
    lhs = conv(a + b, c, 3, 3)
    rhs = conv(a, c, 3, 3) + conv(b, c, 3, 3)
    scale = max(np.abs(lhs).max(), 1.0)
    assert np.allclose(lhs, rhs, atol=1e-12 * scale)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_multiplicative_inverse(seed):
    rng = np.random.default_rng(seed)
    j = _random_jet(rng, 2, 4)
    if abs(j[0]) <= 1e-6:
        j[0] += 2.0
    recip = jets.reciprocal(j, 2, 4)
    prod = conv(j, recip, 2, 4)
    expected = np.zeros_like(prod)
    expected[0] = 1.0
    # 1e-12 relative to the size of the intermediates that were multiplied
    scale = max(1.0, np.abs(j).max() * np.abs(recip).max())
    assert np.allclose(prod, expected, atol=1e-12 * scale)


@pytest.mark.parametrize(
    "alpha",
    [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)],
)
def test_chain_rule_against_finite_differences(alpha):
    n, K = 2, 2

    def f_jet(x, y):
        arg = 0.5 * jets.sin(x, n, K) + conv(x, y, n, K)
        shifted = x + constant(2.0, n, K)
        quotient = conv(jets.cos(y, n, K), jets.reciprocal(shifted, n, K), n, K)
        return jets.exp(arg, n, K) + quotient

    def f_num(p):
        x, y = p
        return cmath.exp(cmath.sin(x) * 0.5 + x * y) + cmath.cos(y) / (x + 2.0)

    point = (0.3, -0.7)
    x, y = seed_jets(point, order=K)
    got = extract_partial(f_jet(x, y), alpha)
    oracle = central_difference(f_num, list(point), alpha)
    rel = abs(got - oracle) / max(1.0, abs(oracle))
    assert rel < 1e-7


def test_integer_powers_incl_negative():
    (x,) = seed_jets((1.5,), order=3)
    shifted = x + constant(0.5, 1, 3)
    p = jets.power(shifted, 3, 1, 3)
    q = conv(conv(shifted, shifted, 1, 3), shifted, 1, 3)
    assert np.allclose(p, q, atol=1e-13)
    inv2 = jets.power(x, -2, 1, 3)
    ref = jets.reciprocal(conv(x, x, 1, 3), 1, 3)
    assert np.allclose(inv2, ref, atol=1e-13)
    with pytest.raises(JetError):
        jets.power(x, 1.5, 1, 3)


def test_derivative_shifts_coefficients():
    x, y = seed_jets((0.5, 1.0), order=3)
    f = conv(conv(x, x, 2, 3), y, 2, 3)
    fx = jets.partials(f, 2, 3)[0]
    assert jets.order_of(fx.shape[-1], 2) == 2
    assert fx[0] == pytest.approx(2 * 0.5 * 1.0)
    assert extract_partial(fx, (1, 0)) == pytest.approx(2.0)
    with pytest.raises(JetError):
        jets.partials(constant(1.0, 2, 0), 2, 0)


def test_truncation_is_prefix():
    x, y = seed_jets((0.2, 0.4), order=4)
    f = jets.exp(conv(x, y, 2, 4), 2, 4)
    g = jets.truncate_coeffs(f, 2, 4, 2)
    assert jets.order_of(g.shape[-1], 2) == 2
    assert np.allclose(g, f[: len(g)])


def test_batched_conv_matches_scalar():
    rng = np.random.default_rng(5)
    a = _random_jet(rng, 2, 3)
    b = _random_jet(rng, 2, 3)
    batched = conv(a[None, :], b[None, :], 2, 3)[0]
    assert np.allclose(batched, conv(a, b, 2, 3), atol=1e-14)


@pytest.mark.parametrize("num_vars, order", [(3, 2), (3, 3), (4, 2), (6, 2), (6, 4)])
def test_products_do_not_depend_on_the_batch(num_vars, order):
    # every row of a batch goes through the one offset bincount, so it has
    # the bytes of its product formed alone, and so has a batch of one.  b's
    # last slot is zero, so the batches of (6, 4), which form more than
    # _LIVE_PAIR_MIN pair products, take the live-pair path and the products
    # alone the full one
    rng = np.random.default_rng(8)
    for name, product in sorted(PRODUCTS.items()):
        lead = (20, 3) if name == "contract" else (20,)
        a = _random_jet(rng, num_vars, order, lead)
        b = _random_jet(rng, num_vars, order, lead[1:])
        b[..., -1] = 0.0
        batch = product(a, b, num_vars, order)
        for r in range(len(a)):
            alone = product(a[r], b, num_vars, order)
            assert batch[r].tobytes() == alone.tobytes(), name
            assert product(a[r:r + 1], b, num_vars, order)[0].tobytes() == alone.tobytes(), name


@pytest.mark.parametrize("num_vars, order", [(4, 2), (6, 4)])
def test_conv_kernels_agree(num_vars, order):
    # batched products take the offset bincount, single jets the same
    # bincount over one row, and both must match a dense reference built
    # from the table
    t = jets.tables(num_vars, order)
    rng = np.random.default_rng(5)
    a = _random_jet(rng, num_vars, order, (3,))
    b = _random_jet(rng, num_vars, order, (3,))
    batched = conv(a, b, num_vars, order)
    single = np.stack([conv(a[r], b[r], num_vars, order) for r in range(3)])
    reference = (a[:, t.mul_i] * b[:, t.mul_j]) @ np.eye(t.size)[t.mul_k]
    assert np.allclose(batched, single, atol=1e-14)
    assert np.allclose(batched, reference, atol=1e-13)


def test_batched_diff_matches_scalar():
    rng = np.random.default_rng(6)
    a = _random_jet(rng, 3, 3, (2,))
    got = jets.partials(a, 3, 3)[1]
    assert np.allclose(got[1], jets.partials(a[1], 3, 3)[1], atol=1e-14)
    for beta in _graded_lex(3, 2):
        shifted = (beta[0], beta[1] + 1, beta[2])
        assert np.allclose(extract_partial(got, beta), extract_partial(a, shifted), atol=1e-14)


def _graded_lex(num_vars, order):
    """Brute-force slot order: by degree, then descending exponents."""
    multis = (m for m in itertools.product(range(order + 1), repeat=num_vars) if sum(m) <= order)
    return sorted(multis, key=lambda m: (sum(m), tuple(-k for k in m)))


@pytest.mark.parametrize("num_vars", range(1, 7))
def test_tables_match_pair_loop_reference(num_vars):
    for order in range(6):
        t = jets.tables(num_vars, order)
        multis = _graded_lex(num_vars, order)
        position = {m: i for i, m in enumerate(multis)}
        degrees = [sum(m) for m in multis]
        assert t.size == len(multis)
        pairs = [(i, j, position[tuple(x + y for x, y in zip(a, b))])
                 for i, a in enumerate(multis) for j, b in enumerate(multis)
                 if sum(a) + sum(b) <= order]
        got = np.stack([t.mul_i, t.mul_j, t.mul_k], axis=1).tolist()
        # bincount and the dense scatter sum each slot's pairs in table order:
        # row-major, as a loop over (i, j) meets them
        for k in range(t.size):
            assert [p for p in got if p[2] == k] == [list(p) for p in pairs if p[2] == k]
        # and the pairs come by the degree they land in, so that the pairs of
        # every lower order are a prefix
        assert got == [list(p) for p in sorted(pairs, key=lambda p: degrees[p[2]])]
        lower = [m for m in multis if sum(m) < order]
        for v in range(num_vars):
            up = [tuple(k + (u == v) for u, k in enumerate(m)) for m in lower]
            assert t.diff_src[v].tolist() == [position[m] for m in up]
            assert t.diff_fac[v].tolist() == [m[v] + 1 for m in lower]


def _direct_inverse_steps(mul_i, mul_j, mul_k, degrees, sizes_by_order):
    """The steps of ``geometry.jet_matrix_inverse`` from the product table,
    slot by slot: per degree d >= 1, the pairs (i, j) with deg i >= 1 of each
    slot of degree d in table order, and where each slot's run starts."""
    by_slot = {}
    for i, j, k in zip(mul_i.tolist(), mul_j.tolist(), mul_k.tolist()):
        if degrees[i] >= 1:
            by_slot.setdefault(k, []).append((i, j))
    steps = []
    for d in range(1, len(sizes_by_order)):
        slots = slice(sizes_by_order[d - 1], sizes_by_order[d])
        pairs = [by_slot[k] for k in range(slots.start, slots.stop)]
        flat = [pair for run in pairs for pair in run]
        starts = np.cumsum([0] + [len(run) for run in pairs[:-1]])
        steps.append((np.array([i for i, _ in flat], dtype=np.intp),
                      np.array([j for _, j in flat], dtype=np.intp),
                      starts.astype(np.intp), slots))
    return tuple(steps)


def _direct_tables(num_vars, order):
    """Every JetTables field, and the inverse steps of degrees 1..order, built
    at this order alone: multi-indices from ``combinations_with_replacement``,
    slots located by mixed-radix keys, pairs from a row-major scan of the
    degree mask reordered stably by the degree they land in, inverse steps
    slot by slot."""
    multis = [tuple(c.count(v) for v in range(num_vars)) for d in range(order + 1)
              for c in itertools.combinations_with_replacement(range(num_vars), d)]
    E = np.array(multis, dtype=np.intp)
    degrees = E.sum(axis=1)
    radix = (order + 1) ** np.arange(num_vars - 1, -1, -1)
    keys = E @ radix
    by_key = np.argsort(keys)

    def locate(k):
        return by_key[np.searchsorted(keys, k, sorter=by_key)]

    mul_i, mul_j = np.nonzero(degrees[:, None] + degrees[None, :] <= order)
    by_degree = np.argsort(degrees[mul_i] + degrees[mul_j], kind="stable")
    mul_i, mul_j = mul_i[by_degree], mul_j[by_degree]
    mul_k = locate(keys[mul_i] + keys[mul_j])
    sizes_by_order = tuple(int(np.sum(degrees <= m)) for m in range(order + 1))
    lower = E[degrees < order]
    return {
        "num_vars": num_vars, "order": order, "size": len(multis),
        "sizes_by_order": sizes_by_order, "mul_i": mul_i, "mul_j": mul_j, "mul_k": mul_k,
        "diff_src": locate(lower @ radix + radix[:, None]), "diff_fac": lower.T + 1.0,
        "inverse_steps": _direct_inverse_steps(mul_i, mul_j, mul_k, degrees.tolist(),
                                               sizes_by_order),
    }


def _assert_same(got, want, name):
    """Equal values, arrays with equal dtype, shape and bytes, at any nesting
    of tuples."""
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name
    elif isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want), name
        for g, w in zip(got, want):
            _assert_same(g, w, name)
    else:
        assert got == want, name


def _assert_tables_equal(t, want, down):
    """The table's fields, and the inverse steps to its order as their
    accessor makes them, read from the highest degree down if ``down``,
    equal the direct construction."""
    for name, value in want.items():
        if name != "inverse_steps":
            _assert_same(getattr(t, name), value, name)
    degrees = range(t.order, 0, -1) if down else range(1, t.order + 1)
    steps = {d: jets.inverse_step(t.num_vars, d) for d in degrees}
    _assert_same(tuple(steps[d] for d in range(1, t.order + 1)), want["inverse_steps"],
                 "inverse_steps")


def _assert_prefix_view(low, high):
    """low is a prefix of high along every axis and shares its memory."""
    assert np.array_equal(low, high[tuple(slice(n) for n in low.shape)])
    assert low.size == 0 or np.shares_memory(low, high)


@pytest.mark.parametrize("num_vars", range(1, jets.MAX_VARS + 1))
def test_tables_equal_the_direct_construction_in_any_request_order(num_vars, monkeypatch):
    # a build registers every lower order; whatever the order of requests,
    # every field, the inverse steps too, has the bytes of the table built at
    # its order alone, every lower order is a view of the highest built, and
    # each step is made once.  Requests from the top read each table's steps
    # from its highest degree down
    want = [_direct_tables(num_vars, order) for order in range(jets.MAX_ORDER + 1)]
    top = jets.MAX_ORDER
    for requests, down in ((range(top + 1), False), (range(top, -1, -1), True),
                           ((3, 0, top, 1, 5, 2, 4), False)):
        for cache in ("_tables", "_inverse_steps"):
            monkeypatch.setattr(jets, cache, {})
        for order in requests:
            _assert_tables_equal(jets.tables(num_vars, order), want[order], down)
        high = jets.tables(num_vars, top)
        for order in range(top):
            low = jets.tables(num_vars, order)
            for name in ("mul_i", "mul_j", "mul_k", "diff_src", "diff_fac"):
                _assert_prefix_view(getattr(low, name), getattr(high, name))
        assert sorted(jets._inverse_steps) == [(num_vars, d) for d in range(1, top + 1)]
        assert all(jets.inverse_step(*key) is step for key, step in jets._inverse_steps.items())


def test_building_the_largest_tables_stays_small(monkeypatch):
    # the pairs are made per slot from the graded layout, with no (C, C)
    # temporary: 3,003 slots and 74,613 pairs at (8, 6)
    monkeypatch.setattr(jets, "_tables", {})
    tracemalloc.start()
    try:
        jets._build_tables(jets.MAX_VARS, jets.MAX_ORDER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


@pytest.mark.parametrize("num_vars, order", [(4, 2), (6, 3), (6, 4), (8, 3)])
def test_contract_matches_conv_sum(num_vars, order):
    # b's last slot is zero, so the batches of all but (4, 2), which form
    # more than _LIVE_PAIR_MIN pair products, take the live-pair path
    rng = np.random.default_rng(7)
    a = _random_jet(rng, num_vars, order, (3, 1, 5))
    b = _random_jet(rng, num_vars, order, (1, 4, 5))
    b[..., -1] = 0.0
    got = jets.contract(a, b, num_vars, order)
    assert got.shape == (3, 4, a.shape[-1])
    assert np.allclose(got, conv(a, b, num_vars, order).sum(axis=-2), atol=1e-12)
    single = jets.contract(a[0, 0], b[0, 0], num_vars, order)
    assert np.allclose(single, conv(a[0, 0], b[0, 0], num_vars, order).sum(axis=0), atol=1e-12)
    with pytest.raises(JetError):
        jets.contract(a[..., :-1], b[..., :-1], num_vars, order)


def _both_paths(monkeypatch, product, a, b, num_vars, order):
    """The product of a and b on the full path and on the live-pair path,
    each forced through the size cut; asserts that the cut chose them."""
    taken = []
    live_pairs = jets._live_pairs

    def spied(a, b, t):
        pairs = live_pairs(a, b, t)
        taken.append(len(pairs[2]) < len(t.mul_k))
        return pairs

    monkeypatch.setattr(jets, "_live_pairs", spied)
    results = []
    for cut in (math.inf, 0):
        monkeypatch.setattr(jets, "_LIVE_PAIR_MIN", cut)
        results.append(product(a, b, num_vars, order))
    assert taken == [False, np.isfinite(a).all() and np.isfinite(b).all()]
    return results


def _assert_same_bits(full, live, shape):
    assert full.shape == live.shape == shape
    assert full.dtype == live.dtype == np.float64
    assert full.tobytes() == live.tobytes()


# (num_vars, order, leading shape of a, of b): single jets, batches of small
# and large tables, broadcast batches, and a summed axis of length one for
# contract
LIVE_CASES = [(4, 2, (), ()), (4, 2, (6,), (6,)), (6, 3, (3, 1, 5), (1, 4, 5)),
              (6, 4, (2, 3), (3,)), (5, 3, (7, 1), (1, 1)), (3, 4, (4, 2), (4, 2))]
PRODUCTS = {"conv": conv, "contract": jets.contract}


@pytest.mark.parametrize("product", sorted(PRODUCTS))
@pytest.mark.parametrize("num_vars, order, lead_a, lead_b", LIVE_CASES)
def test_live_pairs_keep_the_bits_of_the_full_product(product, num_vars, order, lead_a,
                                                      lead_b, monkeypatch):
    # slots zero in every jet of the batch, slots zero in some jets only, and
    # zeros of both signs: every pair dropped adds an exact zero to a sum
    # that starts at +0.0
    if product == "contract" and not lead_a:
        lead_a, lead_b = (1,), (1,)
    rng = np.random.default_rng(num_vars * 10 + order)
    size = jets.tables(num_vars, order).size
    shape = np.broadcast_shapes(lead_a, lead_b)
    shape = shape[:-1] if product == "contract" else shape
    for trial in range(20):
        a = _random_jet(rng, num_vars, order, lead_a)
        b = _random_jet(rng, num_vars, order, lead_b)
        for x in (a, b):
            x[..., rng.random(size) < 0.7] = 0.0
            x[rng.random(x.shape) < 0.2] = 0.0
            x[rng.random(x.shape) < 0.3] *= -1.0
        full, live = _both_paths(monkeypatch, PRODUCTS[product], a, b, num_vars, order)
        _assert_same_bits(full, live, shape + (size,))


@pytest.mark.parametrize("product", sorted(PRODUCTS))
def test_one_live_pair_keeps_the_bits_of_the_full_product(product, monkeypatch):
    # the gathered pair axis has length one, so the operands of contract's
    # einsum change their layout; generic values at random slots and shapes
    rng = np.random.default_rng(11)
    for trial in range(100):
        num_vars, order = (3, 4) if trial % 2 else (6, 3)
        t = jets.tables(num_vars, order)
        p = rng.integers(len(t.mul_k))
        lead = tuple(rng.integers(1, 4, rng.integers(1, 4)))
        a = np.zeros(lead + (t.size,))
        b = np.zeros(lead[-1:] + (t.size,))
        a[..., t.mul_i[p]] = rng.uniform(-2.0, 2.0, lead)
        b[..., t.mul_j[p]] = rng.uniform(-2.0, 2.0, lead[-1:])
        full, live = _both_paths(monkeypatch, PRODUCTS[product], a, b, num_vars, order)
        out = lead[:-1] if product == "contract" else lead
        _assert_same_bits(full, live, out + (t.size,))


@pytest.mark.parametrize("product", sorted(PRODUCTS))
def test_no_live_pair_gives_float_zeros(product, monkeypatch):
    # a nonzero only at the top degree and b only above degree 0: every pair
    # with a nonzero factor on both sides lands above the order
    num_vars, order = 4, 3
    t = jets.tables(num_vars, order)
    rng = np.random.default_rng(12)
    a = np.zeros((2, 3, t.size))
    b = np.zeros((3, t.size))
    a[..., t.sizes_by_order[-2]:] = rng.uniform(-2.0, 2.0, (2, 3, t.size - t.sizes_by_order[-2]))
    b[..., 1:] = -rng.uniform(0.5, 2.0, (3, t.size - 1))
    full, live = _both_paths(monkeypatch, PRODUCTS[product], a, b, num_vars, order)
    shape = (2,) if product == "contract" else (2, 3)
    _assert_same_bits(full, live, shape + (t.size,))
    assert not live.any() and not np.signbit(live).any()


@pytest.mark.parametrize("product", sorted(PRODUCTS))
@pytest.mark.parametrize("lead_a, lead_b", [((0, 2), (0, 2)), ((3, 1, 2), (0, 2))])
def test_an_empty_stack_gives_float_zeros_of_the_broadcast_shape(product, lead_a, lead_b):
    # a leading axis of length 0, and a broadcast axis of length 0; contract
    # sums over the last leading axis
    num_vars, order = 4, 2
    size = jets.tables(num_vars, order).size
    out = PRODUCTS[product](np.ones(lead_a + (size,)), np.ones(lead_b + (size,)),
                            num_vars, order)
    shape = np.broadcast_shapes(lead_a, lead_b)
    shape = shape[:-1] if product == "contract" else shape
    assert out.dtype == np.float64 and out.shape == shape + (size,) and out.size == 0


@pytest.mark.parametrize("product", sorted(PRODUCTS))
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_operand_takes_the_full_product(product, bad, monkeypatch):
    # 0 * inf is NaN: a slot of b that is zero in every jet must still meet
    # the infinite slot of a, so the product keeps the NaN
    num_vars, order = 4, 3
    t = jets.tables(num_vars, order)
    rng = np.random.default_rng(13)
    a = _random_jet(rng, num_vars, order, (3, 4))
    b = _random_jet(rng, num_vars, order, (3, 4))
    a[1, 2, 2] = bad                     # slot x2
    b[..., 1] = 0.0                      # slot x1, so slot x1 x2 meets 0 * bad
    with np.errstate(invalid="ignore"):
        full, live = _both_paths(monkeypatch, PRODUCTS[product], a, b, num_vars, order)
    assert full.tobytes() == live.tobytes()
    x1x2 = t.mul_k[(t.mul_i == 2) & (t.mul_j == 1)][0]
    assert np.isnan(live[1, ..., x1x2] if product == "contract" else live[1, 2, x1x2])
