"""Truncated multivariate Taylor-jet arithmetic on coefficient arrays.

A jet is a float array whose last axis holds the Taylor coefficients
``c_alpha = (d^alpha f)(x) / alpha!`` of a smooth function at a fixed point,
for every multi-index ``alpha`` with ``|alpha| <= order``; leading axes batch
independent jets (tensor components, tractor sections).  Arithmetic on jets is
exact truncated-series arithmetic, so partial derivatives of any composite of
the supported primitives come out exact to roundoff.  Coefficients are stored
densely, ordered by total degree and lexicographically within a degree; the
degree-0 slot is the value, and the degree-1 block holds the first partials in
coordinate order.

Operations take the jet shape ``(num_vars, order)`` explicitly and reject
operands whose coefficient axis has the wrong length.  :func:`conv` is the
product and :func:`contract` the product summed over one index; both scatter
through one tail, over product pairs ordered by the degree they land in, so
each lower order's tables are prefix views of the highest order's.  The
scatter is one ``bincount`` over every row of a batch, each row's slots
offset by its index, so each slot of each row is summed in table order from
+0.0 and every row of a batch has the bits of the product formed alone; an
order-0 product (one pair, into the one slot) is added to +0.0 and skips it.
The jet matrix inverse's step of one degree (:func:`inverse_step`) is made
on first use and kept, so a process pays only for the degrees its inverses
read.

Both multiply only the live pairs of a large product.  A pair (i, j) is live
when slot i of ``a`` and slot j of ``b`` each hold a nonzero entry in some jet
of the batch; at the paper's (warped) products of a flat base with a
4-dimensional example most slots of g, its inverse and the Christoffels are
zero in every component, and the order-3 Christoffel contraction at n = 6 has
2 live pairs of 455.  A product that forms at least ``_LIVE_PAIR_MIN`` pair
products (pairs x jets, 20,000) of jets of order >= 1 (an order-0 product has
one pair), has a pair that is not live, and has finite operands gathers and
multiplies the live pairs alone (``contract`` sums over its index with the
same ``einsum``) and scatters them with ``bincount`` in table order; any
other product takes the full path.  No bit moves: each dropped term is an
exact +-0 (a zero times a finite number), every slot is summed in table order
from +0.0, and a sum that starts at +0.0 never holds -0.0, which is the one
value an added +-0 could change.  An operand holding inf or NaN takes the
full path, so 0 * inf still gives NaN.
:func:`partials` gives all first partials in one gather.
Sums, differences and scalar multiples are plain numpy arithmetic.
Primitives: :func:`reciprocal`, integer :func:`power`, ``sin cos tan sinh cosh
exp sqrt``.  Division and ``sqrt`` refuse expansion points whose value is
smaller than ``SINGULAR_VALUE`` in absolute value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_VARS = 8
MAX_ORDER = 6
SINGULAR_VALUE = 1e-12

# products forming at least this many pair products (table pairs x broadcast
# jets) multiply only their live pairs.  Finding them takes about ten numpy
# calls: 8-10 us warm, up to about 60 us in the fresh process each `cgl`
# command runs in.  Time spent in conv and contract by one
# estimate_parallel_dims call or README command in a fresh process, median of
# 15 on a 2-vCPU AMD EPYC VM, against the full path: with no cut the n = 4
# dims ops took 1.45-1.72 times as long and the README commands 2.1-2.2 times;
# at 5,000 the n = 4 ops took 1.12-1.13; at 20,000 they take 1.02,
# product_split_n6 0.60 and the README commands 0.97-1.07
_LIVE_PAIR_MIN = 20_000


class JetError(ValueError):
    """Unsupported jet combination or singular expansion point."""


@dataclass(frozen=True)
class JetTables:
    """Precomputed index tables for one (num_vars, order) combination.

    The product pairs come by the degree of their slot ``mul_k``, and in
    row-major (i, j) order within a degree, so bincount sums each slot's
    pairs in row-major order.  Every array of a lower order is a prefix of
    the one of a higher order, and the tables of every order up to the
    highest built are views of its arrays.  The inverse steps are not
    fields: :func:`inverse_step` makes them from these arrays on first use."""

    num_vars: int
    order: int
    size: int
    sizes_by_order: tuple[int, ...]       # coefficient count at each truncation order
    mul_i: np.ndarray                     # pair p multiplies slot mul_i[p] by slot mul_j[p]
    mul_j: np.ndarray
    mul_k: np.ndarray                     # and lands in slot mul_k[p]
    diff_src: np.ndarray                  # [var, slot]: source slot in the parent jet
    diff_fac: np.ndarray                  # [var, slot]: multiplier (alpha_var + 1)


# the tables by (num_vars, order); building one order registers every lower one
_tables: dict[tuple[int, int], JetTables] = {}
# made on first use: geometry.jet_matrix_inverse's steps by (num_vars, degree)
_inverse_steps: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray, slice]] = {}


def tables(num_vars: int, order: int) -> JetTables:
    if (num_vars, order) not in _tables:
        if not (1 <= num_vars <= MAX_VARS):
            raise JetError(f"num_vars must be in 1..{MAX_VARS}, got {num_vars}")
        if not (0 <= order <= MAX_ORDER):
            raise JetError(f"order must be in 0..{MAX_ORDER}, got {order}")
        _build_tables(num_vars, order)
    return _tables[num_vars, order]


def _build_tables(num_vars: int, order: int) -> None:
    """Register the tables of (num_vars, order) in ``_tables``, and those of
    every lower order as prefix views of the same arrays."""
    # slots: the monomials of each degree as sorted variable tuples, in the
    # order combinations_with_replacement lists them.  An exponent sum of total
    # degree <= order has every entry <= order, so the mixed-radix key (base
    # order + 1) of a multi-index locates it
    radix = (order + 1) ** np.arange(num_vars - 1, -1, -1)
    keys = np.concatenate([
        radix[np.array(monomials, dtype=np.intp).reshape(len(monomials), d)].sum(axis=1)
        for d in range(order + 1)
        for monomials in [list(itertools.combinations_with_replacement(range(num_vars), d))]])
    E = keys[:, None] // radix % (order + 1)
    degree = E.sum(axis=1)
    sizes_by_order = tuple(np.searchsorted(degree, range(order + 1), side="right").tolist())
    starts = (0,) + sizes_by_order                    # where each degree's slots begin
    by_key = np.argsort(keys)

    def locate(k):
        return by_key[np.searchsorted(keys, k, sorter=by_key)]

    # slot i pairs with the slots of degree <= order - deg i, a prefix; the
    # row-major pairs, stably sorted by the degree they land in
    reach = np.array(sizes_by_order)[order - degree]
    mul_i = np.repeat(np.arange(len(keys)), reach)
    mul_j = np.arange(len(mul_i)) - np.repeat(np.cumsum(reach) - reach, reach)
    landing = degree[mul_i] + degree[mul_j]
    by_degree = np.argsort(landing, kind="stable")
    mul_i, mul_j = mul_i[by_degree], mul_j[by_degree]
    mul_k = locate(keys[mul_i] + keys[mul_j])
    pairs_by_order = np.searchsorted(landing[by_degree], range(order + 1), side="right")

    # d/dx_v of the jet reads slot beta + e_v for every beta below the top degree
    diff_src = locate(keys[: starts[order]] + radix[:, None])
    diff_fac = E[: starts[order]].T + 1.0

    for m, size in enumerate(sizes_by_order):
        pairs, below = pairs_by_order[m], starts[m]
        _tables[num_vars, m] = JetTables(
            num_vars=num_vars, order=m, size=size, sizes_by_order=sizes_by_order[: m + 1],
            mul_i=mul_i[:pairs], mul_j=mul_j[:pairs], mul_k=mul_k[:pairs],
            diff_src=diff_src[:, :below], diff_fac=diff_fac[:, :below])


def inverse_step(num_vars: int, degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, slice]:
    """``geometry.jet_matrix_inverse``'s step for one degree d >= 1, made on
    first use: the pairs (i, j), deg i >= 1, landing in degree d, sorted by
    slot and in table order within a slot; where each slot's run starts; and
    the slots of degree d.  The pairs landing in degree d are the last run
    of the order-d table's pairs."""
    key = num_vars, degree
    if key not in _inverse_steps:
        t = tables(num_vars, degree)
        run = slice(len(tables(num_vars, degree - 1).mul_k), None)
        i, j, k = (m[run][t.mul_i[run] >= 1] for m in (t.mul_i, t.mul_j, t.mul_k))
        by_slot = np.argsort(k, kind="stable")
        _inverse_steps[key] = (i[by_slot], j[by_slot],
                               np.flatnonzero(np.diff(k[by_slot], prepend=-1)),
                               slice(*t.sizes_by_order[-2:]))
    return _inverse_steps[key]


@lru_cache(maxsize=None)
def order_of(size: int, num_vars: int) -> int:
    """The jet order whose coefficient count for num_vars variables is size."""
    for m in range(MAX_ORDER + 1):
        if math.comb(num_vars + m, m) == size:
            return m
    raise JetError(f"coefficient count {size} matches no jet order in {num_vars} vars")


def _sized(a, t: JetTables) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape[-1:] != (t.size,):
        raise JetError(
            f"expected {t.size} coefficients for {t.num_vars} vars at order "
            f"{t.order}, got shape {a.shape}"
        )
    return a


# ---------------------------------------------------------------------------
# structural operations

def _scatter(prods: np.ndarray, t: JetTables, slots: np.ndarray) -> np.ndarray:
    """Sum per-pair products (..., T) into their coefficient slots (..., size),
    ``slots`` naming the slot of each product: the table's ``mul_k``, or the
    slots of the live pairs of :func:`_live_pairs`."""
    if not t.order:  # one pair into the one slot: bincount adds it to +0.0
        return prods + 0.0
    lead = prods.shape[:-1]
    rows = math.prod(lead)
    if not (rows and slots.size):  # no products: bincount gives int64 or refuses the slots
        return np.zeros(lead + (t.size,))
    slots = (np.arange(rows)[:, None] * t.size + slots).ravel()
    out = np.bincount(slots, weights=prods.ravel(), minlength=rows * t.size)
    return out.reshape(lead + (t.size,))


def _live_pairs(a: np.ndarray, b: np.ndarray, t: JetTables):
    """The pairs (i, j) a product of a and b multiplies and their slots: the
    table's whole pair list, or the live pairs (see the module docstring)."""
    pairs, size = len(t.mul_k), t.size
    if not t.order or pairs * (a.size // size) * (b.size // size) < _LIVE_PAIR_MIN:
        return t.mul_i, t.mul_j, t.mul_k
    # the broadcast jet count; neither operand is empty here
    jets = math.prod(map(max, itertools.zip_longest(a.shape[-2::-1], b.shape[-2::-1],
                                                    fillvalue=1)))
    if pairs * jets < _LIVE_PAIR_MIN:
        return t.mul_i, t.mul_j, t.mul_k
    live = (a.any(axis=tuple(range(a.ndim - 1)))[t.mul_i]
            & b.any(axis=tuple(range(b.ndim - 1)))[t.mul_j])
    if live.all() or not (np.isfinite(a).all() and np.isfinite(b).all()):
        return t.mul_i, t.mul_j, t.mul_k
    live = np.flatnonzero(live)
    return t.mul_i[live], t.mul_j[live], t.mul_k[live]


def conv(a: np.ndarray, b: np.ndarray, num_vars: int, order: int) -> np.ndarray:
    """Truncated-series product of coefficient arrays, broadcasting leading axes."""
    t = tables(num_vars, order)
    a, b = _sized(a, t), _sized(b, t)
    i, j, slots = _live_pairs(a, b, t)
    return _scatter(a[..., i] * b[..., j], t, slots)


def contract(a: np.ndarray, b: np.ndarray, num_vars: int, order: int) -> np.ndarray:
    """Sum over the second-to-last axis of the truncated products of a and b.

    Equals ``conv(a, b, num_vars, order).sum(axis=-2)``: the summed index and
    the pair axis are contracted before the one scatter.
    """
    t = tables(num_vars, order)
    a, b = _sized(a, t), _sized(b, t)
    i, j, slots = _live_pairs(a, b, t)
    return _scatter(np.einsum("...rt,...rt->...t", a[..., i], b[..., j]), t, slots)


def partials(a: np.ndarray, num_vars: int, order: int, axis: int = 0) -> np.ndarray:
    """All first partials, the derivative index at ``axis`` (first by default):
    (num_vars, ..., C_{order-1})."""
    if order < 1:
        raise JetError("cannot differentiate an order-0 jet")
    t = tables(num_vars, order)
    return np.moveaxis(_sized(a, t)[..., t.diff_src] * t.diff_fac, -2, axis)


def truncate_coeffs(a: np.ndarray, num_vars: int, order: int, new_order: int) -> np.ndarray:
    """Drop coefficients above new_order (graded layout makes this a prefix slice)."""
    if new_order > order:
        raise JetError(f"cannot extend order {order} jet to order {new_order}")
    t = tables(num_vars, order)
    return _sized(a, t)[..., : t.sizes_by_order[new_order]]


def seed_jets(point, order: int) -> np.ndarray:
    """Coordinate-function jets at the point: row i is the jet of x_i.

    For a (P, n) stack of points the result is (n, P, C): row i holds the
    jets of x_i at every point, so expressions evaluate at all points at once.
    """
    pt = np.atleast_1d(np.asarray(point, dtype=float))
    n = pt.shape[-1]
    if n < 1:
        raise JetError("seed_jets needs at least one coordinate")
    if not (1 <= order <= MAX_ORDER):
        raise JetError(f"order must be in 1..{MAX_ORDER}, got {order}")
    if pt.ndim > 2:
        raise JetError(f"seed_jets takes a point or a (P, n) stack, got shape {pt.shape}")
    out = np.zeros((n,) + pt.shape[:-1] + (tables(n, order).size,))
    out[..., 0] = pt.T
    for i in range(n):
        out[i, ..., 1 + i] = 1.0
    return out


def gradient(a: np.ndarray, num_vars: int) -> np.ndarray:
    """First partials (degree-1 block of the graded layout), last axis the variable."""
    if a.shape[-1] == 1:
        raise JetError("gradient needs jet order >= 1")
    return a[..., 1 : num_vars + 1].copy()


@lru_cache(maxsize=None)
def _hessian_slots(num_vars: int):
    # d/dx_i of the degree-1 slot of x_j reads the slot of x_i x_j
    t = tables(num_vars, 2)
    return t.diff_src[:, 1 : num_vars + 1], 1.0 + np.eye(num_vars), t.size


def hessian(a: np.ndarray, num_vars: int) -> np.ndarray:
    """Second partials as a symmetric matrix in the last two axes."""
    slots, fac, need = _hessian_slots(num_vars)
    if a.shape[-1] < need:
        raise JetError("hessian needs jet order >= 2")
    return a[..., slots] * fac


# ---------------------------------------------------------------------------
# analytic primitives

def _compose(a: np.ndarray, series: list, num_vars: int, order: int) -> np.ndarray:
    """f(a) from the Taylor coefficients series[k] of f at the value of a (Horner)."""
    shifted = _sized(a, tables(num_vars, order)).copy()
    shifted[..., 0] = 0.0
    out = np.zeros(shifted.shape)
    out[..., 0] = series[order]
    for c in reversed(series[:order]):
        out = conv(out, shifted, num_vars, order)
        out[..., 0] += c
    return out


def _cyclic(a, derivatives, num_vars: int, order: int) -> np.ndarray:
    """Compose with f whose k-th derivative at the value is derivatives[k % len]."""
    series = [derivatives[k % len(derivatives)] / math.factorial(k) for k in range(order + 1)]
    return _compose(a, series, num_vars, order)


def reciprocal(a: np.ndarray, num_vars: int, order: int) -> np.ndarray:
    v = np.asarray(a)[..., 0]
    if np.any(np.abs(v) <= SINGULAR_VALUE):
        raise JetError(f"division at (near-)singular value {np.min(np.abs(v)):.3g}")
    series = [(-1.0) ** k / v ** (k + 1) for k in range(order + 1)]
    return _compose(a, series, num_vars, order)


def power(a: np.ndarray, exponent, num_vars: int, order: int) -> np.ndarray:
    if not isinstance(exponent, int):
        raise JetError(f"jet powers require an integer exponent, got {exponent!r}")
    base = _sized(a, tables(num_vars, order))
    if exponent < 0:
        base = reciprocal(base, num_vars, order)
        exponent = -exponent
    result = np.zeros(base.shape)
    result[..., 0] = 1.0
    while exponent:
        if exponent & 1:
            result = conv(result, base, num_vars, order)
        exponent >>= 1
        if exponent:
            base = conv(base, base, num_vars, order)
    return result


def sin(a, num_vars: int, order: int) -> np.ndarray:
    s, c = np.sin(a[..., 0]), np.cos(a[..., 0])
    return _cyclic(a, (s, c, -s, -c), num_vars, order)


def cos(a, num_vars: int, order: int) -> np.ndarray:
    s, c = np.sin(a[..., 0]), np.cos(a[..., 0])
    return _cyclic(a, (c, -s, -c, s), num_vars, order)


def tan(a, num_vars: int, order: int) -> np.ndarray:
    return conv(sin(a, num_vars, order),
                reciprocal(cos(a, num_vars, order), num_vars, order), num_vars, order)


def sinh(a, num_vars: int, order: int) -> np.ndarray:
    return _cyclic(a, (np.sinh(a[..., 0]), np.cosh(a[..., 0])), num_vars, order)


def cosh(a, num_vars: int, order: int) -> np.ndarray:
    return _cyclic(a, (np.cosh(a[..., 0]), np.sinh(a[..., 0])), num_vars, order)


def exp(a, num_vars: int, order: int) -> np.ndarray:
    return _cyclic(a, (np.exp(a[..., 0]),), num_vars, order)


def sqrt(a, num_vars: int, order: int) -> np.ndarray:
    v = np.asarray(a)[..., 0]
    if np.any(v <= SINGULAR_VALUE):
        raise JetError(f"sqrt at non-positive or near-zero value {np.min(v):.3g}")
    series = []
    coeff = 1.0
    for k in range(order + 1):
        series.append(coeff * v ** (0.5 - k))
        coeff *= (0.5 - k) / (k + 1)
    return _compose(a, series, num_vars, order)


FUNCTIONS = {
    "sin": sin,
    "cos": cos,
    "tan": tan,
    "sinh": sinh,
    "cosh": cosh,
    "exp": exp,
    "sqrt": sqrt,
}
