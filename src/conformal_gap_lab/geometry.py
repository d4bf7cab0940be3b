"""Metric catalogue: the paper's 4-dimensional examples and its products.

Every metric is a :class:`MetricSpec`: closed-form component expressions on a
single chart, a declared signature, a positivity-style domain predicate, and a
box to sample admissible points from.  Catalogue entries also carry the known
almost-Einstein-scale candidates used as lower-bound witnesses elsewhere.
The paper's 4-dimensional examples are rows of formulas in one table, which
one builder parses; only ``pseudo_euclidean`` and ``lorentz3d`` (whose h may
be an expression) are built in code.  Every example with n >= 5 comes from
:func:`product_over`, a 4-dimensional fiber over a pseudo-Euclidean base
warped by a + b|x|^2, whose scale candidates it lifts from the fiber's;
``FAMILIES`` names the fibers of the catalogue's families.

Signature convention: ``(p, q)`` counts (negative, positive) eigenvalues, so
Riemannian is ``(0, n)`` and Lorentzian ``(1, n-1)``.  Coordinates are ordered
as documented per entry (products: base coordinates first, then fiber).
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import expr
from .expr import Node
from . import jets

DOMAIN_MARGIN = 1e-3
DEGENERACY_RATIO = 1e-10   # smallest |eigenvalue| of g over the largest


class DomainError(ValueError):
    """Point violates the metric's domain predicate."""


class SingularMetricError(ValueError):
    """Metric degenerate (or signature mismatch) at an admitted point."""


class CatalogueError(ValueError):
    """Unknown metric name or invalid parameter."""


def _check_dimension(n: int) -> None:
    if n > jets.MAX_VARS:
        raise CatalogueError(f"dimension {n} exceeds the supported maximum {jets.MAX_VARS}")


@dataclass(frozen=True)
class MetricSpec:
    """A coordinate-chart metric description."""

    n: int
    signature: tuple[int, int]
    components: tuple[tuple[Node, ...], ...]
    params: tuple[tuple[str, float], ...] = ()
    domain: tuple[Node, ...] = ()
    label: str = "metric"
    coord_names: tuple[str, ...] = ()
    sample_box: tuple[tuple[float, float], ...] = ()
    known_scales: tuple[tuple[str, Node], ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        _check_dimension(self.n)
        if self.signature[0] + self.signature[1] != self.n:
            raise SingularMetricError(
                f"signature {self.signature} does not sum to dimension {self.n}"
            )

    @property
    def names(self) -> tuple[str, ...]:
        return self.coord_names or tuple(f"x{i + 1}" for i in range(self.n))


@dataclass(frozen=True)
class WarpedSpec:
    """Block-diagonal warped product data: base pseudo-Euclidean, 4d fiber."""

    base: MetricSpec
    fiber: MetricSpec
    a: float
    b: float

    def __post_init__(self):
        if self.fiber.n != 4:
            raise CatalogueError("warped products require a 4-dimensional fiber")
        if self.a == 0.0 and self.b == 0.0:
            raise CatalogueError("degenerate warp: a = b = 0")

    @property
    def base_signs(self) -> tuple[float, ...]:
        p = self.base.signature[0]
        return tuple(-1.0 if i < p else 1.0 for i in range(self.base.n))


def _symmetric(n: int, entries: dict) -> tuple[tuple[Node, ...], ...]:
    """The simplified n x n components: ``entries`` {(i, j): node} at (i, j)
    and (j, i), 0 elsewhere."""
    _check_dimension(n)
    m = [[expr.ZERO] * n for _ in range(n)]
    for (i, j), node in entries.items():
        m[i][j] = m[j][i] = node
    return tuple(tuple(expr.simplify(e) for e in row) for row in m)


# ---------------------------------------------------------------------------
# catalogue entries

def pseudo_euclidean(p: int, q: int) -> MetricSpec:
    """Flat diagonal metric: p entries -1, then q entries +1."""
    if p < 0 or q < 0 or p + q < 1:
        raise CatalogueError(f"invalid signature ({p}, {q})")
    n = p + q
    components = _symmetric(n, {(i, i): expr.const(-1.0 if i < p else 1.0) for i in range(n)})
    scales: list[tuple[str, Node]] = [("const", expr.ONE)]
    scales += [(f"x{i + 1}", expr.var(i)) for i in range(n)]
    norm2 = signed_norm_sq(n, [-1.0 if i < p else 1.0 for i in range(n)])
    scales.append(("norm_sq", norm2))
    return MetricSpec(
        n=n,
        signature=(p, q),
        components=components,
        label=f"flat_{p}_{q}",
        sample_box=tuple((-1.0, 1.0) for _ in range(n)),
        known_scales=tuple(scales),
    )


def signed_norm_sq(n: int, signs) -> Node:
    out: Node = expr.ZERO
    for i, s in enumerate(signs):
        term = expr.Pow(expr.var(i), 2)
        out = expr.add(out, term if s > 0 else expr.Neg(term))
    return expr.simplify(out)


class _Example(NamedTuple):
    """A 4-dimensional example as formulas in its coordinate names (x1..x4
    unless given) and parameters; ``check`` raises on bad parameter values."""

    signature: tuple[int, int]
    components: dict                        # {(i, j): formula}, the others 0
    box: tuple[tuple[float, float], ...]
    names: tuple[str, ...] = ()
    domain: tuple[str, ...] = ()
    scales: dict = {"const": "1"}           # {name: formula}
    notes: tuple[str, ...] = ()
    params: dict = {}                       # {name: default}
    check: Callable[..., None] | None = None


def _taub_nut_mass(m) -> None:
    if not isinstance(m, (int, float)) or not 0 < m < math.inf:
        raise CatalogueError(f"taub_nut needs a finite number m > 0, got {m!r}")


_FS = (0.1, math.pi / 2 - 0.1)       # the fubini_study range of x1 and x3
_PP = ("t", "x", "y", "z")

# the paper's 4-dimensional examples, the fibers of every FAMILIES entry
_TABLE = {
    "fubini_study": _Example((0, 4), {
        (0, 0): "1/2",
        (1, 1): "1/2*cos(x1)^2*sin(x1)^2",
        (1, 3): "-1/2*cos(x1)^2*sin(x1)^2*sin(x3)^2",
        (2, 2): "1/2*cos(x1)^2",
        (3, 3): "1/2*cos(x1)^2*(sin(x1)^2*sin(x3)^4 + cos(x3)^2*sin(x3)^2)",
    }, (_FS, (0.0, 1.0), _FS, (0.0, 1.0)),
        domain=("sin(x1) - 0.05", "cos(x1) - 0.05", "sin(x3) - 0.05", "cos(x3) - 0.05")),
    "fubini_study_hyperbolic": _Example((0, 4), {
        (0, 0): "1/2",
        (1, 1): "1/2*cosh(x1)^2*sinh(x1)^2",
        (1, 3): "1/2*cosh(x1)^2*sinh(x1)^2*sinh(x3)^2",
        (2, 2): "1/2*cosh(x1)^2",
        (3, 3): "1/2*cosh(x1)^2*(sinh(x1)^2*sinh(x3)^4 + cosh(x3)^2*sinh(x3)^2)",
    }, ((0.15, 1.2), (0.0, 1.0), (0.15, 1.2), (0.0, 1.0)),
        domain=("sinh(x1) - 0.05", "sinh(x3) - 0.05")),
    "taub_nut": _Example((0, 4), {
        (0, 0): "1 + m/x1",
        (1, 1): "(1 + m/x1)*x1^2",
        (2, 2): "(1 + m/x1)*x1^2*sin(x2)^2 + m^2*cos(x2)^2/(1 + m/x1)",
        (2, 3): "m*cos(x2)/(1 + m/x1)",
        (3, 3): "1/(1 + m/x1)",
    }, ((0.5, 3.0), (0.3, math.pi - 0.3), (0.0, 1.0), (0.0, 1.0)),
        domain=("x1 - 0.2", "sin(x2) - 0.05"), params={"m": 1.0}, check=_taub_nut_mass),
    "pp_wave": _Example((1, 3), {
        (0, 0): "x^2*exp(-sqrt(2)*t)",
        (0, 3): "exp(-sqrt(2)*t)",
        (1, 1): "exp(-sqrt(2)*t)",
        (2, 2): "exp(-sqrt(2)*t)",
    }, ((-0.8, 0.8),) * 4, _PP, scales={"const": "1", "exp_wave": "exp(-sqrt(2)*t)"}),
    "pp_split": _Example((2, 2), {(0, 0): "x^2", (0, 3): "1", (1, 2): "1"},
                         ((-1.0, 1.0),) * 4, _PP, scales={"const": "1", "t": "t", "x": "x"},
                         notes=("normal-Killing count: the wedge construction certifies 3 "
                                "independent fields here while the commonly quoted count for "
                                "this example is 2; reports carry the brute-force value",)),
}


def _example(name: str, row: _Example, values: dict) -> MetricSpec:
    """The MetricSpec of a ``_TABLE`` row at the parameter ``values``."""
    if row.check:
        row.check(**values)
    parse = partial(expr.parse, n=4, params=values, var_names=row.names or None)
    return MetricSpec(
        n=4, signature=row.signature, label=name, coord_names=row.names, notes=row.notes,
        components=_symmetric(4, {ij: parse(src) for ij, src in row.components.items()}),
        params=tuple((key, float(value)) for key, value in values.items()),
        domain=tuple(map(parse, row.domain)), sample_box=row.box,
        known_scales=tuple((key, parse(src)) for key, src in row.scales.items()),
    )


def _lorentz3d(h) -> MetricSpec:
    names = ("x", "y", "t")
    if isinstance(h, str):
        h_ast = expr.parse(h, 3, var_names=names)
    elif isinstance(h, (int, float)):
        h_ast = expr.const(float(h))
    else:
        h_ast = h
    bad = expr.used_vars(h_ast) - {1}
    if bad:
        raise CatalogueError("lorentz3d takes h as a function of y only")
    m11 = expr.add(expr.Pow(expr.var(0), 3), expr.mul(h_ast, expr.var(0)))
    return MetricSpec(
        n=3, signature=(1, 2),
        components=_symmetric(3, {(0, 0): expr.ONE, (1, 1): m11, (1, 2): expr.const(0.5)}),
        label="lorentz3d", coord_names=names,
        sample_box=tuple((-1.0, 1.0) for _ in range(3)),
    )


BUILTINS = sorted([*_TABLE, "lorentz3d"])


def _check_params(name: str, params: dict, takes) -> None:
    if unknown := sorted(set(params) - set(takes)):
        raise CatalogueError(f"{name} takes no parameter {unknown[0]!r} "
                             f"(parameters: {', '.join(sorted(takes)) or 'none'})")


def builtin_metric(name: str, params: dict | None = None) -> MetricSpec:
    """One of the explicitly tabulated metrics, by name."""
    params = params or {}
    if name not in BUILTINS:
        raise CatalogueError(f"unknown metric {name!r}; builtins: {BUILTINS}")
    row = _TABLE.get(name)
    defaults = row.params if row else {"h": 0.0}
    _check_params(name, params, defaults)
    for key, value in params.items():
        if isinstance(value, (int, float)) and not math.isfinite(value):
            raise CatalogueError(f"{name} parameter {key} must be finite, got {value!r}")
    values = {**defaults, **params}
    return _example(name, row, values) if row else _lorentz3d(**values)


# ---------------------------------------------------------------------------
# warped products

def warp_function(ws: WarpedSpec) -> Node:
    """f = a + b|x|^2 over the base coordinates, with base-signature signs."""
    nb = ws.base.n
    f: Node = expr.const(ws.a)
    if ws.b != 0.0:
        f = expr.add(f, expr.mul(expr.const(ws.b), signed_norm_sq(nb, ws.base_signs)))
    return expr.simplify(f)


def product_over(fiber: MetricSpec, p: int, q: int, a: float, b: float,
                 label: str | None = None) -> tuple[WarpedSpec, MetricSpec]:
    """The paper's product of pseudo_euclidean(p, q) with a 4-dimensional
    fiber warped by f = a + b|x|^2: the warp data and the block metric
    base (+) f^2 * fiber, base coordinates first.

    Its scale candidates are a - b|x|^2 (``radial``, or ``const`` when
    b = 0), the base coordinates, and each non-constant fiber scale moved
    past the base (``fiber_<name>``); they are candidates only, which
    ``estimate_parallel_dims`` verifies.
    """
    _check_dimension(p + q + 4)
    ws = WarpedSpec(pseudo_euclidean(p, q), fiber, a, b)
    nb, nf = ws.base.n, ws.fiber.n
    n = nb + nf
    f = warp_function(ws)
    f2 = expr.Pow(f, 2) if not expr.is_one(f) else expr.ONE

    blocks = {(i, j): ws.base.components[i][j] for i in range(nb) for j in range(i, nb)}
    blocks |= {(nb + i, nb + j): expr.mul(f2, expr.shift_vars(fiber.components[i][j], nb))
               for i in range(nf) for j in range(i, nf)}

    domain = [expr.shift_vars(d, nb) for d in fiber.domain]
    if not isinstance(f, expr.Const):
        domain.append(expr.sub(f, expr.const(0.05)))
    elif f.value < 0:
        raise CatalogueError("constant warp lies in the excluded sign region")

    base_box = ws.base.sample_box
    if b != 0.0:
        # keep |x|^2 comfortably below 0.95 so f = a + b|x|^2 stays past the margin
        half = 0.9 / math.sqrt(nb) / math.sqrt(2.0)
        base_box = tuple((-half, half) for _ in range(nb))
    fiber_box = fiber.sample_box or tuple((-1.0, 1.0) for _ in range(nf))

    # a - b|x|^2 is the warp function with b negated
    scales = [("radial" if b else "const", warp_function(replace(ws, b=-b)))]
    scales += [(f"x{i + 1}", expr.var(i)) for i in range(nb)]
    scales += [(f"fiber_{name}", expr.shift_vars(sigma, nb))
               for name, sigma in fiber.known_scales if not isinstance(sigma, expr.Const)]

    # f enters squared, so the block signature is the same on either side of f = 0
    return ws, MetricSpec(
        n=n,
        signature=(p + fiber.signature[0], q + fiber.signature[1]),
        components=_symmetric(n, blocks),
        domain=tuple(domain),
        label=label or f"warped[{ws.base.label}x{fiber.label};a={a},b={b}]",
        sample_box=base_box + fiber_box,
        known_scales=tuple(scales),
    )


# kind -> (4-dimensional fiber, a, b): at dimension n, the fiber warped by
# f = a + b|x|^2 over pseudo_euclidean(p - 2, n - p - 2); p is 2 except for
# product_split, the one family over every signature
FAMILIES = {
    "warped_fs": ("fubini_study", 1.0, -1.0),
    "warped_hfs": ("fubini_study_hyperbolic", 1.0, 1.0),
    "product_ricci_flat": ("taub_nut", 1.0, 0.0),
    "product_lorentz": ("pp_wave", 1.0, 0.0),
    "product_split": ("pp_split", 1.0, 0.0),
}


def warped_family(kind: str, n: int, p: int) -> tuple[WarpedSpec, MetricSpec]:
    """A ``FAMILIES`` entry at dimension n >= 5: ``product_over`` of its row."""
    if kind not in FAMILIES:
        raise CatalogueError(f"unknown warped family {kind!r}")
    if n < 5:
        raise CatalogueError(f"warped families cover 5 <= n <= {jets.MAX_VARS}, got {n}")
    _check_dimension(n)
    if not (2 <= p <= n - p):
        raise CatalogueError(f"general signature needs 2 <= p <= n - p, got p={p}")
    fiber, a, b = FAMILIES[kind]
    label = f"{kind}_n{n}_p{p}" if kind == "product_split" else f"{kind}_n{n}"
    return product_over(builtin_metric(fiber), p - 2, n - p - 2, a, b, label=label)


# ---------------------------------------------------------------------------
# catalogue facade for the CLI

_FLAT_RE = re.compile(r"flat_(\d+)_(\d+)$")
FLAT_EXAMPLE = "flat_1_3"
# families named KIND_nN; product_split also takes _pP
WARPED_KINDS = tuple(kind for kind in FAMILIES if kind != "product_split")


def _bad_einstein_claim() -> MetricSpec:
    """Fixture with a deliberately failing scale claim; exercises exit code 1."""
    return replace(pseudo_euclidean(0, 4), label="bad_einstein_claim",
                   known_scales=(("bogus", expr.parse("x1^2", 4)),),
                   notes=("test fixture: the claimed scale x1^2 is not almost Einstein",))


def catalogue_names(examples: bool = False) -> list[str]:
    """Catalogue entries as ``cgl catalogue`` lists them; with ``examples`` the
    flat_p_q pattern is given by its example, so every name resolves."""
    names = list(BUILTINS)
    names += ["flat_r4", FLAT_EXAMPLE if examples else f"flat_p_q (e.g. {FLAT_EXAMPLE})"]
    for n in (5, 6):
        names += [f"{kind}_n{n}" for kind in WARPED_KINDS]
    names += ["product_split_n6", "bad_einstein_claim"]
    return names


def family_names(n: int) -> list[str]:
    """Every warped/product family entry at dimension n, product_split at each p."""
    names = [f"{kind}_n{n}" for kind in WARPED_KINDS]
    return names + [f"product_split_n{n}_p{p}" for p in range(2, n // 2 + 1)]


def catalogue_metric(name: str, params: dict | None = None) -> MetricSpec:
    """Resolve any catalogue name (builtins, flat_p_q, warped families)."""
    if name in BUILTINS:
        return builtin_metric(name, params)
    spec = _family_metric(name)
    _check_params(name, params or {}, ())
    return spec


def _family_metric(name: str) -> MetricSpec:
    if name == "flat_r4":
        return pseudo_euclidean(0, 4)
    if m := _FLAT_RE.match(name):
        return pseudo_euclidean(int(m.group(1)), int(m.group(2)))
    if m := re.match(rf"({'|'.join(WARPED_KINDS)})_n(\d+)$", name):
        return warped_family(m.group(1), int(m.group(2)), 2)[1]
    if m := re.match(r"product_split_n(\d+)(?:_p(\d+))?$", name):
        return warped_family("product_split", int(m.group(1)), int(m.group(2) or 2))[1]
    if name == "bad_einstein_claim":
        return _bad_einstein_claim()
    raise CatalogueError(f"unknown metric {name!r}; see `cgl catalogue`")


def load_metric(text: str, label: str = "file") -> MetricSpec:
    """Build a MetricSpec from conformal-metric v1 text."""
    data = expr.parse_metric_source(text)
    n = data["dim"]
    return MetricSpec(
        n=n,
        signature=data["signature"],
        components=_symmetric(n, data["components"]),
        params=tuple(sorted(data["params"].items())),
        domain=tuple(data["domain"]),
        label=label,
        sample_box=tuple((-1.0, 1.0) for _ in range(n)),
    )


# ---------------------------------------------------------------------------
# evaluation at points

def domain_value(spec: MetricSpec, point) -> float:
    """Smallest domain-expression value (predicate: all must exceed the margin)."""
    if not spec.domain:
        return math.inf
    vals = [expr.evaluate_at(d, point) for d in spec.domain]
    return min(vals)


def domain_ok(spec: MetricSpec, point) -> bool:
    try:
        return domain_value(spec, point) > DOMAIN_MARGIN
    except expr.EvalError:
        return False


def metric_jets(spec: MetricSpec, points, order: int) -> np.ndarray:
    """Component jets as an (n, n, C) coefficient array, or (P, n, n, C) at a
    (P, n) stack of points (leading axes batch)."""
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if pts.shape[-1] != spec.n:
        raise DomainError(f"point has {pts.shape[-1]} coordinates, metric needs {spec.n}")
    env = jets.seed_jets(pts, order)
    memo = {}                                  # subtrees shared by components expand once
    G = np.zeros(pts.shape[:-1] + (spec.n, spec.n, env.shape[-1]))
    for i in range(spec.n):
        for j in range(i, spec.n):
            if not expr.is_zero(spec.components[i][j]):
                G[..., i, j, :] = G[..., j, i, :] = expr.evaluate(spec.components[i][j], env,
                                                                  memo)
    return G


def jet_matrix_inverse(G: np.ndarray) -> np.ndarray:
    """Inverse of an (n, n, C) matrix of jets in n variables; leading axes batch.

    Degree by degree, X_0 = G_0^-1 and X_d = -G_0^-1 sum_{k=1..d} (G_k X_{d-k})_d
    with G_k the degree-k part: the truncated Neumann series, each product-table
    pair used once.
    """
    n = G.shape[-3]
    Gc = np.moveaxis(G, -1, 0)                      # (C, ..., n, n)
    try:
        x0 = np.linalg.inv(Gc[0])
    except np.linalg.LinAlgError:
        raise SingularMetricError("jet matrix inverse: singular value matrix") from None
    X = np.zeros_like(Gc)
    X[0] = x0
    for d in range(1, jets.order_of(G.shape[-1], n) + 1):
        i, j, starts, slots = jets.inverse_step(n, d)
        X[slots] = -x0 @ np.add.reduceat(Gc[i] @ X[j], starts, axis=0)
    return np.ascontiguousarray(np.moveaxis(X, 0, -1))


def _eigenvalues(values: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric part of each (n, n) matrix; leading axes batch."""
    return np.linalg.eigvalsh(0.5 * (values + np.swapaxes(values, -1, -2)))


def format_point(point) -> str:
    """A point as a tuple of plain floats, for messages."""
    return str(tuple(float(c) for c in point))


def require_finite(point) -> None:
    """Raise ``DomainError`` unless every coordinate of the point is finite."""
    if not all(math.isfinite(c) for c in point):
        raise DomainError(f"point {format_point(point)} is not finite")


def require_point(spec: MetricSpec, point) -> None:
    """Raise ``DomainError`` unless the point is finite and inside the domain."""
    require_finite(point)
    if not domain_ok(spec, point):
        raise DomainError(
            f"point {format_point(point)} outside the domain of {spec.label!r}"
        )


def _check_values(spec: MetricSpec, points: np.ndarray, G: np.ndarray) -> None:
    """Raise unless the metric jets G (P, n, n, C) at the (P, n) points are
    finite, nondegenerate and of the declared signature at every point, from
    one isfinite and one stacked eigvalsh: the first failing point's error."""
    finite = np.isfinite(G).all(axis=(-3, -2, -1))
    values = G[..., 0] if finite.all() else np.where(finite[:, None, None], G[..., 0], 0.0)
    eigs = _eigenvalues(values)
    size = np.abs(eigs)
    degenerate = size.min(axis=-1) <= DEGENERACY_RATIO * size.max(axis=-1)
    negative, positive = (eigs < 0).sum(axis=-1), (eigs > 0).sum(axis=-1)
    p, q = spec.signature
    failing = ~finite | degenerate | (negative != p) | (positive != q)
    if not failing.any():
        return
    i = int(failing.argmax())
    at = format_point(points[i])
    if not finite[i]:
        raise DomainError(f"{spec.label!r}: metric not finite at {at}")
    if degenerate[i]:
        raise SingularMetricError(
            f"{spec.label!r} degenerate at {at} (eigenvalues "
            f"{size[i].min():.2e} to {size[i].max():.2e} in absolute value)"
        )
    raise SingularMetricError(
        f"{spec.label!r}: computed signature "
        f"{(int(negative[i]), int(positive[i]))} != declared {spec.signature}"
    )


def metric_frame_at(spec: MetricSpec, points, order: int):
    """(g jets to ``order``, inverse jets to ``order - 1``) with admissibility
    checks.

    No reader of a frame reads the inverse above ``order - 1`` (Christoffels
    and the scale tractor's gradient read it there), and its coefficients to
    that order are the prefix of the order-``order`` inverse, bit for bit.
    ``points`` is one point or a (P, n) stack; the jets then carry the point
    axis first.  Every point is checked (the signature computed there must be
    the declared one), and a stack with a failing point raises what the
    first failing point raises alone.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    stack = pts.reshape(-1, pts.shape[-1])
    try:
        for p in stack:
            require_point(spec, p)
        with np.errstate(over="ignore", invalid="ignore"):
            G = metric_jets(spec, pts, order)
        _check_values(spec, stack, G.reshape((-1,) + G.shape[-3:]))
        G1 = jets.truncate_coeffs(G, spec.n, order, order - 1)
        return G, jet_matrix_inverse(G1)
    except (DomainError, SingularMetricError, expr.EvalError):
        if len(stack) > 1:
            for p in stack:
                metric_frame_at(spec, p, order)
        raise


def default_point(spec: MetricSpec) -> tuple[float, ...]:
    box = spec.sample_box or tuple((-1.0, 1.0) for _ in range(spec.n))
    pt = tuple((lo + hi) / 2 for lo, hi in box)
    if domain_ok(spec, pt):
        return pt
    for candidate in sample_points(spec, 1, seed=0):
        return candidate
    raise DomainError(f"no admissible default point for {spec.label!r}")


_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence hash constants and the PCG64 multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


class SeededRng:
    """The stream of numpy's ``default_rng(seed).uniform``, bit for bit.

    numpy's ``SeedSequence`` (a pool of four 32-bit words) seeds a PCG64
    generator (128-bit LCG, XSL-RR output); a double is the top 53 bits of one
    output and a draw is ``low + (high - low) * u``.  Written out here because
    importing numpy's random module costs about 15 ms, a third of a small
    ``dims`` call.
    """

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("expected non-negative integer")
        entropy = [seed & _MASK32]
        while seed >> 32:
            seed >>= 32
            entropy.append(seed & _MASK32)
        hash_const = _INIT_A

        def hashmix(value):
            nonlocal hash_const
            value ^= hash_const
            hash_const = hash_const * _MULT_A & _MASK32
            value = value * hash_const & _MASK32
            return value ^ value >> 16

        def mix(x, y):
            r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
            return r ^ r >> 16

        pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))

        # SeedSequence.generate_state(4, uint64): 8 words, little-endian pairs
        hash_const = _INIT_B
        words = []
        for i in range(8):
            value = pool[i % 4] ^ hash_const
            hash_const = hash_const * _MULT_B & _MASK32
            value = value * hash_const & _MASK32
            words.append(value ^ value >> 16)
        s0, s1, i0, i1 = (words[k] | words[k + 1] << 32 for k in range(0, 8, 2))
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        self._state = (self._inc + (s0 << 64 | s1)) & _MASK128   # one step from 0
        self._step()

    def _step(self) -> int:
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        return self._state

    def _double(self) -> float:
        s = self._step()
        x, rot = ((s >> 64) ^ s) & _MASK64, s >> 122
        x = (x >> rot | x << (-rot & 63)) & _MASK64
        return (x >> 11) * 2.0 ** -53

    def uniform(self, low=0.0, high=1.0, size=None):
        """Draws from [low, high) with numpy's broadcasting and return types."""
        if np.ndim(low) == np.ndim(high) == 0 and size is None:
            low, high = float(low), float(high)
            if not math.isfinite(high - low):
                raise OverflowError("high - low range exceeds valid bounds")
            return low + (high - low) * self._double()
        low = np.asarray(low, dtype=float)
        span = np.asarray(high, dtype=float) - low
        if not np.all(np.isfinite(span)):
            raise OverflowError("Range exceeds valid bounds")
        shape = span.shape if size is None else size
        u = np.array([self._double() for _ in range(int(np.prod(shape)))])
        return low + span * u.reshape(shape)


def sample_points(spec: MetricSpec, count: int, seed: int = 0) -> list[tuple[float, ...]]:
    """Seeded rejection sampling from the metric's box against the domain predicate."""
    rng = SeededRng(seed)
    box = spec.sample_box or tuple((-1.0, 1.0) for _ in range(spec.n))
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 500 * count:
            raise DomainError(
                f"rejection sampling failed for {spec.label!r} "
                f"({len(out)}/{count} points after {attempts} draws)"
            )
        pt = tuple(rng.uniform(lo, hi))
        try:
            if domain_value(spec, pt) > DOMAIN_MARGIN:
                out.append(pt)
        except expr.EvalError:
            continue
    return out
