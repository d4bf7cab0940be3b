"""Curvature machinery at a point, on top of jet arithmetic.

Conventions (fixed throughout the package):

* ``[nabla_a, nabla_b] v^c = R_ab^c_d v^d``; ``riemann_mixed[a, b, c, d]``
  stores ``R_ab^c_d`` and ``riemann[a, b, c, d]`` the all-down
  ``R_abcd = g_ce R_ab^e_d`` (first/third contraction gives Ricci).
* Schouten ``P = (Ric - J g) / (n - 2)`` with ``J = Sc / (2(n-1))``.
* Weyl from ``R_abcd = W_abcd + 2 g_c[a P_b]d + 2 g_d[b P_a]c``.
* Cotton ``Y_cab = nabla_a P_bc - nabla_b P_ac``.
* Volume form ``eps = sqrt(|det g|) * permutation symbol`` in coordinate
  orientation; its full self-contraction is ``sign(det g) * n!`` (the sign is
  forced for a real form on indefinite signatures).

Every tensor is carried as a numpy array of truncated Taylor coefficients,
last axis the coefficient axis, so covariant derivatives of anything computed
here are one :meth:`CurvatureFrame.cov_deriv` away.  A frame built at jet
order ``K`` holds the metric to order ``K``, its inverse and the Christoffels
to ``K-1``, and Ricci, Sc, J, Schouten and ``schouten_mixed`` to ``K-2``: what
the tractor connection jets and their curvature chain read.  The mixed and
all-down Riemann, Weyl and Cotton tensors are held at jet order 0, their
values, since no reader needs more, and are made on first read: a frame
whose readers read none of them (the Einstein tractors') computes none.  A
frame of order 2 forms the mixed Riemann value as it is built, since Ricci
is its trace there.  Cotton needs ``K >= 3`` and is None below.
Christoffels are contracted for the index pairs ``a <= b`` only and mirrored,
and Ricci is summed from the trace rows ``R_rb^r_d`` alone, so no product
of the build above jet order 0 forms ``n^4`` jets; every array keeps the
bits of the full construction.  :meth:`CurvatureFrame.riemann_mixed_jets`
builds the mixed Riemann jets to any order up to ``K-2`` on demand, and
:meth:`CurvatureFrame.riemann_and_weyl` gives Riemann and Weyl from them by
one formula (the divergence identity reads the Weyl jets to order ``K-2``).

Point axis: a frame is built at one point or at a (P, n) stack of points in
one ``CurvatureFrame`` call; at a stack every array carries the point axis
first, before the tensor indices, so ``g`` is (P, n, n, C) where a frame at
one point has (n, n, C).  Every product then keeps the trailing tensor and
coefficient blocks of the one-point frame, and each point's row has the
bits of the frame built there alone.  Data that a batch reads carries its
own leading axes before the point axis (scale jets are (S, P, C)), and
:meth:`CurvatureFrame.cov_deriv` takes such axes alike at a frame of one
point (a stack of scale gradients is (S, n, C)).

Frames are passed explicitly: a caller builds the frame it needs once and
hands it to the readers, which read the batch where they take one.  Readers
of values and the scale tractors take a frame of any order at or above
theirs and cut what they read to their order with :meth:`CurvatureFrame.at`,
a prefix.  The frame is the one curvature object: values are read from it
(``fr.values(fr.weyl)``, ``float(fr.sc[0])``), and :func:`check_conventions`
runs the convention self-checks at every point of a frame or batch at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from functools import cached_property, lru_cache

import numpy as np

from . import expr, geometry, jets
from .geometry import MetricSpec, WarpedSpec
from .jets import contract, conv, partials, truncate_coeffs


class ConventionError(RuntimeError):
    """A built-in consistency check of the curvature conventions failed."""


def norms(arr, k: int) -> np.ndarray:
    """Frobenius norms over the last k axes of arr; leading axes batch.  A finite
    block whose squares overflow is summed divided by its largest |entry|, so
    only a norm above the largest float is infinite; no other norm changes."""
    a = np.asarray(arr, dtype=float)
    axes = tuple(range(a.ndim - k, a.ndim))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = np.sqrt(np.sum(a ** 2, axis=axes))
        over = np.isinf(out)
        if over.any():
            over &= np.all(np.isfinite(a), axis=axes)
            top = np.abs(a).max(axis=axes, keepdims=True)
            out = np.where(over, top.reshape(over.shape) * norms(a / top, k), out)
    return out


def frobenius(arr) -> float:
    return float(norms(arr, np.ndim(arr)))


def _last(arr: np.ndarray, *axes: int) -> np.ndarray:
    """arr with its last len(axes) axes permuted as ``transpose(*axes)`` permutes
    an array of that many axes; leading (point) axes stay in front."""
    return arr.transpose(_last_axes(arr.ndim, axes))


@lru_cache(maxsize=None)
def upper_pairs(n: int, k: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs (i, j), j >= i + k, as two read-only arrays in the
    order of ``np.triu_indices(n, k)`` (row by row), built from aranges."""
    counts = np.maximum(n - k - np.arange(n), 0)
    rows = np.repeat(np.arange(n), counts)
    cols = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts) + rows + k
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


@lru_cache(maxsize=None)
def _symmetric_pairs(n: int):
    """The index pairs a <= b as two arrays (``upper_pairs`` order), and the
    (n, n) map from (a, b) to the position of its pair."""
    upper = upper_pairs(n)
    mirror = np.empty((n, n), dtype=np.intp)
    mirror[upper] = mirror[upper[::-1]] = np.arange(len(upper[0]))
    return upper, mirror


@lru_cache(maxsize=None)
def _trace_partials(n: int, order: int):
    """Gathers of d_r Gamma^r_bd and of d_b Gamma^r_rd as [r, b, d] jets of
    order - 1 from the Christoffel jets of this order: for each, an index
    tuple over the (c, a, b, coefficient) axes and the factors, the slots and
    factors that ``jets.partials`` reads."""
    t = jets.tables(n, order)
    i = np.arange(n)
    r, b, d = i[:, None, None, None], i[None, :, None, None], i[None, None, :, None]
    src, fac = t.diff_src, t.diff_fac
    return (((r, b, d, src[:, None, None, :]), fac[:, None, None, :]),
            ((r, r, d, src[None, :, None, :]), fac[None, :, None, :]))


@lru_cache(maxsize=None)
def _last_axes(ndim: int, axes: tuple) -> tuple:
    lead = ndim - len(axes)
    return tuple(range(lead)) + tuple(lead + a for a in axes)


def _on_first_read(build):
    """A frame tensor that ``build`` makes on its first read and the frame
    keeps, read-only."""
    def read(fr):
        value = build(fr)
        if value is not None:
            value.flags.writeable = False
        return value
    read.__doc__ = build.__doc__
    return cached_property(read)


class CurvatureFrame:
    """All curvature tensors of one metric as jets, at one point or at a stack
    of points (the point axis first in every array)."""

    def __init__(self, spec: MetricSpec, points, order: int = 4):
        if order < 2:
            raise ValueError("curvature needs jet order >= 2")
        if spec.n < 3:
            raise ValueError("curvature decompositions need dimension >= 3")
        pts = np.asarray(points, dtype=float)
        if not pts.size:
            raise ValueError("a frame needs at least one point")
        self.spec = spec
        self.point = tuple(map(tuple, pts.tolist())) if pts.ndim > 1 else tuple(pts.tolist())
        self.order = order
        n = self.n = spec.n

        self.g, self.ginv = geometry.metric_frame_at(spec, pts, order)

        # dg[i, a, b] = d_i g_ab, one jet order lower
        dg = self.partials(self.g, order)
        m1 = order - 1
        # gamma[c, a, b] = Gamma^c_ab = g^cd T[a, b, d] / 2 with
        # T[a, b, d] = d_a g_bd + d_b g_ad - d_d g_ab, symmetric in (a, b) bit
        # for bit (g is stored symmetric and + commutes), so T and Gamma are
        # formed for the pairs a <= b only and Gamma is mirrored
        (a, b), mirror = _symmetric_pairs(n)
        T = dg[..., a, b, :, :] + dg[..., b, a, :, :] - _last(dg[..., :, a, b, :], 1, 0, 2)
        half = contract(self.ginv[..., :, None, :, :], T[..., None, :, :, :], n, m1)  # [c, ab]
        self.gamma = np.ascontiguousarray(0.5 * half[..., mirror, :])

        m2 = order - 2
        g2 = self.at(self.g, m2)
        ginv2 = self.at(self.ginv, m2)
        # Ricci is the trace of the mixed Riemann tensor over its first and
        # third indices; the frame holds that tensor's value, which at jet
        # order 2 is the whole jet, and above that forms only the trace rows
        if m2 == 0:
            self.ricci = ricci = np.einsum("...rbrdk->...bdk", self.riemann_mixed)
        else:
            self.ricci = ricci = np.einsum("...rbdk->...bdk", self._ricci_rows(m2))
        lead = self.batch
        self.sc = contract(ginv2.reshape(lead + (n * n, -1)), ricci.reshape(lead + (n * n, -1)),
                           n, m2)
        self.j = self.sc / (2.0 * (n - 1))
        self.schouten = P = (ricci - conv(self.j[..., None, None, :], g2, n, m2)) / (n - 2)

        # P with the second index raised (used by the tractor connection)
        self.schouten_mixed = contract(P[..., :, None, :, :], ginv2[..., None, :, :, :],
                                       n, m2)             # [a, b] = P_a^b

        # prefixes (at) share these arrays, so nothing may write into them
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    # the values of these, made on first read; no reader needs their jets
    @_on_first_read
    def riemann_mixed(self) -> np.ndarray:
        """R_ab^c_d (built with the frame at jet order 2, where Ricci is its trace)."""
        return self.riemann_mixed_jets(0)

    @_on_first_read
    def riemann(self) -> np.ndarray:
        """R_abcd."""
        return self._riemann_jets(0)

    @_on_first_read
    def weyl(self) -> np.ndarray:
        """W_abcd."""
        return self._weyl_jets(self.riemann, 0)

    @_on_first_read
    def cotton(self) -> np.ndarray | None:
        """Y_cab, at frames of order 3 and above; None below."""
        if self.order < 3:
            return None
        covP = self.cov_deriv(self.at(self.schouten, 1), 2, 1)   # [a, b, c] = nabla_a P_bc
        A = _last(covP, 2, 0, 1, 3)
        return A - _last(A, 0, 2, 1, 3)                         # [c, a, b] = Y_cab

    # helpers ----------------------------------------------------------------

    @property
    def batch(self) -> tuple:
        """The shape of the point axis: () at one point, (P,) for P points."""
        return self.g.shape[:-3]

    def at(self, arr: np.ndarray, m: int) -> np.ndarray:
        """Truncate a coefficient array from this frame to jet order m."""
        have = jets.order_of(arr.shape[-1], self.n)
        return truncate_coeffs(arr, self.n, have, m)

    def values(self, arr: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(arr[..., 0])

    def partials(self, arr: np.ndarray, m: int) -> np.ndarray:
        """All first partials of order-m jets laid out like this frame's
        arrays, the derivative index right after the point axis."""
        return partials(arr, self.n, m, axis=len(self.batch))

    def riemann_mixed_jets(self, m: int) -> np.ndarray:
        """Jets to order m (at most order - 2) of R_ab^c_d, from the Christoffel
        jets; the frame holds the value (m = 0) as ``riemann_mixed``."""
        n = self.n
        dgamma = self.partials(self.at(self.gamma, m + 1), m + 1)
        gam = self.at(self.gamma, m)
        B1 = _last(dgamma, 0, 2, 1, 3, 4)                # [a, b, c, d] = d_a Gamma^c_bd
        # gg[a, b, c, d] = Gamma^c_ar Gamma^r_bd
        left = _last(gam, 1, 0, 2, 3)[..., :, None, :, None, :, :]          # [a, ., c, ., r]
        right = _last(gam, 1, 2, 0, 3)[..., None, :, None, :, :, :]         # [., b, ., d, r]
        gg = contract(left, right, n, m)
        return B1 - _last(B1, 1, 0, 2, 3, 4) + gg - _last(gg, 1, 0, 2, 3, 4)

    def _ricci_rows(self, m: int) -> np.ndarray:
        """rows[r, b, d] = R_rb^r_d to jet order m >= 1: the terms of
        ``riemann_mixed_jets`` at the trace indices, each formed alone."""
        n = self.n
        gam1, gam = self.at(self.gamma, m + 1), self.at(self.gamma, m)
        (rb, rb_fac), (br, br_fac) = _trace_partials(n, m + 1)
        d_rb = gam1[(...,) + rb] * rb_fac               # d_r Gamma^r_bd
        d_br = gam1[(...,) + br] * br_fac               # d_b Gamma^r_rd
        diag = np.arange(n)
        below = _last(gam, 1, 2, 0, 3)                   # [b, d, s] = Gamma^s_bd
        gg_rb = contract(gam[..., diag, diag, :, :][..., :, None, None, :, :],   # Gamma^r_rs
                         below[..., None, :, :, :, :], n, m)
        gg_br = contract(gam[..., :, :, None, :, :],    # [r, b, ., s] = Gamma^r_bs
                         below[..., :, None, :, :, :], n, m)
        # in C order: Ricci keeps the layout of the rows, and Sc contracted
        # from a strided Ricci would be summed in another order
        return np.ascontiguousarray(d_rb - d_br + gg_rb - gg_br)

    def riemann_and_weyl(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Jets to order m (at most order - 2) of R_abcd and of the Weyl tensor."""
        R = self._riemann_jets(m)
        return R, self._weyl_jets(R, m)

    def _riemann_jets(self, m: int) -> np.ndarray:
        # R_abcd = g_ce R_ab^e_d
        rm = self.riemann_mixed if m == 0 else self.riemann_mixed_jets(m)
        return contract(self.at(self.g, m)[..., None, None, :, None, :, :],
                        _last(rm, 0, 1, 3, 2, 4)[..., :, :, None, :, :, :], self.n, m)

    def _weyl_jets(self, R: np.ndarray, m: int) -> np.ndarray:
        # R = W + g_ca P_bd - g_cb P_ad + g_db P_ac - g_da P_bc; with
        # t[a, b, c, d] = g_ac P_bd and g symmetric the last three terms are
        # transposes of the first
        g, P = self.at(self.g, m), self.at(self.schouten, m)
        t = conv(g[..., :, None, :, None, :], P[..., None, :, None, :, :], self.n, m)
        return (R - t + _last(t, 1, 0, 2, 3, 4)
                - _last(t, 1, 0, 3, 2, 4) + _last(t, 0, 1, 3, 2, 4))

    def cov_deriv(self, T: np.ndarray, rank: int, m: int) -> np.ndarray:
        """Covariant derivative of a covariant rank-k jet tensor:
        out[a, ...] = nabla_a T.

        The derivative index goes just before T's own indices, so leading
        axes of T batch: a frame's point axis, or a stack of tensors at a
        frame of one point.
        """
        out = partials(T, self.n, m, axis=T.ndim - rank - 1)
        G = self.at(self.gamma, m - 1)
        Tm = self.at(T, m - 1)
        rest = (None,) * (rank - 1)                       # the other indices of T
        # [a, i, r] = Gamma^r_ai
        left = _last(G, 1, 2, 0, 3)[(..., slice(None), slice(None)) + rest
                                    + (slice(None), slice(None))]
        for k in range(rank):
            # (1, 1, other indices, r, C): T's index k moved next to the coefficients
            others = [i for i in range(rank) if i != k]
            rx = _last(Tm, *others, k, rank)[(..., None, None) + (slice(None),) * (rank + 1)]
            acc = contract(left, rx, self.n, m - 1)      # (a, i, other indices, C)
            out -= _last(acc, 0, *range(2, 2 + k), 1, *range(2 + k, rank + 2))
        return out

    def scalar_jet(self, node, m: int | None = None) -> np.ndarray:
        """Evaluate an expression as a coefficient array at this frame's
        point, or as a (P, C) stack at the points of a batch."""
        m = self.order if m is None else m
        env = jets.seed_jets(self.point, m)
        return expr.evaluate(node, env)


@lru_cache(maxsize=None)
def _permutations(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n! permutations of range(n) as rows, identity first, and their signs."""
    perms = np.array(list(itertools.permutations(range(n)))).reshape(-1, n)
    a, b = upper_pairs(n, 1)
    signs = 1.0 - 2.0 * ((perms[:, a] > perms[:, b]).sum(axis=1) % 2)
    perms.flags.writeable = signs.flags.writeable = False
    return perms, signs


def _volume_entries(fr: CurvatureFrame) -> np.ndarray:
    """``eps`` at the rows of ``_permutations(n)``: (n!,) at a frame of one
    point, (P, n!) at a batch."""
    root = np.sqrt(np.abs(np.linalg.det(fr.values(fr.g))))
    return root[..., None] * _permutations(fr.n)[1]


def volume_form(fr: CurvatureFrame) -> np.ndarray:
    """``eps = sqrt(|det g|) * permutation symbol`` at a frame of one point,
    as the dense n^n array."""
    eps = np.zeros((fr.n,) * fr.n)
    eps[tuple(_permutations(fr.n)[0].T)] = _volume_entries(fr)
    return eps


def check_conventions(fr: CurvatureFrame) -> CurvatureFrame:
    """Run the convention self-checks at every point of a frame or batch, as
    one (point, check) table, and return the frame; the first point that
    fails raises ``ConventionError`` naming the checks it fails."""
    n, nfac = fr.n, math.factorial(fr.n)
    g, ginv, R, ricci, W = map(fr.values, (fr.g, fr.ginv, fr.riemann, fr.ricci, fr.weyl))
    sc, j = fr.sc[..., 0], fr.j[..., 0]
    ric_ref = (n - 2) * fr.values(fr.schouten) + j[..., None, None] * g
    rnorm = np.maximum(norms(R, 4), 1e-30)
    # W is computed from R, so its roundoff scales with |R|; in n = 3 it
    # vanishes identically and is pure roundoff
    wnorm = norms(W, 4)
    trace_axes = ((0, 2), (0, 3), (1, 2), (1, 3))

    def trace(axes):
        traced = "".join("abcd"[k] for k in axes)
        rest = "".join(c for c in "abcd" if c not in traced)
        return norms(np.einsum(f"...{traced},...abcd->...{rest}", ginv, W), 2)

    traces = (np.stack([trace(axes) for axes in trace_axes], axis=-1)
              > 1e-9 * np.maximum(wnorm, rnorm)[..., None])
    # eps^I eps_I over the n! tuples I where eps is nonzero is n! eps^{0..n-1}
    # eps_{0..n-1} by antisymmetry, with eps^{0..n-1} = sum_J g^{0 J_0}...g^{n-1 J_{n-1}} eps_J
    # (a point at a time: the n! x n gather of all points at once grows as P n! n)
    eps = _volume_entries(fr).reshape(-1, nfac)
    perms = _permutations(n)[0]
    eps_up = [np.prod(gi[np.arange(n), perms], axis=1) @ e
              for gi, e in zip(ginv.reshape(-1, n, n), eps)]
    total = (nfac * np.array(eps_up) * eps[:, 0]).reshape(fr.batch)
    det_sign = np.where(np.linalg.det(g) > 0, 1.0, -1.0)
    checks = (
        ("Ric != (n-2) P + J g",
         norms(ricci - ric_ref, 2) > 1e-9 * np.maximum(norms(ricci, 2), 1.0)),
        ("Sc != 2 (n-1) J", np.abs(sc - 2 * (n - 1) * j) > 1e-10 * np.maximum(1.0, np.abs(sc))),
        ("Riemann not antisymmetric in the first pair",
         norms(R + _last(R, 1, 0, 2, 3), 4) > 1e-9 * rnorm),
        ("Riemann not antisymmetric in the last pair",
         norms(R + _last(R, 0, 1, 3, 2), 4) > 1e-9 * rnorm),
        ("Riemann not pair symmetric", norms(R - _last(R, 2, 3, 0, 1), 4) > 1e-9 * rnorm),
        ("algebraic Bianchi identity fails",
         norms(R + _last(R, 1, 2, 0, 3) + _last(R, 2, 0, 1, 3), 4) > 1e-9 * rnorm),
        ("Weyl trace over axes {axes} nonzero", traces.any(axis=-1)),
        ("Weyl tensor nonzero in dimension 3", (n == 3) & (wnorm > 1e-9 * rnorm)),
        ("eps normalization off: eps.eps = {total}", np.abs(np.abs(total) - nfac) > 1e-9 * nfac),
        ("eps self-contraction sign does not match sign(det g)",
         np.abs(total - det_sign * nfac) > 1e-9 * nfac),
    )
    failed = np.stack([bad for _, bad in checks], axis=-1).reshape(-1, len(checks))
    if failed.any():
        i = int(np.flatnonzero(failed.any(axis=1))[0])
        at = {"axes": trace_axes[int(np.argmax(traces.reshape(-1, 4)[i]))],
              "total": float(total.reshape(-1)[i])}
        raise ConventionError(
            f"curvature self-checks failed for {fr.spec.label!r} at "
            f"{(fr.point if fr.batch else (fr.point,))[i]}: "
            + "; ".join(what.format(**at) for (what, _), bad in zip(checks, failed[i]) if bad)
        )
    return fr


# ---------------------------------------------------------------------------
# conformal rescaling

def rescale_metric(spec: MetricSpec, omega: expr.Node) -> MetricSpec:
    """Same chart with components omega^2 g_ab; omega must be positive.  omega is
    evaluated once at all check points, and omega^2 simplified once: the
    components are simplified already, so each product needs one fold."""
    pts = geometry.sample_points(spec, 12, seed=20)
    with np.errstate(over="ignore", invalid="ignore"):
        values = expr.evaluate(omega, jets.seed_jets(pts, 1))[..., 0]
    for pt, value in zip(pts, values):
        if value <= 0.0:
            raise ValueError(f"rescale factor is not positive at {geometry.format_point(pt)}")
    w2 = expr.simplify(expr.Pow(omega, 2))
    comps = tuple(
        tuple(expr.fold(expr.Bin("*", w2, e)) for e in row) for row in spec.components
    )
    return replace(spec, components=comps, label=f"{spec.label}|rescaled")


def transform_reference(fr: CurvatureFrame, omega: expr.Node) -> tuple[float, np.ndarray, float]:
    """omega's value, and the Schouten tensor and J of omega^2 g by the
    transformation laws, at a frame of one point: with Upsilon = d log omega,
    P-hat = P - nabla Upsilon + Upsilon Upsilon - |Upsilon|^2 g / 2 and
    J-hat = (J - div Upsilon - (n/2 - 1) |Upsilon|^2) / omega^2."""
    n = fr.n
    w = fr.scalar_jet(omega, 2)
    ups = jets.gradient(w, n) / w[0]
    g, ginv = fr.values(fr.g), fr.values(fr.ginv)
    # nabla_a Upsilon_b = d_a d_b log omega - Gamma^r_ab Upsilon_r
    cov_ups = (jets.hessian(w, n) / w[0] - np.outer(ups, ups)
               - np.einsum("rab,r->ab", fr.values(fr.gamma), ups))
    # |Upsilon|^2 is summed over g^ab Upsilon_b for P-hat and over Upsilon_a g^ab
    # for J-hat; the two orders differ in the last bits, and reports keep both
    p_hat = (fr.values(fr.schouten) - cov_ups + np.outer(ups, ups)
             - 0.5 * float(ups @ (ginv @ ups)) * g)
    div_ups = float(np.einsum("ab,ab->", ginv, cov_ups))
    j_hat = (float(fr.j[0]) - div_ups - (n / 2 - 1) * float(ups @ ginv @ ups)) / w[0] ** 2
    return float(w[0]), p_hat, j_hat


def dual_cotton_3d(fr: CurvatureFrame, orientation: int = 1) -> np.ndarray:
    """Three-dimensional Cotton dual Y_ars eps^{rs}_b as a (0,2) tensor, at a
    frame of one point and order >= 3.

    ``orientation=+1`` uses the coordinate-order volume form; ``-1`` flips it.
    """
    if fr.n != 3:
        raise ValueError("the Cotton dual is a 3-dimensional construction")
    eps = orientation * volume_form(fr)
    ginv = fr.values(fr.ginv)
    eps_mixed = np.einsum("rsb,ri,sj->ijb", eps, ginv, ginv)  # eps^{ij}_b
    return np.einsum("ars,rsb->ab", fr.values(fr.cotton), eps_mixed)


# ---------------------------------------------------------------------------
# divergence identity

def bianchi_check(f: CurvatureFrame) -> float:
    """Residual of (n-3) Y_cab = div^r W_rcab (covariant divergence via jets)
    at a frame of one point and order >= 3."""
    if f.n < 4:
        raise ValueError("the divergence identity check needs n >= 4")
    if f.order < 3:
        raise ValueError("the divergence identity check needs a frame of order >= 3")
    _, weyl = f.riemann_and_weyl(f.order - 2)
    covW = f.cov_deriv(weyl, 4, f.order - 2)            # [s, r, c, a, b]
    div = np.einsum("sr,srcab->cab", f.values(f.ginv), covW[..., 0])
    y = f.values(f.cotton)
    return frobenius((f.n - 3) * y - div)


# ---------------------------------------------------------------------------
# warped-product reference formulas (independent oracles for the jet pipeline)

def _warp_data(ws: WarpedSpec, point):
    nb = ws.base.n
    x = np.asarray(point[:nb], dtype=float)
    signs = np.array(ws.base_signs)
    norm_sq = float(signs @ (x * x))
    f = ws.a + ws.b * norm_sq
    df = 2.0 * ws.b * signs * x                 # (df)_a as a covector
    hess = 2.0 * ws.b * np.diag(signs)          # nabla-bar nabla-bar f
    lap = 2.0 * nb * ws.b                       # gbar-trace of hess
    df_sq = 4.0 * ws.b ** 2 * norm_sq           # g(df, df)
    return f, df, hess, lap, df_sq, signs


def warped_ricci_reference(ws: WarpedSpec, point) -> tuple[np.ndarray, float]:
    """Closed-form Ricci and scalar curvature of a pseudo-Euclidean x 4d warp."""
    nb, nf = ws.base.n, ws.fiber.n
    f, df, hess, lap, df_sq, signs = _warp_data(ws, point)
    fiber = check_conventions(CurvatureFrame(ws.fiber, tuple(point[nb:]), 3))
    gt = fiber.values(fiber.g)
    ric_fiber = fiber.values(fiber.ricci)

    ric = np.zeros((nb + nf, nb + nf))
    ric[:nb, :nb] = -nf / f * hess
    ric[nb:, nb:] = ric_fiber - (f * lap + (nf - 1) * df_sq) * gt
    sc_fiber = float(fiber.sc[0])
    sc = sc_fiber / f ** 2 - 2 * nf * lap / f - nf * (nf - 1) * df_sq / f ** 2
    return ric, sc


def warped_nabla_reference(ws: WarpedSpec, point, vector: np.ndarray,
                           covector: np.ndarray):
    """The four displayed covariant-derivative lines for constant-component inputs.

    Returns (nabla_vector, nabla_covector): arrays [A, B] with A the derivative
    direction, for the warped metric, assembled from base/fiber quantities.
    """
    nb, nf = ws.base.n, ws.fiber.n
    n = nb + nf
    f, df, hess, lap, df_sq, signs = _warp_data(ws, point)
    fiber = check_conventions(CurvatureFrame(ws.fiber, tuple(point[nb:]), 3))
    gt = fiber.values(fiber.g)
    gamma_t = fiber.values(fiber.gamma)
    gbar_inv = np.diag(signs)                   # inverse equals itself for +-1 diagonal
    df_up = gbar_inv @ df

    vb, vf = vector[:nb], vector[nb:]
    nab_v = np.zeros((n, n))
    # base direction a: (nabla-bar_a v^b, f^-1 (df)_a v^beta); nabla-bar of constants = 0
    for a in range(nb):
        nab_v[a, nb:] = df[a] / f * vf
    # fiber direction alpha: (-f^-1 v_alpha (df)^b, Gamma-tilde v + f^-1 v^r (df)_r delta)
    v_low_fiber = f ** 2 * (gt @ vf)
    vdf = float(vb @ df)
    for al in range(nf):
        nab_v[nb + al, :nb] = -v_low_fiber[al] / f * df_up
        nab_v[nb + al, nb:] = gamma_t[:, al, :] @ vf + vdf / f * np.eye(nf)[al]

    pb, pf = covector[:nb], covector[nb:]
    nab_p = np.zeros((n, n))
    for a in range(nb):
        nab_p[a, nb:] = -df[a] / f * pf
    p_up_base = gbar_inv @ pb
    pdf = float(p_up_base @ df)
    for al in range(nf):
        nab_p[nb + al, :nb] = -df / f * pf[al]
        nab_p[nb + al, nb:] = -gamma_t[:, al, :].T @ pf + f * pdf * gt[al]
    return nab_v, nab_p
