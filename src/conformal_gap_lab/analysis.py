"""Executable versions of the dimension claims.

Residual checks for almost Einstein scales and (normal) conformal Killing
fields, the skew pairing that turns two scales into a normal Killing field,
pointwise Weyl kernels with their signature bounds, constraint-based
upper/lower estimation of d_aE and d_ncK, and the family verifiers for the
warped-product constructions.  A vector field is carried as the (n, C_1)
array of order-1 jets of its components at a point: wedge fields are built
from the scale jets and the inverse-metric jets of the order-2 frame.

Upper bounds come from the infinitesimal holonomy algebra at the basepoint:
the values there of the tractor curvature Omega_ab and of its covariant
derivatives, read from one jet frame (``JET_ORDER``).  Each of them
annihilates every parallel tractor, so their joint kernel bounds d_aE, and
the joint kernel of their derived action on two-vectors bounds d_ncK.  Both
kernels are taken from an orthonormal basis of the span of those values,
which one rank cut gives: a few matrices in place of hundreds.  For
real-analytic metrics, such as the catalogue and the metric-file grammar
produce, this algebra is the holonomy algebra (Kobayashi-Nomizu I, II.10).
Lower bounds come from residual-verified witnesses, which must lie in those
kernels.  A report is exact when the two sides meet and every rank decision
survives scaling the tolerance by 10 either way.

Every function here reads curvature from a frame its caller passes: a
``curvature.CurvatureFrame`` at one point or at a batch of points.
Readers take a frame of any order at or above the one they need (witness
tractors read the ``JET_ORDER`` frame); ``estimate_parallel_dims`` and the
family verifiers build every frame they use once and hand it down, and read
values from it (``float(fr.sc[0])``).  Without an upper bound nothing is
built or read at the basepoint.

Witness checks run on a batch of frames (point axis first): each known
scale is evaluated once at all check points, as one (S, P, C_2) stack of
jets, and the almost-Einstein residuals of all scales, the wedge fields of
all verified pairs and their Killing/normality residuals come from batched
cores on that stack (leading axes batch, as in ``jets``; the frame's point
axis is the last of them).  The family verifiers check their scales, and
J and Sc of their rescaled metrics, the same way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import curvature, expr, geometry, jets, tractor
from .curvature import frobenius, norms
from .geometry import MetricSpec


class AnalysisError(RuntimeError):
    """A claimed bound is violated or an estimate is inconsistent."""


JET_ORDER = 4      # basepoint frame of the upper bound: values of Omega and nabla Omega
FLAT_RATIO = 1e-9  # chain values below this times the terms that cancel in Omega are roundoff
RANK_TOL = 1e-7    # a singular value counts when above this times the largest entry
RESIDUAL_TOL = 1e-8  # a witness is verified when its residuals are below this


# ---------------------------------------------------------------------------
# numerical kernels

@dataclass
class Subspace:
    """An orthonormal basis (dim, ambient) of a subspace; ``complement``, when
    given, is an orthonormal basis of its orthogonal complement."""

    basis: np.ndarray
    marginal: bool = False
    complement: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]

    def contains(self, v: np.ndarray):
        """Whether v lies in the subspace up to 1e-8 relative to |v| (v = 0 does,
        a non-finite v does not), checked on v / max |v_i| so no norm overflows.
        A stack (..., ambient) of vectors gives one bool per vector, from one
        projection."""
        v = np.asarray(v, dtype=float)
        finite = np.isfinite(v).all(axis=-1)
        v = np.where(finite[..., None], v, 0.0)      # a non-finite vector is outside
        top = np.abs(v).max(axis=-1, initial=0.0)
        v = v / np.where(top > 0.0, top, 1.0)[..., None]
        off = v - (v @ self.basis.T) @ self.basis
        inside = finite & (norms(off, 1) <= 1e-8 * norms(v, 1))
        return inside if inside.ndim else bool(inside)


def kernel(matrix) -> Subspace:
    """Null space from one SVD, flagged marginal if the rank moves when
    ``RANK_TOL`` is scaled by 10 either way; its rank is ambient_dim - dim,
    and its complement is the row space of the matrix."""
    A = np.atleast_2d(np.asarray(matrix, dtype=float))
    if A.size == 0:
        raise ValueError("kernel of an empty matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("kernel needs finite entries")
    m, k = A.shape
    _, s, vt = np.linalg.svd(A, full_matrices=m < k)
    cut = np.abs(A).max()
    rank, *others = [int(np.sum(s > t * cut))
                     for t in (RANK_TOL, RANK_TOL * 10, RANK_TOL / 10)]
    return Subspace(basis=vt[rank:], marginal=any(r != rank for r in others),
                    complement=vt[:rank])


# ---------------------------------------------------------------------------
# signature-dependent bounds

def signature_class(sig: tuple[int, int]) -> str:
    p, q = min(sig), max(sig)
    if p == 0:
        return "riemannian"
    if p == 1:
        return "lorentzian"
    return "general"


def weyl_kernel_bound(sig: tuple[int, int], n: int) -> int:
    return {"riemannian": n - 4, "lorentzian": n - 3, "general": n - 2}[signature_class(sig)]


def ae_dim_bound(sig: tuple[int, int], n: int) -> int:
    return {"riemannian": n - 3, "lorentzian": n - 2, "general": n - 1}[signature_class(sig)]


def nck_dim_bound(sig: tuple[int, int], n: int) -> int:
    k = ae_dim_bound(sig, n) - 1
    return k * (k + 1) // 2


# ---------------------------------------------------------------------------
# pointwise residuals

def kernel_of_weyl(fr: curvature.CurvatureFrame) -> Subspace | list[Subspace]:
    """Null space of W_abcr v^r at each point of a frame: one ``Subspace`` at
    a frame of one point, a list of them, point by point, at a batch.
    Enforces the signature bound where W != 0; the first point that
    violates it raises."""
    spec, n = fr.spec, fr.n
    if n < 4:
        raise ValueError("the Weyl kernel is defined for n >= 4")
    W = fr.values(fr.weyl).reshape(-1, n ** 3, n)
    bound = weyl_kernel_bound(spec.signature, n)
    spaces = []
    for w, point, size in zip(W, fr.point if fr.batch else (fr.point,), norms(W, 2)):
        ksp = kernel(w)
        if size > 1e-6 and ksp.dim > bound:
            raise AnalysisError(
                f"Weyl kernel dimension {ksp.dim} exceeds the signature bound "
                f"{bound} for {spec.label!r} at {geometry.format_point(point)}"
            )
        spaces.append(ksp)
    return spaces if fr.batch else spaces[0]


def _scale_terms(fr: curvature.CurvatureFrame, s: np.ndarray):
    """(values, gradients, covariant Hessians) of scale jets s (..., C_2) at the frame's point."""
    grad = jets.gradient(s, fr.n)
    hess = jets.hessian(s, fr.n) - np.einsum("...rab,...r->...ab", fr.values(fr.gamma), grad)
    return s[..., 0], grad, hess


def ae_residuals(fr: curvature.CurvatureFrame, s: np.ndarray) -> np.ndarray:
    """Trace-free parts (..., n, n) of (Hess sigma + P sigma) for scale jets s (..., C_2)."""
    val, _, hess = _scale_terms(fr, s)
    H = hess + fr.values(fr.schouten) * val[..., None, None]
    trace = np.einsum("...ab,...ab->...", fr.values(fr.ginv), H)
    return H - (trace / fr.n)[..., None, None] * fr.values(fr.g)


def killing_terms(fr: curvature.CurvatureFrame, k: np.ndarray):
    """For field jets k (..., n, C_1): nabla_a k^b (..., n, n) and the
    conformal-Killing, normality and (n = 3) first-index normality residuals
    (...), the last None for n >= 4.

    Normality is |W_abcr k^r| for n >= 4; for n = 3 it is the Cotton
    contraction on the last index, and the frame must be of order 3 or more.
    """
    n = fr.n
    kv, dk = k[..., 0], np.swapaxes(jets.gradient(k, n), -1, -2)  # [a, b] = d_a k^b
    g = fr.values(fr.g)
    nab_up = dk + np.einsum("...bar,...r->...ab", fr.values(fr.gamma), kv)   # nabla_a k^b
    nab_low = nab_up @ g                                                # nabla_a k_b
    sym = 0.5 * (nab_low + np.swapaxes(nab_low, -1, -2))
    div = np.trace(nab_up, axis1=-2, axis2=-1)
    ck = norms(sym - (div / n)[..., None, None] * g, 2)
    if n >= 4:
        W = fr.values(fr.weyl)
        return nab_up, ck, norms(np.einsum("...abcr,...r->...abc", W, kv), 3), None
    Y = fr.values(fr.cotton)
    return (nab_up, ck, norms(np.einsum("...cab,...b->...ca", Y, kv), 2),
            norms(np.einsum("...cab,...c->...ab", Y, kv), 2))


def wedge_jets(fr: curvature.CurvatureFrame, s: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """Order-1 jets (..., n, C_1) of k^a = g^{ab} (sigma d_b sigma_bar - sigma_bar d_b sigma)
    for scale jets s, sb (..., C_2) at an order-2 frame."""
    n = fr.n
    ds, dsb = (np.moveaxis(jets.partials(f, n, 2), 0, -2) for f in (s, sb))   # (..., n, C_1)
    k_low = (jets.conv(fr.at(s, 1)[..., None, :], dsb, n, 1)
             - jets.conv(fr.at(sb, 1)[..., None, :], ds, n, 1))
    return jets.contract(fr.at(fr.ginv, 1), k_low[..., None, :, :], n, 1)


def bracket_closure_residual(fields: np.ndarray) -> float:
    """Largest relative least-squares residual of [k_i, k_j] against span{k_m},
    for order-1 jets ``fields`` (m, P, n, C_1) of m fields at P points."""
    m, P, n, _ = fields.shape
    if m < 2:
        return 0.0
    vals = fields[..., 0]                                        # (m, P, n)
    # D[i, j, p, b] = k_i^r d_r k_j^b at point p
    D = np.einsum("ipr,jpbr->ijpb", vals, jets.gradient(fields, n))
    K = vals.reshape(m, P * n).T                                 # (P n, m)
    worst = 0.0
    for i, j in itertools.combinations(range(m), 2):
        b = (D[i, j] - D[j, i]).ravel()
        coeffs, *_ = np.linalg.lstsq(K, b, rcond=None)
        res = float(np.linalg.norm(K @ coeffs - b)) / max(1.0, float(np.linalg.norm(b)))
        worst = max(worst, res)
    return worst


# ---------------------------------------------------------------------------
# scale-curvature bookkeeping

def j_of_scale(fr: curvature.CurvatureFrame, s: np.ndarray) -> np.ndarray:
    """J (...) of sigma^-2 g via -(n/2) g(ds,ds) + sigma Lap sigma + J sigma^2,
    for scale jets s (..., C_2)."""
    val, grad, hess = _scale_terms(fr, s)
    ginv = fr.values(fr.ginv)
    lap = np.einsum("...ab,...ab->...", ginv, hess)
    ds_sq = (grad[..., None, :] @ ginv @ grad[..., :, None])[..., 0, 0]
    return -fr.n / 2 * ds_sq + val * lap + fr.j[..., 0] * val * val


def sc_of_scale(fr: curvature.CurvatureFrame, s: np.ndarray) -> np.ndarray:
    """Scalar curvature (...) of sigma^-2 g for scale jets s (..., C_2); Sc = 2 (n-1) J."""
    return 2.0 * (fr.n - 1) * j_of_scale(fr, s)


def sc_of_scale_direct(spec: MetricSpec, sigma: expr.Node, point) -> float:
    """Scalar curvature of sigma^-2 g by actually rescaling (sigma > 0 needed)."""
    omega = expr.div(expr.ONE, sigma)
    hatted = curvature.rescale_metric(spec, omega)
    fr = curvature.check_conventions(curvature.CurvatureFrame(hatted, point, 3))
    return float(fr.sc[0])


# ---------------------------------------------------------------------------
# induced actions on the adjoint (two-form) tractor bundle

# two-vectors are stored by their components A[i, j], i < j, row by row
# (the order of curvature.upper_pairs)

def derived_lambda2(X: np.ndarray) -> np.ndarray:
    """Algebra-level action on two-vectors, X.(u^v) = Xu^v + u^Xv, batched.

    Column (k, l) is the action on e_k^e_l, read off at the pairs (i, j):
    X_ik d_jl - X_il d_jk + d_ik X_jl - d_il X_jk.
    """
    rows, cols = curvature.upper_pairs(X.shape[-1], 1)
    i, j = rows[:, None], cols[:, None]
    k, l = rows[None, :], cols[None, :]
    d = np.eye(X.shape[-1])
    return (X[..., i, k] * d[j, l] - X[..., i, l] * d[j, k]
            + d[i, k] * X[..., j, l] - d[i, l] * X[..., j, k])


def wedge_vector(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The two-vector u^v, batched over leading axes of u and v."""
    A = u[..., :, None] * v[..., None, :] - v[..., :, None] * u[..., None, :]
    return A[(...,) + curvature.upper_pairs(u.shape[-1], 1)]


# ---------------------------------------------------------------------------
# dimension reports

@dataclass
class DimReport:
    label: str
    basepoint: tuple
    seed: int
    rank_tol: float
    residual_tol: float
    jet_order: int | None = None
    d_ae_lower: int = 0
    d_ae_upper: int = -1
    d_nck_lower: int = 0
    d_nck_upper: int = -1
    exact_ae: bool = False
    exact_nck: bool = False
    marginal: bool = False
    constraint_rank_standard: int = 0
    constraint_rank_adjoint: int = 0
    ae_witnesses: list = field(default_factory=list)
    nck_witnesses: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "basepoint": list(self.basepoint),
            "seed": self.seed,
            "rank_tol": self.rank_tol,
            "residual_tol": self.residual_tol,
            "jet_order": self.jet_order,
            "d_ae": {
                "lower": self.d_ae_lower,
                "upper": self.d_ae_upper,
                "exact": self.exact_ae,
            },
            "d_nck": {
                "lower": self.d_nck_lower,
                "upper": self.d_nck_upper,
                "exact": self.exact_nck,
            },
            "marginal": self.marginal,
            "constraint_ranks": {
                "standard": self.constraint_rank_standard,
                "adjoint": self.constraint_rank_adjoint,
            },
            "ae_witnesses": list(self.ae_witnesses),
            "nck_witnesses": list(self.nck_witnesses),
            "notes": list(self.notes),
        }


def holonomy_constraints(fr: curvature.CurvatureFrame) -> tuple[np.ndarray, float]:
    """Curvature-chain values at a frame's point, and the size of what cancels in them.

    Returns the (count, n + 2, n + 2) values of Omega_ab and of its covariant
    derivatives to order K - 3 from a frame of one point and order K (the
    certificate reads a ``JET_ORDER`` frame), and max(|d A(p)|, |A(p)|^2),
    the size of the terms that cancel to form Omega.
    """
    X = np.concatenate(tractor.curvature_chain(fr, fr.order - 2))
    A = tractor.connection_jets(fr, 1)
    cancel = max(np.abs(jets.gradient(A, fr.n)).max(), np.abs(A[..., 0]).max() ** 2)
    return X, cancel


def constraint_kernels(fr: curvature.CurvatureFrame) -> tuple[Subspace, Subspace]:
    """Joint kernels of the holonomy constraints on the standard fiber and on
    its two-vectors (the derived action).

    Chain values or a cancel size that are not finite raise ``DomainError``.
    When every constraint is at most ``FLAT_RATIO`` times the terms that
    cancel to form it, both kernels are the whole space: the flat-model
    bounds.  Otherwise one ``kernel`` of the (count, (n + 2)^2) chain values,
    cut relative to the largest entry over all levels, gives an orthonormal
    basis of their span, the algebra hol_p (dimension 3 to 7 on the
    catalogue, against 105 values at n = 6).  The kernel of a set is the
    kernel of its span and the derived action is linear, so both kernels are
    taken from the basis matrices alone; a marginal span marks both marginal.
    Their cuts are relative to the orthonormal basis, not to the raw values:
    a weak direction of the algebra counts at full weight once it passes the
    span cut, where a cut on the raw values' rows could drop its action.
    """
    nb = fr.n + 2
    pairs = nb * (nb - 1) // 2
    with np.errstate(over="ignore", invalid="ignore"):
        X, cancel = holonomy_constraints(fr)
    if not (np.isfinite(X).all() and np.isfinite(cancel)):
        raise geometry.DomainError(
            f"curvature chain of {fr.spec.label!r} is not finite at the basepoint "
            f"{geometry.format_point(fr.point)}")
    if np.abs(X).max() <= FLAT_RATIO * cancel:
        return Subspace(np.eye(nb)), Subspace(np.eye(pairs))
    algebra = kernel(X.reshape(len(X), nb * nb))
    H = algebra.complement.reshape(-1, nb, nb)
    standard = kernel(H.reshape(-1, nb))
    adjoint = kernel(derived_lambda2(H).reshape(-1, pairs))
    standard.marginal |= algebra.marginal
    adjoint.marginal |= algebra.marginal
    return standard, adjoint


def estimate_parallel_dims(spec: MetricSpec, basepoint=None, *, seed: int = 0,
                           upper: bool = True) -> DimReport:
    """Bounds for the dimensions of parallel standard / adjoint tractors.

    Upper bounds: the dimensions of ``constraint_kernels`` at the basepoint,
    read from one ``JET_ORDER`` frame built there, at which the witnesses'
    order-3 jets give their Einstein tractors.  Lower bounds: independent
    residual-verified witnesses, which must lie in those kernels; a curvature
    chain or a verified scale that is not finite at the basepoint raises
    ``DomainError``.
    ``upper=False`` skips the constraints and reports witness counts against
    the flat-model upper bounds n + 2 and (n + 2)(n + 1)/2; it builds no
    frame at the basepoint, and reads no scale there.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if basepoint is None:
        basepoint = geometry.default_point(spec)
    basepoint = tuple(float(c) for c in basepoint)
    geometry.require_point(spec, basepoint)
    n = spec.n
    nb = n + 2
    report = DimReport(
        label=spec.label, basepoint=basepoint, seed=seed,
        rank_tol=RANK_TOL, residual_tol=RESIDUAL_TOL,
        notes=list(spec.notes),
    )

    standard = Subspace(np.eye(nb))
    adjoint = Subspace(np.eye(nb * (nb - 1) // 2))
    base = None
    if upper:
        report.jet_order = JET_ORDER
        with np.errstate(over="ignore", invalid="ignore"):
            base = curvature.CurvatureFrame(spec, basepoint, JET_ORDER)
        standard, adjoint = constraint_kernels(base)
        if standard.dim == nb:      # a nonzero constraint has rank >= 1
            report.notes.append("curvature vanishes to roundoff at the basepoint; "
                                "flat-model upper bounds")
    report.d_ae_upper = standard.dim
    report.d_nck_upper = adjoint.dim
    report.constraint_rank_standard = nb - standard.dim
    report.constraint_rank_adjoint = adjoint.ambient_dim - adjoint.dim
    report.marginal = standard.marginal or adjoint.marginal

    # lower bounds from verified witnesses
    if spec.known_scales:
        _witnesses(spec, base, seed, standard, adjoint, report)

    if report.d_ae_lower > report.d_ae_upper or report.d_nck_lower > report.d_nck_upper:
        raise AnalysisError(
            f"inconsistent bounds for {spec.label!r}: "
            f"aE [{report.d_ae_lower}, {report.d_ae_upper}], "
            f"ncK [{report.d_nck_lower}, {report.d_nck_upper}]"
        )
    k = report.d_ae_lower
    if report.d_nck_lower < k * (k - 1) // 2:
        report.notes.append(
            "wedge witnesses are fewer than the skew pairing guarantees"
        )
    report.exact_ae = (report.d_ae_lower == report.d_ae_upper) and not report.marginal
    report.exact_nck = (report.d_nck_lower == report.d_nck_upper) and not report.marginal
    return report


def _witnesses(spec: MetricSpec, base: curvature.CurvatureFrame | None, seed: int,
               standard: Subspace, adjoint: Subspace, report: DimReport) -> None:
    """Verify the known scales and the wedges of verified pairs, and record the
    ranks of their tractors as the lower bounds.

    ``base`` is the ``JET_ORDER`` frame at the basepoint, or None when no
    upper bound was taken (nothing is then built or checked there).  The frames
    at the check points are one batch, of order 2, or of order 3 at n = 3,
    where normality reads Cotton.  Each scale is evaluated there once, as a
    (point, C_2) stack; the AE residuals of all scales, and the wedge fields
    and Killing/normality residuals of all pairs of verified scales at every
    check point, come from one batched call each.  The parallel residuals of
    all scales and the Einstein tractors of the verified ones are batched
    ``tractor`` calls on the scales' order-3 jets at an order-3 frame built
    at the first check point, and the lower bounds are the ranks of those
    tractors and of their wedges: parallel tractors have the same rank at
    every point, and no scale there is far from 1.
    Containment in the constraint kernels is checked on the Einstein tractors
    at the basepoint (their values, from the order-2 prefix of the scales'
    order-3 jets there), each divided by its largest entry, so neither they
    nor their wedges overflow however far the basepoint lies; all tractors of
    a bundle in one projection.
    """
    names = [name for name, _ in spec.known_scales]
    sigmas = [sigma for _, sigma in spec.known_scales]
    check_pts = geometry.sample_points(spec, 6, seed=seed + 2)

    fr = curvature.CurvatureFrame(spec, check_pts, 3 if spec.n == 3 else 2)
    S = np.stack([fr.scalar_jet(sigma, 2) for sigma in sigmas])      # (scale, point, C_2)
    res = norms(ae_residuals(fr, S), 2).max(axis=1)
    first_fr = curvature.CurvatureFrame(spec, check_pts[0], 3)
    at_first = tractor.einstein_jets(first_fr, np.stack([first_fr.scalar_jet(s) for s in sigmas]))
    par = norms(tractor.parallel_values(first_fr, at_first), 2)
    ok = (res < RESIDUAL_TOL) & (par < 10 * RESIDUAL_TOL)
    for name, r, q, passed in zip(names, res, par, ok):
        if not passed:
            report.notes.append(
                f"scale candidate {name!r} failed verification "
                f"(residual {r:.2e}, parallel {q:.2e})"
            )
    verified = np.flatnonzero(ok)
    report.ae_witnesses = [names[i] for i in verified]
    if not len(verified):
        return
    if base is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            at_base = np.stack([base.scalar_jet(sigmas[i], 3) for i in verified])
        for i, jet in zip(verified, at_base):
            if not np.all(np.isfinite(jet)):
                raise geometry.DomainError(
                    f"scale {names[i]!r} of {spec.label!r} is not finite at the basepoint "
                    f"{geometry.format_point(report.basepoint)}")
        base_vecs = tractor.einstein_jets(base, base.at(at_base, 2))[..., 0]
        base_vecs /= np.abs(base_vecs).max(axis=1, keepdims=True)
        _require_inside(standard, base_vecs, report.ae_witnesses, "standard", spec)
    vecs = at_first[verified, :, 0]
    span = kernel(vecs)
    report.d_ae_lower = span.ambient_dim - span.dim
    report.marginal |= span.marginal

    pairs = list(itertools.combinations(range(len(verified)), 2))
    if not pairs:
        return
    first, second = np.array(pairs).T
    V = S[verified]
    _, ck, normal, _ = killing_terms(fr, wedge_jets(fr, V[first], V[second]))
    worst = np.maximum(ck, normal).max(axis=1)
    kept = []
    for i, j, w in zip(first, second, worst):
        pair = f"{report.ae_witnesses[i]}^{report.ae_witnesses[j]}"
        if w < 10 * RESIDUAL_TOL:
            kept.append((i, j))
            report.nck_witnesses.append(pair)
        else:
            report.notes.append(f"wedge {pair} failed Killing/normality verification")
    if kept:
        i, j = np.array(kept).T
        if base is not None:
            _require_inside(adjoint, wedge_vector(base_vecs[i], base_vecs[j]),
                            report.nck_witnesses, "adjoint", spec)
        span = kernel(wedge_vector(vecs[i], vecs[j]))
        report.d_nck_lower = span.ambient_dim - span.dim
        report.marginal |= span.marginal


def _require_inside(space: Subspace, vectors, names, bundle: str,
                    spec: MetricSpec) -> None:
    """A verified witness outside the constraint kernel refutes the certificate;
    the first one outside is named."""
    outside = np.flatnonzero(~space.contains(vectors))
    if len(outside):
        raise AnalysisError(
            f"witness {names[outside[0]]} of {spec.label!r} lies outside the {bundle} "
            f"constraint kernel"
        )


# ---------------------------------------------------------------------------
# theorem-level verifiers

def check(checks: list, name: str, value: float, tolerance: float,
          passed: bool | None = None) -> None:
    """Record a check that passes when |value| <= tolerance, or as ``passed`` says."""
    ok = (abs(value) <= tolerance) if passed is None else passed
    checks.append({
        "name": name,
        "value": float(value),
        "tolerance": float(tolerance),
        "passed": bool(ok),
    })


def scale_law(n: int, A: float, B: float, c, signs) -> tuple[float, float]:
    """(J, Sc) = (2nAB - (n/2)<c, c>, n(n - 1)(4AB - <c, c>)) of sigma^-2 g for
    sigma = A + B|x|^2 + <c, x> on a warped product whose warp a + b|x|^2 has
    aB = -bA, with <c, c> summed over the pseudo-Euclidean base's signs."""
    cc = sum(s * ci * ci for s, ci in zip(signs, c))
    return 2 * n * A * B - n / 2 * cc, n * (n - 1) * (4 * A * B - cc)


def _member(family, coeffs) -> expr.Node:
    """sum_i coeffs_i sigma_i over the scales of a family."""
    sigma: expr.Node = expr.ZERO
    for c, (_, ast) in zip(coeffs, family):
        sigma = expr.add(sigma, expr.mul(expr.const(float(c)), ast))
    return sigma


def _uniform(rng, size):
    return rng.uniform(-1.0, 1.0, size=size)


def _family_checks(kind: str, n: int, p: int, seed: int, draw):
    """The checks every family verifier makes at 10 sample points: the AE
    residual of each scale, the family rank against ``ae_dim_bound``, and
    ``scale_law`` for the member with coefficients ``draw(rng, count)``.
    Returns (warp data, spec, checks, order-2 batch at the points)."""
    ws, spec = geometry.warped_family(kind, n, p)
    family = spec.known_scales
    checks: list = []
    fr = curvature.CurvatureFrame(spec, geometry.sample_points(spec, 10, seed=seed), 2)
    S = np.stack([fr.scalar_jet(sigma, 2) for _, sigma in family])   # (scale, point, C_2)
    worst = norms(ae_residuals(fr, S), 2).max(axis=1)
    for (name, _), w in zip(family, worst):
        check(checks, f"ae_residual[{name}]", w, 1e-7)
    # the order-1 prefix of a jet is (value, gradient)
    span = kernel(fr.at(S, 1).reshape(len(family), -1))
    rank = span.ambient_dim - span.dim
    bound = ae_dim_bound(spec.signature, n)
    check(checks, "family_rank", rank - bound, 0.5,
          passed=(rank == bound and not span.marginal))
    # the first scale is a - b|x|^2, then the base coordinates
    coeffs = draw(geometry.SeededRng(seed), len(family))
    k = coeffs[0]
    _, expected_sc = scale_law(n, k * ws.a, -k * ws.b, coeffs[1:n - 3], ws.base_signs)
    sc = sc_of_scale(fr, fr.scalar_jet(_member(family, coeffs), 2))
    check(checks, "sc_of_scale_law", np.abs(sc - expected_sc).max(),
          1e-7 * max(1.0, abs(expected_sc)))
    return ws, spec, checks, fr


def _verify_warped_solution(n: int = 6, sc: int = 48, seed: int = 0) -> dict:
    if n < 5:
        raise geometry.CatalogueError(f"warped solutions cover 5 <= n <= {jets.MAX_VARS}")
    kind = {48: "warped_fs", -48: "warped_hfs", 0: "product_ricci_flat"}
    if sc not in kind:
        raise geometry.CatalogueError("sc must be one of 48, -48, 0")
    rng = geometry.SeededRng(seed)
    # the family's base and fiber with a generic warp: any with fiber_sc = -48ab
    a = float(rng.uniform(0.6, 1.6))
    b = -sc / 48.0 / a
    ws, spec = geometry.product_over(geometry.builtin_metric(geometry.FAMILIES[kind[sc]][0]),
                                     0, n - 4, a, b, label=f"warpedSol_n{n}_sc{sc}")
    checks: list = []
    points = geometry.sample_points(spec, 10, seed=seed + 5)

    fiber_pt = geometry.default_point(ws.fiber)
    fiber = curvature.check_conventions(curvature.CurvatureFrame(ws.fiber, fiber_pt, 3))
    fiber_sc = float(fiber.sc[0])
    check(checks, "fiber_scalar_curvature", fiber_sc - (-48.0 * a * b), 1e-7)

    nb = n - 4
    fr = curvature.CurvatureFrame(spec, points, 2)
    for trial in range(3):
        A = float(rng.uniform(0.2, 1.0))
        B = -b * A / a
        c = rng.uniform(-0.8, 0.8, size=nb)
        sigma: expr.Node = expr.const(A)
        if B != 0.0:
            sigma = expr.add(sigma, expr.mul(expr.const(B),
                                             geometry.signed_norm_sq(nb, ws.base_signs)))
        for i in range(nb):
            sigma = expr.add(sigma, expr.mul(expr.const(float(c[i])), expr.var(i)))
        s = fr.scalar_jet(sigma, 2)
        check(checks, f"ae_residual[trial{trial}]", norms(ae_residuals(fr, s), 2).max(), 1e-7)
        expected_j, expected_sc = scale_law(n, A, B, c, ws.base_signs)
        check(checks, f"j_of_scale[trial{trial}]", np.abs(j_of_scale(fr, s) - expected_j).max(),
              1e-7 * max(1.0, abs(expected_j)))
        sc_err = abs(sc_of_scale(fr, s)[0] - expected_sc)
        check(checks, f"sc_of_scale[trial{trial}]", sc_err,
              1e-7 * max(1.0, abs(expected_sc)))
    wnorm = frobenius(fr.values(fr.weyl)[0])
    check(checks, "conformally_nonflat", wnorm, 1e-4, passed=(wnorm > 1e-4))
    return {"label": spec.label, "params": {"n": n, "sc": sc, "seed": seed},
            "checks": checks}


def _verify_riemannian_family(case: str = "a", n: int = 6, seed: int = 0) -> dict:
    kind = {"a": "warped_fs", "b": "warped_hfs", "c": "product_ricci_flat"}
    if case not in kind:
        raise geometry.CatalogueError("case must be one of a, b, c")
    # the member: 1 times the radial (or const) scale plus a random linear part
    ws, spec, checks, fr = _family_checks(kind[case], n, 2, seed, lambda rng, size: (
        np.concatenate([[1.0], rng.uniform(-0.7, 0.7, size=size - 1)])))
    _, expected = scale_law(n, ws.a, -ws.b, (), ())
    direct = abs(sc_of_scale_direct(spec, spec.known_scales[0][1], fr.point[0]) - expected)
    check(checks, "sc_direct_rescale", direct, 1e-6 * n * n * 4)
    wnorm = min(frobenius(w) for w in fr.values(fr.weyl)[:3])
    check(checks, "conformally_nonflat", wnorm, 1e-4, passed=(wnorm > 1e-4))
    return {"label": spec.label, "params": {"case": case, "n": n, "seed": seed},
            "checks": checks}


def _verify_lorentzian_family(n: int = 6, seed: int = 0) -> dict:
    _, spec, checks, fr = _family_checks("product_lorentz", n, 2, seed, _uniform)
    wnorm = frobenius(fr.values(fr.weyl)[0])
    check(checks, "conformally_nonflat", wnorm, 1e-4, passed=(wnorm > 1e-4))
    return {"label": spec.label, "params": {"n": n, "seed": seed}, "checks": checks}


def _verify_general_family(n: int = 6, p: int = 2, seed: int = 0) -> dict:
    _, spec, checks, fr = _family_checks("product_split", n, p, seed, _uniform)
    wnorm = frobenius(fr.values(fr.weyl)[0])
    check(checks, "conformally_nonflat", wnorm, 1e-4, passed=(wnorm > 1e-4))
    # sharpness: the constraint machinery certifies the bound values
    rep = estimate_parallel_dims(spec, seed=seed)
    check(checks, "d_ae_exact", rep.d_ae_upper - (n - 1), 0.5,
          passed=(rep.exact_ae and rep.d_ae_upper == n - 1))
    check(checks, "d_nck_upper", rep.d_nck_upper - nck_dim_bound(spec.signature, n),
          0.5, passed=(rep.d_nck_upper == nck_dim_bound(spec.signature, n)))
    return {"label": spec.label, "params": {"n": n, "p": p, "seed": seed},
            "checks": checks, "dims": rep.as_dict()}


def _verify_ricci_flat_properties(metric: str = "pp_wave", seed: int = 0) -> dict:
    if metric not in ("pp_wave", "pp_split"):
        raise geometry.CatalogueError("rflat covers pp_wave and pp_split")
    spec = geometry.builtin_metric(metric)
    checks: list = []
    points = geometry.sample_points(spec, 10, seed=seed)
    fr = curvature.CurvatureFrame(spec, points, 2)
    ginv = fr.values(fr.ginv)
    for name, tau in ((name, ast) for name, ast in spec.known_scales if name != "const"):
        _, grad, hess = _scale_terms(fr, fr.scalar_jet(tau, 2))
        lap = np.einsum("pab,pab->p", ginv, hess)
        null = np.einsum("pa,pab,pb->p", grad, ginv, grad)
        check(checks, f"laplacian[{name}]", np.abs(lap).max(), 1e-8)
        check(checks, f"null_gradient[{name}]", np.abs(null).max(), 1e-8)
    family = spec.known_scales
    sigma = _member(family, _uniform(geometry.SeededRng(seed), len(family)))
    check(checks, "j_of_scale_zero", np.abs(j_of_scale(fr, fr.scalar_jet(sigma, 2))).max(), 1e-8)
    return {"label": spec.label, "params": {"metric": metric, "seed": seed},
            "checks": checks}


def _verify_bounds(metric: str = "pp_wave", seed: int = 0) -> dict:
    spec = geometry.catalogue_metric(metric)
    checks: list = []
    points = geometry.sample_points(spec, 10, seed=seed)
    fr = curvature.CurvatureFrame(spec, points, 2)
    # kernel_of_weyl raises on a bound violation
    worst_kerw = max(ksp.dim for ksp in kernel_of_weyl(fr))
    wmin = norms(fr.values(fr.weyl), 4).min()
    bound = weyl_kernel_bound(spec.signature, spec.n)
    check(checks, "weyl_kernel_bound", worst_kerw - bound, 0.5,
          passed=(worst_kerw <= bound))
    check(checks, "conformally_nonflat", wmin, 1e-6, passed=(wmin > 1e-6))
    report = estimate_parallel_dims(spec, seed=seed, upper=False)
    check(checks, "ae_witnesses_within_bound",
          report.d_ae_lower - ae_dim_bound(spec.signature, spec.n), 0.5,
          passed=(report.d_ae_lower <= ae_dim_bound(spec.signature, spec.n)))
    check(checks, "nck_witnesses_within_bound",
          report.d_nck_lower - nck_dim_bound(spec.signature, spec.n), 0.5,
          passed=(report.d_nck_lower <= nck_dim_bound(spec.signature, spec.n)))
    return {"label": spec.label, "params": {"metric": metric, "seed": seed},
            "checks": checks, "dims": report.as_dict()}


# the family verifiers by theorem id; each takes seed and its own parameters
VERIFIERS = {
    "warpedSol": _verify_warped_solution,
    "t_riem": _verify_riemannian_family,
    "t_lorentz": _verify_lorentzian_family,
    "t_gen": _verify_general_family,
    "rflat": _verify_ricci_flat_properties,
    "bounds": _verify_bounds,
}


def verify_theorem(theorem_id: str, **params) -> dict:
    """Build the prescribed family and run its dimension / curvature checks."""
    if theorem_id not in VERIFIERS:
        raise AnalysisError(
            f"unknown theorem id {theorem_id!r}; choose from {sorted(VERIFIERS)}"
        )
    report = VERIFIERS[theorem_id](**params)
    report["theorem"] = theorem_id
    report["passed"] = all(c["passed"] for c in report["checks"])
    return report
