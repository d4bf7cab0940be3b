"""Standard tractor bundle in a fixed scale.

A tractor is stored in the splitting determined by the analyzed metric as
``(sigma, mu^a, rho)`` (top, middle, bottom), flattened to a vector of length
``n + 2`` in that order.  The connection acts as

    D_a (sigma, mu^b, rho) =
        (d_a sigma - mu_a,
         d_a mu^b + Gamma^b_ar mu^r + delta_a^b rho + P_a^b sigma,
         d_a rho - P_ar mu^r)

and the bundle metric is ``<U, V> = mu_a nu^a + sigma pi + rho tau``.  The
connection is written once, as the jets of its matrices ``A_a``
(:func:`connection_jets`, ``D_a = d_a + A_a``); section derivatives, the
curvature ``Omega_ab = d_a A_b - d_b A_a + [A_a, A_b]`` and its covariant
derivatives (:func:`curvature_chain`, whose values at a point span the
infinitesimal holonomy algebra there) and the value-level matrices of RK4
transport are all derived from it.  The curvature is cross-checked against
its expected Weyl/Cotton block structure, so no sign convention for the
Cotton block is hard-coded.  Every reader takes the curvature frame its
caller built; transport, kept as an independent oracle for the tests, builds
one batch of frames per step count, at the grid points new to it.
"""

from __future__ import annotations

import numpy as np

from . import geometry, jets
from .curvature import ConventionError, CurvatureFrame, frobenius, norms, upper_pairs
from .geometry import MetricSpec
from .jets import contract, conv, partials


class TransportError(RuntimeError):
    """Parallel transport failed to converge or left the domain."""


def tractor_metric_matrix(g_values: np.ndarray) -> np.ndarray:
    """Block form ((0,0,1),(0,g,0),(1,0,0)) of the bundle metric."""
    n = g_values.shape[0]
    B = np.zeros((n + 2, n + 2))
    B[0, -1] = B[-1, 0] = 1.0
    B[1:-1, 1:-1] = g_values
    return B


# ---------------------------------------------------------------------------
# connection at the jet level

def connection_jets(fr: CurvatureFrame, m: int) -> np.ndarray:
    """Jets of the connection matrices: D_a V = d_a V + A[a] V, to order m.

    Returns an (n, n + 2, n + 2, C_m) array; m may be at most fr.order - 2,
    the order of the Schouten tensor.  This is the one place that writes the
    block layout of the connection.
    """
    n = fr.n
    A = np.zeros((n, n + 2, n + 2, jets.tables(n, m).size))
    A[:, 0, 1:-1] = -fr.at(fr.g, m)
    A[:, 1:-1, 0] = fr.at(fr.schouten_mixed, m)
    A[:, 1:-1, 1:-1] = fr.at(fr.gamma, m).transpose(1, 0, 2, 3)   # [a, b, r] = Gamma^b_ar
    A[np.arange(n), 1 + np.arange(n), -1, 0] = 1.0
    A[:, -1, 1:-1] = -fr.at(fr.schouten, m)
    return A


def _jet_bracket(P: np.ndarray, Q: np.ndarray, n: int, m: int) -> np.ndarray:
    """Commutator PQ - QP of jet matrices (..., k, k, C), leading axes broadcast."""
    Pt, Qt = np.swapaxes(P, -3, -2), np.swapaxes(Q, -3, -2)     # [..., k, i, C]
    PQ = contract(P[..., :, None, :, :], Qt[..., None, :, :, :], n, m)
    QP = contract(Q[..., :, None, :, :], Pt[..., None, :, :, :], n, m)
    return PQ - QP


def tractor_deriv_jets(fr: CurvatureFrame, V: np.ndarray, m: int) -> np.ndarray:
    """D_a of batched tractor sections: (B, n + 2, C_m) -> (B, n, n + 2, C_{m-1})."""
    n = fr.n
    A = connection_jets(fr, m - 1)
    dV = np.moveaxis(partials(V, n, m), 0, 1)
    V1 = jets.truncate_coeffs(V, n, m, m - 1)
    return dV + contract(A[None], V1[:, None, None], n, m - 1)


def einstein_jets(fr: CurvatureFrame, sig: np.ndarray) -> np.ndarray:
    """Coefficient arrays (..., n + 2, C_{K-2}) of the scale tractors
    (sigma, mu^b, rho) of scale jets sig (..., C_K) at a frame of one point,
    of order K or more; leading axes batch, and a stack of one has the bits."""
    n = fr.n
    K = jets.order_of(sig.shape[-1], n)
    dsig = partials(sig, n, K, axis=sig.ndim - 1)                      # (..., a, C_{K-1})
    ginv2 = fr.at(fr.ginv, K - 2)
    mu = contract(ginv2, jets.truncate_coeffs(dsig, n, K - 1, K - 2)[..., None, :, :], n, K - 2)
    hess = fr.cov_deriv(dsig, 1, K - 1)                                # (..., a, b, C_{K-2})
    lap = contract(ginv2.reshape(n * n, -1), hess.reshape(hess.shape[:-3] + (n * n, -1)),
                   n, K - 2)
    sig2 = jets.truncate_coeffs(sig, n, K, K - 2)
    rho = -(lap + conv(fr.at(fr.j, K - 2), sig2, n, K - 2)) / n
    return np.concatenate([sig2[..., None, :], mu, rho[..., None, :]], axis=-2)


def parallel_values(fr: CurvatureFrame, I: np.ndarray) -> np.ndarray:
    """Values (S, n, n + 2) of D_a I for a stack of scale tractor jets I
    (S, n + 2, C_m), m >= 1, as ``einstein_jets`` gives for order-3 scale
    jets, at a frame of one point."""
    return tractor_deriv_jets(fr, I, jets.order_of(I.shape[-1], fr.n))[..., 0]


# ---------------------------------------------------------------------------
# curvature and its covariant derivatives

def curvature_chain(fr: CurvatureFrame, m: int) -> list[np.ndarray]:
    """Values at the frame's point of X_0 = Omega_ab (a < b) and of
    X_{k+1} = d_c X_k + [A_c, X_k], from the connection jets to order m.

    Omega_ab = d_a A_b - d_b A_a + [A_a, A_b] = [D_a, D_b].  Level k is an
    array (count, n + 2, n + 2); there are m levels, the last from jets of
    order 0.  Each X annihilates every parallel tractor at the point, and the
    levels span the same space as Omega and its covariant derivatives up to
    order m - 1, so they lie in the holonomy algebra.  Level 0 is checked
    against its Weyl/Cotton block structure.
    """
    n = fr.n
    nb = n + 2
    A = connection_jets(fr, m)
    a, b = upper_pairs(n, 1)
    dA = partials(A, n, m)                                           # [c, a] = d_c A_a
    A1 = jets.truncate_coeffs(A, n, m, m - 1)
    X = dA[a, b] - dA[b, a] + _jet_bracket(A1[a], A1[b], n, m - 1)
    _validate_tractor_curvature(fr, a, b, X[..., 0])
    levels = [X[..., 0]]
    for k in range(m - 1, 0, -1):
        Ak = jets.truncate_coeffs(A, n, m, k - 1)[:, None]
        Xk = jets.truncate_coeffs(X, n, k, k - 1)[None]
        X = partials(X, n, k) + _jet_bracket(Ak, Xk, n, k - 1)
        X = X.reshape(-1, nb, nb, X.shape[-1])
        levels.append(X[..., 0])
    return levels


def _validate_tractor_curvature(fr: CurvatureFrame, first, second, omegas) -> None:
    """Check every Omega_ab (pairs, n + 2, n + 2) at once against its block
    structure; the error lists the problems of the first failing pair."""
    gv = fr.values(fr.g)
    ginv = fr.values(fr.ginv)
    W = fr.values(fr.weyl)
    Y = fr.values(fr.cotton)
    Wmix = np.einsum("ce,abed->abcd", ginv, W)      # W_ab^c_d
    Ymix = np.einsum("ce,eab->abc", ginv, Y)        # Y^c_ab, pair first
    tol = 1e-8 * max(frobenius(W), frobenius(Y), 1.0)
    B = tractor_metric_matrix(gv)
    M = np.asarray(omegas)
    skew = np.swapaxes(M, -1, -2) @ B + B @ M
    checks = (
        ("has a nonzero top row", np.abs(M[:, 0, :]).max(axis=1) > tol),
        ("middle block differs from Weyl", norms(M[:, 1:-1, 1:-1] - Wmix[first, second], 2) > tol),
        ("sigma column differs from Cotton", norms(M[:, 1:-1, 0] - Ymix[first, second], 1) > tol),
        ("bottom row differs from Cotton",
         norms(M[:, -1, 1:-1] + Y[:, first, second].T, 1) > tol),
        ("has corner entries", (np.abs(M[:, -1, 0]) > tol) | (np.abs(M[:, 0, -1]) > tol)),
        ("not skew for the tractor metric",
         norms(skew, 2) > 1e-9 * np.maximum(norms(M, 2) * frobenius(B), 1.0)),
    )
    failed = np.stack([bad for _, bad in checks], axis=1)       # (pair, check)
    if failed.any():
        i = int(np.flatnonzero(failed.any(axis=1))[0])
        a, b = first[i], second[i]
        raise ConventionError(
            f"tractor curvature checks failed for {fr.spec.label!r} at "
            f"{fr.point}: " + "; ".join(f"Omega_{a}{b} {what}"
                                        for (what, _), bad in zip(checks, failed[i]) if bad)
        )


# ---------------------------------------------------------------------------
# parallel transport (a test oracle for the curvature chain)

TRANSPORT_TOL = 1e-10          # Frobenius change between halvings that ends RK4
TRANSPORT_MAX_HALVINGS = 12


def _segment_transport(spec: MetricSpec, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    direction = q - p
    for t in np.linspace(0.0, 1.0, 9):
        if not geometry.domain_ok(spec, p + t * direction):
            raise TransportError(
                f"transport path leaves the domain of {spec.label!r} near "
                f"{geometry.format_point(p + t * direction)}"
            )

    def matrices(ts: np.ndarray) -> np.ndarray:
        """-A(direction) at the points p + t direction, from one order-2 batch."""
        fr = CurvatureFrame(spec, p + ts[:, None] * direction, 2)
        return np.stack([-np.einsum("a,aij->ij", direction, connection_jets(fr[i], 0)[..., 0])
                         for i in range(len(ts))])

    def integrate(R: np.ndarray, steps: int) -> np.ndarray:
        # R holds the matrices at t_j = j / (2 steps): step k reads j = 2k, 2k + 1, 2k + 2
        h = 1.0 / steps
        M = np.eye(spec.n + 2)
        for R0, Rm, R_right in zip(R[0:-1:2], R[1::2], R[2::2]):
            k1 = R0 @ M
            k2 = Rm @ (M + h / 2 * k1)
            k3 = Rm @ (M + h / 2 * k2)
            k4 = R_right @ (M + h * k3)
            M = M + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return M

    # j / (2 steps) for even j is the float (j / 2) / steps, so each halving
    # keeps the matrices it has and evaluates the connection at the odd j only
    steps = 4
    R = matrices(np.arange(2 * steps + 1) / (2 * steps))
    prev = integrate(R, steps)
    for _ in range(TRANSPORT_MAX_HALVINGS):
        steps *= 2
        finer = np.empty((2 * steps + 1,) + R.shape[1:])
        finer[0::2] = R
        finer[1::2] = matrices(np.arange(1, 2 * steps, 2) / (2 * steps))
        R = finer
        cur = integrate(R, steps)
        if frobenius(cur - prev) < TRANSPORT_TOL:
            return cur
        prev = cur
    raise TransportError(
        f"transport did not converge to {TRANSPORT_TOL} within "
        f"{TRANSPORT_MAX_HALVINGS} halvings"
    )


def transport_matrix(spec: MetricSpec, path) -> np.ndarray:
    """Transport matrix along a coordinate polyline (fiber at start -> end)."""
    pts = [np.asarray(p, dtype=float) for p in path]
    if len(pts) < 2:
        return np.eye(spec.n + 2)
    M = np.eye(spec.n + 2)
    for p, q in zip(pts[:-1], pts[1:]):
        if np.allclose(p, q):
            continue
        M = _segment_transport(spec, p, q) @ M
    return M


# ---------------------------------------------------------------------------
# scale changes

def transform_tractor(v: np.ndarray, omega_value: float, upsilon: np.ndarray,
                      g_values: np.ndarray) -> np.ndarray:
    """Components of the same tractor in the rescaled metric omega^2 g.

    Combines the splitting change (with Upsilon = d log omega) with the
    weight factors of the three slots (+1, -1, -1 on the trivialized
    functions).
    """
    sigma, mu, rho = v[0], v[1:-1], v[-1]
    ginv = np.linalg.inv(g_values)
    ups_up = ginv @ upsilon
    return np.concatenate((
        [omega_value * sigma],
        (mu + ups_up * sigma) / omega_value,
        [(rho - float(upsilon @ mu) - 0.5 * float(upsilon @ ups_up) * sigma) / omega_value],
    ))
