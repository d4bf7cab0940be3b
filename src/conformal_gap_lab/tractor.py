"""Standard tractor bundle in a fixed scale.

A tractor is stored in the splitting determined by the analyzed metric as
``(sigma, mu^a, rho)`` (top, middle, bottom), flattened to a vector of length
``n + 2`` in that order.  The connection acts as

    D_a (sigma, mu^b, rho) =
        (d_a sigma - mu_a,
         d_a mu^b + Gamma^b_ar mu^r + delta_a^b rho + P_a^b sigma,
         d_a rho - P_ar mu^r)

and the bundle metric is ``<U, V> = mu_a nu^a + sigma pi + rho tau``.  The
curvature is obtained numerically as the commutator of two jet-level
derivatives and cross-checked against its expected Weyl/Cotton block
structure, so no sign convention for the Cotton block is hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import curvature, expr, geometry, jets
from .curvature import ConventionError, CurvatureFrame, frobenius
from .geometry import MetricSpec
from .jets import conv, dcoeffs


class TransportError(RuntimeError):
    """Parallel transport failed to converge or left the domain."""


@dataclass
class TractorVector:
    sigma: float
    mu: np.ndarray
    rho: float

    def as_array(self) -> np.ndarray:
        return np.concatenate(([self.sigma], np.asarray(self.mu, float), [self.rho]))

    @classmethod
    def from_array(cls, arr) -> "TractorVector":
        arr = np.asarray(arr, dtype=float)
        return cls(float(arr[0]), arr[1:-1].copy(), float(arr[-1]))

    def norm(self) -> float:
        return float(np.linalg.norm(self.as_array()))


@dataclass
class TractorEndo:
    matrix: np.ndarray

    def apply(self, v: TractorVector) -> TractorVector:
        return TractorVector.from_array(self.matrix @ v.as_array())

    def norm(self) -> float:
        return frobenius(self.matrix)


def tractor_metric_matrix(g_values: np.ndarray) -> np.ndarray:
    """Block form ((0,0,1),(0,g,0),(1,0,0)) of the bundle metric."""
    n = g_values.shape[0]
    B = np.zeros((n + 2, n + 2))
    B[0, -1] = B[-1, 0] = 1.0
    B[1:-1, 1:-1] = g_values
    return B


def pairing(u: TractorVector, v: TractorVector, g_values: np.ndarray) -> float:
    B = tractor_metric_matrix(g_values)
    return float(u.as_array() @ B @ v.as_array())


# ---------------------------------------------------------------------------
# connection at the jet level

def _tractor_deriv_jets(fr: CurvatureFrame, sig, mu, rho, m: int):
    """One derivative of batched tractor sections given as coefficient arrays.

    sig: (B, C_m), mu: (B, n, C_m), rho: (B, C_m).  Returns the same triple
    with a direction axis inserted after the batch axis, at jet order m - 1.
    """
    n = fr.n
    m1 = m - 1
    g1 = fr.at(fr.g, m1)
    gam1 = fr.at(fr.gamma, m1)
    p1 = fr.at(fr.schouten, m1)
    pmix1 = fr.at(fr.schouten_mixed, m1)
    mu1 = jets.truncate_coeffs(mu, n, m, m1)
    sig1 = jets.truncate_coeffs(sig, n, m, m1)
    rho1 = jets.truncate_coeffs(rho, n, m, m1)

    dsig = np.stack([dcoeffs(sig, a, n, m) for a in range(n)], axis=1)
    dmu = np.stack([dcoeffs(mu, a, n, m) for a in range(n)], axis=1)
    drho = np.stack([dcoeffs(rho, a, n, m) for a in range(n)], axis=1)

    top = dsig.copy()
    for b in range(n):
        top -= conv(g1[:, b][None, :, :], mu1[:, b][:, None, :], n, m1)

    mid = dmu.copy()
    for r in range(n):
        left = gam1[:, :, r].transpose(1, 0, 2)          # (a, b, C)
        mid += conv(left[None, :, :, :], mu1[:, r][:, None, None, :], n, m1)
    eye = np.eye(n)
    mid += eye[None, :, :, None] * rho1[:, None, None, :]
    mid += conv(pmix1[None, :, :, :], sig1[:, None, None, :], n, m1)

    bot = drho.copy()
    for r in range(n):
        bot -= conv(p1[:, r][None, :, :], mu1[:, r][:, None, :], n, m1)
    return top, mid, bot


def _einstein_jets(fr: CurvatureFrame, sig):
    """Coefficient arrays (sigma, mu^b, rho) of the scale tractor, order K-2."""
    n = fr.n
    K = fr.order
    dsig = np.stack([dcoeffs(sig, a, n, K) for a in range(n)])        # (a, C_{K-1})
    ginv1 = fr.at(fr.ginv, K - 1)
    mu = np.zeros((n, dsig.shape[-1]))
    for c in range(n):
        mu += conv(ginv1[:, c], dsig[c][None, :], n, K - 1)
    hess = fr.cov_deriv(dsig, "d", K - 1)                              # (a, b, C_{K-2})
    ginv2 = fr.at(fr.ginv, K - 2)
    lap = conv(ginv2, hess, n, K - 2).sum(axis=(0, 1))
    sig2 = jets.truncate_coeffs(sig, n, K, K - 2)
    rho = -(lap + conv(fr.j, sig2, n, K - 2)) / n
    mu2 = jets.truncate_coeffs(mu, n, K - 1, K - 2)
    return sig2, mu2, rho


def einstein_tractor(spec: MetricSpec, sigma: expr.Node, point) -> TractorVector:
    """(sigma, grad^a sigma, -(Lap sigma + J sigma)/n) at the point."""
    fr = curvature.frame(spec, point, 3)
    sig, mu, rho = _einstein_jets(fr, fr.scalar_jet(sigma))
    return TractorVector(float(sig[0]), mu[..., 0].copy(), float(rho[0]))


def scale_tractor_parallel_residual(spec: MetricSpec, sigma: expr.Node, point) -> float:
    """Norm of the tractor derivative of the scale tractor (0 for solutions)."""
    fr = curvature.frame(spec, point, 4)
    sig, mu, rho = _einstein_jets(fr, fr.scalar_jet(sigma))
    top, mid, bot = _tractor_deriv_jets(
        fr, sig[None, :], mu[None, :, :], rho[None, :], fr.order - 2
    )
    parts = np.concatenate(
        [top[0, :, 0].ravel(), mid[0, :, :, 0].ravel(), bot[0, :, 0].ravel()]
    )
    return float(np.linalg.norm(parts))


def tractor_derivative(spec: MetricSpec, section, point, direction: int | None = None):
    """Tractor derivative of an expression-valued section.

    section: (sigma_ast, [mu^1_ast..mu^n_ast], rho_ast).  Returns the
    TractorVector for one direction, or the list over all directions.
    """
    fr = curvature.frame(spec, point, 3)
    n = fr.n
    sigma_ast, mu_asts, rho_ast = section
    m = fr.order - 1
    sig = fr.scalar_jet(sigma_ast, m)[None, :]
    mu = np.stack([fr.scalar_jet(a, m) for a in mu_asts])[None, :, :]
    rho = fr.scalar_jet(rho_ast, m)[None, :]
    top, mid, bot = _tractor_deriv_jets(fr, sig, mu, rho, m)
    out = [
        TractorVector(
            float(top[0, a, 0]), mid[0, a, :, 0].copy(), float(bot[0, a, 0])
        )
        for a in range(n)
    ]
    return out if direction is None else out[direction]


# ---------------------------------------------------------------------------
# curvature as a commutator

def tractor_curvature(spec: MetricSpec, point, validate: bool = True) -> dict:
    """Curvature endomorphisms Omega_ab for a < b, by jet commutator.

    The result is validated against the expected block structure: zero top
    row, Weyl middle block, Cotton bottom row and sigma-column.
    """
    fr = curvature.frame(spec, point, 4)
    n = fr.n
    m0 = fr.order - 2
    size = jets.tables(n, m0).size
    nb = n + 2
    sig = np.zeros((nb, size))
    mu = np.zeros((nb, n, size))
    rho = np.zeros((nb, size))
    sig[0, 0] = 1.0
    for b in range(n):
        mu[1 + b, b, 0] = 1.0
    rho[-1, 0] = 1.0

    top1, mid1, bot1 = _tractor_deriv_jets(fr, sig, mu, rho, m0)
    B = nb * n
    c1 = top1.shape[-1]
    top2, mid2, bot2 = _tractor_deriv_jets(
        fr, top1.reshape(B, c1), mid1.reshape(B, n, c1), bot1.reshape(B, c1), m0 - 1
    )
    # composite[phi, b, a] = D_a (D_b e_phi); commutator antisymmetrizes (a, b)
    top2 = top2.reshape(nb, n, n, -1)[..., 0]
    mid2 = mid2.reshape(nb, n, n, n, -1)[..., 0]
    bot2 = bot2.reshape(nb, n, n, -1)[..., 0]

    out = {}
    for a in range(n):
        for b in range(a + 1, n):
            M = np.zeros((nb, nb))
            M[0, :] = top2[:, b, a] - top2[:, a, b]
            M[1:-1, :] = (mid2[:, b, a, :] - mid2[:, a, b, :]).T
            M[-1, :] = bot2[:, b, a] - bot2[:, a, b]
            out[(a, b)] = TractorEndo(M)

    if validate:
        _validate_tractor_curvature(fr, out)
    return out


def _validate_tractor_curvature(fr: CurvatureFrame, omegas: dict) -> None:
    n = fr.n
    gv = fr.values(fr.g)
    ginv = fr.values(fr.ginv)
    W = fr.values(fr.weyl)
    Y = fr.values(fr.cotton)
    Wmix = np.einsum("ce,abed->abcd", ginv, W)      # W_ab^c_d
    Ymix = np.einsum("ce,eab->cab", ginv, Y)        # Y^c_ab
    scale = max(frobenius(W), frobenius(Y), 1.0)
    B = tractor_metric_matrix(gv)
    problems = []
    for (a, b), endo in omegas.items():
        M = endo.matrix
        if np.abs(M[0, :]).max() > 1e-8 * scale:
            problems.append(f"Omega_{a}{b} has a nonzero top row")
        if frobenius(M[1:-1, 1:-1] - Wmix[a, b]) > 1e-8 * scale:
            problems.append(f"Omega_{a}{b} middle block differs from Weyl")
        if frobenius(M[1:-1, 0] - Ymix[:, a, b]) > 1e-8 * scale:
            problems.append(f"Omega_{a}{b} sigma column differs from Cotton")
        if frobenius(M[-1, 1:-1] + Y[:, a, b]) > 1e-8 * scale:
            problems.append(f"Omega_{a}{b} bottom row differs from Cotton")
        if abs(M[-1, 0]) > 1e-8 * scale or abs(M[0, -1]) > 1e-8 * scale:
            problems.append(f"Omega_{a}{b} has corner entries")
        skew = M.T @ B + B @ M
        if frobenius(skew) > 1e-9 * max(frobenius(M) * frobenius(B), 1.0):
            problems.append(f"Omega_{a}{b} not skew for the tractor metric")
        if problems:
            break
    if problems:
        raise ConventionError(
            f"tractor curvature checks failed for {fr.spec.label!r} at "
            f"{fr.point}: " + "; ".join(problems)
        )


# ---------------------------------------------------------------------------
# parallel transport

def connection_matrices(fr: CurvatureFrame) -> np.ndarray:
    """Value-level connection coefficients: D_a V = d_a V + A[a] V."""
    n = fr.n
    gv = fr.values(fr.g)
    gam = fr.values(fr.gamma)
    P = fr.values(fr.schouten)
    Pmix = fr.values(fr.schouten_mixed)
    A = np.zeros((n, n + 2, n + 2))
    for a in range(n):
        A[a, 0, 1:-1] = -gv[a]
        A[a, 1:-1, 0] = Pmix[a]
        A[a, 1:-1, 1:-1] = gam[:, a, :]
        A[a, 1 + a, -1] = 1.0
        A[a, -1, 1:-1] = -P[a]
    return A


def _direction_matrix(spec: MetricSpec, x: np.ndarray, direction: np.ndarray) -> np.ndarray:
    fr = curvature.frame(spec, tuple(x), 2)
    A = connection_matrices(fr)
    return -np.einsum("a,aij->ij", direction, A)


def _segment_transport(spec: MetricSpec, p: np.ndarray, q: np.ndarray,
                       tol: float, max_halvings: int) -> np.ndarray:
    direction = q - p
    for t in np.linspace(0.0, 1.0, 9):
        if not geometry.domain_ok(spec, p + t * direction):
            raise TransportError(
                f"transport path leaves the domain of {spec.label!r} near "
                f"{tuple(p + t * direction)}"
            )

    def integrate(steps: int) -> np.ndarray:
        h = 1.0 / steps
        M = np.eye(spec.n + 2)
        R_right = _direction_matrix(spec, p, direction)
        for k in range(steps):
            s = k * h
            R0 = R_right
            Rm = _direction_matrix(spec, p + (s + h / 2) * direction, direction)
            R_right = _direction_matrix(spec, p + (s + h) * direction, direction)
            k1 = R0 @ M
            k2 = Rm @ (M + h / 2 * k1)
            k3 = Rm @ (M + h / 2 * k2)
            k4 = R_right @ (M + h * k3)
            M = M + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return M

    steps = 4
    prev = integrate(steps)
    for _ in range(max_halvings):
        steps *= 2
        cur = integrate(steps)
        if frobenius(cur - prev) < tol:
            return cur
        prev = cur
    raise TransportError(
        f"transport did not converge to {tol} within {max_halvings} halvings"
    )


def transport_matrix(spec: MetricSpec, path, tol: float = 1e-10,
                     max_halvings: int = 12) -> np.ndarray:
    """Transport matrix along a coordinate polyline (fiber at start -> end)."""
    pts = [np.asarray(p, dtype=float) for p in path]
    if len(pts) < 2:
        return np.eye(spec.n + 2)
    M = np.eye(spec.n + 2)
    for p, q in zip(pts[:-1], pts[1:]):
        if np.allclose(p, q):
            continue
        M = _segment_transport(spec, p, q, tol, max_halvings) @ M
    return M


def parallel_transport(spec: MetricSpec, path, v0: TractorVector,
                       tol: float = 1e-10, max_halvings: int = 12) -> TractorVector:
    """Solve the transport equation along the polyline with RK4 + halving."""
    return TractorVector.from_array(transport_matrix(spec, path, tol, max_halvings) @ v0.as_array())


def rectangle_loop(point, axis_a: int, axis_b: int, h: float):
    """Closed coordinate rectangle based at the point, sides h along two axes.

    Traversed b-side first so the holonomy expands as I + h^2 Omega_ab + O(h^3).
    """
    p = np.asarray(point, dtype=float)
    ea = np.zeros_like(p); ea[axis_a] = h
    eb = np.zeros_like(p); eb[axis_b] = h
    return [p, p + eb, p + ea + eb, p + ea, p]


def loop_holonomy(spec: MetricSpec, point, axis_a: int, axis_b: int, h: float,
                  tol: float = 1e-10) -> np.ndarray:
    return transport_matrix(spec, rectangle_loop(point, axis_a, axis_b, h), tol=tol)


def matrix_log(M: np.ndarray, terms: int = 12) -> np.ndarray:
    """Series log for matrices near the identity (holonomies of small loops)."""
    E = M - np.eye(M.shape[0])
    out = np.zeros_like(E)
    power = np.eye(M.shape[0])
    for k in range(1, terms + 1):
        power = power @ E
        out += ((-1) ** (k + 1) / k) * power
    return out


# ---------------------------------------------------------------------------
# scale changes

def transform_tractor(v: TractorVector, omega_value: float, upsilon: np.ndarray,
                      g_values: np.ndarray) -> TractorVector:
    """Components of the same tractor in the rescaled metric omega^2 g.

    Combines the splitting change (with Upsilon = d log omega) with the
    weight factors of the three slots (+1, -1, -1 on the trivialized
    functions).
    """
    ginv = np.linalg.inv(g_values)
    ups_up = ginv @ upsilon
    sigma = omega_value * v.sigma
    mu = (v.mu + ups_up * v.sigma) / omega_value
    rho = (v.rho - float(upsilon @ v.mu) - 0.5 * float(upsilon @ ups_up) * v.sigma) / omega_value
    return TractorVector(sigma, mu, rho)
