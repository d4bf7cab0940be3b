"""Tractor connection, scale tractors, curvature blocks, transport."""

import itertools
import math

import numpy as np
import pytest

from conformal_gap_lab import curvature, expr, geometry, jets, tractor
from conformal_gap_lab.curvature import ConventionError, CurvatureFrame, frobenius
from conformal_gap_lab.geometry import builtin_metric, pseudo_euclidean, sample_points
from conformal_gap_lab.tractor import TransportError, transport_matrix


def metric_at(spec, point):
    """The metric's values at the point, from a self-checked order-3 frame."""
    fr = curvature.check_conventions(CurvatureFrame(spec, point, 3))
    return fr.values(fr.g)


def pairing(u, v, g):
    """<u, v> in the tractor metric at a point where the metric is g."""
    return float(u @ tractor.tractor_metric_matrix(g) @ v)


def tractor_derivative(fr, section, direction):
    """Row D_direction of the tractor derivative of an expression-valued
    section (sigma_ast, [mu^1_ast..mu^n_ast], rho_ast) at a frame of one
    point and order >= 3: the batched core on a stack of one section."""
    sigma_ast, mu_asts, rho_ast = section
    m = fr.order - 1
    V = np.stack([fr.scalar_jet(a, m) for a in (sigma_ast, *mu_asts, rho_ast)])
    return tractor.tractor_deriv_jets(fr, V[None], m)[0, direction, :, 0]


def einstein_tractor(spec, sigma, point):
    """(sigma, grad^a sigma, -(Lap sigma + J sigma)/n) at the point: the
    batched core on a stack of one scale at an order-3 frame."""
    fr = CurvatureFrame(spec, point, 3)
    return tractor.einstein_jets(fr, fr.scalar_jet(sigma)[None])[0, :, 0]


def parallel_residual(spec, sigma, point):
    """Norm of the values of D_a I for the scale tractor I (0 for solutions)."""
    fr = CurvatureFrame(spec, point, 3)
    I = tractor.einstein_jets(fr, fr.scalar_jet(sigma)[None])
    return float(np.linalg.norm(tractor.parallel_values(fr, I)[0]))


def tractor_curvature(spec, point):
    """Omega_ab for a < b as {(a, b): (n + 2, n + 2) array}, from level 0 of
    the curvature chain, which validates it against its block structure."""
    fr = CurvatureFrame(spec, point, 4)
    return dict(zip(itertools.combinations(range(spec.n), 2), tractor.curvature_chain(fr, 1)[0]))


def rectangle_loop(point, axis_a: int, axis_b: int, h: float):
    """Closed coordinate rectangle based at the point, sides h along two axes.

    Traversed b-side first so the holonomy expands as I + h^2 Omega_ab + O(h^3).
    """
    p = np.asarray(point, dtype=float)
    ea = np.zeros_like(p); ea[axis_a] = h
    eb = np.zeros_like(p); eb[axis_b] = h
    return [p, p + eb, p + ea + eb, p + ea, p]


def test_flat_constant_top_section_is_parallel():
    spec = pseudo_euclidean(0, 4)
    section = (expr.ONE, [expr.ZERO] * 4, expr.ZERO)
    fr = CurvatureFrame(spec, (0.2, -0.1, 0.4, 0.0), 3)
    for direction in range(4):
        assert np.linalg.norm(tractor_derivative(fr, section, direction)) < 1e-12


def test_pp_wave_scale_tractor_is_parallel():
    spec = builtin_metric("pp_wave")
    sigma = spec.known_scales[1][1]
    for pt in sample_points(spec, 4, seed=1):
        res = parallel_residual(spec, sigma, pt)
        assert res < 1e-8
        res_const = parallel_residual(spec, expr.ONE, pt)
        assert res_const < 1e-10


def test_nonsolution_scale_is_not_parallel():
    spec = builtin_metric("fubini_study")
    pt = sample_points(spec, 1, seed=2)[0]
    assert parallel_residual(spec, expr.var(0), pt) > 1e-3


@pytest.mark.parametrize("name", ["fubini_study", "taub_nut", "pp_wave", "pp_split",
                                  "warped_fs_n5", "warped_hfs_n6", "product_lorentz_n6",
                                  "product_split_n6"])
def test_parallel_residual_needs_only_the_order_3_frame(name):
    # the residual reads the values of D I; the order-4 frame carries I to
    # order 2 and must give the same values
    spec = geometry.catalogue_metric(name)
    for pt in sample_points(spec, 3, seed=4):
        fr = CurvatureFrame(spec, pt, 4)
        for _, sigma in (*spec.known_scales, ("x1", expr.var(0))):
            I = tractor.einstein_jets(fr, fr.scalar_jet(sigma))
            full = np.linalg.norm(tractor.tractor_deriv_jets(fr, I[None], 2)[..., 0])
            got = parallel_residual(spec, sigma, pt)
            assert abs(got - full) <= 1e-12 * max(1.0, full)


@pytest.mark.parametrize("name", [n for n in geometry.catalogue_names(examples=True)
                                  if geometry.catalogue_metric(n).known_scales])
def test_einstein_jets_batch_over_a_stack_of_scales(name):
    # a one-scale stack has the bits of one scale alone and of the per-scale
    # functions; the whole stack agrees with it to rounding
    spec = geometry.catalogue_metric(name)
    sigmas = [sigma for _, sigma in spec.known_scales]
    for pt in sample_points(spec, 2, seed=5):
        fr = CurvatureFrame(spec, pt, 3)
        S = np.stack([fr.scalar_jet(sigma) for sigma in sigmas])
        stack = tractor.einstein_jets(fr, S)
        values = tractor.parallel_values(fr, stack)
        assert stack.shape == (len(sigmas), spec.n + 2, jets.tables(spec.n, 1).size)
        for i, sigma in enumerate(sigmas):
            one = tractor.einstein_jets(fr, S[i:i + 1])
            assert one[0].tobytes() == tractor.einstein_jets(fr, S[i]).tobytes()
            assert one[0, :, 0].tobytes() == einstein_tractor(spec, sigma, pt).tobytes()
            D = tractor.parallel_values(fr, one)[0]
            assert D.tobytes() == tractor.tractor_deriv_jets(fr, one, 1)[0, ..., 0].tobytes()
            assert float(np.linalg.norm(D)) == parallel_residual(
                spec, sigma, pt)
            scale = max(np.abs(stack).max(), np.abs(values).max())
            assert np.abs(stack[i] - one[0]).max() <= 1e-12 * scale
            assert np.abs(values[i] - D).max() <= 1e-12 * scale


def test_einstein_tractor_constant_on_ricci_flat():
    spec = builtin_metric("pp_wave")
    pt = sample_points(spec, 1, seed=3)[0]
    I = einstein_tractor(spec, expr.ONE, pt)
    assert I[0] == pytest.approx(1.0)
    assert np.linalg.norm(I[1:-1]) < 1e-12
    assert abs(I[-1]) < 1e-12


def test_fubini_study_tractor_norm_is_minus_4():
    # J = Sc / (2(n-1)) = 8, <I, I> = 2 rho sigma = -2 J / n * ... = -4
    spec = builtin_metric("fubini_study")
    pt = sample_points(spec, 1, seed=4)[0]
    I = einstein_tractor(spec, expr.ONE, pt)
    g = metric_at(spec, pt)
    assert pairing(I, I, g) == pytest.approx(-4.0, abs=1e-8)


def test_tractor_metric_compatibility():
    # numeric derivative of <U, V> along a coordinate equals <DU,V> + <U,DV>
    spec = builtin_metric("taub_nut")
    pt = np.array(sample_points(spec, 1, seed=5)[0])
    u_fields = (expr.parse("x1", 4), [expr.parse(s, 4) for s in ("x2", "1", "0", "x4")],
                expr.parse("sin(x2)", 4))
    v_fields = (expr.parse("x3", 4), [expr.parse(s, 4) for s in ("1", "x1", "x3", "0")],
                expr.parse("cos(x1)", 4))

    def vec_at(fields, x):
        env = jets.seed_jets(tuple(x), 1)
        sigma = expr.evaluate(fields[0], env)[0]
        mu = np.array([expr.evaluate(m, env)[0] for m in fields[1]])
        rho = expr.evaluate(fields[2], env)[0]
        return np.concatenate(([sigma], mu, [rho]))

    def pair_at(x):
        g = np.array([[expr.evaluate_at(spec.components[i][j], tuple(x))
                       for j in range(4)] for i in range(4)])
        return pairing(vec_at(u_fields, x), vec_at(v_fields, x), g)

    direction = 1
    h = 1e-5
    ep = np.zeros(4); ep[direction] = h
    numeric = (pair_at(pt + ep) - pair_at(pt - ep)) / (2 * h)
    fr = CurvatureFrame(spec, pt, 3)
    du = tractor_derivative(fr, u_fields, direction)
    dv = tractor_derivative(fr, v_fields, direction)
    g = metric_at(spec, tuple(pt))
    leibniz = pairing(du, vec_at(v_fields, pt), g) + pairing(vec_at(u_fields, pt), dv, g)
    assert numeric == pytest.approx(leibniz, abs=1e-8 * max(1.0, abs(leibniz)))


def test_tractor_curvature_flat_vanishes():
    spec = pseudo_euclidean(1, 3)
    omegas = tractor_curvature(spec, (0.1, 0.2, 0.3, 0.4))
    for endo in omegas.values():
        assert frobenius(endo) < 1e-12


def test_tractor_curvature_middle_block_matches_weyl():
    spec = builtin_metric("taub_nut")
    pt = sample_points(spec, 1, seed=6)[0]
    omegas = tractor_curvature(spec, pt)  # block validation runs inside
    fr = curvature.check_conventions(CurvatureFrame(spec, pt, 4))
    W = fr.values(fr.weyl)
    ginv = fr.values(fr.ginv)
    Wmix = np.einsum("ce,abed->abcd", ginv, W)
    for (a, b), endo in omegas.items():
        assert np.allclose(endo[1:-1, 1:-1], Wmix[a, b], atol=1e-8)
    assert any(frobenius(endo) > 1e-3 for endo in omegas.values())


@pytest.mark.parametrize("name", ["pp_wave", "lorentz3d", "product_split_n6"])
def test_connection_jets_of_a_batch_are_the_per_point_jets(name):
    # the point axis comes first, and each point's row has the bytes of the
    # connection jets of the frame built there alone
    spec = geometry.catalogue_metric(name)
    points = sample_points(spec, 3, seed=61)
    batch = CurvatureFrame(spec, points, 4)
    frames = [CurvatureFrame(spec, p, 4) for p in points]
    for m in (0, 1, 2):
        A = tractor.connection_jets(batch, m)
        assert A.shape == (len(points), spec.n, spec.n + 2, spec.n + 2, jets.tables(spec.n, m).size)
        for row, fr in zip(A, frames):
            alone = tractor.connection_jets(fr, m)
            assert row.shape == alone.shape and row.tobytes() == alone.tobytes()


@pytest.mark.parametrize("name", ["pp_wave", "lorentz3d", "product_split_n6"])
@pytest.mark.parametrize("m", [1, 2])
def test_curvature_chain_of_a_batch_is_the_per_point_chain(name, m):
    # every level puts the point axis first, and each point's row has the
    # bytes of the chain of the frame built there alone
    spec = geometry.catalogue_metric(name)
    points = sample_points(spec, 3, seed=61)
    levels = tractor.curvature_chain(CurvatureFrame(spec, points, 4), m)
    chains = [tractor.curvature_chain(CurvatureFrame(spec, p, 4), m) for p in points]
    assert len(levels) == m
    for k, X in enumerate(levels):
        assert X.shape[0] == len(points)
        for row, alone in zip(X, chains):
            assert row.shape == alone[k].shape and row.tobytes() == alone[k].tobytes()


@pytest.mark.parametrize("name", ["pp_wave", "taub_nut", "product_split_n6", "lorentz3d"])
def test_curvature_chain_matches_finite_differences(name):
    # X_1 = d_c Omega + [A_c, Omega], with d_c Omega by central differences
    spec = geometry.catalogue_metric(name)
    pt = np.array(sample_points(spec, 1, seed=4)[0])
    levels = tractor.curvature_chain(CurvatureFrame(spec, pt, 4), 2)

    def omega(x):
        return np.stack(list(tractor_curvature(spec, tuple(x)).values()))

    A = tractor.connection_jets(CurvatureFrame(spec, pt, 2), 0)[..., 0]
    h = 1e-4
    expected = []
    for c, step in enumerate(h * np.eye(spec.n)):
        d_omega = (omega(pt + step) - omega(pt - step)) / (2 * h)
        expected.append(d_omega + A[c] @ omega(pt) - omega(pt) @ A[c])
    expected = np.concatenate(expected)
    assert np.allclose(levels[0], omega(pt), atol=1e-14)
    assert np.abs(levels[1] - expected).max() < 1e-6 * max(1.0, np.abs(expected).max())


def test_tractor_curvature_annihilates_parallel_tractors():
    spec = builtin_metric("pp_wave")
    pt = sample_points(spec, 1, seed=7)[0]
    omegas = tractor_curvature(spec, pt)
    for _, sigma in spec.known_scales:
        I = einstein_tractor(spec, sigma, pt)
        for endo in omegas.values():
            assert np.linalg.norm(endo @ I) < 1e-8


def test_wedge_of_parallel_tractors_killed_by_induced_action():
    spec = builtin_metric("pp_wave")
    pt = sample_points(spec, 1, seed=8)[0]
    I1 = einstein_tractor(spec, spec.known_scales[0][1], pt)
    I2 = einstein_tractor(spec, spec.known_scales[1][1], pt)
    wedge = np.outer(I1, I2) - np.outer(I2, I1)
    for M in tractor_curvature(spec, pt).values():
        acted = M @ wedge + wedge @ M.T   # derived action on Lambda^2
        assert np.linalg.norm(acted) < 1e-8


def test_transport_degenerate_loop_is_identity():
    spec = builtin_metric("taub_nut")
    pt = np.array(sample_points(spec, 1, seed=9)[0])
    path = [pt, pt + 0.001, pt]
    M = transport_matrix(spec, path)
    assert np.allclose(M, np.eye(6), atol=1e-10)


def test_transport_flat_loop_is_identity():
    spec = pseudo_euclidean(0, 4)
    loop = rectangle_loop((0.0, 0.0, 0.0, 0.0), 0, 1, 0.5)
    M = transport_matrix(spec, loop)
    assert np.allclose(M, np.eye(6), atol=1e-10)


def test_transport_preserves_tractor_pairing():
    spec = builtin_metric("pp_split")
    a = np.array(sample_points(spec, 1, seed=10)[0])
    b = np.array(sample_points(spec, 1, seed=11)[0])
    M = transport_matrix(spec, [a, b])
    ga = metric_at(spec, tuple(a))
    gb = metric_at(spec, tuple(b))
    Ba = tractor.tractor_metric_matrix(ga)
    Bb = tractor.tractor_metric_matrix(gb)
    # <MV, MW>_b = <V, W>_a for all V, W
    assert np.allclose(M.T @ Bb @ M, Ba, atol=1e-9)
    rng = np.random.default_rng(0)
    v = rng.normal(size=6)
    w = M @ v
    assert pairing(w, w, gb) == pytest.approx(pairing(v, v, ga), abs=1e-9)


def test_transport_rejects_paths_leaving_domain():
    spec = builtin_metric("taub_nut")
    inside = np.array(sample_points(spec, 1, seed=12)[0])
    outside = inside.copy()
    outside[0] = -1.0  # x1 < 0 violates the domain
    with pytest.raises(TransportError):
        transport_matrix(spec, [inside, outside])


def test_small_loop_holonomy_matches_curvature():
    spec = builtin_metric("taub_nut")
    pt = sample_points(spec, 1, seed=13)[0]
    omega = tractor_curvature(spec, pt)[(0, 1)]

    def holonomy(h):
        return transport_matrix(spec, rectangle_loop(pt, 0, 1, h))

    errs = {}
    for h in (0.1, 0.01):
        errs[h] = np.linalg.norm(holonomy(h) - np.eye(6) - h * h * omega)
        assert errs[h] < 10 * h ** 3 * max(1.0, np.linalg.norm(omega))
    growth = np.linalg.norm(holonomy(0.1) - np.eye(6))
    shrink = np.linalg.norm(holonomy(0.01) - np.eye(6))
    slope = math.log10(growth / shrink)
    assert abs(slope - 2.0) < 0.3  # within 15% of quadratic


def test_scale_equivariance_of_scale_tractor():
    # recompute after rescaling and compare with the transformed components
    spec = builtin_metric("pp_wave")
    omega = expr.parse("exp(x/4)", 4, var_names=spec.names)
    pt = sample_points(spec, 1, seed=14)[0]
    sigma = spec.known_scales[1][1]
    I = einstein_tractor(spec, sigma, pt)
    hat_spec = curvature.rescale_metric(spec, omega)
    hat_sigma = expr.mul(omega, sigma)
    I_hat = einstein_tractor(hat_spec, hat_sigma, pt)
    w = expr.evaluate(omega, jets.seed_jets(pt, 1))
    g = metric_at(spec, pt)
    expected = tractor.transform_tractor(I, w[0], jets.gradient(w, 4) / w[0], g)
    assert np.allclose(I_hat, expected, atol=1e-8)


def test_corrupted_tractor_curvature_is_rejected():
    spec = builtin_metric("pp_split")
    fr = CurvatureFrame(spec, sample_points(spec, 1, seed=3)[0], 4)
    first, second = np.array(list(itertools.combinations(range(spec.n), 2))).T
    omegas = tractor.curvature_chain(fr, 1)[0]
    tractor._validate_tractor_curvature(fr, first, second, omegas)
    bad = omegas.copy()
    bad[4, 0, 2] = 1.0        # a top-row entry of Omega_13
    bad[5, -1, 0] = 1.0       # a corner of Omega_23, a later pair
    with pytest.raises(ConventionError, match="Omega_13 has a nonzero top row") as err:
        tractor._validate_tractor_curvature(fr, first, second, bad)
    assert "Omega_23" not in str(err.value)
    # at a batch of two points whose second is corrupted, the error names
    # that point and the first failing pair there
    points = sample_points(spec, 2, seed=3)
    batch = CurvatureFrame(spec, points, 4)
    omegas = tractor.curvature_chain(batch, 1)[0]
    bad = omegas.copy()
    bad[1, 5, -1, 0] = 1.0
    with pytest.raises(ConventionError, match="Omega_23 has corner entries") as err:
        tractor._validate_tractor_curvature(batch, first, second, bad)
    at = [geometry.format_point(p) for p in points]
    assert f"at {at[1]}: " in str(err.value) and at[0] not in str(err.value)
