"""Residual checks, Weyl kernels, wedge fields, dimension machinery."""

import functools
import itertools
import math

import numpy as np
import pytest

from conformal_gap_lab import analysis, curvature, expr, geometry, jets, tractor
from conformal_gap_lab.analysis import (
    AnalysisError, ae_residuals, estimate_parallel_dims, kernel, kernel_of_weyl,
    verify_theorem,
)
from conformal_gap_lab.curvature import CurvatureFrame, frobenius
from conformal_gap_lab.geometry import builtin_metric, pseudo_euclidean, sample_points


def metric_at(spec, point):
    """The metric's values at the point, from a self-checked order-3 frame."""
    fr = curvature.check_conventions(CurvatureFrame(spec, point, 3))
    return fr.values(fr.g)


def field_jets(k_asts, point):
    """Order-1 jets (n, C_1) of the vector field with component formulas k_asts."""
    env = jets.seed_jets(tuple(point), 1)
    return np.stack([expr.evaluate(a, env) for a in k_asts])


def ae_matrix(fr, sigma):
    """The AE residual matrix of one scale formula at a frame of one point."""
    return ae_residuals(fr, fr.scalar_jet(sigma, 2))


def wedge_field(fr, sigma, sigma_bar):
    """Order-1 jets (n, C_1) of the wedge field of two scales at a frame of
    one point: the batched core on one pair."""
    return analysis.wedge_jets(fr, fr.scalar_jet(sigma, 2), fr.scalar_jet(sigma_bar, 2))


def killing_residuals(fr, k):
    """(conformal-Killing, normality, first-index normality or None) of the
    field with jets k (n, C_1) at a frame of one point."""
    _, ck, normal, first = analysis.killing_terms(fr, k)
    return float(ck), float(normal), None if first is None else float(first)


def tractor_pairing(u, v, g):
    """<u, v> in the tractor metric at a point where the metric is g."""
    return float(u @ tractor.tractor_metric_matrix(g) @ v)


def test_kernel_identity_and_zero():
    assert kernel(np.eye(3)).dim == 0
    assert kernel(np.eye(3)).ambient_dim == 3
    assert kernel(np.zeros((3, 3))).dim == 3


def test_kernel_rank_one_outer_product():
    rng = np.random.default_rng(4)
    u = rng.normal(size=5)
    v = rng.normal(size=7)
    ksp = kernel(np.outer(u, v))
    assert ksp.dim == 6
    assert not ksp.marginal
    # every basis vector is orthogonal to v
    assert np.abs(ksp.basis @ v).max() < 1e-10
    # basis orthonormal
    assert np.allclose(ksp.basis @ ksp.basis.T, np.eye(6), atol=1e-12)


def test_kernel_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        kernel(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        kernel(np.array([[np.nan, 1.0]]))


def test_weyl_kernel_dims_on_catalogue():
    fs = builtin_metric("fubini_study")
    assert kernel_of_weyl(CurvatureFrame(fs, sample_points(fs, 1, seed=1)[0], 2)).dim == 0
    pw = builtin_metric("pp_wave")
    ksp = kernel_of_weyl(CurvatureFrame(pw, sample_points(pw, 1, seed=1)[0], 2))
    assert ksp.dim == 1
    direction = ksp.basis[0] / np.abs(ksp.basis[0]).max()
    assert np.allclose(np.abs(direction), [0, 0, 0, 1], atol=1e-9)  # z direction
    ps = builtin_metric("pp_split")
    assert kernel_of_weyl(CurvatureFrame(ps, sample_points(ps, 1, seed=1)[0], 2)).dim == 2


def test_weyl_kernel_rejects_n3():
    spec = builtin_metric("lorentz3d")
    with pytest.raises(ValueError):
        kernel_of_weyl(CurvatureFrame(spec, (0.1, 0.2, 0.3), 2))


@pytest.mark.parametrize("name", [
    "fubini_study", "fubini_study_hyperbolic", "taub_nut",
    "pp_wave", "pp_split",
])
def test_einstein_metrics_have_constant_scale_solution(name):
    spec = builtin_metric(name)
    for pt in sample_points(spec, 5, seed=2):
        assert frobenius(ae_matrix(CurvatureFrame(spec, pt, 2), expr.ONE)) < 1e-9


def test_pp_wave_two_parameter_family():
    spec = builtin_metric("pp_wave")
    rng = np.random.default_rng(5)
    wave = spec.known_scales[1][1]
    for _ in range(4):
        c0, c1 = rng.uniform(-2, 2, size=2)
        sigma = expr.add(expr.const(c0), expr.mul(expr.const(c1), wave))
        for pt in sample_points(spec, 3, seed=3):
            assert frobenius(ae_matrix(CurvatureFrame(spec, pt, 2), sigma)) < 1e-8


def test_generic_function_is_not_a_scale():
    spec = builtin_metric("fubini_study")
    pt = sample_points(spec, 1, seed=4)[0]
    assert frobenius(ae_matrix(CurvatureFrame(spec, pt, 2), expr.var(0))) > 1e-3


def test_lorentz3d_killing_field_full_report():
    for h in ("0", "sin(y)"):
        spec = builtin_metric("lorentz3d", {"h": h})
        k = (expr.ZERO, expr.ZERO, expr.ONE)       # d/dt in (x, y, t)
        for pt in sample_points(spec, 4, seed=5):
            fr = CurvatureFrame(spec, pt, 3)
            kj = field_jets(k, pt)
            nab_up, ck, normal, first = analysis.killing_terms(fr, kj)
            assert ck < 1e-9
            assert normal < 1e-9
            assert first < 1e-9
            assert frobenius(nab_up) < 1e-9                              # parallel
            assert abs(kj[:, 0] @ fr.values(fr.g) @ kj[:, 0]) < 1e-9     # null


def test_pp_wave_z_direction_is_normal_killing():
    spec = builtin_metric("pp_wave")
    k = (expr.ZERO, expr.ZERO, expr.ZERO, expr.ONE)
    for pt in sample_points(spec, 3, seed=6):
        ck, normal, _ = killing_residuals(CurvatureFrame(spec, pt, 2), field_jets(k, pt))
        assert ck < 1e-9
        assert normal < 1e-9


def test_random_field_fails_killing_equation():
    spec = builtin_metric("taub_nut")
    k = (expr.var(1), expr.ZERO, expr.parse("sin(x1)", 4), expr.ZERO)
    pt = sample_points(spec, 1, seed=7)[0]
    assert killing_residuals(CurvatureFrame(spec, pt, 2), field_jets(k, pt))[0] > 1e-3


def test_wedge_of_scale_with_itself_vanishes():
    spec = builtin_metric("pp_wave")
    sigma = spec.known_scales[1][1]
    for pt in sample_points(spec, 2, seed=8):
        vals = wedge_field(CurvatureFrame(spec, pt, 2), sigma, sigma)[:, 0]
        assert np.abs(vals).max() < 1e-12


def test_pp_wave_wedge_is_minus_sqrt2_dz():
    spec = builtin_metric("pp_wave")
    for pt in sample_points(spec, 3, seed=9):
        vals = wedge_field(CurvatureFrame(spec, pt, 2), expr.ONE, spec.known_scales[1][1])[:, 0]
        assert np.allclose(vals, [0, 0, 0, -math.sqrt(2)], atol=1e-10)


def test_pp_split_wedges_span_expected_fields():
    spec = builtin_metric("pp_split")
    one, t, x = (s for _, s in spec.known_scales)
    for pt in sample_points(spec, 3, seed=10):
        tval, xval = pt[0], pt[1]
        fr = CurvatureFrame(spec, pt, 2)
        v1, v2, v3 = (wedge_field(fr, a, b)[:, 0] for a, b in ((one, t), (one, x), (t, x)))
        assert np.allclose(v1, [0, 0, 0, 1], atol=1e-10)            # dz dual
        assert np.allclose(v2, [0, 0, 1, 0], atol=1e-10)            # dy dual
        assert np.allclose(v3, [0, 0, tval, -xval], atol=1e-10)     # t dy - x dz
        g = metric_at(spec, pt)
        for v in (v1, v2, v3):
            assert abs(v @ g @ v) < 1e-9                            # all null


def test_wedge_verification_rejects_non_solutions():
    spec = builtin_metric("pp_split")
    t_sq = expr.parse("t^2", 4, var_names=spec.names)
    pt = sample_points(spec, 1, seed=33)[0]
    fr = CurvatureFrame(spec, pt, 2)
    assert killing_residuals(fr, wedge_field(fr, expr.ONE, t_sq))[0] > 1e-3


def _wedge_oracle(spec, s1, s2, pt):
    """g^-1 (sigma grad sigma_bar - sigma_bar grad sigma), inverting the g values."""
    g = geometry.metric_jets(spec, pt, 1)[..., 0]
    a, b = (expr.evaluate(s, jets.seed_jets(pt, 1)) for s in (s1, s2))
    return np.linalg.inv(g) @ (a[0] * b[1:] - b[0] * a[1:])


@pytest.mark.parametrize("name", ["warped_fs_n6", "product_lorentz_n6"])
def test_wedge_jets_match_inverse_metric_oracle(name):
    spec = geometry.catalogue_metric(name)
    # the scales vary only along the base; a function of fiber coordinates
    # makes g^-1 act on the off-diagonal fiber block too
    fiber = expr.mul(expr.var(spec.n - 3), expr.Call("sin", expr.var(spec.n - 1)))
    scales = [s for _, s in spec.known_scales] + [fiber]
    h = 1e-4
    for pt in sample_points(spec, 2, seed=34):
        fr = CurvatureFrame(spec, pt, 2)
        for s1, s2 in itertools.combinations(scales, 2):
            k = wedge_field(fr, s1, s2)
            want = _wedge_oracle(spec, s1, s2, pt)
            assert np.abs(k[:, 0] - want).max() <= 1e-12 * np.abs(want).max()
            step = h * np.eye(spec.n)
            fd = np.stack([(_wedge_oracle(spec, s1, s2, np.add(pt, e))
                            - _wedge_oracle(spec, s1, s2, np.subtract(pt, e))) / (2 * h)
                           for e in step], axis=-1)              # [a, r] = d_r k^a
            # relative to the whole jet: some wedges are constant fields
            assert np.abs(fd - jets.gradient(k, spec.n)).max() <= 1e-6 * np.abs(k).max()


def test_wedge_fields_pass_killing_and_normality():
    spec = builtin_metric("pp_split")
    one, t, x = (s for _, s in spec.known_scales)
    for s1, s2 in ((one, t), (one, x), (t, x)):
        for pt in sample_points(spec, 3, seed=11):
            fr = CurvatureFrame(spec, pt, 2)
            ck, normal, _ = killing_residuals(fr, wedge_field(fr, s1, s2))
            assert ck < 1e-8
            assert normal < 1e-8


def test_bracket_closure_of_pp_split_wedges():
    spec = builtin_metric("pp_split")
    one, t, x = (s for _, s in spec.known_scales)
    points = sample_points(spec, 10, seed=12)
    frames = [CurvatureFrame(spec, p, 2) for p in points]
    fields = np.stack([[wedge_field(fr, a, b) for fr in frames]
                       for a, b in ((one, t), (one, x), (t, x))])
    assert analysis.bracket_closure_residual(fields) < 1e-6


def test_ae_operator_conformal_invariance():
    # for ghat = omega^2 g the residual of omega*sigma picks up exactly omega
    spec = builtin_metric("pp_wave")
    omega = expr.parse("exp(x/6)", 4, var_names=spec.names)
    hatted = curvature.rescale_metric(spec, omega)
    sigma = expr.add(expr.ONE, expr.var(1))        # generic non-solution
    for pt in sample_points(spec, 3, seed=13):
        base = ae_matrix(CurvatureFrame(spec, pt, 2), sigma)
        lifted = ae_matrix(CurvatureFrame(hatted, pt, 2), expr.mul(omega, sigma))
        w = expr.evaluate_at(omega, pt)
        assert np.allclose(lifted, w * base, atol=1e-8 * max(1.0, np.abs(base).max()))


def test_flat_dims_are_maximal():
    spec = pseudo_euclidean(0, 4)
    rep = estimate_parallel_dims(spec, seed=3)
    assert (rep.d_ae_lower, rep.d_ae_upper) == (6, 6)
    assert (rep.d_nck_lower, rep.d_nck_upper) == (15, 15)
    assert rep.exact_ae and rep.exact_nck
    # skew pairing bound holds with equality here
    assert rep.d_nck_lower >= rep.d_ae_lower * (rep.d_ae_lower - 1) // 2


def test_dims_witness_only_mode():
    spec = builtin_metric("pp_split")
    rep = estimate_parallel_dims(spec, seed=3, upper=False)
    assert rep.d_ae_lower == 3
    assert rep.d_nck_lower == 3
    assert not rep.exact_ae


def test_theorem_bounds_property_over_catalogue():
    for name in ("fubini_study", "taub_nut", "pp_wave", "pp_split",
                 "warped_fs_n5", "product_lorentz_n5"):
        report = verify_theorem("bounds", metric=name)
        assert report["passed"], report


def test_verify_riemannian_case_a_n5():
    report = verify_theorem("t_riem", case="a", n=5)
    assert report["passed"], [c for c in report["checks"] if not c["passed"]]


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("theorem, params", [
    ("t_riem", {"case": "a"}), ("t_riem", {"case": "b"}), ("t_riem", {"case": "c"}),
    ("t_lorentz", {}),
])
def test_family_verifiers_pass_at_the_top_of_the_table(theorem, params, n):
    report = verify_theorem(theorem, n=n, seed=0, **params)
    assert report["passed"], [c for c in report["checks"] if not c["passed"]]


def test_verify_rflat_pp_wave():
    report = verify_theorem("rflat", metric="pp_wave")
    assert report["passed"], [c for c in report["checks"] if not c["passed"]]


def test_verify_unknown_theorem():
    with pytest.raises(AnalysisError):
        verify_theorem("nonsense")


def test_scale_curvature_of_fs_unit_scale():
    spec = builtin_metric("fubini_study")
    pt = sample_points(spec, 1, seed=14)[0]
    # sigma = 1 reproduces the background J and the tractor-norm relation
    fr = CurvatureFrame(spec, pt, 3)
    j_sigma = analysis.j_of_scale(fr, fr.scalar_jet(expr.ONE, 2))
    assert j_sigma == pytest.approx(8.0, abs=1e-8)
    I = tractor.einstein_jets(fr, fr.scalar_jet(expr.ONE)[None])[0, :, 0]
    g = metric_at(spec, pt)
    assert tractor_pairing(I, I, g) == pytest.approx(-2 / 4 * j_sigma, abs=1e-8)


def test_sc_direct_rescale_matches_formula():
    spec = geometry.catalogue_metric("warped_fs_n5")
    sigma = spec.known_scales[0][1]                  # 1 + |x|^2, positive
    pt = sample_points(spec, 1, seed=15)[0]
    fr = CurvatureFrame(spec, pt, 2)
    via_formula = analysis.sc_of_scale(fr, fr.scalar_jet(sigma, 2))
    via_rescale = analysis.sc_of_scale_direct(spec, sigma, pt)
    assert via_formula == pytest.approx(via_rescale, rel=1e-8)
    assert via_formula == pytest.approx(5 * 4 * 4.0, abs=1e-7)   # n(n-1) * 4AB


@pytest.mark.parametrize("name", ["fubini_study", "pp_split", "warped_hfs_n5",
                                  "product_lorentz_n6", "product_split_n8_p4"])
def test_j_of_a_stack_of_scales_equals_j_at_each_point(name):
    # the family verifiers read J and Sc of all their points at once
    spec = geometry.catalogue_metric(name)
    fr = CurvatureFrame(spec, sample_points(spec, 4, seed=21), 2)
    S = np.stack([fr.scalar_jet(s, 2) for _, s in spec.known_scales])   # (scale, point, C_2)
    J, Sc = analysis.j_of_scale(fr, S), analysis.sc_of_scale(fr, S)
    assert J.shape == Sc.shape == S.shape[:2]
    frames = [CurvatureFrame(spec, p, 2) for p in fr.point]
    for k, i in np.ndindex(J.shape):
        one = analysis.j_of_scale(frames[i], S[k, i])
        assert J[k, i].tobytes() == one.tobytes()
        assert Sc[k, i] == 2.0 * (spec.n - 1) * one


@pytest.mark.parametrize("seed", [-1, -2])
def test_negative_seed_is_rejected(seed):
    # the check points are drawn at seed + 2, so a negative seed would
    # silently report points drawn at another seed
    with pytest.raises(ValueError, match="non-negative"):
        estimate_parallel_dims(builtin_metric("pp_split"), seed=seed)


def test_marginal_flag_on_knife_edge_matrix():
    M = np.diag([1.0, 1e-7, 1e-14])
    ksp = kernel(M)
    assert ksp.marginal


def test_derived_lambda2_is_the_action_on_skew_matrices():
    # X.(u^v) = Xu^v + u^Xv is X W + W X^T on W = u v^T - v u^T, batched
    rng = np.random.default_rng(23)
    X = rng.normal(size=(3, 6, 6))
    u, v = rng.normal(size=(2, 6))
    W = np.outer(u, v) - np.outer(v, u)
    upper = np.triu_indices(6, 1)
    acted = analysis.derived_lambda2(X) @ analysis.wedge_vector(u, v)
    for k in range(3):
        assert np.allclose(acted[k], (X[k] @ W + W @ X[k].T)[upper], atol=1e-12)


def test_tractor_norm_matches_j_formula_on_warped_examples():
    # <I_sigma, I_sigma> = -(2/n) J_sigma
    for name in ("warped_fs_n5", "product_lorentz_n5"):
        spec = geometry.catalogue_metric(name)
        rng = np.random.default_rng(16)
        for pt in sample_points(spec, 3, seed=16):
            coeffs = rng.uniform(-1, 1, size=len(spec.known_scales))
            sigma = expr.ZERO
            for c, (_, ast) in zip(coeffs, spec.known_scales):
                sigma = expr.add(sigma, expr.mul(expr.const(float(c)), ast))
            fr = CurvatureFrame(spec, pt, 3)
            I = tractor.einstein_jets(fr, fr.scalar_jet(sigma)[None])[0, :, 0]
            g = metric_at(spec, pt)
            lhs = tractor_pairing(I, I, g)
            rhs = -2.0 / spec.n * analysis.j_of_scale(fr, fr.scalar_jet(sigma, 2))
            assert lhs == pytest.approx(rhs, abs=1e-8 * max(1.0, abs(rhs)))


def test_pp_wedge_fields_are_null():
    for name in ("pp_wave", "pp_split"):
        spec = builtin_metric(name)
        scales = list(spec.known_scales)
        for (_, s1), (_, s2) in [(scales[0], scales[1])]:
            for pt in sample_points(spec, 5, seed=17):
                vals = wedge_field(CurvatureFrame(spec, pt, 2), s1, s2)[:, 0]
                g = metric_at(spec, pt)
                assert abs(vals @ g @ vals) < 1e-9


def test_bracket_closure_on_lorentz_product_witnesses():
    spec = geometry.catalogue_metric("product_lorentz_n6")
    scales = list(spec.known_scales)
    points = sample_points(spec, 10, seed=18)
    fields = np.stack([
        [wedge_field(CurvatureFrame(spec, p, 2), s1, s2) for p in points]
        for (_, s1), (_, s2) in itertools.combinations(scales, 2)
    ])
    assert analysis.bracket_closure_residual(fields) < 1e-6


def test_riemannian_4d_submaximal_scale_dimension():
    # a single verified scale and no normal Killing fields, certified exactly
    for name in ("fubini_study", "taub_nut"):
        spec = builtin_metric(name)
        rep = estimate_parallel_dims(spec, seed=0)
        assert rep.d_ae_lower == rep.d_ae_upper == 1
        assert rep.d_nck_lower == rep.d_nck_upper == 0
        assert rep.exact_ae and rep.exact_nck


def test_lorentz3d_dimension_bounds():
    # no scales at all, and at most one normal Killing field
    spec = builtin_metric("lorentz3d")
    rep = estimate_parallel_dims(spec, seed=0)
    assert rep.d_ae_upper == 0
    assert rep.d_nck_upper <= 1


def test_warped_n5_submaximal_dimensions():
    # a genuinely warped (nonconstant f) example certifies n-3 and (n-4)(n-3)/2
    spec = geometry.catalogue_metric("warped_hfs_n5")
    rep = estimate_parallel_dims(spec, seed=0)
    assert rep.d_ae_lower == rep.d_ae_upper == 2
    assert rep.d_nck_lower == rep.d_nck_upper == 1
    assert rep.exact_ae and rep.exact_nck


def test_warped_solution_with_small_metric_eigenvalues():
    # at seed 25 the metric has |det g| = 5e-11 with condition number 1e4
    report = verify_theorem("warpedSol", seed=25)
    assert report["passed"], [c for c in report["checks"] if not c["passed"]]


def _base_frame(spec, point=None):
    """The frame the upper bound reads, at the default basepoint unless given."""
    point = geometry.default_point(spec) if point is None else point
    return CurvatureFrame(spec, point, analysis.JET_ORDER)


def _rotated(M):
    Q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(M.shape[-1],) * 2))
    return M @ Q


def test_witness_outside_constraint_kernel_is_refuted(monkeypatch):
    # rotated constraints keep the kernel dimensions but miss the witnesses
    spec = builtin_metric("pp_split")
    holonomy, lambda2 = analysis.holonomy_constraints, analysis.derived_lambda2
    fakes = {
        "holonomy_constraints": lambda fr: (_rotated(holonomy(fr)[0]), holonomy(fr)[1]),
        "derived_lambda2": lambda X: _rotated(lambda2(X)),
    }
    for name, fake in fakes.items():
        with monkeypatch.context() as patch:
            patch.setattr(analysis, name, fake)
            standard, adjoint = analysis.constraint_kernels(_base_frame(spec))
            assert (standard.dim, adjoint.dim) == (3, 3)
            with pytest.raises(AnalysisError, match="outside the"):
                estimate_parallel_dims(spec, seed=0)


def _rescaled(spec):
    a, b, c = spec.names[:3]
    omega = expr.parse(f"exp({a}/3 + {b}*{c}/5)", spec.n, var_names=spec.names)
    return curvature.rescale_metric(spec, omega)


@pytest.mark.parametrize("name", ["pp_wave", "taub_nut", "product_split_n6"])
def test_dims_upper_bounds_are_conformally_invariant(name):
    spec = geometry.catalogue_metric(name)
    base = estimate_parallel_dims(spec, seed=0)
    hatted = estimate_parallel_dims(_rescaled(spec), seed=0)
    assert (hatted.d_ae_upper, hatted.d_nck_upper) == (base.d_ae_upper, base.d_nck_upper)
    assert not hatted.marginal


@pytest.mark.parametrize("name", ["flat_r4", "flat_1_3"])
def test_conformally_flat_metrics_get_flat_model_bounds(name):
    rep = estimate_parallel_dims(_rescaled(geometry.catalogue_metric(name)), seed=0)
    assert (rep.d_ae_upper, rep.d_nck_upper) == (6, 15)
    assert any("flat-model" in note for note in rep.notes)


# README "What the suite certifies": metric -> (d_aE, d_ncK)
README_DIMS = {
    "flat_r4": (6, 15), "fubini_study": (1, 0), "taub_nut": (1, 0),
    "pp_wave": (2, 1), "pp_split": (3, 3), "warped_hfs_n5": (2, 1),
    "product_lorentz_n6": (4, 6), "product_split_n6": (5, 10),
}


@pytest.mark.parametrize("name", sorted(README_DIMS))
def test_dims_table_holds_at_random_basepoints(name):
    spec = geometry.catalogue_metric(name)
    d_ae, d_nck = README_DIMS[name]
    for pt in sample_points(spec, 6, seed=21):
        rep = estimate_parallel_dims(spec, pt, seed=0)
        got = (rep.d_ae_lower, rep.d_ae_upper, rep.d_nck_lower, rep.d_nck_upper)
        assert got == (d_ae, d_ae, d_nck, d_nck), pt
        assert rep.exact_ae and rep.exact_nck and not rep.marginal


@pytest.mark.parametrize("name", ["product_split_n6", "product_lorentz_n6", "warped_fs_n8",
                                  "product_split_n8_p4", "product_lorentz_n8"])
def test_constraint_kernels_equal_the_full_row_kernels(name):
    # the kernels from the algebra basis are those of every chain value's rows
    spec = geometry.catalogue_metric(name)
    fr = _base_frame(spec)
    X, _ = analysis.holonomy_constraints(fr)
    nb = spec.n + 2
    rows = (X.reshape(-1, nb), analysis.derived_lambda2(X).reshape(-1, nb * (nb - 1) // 2))
    for A, cut in zip(rows, analysis.constraint_kernels(fr)):
        full = kernel(A)
        assert full.marginal == cut.marginal
        assert np.abs(full.basis.T @ full.basis - cut.basis.T @ cut.basis).max() < 1e-12


def test_weak_algebra_direction_counts_once_it_passes_the_span_cut(monkeypatch):
    # chain values E and 1e-5 F, where F acts with singular values 1 and 1e-4:
    # the span cut keeps F, whose basis matrix then cuts both of its rows,
    # while the raw rows' cut drops the 1e-9 one
    spec = builtin_metric("pp_split")
    E, F = np.zeros((2, 6, 6))
    E[0, 1] = F[2, 3] = 1.0
    F[4, 5] = 1e-4
    X = np.stack([E, 1e-5 * F])
    monkeypatch.setattr(analysis, "holonomy_constraints", lambda fr: (X, 0.0))
    standard, _ = analysis.constraint_kernels(_base_frame(spec))
    raw = kernel(X.reshape(-1, 6))
    assert (standard.dim, raw.dim) == (3, 4)
    assert not standard.marginal and not raw.marginal
    assert np.abs(standard.basis[:, [1, 3, 5]]).max() < 1e-12


# dimension of the infinitesimal holonomy algebra at the default basepoint
HOL_DIMS = {
    "fubini_study": 7, "taub_nut": 7, "warped_hfs_n5": 7, "warped_fs_n7": 7, "warped_fs_n8": 7,
    "pp_wave": 5, "product_lorentz_n6": 5, "product_lorentz_n8": 5,
    "pp_split": 3, "product_split_n6": 3, "product_split_n8_p4": 3, "lorentz3d": 3,
}


@pytest.mark.parametrize("name", sorted(HOL_DIMS))
def test_constraint_kernels_act_on_a_basis_of_the_holonomy_algebra(name, monkeypatch):
    # one kernel of the chain values, then hol_dim basis matrices on each side
    # (on warped_fs_n8 the adjoint kernel gets 7 * 45 = 315 rows for 252 values)
    spec = geometry.catalogue_metric(name)
    nb = spec.n + 2
    pairs = nb * (nb - 1) // 2
    acted, shapes = [], []
    lambda2, rank = analysis.derived_lambda2, analysis.kernel

    def counted_lambda2(X):
        acted.append(len(X))
        return lambda2(X)

    def counted_kernel(A):
        shapes.append(np.shape(A))
        return rank(A)

    monkeypatch.setattr(analysis, "derived_lambda2", counted_lambda2)
    monkeypatch.setattr(analysis, "kernel", counted_kernel)
    analysis.constraint_kernels(_base_frame(spec))
    hol = HOL_DIMS[name]
    assert acted == [hol]
    assert [shape[1] for shape in shapes] == [nb * nb, nb, pairs]
    assert shapes[1:] == [(hol * nb, nb), (hol * pairs, pairs)]


def test_subspace_contains_is_relative_to_the_vector():
    e = np.eye(3)
    line = analysis.Subspace(e[:1])
    assert not line.contains(1e-9 * e[1])
    assert line.contains(np.zeros(3))
    assert line.contains(1e-9 * e[0] + 1e-18 * e[1])
    assert not line.contains(e[0] + 1e-6 * e[1])


def test_subspace_contains_holds_at_any_scale():
    # |v| overflows past about 1e154, so the check scales v by max |v_i| first
    e = np.eye(3)
    line = analysis.Subspace(e[:1])
    for size in (1e160, 1e200, 1e300):
        assert not line.contains(size * e[1])
        assert line.contains(size * e[0]) and line.contains(size * (e[0] + 1e-12 * e[1]))
        assert not line.contains(size * (e[0] + 1e-6 * e[1]))
    assert line.contains(1e-300 * e[0]) and not line.contains(1e-300 * e[2])
    for bad in ((np.inf, 0, 0), (np.nan, 0, 0), (1, np.inf, 0)):
        assert not line.contains(np.array(bad))


def _contains_one(basis, v):
    """Subspace.contains of one vector, written out on its own."""
    if not np.all(np.isfinite(v)):
        return False
    v = v / (np.abs(v).max(initial=0.0) or 1.0)
    return float(np.linalg.norm(v - basis.T @ (basis @ v))) <= 1e-8 * float(np.linalg.norm(v))


def test_subspace_contains_a_stack_as_it_contains_each_vector():
    # one projection of a stack decides each vector as it is decided alone:
    # the zero vector, non-finite entries, entries near 1e300 and 1e-300
    rng = np.random.default_rng(12)
    basis = np.linalg.qr(rng.normal(size=(7, 3)))[0].T           # 3 orthonormal rows
    space = analysis.Subspace(basis)
    inside = rng.normal(size=(4, 3)) @ basis
    off = rng.normal(size=(4, 7))
    nonfinite = inside.copy()
    nonfinite[0, 1], nonfinite[1, 6], nonfinite[2, 0] = np.inf, -np.inf, np.nan
    vectors = np.concatenate([
        inside, inside + 1e-12 * off, inside + 1e-6 * off, np.zeros((1, 7)), nonfinite[:3],
        1e300 * inside, 1e300 * (inside + 1e-6 * off), inside / np.abs(inside).max() * 1.7e308,
        1e-300 * inside, 1e-300 * off])
    want = [_contains_one(basis, v) for v in vectors]
    assert want == [True] * 8 + [False] * 4 + [True] + [False] * 3 + [True] * 4 + [False] * 4 \
        + [True] * 8 + [False] * 4
    got = space.contains(vectors)
    assert got.dtype == bool and got.tolist() == want
    assert [space.contains(v) for v in vectors] == want
    assert space.contains(vectors.reshape(3, -1, 7)).tolist() == np.reshape(want, (3, -1)).tolist()
    assert space.contains(vectors[:0]).shape == (0,)


@pytest.mark.parametrize("name, point", [("flat_r4", (0, 0, 0, 1e160)),
                                         ("flat_2_2", (1e200, 0, 0, 0))])
def test_scale_not_finite_at_the_basepoint_is_a_domain_error(name, point, recwarn):
    spec = geometry.catalogue_metric(name)
    with pytest.raises(geometry.DomainError, match=r"scale 'norm_sq' of .* is not finite at "
                                                   r"the basepoint \("):
        estimate_parallel_dims(spec, point)
    assert not recwarn.list


@pytest.mark.parametrize("name", ["pp_split", "product_split_n6"])
def test_constraint_kernels_survive_transport(name):
    # transported kernel elements are annihilated by the curvature elsewhere
    spec = geometry.catalogue_metric(name)
    p = geometry.default_point(spec)
    standard, adjoint = analysis.constraint_kernels(_base_frame(spec, p))
    nb = spec.n + 2
    rows, cols = np.array(list(itertools.combinations(range(nb), 2))).T
    for y in sample_points(spec, 2, seed=22):
        T = tractor.transport_matrix(spec, [p, y])
        omegas = tractor.curvature_chain(CurvatureFrame(spec, y, 3), 1)[0]
        size = max(np.linalg.norm(M) for M in omegas)
        for M in omegas:
            for v in standard.basis:
                assert np.linalg.norm(M @ T @ v) < 1e-8 * size * np.linalg.norm(T @ v)
            for coords in adjoint.basis:
                K = np.zeros((nb, nb))
                K[rows, cols] = coords
                K = T @ (K - K.T) @ T.T
                assert np.linalg.norm(M @ K + K @ M.T) < 1e-8 * size * np.linalg.norm(K)


def _close(batched, single):
    # a batch of several scales contracts its tensors with einsum and matmul
    # over its leading axes, which may sum in another order than the
    # one-scale path
    return np.allclose(batched, single, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", [n for n in geometry.catalogue_names() if "(" not in n])
def test_batched_witness_checks_equal_the_single_scale_functions(name):
    # a batch of one scale (pair) gives the bits of the single-scale function;
    # the batch of all of them agrees to rounding
    spec = geometry.catalogue_metric(name)
    # the known scales plus a non-scale, so failing checks are covered too
    sigmas = [s for _, s in spec.known_scales] + [expr.var(0), expr.add(expr.ONE, expr.var(1))]
    first, second = np.array(list(itertools.combinations(range(len(sigmas)), 2))).T
    for pt in sample_points(spec, 2, seed=13):
        fr = CurvatureFrame(spec, pt, 2)
        S = np.stack([fr.scalar_jet(s, 2) for s in sigmas])
        R = analysis.ae_residuals(fr, S)
        norms = curvature.norms(R, 2)
        for i, s in enumerate(sigmas):
            single = ae_matrix(fr, s)
            assert analysis.ae_residuals(fr, S[i:i + 1])[0].tobytes() == single.tobytes()
            assert _close(R[i], single) and _close(norms[i], frobenius(single))

        # normality reads Cotton, an order-3 tensor, for n = 3
        kfr = fr if spec.n >= 4 else CurvatureFrame(spec, pt, 3)
        K = analysis.wedge_jets(fr, S[first], S[second])
        _, ck, normal, normal_first = analysis.killing_terms(kfr, K)
        for q, (i, j) in enumerate(zip(first, second)):
            k = wedge_field(fr, sigmas[i], sigmas[j])
            assert analysis.wedge_jets(fr, S[i:i + 1], S[j:j + 1])[0].tobytes() == k.tobytes()
            ck_one, normal_one, first_one = killing_residuals(kfr, k)
            assert _close(K[q], k)
            assert _close(ck[q], ck_one) and _close(normal[q], normal_one)
            assert (first_one is None if normal_first is None
                    else _close(normal_first[q], first_one))


@pytest.mark.parametrize("name", ["product_split_n6", "product_lorentz_n6", "pp_split",
                                  "pp_wave", "warped_hfs_n5"])
def test_each_scale_evaluated_at_most_eight_times_per_dims_call(name, monkeypatch):
    spec = geometry.catalogue_metric(name)
    calls = []
    scalar_jet = curvature.CurvatureFrame.scalar_jet

    def counted(self, *args, **kwargs):
        calls.append(args)
        return scalar_jet(self, *args, **kwargs)

    monkeypatch.setattr(curvature.CurvatureFrame, "scalar_jet", counted)
    estimate_parallel_dims(spec, seed=0)
    assert 0 < len(calls) <= 8 * len(spec.known_scales)


def _count_frame_builds(monkeypatch) -> list:
    """The jet order of every CurvatureFrame.__init__ call from now on."""
    orders = []
    init = curvature.CurvatureFrame.__init__

    def counted(self, spec, points, order=4):
        orders.append(order)
        init(self, spec, points, order)

    monkeypatch.setattr(curvature.CurvatureFrame, "__init__", counted)
    return orders


@pytest.mark.parametrize("name", ["pp_wave", "pp_split", "product_split_n6",
                                  "product_lorentz_n6", "warped_fs_n6"])
def test_dims_call_builds_at_most_three_frames(name, monkeypatch):
    # one order-4 frame at the basepoint, one order-3 frame at the first check
    # point, and one order-2 batch over all check points
    spec = geometry.catalogue_metric(name)
    orders = _count_frame_builds(monkeypatch)
    estimate_parallel_dims(spec, seed=0)
    assert sorted(orders) == [2, 3, 4]


@pytest.mark.parametrize("name", ["pp_wave", "pp_split", "product_split_n6",
                                  "product_lorentz_n6", "warped_fs_n6"])
def test_dims_call_makes_two_batched_einstein_tractor_calls(name, monkeypatch):
    # one for the parallel residuals of all scales at the first check point,
    # one for the Einstein tractors of all verified scales at the basepoint
    spec = geometry.catalogue_metric(name)
    stacks = []
    einstein_jets = tractor.einstein_jets

    def counted(fr, sig):
        stacks.append(np.shape(sig)[:-1])
        return einstein_jets(fr, sig)

    monkeypatch.setattr(tractor, "einstein_jets", counted)
    rep = estimate_parallel_dims(spec, seed=0)
    assert rep.exact_ae
    assert stacks == [(len(spec.known_scales),), (len(rep.ae_witnesses),)]


@pytest.mark.parametrize("name", ["pp_wave", "product_split_n6"])
def test_kernel_of_weyl_reads_the_cached_higher_order_frame(name, monkeypatch):
    # an order-3 batch (as in cgl analyze) serves it with no order-2 frame
    # built, one kernel per point; the Weyl value is the one an order-2
    # frame holds, and each kernel is the one-point frame's
    spec = geometry.catalogue_metric(name)
    points = sample_points(spec, 4, seed=53)
    want = [kernel(curvature.CurvatureFrame(spec, p, 2).weyl[..., 0].reshape(spec.n ** 3, spec.n))
            for p in points]
    alone = [kernel_of_weyl(curvature.CurvatureFrame(spec, p, 2)) for p in points]
    orders = _count_frame_builds(monkeypatch)
    got = kernel_of_weyl(curvature.CurvatureFrame(spec, points, 3))
    assert orders == [3] and len(got) == len(points)
    for g, w, one in zip(got, want, alone):
        assert g.basis.tobytes() == w.basis.tobytes() == one.basis.tobytes()
        assert g.marginal == one.marginal


def test_family_verifier_builds_one_order_2_batch_per_point_set(monkeypatch):
    # t_gen checks its family at 10 points and runs dims at 6 check points
    orders = _count_frame_builds(monkeypatch)
    assert verify_theorem("t_gen", n=6)["passed"]
    assert orders.count(2) <= 2


def pulled_back(spec, A, x0, flip=False, c=1.7):
    """``spec`` in the chart x = A y + x0, scaled by c² and, with ``flip``,
    negated with its signature swapped; the domain and the known scales are
    carried over, and y samples a ±0.15 box around 0 (the point x0)."""
    n = spec.n

    def total(terms):
        return expr.simplify(functools.reduce(lambda a, b: expr.Bin("+", a, b), terms, expr.ZERO))

    x = [total([*(expr.Bin("*", expr.const(A[i, k]), expr.var(k)) for k in range(n)),
                expr.const(x0[i])]) for i in range(n)]

    def pull(node):
        return expr._rewrite(node, lambda nd: x[nd.index] if isinstance(nd, expr.Var) else nd)

    g = {(i, j): pull(gij) for i, row in enumerate(spec.components)
         for j, gij in enumerate(row) if not expr.is_zero(gij)}
    factor = -c ** 2 if flip else c ** 2
    components = tuple(tuple(
        total(expr.Bin("*", expr.const(factor * A[i, k] * A[j, l]), gij) for (i, j), gij in g.items())
        for l in range(n)) for k in range(n))
    return geometry.MetricSpec(
        n=n, signature=spec.signature[::-1] if flip else spec.signature,
        components=components, params=spec.params,
        domain=tuple(pull(d) for d in spec.domain), label=spec.label,
        sample_box=((-0.15, 0.15),) * n,
        known_scales=tuple((name, pull(sigma)) for name, sigma in spec.known_scales),
        notes=spec.notes)


def _transform(index, n):
    """A = I + 0.2 R, the same with its columns permuted, or the same with the
    sign flip, by index mod 3."""
    rng = np.random.default_rng(index)
    A = np.eye(n) + 0.2 * rng.uniform(-1.0, 1.0, (n, n))
    kind = ("generic", "permuted", "flip")[index % 3]
    return kind, A[:, rng.permutation(n)] if kind == "permuted" else A


# every entry but two, whose reports are not exact
EXACT_ENTRIES = [name for name in geometry.catalogue_names(examples=True)
                 + geometry.family_names(7) + geometry.family_names(8)
                 if name not in ("lorentz3d", "bad_einstein_claim")]


@pytest.mark.parametrize("index, name", enumerate(EXACT_ENTRIES))
def test_bounds_are_invariant_under_charts_constant_scales_and_sign(index, name):
    spec = geometry.catalogue_metric(name)
    report = estimate_parallel_dims(spec).as_dict()
    kind, A = _transform(index, spec.n)
    pulled = pulled_back(spec, A, report["basepoint"], flip=kind == "flip")
    again = estimate_parallel_dims(pulled).as_dict()
    assert report["d_ae"]["exact"] and report["d_nck"]["exact"]
    assert (again["d_ae"], again["d_nck"]) == (report["d_ae"], report["d_nck"]), kind
