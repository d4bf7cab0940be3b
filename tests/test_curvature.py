"""Curvature pipeline: catalogue invariants, identities, transformation laws."""

import copy
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conformal_gap_lab import curvature, expr, geometry, jets, tractor
from conformal_gap_lab.curvature import (
    CurvatureFrame, check_conventions, frobenius, rescale_metric, warped_nabla_reference,
    warped_ricci_reference,
)
from conformal_gap_lab.geometry import (
    WarpedSpec, builtin_metric, pseudo_euclidean, sample_points,
)


def checked(spec, pt, order=3):
    return check_conventions(CurvatureFrame(spec, pt, order))


def frame_at(name, seed=1, order=4, params=None):
    spec = builtin_metric(name, params)
    pt = sample_points(spec, 1, seed=seed)[0]
    return checked(spec, pt, order)


def test_flat_curvature_vanishes():
    spec = pseudo_euclidean(2, 2)
    fr = checked(spec, (0.3, -0.2, 0.5, 0.1), 4)
    assert frobenius(fr.values(fr.riemann)) < 1e-14
    assert frobenius(fr.values(fr.weyl)) < 1e-14
    assert abs(float(fr.sc[0])) < 1e-14


def test_fubini_study_scalar_curvature_is_48():
    spec = builtin_metric("fubini_study")
    for pt in sample_points(spec, 5, seed=2):
        fr = checked(spec, pt)
        assert float(fr.sc[0]) == pytest.approx(48.0, abs=1e-8)


def test_hyperbolic_dual_scalar_curvature_is_minus_48():
    spec = builtin_metric("fubini_study_hyperbolic")
    for pt in sample_points(spec, 5, seed=2):
        fr = checked(spec, pt)
        assert float(fr.sc[0]) == pytest.approx(-48.0, abs=1e-8)


@pytest.mark.parametrize("name", ["taub_nut", "pp_wave", "pp_split"])
def test_ricci_flat_but_not_conformally_flat(name):
    fr = frame_at(name, seed=4, order=3)
    assert frobenius(fr.values(fr.ricci)) < 1e-8
    assert frobenius(fr.values(fr.weyl)) > 1e-3


def test_lorentz3d_dual_cotton_is_6_dydy_up_to_orientation():
    # with eps oriented by the coordinate order (x, y, t) the dual Cotton
    # comes out +6 dy dy; the opposite orientation realizes the -6 sign
    for h in ("0", "sin(y)"):
        spec = builtin_metric("lorentz3d", {"h": h})
        for pt in sample_points(spec, 3, seed=5):
            fr = checked(spec, pt, 4)
            ytilde = curvature.dual_cotton_3d(fr)
            expected = np.zeros((3, 3))
            expected[1, 1] = 6.0
            assert np.allclose(ytilde, expected, atol=1e-8)
            flipped = curvature.dual_cotton_3d(fr, orientation=-1)
            assert np.allclose(flipped, -expected, atol=1e-8)


def test_pp_wave_connection_lines():
    spec = builtin_metric("pp_wave")
    t, x = 0.25, 0.8
    fr = checked(spec, (t, x, -0.3, 0.6))
    gamma = fr.values(fr.gamma)
    g = fr.values(fr.g)
    # nabla d(coord mu) as a (0,2) tensor is -Gamma^mu_ab
    nabla_dt = -gamma[0]
    nabla_dx = -gamma[1]
    nabla_dy = -gamma[2]
    nabla_dz = -gamma[3]
    s = math.sqrt(2)
    e_t = np.zeros((4, 4)); e_t[0, 0] = 1.0
    exp_dt = s * e_t
    exp_dx = x * e_t.copy()
    exp_dx[1, 0] += s / 2
    exp_dx[0, 1] += s / 2
    exp_dy = np.zeros((4, 4)); exp_dy[2, 0] = exp_dy[0, 2] = s / 2
    exp_dz = np.zeros((4, 4))
    exp_dz[0, 1] = exp_dz[1, 0] = -x
    exp_dz[0, 3] = exp_dz[3, 0] = s / 2
    exp_dz -= s / 2 * math.exp(s * t) * g
    assert np.allclose(nabla_dt, exp_dt, atol=1e-10)
    assert np.allclose(nabla_dx, exp_dx, atol=1e-10)
    assert np.allclose(nabla_dy, exp_dy, atol=1e-10)
    assert np.allclose(nabla_dz, exp_dz, atol=1e-10)


def test_pp_split_connection_lines():
    spec = builtin_metric("pp_split")
    x = -0.7
    fr = checked(spec, (0.4, x, 0.2, -0.1))
    gamma = fr.values(fr.gamma)
    exp_dy = np.zeros((4, 4)); exp_dy[0, 0] = x
    exp_dz = np.zeros((4, 4)); exp_dz[0, 1] = exp_dz[1, 0] = -x
    assert np.allclose(-gamma[2], exp_dy, atol=1e-10)
    assert np.allclose(-gamma[3], exp_dz, atol=1e-10)
    assert np.allclose(gamma[0], 0.0, atol=1e-10)
    assert np.allclose(gamma[1], 0.0, atol=1e-10)


@pytest.mark.parametrize("name", [
    "fubini_study", "fubini_study_hyperbolic", "taub_nut", "pp_wave", "pp_split",
])
def test_weyl_totally_trace_free(name):
    fr = frame_at(name, seed=6, order=3)
    W = fr.values(fr.weyl)
    ginv = fr.values(fr.ginv)
    wnorm = max(frobenius(fr.values(fr.weyl)), 1e-30)
    for axes in itertools.combinations(range(4), 2):
        letters = "abcd"
        spec_str = (
            f"{letters[axes[0]]}{letters[axes[1]]},abcd->"
            + "".join(c for k, c in enumerate(letters) if k not in axes)
        )
        assert frobenius(np.einsum(spec_str, ginv, W)) < 1e-9 * wnorm


@pytest.mark.parametrize("name", ["taub_nut", "pp_wave", "fubini_study"])
def test_divergence_of_weyl_identity(name):
    spec = builtin_metric(name)
    pt = sample_points(spec, 1, seed=7)[0]
    assert curvature.bianchi_check(CurvatureFrame(spec, pt, 4)) < 1e-7


def test_divergence_identity_flat_is_zero():
    fr = CurvatureFrame(pseudo_euclidean(0, 4), (0.1, 0.2, 0.3, 0.4), 4)
    assert curvature.bianchi_check(fr) < 1e-14


def test_divergence_identity_rejects_n3():
    with pytest.raises(ValueError):
        curvature.bianchi_check(CurvatureFrame(builtin_metric("lorentz3d"), (0.1, 0.2, 0.3), 4))


@pytest.mark.parametrize("name", ["fubini_study", "taub_nut", "pp_wave", "pp_split"])
def test_four_dim_weyl_square_identity(name):
    # |W| delta_c^a = 4 W^{rsta} W_{rstc} in dimension 4
    fr = frame_at(name, seed=8, order=3)
    W = fr.values(fr.weyl)
    ginv = fr.values(fr.ginv)
    Wup = np.einsum("abcd,ar,bs,ct,du->rstu", W, ginv, ginv, ginv, ginv)
    wsq = float(np.einsum("rstu,rstu->", Wup, W))
    rhs = 4.0 * np.einsum("rsta,rstc->ac", Wup, W)
    assert np.allclose(wsq * np.eye(4), rhs, atol=1e-8 * max(abs(wsq), 1.0))


def _eh_contraction(fr, rng):
    """Antisymmetrized Weyl-delta expression contracted with random vectors."""
    n = fr.n
    W = fr.values(fr.weyl)
    ginv = fr.values(fr.ginv)
    Wmixed = np.einsum("abcd,ar,bs->rscd", W, ginv, ginv)  # W^{ab}_{cd}
    w = [rng.normal(size=n) for _ in range(n - 1)]  # lower the a-slots
    u = [rng.normal(size=n) for _ in range(n - 1)]  # raise the c-slots
    w = [v / np.linalg.norm(v) for v in w]
    u = [v / np.linalg.norm(v) for v in u]
    total = 0.0
    perms = list(itertools.permutations(range(n - 1)))
    for pa in perms:
        sa = _perm_sign(pa)
        Wa = np.einsum("rscd,r,s->cd", Wmixed, w[pa[0]], w[pa[1]])
        for pc in perms:
            sc = _perm_sign(pc)
            term = float(Wa @ u[pc[1]] @ u[pc[0]])  # W(w,w')_{c1 c2} u^{c1} u^{c2}
            for k in range(2, n - 1):
                term *= float(w[pa[k]] @ u[pc[k]])
            total += sa * sc * term
    return total / (math.factorial(n - 1) ** 2)


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


@pytest.mark.parametrize("name,n", [("taub_nut", 4), ("pp_split", 4)])
def test_edgar_hoglund_contraction_n4(name, n):
    fr = frame_at(name, seed=9, order=3)
    rng = np.random.default_rng(0)
    for _ in range(3):
        val = _eh_contraction(fr, rng)
        assert abs(val) < 1e-8 * max(frobenius(fr.values(fr.weyl)), 1.0)


def test_edgar_hoglund_contraction_n5():
    _, spec = geometry.product_over(builtin_metric("fubini_study"), 0, 1, 1.0, -1.0)
    pt = sample_points(spec, 1, seed=10)[0]
    fr = checked(spec, pt)
    rng = np.random.default_rng(1)
    for _ in range(2):
        val = _eh_contraction(fr, rng)
        assert abs(val) < 1e-8 * max(frobenius(fr.values(fr.weyl)), 1.0)


def test_rescale_identity_leaves_pack_unchanged():
    spec = builtin_metric("taub_nut")
    same = rescale_metric(spec, expr.ONE)
    pt = sample_points(spec, 1, seed=11)[0]
    a = checked(spec, pt)
    b = checked(same, pt)
    assert np.allclose(a.values(a.riemann), b.values(b.riemann), atol=1e-12)
    assert float(a.sc[0]) == pytest.approx(float(b.sc[0]), abs=1e-12)


def test_norms_scale_only_the_blocks_that_overflow():
    # every finite norm keeps the bits of the plain sum of squares; a finite
    # block whose squares overflow is summed divided by its largest entry
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 3, 3))
    a[1] *= 1e200
    a[2, 0, 0] = np.inf
    got = curvature.norms(a, 2)
    assert got[[0, 3]].tobytes() == np.sqrt(np.sum(a[[0, 3]] ** 2, axis=(1, 2))).tobytes()
    assert got[1] == pytest.approx(1e200 * np.sqrt(np.sum((a[1] / 1e200) ** 2)), rel=1e-15)
    assert got[2] == np.inf
    assert frobenius(np.array([3e200, -4e200])) == pytest.approx(5e200, rel=1e-15)
    assert frobenius(np.array([1.7e308, 1.7e308])) == np.inf     # above the largest float


def test_schouten_transformation_law():
    # omega = e^{x1} on flat R^4 and on taub_nut
    for name in ("flat", "taub_nut"):
        spec = pseudo_euclidean(0, 4) if name == "flat" else builtin_metric("taub_nut")
        omega = expr.parse("exp(x1)", 4) if name == "flat" else expr.parse("1 + x1/9", 4)
        pt = sample_points(spec, 1, seed=12)[0]
        fr = checked(spec, pt)
        hatted = checked(rescale_metric(spec, omega), pt)
        w, expected, expected_j = curvature.transform_reference(fr, omega)
        assert w == expr.evaluate_at(omega, pt)
        scale = max(frobenius(expected), 1.0)
        assert frobenius(hatted.values(hatted.schouten) - expected) < 1e-8 * scale
        assert float(hatted.j[0]) == pytest.approx(expected_j,
                                                   abs=1e-8 * max(1.0, abs(expected_j)))


def test_weyl_conformal_covariance():
    spec = builtin_metric("taub_nut")
    omega = expr.parse("1 + x2/7 + x1/11", 4)
    pt = sample_points(spec, 1, seed=13)[0]
    fr = checked(spec, pt)
    hatted = checked(rescale_metric(spec, omega), pt)
    w = expr.evaluate_at(omega, pt)
    expected = w ** 2 * fr.values(fr.weyl)
    assert frobenius(hatted.values(hatted.weyl) - expected) < 1e-8 * frobenius(expected)


def test_vector_connection_transformation_law():
    # nabla-hat_a mu^b = nabla_a mu^b + Ups_a mu^b - mu_a Ups^b + (mu.Ups) delta_a^b
    spec = builtin_metric("pp_split")
    omega = expr.parse("exp(x1/5 + x3/7)", 4)
    pt = sample_points(spec, 1, seed=14)[0]
    fr = checked(spec, pt)
    hatted = checked(rescale_metric(spec, omega), pt)
    w = fr.scalar_jet(omega, 1)
    ups = jets.gradient(w, 4) / w[0]                # Upsilon_a = d_a log omega
    rng = np.random.default_rng(2)
    mu = rng.normal(size=4)
    nab = np.einsum("bar,r->ab", fr.values(fr.gamma), mu)   # nabla_a mu^b for constant mu
    nab_hat = np.einsum("bar,r->ab", hatted.values(hatted.gamma), mu)
    mu_low = fr.values(fr.g) @ mu
    ups_up = fr.values(fr.ginv) @ ups
    expected = (nab + np.outer(ups, mu) - np.outer(mu_low, ups_up)
                + float(mu @ ups) * np.eye(4))
    assert np.allclose(nab_hat, expected, atol=1e-9)


def test_rescale_walks_omega_twice(monkeypatch):
    # omega is evaluated once at all check points and omega^2 simplified once;
    # a product with each component once simplified omega again (28 walks)
    spec = geometry.catalogue_metric("flat_0_4")
    omega = expr.parse("1 + x1/8 + x2^2/9", 4)
    walk, left = expr._walk, []

    def counted(node, leave, known=None):
        def counted_leave(nd, *kids):
            left.extend([nd] if nd is omega else [])
            return leave(nd, *kids)
        return walk(node, counted_leave, known)

    monkeypatch.setattr(expr, "_walk", counted)
    hatted = rescale_metric(spec, omega)
    assert len(left) == 2
    monkeypatch.undo()
    assert hatted.components == tuple(tuple(expr.mul(expr.Pow(omega, 2), e) for e in row)
                                      for row in spec.components)


def test_rescale_rejects_nonpositive_omega():
    spec = pseudo_euclidean(0, 2)
    with pytest.raises(ValueError):
        rescale_metric(spec, expr.parse("x1", 2))


def test_warped_ricci_reference_matches_jets():
    ws, spec = geometry.product_over(builtin_metric("fubini_study"), 0, 2, 1.0, -1.0)
    for pt in sample_points(spec, 5, seed=15):
        fr = checked(spec, pt)
        ric_ref, sc_ref = warped_ricci_reference(ws, pt)
        assert frobenius(fr.values(fr.ricci) - ric_ref) < 1e-8 * max(1.0, frobenius(ric_ref))
        assert float(fr.sc[0]) == pytest.approx(sc_ref, abs=1e-8 * max(1.0, abs(sc_ref)))


def test_warped_nabla_reference_matches_jets():
    ws, spec = geometry.product_over(builtin_metric("taub_nut"), 1, 1, 1.0, -0.5)
    rng = np.random.default_rng(3)
    for pt in sample_points(spec, 5, seed=16):
        fr = checked(spec, pt)
        vec = rng.normal(size=6)
        cov = rng.normal(size=6)
        nv_ref, np_ref = warped_nabla_reference(ws, pt, vec, cov)
        gamma = fr.values(fr.gamma)
        nv = np.einsum("bac,c->ab", gamma, vec)
        npv = -np.einsum("cab,c->ab", gamma, cov)
        assert np.allclose(nv, nv_ref, atol=1e-8 * max(1.0, frobenius(nv_ref)))
        assert np.allclose(npv, np_ref, atol=1e-8 * max(1.0, frobenius(np_ref)))


def test_warp_quantity_formulas_signed():
    ws = WarpedSpec(pseudo_euclidean(1, 1), builtin_metric("pp_wave"), 2.0, 0.3)
    f, df, hess, lap, df_sq, signs = curvature._warp_data(ws, (0.4, -0.6, 0, 0, 0, 0))
    x = np.array([0.4, -0.6])
    sgn = np.array([-1.0, 1.0])
    nrm = float(sgn @ (x * x))
    assert f == pytest.approx(2.0 + 0.3 * nrm)
    assert np.allclose(df, 2 * 0.3 * sgn * x)
    assert np.allclose(hess, 2 * 0.3 * np.diag(sgn))
    assert lap == pytest.approx(2 * 2 * 0.3)
    assert df_sq == pytest.approx(4 * 0.09 * nrm)


def test_cached_frame_rejects_in_place_write():
    # prefixes (``at``) share a built frame's arrays, so none is writeable
    spec = builtin_metric("pp_wave")
    points = sample_points(spec, 2, seed=2)
    for fr in (CurvatureFrame(spec, points[0], 3), CurvatureFrame(spec, points, 3)):
        with pytest.raises(ValueError):
            fr.g[..., 0, 0, 0] = 5.0


def test_truncated_frame_view_rejects_in_place_write():
    spec = builtin_metric("pp_wave")
    fr = CurvatureFrame(spec, sample_points(spec, 1, seed=2)[0], 3)
    with pytest.raises(ValueError):
        fr.at(fr.gamma, 1)[...] += 1.0


def test_lorentz3d_weyl_roundoff_passes_self_checks():
    spec = builtin_metric("lorentz3d")
    check_conventions(CurvatureFrame(spec, sample_points(spec, 200, seed=0), 4))


@pytest.mark.parametrize("name", ["pp_wave", "lorentz3d"])
def test_weyl_with_trace_part_rejected(name):
    spec = builtin_metric(name)
    fr = copy.copy(CurvatureFrame(spec, sample_points(spec, 1, seed=4)[0], 3))
    g = fr.values(fr.g)
    weyl = fr.weyl.copy()
    weyl[..., 0] += np.einsum("ac,bd->abcd", g, g) - np.einsum("ad,bc->abcd", g, g)
    fr.weyl = weyl
    with pytest.raises(curvature.ConventionError, match="Weyl"):
        check_conventions(fr)


def test_batch_self_checks_name_the_failing_point():
    # every point of a batch is checked, not only the first
    spec = builtin_metric("pp_wave")
    points = sample_points(spec, 3, seed=4)
    fr = copy.copy(CurvatureFrame(spec, points, 3))
    assert check_conventions(fr) is fr
    g = fr.values(fr.g)[2]
    weyl = fr.weyl.copy()
    weyl[2, ..., 0] += np.einsum("ac,bd->abcd", g, g) - np.einsum("ad,bc->abcd", g, g)
    fr.weyl = weyl
    with pytest.raises(curvature.ConventionError, match="Weyl trace") as err:
        check_conventions(fr)
    assert f"at {geometry.format_point(points[2])}:" in str(err.value)


def test_volume_form_is_the_sign_table_scaled_by_root_det():
    # the dense form that dual_cotton_3d reads, against a brute-force sign
    # (the determinant of the permutation matrix)
    for name in ("lorentz3d", "pp_wave"):
        fr = frame_at(name, order=2)
        n = fr.n
        root = math.sqrt(abs(np.linalg.det(fr.values(fr.g))))
        want = np.zeros((n,) * n)
        for perm in itertools.permutations(range(n)):
            want[perm] = root * round(np.linalg.det(np.eye(n)[list(perm)]))
        assert curvature.volume_form(fr).tobytes() == want.tobytes()


@pytest.mark.parametrize("broken", ["odd signs flipped", "no root det"])
def test_broken_volume_form_fails_the_self_checks(broken, monkeypatch):
    # the self-contraction eps^I eps_I is read off the n! nonzero entries; a
    # form whose odd permutations carry the sign of the even ones, or that
    # lacks the sqrt|det g| factor, fails as the dense n^n contraction did
    fr = frame_at("pp_wave", order=2)
    right = curvature._volume_entries
    if broken == "odd signs flipped":
        monkeypatch.setattr(curvature, "_volume_entries", lambda f: np.abs(right(f)))
    else:
        monkeypatch.setattr(curvature, "_volume_entries",
                            lambda f: right(f) / math.sqrt(abs(np.linalg.det(f.values(f.g)))))
    with pytest.raises(curvature.ConventionError) as err:
        check_conventions(fr)
    problems = str(err.value).split(f"{geometry.format_point(fr.point)}: ", 1)[1]
    sign = "eps self-contraction sign does not match sign(det g)"
    if broken == "odd signs flipped":
        assert problems == sign
    else:
        # eps is the bare sign table, so eps.eps = 4! det(g^-1)
        total = float(re.fullmatch(rf"eps normalization off: eps.eps = (\S+); {re.escape(sign)}",
                                   problems).group(1))
        assert total == pytest.approx(24 * np.linalg.det(fr.values(fr.ginv)), rel=1e-12)


FRAME_TENSORS = ("g", "ginv", "gamma", "riemann_mixed", "riemann", "ricci", "sc", "j",
                 "schouten", "weyl", "schouten_mixed", "cotton")


@pytest.mark.parametrize("name", [n for n in geometry.catalogue_names() if "(" not in n])
def test_truncated_frame_equals_frame_built_at_that_order(name):
    # each array of an order-4 frame, cut with ``at`` to the jet order it has
    # in a frame of order 3 or 2, has the bytes of that frame's array: readers
    # of lower-order jets (the Einstein tractors) take the higher-order frame
    spec = geometry.catalogue_metric(name)
    for pt in sample_points(spec, 3, seed=3):
        top = curvature.CurvatureFrame(spec, pt, 4)
        for order in (3, 2):
            built = curvature.CurvatureFrame(spec, pt, order)
            assert top.point == built.point and top.spec is built.spec
            for attr in FRAME_TENSORS:
                a, b = getattr(built, attr), getattr(top, attr)
                if a is None:
                    assert attr == "cotton"
                    continue
                cut = top.at(b, jets.order_of(a.shape[-1], spec.n))
                assert a.shape == cut.shape and a.tobytes() == cut.tobytes(), attr
                assert not cut.flags.writeable


@pytest.mark.parametrize("name", geometry.catalogue_names(examples=True))
def test_frame_holds_the_inverse_metric_to_one_order_below(name):
    # no reader reads g^-1 above K - 1; the frame holds the prefix of the
    # inverse of its full-order metric jets, bit for bit
    spec = geometry.catalogue_metric(name)
    points = sample_points(spec, 2, seed=47)
    for order in (2, 3, 4):
        for fr in [curvature.CurvatureFrame(spec, p, order) for p in points] + [
                curvature.CurvatureFrame(spec, points, order)]:
            full = geometry.jet_matrix_inverse(fr.g)
            want = jets.truncate_coeffs(full, spec.n, order, order - 1)
            assert jets.order_of(fr.ginv.shape[-1], spec.n) == order - 1
            assert fr.ginv.shape == want.shape and fr.ginv.tobytes() == want.tobytes()


def _jet_order_riemann_weyl_cotton(fr):
    """R_abcd and Weyl to jet order K - 2 and Cotton to K - 3, written out from
    the frame's metric, mixed Riemann and Schouten jets (the frame holds the
    mixed Riemann value; its jets come from ``riemann_mixed_jets``)."""
    n, m = fr.n, fr.order - 2
    g, P = (fr.at(a, m) for a in (fr.g, fr.schouten))
    rm = fr.riemann_mixed_jets(m)
    R = jets.contract(g[None, None, :, None], rm.transpose(0, 1, 3, 2, 4)[:, :, None], n, m)
    t = jets.conv(g[:, None, :, None, :], P[None, :, None, :, :], n, m)   # g_ac P_bd
    W = (R - t + t.transpose(1, 0, 2, 3, 4)
         - t.transpose(1, 0, 3, 2, 4) + t.transpose(0, 1, 3, 2, 4))
    Y = None
    if fr.order >= 3:
        covP = fr.cov_deriv(P, 2, m)                      # [a, b, c] = nabla_a P_bc
        Y = covP.transpose(2, 0, 1, 3) - covP.transpose(2, 1, 0, 3)
    return R, W, Y


@pytest.mark.parametrize("name", [n for n in geometry.catalogue_names() if "(" not in n])
def test_value_tensors_equal_the_value_slice_of_their_jets(name):
    spec = geometry.catalogue_metric(name)
    for pt in sample_points(spec, 3, seed=9):
        for order in (2, 3, 4):
            fr = curvature.CurvatureFrame(spec, pt, order)
            R, W, Y = _jet_order_riemann_weyl_cotton(fr)
            for attr, ref in (("riemann", R), ("weyl", W), ("cotton", Y)):
                got = getattr(fr, attr)
                if ref is None:
                    assert got is None
                    continue
                assert got.shape == ref.shape[:-1] + (1,), attr
                assert got.tobytes() == ref[..., :1].tobytes(), attr
            # the divergence identity reads the Weyl jets from the same formula
            R_jets, W_jets = fr.riemann_and_weyl(order - 2)
            assert R_jets.tobytes() == R.tobytes() and W_jets.tobytes() == W.tobytes()


def _tail(arr, *axes):
    """arr with its last len(axes) axes transposed; leading axes stay."""
    lead = arr.ndim - len(axes)
    return arr.transpose(tuple(range(lead)) + tuple(lead + a for a in axes))


def _through_full_riemann_jets(fr):
    """Christoffels contracted for every (a, b), the full mixed Riemann jets
    [a, b, c, d] = R_ab^c_d to jet order K - 2 and Ricci as their trace over
    the first and third indices, from the frame's metric jets."""
    n, K, lead = fr.n, fr.order, len(fr.batch)
    dg = jets.partials(fr.g, n, K, axis=lead)            # [i, a, b] = d_i g_ab
    T = dg + _tail(dg, 1, 0, 2, 3) - _tail(dg, 1, 2, 0, 3)
    gamma = 0.5 * jets.contract(fr.at(fr.ginv, K - 1)[..., :, None, None, :, :],
                                T[..., None, :, :, :, :], n, K - 1)
    m = K - 2
    B1 = _tail(jets.partials(gamma, n, K - 1, axis=lead), 0, 2, 1, 3, 4)
    gam = gamma[..., :jets.tables(n, m).size]
    gg = jets.contract(_tail(gam, 1, 0, 2, 3)[..., :, None, :, None, :, :],
                       _tail(gam, 1, 2, 0, 3)[..., None, :, None, :, :, :], n, m)
    rm = B1 - _tail(B1, 1, 0, 2, 3, 4) + gg - _tail(gg, 1, 0, 2, 3, 4)
    return gamma, rm, np.einsum("...rbrdk->...bdk", rm)


@pytest.mark.parametrize("name", [n for n in geometry.catalogue_names() if "(" not in n])
def test_frame_equals_the_full_mixed_riemann_construction(name):
    # Christoffels formed for a <= b and mirrored, Ricci from the trace rows,
    # the mixed Riemann value and its on-demand jets: bit for bit, at single
    # points and in a batch
    spec = geometry.catalogue_metric(name)
    points = sample_points(spec, 2, seed=43)
    for order in (2, 3, 4):
        for fr in [curvature.CurvatureFrame(spec, p, order) for p in points] + [
                curvature.CurvatureFrame(spec, points, order)]:
            gamma, rm, ricci = _through_full_riemann_jets(fr)
            assert fr.gamma.shape == gamma.shape and fr.gamma.tobytes() == gamma.tobytes()
            assert fr.ricci.shape == ricci.shape and fr.ricci.tobytes() == ricci.tobytes()
            assert fr.riemann_mixed.shape == rm.shape[:-1] + (1,)
            assert fr.riemann_mixed.tobytes() == rm[..., :1].tobytes()
            assert fr.riemann_mixed_jets(order - 2).tobytes() == rm.tobytes()


def test_frame_contractions_form_fewer_than_n4_jets(monkeypatch):
    # above jet order 0 no product summed in a frame build has n^4 output
    # jets per point, as the full mixed Riemann jets had
    formed = []
    contract = curvature.contract

    def counted(a, b, num_vars, order):
        out = contract(a, b, num_vars, order)
        if order >= 1:
            formed.append(math.prod(out.shape[:-1]))
        return out

    monkeypatch.setattr(curvature, "contract", counted)
    for name in ("pp_wave", "product_split_n6", "warped_fs_n5"):
        spec = geometry.catalogue_metric(name)
        points = sample_points(spec, 3, seed=47)
        for order in (3, 4):
            for pts in (points[0], points):
                formed.clear()
                curvature.CurvatureFrame(spec, pts, order)
                per_point = len(pts) if isinstance(pts, list) else 1
                assert formed and max(formed) < per_point * spec.n ** 4


def _frame_arrays(fr):
    """Every tensor of a frame, read by name: those made on first read too."""
    assert {k for k, v in vars(fr).items() if isinstance(v, np.ndarray)} <= set(FRAME_TENSORS)
    return {name: value for name in FRAME_TENSORS if (value := getattr(fr, name)) is not None}


def _assert_batch_is_per_point_frames(batch, spec, points, order):
    """Every array of the batch, at each point, has the bits of the frame
    built there alone."""
    assert batch.batch == (len(points),) and batch.point == tuple(map(tuple, points))
    got = _frame_arrays(batch)
    for i, pt in enumerate(points):
        single = curvature.CurvatureFrame(spec, pt, order)
        want = _frame_arrays(single)
        assert set(got) == set(want)
        for name, value in want.items():
            assert got[name][i].shape == value.shape, name
            assert got[name][i].tobytes() == value.tobytes(), name
            assert not got[name].flags.writeable, name
        assert (batch.cotton is None) == (single.cotton is None)


FIRST_READ = ("riemann_mixed", "riemann", "weyl", "cotton")


@pytest.mark.parametrize("name", [n for n in geometry.catalogue_names() if "(" not in n])
def test_frames_batch_equals_the_per_point_frames(name):
    # each point's row of a batch has the bits of the frame built there
    # alone; a tensor made on first read is made then, once (an order-2
    # frame forms the mixed Riemann value as it is built)
    spec = geometry.catalogue_metric(name)
    points = sample_points(spec, 3, seed=41)
    for order in (2, 3, 4):
        batch = CurvatureFrame(spec, points, order)
        assert not set(FIRST_READ[order == 2:]) & set(vars(batch))
        _assert_batch_is_per_point_frames(batch, spec, points, order)
        assert all(getattr(batch, attr) is getattr(batch, attr) for attr in FIRST_READ)


def test_frames_builds_every_point_in_one_call(monkeypatch):
    spec = builtin_metric("pp_wave")
    points = sample_points(spec, 4, seed=42)
    builds = []
    init = curvature.CurvatureFrame.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(curvature.CurvatureFrame, "__init__", counted)
    top = CurvatureFrame(spec, points[1], 3)
    batch = CurvatureFrame(spec, points + points[:1], 2)
    # one build per call, a repeated point included
    assert [np.shape(args[1]) for args in builds] == [(4,), (5, 4)]
    assert batch.batch == (5,)
    assert batch.g[1].tobytes() == top.at(top.g, 2).tobytes()
    assert batch.gamma[4].tobytes() == batch.gamma[0].tobytes()
    assert CurvatureFrame(spec, points, 2).g.tobytes() == batch.g[:4].tobytes()
    assert len(builds) == 3
    with pytest.raises(ValueError, match="at least one point"):
        CurvatureFrame(spec, [], 2)


def _bad_point_metric():
    # degenerate at x1 = 0, of signature (1, 2) for x1 < 0, outside the
    # domain for x2 <= -0.5
    return geometry.load_metric("dim = 3\nsignature = 0,3\ng 1 1 : x1\n"
                                "g 2 2 : 1\ng 3 3 : 1\ndomain : x2 + 0.5\n", label="bad")


BAD_POINTS = {
    "non-finite": (0.5, math.inf, 0.0),
    "outside": (0.5, -0.9, 0.0),
    "degenerate": (0.0, 0.0, 0.0),
    "signature": (-0.5, 0.0, 0.0),
}


@pytest.mark.parametrize("bad", list(itertools.permutations(BAD_POINTS, 2)))
def test_frames_fail_as_the_first_failing_point(bad):
    spec = _bad_point_metric()
    points = [(0.5, 0.1, 0.2)] + [BAD_POINTS[b] for b in bad] + [(0.7, 0.0, 0.3)]
    with pytest.raises(ValueError) as alone:
        CurvatureFrame(spec, BAD_POINTS[bad[0]], 2)
    with pytest.raises(type(alone.value), match=re.escape(str(alone.value))):
        CurvatureFrame(spec, points, 2)


SAMPLE_BOX_POINTS = {
    name: st.lists(st.tuples(*(st.floats(lo, hi) for lo, hi in
                               geometry.catalogue_metric(name).sample_box)),
                   min_size=2, max_size=4)
    for name in ("pp_wave", "product_split_n6")
}


@pytest.mark.parametrize("name", sorted(SAMPLE_BOX_POINTS))
def test_batched_frame_equals_per_point_frames_in_the_box(name):
    spec = geometry.catalogue_metric(name)

    @given(SAMPLE_BOX_POINTS[name], st.sampled_from((2, 3, 4)))
    @settings(max_examples=15, deadline=None)
    def check(points, order):
        batch = curvature.CurvatureFrame(spec, points, order)
        _assert_batch_is_per_point_frames(batch, spec, points, order)

    check()


# a file whose every component depends on every coordinate: no jet slot of g
# is zero, so no pair of the metric's own products is dropped
DENSE_METRIC = "dim = 5\nsignature = 1,4\n" + "".join(
    f"g {i} {j} : {(i == j) * (-1 if i == 1 else 1)} + 0.05*sin("
    + " + ".join(f"{(i * j + k) % 4 + 1}*x{k}" for k in range(1, 6)) + ")\n"
    for i in range(1, 6) for j in range(i, 6))


@pytest.mark.parametrize("name", ["product_split_n8_p4", "warped_fs_n8", "taub_nut", "dense"])
def test_live_pair_products_keep_every_frame_bit(name, monkeypatch):
    # every frame array and chain value is built once with every product on
    # the full path and once with every product of finite operands on the
    # live-pair path, at one point and as a batch of three
    spec = (geometry.load_metric(DENSE_METRIC, label="dense") if name == "dense"
            else geometry.catalogue_metric(name))
    points = sample_points(spec, 3, seed=17)
    built = []
    for cut in (math.inf, 0):
        monkeypatch.setattr(jets, "_LIVE_PAIR_MIN", cut)
        single = CurvatureFrame(spec, points[0], 4)
        chain = tractor.curvature_chain(single, 2)
        built.append((_frame_arrays(single), _frame_arrays(CurvatureFrame(spec, points, 4)),
                      {f"chain{k}": x for k, x in enumerate(chain)}))
    for full, live in zip(*built):
        assert set(full) == set(live)
        for key, value in full.items():
            assert value.shape == live[key].shape, key
            assert value.tobytes() == live[key].tobytes(), key
