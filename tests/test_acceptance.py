"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances and time budgets are fixed here, not tuned.
"""

import itertools
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conformal_gap_lab import analysis, curvature, expr, geometry, jets, tractor
from conformal_gap_lab.cli import main as cli_main
from conformal_gap_lab.curvature import CurvatureFrame, check_conventions, frobenius
from conformal_gap_lab.geometry import builtin_metric, catalogue_metric, sample_points


def checked(spec, pt, order=3):
    return check_conventions(CurvatureFrame(spec, pt, order))


@contextmanager
def criterion(num: int, title: str, budget_s: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"criterion {num:02d} {title}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s ({elapsed:.2f}s)"


def test_criterion_01_scalar_curvatures():
    for name, target in (("fubini_study", 48.0), ("fubini_study_hyperbolic", -48.0)):
        with criterion(1, f"scalar curvature {name} = {target}", 1.0):
            spec = builtin_metric(name)
            for pt in sample_points(spec, 10, seed=101):
                fr = checked(spec, pt)
                assert abs(float(fr.sc[0]) - target) < 1e-7


def test_criterion_02_ricci_flat_conformally_nonflat():
    with criterion(2, "Ricci-flat, conformally non-flat catalogue", 2.0):
        for name in ("taub_nut", "pp_wave", "pp_split"):
            spec = builtin_metric(name)
            for pt in sample_points(spec, 10, seed=102):
                fr = checked(spec, pt)
                assert frobenius(fr.values(fr.ricci)) < 1e-8
                assert frobenius(fr.values(fr.weyl)) > 1e-3


def test_criterion_03_three_dimensional_example():
    with criterion(3, "lorentz3d dual Cotton and parallel null field", 1.0):
        expected = np.zeros((3, 3))
        expected[1, 1] = 6.0
        k = (expr.ZERO, expr.ZERO, expr.ONE)
        for h in ("0", "sin(y)"):
            spec = builtin_metric("lorentz3d", {"h": h})
            for pt in sample_points(spec, 5, seed=103):
                fr = checked(spec, pt, 4)
                ytilde = curvature.dual_cotton_3d(fr)
                up_to_sign = min(
                    frobenius(ytilde - expected), frobenius(ytilde + expected)
                )
                assert up_to_sign < 1e-8
                # the field's order-1 jets: constant components
                kj = np.stack([expr.evaluate(c, jets.seed_jets(pt, 1)) for c in k])
                nab_up, ck, normal, first = analysis.killing_terms(fr, kj)
                assert ck < 1e-8
                assert normal < 1e-8
                assert first < 1e-8
                assert frobenius(nab_up) < 1e-8                          # parallel
                assert abs(kj[:, 0] @ fr.values(fr.g) @ kj[:, 0]) < 1e-8  # null


@pytest.mark.parametrize("name,expected", [
    ("flat_r4", 6), ("pp_wave", 2), ("pp_split", 3),
])
def test_criterion_04_ae_dimension_exactness(name, expected):
    with criterion(4, f"d_aE({name}) = {expected} exactly", 30.0):
        spec = catalogue_metric(name)
        rep = analysis.estimate_parallel_dims(spec, seed=104)
        assert rep.d_ae_lower == rep.d_ae_upper == expected
        assert rep.exact_ae
        assert not rep.marginal  # rank decisions stable at tol x10 and /10


@pytest.mark.parametrize("name,expected", [
    ("flat_r4", 15), ("pp_wave", 1), ("product_lorentz_n6", 6),
])
def test_criterion_05_nck_dimensions(name, expected):
    with criterion(5, f"d_ncK({name}) = {expected}", 60.0):
        spec = catalogue_metric(name)
        rep = analysis.estimate_parallel_dims(spec, seed=105)
        assert rep.d_nck_lower == rep.d_nck_upper == expected
        assert rep.exact_nck


def test_criterion_05_pp_split_discrepancy_flag():
    with criterion(5, "d_ncK(pp_split) brute-force value + flag", 60.0):
        spec = catalogue_metric("pp_split")
        rep = analysis.estimate_parallel_dims(spec, seed=105)
        assert rep.d_nck_lower == rep.d_nck_upper == 3   # brute-force count
        assert any("commonly quoted" in note for note in rep.notes)


def test_criterion_06_bound_properties():
    metrics = [
        "fubini_study", "fubini_study_hyperbolic", "taub_nut", "pp_wave",
        "pp_split",
        "warped_fs_n5", "warped_hfs_n5", "product_ricci_flat_n5",
        "product_lorentz_n5",
        "warped_fs_n6", "warped_hfs_n6", "product_ricci_flat_n6",
        "product_lorentz_n6", "product_split_n6",
    ]
    with criterion(6, "signature bounds over the catalogue (n = 4, 5, 6)", 60.0):
        for name in metrics:
            report = analysis.verify_theorem("bounds", metric=name, seed=106)
            failing = [c["name"] for c in report["checks"] if not c["passed"]]
            assert report["passed"], f"{name}: {failing}"


def test_criterion_07_warped_families():
    with criterion(7, "warped family verifiers", 90.0):
        runs = [
            ("t_riem", {"case": "a", "n": 5}), ("t_riem", {"case": "b", "n": 5}),
            ("t_riem", {"case": "c", "n": 5}), ("t_riem", {"case": "a", "n": 6}),
            ("t_riem", {"case": "b", "n": 6}), ("t_riem", {"case": "c", "n": 6}),
            ("t_lorentz", {"n": 5}), ("t_lorentz", {"n": 6}),
            ("t_gen", {"n": 6, "p": 2}),
            ("warpedSol", {"n": 6, "sc": 48}), ("warpedSol", {"n": 5, "sc": -48}),
            ("warpedSol", {"n": 6, "sc": 0}),
        ]
        for theorem, kwargs in runs:
            report = analysis.verify_theorem(theorem, seed=107, **kwargs)
            failing = [c for c in report["checks"] if not c["passed"]]
            assert report["passed"], f"{theorem} {kwargs}: {failing}"


def test_criterion_08_warped_oracles():
    with criterion(8, "AD vs closed-form warped Ricci and connection", 5.0):
        ws, spec = geometry.product_over(builtin_metric("fubini_study"), 0, 2, 1.0, -1.0)
        rng = np.random.default_rng(108)
        for pt in sample_points(spec, 5, seed=108):
            fr = checked(spec, pt)
            ric_ref, sc_ref = curvature.warped_ricci_reference(ws, pt)
            assert frobenius(fr.values(fr.ricci) - ric_ref) < 1e-8 * max(
                1.0, frobenius(ric_ref))
            assert abs(float(fr.sc[0]) - sc_ref) < 1e-8 * max(1.0, abs(sc_ref))
            vec = rng.normal(size=6)
            cov = rng.normal(size=6)
            nv_ref, np_ref = curvature.warped_nabla_reference(ws, pt, vec, cov)
            gamma = fr.values(fr.gamma)
            nv = np.einsum("bac,c->ab", gamma, vec)
            npv = -np.einsum("cab,c->ab", gamma, cov)
            assert frobenius(nv - nv_ref) < 1e-8 * max(1.0, frobenius(nv_ref))
            assert frobenius(npv - np_ref) < 1e-8 * max(1.0, frobenius(np_ref))


def test_criterion_09_identity_suite():
    with criterion(9, "identity and transformation-law suite", 30.0):
        # algebraic identities on a 4d and a 5d example
        for name in ("taub_nut", "warped_fs_n5"):
            spec = catalogue_metric(name)
            pt = sample_points(spec, 1, seed=109)[0]
            fr = checked(spec, pt, 4)
            R = fr.values(fr.riemann)
            rnorm = max(frobenius(R), 1e-30)
            cyc = R + np.transpose(R, (1, 2, 0, 3)) + np.transpose(R, (2, 0, 1, 3))
            assert frobenius(cyc) < 1e-8 * rnorm
            assert frobenius(R - np.transpose(R, (2, 3, 0, 1))) < 1e-8 * rnorm
            W = fr.values(fr.weyl)
            ginv = fr.values(fr.ginv)
            wnorm = max(frobenius(fr.values(fr.weyl)), 1e-30)
            for axes in itertools.combinations(range(4), 2):
                letters = "abcd"
                sub = (f"{letters[axes[0]]}{letters[axes[1]]},abcd->"
                       + "".join(c for i, c in enumerate(letters) if i not in axes))
                assert frobenius(np.einsum(sub, ginv, W)) < 1e-8 * wnorm
            # divergence identity (n - 3) Y = div W
            y = frobenius(fr.values(fr.cotton))
            assert curvature.bianchi_check(fr) < 1e-8 * max(1.0, y)

        # n = 4 quadratic Weyl identity
        fr4 = checked(builtin_metric("taub_nut"),
                      sample_points(builtin_metric("taub_nut"), 1, seed=110)[0])
        W = fr4.values(fr4.weyl)
        ginv = fr4.values(fr4.ginv)
        Wup = np.einsum("abcd,ar,bs,ct,du->rstu", W, ginv, ginv, ginv, ginv)
        wsq = float(np.einsum("rstu,rstu->", Wup, W))
        delta_id = wsq * np.eye(4) - 4.0 * np.einsum("rsta,rstc->ac", Wup, W)
        assert frobenius(delta_id) < 1e-8 * max(abs(wsq), 1.0)

        # transformation laws: Schouten, J, Weyl, and the scale tractor
        spec = builtin_metric("pp_split")
        omega = expr.parse("exp(x/7)", 4, var_names=spec.names)
        pt = sample_points(spec, 1, seed=111)[0]
        fr = checked(spec, pt)
        hatted = curvature.rescale_metric(spec, omega)
        hat_fr = checked(hatted, pt)
        wval, p_ref, j_ref = curvature.transform_reference(fr, omega)
        assert frobenius(hat_fr.values(hat_fr.schouten) - p_ref) < 1e-8 * max(
            1.0, frobenius(p_ref))
        assert abs(float(hat_fr.j[0]) - j_ref) < 1e-8
        weyl = fr.values(fr.weyl)
        assert frobenius(hat_fr.values(hat_fr.weyl)
                         - wval ** 2 * weyl) < 1e-8 * frobenius(weyl)
        sigma = spec.known_scales[1][1]
        I, I_hat = (tractor.einstein_jets(f, f.scalar_jet(s)[None])[0, :, 0]
                    for f, s in ((fr, sigma), (hat_fr, expr.mul(omega, sigma))))
        w = fr.scalar_jet(omega, 1)
        expected = tractor.transform_tractor(I, wval, jets.gradient(w, 4) / w[0],
                                             fr.values(fr.g))
        assert np.linalg.norm(I_hat - expected) < 1e-8

        # tractor-metric parallelism: transport preserves the pairing
        a = np.array(sample_points(spec, 1, seed=112)[0])
        b = np.array(sample_points(spec, 1, seed=113)[0])
        M = tractor.transport_matrix(spec, [a, b])
        fa, fb = checked(spec, tuple(a)), checked(spec, tuple(b))
        Ba = tractor.tractor_metric_matrix(fa.values(fa.g))
        Bb = tractor.tractor_metric_matrix(fb.values(fb.g))
        assert frobenius(M.T @ Bb @ M - Ba) < 1e-8 * max(1.0, frobenius(Ba))


def test_criterion_10_ricci_flat_scale_properties():
    with criterion(10, "null harmonic scale gradients on the pp examples", 5.0):
        for name in ("pp_wave", "pp_split"):
            report = analysis.verify_theorem("rflat", metric=name, seed=110)
            failing = [c for c in report["checks"] if not c["passed"]]
            assert report["passed"], f"{name}: {failing}"
            for check in report["checks"]:
                assert check["tolerance"] <= 1e-8


def test_criterion_11_deterministic_reports(capsys):
    with criterion(11, "byte-identical dims reports for a fixed seed", 5.0):
        code1 = cli_main(["dims", "pp_split", "--seed", "9", "--json"])
        out1 = capsys.readouterr().out
        code2 = cli_main(["dims", "pp_split", "--seed", "9", "--json"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2
        data = json.loads(out1)
        assert data["dims"]["seed"] == 9
