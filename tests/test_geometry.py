"""Catalogue metrics, warped products, frame evaluation, sampling."""

import math

import numpy as np
import pytest

from conformal_gap_lab import analysis, curvature, expr, geometry, jets
from conformal_gap_lab.geometry import (
    CatalogueError, DomainError, MetricSpec, SingularMetricError, WarpedSpec,
    builtin_metric, catalogue_metric, metric_frame_at, pseudo_euclidean,
    product_over, sample_points,
)
from metric_generators import vacuum_wave


def values_of(Gjets):
    return Gjets[..., 0]


def signature_of(values):
    """(negative, positive) eigenvalue counts of a symmetric matrix."""
    eigs = np.linalg.eigvalsh(values)
    return int(np.sum(eigs < 0)), int(np.sum(eigs > 0))


def test_pseudo_euclidean_diagonals():
    assert values_of(geometry.metric_jets(pseudo_euclidean(0, 3), (0, 0, 0), 1)).tolist() == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    g13 = values_of(geometry.metric_jets(pseudo_euclidean(1, 3), (0, 0, 0, 0), 1))
    assert np.allclose(g13, np.diag([-1, 1, 1, 1]))
    with pytest.raises(CatalogueError):
        pseudo_euclidean(0, 0)


def test_fubini_study_signature_at_default_point():
    spec = builtin_metric("fubini_study")
    G, _ = metric_frame_at(spec, geometry.default_point(spec), 2)
    assert signature_of(values_of(G)) == (0, 4)


def test_pp_wave_components_match_display():
    spec = builtin_metric("pp_wave")
    t, x = 0.4, 1.2
    G = values_of(geometry.metric_jets(spec, (t, x, 0.0, 0.0), 1))
    w = math.exp(-math.sqrt(2) * t)
    assert G[0, 0] == pytest.approx(x * x * w)
    assert G[0, 3] == pytest.approx(w)
    assert G[3, 0] == pytest.approx(w)
    assert G[1, 1] == pytest.approx(w)
    assert G[2, 2] == pytest.approx(w)
    assert G[3, 3] == 0.0


def test_pp_wave_inverse_matches_display():
    spec = builtin_metric("pp_wave")
    point = (0.0, 1.0, 0.0, 0.0)
    G, Ginv = metric_frame_at(spec, point, 2)
    inv = values_of(Ginv)
    # e^{sqrt2 t} (-x^2 dz dz + dz dt + dt dz + dx^2 + dy^2) at t=0, x=1
    expected = np.zeros((4, 4))
    expected[3, 3] = -1.0
    expected[0, 3] = expected[3, 0] = 1.0
    expected[1, 1] = expected[2, 2] = 1.0
    assert np.allclose(inv, expected, atol=1e-12)


def test_lorentz3d_components():
    spec = builtin_metric("lorentz3d", {"h": "sin(y)"})
    x, y = 0.7, -0.3
    G = values_of(geometry.metric_jets(spec, (x, y, 0.5), 1))
    assert G[0, 0] == pytest.approx(1.0)
    assert G[1, 1] == pytest.approx(x ** 3 + math.sin(y) * x)
    assert G[1, 2] == pytest.approx(0.5)
    with pytest.raises(CatalogueError):
        builtin_metric("lorentz3d", {"h": "x + y"})


def test_unknown_builtin_and_bad_param():
    with pytest.raises(CatalogueError):
        builtin_metric("nope")
    with pytest.raises(CatalogueError):
        builtin_metric("taub_nut", {"m": -1.0})


def test_non_finite_params_rejected():
    with pytest.raises(CatalogueError, match="finite"):
        builtin_metric("lorentz3d", {"h": float("nan")})
    with pytest.raises(CatalogueError, match="finite"):
        builtin_metric("lorentz3d", {"h": float("inf")})


def test_non_finite_metric_rejected_at_the_point():
    spec = geometry.load_metric("dim = 3\nsignature = 0,3\n"
                                "g 1 1 : exp(1000*x1)\ng 2 2 : 1\ng 3 3 : 1\n", label="big")
    with np.errstate(all="raise"):
        with pytest.raises(DomainError, match=r"not finite at \(1\.0, 0\.0, 0\.0\)"):
            metric_frame_at(spec, (1.0, 0.0, 0.0), 2)
    assert signature_of(values_of(metric_frame_at(spec, (0.0, 0.0, 0.0), 2)[0])) == (0, 3)


@pytest.mark.parametrize("name", [n for n in geometry.catalogue_names() if "(" not in n])
def test_catalogue_coordinate_names_are_distinct(name):
    spec = catalogue_metric(name)
    assert len(set(spec.names)) == spec.n


@pytest.mark.parametrize("name", ["warped_fs_n6", "product_lorentz_n6", "product_split_n6"])
def test_formulas_round_trip_through_coordinate_names(name):
    # base x1 times the first fiber coordinate: with colliding names the
    # source of one reads back as the other
    spec = catalogue_metric(name)
    node = expr.add(expr.mul(expr.var(0), expr.var(spec.n - 4)), expr.var(spec.n - 1))
    back = expr.parse(expr.to_source(node, spec.names), spec.n, var_names=spec.names)
    for pt in sample_points(spec, 3, seed=1):
        assert expr.evaluate_at(back, pt) == pytest.approx(expr.evaluate_at(node, pt), abs=1e-14)


def test_example_and_family_names_resolve_to_their_labels():
    names = geometry.catalogue_names(examples=True)
    assert len(names) == len(geometry.catalogue_names()) and "flat_1_3" in names
    for name in names + geometry.family_names(7) + geometry.family_names(8):
        spec = geometry.catalogue_metric(name)
        assert spec.label == {"flat_r4": "flat_0_4", "product_split_n6": "product_split_n6_p2"}.get(
            name, name)
    assert geometry.family_names(8)[-3:] == [f"product_split_n8_p{p}" for p in (2, 3, 4)]


def test_flat_inverse_is_itself():
    spec = pseudo_euclidean(2, 2)
    G, Ginv = metric_frame_at(spec, (0.1, 0.2, 0.3, 0.4), 2)
    assert np.allclose(values_of(G), values_of(Ginv), atol=1e-14)


@pytest.mark.parametrize("name", ["fubini_study", "taub_nut", "pp_wave", "pp_split",
                                  "warped_fs_n6"])
def test_g_times_ginv_is_identity_jets(name):
    spec = catalogue_metric(name)
    order = 4 if spec.n > 4 else 3    # (6, 4) products run on the bincount kernel
    point = sample_points(spec, 1, seed=3)[0]
    G, frame_inv = metric_frame_at(spec, point, order)
    n = spec.n
    # the frame's inverse is the order - 1 prefix of the full-order inverse
    Ginv = geometry.jet_matrix_inverse(G)
    prefix = jets.truncate_coeffs(Ginv, n, order, order - 1)
    assert frame_inv.shape == prefix.shape and frame_inv.tobytes() == prefix.tobytes()
    for i in range(n):
        for j in range(n):
            acc = sum(jets.conv(G[i, r], Ginv[r, j], n, order) for r in range(n))
            expected = np.zeros_like(acc)
            if i == j:
                expected[0] = 1.0
            assert np.allclose(acc, expected, atol=1e-12)


def _inverse_steps_alone(num_vars, order, monkeypatch):
    """The steps of ``jet_matrix_inverse`` from the product table built at
    this order alone: per degree d >= 1, the pairs (i, j) with deg i >= 1 of
    each slot of degree d in table order, slot by slot, and where each slot's
    run starts."""
    monkeypatch.setattr(jets, "_tables", {})
    t = jets.tables(num_vars, order)
    degree = np.searchsorted(t.sizes_by_order, np.arange(t.size), side="right").tolist()
    by_slot = {}
    for i, j, k in zip(t.mul_i.tolist(), t.mul_j.tolist(), t.mul_k.tolist()):
        if degree[i] >= 1:
            by_slot.setdefault(k, []).append((i, j))
    steps = []
    for d in range(1, order + 1):
        slots = slice(t.sizes_by_order[d - 1], t.sizes_by_order[d])
        pairs = [by_slot[k] for k in range(slots.start, slots.stop)]
        flat = [pair for run in pairs for pair in run]
        starts = np.cumsum([0] + [len(run) for run in pairs[:-1]])
        steps.append((np.array([i for i, _ in flat], dtype=np.intp),
                      np.array([j for _, j in flat], dtype=np.intp),
                      starts.astype(np.intp), slots))
    return steps


@pytest.mark.parametrize("num_vars", range(1, jets.MAX_VARS + 1))
def test_inverse_steps_equal_the_per_order_construction_in_any_request_order(
        num_vars, monkeypatch):
    # each degree's step is made on first use from the jet tables, which a
    # build of any higher order registers as views of its own; whatever the
    # order of requests, every array has the bytes of the steps read off the
    # product table built at that order alone
    top = jets.MAX_ORDER
    want = {order: _inverse_steps_alone(num_vars, order, monkeypatch)
            for order in range(1, top + 1)}
    for requests in (range(1, top + 1), range(top, 0, -1), (3, 1, top, 2, 5, 4)):
        monkeypatch.setattr(jets, "_tables", {})
        monkeypatch.setattr(jets, "_inverse_steps", {})
        for order in requests:
            jets.tables(num_vars, order)
            got = [jets.inverse_step(num_vars, d) for d in range(order, 0, -1)][::-1]
            assert len(got) == len(want[order]) == order
            for step, ref in zip(got, want[order]):
                for a, b in zip(step[:3], ref[:3]):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                assert step[3] == ref[3]


def _bad_values_metric():
    # degenerate at x1 = 0, of signature (1, 2) for x1 < 0, and not finite
    # for x2 near 1
    return geometry.load_metric("dim = 3\nsignature = 0,3\ng 1 1 : x1\n"
                                "g 2 2 : exp(1000*x2^3)\ng 3 3 : 1\n", label="bad")


BAD_VALUES = {
    "non-finite": (0.5, 1.0, 0.0),
    "degenerate": (0.0, 0.0, 0.0),
    "signature": (-0.5, 0.0, 0.0),
}
# what each bad point raises alone
BAD_VALUE_ERRORS = {
    "non-finite": (DomainError, "'bad': metric not finite at (0.5, 1.0, 0.0)"),
    "degenerate": (SingularMetricError, "'bad' degenerate at (0.0, 0.0, 0.0) (eigenvalues "
                                        "0.00e+00 to 1.00e+00 in absolute value)"),
    "signature": (SingularMetricError, "'bad': computed signature (1, 2) != declared (0, 3)"),
}
GOOD_POINTS = [(0.5, 0.1, 0.2), (0.7, 0.2, 0.3), (0.9, -0.05, 0.1)]
METRIC_ERRORS = (DomainError, SingularMetricError)


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("bad", sorted(BAD_VALUES))
def test_a_batch_with_bad_metric_values_raises_what_its_failing_point_raises(bad, order):
    # one stacked eigvalsh checks the values at every point; a batch whose
    # second point fails raises that point's error alone, type and message,
    # whatever fails after it, from the stacked check itself too
    spec = _bad_values_metric()
    with pytest.raises(METRIC_ERRORS) as alone:
        metric_frame_at(spec, BAD_VALUES[bad], order)
    want = (type(alone.value), str(alone.value))
    assert want == BAD_VALUE_ERRORS[bad]
    later = [p for name, p in sorted(BAD_VALUES.items()) if name != bad]
    for points in (GOOD_POINTS[:1] + [BAD_VALUES[bad]] + GOOD_POINTS[1:],
                   GOOD_POINTS[:1] + [BAD_VALUES[bad]] + later):
        with pytest.raises(METRIC_ERRORS) as batch:
            metric_frame_at(spec, points, order)
        assert (type(batch.value), str(batch.value)) == want
        stack = np.array(points)
        with np.errstate(over="ignore", invalid="ignore"):
            G = geometry.metric_jets(spec, stack, order)
        with pytest.raises(METRIC_ERRORS) as checked:
            geometry._check_values(spec, stack, G)
        assert (type(checked.value), str(checked.value)) == want


def test_a_good_batch_is_checked_by_one_stacked_eigvalsh(monkeypatch):
    spec = _bad_values_metric()
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(np.shape(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    G, _ = metric_frame_at(spec, GOOD_POINTS, 3)
    assert calls == [(3, 3, 3)]
    for i, p in enumerate(GOOD_POINTS):
        assert G[i].tobytes() == metric_frame_at(spec, p, 3)[0].tobytes()


def test_warped_product_plain_product_when_b_zero():
    _, spec = product_over(builtin_metric("pp_wave"), 0, 2, 1.0, 0.0)
    assert spec.n == 6
    assert spec.signature == (1, 5)
    G = values_of(geometry.metric_jets(spec, (0.3, -0.2, 0.1, 0.5, 0.0, 0.2), 1))
    assert np.allclose(G[:2, :2], np.eye(2))
    assert np.allclose(G[:2, 2:], 0.0)


def test_warped_product_domain_excludes_zero_warp():
    _, spec = product_over(builtin_metric("fubini_study"), 0, 1, 1.0, -1.0)
    assert spec.n == 5
    fiber_pt = geometry.default_point(builtin_metric("fubini_study"))
    ok = (0.3,) + fiber_pt
    bad = (1.0,) + fiber_pt
    assert geometry.domain_ok(spec, ok)
    assert not geometry.domain_ok(spec, bad)
    with pytest.raises(DomainError):
        metric_frame_at(spec, bad, 2)


# the Lorentzian bounds (n - 2, (n - 3)(n - 2)/2) at n = 4 + k
WAVE_PRODUCT_BOUNDS = {1: (3, 3), 2: (4, 6), 3: (5, 10), 4: (6, 15)}


@pytest.mark.parametrize("k", sorted(WAVE_PRODUCT_BOUNDS))
@pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.5, 0.8), (-0.7, 0.3)])
def test_products_over_a_vacuum_wave_are_exact_at_the_lorentzian_bound(a, b, k):
    # a fiber outside FAMILIES: its scales 1 and x1 lift to 1, the k base
    # coordinates and fiber_x1, which dims certifies against its upper bound
    ws, spec = product_over(vacuum_wave(a, b), 0, k, 1.0, 0.0)
    assert (ws.base.signature, spec.signature) == ((0, k), (1, k + 3))
    assert [name for name, _ in spec.known_scales] == (
        ["const"] + [f"x{i + 1}" for i in range(k)] + ["fiber_x1"])
    rep = analysis.estimate_parallel_dims(spec)
    assert rep.exact_ae and rep.exact_nck
    assert (rep.d_ae_lower, rep.d_nck_lower) == WAVE_PRODUCT_BOUNDS[k] == (
        analysis.ae_dim_bound(spec.signature, spec.n),
        analysis.nck_dim_bound(spec.signature, spec.n))


def test_degenerate_warp_rejected():
    with pytest.raises(CatalogueError):
        WarpedSpec(pseudo_euclidean(0, 1), builtin_metric("fubini_study"), 0.0, 0.0)


def test_warp_function_quantities():
    # df = 2b sum x_i dx_i, Hess f = 2b gbar, Lap f = 2(n-4)b, |df|^2 = 4 b^2 |x|^2
    ws = WarpedSpec(pseudo_euclidean(1, 1), builtin_metric("pp_split"), 0.5, -0.7)
    f = geometry.warp_function(ws)
    pt = (0.3, -0.4)
    env = jets.seed_jets(pt, 2)
    j = expr.evaluate(f, env)
    signs = np.array(ws.base_signs)
    x = np.array(pt)
    b = ws.b
    assert np.allclose(jets.gradient(j, 2), 2 * b * signs * x, atol=1e-12)
    gbar = np.diag(signs)
    assert np.allclose(jets.hessian(j, 2), 2 * b * gbar, atol=1e-12)
    lap = np.trace(np.diag(1 / signs) @ jets.hessian(j, 2))
    assert lap == pytest.approx(2 * len(pt) * b)
    grad = jets.gradient(j, 2)
    norm_sq_x = float(signs @ (x * x))
    assert grad @ np.diag(1 / signs) @ grad == pytest.approx(4 * b * b * norm_sq_x)


@pytest.mark.parametrize("name", [
    "fubini_study", "fubini_study_hyperbolic", "taub_nut", "pp_wave",
    "pp_split", "lorentz3d", "flat_r4", "flat_1_3",
    "warped_fs_n5", "warped_hfs_n6", "product_lorentz_n6", "product_split_n6",
])
def test_catalogue_signature_stable_over_samples(name):
    spec = catalogue_metric(name)
    for pt in sample_points(spec, 20, seed=11):
        vals = values_of(geometry.metric_jets(spec, pt, 1))
        assert signature_of(vals) == spec.signature


def test_signature_mismatch_detected():
    wrong = MetricSpec(
        n=2, signature=(0, 2),
        components=((expr.const(-1.0), expr.ZERO), (expr.ZERO, expr.const(1.0))),
        label="wrong",
        sample_box=((-1, 1), (-1, 1)),
    )
    with pytest.raises(SingularMetricError):
        metric_frame_at(wrong, (0.0, 0.0), 1)


def _constant_metric(diagonal, signature):
    n = len(diagonal)
    comps = tuple(tuple(expr.const(diagonal[i]) if i == j else expr.ZERO
                        for j in range(n)) for i in range(n))
    return MetricSpec(n=n, signature=signature, components=comps, label="constant")


def test_small_but_regular_metric_is_accepted():
    # |det g| = 1e-12, but every eigenvalue is 1e-3
    spec = _constant_metric([1e-3] * 4, (0, 4))
    G, Ginv = metric_frame_at(spec, (0.0, 0.0, 0.0, 0.0), 2)
    assert signature_of(values_of(G)) == (0, 4)
    assert np.allclose(Ginv[..., 0], 1e3 * np.eye(4))


def test_rank_deficient_metric_is_rejected():
    spec = _constant_metric([1.0, 1.0, 1.0, 0.0], (0, 4))
    with pytest.raises(SingularMetricError, match="degenerate"):
        metric_frame_at(spec, (0.0, 0.0, 0.0, 0.0), 2)


def test_sampling_is_seeded_and_respects_domain():
    spec = builtin_metric("taub_nut")
    a = sample_points(spec, 5, seed=7)
    b = sample_points(spec, 5, seed=7)
    assert a == b
    for pt in a:
        assert geometry.domain_ok(spec, pt)


def test_load_metric_file():
    text = """
    dim = 2
    signature = 0,2
    g 1 1 : 1
    g 2 2 : x1^2
    domain : x1 - 0.1
    """
    spec = geometry.load_metric(text, label="cone")
    assert spec.n == 2
    assert geometry.domain_ok(spec, (0.5, 0.0))
    assert not geometry.domain_ok(spec, (0.05, 0.0))
    G, Ginv = metric_frame_at(spec, (0.5, 0.0), 2)
    assert signature_of(values_of(G)) == (0, 2)


ORACLE_SEEDS = list(range(300)) + [2**32 - 1, 2**32, 2**64 + 3, 123456789123456789,
                                   2**128 + 7, 3**90]


def _same(a, b) -> bool:
    return (type(a) is type(b) and np.shape(a) == np.shape(b)
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


def test_seeded_rng_reproduces_numpy_stream():
    # every call shape the library uses: array bounds, scalars, size=k; in sequence
    lo, hi = np.array([0.1, 0.0, -1.0, 0.5]), np.array([1.2, 1.0, 1.0, math.pi])
    draws = (
        lambda r: r.uniform(lo, hi),
        lambda r: r.uniform(0.6, 1.6),
        lambda r: r.uniform(-0.8, 0.8, size=3),
        lambda r: r.uniform(-1.0, 1.0, size=1),
        lambda r: r.uniform(lo[:2], hi[:2]),
        lambda r: r.uniform(0.0, hi, size=(2, 4)),
        lambda r: r.uniform(0.2, 1.0),
    )
    for seed in ORACLE_SEEDS:
        ours, theirs = geometry.SeededRng(seed), np.random.default_rng(seed)
        for k, draw in enumerate(draws):
            assert _same(draw(ours), draw(theirs)), (seed, k)


def test_seeded_rng_keeps_numpy_checks():
    with pytest.raises(ValueError, match="non-negative"):
        geometry.SeededRng(-1)
    with pytest.raises(TypeError):
        geometry.SeededRng(1.5)
    rng = geometry.SeededRng(0)
    with pytest.raises(OverflowError):
        rng.uniform(-math.inf, 0.0)
    with pytest.raises(OverflowError):
        rng.uniform(np.zeros(2), np.array([1.0, math.inf]))


def _numpy_sample_points(spec, count, seed):
    """sample_points as written against numpy's generator."""
    rng = np.random.default_rng(seed)
    box = spec.sample_box or tuple((-1.0, 1.0) for _ in range(spec.n))
    lo, hi = np.array([b[0] for b in box]), np.array([b[1] for b in box])
    out = []
    while len(out) < count:
        pt = tuple(rng.uniform(lo, hi))
        try:
            if geometry.domain_value(spec, pt) > geometry.DOMAIN_MARGIN:
                out.append(pt)
        except expr.EvalError:
            continue
    return out


@pytest.mark.parametrize("name", [n for n in geometry.catalogue_names() if "(" not in n])
def test_sample_points_match_numpy_generator(name):
    spec = catalogue_metric(name)
    for seed in (0, 2, 5, 7, 11, 20, 108):
        ours = sample_points(spec, 6, seed=seed)
        theirs = _numpy_sample_points(spec, 6, seed)
        assert len(ours) == len(theirs)
        assert all(_same(a, b) for p, q in zip(ours, theirs) for a, b in zip(p, q))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_point_rejected(bad):
    spec = builtin_metric("pp_split")
    point = (0.2, bad, 0.1, 0.3)
    with pytest.raises(DomainError, match=r"point \(0\.2, .*\) is not finite"):
        metric_frame_at(spec, point, 2)
    with pytest.raises(DomainError, match="not finite"):
        curvature.CurvatureFrame(spec, point, 2)
    # the basepoint is checked even when no frame is built there
    with pytest.raises(DomainError, match="not finite"):
        analysis.estimate_parallel_dims(builtin_metric("lorentz3d"), (0.1, bad, 0.2),
                                        upper=False)


def test_format_point_prints_plain_floats():
    point = tuple(np.array([1.5, -0.25, 3.0]))
    assert geometry.format_point(point) == "(1.5, -0.25, 3.0)"
