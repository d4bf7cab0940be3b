"""CLI surface: subcommands, exit codes, JSON determinism, file input."""

import contextlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import conformal_gap_lab
from conformal_gap_lab import JSON_SCHEMA, analysis, cli, curvature, expr, geometry, jets
from conformal_gap_lab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalogue_lists_metrics(capsys):
    code, out, _ = run(capsys, "catalogue")
    assert code == 0
    assert "fubini_study" in out and "pp_wave" in out


def test_catalogue_json(capsys):
    code, out, _ = run(capsys, "catalogue", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "conformal-gap-lab/2"
    assert data["metrics"] == geometry.catalogue_names()


def test_analyze_fubini_study_point(capsys):
    code, out, _ = run(capsys, "analyze", "fubini_study",
                       "--point", "0.3,0.7,0.5,0.9", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "conformal-gap-lab/2"
    assert abs(data["points"][0]["scalar_curvature"] - 48.0) < 1e-7


def test_analyze_pp_wave_invariants(capsys):
    code, out, _ = run(capsys, "analyze", "pp_wave", "--point", "0,1,0,0", "--json")
    assert code == 0
    data = json.loads(out)
    row = data["points"][0]
    assert row["ricci_norm"] < 1e-8
    assert row["weyl_norm"] > 1e-3
    assert row["kerw_dim"] == 1


def test_analyze_taub_nut_param(capsys):
    code, out, _ = run(capsys, "analyze", "taub_nut", "--param", "m=2.0",
                       "--point", "1.5,1.0,0.3,0.2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["points"][0]["ricci_norm"] < 1e-8


def test_failure_injection_metric_exits_1(capsys):
    code, out, _ = run(capsys, "analyze", "bad_einstein_claim",
                       "--point", "0.1,0.2,0.3,0.4", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["pass"] is False
    assert any(not c["passed"] for c in data["scale_checks"])


def test_unknown_metric_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "nonsense", "--point", "0,0")
    assert code == 2
    assert "unknown metric" in err


def test_malformed_point_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "pp_wave", "--point", "0,1")
    assert code == 2


def test_domain_violation_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "taub_nut", "--point", "-3,1,0,0")
    assert code == 2


def test_usage_error_exits_2(capsys):
    assert main(["analyze"]) == 2
    assert main(["verify", "not_a_theorem"]) == 2


def test_kerw_pp_split(capsys):
    code, out, _ = run(capsys, "kerw", "pp_split", "--point", "0.2,0.5,0.1,0.3",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 2
    assert data["bound"] == 2


def test_verify_theorem_cli(capsys):
    code, out, _ = run(capsys, "verify", "t_riem", "--case", "b", "--n", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    rank_check = next(c for c in data["checks"] if c["name"] == "family_rank")
    assert rank_check["passed"]


def test_verify_rflat_cli(capsys):
    code, out, _ = run(capsys, "verify", "rflat", "--metric", "pp_split", "--json")
    assert code == 0


def test_dims_deterministic_json(capsys):
    code1, out1, _ = run(capsys, "dims", "pp_split", "--seed", "5", "--json")
    code2, out2, _ = run(capsys, "dims", "pp_split", "--seed", "5", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["dims"]["d_ae"] == {"exact": True, "lower": 3, "upper": 3}


def test_env_seed_default(capsys, monkeypatch):
    monkeypatch.setenv("CGL_SEED", "11")
    code, out, _ = run(capsys, "analyze", "pp_split", "--json")
    assert code == 0
    assert json.loads(out)["seed"] == 11


def test_env_seed_rejected_when_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("CGL_SEED", "abc")
    code, _, err = run(capsys, "dims", "pp_split", "--json")
    assert code == 2
    assert "CGL_SEED" in err


def test_rescale_invariance_cli(capsys):
    code, out, _ = run(capsys, "rescale", "pp_split", "--omega", "exp(x/9)",
                       "--point", "0.1,0.4,0.2,0.0", "--json")
    assert code == 0
    data = json.loads(out)
    assert all(c["passed"] for c in data["checks"])


def test_metric_file_input(tmp_path, capsys):
    path = tmp_path / "cone_line.metric"
    path.write_text(
        "dim = 3\nsignature = 0,3\n"
        "g 1 1 : 1\ng 2 2 : x1^2\ng 3 3 : 1\ndomain : x1 - 0.1\n"
    )
    code, out, _ = run(capsys, "analyze", str(path), "--point", "1.0,0.3,0.0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["metric"] == "cone_line"
    # a cone crossed with a line is flat away from the tip
    assert abs(data["points"][0]["scalar_curvature"]) < 1e-10


def _nested(shape, levels):
    """A positive formula that nests ``levels`` parentheses, ``cos`` calls or
    unary minus signs, or sums ``levels`` terms or multiplies ``levels``
    factors, folded left."""
    if shape == "sum":
        return "1" + f" + {0.2 / levels!r}*x1" * (levels - 1)
    if shape == "product":
        return "*".join([f"(1 + {0.2 / levels!r}*x1)"] * levels)
    if shape == "call":
        return "cos(" * levels + "0.001*x1" + ")" * levels
    if shape == "neg":
        return "1 + " + "-" * levels + "0.001*x1"
    return "(" * (levels - 1) + "1 + 0.001*x1" + ")" * (levels - 1)


@pytest.mark.parametrize("shape", ["sum", "product", "parens", "call", "neg"])
def test_nesting_of_any_depth_runs(tmp_path, capsys, shape):
    # neither the parser nor any walk over a tree recurses, so no length or
    # nesting is refused or ends in a RecursionError
    path = tmp_path / "nested.metric"
    for levels in (2000,) if shape in ("call", "neg") else (200, 201, 500, 5000):
        if shape == "product" and levels == 5000:
            continue
        formula = _nested(shape, levels)
        path.write_text(f"dim = 4\nsignature = 0,4\ng 1 1 : {formula}\n"
                        "g 2 2 : 1\ng 3 3 : 1\ng 4 4 : 1\n")
        runs = [(cmd, str(path)) for cmd in ("dims", "analyze", "kerw")]
        runs.append(("rescale", "flat_r4", "--omega", formula))
        for argv in runs:
            code, _, err = run(capsys, *argv)
            assert code == 0 and not err, (argv[0], levels, err)


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["analyze", "pp_wave", "--point", "0,1,0,0", "--json",
                 "--out", str(target)])
    assert code == 0
    data = json.loads(target.read_text())
    assert data["metric"] == "pp_wave"


def usage_error(capsys, *argv) -> str:
    """Run argv, expect exit 2 with one `error:` line and no report."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_missing_metric_file_exits_2(tmp_path, capsys):
    err = usage_error(capsys, "analyze", str(tmp_path / "absent.metric"))
    assert "absent.metric" in err


def test_directory_does_not_shadow_a_catalogue_name(tmp_path, monkeypatch, capsys):
    # only a file is read as a metric file; a name with a metric-file suffix
    # is still read as one, and a missing one is a usage error
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pp_wave").mkdir()
    code, out, err = run(capsys, "dims", "pp_wave", "--json")
    assert code == 0 and err == ""
    assert json.loads(out)["dims"]["label"] == "pp_wave"
    assert "No such file" in usage_error(capsys, "dims", "missing.metric")


def test_unreadable_metric_file_exits_2(tmp_path, capsys):
    folder = tmp_path / "folder.metric"
    folder.mkdir()
    usage_error(capsys, "dims", str(folder))


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    usage_error(capsys, "analyze", "pp_wave", "--point", "0,1,0,0",
                "--out", str(tmp_path / "no_such_dir" / "report.json"))


def test_non_numeric_param_exits_2(capsys):
    err = usage_error(capsys, "analyze", "taub_nut", "--param", "m=abc")
    assert "'abc'" in err


def test_nan_param_exits_2(capsys):
    err = usage_error(capsys, "analyze", "taub_nut", "--param", "m=nan")
    assert "finite" in err


def test_repeated_param_exits_2(capsys):
    # the last value once won silently; metric files already refused this
    err = usage_error(capsys, "analyze", "taub_nut", "--param", "m=2", "--param", "m=3",
                      "--point", "1.5,1.0,0.3,0.2")
    assert err == "error: --param m given twice\n"


def test_unknown_param_name_exits_2(capsys):
    err = usage_error(capsys, "analyze", "pp_wave", "--param", "bogus=1")
    assert "'bogus'" in err


def test_param_on_metric_file_exits_2(tmp_path, capsys):
    path = tmp_path / "line.metric"
    path.write_text("dim = 3\nsignature = 0,3\ng 1 1 : 1\ng 2 2 : 1\ng 3 3 : 1\n")
    err = usage_error(capsys, "analyze", str(path), "--param", "a=2")
    assert "--param" in err


def test_param_on_verify_exits_2(capsys):
    usage_error(capsys, "verify", "bounds", "--metric", "taub_nut", "--param", "m=2")


def test_nan_param_in_metric_file_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.metric"
    path.write_text("dim = 3\nsignature = 0,3\nparam a = nan\n"
                    "g 1 1 : 1\ng 2 2 : a*x1^2\ng 3 3 : 1\n")
    err = usage_error(capsys, "analyze", str(path), "--point", "1,0,0")
    assert err.startswith("error: line 3: param a needs a finite value")


@pytest.mark.parametrize("line", ["dimension = 3", "params a = 1", "g 1 1 : 4"])
def test_malformed_metric_file_line_exits_2(tmp_path, capsys, line):
    # a keyword matched by its prefix, or a second component, was once accepted
    path = tmp_path / "bad.metric"
    path.write_text("dim = 3\nsignature = 0,3\ng 1 1 : 1\ng 2 2 : 1\ng 3 3 : 1\n"
                    + line + "\n")
    err = usage_error(capsys, "analyze", str(path), "--point", "1,0,0")
    assert "line 6: " in err


@pytest.mark.parametrize("line, lineno", [
    ("dim = three", 1), ("signature = 0,3,1", 2), ("param a", 3), ("param x1 = 2", 3),
    ("g 1 x : 1", 4),
])
def test_malformed_metric_file_value_exits_2(tmp_path, capsys, line, lineno):
    # these values once reached int() / float() and exited with Python's message
    lines = ["dim = 3", "signature = 0,3", "param a = 2", "g 1 1 : 1", "g 2 2 : 1",
             "g 3 3 : 1"]
    lines[lineno - 1] = line
    path = tmp_path / "bad.metric"
    path.write_text("\n".join(lines) + "\n")
    err = usage_error(capsys, "analyze", str(path), "--point", "1,0,0")
    assert err.startswith(f"error: line {lineno}: ")


@pytest.mark.parametrize("line, lineno", [
    ("g 1 1 : 1 +", 3), ("g 2 2 : (x1", 4), ("g 3 3 :", 5), ("domain : x1 *", 6),
])
def test_bad_metric_file_expression_names_its_line(tmp_path, capsys, line, lineno):
    # a syntax error inside a component or domain expression once came
    # without its line, only with the offset inside the expression
    lines = ["dim = 3", "signature = 0,3", "g 1 1 : 1", "g 2 2 : 1", "g 3 3 : 1",
             "domain : x1 + 2"]
    lines[lineno - 1] = line
    path = tmp_path / "bad.metric"
    path.write_text("\n".join(lines) + "\n")
    err = usage_error(capsys, "analyze", str(path), "--point", "1,0,0")
    assert err.startswith(f"error: line {lineno}: ")


@pytest.mark.parametrize("component, message", [
    ("1 + 0^-1*x1", "singular value"), ("1 + (1e200)^2*x1", "not finite"),
])
def test_constant_power_that_cannot_fold_exits_2(tmp_path, capsys, component, message):
    # folding these powers once raised ZeroDivisionError / OverflowError
    path = tmp_path / "power.metric"
    path.write_text(f"dim = 3\nsignature = 0,3\ng 1 1 : {component}\ng 2 2 : 1\ng 3 3 : 1\n")
    assert message in usage_error(capsys, "analyze", str(path), "--point", "1,0,0")


def test_overflowing_metric_file_exits_2(tmp_path, capsys):
    path = tmp_path / "big.metric"
    path.write_text("dim = 3\nsignature = 0,3\ng 1 1 : exp(1000*x1)\ng 2 2 : 1\ng 3 3 : 1\n")
    err = usage_error(capsys, "analyze", str(path), "--point", "1,0,0")
    assert "not finite at (1.0, 0.0, 0.0)" in err


@pytest.mark.parametrize("argv", [
    ("dims", "pp_split", "--seed", "-1"),
    ("dims", "pp_split", "--seed", "-3", "--json"),
    ("analyze", "pp_split", "--seed", "-1"),
    ("verify", "t_lorentz", "--n", "5", "--seed", "-2"),
])
def test_negative_seed_exits_2(capsys, argv):
    assert "--seed must be a non-negative integer" in usage_error(capsys, *argv)


def test_negative_env_seed_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("CGL_SEED", "-4")
    assert "CGL_SEED must be a non-negative integer" in usage_error(capsys, "dims", "pp_split")


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_analyze_needs_one_sample(capsys, samples):
    err = usage_error(capsys, "analyze", "pp_split", "--samples", samples)
    assert "--samples must be at least 1" in err


@pytest.mark.parametrize("argv", [("--samples", "101"), ("--samples", "200000", "--json"),
                                  ("--samples", "101", "--point", "0,0,0,0,0,0,0,0")])
def test_analyze_samples_above_the_maximum_exit_2(capsys, monkeypatch, argv):
    # checked with the minimum, before any point is sampled or frame built
    built = []
    monkeypatch.setattr(geometry, "sample_points", lambda *a, **k: built.append(a))
    monkeypatch.setattr(curvature.CurvatureFrame, "__init__", lambda *a, **k: built.append(a))
    err = usage_error(capsys, "analyze", "warped_fs_n8", *argv)
    assert err == f"error: --samples must be at most {cli.MAX_SAMPLES}, got {argv[1]}\n"
    assert built == []


def test_analyze_takes_the_maximum_samples(capsys):
    code, out, _ = run(capsys, "analyze", "pp_split", "--samples", str(cli.MAX_SAMPLES), "--json")
    assert code == 0 and len(json.loads(out)["points"]) == cli.MAX_SAMPLES


@pytest.mark.parametrize("argv", [
    ("verify", "warpedSol", "--n", "9"),
    ("verify", "warpedSol", "--n", "4"),
    ("verify", "rflat", "--metric", "taub_nut"),
    ("verify", "t_riem", "--n", "9"),
])
def test_verifier_parameter_out_of_range_exits_2(capsys, argv):
    usage_error(capsys, *argv)


# warpedSol and t_riem at n = 9 are rows of the test above; here they run at
# a dimension whose base alone exceeds the cap, and at one too large to build
@pytest.mark.parametrize("argv, dim", [
    (("dims", "flat_0_9"), 9),
    (("dims", "nine.metric"), 9),
    (("verify", "t_gen", "--n", "9"), 9),
    (("verify", "t_riem", "--n", "13"), 13),
    (("verify", "warpedSol", "--n", "100000"), 100000),
    (("dims", "warped_fs_n100000"), 100000),
    (("dims", "flat_3_99997"), 100000),
])
def test_dimension_above_the_jet_cap_is_one_usage_error(tmp_path, capsys, monkeypatch,
                                                        argv, dim):
    # the one cap once gave three different messages, and a large n hung
    monkeypatch.chdir(tmp_path)
    diagonal = "".join(f"g {i} {i} : 1\n" for i in range(1, 10))
    (tmp_path / "nine.metric").write_text("dim = 9\nsignature = 0,9\n" + diagonal)
    err = usage_error(capsys, *argv)
    assert err == f"error: dimension {dim} exceeds the supported maximum {jets.MAX_VARS}\n"


def test_sampling_does_not_import_numpy_random():
    script = (
        "import contextlib, io, sys\n"
        "from conformal_gap_lab import analysis, cli, geometry\n"
        "analysis.estimate_parallel_dims(geometry.catalogue_metric('pp_split'))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['analyze', 'fubini_study']) == 0\n"
        "    assert cli.main(['verify', 't_riem', '--case', 'b', '--n', '5']) == 0\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random imported'\n"
    )
    src = str(Path(conformal_gap_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_session_runs():
    root = Path(__file__).resolve().parents[1]
    blocks = re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", blocks[0]], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ("kerw", "pp_split", "--point", "inf,0,0,0"),
    ("dims", "pp_split", "--base-point", "nan,0,0,0"),
    ("analyze", "pp_wave", "--point", "0,-inf,0,0"),
    ("rescale", "taub_nut", "--omega", "1", "--point", "1.0,nan,0.5,0.5"),
])
def test_non_finite_point_exits_2(capsys, argv):
    assert "is not finite" in usage_error(capsys, *argv)


@pytest.mark.parametrize("argv, point", [
    (("dims", "flat_r4", "--base-point", "0,0,0,1e160"), "(0.0, 0.0, 0.0, 1e+160)"),
    (("dims", "flat_2_2", "--base-point", "1e200,0,0,0"), "(1e+200, 0.0, 0.0, 0.0)"),
])
def test_scale_not_finite_at_a_far_basepoint_exits_2(capsys, recwarn, argv, point):
    # the witness norm_sq overflows there; once a check passed or failed by overflow
    err = usage_error(capsys, *argv)
    assert err == (f"error: scale 'norm_sq' of '{geometry.catalogue_metric(argv[1]).label}' "
                   f"is not finite at the basepoint {point}\n")
    assert not recwarn.list


def test_curvature_chain_not_finite_at_the_basepoint_exits_2(tmp_path, capsys, recwarn):
    # g_11 has the second derivative 2e300 there, and the chain's products
    # overflow; once two RuntimeWarnings came first, then the kernel's message
    path = tmp_path / "steep.metric"
    path.write_text("dim = 4\nsignature = 0,4\ng 1 1 : 1e300*x1^2 + 1\n"
                    "g 2 2 : 1\ng 3 3 : 1\ng 4 4 : 1\n")
    err = usage_error(capsys, "dims", str(path), "--json")
    assert err == ("error: curvature chain of 'steep' is not finite at the basepoint "
                   "(0.0, 0.0, 0.0, 0.0)\n")
    assert not recwarn.list


def test_scale_not_finite_at_an_analyze_point_exits_2(capsys, recwarn):
    # the scale norm_sq overflows there; once three RuntimeWarnings came first
    # and the report held a NaN residual, which strict JSON refuses
    err = usage_error(capsys, "analyze", "flat_r4", "--point", "1e200,0,0,0", "--json")
    assert err == ("error: scale 'norm_sq' of 'flat_0_4' is not finite at the point "
                   "(1e+200, 0.0, 0.0, 0.0)\n")
    assert not recwarn.list


@pytest.mark.parametrize("far", ["1e20", "1e100", "1e154"])
def test_far_basepoint_keeps_the_witness_span(capsys, recwarn, far):
    # norm_sq's tractor is ~far^2 there: the witness ranks are taken at a check
    # point, and containment is checked on tractors scaled to a largest entry
    # of 1, so neither the span collapses (once 1 and 4 at 1e20) nor a wedge
    # overflows (once exit 1 at 1e154)
    code, out, err = run(capsys, "dims", "flat_r4", "--base-point", f"0,0,0,{far}", "--json")
    assert code == 0 and err == "" and not recwarn.list
    dims = json.loads(out)["dims"]
    assert [(dims[k]["lower"], dims[k]["upper"], dims[k]["exact"]) for k in ("d_ae", "d_nck")] \
        == [(6, 6, True), (15, 15, True)]


def test_lower_only_reports_witnesses_against_the_flat_model_bounds(capsys):
    # no jet frame at the basepoint: the upper bounds are n + 2 and
    # (n + 2)(n + 1)/2, and the witnesses are those of the full report
    reports = []
    for extra in ((), ("--lower-only",)):
        code, out, _ = run(capsys, "dims", "pp_wave", "--json", *extra)
        assert code == 0
        reports.append(json.loads(out)["dims"])
    full, lower = reports
    assert lower["jet_order"] is None and full["jet_order"] == analysis.JET_ORDER
    assert lower["d_ae"] == {"lower": 2, "upper": 6, "exact": False}
    assert lower["d_nck"] == {"lower": 1, "upper": 15, "exact": False}
    assert lower["constraint_ranks"] == {"standard": 0, "adjoint": 0}
    for key in ("ae_witnesses", "nck_witnesses", "notes", "marginal"):
        assert lower[key] == full[key], key
    assert [full[k]["lower"] for k in ("d_ae", "d_nck")] == [2, 1]


def test_lower_only_reads_nothing_at_the_basepoint(capsys, recwarn):
    # the scale norm_sq is not finite at this basepoint, which stops the full
    # report; without an upper bound nothing is read there
    reports = []
    for extra in ((), ("--base-point", "0,0,0,1e160")):
        code, out, err = run(capsys, "dims", "flat_r4", "--lower-only", "--json", *extra)
        assert code == 0 and err == "" and not recwarn.list
        reports.append(json.loads(out)["dims"])
    default, far = reports
    assert far["basepoint"] == [0.0, 0.0, 0.0, 1e160]
    for key in ("ae_witnesses", "nck_witnesses", "d_ae", "d_nck", "notes", "marginal"):
        assert far[key] == default[key], key
    assert [default[k]["lower"] for k in ("d_ae", "d_nck")] == [6, 15]


@pytest.mark.parametrize("argv", [
    ("kerw", "pp_split", "--point", "0.2,,0.5,0.1,0.3"),
    ("kerw", "pp_split", "--point", "0.2,0.5,0.1,0.3,,"),
    ("analyze", "pp_wave", "--point", ""),
    ("dims", "pp_split", "--base-point", "0.2,0.5,,0.3"),
    ("rescale", "taub_nut", "--omega", "1", "--point", ",1.0,1.2,0.5,0.5"),
])
def test_empty_point_coordinate_exits_2(capsys, argv):
    # empty fields were once dropped, so a 5-field point was read as a 4-point
    assert "has an empty coordinate" in usage_error(capsys, *argv)


def test_points_in_messages_are_plain_floats(capsys):
    err = usage_error(capsys, "rescale", "taub_nut", "--omega", "0")
    assert "not positive at (" in err and "np.float64" not in err


@pytest.mark.parametrize("argv, option", [
    (("verify", "rflat", "--metric", "pp_split", "--n", "9", "--case", "c", "--sc", "0"), "n"),
    (("verify", "t_lorentz", "--metric", "taub_nut", "--p", "7"), "p"),
    (("verify", "t_gen", "--case", "b"), "case"),
    (("verify", "warpedSol", "--metric", "pp_wave"), "metric"),
    (("verify", "bounds", "--sc", "0"), "sc"),
])
def test_verify_rejects_options_its_verifier_does_not_take(capsys, argv, option):
    err = usage_error(capsys, *argv)
    assert err == f"error: verify {argv[1]} takes no --{option}\n"


def test_verify_keeps_defaults_for_unset_options(capsys):
    code, out, _ = run(capsys, "verify", "bounds", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["params"] == {"metric": "pp_wave", "seed": 0}
    code, out, _ = run(capsys, "verify", "t_gen", "--json")
    assert json.loads(out)["params"] == {"n": 6, "p": 2, "seed": 0}


@pytest.mark.parametrize("n, p", [("7", "2"), ("7", "3"), ("8", "2"), ("8", "3"), ("8", "4")])
def test_verify_t_gen_is_sharp_above_dimension_6(capsys, n, p):
    code, out, _ = run(capsys, "verify", "t_gen", "--n", n, "--p", p, "--json")
    assert code == 0
    data = json.loads(out)
    assert {c["name"] for c in data["checks"]} >= {"d_ae_exact", "d_nck_upper"}
    bounds = {"7": (6, 15), "8": (7, 21)}[n]
    dims = [data["dims"][key] for key in ("d_ae", "d_nck")]
    assert [(d["lower"], d["upper"], d["exact"]) for d in dims] == [(b, b, True) for b in bounds]


def test_analyze_samples_take_one_frame_batch(capsys, monkeypatch):
    # one order-3 batch over the 10 sample points serves the packs, the Weyl
    # kernels and the scale residuals
    orders = []
    init = curvature.CurvatureFrame.__init__

    def counted(self, spec, points, order=4):
        orders.append(order)
        init(self, spec, points, order)

    monkeypatch.setattr(curvature.CurvatureFrame, "__init__", counted)
    code, out, _ = run(capsys, "analyze", "pp_wave", "--samples", "10", "--json")
    assert code == 0 and len(json.loads(out)["points"]) == 10
    assert orders == [3]


# (jet order, points) of every frame a command builds, in order
FRAME_BUILDS = {
    # n = 3: the check points take one order-3 batch, as normality reads Cotton,
    # and an order-3 frame at the first of them serves the Einstein tractors
    ("dims", "flat_1_2"): [(4, 1), (3, 6), (3, 1)],
    ("rescale", "taub_nut", "--omega", "1 + x1/8", "--point", "1.0,1.2,0.5,0.5"):
        [(3, 1), (3, 1)],
    ("verify", "bounds", "--metric", "warped_fs_n6"): [(2, 10), (2, 6), (3, 1)],
    ("verify", "t_riem", "--case", "b", "--n", "5"): [(2, 10), (3, 1)],
    ("verify", "warpedSol"): [(3, 1), (2, 10)],
}


@pytest.mark.parametrize("argv", sorted(FRAME_BUILDS))
def test_command_builds_each_frame_once(argv, capsys, monkeypatch):
    builds = []
    init = curvature.CurvatureFrame.__init__

    def counted_init(self, spec, points, order=4):
        shape = np.shape(points)
        builds.append((order, shape[0] if len(shape) > 1 else 1))
        init(self, spec, points, order)

    monkeypatch.setattr(curvature.CurvatureFrame, "__init__", counted_init)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert builds == FRAME_BUILDS[argv]


# (num_vars, degree) of every inverse step a fresh `cgl dims` makes: the
# order-4 basepoint frame inverts to degree 3
DIMS_WORK = {
    "pp_wave": [(4, 1), (4, 2), (4, 3)],
    "product_split_n6": [(6, 1), (6, 2), (6, 3)],
}


@pytest.mark.parametrize("name", sorted(DIMS_WORK))
def test_dims_makes_only_what_it_reads(name, capsys, monkeypatch):
    # the jet caches start empty, as in a fresh process; the first check
    # point's order-3 frame serves the Einstein tractors alone, which read no
    # Riemann, Weyl or Cotton value, so none is computed there
    for cache in ("_tables", "_inverse_steps"):
        monkeypatch.setattr(jets, cache, {})
    frames = []
    init = curvature.CurvatureFrame.__init__

    def kept_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        frames.append(self)

    monkeypatch.setattr(curvature.CurvatureFrame, "__init__", kept_init)
    code, _, _ = run(capsys, "dims", name)
    assert code == 0
    assert sorted(jets._inverse_steps) == DIMS_WORK[name]
    first = [fr for fr in frames if fr.order == 3]
    assert len(first) == 1 and first[0].batch == ()
    assert not {"riemann_mixed", "riemann", "weyl", "cotton"} & set(vars(first[0]))


def test_rescale_evaluates_omega_once_per_input(capsys, monkeypatch):
    # once at the 12 positivity check points, and once as order-2 jets at the
    # point, whose value and derivatives serve every transformation law
    argv = ("rescale", "taub_nut", "--omega", "1 + x1/8", "--point", "1.0,1.2,0.5,0.5")
    spec = geometry.catalogue_metric("taub_nut")
    omega = expr.parse("1 + x1/8", spec.n, params=dict(spec.params), var_names=spec.names)
    shapes = []
    evaluate = expr.evaluate

    def counted(node, *args, **kwargs):
        out = evaluate(node, *args, **kwargs)
        if node == omega:
            shapes.append(out.shape)
        return out

    monkeypatch.setattr(expr, "evaluate", counted)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert shapes == [(12, jets.tables(4, 1).size), (jets.tables(4, 2).size,)]


def test_verifiers_share_each_option_default(capsys):
    # cgl verify passes only the options given, so the verifier signatures
    # hold the defaults, and the help text reads them there
    defaults = {}
    for verifier in analysis.VERIFIERS.values():
        for name, param in inspect.signature(verifier).parameters.items():
            assert param.default is not inspect.Parameter.empty, name
            defaults.setdefault(name, set()).add(param.default)
    assert {name: len(values) for name, values in defaults.items()} == dict.fromkeys(defaults, 1)
    report = analysis.verify_theorem("bounds")
    assert report["label"] == "pp_wave" and report["params"]["metric"] == "pp_wave"
    code, out, _ = run(capsys, "verify", "--help")
    assert code == 0
    assert "--metric METRIC default pp_wave; taken by rflat, bounds" in " ".join(out.split())


@st.composite
def _term(draw, n, coefficients):
    """A small term: a polynomial, exp, trig or sqrt factor of random size,
    nested in up to 2,000 parentheses or pairs of minus signs, or in a few
    ``cos`` calls."""
    def x():
        return f"x{draw(st.integers(1, n))}"
    kind = draw(st.sampled_from(["poly", "exp", "trig", "sqrt"]))
    if kind == "poly":
        body = "*".join(f"{x()}^{draw(st.integers(1, 3))}"
                        for _ in range(draw(st.integers(1, 4))))
    elif kind == "exp":
        body = f"exp({draw(st.sampled_from(['-1', '0.5', '2']))}*{x()})"
    elif kind == "trig":
        body = f"{draw(st.sampled_from(['sin', 'cos', 'tan', 'sinh', 'cosh']))}({x()})"
    else:
        body = f"sqrt(1 + {x()}^2)"
    opener, closer = draw(st.sampled_from([("(", ")"), ("--", ""), ("cos(", ")")]))
    levels = draw(st.sampled_from([0] * 6 + [1, 7] + [2000] * (opener != "cos(")))
    return f"{draw(st.sampled_from(coefficients))}*{opener * levels}{body}{closer * levels}"


_BAD_HEADERS = {
    "repeated dim": lambda lines: lines[:1] + lines,
    "repeated signature": lambda lines: lines[:2] + lines[1:],
    "last line first": lambda lines: lines[-1:] + lines[:-1],
    "word for dim": lambda lines: ["dim = three"] + lines[1:],
    "signature of another sum": lambda lines: [lines[0], lines[1] + "1"] + lines[2:],
    "no signature": lambda lines: lines[:1] + lines[2:],
    "unknown line": lambda lines: lines + ["metric = g"],
}


@st.composite
def _metric_files(draw):
    """A conformal-metric v1 file: a diagonal of signs (the signature's, in any
    order) plus small terms, some off-diagonal terms, and optional param and
    domain lines; some files get a malformed, repeated or misplaced header."""
    n = draw(st.sampled_from([*range(1, 11), *range(3, 8)]))     # mostly curved dims
    p = draw(st.integers(0, n))
    signs = draw(st.permutations(["-1"] * p + ["1"] * (n - p)))
    coefficients = ["0.01", "0.05", "0.2"]
    lines = [f"dim = {n}", f"signature = {p},{n - p}"]
    if draw(st.booleans()):
        lines.append("param a = 0.03")
        coefficients.append("a")
    terms = st.lists(_term(n, coefficients), max_size=draw(st.sampled_from([2] * 5 + [12])))
    for i, sign in enumerate(signs, 1):
        lines.append(f"g {i} {i} : " + " + ".join([sign] + draw(terms)))
    for i, j in sorted(draw(st.sets(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=2))):
        if i < j:
            lines.append(f"g {i} {j} : " + " + ".join(["0"] + draw(terms)))
    if draw(st.booleans()):
        lines.append(f"domain : 2 + {draw(_term(n, coefficients))}")
    bad = draw(st.sampled_from([None] * 14 + sorted(_BAD_HEADERS)))
    return "\n".join(_BAD_HEADERS[bad](lines) if bad else lines) + "\n"


def _run_main(*argv):
    """Exit code, stdout, stderr and seconds of one ``main`` call; a warning
    counts as a line of stderr, as it does outside pytest."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(list(argv))
    lines = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue(), lines + err.getvalue(), time.perf_counter() - start


def _assert_exit_contract(argv, code, out, err, seconds):
    """Exit 0, 1 or 2 within 5 s: a report with a schema (or, on exit 1, one
    `check failed:` line), or one `error:` line."""
    assert seconds < 5.0, argv
    assert code in (0, 1, 2), argv
    if code == 2 or not out:
        assert out == "" and err.count("\n") == 1, (argv, err)
        assert err.startswith("error: " if code == 2 else "check failed: "), (argv, err)
    else:
        assert json.loads(out)["schema"] == JSON_SCHEMA and err == "", (argv, err)


# a --omega value: one plus a small term, or a constant, non-positive,
# singular, overflowing or malformed factor
_OMEGAS = st.one_of(
    st.builds("1 + {}".format, _term(3, ["0.01", "0.2", "-2"])),
    st.sampled_from(["2", "0", "-1", "x1", "1/x1", "sqrt(x1)", "exp(1000*x1)", "1e400",
                     "nan", "1 +", "1 + y", ""]),
)
# a coordinate of a --point or --base-point value: mostly small numbers, some
# far, non-finite or malformed
_COORDINATES = st.sampled_from(["0", "0.5", "-1", "2"] * 4 + [
    "1e20", "-1e200", "1e-300", "nan", "inf", "", "x1", "1,"])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(text=_metric_files(), omega=_OMEGAS,
       coordinates=st.lists(_COORDINATES, min_size=11, max_size=11),
       count=st.sampled_from(["dim"] * 4 + ["one fewer", "one more"]))
@example(text="dim = 8\nsignature = 1,7\n" + "".join(      # the largest dimension supported
    f"g {i} {i} : {-1 if i == 1 else 1} + 0.05*x{i}^2*sin(x{9 - i})\n" for i in range(1, 9)),
    omega="1 + x1/8", coordinates=["0.5"] * 11, count="dim")
@example(text="dim = 1\nsignature = 0,1\ng 1 1 : 1\n",     # exp overflows at check points
         omega="exp(1000*x1)", coordinates=["0"] * 11, count="dim")
def test_fuzzed_metric_files_keep_the_exit_contract(tmp_path_factory, text, omega,
                                                    coordinates, count):
    # every run ends within 5 s with exit 0, 1 or 2: a report with a schema
    # (or, on exit 1, one `check failed:` line), or one `error:` line; the
    # point has the file's dimension, or one coordinate fewer or more, and is
    # passed as `--point VALUE`, a leading minus sign included
    path = tmp_path_factory.mktemp("fuzzed") / "fuzzed.metric"
    path.write_text(text)
    dim = re.match(r"dim = (\d+)\n", text)
    n = (int(dim.group(1)) if dim else 4) + {"dim": 0, "one fewer": -1, "one more": 1}[count]
    point = ",".join(coordinates[:max(n, 1)])
    for argv in (["dims"], ["analyze", "--samples", "3"], ["kerw"], ["rescale", f"--omega={omega}"],
                 ["dims", "--base-point", point], ["analyze", "--point", point],
                 ["kerw", "--point", point], ["rescale", f"--omega={omega}", "--point", point]):
        _assert_exit_contract(argv, *_run_main(argv[0], str(path), *argv[1:], "--json"))


# a far point, where a Cotton entry is finite but its square is not
_FAR_METRIC = ("dim = 4\nsignature = 1,3\ng 1 1 : -1\ng 2 2 : 1 + 0.05*exp(-1*x1)\ng 3 3 : 1\n"
               "g 4 4 : 1 + 0.2*cos(x1^2*x3^3*x1^1*x4^3)\n")


@pytest.mark.parametrize("argv", [["analyze", "--point=1e20,0,0.5,-1"],
                                  ["dims", "--base-point=1e20,0,0.5,-1"]])
def test_far_point_norms_keep_the_exit_contract(tmp_path, argv):
    # the largest Cotton entry there is about 1e178: finite, but its square
    # is not, so its norm is summed divided by that entry
    path = tmp_path / "far.metric"
    path.write_text(_FAR_METRIC)
    code, out, err, seconds = _run_main(argv[0], str(path), *argv[1:], "--json")
    _assert_exit_contract(argv, code, out, err, seconds)
    assert code == 0 and "Infinity" not in out


def test_point_with_a_leading_minus_keeps_the_exit_contract(tmp_path):
    path = tmp_path / "flat.metric"
    path.write_text("dim = 2\nsignature = 0,2\ng 1 1 : 1\ng 2 2 : 1\n")
    argv = ["kerw", "--point", "-1,0"]
    _assert_exit_contract(argv, *_run_main(argv[0], str(path), *argv[1:], "--json"))


@pytest.mark.parametrize("head, option, value, key, expected", [
    (["kerw", "flat_r4"], "--point", "-1,0,0,0.5", "point", [-1.0, 0.0, 0.0, 0.5]),
    (["dims", "flat_r4", "--lower-only"], "--base-point", "-0.5,0,0,0", "basepoint",
     [-0.5, 0.0, 0.0, 0.0]),
    (["rescale", "taub_nut"], "--omega", "-x1+3", "omega", "-x1+3"),
])
def test_values_with_a_leading_minus_are_read_as_values(capsys, head, option, value, key,
                                                        expected):
    code, out, err = run(capsys, *head, option, value, "--json")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data.get("dims", data)[key] == expected
    # the form with `=` reads the same report
    assert run(capsys, *head, f"{option}={value}", "--json") == (0, out, "")


@pytest.mark.parametrize("argv", [["kerw", "flat_r4", "--point"],
                                  ["kerw", "flat_r4", "--point", "--json"],
                                  ["rescale", "flat_r4", "--omega"]])
def test_an_option_without_its_value_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "expected one argument" in err


def _exceed_upper_bound(spec, base, seed, standard, adjoint, report):
    report.d_ae_lower = report.d_ae_upper + 1


# a failed check forced in each module that raises one: (argv, the patch,
# the message's start after `check failed: `)
_FAILED_CHECKS = {
    "weyl kernel bound": (["kerw", "pp_wave"], (analysis, "weyl_kernel_bound", lambda sig, n: 0),
                          "Weyl kernel dimension 1 exceeds the signature bound 0"),
    "inconsistent bounds": (["dims", "pp_wave"], (analysis, "_witnesses", _exceed_upper_bound),
                            "inconsistent bounds for 'pp_wave': aE [3, 2]"),
    "witness outside": (["dims", "flat_r4"],
                        (analysis.Subspace, "contains",
                         lambda self, v: np.zeros(len(v), dtype=bool)),
                        "witness const of 'flat_0_4' lies outside the standard constraint kernel"),
    "conventions": (["analyze", "pp_wave", "--samples", "1"],
                    (curvature, "_volume_entries",
                     lambda fr, right=curvature._volume_entries: np.abs(right(fr))),
                    "curvature self-checks failed for 'pp_wave'"),
}


@pytest.mark.parametrize("case", sorted(_FAILED_CHECKS))
def test_a_failed_check_exits_1_with_one_line(monkeypatch, case):
    argv, (owner, name, patch), message = _FAILED_CHECKS[case]
    monkeypatch.setattr(owner, name, patch)
    code, out, err, seconds = _run_main(*argv, "--json")
    _assert_exit_contract(argv, code, out, err, seconds)
    assert code == 1 and out == ""
    assert err.startswith(f"check failed: {message}"), err
