"""Command-line front end.

Subcommands: ``catalogue``, ``analyze``, ``kerw``, ``dims``, ``verify``,
``rescale``.  Reports are deterministic for a fixed seed: keys are sorted and
floats are printed with 12 significant digits.  Exit codes: 0 when every
check passes, 1 when a check fails, 2 on usage or domain errors (one line).
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import JSON_SCHEMA, __version__, analysis, curvature, expr, geometry
from .curvature import ConventionError, frobenius, norms

USAGE_ERRORS = (
    geometry.CatalogueError,
    geometry.DomainError,
    geometry.SingularMetricError,
    expr.ParseError,
    expr.EvalError,
    ValueError,
    OSError,            # reading the metric file or writing --out
)

CHECK_ERRORS = (ConventionError, analysis.AnalysisError)


def _seed(ns) -> int:
    """``--seed``, else ``CGL_SEED``, else 0; a non-negative integer."""
    if ns.seed is not None:
        source, raw = "--seed", ns.seed
    else:
        source, raw = "CGL_SEED", os.environ.get("CGL_SEED", "0")
    try:
        seed = int(raw)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {raw!r}")
    return seed


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _emit(report: dict, ns) -> None:
    report = dict(report)
    report["schema"] = JSON_SCHEMA
    report["version"] = __version__
    text = (
        json.dumps(_round_floats(report), sort_keys=True, indent=2) + "\n"
        if getattr(ns, "json", False)
        else _render_text(report)
    )
    out_path = getattr(ns, "out", None)
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _render_text(report: dict) -> str:
    lines = [f"# {report.get('command', 'report')} ({report['schema']})"]

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(f"{prefix}{k}.", obj[k])
        elif isinstance(obj, (list, tuple)):
            if all(not isinstance(v, (dict, list, tuple)) for v in obj):
                lines.append(f"{prefix[:-1]} = {list(_round_floats(obj))}")
            else:
                for i, v in enumerate(obj):
                    walk(f"{prefix}{i}.", v)
        elif isinstance(obj, float):
            lines.append(f"{prefix[:-1]} = {obj:.12g}")
        else:
            lines.append(f"{prefix[:-1]} = {obj}")

    for key in sorted(report):
        if key in ("schema", "version", "command", "pass"):
            continue
        walk(f"{key}.", report[key])
    lines.append("PASS" if report.get("pass", True) else "FAIL")
    return "\n".join(lines) + "\n"


def _parse_point(text: str, n: int):
    parts = text.split(",")
    if not all(p.strip() for p in parts):
        raise geometry.DomainError(f"point {text!r} has an empty coordinate")
    if len(parts) != n:
        raise geometry.DomainError(
            f"point needs {n} comma-separated coordinates, got {len(parts)}"
        )
    point = tuple(float(p) for p in parts)
    geometry.require_finite(point)
    return point


def _parse_params(items):
    out = {}
    for item in items or []:
        name, _, value = item.partition("=")
        if not _:
            raise geometry.CatalogueError(f"--param expects NAME=VALUE, got {item!r}")
        name = name.strip()
        if name in out:
            raise geometry.CatalogueError(f"--param {name} given twice")
        try:
            out[name] = float(value)
        except ValueError:
            out[name] = value.strip()
        if isinstance(out[name], float) and not math.isfinite(out[name]):
            raise geometry.CatalogueError(f"--param {name} must be finite, got {value!r}")
    return out


def _resolve_metric(name: str, params: dict) -> geometry.MetricSpec:
    path = Path(name)
    if path.suffix in (".metric", ".txt") or path.exists():
        if params:
            raise geometry.CatalogueError(
                "--param applies to catalogue metrics; a metric file declares its own")
        return geometry.load_metric(path.read_text(), label=path.stem)
    return geometry.catalogue_metric(name, params)


# --- subcommands ----------------------------------------------------------------

def _cmd_catalogue(ns) -> tuple[dict, bool]:
    return {
        "command": "catalogue",
        "metrics": geometry.catalogue_names(),
    }, True


def _cmd_analyze(ns) -> tuple[dict, bool]:
    params = _parse_params(ns.param)
    spec = _resolve_metric(ns.metric, params)
    seed = _seed(ns)
    if ns.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {ns.samples}")
    if ns.point is not None:
        points = [_parse_point(ns.point, spec.n)]
    else:
        points = geometry.sample_points(spec, ns.samples, seed=seed)

    # one order-3 batch, checked at each point; a point's slice is the frame
    # built there alone
    fr = curvature.check_conventions(curvature.CurvatureFrame(spec, points, 3))
    rows = []
    for i, pt in enumerate(points):
        at = fr[i]
        row = {
            "point": list(pt),
            "scalar_curvature": float(at.sc[0]),
            "ricci_norm": frobenius(at.values(at.ricci)),
            "weyl_norm": frobenius(at.values(at.weyl)),
            "cotton_norm": frobenius(at.values(at.cotton)),
        }
        if spec.n >= 4:
            row["kerw_dim"] = analysis.kernel_of_weyl(at).dim
        rows.append(row)

    with np.errstate(over="ignore", invalid="ignore"):
        scales = [fr.scalar_jet(sigma, 2) for _, sigma in spec.known_scales]
    for i, pt in enumerate(points):
        for (name, _), s in zip(spec.known_scales, scales):
            if not np.isfinite(s[i]).all():
                raise geometry.DomainError(f"scale {name!r} of {spec.label!r} is not finite "
                                           f"at the point {geometry.format_point(pt)}")
    scale_checks = []
    ok = True
    for (name, sigma), s in zip(spec.known_scales, scales):
        worst = float(norms(analysis.ae_residuals(fr, s), 2).max())
        passed = worst < analysis.RESIDUAL_TOL
        ok &= passed
        scale_checks.append({
            "scale": name,
            "source": expr.to_source(sigma, spec.names),
            "max_residual": worst,
            "tolerance": analysis.RESIDUAL_TOL,
            "passed": passed,
        })

    report = {
        "command": f"analyze {ns.metric}",
        "metric": spec.label,
        "signature": list(spec.signature),
        "dimension": spec.n,
        "coordinates": list(spec.names),
        "params": dict(spec.params),
        "seed": seed,
        "points": rows,
        "scale_checks": scale_checks,
        "notes": list(spec.notes),
        "pass": ok,
    }
    return report, ok


def _cmd_kerw(ns) -> tuple[dict, bool]:
    spec = _resolve_metric(ns.metric, _parse_params(ns.param))
    pt = (_parse_point(ns.point, spec.n) if ns.point is not None
          else geometry.default_point(spec))
    ksp = analysis.kernel_of_weyl(curvature.CurvatureFrame(spec, pt, 2))
    bound = analysis.weyl_kernel_bound(spec.signature, spec.n)
    report = {
        "command": f"kerw {ns.metric}",
        "metric": spec.label,
        "point": list(pt),
        "dim": ksp.dim,
        "bound": bound,
        "marginal": ksp.marginal,
        "basis": [list(map(float, row)) for row in ksp.basis],
        "pass": True,
    }
    return report, True


def _cmd_dims(ns) -> tuple[dict, bool]:
    spec = _resolve_metric(ns.metric, _parse_params(ns.param))
    seed = _seed(ns)
    basepoint = (_parse_point(ns.base_point, spec.n) if ns.base_point is not None else None)
    rep = analysis.estimate_parallel_dims(spec, basepoint, seed=seed,
                                          upper=not ns.lower_only)
    report = {"command": f"dims {ns.metric}", "dims": rep.as_dict(), "pass": True}
    return report, True


def _verifier_defaults() -> dict:
    """Each verifier option with its default, read from the verifier signatures."""
    return {name: param.default for verifier in analysis.VERIFIERS.values()
            for name, param in inspect.signature(verifier).parameters.items()
            if name != "seed"}


def _cmd_verify(ns) -> tuple[dict, bool]:
    if ns.param:
        raise geometry.CatalogueError("verify takes no --param")
    seed = _seed(ns)
    # an option the user did not give is None and takes the verifier's default
    params = inspect.signature(analysis.VERIFIERS[ns.theorem]).parameters
    options = _verifier_defaults()
    given = {name: value for name, value in vars(ns).items()
             if name in options and value is not None}
    for name in given:
        if name not in params:
            raise geometry.CatalogueError(f"verify {ns.theorem} takes no --{name}")
    report = analysis.verify_theorem(ns.theorem, **given, seed=seed)
    report["command"] = f"verify {ns.theorem}"
    report["pass"] = report.pop("passed")
    return report, report["pass"]


def _cmd_rescale(ns) -> tuple[dict, bool]:
    spec = _resolve_metric(ns.metric, _parse_params(ns.param))
    pt = (_parse_point(ns.point, spec.n) if ns.point is not None
          else geometry.default_point(spec))
    omega = expr.parse(ns.omega, spec.n, params=dict(spec.params),
                       var_names=spec.names)
    hatted = curvature.rescale_metric(spec, omega)
    base, hat = (curvature.check_conventions(curvature.CurvatureFrame(s, pt, 3))
                 for s in (spec, hatted))

    checks: list = []
    w, p_expected, j_expected = curvature.transform_reference(base, omega)
    analysis.check(checks, "schouten_transform",
                   frobenius(hat.values(hat.schouten) - p_expected),
                   1e-8 * max(1.0, frobenius(p_expected)))
    analysis.check(checks, "j_transform", float(hat.j[0]) - j_expected,
                   1e-8 * max(1.0, abs(j_expected)))
    weyl = base.values(base.weyl)
    analysis.check(checks, "weyl_covariance",
                   frobenius(hat.values(hat.weyl) - w ** 2 * weyl),
                   1e-8 * max(1.0, frobenius(weyl)))
    sigma = expr.add(expr.ONE, expr.var(0))
    base_res, hat_res = (analysis.ae_residuals(f, f.scalar_jet(s, 2))
                         for f, s in ((base, sigma), (hat, expr.mul(omega, sigma))))
    analysis.check(checks, "ae_operator_invariance",
                   frobenius(hat_res - w * base_res),
                   1e-8 * max(1.0, frobenius(base_res)))

    ok = all(c["passed"] for c in checks)
    report = {
        "command": f"rescale {ns.metric}",
        "metric": spec.label,
        "omega": ns.omega,
        "point": list(pt),
        "checks": checks,
        "pass": ok,
    }
    return report, ok


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgl",
        description="conformal curvature and Einstein-scale dimension workbench",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--json", action="store_true")
        p.add_argument("--out", help="write the report to this path")

    output(sub.add_parser("catalogue", help="list built-in metrics"))

    def common(p, with_point=True):
        if with_point:
            p.add_argument("--point", help="comma-separated coordinates")
        p.add_argument("--param", action="append", metavar="NAME=VALUE")
        output(p)
        p.add_argument("--seed", type=int, default=None,
                       help="sampling seed (default: CGL_SEED or 0)")

    p = sub.add_parser("analyze", help="curvature invariants and scale checks")
    p.add_argument("metric", help="catalogue name or conformal-metric v1 file")
    p.add_argument("--samples", type=int, default=10)
    common(p)

    p = sub.add_parser("kerw", help="pointwise Weyl kernel")
    p.add_argument("metric")
    common(p)

    p = sub.add_parser("dims", help="bounds for d_aE and d_ncK")
    p.add_argument("metric")
    p.add_argument("--base-point", dest="base_point")
    p.add_argument("--lower-only", action="store_true",
                   help="skip the upper-bound constraint machinery")
    common(p, with_point=False)

    p = sub.add_parser("verify", help="run a family verifier")
    p.add_argument("theorem", choices=list(analysis.VERIFIERS))
    # unset options stay None, so options the verifier does not take are caught
    kinds = {"n": {"type": int}, "case": {"choices": ["a", "b", "c"]}, "p": {"type": int},
             "sc": {"type": int, "choices": [48, -48, 0]}, "metric": {}}
    defaults = _verifier_defaults()
    for name, kind in kinds.items():
        takers = [theorem for theorem, verifier in analysis.VERIFIERS.items()
                  if name in inspect.signature(verifier).parameters]
        p.add_argument(f"--{name}", **kind, help=(
            f"default {defaults[name]}; taken by {', '.join(takers)}"))
    common(p, with_point=False)

    p = sub.add_parser("rescale", help="conformal transformation-law checks")
    p.add_argument("metric")
    p.add_argument("--omega", required=True, help="positive rescale factor")
    common(p)

    return parser


COMMANDS = {
    "catalogue": _cmd_catalogue,
    "analyze": _cmd_analyze,
    "kerw": _cmd_kerw,
    "dims": _cmd_dims,
    "verify": _cmd_verify,
    "rescale": _cmd_rescale,
}


def _join_signed_values(argv: list) -> list:
    """argv with ``--point -1,0`` passed on as ``--point=-1,0`` (likewise
    ``--base-point`` and ``--omega``): argparse reads -1,0 as an option."""
    out = []
    for arg in argv:
        signed = arg.startswith("-") and not arg.startswith("--")
        if signed and out and out[-1] in ("--point", "--base-point", "--omega"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return 0 if code == 0 else 2

    try:
        report, ok = COMMANDS[ns.command](ns)
        _emit(report, ns)
    except CHECK_ERRORS as err:
        print(f"check failed: {err}", file=sys.stderr)
        return 1
    except USAGE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
