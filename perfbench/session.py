"""One library session in a fresh process: set up, run one op, report.

Usage: python3 perfbench/session.py WORKLOAD --setup-only
       python3 perfbench/session.py dims METRIC [--trace]

Set-up is the import of the library plus resolution of catalogue metrics:
every metric of the workload with ``--setup-only``, else the op's one.  The
last line of stdout is a JSON object with the set-up time, the latency and
outcome of the op, and with ``--trace`` the per-layer totals of
``tracing.Tracer``.  Untraced sessions run ``hostspeed.Probe`` from the
start, and report set-up time and op latency corrected by it beside the
times as measured (``setup_raw_s``, ``raw_s``).
"""

import json
import sys
import time
import traceback

import tracing
import workloads

_START = time.perf_counter()

import hostspeed  # noqa: E402  (imports numpy, part of set-up as the library imports it)


def setup(workload: str, names):
    from conformal_gap_lab import analysis, geometry

    if workload == "cli":
        import conformal_gap_lab.cli  # noqa: F401  (what every cgl process imports)
    return analysis, {name: geometry.catalogue_metric(name) for name in names}


def run_op(op, tracer=None, probe=None) -> dict:
    if tracer is not None:
        tracer.op = op.name
    error = None
    before = probe.reading() if probe is not None else None
    start = time.perf_counter()
    try:
        value = op.run()
    except Exception as err:  # an op that raises is a failed op
        error = err
    raw = time.perf_counter() - start
    latency = raw if probe is None else hostspeed.corrected(raw, probe.reading(), before)
    outcome, message = "ok", ""
    if error is not None:
        outcome = "error"
        message = "".join(traceback.format_exception_only(type(error), error)).strip()
    else:
        try:
            op.check(value)
        except workloads.OracleError as err:
            outcome, message = "wrong", str(err)
    return {"op": op.name, "latency_s": latency, "raw_s": raw, "outcome": outcome,
            "message": message[:300]}


def main(argv) -> int:
    workload, arg = argv[0], argv[1]
    setup_only = arg == "--setup-only"
    trace = argv[2:] == ["--trace"]
    probe = None
    if not trace:
        probe = hostspeed.Probe()
        probe.start()
        started = probe.reading()
    names = workloads.metrics_of(workload) if setup_only else (arg,)
    analysis, specs = setup(workload, names)
    setup_raw = time.perf_counter() - _START
    setup_s = setup_raw
    if probe is not None:
        setup_s = hostspeed.corrected(setup_raw, probe.reading(), started)
    import numpy

    out = {"setup_s": setup_s, "setup_raw_s": setup_raw, "python": sys.version.split()[0],
           "numpy": numpy.__version__, "library": analysis.__file__}
    if not setup_only:
        op = workloads.dims_op(analysis, specs[arg], arg)
        tracer = None
        if trace:
            tracer = tracing.Tracer()
            builds = tracing.table_builds()
            tracing.install(tracer)
        out["op"] = run_op(op, tracer, probe)
        if tracer is not None:
            out["trace"] = tracer.summary()
            out["trace"]["jets.tables.builds"] = tracing.table_builds() - builds
    if probe is not None:
        probe.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
