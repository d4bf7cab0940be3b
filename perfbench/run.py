"""Benchmark of conformal-gap-lab: the dims and cli workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {dims,cli,all} --seed N \
        --seconds S --trace {0,1}

The library is imported from ``src/`` of the checkout; nothing is installed.
Each dims op runs as a library session in a fresh process (``session.py``);
each cli op is one ``cgl`` process (``cgl.py``); one process runs at a time.
Passes repeat until ``--seconds`` is spent, and at least as often as
MIN_PASSES says (dims: three passes, 12 ops; cli: ten passes, 110 ops).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics from one untraced and two traced passes at pass index 0.
End-to-end times are corrected for the host's speed during each process by
``hostspeed``; the record line gives them also as measured.
Every op's result is checked.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
give the run record and each metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cgl
import hostspeed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src" / "conformal_gap_lab"
PYCACHE = ROOT / ".bench_build" / "pycache"
WORKLOADS = ("dims", "cli")
SETUP_SAMPLES = 11      # fresh processes per run, spread over it; set-up time is their median
# Passes a run makes at least: dims three, so that the p50 and the p90 fall
# inside the runs of one metric; cli 110 ops, so that 11 lie beyond the p90.
MIN_PASSES = {"dims": 3,
              "cli": math.ceil(workloads.CLI_MIN_OPS / len(workloads.cli_pass(0, 0)))}
IMPORT_SAMPLES = 5      # bare `import conformal_gap_lab.cli` processes (traced run)
RUN_LIMIT_S = 170       # a run must end within 180 s; children get what is left
_STARTED = time.monotonic()


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _env(trace: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # bytecode is cached inside the checkout, as an installed package has it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env.pop(cgl.TRACE_MARK, None)
    if trace:
        env[cgl.TRACE_MARK] = "1"
    return env


def _child(argv, trace: bool = False) -> subprocess.CompletedProcess:
    left = RUN_LIMIT_S - (time.monotonic() - _STARTED)
    try:
        if left <= 0:
            raise subprocess.TimeoutExpired(argv, 0)
        return subprocess.run([sys.executable, *argv], cwd=ROOT, env=_env(trace),
                              capture_output=True, timeout=left)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"the run passed {RUN_LIMIT_S} s in {argv}") from err


def _session(workload: str, *args: str) -> dict:
    proc = _child([str(BENCH / "session.py"), workload, *args])
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"session {workload} {' '.join(args)} failed:\n"
                         f"{proc.stderr.decode(errors='replace')[-2000:]}")
    out = json.loads(lines[-1])
    if not Path(out["library"]).resolve().is_relative_to(SOURCE):
        raise BenchError(f"library imported from {out['library']}, not {SOURCE}")
    return out


def _cli_pass(seed: int, pass_index: int, seen: dict, trace: bool = False):
    """Run one pass of cgl processes; returns op records and trace summaries."""
    ops, summaries = [], []
    for argv, code in workloads.cli_pass(seed, pass_index):
        start = time.perf_counter()
        proc = _child([str(BENCH / "cgl.py"), *argv], trace)
        raw = time.perf_counter() - start
        head, _, mark = proc.stderr.rpartition(
            (cgl.TRACE_MARK if trace else cgl.SPEED_MARK).encode() + b" ")
        if not mark:
            raise BenchError(f"cgl {argv}: no {'trace' if trace else 'probe'} line")
        stderr = head
        latency = raw
        if trace:
            summaries.append(json.loads(mark))
        else:
            latency = hostspeed.corrected(raw, json.loads(mark))
        outcome, message = "ok", ""
        try:
            workloads.check_cli(argv, code, proc.returncode, proc.stdout, stderr, seen)
        except workloads.OracleError as err:
            outcome, message = "wrong", str(err)
        ops.append({"op": "cgl " + " ".join(argv), "latency_s": latency, "raw_s": raw,
                    "outcome": outcome, "message": message})
    return ops, summaries


def _dims_pass(seed: int, pass_index: int, trace: bool = False):
    """Run one pass of dims sessions; returns op records and trace summaries."""
    outs = [_session("dims", name, *(["--trace"] if trace else []))
            for name in workloads.dims_pass(seed, pass_index)]
    return [out["op"] for out in outs], [out["trace"] for out in outs if trace]


def _pass(workload: str, seed: int, pass_index: int, seen: dict, trace: bool = False):
    if workload == "cli":
        return _cli_pass(seed, pass_index, seen, trace)
    return _dims_pass(seed, pass_index, trace)


def _setup(workload: str) -> dict:
    """A fresh process that only sets up; the first in a checkout writes the bytecode."""
    return _session(workload, "--setup-only")


def _p90(values) -> float:
    """90th percentile, interpolated between order statistics.

    With n values, n // 10 of them or more lie above it.
    """
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _outcomes(passes) -> tuple[bool, int, int, list]:
    ops = [op for p in passes for op in p]
    failed = [op for op in ops if op["outcome"] != "ok"]
    return not failed, len(ops), len(failed), failed


def _record(workload, seed, passes, probe) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    ops = [op for p in passes for op in p]
    return {
        "workload": workload, "seed": seed, "passes": len(passes),
        "ops_per_pass": [len(p) for p in passes], "ops": len(ops),
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": probe["python"], "numpy": probe["numpy"],
        "run_s": time.monotonic() - _STARTED,
    }


def _timings(setups, latencies, passes: int) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(latencies) / passes,
        "op_ms_p50": 1000 * statistics.median(latencies),
        "op_ms_p90": 1000 * _p90(latencies),
    }


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced run: the end-to-end metrics."""
    probe = _setup(workload)  # untimed warm-up
    setups = []  # [corrected, as measured]
    passes, seen = [], {}
    began = time.perf_counter()
    last = 0.0
    while len(passes) < MIN_PASSES[workload] or time.perf_counter() - began + last <= seconds:
        # set-up samples are spread over the minimum passes, as load on the host changes
        share = min(1.0, (len(passes) + 1) / MIN_PASSES[workload])
        while len(setups) < SETUP_SAMPLES * share:
            out = _setup(workload)
            setups.append((out["setup_s"], out["setup_raw_s"]))
        start = time.perf_counter()
        passes.append(_pass(workload, seed, len(passes), seen)[0])
        last = time.perf_counter() - start
    correct, attempted, failed, unexpected = _outcomes(passes)
    record = _record(workload, seed, passes, probe)
    record["fail_ratio"] = failed / attempted
    record["setup_samples"] = len(setups)
    ops = [op for p in passes for op in p]
    values = _timings([s[0] for s in setups], [op["latency_s"] for op in ops], len(passes))
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    record["as_measured"] = _timings([s[1] for s in setups], [op["raw_s"] for op in ops],
                                     len(passes))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "values": values, "record": record, "unexpected": unexpected}


def measure_layers(workload: str, seed: int) -> dict:
    """Traced run: per-layer metrics of pass 0, beside an untraced pass 0.

    The traced pass runs twice; its counts must repeat exactly.
    """
    probe = _setup(workload)  # untimed warm-up
    seen = {}
    plain, _ = _pass(workload, seed, 0, seen)
    traced, summaries = _pass(workload, seed, 0, seen, trace=True)
    again, summaries_again = _pass(workload, seed, 0, seen, trace=True)
    totals = tracing.merge(summaries)
    totals_again = tracing.merge(summaries_again)
    unrepeated = [f"{k}: {totals.get(k)} then {totals_again.get(k)}"
                  for k in sorted(set(totals) | set(totals_again))
                  if isinstance(totals.get(k, 0), int) and totals.get(k) != totals_again.get(k)]
    plain_wall = sum(op["raw_s"] for op in plain)
    traced_wall = sum(op["raw_s"] for op in traced)

    imports = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        proc = _child(["-c", "import conformal_gap_lab.cli"])
        imports.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(proc.stderr.decode(errors="replace")[-2000:])
    import_s = statistics.median(imports)
    command_s = 0.0
    if workload == "cli":
        command_s = sum(op["raw_s"] - import_s for op in plain)

    def get(key):
        return totals.get(key, 0)

    frame_builds = sum(v for k, v in totals.items()
                       if k.startswith("curvature.CurvatureFrame.o") and k.endswith(".calls"))
    frame_calls = get("curvature.frame.calls")
    margin = get("analysis.kernel.margin_min")
    values = {
        "curvature.frame.hit_ratio": 1 - frame_builds / frame_calls if frame_calls else 0.0,
        "analysis.kernel.margin_min": margin if math.isfinite(margin) else 0.0,
        "cli.import_s": import_s,
        "cli.command_s": command_s,
        "trace.wall_s": traced_wall,
        "trace.overhead_ratio": traced_wall / plain_wall,
    }
    for order in (2, 3, 4):
        values[f"curvature.CurvatureFrame.builds.o{order}"] = get(
            f"curvature.CurvatureFrame.o{order}.calls")
        values[f"curvature.CurvatureFrame.self_s.o{order}"] = get(
            f"curvature.CurvatureFrame.o{order}.self_s")
    for name in _metric_names("per_layer"):
        values.setdefault(name, get(name))
    passes = [plain, traced, again]
    correct, attempted, failed, unexpected = _outcomes(passes)
    if unrepeated:
        correct = False
        unexpected.append({"op": "trace", "outcome": "counts differ between two traced passes",
                           "message": "; ".join(unrepeated)})
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "values": values, "record": _record(workload, seed, passes, probe),
            "unexpected": unexpected}


def _metric_names(kind: str) -> list[str]:
    return [m["name"] for m in _spec()[kind]]


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def report(result: dict, trace: bool) -> None:
    kind = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: {"value": result["values"][m["name"]], "unit": m["unit"]}
               for m in _spec()[kind]}
    print(json.dumps({"record": result["record"]}))
    for name, m in metrics.items():
        print(f"{result['record']['workload']:>10} {name:<42} {m['value']:.6g} {m['unit']}")
    for op in result["unexpected"]:
        print(f"FAILED {op['op']}: {op['outcome']}: {op['message']}", file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "__init__.py").is_file():
        print(f"error: no library source at {SOURCE}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one process per workload, so peak RSS counts only that workload's children
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        codes = [subprocess.run([sys.executable, __file__, "--workload", name, *rest]).returncode
                 for name in WORKLOADS]
        return max(codes)
    try:
        result = (measure_layers(args.workload, args.seed) if args.trace
                  else measure(args.workload, args.seed, args.seconds))
        report(result, bool(args.trace))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
