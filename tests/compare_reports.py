"""Compare the command-line output of this tree with that of another ``src/``.

Runs every ``cgl`` line of the README's command-line block as written,
``analyze``, ``dims`` and ``rescale`` on the README's example metric file
(which declares a parameter), a ``rescale taub_nut --param`` line whose
``--omega`` reads the parameter, ``rescale`` lines whose ω is an exp, a sqrt,
a reciprocal and a negative power, ``cgl dims NAME --seed S --json`` and
``cgl analyze NAME --seed S --json`` on every catalogue entry and on the
n = 7 and n = 8 family entries at seeds 0 and 3, ``cgl dims`` on the n = 3
metrics ``flat_1_2`` and ``flat_0_3`` (whose witnesses read Cotton) at
seeds 0 and 3, and
``cgl verify ... --seed S --json`` at seeds 0 and 3 for
``warpedSol`` (each sc), ``t_riem`` (each case), ``t_lorentz`` and ``t_gen``
(each p) at n = 5 to 8, ``rflat`` on both its metrics and ``bounds`` on five
catalogue metrics, once against this tree's ``src/``
and once against the ``src/`` given on the command line (for example an
export of the parent revision).  Prints each command whose stdout, stderr or
exit code differ and exits 1 if any do, 0 otherwise.

    python tests/compare_reports.py PATH/TO/OTHER/src

Standard library only; pytest does not collect this file.  Every command runs
in a fresh interpreter, in an empty directory, without ``CGL_SEED``, two at
a time.  The metric names come from this tree's ``geometry``, and the
example file is written into that directory as ``example.metric``.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 3)
WORKERS = 2  # commands run at once, each against both trees in turn
NAMES = ("import json; from conformal_gap_lab import geometry as g; print(json.dumps("
         "g.catalogue_names(examples=True) + g.family_names(7) + g.family_names(8)))")


EXAMPLE = "example.metric"
PARAM_COMMANDS = [
    ["analyze", EXAMPLE, "--point", "1.0,0.3,0.0", "--json"],
    ["dims", EXAMPLE, "--json"],
    ["rescale", EXAMPLE, "--omega", "1 + a*x1/8", "--point", "1.0,0.3,0.0", "--json"],
    ["rescale", "taub_nut", "--param", "m=2.0", "--omega", "1 + x1/(8*m)",
     "--point", "1.0,1.2,0.5,0.5", "--json"],
]
OMEGA_COMMANDS = [
    ["rescale", "pp_wave", "--omega", "exp(x/6 - t/9)", "--json"],
    ["rescale", "taub_nut", "--omega", "sqrt(2 + x2)", "--point", "1.0,1.2,0.5,0.5", "--json"],
    ["rescale", "fubini_study", "--omega", "1/(2 + x1)", "--json"],
    ["rescale", "pp_split", "--omega", "(2 + x)^-2", "--json"],
    ["rescale", "flat_1_2", "--omega", "(3 + x1 - x3)^-3", "--json"],
    ["rescale", "warped_hfs_n5", "--omega", "exp(-x1/4)*sqrt(3 + x5)", "--json"],
]
THREE_DIMS = ("flat_1_2", "flat_0_3")


def verify_commands() -> list[list[str]]:
    runs = [["rflat", "--metric", m] for m in ("pp_wave", "pp_split")]
    runs += [["bounds", "--metric", m] for m in ("pp_wave", "pp_split", "taub_nut",
                                                 "warped_hfs_n5", "product_lorentz_n6")]
    for n in range(5, 9):
        runs += [["warpedSol", "--n", str(n), "--sc", sc] for sc in ("48", "-48", "0")]
        runs += [["t_riem", "--n", str(n), "--case", case] for case in "abc"]
        runs += [["t_lorentz", "--n", str(n)]]
        runs += [["t_gen", "--n", str(n), "--p", str(p)] for p in range(2, n // 2 + 1)]
    return [["verify", *run, "--seed", str(seed), "--json"] for run in runs for seed in SEEDS]


def readme_block(heading: str) -> str:
    """The first fenced block after a README heading."""
    section = (ROOT / "README.md").read_text().split(heading, 1)[1]
    return section.split("```", 2)[1]


def readme_commands() -> list[list[str]]:
    block = readme_block("## Command line")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("cgl ")]


def python(src: Path, args: list[str], cwd: str) -> tuple[int, str, str]:
    env = {k: v for k, v in os.environ.items() if k != "CGL_SEED"}
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def cgl(src: Path, argv: list[str], cwd: str) -> tuple[int, str, str]:
    return python(src, ["-m", "conformal_gap_lab.cli", *argv], cwd)


def commands(src: Path, cwd: str) -> list[list[str]]:
    code, out, err = python(src, ["-c", NAMES], cwd)
    if code != 0:
        raise SystemExit(f"listing the metric names failed:\n{err}")
    names = json.loads(out)
    per_name = [[command, name, "--seed", str(seed), "--json"]
                for command in ("dims", "analyze") for name in names for seed in SEEDS]
    three = [["dims", name, "--seed", str(seed), "--json"] for name in THREE_DIMS for seed in SEEDS]
    return (readme_commands() + PARAM_COMMANDS + OMEGA_COMMANDS + per_name + three
            + verify_commands())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_src", type=Path, help="the src/ directory to compare against")
    ns = parser.parse_args(argv)
    here, other = ROOT / "src", ns.other_src.resolve()
    if not (other / "conformal_gap_lab").is_dir():
        parser.error(f"{other} holds no conformal_gap_lab package")
    with tempfile.TemporaryDirectory() as cwd:
        Path(cwd, EXAMPLE).write_text(readme_block("## Metric files").lstrip("\n"))
        cmds = commands(here, cwd)

        def both(argv):
            return cgl(here, argv, cwd), cgl(other, argv, cwd)

        with ThreadPoolExecutor(WORKERS) as pool:
            results = list(pool.map(both, cmds))
    differ = 0
    for argv, (mine, theirs) in zip(cmds, results):
        if mine != theirs:
            differ += 1
            parts = [what for what, a, b in zip(("exit code", "stdout", "stderr"), mine, theirs)
                     if a != b]
            print(f"cgl {shlex.join(argv)}: {', '.join(parts)} differ")
    print(f"{len(cmds) - differ} of {len(cmds)} commands identical", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
