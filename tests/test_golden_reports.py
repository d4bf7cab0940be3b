"""Reports of the README command lines against stored golden reports.

``golden_reports.json`` holds the exit code and the ``--json`` report of every
``cgl`` line in the README's command-line block, and of ``cgl dims --json`` on
each metric of the README dims table, on ``lorentz3d`` and on four n = 6/8
family entries.  Keys, integers, strings and booleans must match exactly and
floats to 1e-12 * max(1, |x|), so any drift in a reported number fails here.
Byte identity of the output against another revision is checked by
``tests/compare_reports.py``.

Regenerate, only when a report is meant to change, with
``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import contextlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from conformal_gap_lab.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_reports.json")
DIMS_METRICS = ("flat_r4", "fubini_study", "taub_nut", "pp_wave", "pp_split",
                "warped_hfs_n5", "product_lorentz_n6", "product_split_n6", "lorentz3d",
                "warped_fs_n6", "warped_fs_n8", "product_split_n8_p4", "product_lorentz_n8")
FLOAT_TOL = 1e-12


def readme_commands() -> list[list[str]]:
    """The argv of each README ``cgl`` line, with ``--json`` added where absent."""
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    out = []
    for line in block.splitlines():
        if line.startswith("cgl "):
            argv = shlex.split(line)[1:]
            out.append(argv if "--json" in argv else argv + ["--json"])
    return out


def commands() -> list[list[str]]:
    readme = readme_commands()
    dims = [["dims", name, "--json"] for name in DIMS_METRICS]
    return readme + [argv for argv in dims if argv not in readme]


def run_report(argv) -> dict:
    """Exit code and parsed report of one command, run where no metric file lies."""
    stdout = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main(list(argv))
        finally:
            os.chdir(cwd)
    text = stdout.getvalue()
    return {"argv": list(argv), "exit": code, "report": json.loads(text) if text else None}


def assert_matches(got, want, where="report") -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert abs(got - want) <= FLOAT_TOL * max(1.0, abs(want)), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


@pytest.fixture(scope="module")
def golden():
    return {" ".join(e["argv"]): e for e in json.loads(GOLDEN.read_text())}


def test_golden_file_covers_exactly_the_commands(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in commands())


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_report_matches_golden(argv, golden, monkeypatch):
    monkeypatch.delenv("CGL_SEED", raising=False)
    want = golden[" ".join(argv)]
    got = run_report(argv)
    assert got["exit"] == want["exit"]
    assert_matches(got["report"], want["report"])


if __name__ == "__main__":
    os.environ.pop("CGL_SEED", None)
    entries = [run_report(argv) for argv in commands()]
    GOLDEN.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} reports to {GOLDEN}", file=sys.stderr)
