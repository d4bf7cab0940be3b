"""Compare the curvature frames of this tree with those of another ``src/``.

Builds ``CurvatureFrame`` at orders 2, 3 and 4 for every catalogue entry and
every n = 7 and n = 8 family entry, and at order 5 for the entries of
dimension at most 6, at three sample points one at a time and as one batch
of the three, once with this tree's ``src/`` and once with the
``src/`` given on the command line (for example an export of the parent
revision).  Every array a frame holds is dumped, and at single points of
order 3 and above also the values of ``tractor.curvature_chain`` to order
``K - 2``.  So is what callers hand to readers: the slices
``CurvatureFrame(spec, points, K)[i]`` of a batch, and the prefixes
``fr.at(a, m)`` that readers of lower-order jets take of each array ``a`` of
an order-4 frame, at the order ``m`` that ``a`` has in a frame of order 3 and
2 (the values, order 0, whole).  At order 5 every entry forms products large
enough to take the live-pair path of ``jets`` (``lorentz3d``, at n = 3, in
its batches only); the order-5 frames of n = 7 and 8 would take the dump of
each tree from about 0.3 to 0.7 GB.  Both trees have these, so either tree's
frames can be dumped by this script.  So is every ``jets.tables(n, m)``,
n <= ``MAX_VARS`` and m <= ``MAX_ORDER``, in a form that does not depend on
the order of the product pairs: each slot's run of pairs (i, j, k) in table
order, the slot counts, ``diff_src``, ``diff_fac`` and the inverse steps
(read through ``jets.inverse_step``).  Frame arrays are read by name, so
the tensors a frame makes on first read are dumped too.  Each array is
written into the dump as it is made, not gathered first, and the two dumps
are compared one array at a time, so no more than two arrays are loaded at
once.  Prints each array whose shape, dtype or bytes differ and exits 1 if
any do, 0 otherwise.

    python tests/compare_frames.py PATH/TO/OTHER/src [--prefix ginv]

``--prefix NAME`` (repeatable) compares the frame array NAME on the
coefficients both trees hold: the shorter array against the prefix of the
longer one, for a change that holds that array to a lower jet order.

Standard library plus numpy; pytest does not collect this file.  Each tree is
dumped by this script in a fresh interpreter, one tree at a time.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve()
ROOT = SCRIPT.parents[1]
ORDERS = (2, 3, 4)
ORDER_5_MAX_DIM = 6
POINTS, SEED = 3, 3
# every tensor a frame holds; cotton is None below order 3
TENSORS = ("g", "ginv", "gamma", "riemann_mixed", "riemann", "ricci", "sc", "j",
           "schouten", "schouten_mixed", "weyl", "cotton")


def dump(out: Path) -> None:
    """Write every frame array and chain value of the imported tree to out,
    an archive that ``np.load`` reads as it reads one of ``np.savez``."""
    from conformal_gap_lab import curvature, geometry, tractor

    names = (geometry.catalogue_names(examples=True)
             + geometry.family_names(7) + geometry.family_names(8))
    with zipfile.ZipFile(out, "w", allowZip64=True) as archive:
        def save(key: str, array: np.ndarray) -> None:
            with archive.open(f"{key}.npy", "w", force_zip64=True) as f:
                np.lib.format.write_array(f, np.asanyarray(array), allow_pickle=False)

        for name in names:
            spec = geometry.catalogue_metric(name)
            points = geometry.sample_points(spec, POINTS, seed=SEED)
            for order in orders(spec):
                built = [(f"p{i}", p) for i, p in enumerate(points)] + [("batch", points)]
                for where, pts in built:
                    key = f"{name}|o{order}|{where}"
                    fr = curvature.CurvatureFrame(spec, pts, order)
                    put(save, key, fr)
                    if where != "batch" and order >= 3:
                        for level, X in enumerate(tractor.curvature_chain(fr, order - 2)):
                            save(f"{key}|chain{level}", X)
            dump_handed(spec, name, save)
        dump_tables(save)


def orders(spec) -> tuple:
    return ORDERS + (5,) * (spec.n <= ORDER_5_MAX_DIM)


def dump_tables(save) -> None:
    """Every jet table, its product pairs as the run of each slot: the sums
    bincount forms depend on these runs alone."""
    from conformal_gap_lab import jets

    for n in range(1, jets.MAX_VARS + 1):
        for m in range(jets.MAX_ORDER + 1):
            t, key = jets.tables(n, m), f"tables|n{n}|o{m}"
            by_slot = np.argsort(t.mul_k, kind="stable")
            save(f"{key}|runs", np.stack([t.mul_i, t.mul_j, t.mul_k])[:, by_slot])
            save(f"{key}|sizes_by_order", np.array(t.sizes_by_order))
            save(f"{key}|diff_src", t.diff_src)
            save(f"{key}|diff_fac", t.diff_fac)
            for d in range(1, m + 1):
                i, j, starts, slots = jets.inverse_step(n, d)
                save(f"{key}|inverse{d}", np.concatenate([i, j, starts, [slots.start, slots.stop]]))


def tensors(fr):
    """The frame's arrays by name."""
    return {attr: value for attr in TENSORS if (value := getattr(fr, attr)) is not None}


def put(save, key: str, fr) -> None:
    for attr, value in tensors(fr).items():
        save(f"{key}|{attr}", value)


def dump_handed(spec, name: str, save) -> None:
    """The batch slices and the prefixes that callers hand to readers, at
    points of their own."""
    from conformal_gap_lab import curvature, geometry, jets

    sliced, cut = (geometry.sample_points(spec, POINTS, seed=SEED + k) for k in (1, 2))
    for order in orders(spec):
        batch = curvature.CurvatureFrame(spec, sliced, order)
        for i in range(len(sliced)):
            put(save, f"{name}|o{order}|slice{i}", batch[i])
    for i, p in enumerate(cut):
        fr = curvature.CurvatureFrame(spec, p, 4)
        put(save, f"{name}|o4|cut{i}", fr)
        for order in (3, 2):
            for attr, value in tensors(fr).items():
                m = max(jets.order_of(value.shape[-1], spec.n) - 4 + order, 0)
                save(f"{name}|o{order}|cut{i}|{attr}", fr.at(value, m))


def dump_tree(src: Path, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, str(SCRIPT), "--dump", str(out)], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"dumping the frames of {src} failed:\n{proc.stderr}")


def differs(name: str, mine: np.ndarray, theirs: np.ndarray, prefixed: set) -> str | None:
    """Why the two arrays differ, or None if their bytes agree."""
    if name.rsplit("|", 1)[1] in prefixed and mine.shape[:-1] == theirs.shape[:-1]:
        size = min(mine.shape[-1], theirs.shape[-1])
        mine, theirs = mine[..., :size], theirs[..., :size]
    if mine.shape != theirs.shape or mine.dtype != theirs.dtype:
        return f"shape/dtype {mine.shape} {mine.dtype} vs {theirs.shape} {theirs.dtype}"
    if np.ascontiguousarray(mine).tobytes() != np.ascontiguousarray(theirs).tobytes():
        scale = max(float(np.abs(theirs).max(initial=0.0)), 1e-300)
        return f"bytes (max |difference| {float(np.abs(mine - theirs).max()) / scale:.1e} relative)"
    return None


def compare(mine, theirs, prefixed: set) -> tuple[int, int]:
    """Print each array of two open dumps that differs, reading one pair at a
    time; the count of those that differ and of all names."""
    here, there = set(mine.files), set(theirs.files)
    differ = 0
    for name in sorted(here | there):
        if name not in here or name not in there:
            why = f"only in {'this tree' if name in here else 'the other tree'}"
        else:
            why = differs(name, mine[name], theirs[name], prefixed)
        if why:
            differ += 1
            print(f"{name}: {why}")
    return differ, len(here | there)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_src", type=Path, nargs="?",
                        help="the src/ directory to compare against")
    parser.add_argument("--prefix", action="append", default=[], metavar="NAME",
                        help="compare frame array NAME on the coefficients both trees hold")
    parser.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    ns = parser.parse_args(argv)
    if ns.dump is not None:
        dump(ns.dump)
        return 0
    if ns.other_src is None:
        parser.error("the other src/ directory is required")
    other = ns.other_src.resolve()
    if not (other / "conformal_gap_lab").is_dir():
        parser.error(f"{other} holds no conformal_gap_lab package")
    with tempfile.TemporaryDirectory() as tmp:
        here_file, other_file = Path(tmp, "here.npz"), Path(tmp, "other.npz")
        dump_tree(ROOT / "src", here_file)
        dump_tree(other, other_file)
        with np.load(here_file) as mine, np.load(other_file) as theirs:
            differ, total = compare(mine, theirs, set(ns.prefix))
    print(f"{total - differ} of {total} arrays identical", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
