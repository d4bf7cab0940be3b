"""Timers and spans wrapped around the library's public names.

The benchmark measures the layers from outside: ``install`` replaces public
functions and methods of ``conformal_gap_lab`` with wrappers that count calls
and time them.  Hot leaves record a call count and summed inclusive time.
Coarse boundaries record spans (name, start, end, parent, op id); self time is
a span's duration minus the spans directly inside it.  A name the library no
longer has is skipped, so its metrics read 0.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter

PACKAGE = "conformal_gap_lab"

# (module, attribute): counted and timed, inclusive of nested calls
LEAVES = (
    ("tractor", "connection_matrices"),
    ("jets", "conv"),
    ("expr", "evaluate"),
    ("geometry", "jet_matrix_inverse"),
    ("geometry", "domain_ok"),
    ("analysis", "kernel"),
    ("analysis", "matrix_rank"),
    ("analysis", "ae_residual"),
    ("analysis", "wedge_nckf"),
    ("analysis", "ck_and_normality"),
    ("curvature", "frame"),
    # named by the roadmap for removal; absent names read 0
    ("tractor", "loop_holonomy"),
)

# (module, attribute): spans with a parent, reported as self time
SPANS = (
    ("analysis", "estimate_parallel_dims"),
    ("analysis", "verify_theorem"),
    ("tractor", "transport_matrix"),
    ("tractor", "tractor_curvature"),
    ("geometry", "metric_frame_at"),
)

# (module, class): constructor spans; frames are split by jet order
CONSTRUCTOR_SPANS = (
    ("curvature", "CurvatureFrame"),
    ("curvature", "CurvaturePack"),
)


class Tracer:
    """Counters and spans of one traced process, kept in memory."""

    def __init__(self):
        self.totals = Counter()     # additive metrics by name
        self.margin_min = math.inf  # smallest rank-decision margin seen by kernel
        self.op = None              # id of the op in progress
        self.spans = []             # [name, start, end, parent index, op]
        self._open = []             # indices of spans in progress
        self._depth = Counter()     # nesting per name, so recursion is timed once

    # --- recording ---------------------------------------------------------

    def leaf(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.totals[name + ".calls"] += 1
            self._depth[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._depth[name] -= 1
                if not self._depth[name]:
                    self.totals[name + ".s"] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def span(self, name_of, fn, on_error=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            parent = self._open[-1] if self._open else None
            index = len(self.spans)
            record = [name, time.perf_counter(), None, parent, self.op]
            self.spans.append(record)
            self._open.append(index)
            self._depth[name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception as err:
                if on_error is not None:
                    on_error(err)
                raise
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
                self._depth[name] -= 1
                if not self._depth[name]:
                    self.totals[name + ".s"] += record[2] - record[1]
                self.totals[name + ".calls"] += 1
        return wrapper

    # --- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Additive totals plus self time per span name and the kernel margin."""
        out = dict(self.totals)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            key = name + ".self_s"
            out[key] = out.get(key, 0.0) + (end - start) - inner
        out["analysis.kernel.margin_min"] = self.margin_min
        return out


def merge(summaries) -> dict:
    """Combine summaries of several processes: sums, and the smallest margin."""
    out = {}
    for summary in summaries:
        for key, value in summary.items():
            if key.endswith("margin_min"):
                out[key] = min(out.get(key, math.inf), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


# --- installation -------------------------------------------------------------

def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _rebind(original, replacement) -> None:
    """Replace every binding of ``original`` in the package's namespaces."""
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _kernel_margin(tracer: Tracer, np):
    """Record rows and the tolerance margin of each ``analysis.kernel`` decision.

    The kernel's rank cut is ``tol`` times the largest entry.  With singular
    values s scaled by that entry and the rank r the kernel chose, the cut can
    move by min(s[r-1] / tol, tol / s[r]) before the decision flips.
    """
    def after(args, kwargs, result):
        dim = getattr(result, "dim", None)
        if dim is None or not args:
            return
        A = np.atleast_2d(np.asarray(args[0], dtype=float))
        tol = kwargs.get("tol", args[1] if len(args) > 1 else 1e-7)
        tracer.totals["analysis.kernel.rows"] += A.shape[0]
        scale = float(np.abs(A).max())
        if scale == 0.0:
            return
        s = np.linalg.svd(A, compute_uv=False) / scale
        rank = A.shape[1] - dim
        margin = math.inf
        if rank >= 1:
            margin = min(margin, s[rank - 1] / tol)
        if rank < len(s) and s[rank] > 0.0:
            margin = min(margin, tol / s[rank])
        tracer.margin_min = min(tracer.margin_min, margin)
    return after


def _frame_order(init):
    sig = inspect.signature(init)

    def name_of(args, kwargs):
        try:
            order = sig.bind(*args, **kwargs)
            order.apply_defaults()
            return f"curvature.CurvatureFrame.o{order.arguments['order']}"
        except (TypeError, KeyError):
            return "curvature.CurvatureFrame.o?"
    return name_of


def install(tracer: Tracer) -> None:
    """Wrap the public names; call after importing the library modules."""
    import numpy as np

    modules = {m.__name__.rpartition(".")[2]: m for m in _package_modules()}

    def lookup(mod, attr):
        return getattr(modules.get(mod), attr, None)

    for mod, attr in LEAVES:
        fn = lookup(mod, attr)
        if fn is None:
            continue
        after = _kernel_margin(tracer, np) if (mod, attr) == ("analysis", "kernel") else None
        _rebind(fn, tracer.leaf(f"{mod}.{attr}", fn, after))

    for mod, attr in SPANS:
        fn = lookup(mod, attr)
        if fn is None:
            continue
        name = f"{mod}.{attr}"
        on_error = None
        if attr == "transport_matrix":
            error = lookup("tractor", "TransportError")

            def on_error(err, error=error):
                if error is not None and isinstance(err, error):
                    tracer.totals["tractor.transport.failed"] += 1
        _rebind(fn, tracer.span(lambda a, k, name=name: name, fn, on_error))

    for mod, attr in CONSTRUCTOR_SPANS:
        cls = lookup(mod, attr)
        if cls is None:
            continue
        init = cls.__init__
        if attr == "CurvatureFrame":
            name_of = _frame_order(init)
        else:
            name_of = lambda a, k, name=f"{mod}.{attr}": name
        cls.__init__ = tracer.span(name_of, init)

    jet = lookup("jets", "Jet")
    if jet is not None:
        init = jet.__init__

        @functools.wraps(init)
        def counted(*args, **kwargs):
            tracer.totals["jets.Jet.created"] += 1
            init(*args, **kwargs)
        jet.__init__ = counted


def table_builds() -> int:
    """Jet tables built so far in this process (misses of ``jets.tables``)."""
    modules = {m.__name__.rpartition(".")[2]: m for m in _package_modules()}
    info = getattr(getattr(modules.get("jets"), "tables", None), "cache_info", None)
    return info().misses if info is not None else 0
