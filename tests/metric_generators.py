"""Generated 4-dimensional metrics, the fibers of products and test inputs.

Each generator builds its metric from conformal-metric v1 text through
``geometry.load_metric`` and attaches the almost-Einstein scales it is known
to have.  pytest does not collect this file; test modules import it.
"""

from dataclasses import replace

from conformal_gap_lab import expr, geometry

WAVE = """\
dim = 4
signature = 1,3
param a = {a!r}
param b = {b!r}
g 1 2 : 1
g 1 1 : a*x3^2 - a*x4^2 + b*x3*x4
g 3 3 : 1
g 4 4 : 1
"""


def vacuum_wave(a: float, b: float) -> geometry.MetricSpec:
    """The vacuum plane wave 2 dx1 dx2 + H dx1^2 + dx3^2 + dx4^2 with
    H = a x3^2 - a x4^2 + b x3 x4, which is Ricci-flat (H is harmonic in x3,
    x4) and conformally curved unless a = b = 0.  Its scales are 1 and x1,
    whose gradient is the parallel null field dx1."""
    spec = geometry.load_metric(WAVE.format(a=float(a), b=float(b)),
                                label=f"vacuum_wave[a={a},b={b}]")
    return replace(spec, known_scales=(("const", expr.ONE), ("x1", expr.var(0))))
