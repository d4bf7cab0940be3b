"""Conformal gap lab: curvature, tractor calculus, and dimension counts
for almost Einstein scales and normal conformal Killing fields on explicit
pseudo-Riemannian metrics."""

__version__ = "0.1.0"

JSON_SCHEMA = "conformal-gap-lab/2"
