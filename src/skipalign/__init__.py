"""Desk-scale open-set semi-supervised learning with selective non-alignment.

A compact, framework-free sandbox: analytic losses with verified gradients,
a tiny exactly-differentiated network, seeded synthetic open-set scenarios,
and an experiment runner with sweeps and golden-file regression.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
