"""Independent numerical oracles and the CLI runner used by the tests.

The oracles stay deliberately separate from the package implementations:
the normal cdf oracle integrates the density with composite Gauss-Legendre
panels, the scalar minimization oracle scans a dense grid, and the lattice
reference sweeps every node of the triangle with the split a* = rho/(1+rho).
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import targetcost

# The directory holding the package this test process imported.  Putting it
# first on the child's PYTHONPATH makes every CLI subprocess run that same
# package, whatever its cwd and whether or not another copy is installed.
PACKAGE_ROOT = str(Path(targetcost.__file__).resolve().parents[1])

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def cdf_by_quadrature(z, panels_per_unit=4):
    """Standard normal cdf via quadrature of the density from 0 to z."""
    if z == 0.0:
        return 0.5
    a, b = (0.0, z) if z > 0 else (z, 0.0)
    n_panels = max(2, int(math.ceil((b - a) * panels_per_unit)))
    edges = np.linspace(a, b, n_panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t = mid + half * _GL_NODES
        total += half * float(np.sum(_GL_WEIGHTS * np.exp(-0.5 * t * t)))
    total *= _INV_SQRT_2PI
    return 0.5 + total if z > 0 else 0.5 - total


def scan_min_split(kappa1, kappa2, p, n_grid=1_000_001):
    """Brute-force minimizer of a^p k1 + (1-a)^p k2 over a dense grid."""
    a = np.linspace(0.0, 1.0, n_grid)
    costs = a ** p * kappa1 + (1.0 - a) ** p * kappa2
    i = int(np.argmin(costs))
    return float(a[i]), float(costs[i])


def _reference_bellman_sweep(psi_next, kappa1, p):
    """One backward level: expectation over the two children, then the
    closed-form inner minimization, vectorized over nodes."""
    expect = 0.5 * (psi_next[:-1] + psi_next[1:])
    finite = np.isfinite(expect)
    safe = np.where(finite, expect, 1.0)
    rho = (safe / kappa1) ** (1.0 / (p - 1.0))
    a = rho / (1.0 + rho)
    cost = a ** p * kappa1 + (1.0 - a) ** p * safe
    return np.where(finite, cost, kappa1)


def reference_dp_value(n, T, c, p, tie="geq"):
    """dp_value by the full-width sweep: every node of every level, with
    the cost a^p kappa1 + (1-a)^p E at the optimal split and infinity for
    a binding terminal node."""
    dt = T / n
    kappa1 = dt ** (1.0 - p)
    w_end = (2.0 * np.arange(n + 1) - n) * math.sqrt(dt)
    binding = w_end >= c if tie == "geq" else w_end > c
    psi = np.where(binding, np.inf, 0.0)
    for _ in range(n):
        psi = _reference_bellman_sweep(psi, kappa1, p)
    return float(psi[0])


def run_cli(args, cwd, env_extra=None):
    """Run ``python -m targetcost.cli ARGS`` in ``cwd`` and capture its output."""
    return run_python(["-m", "targetcost.cli"] + args, cwd, env_extra)


def run_python(args, cwd, env_extra=None):
    """Run a fresh ``python ARGS`` that imports the tested package, in ``cwd``."""
    env = dict(os.environ)
    env.pop("TARGETCOST_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable] + args, cwd=cwd, env=env,
                          capture_output=True, text=True)
