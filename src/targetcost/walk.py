"""Independent ground truth by dynamic programming on a scaled random walk.

The Brownian motion is replaced by a recombining lattice with increments
+-sqrt(dt) at probability 1/2.  Values are stored normalized: the state
enters only through the (1-x)^p prefactor, so one sweep over walk nodes
covers every initial state.  Each backward step solves a one-dimensional
Bellman problem: split the remaining gap between "move now" at cost
a^p kappa1 (kappa1 = dt^{1-p}) and "wait" at expected continuation
(1-a)^p E.  Its minimum has the closed form
(kappa1^{-q} + E^{-q})^{-(p-1)} with q = 1/(p-1), which is
kappa1 E / (kappa1 + E) at p = 2.

The terminal layer is 0 below the first binding index J and infinite
(the constraint is certain) from J on.  With m steps left a node whose
every terminal descendant binds costs exactly (m dt)^{1-p}, the price of
closing the gap at constant speed, and a node none of whose descendants
bind costs 0.  The sweep therefore works on a live band of nodes only:
below it nodes are 0 or smaller than TINY, above it they equal
(m dt)^{1-p} to CERTAIN_RTOL and are filled from that formula.  At
n = 8000 the band holds about a quarter of the triangle's nodes.

A node's value depends only on its distance to J and the steps left, so a
whole profile of thresholds takes one sweep: on a terminal layer widened
by the spread of the threshold indices, root r of the last layer carries
the threshold index Jmax - r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .normals import std_normal_quantile

INFEASIBLE = np.inf  # sentinel for nodes where the constraint already binds

# Band cut-offs: a node below TINY is taken as 0, and a node within
# CERTAIN_RTOL (relative) of (m dt)^{1-p} is taken as equal to it.
TINY = 1e-300
CERTAIN_RTOL = 1e-15


def _bellman_min(kappa1, e, p):
    """min over a in [0, 1] of a^p kappa1 + (1-a)^p e, for 0 <= e <= kappa1.

    The closed form (kappa1^{-q} + e^{-q})^{-(p-1)}, written as
    e (1 + (e/kappa1)^q)^{1-p} so that no power overflows and e = 0 needs
    no special case.  Scalars or arrays.
    """
    return e * (1.0 + (e / kappa1) ** (1.0 / (p - 1.0))) ** (1.0 - p)


def inner_min(kappa1, kappa2, p):
    """Minimize a^p * kappa1 + (1-a)^p * kappa2 over a in [0, 1].

    Returns (a_star, cost).  Closed form: a* = rho / (1 + rho) with
    rho = (kappa2/kappa1)^{1/(p-1)}, and the cost is
    (kappa1^{-q} + kappa2^{-q})^{-(p-1)}, q = 1/(p-1); an infinite kappa2
    forces a* = 1.
    """
    if not (kappa1 > 0.0):
        raise DomainError("kappa1 must be > 0")
    if kappa2 < 0.0:
        raise DomainError("kappa2 must be >= 0 or infinity")
    if p <= 1.0:
        raise DomainError("p must be > 1")
    if math.isinf(kappa2):
        return 1.0, kappa1
    if kappa2 == 0.0:
        return 0.0, 0.0
    rho = (kappa2 / kappa1) ** (1.0 / (p - 1.0))
    # the closed form is symmetric in its two costs; scaling by the
    # smaller one keeps the power below 1
    return rho / (1.0 + rho), _bellman_min(max(kappa1, kappa2),
                                           min(kappa1, kappa2), p)


def _sweep(width, J, n, dt, p):
    """Backward sweep over n steps from a terminal layer of `width` nodes
    whose nodes j >= J bind.

    Yields (psi, lo, hi, certain) for each layer m = 1..n, which has
    width - m nodes: those below lo are 0, psi[lo:hi] are live and the rest
    equal certain = (m dt)^{1-p}.  psi is one buffer, overwritten by the
    next layer.
    """
    kappa1 = dt ** (1.0 - p)
    psi = np.zeros(width)
    # layer 1: a node with a binding child pays kappa1, the others nothing
    lo = hi = min(max(J - 1, 0), width - 1)
    certain = kappa1
    yield psi, lo, hi, certain
    for m in range(2, n + 1):
        # node j of layer m averages nodes j and j+1 of layer m-1, so the
        # band grows by one node below; psi[lo-1] and psi[hi] are the fills
        if lo > 0:
            psi[lo - 1] = 0.0
        psi[hi] = certain
        a, b = max(lo - 1, 0), min(hi, width - m)
        e = psi[a:b] + psi[a + 1:b + 1]
        e *= 0.5
        psi[a:b] = _bellman_min(kappa1, e, p)
        certain = (m * dt) ** (1.0 - p)
        while a < b and psi[a] < TINY:
            a += 1
        while b > a and abs(psi[b - 1] - certain) <= CERTAIN_RTOL * certain:
            b -= 1
        lo, hi = a, b
        yield psi, lo, hi, certain


def _expand(size, psi, lo, hi, certain):
    """One layer of `size` nodes in full from its band."""
    layer = np.full(size, certain)
    layer[:lo] = 0.0
    layer[lo:hi] = psi[lo:hi]
    return layer


def _last_layer(width, J, n, dt, p):
    for band in _sweep(width, J, n, dt, p):
        pass
    return _expand(width - n, *band)


def _first_binding(n, dt, c, tie):
    """Index of the first terminal node that binds (n + 1 if none does)."""
    w_end = (2.0 * np.arange(n + 1) - n) * math.sqrt(dt)
    binding = w_end >= c if tie == "geq" else w_end > c
    return n + 1 - int(np.count_nonzero(binding))


def _check_args(n, T, c, p, tie):
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise DomainError("n must be an integer >= 2")
    for name, value in (("T", T), ("c", c), ("p", p)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be a finite number")
    if not (T > 0.0):
        raise DomainError("T must be > 0")
    if not (p > 1.0):
        raise DomainError("p must be > 1")
    if tie not in ("geq", "gt"):
        raise DomainError("tie must be 'geq' or 'gt'")
    dt = T / n
    try:
        kappa1 = dt ** (1.0 - p)
    except OverflowError:
        kappa1 = math.inf
    if not math.isfinite(kappa1):
        raise ResourceError(f"dt^(1-p) overflows for n={n}, T={T}, p={p}")
    if n > 200_000:
        raise ResourceError(f"lattice with n={n} steps is beyond the supported size")
    return dt


def dp_value(n, T, c, p, tie="geq"):
    """Minimal expected cost from state 0 on an n-step lattice.

    Estimates the continuous value at (T, 0, c); callers scale by (1-x)^p
    for other initial states.  `tie` picks the lattice event for a terminal
    walk value exactly at the threshold; the default counts it as binding,
    which upper-biases the cost (the continuous event is null).
    """
    dt = _check_args(n, T, c, p, tie)
    return float(_last_layer(n + 1, _first_binding(n, dt, c, tie), n, dt, p)[0])


@dataclass(frozen=True)
class OracleTable:
    """Full normalized value table, one array per time level.

    psi[k][j] is the value at step k in walk position j (j up-moves); the
    unnormalized value is (1-x)^p * psi[k][j].  Kept for diagnostics and
    invariant tests; dp_value itself keeps one layer's band in O(n) memory.
    """

    n: int
    T: float
    c: float
    p: float
    psi: tuple

    def monotone_in_position(self):
        """Largest violation of 'harder constraint costs more' across nodes."""
        worst = 0.0
        for level in self.psi:
            finite = level[np.isfinite(level)]
            if len(finite) > 1:
                worst = max(worst, float(np.max(-np.diff(finite))))
            # infinite entries sit at the top positions by construction
        return worst


def dp_table(n, T, c, p, tie="geq"):
    """Like dp_value but retaining every level; O(n^2) memory."""
    dt = _check_args(n, T, c, p, tie)
    if n > 5000:
        raise ResourceError("full table beyond n=5000; use dp_value")
    J = _first_binding(n, dt, c, tie)
    levels = [np.where(np.arange(n + 1) >= J, INFEASIBLE, 0.0)]
    for m, band in enumerate(_sweep(n + 1, J, n, dt, p), start=1):
        levels.append(_expand(n + 1 - m, *band))
    levels.reverse()
    return OracleTable(n=n, T=float(T), c=float(c), p=float(p),
                       psi=tuple(levels))


def dp_g_profile(n, p, levels, tie="geq"):
    """Lattice estimates of the kernel: g(y) ~ dp_value(n, 1, quantile(y), p).

    One sweep serves every level.  Returns a list of (y, estimate) pairs
    suitable for overlay against the calibrated curve.
    """
    dt = _check_args(n, 1.0, 0.0, p, tie)
    levels = list(levels)
    for y in levels:
        if not (0.0 < y < 1.0):
            raise DomainError("levels must lie strictly inside (0, 1)")
    js = [_first_binding(n, dt, float(std_normal_quantile(y)), tie)
          for y in levels]
    if not js:
        return []
    top = max(js)
    roots = _last_layer(n + 1 + top - min(js), top, n, dt, p)
    return [(float(y), float(roots[top - j])) for y, j in zip(levels, js)]


def refinement_gap(n, T, c, p, tie="geq"):
    """|dp_value(2n) - dp_value(n)|, the measured discretization scale."""
    return abs(dp_value(2 * n, T, c, p, tie=tie) - dp_value(n, T, c, p, tie=tie))


def save_profile(profile, path):
    """CSV `y,g_dp` for overlay plotting."""
    with open(path, "w", newline="") as fh:
        fh.write("y,g_dp\n")
        for y, val in profile:
            fh.write(f"{y:.17g},{val:.17g}\n")
