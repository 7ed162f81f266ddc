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
below it nodes are 0 or under a cut-off whose zeroing moves the root by
under 1/128 of an ulp (_floor), above it they equal (m dt)^{1-p} to
CERTAIN_RTOL and are filled from that formula.  At n = 8000 the band holds
about an eighth of the triangle's nodes.  A sweep allocates its layer and
two scratch rows once and updates them in place.

A node's value depends only on its distance to J and the steps left, so a
whole profile of thresholds takes one sweep: on a terminal layer widened
by the spread of the threshold indices, root r of the last layer carries
the threshold index Jmax - r.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ResourceError
from .normals import Params, std_normal_quantile

# Band cut-offs: a node below _floor's cut-off, at least TINY, is taken as
# 0, and one within CERTAIN_RTOL (relative) of (m dt)^{1-p} as equal to it.
TINY = 1e-300
CERTAIN_RTOL = 1e-15


def _bellman_min(kappa1, e, p, out=None, work=None):
    """min over a in [0, 1] of a^p kappa1 + (1-a)^p e, for 0 <= e <= kappa1.

    The closed form (kappa1^{-q} + e^{-q})^{-(p-1)}, written as
    e (1 + (e/kappa1)^q)^{1-p} so that no power overflows and e = 0 needs
    no special case; x^1 is x and x^-1 is 1/x.  Scalars, or arrays in place:
    `work` (e's shape) holds the intermediates and the result goes to `out`.
    """
    q = 1.0 / (p - 1.0)
    t = np.divide(e, kappa1, out=work)
    if q != 1.0:
        t = np.power(t, q, out=work)
    t = np.add(t, 1.0, out=work)
    if p == 2.0:
        t = np.reciprocal(t, out=work)
    else:
        t = np.power(t, 1.0 - p, out=work)
    return np.multiply(e, t, out=out)


def _floor(n, J, dt, p):
    """Cut-off below which the sweep takes a node as 0; nodes j >= J bind.

    The root is at least LB = P(bind) (n dt)^{1-p}: the moves of a binding
    path close the whole gap, so by Hoelder it costs at least (n dt)^{1-p},
    and P(bind) >= C(n, j) 2^-n at j = max(J, ceil(n/2)).  The Bellman
    minimum B is nondecreasing and 1-Lipschitz,
    B'(e) = (e^{-q} / (kappa1^{-q} + e^{-q}))^p <= 1, and a node averages
    its children with weights 1/2, so zeroing the nodes under a cut-off
    moves each layer by at most the layer below's move plus the cut-off.
    At 2^-60 LB / n the root moves by at most 2^-60 LB <= 2^-60 root in
    exact arithmetic, at most 1/128 of an ulp, and the root, at least LB,
    is never cut.  Where this falls under TINY, or nothing binds, the
    cut-off is TINY.
    """
    if J > n:
        return TINY
    j = max(J, (n + 1) // 2)
    log_lb = (math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
              - n * math.log(2.0) + (1.0 - p) * math.log(n * dt))
    return max(TINY, math.exp(log_lb - 60.0 * math.log(2.0) - math.log(n)))


def _sweep(width, J, n, dt, p, floor):
    """Backward sweep over n steps from a terminal layer of `width` nodes
    whose nodes j >= J bind, taking nodes below `floor` as 0.

    Yields (psi, lo, hi, certain) for each layer m = 1..n, which has
    width - m nodes: those below lo are 0, psi[lo:hi] are live and the rest
    equal certain = (m dt)^{1-p}.  psi and two scratch rows are allocated
    once per sweep; each layer writes into slices of them, its Bellman
    minima straight into psi, which the next layer overwrites.
    """
    kappa1 = dt ** (1.0 - p)
    psi = np.zeros(width)
    e_row, work_row = np.empty(width), np.empty(width)
    add, multiply, divide, item = np.add, np.multiply, np.divide, psi.item
    # p = 2: B(s/2) = s (0.5 / (1 + s / (2 kappa1))) has the bits of halving
    # s first, as halving and doubling are exact, unless 2 kappa1 overflows
    two_kappa1 = 2.0 * kappa1
    fold = p == 2.0 and two_kappa1 < math.inf
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
        a, b = lo - (lo > 0), (hi if hi < width - m else width - m)
        s = add(psi[a:b], psi[a + 1:b + 1], out=e_row[:b - a])
        if fold:
            w = divide(s, two_kappa1, out=work_row[:b - a])
            add(w, 1.0, out=w)
            divide(0.5, w, out=w)
            multiply(s, w, out=psi[a:b])
        else:
            multiply(s, 0.5, out=s)
            _bellman_min(kappa1, s, p, out=psi[a:b], work=work_row[:b - a])
        certain = (m * dt) ** (1.0 - p)
        tol = CERTAIN_RTOL * certain
        while a < b and item(a) < floor:
            a += 1
        while b > a and abs(item(b - 1) - certain) <= tol:
            b -= 1
        lo, hi = a, b
        yield psi, lo, hi, certain


def _expand(size, psi, lo, hi, certain):
    """One layer of `size` nodes in full from its band."""
    layer = np.full(size, certain)
    layer[:lo] = 0.0
    layer[lo:hi] = psi[lo:hi]
    return layer


def _last_layer(width, J, n, dt, p, floor):
    for band in _sweep(width, J, n, dt, p, floor):
        pass
    return _expand(width - n, *band)


def _first_binding(n, dt, c, tie):
    """Index of the first terminal node that binds (n + 1 if none does) for
    each threshold c, by binary search: the terminal values increase."""
    w_end = (2.0 * np.arange(n + 1) - n) * math.sqrt(dt)
    return np.searchsorted(w_end, c, side="left" if tie == "geq" else "right")


def _check_args(n, T, c, p, tie):
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise DomainError("n must be an integer >= 2")
    Params(p, T, 0.0, c)  # finite p > 1, T > 0 and c, as for any instance
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
    J = int(_first_binding(n, dt, c, tie))
    return float(_last_layer(n + 1, J, n, dt, p, _floor(n, J, dt, p))[0])


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
    if not levels:
        return []
    # the scalar quantile per level: the array path differs by up to 1e-13
    js = _first_binding(n, dt, [float(std_normal_quantile(y)) for y in levels],
                        tie).tolist()
    top = max(js)
    # the level least likely to bind, of those that can, sets the cut-off
    floor = _floor(n, max((j for j in js if j <= n), default=n + 1), dt, p)
    roots = _last_layer(n + 1 + top - min(js), top, n, dt, p, floor)
    return [(float(y), float(roots[top - j])) for y, j in zip(levels, js)]


def save_profile(profile, path):
    """CSV `y,g_dp` for overlay plotting."""
    with open(path, "w", newline="") as fh:
        fh.write("y,g_dp\n")
        for y, val in profile:
            fh.write(f"{y:.17g},{val:.17g}\n")
