"""Boundary-value solve for the value-function kernel g.

g solves  h(y) g''(y) + (p - 1) (g(y) - g(y)^{p/(p-1)}) = 0  on (0, 1) with
g -> 1 at 0 and g -> 0 at 1.  The coefficient h(y) = exp(-quantile(y)^2) /
(4 pi) vanishes faster than any polynomial at the endpoints, so the
equation is singular there.  We remove the singularity exactly with the
substitution y = cdf(z): since h(y) = pdf(z)^2 / 2, the equation becomes

    g_zz = -z g_z - 2 (p - 1) (g - g^{p/(p-1)})

which is smooth on the whole line: an HJB equation minimised by the
feedback kappa = g^{1/(p-1)}, with the value its minimal positive solution.
shoot solves it on [-8, max(8, sqrt(2p - 3) + 8)], past the peak of the right
tail mode z^{2p-3} e^{-z^2/2}, with g = 1 and g = 0 at the ends, by
Howard's policy iteration (Howard 1960; Bokanowski, Maroso & Zidani 2009),
Newton's method on the HJB equation: each step solves policy_cost's linear
equation for the current feedback (_linear_solve, by cyclic reduction), so
each iterate is the exact discrete cost of an admissible feedback.  The
ladder runs at steps 2 GRID_DZ, GRID_DZ and GRID_DZ / 2, each level started
from the one before by midpoint averages; the Richardson values (4 fine -
coarse) / 3 of the two finest, on the GRID_DZ nodes, are where g(1/2),
gamma = dg/dy(1/2) and the curve contracts (curve_invariant_report) are read.

The curve shoot returns keeps every STORE_STRIDE-th GRID_DZ node from
z = 0, which the cubic Hermite evaluator needs to match their interpolant
to 1e-10, over the z-range where g lies farther than the tail target
epsilon from 1 and 0, plus the outermost node on each side.  ode_residuals
reads a stencil three times wider there, so the residual contract is the
GRID_DZ grid's, whose verdict the sidecar holds.  Concave means concave in
y: each value lies on or below the tangent line in y at each neighbouring
node, in value units, so it reads the same on any grid (g is convex in z
on the right half).

Curves store (z, g, g_z) on a grid uniform in z, with the levels
ys = cdf(zs) and slopes dgs = dg/dy as derived views, as CSV at 17
significant digits plus a JSON sidecar.  Every kernel lookup goes through
eval_g_z: the cubic Hermite interpolant in z through the stored values and
slopes, and past either end the end value.

policy_cost scores a curve as the feedback u = kappa (1 - X) / (T - t),
kappa = max(g, 0)^{1/(p-1)}.  The z-score (c - W) / sqrt(T - t) is an
Ornstein-Uhlenbeck process on the clock log(T / (T - t)), so by Feynman-Kac
(Fleming & Soner 2006, ch. IV) the cost-to-go is (1 - X)^p (T - t)^{1-p}
phi(z), phi'' + z phi' + 2 (p - 1 - p kappa) phi + 2 kappa^p = 0 with
phi(-inf) = 1, phi(+inf) = 0: at the exact kernel the kernel ODE, so
phi = g.  The tests check shoot by policy_cost of its own curve, and by
SciPy's DOP853 integrating outward from the midpoint pair.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import CalibrationError, DomainError, UsageError
from .normals import CDF_MIN, Params, std_normal_cdf, std_normal_pdf, std_normal_quantile

# The stored range's tail target: the stored ends lie within it of 1 and 0.
DEFAULT_EPSILON = 1e-10
# The largest distance of the stored ends from 1 and 0 that verify accepts.
DEFAULT_BOUNDARY_TOL = 1e-3
# Step in z of the Richardson values (module docstring); ode_residuals
# reads at most 1.1e-9 on them at p <= 50.  The stored step is 1.371e-2.
GRID_DZ = 4.0 / 875.0
STORE_STRIDE = 3
POLICY_DZ = 2e-3
# curve_invariant_report's tolerances: concave, lower_bound, ode_residual
CONCAVITY_TOL = 1e-6
LOWER_BOUND_TOL = 1e-6
RESIDUAL_TOL = 1e-7

_HOWARD_TOL = 1e-10  # Howard's largest step at convergence
_MAX_HOWARD = 50
# _tridiagonal_solve solves systems of at most this many rows by Thomas's algorithm.
_DENSE_ROWS = 64
# One curve CSV row: what csv.writer writes for the three fields at 17 digits.
_CSV_ROW = "%.17g,%.17g,%.17g\r\n"
_CSV_CHUNK = 64


def chord_lower_bound(y, z, p):
    """z^p / y^{p-1} + (1-z)^p / (1-y)^{p-1} for y, z in (0, 1).

    The quantity is >= 1 with equality exactly at z = y; tests use it as a
    standalone checked predicate.
    """
    if not (0.0 < y < 1.0 and 0.0 < z < 1.0):
        raise DomainError("y and z must lie strictly inside (0, 1)")
    if p <= 1.0:
        raise DomainError("p must be > 1")
    return z ** p / y ** (p - 1) + (1.0 - z) ** p / (1.0 - y) ** (p - 1)


@dataclass(frozen=True)
class GCurve:
    """Discretized kernel g, stored in z.

    Arrays are aligned: zs ascending and uniform, gs the values, gzs = g_z;
    the levels ys = cdf(zs) and dgs = dg/dy are derived.  Treat all arrays
    as immutable.  A calibrated curve's ends lie within epsilon of 1 and 0.
    """

    p: float
    zs: np.ndarray
    gs: np.ndarray
    gzs: np.ndarray
    epsilon: float

    @cached_property
    def ys(self):
        return std_normal_cdf(self.zs)

    @cached_property
    def dgs(self):
        return self.gzs / std_normal_pdf(self.zs)

    @cached_property
    def _inv_step(self):
        # 1/dz of the uniform grid in z; the check guards files.
        zs = self.zs
        dz = (zs[-1] - zs[0]) / (len(zs) - 1)
        if not (dz > 0.0 and np.all(
                np.abs(zs - zs[0] - dz * np.arange(len(zs))) <= 1e-9 * dz)):
            raise UsageError("kernel evaluation needs the uniform quantile grid")
        return 1.0 / dz

    @cached_property
    def _hermite(self):
        # (z0, 1/dz, Horner coefficients) of the cubic Hermite interpolant in
        # z: a row per grid cell, then the constant rows (g_end, 0, 0, 0) of
        # the right end and, last, the left end.
        zs, gs = self.zs, self.gs
        dz = (zs[-1] - zs[0]) / (len(zs) - 1)
        inv_dz = self._inv_step
        slope = self.gzs * dz  # g_z per cell width
        rise = np.diff(gs)
        s0, s1 = slope[:-1], slope[1:]
        coeffs = np.column_stack(
            (gs[:-1], s0, 3.0 * rise - 2.0 * s0 - s1, s0 + s1 - 2.0 * rise))
        ends = [[gs[-1], 0.0, 0.0, 0.0], [gs[0], 0.0, 0.0, 0.0]]
        return float(zs[0]), inv_dz, np.vstack((coeffs, ends))

    def check_params(self, params):
        """params as a Params record (tuples are coerced) for this curve's p."""
        if not isinstance(params, Params):
            params = Params(*params)
        if abs(params.p - self.p) > 1e-12:
            raise UsageError(f"curve calibrated for p={self.p}, got p={params.p}")
        return params

    @property
    def left_residual(self):
        return abs(self.gs[0] - 1.0)

    @property
    def right_residual(self):
        return abs(self.gs[-1])


@dataclass(frozen=True)
class ShootingResult:
    """Midpoint data, the stored curve, its invariants on the GRID_DZ grid,
    and the solver's counters: Howard steps per level, g_mid's Richardson bar
    (a third of the two finest levels' gap) and the stored range's rule."""

    g_mid: float
    gamma: float
    curve: GCurve
    invariants: dict
    solver: dict


def _tridiagonal_solve(sub, diag, sup, rhs):
    """x with sub[i] x[i-1] + diag[i] x[i] + sup[i] x[i+1] = rhs[i] for
    every row i; sub[0] and sup[-1] are not read.

    Odd-even cyclic reduction (Buzbee, Golub & Nielson 1970), on the system
    padded with rows x = 0 to 2^L q - 1 rows, q <= _DENSE_ROWS + 1: each of
    L levels folds every even row into its two odd neighbours, which leaves
    a tridiagonal system in the odd unknowns of half the size.  The last
    q - 1 rows are solved by Thomas's algorithm in Python floats, which
    costs them less than np.linalg.solve does; back-substitution then
    recovers the even unknowns level by level.  Stable without pivoting on
    diagonally dominant systems.
    """
    n = len(diag)
    depth = max(0, math.ceil(math.log2((n + 1) / (_DENSE_ROWS + 1))))
    pad = np.zeros(2 ** depth * -(-(n + 1) // 2 ** depth) - 1 - n)
    a, b, c, d = (np.concatenate((v, pad)) for v in (sub, diag, sup, rhs))
    a[0] = c[n - 1] = 0.0
    b[n:] = 1.0
    levels = []
    for _ in range(depth):
        neg_inv = np.divide(-1.0, b[::2])
        alpha = a[1::2] * neg_inv[:-1]
        beta = c[1::2] * neg_inv[1:]
        levels.append((a[::2], c[::2], d[::2], neg_inv))
        b_next = b[1::2] + alpha * c[:-1:2] + beta * a[2::2]
        d_next = d[1::2] + alpha * d[:-1:2] + beta * d[2::2]
        a, b, c, d = alpha * a[:-1:2], b_next, beta * c[2::2], d_next
    a, b, c, x = a.tolist(), b.tolist(), c.tolist(), d.tolist()
    for i in range(1, len(b)):
        w = a[i] / b[i - 1]
        b[i] -= w * c[i - 1]
        x[i] -= w * x[i - 1]
    x[-1] /= b[-1]
    for i in range(len(b) - 2, -1, -1):
        x[i] = (x[i] - c[i] * x[i + 1]) / b[i]
    x = np.array(x)
    for a_even, c_even, d_even, neg_inv in reversed(levels):
        # full[1:-1] holds the level's unknowns, between two zeros
        full = np.zeros(2 * len(neg_inv) + 1)
        full[2:-1:2] = x
        x_even = a_even * full[:-1:2] + c_even * full[2::2] - d_even
        np.multiply(x_even, neg_inv, out=full[1::2])
        x = full[1:-1]
    return x[:n]


def _whole_line(p, dz, refine=1):
    """(nodes, index of z = 0): uniform in z on [-8, max(8, sqrt(2p - 3)
    + 8)] at step dz, each step split into `refine`."""
    n_left = round(8.0 / dz)
    n_right = round((8.0 + math.sqrt(max(2.0 * p - 3.0, 0.0))) / dz)
    return (dz / refine * np.arange(-refine * n_left, refine * n_right + 1),
            refine * n_left)


def _difference_rows(zs):
    """(sub, sup, centre): phi'' + z phi' by central differences at the
    interior nodes of the uniform zs; sub + sup = -centre."""
    h = zs[1] - zs[0]
    sub = 1.0 / h ** 2 - zs[1:-1] / (2.0 * h)
    return sub, 2.0 / h ** 2 - sub, -2.0 / h ** 2


def _linear_solve(rows, rate, source, left, right):
    """phi = left, right at the ends of rows' nodes (_difference_rows) and
    phi'' + z phi' + rate phi + source = 0 inside, by one _tridiagonal_solve."""
    sub, sup, centre = rows
    rhs = np.negative(source)
    rhs[0] -= sub[0] * left
    rhs[-1] -= sup[-1] * right
    inner = _tridiagonal_solve(sub, centre + rate, sup, rhs)
    return np.concatenate(([left], inner, [right]))


def _howard(p, zs, g):
    """(g, steps): Howard from g on the nodes zs, ends held, until no node
    moves by more than _HOWARD_TOL (else CalibrationError).  Each step solves
    the cost-to-go equation of kappa = clip(g, 0, 1)^{1/(p-1)} for the change
    in g, driven by g's residual, so the solve's rounding stays in the step."""
    rows = sub, sup, _ = _difference_rows(zs)
    for step in range(1, _MAX_HOWARD + 1):
        gi = g[1:-1]
        level = np.clip(gi, 0.0, 1.0)
        kappa = level ** (1.0 / (p - 1.0))
        rate = 2.0 * (p - 1.0) - 2.0 * p * kappa
        # differences of neighbours first: the residual rounds like g''
        resid = (sub * (g[:-2] - gi) + sup * (g[2:] - gi) + rate * gi
                 + 2.0 * kappa * level)
        change = _linear_solve(rows, rate, resid, 0.0, 0.0)
        g = g + change
        # A NaN step fails the test, and so runs on to the error below.
        if np.max(np.abs(change)) <= _HOWARD_TOL:
            return g, step
    raise CalibrationError("Howard iteration did not converge",
                           diagnostics={"p": p, "nodes": len(zs)})


def _slope(gs, h):
    """g_z by fourth-order differences: central inside, one-sided five-point
    at the two nodes nearest each end."""
    gz = np.empty_like(gs)
    gz[2:-2] = gs[:-4] - 8.0 * gs[1:-3] + 8.0 * gs[3:-1] - gs[4:]
    for k, row in enumerate(((-25.0, 48.0, -36.0, 16.0, -3.0),
                             (-3.0, -10.0, 18.0, -6.0, 1.0))):
        gz[k] = np.dot(row, gs[:5])
        gz[-1 - k] = -np.dot(row, gs[:-6:-1])
    return gz / (12.0 * h)


def _snapped(p, epsilon, zs, gs):
    """The curve through values gs on the nodes zs, with rounding clipped so
    downstream sign contracts (0 <= g <= 1, g_z <= 0, hence Z >= 0) hold
    exactly.  A larger excursion means a spurious, non-monotone solution."""
    gzs = _slope(gs, zs[1] - zs[0])
    snapped_gs = np.minimum.accumulate(np.clip(gs, 0.0, 1.0))
    snapped_gzs = np.minimum(gzs, 0.0)
    worst = max(np.max(np.abs(gs - snapped_gs)), np.max(gzs - snapped_gzs))
    if worst > 1e-9:
        raise CalibrationError(
            "solution is not monotone within [0, 1] beyond rounding",
            diagnostics={"p": p, "worst_excursion": float(worst)})
    return GCurve(p=float(p), zs=zs, gs=snapped_gs, gzs=snapped_gzs,
                  epsilon=float(epsilon))


def _ladder(p, epsilon):
    """(curve on the GRID_DZ nodes, index of z = 0, Howard steps per level,
    g_mid's Richardson bar), from the chord between the end values 1 and 0."""
    finest, mid = _whole_line(p, 2.0 * GRID_DZ, 4)
    g, steps = None, []
    for zs in (finest[::4], finest[::2], finest):
        coarse, g = g, ((zs[-1] - zs) / (zs[-1] - zs[0]) if g is None  # chord
                        else np.repeat(g, 2)[:-1])
        if coarse is not None:  # midpoint averages of the level below
            g[1::2] = 0.5 * (coarse[:-1] + coarse[1:])
        g, n = _howard(p, zs, g)
        steps.append(n)
    fine = g[::2]
    mid //= 2
    return (_snapped(p, epsilon, finest[::2], (4.0 * fine - coarse) / 3.0), mid,
            steps, abs(float(fine[mid] - coarse[mid])) / 3.0)


def _stored(curve, mid):
    """curve's stored part (module docstring), counted from the node mid;
    the end node where no node lies within epsilon.  gs never rises, so
    each side's nodes within epsilon form one run."""
    first = mid % STORE_STRIDE
    gs = curve.gs[first::STORE_STRIDE]
    lo = max(np.count_nonzero(1.0 - gs <= curve.epsilon), 1) - 1
    hi = len(gs) - max(np.count_nonzero(gs <= curve.epsilon), 1)
    keep = slice(first + STORE_STRIDE * lo, first + STORE_STRIDE * hi + 1, STORE_STRIDE)
    return replace(curve, zs=curve.zs[keep].copy(), gs=curve.gs[keep].copy(),
                   gzs=curve.gzs[keep].copy())


def shoot(p, epsilon=DEFAULT_EPSILON):
    """The kernel solved on the whole line, with g(1/2) and gamma = dg/dy
    at 1/2, stored over the range that the tail target epsilon sets (module
    docstring), z = 0 among the stored nodes.  Raises CalibrationError when
    Howard does not converge or the solution is not monotone in [0, 1]."""
    if not (isinstance(p, (int, float)) and math.isfinite(p) and p > 1.0):
        raise DomainError("p must be a finite number > 1")
    if not (CDF_MIN <= epsilon < 0.1):
        raise DomainError(f"epsilon must lie in [{CDF_MIN:.4g}, 0.1)")
    solved, mid, steps, bar = _ladder(p, epsilon)
    return ShootingResult(
        g_mid=float(solved.gs[mid]),
        gamma=float(solved.gzs[mid]) * math.sqrt(2.0 * math.pi),
        curve=_stored(solved, mid), invariants=curve_invariant_report(solved),
        solver={"howard_steps": steps, "richardson_bar": bar,
                "tail_target": float(epsilon), "stored_dz": STORE_STRIDE * GRID_DZ})


def policy_cost(curve):
    """(phi(0), error bar, valid): the exact cost at c = 0, per unit
    (1 - x)^p / T^{p-1}, of the curve's feedback (module docstring).

    phi is solved on shoot's interval at step POLICY_DZ and half of it:
    phi(0) is their Richardson value, the bar a third of their gap.  Where
    kappa < (p - 1) / p the discrete phi need not stay positive; valid
    means phi >= 0 on both grids, else phi(0) is no expected cost.
    """
    p = curve.p
    values, valid = [], True
    for refine in (1, 2):
        zs, mid = _whole_line(p, POLICY_DZ, refine)
        kappa = np.maximum(eval_g_z(curve, zs[1:-1]), 0.0) ** (1.0 / (p - 1.0))
        phi = _linear_solve(_difference_rows(zs), 2.0 * (p - 1.0 - p * kappa),
                            2.0 * kappa ** p, 1.0, 0.0)
        values.append(float(phi[mid]))
        valid &= bool(np.min(phi) >= 0.0)
    coarse, fine = values
    return (4.0 * fine - coarse) / 3.0, abs(fine - coarse) / 3.0, valid


def eval_g_z(curve, z, *, slope=False):
    """Kernel value at quantile coordinates z (a 1-d array), and with slope
    set also the z-derivative g_z: returns g or (g, g_z).

    Inside the stored range this is the cubic Hermite interpolant in z
    through the stored values and slopes, with the cell found by arithmetic
    on the uniform grid; each cell holds its left node, so the last node
    reads the right end's row.  Outside, and at +-inf, the value is the
    nearest end value and the slope 0.  A NaN gives NaN.
    """
    z0, inv_dz, coeffs = curve._hermite
    n_cells = len(coeffs) - 2
    # u is held to [-1, n_cells], so past either end t = 0 on an end row;
    # k = -1 takes the last row, the left end's.  fmax sends a NaN to that
    # row, where its value stays NaN.
    u = (z - z0) * inv_dz
    np.clip(u, -1.0, n_cells, out=u)
    k = np.floor(u)
    np.fmax(k, -1.0, out=k)
    t = u - k
    a0, a1, a2, a3 = np.take(coeffs, k.astype(np.intp), axis=0).T
    g = ((a3 * t + a2) * t + a1) * t + a0
    if not slope:
        return g
    return g, ((3.0 * a3 * t + 2.0 * a2) * t + a1) * inv_dz


def eval_g(curve, y):
    """Value of the curve at level(s) y in (0, 1): a float for scalar
    input, an array otherwise.

    eval_g_z at z = quantile(y), a scalar's through the scalar quantile
    path; an exact node hit returns the stored value.  Only the node
    nearest z can be hit, so only its level is computed, by the array cdf
    that the ys view uses.
    """
    arr = np.asarray(y, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("y must lie strictly inside (0, 1)")
    scalar = np.ndim(y) == 0
    arr = np.atleast_1d(arr)
    z = np.atleast_1d(std_normal_quantile(float(y) if scalar else arr))
    g_out = eval_g_z(curve, z)
    z0, inv_dz, _ = curve._hermite
    node = np.clip(np.rint((z - z0) * inv_dz), 0, len(curve.zs) - 1).astype(np.intp)
    at_node = std_normal_cdf(curve.zs[node]) == arr
    g_out[at_node] = curve.gs[node[at_node]]
    return float(g_out[0]) if scalar else g_out


def eval_g_value(curve, y):
    """eval_g(curve, y), the kernel value verify's oracle suite compares."""
    return eval_g(curve, y)


def value_function(curve, params, g_at_level=None):
    """(1-x)^p / T^{p-1} * g(cdf(c / sqrt(T))) for a calibrated curve.

    g_at_level, when the caller has already evaluated the kernel at the
    level cdf(c / sqrt(T)), spares the cdf and the second evaluation.
    """
    params = curve.check_params(params)
    if params.x == 1.0:
        return 0.0
    if g_at_level is None:
        level = std_normal_cdf(params.c / math.sqrt(params.T))
        g_at_level = eval_g(curve, level)
    return (1.0 - params.x) ** params.p / params.T ** (params.p - 1.0) * g_at_level


def ode_residuals(curve):
    """|h g'' + (p-1)(g - g^{p/(p-1)})| at the nodes with two neighbours
    each side, the residual contract's collocation set: h g'' is
    (g_zz + z g_z) / 2, g_zz a five-point difference of the stored g_z."""
    z, g, q = curve.zs, curve.gs, curve.gzs
    step = 1.0 / curve._inv_step
    g_zz = (-q[4:] + 8.0 * q[3:-1] - 8.0 * q[1:-3] + q[:-4]) / (12.0 * step)
    zi, gi = z[2:-2], g[2:-2]
    nonlinear = (curve.p - 1.0) * (gi - np.maximum(gi, 0.0) ** (curve.p / (curve.p - 1.0)))
    return np.abs(0.5 * (g_zz + zi * q[2:-2]) + nonlinear)


def curve_invariant_report(curve):
    """Check the curve contracts; returns a dict of name -> (ok, worst value)."""
    ys, gs, dgs = curve.ys, curve.gs, curve.dgs
    report = {}
    report["range"] = (bool(np.all((gs >= 0.0) & (gs <= 1.0))),
                       float(min(np.min(gs), 1.0 - np.max(gs))))
    mono = np.max(np.diff(gs)) if len(gs) > 1 else 0.0
    report["monotone"] = (bool(mono <= 1e-9 and np.max(dgs) <= 1e-9),
                          float(max(mono, np.max(dgs))))
    # concave in y: each value on or below the tangent in y at each neighbour
    dy, rise = np.diff(ys), np.diff(gs)
    above = max(np.max(rise - dgs[:-1] * dy), np.max(dgs[1:] * dy - rise))
    report["concave"] = (bool(above <= CONCAVITY_TOL), float(above))
    lb = np.min(gs - (1.0 - ys) ** curve.p)
    report["lower_bound"] = (bool(lb >= -LOWER_BOUND_TOL), float(lb))
    res = ode_residuals(curve)
    report["ode_residual"] = (bool(np.max(res) <= RESIDUAL_TOL), float(np.max(res)))
    return report


def save_curve(curve, csv_path, sidecar_path, meta=None):
    """Write the grid as CSV (`z,g,g_z`, 17 significant digits, rows ending
    in \\r\\n) plus a JSON sidecar with the calibration summary."""
    with open(csv_path, "w", newline="") as fh:
        fh.write("z,g,g_z\r\n")
        # Rows go out _CSV_CHUNK at a time, one format call each: lists of
        # all the values (tolist) would leave the heap about 0.5 MB higher
        # for the next calibration.
        rows = np.column_stack((curve.zs, curve.gs, curve.gzs))
        for start in range(0, len(rows), _CSV_CHUNK):
            chunk = rows[start:start + _CSV_CHUNK]
            fh.write(_CSV_ROW * len(chunk) % tuple(chunk.ravel().tolist()))
    sidecar = {"p": curve.p, "epsilon": curve.epsilon,
               "g_mid": None, "gamma": None,
               "left_residual": curve.left_residual,
               "right_residual": curve.right_residual}
    if meta:
        sidecar.update(meta)
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_curve(csv_path, sidecar_path):
    """Inverse of save_curve; returns (GCurve, sidecar dict).  Rows may end
    in \\r\\n or \\n.  Raises UsageError unless the header is z,g,g_z and
    the body at least two rows of exactly three numbers."""
    with open(sidecar_path) as fh:
        sidecar = json.load(fh)
    with open(csv_path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header == ["y", "g", "dg"]:
            raise UsageError(f"{csv_path} holds a curve in the old y,g,dg form; "
                             "run calibrate again to write it as z,g,g_z")
        if header != ["z", "g", "g_z"]:
            raise UsageError(f"unexpected curve CSV header in {csv_path}: {header}")
        try:
            with warnings.catch_warnings():
                # An empty body warns; the shape check below reports it.
                warnings.simplefilter("ignore", UserWarning)
                arr = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
        except ValueError as exc:
            raise UsageError(f"malformed curve CSV {csv_path}: {exc}") from exc
    if arr.shape[1] != 3 or len(arr) < 2:
        raise UsageError(
            f"malformed curve CSV {csv_path}: need at least 2 rows of z,g,g_z, "
            f"got {arr.shape[0]} rows of {arr.shape[1]} fields")
    curve = GCurve(p=float(sidecar["p"]), zs=arr[:, 0], gs=arr[:, 1],
                   gzs=arr[:, 2], epsilon=float(sidecar["epsilon"]))
    return curve, sidecar
