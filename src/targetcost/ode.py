"""Boundary-value solve for the value-function kernel g.

g solves  h(y) g''(y) + (p - 1) (g(y) - g(y)^{p/(p-1)}) = 0  on (0, 1) with
g -> 1 at 0 and g -> 0 at 1.  The coefficient h(y) = exp(-quantile(y)^2) /
(4 pi) vanishes faster than any polynomial at the endpoints, so the
equation is singular there.  We remove the singularity exactly with the
substitution y = cdf(z): since h(y) = pdf(z)^2 / 2, the equation becomes

    g_zz = -z g_z - 2 (p - 1) (g - g^{p/(p-1)})

which is smooth on the whole line.  shoot solves it on [-z_edge, z_edge],
the cutoff quantiles of epsilon and 1 - epsilon, with g = 1 and g = 0 held
there: Newton's method on the central-difference equations, one
tridiagonal solve per step (numpy cyclic reduction, _tridiagonal_solve),
on the solve grid and on the grid of half its step, combined by Richardson
extrapolation.  The midpoint value g(1/2) and slope gamma = dg/dy(1/2) are
read off the result.

The Newton solves run on the solve grid, uniform in z with spacing near
GRID_DZ (solve_grid).  The curve shoot returns, and save_curve stores,
keeps every STORE_STRIDE-th solve node, as many as the cubic Hermite
evaluator needs: on them it matches the solve-grid interpolant to 1.2e-11
at p = 2, and within 1e-10 at every p up to 50.  shoot checks the curve
contracts (curve_invariant_report) on the solve grid, before thinning, and
returns that verdict with the curve; calibrate writes it to the sidecar.
ode_residuals on the stored nodes reads a five-point stencil of seven
times the step, so it reports more than on the solve grid (1.5e-7 against
1.3e-8 at p = 4): the residual contract is the solve grid's, and the
sidecar holds its verdict.

Concave means concave in y: each value lies on or below the tangent line
in y at each neighbouring node.  The check is in value units, so it reads
the same on any grid; second differences of values on a grid uniform in z
would measure dz^2 g_zz instead, and g is convex in z on the right half.

The tests check the result by an independent initial-value route: from the
midpoint pair, SciPy's DOP853 integrates outward onto the solve grid.

Curves store the solve's own (z, g, g_z) on a grid uniform in z, with the
levels ys = cdf(zs) and slopes dgs = dg/dy as derived views, and serialize
to CSV at 17 significant digits, so a reload is the same data, plus a JSON
sidecar.  Every kernel lookup goes through one evaluator, eval_g_z: the
cubic Hermite interpolant in z through the stored values and slopes, and
past either end the end value (exactly 1 and 0 on a calibrated curve).

policy_cost scores a curve as the feedback u = kappa (1 - X) / (T - t),
kappa = max(g, 0)^{1/(p-1)}.  The z-score (c - W) / sqrt(T - t) is an
Ornstein-Uhlenbeck process on the clock log(T / (T - t)), so by Feynman-Kac
(Fleming & Soner 2006, ch. IV) the cost-to-go is (1 - X)^p (T - t)^{1-p}
phi(z), phi'' + z phi' + 2 (p - 1 - p kappa) phi + 2 kappa^p = 0 with
phi(-inf) = 1, phi(+inf) = 0: at the exact kernel the kernel ODE, so
phi = g.  It is linear, so _newton solves it in one step.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import CalibrationError, DomainError, UsageError
from .normals import CDF_MIN, Params, std_normal_cdf, std_normal_pdf, std_normal_quantile

DEFAULT_EPSILON = 1e-4
# The largest distance of the stored ends from 1 and 0 that verify accepts.
DEFAULT_BOUNDARY_TOL = 1e-3
# Spacing of the solve grid in the z coordinate, where the Newton solves
# run and the curve contracts are checked.  Fine enough that the five-point
# stencil used by ode_residuals resolves the curvature to well below the
# 1e-7 residual contract at p <= 5.
GRID_DZ = 1.25e-3
# The stored curve keeps every STORE_STRIDE-th solve node (8.75e-3 in z),
# all the evaluator needs (see above).
STORE_STRIDE = 7
POLICY_DZ = 2e-3
# curve_invariant_report's tolerances: concave, lower_bound, ode_residual
CONCAVITY_TOL = 1e-6
LOWER_BOUND_TOL = 1e-6
RESIDUAL_TOL = 1e-7

_MAX_NEWTON = 50
# _tridiagonal_solve hands systems of at most this many rows to np.linalg.solve.
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
    """Discretized kernel g on [epsilon, 1 - epsilon], stored in z.

    Arrays are aligned: zs ascending and uniform, gs the values, gzs = g_z;
    the levels ys = cdf(zs) and dgs = dg/dy are derived.  Treat all arrays
    as immutable.
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
    """Calibrated midpoint data, the stored curve, and the
    curve_invariant_report of the curve on the solve grid."""

    g_mid: float
    gamma: float
    curve: GCurve
    invariants: dict


def _kernel_reaction(p, g):
    """(f, f') of the kernel ODE's term f(g) = 2 (p - 1) (g - g^{p/(p-1)})."""
    expo, two_pm1 = p / (p - 1.0), 2.0 * (p - 1.0)
    pos = np.maximum(g, 0.0)
    power = pos ** (expo - 1.0)
    return (two_pm1 * (g - pos * power),
            two_pm1 * (1.0 - expo * power))


def _tridiagonal_solve(sub, diag, sup, rhs):
    """x with sub[i] x[i-1] + diag[i] x[i] + sup[i] x[i+1] = rhs[i] for
    every row i; sub[0] and sup[-1] must be 0.

    Odd-even cyclic reduction (Buzbee, Golub & Nielson 1970): each level
    folds every even row into its two odd neighbours, which leaves a
    tridiagonal system in the odd unknowns of half the size, until at most
    _DENSE_ROWS rows remain for np.linalg.solve; back-substitution then
    recovers the even unknowns level by level.  An even row count gains a
    row x = 0 first, so that every odd row has two neighbours.  Stable
    without pivoting on diagonally dominant systems.
    """
    a, b, c, d = sub, diag, sup, rhs
    levels = []
    while len(b) > _DENSE_ROWS:
        n = len(b)
        if n % 2 == 0:
            a, b, c, d = (np.append(a, 0.0), np.append(b, 1.0),
                          np.append(c, 0.0), np.append(d, 0.0))
        neg_inv = np.divide(-1.0, b[::2])
        alpha = a[1::2] * neg_inv[:-1]
        beta = c[1::2] * neg_inv[1:]
        levels.append((n, a[::2], c[::2], d[::2], neg_inv))
        b_next = b[1::2] + alpha * c[:-1:2] + beta * a[2::2]
        d_next = d[1::2] + alpha * d[:-1:2] + beta * d[2::2]
        a, b, c, d = alpha * a[:-1:2], b_next, beta * c[2::2], d_next
    n = len(b)
    dense = np.zeros((n, n))
    dense.flat[::n + 1] = b
    dense.flat[n::n + 1] = a[1:]
    dense.flat[1::n + 1] = c[:-1]
    x = np.linalg.solve(dense, d)
    for n, a_even, c_even, d_even, neg_inv in reversed(levels):
        # full[1:-1] holds the level's unknowns, between two zeros
        full = np.zeros(2 * len(neg_inv) + 1)
        full[2:-1:2] = x
        x_even = a_even * full[:-1:2] + c_even * full[2::2] - d_even
        np.multiply(x_even, neg_inv, out=full[1::2])
        x = full[1:n + 1]
    return x


def _newton(p, zs, g, reaction):
    """Solve the central-difference equations of g_zz + z g_z + f(g) = 0,
    reaction(g) = (f(g), f'(g)), on the uniform nodes zs by Newton's method,
    holding the end values of the start g fixed.

    Each step is one tridiagonal solve (_tridiagonal_solve) whose off-
    diagonals, fixed by the grid, are built once; iteration stops once no
    node moves by more than 1e-10, so a linear f takes one step and one to
    confirm it.  Raises CalibrationError when that does not happen in
    _MAX_NEWTON steps, or a step is not finite.
    """
    h = zs[1] - zs[0]
    zi = zs[1:-1]
    sub = 1.0 / h ** 2 - zi / (2.0 * h)
    sup = 1.0 / h ** 2 + zi / (2.0 * h)
    sub[0] = sup[-1] = 0.0
    g = np.array(g, dtype=float)
    for _ in range(_MAX_NEWTON):
        gi = g[1:-1]
        f, df = reaction(gi)
        resid = ((g[2:] - 2.0 * gi + g[:-2]) / h ** 2
                 + zi * (g[2:] - g[:-2]) / (2.0 * h) + f)
        step = _tridiagonal_solve(sub, df - 2.0 / h ** 2, sup, resid)
        g[1:-1] -= step
        # A NaN or inf in the step carries through the max.
        worst = np.max(np.abs(step))
        if worst <= 1e-10:
            return g
        if not math.isfinite(worst):
            break
    raise CalibrationError("Newton iteration did not converge",
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


def solve_grid(epsilon, refine=1):
    """shoot's nodes in z at cutoff epsilon, each step split into `refine`:
    uniform on [-z_edge, z_edge], z_edge = -quantile(epsilon), with n_half
    steps per side, the multiple of STORE_STRIDE nearest z_edge / GRID_DZ."""
    z_edge = -std_normal_quantile(epsilon)
    n_half = STORE_STRIDE * max(1, round(z_edge / (STORE_STRIDE * GRID_DZ)))
    return z_edge / n_half / refine * np.arange(-refine * n_half,
                                                refine * n_half + 1)


def shoot(p, epsilon=DEFAULT_EPSILON):
    """Calibrate the kernel with g = 1 at y = epsilon and g = 0 at
    y = 1 - epsilon, and return it with its midpoint value and slope.

    Newton's method on the central-difference equations in z (see _newton),
    started from the chord between the two end values, solves on the
    solve grid and again on the grid of half its step, started from the
    first solution and the averages of its neighbouring values; the values
    are the Richardson combination (4 fine - coarse) / 3 and the slopes
    their fourth-order differences.
    gamma is dg/dy at y = 1/2.  The invariants are checked on the solve
    grid; the returned curve keeps every STORE_STRIDE-th node.  Both
    solves hold the chord's end values, and (4 * 1 - 1) / 3 = 1, so the
    stored ends are exactly 1 and 0.  Raises CalibrationError when Newton
    does not converge or the solution is not monotone within [0, 1].
    """
    if not (isinstance(p, (int, float)) and math.isfinite(p) and p > 1.0):
        raise DomainError("p must be a finite number > 1")
    if not (CDF_MIN <= epsilon < 0.1):
        raise DomainError(f"epsilon must lie in [{CDF_MIN:.4g}, 0.1)")
    zs = solve_grid(epsilon)
    n_half = len(zs) // 2
    reaction = partial(_kernel_reaction, p)
    coarse = _newton(p, zs, 0.5 - zs / (2.0 * zs[-1]), reaction)
    fine_zs = solve_grid(epsilon, refine=2)
    start = np.empty(len(fine_zs))
    start[::2] = coarse
    start[1::2] = 0.5 * (coarse[:-1] + coarse[1:])
    fine = _newton(p, fine_zs, start, reaction)
    solved = _snapped(p, epsilon, zs, (4.0 * fine[::2] - coarse) / 3.0)
    g_mid = float(solved.gs[n_half])
    gamma = float(solved.gzs[n_half]) * math.sqrt(2.0 * math.pi)
    # n_half is a multiple of the stride, so the thinned curve keeps both
    # ends and the midpoint.
    keep = slice(None, None, STORE_STRIDE)
    curve = GCurve(p=solved.p, zs=solved.zs[keep].copy(),
                   gs=solved.gs[keep].copy(), gzs=solved.gzs[keep].copy(),
                   epsilon=solved.epsilon)
    return ShootingResult(g_mid=g_mid, gamma=gamma, curve=curve,
                          invariants=curve_invariant_report(solved))


def policy_cost(curve):
    """(phi(0), error bar, valid): the exact cost at c = 0, per unit
    (1 - x)^p / T^{p-1}, of the curve's feedback (module docstring).

    phi is solved on [-8, max(8, sqrt(2p - 3) + 8)], past the peak of the
    right tail mode z^{2p-3} e^{-z^2/2}, at step POLICY_DZ and half of it:
    phi(0) is their Richardson value, the bar a third of their gap.  Where
    kappa < (p - 1) / p the discrete phi need not stay positive; valid
    means phi >= 0 on both grids, else phi(0) is no expected cost.
    """
    p = curve.p
    n_left = round(8.0 / POLICY_DZ)
    n_right = round((8.0 + math.sqrt(max(2.0 * p - 3.0, 0.0))) / POLICY_DZ)
    values, valid = [], True
    for refine in (1, 2):
        zs = POLICY_DZ / refine * np.arange(-refine * n_left, refine * n_right + 1)
        kappa = np.maximum(eval_g_z(curve, zs[1:-1]), 0.0) ** (1.0 / (p - 1.0))
        rate, source = 2.0 * (p - 1.0 - p * kappa), 2.0 * kappa ** p
        phi = _newton(p, zs, (zs[-1] - zs) / (zs[-1] - zs[0]),
                      lambda g: (rate * g + source, rate))
        values.append(float(phi[refine * n_left]))
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
    path; an exact node hit returns the stored value.
    """
    arr = np.asarray(y, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("y must lie strictly inside (0, 1)")
    scalar = np.ndim(y) == 0
    arr = np.atleast_1d(arr)
    z = std_normal_quantile(float(y) if scalar else arr)
    g_out = eval_g_z(curve, np.atleast_1d(z))
    ys, gs = curve.ys, curve.gs
    idx = np.minimum(np.searchsorted(ys, arr), len(ys) - 1)
    at_node = ys[idx] == arr
    g_out[at_node] = gs[idx[at_node]]
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
    """|h g'' + (p-1)(g - g^{p/(p-1)})| at interior collocation points.

    g'' comes from a five-point divided difference of the stored slopes g_z,
    where h g'' equals (g_zz + z g_z) / 2, with the step of the uniform grid
    the evaluator checked; the nonlinear term uses the stored values.  The
    returned array covers nodes with a full stencil (two neighbors each
    side), which is the collocation set the residual contract refers to.
    """
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
