"""Boundary-value solve for the value-function kernel g.

g solves  h(y) g''(y) + (p - 1) (g(y) - g(y)^{p/(p-1)}) = 0  on (0, 1) with
g -> 1 at 0 and g -> 0 at 1.  The coefficient h vanishes faster than any
polynomial at the endpoints, so the equation is singular there.  We remove
the singularity exactly with the substitution y = cdf(z): since
h(y) = pdf(z)^2 / 2, the equation becomes

    g_zz = -z g_z - 2 (p - 1) (g - g^{p/(p-1)})

which is smooth on the whole line.  shoot solves it on [-z_edge, z_edge],
the cutoff quantiles of epsilon and 1 - epsilon, with g = 1 and g = 0 held
there: Newton's method on the central-difference equations, one
tridiagonal solve per step, on the stored grid and on the grid of half its
step, combined by Richardson extrapolation.  The midpoint value g(1/2) and
slope gamma = dg/dy(1/2) are read off the result.

integrate_g is the independent initial-value route: from a midpoint pair it
integrates outward with an adaptive embedded Runge-Kutta pair
(Dormand-Prince 4(5), absolute tolerance 1e-10, relative 1e-9) onto the
same grid.

Curves store (y, g, dg/dy) on a grid uniform in z and serialize to CSV plus
a JSON sidecar.  Every kernel lookup goes through one evaluator, eval_g_z:
the cubic Hermite interpolant in z through the stored values and slopes
g_z = dg/dy * pdf(z).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import solve_banded

from .errors import CalibrationError, DivergenceError, DomainError, RangeError, UsageError
from .normals import (
    _INV_SQRT_2PI,
    Params,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)

# Admissible band and blow-up thresholds for the integrated solution.
RANGE_LO = -0.01
RANGE_HI = 1.01
DIVERGE_G = 2.0
DIVERGE_DGDY = 1.0e6

DEFAULT_EPSILON = 1e-4
DEFAULT_BOUNDARY_TOL = 1e-3
DEFAULT_ATOL = 1e-10
DEFAULT_RTOL = 1e-9
# Spacing of the stored grid in the z coordinate.  Fine enough that the
# five-point stencil used by ode_residuals resolves the curvature to well
# below the 1e-7 residual contract and that raw second differences of the
# stored values stay within the discrete concavity tolerance.
GRID_DZ = 1.25e-3

_MAX_NEWTON = 50

# Dormand-Prince 4(5) tableau.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (_B1 - 5179 / 57600, _B3 - 7571 / 16695, _B4 - 393 / 640,
                                _B5 + 92097 / 339200, _B6 - 187 / 2100, -1 / 40)
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9

# Outcomes of one integration sweep.
_OK, _LOW, _HIGH, _DIVERGED = "ok", "low", "high", "diverged"


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


def _propagate(p, z_end, g0, q0, atol, rtol, targets):
    """Integrate (g, g_z) from z = 0 to z_end, recording at targets.

    Returns (status, z_stop, recorded) where recorded is a list of (g, q)
    aligned with targets.  Statuses: 'ok', 'low' / 'high' when g leaves the
    [RANGE_LO, RANGE_HI] band, or 'diverged' on numerical blow-up; z_stop
    is where integration stopped.

    The Runge-Kutta stages are written out inline, since a pure-Python
    step loop is dominated by call overhead.
    """
    expo = p / (p - 1.0)
    two_pm1 = 2.0 * (p - 1.0)
    direction = 1.0 if z_end > 0.0 else -1.0
    exp_ = math.exp
    a21, a31, a32 = _A21, _A31, _A32
    a41, a42, a43 = _A41, _A42, _A43
    a51, a52, a53, a54 = _A51, _A52, _A53, _A54
    a61, a62, a63, a64, a65 = _A61, _A62, _A63, _A64, _A65
    b1, b3, b4, b5, b6 = _B1, _B3, _B4, _B5, _B6
    e1, e3, e4, e5, e6, e7 = _E1, _E3, _E4, _E5, _E6, _E7
    c2, c3, c4, c5 = _C2, _C3, _C4, _C5

    recorded = []
    next_target = 0

    z, g, q = 0.0, g0, q0
    k1g = q
    k1q = -z * q - two_pm1 * (g - (g if g > 0.0 else 0.0) ** expo)
    hstep = direction * min(0.05, abs(z_end) / 10.0 + 1e-12)
    steps = 0
    while True:
        if direction * (z_end - z) <= 1e-14:
            return _OK, z, recorded
        limit = targets[next_target] if next_target < len(targets) else z_end
        if direction * (z + hstep - limit) > 0.0:
            hstep = limit - z

        gs_ = g + hstep * a21 * k1g
        qs_ = q + hstep * a21 * k1q
        zs_ = z + c2 * hstep
        k2g = qs_
        k2q = -zs_ * qs_ - two_pm1 * (gs_ - (gs_ if gs_ > 0.0 else 0.0) ** expo)

        gs_ = g + hstep * (a31 * k1g + a32 * k2g)
        qs_ = q + hstep * (a31 * k1q + a32 * k2q)
        zs_ = z + c3 * hstep
        k3g = qs_
        k3q = -zs_ * qs_ - two_pm1 * (gs_ - (gs_ if gs_ > 0.0 else 0.0) ** expo)

        gs_ = g + hstep * (a41 * k1g + a42 * k2g + a43 * k3g)
        qs_ = q + hstep * (a41 * k1q + a42 * k2q + a43 * k3q)
        zs_ = z + c4 * hstep
        k4g = qs_
        k4q = -zs_ * qs_ - two_pm1 * (gs_ - (gs_ if gs_ > 0.0 else 0.0) ** expo)

        gs_ = g + hstep * (a51 * k1g + a52 * k2g + a53 * k3g + a54 * k4g)
        qs_ = q + hstep * (a51 * k1q + a52 * k2q + a53 * k3q + a54 * k4q)
        zs_ = z + c5 * hstep
        k5g = qs_
        k5q = -zs_ * qs_ - two_pm1 * (gs_ - (gs_ if gs_ > 0.0 else 0.0) ** expo)

        gs_ = g + hstep * (a61 * k1g + a62 * k2g + a63 * k3g + a64 * k4g + a65 * k5g)
        qs_ = q + hstep * (a61 * k1q + a62 * k2q + a63 * k3q + a64 * k4q + a65 * k5q)
        zs_ = z + hstep
        k6g = qs_
        k6q = -zs_ * qs_ - two_pm1 * (gs_ - (gs_ if gs_ > 0.0 else 0.0) ** expo)

        g_new = g + hstep * (b1 * k1g + b3 * k3g + b4 * k4g + b5 * k5g + b6 * k6g)
        q_new = q + hstep * (b1 * k1q + b3 * k3q + b4 * k4q + b5 * k5q + b6 * k6q)
        k7g = q_new
        k7q = -zs_ * q_new - two_pm1 * (g_new - (g_new if g_new > 0.0 else 0.0) ** expo)

        err_g = hstep * (e1 * k1g + e3 * k3g + e4 * k4g + e5 * k5g + e6 * k6g + e7 * k7g)
        err_q = hstep * (e1 * k1q + e3 * k3q + e4 * k4q + e5 * k5q + e6 * k6q + e7 * k7q)
        sg = atol + rtol * max(abs(g), abs(g_new))
        sq = atol + rtol * max(abs(q), abs(q_new))
        err = math.sqrt(0.5 * ((err_g / sg) ** 2 + (err_q / sq) ** 2))

        if not math.isfinite(err):
            return _DIVERGED, z, recorded
        if err <= 1.0:
            z += hstep
            g, q, k1g, k1q = g_new, q_new, k7g, k7q
            if not (math.isfinite(g) and math.isfinite(q)):
                return _DIVERGED, z, recorded
            if g < RANGE_LO:
                return _LOW, z, recorded
            if g > RANGE_HI:
                return _HIGH, z, recorded
            if abs(g) > DIVERGE_G or \
                    abs(q) > DIVERGE_DGDY * exp_(-0.5 * z * z) * _INV_SQRT_2PI:
                return _DIVERGED, z, recorded
            if next_target < len(targets) and \
                    direction * (z - targets[next_target]) >= -1e-13:
                recorded.append((g, q))
                next_target += 1
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            factor = max(0.2, 0.9 * err ** -0.2)
        hstep *= factor
        steps += 1
        if steps > 500_000:
            return _DIVERGED, z, recorded


@dataclass(frozen=True)
class GCurve:
    """Discretized kernel g on [epsilon, 1 - epsilon].

    Arrays are aligned: ys ascending, gs the values, dgs the derivatives in
    the y coordinate.  zs and gzs hold the same data in the quantile
    coordinate and feed the residual check.  Treat all arrays as immutable.
    """

    p: float
    ys: np.ndarray
    gs: np.ndarray
    dgs: np.ndarray
    epsilon: float
    zs: np.ndarray = field(repr=False, default=None)
    gzs: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.zs is None:
            z = std_normal_quantile(self.ys)
            object.__setattr__(self, "zs", z)
            object.__setattr__(self, "gzs", self.dgs * std_normal_pdf(z))

    @cached_property
    def _hermite(self):
        # (z0, 1/dz, one row of Horner coefficients per grid cell) of the
        # cubic Hermite interpolant in z.  Built from (ys, gs, dgs) alone, so a
        # curve reloaded from CSV evaluates bit-identically to the original.
        # A level near 1 is held to ulp(1), moving its z by about ulp(1)/pdf(z)
        # (1e-11 at y = 1 - 1e-6); so the step is read on the lower half,
        # where levels keep their relative precision, and a node may sit
        # that far off the grid.
        zs = std_normal_quantile(self.ys)
        mid = max(1, int(np.argmin(np.abs(zs))))
        dz = (zs[mid] - zs[0]) / mid
        slack = 1e-9 * abs(dz) + 4.0 * np.finfo(float).eps / std_normal_pdf(zs)
        if np.any(np.abs(zs - zs[0] - dz * np.arange(len(zs))) > slack):
            raise UsageError("kernel evaluation needs the uniform quantile grid")
        slope = self.dgs * std_normal_pdf(zs) * dz  # g_z per cell width
        rise = np.diff(self.gs)
        s0, s1 = slope[:-1], slope[1:]
        coeffs = np.column_stack(
            (self.gs[:-1], s0, 3.0 * rise - 2.0 * s0 - s1, s0 + s1 - 2.0 * rise))
        return float(zs[0]), 1.0 / dz, coeffs

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
    """Calibrated midpoint data plus the full curve and boundary residuals."""

    g_mid: float
    gamma: float
    curve: GCurve
    left_residual: float
    right_residual: float


def _validate_inputs(p, g_mid, gamma, epsilon):
    if not (isinstance(p, (int, float)) and math.isfinite(p) and p > 1.0):
        raise DomainError("p must be a finite number > 1")
    if g_mid is not None and not (0.0 < g_mid < 1.0):
        raise DomainError("g_mid must lie strictly inside (0, 1)")
    if gamma is not None and not math.isfinite(gamma):
        raise DomainError("gamma must be finite")
    if not (0.0 < epsilon < 0.1):
        raise DomainError("epsilon must lie in (0, 0.1)")


def integrate_g(p, g_mid, gamma, epsilon=DEFAULT_EPSILON, *,
                atol=DEFAULT_ATOL, rtol=DEFAULT_RTOL):
    """Integrate the midpoint value problem outward to both cutoffs.

    Returns a GCurve on a grid uniform in the quantile coordinate.  Raises
    RangeError when the solution leaves [-0.01, 1.01] (a bad shooting pair)
    and DivergenceError on numerical blow-up, both carrying the level at
    which integration stopped.  The left branch is integrated first.
    """
    _validate_inputs(p, g_mid, gamma, epsilon)
    z_edge = -std_normal_quantile(epsilon)
    n_half = max(2, round(z_edge / GRID_DZ))
    dz = z_edge / n_half
    q0 = gamma * _INV_SQRT_2PI

    branches = {}
    for branch, sign in (("left", -1.0), ("right", 1.0)):
        targets = [sign * dz * k for k in range(1, n_half + 1)]
        status, z_stop, recorded = _propagate(
            p, sign * z_edge, g_mid, q0, atol, rtol, targets=targets)
        if status in (_LOW, _HIGH):
            raise RangeError(
                f"solution left [{RANGE_LO}, {RANGE_HI}] on the {branch} branch",
                y_fail=std_normal_cdf(z_stop), branch=branch, side=status)
        if status == _DIVERGED:
            raise DivergenceError(
                f"integration blew up on the {branch} branch",
                y_fail=std_normal_cdf(z_stop), branch=branch)
        if len(recorded) != n_half:
            raise DivergenceError(
                f"grid recording misaligned on the {branch} branch "
                f"({len(recorded)} of {n_half} nodes)",
                y_fail=std_normal_cdf(z_stop), branch=branch)
        branches[branch] = recorded

    zs = np.array([dz * k for k in range(-n_half, n_half + 1)])
    gz_pairs = ([branches["left"][k] for k in range(n_half - 1, -1, -1)]
                + [(g_mid, q0)]
                + branches["right"])
    gs = np.array([gg for gg, _ in gz_pairs])
    qs = np.array([qq for _, qq in gz_pairs])
    ys = std_normal_cdf(zs)
    dgs = qs / std_normal_pdf(zs)
    return GCurve(p=float(p), ys=ys, gs=gs, dgs=dgs, epsilon=float(epsilon),
                  zs=zs, gzs=qs)


def _newton(p, zs, g):
    """Solve the central-difference equations of
    g_zz + z g_z + 2 (p - 1) (g - g^{p/(p-1)}) = 0 on the uniform nodes zs
    by Newton's method, holding the end values of the start g fixed.

    Each step is one tridiagonal solve; iteration stops once no node moves
    by more than 1e-10.  Raises CalibrationError when that does not happen
    within _MAX_NEWTON steps.
    """
    expo = p / (p - 1.0)
    two_pm1 = 2.0 * (p - 1.0)
    h = zs[1] - zs[0]
    zi = zs[1:-1]
    band = np.zeros((3, len(zi)))
    band[0, 1:] = 1.0 / h ** 2 + zi[:-1] / (2.0 * h)   # superdiagonal
    band[2, :-1] = 1.0 / h ** 2 - zi[1:] / (2.0 * h)   # subdiagonal
    g = np.array(g, dtype=float)
    for _ in range(_MAX_NEWTON):
        gi = g[1:-1]
        pos = np.maximum(gi, 0.0)
        resid = ((g[2:] - 2.0 * gi + g[:-2]) / h ** 2
                 + zi * (g[2:] - g[:-2]) / (2.0 * h)
                 + two_pm1 * (gi - pos ** expo))
        band[1] = -2.0 / h ** 2 + two_pm1 * (1.0 - expo * pos ** (expo - 1.0))
        step = solve_banded((1, 1), band, resid)
        g[1:-1] -= step
        if not np.all(np.isfinite(g)):
            break
        if np.max(np.abs(step)) <= 1e-10:
            return g
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
    return GCurve(p=float(p), ys=std_normal_cdf(zs), gs=snapped_gs,
                  dgs=snapped_gzs / std_normal_pdf(zs), epsilon=float(epsilon),
                  zs=zs, gzs=snapped_gzs)


def shoot(p, epsilon=DEFAULT_EPSILON, boundary_tol=DEFAULT_BOUNDARY_TOL):
    """Calibrate the kernel with g = 1 at y = epsilon and g = 0 at
    y = 1 - epsilon, and return it with its midpoint value and slope.

    Newton's method on the central-difference equations in z (see _newton),
    started from the chord between the two end values, solves on the
    stored grid and again on the grid of half its step, started from the
    first solution; the stored values are the Richardson combination
    (4 fine - coarse) / 3 and the stored slopes their fourth-order
    differences.  gamma is dg/dy at y = 1/2.  Raises CalibrationError when
    Newton does not converge, when the solution is not monotone within
    [0, 1], or when the boundary residuals exceed boundary_tol.
    """
    _validate_inputs(p, None, None, epsilon)
    if not (0.0 < boundary_tol < 0.5):
        raise DomainError("boundary_tol must lie in (0, 0.5)")
    z_edge = -std_normal_quantile(epsilon)
    n_half = max(2, round(z_edge / GRID_DZ))
    dz = z_edge / n_half
    zs = dz * np.arange(-n_half, n_half + 1)
    coarse = _newton(p, zs, 0.5 - zs / (2.0 * zs[-1]))
    fine_zs = 0.5 * dz * np.arange(-2 * n_half, 2 * n_half + 1)
    fine = _newton(p, fine_zs, np.interp(fine_zs, zs, coarse))
    curve = _snapped(p, epsilon, zs, (4.0 * fine[::2] - coarse) / 3.0)
    g_mid = float(curve.gs[n_half])
    gamma = float(curve.gzs[n_half]) * math.sqrt(2.0 * math.pi)
    left_res, right_res = curve.left_residual, curve.right_residual
    if left_res > boundary_tol or right_res > boundary_tol:
        raise CalibrationError(
            "boundary residuals exceed tolerance",
            diagnostics={"p": p, "g_mid": g_mid, "gamma": gamma,
                         "left_residual": left_res, "right_residual": right_res,
                         "boundary_tol": boundary_tol})
    return ShootingResult(g_mid=g_mid, gamma=gamma, curve=curve,
                          left_residual=left_res, right_residual=right_res)


def eval_g_z(curve, z, y=None, *, slope=False):
    """Kernel value at quantile coordinates z (a 1-d array), and with slope
    set also the z-derivative g_z: returns g or (g, g_z).

    Inside the stored range this is the cubic Hermite interpolant in z
    through the stored values and slopes, with the cell found by arithmetic
    on the uniform grid.  Outside, it is the linear extrapolation in the
    level y = cdf(z) from the nearest end, clamped into [0, 1], with the
    end's y-slope.  y, when the caller holds the levels, spares the cdf
    there.
    """
    z0, inv_dz, coeffs = curve._hermite
    n_cells = len(coeffs)
    u = (z - z0) * inv_dz
    k = u.astype(np.intp)
    np.clip(k, 0, n_cells - 1, out=k)
    t = u - k
    a0, a1, a2, a3 = np.take(coeffs, k, axis=0).T
    g = ((a3 * t + a2) * t + a1) * t + a0
    gz = ((3.0 * a3 * t + 2.0 * a2) * t + a1) * inv_dz if slope else None
    ys, gs, dgs = curve.ys, curve.gs, curve.dgs
    for tail, end in ((u < 0.0, 0), (u > n_cells, -1)):
        if np.any(tail):
            yt = std_normal_cdf(z[tail]) if y is None else y[tail]
            g[tail] = np.clip(gs[end] + dgs[end] * (yt - ys[end]), 0.0, 1.0)
            if slope:
                gz[tail] = dgs[end] * std_normal_pdf(z[tail])
    return (g, gz) if slope else g


def eval_g(curve, y):
    """Value and derivative dg/dy of the curve at level(s) y in (0, 1).

    eval_g_z at z = quantile(y).  Exact node hits return the stored value
    and derivative; outside the stored range the derivative is the end's.
    """
    arr = np.asarray(y, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("y must lie strictly inside (0, 1)")
    scalar = np.ndim(y) == 0
    arr = np.atleast_1d(arr)
    z = std_normal_quantile(arr)
    g_out, gz = eval_g_z(curve, z, arr, slope=True)
    dg_out = gz / std_normal_pdf(z)

    ys, gs, dgs = curve.ys, curve.gs, curve.dgs
    dg_out[arr < ys[0]] = dgs[0]
    dg_out[arr > ys[-1]] = dgs[-1]
    idx = np.minimum(np.searchsorted(ys, arr), len(ys) - 1)
    at_node = ys[idx] == arr
    g_out[at_node] = gs[idx[at_node]]
    dg_out[at_node] = dgs[idx[at_node]]

    if scalar:
        return float(g_out[0]), float(dg_out[0])
    return g_out, dg_out


def eval_g_value(curve, y):
    """eval_g's value without the derivative, vectorized.

    Returns a float for scalar input, an array otherwise.
    """
    scalar = np.ndim(y) == 0
    arr = np.atleast_1d(np.asarray(y, dtype=float))
    out = eval_g_z(curve, std_normal_quantile(arr), arr)
    return float(out[0]) if scalar else out


def value_function(curve, params):
    """(1-x)^p / T^{p-1} * g(cdf(c / sqrt(T))) for a calibrated curve."""
    params = curve.check_params(params)
    if params.x == 1.0:
        return 0.0
    level = std_normal_cdf(params.c / math.sqrt(params.T))
    g_val, _ = eval_g(curve, level)
    return (1.0 - params.x) ** params.p / params.T ** (params.p - 1.0) * g_val


def ode_residuals(curve):
    """|h g'' + (p-1)(g - g^{p/(p-1)})| at interior collocation points.

    g'' comes from a five-point divided difference of the stored first
    derivative in the quantile coordinate, where h g'' equals
    (g_zz + z g_z) / 2; the nonlinear term uses the stored values.  The
    returned array covers nodes with a full stencil (two neighbors each
    side), which is the collocation set the residual contract refers to.
    """
    z, g, q = curve.zs, curve.gs, curve.gzs
    dz = np.diff(z)
    if np.max(np.abs(dz - dz[0])) > 1e-9 * np.abs(dz[0]):
        raise UsageError("residual check needs the uniform quantile grid")
    step = dz[0]
    g_zz = (-q[4:] + 8.0 * q[3:-1] - 8.0 * q[1:-3] + q[:-4]) / (12.0 * step)
    zi, gi = z[2:-2], g[2:-2]
    nonlinear = (curve.p - 1.0) * (gi - np.maximum(gi, 0.0) ** (curve.p / (curve.p - 1.0)))
    return np.abs(0.5 * (g_zz + zi * q[2:-2]) + nonlinear)


def curve_invariant_report(curve, *, concavity_tol=1e-6, lower_bound_tol=1e-6,
                           residual_tol=1e-7):
    """Check the curve contracts; returns a dict of name -> (ok, worst value)."""
    ys, gs, dgs = curve.ys, curve.gs, curve.dgs
    report = {}
    report["range"] = (bool(np.all((gs >= 0.0) & (gs <= 1.0))),
                       float(min(np.min(gs), 1.0 - np.max(gs))))
    mono = np.max(np.diff(gs)) if len(gs) > 1 else 0.0
    report["monotone"] = (bool(mono <= 1e-9 and np.max(dgs) <= 1e-9),
                          float(max(mono, np.max(dgs))))
    second = np.diff(gs, 2)
    report["concave"] = (bool(np.max(second) <= concavity_tol), float(np.max(second)))
    lb = np.min(gs - (1.0 - ys) ** curve.p)
    report["lower_bound"] = (bool(lb >= -lower_bound_tol), float(lb))
    res = ode_residuals(curve)
    report["ode_residual"] = (bool(np.max(res) <= residual_tol), float(np.max(res)))
    return report


def save_curve(curve, csv_path, sidecar_path, meta=None):
    """Write the grid as CSV (`y,g,dg`, 17 significant digits) plus a JSON
    sidecar with the calibration summary."""
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "g", "dg"])
        for y, g, dg in zip(curve.ys, curve.gs, curve.dgs):
            writer.writerow([f"{y:.17g}", f"{g:.17g}", f"{dg:.17g}"])
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
    """Inverse of save_curve; returns (GCurve, sidecar dict)."""
    with open(sidecar_path) as fh:
        sidecar = json.load(fh)
    rows = []
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["y", "g", "dg"]:
            raise UsageError(f"unexpected curve CSV header: {header}")
        for row in reader:
            rows.append((float(row[0]), float(row[1]), float(row[2])))
    arr = np.array(rows)
    curve = GCurve(p=float(sidecar["p"]), ys=arr[:, 0], gs=arr[:, 1],
                   dgs=arr[:, 2], epsilon=float(sidecar["epsilon"]))
    return curve, sidecar
