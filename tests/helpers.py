"""Independent numerical oracles, test-only diagnostics and the CLI runner
used by the tests.

The oracles stay deliberately separate from the package implementations:
the normal cdf oracle integrates the density with composite Gauss-Legendre
panels, the scalar minimization oracle scans a dense grid, the lattice
reference sweeps every node of the triangle with the split a* = rho/(1+rho),
and the kernel reference integrates the initial-value problem from a
midpoint pair with SciPy's DOP853 (Hairer, Norsett & Wanner 1993) instead of
solving the boundary-value problem by Howard's policy iteration.  The reference curve
writer goes row by row through the csv module, which fixes the bytes the
package's one-pass writer must reproduce.

inner_min (the Bellman split with its minimizer) and refinement_gap are
test-only wrappers: they call walk._bellman_min and walk.dp_value, so the
tests that use them check the package's own lattice code.
mc_estimate_and_costs likewise runs the package's own Monte Carlo stream
(sim._chunks, sim._drive_block) and also returns the per-path costs
that paired comparisons need; its own reduction of them checks
sim._mean_stderr bit for bit.

reference_increments draws a whole stream block straight from Philox, chunk
by chunk, apart from the package's chunk stream.  reference_brownian and
reference_drive_block are the Monte Carlo path generator and feedback drive
as they were before the simulator drove each block from its increments: a
matrix of Brownian values built by np.cumsum.
reference_eval_g_z is the kernel evaluator with an integer cell index and
its tails written by mask, where the package's version reads end rows of
its table.  The package's versions must match them bit for bit.  reference_path is the
filled path as it was built one at a time before sim.recorded_paths drew
each block once: its row alone, its W by np.cumsum, driven from one array
of all its steps.
"""

import csv
import math
import os
import subprocess
import sys
from contextlib import closing
from pathlib import Path

import numpy as np

import targetcost
from targetcost.errors import DomainError
from targetcost.ode import eval_g_z
from targetcost.sim import (BLOCK, CHUNK, BsdeResidualStats, SimPath,
                            _chunks, _drive_block, _gain)
from targetcost.walk import _bellman_min, dp_value

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
    return rho / (1.0 + rho), float(_bellman_min(max(kappa1, kappa2),
                                                 min(kappa1, kappa2), p))


def refinement_gap(n, T, c, p, tie="geq"):
    """|dp_value(2n) - dp_value(n)|, the measured discretization scale."""
    return abs(dp_value(2 * n, T, c, p, tie=tie) - dp_value(n, T, c, p, tie=tie))


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


def _band_event(bound):
    def event(z, y):
        return y[0] - bound
    event.terminal = True
    return event


def reference_ivp(p, g_mid, gamma, nodes):
    """The kernel equation g_zz = -z g_z - 2 (p-1) (g - g^{p/(p-1)}) as an
    initial-value problem from g = g_mid, g_z = gamma / sqrt(2 pi) at z = 0,
    integrated outward by DOP853 (rtol 1e-11, atol 1e-12) onto nodes: an
    ascending array holding z = 0, each side integrated on its own.

    Returns (gs, gzs, exit): values and z-slopes on the nodes, or, when g
    leaves [-0.01, 1.01], (None, None, (branch, side, z)) with the branch
    ('left' or 'right'), the bound crossed ('low' or 'high') and the z where
    it crosses.
    """
    from scipy.integrate import solve_ivp

    nodes = np.asarray(nodes, dtype=float)
    zero = np.flatnonzero(nodes == 0.0)
    if len(zero) != 1:
        raise ValueError("reference_ivp needs nodes holding z = 0")
    sides = (("left", nodes[zero[0]::-1]), ("right", nodes[zero[0]:]))
    expo, two_pm1 = p / (p - 1.0), 2.0 * (p - 1.0)

    def rhs(z, y):
        g, gz = y
        return [gz, -z * gz - two_pm1 * (g - max(g, 0.0) ** expo)]

    events = [_band_event(-0.01), _band_event(1.01)]
    halves = []
    for branch, side_nodes in sides:
        sol = solve_ivp(rhs, (0.0, side_nodes[-1]),
                        [g_mid, gamma * _INV_SQRT_2PI], method="DOP853",
                        t_eval=side_nodes, events=events, rtol=1e-11,
                        atol=1e-12)
        if sol.status == 1:
            crossed = 0 if len(sol.t_events[0]) else 1
            return None, None, (branch, ("low", "high")[crossed],
                                float(sol.t_events[crossed][0]))
        if sol.status != 0:
            raise RuntimeError(sol.message)
        halves.append(sol.y)
    left, right = halves
    return (np.concatenate((left[0][:0:-1], right[0])),
            np.concatenate((left[1][:0:-1], right[1])), None)


def exponential_form_control(curve, params, path):
    """The closed-form representation of the feedback control along a fixed
    path: u_t = (1-x) * gain_t / (T-t) * exp(-integral of gain_s / (T-s) ds),
    with the integral accumulated per step at frozen gain (exact logs).
    Agrees with the feedback recursion up to floating-point roundoff.
    """
    p, T, x, c = params.p, params.T, params.x, params.c
    times, W = path.times, path.W
    n = len(times) - 1
    u = np.zeros(n)
    log_decay = 0.0
    for k in range(n - 1):
        tau = T - times[k]
        kappa = _gain(curve, p, np.atleast_1d((c - W[k]) / math.sqrt(tau)))[0]
        u[k] = (1.0 - x) * kappa / tau * math.exp(log_decay)
        log_decay += kappa * math.log((T - times[k + 1]) / tau)
    return u


def terminal_blowup_medians(curve, p, T, c, n_paths, n_steps, deltas, seed):
    """Median of Y = g / (T-t)^{p-1} at T - delta, separately on binding and
    non-binding paths of the Monte Carlo stream layout."""
    times = np.linspace(0.0, T, n_steps + 1)
    _dW, W = reference_brownian(seed, 0, n_paths, n_steps,
                                math.sqrt(T / n_steps))
    bind = W[:, -1] > c
    out = {}
    for delta in deltas:
        k = int(np.searchsorted(times, T - delta + 1e-12))
        k = min(max(k, 1), n_steps - 1)
        tau = T - times[k]
        y = eval_g_z(curve, (c - W[:, k]) / math.sqrt(tau)) / tau ** (p - 1.0)
        out[float(delta)] = (float(np.median(y[bind])),
                            float(np.median(y[~bind])))
    return out


def reference_increments(seed, block, rows, n_steps, sqrt_dt):
    """The leading rows of a stream block's increments, all steps: chunk j,
    steps [CHUNK * j, CHUNK * j + CHUNK), drawn path-major from Philox keyed
    by (seed, block) with its counter at j << 192, then scaled."""
    out = np.empty((rows, n_steps))
    key = np.array([seed, block], dtype=np.uint64)
    for k0 in range(0, n_steps, CHUNK):
        bits = np.random.Philox(key=key, counter=(k0 // CHUNK) << 192)
        width = min(CHUNK, n_steps - k0)
        out[:, k0:k0 + width] = (np.random.Generator(bits).standard_normal(
            (rows, width)) * sqrt_dt)
    return out


def reference_brownian(seed, i0, i1, n_steps, sqrt_dt):
    """Increments dW and running values W (W[:, 0] = 0) of the paths with
    index in [i0, i1), block layout preserved."""
    pieces = []
    b0, b1 = i0 // BLOCK, (i1 - 1) // BLOCK
    for b in range(b0, b1 + 1):
        lo = max(i0, b * BLOCK) - b * BLOCK
        hi = min(i1, (b + 1) * BLOCK) - b * BLOCK
        rows = reference_increments(seed, b, hi, n_steps, sqrt_dt)
        pieces.append(rows[lo:hi])
    dW = np.concatenate(pieces) if len(pieces) > 1 else pieces[0]
    W = np.zeros((i1 - i0, n_steps + 1))
    np.cumsum(dW, axis=1, out=W[:, 1:])
    return dW, W


def reference_path(curve, params, n_steps, seed, index):
    """Path `index` of the stream layout, filled: row index mod BLOCK of its
    block's increments, driven alone by sim._drive_block."""
    params = curve.check_params(params)
    times = np.linspace(0.0, params.T, n_steps + 1)
    block, row = divmod(index, BLOCK)
    dW = reference_increments(seed, block, row + 1, n_steps,
                              math.sqrt(params.T / n_steps))[row]
    _cost, _viol, (_W, M, u, X, cost) = _drive_block(
        curve, params, times, [dW[None, :]], record=True)
    return SimPath(n_steps=n_steps, times=times, dW=dW,
                   W=np.concatenate(([0.0], np.cumsum(dW))), seed=seed,
                   M=M[0], u=u[0], X=X[0], cost=cost[0])


def reference_drive_block(curve, params, times, W):
    """Per-path cost and violation count of the feedback control on the
    rows of the Brownian-value matrix W."""
    p, T, x, c = params.p, params.T, params.x, params.c
    n = len(times) - 1
    omx = np.full(W.shape[0], 1.0 - x)
    cost = np.zeros(W.shape[0])
    for k in range(n - 1):
        t_k, t_next = times[k], times[k + 1]
        tau = T - t_k
        kappa = _gain(curve, p, (c - W[:, k]) / math.sqrt(tau))
        u = kappa * omx / tau
        cost += (u * u if p == 2.0 else u ** p) * (t_next - t_k)
        omx *= np.exp(kappa * math.log((T - t_next) / tau))
    delta = times[n] - times[n - 1]
    bind = W[:, n] > c
    u_last = np.where(bind, omx / delta, 0.0)
    cost += u_last ** p * delta
    X_T = np.where(bind, 1.0, 1.0 - omx)
    violations = int(np.sum((X_T + 1e-12 < bind.astype(float))
                            | (X_T > 1.0 + 1e-12)))
    return cost, violations


def reference_mc_costs(curve, params, n_paths, n_steps, seed):
    """Per-path costs and the violation count, one block at a time."""
    times = np.linspace(0.0, params.T, n_steps + 1)
    sqrt_dt = math.sqrt(params.T / n_steps)
    costs, violations = [], 0
    for i0 in range(0, n_paths, BLOCK):
        _dW, W = reference_brownian(seed, i0, min(i0 + BLOCK, n_paths),
                                    n_steps, sqrt_dt)
        cost, viol = reference_drive_block(curve, params, times, W)
        costs.append(cost)
        violations += viol
    return np.concatenate(costs), violations


def mc_estimate_and_costs(curve, params, n_paths, n_steps, seed):
    """mc_cost_estimate's (mean, stderr, violations) and, fourth, its
    per-path costs in path order: the same chunks from sim._chunks, driven
    block by block by sim._drive_block and reduced the same way."""
    params = curve.check_params(params)
    times = np.linspace(0.0, params.T, n_steps + 1)
    costs, violations = [], 0
    with closing(_chunks(seed, n_paths, n_steps, params.T, n_steps)) as stream:
        for _ in range(0, n_paths, BLOCK):
            cost, viol, _ = _drive_block(curve, params, times, stream)
            costs.append(cost)
            violations += viol
    costs = np.concatenate(costs)
    mean = math.fsum(costs) / n_paths
    stderr = 0.0
    if n_paths > 1:
        var = math.fsum((costs - mean) ** 2) / (n_paths - 1)
        stderr = math.sqrt(var / n_paths)
    return mean, stderr, violations, costs


def reference_bsde_residual(curve, p, T, c, n_paths, n_steps, delta, seed):
    """bsde_residual's statistics from the Brownian-value matrix of each
    block."""
    times = np.linspace(0.0, T, n_steps + 1)
    dt = T / n_steps
    k_end = int(np.searchsorted(times, T - delta + 1e-12)) - 1
    expo = p / (p - 1.0)

    def y_and_z(t, w_col):
        tau = T - t
        gval, gz = eval_g_z(curve, (c - w_col) / math.sqrt(tau), slope=True)
        return gval / tau ** (p - 1.0), -gz / tau ** (p - 0.5)

    sums, sq_sums, z_min = [], [], math.inf
    for i0 in range(0, n_paths, BLOCK):
        dW, W = reference_brownian(seed, i0, min(i0 + BLOCK, n_paths), n_steps,
                                   math.sqrt(dt))
        path_sum, sq_sum = np.zeros(len(dW)), 0.0
        y_k, z_k = y_and_z(times[0], W[:, 0])
        for k in range(k_end):
            y_next, z_next = y_and_z(times[k + 1], W[:, k + 1])
            r = (y_next - y_k) - (p - 1.0) * y_k ** expo * dt - z_k * dW[:, k]
            path_sum += r
            sq_sum += float(np.dot(r, r))
            z_min = min(z_min, float(np.min(z_k)))
            y_k, z_k = y_next, z_next
        sums.append(path_sum)
        sq_sums.append(sq_sum)
    per_path_mean = np.concatenate(sums) / k_end
    mean = math.fsum(per_path_mean) / n_paths
    var = math.fsum((per_path_mean - mean) ** 2) / max(n_paths - 1, 1)
    return BsdeResidualStats(
        n_paths=n_paths, n_steps=n_steps, delta=float(delta),
        mean_residual=mean, stderr=math.sqrt(var / n_paths),
        rms_residual=math.sqrt(math.fsum(sq_sums) / (n_paths * k_end)),
        z_min=z_min, window_steps=k_end)


def reference_eval_g_z(curve, z, *, slope=False):
    """eval_g_z with the cell index taken as an integer and clipped, and the
    end values written into both tails by mask."""
    z0, inv_dz, coeffs = curve._hermite
    coeffs = coeffs[:-2]  # the grid cells, without the two end rows
    n_cells = len(coeffs)
    u = (z - z0) * inv_dz
    k = u.astype(np.intp)
    np.clip(k, 0, n_cells - 1, out=k)
    t = u - k
    a0, a1, a2, a3 = np.take(coeffs, k, axis=0).T
    g = ((a3 * t + a2) * t + a1) * t + a0
    gz = ((3.0 * a3 * t + 2.0 * a2) * t + a1) * inv_dz
    for tail, end in ((u < 0.0, 0), (u >= n_cells, -1)):
        g[tail] = curve.gs[end]
        gz[tail] = 0.0
    return (g, gz) if slope else g


def reference_write_curve_csv(curve, csv_path):
    """The curve CSV written row by row through csv.writer, the way
    save_curve wrote it before it formatted all rows at once."""
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["z", "g", "g_z"])
        for z, g, gz in zip(curve.zs, curve.gs, curve.gzs):
            writer.writerow([f"{z:.17g}", f"{g:.17g}", f"{gz:.17g}"])


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
