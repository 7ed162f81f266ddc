"""Brownian path simulation, the optimal feedback control, and the
pathwise verification of the associated backward equation.

Controls follow the feedback law u = gain * (1 - X) / (T - t) with gain
g(M)^{1/(p-1)} evaluated at the current conditional level M.  The state
update uses the exact solution of the linear step ODE with the gain frozen
over the step:  1 - X_{k+1} = (1 - X_k) * ((T - t_{k+1}) / (T - t_k))^gain.
The control blows up like 1/(T-t), and this frozen-gain step stays stable
where an explicit Euler update would not.  The final step closes the gap
exactly on paths where the terminal constraint binds (realized W_T > c,
known to the simulator, not to the controller: on those paths the feedback
gain tends to 1 anyway and the charged completion cost vanishes in
expectation as the grid refines).

Randomness: paths are grouped into fixed blocks of 4096 and steps into
fixed chunks of 64.  Chunk j of block b of master seed s holds steps
[64j, 64j + 64) of the block's paths, drawn path-major from Philox keyed by
(s, b) with its counter at j << 192; path i is row i mod 4096 of its block,
so any path can be regenerated from (seed, index) alone, and a run of at
most 64 steps draws what it drew before steps were chunked.  One stream,
_chunks, yields the chunks (blocks in path order, a block's chunks in step
order) to mc_cost_estimate, bsde_residual and recorded_paths (the filled
paths `simulate --dump-paths` writes).  A helper thread draws the next
chunk while the caller drives one (the Philox fill, its scaling and the
copy into step-major order run outside the interpreter lock), so the first
two routes hold about two chunks (4 MB) at a time; a dump builds each block
whole (65 MB at 2000 steps).  A request past MAX_LIVE_BYTES raises
ResourceError before any draw.  Blocks are driven from their increments
with a running sum, and aggregated in path order with exact summation.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .normals import std_normal_cdf
from .ode import eval_g_z

BLOCK = 4096  # paths per stream block; fixed so layout never affects results
CHUNK = 64  # steps per stream chunk; fixed for the same reason
_RECORD_ROWS = 256  # paths recorded step by step at once, to bound memory
_DRAW_ELEMS = 1 << 15  # increments drawn per run of rows: 256 KB, cache-sized
MAX_LIVE_BYTES = 2 << 30  # cap on two blocks of increments (see _check_mc)


@dataclass
class SimPath:
    """One trajectory driven by the feedback control.

    u[k] is the rate held on [t_k, t_{k+1}); the final entry repeats the
    last step's rate so the array aligns with the time grid.
    """

    n_steps: int
    times: np.ndarray
    dW: np.ndarray
    W: np.ndarray
    seed: int
    M: np.ndarray
    u: np.ndarray
    X: np.ndarray
    cost: np.ndarray


@dataclass(frozen=True)
class BsdeResidualStats:
    """Euler residuals of the backward pair over the window [0, T - delta]."""

    n_paths: int
    n_steps: int
    delta: float
    mean_residual: float
    stderr: float
    rms_residual: float
    z_min: float
    window_steps: int


def _block_increments(seed, block, chunk, rows, n_steps, sqrt_dt):
    """Chunk `chunk` of a stream block's increments (leading rows of it):
    steps [CHUNK * chunk, CHUNK * chunk + CHUNK) of the n_steps.

    The array is in Fortran order, so that one step of every path, the
    column the drive reads, is contiguous.  The stream fills row after row,
    so it is drawn in cache-sized runs of rows, each scaled and copied in
    while it is hot.
    """
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, block], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key, counter=chunk << 192))
    width = min(CHUNK, n_steps - CHUNK * chunk)
    out = np.empty((rows, width), order="F")
    run = max(1, _DRAW_ELEMS // width)
    for r0 in range(0, rows, run):
        rows_drawn = rng.standard_normal((min(run, rows - r0), width))
        rows_drawn *= sqrt_dt
        out[r0:r0 + run] = rows_drawn
    return out


def _check_mc(n_steps, n_paths):
    """The counts every path generator takes: an integer step count >= 2
    and an integer path count >= 1, with two blocks of increments within
    MAX_LIVE_BYTES.  The bound is the memory of a dump's whole block (and
    of the two blocks alive at once before steps were chunked); it holds on
    every route, so each accepts exactly the requests it accepted then."""
    if not (isinstance(n_steps, (int, np.integer)) and n_steps >= 2):
        raise DomainError("n_steps must be an integer >= 2")
    if not (isinstance(n_paths, (int, np.integer)) and n_paths >= 1):
        raise DomainError("n_paths must be an integer >= 1")
    live = 2 * min(BLOCK, n_paths) * n_steps * 8
    if live > MAX_LIVE_BYTES:
        raise ResourceError(
            f"two blocks of {min(BLOCK, n_paths)} paths x {n_steps} steps "
            f"need {live / 2**30:.1f} GiB of increments, over the "
            f"{MAX_LIVE_BYTES / 2**30:g} GiB limit")


def _gain(curve, p, zscore):
    """Feedback gain g(M)^{1/(p-1)} at the level M = cdf(zscore)."""
    return eval_g_z(curve, zscore) ** (1.0 / (p - 1.0))


def _drive_block(curve, params, times, chunks, *, record=False):
    """Run the feedback control on a block of paths, keeping each path's
    running Brownian value.  Its increments (rows are paths) are read step
    by step from `chunks`, in step order, and only the block's n steps are
    read, so `chunks` may be a stream that goes on to the next block.

    Returns (cost, violations) plus, when record is set, the full
    (W, M, u, X, cost_running) arrays, else None.
    """
    p, T, x, c = params.p, params.T, params.x, params.c
    n = len(times) - 1
    steps = (dw for dW in chunks for dw in dW.T)  # the columns dW[:, k]
    dw = next(steps)
    n_paths = len(dw)
    w = np.zeros(n_paths)  # W at t_k; the same additions np.cumsum makes
    omx = np.full(n_paths, 1.0 - x)  # tracks 1 - X exactly
    cost = np.zeros(n_paths)
    if record:
        W_rec = np.empty((n_paths, n + 1))
        M_rec = np.empty((n_paths, n + 1))
        u_rec = np.empty((n_paths, n + 1))
        X_rec = np.empty((n_paths, n + 1))
        c_rec = np.empty((n_paths, n + 1))

    for k in range(n - 1):
        t_k, t_next = times[k], times[k + 1]
        tau = T - t_k
        zscore = (c - w) / math.sqrt(tau)
        kappa = _gain(curve, p, zscore)
        u = kappa * omx / tau
        if record:
            W_rec[:, k] = w
            M_rec[:, k] = std_normal_cdf(zscore)
            u_rec[:, k] = u
            X_rec[:, k] = 1.0 - omx
            c_rec[:, k] = cost
        cost += u ** p * (t_next - t_k)
        omx *= np.exp(kappa * math.log((T - t_next) / tau))
        w += dw
        dw = next(steps)

    # Final step [T - delta, T]: close the gap at constant speed on paths
    # where the realized terminal constraint binds, stand still otherwise.
    delta = times[n] - times[n - 1]
    w_T = w + dw
    bind = w_T > c
    u_last = np.where(bind, omx / delta, 0.0)
    if record:
        t_k = times[n - 1]
        W_rec[:, n - 1] = w
        M_rec[:, n - 1] = std_normal_cdf((c - w) / math.sqrt(T - t_k))
        u_rec[:, n - 1] = u_last
        X_rec[:, n - 1] = 1.0 - omx
        c_rec[:, n - 1] = cost
    cost += u_last ** p * delta
    X_T = np.where(bind, 1.0, 1.0 - omx)

    violations = int(np.sum((X_T + 1e-12 < bind.astype(float))
                            | (X_T > 1.0 + 1e-12)))
    if not record:
        return cost, violations, None
    W_rec[:, n] = w_T
    M_rec[:, n] = (w_T < c).astype(float)
    u_rec[:, n] = u_last
    X_rec[:, n] = X_T
    c_rec[:, n] = cost
    return cost, violations, (W_rec, M_rec, u_rec, X_rec, c_rec)


def _mean_stderr(values):
    """Mean of the per-path values by exact summation, and its standard
    error with the n - 1 divisor (0.0 for a single path)."""
    n = len(values)
    mean = math.fsum(values) / n
    if n == 1:
        return mean, 0.0
    var = math.fsum((values - mean) ** 2) / (n - 1)
    return mean, math.sqrt(var / n)


def _chunks(seed, n_paths, n_steps, T, steps):
    """The increments of paths 0 .. n_paths - 1 at steps 0 .. steps - 1,
    chunk by chunk: block after block in path order, a block's chunks in
    step order, the one holding step steps - 1 drawn whole.  A helper thread
    draws the next chunk while the caller works on one; it is joined when
    the stream ends, raises or is closed."""
    # Imported here, so that commands which draw no paths do not pay for it
    # at start-up.
    from concurrent.futures import ThreadPoolExecutor

    sqrt_dt = math.sqrt(T / n_steps)
    order = [(seed, i0 // BLOCK, j, min(BLOCK, n_paths - i0), n_steps, sqrt_dt)
             for i0 in range(0, n_paths, BLOCK)
             for j in range(-(-steps // CHUNK))]
    with ThreadPoolExecutor(max_workers=1) as helper:
        upcoming = helper.submit(_block_increments, *order[0])
        for following in order[1:]:
            chunk = upcoming.result()
            upcoming = helper.submit(_block_increments, *following)
            yield chunk
        yield upcoming.result()


def recorded_paths(curve, params, n_steps, seed, count):
    """Filled paths 0, 1, ..., count - 1 of the stream, in order: each block
    built from its chunks, then its rows driven _RECORD_ROWS at a time."""
    params = curve.check_params(params)
    _check_mc(n_steps, max(count, 1))
    times = np.linspace(0.0, params.T, n_steps + 1)
    with closing(_chunks(seed, count, n_steps, params.T, n_steps)) as stream:
        for i0 in range(0, count, BLOCK):
            block = np.empty((min(BLOCK, count - i0), n_steps), order="F")
            for k0 in range(0, n_steps, CHUNK):
                block[:, k0:k0 + CHUNK] = next(stream)
            for r0 in range(0, len(block), _RECORD_ROWS):
                dW = block[r0:r0 + _RECORD_ROWS]
                _, _, (W, M, u, X, cost) = _drive_block(
                    curve, params, times, [dW], record=True)
                for j in range(len(dW)):
                    yield SimPath(n_steps=int(n_steps), times=times,
                                  dW=dW[j], W=W[j], seed=int(seed), M=M[j],
                                  u=u[j], X=X[j], cost=cost[j])


def mc_cost_estimate(curve, params, n_paths, n_steps, seed):
    """Sample mean and standard error of the per-path realized cost.

    Deterministic given the seed: path i is row i mod BLOCK of stream block
    i // BLOCK, the blocks are driven one after another, each chunk by
    chunk, and their costs are reduced in path order with exact summation.
    Also returns the feasibility violation count as third element.
    """
    params = curve.check_params(params)
    _check_mc(n_steps, n_paths)
    times = np.linspace(0.0, params.T, n_steps + 1)
    costs, violations = [], 0
    with closing(_chunks(seed, n_paths, n_steps, params.T, n_steps)) as stream:
        for _ in range(0, n_paths, BLOCK):
            cost, viol, _ = _drive_block(curve, params, times, stream)
            costs.append(cost)
            violations += viol
    mean, stderr = _mean_stderr(np.concatenate(costs))
    return mean, stderr, violations


def bsde_residual(curve, p, T, c, n_paths, n_steps, delta, seed):
    """Per-step Euler residuals of the explicit backward pair.

    Y_t = g(M_t) / (T-t)^{p-1} and Z_t = -g_z / (T-t)^{p-1/2}, with g and
    its z-derivative g_z taken at the z-score (c - W_t) / sqrt(T-t); the
    residual on each step inside [0, T - delta] is
    r_k = dY_k - (p-1) Y_k^{p/(p-1)} dt - Z_k dW_k.  Reports the mean (with
    a per-path standard error), the root mean square, and the smallest Z.
    """
    curve.check_params((p, T, 0.0, c))
    _check_mc(n_steps, n_paths)
    if not (0.0 < delta < T / 2.0):
        raise DomainError("delta must lie in (0, T/2)")
    times = np.linspace(0.0, T, n_steps + 1)
    dt = T / n_steps
    # steps k with t_{k+1} <= T - delta
    k_end = int(np.searchsorted(times, T - delta + 1e-12)) - 1
    if k_end < 1:
        raise DomainError("window [0, T - delta] contains no full step")
    expo = p / (p - 1.0)

    def y_and_z(t, w_col):
        tau = T - t
        gval, gz = eval_g_z(curve, (c - w_col) / math.sqrt(tau), slope=True)
        return gval / tau ** (p - 1.0), -gz / tau ** (p - 0.5)

    path_sums, sq_sums, z_min = [], [], math.inf
    # Only the chunks of the window's steps are drawn.
    with closing(_chunks(seed, n_paths, n_steps, T, k_end)) as stream:
        for i0 in range(0, n_paths, BLOCK):
            # running W: the additions np.cumsum makes
            w = np.zeros(min(BLOCK, n_paths - i0))
            path_sum = np.zeros(len(w))
            sq_sum = 0.0
            y_k, z_k = y_and_z(times[0], w)
            steps = (dw for dW in stream for dw in dW.T)  # columns dW[:, k]
            for k, dw in zip(range(k_end), steps):
                w += dw
                y_next, z_next = y_and_z(times[k + 1], w)
                r = (y_next - y_k) - (p - 1.0) * y_k ** expo * dt - z_k * dw
                path_sum += r
                sq_sum += float(np.dot(r, r))
                z_min = min(z_min, float(np.min(z_k)))
                y_k, z_k = y_next, z_next
            path_sums.append(path_sum)
            sq_sums.append(sq_sum)
    per_path_mean = np.concatenate(path_sums) / k_end
    sq_total = math.fsum(sq_sums)
    mean, stderr = _mean_stderr(per_path_mean)
    rms = math.sqrt(sq_total / (n_paths * k_end))
    return BsdeResidualStats(
        n_paths=n_paths, n_steps=n_steps, delta=float(delta),
        mean_residual=mean, stderr=stderr, rms_residual=rms,
        z_min=z_min, window_steps=k_end)


def dump_path_csv(path, fh):
    """Rows `t,W,M,u,X,cost_running`, one per time node."""
    fh.write("t,W,M,u,X,cost_running\n")
    for k in range(path.n_steps + 1):
        fh.write(f"{path.times[k]:.17g},{path.W[k]:.17g},{path.M[k]:.17g},"
                 f"{path.u[k]:.17g},{path.X[k]:.17g},{path.cost[k]:.17g}\n")
