"""Machine-checkable invariant suites tying all the pieces together.

Each suite returns (passed, details); run_verification aggregates them
into a JSON-friendly report.  The quick budget trims lattice sizes and
path counts so the whole run stays under a minute; the full budget runs
everything at contract sizes.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from functools import cache

import numpy as np

from . import expcase
from .normals import Params
from .ode import (DEFAULT_BOUNDARY_TOL, chord_lower_bound, eval_g_value,
                  policy_cost, shoot)
from .sim import bsde_residual, mc_cost_estimate
from .walk import dp_g_profile, dp_value

DEFAULT_SEED = 20240

ORACLE_TOL = 0.02
VALUE_TARGET = 0.88          # reported midpoint value; tolerance below
VALUE_TOL = 0.02
BSDE_RMS_SHRINK = 0.6
GAIN_BUMP = 0.05
BUMP_WINDOW = (0.3, 0.7)


def _perturbed_curve(curve, amp, lo, hi):
    gs = np.clip(curve.gs + amp * ((curve.ys >= lo) & (curve.ys <= hi)),
                 0.0, 1.0)
    return replace(curve, gs=gs)


def suite_gcurve(budget, solve):
    ps = (1.5, 2.0, 3.0) if budget == "full" else (2.0,)
    details = {}
    ok = True
    for p in ps:
        res = solve(p)
        curve, report = res.curve, res.invariants  # checked on the solve grid
        curve_ok = all(flag for flag, _ in report.values())
        # chord concavity on a spread of node triples
        ys, gs = curve.ys, curve.gs
        idx = np.linspace(2, len(ys) - 3, 40).astype(int)
        worst_chord = 0.0
        for i in idx:
            a, b = i // 2, min(i + len(ys) // 4, len(ys) - 1)
            lam = (ys[i] - ys[a]) / (ys[b] - ys[a])
            chord = gs[a] * (1 - lam) + gs[b] * lam
            worst_chord = max(worst_chord, chord - gs[i])
        curve_ok &= worst_chord <= 1e-6
        curve_ok &= max(curve.left_residual,
                        curve.right_residual) <= DEFAULT_BOUNDARY_TOL
        details[str(p)] = {k: v for k, (ok_k, v) in report.items()}
        details[str(p)]["worst_chord_gap"] = worst_chord
        details[str(p)]["boundary"] = [curve.left_residual, curve.right_residual]
        ok &= curve_ok
    return ok, details


def suite_holder(budget):
    grid = np.linspace(0.02, 0.98, 25 if budget == "full" else 9)
    worst = math.inf
    for p in (1.5, 2.0, 3.0):
        for y in grid:
            for z in grid:
                worst = min(worst, chord_lower_bound(y, z, p))
    return worst >= 1.0 - 1e-9, {"min_value": worst}


def suite_oracle_agreement(budget, solve):
    curve = solve(2.0).curve
    n = 2000 if budget == "full" else 500
    tol = ORACLE_TOL if budget == "full" else 0.05
    levels = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    profile = dp_g_profile(n, 2.0, levels)
    diffs = [abs(val - eval_g_value(curve, y)) for y, val in profile]
    return max(diffs) <= tol, {"n": n, "max_diff": max(diffs), "tol": tol}


def suite_scaling(budget):
    cases = ([(0.25, -0.5), (1.0, 0.0), (4.0, 1.0)] if budget == "full"
             else [(4.0, 1.0)])
    ps = (1.5, 2.0, 3.0) if budget == "full" else (2.0,)
    n = 1000
    ok = True
    details = {}
    # Each lattice is swept once: the unit-horizon value is shared by the
    # rescaled side and the refinement gap, and equals the direct side at T = 1.
    value = cache(dp_value)
    for p in ps:
        for T, c in cases:
            lhs = value(n, T, c, p)
            unit = value(n, 1.0, c / math.sqrt(T), p)
            rhs = T ** (1.0 - p) * unit
            gap = abs(value(2 * n, 1.0, c / math.sqrt(T), p) - unit) * T ** (1.0 - p)
            bound = max(2.0 * gap, 1e-12)
            details[f"p={p},T={T},c={c}"] = {
                "lhs": lhs, "rhs": rhs, "bound": bound}
            ok &= abs(lhs - rhs) <= bound
    return ok, details


def suite_mc_optimality(budget, solve, seed):
    curve = solve(2.0).curve
    n_paths, n_steps = (100_000, 2000) if budget == "full" else (20_000, 500)
    mean, se, viol = mc_cost_estimate(curve, Params(2.0, 1.0, 0.0, 0.0),
                                      n_paths, n_steps, seed)
    ok = viol == 0 and abs(mean - VALUE_TARGET) <= VALUE_TOL + 3.0 * se
    return ok, {"mean": mean, "stderr": se, "violations": viol,
                "target": VALUE_TARGET}


def suite_policy_optimality(solve):
    """The p = 2 kernel's feedback is optimal: its exact cost (policy_cost)
    is a valid expected cost, and a feedback bumped by +-GAIN_BUMP on the
    levels BUMP_WINDOW costs more, by over three times the two error bars.
    Monte Carlo gaps carry a time-stepping bias above their stderr, so
    mc_optimality runs only the plain feedback."""
    res = solve(2.0)
    cost, bar, ok = policy_cost(res.curve)
    details = {"cost": cost, "bar": bar, "valid": ok,
               "cost_minus_g_mid": cost - res.g_mid}
    for eta in (GAIN_BUMP, -GAIN_BUMP):
        cost_b, bar_b, valid_b = policy_cost(
            _perturbed_curve(res.curve, eta, *BUMP_WINDOW))
        gap = cost_b - cost
        details[f"bump{eta:+}"] = {"gap": gap, "bar": bar + bar_b,
                                   "valid": valid_b}
        ok &= valid_b and gap > 3.0 * (bar + bar_b)
    return ok, details


def suite_bsde(budget, solve, seed):
    curve = solve(2.0).curve
    sizes = (500, 1000, 2000) if budget == "full" else (500, 2000)
    stats = {}
    ok = True
    for n_steps in sizes:
        st = bsde_residual(curve, 2.0, 1.0, 0.0, 64, n_steps, 0.45, seed)
        stats[n_steps] = st
        ok &= abs(st.mean_residual) <= 3.0 * st.stderr
        ok &= st.z_min >= 0.0
    ok &= stats[sizes[-1]].rms_residual <= BSDE_RMS_SHRINK * stats[sizes[0]].rms_residual
    details = {str(n): {"mean": s.mean_residual, "stderr": s.stderr,
                        "rms": s.rms_residual, "z_min": s.z_min}
               for n, s in stats.items()}
    return ok, details


def _entropy_by_quadrature(n, T):
    """The witness entropy by 64-point Gauss-Legendre quadrature in log s,
    s = T + r - t, which resolves the regularization layer of width r at
    the endpoint; an independent route to expcase.entropy_closed_form."""
    r = expcase._regularizer(n)
    beta = 2.0 / n
    nodes, weights = np.polynomial.legendre.leggauss(64)
    lo, hi = math.log(r), math.log(T + r)
    half = 0.5 * (hi - lo)
    v = half * nodes + (lo + half)
    value = half * np.dot(weights, (np.exp(v) - r) * np.exp(v * (beta - 1.0)))
    return 0.5 * n ** (-4.0 / 3.0) * float(value)


def suite_exp_duality(budget, seed):
    rng = np.random.default_rng(seed)
    ok = True
    # closed form identity on random points
    for _ in range(1000 if budget == "full" else 100):
        T = float(rng.uniform(0.1, 5.0))
        x = float(rng.uniform(-1.0, 2.0))
        lam = float(rng.uniform(0.1, 4.0))
        ok &= expcase.exp_value(T, x, lam) == T * math.expm1(
            lam * max(1.0 - x, 0.0) / T)
    # feasible non-constant deterministic profiles cost strictly more
    T, lam, x = 1.0, 1.0, 0.0
    base = expcase.exp_value(T, x, lam)
    n_prof = 100 if budget == "full" else 20
    worst_margin = math.inf
    for _ in range(n_prof):
        raw = rng.uniform(0.05, 1.0, 41)
        raw *= (1.0 - x) / np.trapezoid(raw, dx=T / 40)
        cost = expcase.exp_cost_of_profile(raw, T, lam)
        worst_margin = min(worst_margin, cost - base)
    ok &= worst_margin > 1e-6
    # witness sequence structure and the bound it induces
    ws, flags = expcase.witness_sequence([4, 8, 16, 32, 64], T, 0.0)
    ok &= flags["mass_increasing"] and flags["entropy_decreasing"]
    gaps = [expcase.duality_gap(T, x, lam, w) for w in ws]
    ok &= all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    ok &= all(g > -1e-12 for g in gaps)
    quad_err = max(abs(_entropy_by_quadrature(w.n, T) - w.entropy) / w.entropy
                   for w in ws)
    ok &= quad_err <= 1e-7
    ok &= ws[-1].mass > 0.9
    return ok, {"worst_jensen_margin": worst_margin, "gaps": gaps,
                "quadrature_vs_closed": quad_err,
                "final_mass": ws[-1].mass, "final_entropy": ws[-1].entropy}


def run_verification(budget="full", *, seed=DEFAULT_SEED):
    """Run every suite; returns a report dict with per-suite pass flags.
    Its Monte Carlo suites run serially in path order, so the report, its
    timings aside, depends only on budget and seed.
    """
    if budget not in ("full", "quick"):
        raise ValueError("budget must be 'full' or 'quick'")
    solve = cache(shoot)  # each p is solved once, whichever suite asks first
    report = {"budget": budget, "seed": seed, "suites": {}}
    t0 = time.perf_counter()
    runs = [
        ("gcurve_invariants", lambda: suite_gcurve(budget, solve)),
        ("holder_inequality", lambda: suite_holder(budget)),
        ("oracle_agreement", lambda: suite_oracle_agreement(budget, solve)),
        ("scaling_law", lambda: suite_scaling(budget)),
        ("bsde_residual", lambda: suite_bsde(budget, solve, seed)),
        ("exp_duality", lambda: suite_exp_duality(budget, seed)),
        ("policy_optimality", lambda: suite_policy_optimality(solve)),
        ("mc_optimality", lambda: suite_mc_optimality(budget, solve, seed)),
    ]
    all_ok = True
    for name, fn in runs:
        t_suite = time.perf_counter()
        ok, details = fn()
        report["suites"][name] = {
            "passed": bool(ok),
            "seconds": round(time.perf_counter() - t_suite, 2),
            "details": details,
        }
        all_ok &= ok
    report["passed"] = bool(all_ok)
    report["seconds"] = round(time.perf_counter() - t0, 2)
    return report
