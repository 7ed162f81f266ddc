import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targetcost.errors import CalibrationError, DomainError, UsageError
from targetcost.normals import (Params, std_normal_cdf, std_normal_pdf,
                                std_normal_quantile)
from targetcost.ode import (DEFAULT_EPSILON, STORE_STRIDE, GCurve, _ladder,
                            _snapped, chord_lower_bound, curve_invariant_report,
                            eval_g, eval_g_value, eval_g_z, load_curve,
                            ode_residuals, policy_cost, save_curve, shoot,
                            value_function)
from targetcost.verify import _perturbed_curve
from targetcost.walk import dp_value

from helpers import (reference_eval_g_z, reference_ivp,
                     reference_write_curve_csv)

# Values the calibration must reproduce, pinned from two independent
# routes: the random-walk program (midpoint value 0.8687 +- 0.001 after
# refinement, slope -0.49 +- 0.01 by finite differences) and asymptotic
# tail matching of the equation itself (0.86873, -0.50726), to the 1e-5
# that the kernel is to meet.
TRUE_G_MID_P2 = 0.86873
TRUE_GAMMA_P2 = -0.50726

# shoot's (g_mid, gamma) as float.hex when a banded LU factorization
# (SciPy's solve_banded) did its tridiagonal solves; cyclic reduction moves
# them by rounding only.
SHOOT_BANDED_LU = {
    1.01: ('0x1.081a95a22fd11p-1', '-0x1.046ca3a7d113dp+0'),
    1.5: ('0x1.9d0094f87afadp-1', '-0x1.6f3bbf3e7407cp-1'),
    2.0: ('0x1.bcca9e45c8b04p-1', '-0x1.03b7de9caf4a3p-1'),
    3.0: ('0x1.d13eaf2cc620bp-1', '-0x1.6f657d583424ep-2'),
    7.0: ('0x1.e2a34b32d0dedp-1', '-0x1.d1bbb54904cdep-3'),
    20.0: ('0x1.eb43ca0c13a29p-1', '-0x1.49f16cb7e196ep-3'),
    50.0: ('0x1.ef2fff9cc6378p-1', '-0x1.0bd7b5473b92ep-3'),
}
# The p that every solve-grid invariant is checked at, concave only below
# CONCAVE_P_MAX: past z = 7.5, where the right tail still matters at p >= 30,
# y = cdf(z) is too close to 1 for a tangent test in y (CHANGES.md).
EVERY_P = [1.01, 1.05, 1.1, 1.2, 1.5, 2.0, 3.0, 7.0, 10.0, 20.0, 50.0]
CONCAVE_P_MAX = 30.0


class TestIntegrate:
    def test_constant_one_has_zero_residual(self):
        zs = np.linspace(-1.0, 1.0, 1001)
        curve = GCurve(p=2.0, zs=zs, gs=np.ones_like(zs),
                       gzs=np.zeros_like(zs), epsilon=1e-4)
        assert np.max(ode_residuals(curve)) == 0.0

    def test_calibrated_pair_meets_boundaries(self, shots_all):
        # The initial-value route from the solved midpoint pair retraces the
        # whole stored curve, values and slopes, at every stored node, and
        # so lands within the tail target of 1 and 0 at its ends.
        for p, res in shots_all.items():
            gs, gzs, exit_ = reference_ivp(p, res.g_mid, res.gamma,
                                           res.curve.zs)
            assert exit_ is None, p
            assert abs(gs[0] - 1.0) <= 1e-9
            assert abs(gs[-1]) <= 1e-9
            assert np.max(np.abs(gs - res.curve.gs)) <= 1e-9, p
            assert np.max(np.abs(gzs - res.curve.gzs)) <= 1e-9, p

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_cell_midpoints_match_ivp(self, shots_all, p):
        # Halfway between stored nodes, the farthest from the data, the
        # evaluator still follows the initial-value route.
        res = shots_all[p]
        zs = res.curve.zs
        mids = 0.5 * (zs[:-1] + zs[1:])
        half = np.searchsorted(mids, 0.0)
        gs, _, exit_ = reference_ivp(p, res.g_mid, res.gamma,
                                     np.insert(mids, half, 0.0))
        assert exit_ is None
        gap = np.abs(eval_g_z(res.curve, mids) - np.delete(gs, half))
        assert np.max(gap) <= 1e-9

    def test_reported_rounded_pair_misses_boundaries(self):
        # The historically reported round pair (0.88, -0.21) integrates
        # cleanly but lands far from both boundary targets; the calibrated
        # pair near (0.8687, -0.5073) is the one that meets them.
        gs, _, exit_ = reference_ivp(2.0, 0.88, -0.21, CUTOFF_NODES)
        assert exit_ is None
        assert gs[0] == pytest.approx(0.4229, abs=0.02)
        assert gs[-1] == pytest.approx(0.0925, abs=0.02)

    def test_far_too_steep_slope_range_errors_on_left(self):
        # The solution leaves the band [-0.01, 1.01] on the left branch,
        # through its upper bound, below the midpoint.
        _, _, (branch, side, z_fail) = reference_ivp(2.0, 0.88, -5.0,
                                                     CUTOFF_NODES)
        assert branch == "left"
        assert side == "high"
        assert std_normal_cdf(z_fail) < 0.5

    def test_residual_contract(self, shots_all):
        # on the stored nodes, whose stencil is three times the solve's
        for res in shots_all.values():
            assert np.max(ode_residuals(res.curve)) <= 1e-7

    @pytest.mark.parametrize("kwargs", [
        dict(p=float("nan")),
        dict(p=float("inf")),
        dict(p=2.0, epsilon=0.0),
    ])
    def test_input_validation(self, kwargs):
        # the kernel solve's own checks; TestShoot covers p = 1 and a wide
        # epsilon
        with pytest.raises(DomainError):
            shoot(**kwargs)


class TestShoot:
    def test_p2_matches_independent_references(self, shot_p2):
        assert shot_p2.g_mid == pytest.approx(TRUE_G_MID_P2, abs=1e-5)
        assert shot_p2.gamma == pytest.approx(TRUE_GAMMA_P2, abs=1e-5)
        assert shot_p2.curve.left_residual <= DEFAULT_EPSILON
        assert shot_p2.curve.right_residual <= DEFAULT_EPSILON

    @pytest.mark.parametrize("epsilon", [1e-8, 1e-4, 1e-2, 0.09])
    @pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 7.0, 50.0])
    def test_stored_ends_are_exactly_one_and_zero(self, p, epsilon):
        # Every ladder level and the Richardson step hold the end values, so
        # the whole-line solve ends exactly at 1 and 0.  The stored curve
        # ends at the outermost nodes within the tail target epsilon of
        # them, the residuals, and one stored step inward g is farther.
        solved, *_ = _ladder(p, epsilon)
        assert (solved.gs[0], solved.gs[-1]) == (1.0, 0.0)
        curve = shoot(p, epsilon).curve
        assert curve.left_residual <= epsilon and curve.right_residual <= epsilon
        assert 1.0 - curve.gs[1] > epsilon and curve.gs[-2] > epsilon

    @pytest.mark.parametrize("p", sorted(SHOOT_BANDED_LU))
    def test_midpoint_pair_within_rounding_of_banded_lu(self, p):
        res = shoot(p)
        g_mid, gamma = map(float.fromhex, SHOOT_BANDED_LU[p])
        assert abs(res.g_mid - g_mid) <= 1e-12
        assert abs(res.gamma - gamma) <= 1e-12

    def test_p2_agrees_with_walk_program(self, shot_p2):
        oracle = dp_value(2000, 1.0, 0.0, 2.0)
        assert abs(shot_p2.g_mid - oracle) <= 0.02

    def test_stored_curve_is_every_third_richardson_node(self, shot_p2):
        # On [-8, 9] at p = 2 the Richardson grid holds 3719 nodes; 926 of
        # every third, counted from z = 0, are more than 1e-10 from 1 and 0
        # or the outermost such node on either side.
        solved, mid, _, _ = _ladder(2.0, DEFAULT_EPSILON)
        curve = shot_p2.curve
        first = np.flatnonzero(solved.zs == curve.zs[0])[0]
        stored = slice(first, first + STORE_STRIDE * len(curve.zs), STORE_STRIDE)
        assert (len(solved.zs), len(curve.zs), STORE_STRIDE) == (3719, 926, 3)
        for name in ("zs", "gs", "gzs", "ys"):
            assert np.array_equal(getattr(curve, name),
                                  getattr(solved, name)[stored]), name
        assert (mid - first) % STORE_STRIDE == 0
        assert curve.gs[(mid - first) // STORE_STRIDE] == shot_p2.g_mid
        assert all(ok for ok, _ in shot_p2.invariants.values())

    @pytest.mark.parametrize("p", [1.5, 3.0, 20.0])
    def test_thinned_curve_evaluates_like_solve_grid(self, p):
        full = _solve_grid_kernel(p)
        levels = np.linspace(1e-5, 1.0 - 1e-5, 20001)
        gap = np.abs(eval_g(shoot(p).curve, levels) - eval_g(full, levels))
        assert np.max(gap) <= 1e-10

    def test_solver_counters(self, shots_all):
        # Howard steps per ladder level, g_mid's Richardson bar, and the
        # stored range's rule.
        for p, steps, bar in ((1.5, [7, 2, 2], 1.0e-8), (2.0, [7, 2, 2], 5.2e-8),
                              (3.0, [9, 3, 2], 1.2e-7)):
            solver = shots_all[p].solver
            assert solver["howard_steps"] == steps
            assert solver["richardson_bar"] == pytest.approx(bar, rel=0.05)
            assert solver["tail_target"] == DEFAULT_EPSILON
            assert solver["stored_dz"] == pytest.approx(
                shots_all[p].curve.zs[1] - shots_all[p].curve.zs[0], rel=1e-12)

    @pytest.mark.parametrize("p, g_mid", [(1.5, 0.806645064671),
                                          (2.0, 0.868733354586),
                                          (3.0, 0.908681368079)])
    def test_midpoint_within_its_bar_of_a_four_level_ladder(self, shots_all,
                                                            p, g_mid):
        # g_mid of a ladder with a fourth level at GRID_DZ / 4, Richardson on
        # its two finest, to 12 digits: shoot's lies within its own bar of
        # it, and in fact within 2e-12.
        res = shots_all[p]
        assert abs(res.g_mid - g_mid) <= res.solver["richardson_bar"]
        assert abs(res.g_mid - g_mid) <= 1e-11

    def test_p2_slope_matches_the_whole_line_value(self, shot_p2):
        assert abs(shot_p2.gamma + 0.5072622) <= 1e-5

    def test_midpoint_above_pointwise_lower_bound(self, shots_all):
        for p, res in shots_all.items():
            assert res.g_mid >= 0.5 ** p

    def test_non_monotone_solution_is_rejected(self):
        # A solution that rises beyond rounding (here a node lifted by 1e-2,
        # or one that dips below 0) must not be stored.
        solved = _solve_grid_kernel(3.0)
        for shift in (1e-2, -1.0):
            spurious = solved.gs.copy()
            spurious[len(spurious) // 2] += shift
            with pytest.raises(CalibrationError):
                _snapped(3.0, DEFAULT_EPSILON, solved.zs, spurious)

    @pytest.mark.parametrize("epsilon", [1e-6, 1e-8, 1e-10])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_small_epsilon_calibrates(self, p, epsilon):
        # A small tail target stores a wider range, whose ends lie within it.
        res = shoot(p, epsilon)
        for name, (ok, worst) in curve_invariant_report(res.curve).items():
            assert ok, f"p={p} epsilon={epsilon} {name} worst={worst}"
        assert max(res.curve.left_residual, res.curve.right_residual) <= epsilon

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            shoot(1.0)
        with pytest.raises(DomainError):
            shoot(2.0, epsilon=0.3)
        # below normals.CDF_MIN the stored levels would clamp
        with pytest.raises(DomainError, match="epsilon"):
            shoot(2.0, epsilon=6e-16)

    def test_parallel_calibration_matches_sequential(self, shots_all):
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = {p: pool.submit(shoot, p) for p in (1.5, 3.0)}
            parallel = {p: f.result() for p, f in futures.items()}
        for p, res in parallel.items():
            assert res.g_mid == shots_all[p].g_mid
            assert res.gamma == shots_all[p].gamma


class TestPolicyCost:
    """policy_cost scores a curve's feedback by its exact cost."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_converged_kernel_costs_its_own_value(self, shots_all, p):
        # The whole-line kernel is the ODE's solution, so its own feedback
        # costs its midpoint value: an independent route to g_mid.
        res = shots_all[p]
        cost, bar, valid = policy_cost(res.curve)
        assert valid and bar <= 1e-7
        assert abs(cost - res.g_mid) <= 1e-9

    def test_default_cutoff_shows_as_excess_cost(self, shot_p2):
        # The curve stored only over the 1e-4 quantiles, the cutoff of the
        # former default, holds end values 3.0e-6 and 2.3e-3 off 1 and 0
        # beyond them; its feedback costs 2.875e-5 more.
        curve = shot_p2.curve
        inside = np.abs(curve.zs) <= CUTOFF_NODES[-1]
        short = replace(curve, zs=curve.zs[inside], gs=curve.gs[inside],
                        gzs=curve.gzs[inside])
        cost, bar, valid = policy_cost(short)
        assert valid and bar <= 1e-7
        assert cost - shot_p2.g_mid == pytest.approx(2.875e-5, abs=1e-7)

    @pytest.mark.parametrize("p", [7.0, 20.0])
    def test_negative_phi_is_not_valid(self, p):
        # A feedback that stops (g = 0) beyond the 1e-4 quantile, as one cut
        # off there did: at large p the solved phi dips below 0 past it, so
        # phi(0) is no expected cost.
        curve = shoot(p).curve
        cut = replace(curve, gs=np.where(curve.zs > CUTOFF_NODES[-1], 0.0,
                                         curve.gs))
        assert policy_cost(cut)[2] is False

    @pytest.mark.parametrize("amp, gap", [(0.01, 5.590e-5), (-0.01, 5.708e-5)])
    def test_small_bumps_cost_their_exact_gap(self, curve_p2, amp, gap):
        # Three paired Monte Carlo stderrs at 100k x 2000 steps are about
        # 2e-4, too wide for these gaps; the exact ones clear three bars.
        cost, bar, _ = policy_cost(curve_p2)
        cost_b, bar_b, valid = policy_cost(
            _perturbed_curve(curve_p2, amp, 0.3, 0.7))
        assert valid
        assert cost_b - cost == pytest.approx(gap, abs=1e-7)
        assert cost_b - cost > 3.0 * (bar + bar_b)


class TestCurveInvariants:
    def test_full_report(self, shots_all):
        for p, res in shots_all.items():
            report = curve_invariant_report(res.curve)
            for name, (ok, worst) in report.items():
                assert ok, f"p={p} {name} worst={worst}"

    def test_lower_bound_pointwise(self, shots_all):
        for p, res in shots_all.items():
            curve = res.curve
            assert np.all(curve.gs >= (1.0 - curve.ys) ** p - 1e-6)

    @pytest.mark.parametrize("p", EVERY_P)
    def test_solve_grid_invariants_at_every_p(self, p):
        # A cut-off solve missed lower_bound at p <= 1.2 (by about
        # epsilon^p) and ode_residual at p >= 7.
        report = shoot(p).invariants
        checked = [k for k in report if k != "concave" or p < CONCAVE_P_MAX]
        assert [k for k in checked if not report[k][0]] == []

    @pytest.mark.parametrize("amp", [0.05, -0.05, 1e-3, -1e-3])
    @pytest.mark.parametrize("grid", ["solve", "stored"])
    def test_concavity_catches_bumps(self, solve_grid_p2, curve_p2, grid, amp):
        # The tangent check is in value units: the true kernel passes on
        # either grid, and a bump reads its own height on either grid.
        curve = solve_grid_p2 if grid == "solve" else curve_p2
        ok, worst = curve_invariant_report(curve)["concave"]
        assert ok and worst <= 1e-10
        bumped = _perturbed_curve(curve, amp, 0.3, 0.7)
        ok, worst = curve_invariant_report(bumped)["concave"]
        assert not ok and worst >= 0.99 * abs(amp)

    def test_chord_concavity_on_triples(self, curve_p2):
        ys, gs = curve_p2.ys, curve_p2.gs
        rng = np.random.default_rng(11)
        idx = np.sort(rng.choice(len(ys), size=(300, 3), replace=True), axis=1)
        idx = idx[(idx[:, 0] < idx[:, 1]) & (idx[:, 1] < idx[:, 2])]
        a, m, b = ys[idx[:, 0]], ys[idx[:, 1]], ys[idx[:, 2]]
        lam = (m - a) / (b - a)
        chord = gs[idx[:, 0]] * (1.0 - lam) + gs[idx[:, 2]] * lam
        assert np.all(gs[idx[:, 1]] >= chord - 1e-6)


class TestHolderInequality:
    def test_dense_grid(self):
        grid = np.linspace(0.01, 0.99, 50)
        for p in (1.5, 2.0, 3.0):
            for y in grid:
                vals = [chord_lower_bound(float(y), float(z), p) for z in grid]
                assert min(vals) >= 1.0 - 1e-9

    def test_equality_at_diagonal(self):
        assert chord_lower_bound(0.37, 0.37, 2.5) == pytest.approx(1.0, abs=1e-12)

    @given(y=st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
           z=st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
           p=st.floats(min_value=1.01, max_value=6.0))
    @settings(max_examples=200, deadline=None)
    def test_property(self, y, z, p):
        assert chord_lower_bound(y, z, p) >= 1.0 - 1e-9

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chord_lower_bound(0.0, 0.5, 2.0)
        with pytest.raises(DomainError):
            chord_lower_bound(0.5, 0.5, 1.0)


def _tail_slope(curve, y):
    """eval_g_z's slope g_z at quantile(y)."""
    _, gz = eval_g_z(curve, std_normal_quantile(np.array([y])), slope=True)
    return gz[0]


def _slope_error(curve, levels):
    """Worst relative error of eval_g_z's slope against the exact g_z of
    g = (1 - y)^2, -2 (1 - y) pdf(z), at z = quantile(levels)."""
    z = std_normal_quantile(levels)
    _, gz = eval_g_z(curve, z, slope=True)
    exact = -2.0 * (1.0 - levels) * std_normal_pdf(z)
    return np.max(np.abs(gz / exact - 1.0))


class TestEvalG:
    def test_nodes_reproduce_stored_values(self, curve_p2):
        for k in (0, 1, len(curve_p2.ys) // 2, len(curve_p2.ys) - 1):
            assert eval_g(curve_p2, float(curve_p2.ys[k])) == curve_p2.gs[k]
        # the slope on the nodes is the stored one, to rounding; the last
        # node reads the right end's row, the end value with slope 0
        g, gz = eval_g_z(curve_p2, curve_p2.zs, slope=True)
        assert np.max(np.abs(gz[:-1] - curve_p2.gzs[:-1])) <= 1e-12
        assert (g[-1], gz[-1]) == (curve_p2.gs[-1], 0.0)

    @pytest.mark.parametrize("which", [1.5, 2.0, 3.0, "eps1e-8", "off_bound"])
    def test_eval_g_z_matches_integer_cell_index(self, shots_all, which):
        # Bit for bit the evaluator with an integer cell index and masked
        # tails: inside, on every node, in both tails and at NaN and +-inf.
        if which == "eps1e-8":
            curve = shoot(2.0, epsilon=1e-8).curve
        elif which == "off_bound":
            curve = _synthetic_curve(1e-8)  # ends off the bounds 1 and 0
        else:
            curve = shots_all[which].curve
        rng = np.random.default_rng(3)
        near_ends = np.array([curve.zs[0] - 1e-9, curve.zs[0] + 1e-9,
                              curve.zs[-1] - 1e-9, curve.zs[-1] + 1e-9,
                              curve.zs[-1] + 1e-3])
        finite = np.concatenate((rng.uniform(-12.0, 12.0, 300_000), curve.zs,
                                 near_ends))
        z = np.concatenate((finite, [np.nan, np.inf, -np.inf, 0.0]))
        with np.errstate(invalid="ignore"):
            for points in (finite, near_ends, z):
                for slope in (False, True):
                    new = eval_g_z(curve, points, slope=slope)
                    old = reference_eval_g_z(curve, points, slope=slope)
                    if not slope:
                        new, old = (new,), (old,)
                    for a, b in zip(new, old):
                        assert np.array_equal(a, b, equal_nan=True)

    @pytest.mark.parametrize("which", [2.0, "off_bound"])
    def test_tails_hold_the_end_values(self, curve_p2, which):
        # Past either end the value is the end value and g_z exactly 0, on
        # a calibrated curve (ends 1 and 0) and on one whose ends are off
        # those bounds; a NaN stays NaN.
        curve = curve_p2 if which == 2.0 else _synthetic_curve(1e-8)
        left = np.array([-np.inf, -40.0, curve.zs[0] - 1e-3,
                         np.nextafter(curve.zs[0], -np.inf)])
        right = np.array([np.nextafter(curve.zs[-1], np.inf),
                          curve.zs[-1] + 1e-3, 40.0, np.inf])
        for points, end in ((left, 0), (right, -1)):
            g, gz = eval_g_z(curve, points, slope=True)
            assert np.all(g == curve.gs[end]) and np.all(gz == 0.0)
        g, gz = eval_g_z(curve, np.array([np.nan]), slope=True)
        assert np.isnan(g[0]) and np.isnan(gz[0])

    def test_midpoint_value(self, shot_p2):
        assert eval_g(shot_p2.curve, 0.5) == shot_p2.g_mid

    def test_near_left_cutoff(self, curve_p2):
        # below the stored range the value is the stored end, within the
        # tail target of 1, and g_z is 0
        assert 1.0 - curve_p2.gs[0] <= curve_p2.epsilon
        for y in (curve_p2.epsilon / 2.0, curve_p2.epsilon / 10.0):
            assert eval_g(curve_p2, y) == curve_p2.gs[0]
            assert _tail_slope(curve_p2, y) == 0.0

    def test_near_right_cutoff(self, curve_p2):
        # halfway into the level mass above the stored range
        y = 1.0 - 0.5 * std_normal_cdf(-curve_p2.zs[-1])
        assert curve_p2.gs[-1] <= curve_p2.epsilon
        assert eval_g(curve_p2, y) == curve_p2.gs[-1]
        assert _tail_slope(curve_p2, y) == 0.0

    def test_interior_interpolation_monotone(self, curve_p2):
        ys = np.linspace(0.001, 0.999, 2311)
        gs = eval_g(curve_p2, ys)
        _, gzs = eval_g_z(curve_p2, std_normal_quantile(ys), slope=True)
        assert np.all(np.diff(gs) <= 1e-12)
        assert np.all(gzs <= 0.0)
        assert np.all((gs >= 0.0) & (gs <= 1.0))

    def test_analytic_kernel_off_nodes(self):
        # g = (1 - y)^2 stored on the solve grid, uniform in z; between
        # nodes the value and the slope g_z must follow the exact kernel.
        zs = _cutoff_grid(1e-4)
        curve = _analytic_curve(zs, 1e-4)
        levels = std_normal_cdf(np.linspace(zs[0], zs[-1], 7919)[1:-1])
        g = eval_g(curve, levels)
        assert np.max(np.abs(g - (1.0 - levels) ** 2)) <= 1e-12
        assert _slope_error(curve, levels) <= 1e-8

    def test_grid_not_uniform_in_z_is_rejected(self):
        for zs in (np.linspace(-1.0, 1.0, 101) ** 3,   # not uniform
                   np.linspace(1.0, -1.0, 101)):       # descending
            with pytest.raises(UsageError):
                eval_g(_analytic_curve(zs, 1e-4), 0.5)

    def test_value_only_path_matches(self, curve_p2):
        ys = np.linspace(1e-5, 1.0 - 1e-5, 5000)
        assert np.array_equal(eval_g_value(curve_p2, ys), eval_g(curve_p2, ys))
        value = eval_g_value(curve_p2, 0.3)
        assert type(value) is float and value == eval_g(curve_p2, 0.3)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3, float("nan")])
    def test_domain_errors(self, curve_p2, bad):
        with pytest.raises(DomainError):
            eval_g(curve_p2, bad)


class TestValueFunction:
    def test_state_one_is_free(self, curve_p2):
        assert value_function(curve_p2, Params(2.0, 1.0, 1.0, 0.0)) == 0.0

    def test_reference_case(self, shot_p2):
        v = value_function(shot_p2.curve, Params(2.0, 1.0, 0.0, 0.0))
        assert v == shot_p2.g_mid
        assert v == pytest.approx(0.88, abs=0.02)

    def test_scaled_horizon(self, shot_p2):
        v = value_function(shot_p2.curve, Params(2.0, 4.0, 0.0, 0.0))
        assert v == pytest.approx(shot_p2.g_mid / 4.0, rel=1e-12)
        assert v == pytest.approx(0.22, abs=0.005)

    def test_matches_direct_formula(self, curve_p2):
        prm = Params(2.0, 2.5, 0.3, -0.4)
        level = std_normal_cdf(prm.c / math.sqrt(prm.T))
        expected = (1 - prm.x) ** 2 / prm.T * eval_g(curve_p2, level)
        assert value_function(curve_p2, prm) == pytest.approx(expected, rel=1e-14)

    def test_p_mismatch(self, curve_p2):
        with pytest.raises(UsageError):
            value_function(curve_p2, Params(2.5, 1.0, 0.0, 0.0))


def _analytic_curve(zs, epsilon):
    """g = (1 - y)^2, y = cdf(z), and its g_z on the nodes zs."""
    ys = std_normal_cdf(zs)
    return GCurve(p=2.0, zs=zs, gs=(1.0 - ys) ** 2,
                  gzs=-2.0 * (1.0 - ys) * std_normal_pdf(zs), epsilon=epsilon)


def _cutoff_grid(epsilon):
    """The solve grid of a kernel cut off at epsilon: uniform in z on
    [quantile(epsilon), -quantile(epsilon)], step near 1.25e-3, with a
    multiple of 7 steps per side (5951 nodes at 1e-4)."""
    z_edge = -std_normal_quantile(epsilon)
    n_half = 7 * max(1, round(z_edge / (7 * 1.25e-3)))
    return z_edge / n_half * np.arange(-n_half, n_half + 1)


# The 1e-4 quantiles and z = 0, the ends of a kernel cut off at 1e-4.
CUTOFF_NODES = np.array([std_normal_quantile(1e-4), 0.0,
                         -std_normal_quantile(1e-4)])


def _synthetic_curve(epsilon):
    """g = (1 - y)^2 on every node of _cutoff_grid(epsilon), the rows a
    curve file held before curves were thinned."""
    return _analytic_curve(_cutoff_grid(epsilon), epsilon)


def _solve_grid_kernel(p):
    """The kernel on every Richardson node, where shoot checks it."""
    return _ladder(p, DEFAULT_EPSILON)[0]


@pytest.fixture(scope="module")
def solve_grid_p2():
    return _solve_grid_kernel(2.0)


class TestSerialization:
    def test_round_trip_exact(self, shot_p2, tmp_path):
        csv_path = tmp_path / "curve.csv"
        json_path = tmp_path / "curve.json"
        save_curve(shot_p2.curve, csv_path, json_path,
                   meta={"g_mid": shot_p2.g_mid, "gamma": shot_p2.gamma})
        loaded, sidecar = load_curve(csv_path, json_path)
        for name in ("zs", "gs", "gzs", "ys", "dgs"):
            assert np.array_equal(getattr(loaded, name),
                                  getattr(shot_p2.curve, name)), name
        assert sidecar["p"] == 2.0
        assert sidecar["g_mid"] == shot_p2.g_mid
        assert sidecar["gamma"] == shot_p2.gamma
        assert set(sidecar) == {"p", "epsilon", "g_mid", "gamma",
                                "left_residual", "right_residual"}
        # evaluation after the round trip is bit-identical, inside and in
        # both tails, with and without the slope, and so are the checks
        ys = np.linspace(0.01, 0.99, 101)
        assert np.array_equal(eval_g(loaded, ys), eval_g(shot_p2.curve, ys))
        zs = np.concatenate((np.linspace(-6.0, 6.0, 2001), shot_p2.curve.zs))
        assert np.array_equal(eval_g_z(loaded, zs), eval_g_z(shot_p2.curve, zs))
        for a, b in zip(eval_g_z(loaded, zs, slope=True),
                        eval_g_z(shot_p2.curve, zs, slope=True)):
            assert np.array_equal(a, b)
        assert np.array_equal(ode_residuals(loaded), ode_residuals(shot_p2.curve))
        assert curve_invariant_report(loaded) == curve_invariant_report(shot_p2.curve)

    @pytest.mark.parametrize("epsilon", [1e-6, 1e-8, 1e-4])
    def test_small_epsilon_round_trip_evaluates(self, epsilon, tmp_path):
        # The file holds every node of a cut-off solve grid, as curve files
        # did before thinning (5951 rows at 1e-4), and still loads.
        curve = _synthetic_curve(epsilon)
        save_curve(curve, tmp_path / "c.csv", tmp_path / "c.json")
        loaded, _ = load_curve(tmp_path / "c.csv", tmp_path / "c.json")
        assert np.array_equal(loaded.zs, _cutoff_grid(epsilon))
        levels = np.linspace(epsilon, 1.0 - epsilon, 2001)
        g = eval_g(loaded, levels)
        assert np.array_equal(g, eval_g(curve, levels))
        assert np.max(np.abs(g - (1.0 - levels) ** 2)) <= 1e-12
        # The end levels sit on the end nodes, where quantile rounding may
        # fall just past them into a tail; the slope is checked between.
        assert _slope_error(loaded, levels[1:-1]) <= 1e-8

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, "synthetic"])
    def test_bytes_match_csv_writer(self, shots_all, p, tmp_path):
        curve = _synthetic_curve(1e-8) if p == "synthetic" else shots_all[p].curve
        save_curve(curve, tmp_path / "c.csv", tmp_path / "c.json")
        reference_write_curve_csv(curve, tmp_path / "ref.csv")
        written = (tmp_path / "c.csv").read_bytes()
        assert written == (tmp_path / "ref.csv").read_bytes()
        assert written.count(b"\r\n") == len(curve.ys) + 1

    def test_newline_endings_load_the_same(self, shot_p2, tmp_path):
        save_curve(shot_p2.curve, tmp_path / "c.csv", tmp_path / "c.json")
        lf = tmp_path / "lf.csv"
        lf.write_bytes((tmp_path / "c.csv").read_bytes().replace(b"\r\n", b"\n"))
        crlf_curve, _ = load_curve(tmp_path / "c.csv", tmp_path / "c.json")
        lf_curve, _ = load_curve(lf, tmp_path / "c.json")
        for name in ("zs", "gs", "gzs"):
            assert np.array_equal(getattr(lf_curve, name), getattr(crlf_curve, name))

    # A non-float field, a short row and a bare header are checked through
    # the CLI in test_cli.py::TestMalformedCurve.
    # A file in the y,g,dg form written before curves were stored in z is
    # rejected too: there is one read path.
    @pytest.mark.parametrize("text", [
        "z,g\n0.1,0.9\n0.2,0.8\n",
        "z,g,g_z\n0.1,0.9,-1,0\n0.2,0.8,-1,0\n",
        "z,g,g_z\n0.1,0.9,-1\n",
        "z,g,g_z\n# comment\n0.1,0.9,-1\n0.2,0.8,-1\n",
        "",
        "y,g,dg\n0.1,0.9,-1\n0.2,0.8,-1\n",
    ], ids=["header", "long_rows", "one_row", "comment", "empty", "y_form"])
    def test_malformed_csv_is_usage_error(self, tmp_path, text):
        (tmp_path / "c.json").write_text('{"p": 2.0, "epsilon": 1e-4}')
        (tmp_path / "c.csv").write_text(text)
        with pytest.raises(UsageError, match="c.csv") as info:
            load_curve(tmp_path / "c.csv", tmp_path / "c.json")
        assert ("calibrate" in str(info.value)) == text.startswith("y,g,dg")

    def test_load_and_evaluate_take_no_quantile(self, shot_p2, tmp_path,
                                                monkeypatch):
        # The file holds the quantile-coordinate data, so neither loading
        # it nor evaluating, checking or reading its level views needs one.
        from targetcost import normals, ode
        calls = []

        def counted(q):
            calls.append(q)
            return std_normal_quantile(q)

        monkeypatch.setattr(ode, "std_normal_quantile", counted)
        monkeypatch.setattr(normals, "std_normal_quantile", counted)
        save_curve(shot_p2.curve, tmp_path / "c.csv", tmp_path / "c.json")
        loaded, _ = load_curve(tmp_path / "c.csv", tmp_path / "c.json")
        zs = np.linspace(-6.0, 6.0, 1001)
        eval_g_z(loaded, zs)
        eval_g_z(loaded, zs, slope=True)
        curve_invariant_report(loaded)
        assert calls == []

    def test_sidecar_is_plain_json(self, shot_p2, tmp_path):
        save_curve(shot_p2.curve, tmp_path / "c.csv", tmp_path / "c.json")
        data = json.loads((tmp_path / "c.json").read_text())
        assert data["epsilon"] == shot_p2.curve.epsilon


def test_verification_solves_each_p_once(monkeypatch):
    from targetcost import verify
    calls = []

    def counted(p, *args, **kwargs):
        calls.append(p)
        return shoot(p, *args, **kwargs)

    def no_paths(curve, params, n_paths, n_steps, seed):
        # the Monte Carlo suite's paths play no part in what is counted here
        return 0.0, 0.0, 0

    monkeypatch.setattr(verify, "shoot", counted)
    monkeypatch.setattr(verify, "mc_cost_estimate", no_paths)
    verify.run_verification("quick")
    assert calls == [2.0]
