import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targetcost.errors import CalibrationError, DomainError, RangeError, UsageError
from targetcost.normals import Params, std_normal_cdf, std_normal_quantile
from targetcost.ode import (DEFAULT_EPSILON, GRID_DZ, GCurve, _newton, _snapped,
                            chord_lower_bound, curve_invariant_report, eval_g,
                            eval_g_value, integrate_g, load_curve,
                            ode_residuals, save_curve, shoot, value_function)
from targetcost.walk import dp_value

# Values the calibration must reproduce, pinned from two independent
# routes: the random-walk program (midpoint value 0.8687 +- 0.001 after
# refinement, slope -0.49 +- 0.01 by finite differences) and asymptotic
# tail matching of the equation itself (0.86873, -0.50726).
TRUE_G_MID_P2 = 0.8687
TRUE_GAMMA_P2 = -0.5073


class TestIntegrate:
    def test_constant_one_has_zero_residual(self):
        ys = np.linspace(0.2, 0.8, 1001)
        zs = np.linspace(-1.0, 1.0, 1001)  # any uniform grid works here
        curve = GCurve(p=2.0, ys=ys, gs=np.ones_like(ys),
                       dgs=np.zeros_like(ys), epsilon=1e-4,
                       zs=zs, gzs=np.zeros_like(ys))
        assert np.max(ode_residuals(curve)) == 0.0

    def test_calibrated_pair_meets_boundaries(self, shots_all):
        # The initial-value route from the solved midpoint pair retraces the
        # whole solved curve, values and slopes, at every node.
        for p, res in shots_all.items():
            curve = integrate_g(p, res.g_mid, res.gamma)
            assert abs(curve.gs[0] - 1.0) <= 1e-3
            assert abs(curve.gs[-1]) <= 1e-3
            assert np.max(np.abs(curve.gs - res.curve.gs)) <= 1e-9, p
            assert np.max(np.abs(curve.gzs - res.curve.gzs)) <= 1e-9, p

    def test_reported_rounded_pair_misses_boundaries(self):
        # The historically reported round pair (0.88, -0.21) integrates
        # cleanly but lands far from both boundary targets; the calibrated
        # pair near (0.8687, -0.5073) is the one that meets them.
        curve = integrate_g(2.0, 0.88, -0.21)
        assert curve.gs[0] == pytest.approx(0.4229, abs=0.02)
        assert curve.gs[-1] == pytest.approx(0.0925, abs=0.02)

    def test_far_too_steep_slope_range_errors_on_left(self):
        with pytest.raises(RangeError) as err:
            integrate_g(2.0, 0.88, -5.0)
        assert err.value.branch == "left"
        assert err.value.side == "high"
        assert err.value.y_fail < 0.5

    def test_residual_contract(self, shots_all):
        for res in shots_all.values():
            assert np.max(ode_residuals(res.curve)) <= 1e-7

    @pytest.mark.parametrize("kwargs", [
        dict(p=1.0, g_mid=0.5, gamma=-0.2),
        dict(p=2.0, g_mid=0.0, gamma=-0.2),
        dict(p=2.0, g_mid=1.0, gamma=-0.2),
        dict(p=2.0, g_mid=0.5, gamma=-0.2, epsilon=0.5),
        dict(p=2.0, g_mid=0.5, gamma=float("nan")),
    ])
    def test_input_validation(self, kwargs):
        with pytest.raises(DomainError):
            integrate_g(**kwargs)


class TestShoot:
    def test_p2_matches_independent_references(self, shot_p2):
        assert shot_p2.g_mid == pytest.approx(TRUE_G_MID_P2, abs=0.02)
        assert shot_p2.gamma == pytest.approx(TRUE_GAMMA_P2, abs=0.02)
        assert shot_p2.left_residual <= 1e-3
        assert shot_p2.right_residual <= 1e-3

    def test_p2_agrees_with_walk_program(self, shot_p2):
        oracle = dp_value(2000, 1.0, 0.0, 2.0)
        assert abs(shot_p2.g_mid - oracle) <= 0.02

    def test_midpoint_above_pointwise_lower_bound(self, shots_all):
        for p, res in shots_all.items():
            assert res.g_mid >= 0.5 ** p

    def test_non_monotone_solution_is_rejected(self):
        # Started from cdf(-z) at p = 3, Newton converges to a solution of the
        # same difference equations that dips below 0; it must not be stored.
        z_edge = -std_normal_quantile(DEFAULT_EPSILON)
        n_half = round(z_edge / GRID_DZ)
        zs = z_edge / n_half * np.arange(-n_half, n_half + 1)
        spurious = _newton(3.0, zs, std_normal_cdf(-zs))
        assert np.min(spurious) < -0.1
        with pytest.raises(CalibrationError):
            _snapped(3.0, DEFAULT_EPSILON, zs, spurious)

    @pytest.mark.parametrize("epsilon", [1e-6, 1e-8, 1e-10])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_small_epsilon_calibrates(self, p, epsilon):
        res = shoot(p, epsilon)
        for name, (ok, worst) in curve_invariant_report(res.curve).items():
            assert ok, f"p={p} epsilon={epsilon} {name} worst={worst}"
        assert res.left_residual <= 1e-3 and res.right_residual <= 1e-3

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            shoot(1.0)
        with pytest.raises(DomainError):
            shoot(2.0, epsilon=0.3)

    def test_parallel_calibration_matches_sequential(self, shots_all):
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = {p: pool.submit(shoot, p) for p in (1.5, 3.0)}
            parallel = {p: f.result() for p, f in futures.items()}
        for p, res in parallel.items():
            assert res.g_mid == shots_all[p].g_mid
            assert res.gamma == shots_all[p].gamma


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


class TestEvalG:
    def test_nodes_reproduce_stored_values(self, curve_p2):
        for k in (0, 1, len(curve_p2.ys) // 2, len(curve_p2.ys) - 1):
            g, dg = eval_g(curve_p2, float(curve_p2.ys[k]))
            assert g == curve_p2.gs[k]
            assert dg == curve_p2.dgs[k]

    def test_midpoint_value(self, shot_p2):
        g, _ = eval_g(shot_p2.curve, 0.5)
        assert g == shot_p2.g_mid

    def test_near_left_cutoff(self, curve_p2):
        for y in (curve_p2.epsilon / 2.0, curve_p2.epsilon / 10.0):
            g, dg = eval_g(curve_p2, y)
            assert abs(g - 1.0) <= 1e-3
            assert curve_p2.gs[0] <= g <= 1.0
            assert dg == curve_p2.dgs[0]

    def test_near_right_cutoff(self, curve_p2):
        g, dg = eval_g(curve_p2, 1.0 - curve_p2.epsilon / 2.0)
        assert 0.0 <= g <= 1e-3
        assert dg == curve_p2.dgs[-1]

    def test_interior_interpolation_monotone(self, curve_p2):
        ys = np.linspace(0.001, 0.999, 2311)
        gs, dgs = eval_g(curve_p2, ys)
        assert np.all(np.diff(gs) <= 1e-12)
        assert np.all(dgs <= 0.0)
        assert np.all((gs >= 0.0) & (gs <= 1.0))

    def test_analytic_kernel_off_nodes(self):
        # g = (1 - y)^2 stored on the standard grid uniform in z; between
        # nodes the value and the derivative must follow the exact kernel.
        z_edge = -std_normal_quantile(DEFAULT_EPSILON)
        n_half = round(z_edge / GRID_DZ)
        zs = z_edge / n_half * np.arange(-n_half, n_half + 1)
        ys = std_normal_cdf(zs)
        curve = GCurve(p=2.0, ys=ys, gs=(1.0 - ys) ** 2, dgs=-2.0 * (1.0 - ys),
                       epsilon=DEFAULT_EPSILON)
        levels = std_normal_cdf(np.linspace(zs[0], zs[-1], 7919)[1:-1])
        g, dg = eval_g(curve, levels)
        assert np.max(np.abs(g - (1.0 - levels) ** 2)) <= 1e-12
        exact = -2.0 * (1.0 - levels)
        assert np.max(np.abs(dg / exact - 1.0)) <= 1e-8

    def test_grid_not_uniform_in_z_is_rejected(self):
        ys = np.linspace(0.2, 0.8, 101)
        curve = GCurve(p=2.0, ys=ys, gs=(1.0 - ys) ** 2, dgs=-2.0 * (1.0 - ys),
                       epsilon=1e-4)
        with pytest.raises(UsageError):
            eval_g(curve, 0.5)

    def test_value_only_path_matches(self, curve_p2):
        ys = np.linspace(1e-5, 1.0 - 1e-5, 5000)
        ref, _ = eval_g(curve_p2, ys)
        fast = eval_g_value(curve_p2, ys)
        assert np.max(np.abs(ref - fast)) < 1e-13

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
        expected = (1 - prm.x) ** 2 / prm.T * eval_g(curve_p2, level)[0]
        assert value_function(curve_p2, prm) == pytest.approx(expected, rel=1e-14)

    def test_p_mismatch(self, curve_p2):
        with pytest.raises(UsageError):
            value_function(curve_p2, Params(2.5, 1.0, 0.0, 0.0))


class TestSerialization:
    def test_round_trip_exact(self, shot_p2, tmp_path):
        csv_path = tmp_path / "curve.csv"
        json_path = tmp_path / "curve.json"
        save_curve(shot_p2.curve, csv_path, json_path,
                   meta={"g_mid": shot_p2.g_mid, "gamma": shot_p2.gamma})
        loaded, sidecar = load_curve(csv_path, json_path)
        assert np.array_equal(loaded.ys, shot_p2.curve.ys)
        assert np.array_equal(loaded.gs, shot_p2.curve.gs)
        assert np.array_equal(loaded.dgs, shot_p2.curve.dgs)
        assert sidecar["p"] == 2.0
        assert sidecar["g_mid"] == shot_p2.g_mid
        assert sidecar["gamma"] == shot_p2.gamma
        assert set(sidecar) == {"p", "epsilon", "g_mid", "gamma",
                                "left_residual", "right_residual"}
        # evaluation after the round trip is bit-identical
        ys = np.linspace(0.01, 0.99, 101)
        assert np.array_equal(eval_g(loaded, ys)[0], eval_g(shot_p2.curve, ys)[0])

    @pytest.mark.parametrize("epsilon", [1e-6, 1e-8])
    def test_small_epsilon_round_trip_evaluates(self, epsilon, tmp_path):
        # Levels near 1 are stored only to ulp(1), which moves the reloaded
        # grid off uniform by up to about 2e-9 in z at epsilon = 1e-8.
        z_edge = -std_normal_quantile(epsilon)
        n_half = round(z_edge / GRID_DZ)
        ys = std_normal_cdf(z_edge / n_half * np.arange(-n_half, n_half + 1))
        curve = GCurve(p=2.0, ys=ys, gs=(1.0 - ys) ** 2, dgs=-2.0 * (1.0 - ys),
                       epsilon=epsilon)
        save_curve(curve, tmp_path / "c.csv", tmp_path / "c.json")
        loaded, _ = load_curve(tmp_path / "c.csv", tmp_path / "c.json")
        levels = np.linspace(epsilon, 1.0 - epsilon, 2001)
        g, dg = eval_g(loaded, levels)
        assert np.array_equal(g, eval_g(curve, levels)[0])
        assert np.max(np.abs(g - (1.0 - levels) ** 2)) <= 1e-12
        assert np.max(np.abs(dg / (-2.0 * (1.0 - levels)) - 1.0)) <= 1e-8

    def test_sidecar_is_plain_json(self, shot_p2, tmp_path):
        save_curve(shot_p2.curve, tmp_path / "c.csv", tmp_path / "c.json")
        data = json.loads((tmp_path / "c.json").read_text())
        assert data["epsilon"] == shot_p2.curve.epsilon
