import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targetcost.errors import DomainError, ResourceError
from targetcost.normals import std_normal_cdf, std_normal_quantile
from targetcost.walk import (INFEASIBLE, dp_g_profile, dp_table, dp_value,
                             inner_min, refinement_gap, save_profile)

from helpers import reference_dp_value, scan_min_split


class TestInnerMin:
    def test_symmetric_case(self):
        a, cost = inner_min(1.0, 1.0, 2.0)
        assert a == 0.5
        assert cost == 0.5

    def test_no_pressure(self):
        assert inner_min(1.0, 0.0, 2.0) == (0.0, 0.0)

    def test_infinite_continuation_forces_jump(self):
        assert inner_min(3.0, INFEASIBLE, 2.0) == (1.0, 3.0)

    def test_reference_point_vs_scan(self):
        a, cost = inner_min(1.0, 3.0, 2.0)
        assert a == pytest.approx(0.75, abs=1e-12)
        assert cost == pytest.approx(0.75, abs=1e-12)
        a_scan, cost_scan = scan_min_split(1.0, 3.0, 2.0)
        assert a == pytest.approx(a_scan, abs=2e-6)
        assert cost == pytest.approx(cost_scan, abs=1e-9)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_scan_agreement_on_log_grid(self, p):
        for k1 in (0.01, 1.0, 100.0):
            for k2 in (0.0, 0.01, 1.0, 100.0):
                _, cost = inner_min(k1, k2, p)
                _, cost_scan = scan_min_split(k1, k2, p, n_grid=200_001)
                assert cost <= cost_scan + 1e-12
                assert cost == pytest.approx(cost_scan, abs=1e-9 * (1 + k1 + k2))

    @given(k1=st.floats(min_value=1e-3, max_value=1e3),
           k2=st.floats(min_value=0.0, max_value=1e3),
           p=st.sampled_from([1.5, 2.0, 2.5, 3.0]))
    @settings(max_examples=60, deadline=None)
    def test_closed_form_is_a_lower_envelope(self, k1, k2, p):
        a_star, cost = inner_min(k1, k2, p)
        assert 0.0 <= a_star <= 1.0
        grid = np.linspace(0.0, 1.0, 2001)
        costs = grid ** p * k1 + (1.0 - grid) ** p * k2
        assert cost <= float(np.min(costs)) + 1e-9 * (1 + k1 + k2)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            inner_min(0.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            inner_min(1.0, -1.0, 2.0)
        with pytest.raises(DomainError):
            inner_min(1.0, 1.0, 1.0)


class TestDpValue:
    def test_reference_value(self):
        value = dp_value(2000, 1.0, 0.0, 2.0)
        assert value == pytest.approx(0.88, abs=0.02)
        assert value == pytest.approx(0.8706400786, abs=1e-6)

    def test_binding_limit_costs_constant_speed(self):
        # certain constraint: the optimal control spreads evenly, cost T^{1-p}
        for T, p in ((1.0, 2.0), (2.0, 2.0), (1.0, 3.0)):
            value = dp_value(2000, T, -10.0 * math.sqrt(T), p)
            assert value == pytest.approx(T ** (1.0 - p), rel=2e-3)

    def test_free_limit_costs_nothing(self):
        assert dp_value(500, 1.0, 10.0, 2.0) <= 1e-12

    def test_monotone_in_threshold(self):
        values = [dp_value(400, 1.0, c, 2.0) for c in (-1.0, -0.3, 0.0, 0.4, 1.2)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_lattice_scaling_identity(self):
        for p in (1.5, 2.0, 3.0):
            for T, c in ((0.25, -0.5), (4.0, 1.0)):
                lhs = dp_value(800, T, c, p)
                rhs = T ** (1.0 - p) * dp_value(800, 1.0, c / math.sqrt(T), p)
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_refinement_gaps_shrink(self):
        gaps = [abs(dp_value(2 * n, 1.0, 0.0, 2.0) - dp_value(n, 1.0, 0.0, 2.0))
                for n in (250, 500, 1000)]
        assert gaps[1] < gaps[0]
        assert gaps[2] < gaps[1]

    def test_tie_rules_converge_to_each_other(self):
        # both tie conventions approach the same limit; their difference
        # dominates the same-rule refinement gap at practical sizes, so it
        # is tracked as its own sequence rather than compared to the gap
        diffs = [abs(dp_value(n, 1.0, 0.0, 2.0, tie="geq")
                     - dp_value(n, 1.0, 0.0, 2.0, tie="gt"))
                 for n in (250, 1000, 4000)]
        assert diffs[1] < diffs[0]
        assert diffs[2] < diffs[1]
        assert dp_value(2000, 1.0, 0.0, 2.0, tie="gt") == pytest.approx(0.88, abs=0.02)

    def test_resource_error_on_overflowing_step(self):
        with pytest.raises(ResourceError):
            dp_value(10 ** 160, 1.0, 0.0, 3.0)
        with pytest.raises(ResourceError):
            dp_value(10 ** 6, 1.0, 0.0, 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["T", "c", "p"])
    def test_non_finite_argument_is_rejected(self, name, bad):
        args = dict(n=100, T=1.0, c=0.0, p=2.0)
        args[name] = bad
        message = f"{name} must be a finite number"
        with pytest.raises(DomainError, match=message):
            dp_value(**args)
        with pytest.raises(DomainError, match=message):
            dp_table(**args)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            dp_value(1, 1.0, 0.0, 2.0)
        with pytest.raises(DomainError):
            dp_value(100, -1.0, 0.0, 2.0)
        with pytest.raises(DomainError):
            dp_value(100, 1.0, 0.0, 0.9)
        with pytest.raises(DomainError):
            dp_value(100, 1.0, 0.0, 2.0, tie="nearest")


class TestBand:
    """The live band against the full-width sweep of every node."""

    @pytest.mark.parametrize("T", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("n", [2, 3, 101, 1000, 2001])
    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
    def test_matches_full_width_reference(self, p, n, T):
        for c in (-10.0 * math.sqrt(T), -1.0, 0.0, 0.3, 10.0 * math.sqrt(T)):
            for tie in ("geq", "gt"):
                value = dp_value(n, T, c, p, tie=tie)
                ref = reference_dp_value(n, T, c, p, tie=tie)
                assert abs(value - ref) <= max(1e-13 * ref, 1e-300), \
                    (c, tie, value, ref)

    @pytest.mark.parametrize("n", [2, 3, 101])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_free_limit_is_zero(self, p, n):
        # no terminal node can reach the threshold: nothing is ever live
        assert dp_value(n, 1.0, 10.0 * math.sqrt(n), p) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 101])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_certain_limit_is_constant_speed_cost(self, p, n):
        # every terminal node binds: the root is the certain cost itself
        for T in (0.25, 1.0, 4.0):
            value = dp_value(n, T, -10.0 * math.sqrt(n * T), p)
            assert value == (n * (T / n)) ** (1.0 - p)


class TestOracleTable:
    def test_monotone_in_position(self):
        table = dp_table(301, 1.0, 0.1, 2.0)
        assert table.monotone_in_position() <= 1e-12

    def test_terminal_layer_sentinels(self):
        table = dp_table(10, 1.0, 0.0, 2.0)
        terminal = table.psi[-1]
        w = (2.0 * np.arange(11) - 10) * math.sqrt(0.1)
        assert np.all(np.isinf(terminal[w >= 0.0]))
        assert np.all(terminal[w < 0.0] == 0.0)

    def test_root_matches_dp_value(self):
        table = dp_table(200, 1.0, 0.3, 2.0)
        assert table.psi[0][0] == dp_value(200, 1.0, 0.3, 2.0)

    def test_interior_levels_are_finite(self):
        table = dp_table(50, 1.0, 0.0, 2.0)
        for level in table.psi[:-1]:
            assert np.all(np.isfinite(level))


class TestProfile:
    def test_reference_level(self):
        profile = dp_g_profile(2000, 2.0, [0.5])
        assert profile[0][1] == pytest.approx(0.88, abs=0.02)

    def test_low_level_approaches_one(self):
        (_, val), = dp_g_profile(1000, 2.0, [0.02])
        assert (1.0 - 0.02) ** 2 - 0.01 <= val <= 1.0

    def test_shape_within_lattice_noise(self):
        levels = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        profile = dp_g_profile(2000, 2.0, levels)
        vals = np.array([v for _, v in profile])
        assert np.all(np.diff(vals) < 0.01)          # non-increasing up to noise
        assert np.all(np.diff(vals, 2) < 0.01)       # concave up to noise

    def test_matches_scaling_of_dp_value(self):
        (_, val), = dp_g_profile(500, 2.0, [0.3])
        c = float(std_normal_quantile(0.3))
        assert val == dp_value(500, 1.0, c, 2.0)

    @pytest.mark.parametrize("levels", [
        [0.7, 0.2, 0.9, 0.4],                 # unsorted
        [0.3, 0.6, 0.3, 0.6, 0.6],            # duplicates
        [0.001, 0.999],                       # extremes
        [0.55],                               # a single level
    ])
    @pytest.mark.parametrize("tie", ["geq", "gt"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_every_level_equals_its_dp_value(self, p, tie, levels):
        profile = dp_g_profile(300, p, levels, tie=tie)
        assert [y for y, _ in profile] == levels
        for y, val in profile:
            c = float(std_normal_quantile(y))
            assert val == dp_value(300, 1.0, c, p, tie=tie), y

    def test_levels_sharing_a_threshold_index(self):
        # at n = 100 the terminal walk values are multiples of 0.2, so both
        # thresholds bind first at w = 0.2
        levels = [float(std_normal_cdf(0.05)), float(std_normal_cdf(0.15))]
        (_, v1), (_, v2) = dp_g_profile(100, 2.0, levels)
        assert v1 == v2
        for y, val in zip(levels, (v1, v2)):
            assert val == dp_value(100, 1.0, float(std_normal_quantile(y)), 2.0)

    def test_rejects_bad_levels(self):
        with pytest.raises(DomainError):
            dp_g_profile(100, 2.0, [0.0])

    def test_csv_output(self, tmp_path):
        profile = dp_g_profile(100, 2.0, [0.25, 0.5, 0.75])
        out = tmp_path / "profile.csv"
        save_profile(profile, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "y,g_dp"
        assert len(lines) == 4


def test_scaling_suite_sweeps_each_lattice_once(monkeypatch):
    from targetcost import verify
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, tuple(sorted(kwargs.items()))))
        return dp_value(*args, **kwargs)

    monkeypatch.setattr(verify, "dp_value", counted)
    ok, _details = verify.suite_scaling("full", {})
    assert ok
    assert len(calls) == len(set(calls)) == 24


def test_refinement_gap_helper():
    gap = refinement_gap(500, 1.0, 0.0, 2.0)
    assert gap == pytest.approx(abs(dp_value(1000, 1.0, 0.0, 2.0)
                                    - dp_value(500, 1.0, 0.0, 2.0)), abs=1e-15)
