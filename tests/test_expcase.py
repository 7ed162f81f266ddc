import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targetcost.errors import DomainError
from targetcost.expcase import (DualityWitness, duality_bound, duality_gap,
                                duality_witness, entropy_closed_form,
                                exp_cost_of_profile, exp_optimal_control,
                                exp_value, save_witnesses, witness_sequence)

DEFAULT_NS = [4, 8, 16, 32, 64]


class TestClosedForm:
    def test_reference_values(self):
        assert exp_value(1.0, 0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-15)
        assert exp_value(2.0, 0.5, 2.0) == pytest.approx(
            2.0 * (math.exp(0.5) - 1.0), rel=1e-15)

    @pytest.mark.parametrize("x", [1.0, 1.5, 7.0])
    def test_state_beyond_target_is_free(self, x):
        assert exp_value(1.0, x, 1.0) == 0.0
        assert exp_optimal_control(1.0, x) == 0.0

    def test_identity_at_random_points(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            T = float(rng.uniform(0.05, 8.0))
            x = float(rng.uniform(-2.0, 3.0))
            lam = float(rng.uniform(0.05, 5.0))
            assert exp_value(T, x, lam) == T * math.expm1(
                lam * max(1.0 - x, 0.0) / T)

    def test_control_and_value_consistency(self):
        for T, x, lam in ((1.0, 0.0, 1.0), (3.0, 0.2, 0.7)):
            u = exp_optimal_control(T, x)
            assert T * math.expm1(lam * u) == pytest.approx(
                exp_value(T, x, lam), rel=1e-15)

    @given(x=st.floats(min_value=0.0, max_value=1.0),
           T=st.floats(min_value=0.1, max_value=5.0),
           lam=st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=100, deadline=None)
    def test_shape_properties(self, x, T, lam):
        v = exp_value(T, x, lam)
        assert v >= 0.0
        assert exp_value(T, min(x + 0.1, 1.0), lam) <= v + 1e-12
        assert exp_value(T, x, lam + 0.1) >= v - 1e-12
        # convexity in x on [0, 1]
        if x <= 0.8:
            mid = exp_value(T, x + 0.1, lam)
            assert mid <= 0.5 * (v + exp_value(T, x + 0.2, lam)) + 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            exp_value(0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            exp_value(1.0, 0.0, 0.0)
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="x must be a finite number"):
                exp_value(1.0, x, 1.0)

    @pytest.mark.parametrize("T, x, message", [
        (1.0, math.nan, "x must be a finite number"),
        (1.0, math.inf, "x must be a finite number"),
        (1.0, -math.inf, "x must be a finite number"),
        (math.nan, 0.0, "T must be a finite number"),
        (math.inf, 0.0, "T must be a finite number"),
        (0.0, 0.0, "T must be > 0"),
        (-1.0, 0.0, "T must be > 0"),
    ])
    def test_control_and_value_reject_bad_horizon_or_state(self, T, x, message):
        # before, the control returned nan at x = nan, inf at x = -inf and
        # 0.0 at T = inf, and the value nan at T = inf
        with pytest.raises(DomainError, match=message):
            exp_optimal_control(T, x)
        with pytest.raises(DomainError, match=message):
            exp_value(T, x, 1.0)


class TestProfileCost:
    def test_constant_profile_matches_value(self):
        for T, x, lam in ((1.0, 0.0, 1.0), (2.0, 0.3, 1.5)):
            u = exp_optimal_control(T, x)
            profile = np.full(101, u)
            assert exp_cost_of_profile(profile, T, lam) == pytest.approx(
                exp_value(T, x, lam), rel=1e-13)

    def test_zero_profile(self):
        assert exp_cost_of_profile(np.zeros(11), 1.0, 1.0) == 0.0

    def test_negative_profile_rejected(self):
        with pytest.raises(DomainError):
            exp_cost_of_profile(np.array([0.1, -0.2, 0.3]), 1.0, 1.0)

    @pytest.mark.parametrize("T, lam, message", [
        (math.inf, 1.0, "T must be a finite number"),
        (math.nan, 1.0, "T must be a finite number"),
        (0.0, 1.0, "T must be > 0"),
        (1.0, 0.0, "lam must be > 0"),
    ])
    @pytest.mark.parametrize("profile", [np.zeros(11), np.full(11, 0.5)],
                             ids=["zero", "constant"])
    def test_bad_horizon_or_rate_rejected(self, profile, T, lam, message):
        # before, T = inf gave nan (with a RuntimeWarning) for the zero
        # profile and inf otherwise
        with pytest.raises(DomainError, match=message):
            exp_cost_of_profile(profile, T, lam)

    def test_jensen_strictness_for_random_feasible_profiles(self):
        rng = np.random.default_rng(42)
        T, lam, x = 1.0, 1.0, 0.0
        base = exp_value(T, x, lam)
        for _ in range(100):
            raw = rng.uniform(0.05, 1.0, 41)
            raw *= (1.0 - x) / np.trapezoid(raw, dx=T / 40.0)
            cost = exp_cost_of_profile(raw, T, lam)
            assert cost > base + 1e-6


class TestWitnesses:
    def test_reference_sequence(self):
        ws, flags = witness_sequence(DEFAULT_NS, 1.0, 0.0)
        assert flags == {"mass_increasing": True, "entropy_decreasing": True}
        final = ws[-1]
        assert final.mass == pytest.approx(0.9999588, abs=1e-6)
        assert final.mass > 0.9
        assert final.entropy == pytest.approx(0.0624842490, rel=1e-6)
        assert final.drift_integral > ws[0].drift_integral

    def test_quadrature_matches_antiderivative(self):
        # (1/2) int zeta^2 (T-t) dt by quadrature in log s, s = T + r - t,
        # which resolves the regularization layer of width r = n^-n
        from scipy.integrate import quad
        for n in (2, 4, 8, 16, 32, 64, 1000):
            r = max(math.exp(-n * math.log(n)), 1e-300)
            ref, _ = quad(lambda v: (math.exp(v) - r) * math.exp(v * (2.0 / n - 1.0)),
                          math.log(r), math.log(1.0 + r), epsrel=1e-10, limit=400)
            ref *= 0.5 * n ** (-4.0 / 3.0)
            wit = duality_witness(n, 1.0, 0.0)
            assert wit.entropy == pytest.approx(ref, rel=1e-8)
            assert entropy_closed_form(n, 1.0) == wit.entropy

    def test_drift_integral_against_quadrature(self):
        # quadrature in log(T + r - t): the regularization layer at the
        # endpoint sits at scale n^-n and is invisible in the raw variable
        from scipy.integrate import quad
        for n in (4, 16, 64):
            r = math.exp(-n * math.log(n))
            scale = n ** (-2.0 / 3.0)
            ref, _ = quad(lambda v: scale * math.exp(v / n),
                          math.log(r), math.log(1.0 + r),
                          epsrel=1e-10, limit=400)
            wit = duality_witness(n, 1.0, 0.0)
            assert wit.drift_integral == pytest.approx(ref, rel=1e-7)

    def test_entropy_bounded_by_published_envelope(self):
        # zeta^2 (T-t) <= n^{-4/3} (T-t)^{-1+1/n} pointwise on T = 1
        for n in DEFAULT_NS:
            wit = duality_witness(n, 1.0, 0.0)
            envelope = 0.5 * n ** (-4.0 / 3.0) * n  # integral of the bound
            assert wit.entropy <= envelope

    def test_very_negative_threshold_gives_full_mass(self):
        wit = duality_witness(8, 1.0, -50.0)
        assert wit.mass > 1.0 - 1e-12
        assert wit.mass < 1.0

    def test_underflow_guard_is_inactive_for_small_n(self):
        # at n = 18 the regularizer n^-n ~ 2.5e-23 sits far above the floor,
        # so guard and exact evaluation coincide
        wit = duality_witness(18, 1.0, 0.0)
        r_exact = 18.0 ** -18.0
        drift_exact = 18.0 ** (1.0 / 3.0) * ((1.0 + r_exact) ** (1.0 / 18.0)
                                             - r_exact ** (1.0 / 18.0))
        assert wit.drift_integral == pytest.approx(drift_exact, rel=1e-14)

    def test_underflow_guard_keeps_large_n_finite(self):
        wit = duality_witness(200, 1.0, 0.0)
        assert math.isfinite(wit.entropy) and math.isfinite(wit.drift_integral)
        assert 0.0 < wit.mass < 1.0

    def test_witness_validation(self):
        with pytest.raises(DomainError, match="n must be an integer >= 2"):
            duality_witness(1, 1.0, 0.0)
        with pytest.raises(DomainError, match="T must be > 0"):
            duality_witness(4, 0.0, 0.0)
        # before, T = inf raised the cdf's "z must be finite"
        for T in (math.inf, math.nan):
            with pytest.raises(DomainError, match="T must be a finite number"):
                duality_witness(4, T, 0.0)
        with pytest.raises(DomainError, match="c must be a finite number"):
            duality_witness(4, 1.0, math.nan)
        with pytest.raises(DomainError):
            DualityWitness(n=4, drift_integral=1.0, mass=1.5, entropy=0.1)
        with pytest.raises(DomainError):
            DualityWitness(n=4, drift_integral=1.0, mass=0.5, entropy=-0.1)


class TestDualityBound:
    def test_bound_is_a_true_lower_bound(self):
        for n in DEFAULT_NS:
            wit = duality_witness(n, 1.0, 0.0)
            lhs = exp_value(1.0, 0.0, 1.0) + 1.0
            assert duality_bound(1.0, 0.0, 1.0, wit) <= lhs * (1.0 + 1e-12)

    def test_gap_shrinks_along_sequence(self):
        ws, _ = witness_sequence(DEFAULT_NS, 1.0, 0.0)
        gaps = [duality_gap(1.0, 0.0, 1.0, w) for w in ws]
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
        assert all(g >= 0.0 for g in gaps)
        # measured terminal gap of the default sequence
        assert gaps[-1] == pytest.approx(0.060611, abs=5e-4)

    def test_csv_output(self, tmp_path):
        ws, _ = witness_sequence([4, 8], 1.0, 0.0)
        out = tmp_path / "witnesses.csv"
        save_witnesses(ws, 1.0, 0.0, 1.0, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,I_n,mass,entropy,duality_gap"
        assert len(lines) == 3
