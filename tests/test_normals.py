import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targetcost.errors import DomainError
from targetcost.normals import (CDF_MAX, CDF_MIN, Params, _erfc,
                                std_normal_cdf, std_normal_quantile)

from helpers import cdf_by_quadrature


class TestErfc:
    # math.erfc is the reference; Cody's approximations were measured
    # within 1.05e-15 relative of it on [-8, 26].
    REL = 2e-15

    def test_dense_grid(self):
        x = np.linspace(-8.0, 26.0, 68_001)
        ref = np.array([math.erfc(v) for v in x])
        assert np.max(np.abs(_erfc(x) - ref) / ref) <= self.REL

    @given(st.floats(min_value=-8.0, max_value=26.0))
    @settings(max_examples=300, deadline=None)
    def test_against_math_erfc(self, x):
        ref = math.erfc(x)
        assert abs(float(_erfc(x)) - ref) <= self.REL * ref

    def test_range_ends(self):
        assert _erfc(0.0) == 1.0
        assert _erfc(np.array([1e300, 40.0, -40.0, -1e300])).tolist() == [
            0.0, 0.0, 2.0, 2.0]


class TestCdf:
    def test_zero_is_half(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_symmetry_sums_to_one(self):
        for z in np.linspace(-7.5, 7.5, 151):
            assert std_normal_cdf(z) + std_normal_cdf(-z) == pytest.approx(1.0, abs=1e-14)

    def test_value_at_one_vs_quadrature(self):
        oracle = cdf_by_quadrature(1.0)
        assert oracle == pytest.approx(0.8413447460685429, abs=1e-13)
        assert std_normal_cdf(1.0) == pytest.approx(oracle, abs=1e-12)

    def test_quadrature_grid(self):
        for z in np.arange(-8.0, 8.01, 0.1):
            assert abs(std_normal_cdf(float(z)) - cdf_by_quadrature(float(z))) <= 1e-12

    def test_strictly_increasing_on_grid(self):
        grid = np.linspace(-8.0, 8.0, 401)
        vals = std_normal_cdf(grid)
        assert np.all(np.diff(vals) > 0)

    def test_clamped_tails_stay_inside_unit_interval(self):
        assert 0.0 < std_normal_cdf(-50.0) == CDF_MIN
        assert CDF_MAX == std_normal_cdf(50.0) < 1.0

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            std_normal_cdf(float("nan"))

    def test_array_input(self):
        out = std_normal_cdf(np.array([-1.0, 0.0, 1.0]))
        assert out.shape == (3,)
        assert out[1] == 0.5


class TestQuantile:
    def test_half_is_zero(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_round_trip_from_z(self):
        for z in np.linspace(-6.0, 6.0, 241):
            q = std_normal_cdf(float(z))
            assert std_normal_quantile(q) == pytest.approx(float(z), abs=1e-8)

    def test_round_trip_from_q(self):
        for q in np.linspace(std_normal_cdf(-6.0), std_normal_cdf(6.0), 973):
            assert std_normal_cdf(std_normal_quantile(float(q))) == pytest.approx(
                float(q), abs=1e-10)

    def test_inverse_of_tabulated_cdf_value(self):
        assert std_normal_quantile(0.8413447460685429) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.7, float("nan")])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            std_normal_quantile(bad)

    def test_strictly_increasing(self):
        grid = np.linspace(1e-6, 1.0 - 1e-6, 2001)
        vals = std_normal_quantile(grid)
        assert np.all(np.diff(vals) > 0)

    @given(st.floats(min_value=1e-12, max_value=1.0 - 1e-12))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_property(self, q):
        z = std_normal_quantile(q)
        if abs(z) < 8.0:
            assert std_normal_cdf(z) == pytest.approx(q, abs=1e-10)


class TestScalarPath:
    # A lone float takes math.erfc / math.exp / math.log; an array of any
    # size takes the numpy code.  The two must agree.
    def test_cdf_matches_array_path(self):
        z = np.linspace(-8.0, 26.0, 68_001)  # the TestErfc grid
        scalar = np.array([std_normal_cdf(v) for v in z.tolist()])
        assert np.max(np.abs(scalar - std_normal_cdf(z)) / std_normal_cdf(z)) <= 2e-15

    def test_quantile_matches_array_path(self):
        tails = np.logspace(-15.0, -1.0, 1401)
        q = np.concatenate((tails, np.linspace(0.1, 0.9, 801), 1.0 - tails))
        scalar = np.array([std_normal_quantile(v) for v in q.tolist()])
        assert np.max(np.abs(scalar - std_normal_quantile(q))) <= 1e-13

    def test_numpy_scalars_take_the_same_path(self):
        for v in (np.float64(0.3), np.float32(0.3)):
            assert type(std_normal_cdf(v)) is float
            assert std_normal_cdf(v) == std_normal_cdf(float(v))
            assert std_normal_quantile(v) == std_normal_quantile(float(v))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_cdf_rejects_non_finite(self, bad):
        with pytest.raises(DomainError, match="finite"):
            std_normal_cdf(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, 1.0,
                                     np.float64(0.0), np.float64(1.0)])
    def test_quantile_rejects_outside_open_interval(self, bad):
        with pytest.raises(DomainError):
            std_normal_quantile(bad)


def _level(t, w, T, c):
    """The conditional probability that W_T ends below c, given W_t = w:
    the level the simulator feeds to the kernel."""
    return std_normal_cdf((c - w) / math.sqrt(T - t))


class TestMartingaleLevel:
    def test_at_origin(self):
        assert _level(0.0, 0.0, 1.0, 0.0) == 0.5

    def test_composition_with_cdf(self):
        got = _level(0.0, 0.0, 4.0, 2.0)
        assert got == pytest.approx(cdf_by_quadrature(1.0), abs=1e-12)

    def test_monotone_decreasing_in_w(self):
        w = np.linspace(-5.0, 5.0, 101)
        vals = _level(0.3, w, 1.0, 0.0)
        assert np.all(np.diff(vals) < 0)

    def test_limits_stay_interior(self):
        assert _level(0.5, 1e6, 1.0, 0.0) == CDF_MIN
        assert _level(0.5, -1e6, 1.0, 0.0) == CDF_MAX

    def test_empirical_martingale_increment(self):
        # one-step martingale property along simulated Brownian paths
        rng = np.random.default_rng(123)
        n = 200_000
        t, dt, T, c = 0.3, 0.2, 1.0, 0.2
        w_t = rng.normal(0.0, math.sqrt(t), n)
        w_next = w_t + rng.normal(0.0, math.sqrt(dt), n)
        m_t = _level(t, w_t, T, c)
        m_next = _level(t + dt, w_next, T, c)
        diff = m_next - m_t
        stderr = diff.std(ddof=1) / math.sqrt(n)
        assert abs(diff.mean()) <= 3.0 * stderr


class TestParams:
    def test_valid(self):
        prm = Params(2.0, 1.0, 0.0, 0.0)
        assert prm.p == 2.0

    @pytest.mark.parametrize("kwargs", [
        dict(p=1.0, T=1.0, x=0.0, c=0.0),
        dict(p=0.5, T=1.0, x=0.0, c=0.0),
        dict(p=2.0, T=0.0, x=0.0, c=0.0),
        dict(p=2.0, T=-1.0, x=0.0, c=0.0),
        dict(p=2.0, T=1.0, x=-0.1, c=0.0),
        dict(p=2.0, T=1.0, x=1.1, c=0.0),
        dict(p=2.0, T=1.0, x=0.0, c=float("inf")),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            Params(**kwargs)
