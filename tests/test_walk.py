import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targetcost.errors import DomainError, ResourceError
from targetcost.normals import std_normal_cdf, std_normal_quantile
from targetcost.walk import (TINY, _bellman_min, _expand, _first_binding,
                             _floor, _sweep, dp_g_profile, dp_value,
                             save_profile)

from helpers import (inner_min, reference_dp_value, refinement_gap,
                     scan_min_split)


class TestInnerMin:
    def test_symmetric_case(self):
        a, cost = inner_min(1.0, 1.0, 2.0)
        assert a == 0.5
        assert cost == 0.5

    def test_no_pressure(self):
        assert inner_min(1.0, 0.0, 2.0) == (0.0, 0.0)

    def test_infinite_continuation_forces_jump(self):
        assert inner_min(3.0, math.inf, 2.0) == (1.0, 3.0)

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


class TestBellmanMin:
    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0, 3.0, 7.0, 20.0])
    def test_in_place_matches_the_expression(self, p):
        # written in place, with x^1 skipped and x^-1 as a reciprocal, the
        # closed form gives the bits of the expression it replaces
        kappa1 = 3.7
        e = np.concatenate([[0.0, 1e-300, kappa1],
                            np.random.default_rng(5).uniform(0, kappa1, 5000)])
        expected = e * (1.0 + (e / kappa1) ** (1.0 / (p - 1.0))) ** (1.0 - p)
        out, work = np.full_like(e, np.nan), np.full_like(e, np.nan)
        returned = _bellman_min(kappa1, e, p, out=out, work=work)
        assert returned is out
        assert np.array_equal(out, expected)
        assert all(_bellman_min(kappa1, float(x), p) == y
                   for x, y in zip(e[:50], expected[:50]))


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

    def test_numpy_scalar_arguments(self):
        # the argument checks are Params's, which take NumPy numbers too
        assert dp_value(100, np.int64(1), np.float32(0.0), 2.0) == \
            dp_value(100, 1.0, 0.0, 2.0)

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

    @pytest.mark.parametrize("n", [2, 3, 101, 1000, 4000])
    @pytest.mark.parametrize("p", [1.2, 2.0, 7.0])
    def test_cut_off_is_within_its_bound(self, p, n):
        # the argument in _floor needs n * cut-off <= 2^-60 * root, and a
        # cut-off at TINY where that bound would fall under it
        for T in (0.25, 4.0):
            for k in (-9.0, -1.0, 0.0, 1.0, 6.0, 9.0):
                dt, c = T / n, k * math.sqrt(T)
                J = int(_first_binding(n, dt, c, "geq"))
                floor, root = _floor(n, J, dt, p), dp_value(n, T, c, p)
                assert floor >= TINY
                assert floor == TINY or n * floor <= 2.0 ** -60 * root, (T, k)

    def test_live_nodes_at_the_benchmark_size(self):
        # the cut-off relative to the root keeps about half of the nodes
        # a cut at TINY alone keeps (7 855 508 at n = 8000, p = 2, c = 0)
        n = 8000
        J = int(_first_binding(n, 1.0 / n, 0.0, "geq"))
        live = sum(hi - lo for _psi, lo, hi, _certain in _sweep(
            n + 1, J, n, 1.0 / n, 2.0, _floor(n, J, 1.0 / n, 2.0)))
        assert live <= 4_000_000

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


# float.hex of dp_value(n, 1, c, p, tie) for (tie, c) in GOLDEN_CASES,
# recorded from the sweep that allocated its temporaries layer by layer
# (commit ee15d96).  The in-place sweep must reproduce them bit for bit.
GOLDEN_CASES = (("geq", 0.0), ("geq", 0.3), ("gt", 0.0), ("gt", 0.3))
GOLDEN_VALUES = {
    (3, 1.5): ("0x1.bb4ba652efe02p-1",) * 4,
    (3, 2.0): ("0x1.c3c3c3c3c3c3cp-1",) * 4,
    (3, 3.0): ("0x1.c838d248f2eabp-1",) * 4,
    (3, 7.0): ("0x1.cb36fbf253a3bp-1",) * 4,
    (501, 1.5): ("0x1.9d3ebbe2e2200p-1", "0x1.70ecbf9aa27f5p-1") * 2,
    (501, 2.0): ("0x1.ba3df310824d3p-1", "0x1.994d80b477788p-1") * 2,
    (501, 3.0): ("0x1.cc32390abc3eep-1", "0x1.b37837b5ea844p-1") * 2,
    (501, 7.0): ("0x1.d9e9b01ec9b5cp-1", "0x1.c7f76077029ffp-1") * 2,
    (4000, 1.5): ("0x1.9f5a837d59ab8p-1", "0x1.6ab487646203ep-1",
                  "0x1.9ab8d3f04111ep-1", "0x1.6ab487646203ep-1"),
    (4000, 2.0): ("0x1.bd77446678847p-1", "0x1.96ea3e6e3f4b2p-1",
                  "0x1.ba277e4f2031ap-1", "0x1.96ea3e6e3f4b2p-1"),
    (4000, 3.0): ("0x1.d0816f075a495p-1", "0x1.b468ed6f6e6f5p-1",
                  "0x1.ce1d5bb1fb494p-1", "0x1.b468ed6f6e6f5p-1"),
    (4000, 7.0): ("0x1.dfdc31121509bp-1", "0x1.ccded52cf8f0cp-1",
                  "0x1.de3f964de809cp-1", "0x1.ccded52cf8f0cp-1"),
}
# the benchmark's oracle size, p = 2, c = 0
GOLDEN_N8000 = {"geq": "0x1.bd429ec3ddb54p-1", "gt": "0x1.baecfd2fe7a69p-1"}
# dp_g_profile(500, 2, GOLDEN_LEVELS)
GOLDEN_LEVELS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
GOLDEN_PROFILE = (
    "0x1.fa7eec8c10babp-1", "0x1.f0f6ba18eda10p-1", "0x1.e196b1941d1dep-1",
    "0x1.cf3a099015241p-1", "0x1.bee40d8625a91p-1", "0x1.9f5fa2ad1160ep-1",
    "0x1.77097199f7435p-1", "0x1.34e7461f59c72p-1", "0x1.ae77808823234p-2",
)
# float.hex of dp_value(n, T, k sqrt(T), p, tie) for k in DEEP_KS, recorded
# before the sweep's cut-off became relative to a lower bound on the root
# (commit da6150f).  No threshold lands on a node, so both ties give these
# bits.  The roots run from 2^12 down to 2^-64, so a cut-off that is not
# tied to the root's own size shows here.
DEEP_KS = (-9, -6, 6, 9)
GOLDEN_DEEP = {
    (0.25, 501, 1.2): ("0x1.51cb453b9536cp+0", "0x1.51cb453b70058p+0",
                       "0x1.fcc5dd06118d0p-29", "0x1.597eb680c0867p-63"),
    (0.25, 501, 7.0): ("0x1.0000000000003p+12", "0x1.ffffffffed9f8p+11",
                       "0x1.9ae6787db2a8bp-3", "0x1.b3ddab0a9f145p-31"),
    (0.25, 4000, 1.2): ("0x1.51cb453b9536cp+0", "0x1.51cb453b63b78p+0",
                        "0x1.15639a3d96dc1p-28", "0x1.1e169f38a67eap-61"),
    (0.25, 4000, 7.0): ("0x1.0000000000000p+12", "0x1.ffffffffeea5bp+11",
                        "0x1.ad08a9ecca11dp-2", "0x1.16dc9c7026905p-27"),
    (4.0, 501, 1.2): ("0x1.8406003b2ae5dp-1", "0x1.8406003b002cep-1",
                      "0x1.24369ac099cb6p-29", "0x1.8cde97f730190p-64"),
    (4.0, 501, 7.0): ("0x1.0000000000003p-12", "0x1.ffffffffed9f8p-13",
                      "0x1.9ae6787db2a8bp-27", "0x1.b3ddab0a9f145p-55"),
    (4.0, 4000, 1.2): ("0x1.8406003b2ae5dp-1", "0x1.8406003af20a3p-1",
                       "0x1.3ea2e935fd688p-29", "0x1.48a115a617406p-62"),
    (4.0, 4000, 7.0): ("0x1.0000000000000p-12", "0x1.ffffffffeea5bp-13",
                       "0x1.ad08a9ecca11dp-26", "0x1.16dc9c7026905p-51"),
}
# dp_g_profile(n, p, levels) at the same commit, for levels whose roots span
# up to 2^-29 .. 1; at n = 60 no terminal node reaches the last level's
# threshold (7.94 > sqrt(60)), so it cannot bind and its root is 0.
GOLDEN_DEEP_PROFILES = (
    (60, 2.0, (1e-9, 0.5, 1 - 1e-9, 1 - 1e-15),
     ("0x1.ffffffffff5c4p-1", "0x1.c44529ee18757p-1", "0x1.146bb3c322cf1p-29",
      "0x0.0p+0")),
    (4000, 1.2, (1e-9, 0.5, 1 - 1e-9),
     ("0x1.ffffffffb4fa1p-1", "0x1.69077668c6299p-1", "0x1.a471765b12878p-29")),
    (4000, 7.0, (1e-9, 0.5, 1 - 1e-9),
     ("0x1.ffffffffeea5bp-1", "0x1.dfdc31121509bp-1", "0x1.ad08a9ecca11dp-14")),
)


class TestGoldenBits:
    """Exact bits of recorded lattice values; the full-width reference is
    compared only to 1e-13, so these are what pin the sweep's arithmetic."""

    @pytest.mark.parametrize("n, p", sorted(GOLDEN_VALUES))
    def test_dp_value(self, n, p):
        got = tuple(dp_value(n, 1.0, c, p, tie=tie).hex()
                    for tie, c in GOLDEN_CASES)
        assert got == GOLDEN_VALUES[n, p]

    @pytest.mark.parametrize("tie", ["geq", "gt"])
    def test_benchmark_size(self, tie):
        assert dp_value(8000, 1.0, 0.0, 2.0, tie=tie).hex() == GOLDEN_N8000[tie]

    def test_profile(self):
        profile = dp_g_profile(500, 2.0, GOLDEN_LEVELS)
        assert [y for y, _ in profile] == list(GOLDEN_LEVELS)
        assert tuple(v.hex() for _, v in profile) == GOLDEN_PROFILE

    @pytest.mark.parametrize("tie", ["geq", "gt"])
    @pytest.mark.parametrize("T, n, p", sorted(GOLDEN_DEEP))
    def test_deep_thresholds(self, T, n, p, tie):
        got = tuple(dp_value(n, T, k * math.sqrt(T), p, tie=tie).hex()
                    for k in DEEP_KS)
        assert got == GOLDEN_DEEP[T, n, p]

    @pytest.mark.parametrize("n, p, levels, expected", GOLDEN_DEEP_PROFILES)
    def test_deep_profile(self, n, p, levels, expected):
        profile = dp_g_profile(n, p, levels)
        assert tuple(v.hex() for _, v in profile) == expected

    def test_step_cost_past_half_the_largest_float(self):
        # dt = 1e-308 puts kappa1 = 1e308 above 2^1023, where 2 kappa1
        # overflows; recorded at commit da6150f
        T = 1e-306
        got = [dp_value(100, T, k * math.sqrt(T), 2.0).hex() for k in (-1, 0, 1)]
        assert got == ["0x1.66259d285f544p+1016", "0x1.40926eb22d60cp+1016",
                       "0x1.658fb1f465834p+1015"]


def _layers(n, T, c, p):
    """Every layer of the oracle's sweep in full, root layer first."""
    dt = T / n
    J = _first_binding(n, dt, c, "geq")
    layers = [_expand(n + 1 - m, *band)
              for m, band in enumerate(
                  _sweep(n + 1, J, n, dt, p, _floor(n, J, dt, p)), start=1)]
    return layers[::-1]


class TestOracleTable:
    def test_monotone_in_position(self):
        # a higher walk position leaves less room: it never costs less
        for layer in _layers(301, 1.0, 0.1, 2.0):
            assert np.all(np.diff(layer) >= -1e-12)

    def test_terminal_layer_sentinels(self):
        # the first binding index splits the terminal walk values at c
        J = _first_binding(10, 0.1, 0.0, "geq")
        w = (2.0 * np.arange(11) - 10) * math.sqrt(0.1)
        assert np.all(w[J:] >= 0.0) and np.all(w[:J] < 0.0)

    @pytest.mark.parametrize("tie", ["geq", "gt"])
    @pytest.mark.parametrize("n", [2, 3, 100, 501])
    def test_first_binding_matches_count(self, n, tie):
        # one binary search gives the index of counting the binding nodes,
        # for thresholds between nodes, exactly on them and past either end
        dt = 1.0 / n
        w_end = (2.0 * np.arange(n + 1) - n) * math.sqrt(dt)
        mids = 0.5 * (w_end[:-1] + w_end[1:])
        cs = np.concatenate([w_end, mids, [w_end[0] - 1.0, w_end[-1] + 1.0,
                                           0.0, 0.3, -0.7]])
        counted = [n + 1 - int(np.count_nonzero(
            w_end >= c if tie == "geq" else w_end > c)) for c in cs]
        assert _first_binding(n, dt, cs, tie).tolist() == counted
        assert [int(_first_binding(n, dt, float(c), tie))
                for c in cs] == counted

    def test_root_matches_dp_value(self):
        assert _layers(200, 1.0, 0.3, 2.0)[0][0] == dp_value(200, 1.0, 0.3, 2.0)

    def test_interior_levels_are_finite(self):
        for layer in _layers(50, 1.0, 0.0, 2.0):
            assert np.all(np.isfinite(layer))


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
    ok, _details = verify.suite_scaling("full")
    assert ok
    assert len(calls) == len(set(calls)) == 24


def test_refinement_gap_helper():
    gap = refinement_gap(500, 1.0, 0.0, 2.0)
    assert gap == pytest.approx(abs(dp_value(1000, 1.0, 0.0, 2.0)
                                    - dp_value(500, 1.0, 0.0, 2.0)), abs=1e-15)
