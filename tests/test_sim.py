import io
import math
import threading
import tracemalloc

import numpy as np
import pytest

from targetcost import sim
from targetcost.errors import DomainError, ResourceError, UsageError
from targetcost.normals import Params
from targetcost.sim import (BLOCK, CHUNK, MAX_LIVE_BYTES, bsde_residual,
                            dump_path_csv, mc_cost_estimate, recorded_paths,
                            _block_increments, _chunks)
from targetcost.verify import _perturbed_curve
from targetcost.walk import dp_value

from helpers import (exponential_form_control, mc_estimate_and_costs,
                     reference_bsde_residual, reference_increments,
                     reference_mc_costs, reference_path,
                     terminal_blowup_medians)

PARAMS = Params(2.0, 1.0, 0.0, 0.0)


def first_path(curve, params, n_steps, seed):
    """Path 0 of the stream layout, filled by recorded_paths."""
    return next(recorded_paths(curve, params, n_steps, seed, 1))


class TestBrownian:
    def test_determinism(self, curve_p2):
        a = first_path(curve_p2, PARAMS, 64, 7)
        b = first_path(curve_p2, PARAMS, 64, 7)
        assert np.array_equal(a.W, b.W)
        c = first_path(curve_p2, PARAMS, 64, 8)
        assert not np.array_equal(a.W, c.W)

    def test_shapes(self, curve_p2):
        path = first_path(curve_p2, Params(2.0, 2.0, 0.0, 0.0), 2, 1)
        assert len(path.W) == 3
        assert len(path.dW) == 2
        assert path.W[0] == 0.0
        assert path.times[-1] == 2.0

    def test_increment_scale(self, curve_p2):
        path = first_path(curve_p2, Params(2.0, 4.0, 0.0, 0.0), 100, 3)
        assert np.allclose(np.diff(path.W), path.dW)

    def test_terminal_variance(self):
        # 1e5 paths through the same block layout the Monte Carlo loop uses
        T, n = 1.5, 8
        total = 100_000
        sums = []
        for b in range(total // BLOCK + 1):
            rows = min(BLOCK, total - b * BLOCK)
            if rows <= 0:
                break
            dw = _block_increments(99, b, 0, rows, n, math.sqrt(T / n))
            sums.append(dw.sum(axis=1))
        w_T = np.concatenate(sums)
        var = w_T.var(ddof=1)
        se = T * math.sqrt(2.0 / (len(w_T) - 1))
        assert abs(var - T) <= 3.0 * se

    def test_path_matches_block_row(self, curve_p2, n_steps=16):
        # path i of the master seed equals row i of its block stream
        dw_block = reference_increments(5, 0, 3, n_steps, 1.0)
        paths = list(recorded_paths(
            curve_p2, Params(2.0, float(n_steps), 0.0, 0.0), n_steps, 5, 3))
        assert np.array_equal(paths[2].dW, dw_block[2])

    def test_path_matches_block_row_across_chunks(self, curve_p2):
        self.test_path_matches_block_row(curve_p2, n_steps=130)

    def test_domain_errors(self, curve_p2):
        with pytest.raises(DomainError):
            first_path(curve_p2, PARAMS, 1, 0)
        with pytest.raises(DomainError):
            first_path(curve_p2, (2.0, 0.0, 0.0, 0.0), 10, 0)


class TestOptimalControl:
    def test_state_one_means_idle(self, curve_p2):
        path = first_path(curve_p2, Params(2.0, 1.0, 1.0, 0.0), 100, 2)
        assert np.all(path.u == 0.0)
        assert path.cost[-1] == 0.0
        assert np.all(path.X == 1.0)

    def test_feasibility_both_classes(self, curve_p2):
        seen = set()
        for seed in range(40):
            path = first_path(curve_p2, PARAMS, 200, seed)
            binding = path.W[-1] > 0.0
            seen.add(binding)
            assert np.all(path.u >= 0.0)
            assert np.all(np.diff(path.X) >= -1e-15)
            assert np.all(path.X <= 1.0)
            if binding:
                assert path.X[-1] == 1.0
            else:
                assert path.X[-1] < 1.0
            assert np.all(np.diff(path.cost) >= 0.0)
            assert path.M[-1] == float(path.W[-1] < 0.0)
        assert seen == {True, False}

    def test_closed_form_representation_agrees(self, curve_p2):
        for seed in (1, 5, 11):
            path = first_path(curve_p2, PARAMS, 400, seed)
            u_exp = exponential_form_control(curve_p2, PARAMS, path)
            ref = path.u[:len(u_exp) - 1]
            rel = np.abs(u_exp[:-1] - ref) / np.maximum(np.abs(ref), 1e-30)
            assert np.max(rel) <= 1e-6

    def test_p_mismatch(self, curve_p2):
        with pytest.raises(UsageError):
            first_path(curve_p2, Params(3.0, 1.0, 0.0, 0.0), 50, 1)

    def test_csv_dump(self, curve_p2):
        path = first_path(curve_p2, PARAMS, 16, 4)
        buf = io.StringIO()
        dump_path_csv(path, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,W,M,u,X,cost_running"
        assert len(lines) == 18


class TestMcCost:
    def test_reference_value(self, curve_p2):
        mean, se, viol = mc_cost_estimate(curve_p2, PARAMS, 20_000, 500, 7)
        assert viol == 0
        assert abs(mean - dp_value(500, 1.0, 0.0, 2.0)) <= 0.03 + 3.0 * se

    def test_state_one(self, curve_p2):
        mean, se, viol = mc_cost_estimate(
            curve_p2, Params(2.0, 1.0, 1.0, 0.0), 500, 50, 1)
        assert mean == 0.0 and se == 0.0 and viol == 0

    def test_determinism(self, curve_p2):
        one = mc_cost_estimate(curve_p2, PARAMS, 3 * BLOCK // 2, 100, 5)
        two = mc_cost_estimate(curve_p2, PARAMS, 3 * BLOCK // 2, 100, 5)
        assert one == two

    @pytest.mark.parametrize("n_paths", [1, 7, BLOCK + 10])
    def test_per_path_helper_reproduces_the_estimate(self, curve_p2, n_paths):
        # the per-path costs the paired tests read are those of the estimate
        params = Params(2.0, 1.0, 0.1, 0.2)
        *estimate, costs = mc_estimate_and_costs(curve_p2, params, n_paths,
                                                 40, 3)
        assert tuple(estimate) == mc_cost_estimate(curve_p2, params, n_paths,
                                                   40, 3)
        assert len(costs) == n_paths

    def test_path_layout_across_blocks(self, curve_p2, n_steps=50):
        # Path i of the estimate is the path regenerated alone from
        # (seed, i), on either side of a block boundary, and a shorter run
        # is a prefix of a longer one.
        seed = 11
        *_, costs = mc_estimate_and_costs(curve_p2, PARAMS, BLOCK + 10,
                                          n_steps, seed)
        assert len(costs) == BLOCK + 10
        for i in (0, BLOCK - 1, BLOCK, BLOCK + 9):
            path = reference_path(curve_p2, PARAMS, n_steps, seed, i)
            assert costs[i] == pytest.approx(path.cost[-1], rel=1e-12, abs=0.0)
        *_, head = mc_estimate_and_costs(curve_p2, PARAMS, 7, n_steps, seed)
        np.testing.assert_allclose(head, costs[:7], rtol=1e-12, atol=0.0)

    def test_path_layout_across_blocks_and_chunks(self, curve_p2):
        self.test_path_layout_across_blocks(curve_p2, n_steps=130)

    def test_horizon_scaling(self, curve_p2):
        m1, se1, _ = mc_cost_estimate(curve_p2, PARAMS, 20_000, 400, 13)
        m4, se4, _ = mc_cost_estimate(
            curve_p2, Params(2.0, 4.0, 0.0, 0.0), 20_000, 400, 14)
        assert abs(m4 - m1 / 4.0) <= 0.01 + 3.0 * (se4 + se1 / 4.0)

    def test_perturbed_gain_costs_more(self, curve_p2):
        _, _, _, costs = mc_estimate_and_costs(curve_p2, PARAMS, 20_000,
                                               2000, 7)
        for eta in (0.05, -0.05):
            _, _, viol, costs_p = mc_estimate_and_costs(
                _perturbed_curve(curve_p2, eta, 0.3, 0.7), PARAMS, 20_000,
                2000, 7)
            diff = costs_p - costs
            gap = float(diff.mean())
            se_d = float(diff.std(ddof=1)) / math.sqrt(len(diff))
            assert viol == 0
            assert gap > 3.0 * se_d


class TestBlockStream:
    """Blocks driven chunk by chunk from their increments, the next chunk
    drawn on a helper thread, give the per-path costs of the Brownian-value
    matrix bit for bit and leave no thread behind.  Chunk j of block b holds
    steps [64j, 64j + 64), drawn path-major from Philox keyed by (seed, b)
    with its counter at j << 192."""

    @staticmethod
    def stream_blocks(seed, n_paths, n_steps):
        """Each block's increments at sqrt_dt = 1, joined from the chunk
        stream."""
        chunks = list(_chunks(seed, n_paths, n_steps, float(n_steps), n_steps))
        per_block = -(-n_steps // CHUNK)
        return [np.concatenate(chunks[i:i + per_block], axis=1)
                for i in range(0, len(chunks), per_block)]

    @pytest.mark.parametrize("n_steps", [2, 64, 130])
    def test_stream_is_a_direct_philox_draw(self, n_steps):
        # At most 64 steps the stream is one plain path-major draw per
        # block, keyed by (seed, block); past 64 each chunk has its own
        # counter.
        blocks = self.stream_blocks(3, BLOCK + 5, n_steps)
        assert [len(b) for b in blocks] == [BLOCK, 5]
        for b, block in enumerate(blocks):
            assert np.array_equal(
                block, reference_increments(3, b, len(block), n_steps, 1.0))
            if n_steps <= CHUNK:
                key = np.array([3, b], dtype=np.uint64)
                direct = np.random.Generator(np.random.Philox(key=key))
                assert np.array_equal(
                    block, direct.standard_normal((len(block), n_steps)))

    def test_full_chunks_are_a_prefix_of_longer_runs(self):
        # The increments of steps [0, 64j) are the same for every
        # n_steps >= 64j, in every block.
        runs = {n: self.stream_blocks(9, BLOCK + 3, n)
                for n in (64, 65, 128, 200)}
        for n, blocks in runs.items():
            for m, others in runs.items():
                full = CHUNK * (min(n, m) // CHUNK)
                for block, other in zip(blocks, others):
                    assert np.array_equal(block[:, :full], other[:, :full])

    @pytest.mark.parametrize("bump", [False, True])
    @pytest.mark.parametrize("n_paths", [1, 7, BLOCK, 2 * BLOCK + 7])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_costs_match_brownian_matrix(self, shots_all, p, n_paths, bump,
                                         n_steps=30):
        curve = shots_all[p].curve
        if bump:
            curve = _perturbed_curve(curve, 0.05, 0.3, 0.7)
        params = Params(p, 1.0, 0.1, 0.2)
        *_, viol, costs = mc_estimate_and_costs(curve, params, n_paths,
                                                n_steps, 5)
        ref_costs, ref_viol = reference_mc_costs(curve, params, n_paths,
                                                 n_steps, 5)
        assert np.array_equal(costs, ref_costs)
        assert viol == ref_viol

    @pytest.mark.parametrize("bump", [False, True])
    @pytest.mark.parametrize("n_paths", [1, 7, BLOCK, 2 * BLOCK + 7])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_costs_match_brownian_matrix_across_chunks(self, shots_all, p,
                                                       n_paths, bump):
        # 130 steps: two full chunks and a partial one
        self.test_costs_match_brownian_matrix(shots_all, p, n_paths, bump,
                                              n_steps=130)

    def test_bsde_residual_matches_brownian_matrix(self, curve_p2,
                                                   n_steps=40, delta=0.3):
        args = (curve_p2, 2.0, 1.0, 0.0, 2 * BLOCK - 5, n_steps, delta, 3)
        assert bsde_residual(*args) == reference_bsde_residual(*args)

    @pytest.mark.parametrize("delta", [0.3, 0.005])
    def test_bsde_residual_matches_brownian_matrix_across_chunks(
            self, curve_p2, delta):
        # 130 steps: the window ends inside chunk 1, or (delta 0.005)
        # inside the partial chunk 2
        self.test_bsde_residual_matches_brownian_matrix(curve_p2, 130, delta)

    def test_bsde_residual_draws_only_its_window(self, curve_p2,
                                                 monkeypatch):
        # 200 steps at delta 0.45: the window is steps 0 .. 109, so each
        # block draws chunks 0 and 1 (128 steps) and not chunks 2 and 3
        drawn, draw = [], sim._block_increments

        def counts(*args):
            out = draw(*args)
            drawn.append(out.shape)
            return out

        monkeypatch.setattr(sim, "_block_increments", counts)
        args = (curve_p2, 2.0, 1.0, 0.0, BLOCK + 5, 200, 0.45, 3)
        stats = bsde_residual(*args)
        assert stats.window_steps == 110
        assert drawn == [(BLOCK, CHUNK)] * 2 + [(5, CHUNK)] * 2
        assert stats == reference_bsde_residual(*args)

    def test_single_path_bsde_residual_matches_brownian_matrix(self,
                                                               curve_p2):
        # one path: the shared reduction's stderr is 0.0, as the n - 1
        # divisor floored at 1 gave
        args = (curve_p2, 2.0, 1.0, 0.0, 1, 40, 0.3, 3)
        stats = bsde_residual(*args)
        assert stats == reference_bsde_residual(*args)
        assert stats.stderr == 0.0

    def test_recorded_paths_match_path_by_path(self, shots_all, n_steps=6):
        # Runs of recorded rows across a block boundary give what driving
        # one path at a time gives.
        curve = shots_all[3.0].curve
        params = Params(3.0, 2.0, 0.3, 0.2)
        index = {0, 255, 256, BLOCK - 1, BLOCK, BLOCK + 2}
        for i, path in enumerate(recorded_paths(curve, params, n_steps, 8,
                                                BLOCK + 3)):
            if i in index:
                ref = reference_path(curve, params, n_steps, 8, i)
                for name in ("times", "dW", "W", "M", "u", "X", "cost"):
                    assert np.array_equal(getattr(path, name),
                                          getattr(ref, name)), (i, name)
        assert i == BLOCK + 2

    def test_recorded_paths_match_path_by_path_across_chunks(self,
                                                              shots_all):
        self.test_recorded_paths_match_path_by_path(shots_all, n_steps=130)

    def test_one_helper_thread_joined_on_return(self, curve_p2, monkeypatch):
        before, seen = threading.active_count(), []
        eval_g_z = sim.eval_g_z

        def counts_threads(curve, z):
            seen.append(threading.active_count())
            return eval_g_z(curve, z)

        monkeypatch.setattr(sim, "eval_g_z", counts_threads)
        mc_cost_estimate(curve_p2, PARAMS, 2 * BLOCK + 1, 10, 1)
        assert max(seen) == before + 1
        assert threading.active_count() == before

    @pytest.mark.parametrize("drop", ["close", "del"])
    def test_dump_dropped_after_one_path_joins(self, curve_p2, drop):
        # block 1 is already submitted to the helper when the dump stops
        # after path 0
        before = threading.active_count()
        paths = recorded_paths(curve_p2, PARAMS, 10, 1, 2 * BLOCK + 1)
        next(paths)
        assert threading.active_count() == before + 1
        if drop == "close":
            paths.close()
        else:
            del paths
        assert threading.active_count() == before

    def test_error_on_second_block_propagates_and_joins(self, curve_p2,
                                                         monkeypatch):
        n_steps, calls = 10, []
        eval_g_z = sim.eval_g_z

        def fails_on_second_block(curve, z):
            calls.append(1)
            if len(calls) == n_steps:  # the first step of block 1
                raise RuntimeError("kernel lookup failed")
            return eval_g_z(curve, z)

        monkeypatch.setattr(sim, "eval_g_z", fails_on_second_block)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="kernel lookup failed"):
            mc_cost_estimate(curve_p2, PARAMS, 3 * BLOCK, n_steps, 1)
        assert len(calls) == n_steps
        assert threading.active_count() == before

    @pytest.mark.parametrize("route", ["mc_cost_estimate", "bsde_residual"])
    def test_error_inside_block_zero_propagates_and_joins(self, curve_p2,
                                                          monkeypatch, route):
        # 200 steps: the failing lookup comes in chunk 1 of block 0, while
        # the helper holds chunk 2
        calls, eval_g_z = [], sim.eval_g_z

        def fails_in_chunk_one(curve, z, **kw):
            calls.append(1)
            if len(calls) == 100:
                raise RuntimeError("kernel lookup failed")
            return eval_g_z(curve, z, **kw)

        monkeypatch.setattr(sim, "eval_g_z", fails_in_chunk_one)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="kernel lookup failed"):
            if route == "mc_cost_estimate":
                mc_cost_estimate(curve_p2, PARAMS, 2 * BLOCK, 200, 1)
            else:
                bsde_residual(curve_p2, 2.0, 1.0, 0.0, 2 * BLOCK, 200, 0.1, 1)
        assert len(calls) == 100
        assert threading.active_count() == before


class TestLiveMemory:
    """Bytes, not seconds: the traced peak of a two-block Monte Carlo run
    at 2000 steps is about two chunks of increments (2 MB each); when the
    stream prefetched whole blocks it was two blocks, 131 MB."""

    @pytest.mark.parametrize("route", ["mc_cost_estimate", "bsde_residual"])
    def test_peak_within_16_mb(self, curve_p2, route):
        tracemalloc.start()
        try:
            if route == "mc_cost_estimate":
                mc_cost_estimate(curve_p2, PARAMS, 2 * BLOCK, 2000, 1)
            else:
                bsde_residual(curve_p2, 2.0, 1.0, 0.0, 2 * BLOCK, 2000, 0.45,
                              1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 << 20


class TestMcArguments:
    @pytest.mark.parametrize("n_paths, n_steps",
                             [(10, 0), (10, 2.5), (10, 1), (0, 10), (2.0, 10)])
    def test_mc_cost_estimate_rejects(self, curve_p2, n_paths, n_steps):
        with pytest.raises(DomainError):
            mc_cost_estimate(curve_p2, PARAMS, n_paths, n_steps, 1)

    @pytest.mark.parametrize("n_paths, n_steps", [(0, 100), (10, 0), (10, 2.5)])
    def test_bsde_residual_rejects(self, curve_p2, n_paths, n_steps):
        with pytest.raises(DomainError):
            bsde_residual(curve_p2, 2.0, 1.0, 0.0, n_paths, n_steps, 0.3, 1)


class TestMemoryGuard:
    """Requests whose two live blocks of increments would pass
    MAX_LIVE_BYTES raise ResourceError before anything is drawn; here a
    draw is recorded and raises at once instead of allocating (a draw on
    the helper thread whose result is never read raises nowhere)."""

    AT_LIMIT = MAX_LIVE_BYTES // (2 * BLOCK * 8)  # steps at a full block

    @pytest.fixture(autouse=True)
    def draws(self, monkeypatch):
        calls = []

        def drew(*args):
            calls.append(args)
            raise RuntimeError("drew a block")
        monkeypatch.setattr(sim, "_block_increments", drew)
        return calls

    @pytest.mark.parametrize("n_paths, n_steps", [
        (BLOCK, AT_LIMIT + 1), (BLOCK + 1, AT_LIMIT + 1), (10_000, 100_000)])
    def test_over_the_limit_raises(self, curve_p2, draws, n_paths, n_steps):
        with pytest.raises(ResourceError, match="GiB"):
            mc_cost_estimate(curve_p2, PARAMS, n_paths, n_steps, 1)
        with pytest.raises(ResourceError):
            bsde_residual(curve_p2, 2.0, 1.0, 0.0, n_paths, n_steps, 0.3, 1)
        with pytest.raises(ResourceError):
            next(recorded_paths(curve_p2, PARAMS, n_steps, 1, n_paths))
        assert draws == []

    @pytest.mark.parametrize("n_paths, n_steps", [
        (BLOCK, AT_LIMIT), (1, 100_000)])
    def test_within_the_limit_draws(self, curve_p2, n_paths, n_steps):
        with pytest.raises(RuntimeError, match="drew a block"):
            mc_cost_estimate(curve_p2, PARAMS, n_paths, n_steps, 1)

    def test_empty_dump_draws_nothing(self, curve_p2, draws):
        assert list(recorded_paths(curve_p2, PARAMS, 100_000, 1, 0)) == []
        assert draws == []


class TestBsdeResidual:
    def test_mean_statistically_zero_and_rms_shrinks(self, curve_p2):
        stats = {}
        for n_steps in (500, 1000, 2000):
            st = bsde_residual(curve_p2, 2.0, 1.0, 0.0, 64, n_steps, 0.45, 2024)
            stats[n_steps] = st
            assert abs(st.mean_residual) <= 3.0 * st.stderr
            assert st.z_min >= 0.0
        assert stats[2000].rms_residual <= 0.6 * stats[500].rms_residual

    def test_systematic_part_vanishes_quadratically(self, curve_p2):
        # with many paths the discretization bias dominates the noise and
        # must shrink like dt^2 between refinements
        m500 = bsde_residual(curve_p2, 2.0, 1.0, 0.0, 2000, 500, 0.25, 3).mean_residual
        m2000 = bsde_residual(curve_p2, 2.0, 1.0, 0.0, 2000, 2000, 0.25, 3).mean_residual
        assert m500 > 0 and m2000 > 0
        assert m500 / m2000 == pytest.approx(16.0, rel=0.5)

    def test_terminal_blowup_classification(self, curve_p2):
        med = terminal_blowup_medians(curve_p2, 2.0, 1.0, 0.0, 4000, 4000,
                                      (0.1, 0.01, 0.001), 17)
        bind = [med[d][0] for d in (0.1, 0.01, 0.001)]
        free = [med[d][1] for d in (0.1, 0.01, 0.001)]
        assert bind[1] > 5.0 * bind[0]
        assert bind[2] > 5.0 * bind[1]
        assert max(free) <= 2.0 * free[0] + 1e-9
        assert free[2] <= free[0]

    def test_delta_domain(self, curve_p2):
        with pytest.raises(DomainError):
            bsde_residual(curve_p2, 2.0, 1.0, 0.0, 10, 100, 0.6, 1)
        with pytest.raises(DomainError):
            bsde_residual(curve_p2, 2.0, 1.0, 0.0, 10, 100, 0.0, 1)
