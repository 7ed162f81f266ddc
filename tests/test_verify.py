"""The verify suites through the API: the full budget passes, and the
suites that check the kernel fail when a wrong one is fed in."""

import dataclasses

import pytest

from targetcost import verify
from targetcost.verify import (_perturbed_curve, suite_bsde,
                               suite_policy_optimality)

SUITES = {"gcurve_invariants", "holder_inequality", "oracle_agreement",
          "scaling_law", "bsde_residual", "exp_duality", "policy_optimality",
          "mc_optimality"}


def _solve_bumped(shot, amp):
    """A solve that returns shot with its curve bumped by amp on the levels
    [0.3, 0.7]."""
    wrong = dataclasses.replace(
        shot, curve=_perturbed_curve(shot.curve, amp, 0.3, 0.7))
    return lambda p: wrong


def test_full_budget_passes_at_default_seed():
    report = verify.run_verification("full")
    assert set(report["suites"]) == SUITES
    assert report["passed"], [name for name, suite in report["suites"].items()
                               if not suite["passed"]]


def test_backward_identity_catches_a_bumped_kernel(shot_p2):
    ok, details = suite_bsde("quick", _solve_bumped(shot_p2, 0.05),
                             verify.DEFAULT_SEED)
    assert not ok
    assert min(stats["z_min"] for stats in details.values()) < 0.0


@pytest.mark.parametrize("amp", [0.05, -0.05])
def test_policy_optimality_catches_a_bumped_kernel(shot_p2, amp):
    # Bumping the wrong kernel back by -amp lowers the cost.
    ok, details = suite_policy_optimality(_solve_bumped(shot_p2, amp))
    assert not ok
    assert details[f"bump{-amp:+}"]["gap"] < 0.0
