"""Numerical toolkit for Brownian terminal-target cost minimization.

Calibrates the value-function kernel by a Newton finite-difference solve
of a semi-linear ODE, cross-checks it against a random-walk dynamic
program, simulates the optimal feedback control along Brownian paths with
a pathwise backward identity check, and evaluates the closed-form
exponential-cost case with its duality witnesses.

The package holds what the commands and `verify` run.  The reference
routes the tests compare against, among them the kernel's initial-value
integration by SciPy's DOP853 and the path-by-path drive, live there.
"""

from .errors import (CalibrationError, DomainError, ResourceError,
                     TargetCostError, UsageError)
from .expcase import (DualityWitness, duality_bound, duality_gap,
                      duality_witness, exp_cost_of_profile,
                      exp_optimal_control, exp_value, witness_sequence)
from .normals import Params, std_normal_cdf, std_normal_pdf, std_normal_quantile
from .ode import (GCurve, ShootingResult, chord_lower_bound, eval_g,
                  eval_g_value, load_curve, ode_residuals, policy_cost,
                  save_curve, shoot, value_function)
from .sim import (BsdeResidualStats, SimPath, bsde_residual, mc_cost_estimate,
                  recorded_paths)
from .verify import run_verification
from .walk import dp_g_profile, dp_value

__version__ = "0.1.0"
