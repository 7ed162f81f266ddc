"""Numerical toolkit for Brownian terminal-target cost minimization.

Calibrates the value-function kernel by a Newton finite-difference solve
of a semi-linear ODE, cross-checks it against a random-walk dynamic
program, simulates the optimal feedback control along Brownian paths with
a pathwise backward identity check, and evaluates the closed-form
exponential-cost case with its duality witnesses.
"""

from .errors import (CalibrationError, DivergenceError, DomainError,
                     RangeError, ResourceError, TargetCostError, UsageError)
from .expcase import (DualityWitness, duality_bound, duality_gap,
                      duality_witness, exp_cost_of_profile,
                      exp_optimal_control, exp_value, witness_sequence)
from .normals import (Params, h, martingale_level, std_normal_cdf,
                      std_normal_pdf, std_normal_quantile)
from .ode import (GCurve, ShootingResult, chord_lower_bound, eval_g,
                  eval_g_value, integrate_g, load_curve, ode_residuals,
                  save_curve, shoot, value_function)
from .sim import (BsdeResidualStats, SimPath, bsde_residual,
                  exponential_form_control, mc_cost_estimate, nth_path,
                  run_optimal_control, simulate_brownian,
                  terminal_blowup_medians)
from .verify import run_verification
from .walk import (OracleTable, dp_g_profile, dp_table, dp_value, inner_min,
                   refinement_gap)

__version__ = "0.1.0"
