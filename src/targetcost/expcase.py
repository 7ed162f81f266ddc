"""Closed-form exponential-cost case and its duality witnesses.

With running cost exp(lam*|u|) - 1 the optimal control is deterministic:
move toward 1 at constant speed (1-x)+/T, for a total cost of
T*(exp(lam*(1-x)+/T) - 1) whatever the threshold.  The lower-bound side of
that statement rests on a sequence of drift martingales indexed by n whose
terminal mass tends to 1 while their accumulated entropy cost tends to 0;
duality_witness evaluates both quantities for one n so the tradeoff and
the resulting bound can be inspected numerically.  Both integrals come from
their antiderivatives; the quadrature cross-check of the entropy lives
in verify's exp_duality suite and in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .normals import std_normal_cdf

# Regularizer floor: n^-n underflows double precision for n >= 144; its only
# role is keeping the witness drift integrand finite at the endpoint.
REGULARIZER_FLOOR = 1e-300


def _check_horizon(T, **finite):
    """A finite horizon T > 0 and finite named values (the state x, the
    threshold c), in Params' wording."""
    for name, v in (("T", T), *finite.items()):
        if not math.isfinite(v):
            raise DomainError(f"{name} must be a finite number")
    if not (T > 0.0):
        raise DomainError("T must be > 0")


def exp_value(T, x, lam):
    """T * (exp(lam * (1-x)+ / T) - 1); independent of the threshold."""
    _check_horizon(T, x=x)
    if not (lam > 0.0):
        raise DomainError("lam must be > 0")
    gap = max(1.0 - x, 0.0)
    return T * math.expm1(lam * gap / T)


def exp_optimal_control(T, x):
    """Constant rate (1-x)+ / T."""
    _check_horizon(T, x=x)
    return max(1.0 - x, 0.0) / T


def exp_cost_of_profile(profile, T, lam):
    """Trapezoid cost of a deterministic nonnegative rate profile.

    The profile samples a rate function on the uniform grid over [0, T]
    (len(profile) nodes including both endpoints).
    """
    arr = np.asarray(profile, dtype=float)
    if arr.ndim != 1 or len(arr) < 2:
        raise DomainError("profile must be a 1-d array with at least 2 samples")
    if np.any(~np.isfinite(arr)) or np.any(arr < 0.0):
        raise DomainError("profile must be finite and nonnegative")
    _check_horizon(T)
    if not (lam > 0.0):
        raise DomainError("lam must be > 0")
    return float(np.trapezoid(np.expm1(lam * arr), dx=T / (len(arr) - 1)))


def _regularizer(n):
    r = math.exp(-n * math.log(n))  # n^-n, underflowing to 0 for large n
    return max(r, REGULARIZER_FLOOR)


@dataclass(frozen=True)
class DualityWitness:
    """Mass and entropy cost of one drift martingale in the witness sequence.

    drift_integral is the accumulated drift over [0, T]; mass is the
    probability the drifted path ends above the threshold; entropy is the
    expected accumulated relative-entropy cost of the measure change.
    """

    n: int
    drift_integral: float
    mass: float
    entropy: float

    def __post_init__(self):
        if not (0.0 < self.mass < 1.0):
            raise DomainError("mass must lie strictly inside (0, 1)")
        if self.entropy < 0.0:
            raise DomainError("entropy must be >= 0")


def duality_witness(n, T, c):
    """Evaluate witness n: drift integral and entropy, both in closed form.

    Witness n drifts at the deterministic rate
    zeta(t) = n^{-2/3} / (T + r - t)^{1 - 1/n}, r = n^-n (floored at
    REGULARIZER_FLOOR).  The drift integral int zeta dt uses the power
    rule, and the entropy (1/2) * int zeta^2 (T-t) dt is
    entropy_closed_form.  Quadrature of the entropy in log s,
    s = T + r - t, agrees to 1e-14 relative; verify (Gauss-Legendre) and
    the tests (adaptive) keep it as the independent check.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise DomainError("n must be an integer >= 2")
    _check_horizon(T, c=c)
    r = _regularizer(n)
    drift_integral = n ** (1.0 / 3.0) * ((T + r) ** (1.0 / n) - r ** (1.0 / n))
    mass = 1.0 - std_normal_cdf((c - drift_integral) / math.sqrt(T))
    entropy = entropy_closed_form(n, T)
    return DualityWitness(n=int(n), drift_integral=float(drift_integral),
                          mass=float(mass), entropy=float(entropy))


def entropy_closed_form(n, T):
    """The witness entropy (1/2) * int zeta^2 (T-t) dt by its antiderivative.

    With s = T + r - t and beta = 2/n the integrand is
    (n^{-4/3} / 2) (s - r) s^{beta-2}, whose antiderivative is
    s^beta / beta - r s^{beta-1} / (beta - 1), or s - r log s at beta = 1
    (n = 2).
    """
    r = _regularizer(n)
    beta = 2.0 / n
    upper, lower = T + r, r

    def anti(s):
        if beta == 1.0:
            return s - r * math.log(s)
        return s ** beta / beta - r * s ** (beta - 1.0) / (beta - 1.0)

    return 0.5 * n ** (-4.0 / 3.0) * (anti(upper) - anti(lower))


def duality_bound(T, x, lam, witness):
    """Lower bound on exp_value(T, x, lam) + T induced by one witness:
    T * exp(-lam*x/T) * exp((lam*mass - entropy)/T)."""
    return T * math.exp(-lam * x / T) * math.exp(
        (lam * witness.mass - witness.entropy) / T)


def duality_gap(T, x, lam, witness):
    """Relative shortfall of the witness bound: (lhs - rhs) / lhs >= 0."""
    lhs = exp_value(T, x, lam) + T
    return (lhs - duality_bound(T, x, lam, witness)) / lhs


def witness_sequence(ns, T, c, lam=1.0, x=0.0):
    """Witnesses for each n plus monotonicity flags over the sequence.

    Returns (witnesses, flags) where flags reports whether mass increased
    and entropy decreased strictly along the sequence; violations on
    user-chosen sequences are reported, not raised.
    """
    witnesses = [duality_witness(n, T, c) for n in ns]
    mass_up = all(b.mass > a.mass for a, b in zip(witnesses, witnesses[1:]))
    entropy_down = all(b.entropy < a.entropy
                       for a, b in zip(witnesses, witnesses[1:]))
    return witnesses, {"mass_increasing": mass_up,
                       "entropy_decreasing": entropy_down}


def save_witnesses(witnesses, T, x, lam, path):
    """CSV `n,I_n,mass,entropy,duality_gap` for the witness study."""
    with open(path, "w", newline="") as fh:
        fh.write("n,I_n,mass,entropy,duality_gap\n")
        for wit in witnesses:
            fh.write(f"{wit.n},{wit.drift_integral:.17g},{wit.mass:.17g},"
                     f"{wit.entropy:.17g},{duality_gap(T, x, lam, wit):.17g}\n")
