"""Standard-normal primitives and the problem-instance record Params.

The cumulative distribution goes through the complementary error function,
computed by Cody's rational Chebyshev approximations (W. J. Cody, Math.
Comp. 23, 1969) in numpy: within 1.1e-15 relative of math.erfc over
[-8, 26] (worst of 3.5 million random points).  It is clamped to the +-8 sigma tail values so that interior
states never produce an exact 0 or 1.
Downstream code takes logarithms and quantiles of these levels, so the clamp
matters.

The quantile uses Acklam's rational approximation polished by two Newton
steps on the cdf, which meets the 1e-10 inverse contract with a wide margin.

All functions accept floats or numpy arrays and return the matching kind.
The cdf and the quantile take a scalar path for a lone Python or numpy
float: math.erfc, math.exp and math.log in place of the array code, with the
same clamp, the same initial guess and the same two Newton steps.  It skips
the array code's masks and indexing, which cost a lone value about a hundred
times more, and agrees with the array path to within 2e-15 relative (cdf)
and 1e-13 absolute (quantile).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT_2PI = 1.0 / _SQRT_2PI

# Values returned beyond +-8 sigma; both are strictly inside (0, 1).
CDF_CLAMP_Z = 8.0
CDF_MIN = 0.5 * math.erfc(CDF_CLAMP_Z / _SQRT2)
CDF_MAX = 0.5 * math.erfc(-CDF_CLAMP_Z / _SQRT2)

# Acklam's inverse-normal coefficients (central and tail branches).
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425

# Cody's erfc coefficients: erf on |x| <= 0.46875 (_EA, _EB), erfc on
# 0.46875 < |x| <= 4 (_EC, _ED) and on |x| > 4 (_EP, _EQ).
_EA = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
       3.20937758913846947e03, 1.85777706184603153e-1)
_EB = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
       2.84423683343917062e03)
_EC = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
       2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
       2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_ED = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
       1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
       3.43936767414372164e03, 1.23033935480374942e03)
_EP = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
       1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_EQ = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
       6.05183413124413191e-2, 2.33520497626869185e-3)
_INV_SQRT_PI = 5.6418958354775628695e-1
# erfc underflows to 0 beyond 27.3; capping there keeps y * y finite.
_ERFC_CAP = 27.3


def _as_array(x, name):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr


def _finite_float(x, name):
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite")
    return x


def _match(x, out):
    return float(out) if np.ndim(x) == 0 else out


def _num_den(t, p, q):
    """Numerator and denominator of Cody's rational form in t: the
    numerator's leading coefficient is p[-1] and its constant term p[-2];
    the denominator is monic with constant term q[-1]."""
    num = p[-1] * t
    den = t.copy()
    for a, b in zip(p[:-2], q[:-1]):
        num += a
        num *= t
        den += b
        den *= t
    num += p[-2]
    den += q[-1]
    return num, den


def _exp_neg_square(y):
    """exp(-y^2), split at y rounded down to 1/16 so that the larger part of
    the exponent is exact and the rounding of y * y does not enter it."""
    ysq = np.trunc(16.0 * y) / 16.0
    return np.exp(-ysq * ysq) * np.exp(-(y - ysq) * (y + ysq))


def _erfc(x):
    """Complementary error function of a float array, elementwise."""
    x = np.asarray(x, dtype=float)
    y = np.minimum(np.abs(x), _ERFC_CAP)
    out = np.empty_like(y)
    small = y <= 0.46875
    big = y > 4.0
    mid = ~(small | big)
    if np.any(small):
        xs = x[small]
        num, den = _num_den(xs * xs, _EA, _EB)
        out[small] = 1.0 - xs * num / den
    if np.any(mid):
        ym = y[mid]
        num, den = _num_den(ym, _EC, _ED)
        out[mid] = num / den * _exp_neg_square(ym)
    if np.any(big):
        yb = y[big]
        inv = 1.0 / (yb * yb)
        num, den = _num_den(inv, _EP, _EQ)
        out[big] = (_INV_SQRT_PI - inv * num / den) / yb * _exp_neg_square(yb)
    reflect = ~small & (x < 0.0)
    out[reflect] = 2.0 - out[reflect]
    return out


def std_normal_pdf(z):
    """Standard normal density."""
    arr = np.asarray(z, dtype=float)
    return _match(z, np.exp(-0.5 * arr * arr) * _INV_SQRT_2PI)


def std_normal_cdf(z):
    """P(Z <= z) for a standard normal Z.

    Clamped to the +-8 sigma tail values outside [-8, 8] so the result is
    always strictly inside (0, 1).
    """
    if isinstance(z, (float, np.floating)):
        z = _finite_float(z, "z")
        return min(max(0.5 * math.erfc(-z / _SQRT2), CDF_MIN), CDF_MAX)
    arr = _as_array(z, "z")
    out = 0.5 * _erfc(-arr / _SQRT2)
    out = np.clip(out, CDF_MIN, CDF_MAX)
    return _match(z, out)


def _acklam_central(u):
    """Acklam's guess at q = 1/2 + u, for |u| <= 1/2 - _P_LOW."""
    r = u * u
    num = ((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]
    den = ((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0
    return num * u / den


def _acklam_tail(u):
    """Acklam's guess at the lower tail q < _P_LOW, in u = sqrt(-2 log q)."""
    num = ((((_C[0] * u + _C[1]) * u + _C[2]) * u + _C[3]) * u + _C[4]) * u + _C[5]
    den = (((_D[0] * u + _D[1]) * u + _D[2]) * u + _D[3]) * u + 1.0
    return num / den


def _acklam(q):
    """Rational initial guess for the normal quantile (vectorized)."""
    q = np.asarray(q, dtype=float)
    x = np.empty_like(q)

    lo = q < _P_LOW
    hi = q > 1.0 - _P_LOW
    mid = ~(lo | hi)

    if np.any(mid):
        x[mid] = _acklam_central(q[mid] - 0.5)
    if np.any(lo):
        x[lo] = _acklam_tail(np.sqrt(-2.0 * np.log(q[lo])))
    if np.any(hi):
        x[hi] = -_acklam_tail(np.sqrt(-2.0 * np.log(1.0 - q[hi])))
    return x


def _newton_step(x, q, erfc, exp):
    """One Newton step on cdf(x) = q, with the unclamped cdf."""
    err = 0.5 * erfc(-x / _SQRT2) - q
    return x - err / (exp(-0.5 * x * x) * _INV_SQRT_2PI)


def _quantile_core(arr):
    x = _acklam(arr)
    # Newton refinement where the cdf is computed at full accuracy; beyond
    # 8 sigma the clamped cdf is flat and the rational guess already has
    # ~1e-9 relative accuracy, which is all the tail needs.
    for _ in range(2):
        inside = np.abs(x) < CDF_CLAMP_Z
        if not np.any(inside):
            break
        x[inside] = _newton_step(x[inside], arr[inside], _erfc, np.exp)
    return x


def _quantile_scalar(q):
    """_quantile_core for one float."""
    if q < _P_LOW:
        x = _acklam_tail(math.sqrt(-2.0 * math.log(q)))
    elif q > 1.0 - _P_LOW:
        x = -_acklam_tail(math.sqrt(-2.0 * math.log(1.0 - q)))
    else:
        x = _acklam_central(q - 0.5)
    for _ in range(2):
        if not abs(x) < CDF_CLAMP_Z:
            break
        x = _newton_step(x, q, math.erfc, math.exp)
    return x


def std_normal_quantile(q):
    """Inverse of std_normal_cdf on (0, 1), exclusive.

    Raises DomainError outside the open interval.
    """
    if isinstance(q, (float, np.floating)):
        q = _finite_float(q, "q")
        if not 0.0 < q < 1.0:
            raise DomainError("q must lie strictly inside (0, 1)")
        return _quantile_scalar(q)
    arr = _as_array(q, "q")
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("q must lie strictly inside (0, 1)")
    return _match(q, _quantile_core(arr))


@dataclass(frozen=True)
class Params:
    """One problem instance: cost exponent, horizon, initial state, threshold.

    p must exceed 1 (the exponents p/(p-1) and 1/(p-1) appear throughout),
    the horizon must be positive and the state must start in [0, 1].
    """

    p: float
    T: float
    x: float
    c: float

    def __post_init__(self):
        for name in ("p", "T", "x", "c"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float, np.integer, np.floating))
                    and math.isfinite(v)):
                raise DomainError(f"{name} must be a finite number")
        if self.p <= 1.0:
            raise DomainError("p must be > 1")
        if self.T <= 0.0:
            raise DomainError("T must be > 0")
        if not (0.0 <= self.x <= 1.0):
            raise DomainError("x must lie in [0, 1]")
