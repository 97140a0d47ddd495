"""The phase factor h(x) = rho(x) e^{i alpha(x)} and its asymptotics.

h is the smooth factor relating the integrand on the line Re s = 4 to the
zeta function there: f(4+ix) = h(x) zeta(4+ix).  This module evaluates h
exactly from a sum of principal logarithms (overflow-safe for |x| up to
~1e8), the asymptotic expansions of log rho and of the continuous phase
alpha, the truncated large-t functions theta(t), rho0(t) and the
correction polynomial L1(x,t) used by the staged approximations, and the
denominator that turns Re F(t) into Z(t).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _angles
from ._angles import theta_mod_2pi  # formed in longdouble there
from .special import ln_gamma

__all__ = [
    "PhasePolar",
    "LOG_RHO_SERIES",
    "ALPHA_SERIES",
    "L1_TERMS",
    "h_exact",
    "h_polar",
    "log_rho_asymptotic",
    "alpha_asymptotic",
    "theta",
    "theta_mod_2pi",
    "rho0",
    "z_denominator",
    "l1",
]

_SQRT2_OVER_4PI2 = math.sqrt(2.0) / (4.0 * math.pi ** 2)


@dataclass(frozen=True)
class PhasePolar:
    """Polar form of h: modulus rho > 0 and the continuous phase alpha,
    normalized so that alpha(0) = 0."""
    rho: float
    alpha: float

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError("rho must be positive")


#: log rho(x) = -7/4 log 2pi + 15/4 log x + 19/x^2 - 433/(2x^4) + ...: its
#: inverse-power terms as (power, coefficient) pairs, ascending power
LOG_RHO_SERIES = ((2, 19.0), (4, -433.0 / 2.0), (6, 13069.0 / 3.0),
                  (8, -439633.0 / 4.0))

#: alpha(x) = x/2 log(x/2pi) - x/2 + 15pi/8 - 241/(24x) + ...: its
#: inverse-power terms as (power, coefficient) pairs, ascending power
ALPHA_SERIES = ((1, -241.0 / 24.0), (3, 41279.0 / 720.0), (5, -2348641.0 / 2520.0))

#: L1(x, t) - 1 as terms c x^r / (d t^k), times i where imaginary, listed
#: as (r, c, d, k, imaginary) in the order the series bracket G sums them
L1_TERMS = (
    (1, 15.0, 4.0, 1, False),
    (2, 1.0, 4.0, 1, True),
    (2, 165.0, 32.0, 2, False),
    (1, 241.0, 24.0, 2, True),
    (3, 41.0, 48.0, 2, True),
    (4, -1.0, 32.0, 2, False),
)


def _log_l(x):
    """The continuous logarithm L(x) with h = (sqrt2/(2pi)^2) exp(L/2).

    Sum of principal logs of the linear factors (6+ix)(4+ix)(3+ix)^2(2+ix)
    (1+ix)^2, the rotation (2pi)^-ix, log cosh(pi x/2) - log 2 in
    overflow-safe form, and log Gamma(1+ix).  Every factor stays clear of
    the negative real axis for real x, so no branch tracking is needed and
    Im L is automatically the continuous phase with Im L(0) = 0.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    ix = 1j * x
    val = (np.log(6.0 + ix) + np.log(4.0 + ix) + 2.0 * np.log(3.0 + ix)
           + np.log(2.0 + ix) + 2.0 * np.log(1.0 + ix)
           - ix * _angles.LOG_2PI
           + (0.5 * math.pi * ax + np.log1p(np.exp(-math.pi * ax)) - math.log(2.0))
           + ln_gamma(1.0 + ix))
    return val


def h_exact(x):
    """h(x), exact for any real x; scalars or arrays.

    Modulus grows only like x^{15/4}, so the value itself never overflows
    for |x| up to ~1e8 even though individual factors (cosh, Gamma) would.
    """
    val = _SQRT2_OVER_4PI2 * np.exp(0.5 * _log_l(x))
    if np.ndim(x) == 0:
        return complex(val)
    return np.asarray(val, dtype=complex)


def h_polar(x: float) -> PhasePolar:
    """Polar decomposition of h with the continuous alpha (alpha(0) = 0)."""
    val = complex(_log_l(x))
    return PhasePolar(rho=_SQRT2_OVER_4PI2 * math.exp(0.5 * val.real),
                      alpha=0.5 * val.imag)


def _tail(series, x, order: int):
    """Sum of the first `order` (power, coefficient) terms of series at x,
    from zeros in ascending power; order outside 0..len is a ValueError."""
    if not 0 <= order <= len(series):
        raise ValueError(f"order must be in 0..{len(series)}")
    total = np.zeros_like(x)
    for p, c in series[:order]:
        total = total + c * x ** -p
    return total


def log_rho_asymptotic(x, order: int = 4):
    """Asymptotic log|h(x)| for x >= 10; `order` inverse-power terms (<= 4).

    With order 4 the next omitted term is below 1e-10 already at x = 30.
    Scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 10.0):
        raise ValueError("log_rho_asymptotic requires x >= 10")
    out = -1.75 * _angles.LOG_2PI + 3.75 * np.log(x) + _tail(LOG_RHO_SERIES, x, order)
    return float(out) if np.ndim(out) == 0 else out


def alpha_asymptotic(x, order: int = 3):
    """Asymptotic continuous phase of h(x) for x >= 10; order <= 3 terms."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 10.0):
        raise ValueError("alpha_asymptotic requires x >= 10")
    out = (0.5 * x * (np.log(x) - _angles.LOG_2PI) - 0.5 * x + 15.0 * math.pi / 8.0
           + _tail(ALPHA_SERIES, x, order))
    return float(out) if np.ndim(out) == 0 else out


def theta(t):
    """The consolidated phase theta(t) = t/2 log(t/2pi) - t/2 + 15pi/8
    - 241/(24t); the one-term truncation of the alpha expansion."""
    if np.any(np.asarray(t, dtype=float) < 10.0):
        raise ValueError("theta requires t >= 10 (1/t term degrades below)")
    return alpha_asymptotic(t, order=1)


def rho0(t):
    """Truncated modulus rho0(t) = (2pi)^{-7/4} t^{7/4} (19 + t^2)."""
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0.0):
        raise ValueError("rho0 requires t > 0")
    out = (2.0 * math.pi) ** -1.75 * t ** 1.75 * (19.0 + t * t)
    return float(out) if np.ndim(out) == 0 else out


def z_denominator(t: float) -> float:
    """sqrt(1/4 + t^2) sqrt(25/4 + t^2): Z(t) is Re F(t) over it, for the
    line integral F and for its series route G alike."""
    return math.sqrt(0.25 + t * t) * math.sqrt(6.25 + t * t)


def l1(x, t: float):
    """Correction polynomial L1(x,t): the seven-term bivariate truncation

        1 + 15x/(4t) + ix^2/(4t) + 165x^2/(32t^2) + 241ix/(24t^2)
          + 41ix^3/(48t^2) - x^4/(32t^2)

    that is 1 plus the terms of L1_TERMS.  Scalars or arrays in x.
    """
    if not t > 0.0:
        raise ValueError("l1 requires t > 0")
    x = np.asarray(x, dtype=float)
    re, im = 1.0, 0.0
    for r, c, d, k, imaginary in L1_TERMS:
        term = c * x ** r / (d * t ** k)
        if imaginary:
            im = im + term
        else:
            re = re + term
    out = re + 1j * im
    return complex(out) if np.ndim(out) == 0 else out
