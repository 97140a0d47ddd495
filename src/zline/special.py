"""Self-contained special-function evaluators.

Complex log-gamma on the right half plane, the Riemann zeta function for
Re s > 0 (one Euler-Maclaurin evaluator whose term count is derived from
its tolerance, see _angles.em_terms), the Riemann-Siegel
theta and Z functions, and the upper incomplete gamma function.  Everything
is plain double precision, except that phases of oscillatory terms are
reduced mod 2pi in extended precision (see _angles) so that Z stays accurate
up to t ~ 1e8.

No external special-function library is used; these evaluators are the
reference oracles for the rest of the package.
"""
from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev

from . import _angles
from .errors import ConvergenceError

__all__ = [
    "ln_gamma",
    "zeta",
    "rs_theta",
    "z_oracle",
    "oracle_terms",
    "upper_incomplete_gamma",
]

_LN_SQRT_2PI = 0.9189385332046727417803297364056176398
_LN_PI = 1.1447298858494001741434273513530587116

# B_{2n}/(2n(2n-1)) for n = 1..8, the Stirling-series coefficients.
_STIRLING_COEF = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)
_STIRLING_SHIFT = 15.0  # |z| below this is shifted up by the recurrence

_EM_CAP = 1.0e5  # validated |Im s| ceiling of zeta left of Re s = 2
_ZETA_TOL = 2.0 ** -52  # zeta's truncation target: one ulp of zeta ~ 1
# zeta's tol in the oracle: the 3e-12 term of its est covers the truncation
_EM_TOL = 2e-12
# largest t the oracle evaluates by Euler-Maclaurin; the Riemann-Siegel
# formula with C0..C2 corrections takes over above
_EM_SWITCH = 500.0


# ----------------------------------------------------------------------
# log-gamma


def ln_gamma(z):
    """Principal branch of log Gamma(z) for Re z > 0.

    Stirling's series after shifting |z| >= 15 with the recurrence
    log Gamma(z) = log Gamma(z+1) - log z.  Relative accuracy ~1e-13.
    Accepts scalars or arrays.
    """
    zz = np.asarray(z, dtype=complex)
    if np.any(zz.real <= 0):
        raise ValueError("ln_gamma requires Re z > 0")
    w = zz.copy()
    shift = np.zeros_like(w)
    # at most 15 rounds lift every point to |w| >= 15
    for _ in range(int(_STIRLING_SHIFT) + 1):
        mask = np.abs(w) < _STIRLING_SHIFT
        if not mask.any():
            break
        shift[mask] += np.log(w[mask])
        w[mask] += 1.0
    u = 1.0 / (w * w)
    series = np.zeros_like(w)
    for c in reversed(_STIRLING_COEF):
        series = (series + c) * u
    series /= u * w  # undo one power: sum c_k / w^(2k-1)
    out = (w - 0.5) * np.log(w) - w + _LN_SQRT_2PI + series - shift
    if np.isscalar(z) or np.ndim(z) == 0:
        return complex(out)
    return out


# ----------------------------------------------------------------------
# zeta by Euler-Maclaurin


def _zeta_em_core(s, n_terms: int):
    """Euler-Maclaurin zeta for an array of s with common term count: the
    sum over n <= N by _angles.dirichlet_sums, plus the tail.  With one
    Re s for the whole call (and two samples or more), the rows on a
    uniform lattice in Im s take the lattice route with the row n^-sigma
    as its one Taylor row: a constant amplitude, order 0 in every block.
    The others form n^-Re(s) per row from each part of n (a 1-D power need
    not round as the broadcast one does).  Calls over _angles.WORK_BUDGET
    are refused before they allocate.
    """
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    _angles.check_work(s.size, n_terms)
    sigma = s.real
    uniform = s.size > 1 and np.all(sigma == sigma[0])

    def lattice_rows(n):
        row = n ** -sigma[0]
        return lambda c, k_max: row[None, None]

    sums = _angles.dirichlet_sums(
        s.imag, n_terms, lambda r, n: n[None, :] ** (-sigma[r, None]),
        lattice_rows if uniform else None)
    return sums + _angles.em_tail(s, n_terms)


def zeta(s):
    """zeta(s) for Re s > 0, s != 1, and |Im s| <= 1e5 where Re s < 2, by
    Euler-Maclaurin: the sum over n <= N plus the tail through B8, with N
    from _angles.em_terms, so that the first term the tail leaves out is
    at most 2^-52 (one ulp of zeta ~ 1) at the call's smallest Re s and
    largest |Im s|; the absolute error is about that plus the roundoff of
    the sum.  Arrays, or scalars (returning a complex); a call over the
    work budget is refused (ConvergenceError) before it allocates."""
    ss = np.asarray(s, dtype=complex)
    flat = ss.ravel()
    if np.any(flat.real <= 0.0):
        raise ValueError("zeta requires Re s > 0")
    if np.any(np.abs(flat - 1.0) < 1e-10):
        raise ValueError("zeta: s too close to the pole at s = 1")
    if not flat.size:
        return flat.reshape(ss.shape)
    out = _zeta_em_core(flat, zeta_terms(flat.real, flat.imag))
    return complex(out[0]) if ss.ndim == 0 else out.reshape(ss.shape)


def zeta_terms(re, im) -> int:
    """The term count zeta takes for arguments with real parts re and
    imaginary parts im (arrays or floats that broadcast), after refusing
    (ValueError) |Im s| over _EM_CAP left of Re s = 2.  Not exported: the
    package's callers size their work by it before they form s."""
    im = np.abs(im)
    left = np.max(np.where(np.less(re, 2.0), im, 0.0))
    if left > _EM_CAP:
        raise ValueError(f"zeta: |Im s| = {left:g} exceeds cap "
                         f"{_EM_CAP:g} left of Re s = 2")
    return _angles.em_terms(float(np.min(re)), float(np.max(im)), _ZETA_TOL)


# ----------------------------------------------------------------------
# Riemann-Siegel theta and Z


def rs_theta(t: float) -> float:
    """Classical Riemann-Siegel theta by its Stirling expansion:

        t/2 log(t/2pi) - t/2 - pi/8 + 1/(48t) + 7/(5760 t^3)

    Truncation error ~31/(80640 t^5): below 4e-9 for t >= 10, below 1e-10
    for t >= 21.  Use the log-gamma route (see z_oracle) for small t.
    """
    if t < 10.0:
        raise ValueError("rs_theta requires t >= 10; the expansion degrades below")
    return (t / 2.0 * math.log(t / (2.0 * math.pi)) - t / 2.0 - math.pi / 8.0
            + 1.0 / (48.0 * t) + 7.0 / (5760.0 * t ** 3))


def _vartheta_small(t: float) -> float:
    """theta via Im log Gamma(1/4 + it/2) - (t/2) log pi; exact at any t >= 0."""
    return ln_gamma(complex(0.25, 0.5 * t)).imag - 0.5 * t * _LN_PI


def _psi_direct(p):
    """cos(2pi(p^2 - p - 1/16))/cos(2pi p) with the removable singularities
    at p = 1/4, 3/4 evaluated by local rewrites."""
    p = np.asarray(p, dtype=float)
    out = np.empty_like(p)
    d1 = p - 0.25
    d3 = p - 0.75
    near1 = np.abs(d1) < 0.05
    near3 = np.abs(d3) < 0.05
    plain = ~(near1 | near3)
    with np.errstate(all="ignore"):
        out[plain] = (np.cos(2 * np.pi * (p[plain] ** 2 - p[plain] - 0.0625))
                      / np.cos(2 * np.pi * p[plain]))
        d = d1[near1]
        num = np.sin(np.pi * d - 2 * np.pi * d * d)
        den = np.sin(2 * np.pi * d)
        out[near1] = np.where(d == 0.0, 0.5, num / np.where(den == 0, 1, den))
        d = d3[near3]
        num = np.sin(np.pi * d + 2 * np.pi * d * d)
        den = np.sin(2 * np.pi * d)
        out[near3] = np.where(d == 0.0, 0.5, num / np.where(den == 0, 1, den))
    return out


@functools.lru_cache(maxsize=1)
def _psi_chebyshev():
    """Chebyshev model of the (entire) Psi on [-0.15, 1.15] and the
    derivatives the corrections read, keyed by order: the degree 100
    interpolant of _psi_direct (order 0, all 101 coefficients kept) and
    its term-by-term derivatives of order 2, 3 and 6 (degree 100 - k).
    """
    fit = Chebyshev.interpolate(_psi_direct, 100, domain=[-0.15, 1.15])
    return {k: fit.deriv(k) if k else fit for k in (0, 2, 3, 6)}


@functools.lru_cache(maxsize=1)
def _psi_rows():
    """Psi, Psi''', Psi'' and Psi^(6) of _psi_chebyshev as one table for
    Clenshaw's recurrence: (off, scl, rows), x = off + scl p mapping the
    domain onto [-1, 1], and rows[k] the four coefficients of degree
    100 - k, as Python floats.  The shorter series are zero-padded at the
    top; that is exact, as the recurrence passes zeros through unchanged
    until a series' first coefficient."""
    der = _psi_chebyshev()
    coef = np.zeros((101, 4))
    for i, k in enumerate((0, 3, 2, 6)):
        coef[:der[k].coef.size, i] = der[k].coef
    off, scl = der[0].mapparms()
    return float(off), float(scl), tuple(map(tuple, coef[::-1].tolist()))


def _rs_corrections(p: float):
    """Correction terms C0, C1, C2 of the Riemann-Siegel formula at p.

    The four series of _psi_rows take one Clenshaw pass in Python floats:
    the IEEE operations of numpy's chebval on each, in the same order, so
    the values are those of the Chebyshev objects bit for bit."""
    off, scl, rows = _psi_rows()
    x = off + scl * p
    x2 = 2 * x
    (a0, a3, a2, a6), (b0, b3, b2, b6) = rows[1], rows[0]
    for r0, r3, r2, r6 in rows[2:]:
        a0, b0 = r0 - b0, a0 + b0 * x2
        a3, b3 = r3 - b3, a3 + b3 * x2
        a2, b2 = r2 - b2, a2 + b2 * x2
        a6, b6 = r6 - b6, a6 + b6 * x2
    pi2 = math.pi ** 2
    c0 = a0 + b0 * x
    c1 = -(a3 + b3 * x) / (96.0 * pi2)
    c2 = (a2 + b2 * x) / (64.0 * pi2) + (a6 + b6 * x) / (18432.0 * pi2 ** 2)
    return c0, c1, c2


# calibrated against the Euler-Maclaurin route on the overlap t in [500, 2500]:
# |Z_rs(order 2) - Z_em| * a^(7/2) stays below 3.5e-4; frozen with margin
_RS_TRUNC_CONST = 2e-3


def _z_em(t: float):
    # zeta(1/2 + it): 0 <= t <= 500 lies in zeta's domain, so no checks
    z = complex(_zeta_em_core(complex(0.5, t), _angles.em_terms(0.5, t, _EM_TOL))[0])
    if t >= 10.0:
        th = rs_theta(t)
        trunc = 31.0 / (80640.0 * t ** 5)
    else:
        th = _vartheta_small(t)
        trunc = 1e-14
    val = (complex(math.cos(th), math.sin(th)) * z).real
    est = abs(z) * trunc + 3e-12 * max(1.0, abs(z))
    return val, est


def _z_rs(t: float):
    a = math.sqrt(t / (2.0 * math.pi))
    big_n = int(a)
    _angles.check_work(1, big_n)
    p = a - big_n
    tail = sum(c * a ** (-j) for j, c in enumerate(_rs_corrections(p)))
    val = 2.0 * _angles.rs_main_sum(t, big_n) + (-1) ** (big_n - 1) * a ** -0.5 * tail
    # each phase theta - t log n carries up to 2 longdouble ulp of t log N,
    # in quadrature over the weights 2/sqrt(n): 4 ulp sqrt(1 + log N)
    log_n = math.log(big_n)
    phase = 4.0 * _angles.ld_ulp(t * log_n) * math.sqrt(1.0 + log_n)
    est = _RS_TRUNC_CONST * a ** -3.5 + 1e-12 * math.sqrt(t) + phase
    return val, est


def oracle_terms(a: float, b: float) -> int:
    """Largest term count of z_oracle over t in [a, b], 0 <= a <= b: the
    Euler-Maclaurin zeta's up to t = 500, the Riemann-Siegel main sum's
    above; both grow with t."""
    em = _angles.em_terms(0.5, min(b, _EM_SWITCH), _EM_TOL) if a <= _EM_SWITCH else 0
    return max(em, int(math.sqrt(b / (2.0 * math.pi))) if b > _EM_SWITCH else 0)


def z_oracle(t: float) -> tuple[float, float]:
    """The Riemann-Siegel Z function, Z(t) = e^{i theta(t)} zeta(1/2+it),
    and an estimate of its absolute error: (value, est).

    Euler-Maclaurin up to t = 500, Riemann-Siegel main sum with C0..C2
    corrections above.  A main sum over the work budget (t above ~2.9e19)
    is refused before it exists.
    """
    t = abs(float(t))  # Z is even by construction
    if t <= _EM_SWITCH:
        return _z_em(t)
    return _z_rs(t)


# ----------------------------------------------------------------------
# upper incomplete gamma


def upper_incomplete_gamma(a: float, x: float) -> float:
    """Gamma(a, x) for x > a >= 1 by the modified Lentz continued fraction.

    Relative accuracy ~1e-14, well inside the 1e-10 target; the domain is
    exactly where the tail bound Gamma(a,x) <= a e^-x x^(a-1) applies.
    """
    if not (a >= 1.0 and x > a):
        raise ValueError("upper_incomplete_gamma requires x > a >= 1")
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if d == 0.0:
            d = tiny
        c = b + an / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return math.exp(-x + a * math.log(x)) * h
    raise ConvergenceError("incomplete-gamma continued fraction stalled")
