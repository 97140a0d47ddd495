"""Type-B Eulerian polynomials, cosh-kernel Fourier moments, and the
Dirichlet-type series H_r(t) with the final Z approximation.

The chain: the r-th derivative of sech(y) is (-1)^r 2e^{-y} B_r(-e^{-2y})
/ (1+e^{-2y})^{r+1} with B_r the type-B Eulerian polynomial (integer
coefficients, OEIS A060187).  Fourier moments of the kernel follow by
differentiating the classical cosh transform, and expanding zeta(4+it+ix)
termwise under the moment integral gives

    H_r(t) = (7i/2)^r  sum_n  n^{-4-it} m_r(y_n),
    y_n = (7/4) log(t / (2 pi n^2)),

where m_r is the sech derivative factor above.  The leading series H = H_0
drives the approximation Z(t) ~ (t/2pi)^{7/4} Re{e^{i theta(t)} H(t)}
(z_approx), and g_series assembles the full bracket G of H_0..H_4 that
mirrors the L1 polynomial of the staged integrals; z_g is Re G over the
denominator of Z.  H_r forms its terms in parts of the shared n and log n
and sums them exactly rounded, the parts split over lanes
(_angles.lane_sums); G's five H_r share one pass over the parts, so each
part forms its n^{-it} once.
Each function takes its tail target as one float eps in (0, 1e-3]
(_angles.EPS_MAX): h_r_series_info and g_series in the units of H, the
two Z routes in Z units, which also return their est.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import _angles
from .errors import ConvergenceError
from .phase import L1_TERMS, rho0, theta, theta_mod_2pi, z_denominator

__all__ = [
    "eulerian_b",
    "fourier_cosh_moment",
    "h_r_series_info",
    "h_series_grid",
    "z_approx",
    "g_series",
    "z_g",
]

_N_CAP = 500_000  # term-count cap of one H_r series and of the H grid


@lru_cache(maxsize=None)
def eulerian_b(n: int) -> tuple[int, ...]:
    """The exact integer coefficients of B_n in ascending powers, by the
    recurrence B_n = 2x(1-x)B'_{n-1} + (1+(2n-1)x)B_{n-1} from B_0 = 1;
    n <= 64.  _angles.taylor_sum(eulerian_b(n), x) is B_n(x) by Horner."""
    if not 0 <= n <= 64:
        raise ValueError("eulerian_b supports 0 <= n <= 64")
    if n == 0:
        return (1,)
    prev = eulerian_b(n - 1)
    out = [0] * (n + 1)
    for k, c in enumerate(prev):
        if k:
            out[k] += 2 * k * c          # 2x * B'
            out[k + 1] -= 2 * k * c      # -2x^2 * B'
        out[k] += c
        out[k + 1] += (2 * n - 1) * c
    return tuple(out)


def _m_r(y, r: int):
    """(-1)^r (d/dy)^r sech(y), the moment factor.

    Evaluated after reflection to y >= 0 (m_r(-y) = (-1)^r m_r(y), since
    sech is even), so u = e^{-2|y|} <= 1 and nothing overflows at any y.
    """
    y = np.asarray(y, dtype=float)
    ay = np.abs(y)
    with np.errstate(under="ignore"):
        u = np.exp(-2.0 * ay)
        if r == 0:
            # B_0 = 1 and (1 + u)^1 change no bit: skip both
            return 2.0 * np.exp(-ay) / (1.0 + u)
        b_r = _angles.taylor_sum(eulerian_b(r), -u)
        val = 2.0 * np.exp(-ay) * b_r / (1.0 + u) ** (r + 1)
    if r % 2:
        val = np.where(y < 0.0, -val, val)
    return val


def fourier_cosh_moment(n: int, alpha):
    """Closed form of  int e^{i alpha x} x^n / (7 cosh(pi x/7)) dx:

        (7i/2)^n * 2 e^{-y} B_n(-e^{-2y}) / (1+e^{-2y})^{n+1},   y = 7 alpha/2.

    Scalars or arrays in alpha; overflow-safe for any alpha via the
    reflection in m_n (the printed form would overflow past |y| ~ 300).
    """
    if not 0 <= n <= 16:
        raise ValueError("fourier_cosh_moment supports 0 <= n <= 16")
    val = (3.5j) ** n * _m_r(3.5 * np.asarray(alpha, dtype=float), n)
    if np.ndim(alpha) == 0:
        return complex(val)
    return val


@lru_cache(maxsize=None)
def _tail_const(r: int) -> float:
    """C_r with |B_r(-u)| <= C_r (1+u)^r for all u >= 0.

    g(u) = |B_r(-u)|/(1+u)^r satisfies g(1/u) = g(u) by palindromicity, so
    the max over [0,1] is already the global sup; fine grid + 0.1% headroom.
    """
    u = np.linspace(0.0, 1.0, 4001)
    g = np.abs(_angles.taylor_sum(eulerian_b(r), -u)) / (1.0 + u) ** r
    return float(np.max(g)) * 1.001


def _log_lead(t: float, r: int) -> float:
    """log of lead = 2 C_r (7/2)^r (t/2pi)^{7/4}: the tail bound of N terms
    is lead sum_{n>N} n^{-15/2} <= lead N^{-13/2}/6.5 (by its integral)."""
    return math.log(2.0 * _tail_const(r) * 3.5 ** r) + 1.75 * math.log(t / (2.0 * math.pi))


def _n_terms(t: float, r: int, log_eps: float, what: str) -> int:
    """Smallest N whose tail bound is below e^log_eps, in logs so that it is
    finite at every t; refused (ConvergenceError, naming `what`) above the cap."""
    n_terms = max(math.ceil(math.exp((_log_lead(t, r) - math.log(6.5) - log_eps)
                                     * (2.0 / 13.0))), 1)
    if n_terms > _N_CAP:
        raise ConvergenceError(f"{what} needs {n_terms:.3g} terms, above the cap {_N_CAP}")
    return n_terms


def _h_r_terms(t: float, r: int, eps: float) -> int:
    """The term count of H_r(t) at tail target eps, after the checks of
    its arguments (ValueError) and of the cap (ConvergenceError)."""
    _angles.check_eps(eps)
    if not t > 0.0:
        raise ValueError("h_r_series_info requires t > 0")
    if not 0 <= r <= 8:
        raise ValueError("h_r_series_info supports 0 <= r <= 8")
    return _n_terms(t, r, math.log(eps), f"H_{r}({t:g})")


def _h_r_sums(t: float, counts) -> list:
    """sum_n n^{-4-it} m_r(y_n) over n = 1..N_r for each (r, N_r) of
    counts, from one pass over the terms up to the largest N_r
    (_angles.lane_sums).  Each part forms log n, n^-4 and n^{-it} once;
    each r whose terms reach into it takes (m_r(y_n) n^-4) n^{-it} there,
    in that order, the association of the terms of one H_r alone."""
    log_scale = math.log(t) - _angles.LOG_2PI

    def part_terms(n, log_n):
        # y_n = (7/4) log(t/(2 pi n^2)) free of cancellation
        y = 1.75 * (log_scale - 2.0 * np.log(n))
        inv_n4 = n ** -4.0
        kernel = _angles.n_pow_minus_it(t, log_n)
        first = int(n[0]) - 1
        return [None if n_r <= first else
                _m_r(y[:n_r - first], r) * inv_n4[:n_r - first] * kernel[:n_r - first]
                for r, n_r in counts]

    return _angles.lane_sums(max(n_r for _, n_r in counts), len(counts), part_terms)


def h_r_series_info(t: float, r: int, eps: float = _angles.EPS_DEFAULT
                    ) -> tuple[complex, int, float]:
    """H_r(t) = (7i/2)^r sum_n n^{-4-it} m_r(y_n), truncated at the first N
    whose proven tail bound drops below eps: (value, N, the tail bound of
    N terms).  H = H_0 has the term factor 2/((t/2pi n^2)^{7/4} +
    (t/2pi n^2)^{-7/4}), which is exactly sech(y_n) and is evaluated in
    that stable form.

    Phases of n^{-it} are reduced mod 2pi in extended precision.  The terms
    are formed in parts and summed in lanes (_h_r_sums, one r of it), the
    real and imaginary sums exactly rounded as _angles.exact_sum rounds
    them, so the result is deterministic and independent of summation
    order and of the number of lanes.
    """
    n_terms = _h_r_terms(t, r, eps)
    value = (3.5j) ** r * _h_r_sums(t, [(r, n_terms)])[0]
    return value, n_terms, math.exp(_log_lead(t, r) - 6.5 * math.log(n_terms)) / 6.5


def h_grid_terms(t_max: float, points: int) -> int:
    """Term count of an H grid whose largest t is t_max; refuses
    (ConvergenceError) a count above the cap, or `points` points of it
    above the work budget, before anything is allocated."""
    n_terms = _n_terms(t_max, 0, math.log(_angles.EPS_DEFAULT), "H grid")
    _angles.check_work(points, n_terms)
    return n_terms


def h_series_grid(ts) -> np.ndarray:
    """H(t) over an array of t > 0 at the default eps EPS_DEFAULT, sharing one
    term range (sized for the largest t); refused over the work budget.

    One _angles.dirichlet_sums call, with the amplitude n^-4 sech(y_n):
    on a uniform lattice as the Taylor rows n^-4 sech^(k)(y_n(c))/k! about
    each block's centre c, since y_n moves by d = (7/4) log(t/c) for every
    n at once; elsewhere (refinement points, short or scattered grids, the
    blocks near t ~ 1 where |d| is too large) as the same rows at c = t,
    order 0.  Summation is a fixed-shape BLAS product or numpy's pairwise
    reduction: deterministic, and the exactly rounded sums of the scalar
    route are not needed for tracking-grade phases.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.size == 0:
        return np.empty(0, dtype=complex)
    if np.any(ts <= 0.0):
        raise ValueError("h_series_grid requires t > 0")
    n_terms = h_grid_terms(float(np.max(ts)), ts.size)

    def taylor_rows(n):
        """The rows n^-4 sech^(k)(y_n(c))/k!, k = 0..K, of the terms n, as
        a function of the centres c and K."""
        log_n, inv_n4 = np.log(n), n ** -4.0
        return lambda c, k_max: inv_n4 * _angles.sech_taylor(
            1.75 * (np.log(c)[:, None] - _angles.LOG_2PI - 2.0 * log_n), k_max)

    def shift(t, c):
        return 1.75 * np.log1p((t - c) / c)

    return _angles.dirichlet_sums(
        ts, n_terms, lambda r, n: taylor_rows(n)(ts[r], 0)[0], taylor_rows, shift)


def _h_eps(t: float, eps: float) -> float:
    """The eps of H for a target eps in Z units, scaled by the
    (t/2pi)^{-7/4} the series runs before; refused first over H_0's cap,
    so that the scaled target never underflows (it would near t = 1e200)."""
    _angles.check_eps(eps)
    _n_terms(t, 0, math.log(eps) - 1.75 * math.log(t / (2.0 * math.pi)), f"H_0({t:g})")
    return eps * (2.0 * math.pi / t) ** 1.75


def _series_est(t: float, eps: float, value: float, amp: float) -> float:
    """est of a series route in Z units: tail target, summation roundoff,
    and the longdouble rounding of theta(t) (6e8 rad at t = 7e7), which
    moves Z by up to one ulp of theta times amp >= |dZ/dtheta|."""
    return eps + 1e-12 * (1.0 + abs(value)) + _angles.ld_ulp(theta(t)) * amp


def z_approx(t: float, eps: float = _angles.EPS_DEFAULT) -> tuple[float, float]:
    """(t/2pi)^{7/4} Re{e^{i theta(t)} H(t)}, the series approximation to
    Z(t), and its est, for a tail target eps; all three in Z units.  One
    sum of H gives both: the est takes amp = (t/2pi)^{7/4} |H|."""
    if t < 10.0:
        raise ValueError("z_approx requires t >= 10")
    ph = theta_mod_2pi(t)
    h = h_r_series_info(t, 0, _h_eps(t, eps))[0]
    scale = (t / (2.0 * math.pi)) ** 1.75
    value = scale * (math.cos(ph) * h.real - math.sin(ph) * h.imag)
    return value, _series_est(t, eps, value, scale * abs(h))


def g_series(t: float, eps: float = _angles.EPS_DEFAULT) -> complex:
    """The series route to the full-line staged integral (stage 4):
    e^{i theta} rho0 times the bracket, the L1 polynomial (L1_TERMS) with
    x^r replaced by H_r, for a tail target eps of the bracket.  Exists to
    cross-validate the integral and series representations, not as a
    production evaluator.  The five H_r, each to its own term count, come
    from one pass over the terms (_h_r_sums), with the bits each gives
    alone.
    """
    if t < 20.0:
        raise ValueError("g_series requires t >= 20")
    _angles.check_eps(eps)
    t_k = (1.0, t, t * t)
    # w_r, the sum of |coefficients| of H_r in the bracket: H_0 gets eps/2
    # and each H_r eps/(8 w_r), so the bracket's tail error stays below eps
    weights = [0.0] * 5
    for r, c, d, k, _ in L1_TERMS:
        weights[r] += abs(c) / (d * t_k[k])
    epss = [0.5 * eps] + [min(_angles.EPS_MAX, eps / (8.0 * w)) for w in weights[1:]]
    counts = [(r, _h_r_terms(t, r, eps_r)) for r, eps_r in enumerate(epss)]
    h = [(3.5j) ** r * s for r, s in enumerate(_h_r_sums(t, counts))]
    bracket = h[0]
    for r, c, d, k, imaginary in L1_TERMS:
        bracket = bracket + (1j * c if imaginary else c) * h[r] / (d * t_k[k])
    ph = theta_mod_2pi(t)
    return rho0(t) * complex(math.cos(ph), math.sin(ph)) * bracket


def z_g(t: float, eps: float = _angles.EPS_DEFAULT) -> tuple[float, float]:
    """Re G(t) / z_denominator(t), the series route to Z through G =
    g_series(t), and its est, for a tail target eps; all three in Z
    units."""
    if t < 20.0:
        raise ValueError("z_g requires t >= 20")
    zg = g_series(t, _h_eps(t, eps))
    den = z_denominator(t)
    value = zg.real / den
    return value, _series_est(t, eps, value, abs(zg) / den)
