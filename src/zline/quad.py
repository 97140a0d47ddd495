"""Quadrature engine for the cosh-kernel line integrals.

Implements the exact representation

    F(t) = integral f(sigma+ix) * kernel(x - t, width 2*sigma-1) dx,
    Z(t) = Re F(t) / (sqrt(1/4+t^2) * sqrt(25/4+t^2))   (any sigma),

the general strip Poisson solver for harmonic functions with exponentially
bounded boundary data, and the staged approximations F1..F4 that bridge the
exact integral to the series representation.

Quadrature is the uniform trapezoid rule: the integrands extend
analytically to |Im x| < 1 (branch point of the phase factor at x = i), so
the discretization error decays like exp(-2 pi / step) and the tail
truncation, controlled by the tail target eps, dominates.  Off sigma = 4
the kernel's poles at x - t = +-i(sigma - 1/2) leave an error of about
4 exp(-2 pi (sigma - 1/2) / step) of |F|; below sigma ~ 1.18 f_integral
shrinks the step to hold it at roundoff.  Final reductions are exactly
rounded (_angles.exact_sum, the sum math.fsum gives), which keeps the
huge-integrand cancellation in F exact to the last bit; staged differences
share their sample lattice so common terms cancel exactly.  The tail
target is one float eps in (0, 1e-3] (_angles.EPS_MAX), 1e-10
(_angles.EPS_DEFAULT) by default.  Near sigma = 5 the branch point of f
at x = -i(5 - sigma) caps the step too, and f_integral refuses a node
count over its cap or the work budget before it forms the nodes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _angles
from .errors import ConvergenceError
from .phase import h_exact, l1, rho0, theta, theta_mod_2pi, z_denominator
from .special import ln_gamma, zeta, zeta_terms

__all__ = [
    "StripProblem",
    "kernel",
    "omega_kernel",
    "strip_solve",
    "f_on_line",
    "f_integral",
    "f_integral_grid",
    "z_from_integral",
    "f_staged",
]

_MAX_WINDOW = 1.0e5
# most trapezoid nodes f_integral forms: its node arrays take ~240 bytes a
# node (250 MB here); only a step capped next to sigma = 5 reaches it
_MAX_NODES = 1 << 20
# trapezoid spacing of f_integral, f_integral_grid, f_staged and
# strip_solve: staged differences cancel only on one shared lattice
_STEP = 0.125
# relative trapezoid error off sigma = 4: the roundoff level of the est
_STEP_TOL = 5e-15
# bin width of the F grid's offsets: the second-order term of a bin's
# first-order kernel rows moves F by ~1e-18 of its scale
_OFFSET_TOL = 1e-9


@dataclass(frozen=True)
class StripProblem:
    """Dirichlet problem on the strip a < Re s < b.

    boundary_a/boundary_b evaluate the boundary data A(x) = u(a+ix),
    B(x) = u(b+ix); both must be O(e^{growth|x|}) with growth < pi/(b-a)
    or the boundary integrals diverge.
    """
    a: float
    b: float
    boundary_a: Callable[[np.ndarray], np.ndarray]
    boundary_b: Callable[[np.ndarray], np.ndarray]
    growth: float = 0.0

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("need a < b")
        if not 0.0 <= self.growth < math.pi / (self.b - self.a):
            raise ValueError("growth constant must lie in [0, pi/(b-a))")


def kernel(u, width: float = 7.0):
    """The smoothing kernel 1/(width*cosh(pi*u/width)).

    Written as 2 e^{-z}/(width (1+e^{-2z})), z = pi|u|/width, so large |u|
    underflows gracefully to 0 instead of overflowing cosh.
    """
    if not width > 0:
        raise ValueError("width must be positive")
    z = math.pi * np.abs(np.asarray(u, dtype=float)) / width
    with np.errstate(under="ignore"):
        e = np.exp(-z)
        out = 2.0 * e / (width * (1.0 + e * e))
    if np.ndim(u) == 0:
        return float(out)
    return out


def omega_kernel(sigma: float, t):
    """Strip Poisson kernel sin(pi sigma)/(cosh(pi t) - cos(pi sigma)).

    Evaluated as 2q sin(pi sigma)/(1 + q^2 - 2q cos(pi sigma)) with
    q = e^{-pi|t|}, an exact rewrite that never overflows.
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError("omega_kernel requires sigma in (0,1)")
    with np.errstate(under="ignore"):
        q = np.exp(-math.pi * np.abs(np.asarray(t, dtype=float)))
        s, c = math.sin(math.pi * sigma), math.cos(math.pi * sigma)
        out = 2.0 * q * s / (1.0 + q * q - 2.0 * q * c)
    if np.ndim(t) == 0:
        return float(out)
    return out


def _trapz(y: np.ndarray, x: np.ndarray) -> complex:
    """Trapezoid rule with exactly rounded summation (_angles.exact_sum)."""
    return _angles.exact_sum([0.5 * (y[:-1] + y[1:]) * np.diff(x)])


def strip_solve(p: StripProblem, sigma: float, t: float) -> float:
    """Value of the harmonic interpolant at sigma + i t inside the strip.

        u(sigma,t) = 1/(2w) int A(x) omega((sigma-a)/w, (x-t)/w) dx
                   + 1/(2w) int B(x) omega((b-sigma)/w, (x-t)/w) dx,

    w = b - a.  Window is chosen from the growth bound and a tail of 1e-10.
    """
    if not p.a < sigma < p.b:
        raise ValueError("sigma must lie strictly inside the strip")
    w = p.b - p.a
    kappa = math.pi / w - p.growth  # net exponential decay rate in x
    # probe the boundary amplitude M = max |data| e^{-growth|x|}
    probe = t + np.linspace(-4.0 * w, 4.0 * w, 33)
    scale = np.exp(-p.growth * np.abs(probe))
    amp = max(float(np.max(np.abs(p.boundary_a(probe)) * scale)),
              float(np.max(np.abs(p.boundary_b(probe)) * scale)), 1e-300)
    half = (math.log(4.0 * amp * (1.0 + math.exp(p.growth * abs(t))))
            + math.log(1.0 / (kappa * w * 1e-10))) / kappa
    half = max(half, 2.0 * w)
    if half > _MAX_WINDOW:
        raise ConvergenceError(f"strip window {half:.3g} exceeds {_MAX_WINDOW:g}")
    n = int(math.ceil(half / _STEP))
    xs = t + _STEP * np.arange(-n, n + 1)
    u = (xs - t) / w
    ya = np.asarray(p.boundary_a(xs), dtype=float) * omega_kernel((sigma - p.a) / w, u)
    yb = np.asarray(p.boundary_b(xs), dtype=float) * omega_kernel((p.b - sigma) / w, u)
    total = _trapz(ya + yb, xs)
    return total.real / (2.0 * w)


# ----------------------------------------------------------------------
# f on vertical lines


def _log_g(s: np.ndarray) -> np.ndarray:
    """log g(s), Im s >= 0, for Phi = f^2 = g zeta^2, that is
    g = 2 (s+2) s (1-s) (3-s) (2pi)^{-s} cos(pi s/2) Gamma(s).

    Each term is continuous on Im s > 0, and a real s is taken from there:
    -(s - 1) and -(s - 3) have imaginary part -0.0, and |e^{2iz}| <= 1.
    Im log g -> 0, -2 pi, -4 pi on Re s in (1/2, 1), (1, 3), (3, 5), so
    exp(log g / 2) zeta is f: negative left of 3, positive right.
    """
    z = 0.5 * math.pi * s
    logcos = -1j * z - math.log(2.0) + np.log1p(np.exp(2j * z))
    return (math.log(2.0) + np.log(s + 2.0) + np.log(s) + np.log(-(s - 1.0))
            + np.log(-(s - 3.0)) - s * _angles.LOG_2PI + logcos + ln_gamma(s))


def _check_sigma(sigma: float) -> None:
    """Refuse (ValueError) a line sigma outside (1/2, 5), or at 3."""
    if not 0.5 < sigma < 5.0 or abs(sigma - 3.0) < 1e-9:
        raise ValueError("sigma must lie in (1/2, 5) excluding 3")


def f_on_line(x, sigma: float = 4.0):
    """f(sigma+ix) on the vertical line, for sigma in (1/2,5) except 3.

    sigma = 4 uses the factorization f = h(x) zeta(4+ix); other sigma take
    f = exp(log g / 2) zeta(sigma+ix), with log g at sigma+i|x| continuous
    on Im s > 0 (see _log_g) and conjugated for x < 0, so no sign is left
    to fix.  At s = 1, where (1-s) cos(pi s/2) zeta(s)^2 is 0 * inf, f
    takes its limit -sqrt 3.  zeta is evaluated at the given abscissae
    only.  Scalars or arrays of any shape; f(sigma-ix) = conj f(sigma+ix).
    """
    _check_sigma(sigma)
    xx = np.asarray(x, dtype=float).ravel()
    if sigma == 4.0:
        z = zeta(4.0 + 1j * xx)  # over the work budget: refused before h
        out = h_exact(xx) * z
    else:
        # zeta at ascending x, negative x included, so that a uniform
        # lattice stays one; the root of g is conjugated below the axis
        order = np.argsort(xx)
        order = order[(xx[order] != 0.0) | (abs(sigma - 1.0) >= 1e-9)]
        xs = xx[order]
        z = zeta(sigma + 1j * xs)
        root = np.exp(0.5 * _log_g(sigma + 1j * np.abs(xs)))
        out = np.full(xx.size, -math.sqrt(3.0), dtype=complex)
        out[order] = np.where(xs < 0.0, np.conj(root), root) * z
    if np.ndim(x) == 0:
        return complex(out[0])
    return out.reshape(np.shape(x))


# ----------------------------------------------------------------------
# the exact integral F(t)


def _f_window(t: float, sigma: float, eps: float) -> float:
    """Half-window for the F integral: kernel decay pi/(2 sigma - 1) against
    polynomial growth of |f| ~ x^{2+(2 sigma-1)/4}, iterated once."""
    w = 2.0 * sigma - 1.0
    rate = math.pi / w
    grow = 2.0 + w / 4.0
    half = (math.log(1.0 / eps) + 5.0) / rate
    for _ in range(2):
        half = (math.log(1.0 / eps)
                + grow * math.log(abs(t) + half + math.e)
                + math.log(8.0 * (1.0 + w))) / rate
    if half > _MAX_WINDOW:
        raise ConvergenceError(f"F window {half:.3g} exceeds {_MAX_WINDOW:g}")
    return half


def f_integral(t: float, sigma: float = 4.0,
               eps: float = _angles.EPS_DEFAULT) -> complex:
    """F(t) = int f(sigma+ix) kernel(x-t, 2 sigma-1) dx, exact representation.

    Re F(t) is independent of sigma and equals Z(t) sqrt(1/4+t^2)
    sqrt(25/4+t^2).  The window's two tails are each below eps.  The step
    is 1/8, finer below sigma ~ 1.18 where the kernel narrows, and near
    sigma = 5, where g's zero at s = 5 puts a branch point of f at
    x = -i(5 - sigma): its trapezoid error, ~exp(-2 pi (5 - sigma)/step)
    weighed by the kernel at distance t, is held below _STEP_TOL / 4.
    Nodes x zeta terms over the work budget, or more than _MAX_NODES
    nodes, are refused (ConvergenceError) before the nodes are formed.
    Negative t by reflection F(-t) = conj F(t).
    """
    _angles.check_eps(eps)
    _check_sigma(sigma)
    if t < 0.0:
        return complex(np.conj(f_integral(-t, sigma, eps)))
    half = _f_window(t, sigma, eps)
    log_tol = math.log(4.0 / _STEP_TOL)
    h = min(_STEP, 2.0 * math.pi * (sigma - 0.5) / log_tol)
    room = log_tol - math.pi * t / (2.0 * sigma - 1.0)
    if room > 0.0:
        h = min(h, 2.0 * math.pi * (5.0 - sigma) / room)
    n = int(math.ceil(half / h))
    _angles.check_work(2 * n + 1, zeta_terms(sigma, t + h * n))
    if 2 * n + 1 > _MAX_NODES:
        raise ConvergenceError(f"F needs {2 * n + 1} nodes at step {h:.3g}, "
                               f"above the cap of {_MAX_NODES}")
    xs = t + h * np.arange(-n, n + 1)
    y = f_on_line(xs, sigma) * kernel(xs - t, 2.0 * sigma - 1.0)
    return _trapz(y, xs)


def z_from_integral(t: float, sigma: float = 4.0,
                    eps: float = _angles.EPS_DEFAULT) -> tuple[float, float]:
    """Z(t) = Re F(t) / z_denominator(t) at sigma, and its est: two tails of
    eps and the trapezoid's _STEP_TOL of rho0(t) (the scale of F) over the
    denominator, plus 1e-14 for the division."""
    f = f_integral(t, sigma, eps)
    den = z_denominator(t)
    # the roundoff term scales with rho0, which is 0 at t = 0
    roundoff = _STEP_TOL * rho0(abs(t)) if t else 0.0
    return f.real / den, (2.0 * eps + roundoff) / den + 1e-14


def f_grid_terms(t_min: float, t_max: float, points: int) -> int:
    """Term count 2w + 2 of the kernel row of an F grid of `points` t in
    [t_min, t_max] (f_integral_grid), w = ceil(W/h) for W the _f_window of
    t_max at eps EPS_DEFAULT.  Refuses (ConvergenceError) work over the
    budget before anything is allocated: first zeta's on the lattice x = jh,
    j = floor(t_min/h) - w .. floor(t_max/h) + w + 1 (samples x its term
    count), then the kernel's (points x 2w + 2)."""
    h = _STEP
    w = math.ceil(_f_window(t_max, 4.0, _angles.EPS_DEFAULT) / h)
    lo = math.floor(t_min / h) - w
    hi = math.floor(t_max / h) + w + 1
    _angles.check_work(hi - lo + 1, zeta_terms(4.0, h * np.array([lo, hi])))
    _angles.check_work(points, 2 * w + 2)
    return 2 * w + 2


def f_integral_grid(ts: np.ndarray) -> np.ndarray:
    """F(t) at sigma = 4 for ascending t >= 0, from one evaluation of f on
    the step-h lattice x = jh.

    Used by the phase trackers.  Each t is summed by the trapezoid rule
    over its own window of samples, j = k - w .. k + w + 1 about
    k = floor(t/h), with w = ceil(W/h) and W the _f_window of the largest
    t at eps EPS_DEFAULT.  Its kernel row K(mh - r), m = -w .. w + 1, depends
    only on the offset r = t - kh.  Offsets are binned to _OFFSET_TOL, and a bin
    takes the rows K and K' at its centre c, to first order in r - c:
    K(mh - r) ~ K(mh - c) - (r - c) K'(mh - c).  A uniform grid has a few
    bins, a refinement point a bin of its own.  The t of one bin are one
    product of their windows of f with the two rows, in chunks under
    ROW_ELEMS elements: the Toeplitz structure of a uniform grid, as in
    Odlyzko-Schoenhage.  zeta on the lattice takes the lattice route of
    _angles.dirichlet_sums (in slices of 65536 samples, 8192 in t).  The
    products are BLAS sums (deterministic for fixed shapes); the small
    loss of exact rounding only perturbs tracked phases at the 1e-10 rad
    level.  Work over the budget is refused by f_grid_terms before f, and
    zeta in it, is formed on the lattice.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.size == 0:
        return np.empty(0, dtype=complex)
    if np.any(ts < 0.0) or np.any(ts[1:] < ts[:-1]):
        raise ValueError("ts must be ascending and nonnegative")
    h = _STEP
    width = f_grid_terms(float(ts[0]), float(ts[-1]), ts.size)
    w = width // 2 - 1
    lo = math.floor(ts[0] / h) - w
    x = h * np.arange(lo, math.floor(ts[-1] / h) + w + 2)
    y = f_on_line(x)
    windows = sliding_window_view(y, width)
    # h a power of two: k, kh and r are exact, 0 <= r < h
    k = np.floor(ts / h)
    r = ts - h * k
    start = k.astype(np.int64) - (lo + w)
    bins, group = np.unique(np.round(r / _OFFSET_TOL), return_inverse=True)
    dr = r - bins[group] * _OFFSET_TOL
    order = np.argsort(group, kind="stable")
    ends = np.cumsum(np.bincount(group))
    u = h * np.arange(-w, w + 2)
    chunk = max(1, _angles.ROW_ELEMS // width)
    out = np.empty(ts.size, dtype=complex)
    begin = 0
    for b, end in zip(bins, ends):
        # K and K' at u - r_b, trapezoid ends halved; each in two columns,
        # for the real and the imaginary parts of the windows viewed as
        # float pairs: one real product gives both sums of every t
        v = u - b * _OFFSET_TOL
        k_row = kernel(v)
        k_row[[0, -1]] *= 0.5
        rows = np.zeros((2 * w + 2, 2, 4))
        rows[:, 0, 0] = rows[:, 1, 1] = k_row
        rows[:, 0, 2] = rows[:, 1, 3] = (-math.pi / 7.0 * k_row
                                         * np.tanh(math.pi / 7.0 * v))
        rows = rows.reshape(-1, 4)
        for c in range(begin, end, chunk):
            idx = order[c:min(c + chunk, end)]
            sums = (windows[start[idx]].view(float) @ rows).view(complex)
            out[idx] = h * (sums[:, 0] - dr[idx] * sums[:, 1])
        begin = end
    return out


# ----------------------------------------------------------------------
# staged approximations F1..F4


def _window_nodes(center: float, lo: float, hi: float, h: float) -> np.ndarray:
    """Sample nodes on [lo, hi]: the step-h lattice through the center plus
    the exact interval endpoints when they fall between lattice points."""
    k_lo = int(math.ceil((lo - center) / h - 1e-12))
    k_hi = int(math.floor((hi - center) / h + 1e-12))
    nodes = center + h * np.arange(k_lo, k_hi + 1)
    if nodes[0] - lo > 1e-9:
        nodes = np.concatenate(([lo], nodes))
    if hi - nodes[-1] > 1e-9:
        nodes = np.concatenate((nodes, [hi]))
    return nodes


def _stage4_half(t: float, eps: float) -> float:
    """Full-line window for the bracket integrand L1 * zeta * kernel."""
    half = 7.0 / math.pi * (math.log(1.0 / eps) + 3.0)
    for _ in range(2):
        l1_amp = float(np.max(np.abs(l1(np.array([half]), t))))
        half = 7.0 / math.pi * (math.log(1.0 / eps)
                                + math.log(8.0 * 1.1 * max(l1_amp, 1.0)))
    if half > _MAX_WINDOW:
        raise ConvergenceError("stage-4 window exceeded the cap")
    return half


def _zeta_to(x, reach: float) -> np.ndarray:
    """zeta(4 + ix) with the term count of a call that also reaches
    x = reach, a wider window's far node: the nodes the two calls share
    then take bit-identical values."""
    return zeta(4.0 + 1j * np.append(x, reach))[:-1]


def f_staged(t: float, stage: int, eps: float = _angles.EPS_DEFAULT) -> complex:
    """Staged approximations of F(t) for t >= 20, windows sized for a tail
    target eps.

    stage 1: the exact integrand restricted to the window |x-t| <= (28/pi) log t
    stage 2: same window, f(4+ix) replaced by rho0(x) e^{i theta(x)} zeta(4+ix)
    stage 3: shifted form  e^{i theta(t)} rho0(t) *
             int_{|x| <= (28/pi) log t} L1(x,t) (t/2pi)^{ix/2} zeta(4+it+ix) kernel(x) dx
    stage 4: the stage-3 integrand over the full line

    Stages 1/2 and 3/4 share their sample lattices with f_integral and with
    each other, and take the term count of the wider window (f_integral's
    for stages 1/2, stage 4's for 3/4), so differences between consecutive
    stages are free of cancellation noise: zeta at a shared node is
    bit-identical across the calls, except in the partial lattice blocks at
    a window's two ends.
    There the integrand is already down at the window's truncation level,
    so their rounding moves a stage gap by ~1e-16 of itself.
    """
    if t < 20.0:
        raise ValueError("f_staged requires t >= 20")
    _angles.check_eps(eps)
    if stage not in (1, 2, 3, 4):
        raise ValueError("stage must be 1..4")
    h = _STEP
    half1 = 28.0 / math.pi * math.log(t)
    if stage in (1, 2):
        # the stage-2 substitute needs x >= 10; clip (active only for t < 45)
        xs = _window_nodes(t, max(t - half1, 10.0), t + half1, h)
        z = _zeta_to(xs, t + h * math.ceil(_f_window(t, 4.0, eps) / h))
        if stage == 1:
            y = h_exact(xs) * z * kernel(xs - t)
        else:
            y = rho0(xs) * np.exp(1j * theta(xs)) * z * kernel(xs - t)
        return _trapz(y, xs)

    half4 = max(_stage4_half(t, eps), half1)
    half = half1 if stage == 3 else half4
    us = _window_nodes(0.0, -half, half, h)
    y = (l1(us, t) * _angles.sqrt_scale_pow_iu(t, us)
         * _zeta_to(t + us, t + half4) * kernel(us))
    integral = _trapz(y, us)
    th_t = theta_mod_2pi(t)
    pref = rho0(t) * complex(math.cos(th_t), math.sin(th_t))
    return pref * integral
