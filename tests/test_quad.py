"""Quadrature layer: the smoothing kernel, the strip Poisson solver, f on
vertical lines, the exact integral representation of Z, and the staged
approximations."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zline import (
    ConvergenceError,
    StripProblem,
    f_integral,
    f_integral_grid,
    f_on_line,
    f_staged,
    g_series,
    h_exact,
    h_r_series_info,
    kernel,
    omega_kernel,
    strip_solve,
    z_approx,
    z_from_integral,
    z_g,
    z_oracle,
    zeta,
)
from zline import quad


# ------------------------------------------------------------------ kernel

def test_kernel_closed_points():
    assert kernel(0.0) == 1.0 / 7.0
    assert abs(kernel(7.0) - 1.0 / (7.0 * math.cosh(math.pi))) < 1e-17


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=500.0, allow_nan=False))
def test_kernel_even_and_positive(u):
    assert kernel(u) == kernel(-u)
    assert kernel(u) > 0.0 or u > 300.0  # underflows to 0 only far out


def test_kernel_width_guard():
    with pytest.raises(ValueError):
        kernel(1.0, width=0.0)


# ------------------------------------------------------------ omega kernel

def test_omega_closed_points():
    assert abs(omega_kernel(0.5, 2.0) - 1.0 / math.cosh(2.0 * math.pi)) < 1e-18
    # cos(pi/2) rounds to 6.1e-17, not zero, so the ratio is 1 + 1 ulp
    assert abs(omega_kernel(0.5, 0.0) - 1.0) <= 1e-15
    assert abs(omega_kernel(0.25, 0.0) - 1.0 / math.tan(math.pi / 8.0)) < 1e-15


def test_omega_domain():
    for sigma in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            omega_kernel(sigma, 1.0)


# ------------------------------------------------------------- strip solve

def _const(c):
    return lambda x: c * np.ones_like(np.asarray(x, dtype=float))


def test_strip_harmonic_oscillatory():
    # u(sigma,t) = e^sigma cos t is harmonic and bounded in t
    p = StripProblem(1.0, 5.0,
                     lambda x: math.e * np.cos(np.asarray(x, dtype=float)),
                     lambda x: math.e ** 5 * np.cos(np.asarray(x, dtype=float)))
    assert abs(strip_solve(p, 2.0, 0.7) - math.e ** 2 * math.cos(0.7)) <= 1e-8


def test_strip_harmonic_constant():
    p = StripProblem(1.0, 5.0, _const(1.0), _const(1.0))
    assert abs(strip_solve(p, 3.0, 0.4) - 1.0) <= 1e-10


def test_strip_harmonic_linear():
    p = StripProblem(1.0, 5.0, _const(1.0), _const(5.0))
    assert abs(strip_solve(p, 2.5, -0.3) - 2.5) <= 1e-8


def test_strip_window_guard():
    # growth just below the divergence threshold forces an absurd window
    p = StripProblem(0.0, 1.0, _const(1.0), _const(1.0),
                     growth=math.pi - 1e-7)
    with pytest.raises(ConvergenceError):
        strip_solve(p, 0.5, 0.0)


def test_strip_problem_validation():
    with pytest.raises(ValueError):
        StripProblem(5.0, 1.0, _const(1.0), _const(1.0))
    with pytest.raises(ValueError):
        StripProblem(0.0, 1.0, _const(1.0), _const(1.0), growth=math.pi)
    p = StripProblem(1.0, 5.0, _const(1.0), _const(1.0))
    with pytest.raises(ValueError):
        strip_solve(p, 5.5, 0.0)  # outside the strip


# --------------------------------------------------------------- f on line

def test_f_on_line_sigma_two():
    # f(2) = -(2/pi) zeta(2) = -pi/3
    assert abs(f_on_line(0.0, sigma=2.0) + math.pi / 3.0) < 1e-10


def test_f_on_line_sigma_four_factorization():
    assert abs(f_on_line(0.0, sigma=4.0)
               - h_exact(0.0) * zeta(4.0 + 0j)) < 1e-14
    v = f_on_line(17.0, sigma=4.0)
    ref = h_exact(17.0) * zeta(4.0 + 17.0j)
    assert abs(v - ref) / abs(ref) < 1e-12


def test_f_on_line_conjugate():
    for sigma in (0.6, 1.5, 2.0, 3.5, 4.0):
        assert abs(f_on_line(-13.0, sigma=sigma)
                   - np.conj(f_on_line(13.0, sigma=sigma))) < 1e-12


@pytest.mark.parametrize("sigma, ref", [
    # f(sigma) is real, negative left of 3 and positive right of it;
    # frozen from the square root of Phi sign-tracked from x = 0
    (0.6, -1.8216738797075656),
    (1.0, -math.sqrt(3.0)),  # the limit at s = 1
    (1.5, -1.462314977956908),
    (3.5, 0.48053226727762016),
    (4.5, 0.8481048506375211),
])
def test_f_on_line_at_real_axis(sigma, ref):
    assert abs(f_on_line(0.0, sigma=sigma) - ref) <= 1e-15


@pytest.mark.parametrize("sigma", [1.0, 1.5, 4.0, 4.5])
def test_f_on_line_scalar_in_scalar_out(sigma):
    # a scalar x gives a Python complex on every line, as sigma = 4 does
    for x in (0.0, 10.0, -3.5):
        v = f_on_line(x, sigma)
        assert type(v) is complex
        assert v == f_on_line(np.array([x]), sigma)[0]


@pytest.mark.parametrize("sigma", [1.0, 1.5, 4.0, 4.5])
def test_f_on_line_keeps_the_shape_of_x(sigma):
    # off sigma = 4 a 2-d x raised IndexError: the input is flattened and
    # the result takes the shape of x on every line
    x = np.array([[1.0, 2.0, 0.0], [-3.5, 10.0, 0.25]])
    v = f_on_line(x, sigma)
    assert v.shape == x.shape
    assert np.array_equal(v, [[f_on_line(xi, sigma) for xi in row] for row in x])


def test_f_on_line_domain():
    for sigma in (0.5, 3.0, 5.0):
        with pytest.raises(ValueError):
            f_on_line(1.0, sigma=sigma)


# ------------------------------------------------------------ tail targets

# every function that takes a tail target eps, called at valid other
# arguments; each refuses an eps outside (0, 1e-3] before any work
_EPS_ROUTES = {
    "f_integral": lambda eps: f_integral(100.0, 4.0, eps),
    "z_from_integral": lambda eps: z_from_integral(100.0, 4.0, eps),
    "f_staged": lambda eps: f_staged(100.0, 1, eps),
    "h_r_series_info": lambda eps: h_r_series_info(100.0, 0, eps),
    "g_series": lambda eps: g_series(100.0, eps),
    "z_approx": lambda eps: z_approx(100.0, eps),
    "z_g": lambda eps: z_g(100.0, eps),
}


@pytest.mark.parametrize("eps", [0.0, 2e-3, math.nan])
@pytest.mark.parametrize("route", list(_EPS_ROUTES))
def test_eps_outside_its_bound_is_refused(route, eps):
    with pytest.raises(ValueError, match=r"eps must be in \(0, 0.001\]"):
        _EPS_ROUTES[route](eps)


# ------------------------------------------------------------ the integral

def test_f_integral_at_zero():
    # Re F(0) = sqrt(1/4) sqrt(25/4) Z(0) = (5/4) zeta(1/2)
    assert abs(f_integral(0.0).real - 1.25 * z_oracle(0.0)[0]) < 1e-10


def test_z_from_integral_matches_reference():
    assert abs(z_from_integral(10.0)[0] - -1.5491945) <= 1e-7
    assert abs(z_from_integral(100.0)[0] - 2.6926971) <= 1e-7


def test_z_from_integral_at_zero():
    assert abs(z_from_integral(0.0)[0] - z_oracle(0.0)[0]) <= 1e-8


@pytest.mark.parametrize("t, ref", [
    # mpmath siegelz at 30 digits
    (0.0, -1.4603545088095868),
    (14.0, -0.10562626777988261),
])
def test_z_from_integral_near_sigma_five(t, ref):
    # g's zero at s = 5 puts a branch point of f 0.01 below the line: the
    # 1/8 step left 5.5e-4 at t = 0 and 5.1e-8 at t = 14
    value, est = z_from_integral(t, 4.99)
    assert abs(value - ref) <= est


def test_f_integral_refuses_nodes_over_the_cap():
    # the step capped next to sigma = 5 (1.8e-4 at 4.999) needs 1.5e6
    # nodes, 335 MB of node arrays: within the work budget, so the node
    # cap refuses it before the nodes are formed
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError, match="1509593 nodes"):
            f_integral(0.0, 4.999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_f_integral_refuses_sigma_outside_the_strip():
    for sigma in (0.5, 3.0, 5.0, 5.5):
        with pytest.raises(ValueError, match="sigma must lie"):
            f_integral(0.0, sigma)


def test_step_halving_convergence(monkeypatch):
    a = z_from_integral(50.0)[0]
    monkeypatch.setattr(quad, "_STEP", 0.0625)
    b = z_from_integral(50.0)[0]
    assert abs(a - b) <= 1e-10


def test_sigma_independence():
    for t in (20.0, 60.0):
        vals = [f_integral(t, sigma).real for sigma in (1.5, 2.5, 4.0)]
        assert max(vals) - min(vals) <= 1e-7


def test_sigma_off_four_memory_is_bounded():
    # zeta at the window's nodes on the lattice route: the samples x
    # terms matrix (473 x 8192 here, 62 MB) is never formed
    f_integral(100.0, 1.5)
    tracemalloc.start()
    try:
        f_integral(3000.0, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


def test_f_integral_grid_matches_scalar():
    ts = np.array([10.0, 25.0, 40.0])
    grid_vals = f_integral_grid(ts)
    for t, v in zip(ts, grid_vals):
        ref = f_integral(float(t))
        assert abs(v - ref) <= 1e-9 * abs(ref)


def _own_window_sums(ts: np.ndarray) -> np.ndarray:
    """F at each t by the trapezoid rule over its own lattice window, with
    its exact offset: j = k - w .. k + w + 1 about k = floor(t/h)."""
    h = quad._STEP
    w = math.ceil(quad._f_window(float(ts[-1]), 4.0, 1e-10) / h)
    out = []
    for t in ts:
        x = h * np.arange(math.floor(t / h) - w, math.floor(t / h) + w + 2)
        y = f_on_line(x) * kernel(x - t)
        out.append(h * (y.sum() - 0.5 * (y[0] + y[-1])))
    return np.array(out)


@pytest.mark.parametrize("ts", [
    # a scan window: five offsets from the lattice, one bin of rows each
    np.arange(100.0, 103.0, 0.05),
    # refinement points between grid nodes, a bin each
    np.sort(np.concatenate([np.arange(1000.0, 1001.0, 0.05),
                            np.random.default_rng(7).uniform(1000.0, 1001.0, 15)])),
])
def test_f_integral_grid_is_the_own_window_sum(ts):
    got = f_integral_grid(ts)
    assert np.all(np.abs(got - _own_window_sums(ts)) <= 1e-11 * np.abs(got))
    for i in (0, ts.size // 2, ts.size - 1):
        ref = f_integral(float(ts[i]))
        assert abs(got[i] - ref) <= 1e-9 * abs(ref)


def test_f_integral_grid_refuses_kernel_work_over_budget(monkeypatch):
    # zeta at the 25,967 samples is under the budget; the kernel at 2e6
    # points x their 2048-sample windows is not, and is refused before any
    # kernel row is formed
    ts = np.linspace(10.0, 3000.0, 2_000_000)

    def no_kernel(*args):
        raise AssertionError("kernel row formed")

    monkeypatch.setattr(quad, "kernel", no_kernel)
    with pytest.raises(ConvergenceError, match="2000000 points x 2048 terms"):
        f_integral_grid(ts)


# ---------------------------------------------------------- staged chain

def test_staged_chain_at_hundred():
    # frozen calibration (2026-08): q = 0.023, 0.049, 1.5e-5, 1.75
    t = 100.0
    F = f_integral(t, 4.0, 1e-18)
    F1, F2, F3, F4 = (f_staged(t, k, 1e-18) for k in (1, 2, 3, 4))
    lg = math.log(t)
    assert t ** 0.25 * abs(F - F1) <= 0.05
    assert t ** -0.75 * abs(F1 - F2) <= 0.1
    assert t ** -0.75 * lg ** -6 * abs(F2 - F3) <= 1e-4
    assert t ** 1.25 / lg * abs(F3 - F4) <= 8.0


def test_staged_tail_collapse():
    assert abs(f_staged(1e3, 3, 1e-18) - f_staged(1e3, 4, 1e-18)) <= 1e-2


def test_f_staged_shifted_stages_frozen_bits():
    # stages 3 and 4 carry (t/2pi)^{ix/2}: the values from before that
    # phase moved into _angles, to the last bit
    assert f_staged(100.0, 3) == 26936.0218398023 - 4415.498610509018j
    assert f_staged(100.0, 4) == 26935.99767504216 - 4415.490453115363j


def test_staged_stage_guard():
    with pytest.raises(ValueError):
        f_staged(100.0, 5)
    with pytest.raises(ValueError):
        f_staged(100.0, 0)
    with pytest.raises(ValueError):
        f_staged(15.0, 1)
