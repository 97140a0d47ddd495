"""Phase factor h(x) = rho e^{i alpha}: exact evaluation, asymptotic
expansions, the truncated large-t functions, and the correction
polynomial."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zline import (
    ALPHA_SERIES,
    LOG_RHO_SERIES,
    PhasePolar,
    alpha_asymptotic,
    h_exact,
    h_polar,
    l1,
    ln_gamma,
    log_rho_asymptotic,
    rho0,
    theta,
    theta_mod_2pi,
    zeta,
)
from zline import _angles

_LOG_2PI = math.log(2.0 * math.pi)


# ------------------------------------------------------------------ h_exact

def test_h_at_zero_closed_form():
    ref = 3.0 * math.sqrt(6.0) / math.pi ** 2
    assert abs(h_exact(0.0) - ref) < 1e-15
    assert abs(h_exact(0.0).imag) < 1e-16


def test_h_conjugate_symmetry_spot():
    assert h_exact(-5.0) == np.conj(h_exact(5.0))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=700.0, allow_nan=False))
def test_h_conjugate_symmetry(x):
    a, b = h_exact(-x), np.conj(h_exact(x))
    assert abs(a - b) <= 1e-13 * abs(b)


def test_h_modulus_matches_asymptotics():
    h50 = abs(h_exact(50.0))
    assert abs(h50 - math.exp(log_rho_asymptotic(50.0))) / h50 < 1e-6


def test_h_overflow_safe():
    # naive cosh/Gamma would overflow well before x = 800
    v = h_exact(800.0)
    assert np.isfinite(v.real) and np.isfinite(v.imag)
    assert abs(math.log(abs(v)) - log_rho_asymptotic(800.0)) < 1e-10


def test_h_vectorized():
    # ufunc rounding may differ by a few ulp between array and scalar
    # code paths, so compare relatively instead of bit for bit
    xs = np.array([-3.0, 0.0, 17.0, 420.0])
    vals = h_exact(xs)
    assert vals.shape == xs.shape
    for x, v in zip(xs, vals):
        ref = h_exact(float(x))
        assert abs(v - ref) <= 1e-14 * abs(ref)


def _log_phi(x: float) -> complex:
    """log of 2(s+2)s(1-s)(3-s)(2pi)^{-s}cos(pi s/2)Gamma(s)zeta(s)^2 at
    s = 4+ix, with log cos written overflow-safely (cos = cosh(pi x/2))."""
    s = 4.0 + 1j * x
    logcos = (0.5 * math.pi * abs(x) + np.log1p(np.exp(-math.pi * abs(x)))
              - math.log(2.0))
    return (math.log(2.0) + np.log(s + 2.0) + np.log(s) + np.log(1.0 - s)
            + np.log(3.0 - s) - s * _LOG_2PI + logcos + ln_gamma(s)
            + 2.0 * np.log(zeta(s)))


def test_square_identity():
    # h(x)^2 zeta(4+ix)^2 equals the reflected product form of Phi(4+ix)
    for x in np.arange(-200.0, 200.1, 2.5):
        x = float(x)
        lhs = 2.0 * np.log(h_exact(x)) + 2.0 * np.log(zeta(4.0 + 1j * x))
        assert abs(np.exp(_log_phi(x) - lhs) - 1.0) < 1e-10, f"x={x}"


def test_phase_continuity():
    xs = np.arange(-50.0, 50.0 + 1e-9, 0.25)
    alphas = np.array([h_polar(float(x)).alpha for x in xs])
    assert np.all(np.abs(np.diff(alphas)) < 0.5 * math.pi)


def test_polar_consistency():
    p = h_polar(17.0)
    assert abs(p.rho * np.exp(1j * p.alpha) - h_exact(17.0)) < 1e-13 * p.rho


def test_phase_polar_validation():
    with pytest.raises(ValueError):
        PhasePolar(rho=-1.0, alpha=0.0)


# --------------------------------------------------------- asymptotic series

def test_series_coefficient_tables():
    assert LOG_RHO_SERIES == ((2, 19.0), (4, -433.0 / 2.0), (6, 13069.0 / 3.0),
                              (8, -439633.0 / 4.0))
    assert ALPHA_SERIES == ((1, -241.0 / 24.0), (3, 41279.0 / 720.0),
                            (5, -2348641.0 / 2520.0))
    # order 0 leaves the terms before the inverse powers, to the bit:
    # -7/4 log 2pi + 15/4 log x, and x/2 log(x/2pi) - x/2 + 15pi/8
    for x in (10.0, 137.5, 1e6):
        log_x = float(np.log(x))
        assert log_rho_asymptotic(x, 0) == -1.75 * _angles.LOG_2PI + 3.75 * log_x
        assert alpha_asymptotic(x, 0) == (0.5 * x * (log_x - _angles.LOG_2PI) - 0.5 * x
                                          + 15.0 * math.pi / 8.0)


def test_series_order_guard():
    with pytest.raises(ValueError):
        log_rho_asymptotic(100.0, 5)
    with pytest.raises(ValueError):
        alpha_asymptotic(100.0, -1)


def test_log_rho_truncations():
    v0 = log_rho_asymptotic(1e6, order=0)
    assert abs(v0 - (-1.75 * _LOG_2PI + 3.75 * math.log(1e6))) < 1e-12
    v2 = log_rho_asymptotic(100.0, order=2)
    ref = (-1.75 * _LOG_2PI + 3.75 * math.log(100.0) + 19.0 / 1e4
           - 433.0 / 2e8)
    assert abs(v2 - ref) < 1e-14


def test_log_rho_vs_exact():
    assert abs(log_rho_asymptotic(50.0, order=4)
               - math.log(abs(h_exact(50.0)))) <= 1e-7


def test_log_rho_domain():
    with pytest.raises(ValueError):
        log_rho_asymptotic(5.0)


def test_alpha_closed_form_point():
    x = 2.0 * math.pi * math.e
    ref = 15.0 * math.pi / 8.0 - 241.0 / (48.0 * math.pi * math.e)
    assert abs(alpha_asymptotic(x, order=1) - ref) < 1e-12


def test_alpha_vs_exact_phase():
    assert abs(alpha_asymptotic(50.0, order=3) - h_polar(50.0).alpha) <= 1e-7
    assert abs(alpha_asymptotic(1e4, order=1) - h_polar(1e4).alpha) <= 1e-10


def test_alpha_consistency_constant():
    # frozen after calibration: measured max 10.92 on this grid (2026-08)
    worst = max(abs(alpha_asymptotic(x, 3) - h_polar(x).alpha) * x ** 3
                for x in (20.0, 50.0, 100.0, 1e3, 1e4))
    assert worst <= 50.0


def test_alpha_domain():
    with pytest.raises(ValueError):
        alpha_asymptotic(9.0)


# ------------------------------------------------------- theta, rho0, l1

def test_theta_closed_form():
    t = 2.0 * math.pi * math.e
    ref = 15.0 * math.pi / 8.0 - 241.0 / (48.0 * math.pi * math.e)
    assert abs(theta(t) - ref) < 1e-12
    assert theta(20.0 * math.pi) == alpha_asymptotic(20.0 * math.pi, order=1)


def test_theta_vs_rs_phase():
    # differs from the classical phase by 2pi minus a 1/t correction
    from zline import rs_theta
    gap = theta(100.0) - (rs_theta(100.0) + 2.0 * math.pi
                          - (241.0 / 24.0 + 1.0 / 48.0) / 100.0)
    assert abs(gap) <= 1e-3


def test_theta_domain():
    with pytest.raises(ValueError):
        theta(5.0)


def test_theta_mod_2pi_consistency():
    for t in (100.0, 1000.0):
        d = (theta(t) - theta_mod_2pi(t)) / (2.0 * math.pi)
        assert abs(d - round(d)) < 1e-9
    out = theta_mod_2pi(np.array([100.0, 1000.0]))
    assert np.all((out >= -math.pi) & (out <= math.pi)) or np.all(
        (out >= 0.0) & (out < 2.0 * math.pi))


def test_theta_mod_2pi_frozen_bits():
    # the values from before the phase moved into _angles, to the last
    # bit, for scalars (Python floats) and for an array
    ts = (10.0, 12345.678, 1e8)
    refs = (2.2098596917376967, 3.1836187374014346, 3.5379159968658103)
    for t, ref in zip(ts, refs):
        got = theta_mod_2pi(t)
        assert type(got) is float and got == ref, t
    assert theta_mod_2pi(np.array(ts)).tolist() == list(refs)


def test_rho0_closed_forms():
    assert abs(rho0(2.0 * math.pi) - (19.0 + 4.0 * math.pi ** 2)) < 1e-12
    assert abs(rho0(1.0) - (2.0 * math.pi) ** -1.75 * 20.0) < 1e-15


def test_rho0_approximates_modulus():
    h50 = abs(h_exact(50.0))
    assert abs(rho0(50.0) - h50) / h50 <= 5e-5


def test_rho0_domain():
    with pytest.raises(ValueError):
        rho0(0.0)


def test_l1_exact_points():
    assert l1(0.0, 3.7) == 1.0 + 0j
    # 535/48 is not representable; the summed route rounds 2 ulp away
    assert abs(l1(1.0, 1.0) - complex(79.0 / 8.0, 535.0 / 48.0)) <= 4e-15


def test_l1_large_t_band():
    assert abs(l1(2.0, 1e6) - (1.0 + 7.5e-6 + 1e-6j)) <= 1e-10


def test_l1_frozen_bits():
    # the values before the terms moved into L1_TERMS, to the last bit
    for (x, t), ref in (((0.3, 27.3), "(1.0418311118826231+0.0048971708999181515j)"),
                        ((-7.25, 150.0), "(0.8269583279079861+0.06990166377314813j)"),
                        ((41.0, 1e3), "(1.0741126250000002+0.47953172916666664j)"),
                        ((3.5, 2.5e7), "(1.0000005250000934+1.2250011482916665e-07j)")):
        assert repr(l1(x, t)) == ref
    vals = l1(np.array([-12.5, -0.75, 0.0, 2.0, 19.125]), 61.0)
    assert [repr(complex(v)) for v in vals] == [
        "(0.24303940053077133+0.1582900821911673j)",
        "(0.9546702507201525+0.0001844997144584789j)",
        "(1+0j)",
        "(1.1283593120128996+0.023627161157394966j)",
        "(1.559004935613405+3.1564356479168065j)"]


def test_l1_vectorized_and_domain():
    xs = np.array([0.0, 1.0, -2.5])
    vals = l1(xs, 10.0)
    assert vals.shape == xs.shape
    assert vals[0] == l1(0.0, 10.0)
    with pytest.raises(ValueError):
        l1(1.0, 0.0)
