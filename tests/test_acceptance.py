"""End-to-end acceptance checks, one test per headline guarantee.

Each test is self-contained and pins a user-visible property of the
package: the reference table, cross-route agreement, path independence,
closed-form moments, the coefficient tables, the incomplete-gamma
inequality, series decay, the staged approximation chain, zero counts,
and the phase-decay statistic.  Frozen reference numbers come from an
independent 30-digit run (2026-08).
"""
import json
import math
import time

import numpy as np

from zline import (
    c_statistic_profile,
    cli,
    eulerian_b,
    f_integral,
    f_staged,
    fourier_cosh_moment,
    g_series,
    h_r_series_info,
    kernel,
    phase_count_check,
    upper_incomplete_gamma,
    z_from_integral,
    z_oracle,
    zeta,
)
from zline._angles import taylor_sum

# Z and its series approximation at the decade heights, 7 decimals
REFERENCE_TABLE = {
    1e1: (-1.5491945, -0.9983260),
    1e2: (2.6926971, 2.6269297),
    1e3: (0.9977946, 0.9849027),
    1e4: (-0.3413947, -0.3452059),
    1e5: (5.8795925, 5.8790158),
    1e6: (-2.8061339, -2.8061012),
    1e7: (14.3525504, 14.3525613),
    1e8: (3.6454079, 3.6454066),
}


def test_c01_reference_table_all_decades(capsys):
    start = time.perf_counter()
    code = cli.main(["table", "--json"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 8
    for row in rows:
        z_ref, approx_ref = REFERENCE_TABLE[row["t"]]
        assert abs(row["approx"] - approx_ref) <= 5e-6, row["t"]
        # the oracle keeps full accuracy through 1e6 and still holds
        # 5e-5 at the top two decades
        z_tol = 5e-6 if row["t"] <= 1e6 else 5e-5
        assert abs(row["z"] - z_ref) <= z_tol, row["t"]
    assert elapsed < 30.0


def test_c02_integral_route_matches_oracle():
    start = time.perf_counter()
    worst = max(abs(z_from_integral(t)[0] - z_oracle(t)[0])
                for t in (0.0, 5.0, 17.5, 50.0, 100.0, 250.0))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 20.0


def test_c03_real_part_is_sigma_independent():
    for t in (20.0, 60.0):
        vals = [f_integral(t, sigma).real
                for sigma in (0.55, 0.6, 0.8, 1.0, 1.5, 2.5, 4.0)]
        assert max(vals) - min(vals) <= 1e-7, t


def test_c04_cosh_moments_match_quadrature():
    start = time.perf_counter()
    xs = np.arange(-120.0, 120.0 + 1e-9, 0.05)
    weights = np.ones_like(xs)
    weights[0] = weights[-1] = 0.5
    base = weights / (7.0 * np.cosh(math.pi * xs / 7.0))
    for n in range(6):
        poly = base * xs ** n
        for alpha in (0.0, 0.3, -0.3, 1.7, -1.7):
            wave = np.exp(1j * alpha * xs) * poly
            quad = 0.05 * complex(math.fsum(wave.real), math.fsum(wave.imag))
            closed = fourier_cosh_moment(n, alpha)
            assert abs(quad - closed) <= 1e-9, (n, alpha)
    assert time.perf_counter() - start < 5.0


def test_c05_eulerian_coefficient_suite():
    rows = {0: (1,), 1: (1, 1), 2: (1, 6, 1), 3: (1, 23, 23, 1),
            4: (1, 76, 230, 76, 1), 5: (1, 237, 1682, 1682, 237, 1)}
    for n, coeffs in rows.items():
        assert eulerian_b(n) == coeffs
    for n in range(11):
        b = eulerian_b(n)
        assert b == b[::-1]
        assert sum(b) == 2 ** n * math.factorial(n)
    # sum_j x^j (2j+1)^n = B_n(x)/(1-x)^{n+1} at x = 1/2
    for n in range(7):
        lhs = math.fsum(0.5 ** j * (2 * j + 1) ** n for j in range(200))
        rhs = taylor_sum(eulerian_b(n), 0.5) / 0.5 ** (n + 1)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs), n


def test_c06_incomplete_gamma_never_exceeds_bound():
    # the bound is attained exactly at a = 1, so a violation only counts
    # when it clears the few-ulp representation noise
    violations = 0
    for a in (1.0, 2.0, 15.0 / 4.0, 5.0):
        for x in np.arange(a + 0.5, 50.0 + 1e-9, 0.5):
            bound = a * math.exp(-x) * x ** (a - 1.0)
            if upper_incomplete_gamma(a, float(x)) > bound * (1.0 + 1e-13):
                violations += 1
    assert violations == 0


def test_c07_series_decay_and_independent_quadrature():
    bounds = (40.0, 130.0, 420.0, 1900.0, 13500.0)
    ts = np.geomspace(1e2, 1e6, 21)
    for r, bound in enumerate(bounds):
        worst = max(t ** 1.5 * abs(h_r_series_info(float(t), r)[0]) for t in ts)
        assert worst <= bound, r
    # H_0 by direct oscillatory quadrature against the series value
    t = 1e4
    beta = 0.5 * math.log(t / (2.0 * math.pi))
    xs = np.arange(-60.0, 60.0 + 1e-9, 0.0625)
    vals = kernel(xs) * np.exp(1j * beta * xs) * zeta(4.0 + 1j * (t + xs))
    weights = np.ones_like(xs)
    weights[0] = weights[-1] = 0.5
    vals = weights * vals
    quad = 0.0625 * complex(math.fsum(vals.real), math.fsum(vals.imag))
    series = h_r_series_info(t, 0, 1e-16)[0]
    assert abs(quad - series) <= 1e-9


def test_c08_staged_chain_gaps_and_series_consistency():
    for t in (1e2, 1e3, 1e4):
        F = f_integral(t, 4.0, 1e-18)
        F1, F2, F3, F4 = (f_staged(t, k, 1e-18) for k in (1, 2, 3, 4))
        lg = math.log(t)
        assert t ** 0.25 * abs(F - F1) <= 0.05, t
        assert t ** -0.75 * abs(F1 - F2) <= 0.1, t
        assert t ** -0.75 * lg ** -6 * abs(F2 - F3) <= 1e-4, t
        assert t ** 1.25 / lg * abs(F3 - F4) <= 8.0, t
    g = g_series(1e4, 1e-16)
    f4 = f_staged(1e4, 4, 1e-18)
    assert abs(g - f4) <= 1e-8 * abs(g)


def test_c09_zero_counts_match_phase_winding():
    reports = [
        phase_count_check(10.0, 30.0, 0.05),
        phase_count_check(50.0, 60.0, 0.05),
        phase_count_check(10.0, 100.0, 0.05),
        # the near-tangency at t = 111.87 needs the finer grid
        phase_count_check(100.0, 160.0, 0.002),
    ]
    for rep in reports:
        assert rep.verdict, (rep.count, rep.delta_phi)
    assert reports[2].count == 29


def test_c10_phase_decay_statistic_converged():
    start = time.perf_counter()
    c_coarse = c_statistic_profile([15000.0], 0.05)[0]
    c_fine = c_statistic_profile([15000.0], 0.025)[0]
    elapsed = time.perf_counter() - start
    assert 0.24 <= c_coarse <= 0.31
    assert abs(c_coarse - c_fine) <= 1e-6
    assert elapsed < 60.0
