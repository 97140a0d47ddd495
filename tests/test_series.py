"""Series layer: exact Eulerian polynomials, closed-form cosh moments,
the H_r evaluators with proven truncation, and the Z approximation."""
import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zline import (
    ConvergenceError,
    alpha_asymptotic,
    eulerian_b,
    fourier_cosh_moment,
    g_series,
    h_r_series_info,
    h_series_grid,
    log_rho_asymptotic,
    rho0,
    theta_mod_2pi,
    z_approx,
    z_g,
    z_oracle,
)
from zline import _angles, series
from zline.scan import _lattice
from zline.series import h_grid_terms

_LOG_2PI = math.log(2.0 * math.pi)

# printed coefficient rows, ascending powers
B_ROWS = {
    0: (1,),
    1: (1, 1),
    2: (1, 6, 1),
    3: (1, 23, 23, 1),
    4: (1, 76, 230, 76, 1),
    5: (1, 237, 1682, 1682, 237, 1),
}


# ------------------------------------------------------------- Eulerian B

def test_eulerian_rows_exact():
    for n, row in B_ROWS.items():
        assert eulerian_b(n) == row


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=12))
def test_eulerian_palindromic_and_factorial(n):
    c = eulerian_b(n)
    assert c == c[::-1]
    assert c[0] == 1
    assert sum(c) == 2 ** n * math.factorial(n)  # B_n(1), exact integers


def test_eulerian_cap():
    eulerian_b(64)  # allowed
    with pytest.raises(ValueError):
        eulerian_b(65)
    with pytest.raises(ValueError):
        eulerian_b(-1)


def test_generating_identity():
    # sum_j x^j (2j+1)^n = B_n(x)/(1-x)^{n+1} at x = 1/2
    x = 0.5
    j = np.arange(200)
    for n in range(7):
        lhs = math.fsum((x ** j * (2.0 * j + 1.0) ** n).tolist())
        rhs = _angles.taylor_sum(eulerian_b(n), x) / (1.0 - x) ** (n + 1)
        assert abs(lhs / rhs - 1.0) < 1e-12, f"n={n}"


# ----------------------------------------------------------------- moments

def test_moment_trivial_points():
    assert fourier_cosh_moment(0, 0.0) == 1.0 + 0j
    assert fourier_cosh_moment(1, 0.0) == 0j
    assert abs(fourier_cosh_moment(0, 0.4) - 1.0 / math.cosh(1.4)) < 1e-15


def test_moment_degree_guard():
    with pytest.raises(ValueError):
        fourier_cosh_moment(17, 0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=8),
       st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
def test_moment_parity(n, alpha):
    assert fourier_cosh_moment(n, -alpha) == (-1.0) ** n * fourier_cosh_moment(n, alpha)


def test_moment_overflow_safe():
    v = fourier_cosh_moment(3, 400.0)
    assert np.isfinite(v.real) and np.isfinite(v.imag)


def test_m_0_is_the_general_form_to_the_bit():
    # m_0 skips B_0(-u), exactly 1, and the power (1 + u)^1: the bits of
    # the general form at every y, where u = e^(-2|y|) underflows (|y|
    # above ~372) and where e^(-|y|) does too (above ~745)
    y = np.concatenate((np.linspace(-900.0, 900.0, 360001),
                        [0.0, -0.0, 5e-324, -1e-300, 372.5, 745.2, -745.2]))
    ay = np.abs(y)
    with np.errstate(under="ignore"):
        u = np.exp(-2.0 * ay)
        b_0 = _angles.taylor_sum(eulerian_b(0), -u)
        ref = 2.0 * np.exp(-ay) * b_0 / (1.0 + u) ** 1
    assert (u == 0.0).any() and (ref == 0.0).any()
    assert series._m_r(y, 0).tobytes() == ref.tobytes()


def _sech_deriv(n: int, y: float) -> float:
    """(d/dy)^n sech(y) from the closed form, via the moment factor."""
    m = fourier_cosh_moment(n, y / 3.5) / (3.5j) ** n
    return (-1.0) ** n * m.real


def test_moment_derivative_identity():
    # central-difference truncation is ~h^2/6 times the next derivative,
    # which reaches ~2e-6 at h = 1e-3; the smaller step leaves margin
    h = 1e-4
    for n in (1, 2, 3):
        for y in (0.5, 2.0):
            numeric = (_sech_deriv(n - 1, y + h) - _sech_deriv(n - 1, y - h)) / (2.0 * h)
            assert abs(numeric - _sech_deriv(n, y)) <= 1e-6, f"n={n}, y={y}"


# The Eulerian path (B_r by Horner inside m_r and C_r) and the asymptotic
# series of h, to the bit: each key is a function and its fixed argument,
# and its values run over n = 0..16, r = 0..8 or the orders 0..4 and 0..3
_PINNED_BITS = {
    ('fourier_cosh_moment', 0.3): (
        (0.6235213061335607, 0.0),
        (0.0, 1.706155224339106),
        (-1.6990450100540417, 0.0),
        (0.0, 27.853398993709103),
        (-294.54954129111917, 0.0),
        (-0.0, -1072.47162011993),
        (-17075.661241911093, 0.0),
        (0.0, -399523.87676082354),
        (3296444.398989869, 0.0),
        (-0.0, -37589287.95787156),
        (1791717651.5383368, -0.0),
        (0.0, 26391031378.355766),
        (159511280272.16385, 0.0),
        (0.0, 18396761141425.25),
        (-430657343638891.94, 0.0),
        (0.0, -43232265364876.766),
        (-3.5324488547415514e+17, 0.0),
    ),
    ('fourier_cosh_moment', -1.7): (
        (0.005211645647633337, 0.0),
        (-0.0, -0.0182405120441132),
        (-0.06383919109060937, 0.0),
        (0.0, 0.2234098580594885),
        (0.781647747464916, 0.0),
        (-0.0, -2.7327563070301046),
        (-9.533035787667366, 0.0),
        (0.0, 33.03374539295422),
        (112.13404663187279, 0.0),
        (-0.0, -355.89834465651836),
        (-861.857706202698, 0.0),
        (0.0, -1009.6325573296562),
        (-45744.7220493148, 0.0),
        (0.0, 602212.7958167575),
        (6730453.977670323, -0.0),
        (0.0, -71755576.42977452),
        (-751297199.200629, 0.0),
    ),
    ('fourier_cosh_moment', 40.0): (
        (3.160840120547226e-61, 0.0),
        (0.0, 1.1062940421915291e-60),
        (-3.872029147670352e-60, 0.0),
        (0.0, -1.3552102016846233e-59),
        (4.743235705896181e-59, 0.0),
        (0.0, 1.6601324970636632e-58),
        (-5.810463739722822e-58, 0.0),
        (0.0, -2.0336623089029876e-57),
        (7.117818081160456e-57, 0.0),
        (0.0, 2.4912363284061597e-56),
        (-8.719327149421559e-56, 0.0),
        (0.0, -3.051764502297546e-55),
        (1.0681175758041411e-54, 0.0),
        (0.0, 3.738411515314494e-54),
        (-1.3084440303600727e-53, 0.0),
        (0.0, -4.5795541062602545e-53),
        (1.6028439371910892e-52, 0.0),
    ),
    ('fourier_cosh_moment', -250.0): (
        (0.0, 0.0),
        (-0.0, 0.0),
        (-0.0, 0.0),
        (0.0, 0.0),
        (0.0, 0.0),
        (-0.0, 0.0),
        (-0.0, 0.0),
        (0.0, 0.0),
        (0.0, 0.0),
        (-0.0, 0.0),
        (-0.0, 0.0),
        (0.0, 0.0),
        (0.0, 0.0),
        (-0.0, 0.0),
        (-0.0, 0.0),
        (0.0, 0.0),
        (0.0, 0.0),
    ),
    ('_tail_const', None): (
        1.001,
        1.001,
        1.001,
        1.7585777300223504,
        5.004999999999999,
        14.303962021709706,
        61.06099999999999,
        246.6586849592519,
        1386.3849999999998,
    ),
    ('log_rho_asymptotic', 10.0): (
        5.418409232511318,
        5.608409232511319,
        5.5867592325113185,
        5.591115565844651,
        5.590016483344652,
    ),
    ('log_rho_asymptotic', 137.5): (
        15.247304822933494,
        15.24830978161118,
        15.248309175925776,
        15.248309176570396,
        15.248309176569537,
    ),
    ('log_rho_asymptotic', 1000000.0): (
        48.59187972614967,
        48.59187972616867,
        48.59187972616867,
        48.59187972616867,
        48.59187972616867,
    ),
    ('alpha_asymptotic', 10.0): (
        3.2140263584043636,
        2.209859691737697,
        2.267191636182141,
        2.257871632213887,
    ),
    ('alpha_asymptotic', 137.5): (
        149.28558221091893,
        149.21255190788864,
        149.21257396194991,
        149.2125739429871,
    ),
    ('alpha_asymptotic', 1000000.0): (
        5488822.636263689,
        5488822.6362536475,
        5488822.6362536475,
        5488822.6362536475,
    ),
}


def _pinned_values(name, arg):
    if name == "fourier_cosh_moment":
        return [(v.real, v.imag) for v in (fourier_cosh_moment(n, arg) for n in range(17))]
    if name == "_tail_const":
        return [series._tail_const(r) for r in range(9)]
    fn, orders = {"log_rho_asymptotic": (log_rho_asymptotic, 5),
                  "alpha_asymptotic": (alpha_asymptotic, 4)}[name]
    return [fn(arg, k) for k in range(orders)]


@pytest.mark.parametrize("name, arg", list(_PINNED_BITS))
def test_eulerian_and_asymptotic_frozen_bits(name, arg):
    def bits(values):
        return [np.asarray(v, dtype=float).tobytes() for v in values]
    assert bits(_pinned_values(name, arg)) == bits(_PINNED_BITS[name, arg])


# --------------------------------------------------------------- H_r series

def test_h_series_leading_term():
    # at t = 2 pi the n = 1 term is exactly 1 and n = 2 dominates the rest
    t = 2.0 * math.pi
    term2 = (2.0 ** -4 * cmath.exp(-1j * t * math.log(2.0))
             / math.cosh(3.5 * math.log(2.0)))
    H = h_r_series_info(t, 0, 1e-14)[0]
    assert abs(H - 1.0 - term2) <= 1e-3


def test_h1_first_term_vanishes():
    # the n = 1 factor of H_1 is m_1(0) = 0, so H_1(2 pi) is second-term size
    t = 2.0 * math.pi
    assert abs(fourier_cosh_moment(1, 0.0)) == 0.0
    assert abs(h_r_series_info(t, 1)[0]) < 0.5


def test_h_series_rescaled_form():
    # two printed forms of the same sum agree termwise
    t = 100.0
    H, n_used, _ = h_r_series_info(t, 0)
    n = np.arange(1, n_used + 1, dtype=float)
    q = (t / (2.0 * math.pi * n * n)) ** 1.75
    terms = (np.exp(-1j * t * np.log(n)) * n ** -0.5 * 2.0 / (1.0 + q ** -2.0)
             * (t / (2.0 * math.pi)) ** -1.75)
    alt = complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))
    assert abs(H - alt) <= 1e-12


def test_h_series_decay():
    t = 1e5
    assert t ** 1.5 * abs(h_r_series_info(t, 0)[0]) <= 15.0  # frozen: measured 11.37


def test_h_decay_bound_grid():
    # frozen calibration constants (2026-08): maxima 28.9, 95, 309, 1383, 10030
    bounds = (40.0, 130.0, 420.0, 1900.0, 13500.0)
    for r, bound in enumerate(bounds):
        for t in (1e2, 1e3, 1e4, 1e5, 1e6):
            assert t ** 1.5 * abs(h_r_series_info(t, r)[0]) <= bound, f"r={r}, t={t}"


def test_truncation_soundness():
    for t in (1e3, 1e6):
        v1, _, tail1 = h_r_series_info(t, 0, 1e-10)
        v2, _, _ = h_r_series_info(t, 0, 1e-20)
        assert abs(v1 - v2) < tail1


def test_term_cap():
    # eps = 1e-30 at t = 1e8 asks for ~3e6 terms, above the 500,000 cap
    with pytest.raises(ConvergenceError, match="above the cap 500000"):
        h_r_series_info(1e8, 0, 1e-30)


def test_h_r_guards():
    with pytest.raises(ValueError):
        h_r_series_info(0.0, 0)
    with pytest.raises(ValueError):
        h_r_series_info(100.0, 9)


def test_h_series_grid_matches_scalar():
    # the grid shares one term count (sized for its largest t); each value
    # can differ from the scalar route only below the scalar's tail target
    ts = np.array([50.0, 320.0, 1000.0])
    grid = h_series_grid(ts)
    for t, v in zip(ts, grid):
        assert abs(v - h_r_series_info(float(t), 0)[0]) <= 2e-10


def test_h_series_grid_refuses_work_over_budget():
    # 10^6 points at t ~ 1e8 need 2505 terms each: 2.5e9 term evaluations,
    # above the 2^31 budget; refused before the term arrays exist
    ts = np.linspace(1e8, 1e8 + 1.0, 1_000_000)
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError,
                           match="1000000 points x 2505 terms = 2.5e"):
            h_series_grid(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def _h_direct(ts, n_terms):
    """H at each t summed term by term: the direct formula."""
    n = np.arange(1, n_terms + 1, dtype=float)
    y = 1.75 * (np.log(ts)[:, None] - _LOG_2PI - 2.0 * np.log(n))
    return np.sum(n ** -4.0 / np.cosh(y)
                  * _angles.n_pow_minus_it(ts, _angles._log_ld(n)), axis=1)


@pytest.mark.parametrize("a, b, step", [
    (1.0, 145.0, 0.05),              # its first blocks take the direct route
    (1.0, 2770.0, 0.05),
    (14000.0, 15000.0, 0.05),
    (1.0, 383.9413428, 0.025),
])
def test_h_series_grid_lattice_matches_direct(a, b, step):
    # hstat's track grids: the Taylor lattice against the direct formula,
    # on about 2000 rows of each
    ts = _lattice(a, b, step)
    grid = h_series_grid(ts)
    rows = np.arange(0, ts.size, max(1, ts.size // 2000))
    ref = _h_direct(ts[rows], h_grid_terms(float(ts.max()), ts.size))
    assert float(np.max(np.abs(grid[rows] - ref))) <= 1e-14 * float(np.max(np.abs(grid)))


# ----------------------------------------------------------------- z_approx

def test_z_approx_reference_values():
    assert abs(z_approx(100.0, 5e-8)[0] - 2.6269297) <= 5e-7
    assert abs(z_approx(1e6, 5e-8)[0] - -2.8061012) <= 5e-7
    assert abs(z_approx(1e8, 1e-6)[0] - 3.6454066) <= 5e-6


def test_z_approx_phase_variants():
    # the two phase conventions differ by a 1/t-scale correction: z_approx
    # takes theta; the classical Riemann-Siegel vartheta is applied by hand
    t, eps = 1e4, 1e-7
    a = z_approx(t, eps)[0]
    h = h_r_series_info(t, 0, eps * (2.0 * math.pi / t) ** 1.75)[0]
    tl = _angles._as_ld(t)
    ph = float(_angles.reduce_mod_2pi(
        tl / 2 * (np.log(tl) - _angles._LOG_2PI_LD) - tl / 2 - _angles._PI / 8
        + 1 / (48 * tl) + 7 / (5760 * tl ** 3)))
    b = (t / (2.0 * math.pi)) ** 1.75 * (math.cos(ph) * h.real - math.sin(ph) * h.imag)
    assert abs(a - b) <= 5e-3
    assert abs(a - -0.3452059) <= 5e-6


def test_z_approx_guards():
    with pytest.raises(ValueError):
        z_approx(5.0)
    for eps in (0.0, 5e-3):
        with pytest.raises(ValueError, match="eps must be in"):
            z_approx(100.0, eps)


@pytest.mark.parametrize("t, r, eps, ref", [
    (1000.0, 0, 1e-10,
     (0.000258488063260205 + 5.143640447078758e-05j, 113, 9.924898276465479e-11)),
    (1e8, 2, 1e-10,
     (-7.512105868567121e-12 - 3.645598853519489e-11j, 3683, 9.989893607701575e-11)),
])
def test_h_r_series_frozen_bits(t, r, eps, ref):
    # N = 113 and 3683 read views of the 128- and 4096-term tables: the
    # values from before n and log n came from _angles.terms, to the bit
    assert h_r_series_info(t, r, eps) == ref


# values of many parts at the tail target the Z routes pass (_h_eps): H_0
# at 3.6e7 of 125,536 terms, H_1 at 1e8 of 263,866, G at 1e7 and 3.7e7 and
# the approx route at 7.2e7 (182,331 terms), taken before the sums ran in
# lanes
_MULTI_PART_PINS = (
    (lambda: h_r_series_info(3.6e7, 0, series._h_eps(3.6e7, 1e-10)),
     (-7.320014339546346e-12 + 8.650367449050188e-12j, 125536, 1.490292312824169e-22)),
    (lambda: h_r_series_info(1e8, 1, series._h_eps(1e8, 1e-10)),
     (-1.1016577299737326e-11 + 1.932308582793809e-12j, 263866, 2.49351320866945e-23)),
    (lambda: repr(g_series(1e7, series._h_eps(1e7, 1e-10))),
     "(1435255035627166.8+1079409763376093.8j)"),
    (lambda: repr(g_series(3.7e7, series._h_eps(3.7e7, 1e-10))),
     "(-1586474297135572.5+3367354950599711.5j)"),
    (lambda: z_approx(7.2e7), (-0.35441295847320864, 1.4634741535776991e-10)),
)


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_multi_part_sums_frozen_bits(monkeypatch, lanes):
    # every sum rounds the bins of all its lanes once: the same bits for
    # any number of lanes and parts
    monkeypatch.setattr(_angles, "_lane_count", lambda: lanes)
    for value, ref in _MULTI_PART_PINS:
        assert value() == ref


def test_g_sums_its_h_r_in_one_pass(monkeypatch):
    # G's five H_r take one n^{-it} row per part, up to the largest N_r,
    # and each sum of the shared pass is the one its r gives alone
    t, eps = 3.7e7, series._h_eps(3.7e7, 1e-10)
    kernels, passes = [], []
    n_pow, h_r_sums = _angles.n_pow_minus_it, series._h_r_sums

    def counted(t, log_n):
        kernels.append(log_n.size)
        return n_pow(t, log_n)

    def spy(t, counts):
        passes.append((counts, h_r_sums(t, counts)))
        return passes[-1][1]

    monkeypatch.setattr(_angles, "n_pow_minus_it", counted)
    monkeypatch.setattr(series, "_h_r_sums", spy)
    g_series(t, eps)
    [(counts, sums)] = passes
    assert [r for r, _ in counts] == [0, 1, 2, 3, 4]
    assert sum(kernels) == max(n_r for _, n_r in counts) > 1 << 14
    for (r, n_r), got in zip(counts, sums):
        assert h_r_sums(t, [(r, n_r)]) == [got], r


def test_z_routes_refuse_the_cap_before_scaling_eps():
    # (t/2pi)^(-7/4) eps underflows to 0 near t = 1e200, and the power form
    # of the term count overflowed from t ~ 1e88
    for route in (z_approx, z_g):
        for t in (1e88, 1e200, 1.7e308):
            with pytest.raises(ConvergenceError, match="above the cap 500000"):
                route(t)


@pytest.mark.parametrize("t", [10.0, 100.5, 1e4, 72015150.94, 3e8])
def test_term_counts_match_the_power_form(t):
    # the count is formed in logs; it must stay the power form's
    # ceil((lead / (6.5 eps))^(2/13)) wherever that is finite
    for r in range(5):
        for eps in (1e-3, 1e-10, 1e-10 * (2.0 * math.pi / t) ** 1.75, 1e-18):
            lead = 2.0 * series._tail_const(r) * 3.5 ** r * (t / (2.0 * math.pi)) ** 1.75
            power = max(math.ceil((lead / (6.5 * eps)) ** (2.0 / 13.0)), 1)
            if power > 500_000:
                continue
            assert h_r_series_info(t, r, eps)[1] == power, (r, eps)


# ----------------------------------------------------------------- g_series

def test_g_series_vs_oracle():
    t = 1e3
    den = math.sqrt(0.25 + t * t) * math.sqrt(6.25 + t * t)
    assert abs(g_series(t).real / den - z_oracle(t)[0]) <= 2e-2


def test_g_series_at_1e8():
    # each H_r gets the tolerance its bracket weight allows; one shared
    # tolerance asked H_4 for 602,595 terms here, above the cap
    t = 1e8
    assert abs(z_g(t, 1e-10)[0] - z_oracle(t)[0]) <= t ** -0.75


def test_g_series_frozen_bits():
    # the values before the bracket and its weights read L1_TERMS
    for t, ref in ((27.3, "(2059.010809937751-691.9045421348765j)"),
                   (1e3, "(997798.023279344-1590337.3980451077j)"),
                   (1e5, "(58795368628.746796-55821331814.75268j)")):
        assert repr(g_series(t)) == ref


def test_g_series_leading_part():
    t = 1e5
    g = g_series(t)
    lead = cmath.exp(1j * theta_mod_2pi(t)) * rho0(t) * h_r_series_info(t, 0)[0]
    assert abs(g - lead) / abs(g) <= 1e-3


def test_g_series_domain():
    with pytest.raises(ValueError):
        g_series(15.0)
