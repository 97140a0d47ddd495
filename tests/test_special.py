"""Special-function layer: log-Gamma, zeta on and right of the critical
line, the Riemann-Siegel phase, the Z oracle, and the upper incomplete
Gamma function with its decay bound."""
import hashlib
import math

import numpy as np
import pytest

from zline import (
    ln_gamma,
    oracle_terms,
    rs_theta,
    upper_incomplete_gamma,
    z_oracle,
    zeta,
)
from zline import _angles, special

# frozen references from an independent 30-digit run (2026-08)
LN_GAMMA_4_10I = -6.662302539141383 + 17.926780947795681j
ZETA_HALF = -1.4603545088095868
ZETA_4_100I = 1.0513756504725632 - 0.013927563152725479j
ABS_ZETA_HALF_100I = 2.6926970566644635
ZETA_2_2E5I = 0.92573573005889747 + 0.10532582413523347j


# ---------------------------------------------------------------- ln_gamma

def test_ln_gamma_trivial_points():
    assert abs(ln_gamma(1.0 + 0j)) < 1e-14
    assert abs(ln_gamma(0.5 + 0j) - 0.5 * math.log(math.pi)) < 1e-14


def test_ln_gamma_complex_reference():
    assert abs(ln_gamma(4.0 + 10.0j) - LN_GAMMA_4_10I) < 1e-13


def test_ln_gamma_vectorized():
    # ufunc rounding may differ by a few ulp between array and scalar
    # code paths, so compare relatively instead of bit for bit
    zs = np.array([1.0 + 0j, 0.5 + 0j, 4.0 + 10.0j, 30.0 - 7.0j])
    vals = ln_gamma(zs)
    assert vals.shape == zs.shape
    for z, v in zip(zs, vals):
        ref = ln_gamma(complex(z))
        assert abs(v - ref) <= 1e-14 * max(abs(ref), 1.0)


def test_ln_gamma_recurrence():
    # log Gamma(z+1) = log z + log Gamma(z), away from branch issues
    for z in (2.5 + 0.5j, 4.0 + 10.0j, 0.5 - 3.0j):
        lhs = ln_gamma(z + 1.0)
        rhs = np.log(z) + ln_gamma(z)
        assert abs(lhs - rhs) < 1e-12


# -------------------------------------------------------------------- zeta

def test_zeta_right_even_integers():
    assert abs(zeta(4.0 + 0j) - math.pi ** 4 / 90.0) < 1e-14
    assert abs(zeta(2.0 + 0j) - math.pi ** 2 / 6.0) < 1e-14


def test_zeta_right_complex_reference():
    assert abs(zeta(4.0 + 100.0j) - ZETA_4_100I) < 1e-13


def test_zeta_right_domain():
    # from Re s = 2 on the height is not capped; left of it, it is
    assert abs(zeta(2.0 + 2e5j) - ZETA_2_2E5I) <= 1e-15
    with pytest.raises(ValueError, match="exceeds cap"):
        zeta(np.array([4.0 + 2e5j, 1.99 + 2e5j]))


@pytest.mark.parametrize("sigma, refs", [
    # mpmath zeta at 30 digits, at t = 0, 100, 1000, 1e4 and 1e5
    (0.55, (-1.67871955250587499 + 0.0j,
            2.51768540599390968 - 0.0294268089425845079j,
            0.511379697430339896 + 0.748334873918846211j,
            -0.238327946466926996 - 0.269862274344643916j,
            1.48318182414349722 + 4.47412210289532389j)),
    (1.5, (2.61237534868548834 + 0.0j,
           1.31025988167375217 - 0.067266335221653206j,
           0.95554458130341149 - 0.0961324176515955107j,
           0.800665107414076599 - 0.389382748900381331j,
           1.28966396254801819 + 0.529561390599531251j)),
    (2.0, (1.64493406684822644 + 0.0j,
           1.19078040877521702 - 0.0538909593542604583j,
           0.953262184346425154 - 0.110723107460599814j,
           0.922315539900211074 - 0.258362555325381418j,
           1.1538081908707154 + 0.32395211132348395j)),
    (4.0, (1.08232323371113819 + 0.0j,
           1.05137565047256318 - 0.0139275631527254789j,
           0.980086457837628774 - 0.0453259472908467605j,
           1.01090738260780553 - 0.0588951191950315201j,
           1.02180981456880547 + 0.0665964262738743863j)),
])
def test_zeta_frozen_references(sigma, refs):
    # within tol plus the roundoff of the sum: one ulp of each term's size
    tol = 2.0 ** -52
    for t, ref in zip((0.0, 100.0, 1000.0, 1e4, 1e5), refs):
        n = np.arange(1, _angles.em_terms(sigma, t, tol) + 1)
        roundoff = 2.0 ** -52 * float(np.sum(n ** -sigma))
        assert abs(zeta(complex(sigma, t)) - ref) <= tol + roundoff, t


# sha256 of zeta's bytes at 300 scattered s (direct rows) on sigma = 0.5
# and 4, on this machine's SIMD and BLAS path (ROADMAP item 17)
@pytest.mark.parametrize("sigma, digest", [
    (0.5, "4a4ce6696c579ee99ddacd9f4b5687aa0af9d428581f429fa7674b40474a02a8"),
    (4.0, "c7ebce6bce80f5dc0e72b4d9acaca0b018f5a3f110eed0f7c3f6daa2b3fd2c17"),
])
def test_zeta_scattered_frozen_bits(sigma, digest):
    s = sigma + 1j * np.sort(np.random.default_rng(27).uniform(50.0, 900.0, 300))
    assert hashlib.sha256(zeta(s).tobytes()).hexdigest() == digest


def test_em_terms():
    # zeta's term count at sigma = 4 (one ulp) and the oracle's (2e-12)
    assert _angles.em_terms(4.0, 0.0, 2.0 ** -52) == 64
    assert _angles.em_terms(4.0, 1e4, 2.0 ** -52) == 4096
    assert _angles.em_terms(4.0, 1e5, 2.0 ** -52) == 16384
    assert _angles.em_terms(0.5, 100.0, 2e-12) == 256
    assert _angles.em_terms(0.5, 500.0, 2e-12) == 1024


def test_zeta_em_critical_line():
    assert abs(zeta(0.5 + 0j) - ZETA_HALF) < 1e-12
    assert abs(abs(zeta(0.5 + 100.0j)) - ABS_ZETA_HALF_100I) < 1e-10


def test_zeta_em_guards():
    with pytest.raises(ValueError):
        zeta(1.0 + 0j)             # pole
    with pytest.raises(ValueError):
        zeta(0.5 + 2e5j)           # above the height cap
    with pytest.raises(ValueError):
        zeta(0.0 + 5.0j)           # left of the validated half-plane


# ---------------------------------------------------------------- rs_theta

def test_rs_theta_closed_form():
    # at t = 2 pi e the log factor collapses to 1
    t = 2.0 * math.pi * math.e
    ref = (-math.pi / 8.0 + 1.0 / (48.0 * t)
           + 7.0 / (5760.0 * t ** 3))
    assert abs(rs_theta(t) - ref) < 1e-12


def test_rs_theta_domain():
    with pytest.raises(ValueError):
        rs_theta(5.0)


def test_rs_phase_makes_zeta_real():
    for t in (100.0, 1000.0):
        rot = np.exp(1j * rs_theta(t)) * zeta(0.5 + 1j * t)
        assert abs(rot.imag) <= 1e-9


def test_realness_on_grid():
    for t in range(10, 501, 10):
        rot = np.exp(1j * rs_theta(float(t))) * zeta(0.5 + 1j * t)
        assert abs(rot.imag) <= 1e-8, f"t={t}"


# ---------------------------------------------------------------- z_oracle

def test_z_oracle_reference_values():
    assert abs(z_oracle(10.0)[0] - -1.5491945) < 1e-7
    assert abs(z_oracle(1e6)[0] - -2.8061339) < 1e-7


def test_z_oracle_at_zero():
    assert abs(z_oracle(0.0)[0] - ZETA_HALF) < 1e-10


def test_z_oracle_square_identity():
    # |Z(t)| = |zeta(1/2+it)| by construction of the rotation
    assert abs(abs(z_oracle(100.0)[0]) - ABS_ZETA_HALF_100I) < 1e-10


def test_z_oracle_evenness_exact():
    for t in (3.25, 17.5, 100.0, 750.0):
        assert z_oracle(-t) == z_oracle(t)


def test_z_oracle_continuity_at_switch():
    # Z itself moves by ~1e-2 across any 2e-3 window at this height, so
    # the seam is measured as the disagreement of the two methods at one
    # and the same point, on both sides of the switch
    sw = special._EM_SWITCH
    for t in (sw - 1e-3, sw + 1e-3):
        em_route, _ = special._z_em(t)
        rs_route, _ = special._z_rs(t)
        assert abs(em_route - rs_route) <= 1e-6, t


def test_z_oracle_error_estimate():
    v, est = z_oracle(100.0)
    assert 0.0 < est < 1e-6


@pytest.mark.parametrize("t, ref", [
    # mpmath siegelz at 40 digits (30 digits agree): the longdouble
    # rounding of the phases theta - t log n, ~1e14 rad at 1e13, is the
    # leading error here and the est must cover it
    (1e10, 0.457593713139804041),
    (1e12, 4.30883335480841878),
    (3e12, 1.67371333413563718),
    (1e13, -0.127460392726740617),
])
def test_z_oracle_est_covers_large_t(t, ref):
    value, est = z_oracle(t)
    assert abs(value - ref) <= est


@pytest.mark.parametrize("t, ref", [
    # mpmath siegelz at 30 digits, at the top of a term bucket of the
    # oracle's zeta (28.37 .. 258.93) and of the old rule N ~ 2t (31.9 ..
    # 499.9): the Euler-Maclaurin truncation is largest there
    (28.37, 2.62773984565655227),
    (59.72, 0.427257308108912033),
    (124.49, 0.627901407823644361),
    (258.93, 0.652347931585880478),
    (31.9, -0.899231036742900907),
    (63.9, -3.1811918215728012),
    (127.5, 0.0660208503160443563),
    (255.5, 0.543243263918333828),
    (499.9, 1.95758533139446058),
])
def test_z_oracle_est_at_term_bucket_edges(t, ref):
    value, est = z_oracle(t)
    assert abs(value - ref) <= est


def test_z_oracle_main_sum_chunks(monkeypatch):
    # one chunk up to 2^20 terms (t ~ 6.9e12): bit-identical to the sum
    # of the whole main sum at once; above, the chunks hold memory flat
    t = 1e8
    n = np.arange(1, oracle_terms(t, t) + 1)
    # vartheta and the phases in longdouble, as written before they moved
    # into _angles
    tl = _angles._as_ld(t)
    th = (tl / 2 * (np.log(tl) - _angles._LOG_2PI_LD) - tl / 2 - _angles._PI / 8
          + 1 / (48 * tl) + 7 / (5760 * tl ** 3))
    ph = _angles.reduce_mod_2pi(th - tl * _angles._log_ld(n))
    main = 2.0 * float(np.sum(np.cos(ph) / np.sqrt(n)))
    a = math.sqrt(t / (2.0 * math.pi))
    p = a - n.size
    tail = sum(c * a ** (-j) for j, c in enumerate(special._rs_corrections(p)))
    whole = main + (-1) ** (n.size - 1) * a ** -0.5 * tail
    assert special._z_rs(t)[0] == whole
    # 3989 terms in chunks of 1000: the same sum up to its rounding
    monkeypatch.setattr(_angles, "ROW_ELEMS", 1000)
    assert abs(special._z_rs(t)[0] - whole) <= 1e-12


@pytest.mark.parametrize("t, ref", [
    # the Riemann-Siegel side, from before the main sum moved into _angles
    (600.0, (2.6715801421320204, 6.856391271198068e-07)),
    (1e8, (3.645407868486116, 1.0709706182347008e-08)),
    (1e12, (4.3088350807648315, 1.522046862241895e-05)),
    # the Euler-Maclaurin side, t <= 500: values from before the kept step
    # matrix served smaller term counts
    (0.0, (-1.460354508809587, 4.3956670715168575e-12)),
    (14.134725141734695, (-1.4670417686465095e-15, 3.0000000000037677e-12)),
    (100.0, (2.6926970566642088, 8.181605069740381e-12)),
    (280.0, (-4.130023733924393, 1.239099371704712e-11)),
    (499.9, (1.9575853313934324, 5.872780099683014e-12)),
])
def test_z_oracle_frozen_bits(t, ref):
    # value and est to the last bit
    assert z_oracle(t) == ref


def test_zeta_zero_dim_returns_complex():
    # a 0-d input of any kind takes the array path and returns a Python
    # complex, the one value of a one-sample array call
    s = complex(0.5, 123.456)
    ref = zeta(np.array([s]))[0]
    for arg in (s, np.complex128(s), np.array(s)):
        got = zeta(arg)
        assert type(got) is complex and got == ref
    with pytest.raises(ValueError):
        zeta(np.array(0.0 + 1.0j))


def test_rs_corrections_match_chebyshev_objects():
    # the one Clenshaw pass against numpy's evaluation of each Chebyshev
    # object, bit for bit (sign of zero included), on 10^4 points of
    # [0, 1): p = 0 and 1000 points within 1e-3 of each of 1/4 and 3/4
    der = special._psi_chebyshev()
    pi2 = math.pi ** 2
    rng = np.random.default_rng(5)
    ps = np.concatenate(([0.0, 0.25, 0.75], rng.uniform(0.0, 1.0, 7997),
                         0.25 + rng.uniform(-1e-3, 1e-3, 1000),
                         0.75 + rng.uniform(-1e-3, 1e-3, 1000)))
    for p in ps.tolist():
        ref = (float(der[0](p)),
               -float(der[3](p)) / (96.0 * pi2),
               float(der[2](p)) / (64.0 * pi2) + float(der[6](p)) / (18432.0 * pi2 ** 2))
        got = special._rs_corrections(p)
        assert np.array(got).tobytes() == np.array(ref).tobytes(), p


def test_oracle_terms():
    assert oracle_terms(10.0, 100.0) == 256       # zeta at 1/2 + 100i, 2e-12
    assert oracle_terms(10.0, 1e5) == 1024        # its largest, at t <= 500
    assert oracle_terms(600.0, 1e5) == 126        # floor(sqrt(1e5 / 2 pi))
    assert oracle_terms(1e8, 1e8) == 3989


# ------------------------------------------------- upper incomplete gamma

def test_incomplete_gamma_closed_forms():
    assert abs(upper_incomplete_gamma(1.0, 2.0) - math.exp(-2.0)) < 1e-14
    assert abs(upper_incomplete_gamma(2.0, 3.0) - 4.0 * math.exp(-3.0)) < 1e-14


def test_incomplete_gamma_reference_values():
    assert abs(upper_incomplete_gamma(3.75, 20.0) / 8.966687664657323e-06 - 1.0) < 1e-12
    assert abs(upper_incomplete_gamma(5.0, 6.5) / 5.368123603475984 - 1.0) < 1e-12


def test_incomplete_gamma_recurrence():
    # Gamma(a+1,x) = a Gamma(a,x) + x^a e^{-x}
    a, x = 2.5, 6.0
    lhs = upper_incomplete_gamma(a + 1.0, x)
    rhs = a * upper_incomplete_gamma(a, x) + x ** a * math.exp(-x)
    assert abs(lhs / rhs - 1.0) < 1e-13


def test_incomplete_gamma_domain():
    with pytest.raises(ValueError):
        upper_incomplete_gamma(3.0, 2.0)   # x <= a
    with pytest.raises(ValueError):
        upper_incomplete_gamma(0.5, 2.0)   # a < 1


def test_incomplete_gamma_decay_bound():
    # Gamma(a,x) <= a e^{-x} x^{a-1} on the whole validation grid; at
    # a = 1 the two sides coincide exactly, so leave a few ulp of room
    for a in (1.0, 2.0, 15.0 / 4.0, 5.0):
        for x in np.arange(a + 0.5, 50.0 + 1e-9, 0.5):
            x = float(x)
            bound = a * math.exp(-x) * x ** (a - 1.0)
            assert upper_incomplete_gamma(a, x) <= bound * (1.0 + 1e-13), \
                f"a={a}, x={x}"
