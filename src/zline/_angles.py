"""The n^{-it} kernel and the phase constants of the Dirichlet sums.

Every route to Z sums n^{-it} times an amplitude: zeta(4+ix) inside F, the
Riemann-Siegel main sum of the oracle, and the series H on and off the
critical line.  At t = 1e8 the phase t*log(n) reaches ~2e9 rad, and its
reduction mod 2pi in double precision would cost ~1e-7 rad, visible in Z.
So n_pow_minus_it forms and reduces the phase in numpy.longdouble (80-bit
extended on x86-64) and converts only the reduced phase back to double;
where longdouble is plain double the phase error is correspondingly larger.
The callers keep their own amplitudes, term rules and summation; this
module also holds what their sums share: log 2pi, the longdouble theta, the
power-of-two term bucket and the Euler-Maclaurin tail.
"""
from __future__ import annotations

import numpy as np

# more digits than longdouble can hold; strtold rounds once
TWO_PI = np.longdouble("6.283185307179586476925286766559005768394")
PI = np.longdouble("3.141592653589793238462643383279502884197")
LOG_2PI_LD = np.longdouble("1.837877066409345483560659472811235279723")
#: log(2*pi) correctly rounded to float64
LOG_2PI = 1.8378770664093454835606594728112352797

# B_{2k}/(2k)! for k = 1..4, the Euler-Maclaurin correction depth (B8).
_EM_COEF = (
    1.0 / 12.0,          # B2/2!
    -1.0 / 720.0,        # B4/4!
    1.0 / 30240.0,       # B6/6!
    -1.0 / 1209600.0,    # B8/8!
)


def as_ld(x):
    """Convert to longdouble without a round trip through double literals."""
    return np.asarray(x, dtype=np.longdouble)


def log_ld(x):
    """Natural log evaluated in longdouble."""
    return np.log(as_ld(x))


def reduce_mod_2pi(phi) -> np.ndarray:
    """Reduce longdouble phase(s) mod 2pi and return float64 in (-2pi, 2pi).

    fmod is exactly rounded, so the only systematic error is the longdouble
    rounding of the 2pi constant itself: ~1e-11 rad after ~1e8 turns.
    """
    r = np.fmod(as_ld(phi), TWO_PI)
    return np.asarray(r, dtype=np.float64)


def cis(p) -> np.ndarray:
    """exp(i*p) for float64 phase(s) p: cos and sin written straight into
    the real and imaginary parts, with no complex temporaries."""
    p = np.asarray(p, dtype=np.float64)
    out = np.empty(p.shape, dtype=complex)
    np.cos(p, out=out.real)
    np.sin(p, out=out.imag)
    return out


def cis_from_ld(phi) -> np.ndarray:
    """exp(i*phi) for longdouble phase(s), computed after reduction."""
    return cis(reduce_mod_2pi(phi))


def n_pow_minus_it(t, log_n) -> np.ndarray:
    """n^{-it} = exp(-i t log n) for every pair of t and longdouble
    log_n = log_ld(n): shape np.shape(t) + np.shape(log_n)."""
    # cis_from_ld spelled out, so that the longdouble phases are freed
    # before cos and sin allocate
    return cis(reduce_mod_2pi(np.multiply.outer(-as_ld(t), log_n)))


def vartheta_ld(t):
    """special.rs_theta evaluated in longdouble (same truncation, tiny
    rounding), for reduction mod 2pi at t ~ 1e8."""
    tl = as_ld(t)
    return (tl / 2 * (np.log(tl) - LOG_2PI_LD) - tl / 2 - PI / 8
            + 1 / (48 * tl) + 7 / (5760 * tl ** 3))


def pow2_bucket(n: int, floor: int) -> int:
    """Round a term count up to a power-of-two bucket.

    Evaluating the same abscissa inside two differently sized vector calls
    must give bit-identical sums; quantizing N makes the term count a
    function of the bucket, not of the exact grid extent.
    """
    n = max(int(n), floor)
    return 1 << (n - 1).bit_length()


def em_tail(s, n_terms: int):
    """Euler-Maclaurin estimate of sum_{n>N} n^-s:

        N^(1-s)/(s-1) - N^-s/2
          + sum_k B_2k/(2k)! * s(s+1)...(s+2k-2) * N^(1-s-2k)

    Accepts any complex s with Re s > 1; accuracy needs |Im s| < 2 pi N
    (the usual Euler-Maclaurin growth condition).
    """
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    big_n = float(n_terms)
    n_pow_ms = big_n ** (-s.real) * n_pow_minus_it(s.imag, log_ld(big_n))
    bracket = big_n / (s - 1.0) - 0.5
    poch = s  # s(s+1)...(s+2k-2), built incrementally
    for k, c in enumerate(_EM_COEF, start=1):
        if k > 1:
            poch = poch * (s + (2 * k - 3)) * (s + (2 * k - 2))
        bracket = bracket + c * poch * big_n ** (1 - 2 * k)
    return n_pow_ms * bracket
