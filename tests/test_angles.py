"""The n^{-it} kernel against a 40-digit decimal reference, and the
lattice sums against the direct route."""
import decimal
import math
import tracemalloc

import numpy as np
import pytest

from zline import ConvergenceError, _angles, zeta_right
from zline.special import _zeta_em_core

_PI = decimal.Decimal("3.14159265358979323846264338327950288419716939937510")
_TS = (1e3, 1e6, 1e8 + 0.123)
_N_MAX = 2000


def _reference_phases(ts, n_max):
    """-t log n reduced to [-pi, pi], from the exact binary value of t,
    with 40 digits after the reduction."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        two_pi = 2 * _PI
        logs = [decimal.Decimal(n).ln() for n in range(1, n_max + 1)]
        out = np.empty((len(ts), n_max))
        for i, t in enumerate(ts):
            td = decimal.Decimal(t)
            for j, ln in enumerate(logs):
                ph = -td * ln
                out[i, j] = float(ph - two_pi * (ph / two_pi).to_integral_value())
    return out


def test_kernel_matches_decimal_phases():
    n = np.arange(1, _N_MAX + 1)
    got = _angles.n_pow_minus_it(np.array(_TS), _angles.log_ld(n))
    assert got.shape == (len(_TS), _N_MAX)
    ref = _reference_phases(_TS, _N_MAX)
    err = np.abs(np.angle(got * np.exp(-1j * ref)))
    assert float(err.max()) < 1e-9
    assert np.allclose(np.abs(got), 1.0, rtol=0.0, atol=1e-15)


def test_kernel_rows_match_scalar_calls():
    log_n = _angles.log_ld(np.arange(1, 301))
    grid = _angles.n_pow_minus_it(np.array(_TS), log_n)
    for i, t in enumerate(_TS):
        assert np.array_equal(grid[i], _angles.n_pow_minus_it(t, log_n))


# ------------------------------------------------------------ lattice sums

def _direct(s, n_terms):
    """sum_{n <= N} n^{-s} row by row: the reference formula."""
    n = np.arange(1, n_terms + 1)
    amp = n[None, :] ** (-s.real[:, None])
    return np.sum(amp * _angles.n_pow_minus_it(s.imag, _angles.log_ld(n)), axis=1)


def _f_nodes(t):
    # f_integral's trapezoid nodes at the default step and window
    return t + 0.125 * np.arange(-951, 952)


def _tracking_lattice(x_end, step=0.25):
    # f_on_line's sign-tracking path off sigma = 4
    return np.arange(0.0, x_end + step, step)[1:]


@pytest.mark.parametrize("x, sigma", [
    (_f_nodes(11.9), 4.0),          # t + kh rounds where it leaves t's binade
    (_f_nodes(100.0), 4.0),
    (_f_nodes(2513.984856), 4.0),
    (_tracking_lattice(3000.0), 1.5),
    (_f_nodes(400.0), 2.5),
])
def test_lattice_matches_direct(x, sigma):
    n_terms = _angles.pow2_bucket(int(2.0 * x.max()) + 1, 1024)
    n = np.arange(1, n_terms + 1)
    on, sums = _angles.lattice_sums(x, n ** -sigma, _angles.log_ld(n))
    assert on.mean() > 0.9
    # 128 rows or so: the direct reference costs N phases a row
    rows = np.flatnonzero(on)[::max(1, np.count_nonzero(on) // 128)]
    ref = _direct(sigma + 1j * x[rows], n_terms)
    scale = float(np.sum(n ** -sigma))
    assert float(np.max(np.abs(sums[rows] - ref))) <= 4e-15 * scale


def test_lattice_shared_nodes_bit_identical():
    # f_integral's nodes and stage 1's window nodes at t = 1000 share their
    # interior blocks; stage 1's partial end blocks may round differently
    t = 1000.0
    wide = _f_nodes(t)
    half1 = 28.0 / math.pi * math.log(t)
    # stage 1's lattice plus its off-lattice window ends
    narrow = np.concatenate(([t - half1], wide[np.abs(wide - t) <= half1],
                             [t + half1]))
    a = zeta_right(4.0 + 1j * wide)
    b = zeta_right(4.0 + 1j * narrow)
    assert np.array_equal(zeta_right(4.0 + 1j * wide), a)
    inner = np.abs(narrow - t) <= half1 - 64 * 0.125
    common = np.isin(wide, narrow[inner])
    assert np.count_nonzero(common) > 300
    assert np.array_equal(a[common], b[inner])


@pytest.mark.parametrize("s", [
    # scattered rows
    4.0 + 1j * np.sort(np.random.default_rng(3).uniform(50.0, 900.0, 300)),
    # fewer than two blocks of samples
    4.0 + 1j * (100.0 + 0.125 * np.arange(127)),
    # Re s varies along the call
    np.where(np.arange(300) % 2, 2.5, 4.0) + 1j * (100.0 + 0.125 * np.arange(300)),
])
def test_off_lattice_rows_keep_the_direct_route(s):
    assert np.array_equal(_zeta_em_core(s, 1024),
                          _direct(s, 1024) + _angles.em_tail(s, 1024))


def test_step_matrix_row_blocks_bit_identical(monkeypatch):
    # 4096 terms fit all 64 step rows in one block by default; a smaller
    # element budget fills them four rows at a time
    s = 4.0 + 1j * (3000.0 + 0.125 * np.arange(256))
    whole = zeta_right(s)
    monkeypatch.setattr(_angles, "ROW_ELEMS", 1 << 14)
    assert np.array_equal(zeta_right(s), whole)


def test_step_matrix_memory_is_bounded():
    # 128 lattice nodes at Im s = 1e5 sum N = 131072 terms, so the 64 x N
    # step matrix takes 134 MB; built in row blocks, the call peaks at
    # 183 MB (342 MB when the matrix was formed in one piece)
    s = 4.0 + 1j * (1e5 + 0.125 * np.arange(128))
    matrix = 64 * 131072 * 16
    tracemalloc.start()
    try:
        zeta_right(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * matrix


def test_lattice_skips_oversized_step_matrix():
    # 64 x (2^19 + 1) elements is above the 1 << 25 ceiling: the rows are
    # left to the caller's row-blocked direct route, nothing is formed
    n = np.arange(1, (1 << 19) + 2)
    log_n = _angles.log_ld(n)
    amp = n ** -4.0
    x = 1e5 + 0.125 * np.arange(128)
    tracemalloc.start()
    try:
        on, _ = _angles.lattice_sums(x, amp, log_n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not on.any()
    assert peak < 1 << 20


# ------------------------------------------------------------- work budget

def test_zeta_refuses_work_over_budget():
    # 300 samples at Im s = 1e7 need 2^23 terms each: 2.5e9 term
    # evaluations, above the 2^31 budget; refused before n is formed
    s = 4.0 + 1j * (1e7 + 0.125 * np.arange(300))
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError,
                           match="300 points x 8388608 terms = 2.52e"):
            zeta_right(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
