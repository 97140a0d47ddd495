"""The n^{-it} kernel against a 40-digit decimal reference, the lattice
sums against the direct route, the Taylor rows of sech, and exact_sum
against math.fsum."""
import decimal
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from zline import (
    ConvergenceError,
    _angles,
    h_r_series_info,
    oracle_terms,
    quad,
    z_oracle,
    zeta,
)
from zline.series import _h_eps
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
    got = _angles.n_pow_minus_it(np.array(_TS), _angles._log_ld(n))
    assert got.shape == (len(_TS), _N_MAX)
    ref = _reference_phases(_TS, _N_MAX)
    err = np.abs(np.angle(got * np.exp(-1j * ref)))
    assert float(err.max()) < 1e-9
    assert np.allclose(np.abs(got), 1.0, rtol=0.0, atol=1e-15)


def test_kernel_rows_match_scalar_calls():
    log_n = _angles._log_ld(np.arange(1, 301))
    grid = _angles.n_pow_minus_it(np.array(_TS), log_n)
    for i, t in enumerate(_TS):
        assert np.array_equal(grid[i], _angles.n_pow_minus_it(t, log_n))


# ------------------------------------------------------------ lattice sums

def _direct(s, n_terms):
    """sum_{n <= N} n^{-s} row by row: the reference formula."""
    n = np.arange(1, n_terms + 1)
    amp = n[None, :] ** (-s.real[:, None])
    return np.sum(amp * _angles.n_pow_minus_it(s.imag, _angles._log_ld(n)), axis=1)


def _constant(row):
    # a constant amplitude as lattice_sums takes it: one Taylor row
    return lambda c, k_max: row[None, None]


def _f_nodes(t):
    # f_integral's trapezoid nodes at the default step and window
    return t + 0.125 * np.arange(-951, 952)


def _long_lattice(x_end, step=0.25):
    # one lattice from next to 0 up to x_end, many blocks long
    return np.arange(0.0, x_end + step, step)[1:]


@pytest.mark.parametrize("x, sigma", [
    (_f_nodes(11.9), 4.0),          # t + kh rounds where it leaves t's binade
    (_f_nodes(100.0), 4.0),
    (_f_nodes(2513.984856), 4.0),
    (_long_lattice(3000.0), 1.5),
    (_f_nodes(400.0), 2.5),
])
def test_lattice_matches_direct(x, sigma):
    n_terms = _angles.pow2_bucket(int(2.0 * x.max()) + 1, 1024)
    n = np.arange(1, n_terms + 1)
    on, sums = _angles.lattice_sums(x, _constant(n ** -sigma), _angles._log_ld(n))
    assert on.mean() > 0.9
    # 128 rows or so: the direct reference costs N phases a row
    rows = np.flatnonzero(on)[::max(1, np.count_nonzero(on) // 128)]
    ref = _direct(sigma + 1j * x[rows], n_terms)
    scale = float(np.sum(n ** -sigma))
    assert float(np.max(np.abs(sums[rows] - ref))) <= 4e-15 * scale


def _one_row_off(x):
    # a lattice x with row 77 moved off it, onto the direct route
    x = x.copy()
    x[77] += 0.01
    return x


@pytest.mark.parametrize("sigma, x, at, ref", [
    # f_integral's rounded lattice: every row carries a residual e
    (4.0, _f_nodes(2513.984856), (0, 40, 951, 1500, 1880), (
        1.0084407235878958 - 0.05006314013492204j,
        0.9986175154758042 + 0.07379640260864431j,
        0.9564904304600519 - 0.04392388537484752j,
        1.0404072469563201 + 0.04358744758603292j,
        1.0446306971592105 - 0.04321075791610666j)),
    # an exact lattice x = k/8 near 1e4, from and to a full block's edges
    (4.0, np.arange(79800, 80201) / 8.0, (8, 200, 391), (
        0.9372602380074254 - 0.0016050699616902838j,
        1.0109073826078057 - 0.05889511919503152j,
        1.0122419090413077 + 0.07174452046956441j)),
    # a partial first block of 32 rows, one row off the lattice (77, on
    # the direct route), and a partial last block of 40 rows
    (4.0, _one_row_off(500.0 + 0.125 * np.arange(200)), (0, 31, 32, 77, 78, 199), (
        1.0221506903991264 - 0.06165585790314881j,
        0.9597099313559466 + 0.02141878716911648j,
        0.9609504905907797 + 0.02407192697207071j,
        1.0150494962976047 - 0.07040713852689293j,
        1.0089852852547518 - 0.0712937537380193j,
        1.0518558295202096 + 0.052034761705166424j)),
    (1.5, _long_lattice(3000.0), (0, 5000, 11999), (
        2.2127020227910474 - 0.7830573527527517j,
        1.250844500194575 + 0.21054675047318241j,
        1.2300449836566552 + 0.254215735652085j)),
])
def test_lattice_zeta_frozen_bits(sigma, x, at, ref):
    # zeta's bits on the lattice route (every pinned row but the one off
    # it): its order-0 blocks keep one fixed-shape product per anchor
    z = zeta(sigma + 1j * x)
    assert tuple(complex(z[i]) for i in at) == ref


def test_f_integral_grid_frozen_bits():
    f = quad.f_integral_grid(1000.0 + 0.05 * np.arange(200))
    assert (complex(f[0]), complex(f[101]), complex(f[199])) == (
        997797.8802417959 - 1590337.9833618351j,
        1292183.487741057 + 1707088.9290658475j,
        287241.40177104354 - 737008.1938399137j)


@pytest.mark.parametrize("t", [100.0, 1000.0, 2650.0])
def test_lattice_shared_nodes_bit_identical(monkeypatch, t):
    # stages 1/2 share f_integral's interior lattice blocks, and stage 3
    # shares stage 4's; each takes the wider window's term count, which
    # its own window alone would not always give (stage 3 128 against 256
    # at t = 100, stage 1 512 against 1024 at t = 1000), so zeta is
    # bit-identical at the shared nodes.  The narrow window's partial end
    # blocks may round differently
    calls = []

    def recording(s):
        out = zeta(s)
        calls.append((np.asarray(s).imag, out))
        return out

    monkeypatch.setattr(quad, "zeta", recording)
    quad.f_integral(t)
    quad.f_staged(t, 1)
    quad.f_staged(t, 4)
    quad.f_staged(t, 3)
    half1 = 28.0 / math.pi * math.log(t)
    for (wide, a), (narrow, b) in (calls[:2], calls[2:]):
        assert np.array_equal(zeta(4.0 + 1j * wide), a)
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
    # scattered at Re s = 1, where the 1-D power n ** -1.0 of a lattice row
    # differs from the per-row broadcast power in 6.5 % of the elements
    1.0 + 1j * np.sort(np.random.default_rng(5).uniform(50.0, 900.0, 300)),
])
def test_off_lattice_rows_keep_the_direct_route(s):
    assert np.array_equal(_zeta_em_core(s, 1024),
                          _direct(s, 1024) + _angles.em_tail(s, 1024))


def test_em_tail_log_n_is_the_table_entry():
    # em_tail reads log N from the terms table: the same longdouble log,
    # so the tail is unchanged bit for bit
    log_n = np.log(_angles._as_ld(np.arange(1, 4097)))
    for n_terms in range(64, 4097):
        assert log_n[n_terms - 1] == _angles._log_ld(float(n_terms))


def test_direct_rows_are_blocked_over_terms(monkeypatch):
    # one off-lattice row of 16384 terms (its n and log n tables are kept)
    # under an element budget of 1024: it is summed in 16 parts, so its
    # temporaries are those of a part (60 kB; 790 kB for the whole row),
    # and its value is the whole row's within rounding
    s = np.array([4.0 + 12345.678j])
    whole = _zeta_em_core(s, 16384)
    monkeypatch.setattr(_angles, "ROW_ELEMS", 1024)
    tracemalloc.start()
    try:
        parts = _zeta_em_core(s, 16384)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 << 10
    assert abs(parts[0] - whole[0]) <= 4.4e-16 * zeta(4.0)


def test_step_matrix_row_blocks_bit_identical(monkeypatch):
    # 4096 terms fit all 64 step rows in one block by default; a smaller
    # element budget fills them four rows at a time.  The first call's
    # matrix is kept, so the second starts from an empty slot to build
    # its own
    s = 4.0 + 1j * (3000.0 + 0.125 * np.arange(256))
    monkeypatch.setattr(_angles, "_STEPS", None)
    whole = _zeta_em_core(s, 4096)
    key, kept = _angles._STEPS
    assert key == (0.125, 4096)
    monkeypatch.setattr(_angles, "ROW_ELEMS", 1 << 14)
    monkeypatch.setattr(_angles, "_STEPS", None)
    assert np.array_equal(_zeta_em_core(s, 4096), whole)
    key, rebuilt = _angles._STEPS
    assert key == (0.125, 4096)
    assert rebuilt is not kept and np.array_equal(rebuilt, kept)


def _steps(h, n_terms):
    return _angles._step_matrix(h, _angles._log_ld(np.arange(n_terms, 0, -1)))


def test_step_matrix_keeps_the_last(monkeypatch):
    # the last matrix of at most RETAIN_TERMS terms is kept with its (h, N):
    # the same h and N or fewer terms read its last rows without a build,
    # bit for bit the matrix built alone; a larger N or another h replaces
    # it, built with the slot empty, and a matrix above RETAIN_TERMS is
    # never kept
    alone = {}
    for n_terms in (1, 64, 1000, 1024):
        monkeypatch.setattr(_angles, "_STEPS", None)
        alone[n_terms] = _steps(0.125, n_terms)
    monkeypatch.setattr(_angles, "_STEPS", None)
    slots_at_build = []
    cis = _angles.cis

    def spy(p, out=None):
        slots_at_build.append(_angles._STEPS)
        return cis(p, out)

    monkeypatch.setattr(_angles, "cis", spy)
    kept = _steps(0.125, 1024)
    slot = _angles._STEPS
    assert slot[0] == (0.125, 1024) and slot[1] is kept
    for n_terms, ref in alone.items():
        rows = _steps(0.125, n_terms)
        assert _angles._STEPS is slot
        assert rows.shape == (n_terms, 64) and np.shares_memory(rows, kept)
        assert not rows.flags.writeable
        assert rows.tobytes() == ref.tobytes()
    assert len(slots_at_build) == 1
    larger = _steps(0.125, 2048)
    assert _angles._STEPS[0] == (0.125, 2048) and _angles._STEPS[1] is larger
    other = _steps(0.25, 64)
    assert _angles._STEPS[0] == (0.25, 64) and _angles._STEPS[1] is other
    assert not np.shares_memory(larger, kept) and not np.shares_memory(other, larger)
    monkeypatch.setattr(_angles, "RETAIN_TERMS", 512)
    _steps(0.25, 1024)
    assert _angles._STEPS is None
    _steps(0.25, 64)
    assert _angles._STEPS[0] == (0.25, 64)
    # one build a call since the first, each with the slot empty
    assert len(slots_at_build) == 5 and all(s is None for s in slots_at_build)


def _keep_steps(x, n_terms):
    # keep the step matrix of n_terms terms at the step lattice_sums reads
    # off x
    _steps(float(np.median(np.diff(x))), n_terms)
    return _angles._STEPS


def test_lattice_bits_from_kept_rows(monkeypatch):
    # the kept matrix of RETAIN_TERMS terms serves every smaller N at its
    # step: zeta (order-0 products per anchor) and the H amplitude (stacked
    # Taylor products) take the bits an empty slot gives
    zetas = [(sigma + 1j * x, n_terms)
             for x in (_f_nodes(1000.0), 300.0 + 0.05 * np.arange(400))
             for sigma in (1.5, 4.0) for n_terms in (64, 1024, 4096)]
    n = np.arange(1, 301, dtype=float)
    rows, shift = _h_terms(n)
    h_x = 150.0 + 0.025 * np.arange(1024)

    def h_sums():
        return _angles.lattice_sums(h_x, rows, _angles._log_ld(n), shift)[1]

    ref = []
    for s, n_terms in zetas:
        monkeypatch.setattr(_angles, "_STEPS", None)
        ref.append(_zeta_em_core(s, n_terms))
    monkeypatch.setattr(_angles, "_STEPS", None)
    h_ref = h_sums()
    for k, (s, n_terms) in enumerate(zetas):
        if k % 6 == 0:
            slot = _keep_steps(s.imag, _angles.RETAIN_TERMS)
        assert _zeta_em_core(s, n_terms).tobytes() == ref[k].tobytes(), k
        assert _angles._STEPS is slot
    slot = _keep_steps(h_x, _angles.RETAIN_TERMS)
    assert h_sums().tobytes() == h_ref.tobytes()
    assert _angles._STEPS is slot


def test_kept_tables_are_read_only():
    _zeta_em_core(4.0 + 1j * (100.0 + 0.125 * np.arange(256)), 1024)
    steps = _angles._STEPS[1]
    built = next(_angles.term_parts(_angles._KEEP_TERMS + 1, 16))
    for table in (steps,) + _angles.terms(1024) + built:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


def test_terms_forms_log_n_in_parts():
    # above _KEEP_TERMS term_parts builds each part alone: n (int64) and
    # log n (longdouble), 24 bytes a term, and a longdouble copy of n
    # while log n is formed, 16 more.  With the last part still held by
    # the reader that is 64 bytes a term of one part, not 24 of all
    n_terms, width = 1 << 22, 1 << 18
    tracemalloc.start()
    try:
        last = 0
        for n, log_n in _angles.term_parts(n_terms, width):
            assert n.size == log_n.size == width and n[0] == last + 1
            assert not (n.flags.writeable or log_n.flags.writeable)
            # log n bit for bit, the ends of each part included
            at = np.r_[0:width:997, width - 1]
            assert np.array_equal(log_n[at], _angles._log_ld(n[at]))
            last = n[-1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert last == n_terms
    assert peak <= 64 * width + (64 << 10)  # the whole table: 24 * n_terms


def test_terms_keeps_one_table(monkeypatch):
    # H_r and oracle term counts are rarely powers of two; they read views
    # [:N] of one kept table, sized to the power of two at or above the
    # largest N asked for up to RETAIN_TERMS and to exactly N above; a
    # larger N replaces it, the slot emptied before the new table is
    # built, and an N above _KEEP_TERMS is refused: term_parts reads it
    monkeypatch.setattr(_angles, "_TABLE", None)
    kept_at_build = []
    build = _angles._term_table

    def spy(start, stop):
        kept_at_build.append(_angles._TABLE)
        return build(start, stop)

    monkeypatch.setattr(_angles, "_term_table", spy)
    counts = {h_r_series_info(t, r)[1] for t in (100.0, 1000.0, 12345.0, 1e6)
              for r in (0, 2)}
    z_oracle(1e8)
    counts.add(oracle_terms(1e8, 1e8))
    assert all(n & (n - 1) for n in counts)  # none a power of two
    n_kept, log_kept = _angles._TABLE
    size = n_kept.size
    assert size == _angles.pow2_bucket(max(counts), 1) == 4096
    for count in sorted(counts) + [size]:
        n, log_n = _angles.terms(count)
        assert n.size == log_n.size == count
        assert n.base is n_kept and log_n.base is log_kept
        assert not (n.flags.writeable or log_n.flags.writeable)
    # above RETAIN_TERMS the table takes exactly N terms and replaces the last
    big = h_r_series_info(1e7, 0, 1e-20)[1]
    assert _angles.RETAIN_TERMS < big < _angles._KEEP_TERMS
    n, log_n = _angles._TABLE
    assert n.size == big
    assert not (n.flags.writeable or log_n.flags.writeable)
    small = _angles.terms(113)
    assert small[0].base is n and small[1].base is log_n
    # every kept table was built with none kept beside it
    assert len(kept_at_build) >= 2 and all(t is None for t in kept_at_build)
    # log n bit for bit at the old table's end and the new one's
    idx = np.array([0, size - 1, size, big - 1])
    assert np.array_equal(log_n[idx], _angles._log_ld(n[idx]))
    assert log_kept[-1] == _angles._log_ld(size)
    # up to _KEEP_TERMS the parts are views of the kept table
    parts = list(_angles.term_parts(big, 1000))
    assert all(p[1].base is log_n for p in parts)
    assert np.array_equal(np.concatenate([p[1] for p in parts]), log_n)
    # above _KEEP_TERMS: terms refuses, term_parts builds each part alone,
    # and the kept table stays
    huge = _angles._KEEP_TERMS + 1
    with pytest.raises(ValueError, match="term_parts"):
        _angles.terms(huge)
    *_, (n_h, log_h) = _angles.term_parts(huge, 1 << 18)
    assert n_h.size == log_h.size == 1 and n_h.base is None
    assert log_h[-1] == _angles._log_ld(huge)
    assert _angles._TABLE[1] is log_n


def test_terms_survives_a_call_during_its_build(monkeypatch):
    # a second thread can ask for a smaller table while one is built; the
    # spy on the builder makes that interleaving happen in one thread.  The
    # outer call, and every later one, still gets all N terms
    monkeypatch.setattr(_angles, "_TABLE", None)
    build = _angles._term_table
    inner = []

    def spy(*args):
        if not inner:
            inner.append(None)
            inner[0] = _angles.terms(100)
        return build(*args)

    monkeypatch.setattr(_angles, "_term_table", spy)
    for _ in range(3):
        n, log_n = _angles.terms(5000)
        assert n.size == log_n.size == 5000 and n[-1] == 5000
    assert inner[0][0].size == 100
    assert np.array_equal(log_n, _angles._log_ld(n))


def test_sums_from_threads_match_serial(monkeypatch):
    # 4 threads, each running every workload in its own order from one
    # start, so that tables of several sizes are built at once: zeta on a
    # lattice (the kept table and step matrix) and at scattered points,
    # H_r with N in (2^14, 2^20] (tables of exactly N terms) and the
    # oracle above t = 500 (the main sum).  Every result equals the
    # serial one bit for bit
    scattered = 4.0 + 1j * np.random.default_rng(7).uniform(0.0, 3e4, 40)
    jobs = [lambda: zeta(4.0 + 1j * (2000.0 + 0.125 * np.arange(256))),
            lambda: zeta(scattered),
            lambda: zeta(2.5 + 1j * (500.0 + 0.25 * np.arange(200)))]
    jobs += [lambda t=t: h_r_series_info(t, 0) for t in (3e12, 4e13, 1e15, 2e16)]
    jobs += [lambda t=t: z_oracle(t) for t in (600.0, 1e9, 3e10, 1e12)]
    serial = [job() for job in jobs]
    assert 1 << 14 < h_r_series_info(3e12, 0)[1] < h_r_series_info(2e16, 0)[1] <= 1 << 20
    monkeypatch.setattr(_angles, "_TABLE", None)
    monkeypatch.setattr(_angles, "_STEPS", None)
    start = threading.Barrier(4)
    results = [None] * 4

    def run(k):
        order = np.random.default_rng(k).permutation(len(jobs))
        start.wait()
        results[k] = {int(i): jobs[i]() for i in order}

    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside any build
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for got in results:
        for i, ref in enumerate(serial):
            if isinstance(ref, np.ndarray):
                assert np.array_equal(got[i], ref), i
            else:
                assert got[i] == ref, i


def test_step_matrix_memory_is_bounded(monkeypatch):
    # 128 lattice nodes of N = 131072 terms: the 64 x N step matrix takes
    # 134 MB; built in row blocks, the call peaks at 183 MB (342 MB when
    # the matrix was formed in one piece).  Above RETAIN_TERMS nothing of
    # it is kept after the call; what stays is the n and log n table of its
    # N terms, as terms keeps one table up to _KEEP_TERMS
    monkeypatch.setattr(_angles, "_TABLE", None)
    s = 4.0 + 1j * (1e5 + 0.125 * np.arange(128))
    matrix = 64 * 131072 * 16
    zeta(4.0 + 1j * (100.0 + 0.125 * np.arange(128)))  # lazy imports
    tracemalloc.start()
    try:
        _zeta_em_core(s, 131072)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * matrix
    assert _angles._TABLE[0].size == 131072
    kept = sum(a.nbytes for a in _angles._TABLE)
    assert current - kept < 1 << 20


def test_lattice_skips_oversized_step_matrix():
    # 64 x (2^19 + 1) elements is above the 1 << 25 ceiling: the rows are
    # left to the caller's row-blocked direct route, nothing is formed
    n = np.arange(1, (1 << 19) + 2)
    log_n = _angles._log_ld(n)
    amp = n ** -4.0
    x = 1e5 + 0.125 * np.arange(128)
    tracemalloc.start()
    try:
        on, _ = _angles.lattice_sums(x, _constant(amp), log_n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not on.any()
    assert peak < 1 << 20


# ------------------------------------------------------------- Taylor rows

@pytest.mark.parametrize("w", [
    np.linspace(-40.0, 40.0, 81),                        # real, both tails
    np.linspace(-6.0, 6.0, 25) + 1.2j,                   # 0.37 from a pole
    np.linspace(-30.0, 30.0, 31) - 0.3j,
])
def test_sech_taylor_sums_to_shifted_sech(w):
    # sum_k d^k sech^(k)(w)/k! against sech(w + d) formed directly, with
    # |d| / (distance to the nearest pole) at most 0.1: order 16 is enough.
    # The reference rounds w + d, which costs it ~eps |w| relative.
    rows = _angles.sech_taylor(w, 16)
    assert rows.shape == (17,) + w.shape
    radius = _angles.SECH_RADIUS - np.abs(w.imag).max()
    for d in (0.1 * radius, -0.07j * radius, 0.05 * radius * (1 + 1j)):
        ref = 1.0 / np.cosh(w + d)
        got = _angles.taylor_sum(rows, d)
        assert np.all(np.abs(got - ref) <= 4.4e-16 * (1.0 + np.abs(w)) * np.abs(ref))


def test_sech_taylor_first_rows():
    y = np.linspace(-5.0, 5.0, 11)
    rows = _angles.sech_taylor(y, 2)
    sech, tanh = 1.0 / np.cosh(y), np.tanh(y)
    assert np.allclose(rows[0], sech, rtol=1e-15, atol=0.0)
    assert np.allclose(rows[1], -sech * tanh, rtol=1e-14, atol=1e-300)
    assert np.allclose(rows[2], sech * (2 * tanh ** 2 - 1) / 2, rtol=1e-14, atol=1e-300)


def test_taylor_order():
    assert _angles.taylor_order(0.0) == 0
    assert _angles.taylor_order(1e-4) == 4        # 1e-20 < 1e-17 < 1e-16
    assert _angles.taylor_order(0.099) == 16
    assert _angles.taylor_order(0.11) == -1       # past TAYLOR_MAX_ORDER
    assert _angles.taylor_order(1.0) == -1


def _h_terms(n):
    """The H amplitude n^-4 sech(y_n(t)) as Taylor rows about c, and its
    shift in y: the amplitude lattice_sums expands."""
    log_n = np.log(n)

    def rows(c, k_max):
        y = 1.75 * (np.log(c)[:, None] - _angles.LOG_2PI - 2.0 * log_n)
        return n ** -4.0 * _angles.sech_taylor(y, k_max)

    def shift(t, c):
        return 1.75 * np.log1p((t - c) / c)
    return rows, shift


@pytest.mark.parametrize("x", [
    np.arange(1.0, 300.0, 0.05),              # the first blocks fall back
    14000.0 + 0.05 * np.arange(2048),
    150.0 + 0.025 * np.arange(1024),
])
def test_taylor_lattice_matches_direct(x):
    n = np.arange(1, 301, dtype=float)
    rows, shift = _h_terms(n)
    on, sums = _angles.lattice_sums(x, rows, _angles._log_ld(n), shift)
    assert on.mean() > 0.9
    # near t ~ 1 a block's |d| is beyond one expansion: left to the caller
    assert not on[x < 5.0].any()
    at = np.flatnonzero(on)[::3]
    y = 1.75 * (np.log(x[at])[:, None] - _angles.LOG_2PI - 2.0 * np.log(n))
    ref = np.sum(n ** -4.0 / np.cosh(y)
                 * _angles.n_pow_minus_it(x[at], _angles._log_ld(n)), axis=1)
    assert float(np.max(np.abs(sums[at] - ref))) <= 1e-14 * float(np.max(np.abs(ref)))


# ------------------------------------------------------------- work budget

def test_zeta_refuses_work_over_budget():
    # 300 samples at Im s = 1e9 need 2^23 terms each: 2.5e9 term
    # evaluations, above the 2^31 budget; refused before n is formed
    s = 4.0 + 1j * (1e9 + 0.125 * np.arange(300))
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError,
                           match="300 points x 8388608 terms = 2.52e"):
            zeta(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ------------------------------------------------------------ exact sums

def _fsum_hex(parts):
    """math.fsum of the real and of the imaginary parts of the
    concatenated parts, as float.hex: the correctly rounded sums."""
    z = np.concatenate(parts)
    return math.fsum(z.real.tolist()).hex(), math.fsum(z.imag.tolist()).hex()


def _exact_hex(parts):
    got = _angles.exact_sum(iter(parts))
    return got.real.hex(), got.imag.hex()


def _wide(rng, size):
    """Random doubles of every exponent, 2^-1074 to 2^1000, both signs;
    subnormals among them."""
    return (rng.uniform(0.5, 1.0, size) * rng.choice([-1.0, 1.0], size)
            * np.ldexp(1.0, rng.integers(-1074, 1001, size)))


def _split(rng, z, k):
    """z cut into k parts at random places (some of them empty)."""
    return np.split(z, np.sort(rng.integers(0, z.size + 1, k - 1)))


_BIN_MIN, _BLOCK = _angles._SUM_BIN_MIN, _angles._SUM_BLOCK
_SIZES = (1, _BIN_MIN - 1, _BIN_MIN, _BIN_MIN + 1, 3000,
          _BLOCK - 1, _BLOCK, _BLOCK + 1, 40000)


@pytest.mark.parametrize("size", _SIZES)
def test_exact_sum_equals_fsum(size):
    # the bins go through fsum once, so the sum is the correctly rounded
    # one however the values are cut into parts and blocks
    rng = np.random.default_rng(size)
    vectors = [
        _wide(rng, 2 * size),
        rng.integers(-2 ** 52, 2 ** 52, 2 * size) * 2.0 ** -1074,  # subnormals
        rng.standard_normal(2 * size) * 2.0 ** rng.integers(-60, 60, 2 * size),
        np.repeat(rng.standard_normal(size), 2)
        * np.tile([1.0, -(1.0 + 1e-16)], size),  # x, then -x (1 + 1e-16)
        rng.choice([1.0, -1.0, 2.0 ** -53, 2.0 ** -52, 3.0 * 2.0 ** -54], 2 * size),
    ]
    for x in vectors:
        z = x.view(complex)
        for k in range(1, 6):
            parts = _split(rng, z, k)
            assert _exact_hex(parts) == _fsum_hex(parts), (size, k)


@pytest.mark.parametrize("pad", [0, _BIN_MIN, 40000])
def test_exact_sum_rounds_ties_to_even(pad):
    # 1 + 2^-53 is a tie and rounds to 1; 1 + 2^-52 + 2^-53 rounds up to
    # 1 + 2^-51.  Zeros pad the row into the binned blocks
    re = np.zeros(pad + 3)
    im = np.zeros(pad + 3)
    re[[0, -1]] = 1.0, 2.0 ** -53
    im[[0, 1 + pad // 2, -1]] = 1.0, 2.0 ** -52, 2.0 ** -53
    z = re + 1j * im
    assert _exact_hex([z]) == _fsum_hex([z])
    got = _angles.exact_sum([z])
    assert got.real == 1.0 and got.imag == 1.0 + 2.0 ** -51


def test_exact_sum_of_nothing_is_zero():
    for parts in ([], [np.zeros(0, dtype=complex)], [np.zeros(0)] * 3):
        got = _angles.exact_sum(parts)
        assert got == 0j and math.copysign(1.0, got.real) == 1.0


def test_exact_sum_flushes_its_bins(monkeypatch):
    # bins hold _SUM_EXACT values exactly; past that they are read out and
    # begun again, to the same sum (here after each block of 16384)
    monkeypatch.setattr(_angles, "_SUM_EXACT", 20000)
    rng = np.random.default_rng(3)
    z = _wide(rng, 2 * 50000).view(complex)
    parts = _split(rng, z, 4)
    assert _exact_hex(parts) == _fsum_hex(parts)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("size", [3, _BIN_MIN + 100, _BLOCK + 100])
def test_exact_sum_refuses_non_finite(bad, size):
    for part in ("real", "imag"):
        z = np.ones(size, dtype=complex)
        getattr(z, part)[size // 2] = bad
        with pytest.raises(ValueError, match="finite"):
            _angles.exact_sum([z])
    z = np.ones(size, dtype=complex)
    z.real[[0, -1]] = math.inf, -math.inf
    with pytest.raises(ValueError):
        _angles.exact_sum([z])


def test_exact_sum_refuses_overflow():
    # where the sum overflows both refuse, and neither returns inf
    z = np.full(_BIN_MIN, 1.7e308, dtype=complex)
    with pytest.raises(OverflowError):
        _angles.exact_sum([z])
    with pytest.raises(OverflowError):
        math.fsum(z.real.tolist())


def test_h_r_terms_are_formed_in_parts():
    # H_0 at t = 72015150.94 sums 182,352 terms; formed and summed in parts
    # of RETAIN_TERMS, it peaks at 1.5 MB beside the kept n and log n table
    # (10.2 MB when the whole row of terms was formed at once), with the
    # bits of the one-row sum
    t = 72015150.94
    eps = _h_eps(t, 1e-10)
    h_r_series_info(t, 0, eps)  # the kept table, built outside the trace
    tracemalloc.start()
    try:
        got = h_r_series_info(t, 0, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (3.2939933829243536e-12 - 9.347319983571223e-13j, 182352,
                   4.429036685849152e-23)
    assert peak < 4 << 20


# ------------------------------------------------------------------ lanes

@pytest.mark.parametrize("bad_part", [0, 1, 5])
def test_lane_error_is_raised_after_every_lane_stops(monkeypatch, bad_part):
    # a non-finite term in one part (of two lanes, the caller's takes the
    # even parts and the pool's the odd) raises ValueError once the other
    # lane has run out of parts: no part is being formed afterwards, and
    # none is begun later
    monkeypatch.setattr(_angles, "_lane_count", lambda: 2)
    width = _angles.RETAIN_TERMS // 2
    lock = threading.Lock()
    began, ended = [], []

    def part_terms(n, log_n):
        with lock:
            began.append(int(n[0]))
        time.sleep(0.01)
        z = np.ones(n.size, dtype=complex)
        if n[0] == bad_part * width + 1:
            z[n.size // 2] = math.nan
        with lock:
            ended.append(int(n[0]))
        return [z]

    with pytest.raises(ValueError, match="finite"):
        _angles.lane_sums(8 * width, 1, part_terms)
    with lock:
        assert sorted(began) == sorted(ended)
        seen = len(began)
    time.sleep(0.05)
    assert len(began) == seen and bad_part * width + 1 in ended


_FORK_CHILD = """
import multiprocessing
from zline import _angles
from zline.series import _h_eps, h_r_series_info

_angles._lane_count = lambda: 2
eps = _h_eps(3.6e7, 1e-10)
ref = h_r_series_info(3.6e7, 0, eps)  # the pool of lanes now exists
assert _angles._POOL is not None and ref[1] > _angles.RETAIN_TERMS

def child(conn):
    conn.send((_angles._POOL is None, h_r_series_info(3.6e7, 0, eps)))

ctx = multiprocessing.get_context("fork")
recv, send = ctx.Pipe(duplex=False)
proc = ctx.Process(target=child, args=(send,))
proc.start()
if recv.poll(30):
    dropped, got = recv.recv()
    print(dropped, got == ref, end=" ")
proc.join(30)
if proc.is_alive():  # a child that hangs leaves with its parent
    proc.kill()
    proc.join(5)
print(proc.exitcode)
"""


def _child_env():
    """This environment, with the package's source first on the path."""
    src = str(Path(_angles.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_lanes_after_fork():
    # a forked child has none of the pool's threads: the pool is dropped
    # and made again, and an H_0 of several parts gives the parent's bits
    out = subprocess.run([sys.executable, "-c", _FORK_CHILD], capture_output=True,
                         text=True, timeout=120, env=_child_env())
    assert (out.returncode, out.stdout) == (0, "True True 0\n"), out.stderr
