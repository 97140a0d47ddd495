"""The n^{-it} kernel against a 40-digit decimal reference."""
import decimal

import numpy as np

from zline import _angles

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
