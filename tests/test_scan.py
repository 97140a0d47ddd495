"""Phase tracking, zero counting, the winding cross-check, the
perturbation argument, the normalized phase statistic, and the sign-grid
export."""
import math
import tracemalloc

import numpy as np
import pytest

from zline import (
    ConvergenceError,
    PhaseTrack,
    PhaseTrackError,
    ZeroScanReport,
    c_statistic_profile,
    continuous_arg,
    count_zeros,
    f_integral_grid,
    h_series_grid,
    perturbation_phase_check,
    phase_count_check,
    rho0,
    theta_mod_2pi,
    xray_grid,
    z_approx,
    z_oracle,
)

from zline import _angles
from zline.scan import _h_complex, _refined_track

FIRST_ZEROS = (14.134725141734695, 21.022039638771554, 25.010857580145688)


# ------------------------------------------------------------ phase tracks

def test_continuous_arg_rotation():
    ts = np.arange(0.0, 10.0 + 1e-9, 0.1)
    track = continuous_arg(zip(ts, np.exp(1j * ts)))
    assert np.all(np.abs(track.phase - ts) < 1e-12)
    assert abs(track.phase[-1] - 10.0) < 1e-12
    assert abs(track.delta - 10.0) < 1e-12


def test_continuous_arg_constant():
    ts = np.arange(0.0, 1.01, 0.1)
    track = continuous_arg(zip(ts, np.full(ts.size, -1.0 + 1.0j)))
    assert track.delta == 0.0
    assert abs(track.phase[0] - 0.75 * math.pi) < 1e-15


def test_continuous_arg_zero_sample():
    with pytest.raises(PhaseTrackError):
        continuous_arg([(0.0, 1.0 + 0j), (1.0, 0j), (2.0, 1.0 + 0j)])


def test_continuous_arg_under_resolved():
    ts = np.arange(0.0, 10.0, 2.0)  # 2 rad per step is past the pi/2 gate
    with pytest.raises(PhaseTrackError):
        continuous_arg(zip(ts, np.exp(1j * ts)))


def test_continuous_arg_empty():
    with pytest.raises(ValueError):
        continuous_arg([])


def test_phase_track_validation():
    with pytest.raises(ValueError):
        PhaseTrack(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        PhaseTrack(np.array([0.0]), np.array([0.0]))
    with pytest.raises(PhaseTrackError):
        PhaseTrack(np.array([0.0, 1.0]), np.array([0.0, 2.0]))


def test_tracked_values_are_not_checked_twice(monkeypatch):
    # _track_values checks the grid and the steps of the values itself, so
    # its tracks skip PhaseTrack's O(n) checks; a hand-built track keeps them
    checks = []
    post_init = PhaseTrack.__post_init__
    monkeypatch.setattr(PhaseTrack, "__post_init__",
                        lambda self: checks.append(post_init(self)))
    ts = np.linspace(0.0, 10.0, 101)
    track = continuous_arg(zip(ts, np.exp(1j * ts)))
    assert checks == [] and isinstance(track, PhaseTrack)
    assert track.grid.dtype == track.phase.dtype == float
    with pytest.raises(ValueError, match="two samples"):
        continuous_arg([(0.0, 1.0 + 0j)])
    bad_phase = track.phase.copy()
    bad_phase[50:] += 1.6
    with pytest.raises(PhaseTrackError, match="pi/2"):
        PhaseTrack(track.grid, bad_phase)
    with pytest.raises(ValueError, match="increasing"):
        PhaseTrack(track.grid[::-1], track.phase)
    assert len(checks) == 0  # both refused inside the check
    PhaseTrack(track.grid, track.phase)
    assert len(checks) == 1


def test_zero_scan_report_validation():
    with pytest.raises(ValueError):
        ZeroScanReport((1.0, 0.0), np.array([]))
    with pytest.raises(ValueError):
        ZeroScanReport((0.0, 1.0), np.array([0.7, 0.3]))
    with pytest.raises(ValueError):
        ZeroScanReport((0.0, 1.0), np.array([1.5]))


def test_zero_scan_report_derived_fields():
    zeros = np.array([0.25, 0.5])
    report = ZeroScanReport((0.0, 1.0), zeros)
    assert report.count == 2 and type(report.count) is int
    assert report.verdict is None
    # the counting inequality |delta_phi| / pi < count + 1, on both sides
    assert ZeroScanReport((0.0, 1.0), zeros, -2.999 * math.pi).verdict is True
    assert ZeroScanReport((0.0, 1.0), zeros, 3.001 * math.pi).verdict is False
    assert ZeroScanReport((0.0, 1.0), np.array([]), 0.0).verdict is True


# ------------------------------------------------------------- count_zeros

def test_count_zeros_sine():
    report = count_zeros(math.sin, 0.1, 7.0)
    assert report.count == 2
    assert abs(report.zeros[0] - math.pi) < 1e-9
    assert abs(report.zeros[1] - 2.0 * math.pi) < 1e-9


def test_count_zeros_guards():
    with pytest.raises(ValueError):
        count_zeros(math.sin, 2.0, 1.0)
    with pytest.raises(ValueError):
        count_zeros(math.sin, 0.0, 1.0, step=0.5)


def test_count_zeros_exact_zero_at_node_and_end():
    # (t - 1)(t - 2) is exactly 0.0 at the grid node 1 and at b = 2: the
    # node is credited once, as a left endpoint, and b after the loop,
    # neither bisected
    calls = []

    def f(t):
        calls.append(t)
        return (t - 1.0) * (t - 2.0)

    report = count_zeros(f, 0.5, 2.0, step=0.25)
    assert report.zeros.tolist() == [1.0, 2.0]
    assert report.count == 2
    assert calls == [0.5 + 0.25 * k for k in range(7)]


def test_count_zeros_z_below_first():
    assert count_zeros(lambda t: z_oracle(t)[0], 0.0, 10.0).count == 0


def test_count_zeros_z_first_three():
    report = count_zeros(lambda t: z_oracle(t)[0], 10.0, 30.0)
    assert report.count == 3
    for found, ref in zip(report.zeros, FIRST_ZEROS):
        assert abs(found - ref) < 1e-8


def test_count_agreement_with_series_route():
    a = count_zeros(lambda t: z_oracle(t)[0], 100.0, 160.0).count
    b = count_zeros(lambda t: z_approx(t)[0], 100.0, 160.0).count
    assert a == b == 29


# ------------------------------------------------------ winding cross-check

def test_phase_count_small_interval():
    # from 10.001 the last arange point below 20.001 rounds to 20.001 or above
    for a, b, count in ((10.0, 30.0, 3), (10.001, 20.001, 1)):
        report = phase_count_check(a, b)
        assert report.count == count
        assert abs(report.delta_phi) / math.pi < count + 1
        assert report.verdict is True


def test_phase_count_zero_free_interval():
    report = phase_count_check(14.2, 20.9)
    assert report.count == 0
    assert abs(report.delta_phi) / math.pi < 1.0
    assert report.verdict is True


def test_phase_count_domain():
    with pytest.raises(ValueError):
        phase_count_check(5.0, 30.0)


def test_tracker_step_halving_consistency():
    ends = []
    for step in (0.05, 0.025):
        grid = np.append(np.arange(10.0, 40.0, step), 40.0)
        vals = f_integral_grid(grid)
        ends.append(continuous_arg(zip(grid, vals)).phase[-1])
    assert abs(ends[0] - ends[1]) <= 1e-6


def test_track_sign_pattern_matches_oracle():
    # Re F is Z times a positive factor, so the sign patterns coincide
    grid = np.append(np.arange(10.0, 40.0, 0.05), 40.0)
    vals = f_integral_grid(grid)
    oracle_signs = np.sign([z_oracle(float(t))[0] for t in grid])
    assert np.array_equal(np.sign(vals.real), oracle_signs)


# ---------------------------------------------------- perturbation argument

def test_perturbation_scaled_signal():
    ts = np.arange(0.0, 5.0 + 1e-9, 0.1)
    f = np.exp(1j * ts)
    f_track = continuous_arg(zip(ts, f))
    g_track = continuous_arg(zip(ts, 1.1 * f))
    witness = np.abs(f - 1.1 * f) < np.abs(f)
    assert perturbation_phase_check(f_track, g_track, witness) is True


def test_perturbation_offset_signal():
    ts = np.arange(0.0, 5.0 + 1e-9, 0.1)
    f = np.exp(1j * ts)
    g = f * (1.0 + 0.5j)
    f_track = continuous_arg(zip(ts, f))
    g_track = continuous_arg(zip(ts, g))
    witness = np.abs(f - g) < np.abs(f)
    assert perturbation_phase_check(f_track, g_track, witness) is True


def test_perturbation_grid_mismatch():
    t1 = np.arange(0.0, 1.01, 0.1)
    t2 = t1 + 0.05
    tr1 = continuous_arg(zip(t1, np.exp(1j * t1)))
    tr2 = continuous_arg(zip(t2, np.exp(1j * t2)))
    with pytest.raises(ValueError):
        perturbation_phase_check(tr1, tr2, np.ones(t1.size, dtype=bool))


def test_perturbation_false_witness_is_vacuous():
    ts = np.arange(0.0, 1.01, 0.1)
    tr = continuous_arg(zip(ts, np.exp(1j * ts)))
    witness = np.ones(ts.size, dtype=bool)
    witness[3] = False
    with pytest.raises(ValueError):
        perturbation_phase_check(tr, tr, witness)


def _leading_series_values(grid: np.ndarray) -> np.ndarray:
    phases = np.array([theta_mod_2pi(float(t)) for t in grid])
    return np.exp(1j * phases) * rho0(grid) * h_series_grid(grid)


def _perturbation_on(a: float, b: float):
    grid = np.append(np.arange(a, b, 0.01), b)
    f = f_integral_grid(grid)
    g = _leading_series_values(grid)
    witness = np.abs(f - g) < np.abs(f)
    f_track = continuous_arg(zip(grid, f))
    g_track = continuous_arg(zip(grid, g))
    return perturbation_phase_check(f_track, g_track, witness)


def test_perturbation_against_leading_series():
    assert _perturbation_on(100.0, 110.0) is True


def test_perturbation_wide_interval():
    # the dominance hypothesis is not guaranteed; a failed witness (or a
    # track the near-tangency at t = 111.87 leaves under-resolved) makes
    # the comparison vacuous and the test is reported as skipped
    try:
        verdict = _perturbation_on(100.0, 120.0)
    except (ValueError, PhaseTrackError):
        pytest.skip("dominance hypothesis fails inside [100, 120]")
    assert verdict is True


def _fast_phase(t):
    """A slow rotation plus a turn by pi within ~1e-3 of t = 1.0123."""
    return 0.3 * t + np.arctan((t - 1.0123) / 1e-3)


def test_refined_track_on_one_fast_interval():
    grid = np.append(np.arange(0.0, 2.0, 0.05), 2.0)
    calls = []

    def evaluate(ts):
        calls.append(ts.size)
        return 2.0 * np.exp(1j * _fast_phase(ts))

    track = _refined_track(grid, evaluate, "S")
    assert len(calls) > 2 and track.grid.size == sum(calls)
    assert np.all(np.isin(grid, track.grid))
    assert np.all(np.diff(track.grid) > 0.0)
    assert np.max(np.abs(track.phase - _fast_phase(track.grid))) < 1e-12


def test_refined_track_names_the_unresolved_step():
    # a sign flip is a jump of pi that no refinement resolves
    grid = np.append(np.arange(0.0, 2.0, 0.05), 2.0)
    with pytest.raises(PhaseTrackError,
                       match=r"arg S steps \+3\.142 rad between t=1\.0123 and t=1\.0123"):
        _refined_track(grid, lambda ts: np.where(ts < 1.0123, 1.0, -1.0) + 0j, "S")


# ---------------------------------------------------------- c statistic

def test_c_statistic_sanity_band():
    assert 0.1 <= c_statistic_profile([1000.0])[0] <= 0.45


def test_c_statistic_profile_band():
    ts = np.geomspace(1e3, 1.5e4, 10)
    vals = c_statistic_profile(ts)
    assert vals.shape == (10,)
    assert np.all((vals >= 0.1) & (vals <= 0.45))


def test_c_statistic_refuses_work_over_budget():
    # t = 3e5 at step 0.05 is 6e6 track points x 525 terms = 3.15e9 term
    # evaluations: refused from the point count, before the 48 MB track
    # grid exists.  The first call loads what numpy imports lazily.
    for traced in (False, True):
        if traced:
            tracemalloc.start()
        try:
            with pytest.raises(ConvergenceError, match="525 terms = 3.15e"):
                c_statistic_profile([3e5])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1 << 20


def test_c_statistic_guards():
    with pytest.raises(ValueError):
        c_statistic_profile([50.0])
    with pytest.raises(ValueError):
        c_statistic_profile([1000.0], step=0.5)
    with pytest.raises(ValueError):
        c_statistic_profile([])


# ------------------------------------------------------------- x-ray grid

def test_xray_real_row_matches_series():
    res, _, h = xray_grid(10000.0, 10020.0, 0.0, 4.0, 21, 2)
    ref = h_series_grid(res)
    assert np.array_equal(np.sign(h[:, 0].real), np.sign(ref.real))
    assert np.array_equal(np.sign(h[:, 0].imag), np.sign(ref.imag))


def _h_off_axis_direct(z):
    """The continued series at each z summed term by term, every phase
    formed in longdouble, plus the same closed-form tail."""
    n0 = _angles.pow2_bucket(max(2048, int(0.4 * float(z.real.max())) + 1), 2048)
    log_n = _angles._log_ld(np.arange(1, n0 + 1))
    log_d = np.asarray(log_n, dtype=float)
    out = np.empty(z.shape, dtype=complex)
    for start in range(0, z.size, 128):
        zb = z[start:start + 128]
        w = 1.75 * (np.log(zb)[:, None] - _angles.LOG_2PI - 2.0 * log_d)
        terms = (np.exp((zb.imag[:, None] - 4.0) * log_d) / np.cosh(w)
                 * _angles.n_pow_minus_it(zb.real, log_n))
        pref = 2.0 * np.exp(1.75 * (np.log(zb) - _angles.LOG_2PI))
        out[start:start + 128] = (terms.sum(axis=1)
                                  + pref * _angles.em_tail(7.5 + 1j * zb, n0))
    return out


@pytest.mark.parametrize("re0, re1, im0, im1, n, stride", [
    (1000.0, 1010.0, -2.0, 4.0, 40, 2),       # the bench tiles
    (1007.5, 1017.5, -2.0, 4.0, 40, 3),
    (20000.0, 20010.0, -2.0, 4.0, 40, 5),
    (10000.0, 10020.0, -2.0, 4.0, 100, 11),
    (10.0, 20.0, -2.5, 4.0, 30, 1),           # halved into sub-tiles
    (0.5, 3.0, -2.9, 4.0, 12, 1),             # summed term by term
    (1.0, 500.0, -2.9, 4.0, 24, 1),           # both
])
def test_xray_kernel_matches_direct(re0, re1, im0, im1, n, stride):
    res = np.linspace(re0, re1, n)
    ims = np.linspace(im0, im1, n)
    h = _h_complex(res, ims).ravel()[::stride]
    ref = _h_off_axis_direct((res[:, None] + 1j * ims[None, :]).ravel()[::stride])
    assert float(np.max(np.abs(h - ref))) <= 1e-11 * float(np.max(np.abs(ref)))
    assert np.array_equal(np.sign(h.real), np.sign(ref.real))
    assert np.array_equal(np.sign(h.imag), np.sign(ref.imag))


def test_xray_box_has_sign_changes():
    h = xray_grid(10000.0, 10020.0, -2.0, 4.0, 4, 4)[2]
    for part in (h.real, h.imag):
        assert np.sign(part).min() == -1 and np.sign(part).max() == 1


def test_xray_refuses_rows_over_budget():
    # Re z = 2e8 needs 2^27 terms, a single row 32 times the block budget;
    # the refusal must come before the term arrays are allocated
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError, match="134217728 terms"):
            xray_grid(2e8, 2.00001e8, -1.0, 1.0, 4, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_xray_refuses_work_over_budget():
    # 529 points x 2^22 terms at Re z = 7e6 is above the 2^31 work budget
    # (the default --n 400 there would run for about 36 h); the refusal
    # comes before the term arrays are allocated
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError, match="above the work budget"):
            xray_grid(7e6, 7.00001e6, -1.0, 1.0, 23, 23)
        # 4e14 points at Re z = 1000: refused before the axes are built
        with pytest.raises(ConvergenceError, match="2048 terms = 8.19e"):
            xray_grid(1000.0, 1001.0, -2.0, 4.0, 20_000_000, 20_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_xray_guards():
    with pytest.raises(ValueError):
        xray_grid(10.0, 5.0, 0.0, 1.0, 4, 4)
    with pytest.raises(ValueError):
        xray_grid(5.0, 10.0, 1.0, 0.0, 4, 4)
    with pytest.raises(ValueError):
        xray_grid(-5.0, 10.0, 0.0, 1.0, 4, 4)
    with pytest.raises(ValueError):
        xray_grid(5.0, 10.0, 0.0, 4.5, 4, 4)
    with pytest.raises(ValueError):
        xray_grid(5.0, 10.0, -3.0, 1.0, 4, 4)
    with pytest.raises(ValueError):
        xray_grid(5.0, 10.0, 0.0, 1.0, 1, 4)
