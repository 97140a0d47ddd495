"""Zero counting and phase diagnostics along the critical line.

Everything here works with *continuously tracked* arguments.  A sampled
complex signal only determines its phase up to multiples of 2 pi; we pin
the branch by insisting that consecutive samples move by less than pi/2
and refuse to guess otherwise.  On top of that sit the zero counter, the
winding-number cross-check against the counted zeros, the perturbation
argument (two signals whose difference is dominated never drift a full
turn apart), the normalized phase-decay statistic, and the series
evaluator on a rectangle off the real axis (the x-ray).
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

from . import _angles
from .errors import ConvergenceError, PhaseTrackError
from .quad import f_grid_terms, f_integral_grid
from .series import h_grid_terms, h_series_grid
from .special import oracle_terms, z_oracle

__all__ = [
    "PhaseTrack",
    "ZeroScanReport",
    "continuous_arg",
    "count_zeros",
    "phase_count_check",
    "perturbation_phase_check",
    "c_statistic_profile",
    "xray_grid",
]

_HALF_PI = 0.5 * math.pi
# most terms an x-ray row may take
_XRAY_ELEMS = 1 << 22
# an x-ray sub-tile this small that one Taylor expansion cannot cover is
# summed term by term rather than halved again
_XRAY_MIN_TILE = 16
# zeros are located by bisection to this bracket width
_REFINE_WIDTH = 1e-9
# refine before a step gets anywhere near the pi/2 rejection threshold
_REFINE_TRIGGER = 0.4 * math.pi
_MAX_REFINE_ROUNDS = 6
# ten-way splits: six rounds buy a millionfold local refinement, enough
# for the near-zero passes of H (observed as close as |H| ~ 1e-7)
_REFINE_SPLIT = 10


@dataclass(frozen=True)
class PhaseTrack:
    """A continuously unwrapped argument along an increasing grid.

    Invariant: consecutive phase differences stay below pi/2 in
    magnitude, so the unwrapping is unambiguous.
    """

    grid: np.ndarray
    phase: np.ndarray

    def __post_init__(self) -> None:
        self._store(self.grid, self.phase)
        if np.any(np.diff(self.grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if np.any(np.abs(np.diff(self.phase)) >= _HALF_PI):
            raise PhaseTrackError("phase step of pi/2 or more; track is not resolved")

    def _store(self, grid, phase) -> None:
        """Keep grid and phase as float arrays, refusing other shapes than
        two 1-d arrays of equal length, at least two samples."""
        grid = np.asarray(grid, dtype=float)
        phase = np.asarray(phase, dtype=float)
        if grid.ndim != 1 or grid.shape != phase.shape:
            raise ValueError("grid and phase must be 1-d arrays of equal length")
        if grid.size < 2:
            raise ValueError("a phase track needs at least two samples")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "phase", phase)

    @classmethod
    def _resolved(cls, grid, phase) -> "PhaseTrack":
        """The track of a strictly increasing grid whose phase steps are
        below pi/2, as _track_values has checked them: built without
        checking them again."""
        track = object.__new__(cls)
        track._store(grid, phase)
        return track

    @property
    def delta(self) -> float:
        """Total phase change across the track."""
        return float(self.phase[-1] - self.phase[0])


@dataclass(frozen=True)
class ZeroScanReport:
    """Outcome of a scan over [a, b]: the located zeros and, optionally, the
    phase change of the integral evaluator; count and verdict derive from them."""

    interval: Tuple[float, float]
    zeros: np.ndarray
    delta_phi: Optional[float] = None

    def __post_init__(self) -> None:
        zeros = np.asarray(self.zeros, dtype=float)
        object.__setattr__(self, "zeros", zeros)
        a, b = float(self.interval[0]), float(self.interval[1])
        object.__setattr__(self, "interval", (a, b))
        if not a < b:
            raise ValueError("interval must satisfy a < b")
        if zeros.size:
            if np.any(np.diff(zeros) < 0.0):
                raise ValueError("zeros must be sorted ascending")
            if zeros[0] < a or zeros[-1] > b:
                raise ValueError("zero outside the scanned interval")

    @property
    def count(self) -> int:
        return self.zeros.size

    @property
    def verdict(self) -> Optional[bool]:
        """|delta_phi| / pi < count + 1, or None without a delta_phi."""
        if self.delta_phi is None:
            return None
        return bool(abs(self.delta_phi) / math.pi < self.count + 1)


def _track_values(ts: np.ndarray, vals: np.ndarray, source: str) -> PhaseTrack:
    """Unwrap arg vals along ts, refusing a step of pi/2 or more."""
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(vals, dtype=complex)
    if np.any(np.diff(ts) <= 0.0):
        raise ValueError("samples must be strictly increasing in t")
    mag = np.abs(vals)
    if np.any(mag == 0.0):
        i = int(np.argmin(mag))
        raise PhaseTrackError(f"zero sample at t={ts[i]:g}; argument undefined")
    steps = np.angle(vals[1:] / vals[:-1])
    bad = np.abs(steps) >= _HALF_PI
    if np.any(bad):
        i = int(np.argmax(bad))
        raise PhaseTrackError(
            f"arg {source} steps {steps[i]:+.3f} rad between t={ts[i]:g} and "
            f"t={ts[i + 1]:g}; grid too coarse to unwrap"
        )
    phase = np.empty(ts.size)
    phase[0] = math.atan2(vals[0].imag, vals[0].real)
    phase[1:] = phase[0] + _cumsum_stable(steps)
    return PhaseTrack._resolved(ts, phase)


def _cumsum_stable(steps: np.ndarray) -> np.ndarray:
    """Cumulative sum whose late entries do not inherit the rounding of
    a long naive prefix; block offsets are compensated with fsum."""
    out = np.empty(steps.size)
    block = 4096
    totals: list = []
    for start in range(0, steps.size, block):
        chunk = steps[start:start + block]
        out[start:start + chunk.size] = math.fsum(totals) + np.cumsum(chunk)
        totals.append(math.fsum(memoryview(chunk)))
    return out


def continuous_arg(samples: Iterable[Tuple[float, complex]]) -> PhaseTrack:
    """Unwrap the argument of (t, value) samples taken along a curve.

    The first sample anchors the branch at its principal argument; each
    later sample takes the nearest branch.  Raises PhaseTrackError on a
    zero sample or when a step is too large to unwrap safely.
    """
    ts: list = []
    vals: list = []
    for t, v in samples:
        ts.append(float(t))
        vals.append(complex(v))
    if not ts:
        raise ValueError("no samples supplied")
    return _track_values(np.asarray(ts), np.asarray(vals), "samples")


def _bisect(f: Callable[[float], float], lo: float, hi: float,
            neg_left: bool) -> float:
    while hi - lo > _REFINE_WIDTH:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = float(f(mid))
        if fm == 0.0:
            return mid
        if (fm < 0.0) == neg_left:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _lattice_size(a: float, b: float, step: float) -> int:
    """Points of _lattice(a, b, step), or one more, without building it; a
    count too large for a float is refused (ConvergenceError) as work over
    the budget."""
    if not 0.0 < step <= 0.25:
        raise ValueError("step must lie in (0, 0.25]")
    count = (b - a) / step
    if not math.isfinite(count):
        raise ConvergenceError(f"[{a:g}, {b:g}] at step {step:.3g} has over "
                               f"{sys.float_info.max:.3g} points, above the work "
                               f"budget of {_angles.WORK_BUDGET:.3g}")
    return math.ceil(count) + 1


def _lattice_points(a: float, b: float, step: float) -> int:
    """Points of _lattice(a, b, step) exactly, without building it: b and
    the values below it of the _lattice_size - 1 that np.arange forms, a,
    a + step and a + i ((a + step) - a) for i >= 2, found by bisection."""
    d = (a + step) - a
    return 1 + bisect.bisect_left(range(_lattice_size(a, b, step) - 1), b,
                                  key=lambda i: a + i * (step if i < 2 else d))


def _lattice(a: float, b: float, step: float) -> np.ndarray:
    """a, a + step, ... below b, then b itself: strictly increasing even
    when the last arange point rounds to b or above."""
    _lattice_size(a, b, step)
    grid = np.arange(a, b, step)
    return np.append(grid[grid < b], b)


def count_zeros(evaluator: Callable[[float], float], a: float, b: float,
                step: float = 0.05) -> ZeroScanReport:
    """Locate sign changes of a real-valued function on [a, b].

    The scan samples at the given step and refines each bracket by
    bisection until it is narrower than 1e-9.  Zeros of even order (no
    sign change) are invisible to this scan, so the count is a lower
    bound in general.
    """
    a = float(a)
    b = float(b)
    step = float(step)
    if not a < b:
        raise ValueError("need a < b")
    grid = _lattice(a, b, step)
    vals = np.array([float(evaluator(float(t))) for t in grid])
    zeros: list = []
    for i in range(grid.size - 1):
        flo, fhi = vals[i], vals[i + 1]
        if flo == 0.0:
            lo = float(grid[i])
            if not zeros or lo - zeros[-1] > _REFINE_WIDTH:
                zeros.append(lo)
            continue
        if fhi == 0.0:
            continue  # credited when it becomes the left endpoint
        if (flo < 0.0) != (fhi < 0.0):
            zeros.append(_bisect(evaluator, float(grid[i]), float(grid[i + 1]),
                                 flo < 0.0))
    if vals[-1] == 0.0 and (not zeros or b - zeros[-1] > _REFINE_WIDTH):
        zeros.append(b)
    return ZeroScanReport((a, b), np.asarray(zeros))


def phase_count_check(a: float, b: float, step: float = 0.05) -> ZeroScanReport:
    """Cross-check counted zeros against the winding of the integral.

    Tracks the argument of the analytic integral evaluator on a grid over
    [a, b], refined locally where its phase moves fast, scans the oracle
    for sign changes on the same grid, and records the verdict of
    |delta_phi| / pi < count + 1.  An unresolved phase raises
    PhaseTrackError, work over the budget ConvergenceError (the oracle's
    scan, then the F grid's zeta and kernel, are checked before the grid
    exists).
    """
    a = float(a)
    b = float(b)
    if not (a >= 10.0 and a < b):
        raise ValueError("need 10 <= a < b")
    _angles.check_work(_lattice_size(a, b, step), oracle_terms(a, b))
    f_grid_terms(a, b, _lattice_points(a, b, step))
    track = _refined_track(_lattice(a, b, step), f_integral_grid, "F")
    # z_oracle is looked up at each call, so a wrapper set on this
    # module's name sees every evaluation
    zeros = count_zeros(lambda u: z_oracle(u)[0], a, b, step).zeros
    return ZeroScanReport((a, b), zeros, track.delta)


def perturbation_phase_check(f_track: PhaseTrack, g_track: PhaseTrack,
                             witness: Sequence[bool]) -> bool:
    """Verify that two tracked phases never separate by a full turn.

    The witness must certify, pointwise, that the difference of the two
    underlying signals is strictly dominated (so their arguments can
    never be antipodal).  Under that hypothesis the phase difference
    stays inside one open pi-neighbourhood of a single multiple of
    2 pi, which in particular bounds |delta_f - delta_g| below 2 pi.
    A false witness anywhere makes the check vacuous: ValueError.
    """
    if not np.array_equal(f_track.grid, g_track.grid):
        raise ValueError("phase tracks must share one grid")
    dom = np.asarray(witness, dtype=bool)
    if dom.shape != f_track.grid.shape:
        raise ValueError("witness length must match the grid")
    if not np.all(dom):
        i = int(np.argmin(dom))
        raise ValueError(
            f"dominance witness fails at t={f_track.grid[i]:g}; check is vacuous")
    d = f_track.phase - g_track.phase
    k = round(float(np.median(d)) / (2.0 * math.pi))
    pinned = bool(np.all(np.abs(d - 2.0 * math.pi * k) < math.pi))
    return pinned and abs(float(d[-1] - d[0])) < 2.0 * math.pi


def _refined_track(grid: np.ndarray, evaluate: Callable[[np.ndarray], np.ndarray],
                   source: str) -> PhaseTrack:
    """Sample evaluate on grid and track its argument, refining locally (at
    most _MAX_REFINE_ROUNDS rounds of _REFINE_SPLIT-way splits, inserted in
    place) where the sampled phase moves too fast."""
    vals = evaluate(grid)
    frac = np.arange(1, _REFINE_SPLIT) / _REFINE_SPLIT
    for _ in range(_MAX_REFINE_ROUNDS):
        bad = np.flatnonzero(np.abs(np.angle(vals[1:] / vals[:-1])) >= _REFINE_TRIGGER)
        if not bad.size:
            break
        lo, hi = grid[bad], grid[bad + 1]
        news = (lo[:, None] + (hi - lo)[:, None] * frac[None, :]).ravel()
        at = np.repeat(bad + 1, _REFINE_SPLIT - 1)
        vals = np.insert(vals, at, evaluate(news))
        grid = np.insert(grid, at, news)
    return _track_values(grid, vals, source)


def _arg_h_track(t_end: float, step: float, anchors: np.ndarray) -> PhaseTrack:
    """Track arg H from t = 1 up to t_end through the anchors, refined
    locally.  A track over the work budget is refused from its point
    count, at most (t_end - 1)/step lattice points plus the anchors,
    before the grid is built."""
    h_grid_terms(t_end, _lattice_size(1.0, t_end, step) - 1 + anchors.size)
    grid = np.unique(np.concatenate([_lattice(1.0, t_end, step), anchors]))
    return _refined_track(grid, h_series_grid, "H")


def _phase_scale(t: np.ndarray) -> np.ndarray:
    return 0.5 * t * (np.log(t) - _angles.LOG_2PI) - 0.5 * t


def c_statistic_profile(ts: Sequence[float], step: float = 0.05) -> np.ndarray:
    """Normalized decay rate c(t) = -arg H(t) / (t/2 log(t / 2 pi) - t/2)
    at each t of ts (t >= 100), from one track of arg H from t = 1, the
    continuation of the principal value where the series' first term
    dominates.  Refinement only inserts points: every t stays on it."""
    ts_arr = np.unique(np.asarray(ts, dtype=float))
    if ts_arr.size == 0:
        raise ValueError("no evaluation points")
    if np.any(ts_arr < 100.0):
        raise ValueError("the statistic needs t >= 100")
    track = _arg_h_track(float(ts_arr[-1]), step, ts_arr)
    idx = np.searchsorted(track.grid, ts_arr)
    return -track.phase[idx] / _phase_scale(ts_arr)


def _xray_plan(z: np.ndarray, i0: int, i1: int, j0: int, j1: int):
    """Cover z[i0:i1, j0:j1] with Taylor sub-tiles (i0, i1, j0, j1, centre,
    order) and direct ones (i0, i1, j0, j1), halving the longer side until
    each sub-tile's shift d = (7/4) log(z/centre) is inside the reach of
    one expansion: (taylor tiles, direct tiles)."""
    zt = z[i0:i1, j0:j1]
    centre = 0.5 * (zt[0, 0] + zt[-1, -1])
    # sech(w) has its poles at Im w = +-pi/2, and Im w = (7/4) arg z
    radius = _angles.SECH_RADIUS - 1.75 * abs(math.atan2(centre.imag, centre.real))
    if radius > 0.0:
        d_max = float(np.max(np.abs(1.75 * np.log1p((zt - centre) / centre))))
        order = int(_angles.taylor_order(d_max / radius))
        if order >= 0:
            return [(i0, i1, j0, j1, centre, order)], []
    if radius <= 0.0 or zt.size <= _XRAY_MIN_TILE:
        return [], [(i0, i1, j0, j1)]
    span = zt[-1, -1] - zt[0, 0]
    if j1 - j0 < 2 or (i1 - i0 >= 2 and span.real >= span.imag):
        mid = (i0 + i1) // 2
        first, second = _xray_plan(z, i0, mid, j0, j1), _xray_plan(z, mid, i1, j0, j1)
    else:
        mid = (j0 + j1) // 2
        first, second = _xray_plan(z, i0, i1, j0, mid), _xray_plan(z, i0, i1, mid, j1)
    return first[0] + second[0], first[1] + second[1]


def _xray_terms(re_max: float, points: int) -> int:
    """Term count of an x-ray tile reaching Re z = re_max; refuses
    (ConvergenceError) a row above _XRAY_ELEMS terms, or `points` points
    of it above the work budget, before anything is allocated."""
    n0 = _angles.pow2_bucket(max(2048, int(0.4 * re_max) + 1), 2048)
    if n0 > _XRAY_ELEMS:
        raise ConvergenceError(f"H at Re z = {re_max:g} needs "
                               f"{_angles.count_str(n0)} terms, "
                               f"above the block budget of {_XRAY_ELEMS}")
    _angles.check_work(points, n0)
    return n0


def _h_complex(res: np.ndarray, ims: np.ndarray) -> np.ndarray:
    """The series evaluator continued off the real axis, on the grid
    z = res[i] + 1j * ims[j] (increasing res and ims): shape (n_re, n_im).

    Terms up to a cutoff past the stationary index are summed; beyond it
    the hyperbolic factor is within 1e-18 of its leading exponential,
    which turns the remainder into a Dirichlet tail with exponent
    15/2 + iz, summed in closed form.  A term is n^{-4} sech(w_n(z))
    n^{-i Re z} n^{Im z}, w_n = (7/4) log(z / 2 pi n^2).  Across a sub-tile
    with centre c every w_n moves by the same d = (7/4) log(z/c), so the
    sub-tile costs K + 1 products (A_k o R) @ P^T: A_k the Taylor row
    sech^(k)(w_n(c))/k!, R the rows n^{-i Re z} (phases always formed in
    longdouble), P the rows n^{Im z - 4}, weighted by d^k.  Sub-tiles whose
    d is out of reach of one expansion are halved; those that stay out of
    reach (near Re z ~ |Im z|, or small ones) are summed term by term.
    The sums over n run in parts (_angles.term_parts) so wide that the
    K + 1 rows of each order of the largest sub-tile would fill
    _angles.ROW_ELEMS; one order's product is formed at a time, and the
    term-by-term points go _angles.direct_rows points a block.
    """
    n0 = _xray_terms(float(res.max()), res.size * ims.size)
    z = res[:, None] + 1j * ims[None, :]
    tiles, direct = _xray_plan(z, 0, res.size, 0, ims.size)
    acc = [np.zeros((order + 1, i1 - i0, j1 - j0), dtype=complex)
           for i0, i1, j0, j1, _, order in tiles]
    by_terms = np.zeros(z.shape, dtype=bool)
    for i0, i1, j0, j1 in direct:
        by_terms[i0:i1, j0:j1] = True
    ii, jj = np.nonzero(by_terms)
    out = np.zeros(z.shape, dtype=complex)
    # n runs in parts whose widest block of rows, all K + 1 orders of a
    # sub-tile, stays under ROW_ELEMS
    width = max([res.size, ims.size] + [s.shape[0] * s.shape[1] for s in acc])
    for _, ln in _angles.term_parts(n0, max(1, _angles.ROW_ELEMS // width)):
        ln_d = np.asarray(ln, dtype=float)
        phases = _angles.n_pow_minus_it(res, ln)
        powers = np.exp((ims[:, None] - 4.0) * ln_d)
        for (i0, i1, j0, j1, centre, order), s in zip(tiles, acc):
            w = 1.75 * (np.log(centre) - _angles.LOG_2PI - 2.0 * ln_d)
            sech = _angles.sech_taylor(w, order)
            # P^T cast to complex once, not by every order's product
            pt = np.ascontiguousarray(powers[j0:j1].T, dtype=complex)
            for k in range(order + 1):
                s[k] += (sech[k] * phases[i0:i1]) @ pt
        step = _angles.direct_rows(ln.size)
        for p0 in range(0, ii.size, step):
            i, j = ii[p0:p0 + step], jj[p0:p0 + step]
            w = 1.75 * (np.log(z[i, j])[:, None] - _angles.LOG_2PI - 2.0 * ln_d)
            terms = powers[j] * phases[i] * _angles.sech_taylor(w, 0)[0]
            out[i, j] += terms.sum(axis=1)
    for (i0, i1, j0, j1, centre, order), s in zip(tiles, acc):
        d = 1.75 * np.log1p((z[i0:i1, j0:j1] - centre) / centre)
        out[i0:i1, j0:j1] = _angles.taylor_sum(s, d)
    pref = 2.0 * np.exp(1.75 * (np.log(z) - _angles.LOG_2PI))
    return out + pref * _angles.em_tail(7.5 + 1j * z.ravel(), n0).reshape(z.shape)


def xray_grid(re0: float, re1: float, im0: float, im1: float,
              n_re: int, n_im: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The series evaluator H on an n_re x n_im rectangle: (re axis, im
    axis, H), H[i, j] complex at re[i] + 1j * im[j].

    The imaginary range must stay inside (-3, 4], where the continued
    series retains enough decay to converge absolutely.
    """
    re0 = float(re0)
    re1 = float(re1)
    im0 = float(im0)
    im1 = float(im1)
    if not re0 < re1:
        raise ValueError("need re0 < re1")
    if not im0 < im1:
        raise ValueError("need im0 < im1")
    if re0 <= 0.0:
        raise ValueError("real range must be positive")
    if not (im0 > -3.0 and im1 <= 4.0):
        raise ValueError("imaginary range must lie inside (-3, 4]")
    if n_re < 2 or n_im < 2:
        raise ValueError("need at least a 2 x 2 grid")
    # refused from re1 (the axis's last point) before the axes exist
    _xray_terms(re1, int(n_re) * int(n_im))
    res = np.linspace(re0, re1, int(n_re))
    ims = np.linspace(im0, im1, int(n_im))
    return res, ims, _h_complex(res, ims)
