"""The n^{-it} kernel, and every phase formed in extended precision.

Every route to Z sums n^{-it} times an amplitude: zeta(4+ix) inside F, the
Riemann-Siegel main sum of the oracle, and the series H on and off the
critical line.  At t = 1e8 the phase t*log(n) reaches ~2e9 rad, and its
reduction mod 2pi in double precision would cost ~1e-7 rad, visible in Z.
So phases are formed and reduced in numpy.longdouble (80-bit on x86-64)
here and nowhere else: n^{-it} (n_pow_minus_it), the paper's theta
(theta_mod_2pi, which phase re-exports), the Riemann-Siegel main sum
(rs_main_sum), whose vartheta shares theta's Stirling form, and
(t/2pi)^{iu/2} (sqrt_scale_pow_iu).
Only reduced phases leave as double; where longdouble is plain double the
phase error is correspondingly larger.
dirichlet_sums takes a caller's amplitudes and returns the sums of zeta
and of the H grid.  Its samples on a uniform lattice of t go through
lattice_sums, one block loop with one exact phase per block of nodes and
the nodes inside a block from a step matrix n^{-ijh} that depends only on
the step h and the term count N.  Every amplitude comes as Taylor rows
about the block's centre: zeta's constant n^-sigma is one row of order
0, and H's sech factor, which moves with t, takes the rows of sech_taylor
(the x-ray uses them on its tiles too).  The other samples are summed
directly, in blocks of rows and terms under ROW_ELEMS elements.  This
module also holds what the sums share: log 2pi, the power-of-two term
bucket, the Euler-Maclaurin tail with zeta's one term rule (em_terms,
from the first term the tail leaves out), the work budget of every points
x terms sum, the bound (0, EPS_MAX] of every tail target eps with its one
check and its default EPS_DEFAULT, n with log n from one place, and
exact_sum, the exactly rounded sum of complex arrays (what math.fsum
gives, binned by exponent in numpy) that the trapezoid rule of quad
takes, and lane_sums, its case of series whose terms are formed in
parts, which the H_r series take: one pass over the parts serves several
series, and the parts are split over lanes, the calling thread and a
thread pool made on first use, one lane per CPU the process may run on.
Each lane bins its own parts and each sum rounds the bins of all lanes
once, so its bits do not depend on the number of lanes.  Two tables are
kept between calls, read-only, each in a slot of one value that a call
reads once and that is replaced whole, so calls from several threads
never see each other's:
the last step matrix of at most RETAIN_TERMS (16384) terms (16 MB), whose
last N rows serve every smaller term count N at its step, and one table
of n with log n (terms) of at most 2^20 terms (24 MB), replaced by a
larger one when a call needs more terms.  A longer sum reads n and log n
in parts (term_parts), each built alone, so no table of more than 2^20
terms is formed.
"""
from __future__ import annotations

import math
import os
import sys
import threading
from decimal import Context, Decimal
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import ConvergenceError

# more digits than longdouble can hold; strtold rounds once
_TWO_PI = np.longdouble("6.283185307179586476925286766559005768394")
_PI = np.longdouble("3.141592653589793238462643383279502884197")
_LOG_2PI_LD = np.longdouble("1.837877066409345483560659472811235279723")
#: log(2*pi) correctly rounded to float64
LOG_2PI = 1.8378770664093454835606594728112352797

# nodes per lattice block: one exact anchor phase per block
_LATTICE_BLOCK = 64
# a row further than this from its lattice node goes the direct route; the
# first-order correction then leaves below 1e-16 relative per term
_LATTICE_SLACK = 1e-9
# a block with fewer rows on it costs more as an anchor than row by row
_LATTICE_MIN_ROWS = 16
# largest term count N whose B x N step matrix (537 MB) the lattice route
# forms
_LATTICE_MAX_TERMS = (1 << 25) // _LATTICE_BLOCK
_LATTICE_SLICE = 1 << 16  # samples per lattice_sums call, ~100 bytes each
#: element budget (rows x terms) of one block of phase rows
ROW_ELEMS = 1 << 20
#: largest term count whose step matrix is kept between calls (B x N,
#: 16 MB, within ROW_ELEMS); the kept n and log n table is sized by powers
#: of two up to it
RETAIN_TERMS = ROW_ELEMS // _LATTICE_BLOCK
# largest n and log n table formed, kept by terms (24 MB); term_parts
# builds longer sums part by part
_KEEP_TERMS = 1 << 20
#: term evaluations (points x terms) one sum may cost: minutes of work
WORK_BUDGET = 1 << 31
#: a Taylor amplitude stops where its next term is below this fraction
TAYLOR_TOL = 1e-17
#: highest Taylor order a lattice block or an x-ray sub-tile takes
TAYLOR_MAX_ORDER = 16
#: Taylor radius of sech in a real shift: its poles sit at +-i pi/2
SECH_RADIUS = 0.5 * math.pi
#: largest tail target eps a route takes: every eps lies in (0, EPS_MAX]
EPS_MAX = 1e-3
#: the tail target of every route and grid that is given none
EPS_DEFAULT = 1e-10

# complex values exact_sum bins at once, bounding its temporaries
_SUM_BLOCK = 1 << 14
# fewer values left of an array go into exact_sum's final fsum as they are:
# binning has a fixed cost of about that many values summed by fsum
_SUM_BIN_MIN = 1 << 10
# values whose bins stay exact: a bin adds integers below 2^26, or
# multiples of 2^-27 below 1, and fewer than 2^26 of either fit 53 bits
_SUM_EXACT = 1 << 26
# np.frexp writes a double as m 2^e, e in [_SUM_E_MIN, max_exp]
_SUM_E_MIN = sys.float_info.min_exp - sys.float_info.mant_dig + 1
_SUM_SPAN = sys.float_info.max_exp - _SUM_E_MIN + 1
# the bin of each double of a block viewed as float, less its exponent:
# real parts from 0, imaginary parts from _SUM_SPAN
_SUM_KEYS = np.tile(np.array([-_SUM_E_MIN, _SUM_SPAN - _SUM_E_MIN], dtype=np.intp),
                    _SUM_BLOCK)
# the power of two each bin stands for, 2^(e - 26) for its exponent e
_SUM_SCALE = np.tile(np.arange(_SUM_E_MIN - 26, _SUM_E_MIN - 26 + _SUM_SPAN,
                               dtype=np.intc), 4)

# B_{2k}/(2k)! for k = 1..4, the Euler-Maclaurin correction depth (B8).
_EM_COEF = (
    1.0 / 12.0,          # B2/2!
    -1.0 / 720.0,        # B4/4!
    1.0 / 30240.0,       # B6/6!
    -1.0 / 1209600.0,    # B8/8!
)
_EM_NEXT = 1.0 / 47900160.0  # B10/10!, the first term em_tail leaves out


def _as_ld(x):
    """Convert to longdouble without a round trip through double literals."""
    return np.asarray(x, dtype=np.longdouble)


def _log_ld(x):
    """Natural log evaluated in longdouble."""
    return np.log(_as_ld(x))


def reduce_mod_2pi(phi) -> np.ndarray:
    """Reduce longdouble phase(s) mod 2pi and return float64 in (-2pi, 2pi).

    fmod is exactly rounded, so the only systematic error is the longdouble
    rounding of the 2pi constant itself: ~1e-11 rad after ~1e8 turns.
    """
    r = np.fmod(_as_ld(phi), _TWO_PI)
    return np.asarray(r, dtype=np.float64)


def ld_ulp(x: float) -> float:
    """Spacing of longdouble at |x| (2^-63 |x| within a factor 2 on x87)."""
    return float(np.spacing(_as_ld(abs(x))))


def check_eps(eps: float) -> None:
    """Refuse (ValueError) a tail target eps outside (0, EPS_MAX]."""
    if not 0.0 < eps <= EPS_MAX:
        raise ValueError(f"eps must be in (0, {EPS_MAX:g}]")


def _g3(n: int) -> str:
    """An int to three digits, as %.3g, also above the float range."""
    if n < 1e308:
        return f"{n:.3g}"
    return f"{Decimal(n).normalize(Context(prec=3)):e}"


def count_str(n: int) -> str:
    """A count for a message: exact below 1e16, else to three digits."""
    return _g3(n) if n >= 1e16 else str(n)


def check_work(points: int, n_terms: int) -> None:
    """Refuse (ConvergenceError, with the estimate) a sum of n_terms terms
    at each of `points` points above WORK_BUDGET, before it allocates."""
    work = points * n_terms
    if work > WORK_BUDGET:
        raise ConvergenceError(f"{count_str(points)} points x {count_str(n_terms)} "
                               f"terms = {_g3(work)} "
                               f"term evaluations, above the work budget of "
                               f"{WORK_BUDGET:.3g}")


def cis(p, out=None) -> np.ndarray:
    """exp(i*p) for float64 phase(s) p: cos and sin written straight into
    the real and imaginary parts of out (a new array by default)."""
    p = np.asarray(p, dtype=np.float64)
    if out is None:
        out = np.empty(p.shape, dtype=complex)
    np.cos(p, out=out.real)
    np.sin(p, out=out.imag)
    return out


def n_pow_minus_it(t, log_n) -> np.ndarray:
    """n^{-it} = exp(-i t log n) for every pair of t and longdouble
    log_n, as terms gives it: shape np.shape(t) + np.shape(log_n)."""
    # the longdouble phases are a temporary, freed once reduced and so
    # before cos and sin allocate
    return cis(reduce_mod_2pi(np.multiply.outer(-_as_ld(t), log_n)))


@lru_cache(maxsize=None)
def _sech_poly(k: int) -> tuple:
    """Integer coefficients, ascending, of P_k with sech^(k) = sech P_k(tanh):
    P_0 = 1 and P_{k+1}(T) = -T P_k(T) + (1 - T^2) P_k'(T)."""
    if k == 0:
        return (1,)
    out = [0] * (k + 1)
    for i, c in enumerate(_sech_poly(k - 1)):
        out[i + 1] -= (i + 1) * c
        if i:
            out[i - 1] += i * c
    return tuple(out)


def sech_taylor(w, k_max: int) -> np.ndarray:
    """The Taylor coefficients sech^(k)(w)/k!, k = 0..k_max, of sech at
    real or complex w: shape (k_max + 1,) + w.shape.

    sech is formed after reflection to Re w <= 0, so nothing overflows at
    any w, and sech^(k) = sech P_k(tanh w) (see _sech_poly).
    """
    w = np.asarray(w)
    e = np.exp(np.where(w.real > 0.0, -w, w))
    sech = 2.0 * e / (1.0 + e * e)
    out = np.empty((k_max + 1,) + w.shape, dtype=sech.dtype)
    out[0] = sech
    tanh = np.tanh(w) if k_max else None
    for k in range(1, k_max + 1):
        out[k] = sech * taylor_sum(_sech_poly(k), tanh) / math.factorial(k)
    return out


def taylor_order(q, tol: float = TAYLOR_TOL) -> np.ndarray:
    """For q = max|d| / (Taylor radius) of a shift d, the order K at which
    the first omitted term, of relative size q^(K+1), falls below tol;
    -1 where that needs more than TAYLOR_MAX_ORDER."""
    q = np.asarray(q, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.maximum(np.floor(math.log(tol) / np.log(q)), 0.0)
    k = np.where(q < 1.0, k, np.inf)
    return np.where(k <= TAYLOR_MAX_ORDER, k, -1).astype(np.int64)


def taylor_sum(rows, d):
    """sum_k d^k rows[k] by Horner: rows a sequence of coefficients or of
    arrays that d broadcasts against."""
    acc = rows[-1]
    for row in rows[-2::-1]:
        acc = acc * d + row
    return acc


def _add_bins(block, acc) -> None:
    """Add the bins of one contiguous complex block to acc, of shape
    (2, 2, _SUM_SPAN): per part (real, imaginary), the integer pieces and
    the rests of m 2^26 summed per exponent; refused (ValueError) where a
    value is not finite."""
    x = block.view(float)
    if not np.isfinite(x).all():
        raise ValueError("exact_sum takes finite values")
    mant, exp = np.frexp(x)
    mant *= 2.0 ** 26
    whole = np.trunc(mant)
    rest = np.subtract(mant, whole, out=mant)
    keys = exp + _SUM_KEYS[:exp.size]
    acc[:, 0] += np.bincount(keys, whole, 2 * _SUM_SPAN).reshape(2, _SUM_SPAN)
    acc[:, 1] += np.bincount(keys, rest, 2 * _SUM_SPAN).reshape(2, _SUM_SPAN)


def _bin_values(acc, re, im) -> None:
    """Append to re and to im the nonzero bins of acc of their part, each
    scaled back to the exact double it stands for."""
    bins = acc.ravel()
    nz = (bins != 0.0).nonzero()[0]
    with np.errstate(over="ignore"):
        vals = np.ldexp(bins[nz], _SUM_SCALE[nz])
    if not np.isfinite(vals).all():
        raise OverflowError("exact_sum: a partial sum overflows")
    cut = np.searchsorted(nz, 2 * _SUM_SPAN)
    re.append(vals[:cut].tolist())
    im.append(vals[cut:].tolist())


def _fsum(pieces) -> float:
    """math.fsum over a list of sequences of floats."""
    return math.fsum(pieces[0] if len(pieces) == 1 else chain.from_iterable(pieces))


class _Bins:
    """One lane's running exact sum of one series: the bins being filled
    (acc, with the count of values they hold), and in re and im the
    values fsum is to round, read-out bins and the short ends of arrays."""

    __slots__ = ("re", "im", "acc", "held")

    def __init__(self):
        self.re, self.im, self.acc, self.held = [], [], None, 0

    def add(self, z) -> None:
        """Bin a 1-d complex array in blocks of _SUM_BLOCK values, reading
        the bins out first where they would pass _SUM_EXACT values; its
        last fewer than _SUM_BIN_MIN values are kept as they are."""
        z = np.asarray(z, dtype=complex)
        if z.ndim != 1:
            raise ValueError("exact_sum takes 1-d arrays")
        start = 0
        while z.size - start >= _SUM_BIN_MIN:
            block = np.ascontiguousarray(z[start:start + _SUM_BLOCK])
            if self.held + block.size > _SUM_EXACT:
                self.read_out()
            if self.acc is None:
                self.acc = np.zeros((2, 2, _SUM_SPAN))
            _add_bins(block, self.acc)
            self.held += block.size
            start += block.size
        if start < z.size:
            self.re.append(memoryview(z[start:].real))
            self.im.append(memoryview(z[start:].imag))

    def read_out(self) -> None:
        """Move the bins being filled, as exact doubles, to re and im."""
        if self.acc is not None:
            _bin_values(self.acc, self.re, self.im)
            self.acc, self.held = None, 0


def _rounded(lanes) -> complex:
    """The one rounding of a sum whose values the _Bins of `lanes` hold:
    one math.fsum a part over every lane's bins and values."""
    re, im = [], []
    for b in lanes:
        b.read_out()
        re += b.re
        im += b.im
    re, im = _fsum(re), _fsum(im)
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ValueError("exact_sum takes finite values")
    return complex(re, im)


def exact_sum(parts) -> complex:
    """The exactly rounded sums of the real and of the imaginary parts of
    an iterable of finite 1-d complex arrays: bit for bit what math.fsum
    gives each part of their concatenation (a correctly rounded sum is
    unique), without a Python float per value of a long array.

    np.frexp writes each double as m 2^e, 1/2 <= |m| < 1, and m 2^26 splits
    exactly into an integer below 2^26 and a rest below 1, a multiple of
    2^-27.  Each piece is summed per exponent and part by np.bincount: such
    sums stay exact below _SUM_EXACT values, and once scaled back by
    2^(e - 26) each bin is an exact double.  One math.fsum a part then
    rounds the bins once.  Blocks of _SUM_BLOCK values bound the
    temporaries; the last fewer than _SUM_BIN_MIN values of an array go
    into that fsum as they are.  A non-finite value raises ValueError, and
    a bin that overflows OverflowError, as fsum does where its partial sums
    overflow.  This is the one-lane case of lane_sums: the bins of several
    lanes are rounded together, so the sum is the same for any lanes.
    """
    bins = _Bins()
    for z in parts:
        bins.add(z)
    return _rounded([bins])


# most lanes a sum takes: parts of RETAIN_TERMS // lanes terms stay wide
# enough to be binned (_SUM_BIN_MIN)
_MAX_LANES = RETAIN_TERMS // _SUM_BIN_MIN
# the thread pool that runs every lane but the caller's, made on first use
# and dropped in a child process after fork
_POOL = None
_POOL_LOCK = threading.Lock()


def _lane_count() -> int:
    """The lanes a sum may take: the CPUs this process may run on, at most
    _MAX_LANES."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_LANES)


def _lane_pool():
    """The pool of lanes, made on first use."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor
            _POOL = ThreadPoolExecutor(max_workers=_MAX_LANES - 1,
                                       thread_name_prefix="zline-lane")
        return _POOL


def _drop_pool() -> None:
    """Forget the pool and its lock in a child process: their threads did
    not come with it across fork."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _in_lanes(lane, lanes: int) -> list:
    """[lane(0), ..., lane(lanes - 1)]: lane 0 on the calling thread, the
    others on the pool.  An exception of any lane is raised once every
    lane has stopped.  A lane must never submit to the pool: then no task
    of the pool waits on another, and callers on several threads cannot
    deadlock."""
    if lanes == 1:
        return [lane(0)]
    from concurrent.futures import wait
    pool, futures = _lane_pool(), []
    try:
        for j in range(1, lanes):
            futures.append(pool.submit(lane, j))
        first = lane(0)
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]


def lane_sums(n_terms: int, count: int, part_terms) -> list:
    """The exact sums (as exact_sum gives them) of `count` series over
    n = 1..N, from one pass over the terms in parts: part_terms(n, log n),
    for one part of term_parts, returns the `count` 1-d complex arrays of
    the series' terms there, None for a series without terms in it.

    With L lanes (_lane_count) the parts are RETAIN_TERMS // L terms wide,
    so that the parts in flight hold RETAIN_TERMS terms for any L, and
    lane j takes parts j, j + L, ..., at most L lanes and one part or more
    a lane.  Each lane
    bins its parts' terms as exact_sum does, and each sum rounds the bins
    of all lanes once, so its bits do not depend on L.  A sum of one part
    runs on the calling thread alone.  part_terms runs in the lanes and
    must not itself sum in lanes (see _in_lanes).
    """
    lanes = _lane_count()
    width = RETAIN_TERMS // lanes
    lanes = max(1, min(lanes, -(-n_terms // width)))
    parts = [term_parts(n_terms, width, j, lanes) for j in range(lanes)]

    def lane(j):
        bins = [_Bins() for _ in range(count)]
        for n, log_n in parts[j]:
            for b, z in zip(bins, part_terms(n, log_n)):
                if z is not None:
                    b.add(z)
        return bins

    done = _in_lanes(lane, lanes)
    return [_rounded([bins[k] for bins in done]) for k in range(count)]


# the one n and log n table terms keeps, (n, log n) for n = 1..M, or None;
# read once per call and replaced whole, so a call never sees another's
_TABLE = None


def _term_table(start: int, stop: int):
    """n = start + 1..stop and _log_ld(n), read-only."""
    n = np.arange(start + 1, stop + 1)
    log_n = np.log(_as_ld(n))
    for a in (n, log_n):
        a.flags.writeable = False
    return n, log_n


def terms(n_terms: int):
    """(n, log n) for n = 1..N, N <= _KEEP_TERMS, read-only, log n in
    longdouble: views [:N] of the one kept table.  A larger N replaces it
    (the slot emptied first, so two are never kept) by the table of the
    power of two at or above N up to RETAIN_TERMS, of exactly N terms
    above."""
    global _TABLE
    if n_terms > _KEEP_TERMS:
        raise ValueError(f"terms keeps at most {_KEEP_TERMS} terms; "
                         "read longer sums by term_parts")
    table = _TABLE
    if table is None or table[0].size < n_terms:
        _TABLE = None
        size = pow2_bucket(n_terms, 1) if n_terms <= RETAIN_TERMS else n_terms
        table = _TABLE = _term_table(0, size)
    n, log_n = table
    return n[:n_terms], log_n[:n_terms]


def term_parts(n_terms: int, width: int, lane: int = 0, lanes: int = 1):
    """(n, log n) for n = 1..N in parts of `width` terms, in order of n,
    read-only: views of the kept table up to _KEEP_TERMS, each part built
    alone above it, so that no table of more than _KEEP_TERMS terms is
    formed.  Given lanes, only the parts lane, lane + lanes, ...  The kept
    table is read when the call is made, the parts as they are taken."""
    kept = terms(n_terms) if n_terms <= _KEEP_TERMS else None
    return (_term_table(start, min(start + width, n_terms)) if kept is None
            else (kept[0][start:start + width], kept[1][start:start + width])
            for start in range(lane * width, n_terms, lanes * width))


# the last step matrix _step_matrix built of at most RETAIN_TERMS terms,
# ((h, N), matrix), or None; a call at step h with at most N terms reads
# its last rows
_STEPS = None


def _step_matrix(h: float, log_d) -> np.ndarray:
    """The lattice step matrix n^{-ijh}, j = 0..B-1, for log_d = _log_ld(n)
    from n = N down to 1: shape (N, B), read-only.

    It is built in row blocks under ROW_ELEMS: allocated after the first
    block's phases, each block's freed before the next, it takes no more
    page faults than a one-piece build.  The last matrix of at most
    RETAIN_TERMS terms is kept with its (h, N); a call at the same h with
    at most N terms returns its last rows, n = N..1 of the smaller count,
    as a view (each element is formed alone, so these are the bits a build
    gives).  Another h or a larger N empties the slot before the build of
    exactly its N terms, so two are never kept, and a matrix above
    RETAIN_TERMS terms is built per call and kept by nobody.
    """
    global _STEPS
    n_terms = log_d.size
    kept = _STEPS
    if kept is not None and kept[0][0] == h and n_terms <= kept[0][1]:
        return kept[1][kept[0][1] - n_terms:]
    kept = _STEPS = None  # the old matrix goes before the new one is built
    chunk = max(1, ROW_ELEMS // n_terms)
    steps = None
    for j0 in range(0, _LATTICE_BLOCK, chunk):
        phases = reduce_mod_2pi(np.multiply.outer(
            -_as_ld(h * np.arange(j0, min(j0 + chunk, _LATTICE_BLOCK))), log_d))
        if steps is None:
            steps = np.empty((_LATTICE_BLOCK, n_terms), dtype=complex)
        cis(phases, out=steps[j0:j0 + len(phases)])
        del phases
    steps.flags.writeable = False
    steps = steps.T
    if n_terms <= RETAIN_TERMS:
        _STEPS = ((h, n_terms), steps)
    return steps


def _products(rows, steps, one_by_one: bool, weight=None) -> np.ndarray:
    """(rows * weight) @ steps for rows (M, N).  one_by_one takes one
    (N,) @ (N x B) product per row, the weighted row formed alone: BLAS
    rounds a row by the shape of the whole product, so a fixed shape keeps
    the nodes two calls share bit-identical."""
    if not one_by_one:
        return (rows if weight is None else rows * weight) @ steps
    return np.array([(row if weight is None else row * weight) @ steps
                     for row in rows])


def lattice_sums(x, amp, log_n, shift=None):
    """sum_n a_n(x) n^{-ix} for the samples of x that sit on a uniform
    lattice (Odlyzko-Schoenhage in its simplest form): (on, sums), where on
    marks the rows computed and sums holds them; the other rows are left to
    the direct route of dirichlet_sums.

    Calls of fewer than 2B samples (B = 64), or with a B x N step matrix
    above 1 << 25 elements, compute nothing.  The step h is read off the
    samples (their median spacing) and node k is round(x/h).  Blocks of B
    nodes start where k is divisible by B, so a node inside a full block
    lands at the same block position in every call; in order of k, a
    block's first row is its anchor's.  Each block's anchor phase
    n^{-ix_a} is formed exactly; the rows inside it use n^{-ijh} from the
    step matrix of _step_matrix, and the residual e = x - x_a - jh of a
    rounded lattice enters to first order, n^{-ie} ~ 1 - ie log n, through
    a second product with the anchor rows weighted by log n.  The products
    sum n from N down to 1, smallest terms first.

    amp(c, K) gives, for block centres c (M,), the K + 1 Taylor rows
    a_n^(k)(c)/k! of the amplitude, shape (K + 1, M, N) or one that
    broadcasts to it.  The amplitude moves with x through one shift
    d = shift(x, c) common to every n, a_n(x) = sum_k d^k a_n^(k)(c)/k!,
    and is taken to be analytic within SECH_RADIUS of the real d axis
    (sech, whose poles sit at +-i pi/2); without shift, d = 0.  Each block
    takes the order taylor_order gives for its largest |d|, and a block
    that would need more than TAYLOR_MAX_ORDER is left to the direct
    route.  An order-0 block (every block of a constant amplitude, zeta's)
    keeps one (1 x N) @ (N x B) product per anchor (see _products); the
    Taylor rows of higher orders go in one stacked product per order and
    row chunk.
    """
    x = np.asarray(x, dtype=float)
    on = np.zeros(x.shape, dtype=bool)
    sums = np.zeros(x.shape, dtype=complex)
    n_terms = log_n.size
    if x.size < 2 * _LATTICE_BLOCK or n_terms > _LATTICE_MAX_TERMS:
        return on, sums
    h = float(np.median(np.diff(x)))
    if not (h > 0.0 and np.all(np.abs(x) < h * 2.0 ** 52)):
        return on, sums
    k = np.round(x / h).astype(np.int64)
    order = np.argsort(k, kind="stable")
    block, j = np.divmod(k[order], _LATTICE_BLOCK)
    del k
    starts = np.flatnonzero(np.diff(block, prepend=block[0] - 1))
    del block
    group = np.repeat(np.arange(starts.size), np.diff(np.append(starts, x.size)))
    x_a = x[order[starts]] - j[starts] * h
    e = x[order]
    e -= x_a[group]
    e -= j * h
    ok = np.abs(e) <= _LATTICE_SLACK
    kept = np.bincount(group[ok], minlength=starts.size) >= _LATTICE_MIN_ROWS
    ok &= kept[group]
    if not ok.any():
        return on, sums
    # the kept rows, block by block, with their block's index among the kept
    rows, eps, j = order[ok], e[ok], j[ok]
    blk = (np.cumsum(kept) - 1)[group[ok]]
    anchors = x_a[kept]
    counts = np.bincount(blk)
    log_d = log_n[::-1]
    log_d_f = np.asarray(log_d, dtype=float)
    steps = _step_matrix(h, log_d)
    centres = anchors + (_LATTICE_BLOCK // 2) * h
    d = np.zeros(rows.size) if shift is None else shift(x[rows], centres[blk])
    firsts = np.cumsum(counts) - counts
    q = np.maximum.reduceat(np.abs(d), firsts) / SECH_RADIUS
    orders = taylor_order(q)
    # largest e log n of each block: the residual term's relative size
    resid = np.maximum.reduceat(np.abs(eps), firsts) * float(log_d_f[0])
    # rows grouped by their block's order, block by block within an order
    by_order = np.argsort(orders[blk], kind="stable")
    pos = 0
    for kk in np.unique(orders):
        sel = np.flatnonzero(orders == kk)
        if kk < 0:
            pos += int(counts[sel].sum())
            continue
        # K + 1 rows a block, and three times that in temporaries (the
        # amplitude rows and the residual's product) under ROW_ELEMS
        span = max(1, ROW_ELEMS // (4 * (kk + 1) * n_terms))
        for start in range(0, sel.size, span):
            blocks = sel[start:start + span]
            taylor = amp(centres[blocks], kk)[..., ::-1] * n_pow_minus_it(
                anchors[blocks], log_d)
            taylor = taylor.reshape(-1, n_terms)
            prod = _products(taylor, steps, kk == 0).reshape(kk + 1, -1)
            # the rows of these blocks, taken once the anchor rows are
            # formed, so that they add nothing to the temporaries' peak,
            # each with its column (block, position) in the products
            size = int(counts[blocks].sum())
            at = by_order[pos:pos + size]
            pos += size
            r, dd, ee = rows[at], d[at], eps[at]
            col = np.repeat(np.arange(0, blocks.size * _LATTICE_BLOCK, _LATTICE_BLOCK),
                            counts[blocks]) + j[at]
            s = taylor_sum(prod[:, col], dd)
            # the residual takes the order its smaller size needs
            err = float(resid[blocks].max())
            if err > 0.0:
                ke = int(taylor_order(q[blocks].max(), TAYLOR_TOL / err))
                fix = _products(taylor[:(ke + 1) * blocks.size], steps, kk == 0,
                                log_d_f).reshape(ke + 1, -1)
                s = s - 1j * ee * taylor_sum(fix[:, col], dd)
            sums[r] = s
            on[r] = True
    return on, sums


def dirichlet_sums(x, n_terms: int, direct, amp=None, shift=None) -> np.ndarray:
    """sum_n a_n(x) n^{-ix} at every sample of x, n = 1..N.  Given amp, a
    function of the table n = 1..N returning the Taylor rows amp(c, K) that
    lattice_sums takes (with shift), the samples on a uniform lattice take
    that route, 65536 samples a call, wherever the lattice can run.  Every
    other sample is summed directly from direct(rows, n), the amplitude
    a_n(x[rows]) for the n of one part of term_parts, in blocks of rows and
    terms under ROW_ELEMS elements: each row by numpy's pairwise sum, and
    one of more than ROW_ELEMS terms in parts added in order of n.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=complex)
    if amp is None or x.size < 2 * _LATTICE_BLOCK or n_terms > _LATTICE_MAX_TERMS:
        rest = np.arange(x.size)  # no lattice block can run
    else:
        n, log_n = terms(n_terms)
        lattice_amp = amp(n)
        on = np.zeros(x.shape, dtype=bool)
        for start in range(0, x.size, _LATTICE_SLICE):
            part = slice(start, start + _LATTICE_SLICE)
            on[part], out[part] = lattice_sums(x[part], lattice_amp, log_n, shift)
        rest = np.flatnonzero(~on)
    width = min(n_terms, ROW_ELEMS)
    for start in range(0, rest.size, ROW_ELEMS // width):
        r = rest[start:start + ROW_ELEMS // width]
        for k, (n, log_n) in enumerate(term_parts(n_terms, width)):
            piece = np.sum(direct(r, n) * n_pow_minus_it(x[r], log_n), axis=1)
            out[r] = piece if k == 0 else out[r] + piece
    return out


def _stirling_phase(tl, c0):
    """t/2 (log t - log 2pi) - t/2 + c0 for longdouble tl: vartheta and the
    paper's theta share it, and each adds its inverse powers of t after it."""
    return tl / 2 * (np.log(tl) - _LOG_2PI_LD) - tl / 2 + c0


def theta_mod_2pi(t):
    """The paper's theta(t) = t/2 log(t/2pi) - t/2 + 15pi/8 - 241/(24t) mod
    2pi, formed in longdouble: it reaches ~1e9 rad by t ~ 1e8, where double
    would lose the phase.  Scalars (a float) or arrays (float64)."""
    if np.any(np.asarray(t, dtype=float) < 10.0):
        raise ValueError("theta_mod_2pi requires t >= 10")
    tl = _as_ld(t)
    out = reduce_mod_2pi(_stirling_phase(tl, 15 * _PI / 8) - 241 / (24 * tl))
    return float(out) if np.ndim(out) == 0 else out


def rs_main_sum(t: float, big_n: int) -> float:
    """sum_{n <= N} cos(vartheta(t) - t log n) / sqrt(n), the Riemann-Siegel
    main sum without its factor 2, vartheta = t/2 log(t/2pi) - t/2 - pi/8
    + 1/(48t) + 7/(5760t^3), in parts of ROW_ELEMS (term_parts) added in
    order of n."""
    tl = _as_ld(t)
    th = _stirling_phase(tl, -_PI / 8) + 1 / (48 * tl) + 7 / (5760 * tl ** 3)
    main = 0.0
    for n, log_n in term_parts(big_n, ROW_ELEMS):
        ph = reduce_mod_2pi(th - tl * log_n)
        main += float(np.sum(np.cos(ph) / np.sqrt(n)))
    return main


def sqrt_scale_pow_iu(t: float, u) -> np.ndarray:
    """(t/2pi)^{iu/2} = exp(i u/2 (log t - log 2pi)) for float64 u, the
    phase formed in longdouble and reduced mod 2pi."""
    beta = 0.5 * (_log_ld(t) - _LOG_2PI_LD)
    return cis(reduce_mod_2pi(beta * _as_ld(u)))


def pow2_bucket(n: int, floor: int) -> int:
    """Round a term count up to a power-of-two bucket.

    Evaluating the same abscissa inside two differently sized vector calls
    must give bit-identical sums; quantizing N makes the term count a
    function of the bucket, not of the exact grid extent.  On the lattice
    route the invariant holds for nodes inside full blocks (see
    lattice_sums); a window's partial end blocks may round differently.
    """
    n = max(int(n), floor)
    return 1 << (n - 1).bit_length()


def em_terms(sigma: float, t_max: float, tol: float) -> int:
    """Term count of an Euler-Maclaurin zeta over Re s >= sigma and
    |Im s| <= t_max: the smallest power of two N >= 64 at which the first
    term em_tail leaves out, |B10/10!| |s(s+1)...(s+8)| N^(-sigma-9) at
    s = sigma + i t_max, is at most tol.  That term governs the truncation
    error (Edwards, Riemann's Zeta Function, 1974, sec. 6.4); powers of two
    keep shared nodes bit-identical (see pow2_bucket)."""
    log_term = math.log(_EM_NEXT) + sum(math.log(math.hypot(sigma + k, t_max))
                                        for k in range(9))
    bits = math.ceil((log_term - math.log(tol)) / ((sigma + 9.0) * math.log(2.0)))
    return 1 << max(bits, 6)


def em_tail(s, n_terms: int):
    """Euler-Maclaurin estimate of sum_{n>N} n^-s:

        N^(1-s)/(s-1) - N^-s/2
          + sum_k B_2k/(2k)! * s(s+1)...(s+2k-2) * N^(1-s-2k)

    Accepts any complex s with Re s > 1; accuracy needs |Im s| < 2 pi N
    (the usual Euler-Maclaurin growth condition).
    """
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    big_n = float(n_terms)
    n_pow_ms = big_n ** (-s.real) * n_pow_minus_it(s.imag, _log_ld(big_n))
    bracket = big_n / (s - 1.0) - 0.5
    poch = s  # s(s+1)...(s+2k-2), built incrementally
    for k, c in enumerate(_EM_COEF, start=1):
        if k > 1:
            poch = poch * (s + (2 * k - 3)) * (s + (2 * k - 2))
        bracket = bracket + c * poch * big_n ** (1 - 2 * k)
    return n_pow_ms * bracket
