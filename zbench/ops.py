"""Workload make-up: the seeded choice of inputs, the zline command lines
that make up one round, and the check each output must pass.

A workload is a list of slots from data/refs.json.  The seed picks one
candidate per slot; the resulting operations, in slot order, form a round,
and a run repeats that round.  Every check compares against an mpmath
reference stored with the candidate, or against a property the method must
have; none compares against an earlier zline output.
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

WORKLOADS = ("points", "integral", "grids")
DATA = Path(__file__).resolve().parent / "data" / "refs.json"

# |g - Z| <= G_CONST * t^(-3/4): the paper's error term with C = 1
G_CONST = 1.0
# zline's default absolute series target, which hstat uses
SERIES_EPS = 1e-10
INTEGRAL_TOL = 1e-8
SIGMA_TOL = 1e-7
HALF_STEP_TOL = 1e-6
ZERO_TOL = 1e-6
SCAN_STEP = 0.05
# a scan that exits 3 is re-run at a five-times finer step, at most this often
SCAN_RETRIES = 4

# A check returns None when the output passes, else a message.
Check = Callable[[str, dict], Optional[str]]


@dataclass
class Op:
    """One zline command line with the check of its output.

    state is shared by the operations of one slot, so the second of a pair
    can compare against the first.
    """

    kind: str
    argv: list
    check: Check
    state: dict = field(default_factory=dict)
    retry_scan: bool = False


def load_refs(path: Path = DATA) -> dict:
    with open(path) as handle:
        return json.load(handle)


def choose(workload: str, seed: int, refs: dict) -> list:
    """The (slot kind, candidate) pairs a seed selects, in slot order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return [(slot["kind"], slot["cands"][rng.randrange(len(slot["cands"]))])
            for slot in refs[workload]]


def _row(out: str) -> dict:
    return json.loads(out)["rows"][0]


def _fmt(x: float) -> str:
    return repr(float(x))


def _denominator(t: float) -> float:
    return math.sqrt(0.25 + t * t) * math.sqrt(6.25 + t * t)


def _eval_argv(t: float, method: str, sigma: Optional[float] = None) -> list:
    argv = ["eval", "--t", _fmt(t), "--method", method, "--json"]
    if sigma is not None:
        argv += ["--sigma", _fmt(sigma)]
    return argv


def _oracle_check(cand: dict) -> Check:
    t, z = cand["t"], cand["z"]
    limit = 5e-6 if t <= 1e6 else 5e-5

    def check(out: str, state: dict) -> Optional[str]:
        row = _row(out)
        err = abs(row["value"] - z)
        if err > row["est"] or err > limit:
            return f"oracle t={t}: |Z - siegelz| = {err:.3e}, est {row['est']:.3e}"
        return None
    return check


def _approx_check(cand: dict) -> Check:
    t, ref, ref_err = cand["t"], cand["approx"], cand["approx_err"]

    def check(out: str, state: dict) -> Optional[str]:
        row = _row(out)
        err = abs(row["value"] - ref)
        if err > row["est"] + ref_err:
            return f"approx t={t}: off the mpmath series by {err:.3e}, est {row['est']:.3e}"
        return None
    return check


def _g_check(cand: dict) -> Check:
    t, z = cand["t"], cand["z"]
    bound = G_CONST * t ** -0.75

    def check(out: str, state: dict) -> Optional[str]:
        err = abs(_row(out)["value"] - z)
        if err > bound:
            return f"g t={t}: |g - siegelz| = {err:.3e} > {bound:.3e}"
        return None
    return check


def _integral_check(cand: dict, sigma: float, pair: bool) -> Check:
    """Within 1e-8 of siegelz; with pair, Re F at this sigma also agrees
    to 1e-7 with Re F at sigma = 4 from the slot's first operation."""
    t, z = cand["t"], cand["z"]

    def check(out: str, state: dict) -> Optional[str]:
        value = _row(out)["value"]
        err = abs(value - z)
        if err > INTEGRAL_TOL:
            return f"integral t={t} sigma={sigma}: |Z - siegelz| = {err:.3e}"
        re_f = value * _denominator(t)
        if pair:
            gap = abs(re_f - state["re_f"])
            if gap > SIGMA_TOL:
                return f"integral t={t}: Re F differs by {gap:.3e} between sigma 4 and {sigma}"
        state["re_f"] = re_f
        return None
    return check


def _scan_check(cand: dict) -> Check:
    zeros = cand["zeros"]

    def check(out: str, state: dict) -> Optional[str]:
        doc = json.loads(out)
        rep = doc["report"]
        got = [row["zero"] for row in doc["rows"]]
        where = f"scan [{cand['a']}, {cand['b']}]"
        if rep["count"] != len(zeros) or len(got) != len(zeros):
            return f"{where}: {rep['count']} zeros, mpmath has {len(zeros)}"
        worst = max((abs(a - b) for a, b in zip(got, zeros)), default=0.0)
        if worst > ZERO_TOL:
            return f"{where}: a zero is {worst:.3e} from mpmath"
        if rep["verdict"] != "pass":
            return f"{where}: winding verdict {rep['verdict']}"
        return None
    return check


def _hstat_check(cand: dict, pair: bool) -> Check:
    """phase_end equals arg H(t) modulo 2 pi within the series tolerance
    over |H(t)|; with pair, c at half the step agrees with c to 1e-6."""
    t = cand["t"]
    tol = (SERIES_EPS + cand["h_err"]) / cand["abs_h"]

    def check(out: str, state: dict) -> Optional[str]:
        row = _row(out)
        gap = abs(math.remainder(row["phase_end"] - cand["arg_h"], 2.0 * math.pi))
        if gap > tol:
            return f"hstat t={t}: phase_end is {gap:.3e} rad from arg H, tol {tol:.3e}"
        if pair and abs(row["c"] - state["c"]) > HALF_STEP_TOL:
            return f"hstat t={t}: c moves {abs(row['c'] - state['c']):.3e} at half the step"
        state["c"] = row["c"]
        return None
    return check


def _sign(x: float) -> int:
    return (x > 0) - (x < 0)


def _xray_check(cand: dict, path: Path) -> Check:
    n = cand["n"]

    def check(out: str, state: dict) -> Optional[str]:
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        path.unlink()
        if rows[0] != ["re", "im", "sgn_re_H", "sgn_im_H"] or len(rows) != n * n + 1:
            return f"xray re0={cand['re0']}: malformed CSV ({len(rows)} lines)"
        for smp in cand["samples"]:
            row = rows[1 + smp["i"] * n + smp["j"]]
            for got, ref in ((int(row[2]), smp["re_h"]), (int(row[3]), smp["im_h"])):
                if abs(ref) > smp["err"] and got != _sign(ref):
                    return (f"xray re0={cand['re0']} at ({row[0]}, {row[1]}): "
                            f"sign {got}, mpmath part {ref:.3e}")
        return None
    return check


def build_round(workload: str, seed: int, refs: dict, xray_dir: Path) -> list:
    """The operations of one round, in slot order."""
    ops = []
    for k, (kind, cand) in enumerate(choose(workload, seed, refs)):
        if kind == "oracle":
            ops.append(Op(kind, _eval_argv(cand["t"], "oracle"), _oracle_check(cand)))
        elif kind == "approx":
            ops.append(Op(kind, _eval_argv(cand["t"], "approx"), _approx_check(cand)))
        elif kind == "g":
            ops.append(Op(kind, _eval_argv(cand["t"], "g"), _g_check(cand)))
        elif kind == "integral":
            ops.append(Op(kind, _eval_argv(cand["t"], "integral"),
                          _integral_check(cand, 4.0, False)))
        elif kind == "sigma":
            ops.append(Op(kind, _eval_argv(cand["t"], "integral", cand["sigma"]),
                          _integral_check(cand, cand["sigma"], False)))
        elif kind == "sigma_pair":
            state: dict = {}
            ops.append(Op(kind, _eval_argv(cand["t"], "integral"),
                          _integral_check(cand, 4.0, False), state))
            ops.append(Op(kind, _eval_argv(cand["t"], "integral", cand["sigma"]),
                          _integral_check(cand, cand["sigma"], True), state))
        elif kind == "scan":
            ops.append(Op(kind, ["scan", "--from", _fmt(cand["a"]), "--to",
                                 _fmt(cand["b"]), "--json"],
                          _scan_check(cand), retry_scan=True))
        elif kind == "hstat":
            ops.append(Op(kind, ["hstat", "--t", _fmt(cand["t"]), "--json"],
                          _hstat_check(cand, False)))
        elif kind == "hstat_pair":
            state = {}
            base = ["hstat", "--t", _fmt(cand["t"]), "--json"]
            ops.append(Op(kind, base, _hstat_check(cand, False), state))
            ops.append(Op(kind, base + ["--step", _fmt(SCAN_STEP / 2)],
                          _hstat_check(cand, True), state))
        elif kind == "xray":
            path = Path(xray_dir) / f"xray-{k}.csv"
            argv = ["xray", "--re0", _fmt(cand["re0"]), "--re1", _fmt(cand["re1"]),
                    "--im0", _fmt(cand["im0"]), "--im1", _fmt(cand["im1"]),
                    "--n", str(cand["n"]), "--out", str(path)]
            ops.append(Op(kind, argv, _xray_check(cand, path)))
        else:
            raise ValueError(f"unknown slot kind {kind!r}")
    return ops


def finer_scan(argv: list, retries: int) -> list:
    """The scan command line (built without --step) at SCAN_STEP / 5^retries."""
    return argv + ["--step", _fmt(SCAN_STEP / 5 ** retries)]
