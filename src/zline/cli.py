"""Command-line front end.

Subcommands:
  eval   one value of Z at a chosen height, by any of the four routes
  table  the reference-value table (t = 10 .. 1e8 in decades)
  scan   zero scan plus the phase-count cross-check on an interval
  hstat  the normalized phase-decay statistic of the series evaluator
  xray   signs of Re H and Im H over a complex rectangle, as a CSV file

Each subcommand checks its flags, calls the library and prints what it
returns.  The eval methods come from one table, _ROUTES, that maps each
method name to a route (t, sigma, eps) -> (value, est) in Z units:
z_oracle, z_from_integral, z_approx and z_g, each looked up by name when
it is called.  table prints the (value, est) of z_oracle and z_approx.
All output is deterministic: fixed 7-decimal formatting in text modes,
shortest-round-trip floats in JSON, LF line endings.  Exit codes:
0 success, 2 usage error (a bad flag, or a ValueError from the library),
3 numerical failure (ConvergenceError or PhaseTrackError), mapped once in
main; an xray --out that cannot be written is cmd_xray's usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache

import numpy as np

from . import __version__, _angles
from .errors import ConvergenceError, PhaseTrackError
from .quad import z_from_integral
from .scan import c_statistic_profile, phase_count_check, xray_grid
from .series import z_approx, z_g
from .special import z_oracle

__all__ = ["main"]

# eval's routes by method name.  Each entry finds its function by name at
# call time, so a rebinding of the module attribute (a tracer's wrapper, a
# test's stub) is what runs.
_ROUTES = {
    "oracle": lambda t, sigma, eps: z_oracle(t),
    "integral": lambda t, sigma, eps: z_from_integral(t, sigma, eps),
    "approx": lambda t, sigma, eps: z_approx(t, eps),
    "g": lambda t, sigma, eps: z_g(t, eps),
}
_TABLE_TS = tuple(float(10 ** k) for k in range(1, 9))
# internal series target for the table, in Z units; far below the 1e-5
# reporting gate and the 5e-6 print precision
_TABLE_EPS_Z = 1e-7

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _print_json(command: str, flags: dict, payload: dict) -> None:
    obj = {"meta": {"version": __version__, "command": command, "flags": flags}}
    obj.update(payload)
    sys.stdout.write(json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n")


def _usage_error(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return EXIT_USAGE


def _numerical_error(message: str) -> int:
    sys.stderr.write(f"numerical failure: {message}\n")
    return EXIT_NUMERICAL


def cmd_eval(args: argparse.Namespace) -> int:
    t = float(args.t)
    sigma = float(args.sigma)
    eps = float(args.eps)
    if t < 0.0:
        return _usage_error("--t must be nonnegative")
    if not 0.5 < sigma < 5.0 or abs(sigma - 3.0) < 1e-9:
        return _usage_error("--sigma must lie in (0.5, 5) excluding 3")
    if not 0.0 < eps <= _angles.EPS_MAX:
        return _usage_error(f"--eps must lie in (0, {_angles.EPS_MAX:g}]")
    value, est = map(float, _ROUTES[args.method](t, sigma, eps))
    for name, field in (("value", value), ("est", est)):
        if not math.isfinite(field):
            raise ValueError(f"non-finite field {name!r}")
    if args.json:
        flags = {"t": t, "method": args.method, "sigma": sigma, "eps": eps}
        _print_json("eval", flags, {"rows": [
            {"t": t, "method": args.method, "value": value, "est": est}]})
    else:
        sys.stdout.write(f"t,{t:.7f}\n")
        sys.stdout.write(f"method,{args.method}\n")
        sys.stdout.write(f"value,{value:.7f}\n")
        sys.stdout.write(f"est,{est:.1e}\n")
    return EXIT_OK


def _parse_rows(spec: str):
    if spec == "all":
        return _TABLE_TS
    out = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            value = float(token)
        except ValueError:
            raise ValueError(f"bad row {token!r}")
        if value not in _TABLE_TS:
            raise ValueError(f"row {token!r} not in the fixed set 10, 100, ..., 1e8")
        out.append(value)
    if not out:
        raise ValueError("empty row list")
    return tuple(out)


def cmd_table(args: argparse.Namespace) -> int:
    rows = []
    worst = 0.0
    for t in _parse_rows(args.rows):
        zv, z_est = z_oracle(t)
        za, a_est = z_approx(t, _TABLE_EPS_Z)
        worst = max(worst, z_est, a_est)
        rows.append((t, zv, z_est, za, a_est, abs(zv - za)))
    if args.json:
        flags = {"rows": args.rows}
        _print_json("table", flags, {"rows": [
            {"t": t, "z": zv, "z_est": ze, "approx": za, "approx_est": ae,
             "absdiff": ad}
            for (t, zv, ze, za, ae, ad) in rows]})
    elif args.csv:
        sys.stdout.write("t,Z,approx,absdiff\n")
        for (t, zv, _, za, _, ad) in rows:
            sys.stdout.write(f"{int(t)},{zv:.7f},{za:.7f},{ad:.7f}\n")
    else:
        sys.stdout.write(f"{'t':>9}  {'Z':>12}  {'approx':>12}  {'absdiff':>10}\n")
        for (t, zv, _, za, _, ad) in rows:
            sys.stdout.write(f"{int(t):>9d}  {zv:>12.7f}  {za:>12.7f}  {ad:>10.7f}\n")
    if worst > 1e-5:
        return _numerical_error(f"internal error estimate {worst:.2e} exceeds 1e-5")
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    lo = float(args.lo)
    hi = float(args.hi)
    step = float(args.step)
    if not (10.0 <= lo < hi <= 1e5):
        return _usage_error("need 10 <= from < to <= 1e5")
    if not 0.0 < step <= 0.25:
        return _usage_error("--step must lie in (0, 0.25]")
    rep = phase_count_check(lo, hi, step)
    verdict = "pass" if rep.verdict else "fail"
    if args.json:
        flags = {"from": lo, "to": hi, "step": step}
        _print_json("scan", flags, {
            "report": {"count": rep.count, "delta_phi": rep.delta_phi,
                       "delta_phi_est": 1e-9,
                       "delta_phi_over_pi": rep.delta_phi / math.pi,
                       "verdict": verdict},
            "rows": [{"zero": z, "est": 1e-9} for z in rep.zeros.tolist()]})
    else:
        sys.stdout.write("key,value\n")
        sys.stdout.write(f"from,{lo:.7f}\n")
        sys.stdout.write(f"to,{hi:.7f}\n")
        sys.stdout.write(f"step,{step:.7f}\n")
        sys.stdout.write(f"count,{rep.count}\n")
        sys.stdout.write(f"delta_phi_over_pi,{rep.delta_phi / math.pi:.7f}\n")
        sys.stdout.write(f"verdict,{verdict}\n")
        for k, z in enumerate(rep.zeros.tolist(), start=1):
            sys.stdout.write(f"zero_{k},{z:.7f}\n")
    return EXIT_OK


def cmd_hstat(args: argparse.Namespace) -> int:
    t = float(args.t)
    step = float(args.step)
    if t < 100.0:
        return _usage_error("--t must be at least 100")
    if not 0.0 < step <= 0.25:
        return _usage_error("--step must lie in (0, 0.25]")
    c = float(c_statistic_profile([t], step)[0])
    scale = 0.5 * t * (math.log(t) - _angles.LOG_2PI) - 0.5 * t
    phase_end = -c * scale
    if args.json:
        flags = {"t": t, "step": step}
        _print_json("hstat", flags, {"rows": [
            {"t": t, "c": c, "c_est": 1e-7,
             "phase_end": phase_end, "phase_end_est": 1e-3}]})
    else:
        sys.stdout.write(f"c,{c:.7f}\n")
        sys.stdout.write(f"phase_end,{phase_end:.7f}\n")
    return EXIT_OK


def cmd_xray(args: argparse.Namespace) -> int:
    re0, re1 = float(args.re0), float(args.re1)
    im0, im1 = float(args.im0), float(args.im1)
    n = int(args.n)
    res, ims, h = xray_grid(re0, re1, im0, im1, n, n)
    sgn_re = np.sign(h.real).astype(np.int8).tolist()
    sgn_im = np.sign(h.imag).astype(np.int8).tolist()
    ims = ims.tolist()
    try:
        with open(args.out, "w", newline="\n") as handle:
            handle.write("re,im,sgn_re_H,sgn_im_H\n")
            # re-major, im-minor
            for re, row_re, row_im in zip(res.tolist(), sgn_re, sgn_im):
                for im, sre, sim in zip(ims, row_re, row_im):
                    handle.write(f"{re:.7f},{im:.7f},{sre:d},{sim:d}\n")
    except OSError as exc:
        return _usage_error(f"cannot write --out: {exc}")
    sys.stdout.write(f"out,{args.out}\n")
    sys.stdout.write(f"rows,{n * n}\n")
    return EXIT_OK


def _finite(text: str) -> float:
    """The type of every float flag: nan and inf are usage errors that
    name the flag."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return value


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The zline parser, built once per process: parse_args keeps no state
    between calls, so every later main call reuses it."""
    parser = argparse.ArgumentParser(
        prog="zline",
        description="Critical-line Z evaluation, zero scans, and series diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate Z(t) by one method")
    p_eval.add_argument("--t", type=_finite, required=True)
    p_eval.add_argument("--method", choices=_ROUTES, required=True)
    p_eval.add_argument("--sigma", type=_finite, default=4.0)
    p_eval.add_argument("--eps", type=_finite, default=_angles.EPS_DEFAULT,
                        help="target error in Z units, in (0, 1e-3]")
    p_eval.add_argument("--json", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_table = sub.add_parser("table", help="reference values in decades")
    p_table.add_argument("--rows", type=str, default="all",
                         help="comma-separated subset of 10,100,...,1e8")
    fmt = p_table.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p_table.set_defaults(func=cmd_table)

    p_scan = sub.add_parser("scan", help="zero scan with phase cross-check")
    p_scan.add_argument("--from", dest="lo", type=_finite, required=True)
    p_scan.add_argument("--to", dest="hi", type=_finite, required=True)
    p_scan.add_argument("--step", type=_finite, default=0.05)
    p_scan.add_argument("--json", action="store_true")
    p_scan.set_defaults(func=cmd_scan)

    p_hstat = sub.add_parser("hstat", help="normalized phase-decay statistic")
    p_hstat.add_argument("--t", type=_finite, required=True)
    p_hstat.add_argument("--step", type=_finite, default=0.05)
    p_hstat.add_argument("--json", action="store_true")
    p_hstat.set_defaults(func=cmd_hstat)

    p_xray = sub.add_parser("xray", help="sign grid over a complex rectangle")
    p_xray.add_argument("--re0", type=_finite, required=True)
    p_xray.add_argument("--re1", type=_finite, required=True)
    p_xray.add_argument("--im0", type=_finite, required=True)
    p_xray.add_argument("--im1", type=_finite, required=True)
    p_xray.add_argument("--n", type=int, default=400)
    p_xray.add_argument("--out", type=str, required=True)
    p_xray.set_defaults(func=cmd_xray)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        return _usage_error(str(exc))
    except (ConvergenceError, PhaseTrackError) as exc:
        return _numerical_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
