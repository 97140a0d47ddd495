"""Byte identity of the zline command line across two checkouts.

    python tools/cli_identity.py [--root DIR] [--full] [--in-process] > digests.txt

Runs a fixed set of zline commands from the checkout at DIR (by default
the one holding this script), one process per command, and prints for
each its exit code, the sha256 of its stdout, the sha256 of its stderr
(where a refusal's message goes) and its argv, and after an xray command
the sha256 of the CSV it wrote ("none" if it wrote none).  With --full
each command's stdout follows its line, indented, so that a moved JSON
value shows in the comparison.  With --in-process every command runs
through zline.cli.main in this one interpreter instead, its stdout and
stderr captured and a SystemExit code taken as its exit code (an
uncaught exception as 1, as a process would exit); a diff against the
per-process output then shows any state one call leaves to the next.
Run it on both checkouts and compare the two outputs with diff.  The
whole set takes a few minutes on two cores; it is not part of the test
suite.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

_XRAY_BOXES = (
    ("10000", "10020", "-2", "4", "40"),
    ("100", "120", "-2", "4", "30"),
    ("7e6", "7.00001e6", "-1", "1", "3"),       # refused: exit 3
    ("1000", "1010", "-2", "4", "40"),
    ("5e6", "5.00001e6", "-1", "1", "20"),      # 2^21 terms, read in parts
)


def _eval(t, method, *extra):
    return ("eval", "--t", t, "--method", method) + extra


def commands() -> list:
    """The argv of every command, in run order."""
    cmds = [_eval(t, "oracle") for t in
            ("0", "10", "100", "499.9", "500.1", "600", "1000", "1600", "1e4",
             "1e6", "1e8", "1e10", "1e12",
             "1e15")]  # a main sum of 1.26e7 terms, read in parts
    cmds += [_eval(t, "oracle", "--json") for t in ("600", "1000", "1600", "1e8")]
    cmds += [_eval(t, "approx") for t in ("10", "100", "1e4", "1e7", "72015150.94")]
    # JSON carries every bit of a value: the long exact sums among them
    cmds += [_eval(t, "approx", "--json") for t in ("1e4", "72015150.94")]
    cmds += [_eval(t, "g") for t in ("20", "100", "1000", "1e5", "1e7")]
    cmds += [_eval(t, "g", "--json") for t in ("30", "5e7")]
    cmds += [_eval(t, "integral")
             for t in ("0", "10", "50", "100", "1000", "2500", "1e5")]
    # 1e5 takes N = 16384 terms, the largest kept step matrix
    cmds += [_eval(t, "integral", "--json") for t in ("40", "2500", "1e5")]
    cmds += [_eval("100", "integral", "--eps", "1e-3")]
    off_four = (("1.5", ("0", "100", "300", "3000")), ("2.5", ("200", "1000")),
                ("4.5", ("0", "300", "450")), ("1.0", ("0", "50")),
                ("1.2", ("50", "300")), ("2.0", ("20",)), ("3.5", ("100",)))
    cmds += [_eval(t, "integral", "--sigma", sigma)
             for sigma, ts in off_four for t in ts]
    cmds += [_eval(t, "integral", "--sigma", sigma, "--json") for sigma, t in
             (("2.5", "200"), ("1.5", "100"), ("1.2", "50"), ("1.0", "50"),
              ("4.5", "300"), ("1.5", "3000"), ("4.99", "0"), ("4.99", "14"))]
    # next to the branch point of g at s = 5: too many nodes, exit 3
    cmds += [_eval("0", "integral", "--sigma", "4.999999999")]
    # zeta's |Im s| cap left of Re s = 2, checked before the work: exit 2
    cmds += [_eval("1e7", "integral", "--sigma", "1.5")]
    cmds += [("table",), ("table", "--json"), ("table", "--csv"),
             ("table", "--rows", "10,1e8")]
    scans = (("10", "30"), ("10", "30", "--json"), ("50", "60", "--json"),
             ("274", "284", "--step", "0.025"), ("400", "430"), ("14.2", "20.9"),
             ("10.001", "20.001"), ("1590", "1600"),
             # the near-zero of F at t ~ 111.87 forces refinement rounds
             ("108", "114", "--json"), ("20000", "20005", "--json"))
    cmds += [("scan", "--from", a, "--to", b, *rest) for a, b, *rest in scans]
    cmds += [("hstat", "--t", "1000"), ("hstat", "--t", "150", "--json"),
             ("hstat", "--t", "2745.3"), ("hstat", "--t", "4321", "--json"),
             ("hstat", "--t", "15000", "--json")]
    cmds += [("xray", "--re0", r0, "--re1", r1, "--im0", i0, "--im1", i1, "--n", n)
             for r0, r1, i0, i1, n in _XRAY_BOXES]
    # refusals and usage errors
    cmds += [_eval("1e20", "oracle"),
             ("scan", "--from", "10", "--to", "1e5", "--step", "1e-9"),
             _eval("10", "bogus"),
             ("hstat", "--t", "nan"), ("hstat", "--t", "inf"),
             _eval("inf", "oracle"), _eval("nan", "oracle"), _eval("nan", "approx"),
             # flags the route never reads, refused by the CLI alone: exit 2
             _eval("10", "oracle", "--sigma", "7"), _eval("10", "oracle", "--eps", "1"),
             _eval("100", "approx", "--sigma", "3"), _eval("-1", "g"),
             ("xray", "--re0", "1", "--re1", "inf", "--im0", "-1", "--im1", "1"),
             # over the term cap of H: exit 3 before any tolerance is scaled
             _eval("1e88", "approx"), _eval("1e88", "g"), _eval("1e177", "g"),
             _eval("1e200", "approx"), _eval("1e200", "g"), ("hstat", "--t", "1e172"),
             # steps so small that the point count overflows a float: exit 3
             ("hstat", "--t", "1e3", "--step", "1e-308"),
             ("scan", "--from", "10", "--to", "20", "--step", "1e-320"),
             ("hstat", "--t", "1e5", "--step", "1e-303")]
    return cmds


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def _per_process(root: Path):
    """A runner of one command in a fresh interpreter:
    argv -> (code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **_THREADS)
    launch = [sys.executable, "-c",
              "import sys; from zline.cli import main; sys.exit(main())"]

    def run(argv):
        proc = subprocess.run(launch + argv, env=env, capture_output=True)
        return proc.returncode, proc.stdout, proc.stderr

    return run


def _in_process(root: Path):
    """A runner of every command through this interpreter's zline.cli.main,
    stdout and stderr captured: argv -> (code, stdout, stderr)."""
    os.environ.update(_THREADS)  # before numpy loads
    sys.path.insert(0, str(root / "src"))
    from zline.cli import main as zline_main

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = zline_main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc(file=err)  # as a process would, which then exits 1
            code = 1
        return code, out.getvalue().encode(), err.getvalue().encode()

    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ is run")
    parser.add_argument("--full", action="store_true",
                        help="print each command's stdout under its digest")
    parser.add_argument("--in-process", action="store_true",
                        help="run every command in this interpreter")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    run = _in_process(root) if args.in_process else _per_process(root)
    with tempfile.TemporaryDirectory() as tmp:
        for k, cmd in enumerate(commands()):
            csv = Path(tmp) / f"xray_{k}.csv"
            argv_k = list(cmd) + (["--out", str(csv)] if cmd[0] == "xray" else [])
            code, out, err = run(argv_k)
            # the CSV path is the one part of the output that names the run's
            # directory
            out, err = (s.replace(str(csv).encode(), b"OUT") for s in (out, err))
            print(code, _digest(out), _digest(err), " ".join(cmd), flush=True)
            if args.full:
                for line in out.decode().splitlines():
                    print("   ", line)
            if cmd[0] == "xray":
                print("  csv", _digest(csv.read_bytes()) if csv.exists() else "none")
    return 0


if __name__ == "__main__":
    sys.exit(main())
