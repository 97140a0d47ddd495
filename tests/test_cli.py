"""Command-line front end: record formats, exit codes, determinism, and
the JSON/CSV contracts."""
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from zline import cli, scan, z_approx, z_from_integral, z_g, z_oracle
from zline.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def get_value(out: str) -> float:
    for line in out.splitlines():
        if line.startswith("value,"):
            return float(line.split(",")[1])
    raise AssertionError(f"no value line in {out!r}")


# ------------------------------------------------------------------- eval

def test_eval_approx_reference(capsys):
    code, out, _ = run(capsys, "eval", "--t", "100", "--method", "approx")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "t,100.0000000"
    assert lines[1] == "method,approx"
    assert abs(get_value(out) - 2.6269297) <= 5e-7
    assert any(line.startswith("est,") for line in lines)


def test_eval_oracle_at_zero(capsys):
    code, out, _ = run(capsys, "eval", "--t", "0", "--method", "oracle")
    assert code == EXIT_OK
    assert abs(get_value(out) - -1.4603545) <= 5e-8


def test_eval_integral_at_zero(capsys):
    code, out, _ = run(capsys, "eval", "--t", "0", "--method", "integral", "--json")
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    assert abs(row["value"] - z_oracle(0.0)[0]) <= row["est"]
    assert abs(row["value"] - -1.4603545) <= 1e-7


def test_eval_integral_matches_oracle(capsys):
    vals = {}
    for method in ("integral", "oracle"):
        code, out, _ = run(capsys, "eval", "--t", "50", "--method", method,
                           "--json")
        assert code == EXIT_OK
        vals[method] = json.loads(out)["rows"][0]["value"]
    assert abs(vals["integral"] - vals["oracle"]) <= 1e-8


def test_eval_json_round_trip(capsys):
    code, out, _ = run(capsys, "eval", "--t", "30", "--method", "g", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["meta"]["command"] == "eval"
    assert "version" in doc["meta"]
    row = doc["rows"][0]
    assert row["method"] == "g"
    assert math.isfinite(row["value"]) and math.isfinite(row["est"])
    assert row["est"] > 0.0


def test_eval_usage_errors(capsys):
    for argv in (("eval", "--t", "-1", "--method", "oracle"),
                 ("eval", "--t", "5", "--method", "approx"),
                 ("eval", "--t", "100", "--method", "oracle", "--sigma", "9"),
                 ("eval", "--t", "100", "--method", "oracle", "--sigma", "6"),
                 ("eval", "--t", "100", "--method", "oracle", "--sigma", "3"),
                 ("eval", "--t", "100", "--method", "oracle", "--eps", "0.5"),
                 # (1e-3, 1e-2] was taken by approx and g, refused by integral
                 ("eval", "--t", "100", "--method", "integral", "--eps", "5e-3"),
                 ("eval", "--t", "100", "--method", "approx", "--eps", "5e-3")):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert err


@pytest.mark.parametrize("sigma", ["0.55", "0.6", "0.7"])
@pytest.mark.parametrize("t", [30.0, 100.0])
def test_eval_integral_narrow_kernel_matches_oracle(capsys, sigma, t):
    # the kernel of width 2 sigma - 1 is narrow here: the trapezoid step
    # shrinks with it
    code, out, _ = run(capsys, "eval", "--t", repr(t), "--method", "integral",
                       "--sigma", sigma, "--json")
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    z, z_est = z_oracle(t)
    assert abs(row["value"] - z) <= row["est"] + z_est


def test_printed_value_and_est_are_the_routes(capsys):
    # every eval method and table print the (value, est) their library
    # route returns, bit for bit (JSON floats round-trip exactly)
    cases = [
        (("--t", "1600", "--method", "oracle"), z_oracle(1600.0)),
        (("--t", "100", "--method", "integral"), z_from_integral(100.0)),
        (("--t", "300", "--method", "integral", "--sigma", "1.5", "--eps", "1e-6"),
         z_from_integral(300.0, 1.5, 1e-6)),
        (("--t", "0", "--method", "integral"), z_from_integral(0.0)),
        (("--t", "100.5", "--method", "approx"), z_approx(100.5)),
        (("--t", "72015150.94", "--method", "approx", "--eps", "1e-8"),
         z_approx(72015150.94, 1e-8)),
        (("--t", "30", "--method", "g"), z_g(30.0)),
        (("--t", "1e5", "--method", "g", "--eps", "1e-6"), z_g(1e5, 1e-6)),
    ]
    for argv, route in cases:
        code, out, _ = run(capsys, "eval", *argv, "--json")
        assert code == EXIT_OK
        row = json.loads(out)["rows"][0]
        assert (row["value"], row["est"]) == route, argv
    code, out, _ = run(capsys, "table", "--rows", "10,1e8", "--json")
    assert code == EXIT_OK
    for row in json.loads(out)["rows"]:
        assert (row["z"], row["z_est"]) == z_oracle(row["t"])
        assert (row["approx"], row["approx_est"]) == z_approx(row["t"], cli._TABLE_EPS_Z)


@pytest.mark.parametrize("t, ref", [
    # mpmath's (t/2pi)^(7/4) Re{e^{i theta} H(t)}, each within 1e-11; the
    # longdouble rounding of theta (~6e8 rad) moves Z by ~1e-10 here
    (72015150.94, 5.957654318130753),
    (70942985.02, -6.0853410056593775),
])
def test_eval_approx_est_covers_phase_rounding(capsys, t, ref):
    code, out, _ = run(capsys, "eval", "--t", repr(t), "--method", "approx",
                       "--json")
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    assert abs(row["value"] - ref) + 1e-11 <= row["est"]


@pytest.mark.parametrize("argv, estimate, peak_mb", [
    # 3433 samples x 2^21 terms: the 64 x 2^21 step matrix alone is 2.1 GB
    (("eval", "--t", "1e8", "--method", "integral"), "2097152 terms = 7.2e+09", 1),
    # off sigma = 4, zeta at the window's samples only: 1531 x 2^21 terms
    (("eval", "--t", "1e7", "--method", "integral", "--sigma", "2.5"),
     "2097152 terms = 3.21e+09", 1),
    # the F grid of the whole window: 802431 samples x 16384 terms
    (("scan", "--from", "10", "--to", "1e5"), "16384 terms = 1.31e+10", 64),
    # the oracle's scan, checked before the 1e14-point grid exists
    (("scan", "--from", "10", "--to", "1e5", "--step", "1e-9"),
     "1024 terms = 1.02e+17", 1),
    # the Riemann-Siegel main sum: 3,989,422,804 terms
    (("eval", "--t", "1e20", "--method", "oracle"), "3989422804 terms = 3.99e+09", 1),
    # a step of 1.8e-10 next to g's zero at s = 5, checked before the nodes
    (("eval", "--t", "0", "--method", "integral", "--sigma", "4.999999999"),
     "1510047021757 points x 128 terms = 1.93e+14", 1),
])
def test_work_over_budget_is_refused_at_once(capsys, argv, estimate, peak_mb):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert estimate in err and "above the work budget" in err
    assert peak < peak_mb << 20


@pytest.mark.parametrize("argv", [
    ("eval", "--t", "1e300", "--method", "oracle"),
    ("hstat", "--t", "100", "--step", "1e-300"),
    ("xray", "--re0", "1e300", "--re1", "1.1e300", "--im0", "-1", "--im1", "1"),
    # point counts that overflow a float, or whose work does
    ("hstat", "--t", "1e3", "--step", "1e-308"),
    ("scan", "--from", "10", "--to", "20", "--step", "1e-320"),
    ("hstat", "--t", "1e5", "--step", "1e-303"),
])
def test_refusal_counts_are_short(capsys, tmp_path, argv):
    # counts of 1e16 and above are printed to three digits, not in full
    if argv[0] == "xray":
        argv += ("--out", str(tmp_path / "grid.csv"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_NUMERICAL, "")
    assert "above the" in err
    assert max(map(len, re.findall(r"\d+", err))) <= 16


@pytest.mark.parametrize("argv, what", [
    # the term count is formed in logs and refused before the tolerance
    # of H is scaled down (it overflowed, or underflowed to 0 at 1e200)
    (("eval", "--t", "1e88", "--method", "approx"), "H_0(1e+88)"),
    (("eval", "--t", "1e88", "--method", "g"), "H_0(1e+88)"),
    (("eval", "--t", "1e177", "--method", "g"), "H_0(1e+177)"),
    (("eval", "--t", "1e200", "--method", "approx"), "H_0(1e+200)"),
    (("eval", "--t", "1e200", "--method", "g"), "H_0(1e+200)"),
    (("hstat", "--t", "1e172"), "H grid"),
])
def test_series_term_cap_at_huge_t_is_numerical_failure(capsys, argv, what):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert f"{what} needs " in err and "above the cap 500000" in err


def test_hstat_over_budget_is_numerical_failure(capsys):
    # 6e6 track points x 525 terms = 3.15e9, refused from the point count
    # before the track grid is built
    code, out, err = run(capsys, "hstat", "--t", "3e5")
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert "525 terms = 3.15e+09" in err


@pytest.mark.parametrize("argv", [
    ("hstat", "--t", "nan"),
    ("hstat", "--t", "inf"),
    ("eval", "--t", "inf", "--method", "oracle"),
    ("eval", "--t", "nan", "--method", "oracle"),
    ("eval", "--t", "nan", "--method", "integral"),
    ("eval", "--t", "nan", "--method", "approx"),
    ("eval", "--t", "inf", "--method", "approx"),
    ("xray", "--re0", "1", "--re1", "inf", "--im0", "-1", "--im1", "1",
     "--out", "/dev/null"),
])
def test_non_finite_float_flag_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == EXIT_USAGE
    out, err = capsys.readouterr()
    flag = argv[argv.index(next(a for a in argv if a in ("nan", "inf"))) - 1]
    assert out == ""
    assert f"argument {flag}: invalid finite float value" in err


def test_eval_bad_method_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--t", "10", "--method", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


# ------------------------------------------------------------------ table

def test_table_single_row_csv(capsys):
    code, out, _ = run(capsys, "table", "--rows", "10", "--csv")
    assert code == EXIT_OK
    assert "\r" not in out
    lines = out.splitlines()
    assert lines[0] == "t,Z,approx,absdiff"
    fields = lines[1].split(",")
    assert fields[0] == "10"
    assert abs(float(fields[1]) - -1.5491945) <= 5e-6
    assert abs(float(fields[2]) - -0.9983260) <= 5e-6
    assert abs(float(fields[3])
               - abs(float(fields[1]) - float(fields[2]))) <= 2e-7


def test_table_row_subset(capsys):
    code, out, _ = run(capsys, "table", "--rows", "10,100", "--csv")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 3


def test_table_full_json(capsys):
    code, out, _ = run(capsys, "table", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    rows = doc["rows"]
    assert len(rows) == 8
    assert [row["t"] for row in rows] == [10.0 ** k for k in range(1, 9)]
    for row in rows:
        for key in ("z", "z_est", "approx", "approx_est", "absdiff"):
            assert math.isfinite(row[key]), (row["t"], key)
        assert row["z_est"] < 1e-5 and row["approx_est"] < 1e-5


def test_table_bad_rows(capsys):
    code, _, err = run(capsys, "table", "--rows", "15")
    assert code == EXIT_USAGE
    assert err


_TABLE_TEXT = ("        t             Z        approx     absdiff\n"
               "       10    -1.5491945    -0.9983261   0.5508685\n"
               "      100     2.6926971     2.6269297   0.0657674\n")


def test_table_plain_text(capsys):
    assert run(capsys, "table", "--rows", "10,100") == (EXIT_OK, _TABLE_TEXT, "")


@pytest.mark.parametrize("spec, message", [
    ("10,,100", None),  # an empty token is skipped
    (" 10 , 100 ", None),
    ("abc", "bad row 'abc'"),
    ("10,1e3x", "bad row '1e3x'"),
    (",", "empty row list"),
    ("", "empty row list"),
])
def test_table_rows_tokens(capsys, spec, message):
    code, out, err = run(capsys, "table", "--rows", spec)
    if message is None:
        assert (code, out) == (EXIT_OK, _TABLE_TEXT)
    else:
        assert (code, out) == (EXIT_USAGE, "")
        assert message in err


# ------------------------------------------------------------------- scan

def test_scan_plain_report(capsys):
    code, out, _ = run(capsys, "scan", "--from", "10", "--to", "30")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "key,value"
    entries = dict(line.split(",", 1) for line in lines[1:])
    assert entries["count"] == "3"
    assert entries["verdict"] == "pass"
    assert abs(float(entries["zero_1"]) - 14.1347251) <= 1e-6
    assert abs(float(entries["zero_3"]) - 25.0108576) <= 1e-6


def test_scan_empty_interval(capsys):
    code, out, _ = run(capsys, "scan", "--from", "14.2", "--to", "20.9")
    assert code == EXIT_OK
    entries = dict(line.split(",", 1) for line in out.splitlines()[1:])
    assert entries["count"] == "0"
    assert entries["verdict"] == "pass"
    assert float(entries["delta_phi_over_pi"]) < 1.0


def test_scan_json(capsys):
    code, out, _ = run(capsys, "scan", "--from", "10", "--to", "30", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    report = doc["report"]
    assert report["count"] == 3
    assert report["verdict"] == "pass"
    assert report["delta_phi_est"] > 0.0
    assert len(doc["rows"]) == 3
    for row in doc["rows"]:
        assert row["est"] > 0.0


def test_scan_usage_errors(capsys):
    for argv in (("scan", "--from", "5", "--to", "30"),
                 ("scan", "--from", "30", "--to", "10"),
                 ("scan", "--from", "10", "--to", "30", "--step", "0.5")):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert err


@pytest.mark.parametrize("argv, message", [
    # a step below the spacing of doubles at t: the grid does not increase
    (("scan", "--from", "10", "--to", "10.00000000000001", "--step", "1e-16"),
     "samples must be strictly increasing"),
    # the Z-to-H tolerance divided by t = 0 before the g route checked t
    (("eval", "--t", "0", "--method", "g"), "z_g requires t >= 20"),
    # zeta's |Im s| cap left of Re s = 2 comes before f_integral's work
    # check, which 679 nodes x 2^23 terms would fail
    (("eval", "--t", "1e7", "--method", "integral", "--sigma", "1.5"),
     "zeta: |Im s| = 1e+07 exceeds cap 100000 left of Re s = 2"),
])
def test_library_value_error_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert message in err


def test_scan_under_resolved_is_numerical_failure(capsys, monkeypatch):
    # the pinch near t = 111.87 defeats a 0.05 grid once the local
    # refinement is out of rounds (here: given none)
    monkeypatch.setattr(scan, "_MAX_REFINE_ROUNDS", 0)
    code, _, err = run(capsys, "scan", "--from", "108", "--to", "114")
    assert code == EXIT_NUMERICAL
    assert err


def test_scan_refines_fast_phase_locally(capsys):
    # a default-step grid that misses the pinches near t = 111.87 and 404.2
    # is refined locally; the counts agree with mpmath.nzeros
    for lo, hi, count in (("108", "114", 2), ("400", "430", 19)):
        code, out, _ = run(capsys, "scan", "--from", lo, "--to", hi, "--json")
        assert code == EXIT_OK
        report = json.loads(out)["report"]
        assert report["count"] == count
        assert report["verdict"] == "pass"


# ------------------------------------------------------------------ hstat

def test_hstat_band(capsys):
    code, out, _ = run(capsys, "hstat", "--t", "1000")
    assert code == EXIT_OK
    entries = dict(line.split(",", 1) for line in out.splitlines())
    assert 0.1 <= float(entries["c"]) <= 0.45
    assert float(entries["phase_end"]) < 0.0


def test_hstat_below_floor(capsys):
    code, _, err = run(capsys, "hstat", "--t", "50")
    assert code == EXIT_USAGE
    assert err


# ------------------------------------------------------------------- xray

def test_xray_file_contract(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, out, _ = run(capsys, "xray", "--re0", "10000", "--re1", "10020",
                       "--im0", "-2", "--im1", "4", "--n", "10",
                       "--out", str(out_path))
    assert code == EXIT_OK
    assert "rows,100" in out
    text = out_path.read_text()
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == "re,im,sgn_re_H,sgn_im_H"
    assert len(lines) == 101
    for line in lines[1:]:
        re_s, im_s, sre, sim = line.split(",")
        assert sre in ("-1", "0", "1") and sim in ("-1", "0", "1")


def test_xray_rows_deterministic(tmp_path, capsys):
    # re-major, im-minor: 9 rows from (re0, im0) to (re1, im1)
    path = tmp_path / "grid.csv"
    code, _, _ = run(capsys, "xray", "--re0", "10000", "--re1", "10001",
                     "--im0", "-1", "--im1", "1", "--n", "3", "--out", str(path))
    assert code == EXIT_OK
    rows = [line.split(",")[:2] for line in path.read_text().splitlines()[1:]]
    assert rows == [[f"{re:.7f}", f"{im:.7f}"]
                    for re in (10000.0, 10000.5, 10001.0) for im in (-1.0, 0.0, 1.0)]


def test_xray_unwritable_out_is_usage_error(tmp_path, capsys):
    # a directory, and a file in a directory that does not exist
    for out_path in (tmp_path, tmp_path / "missing" / "grid.csv"):
        code, out, err = run(capsys, "xray", "--re0", "10000", "--re1", "10001",
                             "--im0", "-1", "--im1", "1", "--n", "3",
                             "--out", str(out_path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: cannot write --out")
    assert not (tmp_path / "missing").exists()


def test_xray_usage_error(capsys):
    code, _, err = run(capsys, "xray", "--re0", "10", "--re1", "20",
                       "--im0", "0", "--im1", "4.5", "--out", "/dev/null")
    assert code == EXIT_USAGE
    assert err


def test_xray_over_budget_is_numerical_failure(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, out, err = run(capsys, "xray", "--re0", "2e8", "--re1", "2.00001e8",
                         "--im0", "-1", "--im1", "1", "--n", "4",
                         "--out", str(out_path))
    assert code == EXIT_NUMERICAL
    assert "134217728" in err
    assert out == "" and not out_path.exists()
    # 4e14 points x 2048 terms at Re 1000: refused from re1 and n before
    # the two axes (16 bytes a point each) are built
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "xray", "--re0", "1000", "--re1", "1001",
                             "--im0", "-2", "--im1", "4", "--n", "20000000",
                             "--out", str(out_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_NUMERICAL
    assert "2048 terms = 8.19e+17" in err
    assert out == "" and not out_path.exists()
    assert peak < 1 << 20


# ------------------------------------------------------------ determinism

@pytest.mark.parametrize("argv", [
    ("eval", "--t", "100", "--method", "approx"),
    ("eval", "--t", "40", "--method", "integral", "--json"),
    ("table", "--csv"),
    ("scan", "--from", "10", "--to", "30", "--json"),
    ("hstat", "--t", "1000"),
])
def test_byte_determinism(capsys, argv):
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    assert first[0] == EXIT_OK


def test_xray_byte_determinism(tmp_path, capsys):
    blobs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code, _, _ = run(capsys, "xray", "--re0", "10000", "--re1", "10001",
                         "--im0", "-1", "--im1", "1", "--n", "5",
                         "--out", str(path))
        assert code == EXIT_OK
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


# a success, a usage error (exit 2), a refusal (exit 3), a scan, the first again
_SEQUENCE = (
    ("eval", "--t", "100", "--method", "approx", "--json"),
    ("eval", "--t", "10", "--method", "bogus"),
    ("eval", "--t", "1e20", "--method", "oracle"),
    ("scan", "--from", "10", "--to", "30", "--json"),
    ("eval", "--t", "100", "--method", "approx", "--json"),
)


def _outcome(capsys, argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repeated_main_calls_match_fresh_parsers(capsys):
    # one parser serves every call of a process: no state carries over
    kept = [_outcome(capsys, argv) for argv in _SEQUENCE]
    fresh = []
    for argv in _SEQUENCE:
        cli._build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert [code for code, _, _ in kept] == [
        EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL, EXIT_OK, EXIT_OK]
    assert kept == fresh
    assert kept[0] == kept[-1]


# ---------------------------------------------------------- frozen output
# Text and CSV bytes are pinned exactly.  JSON prints c and phase_end to
# the last bit, which moves with the summation order of the H grid, so
# those two are pinned to 1e-12 rad of phase: the frozen and the current
# phase_end both sit 6.6e-10 rad from mpmath's arg H(383.9413428), the
# default series tolerance.

_FROZEN_HSTAT_TEXT = "c,0.2191268\nphase_end,-445.9097331\n"
_FROZEN_HSTAT_JSON = (
    '{"meta":{"version":"0.1.0","command":"hstat","flags":{"t":383.9413428,'
    '"step":0.025}},"rows":[{"t":383.9413428,"c":0.20142851796755398,'
    '"c_est":1e-07,"phase_end":-120.35965363326011,"phase_end_est":0.001}]}\n')
_FROZEN_XRAY_SHA256 = "065343514cef2d12c4c64e6e7296579fc5d175a915fbfe5fb97b342e1cc9816a"


def _oracle_json(t: float, value: str, est: str) -> str:
    return ('{"meta":{"version":"0.1.0","command":"eval","flags":{"t":%r,'
            '"method":"oracle","sigma":4.0,"eps":1e-10}},"rows":[{"t":%r,'
            '"method":"oracle","value":%s,"est":%s}]}\n' % (t, t, value, est))


def test_hstat_frozen_text(capsys):
    assert run(capsys, "hstat", "--t", "1000") == (EXIT_OK, _FROZEN_HSTAT_TEXT, "")


def test_hstat_frozen_json(capsys):
    code, out, _ = run(capsys, "hstat", "--t", "383.9413428", "--step", "0.025",
                       "--json")
    assert code == EXIT_OK
    got, frozen = json.loads(out), json.loads(_FROZEN_HSTAT_JSON)
    row, ref = got["rows"][0], frozen["rows"][0]
    assert abs(row.pop("phase_end") - ref.pop("phase_end")) <= 1e-12
    scale = 0.5 * 383.9413428 * (math.log(383.9413428 / (2.0 * math.pi)) - 1.0)
    assert abs(row.pop("c") - ref.pop("c")) <= 1e-12 / scale
    assert got == frozen


@pytest.mark.parametrize("t, value, est", [
    # the Riemann-Siegel route, its C0..C2 corrections included
    ("600", "2.6715801421320204", "6.856391271198068e-07"),
    ("1600", "0.0942799195468165", "1.2324683680476908e-07"),
    ("1e4", "-0.3413947244335089", "5.087092663662779e-09"),
    ("1e8", "3.645407868486116", "1.0709706182347008e-08"),
    # the Euler-Maclaurin route, t <= 500
    ("0", "-1.460354508809587", "4.3956670715168575e-12"),
    ("10", "-1.549194546181022", "5.9601325701975306e-09"),
    ("100", "2.6926970566642088", "8.181605069740381e-12"),
    ("499.9", "1.9575853313934324", "5.872780099683014e-12"),
])
def test_eval_oracle_frozen_json(capsys, t, value, est):
    assert run(capsys, "eval", "--method", "oracle", "--t", t, "--json") == (
        EXIT_OK, _oracle_json(float(t), value, est), "")


# sha256 of stdout.  The JSON floats carry every bit of value and est, so a
# change that moves the library and the CLI together shows here too.
@pytest.mark.parametrize("argv, digest", [
    (("table", "--csv"),
     "3d4793331ae798ceec2c4c2af221e6c42e6c19d389a6c9ff1604f1ee6e428a3b"),
    (("table", "--json"),
     "e6b75f92328029abd3020f6200b852bbdea63f16b2314e180ea20c7d940ab2d3"),
    (("scan", "--from", "10", "--to", "30", "--json"),
     "2b40484d3317a4753237b244794428d24ad29de342f1817cb5cab9dd0fcf4c99"),
    (("eval", "--t", "40", "--method", "integral", "--json"),
     "882908a2b49cc504523bb1af863290923488be38fe05c57d60ecd19f5831ae4d"),
    (("eval", "--t", "300", "--method", "integral", "--sigma", "1.5", "--json"),
     "c3d99773c539d38e44dc106f4bb23b561cd25d2dc63b8c72e716187f09b9f65c"),
    (("eval", "--t", "1e4", "--method", "approx", "--json"),
     "b5a0b992a3fcf68c9b920ebbebf6895ca9fc273678d173761957b82418a26919"),
    (("eval", "--t", "30", "--method", "g", "--json"),
     "154050a715b30915ea2d50b2c23012101c68cd5baab155ecba55547c1321fb73"),
    (("eval", "--t", "1e5", "--method", "g", "--json"),
     "5cd53f09c040c918973c73a79009c95846591bb27b344e3f235f109fd85c9ccc"),
])
def test_frozen_stdout_digest(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_xray_frozen_csv(tmp_path, capsys):
    path = tmp_path / "grid.csv"
    code, out, _ = run(capsys, "xray", "--re0", "20000", "--re1", "20010",
                       "--im0", "-2", "--im1", "4", "--n", "40", "--out", str(path))
    assert (code, out) == (EXIT_OK, f"out,{path}\nrows,1600\n")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _FROZEN_XRAY_SHA256


# ------------------------------------------------------------ route table

# each method's function in zline.cli and the arguments it takes from
# eval --t 50 --sigma 2.5 --eps 1e-6
_ROUTE_CALLS = {"oracle": ("z_oracle", (50.0,)),
                "integral": ("z_from_integral", (50.0, 2.5, 1e-6)),
                "approx": ("z_approx", (50.0, 1e-6)),
                "g": ("z_g", (50.0, 1e-6))}


@pytest.mark.parametrize("method", sorted(_ROUTE_CALLS))
def test_eval_looks_its_route_up_by_name(capsys, monkeypatch, method):
    # a rebinding of the module attribute is what eval runs, as the
    # benchmark's tracer needs; a table of function objects would miss it
    name, expected = _ROUTE_CALLS[method]
    calls = []

    def recorder(*args):
        calls.append(args)
        return 1.0, 1e-9

    monkeypatch.setattr(cli, name, recorder)
    code, out, _ = run(capsys, "eval", "--t", "50", "--method", method,
                       "--sigma", "2.5", "--eps", "1e-6", "--json")
    assert code == EXIT_OK
    assert calls == [expected]
    assert json.loads(out)["rows"] == [
        {"t": 50.0, "method": method, "value": 1.0, "est": 1e-9}]


@pytest.mark.parametrize("result, field", [
    ((math.nan, 1e-9), "value"),
    ((0.5, math.inf), "est"),
])
def test_non_finite_route_result_is_usage_error(capsys, monkeypatch, result, field):
    monkeypatch.setattr(cli, "z_oracle", lambda t: result)
    code, out, err = run(capsys, "eval", "--t", "10", "--method", "oracle")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: non-finite field {field!r}\n"


# ------------------------------------------- text across CPU code paths

_CONFIG_CHILD = """
import contextlib, io, os, sys
if sys.argv[1] == "one CPU" and hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
try:
    import numpy
except Exception as exc:  # numpy refuses this configuration
    print("no numpy:", exc)
    sys.exit(0)
from zline import cli
for argv in (["table"], ["scan", "--from", "10", "--to", "30"],
             ["eval", "--t", "1e4", "--method", "approx"],
             ["eval", "--t", "3.7e7", "--method", "g"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    print(argv, code, out.getvalue())
"""

# numpy's AVX2 loops (what an AVX2-only x86 CPU runs), two OpenBLAS
# kernels, and the default on one CPU (one lane)
_CONFIGS = {
    "default": {},
    "numpy AVX2": {"NPY_DISABLE_CPU_FEATURES": "AVX512_ICL X86_V4"},
    "OpenBLAS Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "OpenBLAS Prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "one CPU": {},
}


def test_text_stdout_is_the_same_on_every_cpu_path():
    # text output (7 decimals) must not move with numpy's SIMD loops, the
    # BLAS kernel or the number of lanes, though their last bits may
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs, refused = {}, []
    for name, extra in _CONFIGS.items():
        env = {k: v for k, v in os.environ.items()
               if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env.update(extra)
        child = subprocess.run([sys.executable, "-c", _CONFIG_CHILD, name],
                               capture_output=True, text=True, timeout=60, env=env)
        assert child.returncode == 0, (name, child.stderr)
        if child.stdout.startswith("no numpy:"):
            refused.append(f"{name} ({child.stdout.strip()})")
        else:
            outputs[name] = child.stdout
    assert "default" in outputs, refused
    for name, out in outputs.items():
        assert out == outputs["default"], name
    if refused:
        pytest.skip("numpy cannot be imported under " + "; ".join(refused))
