"""Tests of the benchmark itself: a smoke run of each workload at a tiny
size, a traced run, checks that catch one perturbed output, and a refusal
to run outside a checkout."""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import ops as workload_ops  # noqa: E402
import worker  # noqa: E402


def _first_of_each_kind(ops):
    """The first operation of every slot kind (the cheapest stratum); both
    operations of a pair."""
    seen = {}
    for op in ops:
        if op.kind not in seen:
            seen[op.kind] = op.state
    return [op for op in ops if seen.get(op.kind) is op.state]


@pytest.mark.parametrize("workload", workload_ops.WORKLOADS)
def test_smoke_run_passes_every_check(workload):
    result = worker.run_workload(workload, seed=5, seconds=0, trace=False,
                                 min_ops=1, ops_filter=_first_of_each_kind)
    assert result["correct"] and result["failed"] == 0, result
    assert result["rounds"] == 1
    for name in ("wall_s", "op_p50_s", "op_p90_s", "peak_rss_mb"):
        assert result["metrics"][name]["value"] > 0.0


def _raises(argv):
    raise ValueError("ts must be ascending")


@pytest.mark.parametrize("fake_main", [lambda argv: 3, _raises])
def test_crash_or_nonzero_exit_is_not_correct(fake_main, monkeypatch):
    import zline.cli

    monkeypatch.setattr(zline.cli, "main", fake_main)
    result = worker.run_workload("points", seed=5, seconds=0, trace=False,
                                 min_ops=1, ops_filter=lambda ops: ops[:2])
    assert result["attempted"] == 2 and result["failed"] == 2
    assert result["correct"] is False


def test_traced_run_reports_grid_layers():
    import zline.scan

    before = zline.scan.z_oracle
    result = worker.run_workload(
        "grids", seed=5, seconds=0, trace=True, min_ops=1,
        ops_filter=lambda ops: [op for op in ops if op.kind == "scan"][:1])
    assert zline.scan.z_oracle is before  # the wrappers are removed
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"]
    assert m["cli.commands"] >= 1 and m["scan.oracle_evals"] > 100
    assert m["quad.f_grid_pts"] > 100 and m["special.zeta_elems"] > 0
    assert m["scan.track_pts"] == m["quad.f_grid_pts"]
    assert m["series.h_grid_pts"] == 0


def _output(op):
    """Run one operation for real and return its stdout."""
    from zline.cli import main

    code, out, _, _ = worker.execute(main, op)
    assert code == 0
    return out


def _ops(workload, kind, tmp_path):
    refs = workload_ops.load_refs()
    return [op for op in workload_ops.build_round(workload, 3, refs, tmp_path)
            if op.kind == kind]


def _perturb_value(out, delta):
    doc = json.loads(out)
    doc["rows"][0]["value"] += delta
    return json.dumps(doc)


@pytest.mark.parametrize("kind,delta", [("oracle", 1e-5), ("approx", 1e-9),
                                        ("g", 0.5)])
def test_points_check_rejects_perturbed_value(kind, delta, tmp_path):
    op = _ops("points", kind, tmp_path)[0]
    out = _output(op)
    assert op.check(out, {}) is None
    assert op.check(_perturb_value(out, delta), {}) is not None


def test_integral_pair_check_rejects_perturbed_re_f(tmp_path):
    first, second = _ops("integral", "sigma_pair", tmp_path)[:2]
    out1, out2 = _output(first), _output(second)
    assert first.check(out1, first.state) is None
    assert second.check(out2, second.state) is None
    first.check(out1, first.state)  # Re F at sigma = 4 again
    t = json.loads(out2)["rows"][0]["t"]
    # moves Re F by 5e-7 and Z by far less than the 1e-8 siegelz tolerance
    shifted = _perturb_value(out2, 5e-7 / workload_ops._denominator(t))
    assert second.check(shifted, second.state) is not None


def test_scan_check_rejects_moved_zero(tmp_path):
    op = _ops("grids", "scan", tmp_path)[0]
    out = _output(op)
    assert op.check(out, {}) is None
    doc = json.loads(out)
    doc["rows"][0]["zero"] += 2e-6
    assert op.check(json.dumps(doc), {}) is not None


def test_hstat_check_rejects_shifted_phase(tmp_path):
    op = _ops("grids", "hstat", tmp_path)[0]
    out = _output(op)
    assert op.check(out, {}) is None
    doc = json.loads(out)
    doc["rows"][0]["phase_end"] += 1e-3
    assert op.check(json.dumps(doc), {}) is not None
    doc["rows"][0]["phase_end"] += 2.0 * math.pi - 1e-3
    assert op.check(json.dumps(doc), {}) is None  # modulo 2 pi


def test_xray_check_rejects_flipped_sign(tmp_path):
    op = _ops("grids", "xray", tmp_path)[0]
    out = _output(op)
    path = Path(op.argv[op.argv.index("--out") + 1])
    lines = path.read_text().splitlines()
    cand = [c for kind, c in workload_ops.choose("grids", 3, workload_ops.load_refs())
            if kind == "xray"][0]
    smp = max(cand["samples"], key=lambda s: abs(s["re_h"]))
    k = 1 + smp["i"] * cand["n"] + smp["j"]
    row = lines[k].split(",")
    row[2] = str(-int(row[2]))
    lines[k] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    assert op.check(out, {}) is not None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "zbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "zbench/run.py", "--workload", "points", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
