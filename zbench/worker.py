"""Run one workload in this process and print its result as a JSON line.

    python3 zbench/worker.py --workload points --seed 1 --seconds 20 --trace 0

run.py starts this in a fresh process per workload with src/ on the path
and one BLAS/OpenMP thread.  Each operation calls zline.cli.main in-process,
so argument checks and output formatting are timed with the numerics.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import ops as workload_ops

HERE = Path(__file__).resolve().parent
# p90 needs at least ten operations beyond it
MIN_OPS = 100
# below MIN_OPS, stop starting rounds after time_cap(seconds)
HARD_CAP_S = 100.0


def time_cap(seconds: float) -> float:
    """No new round starts after this many seconds."""
    return max(HARD_CAP_S, 3.0 * seconds)


def execute(main, op):
    """Run one operation; returns (exit code or exception, stdout, seconds,
    scan retries).  Only the zline calls are inside the timed region."""
    argv = op.argv
    retries = 0
    elapsed = 0.0
    while True:
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        except Exception as exc:  # a crash is a failed operation, not a stop
            code = f"{type(exc).__name__}: {exc}"
        elapsed += time.perf_counter() - start
        if (code == 3 and op.retry_scan
                and retries < workload_ops.SCAN_RETRIES):
            retries += 1
            argv = workload_ops.finer_scan(op.argv, retries)
            continue
        return code, out.getvalue(), elapsed, retries


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 min_ops: int = MIN_OPS, ops_filter=None) -> dict:
    """Repeat whole rounds until `seconds` have passed and at least
    `min_ops` operations ran; returns the result object."""
    import zline.cli
    from coldstart import TABLE_ARGV

    refs = workload_ops.load_refs()
    tmp_dir = HERE / "out" / f"w{os.getpid()}"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    ops = workload_ops.build_round(workload, seed, refs, tmp_dir)
    if ops_filter is not None:
        ops = ops_filter(ops)
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    main = zline.cli.main  # after install, so the traced wrapper when tracing
    try:
        # untimed warm-up, not checked: the calls that build the lazy
        # tables, then the round's first operation
        for op in [workload_ops.Op("warm-up", list(argv), None)
                   for argv in TABLE_ARGV] + ops[:1]:
            execute(main, op)
        if tracer is not None:
            tracer.reset()
        latencies = []
        round_s = []
        failed = 0
        messages = []
        cap = time_cap(seconds)
        start = time.perf_counter()
        rnd = 0
        while True:
            if tracer is not None:
                tracer.round = rnd
            total = 0.0
            for op in ops:
                code, out, dt, retries = execute(main, op)
                total += dt
                latencies.append(dt)
                if tracer is not None and retries:
                    tracer.retries[rnd] = tracer.retries.get(rnd, 0) + retries
                if code != 0:
                    failed += 1
                    messages.append(f"{' '.join(op.argv)}: exit {code}")
                    continue
                problem = op.check(out, op.state)
                if problem is not None:
                    failed += 1
                    messages.append(problem)
            round_s.append(total)
            rnd += 1
            elapsed = time.perf_counter() - start
            if elapsed >= cap or (elapsed >= seconds
                                          and len(latencies) >= min_ops):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(tmp_dir, ignore_errors=True)
    for line in dict.fromkeys(messages):
        sys.stderr.write(f"failed: {line}\n")
    if tracer is not None:
        metrics = tracer.summary(list(range(rnd)))
        tracer.write(HERE / "out" / f"spans-{workload}-{seed}.jsonl")
    else:
        p90 = (statistics.quantiles(latencies, n=10)[8]
               if len(latencies) >= 2 else latencies[0])
        metrics = {
            "wall_s": {"value": statistics.median(round_s), "unit": "s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "op_p90_s": {"value": p90, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    # every input of the pool is one zline handles, so a crash or a
    # non-zero exit is as much a fault as a wrong value
    return {"correct": failed == 0, "attempted": len(latencies),
            "failed": failed, "metrics": metrics,
            "rounds": rnd, "ops_per_round": len(ops),
            "round_s": statistics.median(round_s)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="run one zline benchmark workload")
    ap.add_argument("--workload", choices=workload_ops.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
