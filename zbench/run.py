"""zline benchmark: one command, three workloads, each in its own process.

    python3 zbench/run.py --workload points|integral|grids|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}: with --trace 0
the end-to-end metrics, with --trace 1 the per-layer ones.  With
--workload all the workloads run one after another and the metrics are
named <workload>.<metric>.  See zbench/README.md.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import time_cap

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("points", "integral", "grids")
COLD_STARTS = 12
# the last round may start just before the worker's time cap
WORKER_MARGIN_S = 60.0
COLD_TIMEOUT_S = 60.0
# one thread for every BLAS/OpenMP runtime numpy may load
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "BLIS_NUM_THREADS")


def _env() -> dict:
    env = dict(os.environ)
    for name in THREAD_VARS:
        env[name] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def cold_starts(env: dict, count: int) -> list:
    """Wall times of `count` fresh interpreters that import zline and build
    its lazy tables, after one untimed start."""
    cmd = [sys.executable, str(HERE / "coldstart.py")]
    samples = []
    for k in range(count + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT,
                                stdout=subprocess.DEVNULL)
        # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
        # which would quantize the sample; the timer enforces the timeout
        killer = threading.Timer(COLD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"cold start exited {code}")
        if k:
            samples.append(elapsed)
    return samples


def run_one(workload: str, seed: int, seconds: int, trace: int,
            env: dict) -> dict:
    # half the cold starts before the workload and half after it, so that
    # set-up is sampled across the run, never while the workload runs
    setup = [] if trace else cold_starts(env, COLD_STARTS // 2)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT,
                          timeout=time_cap(seconds) + WORKER_MARGIN_S,
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not trace:
        setup += cold_starts(env, COLD_STARTS - COLD_STARTS // 2)
        result["metrics"]["setup_s"] = {"value": statistics.median(setup),
                                        "unit": "s"}
    print(f"{workload}: {result['rounds']} rounds of {result['ops_per_round']} "
          f"operations, median round {result['round_s']:.4f} s"
          f"{' traced' if trace else ''}, {result['failed']} of "
          f"{result['attempted']} failed", flush=True)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="zline benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    missing = [p for p in (ROOT / "src" / "zline" / "__init__.py",
                           HERE / "data" / "refs.json") if not p.is_file()]
    if missing:
        sys.stderr.write(f"zbench: missing {', '.join(map(str, missing))}; "
                         "run from the root of a zline checkout\n")
        return 2
    compileall.compile_dir(str(ROOT / "src" / "zline"), quiet=1)
    env = _env()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds,
                                    args.trace, env)
    except (RuntimeError, subprocess.SubprocessError, ValueError,
            IndexError) as exc:
        sys.stderr.write(f"zbench: {exc}\n")
        return 1
    if len(names) == 1:
        res = results[names[0]]
        metrics = res["metrics"]
    else:
        metrics = {f"{name}.{key}": val for name, res in results.items()
                   for key, val in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
