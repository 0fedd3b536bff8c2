"""Benchmark entry point.

    python3 perfbench/run.py --workload pair-256 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  It runs the workload in a fresh process
with one BLAS/OpenMP thread and prints the end-to-end metrics; untraced, it
also times interpreter start-up to ``import beltramilab.cli`` in fresh
interpreters before and after the workload process, and reports the
median.  With ``--trace 1`` the workload process wraps the program's
public functions (see ``spans.py``) and the per-layer metrics are printed
instead.  The calibration kernel (``calibrate.py``)
runs in a fresh interpreter before and after all that, and the times are
scaled to a reference machine speed by its two runs.  The line before the
last is ``raw: `` and a JSON object with the unscaled times; the last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Start-ups timed before the workload process and again after it: start-up
# time swings by 10-20 % over seconds, so samples apart in time average better.
SETUP_STARTS = 5
# The per-layer metrics and their units: those of the spans, and the traced round time.
PER_LAYER_UNITS = {**spans.UNITS, "trace.wall_s": "s"}
# Calibration chunk time (see calibrate.py) that defines reference speed.
REFERENCE_CHUNK_S = 0.2
WORKER_TIMEOUT_S = 150
# The configuration under which reruns are byte-identical.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
IMPORT_SNIPPET = "import sys, beltramilab.cli; sys.stdout.write('imported\\n'); sys.stdout.flush()"


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def time_import(env: dict) -> float:
    """Seconds from spawning an interpreter until it has imported ``beltramilab.cli``."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", IMPORT_SNIPPET], stdout=subprocess.PIPE,
                            env=env, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.close()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line != b"imported\n" or code != 0:
        raise RuntimeError(f"import of beltramilab.cli failed (exit code {code})")
    return elapsed


def setup_starts(env: dict) -> list[float]:
    """Start-up times of ``SETUP_STARTS`` fresh interpreters."""
    return [time_import(env) for _ in range(SETUP_STARTS)]


def run_worker(args, env: dict) -> dict:
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    if not args.trace:
        out.rmdir()  # the worker removes each round's artifacts; only traced runs leave spans
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "beltramilab" / "cli.py").is_file():
        print(f"no program source at {SRC / 'beltramilab'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = child_env()
    try:
        before = calibrate.measure(env)
        if args.trace:
            starts, res = [], run_worker(args, env)
        else:
            time_import(env)  # untimed: fills the bytecode cache
            starts = setup_starts(env)
            res = run_worker(args, env)
            starts += setup_starts(env)
        after = calibrate.measure(env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    problems = list(res["problems"])
    # The host's speed drifts over minutes, so one factor serves the whole run; a
    # kernel run also swings by about 10 % from second to second, which the two
    # runs average.
    speed = 2 * REFERENCE_CHUNK_S / (before + after)
    wall_s = statistics.median(res["walls"]) * speed
    raw = {"round_walls_s": res["walls"], "calibration_chunk_s": [before, after]}
    if args.trace:
        problems += res["trace_problems"]
        per_layer = {**res["per_layer"], "trace.wall_s": wall_s}
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    else:
        setup_s = statistics.median(starts) * speed
        raw["setup_starts_s"] = starts
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": res["maxrss_kb"] / 1024.0, "unit": "MB"},
        }
    for p in problems[:20]:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    print(f"{args.workload}: {res['rounds']} rounds, {res['attempted']} configs attempted, "
          f"{res['failed']} failed")
    print("raw: " + json.dumps(raw))
    print(json.dumps({"correct": not problems, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
