"""Reports built from repeated runs of ``run.py``.

    python3 perfbench/compare.py steadiness
    python3 perfbench/compare.py trace

``steadiness`` runs two sets of ten untraced runs of the same code,
alternating between the sets run by run (timings on a shared machine drift
together over minutes, so interleaving gives both sets the same drift).  For
every end-to-end metric and workload it prints each set's median and
quartiles and whether the sets agree within the bounds in
``BENCHMARK.json``: each set's quartile spread within the bound, the medians
within the bound of each other, and the same share of failed configs.  It
also prints the medians of the unscaled round and start-up times, so that a
gain can be checked without the speed factor.

``trace`` alternates three untraced and three traced runs on the same
seeds and prints the per-layer medians of the traced runs and the tracing
overhead (traced minus untraced ``wall_s``).  Both print the machine
description first and write their raw figures as JSON under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SET_SEEDS = {"A": 1000, "B": 2000}
RUNS = 10  # runs per set and workload
TRACE_SEED = 3000
PAIRS = 3  # untraced/traced run pairs per workload


def benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def bench(workload: str, seed: int, trace: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    if proc.returncode != 0:
        print(f"{' '.join(cmd[1:])} exited with {proc.returncode}:\n{proc.stderr}", flush=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return {"correct": False}
    return {**json.loads(lines[-1]), "raw": json.loads(lines[-2].removeprefix("raw: "))}


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def machine() -> dict:
    import numpy
    import scipy

    cpuinfo = _read("/proc/cpuinfo")
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    mem_kb = next((int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
                   if line.startswith("MemTotal")), 0)
    l3 = _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip()
    from run import THREAD_ENV

    return {"cpu": model, "nproc": os.cpu_count(), "l3": l3 or "unknown",
            "ram_gb": round(mem_kb / 2**20, 1), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "threads": THREAD_ENV}


def steadiness(names: list[str]) -> dict:
    spec = benchmark()
    results = {w: {"A": [], "B": []} for w in names}
    for i in range(RUNS):
        for w in names:
            for s in ("A", "B") if i % 2 == 0 else ("B", "A"):
                res = bench(w, SET_SEEDS[s] + i, 0, spec["run_seconds"])
                results[w][s].append(res)
                print(f"run {i} {w} set {s}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in res.get("metrics", {}).items()), flush=True)

    report, all_agree = {}, True
    print("\n| workload | metric | set | median | Q1 | Q3 | spread | bound | medians differ | agree |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for w in names:
        correct = all(r["correct"] for s in "AB" for r in results[w][s])
        if not correct:
            print(f"| {w} | some runs failed; see above | | | | | | | | NO |")
            report[w] = {"correct": False}
            all_agree = False
            continue
        shares = {s: {(r["attempted"], r["failed"]) for r in results[w][s]} for s in "AB"}
        share_ok = len({Fraction(f, a) for pairs in shares.values() for a, f in pairs}) == 1
        report[w] = {"failed_share_equal": share_ok, "correct": correct, "metrics": {}}
        all_agree &= share_ok
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = {}
            for s in "AB":
                values = [r["metrics"][name]["value"] for r in results[w][s]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                stats[s] = {"values": values, "median": med, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / med}
            delta = stats["B"]["median"] / stats["A"]["median"] - 1.0
            spreads_ok = all(stats[s]["spread"] <= bound for s in "AB")
            agree = spreads_ok and abs(delta) <= bound
            all_agree &= agree
            report[w]["metrics"][name] = {**stats, "median_delta": delta, "bound": bound, "agree": agree}
            for s in "AB":
                st = stats[s]
                print(f"| {w} | {name} | {s} | {st['median']:.4g} | {st['q1']:.4g} | {st['q3']:.4g} "
                      f"| {st['spread']:.3f} | {bound} | {delta:+.3f} | {'yes' if agree else 'NO'} |")
        print(f"| {w} | failed share | A, B | {sorted(shares['A'])} | | | | | {sorted(shares['B'])} "
              f"| {'yes' if share_ok else 'NO'} |")
    print("\nUnscaled medians (round time, start-up time), not gated:")
    for w in names:
        if report[w]["correct"]:
            raw = {s: (statistics.median(statistics.median(r["raw"]["round_walls_s"]) for r in results[w][s]),
                       statistics.median(statistics.median(r["raw"]["setup_starts_s"]) for r in results[w][s]))
                   for s in "AB"}
            report[w]["raw_medians"] = raw
            print(f"{w}: " + ", ".join(f"set {s} round {raw[s][0]:.4g} s, start-up {raw[s][1]:.4g} s" for s in "AB"))
    print(f"\nall metrics agree: {all_agree}")
    return {"runs": RUNS, "agree": all_agree, "workloads": report}


def trace_report(names: list[str]) -> dict:
    spec = benchmark()
    report = {}
    for w in names:
        plain, traced = [], []
        for i in range(PAIRS):
            for t in (0, 1) if i % 2 == 0 else (1, 0):
                res = bench(w, TRACE_SEED + i, t, spec["run_seconds"])
                (traced if t else plain).append(res)
        wall = statistics.median(r["metrics"]["wall_s"]["value"] for r in plain)
        traced_wall = statistics.median(r["metrics"]["trace.wall_s"]["value"] for r in traced)
        layers = {m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for r in traced)
                  for m in spec["per_layer"]}
        report[w] = {"wall_s": wall, "traced_wall_s": traced_wall,
                     "overhead_s": traced_wall - wall, "per_layer": layers}
        print(f"{w}: untraced wall_s {wall:.3f} s, traced {traced_wall:.3f} s, "
              f"overhead {traced_wall - wall:+.3f} s ({(traced_wall / wall - 1) * 100:+.1f} %)", flush=True)

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print("\n| metric | unit | " + " | ".join(names) + " |")
    print("|---|---|" + "---|" * len(names))
    for name, unit in units.items():
        print(f"| `{name}` | {unit} | " + " | ".join(f"{report[w]['per_layer'][name]:.4g}" for w in names) + " |")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("steadiness")
    sub.add_parser("trace")
    args = parser.parse_args(argv)

    names = [w["name"] for w in benchmark()["workloads"]]
    info = machine()
    print("machine: " + json.dumps(info), flush=True)
    if args.command == "steadiness":
        report = steadiness(names)
    else:
        report = trace_report(names)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.command}.json", "w") as fh:
        json.dump({"machine": info, **report}, fh, indent=1)
    return 0 if args.command != "steadiness" or report["agree"] else 1


if __name__ == "__main__":
    sys.exit(main())
