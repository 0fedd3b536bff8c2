"""Workload process: whole rounds of ``cli.sweep`` for a fixed time, every artifact checked.

Started by ``run.py`` in a fresh interpreter with one BLAS/OpenMP thread and
the checkout's ``src`` first on the path.  Prints one JSON object on its
last stdout line: round wall times, configs attempted and failed, check
problems, peak RSS and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

import artifact_checks
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="scratch directory for the artifacts")
    args = parser.parse_args(argv)

    from beltramilab import cli

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer().install()

    out = Path(args.out)
    walls, problems = [], []
    attempted = failed = 0
    start = perf_counter()
    round_index = 0
    while round_index == 0 or perf_counter() - start < args.seconds:
        configs = workloads.round_configs(args.workload, args.seed, round_index)
        round_dir = out / f"round_{round_index:03d}"
        t0 = perf_counter()
        aggregate = cli.sweep(configs, round_dir)
        walls.append(perf_counter() - t0)
        rows = artifact_checks.read_rows(aggregate)
        for i, (config, row) in enumerate(zip(configs, rows, strict=True)):
            attempted += 1
            where = f"round {round_index} config {i} ({config['label']})"
            if row["status"] != "ok":
                failed += 1
                if not workloads.expected_fault(config, row):
                    problems.append(f"{where}: unexpected {row['status']}: {row['error']}")
                continue
            problems += [f"{where}: {p}" for p in
                         artifact_checks.check_config(config, round_dir / f"run_{i:03d}", row)]
        shutil.rmtree(round_dir)
        round_index += 1

    result = {
        "rounds": round_index,
        "walls": walls,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(out / "spans.json")
        result["per_layer"], result["trace_problems"] = spans.per_layer_metrics(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
