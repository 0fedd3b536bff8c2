"""Calibration kernel: fixed work of the benchmark's own whose time follows the machine's speed drift.

    python3 perfbench/calibrate.py --seconds 2

Runs a sparse LU of a 160 x 160 grid Laplacian, streaming arithmetic on
arrays of 4 M doubles and a pure-Python loop, chunk after chunk, for the
given time after one untimed warm-up chunk, and prints the mean chunk time
in seconds.  ``measure`` runs it in a fresh interpreter, so that nothing the
program under test leaves in a process (heap, allocator state, imports) can
reach the speed factor.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SECONDS = 2.0


def chunk_seconds(seconds: float) -> float:
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = 160
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    matrix = (sp.kron(sp.eye(n), lap) + sp.kron(lap, sp.eye(n))).tocsc()
    values = np.random.default_rng(0).random(4_000_000)
    out = np.empty_like(values)

    def chunk() -> None:
        spla.splu(matrix).solve(np.ones(matrix.shape[0]))
        for _ in range(5):
            np.multiply(values, 1.0001, out=out)
            np.add(out, values, out=out)
        total = 0
        for i in range(100_000):
            total += i * i

    chunk()
    chunks = 0
    t0 = perf_counter()
    while perf_counter() - t0 < seconds:
        chunk()
        chunks += 1
    return (perf_counter() - t0) / chunks


def measure(env: dict, seconds: float = SECONDS) -> float:
    """Mean chunk time of the kernel, run in a fresh interpreter with ``env``."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--seconds", str(seconds)],
                          capture_output=True, text=True, env=env, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"calibration process exited with code {proc.returncode}: {proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seconds", type=float, default=SECONDS)
    args = parser.parse_args(argv)
    print(repr(chunk_seconds(args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
