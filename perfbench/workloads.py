"""Workload definitions: the configs of one round, derived from the workload seed.

A run repeats whole rounds, each one ``cli.sweep`` call over the configs that
``round_configs`` returns.  Each pooled config slot takes its coefficient seed
from a pool, at the index ``SeedSequence([workload_seed, round, slot])``
picks, so the same workload seed gives the same inputs on every platform and
every round of a run sees other coefficients of the same size and make-up.

The pools hold the first coefficient seeds from 1000 upward whose run passes.
The draws known to hit a Jacobian fault are not in the pools but in fixed
slots of their own, in every round whatever the workload seed: they fail
every time, so every run counts the same share of failed configs, and a fix
of a fault shows as fewer failed configs.  ``KNOWN_FAULTS`` lists them.
"""

from __future__ import annotations

import numpy as np

K_MAX = 5.0
CELLS = 4
CELL_AFFINE_PART = [[2.0, 0.5], [0.3, 1.0]]

# Non-symmetric seed whose sigma-harmonic map U has a negative Jacobian on one
# triangle at a coefficient-block corner on the boundary (-0.38 at resolution
# 64, -0.94 at 256, on both domains).
PAIR_FAULT_SEED = 1008
NONSYMMETRIC_POOL = tuple(s for s in range(1000, 1033) if s != PAIR_FAULT_SEED)
SYMMETRIC_POOL = tuple(range(1000, 1032))
# The resolution-256 workloads were checked on the first twelve seeds only.
RES256_POOL = NONSYMMETRIC_POOL[:12]
# The fixed fault configs of the resolution-256 workloads run at this
# resolution: the fault is there too, at a small share of the round's time.
FAULT_RESOLUTION = 64

INJECTIVITY_FAULT = "coordinate map is not locally injective"
WEIGHT_FAULT = "weight must be positive"
# (task, domain, symmetric, seed) -> the error text the sweep row carries, or
# None where the run ends with ``invariant_failed`` and a negative ``min_det``.
# The injectivity fault: the recovered stream function of u1 gives a
# non-positive Jacobian on one boundary triangle, so change_coordinates raises.
KNOWN_FAULTS = {
    ("primary-pair", "unit_square", False, PAIR_FAULT_SEED): None,
    ("cell", "periodic_cell", False, PAIR_FAULT_SEED): None,
    ("diagnose", "unit_square", False, 106): INJECTIVITY_FAULT,
    ("diagnose", "unit_square", False, PAIR_FAULT_SEED): WEIGHT_FAULT,
    ("diagnose", "unit_square", True, 196): INJECTIVITY_FAULT,
    ("diagnose", "unit_square", True, 199): INJECTIVITY_FAULT,
    ("diagnose", "periodic_cell", True, 2222187949): INJECTIVITY_FAULT,
}

# (domain, symmetric, pool); a pool of one fixed seed does not follow the workload seed.
DIAGNOSE_SLOTS = (
    ("unit_square", False, (106,)),
    ("periodic_cell", False, NONSYMMETRIC_POOL),
    ("unit_square", True, SYMMETRIC_POOL),
    ("periodic_cell", True, SYMMETRIC_POOL),
    ("unit_square", False, NONSYMMETRIC_POOL),
    ("periodic_cell", False, NONSYMMETRIC_POOL),
    ("unit_square", False, (PAIR_FAULT_SEED,)),
    ("unit_square", True, (196,)),
    ("unit_square", True, (199,)),
    ("periodic_cell", True, (2222187949,)),
)

WORKLOADS = ("pair-256", "cell-256", "diagnose-sweep-64")


def pool_seed(pool: tuple[int, ...], workload_seed: int, round_index: int, slot: int) -> int:
    """The coefficient seed of one config slot in one round."""
    word = np.random.SeedSequence([workload_seed, round_index, slot]).generate_state(1)[0]
    return pool[int(word) % len(pool)]


def make_config(task: str, domain: str, resolution: int, seed: int, symmetric: bool, label: str,
                diagnostics: dict | None = None) -> dict:
    cfg = {
        "task": task,
        "label": label,
        "domain": domain,
        "resolution": resolution,
        "seed": seed,
        "coefficient": {"family": "random_piecewise", "k_max": K_MAX, "cells": CELLS,
                        "symmetric": symmetric},
        "solver": {"method": "direct_lu", "tolerance": 1e-10},
    }
    if diagnostics is not None:
        cfg["diagnostics"] = diagnostics
    return cfg


def round_configs(workload: str, workload_seed: int, round_index: int) -> list[dict]:
    """The configs of round ``round_index``; one list is one ``cli.sweep`` call."""
    if workload == "pair-256":
        seed = pool_seed(RES256_POOL, workload_seed, round_index, 0)
        return [make_config("primary-pair", "unit_square", res, seed, False, f"pair-{res}-{seed}")
                for res, seed in ((256, seed), (FAULT_RESOLUTION, PAIR_FAULT_SEED))]
    if workload == "cell-256":
        seed = pool_seed(RES256_POOL, workload_seed, round_index, 0)
        return [make_config("cell", "periodic_cell", res, seed, False, f"cell-{res}-{seed}",
                            {"affine_part": CELL_AFFINE_PART})
                for res, seed in ((256, seed), (FAULT_RESOLUTION, PAIR_FAULT_SEED))]
    if workload == "diagnose-sweep-64":
        configs = []
        for slot, (domain, symmetric, pool) in enumerate(DIAGNOSE_SLOTS):
            seed = pool_seed(pool, workload_seed, round_index, slot)
            kind = "sym" if symmetric else "nonsym"
            configs.append(make_config("diagnose", domain, 64, seed, symmetric,
                                       f"{domain}-{kind}-{seed}", {"max_level": 5}))
        return configs
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def expected_fault(config: dict, row: dict) -> bool:
    """Did this config fail the way its entry in ``KNOWN_FAULTS`` says it fails every time?"""
    key = (config["task"], config["domain"], config["coefficient"]["symmetric"], config["seed"])
    if key not in KNOWN_FAULTS:
        return False
    message = KNOWN_FAULTS[key]
    if message is None:
        return row["status"] == "invariant_failed" and float(row["min_det"]) < 0.0
    return row["status"] == "error" and message in row["error"]
