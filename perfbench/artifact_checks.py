"""Output checks computed from a config's CSV artifacts.

Each check recomputes a quantity from the written files with code of its
own (element gradients by solving the edge system, P1 assembly by
``bincount``) or tests a property that the method must have.  Only the
coefficient field, an input, comes from the program's generator.  Every
function returns a list of failure messages; an empty list means the
artifacts pass.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

# The direct solver accepts a relative residual up to max(tolerance, 1e-8).
SOLVER_REL_TOL = 1e-8
# Quantities that are exact in exact arithmetic, up to rounding.
EXACT_TOL = 1e-9

ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


def read_table(path: Path) -> np.ndarray:
    """Numeric CSV body as a float array (the header row is skipped)."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_mesh(run_dir: Path) -> tuple[np.ndarray, np.ndarray]:
    verts = read_table(run_dir / "vertices.csv")[:, 1:3]
    tris = read_table(run_dir / "triangles.csv")[:, 1:4].astype(np.int64)
    return verts, tris


def edge_inverse(verts: np.ndarray, tris: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-triangle inverse of the edge matrix [p1 - p0; p2 - p0] and the area.

    The gradient g of a linear function with values f0, f1, f2 solves
    E g = (f1 - f0, f2 - f0), so g = E^-1 (f1 - f0, f2 - f0).
    """
    p = verts[tris]
    edges = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=1)
    det = edges[:, 0, 0] * edges[:, 1, 1] - edges[:, 0, 1] * edges[:, 1, 0]
    inv = np.empty_like(edges)
    inv[:, 0, 0] = edges[:, 1, 1]
    inv[:, 1, 1] = edges[:, 0, 0]
    inv[:, 0, 1] = -edges[:, 0, 1]
    inv[:, 1, 0] = -edges[:, 1, 0]
    return inv / det[:, None, None], 0.5 * det


def gradients(inv: np.ndarray, tris: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(nt, 2) gradients of the P1 interpolant of nodal ``values``."""
    f = values[tris]
    return np.einsum("tab,tb->ta", inv, f[:, 1:] - f[:, :1])


def hat_gradients(inv: np.ndarray) -> np.ndarray:
    """(nt, 3, 2) gradients of the three barycentric coordinates."""
    g1, g2 = inv[:, :, 0], inv[:, :, 1]
    return np.stack([-g1 - g2, g1, g2], axis=1)


def weak_action(hats, areas, dofs, n_dofs, mats, grad) -> np.ndarray:
    """sum_e area_e grad(phi_i) . sigma_e grad_e, assembled per dof i."""
    flux = np.einsum("tab,tb->ta", mats, grad)
    contrib = areas[:, None] * np.einsum("tia,ta->ti", hats, flux)
    return np.bincount(dofs.ravel(), weights=contrib.ravel(), minlength=n_dofs)


def coefficient_matrices(config: dict, verts: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """The input coefficient field, from the program's own generator."""
    from beltramilab.coefficients import random_piecewise_field
    from beltramilab.grid import TriMesh

    spec = config["coefficient"]
    mesh = TriMesh(vertices=verts, triangles=tris, boundary_loop=np.zeros(0, dtype=np.int64))
    field = random_piecewise_field(mesh, float(spec["k_max"]), int(spec["cells"]),
                                   seed=int(config["seed"]), symmetric=bool(spec["symmetric"]))
    return field.matrices


def _rel(a: float, b: float) -> float:
    return abs(a) / b if b > 0 else abs(a)


def check_primary_pair(config: dict, run_dir: Path) -> list[str]:
    """Coordinate boundary data, weak residual, Jacobian, image area, stream means."""
    problems = []
    verts, tris = read_mesh(run_dir)
    pair = read_table(run_dir / "pair.csv")
    det_csv = read_table(run_dir / "det.csv")[:, 3]
    u1, ut1, u2, ut2 = (pair[:, k] for k in range(3, 7))
    x, y = verts[:, 0], verts[:, 1]

    on_boundary = (x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 1.0)
    gap = max(np.abs(u1[on_boundary] - x[on_boundary]).max(),
              np.abs(u2[on_boundary] - y[on_boundary]).max())
    if gap > 1e-12:
        problems.append(f"boundary data differs from (x, y) by {gap:.3e}")

    inv, areas = edge_inverse(verts, tris)
    hats = hat_gradients(inv)
    mats = coefficient_matrices(config, verts, tris)
    nv = len(verts)
    for name, u in (("u1", u1), ("u2", u2)):
        residual = weak_action(hats, areas, tris, nv, mats, gradients(inv, tris, u))
        u_bdry = np.where(on_boundary, u, 0.0)
        rhs = weak_action(hats, areas, tris, nv, mats, gradients(inv, tris, u_bdry))
        rel = _rel(np.linalg.norm(residual[~on_boundary]), np.linalg.norm(rhs[~on_boundary]))
        if not rel <= SOLVER_REL_TOL:
            problems.append(f"{name}: relative weak residual {rel:.3e} above {SOLVER_REL_TOL}")

    g1, g2 = gradients(inv, tris, u1), gradients(inv, tris, u2)
    det = g1[:, 0] * g2[:, 1] - g1[:, 1] * g2[:, 0]
    scale = np.linalg.norm(g1, axis=1) * np.linalg.norm(g2, axis=1)
    det_gap = float(np.max(np.abs(det_csv - det) / scale))
    if not det_gap <= EXACT_TOL:
        problems.append(f"det.csv differs from the determinant of pair.csv by {det_gap:.3e} (relative)")
    if not np.all(det_csv > 0.0):
        problems.append(f"det.csv has {int(np.sum(~(det_csv > 0.0)))} non-positive values")
    image_area = float(np.dot(det_csv, areas))
    if not abs(image_area - 1.0) <= EXACT_TOL:
        problems.append(f"sum det * area = {image_area!r}, expected 1")

    total = areas.sum()
    for name, u, ut in (("ut1", u1, ut1), ("ut2", u2, ut2)):
        target = np.einsum("tab,tb->ta", mats, gradients(inv, tris, u)) @ ROT90.T
        mean_target = areas @ target / total
        mean_stream = areas @ gradients(inv, tris, ut) / total
        mean_gap = float(np.abs(mean_stream - mean_target).max())
        if not mean_gap <= EXACT_TOL:
            problems.append(f"{name}: mean gradient differs from mean rotated flux by {mean_gap:.3e}")
    return problems


def check_cell(config: dict, run_dir: Path) -> list[str]:
    """Periodic jumps, Jacobian mass det A, positivity, weak residual on the torus."""
    problems = []
    A = np.asarray(config["diagnostics"]["affine_part"], dtype=float)
    verts, tris = read_mesh(run_dir)
    U = read_table(run_dir / "cell_map.csv")[:, 3:5]
    n = int(config["resolution"])
    ij = np.rint(verts * n).astype(np.int64)
    key = {(int(i), int(j)): v for v, (i, j) in enumerate(ij)}

    for k in range(2):
        src, dst = [], []
        for (i, j), v in key.items():
            if (k == 0 and i == 0) or (k == 1 and j == 0):
                src.append(v)
                dst.append(key[(n, j)] if k == 0 else key[(i, n)])
        jump = U[dst] - U[src]
        gap = float(np.abs(jump - A[:, k]).max())
        if not gap <= EXACT_TOL:
            problems.append(f"U(x + e{k + 1}) - U(x) differs from A e{k + 1} by {gap:.3e}")

    inv, areas = edge_inverse(verts, tris)
    grads = [gradients(inv, tris, U[:, c]) for c in range(2)]
    det = grads[0][:, 0] * grads[1][:, 1] - grads[0][:, 1] * grads[1][:, 0]
    mass = float(np.dot(det, areas))
    det_a = float(np.linalg.det(A))
    if not abs(mass - det_a) <= EXACT_TOL * abs(det_a):
        problems.append(f"sum det * area = {mass!r}, expected det A = {det_a!r}")
    if not np.all(det > 0.0):
        problems.append(f"Jacobian non-positive on {int(np.sum(~(det > 0.0)))} triangles")

    dofs = ((ij[:, 1] % n) * n + (ij[:, 0] % n))[tris]
    hats = hat_gradients(inv)
    mats = coefficient_matrices(config, verts, tris)
    for c in range(2):
        residual = weak_action(hats, areas, dofs, n * n, mats, grads[c])
        rhs = weak_action(hats, areas, dofs, n * n, mats, np.broadcast_to(A[c], grads[c].shape))
        rel = _rel(np.linalg.norm(residual), np.linalg.norm(rhs))
        if not rel <= SOLVER_REL_TOL:
            problems.append(f"u{c + 1}: relative weak residual on the torus {rel:.3e} above {SOLVER_REL_TOL}")
    return problems


def check_diagnose(config: dict, run_dir: Path, row: dict) -> list[str]:
    """Square statistics against the sweep row: means, Jensen, BMO, reverse Hoelder."""
    problems = []
    stats = [r for r in read_rows(run_dir / "square_stats.csv") if int(r["n_elements"]) > 0]
    level0 = [r for r in stats if int(r["level"]) == 0]
    if len(level0) != 1 or not abs(float(level0[0]["mean_w"]) - 1.0) <= EXACT_TOL:
        problems.append(f"level-0 mean_w is {[r['mean_w'] for r in level0]}, expected 1")
    for r in stats:
        mean_w, mean_w2, osc = float(r["mean_w"]), float(r["mean_w2"]), float(r["log_oscillation"])
        if not mean_w2 >= mean_w * mean_w * (1.0 - 1e-12):
            problems.append(f"square {r['square']}: mean_w2 {mean_w2!r} < mean_w^2 {mean_w * mean_w!r}")
        if not osc >= 0.0:
            problems.append(f"square {r['square']}: log_oscillation {osc!r} < 0")
    admissible = [float(r["log_oscillation"]) for r in stats if int(r["too_few"]) == 0]
    bmo = float(row["bmo_log_det"])
    if not admissible or bmo != max(admissible):
        problems.append(f"bmo_log_det {bmo!r} is not the largest admissible log_oscillation")
    rh = float(row["rh_det_dv"])
    if not rh >= 1.0:
        problems.append(f"rh_det_dv {rh!r} < 1")
    min_det = float(row["min_det"])
    if not min_det > 0.0:
        problems.append(f"min_det {min_det!r} is not positive")
    return problems


def check_config(config: dict, run_dir: Path, row: dict) -> list[str]:
    """Dispatch on the task of a config that the sweep reported as ``ok``."""
    task = config["task"]
    if task == "primary-pair":
        return check_primary_pair(config, run_dir)
    if task == "cell":
        return check_cell(config, run_dir)
    if task == "diagnose":
        return check_diagnose(config, run_dir, row)
    raise ValueError(f"no output check for task {task!r}")
