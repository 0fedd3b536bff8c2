"""Config-driven experiment runner.

A run is described by a JSON document (normative field names: task,
domain, resolution, coefficient, boundary, solver, seed, output_dir,
diagnostics) and produces CSV artifacts plus a machine-readable run
record listing every asserted invariant with its pass/fail state.  Verbs:

    convert | solve | primary-pair | cell | homogenize | diagnose | sweep

All randomness flows through one explicit seed and a counter-based
generator, artifacts are written with full-precision repr floats in a
fixed order, and every area-weighted sum runs in numpy's own order
(``grid.integrate``, ``grid.row_dots``), so reruns with the same config are
bit-identical, at 2 BLAS threads as at 1.  Exit code 0 only when every
asserted invariant passes (for a sweep: when every row is ``ok``).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import operator
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import coefficients as coeff
from .coeff_algebra import (
    BeltramiPair,
    K_of_beltrami,
    astala_exponent,
    beltrami_from_sigma,
    beltrami_from_sigma_batch,
    ellipticity_constants,
    sigma_from_beltrami,
    tau_bound_oracle,
    tau_ellipticity_bound,
)
from .elliptic_solver import (
    RESIDUAL_GATE,
    interior_residual,
    solve_dirichlet,
)
from .errors import ConfigError
from .grid import (
    build_mesh,
    dyadic_squares,
    element_gradient,
    export_element_values_csv,
    export_triangles_csv,
    export_vertex_values_csv,
    export_vertices_csv,
    write_csv,
)
from .homogenization import (
    cell_complex_map,
    cell_map,
    effective_conductivity,
    image_area,
    mean_matrices,
)
from .sigma_harmonic import (
    PlanarMap,
    beltrami_residual,
    change_coordinates,
    check_convex_domain,
    equival_residual,
    injectivity_check,
    primary_pair,
    sigma_harmonic_map,
    unimodality_check,
    wirtinger_exact,
)
from .weights_diagnostics import (
    ainfty_probe,
    bmo_norm,
    higher_integrability_probe,
    quantitative_jacobian_check,
    random_subset_sampler,
    reverse_holder_constant,
    square_stats,
)

log = logging.getLogger(__name__)

TASKS = ("convert", "solve", "primary-pair", "cell", "homogenize", "diagnose")
REQUIRED = object()  # the default of a key a config must give
_AB = {"a": (REQUIRED, ()), "b": (REQUIRED, ())}
# Every key a config may hold, per section ("" is the top level): key -> (default or REQUIRED,
# check). A check is the shape of the finite numbers the value must be (() one number, None a
# list of any length), int, bool or str for that exact JSON type, or None. Any other key is an
# error. The tagged sections pick their table by family, kind or task; "sweep" is the table of a
# sweep document.
CONFIG_KEYS = {
    "": {"task": (REQUIRED, str), "label": ("", None), "domain": ("unit_square", None),
         "resolution": (16, int), "coefficient": (None, None), "boundary": (None, None),
         "solver": ({}, None), "seed": (None, int), "output_dir": ("out", str),
         "diagnostics": ({}, None)},
    "domain": {"regular_ngon": {"sides": (REQUIRED, int), "radius": (REQUIRED, ())}},
    "coefficient": {
        "constant": {"matrix": (REQUIRED, (2, 2))},
        "laminate": {**_AB, "direction": ("x1", None), "fraction": (0.5, ())},
        "checkerboard": _AB, "hall": _AB,
        "hall_laminate": {"c": (REQUIRED, ()), "direction": ("x1", None)},
        "random_piecewise": {"k_max": (5.0, ()), "cells": (4, int), "symmetric": (False, bool)},
        "explicit": {"table": (REQUIRED, (None, 2, 2)), "cells": (REQUIRED, int)},
        "beltrami": {"mu": (REQUIRED, (2,)), "nu": (REQUIRED, (2,))},
    },
    # only these tasks read boundary data, each its own kinds
    "boundary": {"solve": {"affine": {"coefficients": (REQUIRED, (3,))}, "samples": {"values": (REQUIRED, (None,))}},
                 "primary-pair": {"polygon_trace": {"vertices": (REQUIRED, (None, 2))}}},
    "solver": {"method": ("direct_lu", None), "tolerance": (1e-10, ())},
    "diagnostics": {
        "convert": {}, "solve": {}, "primary-pair": {},
        "cell": {"affine_part": ([[1, 0], [0, 1]], (2, 2))}, "homogenize": {},
        "diagnose": {"max_level": (4, int)},
    },
    "sweep": {"sweep": (REQUIRED, None), "output_dir": ("sweep_out", str)},
}
# Tasks that need one kind of domain: (periodic, message when it is the other kind).
DOMAIN_NEEDS = {
    "primary-pair": (False, "primary-pair needs a bounded convex domain"),
    "cell": (True, "cell task needs domain 'periodic_cell'"),
    "homogenize": (True, "homogenize needs domain 'periodic_cell'"),
}

# Errors a run reports instead of raising: ConfigError, NonEllipticError and the
# other ValueErrors of bad input, SolverError and MeshBudgetError.
_RUN_ERRORS = (ValueError, RuntimeError)

# Sweep column -> the path of its value in a run record's metrics; a run without it leaves the cell empty.
SWEEP_METRICS = {
    "min_det": ("min_det",), "equival_max": ("equival_max",),
    "s_eff_11": ("sigma_eff", 0, 0), "s_eff_12": ("sigma_eff", 0, 1),
    "s_eff_21": ("sigma_eff", 1, 0), "s_eff_22": ("sigma_eff", 1, 1),
    "bmo_log_det": ("bmo_log_det",), "c_upper": ("ainfty", "c_upper"), "delta": ("ainfty", "delta"),
    "m_lower": ("ainfty", "m_lower"), "eta": ("ainfty", "eta"), "rh_det_dv": ("rh_det_dv_exp2",),
}
SWEEP_COLUMNS = ["index", "label", "task", "status", "error", "resolution", "seed", *SWEEP_METRICS]


@dataclass
class ExperimentConfig:
    """A checked config: its sections as ``from_dict`` completed them, and ``raw`` as given."""

    task: str
    domain: object
    resolution: int
    seed: int | None
    coefficient: dict
    boundary: dict | None
    output_dir: str
    diagnostics: dict
    raw: dict = field(repr=False)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        top = _section("", raw, CONFIG_KEYS[""])
        task = top["task"]
        if task not in TASKS:
            raise ConfigError("task", f"must be one of {TASKS}, got {task!r}")
        domain = top["domain"]
        if isinstance(domain, dict):
            domain = _section("domain", domain, CONFIG_KEYS["domain"], tag="kind")
            domain = ("regular_ngon", domain["sides"], float(domain["radius"]))
        elif domain not in ("unit_square", "periodic_cell"):
            raise ConfigError("domain", f"unknown domain {domain!r}")

        if top["resolution"] < 2:
            raise ConfigError("resolution", f"must be an integer >= 2, got {top['resolution']!r}")

        families = CONFIG_KEYS["coefficient"]
        if task == "convert":  # convert reads one matrix, given as itself or as a Beltrami pair
            families = {f: families[f] for f in ("constant", "beltrami")}
        coefficient = _section("coefficient", top["coefficient"], families, tag="family")
        family = coefficient["family"]
        if family == "beltrami" and task != "convert":
            raise ConfigError("coefficient.family", f"family 'beltrami' is read only by the convert task, not {task}")
        seed = top["seed"]
        if family == "random_piecewise":  # its builder's seed is the run's
            if seed is None:
                raise ConfigError("seed", f"a seed is mandatory for the {family} family")
            coefficient["seed"] = seed

        diagnostics = _section("diagnostics", top["diagnostics"], CONFIG_KEYS["diagnostics"][task])

        # Every solve is one sparse LU, gated at the fixed RESIDUAL_GATE; the section only
        # confirms that, and a looser tolerance would be misread as loosening the gate.
        solver = _section("solver", top["solver"], CONFIG_KEYS["solver"])
        if solver["method"] != "direct_lu":
            raise ConfigError("solver.method", f"only 'direct_lu' is accepted (the iterative solver was removed), "
                                               f"got {solver['method']!r}")
        tolerance = solver["tolerance"]
        if not 0 < tolerance <= RESIDUAL_GATE:
            raise ConfigError("solver.tolerance", f"must lie in (0, {RESIDUAL_GATE:g}]: every solve meets the "
                                                  f"fixed relative residual gate {RESIDUAL_GATE:g}, got {tolerance!r}")

        boundary = top["boundary"]
        if boundary is not None:
            if task not in CONFIG_KEYS["boundary"]:
                raise ConfigError("boundary", f"read only by the {' and '.join(CONFIG_KEYS['boundary'])} tasks, "
                                              f"not {task}")
            boundary = _section("boundary", boundary, CONFIG_KEYS["boundary"][task], tag="kind")

        return cls(task=task, domain=domain, resolution=top["resolution"], seed=seed, coefficient=coefficient,
                   boundary=boundary, output_dir=top["output_dir"], diagnostics=diagnostics, raw=raw)


_TYPE_NAMES = {int: "an integer", bool: "true or false", str: "a string"}


def _section(name: str, entries, keys: dict, tag: str | None = None) -> dict:
    """Check one config section against its table of keys; return a copy with the defaults filled in.

    With a ``tag``, ``keys`` maps each value of the section's entry ``tag`` (a family or a
    kind) to its table.
    """
    if not isinstance(entries, dict):
        raise ConfigError(name or "<root>", f"must be a JSON object, got {entries!r}")
    what = ""
    if tag is not None:
        if entries.get(tag) not in tuple(keys):  # a tuple: an unhashable value is just not in it
            raise ConfigError(f"{name}.{tag}", f"unknown {tag} {entries.get(tag)!r}, expected one of {tuple(keys)}")
        what = f" for {tag} {entries[tag]}"
        keys = {tag: (REQUIRED, None), **keys[entries[tag]]}
    for key, value in entries.items():
        path = f"{name}.{key}" if name else key
        if key not in keys:
            known = ", ".join(keys) or "none"
            raise ConfigError(path, f"unknown key{what}; known keys: {known}")
        check = keys[key][1]
        # an exact type test: to isinstance a bool is an int
        if check in _TYPE_NAMES and type(value) is not check:
            raise ConfigError(path, f"must be {_TYPE_NAMES[check]}, got {value!r}")
        if isinstance(check, tuple) and not _finite_numbers(value, check):
            dims = ", ".join("n" if d is None else str(d) for d in check)
            shape = f"finite numbers of shape ({dims})" if check else "a finite number"
            raise ConfigError(path, f"must be {shape}, got {value!r}")
    for key, (default, _) in keys.items():
        if default is REQUIRED and key not in entries:
            raise ConfigError(f"{name}.{key}" if name else key, f"required{what}")
    return {**{key: default for key, (default, _) in keys.items()}, **entries}


def _finite_numbers(value, shape: tuple[int | None, ...]) -> bool:
    """Is ``value`` nested lists of finite real numbers (not booleans) of ``shape`` (None: any length)?"""
    if not shape:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max)
    return (isinstance(value, (list, tuple)) and shape[0] in (None, len(value))
            and all(_finite_numbers(v, shape[1:]) for v in value))


def load_config(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def build_coefficient(mesh, spec: dict):
    """The coefficient field of a ``coefficient`` section that ``from_dict`` has completed.

    The section's keys other than ``family`` are the keyword arguments of the family's builder.
    """
    # looked up on each call, so a builder wrapped on the coefficients module is the one called
    builders = {
        "constant": coeff.constant_field, "laminate": coeff.laminate_field,
        "checkerboard": coeff.checkerboard_field, "hall": coeff.hall_field,
        "hall_laminate": coeff.hall_laminate_field, "random_piecewise": coeff.random_piecewise_field,
        "explicit": coeff.explicit_field,
    }
    args = {key: value for key, value in spec.items() if key != "family"}
    return builders[spec["family"]](mesh, **args)


def _trace_by_arclength(mesh, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map the boundary loop onto a target polygon by arclength fraction."""
    loop_pts = mesh.vertices[mesh.boundary_loop]
    seg = np.linalg.norm(np.roll(loop_pts, -1, axis=0) - loop_pts, axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)[:-1]]) / seg.sum()
    target = np.asarray(vertices, dtype=float)
    tseg = np.linalg.norm(np.roll(target, -1, axis=0) - target, axis=1)
    tcum = np.concatenate([[0.0], np.cumsum(tseg)]) / tseg.sum()
    k = np.minimum(np.searchsorted(tcum, s, side="right") - 1, len(target) - 1)
    span = tcum[k + 1] - tcum[k]
    t = np.divide(s - tcum[k], span, out=np.zeros_like(s), where=span != 0)[:, None]
    out = (1 - t) * target[k] + t * target[(k + 1) % len(target)]
    return out[:, 0], out[:, 1]


def _check_boundary_triangles(mesh, v1: np.ndarray, v2: np.ndarray) -> None:
    """Reject a boundary map that sends a triangle with three boundary vertices onto a segment.

    The boundary data alone fix the image of such a triangle (a corner of the
    square), so its Jacobian would be zero for every coefficient.  A trace does
    this when a domain corner lands inside a straight target edge.
    """
    image = np.zeros((mesh.n_vertices, 2))
    image[mesh.boundary_loop] = np.column_stack([v1, v2])
    tris = mesh.triangles[mesh.boundary_mask[mesh.triangles].all(axis=1)]
    e1 = image[tris[:, 1]] - image[tris[:, 0]]
    e2 = image[tris[:, 2]] - image[tris[:, 0]]
    cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    flat = np.abs(cross) <= 1e-12 * np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1)
    if flat.any():
        tri = tris[np.argmax(flat)]
        raise ConfigError("boundary.vertices", f"the trace maps the boundary triangle {tri.tolist()} at "
                                               f"{mesh.vertices[tri].tolist()} to collinear points; give the "
                                               f"target a vertex at the image of each domain corner")


def boundary_scalar_values(mesh, boundary: dict | None) -> np.ndarray:
    loop_pts = mesh.vertices[mesh.boundary_loop]
    if boundary is None:
        return loop_pts[:, 0]
    kind = boundary["kind"]
    if kind == "affine":
        c0, cx, cy = (float(v) for v in boundary["coefficients"])
        return c0 + cx * loop_pts[:, 0] + cy * loop_pts[:, 1]
    vals = np.asarray(boundary["values"], dtype=float)  # kind "samples": from_dict admits no other for solve
    if vals.shape != (len(loop_pts),):
        raise ConfigError(
            "boundary.values", f"need {len(loop_pts)} samples, got {vals.shape}"
        )
    return vals


@dataclass
class RunRecord:
    task: str
    metrics: dict
    invariants: list[dict]
    artifacts: list[str]

    @property
    def all_passed(self) -> bool:
        return all(inv["passed"] for inv in self.invariants)

    def to_dict(self, config_raw: dict) -> dict:
        return {
            "task": self.task,
            "config": config_raw,
            "metrics": self.metrics,
            "invariants": self.invariants,
            "all_passed": self.all_passed,
            "artifacts": self.artifacts,
        }


def _invariant(name: str, passed: bool, value, limit) -> dict:
    return {"name": name, "passed": bool(passed), "value": value, "limit": limit}


def _float_tree(obj):
    if isinstance(obj, dict):
        return {k: _float_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_float_tree(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return _float_tree(obj.tolist())
    return obj


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------


def _task_convert(cfg: ExperimentConfig, out: Path) -> RunRecord:
    spec = cfg.coefficient
    metrics: dict = {}
    if spec["family"] == "beltrami":
        pair = BeltramiPair(complex(*spec["mu"]), complex(*spec["nu"]))
        sigma = sigma_from_beltrami(pair)
        back = beltrami_from_sigma(sigma)
        rt = abs(back.mu - pair.mu) + abs(back.nu - pair.nu)
        metrics["sigma"] = sigma.tolist()
    else:
        sigma = np.asarray(spec["matrix"], dtype=float)
        pair = beltrami_from_sigma(sigma)
        rt = float(np.abs(sigma_from_beltrami(pair) - sigma).max())
        metrics["mu"] = [pair.mu.real, pair.mu.imag]
        metrics["nu"] = [pair.nu.real, pair.nu.imag]
    alpha, beta = ellipticity_constants(sigma)
    invariants = [_invariant("round_trip", rt <= 1e-12, rt, 1e-12)]
    report = astala_exponent(alpha, beta)
    metrics.update(
        round_trip_error=rt, alpha=alpha, beta=beta, k_beltrami=K_of_beltrami(pair),
        k_astala=report.k_beltrami, p_sup=report.p_sup,
        tau_bound_closed_form=tau_ellipticity_bound(report.k_beltrami),
    )
    rep = tau_bound_oracle(report.k_beltrami)
    metrics["tau_bound_oracle"] = {
        "value": rep.value, "minimizer": list(rep.minimizer),
        "candidates": rep.candidates, "agrees_with_closed_form": rep.agrees_with_closed_form,
        "note": rep.note,
    }
    return RunRecord("convert", metrics, invariants, [])


def _mesh_and_coefficient(cfg: ExperimentConfig):
    """Build a task's mesh and coefficient, rejecting the domain kind the task cannot use."""
    mesh = build_mesh(cfg.domain, cfg.resolution)
    if cfg.task in DOMAIN_NEEDS:
        periodic, message = DOMAIN_NEEDS[cfg.task]
        if mesh.periodic != periodic:
            raise ConfigError("domain", message)
    return mesh, build_coefficient(mesh, cfg.coefficient)


def _task_solve(cfg: ExperimentConfig, out: Path) -> RunRecord:
    mesh, sigma = _mesh_and_coefficient(cfg)
    g = boundary_scalar_values(mesh, cfg.boundary)
    u, = solve_dirichlet(sigma, g[:, None])
    # The reduced right-hand side is minus the residual of the boundary lift
    # (g on the boundary, 0 inside).
    lift = np.zeros(mesh.n_vertices)
    lift[mesh.boundary_loop] = g
    res, lift_res = interior_residual(sigma, np.column_stack([u.values, lift])).T
    rhs_norm = float(np.linalg.norm(lift_res))
    res_max = float(np.abs(res).max())
    limit = 1e-10 * max(rhs_norm, 1.0)
    unimodal, strict = unimodality_check(g)
    metrics = {
        "interior_residual_max": res_max,
        "rhs_norm": rhs_norm,
        "boundary_unimodal": unimodal,
        "boundary_strictly_unimodal": strict,
        "value_range": [float(u.values.min()), float(u.values.max())],
    }
    artifacts = _export_mesh(mesh, out)
    export_vertex_values_csv(mesh, u.values, out / "solution.csv", name="u")
    artifacts.append("solution.csv")
    invariants = [_invariant("interior_flux_conservation", res_max <= limit, res_max, limit)]
    return RunRecord("solve", metrics, invariants, artifacts)


def _map_report(U) -> tuple[dict, dict]:
    """The min_det and injectivity metrics of a planar map, and its jacobian_positive invariant."""
    locally, globally = injectivity_check(U)
    min_det = float(U.det_DU.min())
    metrics = {"min_det": min_det, "locally_injective": locally, "globally_injective": globally}
    return metrics, _invariant("jacobian_positive", min_det > 0.0, min_det, 0.0)


def _primary_pair_metrics(sigma, Phi, Psi, U) -> tuple[dict, list[dict]]:
    eq = equival_residual(Phi, Psi, sigma, U)
    mu_e, nu_e = beltrami_from_sigma_batch(sigma.matrices)
    w = wirtinger_exact(sigma, U.u1)
    br = beltrami_residual(w, (mu_e, nu_e))
    metrics, positive = _map_report(U)
    loop = U.mesh.boundary_loop
    unimodal, strict = unimodality_check(U.u1.values[loop])
    metrics.update({
        "max_det": float(U.det_DU.max()),
        "equival_max": float(eq.max()),
        "beltrami_residual_max": float(br.max()),
        "boundary_unimodal": unimodal,
        "boundary_strictly_unimodal": strict,
    })
    invariants = [
        positive,
        _invariant("equival_identity", metrics["equival_max"] <= 1e-12, metrics["equival_max"], 1e-12),
        _invariant(
            "beltrami_consistency",
            metrics["beltrami_residual_max"] <= 1e-12,
            metrics["beltrami_residual_max"], 1e-12,
        ),
    ]
    return metrics, invariants


def _task_primary_pair(cfg: ExperimentConfig, out: Path) -> RunRecord:
    mesh, sigma = _mesh_and_coefficient(cfg)
    if cfg.boundary is not None:  # kind "polygon_trace", the one from_dict admits here
        v1, v2 = _trace_by_arclength(mesh, cfg.boundary["vertices"])
        _check_boundary_triangles(mesh, v1, v2)
        U = sigma_harmonic_map(sigma, v1, v2)
        metrics, positive = _map_report(U)
        artifacts = _export_mesh(mesh, out)
        export_vertex_values_csv(
            mesh, np.column_stack([U.u1.values, U.u2.values]), out / "map.csv", name="u"
        )
        artifacts.append("map.csv")
        return RunRecord("primary-pair", metrics, [positive], artifacts)

    Phi, Psi, U = primary_pair(sigma)
    metrics, invariants = _primary_pair_metrics(sigma, Phi, Psi, U)
    artifacts = _export_mesh(mesh, out)
    export_vertex_values_csv(
        mesh,
        np.column_stack([U.u1.values, Phi.u2.values, U.u2.values, Psi.u2.values]),
        out / "pair.csv",
        name="f",
    )
    export_element_values_csv(mesh, U.det_DU, out / "det.csv", name="det")
    artifacts += ["pair.csv", "det.csv"]
    return RunRecord("primary-pair", metrics, invariants, artifacts)


def _task_cell(cfg: ExperimentConfig, out: Path) -> RunRecord:
    mesh, sigma = _mesh_and_coefficient(cfg)
    A = np.asarray(cfg.diagnostics["affine_part"], dtype=float)
    cm = cell_map(sigma, A)
    metrics, positive = _map_report(cm.U)
    metrics.update(affine_part=A.tolist(), linearity_error=cm.linearity_error)
    invariants = [
        _invariant("cell_linearity", cm.linearity_error <= 1e-8, cm.linearity_error, 1e-8),
        positive,
    ]
    artifacts = _export_mesh(mesh, out)
    export_vertex_values_csv(
        mesh, np.column_stack([cm.U.u1.values, cm.U.u2.values]), out / "cell_map.csv", name="u"
    )
    artifacts.append("cell_map.csv")
    return RunRecord("cell", metrics, invariants, artifacts)


def _task_homogenize(cfg: ExperimentConfig, out: Path) -> RunRecord:
    mesh, sigma = _mesh_and_coefficient(cfg)
    eff = effective_conductivity(sigma)
    tensor = eff.matrix
    gap = eff.quadratic_form_gap()
    scale = float(np.abs(tensor).max())
    metrics = {
        "sigma_eff": tensor.tolist(),
        "quadratic_forms": eff.quadratic_forms,
        "quadratic_form_gap": gap,
    }
    invariants = [
        _invariant("flux_vs_energy_probe", gap <= 1e-8 * max(scale, 1.0), gap, 1e-8 * max(scale, 1.0)),
    ]

    family = cfg.coefficient["family"]
    if family in ("constant", "hall"):
        # a constant coefficient is its own effective tensor
        err = float(np.abs(tensor - sigma.matrices[0]).max())
        metrics["constant_passthrough_error"] = err
        invariants.append(_invariant("constant_passthrough", err <= 1e-10 * max(scale, 1.0), err, 1e-10))
    elif family == "laminate":
        a, b = float(cfg.coefficient["a"]), float(cfg.coefficient["b"])
        t = float(cfg.coefficient["fraction"])  # the share of phase a
        harm, arith = a * b / (t * b + (1 - t) * a), t * a + (1 - t) * b
        oracle = np.diag([harm, arith]) if cfg.coefficient["direction"] == "x1" else np.diag([arith, harm])
        err = float(np.abs(tensor - oracle).max() / np.abs(oracle).max())
        metrics["laminate_oracle_error"] = err
        invariants.append(_invariant("laminate_oracle", err <= 0.01, err, 0.01))
    elif family == "checkerboard":
        a, b = float(cfg.coefficient["a"]), float(cfg.coefficient["b"])
        oracle = float(np.sqrt(a * b))
        err = float(np.abs(tensor - oracle * np.eye(2)).max() / oracle)
        metrics["checkerboard_oracle_error"] = err
        if cfg.resolution >= 64:
            invariants.append(_invariant("checkerboard_oracle", err <= 0.05, err, 0.05))
    elif family == "random_piecewise":
        harm, arith = mean_matrices(sigma)
        sym_eff = 0.5 * (tensor + tensor.T)
        lower_ok = bool(np.all(np.linalg.eigvalsh(sym_eff - 0.5 * (harm + harm.T)) >= -1e-8))
        metrics["harmonic_mean"] = harm.tolist()
        metrics["arithmetic_mean"] = arith.tolist()
        invariants.append(_invariant("harmonic_lower_bound", lower_ok, lower_ok, True))
        if cfg.coefficient["symmetric"]:
            upper_ok = bool(np.all(np.linalg.eigvalsh(0.5 * (arith + arith.T) - sym_eff) >= -1e-8))
            invariants.append(_invariant("arithmetic_upper_bound", upper_ok, upper_ok, True))

    # the area identity: f1 = u1 + i*ut1 of the e1 cell solution has image area sigma_eff[0, 0] unless it folds
    f1, stream_resid = cell_complex_map(sigma, eff.solutions["e1"])
    area = image_area(f1)
    qf = float(tensor[0, 0])
    area_gap = abs(area - qf) / abs(qf)
    metrics.update(image_area_e1=area, image_area_gap=area_gap, stream_residual=stream_resid)
    if cfg.resolution >= 128:
        invariants.append(_invariant("area_formula", area_gap <= 0.02, area_gap, 0.02))

    rows = [[
        cfg.resolution,
        *tensor.ravel().tolist(),
        eff.quadratic_forms["e1"], eff.quadratic_forms["e2"], eff.quadratic_forms["e1+e2"],
        gap, metrics.get("laminate_oracle_error", metrics.get("checkerboard_oracle_error", 0.0)),
        family,
    ]]
    write_csv(out / "effective_tensor.csv",
              ["resolution", "s11", "s12", "s21", "s22", "qf_e1", "qf_e2", "qf_e1e2",
               "probe_gap", "oracle_error", "family"], rows)
    return RunRecord("homogenize", metrics, invariants, ["effective_tensor.csv"])


def _task_diagnose(cfg: ExperimentConfig, out: Path) -> RunRecord:
    mesh, sigma = _mesh_and_coefficient(cfg)
    max_level, seed = cfg.diagnostics["max_level"], cfg.seed or 0

    if mesh.periodic:
        cm = cell_map(sigma, np.eye(2))
        U = cm.U  # U.u1 is the e1 cell solution
    else:
        check_convex_domain(mesh)
        # the primary pair's U; nothing reads ut2
        U = PlanarMap(*solve_dirichlet(sigma, mesh.vertices[mesh.boundary_loop]))
    Phi, _ = cell_complex_map(sigma, U.u1)
    det = U.det_DU

    # the cheap checks first: a non-positive weight (bmo_norm) or a coordinate map
    # that is not locally injective (change_coordinates) fails the run before the
    # envelope probe
    squares = dyadic_squares(mesh, max_level)
    bmo = bmo_norm(det, squares)
    img, V = change_coordinates(U, Phi)
    fit = ainfty_probe(det, squares, random_subset_sampler(seed=seed))

    img_squares = dyadic_squares(img, max_level)
    rh = reverse_holder_constant(V.det_DU, img_squares)

    checks = []
    if mesh.periodic:
        rng = coeff.rng_from_seed(seed + 1)
        for s in squares.admissible()[:8]:
            P = squares.elements(s)
            sub = np.sort(rng.choice(P, size=max(1, len(P) // 4), replace=False))
            checks.append(quantitative_jacobian_check(cm, sub, P, fit))

    grads = element_gradient(U.u1)
    alpha, beta = ellipticity_constants(sigma.table[np.unique(sigma.index)])  # the matrices in use, once each
    report = astala_exponent(float(alpha.min()), float(beta.max()))
    rows = higher_integrability_probe(cfg.resolution, mesh, grads, report.p_sup)

    stats = square_stats(det, squares)
    stats.export_csv(out / "square_stats.csv")

    metrics = {
        "min_det": float(det.min()),
        "bmo_log_det": bmo,
        "ainfty": {"c_upper": fit.c_upper, "delta": fit.delta,
                   "m_lower": fit.m_lower, "eta": fit.eta, "n_samples": fit.n_samples},
        "rh_det_dv_exp2": rh,
        "quantitative_checks_passed": all(c.passes for c in checks) if checks else None,
        "p_sup": report.p_sup,
        "lp_norms": [{"resolution": r.resolution, "p": r.p, "norm": r.norm,
                      "above_critical": r.above_critical} for r in rows],
    }
    invariants = [
        _invariant("jacobian_positive", metrics["min_det"] > 0.0, metrics["min_det"], 0.0),
        _invariant("rh_at_least_one", rh >= 1.0, rh, 1.0),
    ]
    if checks:
        ok = all(c.passes for c in checks)
        invariants.append(_invariant("quantitative_envelope", ok, ok, True))
    return RunRecord("diagnose", metrics, invariants, ["square_stats.csv"])


def _export_mesh(mesh, out: Path) -> list[str]:
    export_vertices_csv(mesh, out / "vertices.csv")
    export_triangles_csv(mesh, out / "triangles.csv")
    return ["vertices.csv", "triangles.csv"]


_TASK_IMPL = {
    "convert": _task_convert,
    "solve": _task_solve,
    "primary-pair": _task_primary_pair,
    "cell": _task_cell,
    "homogenize": _task_homogenize,
    "diagnose": _task_diagnose,
}


def run(config: ExperimentConfig) -> RunRecord:
    """Execute one task pipeline; writes artifacts and the run record."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    record = _TASK_IMPL[config.task](config, out)
    record.metrics = _float_tree(record.metrics)
    record.invariants = _float_tree(record.invariants)
    with open(out / "run_record.json", "w") as fh:
        json.dump(record.to_dict(_float_tree(config.raw)), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return record


def sweep(raw_configs: list[dict], out_dir) -> Path:
    """Run a homogeneous list of configs; one aggregate CSV row per config.

    Failures are recorded per row and the sweep continues.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # a task that is not a string (or no task) is its row's config error, not a second task
    tasks = {raw["task"] for raw in raw_configs if isinstance(raw, dict) and isinstance(raw.get("task"), str)}
    if len(tasks) > 1:
        raise ConfigError("sweep", f"sweep must be homogeneous in task, got {sorted(tasks)}")
    rows = []
    for i, raw in enumerate(raw_configs):
        row = {c: "" for c in SWEEP_COLUMNS}
        row["index"] = i
        if isinstance(raw, dict):  # from_dict reports any other entry as an error row
            raw = {**raw, "output_dir": str(out / f"run_{i:03d}")}
            row.update({c: raw.get(c, "") for c in ("label", "task", "resolution", "seed")})
        try:
            cfg = ExperimentConfig.from_dict(raw)
            record = run(cfg)
            row["status"] = "ok" if record.all_passed else "invariant_failed"
            for column, (key, *rest) in SWEEP_METRICS.items():
                if key in record.metrics:
                    row[column] = functools.reduce(operator.getitem, rest, record.metrics[key])
        except _RUN_ERRORS as exc:
            row["status"] = "error"
            row["error"] = str(exc)
        rows.append([row[c] for c in SWEEP_COLUMNS])
    path = out / "aggregate.csv"
    write_csv(path, SWEEP_COLUMNS, rows)
    return path


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="beltramilab",
        description="Config-driven experiments for planar elliptic coefficient labs",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in (*TASKS, "sweep"):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    try:
        raw = load_config(args.config)
        if args.verb == "sweep":
            doc = _section("", raw if isinstance(raw, dict) else {"sweep": raw}, CONFIG_KEYS["sweep"])
            configs = doc["sweep"]
            if not isinstance(configs, list):
                raise ConfigError("sweep", "sweep config must be a list (or {'sweep': [...]})")
            path = sweep(configs, args.out or doc["output_dir"])
            with open(path) as fh:
                not_ok = sum(row["status"] != "ok" for row in csv.DictReader(fh))
            print(f"sweep aggregate written to {path}; {not_ok} of {len(configs)} rows not ok")
            return 0 if not_ok == 0 else 1
        if isinstance(raw, dict):  # from_dict reports any other document as an error
            raw = {**raw, "task": args.verb}
            if args.out is not None:
                raw["output_dir"] = args.out
        config = ExperimentConfig.from_dict(raw)
        record = run(config)
        for inv in record.invariants:
            state = "PASS" if inv["passed"] else "FAIL"
            print(f"{state} {inv['name']}: value={inv['value']} limit={inv['limit']}")
        print(f"run record: {Path(config.output_dir) / 'run_record.json'}")
        return 0 if record.all_passed else 1
    except _RUN_ERRORS as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
