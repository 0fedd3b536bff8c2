"""Config-driven experiment runner.

A run is described by a JSON document (normative field names: task,
domain, resolution, coefficient, boundary, solver, seed, output_dir,
diagnostics) and produces CSV artifacts plus a machine-readable run
record listing every asserted invariant with its pass/fail state.  Verbs:

    convert | solve | primary-pair | cell | homogenize | diagnose | sweep

All randomness flows through one explicit seed and a counter-based
generator, and artifacts are written with full-precision repr floats in a
fixed order, so reruns with the same config are bit-identical at thread
count 1.  Exit code 0 only when every asserted invariant passes.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import coefficients as coeff
from .coeff_algebra import (
    BeltramiPair,
    K_of_beltrami,
    _adjugate_inverse,
    _det_and_gauge,
    astala_exponent,
    beltrami_from_sigma,
    beltrami_from_sigma_batch,
    ellipticity_constants,
    sigma_from_beltrami,
    sym_min_eig_batch,
    tau_bound_oracle,
    tau_ellipticity_bound,
)
from .elliptic_solver import (
    SolveOptions,
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
    beltrami_residual,
    change_coordinates,
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
RANDOM_FAMILIES = ("random_piecewise",)
# The keys each coefficient family cannot do without; the others have defaults.
FAMILY_KEYS = {"constant": ("matrix",), "laminate": ("a", "b"), "checkerboard": ("a", "b"),
               "hall": ("a", "b"), "hall_laminate": ("c",), "random_piecewise": (),
               "explicit": ("table", "cells"), "beltrami": ("mu", "nu")}
# Config entries read as finite numbers or arrays of them, with their shapes (() a number, None: any length).
NUMBER_ARRAY_SHAPES = {
    ("coefficient", "mu"): (2,), ("coefficient", "nu"): (2,), ("coefficient", "matrix"): (2, 2),
    ("coefficient", "a"): (), ("coefficient", "b"): (), ("coefficient", "c"): (),
    ("coefficient", "fraction"): (), ("coefficient", "k_max"): (), ("domain", "radius"): (),
    ("boundary", "coefficients"): (3,), ("diagnostics", "affine_part"): (2, 2),
    ("diagnostics", "theta_grid"): (None,), ("diagnostics", "p_list"): (None,), ("solver", "tolerance"): (),
}
# Config entries read as JSON integers (not booleans) or as JSON booleans; section None is the top level.
EXACT_TYPES = {
    (None, "seed"): int, ("coefficient", "seed"): int, ("coefficient", "cells"): int,
    ("domain", "sides"): int, ("diagnostics", "max_level"): int, ("diagnostics", "subset_seed"): int,
    ("coefficient", "symmetric"): bool,
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

SWEEP_COLUMNS = [
    "index", "label", "task", "status", "error", "resolution", "seed",
    "min_det", "equival_max", "s_eff_11", "s_eff_12", "s_eff_21", "s_eff_22",
    "bmo_log_det", "c_upper", "delta", "m_lower", "eta", "rh_det_dv",
]


@dataclass
class ExperimentConfig:
    task: str
    domain: object = "unit_square"
    resolution: int | list[int] = 16
    coefficient: dict = field(default_factory=lambda: {"family": "constant", "matrix": [[1, 0], [0, 1]]})
    boundary: dict | None = None
    solver: SolveOptions = field(default_factory=SolveOptions)
    seed: int | None = None
    output_dir: str = "out"
    diagnostics: dict = field(default_factory=dict)
    label: str = ""
    raw: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        task = raw.get("task")
        if task not in TASKS:
            raise ConfigError("task", f"must be one of {TASKS}, got {task!r}")
        domain = raw.get("domain", "unit_square")
        if isinstance(domain, dict):
            if domain.get("kind") != "regular_ngon":
                raise ConfigError("domain.kind", "structured domain must be 'regular_ngon'")
            for key in ("sides", "radius"):
                if key not in domain:
                    raise ConfigError(f"domain.{key}", "required for regular_ngon")
        elif domain not in ("unit_square", "periodic_cell"):
            raise ConfigError("domain", f"unknown domain {domain!r}")

        resolution = raw.get("resolution", 16)
        res_list = resolution if isinstance(resolution, list) else [resolution]
        if not res_list or any(not isinstance(r, int) or r < 2 for r in res_list):
            raise ConfigError(
                "resolution", f"must be an integer >= 2 (or a list of them), got {resolution!r}"
            )

        coefficient = raw.get("coefficient")
        if not isinstance(coefficient, dict) or "family" not in coefficient:
            raise ConfigError("coefficient.family", "coefficient spec with a family is required")
        family = coefficient["family"]
        if family not in FAMILY_KEYS:
            raise ConfigError("coefficient.family", f"unknown family {family!r}")
        if family == "beltrami" and task != "convert":
            raise ConfigError("coefficient.family", f"family 'beltrami' is read only by the convert task, not {task}")
        # convert reads any family but beltrami as a constant matrix
        keys = ("matrix",) if task == "convert" and family != "beltrami" else FAMILY_KEYS[family]
        for key in keys:
            if key not in coefficient:
                raise ConfigError(f"coefficient.{key}", f"required for family {family}")
        seed = raw.get("seed")
        if family in RANDOM_FAMILIES and seed is None and "seed" not in coefficient:
            raise ConfigError("seed", f"a seed is mandatory for the {family} family")

        for name in ("boundary", "solver", "diagnostics"):
            if raw.get(name) is not None and not isinstance(raw[name], dict):
                raise ConfigError(name, f"must be a JSON object, got {raw[name]!r}")
        for (name, key), shape in NUMBER_ARRAY_SHAPES.items():
            entries = raw.get(name)
            if isinstance(entries, dict) and key in entries and not _finite_numbers(entries[key], shape):
                dims = ", ".join("n" if d is None else str(d) for d in shape)
                what = f"finite numbers of shape ({dims})" if shape else "a finite number"
                raise ConfigError(f"{name}.{key}", f"must be {what}, got {entries[key]!r}")
        for (name, key), kind in EXACT_TYPES.items():
            entries = raw if name is None else raw.get(name)
            # an exact type test: to isinstance a bool is an int
            if isinstance(entries, dict) and key in entries and type(entries[key]) is not kind:
                what = "an integer" if kind is int else "true or false"
                raise ConfigError(key if name is None else f"{name}.{key}", f"must be {what}, got {entries[key]!r}")
        if any(p <= 0 for p in (raw.get("diagnostics") or {}).get("p_list", ())):
            raise ConfigError("diagnostics.p_list", f"exponents must be positive, got {raw['diagnostics']['p_list']!r}")

        if isinstance(domain, dict):
            domain = ("regular_ngon", domain["sides"], float(domain["radius"]))

        # Every solve is one sparse LU; the iterative solver and its keys are gone,
        # so an old config that names them fails instead of being misread.
        solver_raw = raw.get("solver") or {}
        if "max_iterations" in solver_raw:
            raise ConfigError("solver.max_iterations", "removed with the iterative solver; every solve is a sparse LU")
        if solver_raw.get("method", "direct_lu") != "direct_lu":
            raise ConfigError("solver.method", f"only 'direct_lu' is accepted (the iterative solver was removed), "
                                               f"got {solver_raw['method']!r}")
        try:
            solver = SolveOptions(tolerance=float(solver_raw.get("tolerance", 1e-10)))
        except ValueError as exc:
            raise ConfigError("solver", str(exc)) from exc

        boundary = raw.get("boundary")
        if boundary is not None:
            kind = boundary.get("kind")
            if kind not in ("affine", "samples", "polygon_trace"):
                raise ConfigError("boundary.kind", f"unknown boundary kind {kind!r}")
            required = {"affine": "coefficients", "samples": "values", "polygon_trace": "vertices"}
            if required[kind] not in boundary:
                raise ConfigError(f"boundary.{required[kind]}", f"required for kind {kind}")

        return cls(
            task=task,
            domain=domain,
            resolution=resolution,
            coefficient=coefficient,
            boundary=boundary,
            solver=solver,
            seed=seed,
            output_dir=raw.get("output_dir", "out"),
            diagnostics=raw.get("diagnostics") or {},
            label=str(raw.get("label", "")),
            raw=raw,
        )


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


def build_coefficient(mesh, spec: dict, default_seed: int | None):
    family = spec["family"]
    if family == "constant":
        return coeff.constant_field(mesh, np.asarray(spec["matrix"], dtype=float))
    if family == "laminate":
        return coeff.laminate_field(
            mesh, float(spec["a"]), float(spec["b"]),
            spec.get("direction", "x1"), float(spec.get("fraction", 0.5)),
        )
    if family == "checkerboard":
        return coeff.checkerboard_field(mesh, float(spec["a"]), float(spec["b"]))
    if family == "hall":
        return coeff.hall_field(mesh, float(spec["a"]), float(spec["b"]))
    if family == "hall_laminate":
        return coeff.hall_laminate_field(mesh, float(spec["c"]), spec.get("direction", "x1"))
    if family == "random_piecewise":
        seed = spec.get("seed", default_seed)
        return coeff.random_piecewise_field(
            mesh, float(spec.get("k_max", 5.0)), int(spec.get("cells", 4)),
            seed=int(seed), symmetric=bool(spec.get("symmetric", False)),
        )
    if family == "explicit":
        return coeff.explicit_field(mesh, spec["table"], int(spec["cells"]))
    raise ConfigError("coefficient.family", f"unknown family {family!r}")


def _trace_by_arclength(mesh, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map the boundary loop onto a target polygon by arclength fraction."""
    loop_pts = mesh.vertices[mesh.boundary_loop]
    seg = np.linalg.norm(np.roll(loop_pts, -1, axis=0) - loop_pts, axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)[:-1]]) / seg.sum()
    target = np.asarray(vertices, dtype=float)
    tseg = np.linalg.norm(np.roll(target, -1, axis=0) - target, axis=1)
    tcum = np.concatenate([[0.0], np.cumsum(tseg)]) / tseg.sum()
    out = np.empty((len(s), 2))
    for i, frac in enumerate(s):
        k = int(np.searchsorted(tcum, frac, side="right")) - 1
        k = min(k, len(target) - 1)
        span = tcum[k + 1] - tcum[k]
        t = 0.0 if span == 0 else (frac - tcum[k]) / span
        out[i] = (1 - t) * target[k] + t * target[(k + 1) % len(target)]
    return out[:, 0], out[:, 1]


def boundary_scalar_values(mesh, boundary: dict | None) -> np.ndarray:
    loop_pts = mesh.vertices[mesh.boundary_loop]
    if boundary is None:
        return loop_pts[:, 0]
    kind = boundary["kind"]
    if kind == "affine":
        c0, cx, cy = (float(v) for v in boundary["coefficients"])
        return c0 + cx * loop_pts[:, 0] + cy * loop_pts[:, 1]
    if kind == "samples":
        vals = np.asarray(boundary["values"], dtype=float)
        if vals.shape != (len(loop_pts),):
            raise ConfigError(
                "boundary.values", f"need {len(loop_pts)} samples, got {vals.shape}"
            )
        return vals
    raise ConfigError("boundary.kind", f"kind {kind!r} does not define scalar data")


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
    invariants = []
    if spec["family"] == "beltrami":
        pair = BeltramiPair(complex(*spec["mu"]), complex(*spec["nu"]))
        sigma = sigma_from_beltrami(pair)
        back = beltrami_from_sigma(sigma)
        rt = abs(back.mu - pair.mu) + abs(back.nu - pair.nu)
        metrics["sigma"] = sigma.entries.tolist()
        metrics["round_trip_error"] = rt
        invariants.append(_invariant("round_trip", rt <= 1e-12, rt, 1e-12))
        alpha, beta = sigma.constants()
        k = K_of_beltrami(pair)
    else:
        mat = np.asarray(spec["matrix"], dtype=float)
        alpha, beta = ellipticity_constants(mat)
        pair = beltrami_from_sigma(mat)
        back = sigma_from_beltrami(pair)
        rt = float(np.abs(back.entries - mat).max())
        metrics["mu"] = [pair.mu.real, pair.mu.imag]
        metrics["nu"] = [pair.nu.real, pair.nu.imag]
        metrics["round_trip_error"] = rt
        invariants.append(_invariant("round_trip", rt <= 1e-12, rt, 1e-12))
        k = K_of_beltrami(pair)
    report = astala_exponent(alpha, beta)
    metrics.update(
        alpha=alpha, beta=beta, k_beltrami=k,
        k_astala=report.k_beltrami, p_sup=report.p_sup,
        tau_bound_closed_form=tau_ellipticity_bound(report.k_beltrami),
    )
    if cfg.diagnostics.get("tau_oracle"):
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
    return mesh, build_coefficient(mesh, cfg.coefficient, cfg.seed)


def _task_solve(cfg: ExperimentConfig, out: Path) -> RunRecord:
    mesh, sigma = _mesh_and_coefficient(cfg)
    g = boundary_scalar_values(mesh, cfg.boundary)
    u = solve_dirichlet(sigma, g, cfg.solver)
    # The reduced right-hand side is minus the residual of the boundary lift
    # (g on the boundary, 0 inside).
    lift = np.zeros(mesh.n_vertices)
    lift[mesh.boundary_loop] = g
    res, lift_res = interior_residual(sigma, np.column_stack([u.values, lift])).T
    rhs_norm = float(np.linalg.norm(lift_res))
    res_max = float(np.abs(res).max())
    limit = 1e-10 * max(rhs_norm, 1.0)
    unimodal, strict, _ = unimodality_check(g)
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


def _primary_pair_metrics(sigma, Phi, Psi, U) -> tuple[dict, list[dict]]:
    eq = equival_residual(Phi, Psi, sigma, U)
    mu_e, nu_e = beltrami_from_sigma_batch(sigma.matrices)
    w = wirtinger_exact(sigma, U.u1)
    br = beltrami_residual(w, (mu_e, nu_e))
    locally, globally = injectivity_check(U)
    loop = U.mesh.boundary_loop
    unimodal, strict, _ = unimodality_check(U.u1.values[loop])
    metrics = {
        "min_det": float(U.det_DU.min()),
        "max_det": float(U.det_DU.max()),
        "equival_max": float(eq.max()),
        "beltrami_residual_max": float(br.max()),
        "locally_injective": locally,
        "globally_injective": globally,
        "boundary_unimodal": unimodal,
        "boundary_strictly_unimodal": strict,
    }
    invariants = [
        _invariant("jacobian_positive", metrics["min_det"] > 0.0, metrics["min_det"], 0.0),
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
    if cfg.boundary is not None and cfg.boundary["kind"] == "polygon_trace":
        v1, v2 = _trace_by_arclength(mesh, cfg.boundary["vertices"])
        U = sigma_harmonic_map(sigma, v1, v2, cfg.solver)
        locally, globally = injectivity_check(U)
        metrics = {
            "min_det": float(U.det_DU.min()),
            "locally_injective": locally,
            "globally_injective": globally,
        }
        invariants = [_invariant("jacobian_positive", metrics["min_det"] > 0.0, metrics["min_det"], 0.0)]
        artifacts = _export_mesh(mesh, out)
        export_vertex_values_csv(
            mesh, np.column_stack([U.u1.values, U.u2.values]), out / "map.csv", name="u"
        )
        artifacts.append("map.csv")
        return RunRecord("primary-pair", metrics, invariants, artifacts)

    Phi, Psi, U = primary_pair(sigma, cfg.solver)
    metrics, invariants = _primary_pair_metrics(sigma, Phi, Psi, U)
    artifacts = _export_mesh(mesh, out)
    export_vertex_values_csv(
        mesh,
        np.column_stack([U.u1.values, Phi.im.values, U.u2.values, Psi.im.values]),
        out / "pair.csv",
        name="f",
    )
    export_element_values_csv(mesh, U.det_DU, out / "det.csv", name="det")
    artifacts += ["pair.csv", "det.csv"]
    return RunRecord("primary-pair", metrics, invariants, artifacts)


def _task_cell(cfg: ExperimentConfig, out: Path) -> RunRecord:
    mesh, sigma = _mesh_and_coefficient(cfg)
    A = np.asarray(cfg.diagnostics.get("affine_part", [[1, 0], [0, 1]]), dtype=float)
    cm = cell_map(sigma, A, cfg.solver)
    locally, globally = injectivity_check(cm.U)
    metrics = {
        "affine_part": A.tolist(),
        "linearity_error": cm.linearity_error,
        "min_det": float(cm.U.det_DU.min()),
        "locally_injective": locally,
        "globally_injective": globally,
    }
    invariants = [
        _invariant("cell_linearity", cm.linearity_error <= 1e-8, cm.linearity_error, 1e-8),
        _invariant("jacobian_positive", metrics["min_det"] > 0.0, metrics["min_det"], 0.0),
    ]
    artifacts = _export_mesh(mesh, out)
    export_vertex_values_csv(
        mesh, np.column_stack([cm.U.u1.values, cm.U.u2.values]), out / "cell_map.csv", name="u"
    )
    artifacts.append("cell_map.csv")
    return RunRecord("cell", metrics, invariants, artifacts)


def _task_homogenize(cfg: ExperimentConfig, out: Path) -> RunRecord:
    mesh, sigma = _mesh_and_coefficient(cfg)
    eff = effective_conductivity(sigma, cfg.solver)
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
        t = float(cfg.coefficient.get("fraction", 0.5))  # the share of phase a
        harm, arith = a * b / (t * b + (1 - t) * a), t * a + (1 - t) * b
        oracle = np.diag([harm, arith]) if cfg.coefficient.get("direction", "x1") == "x1" else np.diag([arith, harm])
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
        if cfg.coefficient.get("symmetric"):
            upper_ok = bool(np.all(np.linalg.eigvalsh(0.5 * (arith + arith.T) - sym_eff) >= -1e-8))
            invariants.append(_invariant("arithmetic_upper_bound", upper_ok, upper_ok, True))

    if cfg.diagnostics.get("area_check"):
        f1, stream_resid = cell_complex_map(sigma, eff.solutions["e1"], cfg.solver)
        area = image_area(f1)
        qf = float(tensor[0, 0])
        area_gap = abs(area - qf) / abs(qf)
        metrics["image_area_e1"] = area
        metrics["image_area_gap"] = area_gap
        metrics["stream_residual"] = stream_resid
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
    diag = cfg.diagnostics
    max_level = int(diag.get("max_level", 4))
    subset_seed = int(diag.get("subset_seed", cfg.seed or 0))

    if mesh.periodic:
        cm = cell_map(sigma, np.eye(2), cfg.solver)
        U = cm.U
        Phi, _ = cell_complex_map(sigma, U.u1, cfg.solver)  # U.u1 is the e1 cell solution
    else:
        Phi, Psi, U = primary_pair(sigma, cfg.solver)
    det = U.det_DU

    squares = dyadic_squares(mesh, max_level)
    bmo = bmo_norm(det, squares)
    fit = ainfty_probe(det, squares, random_subset_sampler(seed=subset_seed))

    img, V = change_coordinates(U, Phi)
    img_squares = dyadic_squares(img, max_level)
    rh = reverse_holder_constant(V.det_DU, img_squares, 2.0)

    checks = []
    if mesh.periodic:
        rng = coeff.rng_from_seed(subset_seed + 1)
        for s in squares.admissible()[:8]:
            P = squares.elements(s)
            sub = np.sort(rng.choice(P, size=max(1, len(P) // 4), replace=False))
            checks.append(quantitative_jacobian_check(cm, sub, P, fit))

    grads = element_gradient(U.u1)
    alpha_global = float(sym_min_eig_batch(sigma.matrices).min())
    # the closed-form inverse of ellipticity_constants and validate_coefficient
    det_sigma, _ = _det_and_gauge(sigma.matrices)
    beta_global = float(1.0 / sym_min_eig_batch(_adjugate_inverse(sigma.matrices, det_sigma)).min())
    report = astala_exponent(alpha_global, beta_global)
    p_list = diag.get("p_list", [2.0, 0.5 * report.p_sup if np.isfinite(report.p_sup) else 4.0])
    rows = higher_integrability_probe([(cfg.resolution, mesh, grads)], p_list, report.p_sup)

    stats = square_stats(det, squares, theta_grid=tuple(diag.get("theta_grid", (0.5, 1.0))))
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
    """Execute one task pipeline; writes artifacts and the run record.

    A list of resolutions runs the task once per entry (subdirectories
    ``res_N``) and merges the metrics and invariants, prefixed by the
    resolution.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(config.resolution, list):
        metrics, invariants, artifacts = {}, [], []
        for n in config.resolution:
            sub = replace(
                config, resolution=n, output_dir=str(out / f"res_{n}"),
                raw={**config.raw, "resolution": n},
            )
            rec = run(sub)
            metrics[str(n)] = rec.metrics
            for inv in rec.invariants:
                invariants.append({**inv, "name": f"res_{n}:{inv['name']}"})
            artifacts += [f"res_{n}/{a}" for a in rec.artifacts]
        record = RunRecord(config.task, metrics, invariants, artifacts)
    else:
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
    tasks = {raw.get("task") for raw in raw_configs if isinstance(raw, dict)}
    if len(tasks) > 1:
        raise ConfigError("sweep", f"sweep must be homogeneous in task, got {sorted(map(str, tasks))}")
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
            m = record.metrics
            row["min_det"] = m.get("min_det", "")
            row["equival_max"] = m.get("equival_max", "")
            if "sigma_eff" in m:
                (row["s_eff_11"], row["s_eff_12"]), (row["s_eff_21"], row["s_eff_22"]) = m["sigma_eff"]
            row["bmo_log_det"] = m.get("bmo_log_det", "")
            if "ainfty" in m:
                row["c_upper"] = m["ainfty"]["c_upper"]
                row["delta"] = m["ainfty"]["delta"]
                row["m_lower"] = m["ainfty"]["m_lower"]
                row["eta"] = m["ainfty"]["eta"]
            row["rh_det_dv"] = m.get("rh_det_dv_exp2", "")
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


def _apply_overrides(raw: dict, args) -> dict:
    raw = dict(raw)
    if args.out is not None:
        raw["output_dir"] = args.out
    if args.resolution is not None:
        raw["resolution"] = args.resolution
    if args.seed is not None:
        raw["seed"] = args.seed
    return raw


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
        p.add_argument("--resolution", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    try:
        raw = load_config(args.config)
        if args.verb == "sweep":
            configs = raw.get("sweep") if isinstance(raw, dict) else raw
            if not isinstance(configs, list):
                raise ConfigError("sweep", "sweep config must be a list (or {'sweep': [...]})")
            out_dir = args.out or (raw.get("output_dir", "sweep_out") if isinstance(raw, dict) else "sweep_out")
            path = sweep(configs, out_dir)
            print(f"sweep aggregate written to {path}")
            return 0
        raw = _apply_overrides(raw, args)
        if raw.get("task") != args.verb:
            raw["task"] = args.verb
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
