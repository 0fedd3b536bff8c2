import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from beltramilab import cli, coefficients, elliptic_solver, homogenization, weights_diagnostics
from beltramilab.cli import ExperimentConfig, main, run, sweep
from beltramilab.elliptic_solver import interior_residual
from beltramilab.errors import ConfigError
from beltramilab.grid import build_mesh


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestConfigValidation:
    def test_unknown_task(self):
        with pytest.raises(ConfigError, match="task"):
            ExperimentConfig.from_dict({"task": "frobnicate"})

    def test_missing_seed_for_random_family(self):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_dict(
                {"task": "solve", "coefficient": {"family": "random_piecewise"}}
            )

    def test_bad_resolution(self):
        with pytest.raises(ConfigError, match="resolution"):
            ExperimentConfig.from_dict(
                {"task": "solve", "resolution": 1,
                 "coefficient": {"family": "constant", "matrix": [[1, 0], [0, 1]]}}
            )

    def test_bad_boundary_kind(self):
        with pytest.raises(ConfigError, match="boundary.kind"):
            ExperimentConfig.from_dict(
                {"task": "solve",
                 "coefficient": {"family": "constant", "matrix": [[1, 0], [0, 1]]},
                 "boundary": {"kind": "wavelet"}}
            )

    @pytest.mark.parametrize("field, value", [
        ("boundary", 5), ("solver", "lu"), ("diagnostics", [1]),
    ], ids=["boundary", "solver", "diagnostics"])
    def test_non_object_section_rejected(self, field, value):
        raw = {"task": "solve", "coefficient": {"family": "constant", "matrix": [[1, 0], [0, 1]]},
               field: value}
        with pytest.raises(ConfigError, match=f"'{field}'"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("spec, missing", [
        ({"family": "laminate", "a": 1}, "b"),
        ({"family": "checkerboard", "b": 4}, "a"),
        ({"family": "hall_laminate"}, "c"),
        ({"family": "explicit", "table": [[[1, 0], [0, 1]]]}, "cells"),
        ({"family": "constant"}, "matrix"),
    ])
    def test_missing_family_key(self, spec, missing):
        with pytest.raises(ConfigError, match=f"'coefficient.{missing}'"):
            ExperimentConfig.from_dict({"task": "homogenize", "coefficient": spec})

    @pytest.mark.parametrize("task, spec, field", [
        ("convert", {"family": "beltrami", "mu": 0.1, "nu": [0, 0]}, "mu"),
        ("convert", {"family": "beltrami", "mu": [0.1], "nu": [0, 0]}, "mu"),
        ("convert", {"family": "beltrami", "mu": [0, 0], "nu": [0.1, float("nan")]}, "nu"),
        ("convert", {"family": "beltrami", "mu": [0, "0"], "nu": [0, 0]}, "mu"),
        ("convert", {"family": "constant", "matrix": [[1, 0]]}, "matrix"),
        ("solve", {"family": "constant", "matrix": [[1, 0], [0, True]]}, "matrix"),
        # convert reads the constant family's matrix and nothing else
        ("convert", {"family": "constant", "a": 1, "b": 5, "matrix": [[1, 0], [0, 1]]}, "a"),
    ])
    def test_pair_and_matrix_shapes(self, task, spec, field):
        with pytest.raises(ConfigError, match=f"'coefficient.{field}'"):
            ExperimentConfig.from_dict({"task": task, "coefficient": spec})

    @pytest.mark.parametrize("section, key, value", [
        ("boundary", "coefficients", 5),
    ], ids=["boundary_coefficients"])
    def test_number_list_fields(self, section, key, value):
        raw = {"task": "solve", "coefficient": {"family": "constant", "matrix": [[1, 0], [0, 1]]},
               section: {"kind": "affine", key: value}}
        with pytest.raises(ConfigError, match=f"'{section}.{key}'"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("key, value", [("theta_grid", [0.5, 1.0]), ("p_list", [2.0, 4.0]), ("subset_seed", 5)],
                             ids=["theta_grid", "p_list", "subset_seed"])
    def test_fixed_diagnose_protocol_keys_unknown(self, key, value):
        # the theta grid and the L^p exponents are constants of the protocol, not settings, and the
        # sampler seed is the top-level seed, not a second one
        raw = {"task": "diagnose", "coefficient": {"family": "constant", "matrix": [[1, 0], [0, 1]]},
               "diagnostics": {key: value}}
        with pytest.raises(ConfigError, match=f"'diagnostics.{key}'.*unknown key; known keys: max_level$"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("task", ["solve", "primary-pair", "cell", "homogenize", "diagnose"])
    def test_beltrami_family_only_for_convert(self, task):
        spec = {"family": "beltrami", "mu": [0.1, 0], "nu": [0, 0]}
        with pytest.raises(ConfigError, match="'coefficient.family'.*only by the convert task"):
            ExperimentConfig.from_dict({"task": task, "coefficient": spec})
        assert ExperimentConfig.from_dict({"task": "convert", "coefficient": spec}).coefficient == spec

    LAMINATE = {"family": "laminate", "a": 1, "b": 5}

    @pytest.mark.parametrize("raw, field", [
        ({"task": "convert", "coefficient": {"family": "constant", "matrix": [[2, 1], [0.2, 1.5]]},
          "diagnostics": {"tau_oracle": True}}, "diagnostics.tau_oracle"),
        ({"task": "homogenize", "domain": "periodic_cell", "coefficient": LAMINATE,
          "diagnostics": {"area_check": True}}, "diagnostics.area_check"),
        ({"task": "homogenize", "domain": "periodic_cell", "seed": 3,
          "coefficient": {"family": "random_piecewise", "seed": 3}}, "coefficient.seed"),
        ({"task": "convert", "coefficient": {**LAMINATE, "matrix": [[2, 1], [0.2, 1.5]]}}, "coefficient.family"),
    ], ids=["tau_oracle", "area_check", "coefficient_seed", "convert_laminate"])
    def test_removed_keys_name_themselves(self, raw, field):
        # the oracle and the area check always run, a random_piecewise field takes the run's seed, and
        # convert reads a matrix only as itself (constant) or as a Beltrami pair
        with pytest.raises(ConfigError, match=f"'{field}': unknown"):
            ExperimentConfig.from_dict(raw)

    def test_unknown_family(self):
        with pytest.raises(ConfigError, match="coefficient.family"):
            ExperimentConfig.from_dict({"task": "solve", "coefficient": {"family": "marble"}})

    @pytest.mark.parametrize("task, domain, message", [
        ("primary-pair", "periodic_cell", "bounded convex domain"),
        ("cell", "unit_square", "cell task needs domain 'periodic_cell'"),
        ("homogenize", "unit_square", "homogenize needs domain 'periodic_cell'"),
    ])
    def test_wrong_domain_kind(self, tmp_path, task, domain, message):
        cfg = ExperimentConfig.from_dict(
            {"task": task, "domain": domain, "resolution": 4,
             "coefficient": {"family": "constant", "matrix": [[1, 0], [0, 1]]},
             "output_dir": str(tmp_path / "out")}
        )
        with pytest.raises(ConfigError, match=message) as info:
            run(cfg)
        assert info.value.field == "domain"

    @pytest.mark.parametrize("task, kind", [("solve", "polygon_trace"), ("primary-pair", "affine")])
    def test_boundary_kinds_per_task(self, task, kind):
        # solve reads scalar data, primary-pair a polygon trace; another kind used to be ignored
        raw = {"task": task, "coefficient": {"family": "constant", "matrix": [[1, 0], [0, 1]]},
               "boundary": {"kind": kind}}
        with pytest.raises(ConfigError, match="'boundary.kind'"):
            ExperimentConfig.from_dict(raw)

    def test_ngon_domain_fields(self):
        with pytest.raises(ConfigError, match="domain.radius"):
            ExperimentConfig.from_dict(
                {"task": "solve", "domain": {"kind": "regular_ngon", "sides": 5},
                 "coefficient": {"family": "constant", "matrix": [[1, 0], [0, 1]]}}
            )


class TestRunTasks:
    def test_convert_identity_pair(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"task": "convert",
             "coefficient": {"family": "beltrami", "mu": [0, 0], "nu": [0, 0]},
             "output_dir": str(tmp_path / "out")}
        )
        record = run(cfg)
        assert record.all_passed
        assert np.allclose(record.metrics["sigma"], np.eye(2))
        data = json.loads((tmp_path / "out" / "run_record.json").read_text())
        assert data["all_passed"]

    def test_primary_pair_identity_baseline(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"task": "primary-pair", "domain": "unit_square", "resolution": 8,
             "coefficient": {"family": "constant", "matrix": [[1, 0], [0, 1]]},
             "output_dir": str(tmp_path / "out")}
        )
        record = run(cfg)
        assert record.all_passed
        assert abs(record.metrics["min_det"] - 1.0) < 1e-10
        assert (tmp_path / "out" / "pair.csv").exists()
        assert (tmp_path / "out" / "det.csv").exists()

    def test_homogenize_laminate(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"task": "homogenize", "domain": "periodic_cell", "resolution": 16,
             "coefficient": {"family": "laminate", "a": 1, "b": 5},
             "output_dir": str(tmp_path / "out")}
        )
        record = run(cfg)
        assert record.all_passed
        eff = np.asarray(record.metrics["sigma_eff"])
        assert np.abs(eff - np.diag([5 / 3, 3.0])).max() < 1e-9

    @pytest.mark.parametrize("direction", ["x1", "x2"])
    def test_homogenize_laminate_fraction(self, tmp_path, direction):
        # a quarter of phase a: harmonic mean 1 / (0.25 / 1 + 0.75 / 5) = 2.5 across
        # the strips, arithmetic mean 0.25 * 1 + 0.75 * 5 = 4 along them
        cfg = ExperimentConfig.from_dict(
            {"task": "homogenize", "domain": "periodic_cell", "resolution": 32,
             "coefficient": {"family": "laminate", "a": 1, "b": 5, "fraction": 0.25,
                             "direction": direction},
             "output_dir": str(tmp_path / "out")}
        )
        record = run(cfg)
        oracle = np.diag([2.5, 4.0] if direction == "x1" else [4.0, 2.5])
        assert np.abs(np.asarray(record.metrics["sigma_eff"]) - oracle).max() < 1e-9
        assert record.metrics["laminate_oracle_error"] < 1e-9
        assert record.all_passed

    @pytest.mark.parametrize("resolution, coefficient, top, invariant", [
        (16, {"family": "constant", "matrix": [[2, 1], [0.2, 1.5]]}, {}, "constant_passthrough"),
        (16, {"family": "hall", "a": 2, "b": 0.5}, {}, "constant_passthrough"),
        (64, {"family": "checkerboard", "a": 1, "b": 4}, {}, "checkerboard_oracle"),
        (32, {"family": "random_piecewise", "symmetric": True}, {"seed": 7}, "arithmetic_upper_bound"),
        (128, {"family": "laminate", "a": 1, "b": 5}, {}, "area_formula"),
    ], ids=["constant", "hall", "checkerboard-64", "symmetric-random-32", "laminate-area-128"])
    def test_homogenize_invariant(self, tmp_path, resolution, coefficient, top, invariant):
        cfg = ExperimentConfig.from_dict(
            {"task": "homogenize", "domain": "periodic_cell", "resolution": resolution, **top,
             "coefficient": coefficient, "output_dir": str(tmp_path / "out")}
        )
        record = run(cfg)
        assert invariant in [inv["name"] for inv in record.invariants]
        assert record.all_passed
        # the area check runs on every family, at every resolution
        assert {"image_area_e1", "image_area_gap", "stream_residual"} <= set(record.metrics)
        assert record.metrics["image_area_gap"] < 1e-13

    @pytest.mark.parametrize("count", [0, 1, 31, 33])
    def test_solve_with_samples_of_the_wrong_length(self, tmp_path, count):
        # the res-8 square's boundary loop has 32 vertices
        cfg = ExperimentConfig.from_dict(
            {"task": "solve", "resolution": 8,
             "coefficient": {"family": "constant", "matrix": [[2, 1], [0.2, 1.5]]},
             "boundary": {"kind": "samples", "values": [0.5] * count},
             "output_dir": str(tmp_path / "out")}
        )
        with pytest.raises(ConfigError, match=rf"'boundary.values': need 32 samples, got \({count},\)"):
            run(cfg)

    def test_solve_with_affine_boundary(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"task": "solve", "domain": "unit_square", "resolution": 8,
             "coefficient": {"family": "constant", "matrix": [[2, 1], [0.2, 1.5]]},
             "boundary": {"kind": "affine", "coefficients": [0.5, 1.0, -2.0]},
             "output_dir": str(tmp_path / "out")}
        )
        record = run(cfg)
        assert record.all_passed
        assert (tmp_path / "out" / "solution.csv").exists()

    def test_cell_task(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"task": "cell", "domain": "periodic_cell", "resolution": 16,
             "coefficient": {"family": "random_piecewise", "k_max": 4, "cells": 4},
             "seed": 3, "output_dir": str(tmp_path / "out")}
        )
        record = run(cfg)
        assert record.all_passed
        assert record.metrics["linearity_error"] <= 1e-8

    def test_primary_pair_polygon_trace(self, tmp_path):
        # boundary mapped onto a convex polygon: homeomorphism case
        theta = np.linspace(0, 2 * np.pi, 13)[:-1]
        cfg = ExperimentConfig.from_dict(
            {"task": "primary-pair", "domain": "unit_square", "resolution": 8,
             "coefficient": {"family": "constant", "matrix": [[1, 0], [0, 1]]},
             "boundary": {"kind": "polygon_trace",
                          "vertices": np.column_stack([np.cos(theta), np.sin(theta)]).tolist()},
             "output_dir": str(tmp_path / "out")}
        )
        record = run(cfg)
        assert record.all_passed
        assert record.metrics["globally_injective"]

    def test_resolution_list_runs_per_resolution(self, tmp_path):
        # a resolution ladder is a sweep with one row per resolution, every row filled
        base = {"task": "homogenize", "domain": "periodic_cell",
                "coefficient": {"family": "laminate", "a": 1, "b": 5}}
        path = sweep([{**base, "resolution": n} for n in (8, 16)], tmp_path / "out")
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["status"], r["resolution"]) for r in rows] == [("ok", "8"), ("ok", "16")]
        assert all(r["s_eff_11"] for r in rows)
        assert (tmp_path / "out" / "run_000" / "effective_tensor.csv").exists()
        record = json.loads((tmp_path / "out" / "run_001" / "run_record.json").read_text())
        assert record["config"]["resolution"] == 16 and record["all_passed"] and record["invariants"]
        # a list is no resolution
        with pytest.raises(ConfigError, match="'resolution': must be an integer"):
            ExperimentConfig.from_dict({**base, "resolution": [8, 16]})

    def test_diagnose_checkerboard(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"task": "diagnose", "domain": "unit_square", "resolution": 32,
             "coefficient": {"family": "checkerboard", "a": 1, "b": 4},
             "seed": 0, "diagnostics": {"max_level": 3},
             "output_dir": str(tmp_path / "out")}
        )
        record = run(cfg)
        assert record.all_passed
        assert record.metrics["rh_det_dv_exp2"] >= 1.0
        assert (tmp_path / "out" / "square_stats.csv").exists()

    def test_diagnose_periodic_solves_each_operator_once(self, tmp_path, monkeypatch):
        factorizations, validations = [], []
        splu, validate = spla.splu, elliptic_solver.validate_coefficient

        def counting_splu(matrix, *args, **kwargs):
            factorizations.append(matrix.shape)
            return splu(matrix, *args, **kwargs)

        def counting_validate(sigma):
            validations.append(sigma)
            return validate(sigma)

        monkeypatch.setattr(spla, "splu", counting_splu)
        monkeypatch.setattr(elliptic_solver, "validate_coefficient", counting_validate)
        cfg = ExperimentConfig.from_dict(
            {"task": "diagnose", "domain": "periodic_cell", "resolution": 16,
             "coefficient": {"family": "checkerboard", "a": 1, "b": 4},
             "seed": 0, "diagnostics": {"max_level": 3},
             "output_dir": str(tmp_path / "out")}
        )
        run(cfg)
        # the torus stiffness matrix (e1 and e2 together); the streams use the FFT, no LU
        assert len(factorizations) == 1
        assert len(validations) == 1


    def test_homogenize_area_check_solves_each_operator_once(self, tmp_path, monkeypatch):
        factorizations = []
        splu = spla.splu

        def counting_splu(matrix, *args, **kwargs):
            factorizations.append(matrix.shape)
            return splu(matrix, *args, **kwargs)

        monkeypatch.setattr(spla, "splu", counting_splu)
        cfg = ExperimentConfig.from_dict(
            {"task": "homogenize", "domain": "periodic_cell", "resolution": 32,
             "coefficient": {"family": "laminate", "a": 1, "b": 5}, "output_dir": str(tmp_path / "out")}
        )
        record = run(cfg)
        # the torus stiffness matrix (e1 and e2 together); the streams use the FFT, no LU
        assert len(factorizations) == 1
        assert record.metrics["image_area_gap"] < 0.02


    def test_solve_assembles_once_for_both_residuals(self, tmp_path, monkeypatch):
        raw = {"task": "solve", "domain": "unit_square", "resolution": 16,
               "coefficient": {"family": "random_piecewise", "k_max": 4, "cells": 4}, "seed": 8,
               "boundary": {"kind": "affine", "coefficients": [0.5, 1.0, -2.0]}}

        def one_by_one(sigma, values):
            # the former path: one assembly and one residual per field
            return np.column_stack([interior_residual(sigma, v[:, None])[:, 0] for v in values.T])

        monkeypatch.setattr(cli, "interior_residual", one_by_one)
        run(ExperimentConfig.from_dict({**raw, "output_dir": str(tmp_path / "before")}))
        monkeypatch.undo()
        assemblies = []
        free_block = elliptic_solver._free_block

        def counting_build(mesh, *args):
            assemblies.append(mesh.n_vertices)
            return free_block(mesh, *args)

        monkeypatch.setattr(elliptic_solver, "_free_block", counting_build)
        record = run(ExperimentConfig.from_dict({**raw, "output_dir": str(tmp_path / "after")}))
        # the Dirichlet solve, then the residuals of u and of the boundary lift together
        assert len(assemblies) == 2
        assert record.all_passed
        before, after = tmp_path / "before", tmp_path / "after"
        assert (after / "solution.csv").read_bytes() == (before / "solution.csv").read_bytes()
        text = (before / "run_record.json").read_text().replace(str(before), str(after))
        assert (after / "run_record.json").read_text() == text


def diagnose_config(tmp_path, seed, resolution, domain="unit_square"):
    return ExperimentConfig.from_dict(
        {"task": "diagnose", "domain": domain, "resolution": resolution, "seed": seed,
         "coefficient": {"family": "random_piecewise", "k_max": 5, "cells": 4, "symmetric": False},
         "diagnostics": {"max_level": 5}, "output_dir": str(tmp_path / "out")})


class TestDiagnoseOrder:
    """``diagnose`` rejects a bad weight or coordinate map before it samples the A-infinity envelopes."""

    @pytest.fixture
    def probe_calls(self, monkeypatch):
        calls = []
        probe = cli.ainfty_probe

        def counting_probe(*args, **kwargs):
            calls.append(args)
            return probe(*args, **kwargs)

        monkeypatch.setattr(cli, "ainfty_probe", counting_probe)
        return calls

    def test_injectivity_fault_skips_the_probe(self, tmp_path, probe_calls):
        # seed 106's f = u1 + i*ut1 folds a boundary triangle at res 32
        with pytest.raises(ValueError, match="not locally injective"):
            run(diagnose_config(tmp_path, 106, 32))
        assert probe_calls == []

    def test_weight_fault_is_found_first(self, tmp_path, probe_calls):
        # seed 1008's U has det DU < 0 on one triangle, so the BMO norm rejects the weight
        with pytest.raises(ValueError, match="weight must be positive"):
            run(diagnose_config(tmp_path, 1008, 64))
        assert probe_calls == []

    @pytest.mark.parametrize("domain", ["unit_square", "periodic_cell"])
    def test_passing_config_probes_once(self, tmp_path, probe_calls, domain):
        record = run(diagnose_config(tmp_path, 1001, 32, domain))
        assert record.all_passed
        assert len(probe_calls) == 1

    def test_square_solves_one_conjugate(self, tmp_path, monkeypatch):
        # ut2 of the primary pair is never read, so only u1's conjugate is reconstructed
        streamed = []
        stream = elliptic_solver.stream_function

        def counting_stream(sigma, us):
            streamed.append(len(us))
            return stream(sigma, us)

        monkeypatch.setattr(homogenization, "stream_function", counting_stream)
        monkeypatch.setattr(cli, "primary_pair", None)
        run(diagnose_config(tmp_path, 1001, 16))
        assert streamed == [1]

    @pytest.mark.parametrize("seed, sampler_seed", [(None, 0), (7, 7)], ids=["no_seed", "seed"])
    def test_sampler_takes_the_top_level_seed(self, tmp_path, monkeypatch, seed, sampler_seed):
        seeds = []
        sampler = cli.random_subset_sampler
        monkeypatch.setattr(cli, "random_subset_sampler", lambda seed: seeds.append(seed) or sampler(seed=seed))
        raw = {"task": "diagnose", "domain": "periodic_cell", "resolution": 16,
               "coefficient": {"family": "checkerboard", "a": 1, "b": 4},
               "diagnostics": {"max_level": 3}, "output_dir": str(tmp_path / "out")}
        if seed is not None:
            raw["seed"] = seed
        run(ExperimentConfig.from_dict(raw))
        assert seeds == [sampler_seed]


def reference_trace_by_arclength(mesh, vertices):
    """The former per-vertex loop of ``cli._trace_by_arclength``."""
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


class TestTraceByArclength:
    @pytest.mark.parametrize("domain", ["unit_square", ("regular_ngon", 7, 1.0)], ids=["square", "7gon"])
    def test_matches_the_per_vertex_loop_bit_for_bit(self, domain):
        mesh = build_mesh(domain, 8)
        rng = np.random.default_rng(20)
        for trial in range(100):
            target = rng.normal(size=(rng.integers(4, 12), 2))
            if trial % 3 == 0:  # zero-length edges: repeated vertices, the last one closing onto the first
                target[1] = target[0]
                target[-1] = target[0]
            got, want = cli._trace_by_arclength(mesh, target), reference_trace_by_arclength(mesh, target)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()


class TestSweep:
    def test_empty_sweep_header_only(self, tmp_path):
        path = sweep([], tmp_path / "sweep")
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("index,label,task,status")

    def test_partial_failure_recorded(self, tmp_path):
        good = {"task": "primary-pair", "domain": "unit_square", "resolution": 8,
                "coefficient": {"family": "constant", "matrix": [[1, 0], [0, 1]]}}
        bad = {"task": "primary-pair", "domain": "unit_square", "resolution": 8,
               "coefficient": {"family": "random_piecewise"}}
        path = sweep([good, bad], tmp_path / "sweep")
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert ",ok," in lines[1]
        assert ",error," in lines[2]

    def test_mesh_budget_error_recorded_and_sweep_continues(self, tmp_path):
        # 2 * 1001^2 triangles exceed the budget; the check runs before allocation
        huge = {"task": "primary-pair", "domain": "unit_square", "resolution": 1001,
                "coefficient": {"family": "constant", "matrix": [[1, 0], [0, 1]]}}
        good = {"task": "primary-pair", "domain": "unit_square", "resolution": 8,
                "coefficient": {"family": "constant", "matrix": [[1, 0], [0, 1]]}}
        path = sweep([huge, good], tmp_path / "sweep")
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert ",error," in lines[1] and "budget" in lines[1]
        assert ",ok," in lines[2]

    def test_envelope_miss_recorded_and_sweep_continues(self, tmp_path, monkeypatch):
        fit = weights_diagnostics._envelope_fit
        calls = []

        def first_upper_misses(t, r, upper):
            const, slope = fit(t, r, upper)
            calls.append(upper)
            return (0.5 * const if upper and len(calls) == 1 else const), slope

        monkeypatch.setattr(weights_diagnostics, "_envelope_fit", first_upper_misses)
        cfg = {"task": "diagnose", "domain": "unit_square", "resolution": 32,
               "coefficient": {"family": "checkerboard", "a": 1, "b": 4},
               "seed": 0, "diagnostics": {"max_level": 3}}
        path = sweep([cfg, cfg], tmp_path / "sweep")
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert ",error," in lines[1] and "upper envelope" in lines[1]
        assert ",ok," in lines[2]

    def test_malformed_config_recorded_and_sweep_continues(self, tmp_path):
        bad = {"task": "homogenize", "domain": "periodic_cell", "resolution": 8,
               "coefficient": {"family": "laminate", "a": 1}}
        good = {"task": "homogenize", "domain": "periodic_cell", "resolution": 8,
                "coefficient": {"family": "laminate", "a": 1, "b": 5}}
        path = sweep([bad, good], tmp_path / "sweep")
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert ",error," in lines[1] and "coefficient.b" in lines[1]
        assert ",ok," in lines[2]

    @pytest.mark.parametrize("coefficient, message", [
        ({"family": "random_piecewise", "cells": 0}, "empty"),
        ({"family": "explicit", "table": [], "cells": 0}, "empty"),
        ({"family": "laminate", "a": 1, "b": 5, "direction": "x3"}, "direction"),
        ({"family": "hall_laminate", "c": 0.5, "direction": "y"}, "direction"),
        ({"family": "laminate", "a": 1, "b": 5, "fraction": 2.0}, "fraction"),
    ], ids=["random_piecewise_cells_0", "explicit_cells_0", "laminate_x3", "hall_laminate_y",
            "laminate_fraction_2"])
    def test_bad_lattice_parameter_recorded_and_sweep_continues(self, tmp_path, coefficient, message):
        bad = {"task": "homogenize", "domain": "periodic_cell", "resolution": 8, "seed": 0,
               "coefficient": coefficient}
        good = {**bad, "coefficient": {"family": "laminate", "a": 1, "b": 5}}
        path = sweep([bad, good], tmp_path / "sweep")
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert ",error," in lines[1] and message in lines[1]
        assert ",ok," in lines[2]

    def test_non_finite_coefficient_recorded_and_sweep_continues(self, tmp_path):
        good = {"task": "homogenize", "domain": "periodic_cell", "resolution": 8,
                "coefficient": {"family": "laminate", "a": 1, "b": 5}}
        # an explicit table is type-checked, so its NaN is reported with its key
        bad = {**good, "coefficient": {"family": "explicit", "table": [[[float("nan"), 0], [0, 1]]], "cells": 1}}
        path = sweep([bad, good], tmp_path / "sweep")
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert ",error," in lines[1] and "'coefficient.table': must be finite numbers of shape (n, 2, 2)" in lines[1]
        assert ",ok," in lines[2]

    @pytest.mark.parametrize("solver, message", [
        ({"tolerance": float("inf")}, "'solver.tolerance': must be a finite number"),
        ({"tolerance": float("nan")}, "'solver.tolerance': must be a finite number"),
        ({"tolerance": "1e-3"}, "'solver.tolerance': must be a finite number"),
        ({"tolerance": True}, "'solver.tolerance': must be a finite number"),
        ({"tolerance": 0}, "'solver.tolerance': must lie in (0, 1e-08]"),
        # a tolerance looser than the fixed gate would be misread as loosening it
        ({"tolerance": 1e-6}, "'solver.tolerance': must lie in (0, 1e-08]"),
        # the iterative solver is gone: max_iterations, valid or not before, is an unknown key
        ({"method": "iterative_nonsymmetric", "max_iterations": 0}, "'solver.max_iterations': unknown key"),
        ({"max_iterations": 2.7}, "'solver.max_iterations': unknown key"),
        ({"max_iterations": True}, "'solver.max_iterations': unknown key"),
        ({"max_iterations": "10"}, "'solver.max_iterations': unknown key"),
        ({"method": "iterative_nonsymmetric"}, "'solver.method': only 'direct_lu' is accepted"),
    ], ids=["inf", "nan", "string_tolerance", "bool_tolerance", "zero_tolerance", "loose_tolerance",
            "zero_iterations", "float_iterations", "bool_iterations", "string_iterations", "iterative_method"])
    def test_bad_solver_option_recorded_and_sweep_continues(self, tmp_path, solver, message):
        good = {"task": "homogenize", "domain": "periodic_cell", "resolution": 8,
                "coefficient": {"family": "laminate", "a": 1, "b": 5}}
        path = sweep([{**good, "solver": solver}, good], tmp_path / "sweep")
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert ",error," in lines[1] and message in lines[1]
        assert ",ok," in lines[2]

    def test_direct_lu_method_accepted(self, tmp_path):
        good = {"task": "homogenize", "domain": "periodic_cell", "resolution": 8,
                "coefficient": {"family": "laminate", "a": 1, "b": 5},
                "solver": {"method": "direct_lu", "tolerance": 1e-10}}
        lines = sweep([good], tmp_path / "sweep").read_text().splitlines()
        assert len(lines) == 2 and ",ok," in lines[1]

    def test_every_accepted_tolerance_gives_the_same_artifacts(self, tmp_path):
        # every solve meets the one fixed gate: the tolerance is only checked, never read
        def output(tolerance):
            out = tmp_path / str(tolerance)
            run(ExperimentConfig.from_dict({
                "task": "primary-pair", "resolution": 16, "seed": 1, "output_dir": str(out),
                "coefficient": {"family": "random_piecewise", "k_max": 5, "cells": 4},
                "solver": {"method": "direct_lu", "tolerance": tolerance}}))
            record = json.loads((out / "run_record.json").read_text())
            del record["config"]
            return record, {p.name: p.read_bytes() for p in out.glob("*.csv")}

        (loose, loose_csv), (tight, tight_csv) = output(1e-8), output(1e-10)
        assert loose == tight
        assert sorted(loose_csv) == ["det.csv", "pair.csv", "triangles.csv", "vertices.csv"]
        assert loose_csv == tight_csv

    # One good config per section; each case sets one scalar of it to a value of the wrong type,
    # or adds a key its section does not know.
    SCALAR_GOOD = {
        "random": {"task": "homogenize", "domain": "periodic_cell", "resolution": 8, "seed": 3,
                   "coefficient": {"family": "random_piecewise", "k_max": 3.0, "cells": 2, "symmetric": False}},
        "laminate": {"task": "homogenize", "domain": "periodic_cell", "resolution": 8,
                     "coefficient": {"family": "laminate", "a": 1, "b": 5, "fraction": 0.5}},
        "ngon": {"task": "solve", "domain": {"kind": "regular_ngon", "sides": 5, "radius": 1.0},
                 "resolution": 4, "coefficient": {"family": "constant", "matrix": [[1, 0], [0, 1]]},
                 "boundary": {"kind": "affine", "coefficients": [0.5, 1.0, -2.0]}},
        "cell": {"task": "cell", "domain": "periodic_cell", "resolution": 8,
                 "coefficient": {"family": "laminate", "a": 1, "b": 5},
                 "diagnostics": {"affine_part": [[2.0, 0.5], [0.3, 1.0]]}},
        "diagnose": {"task": "diagnose", "domain": "unit_square", "resolution": 32, "seed": 0,
                     "coefficient": {"family": "checkerboard", "a": 1, "b": 4},
                     "diagnostics": {"max_level": 3}},
        "convert": {"task": "convert", "coefficient": {"family": "beltrami", "mu": [0.1, 0], "nu": [0, 0]}},
        # unit_square at resolution 4 has 16 boundary vertices
        "samples": {"task": "solve", "resolution": 4,
                    "coefficient": {"family": "constant", "matrix": [[1, 0], [0, 1]]},
                    "boundary": {"kind": "samples", "values": [float(k % 4) for k in range(16)]}},
        "trace": {"task": "primary-pair", "resolution": 8,
                  "coefficient": {"family": "constant", "matrix": [[1, 0], [0, 1]]},
                  "boundary": {"kind": "polygon_trace", "vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]]}},
        "explicit": {"task": "homogenize", "domain": "periodic_cell", "resolution": 8,
                     "coefficient": {"family": "explicit", "table": [[[2, 0], [0, 1]]], "cells": 1}},
    }

    @pytest.mark.parametrize("base, field, value", [
        ("random", "seed", 1.7), ("random", "seed", True), ("random", "seed", "3"),
        ("random", "coefficient.seed", 1.5), ("random", "coefficient.cells", 2.5),
        ("random", "coefficient.symmetric", "no"), ("random", "coefficient.k_max", True),
        ("laminate", "coefficient.a", "2"), ("laminate", "coefficient.a", True),
        ("laminate", "coefficient.a", float("nan")), ("laminate", "coefficient.fraction", "0.25"),
        ("ngon", "domain.sides", 5.7), ("ngon", "domain.radius", "1"),
        ("cell", "diagnostics.affine_part", [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ("cell", "diagnostics.affine_part", [[float("nan"), 0], [0, 1]]),
        ("cell", "diagnostics.affine_part", "x"),
        ("diagnose", "diagnostics.max_level", 2.9), ("diagnose", "diagnostics.max_level", "3"),
        ("diagnose", "diagnostics.subset_seed", 1.5),
        # unknown keys: misspelt, in the wrong section, of another family or of another task
        ("laminate", "solver.tolerence", 1e-30), ("laminate", "coefficient.fracton", 0.25),
        ("laminate", "diagnostic", {"area_check": True}), ("diagnose", "coefficient.fraction", 0.25),
        ("laminate", "coefficient.seed", 3), ("cell", "diagnostics.area_check", True),
        ("ngon", "boundary.coefficent", [0.5, 1.0, -2.0]), ("ngon", "domain.center", [0, 0]),
        # a family or kind that is not even a string
        ("laminate", "coefficient.family", ["laminate"]), ("ngon", "boundary.kind", ["affine"]),
        # boundary data for a task that reads none
        ("laminate", "boundary", {"kind": "affine", "coefficients": [0.5, 1.0, -2.0]}),
        # removed flags: the oracle and the area check always run
        ("convert", "diagnostics.tau_oracle", "false"), ("laminate", "diagnostics.area_check", "no"),
        # arrays that numpy would read with booleans as 0/1, or fail on when ragged
        ("samples", "boundary.values", [k % 2 == 0 for k in range(16)]),
        ("trace", "boundary.vertices", [[True, False], [False, True], [True, True]]),
        ("trace", "boundary.vertices", [[1, 0], [0, 1, 2], [-1, 0]]),
        ("explicit", "coefficient.table", [[[True, False], [False, True]]]),
        # a task that is not a string is this row's error, not a second task of the sweep
        ("laminate", "task", ["homogenize"]), ("laminate", "task", {"name": "homogenize"}),
        # the diagnose protocol's fixed theta grid and L^p exponents are unknown keys, even at their values
        ("diagnose", "diagnostics.theta_grid", [0.5, 1.0]), ("diagnose", "diagnostics.p_list", [2.0, 4.0]),
    ])
    def test_bad_scalar_type_recorded_and_sweep_continues(self, tmp_path, base, field, value):
        good = self.SCALAR_GOOD[base]
        bad = json.loads(json.dumps(good))
        *sections, key = field.split(".")
        target = bad.setdefault(sections[0], {}) if sections else bad
        target[key] = value
        path = sweep([bad, good], tmp_path / "sweep")
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert ",error," in lines[1] and f"config field '{field}'" in lines[1]
        assert ",ok," in lines[2]

    def test_trace_with_a_corner_inside_a_target_edge_is_an_error_row(self, tmp_path):
        # the square's corners (1, 0) and (0, 1) land inside straight hexagon edges, so the corner
        # triangles [15, 16, 33] and [255, 273, 272] would map to segments (det exactly 0)
        hexagon = [[1, 0], [0.5, 0.8], [-0.5, 0.8], [-1, 0], [-0.5, -0.8], [0.5, -0.8]]
        base = {"task": "primary-pair", "resolution": 16,
                "coefficient": {"family": "constant", "matrix": [[2, 1], [0.2, 1.5]]}}
        bad = {**base, "boundary": {"kind": "polygon_trace", "vertices": hexagon}}
        good = {**base, "boundary": {"kind": "polygon_trace", "vertices": [[0, 0], [1, 1], [0, 2], [-1, 1]]}}
        path = sweep([bad, good], tmp_path / "sweep")
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert ",error," in lines[1] and "config field 'boundary.vertices'" in lines[1]
        assert "[15, 16, 33]" in lines[1]
        assert ",ok," in lines[2]

    def test_non_object_entry_recorded_and_sweep_continues(self, tmp_path):
        good = {"task": "convert", "coefficient": {"family": "beltrami", "mu": [0.1, 0], "nu": [0, 0]}}
        path = sweep([5, good], tmp_path / "sweep")
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("0,,,error,") and "<root>" in lines[1]
        assert ",ok," in lines[2]

    @pytest.mark.parametrize("coefficient, seed", [
        ({"family": "laminate"}, None), ({"family": "random_piecewise"}, None),
        ({"family": "random_piecewise"}, 3), ({"family": "explicit"}, None),
    ], ids=["laminate", "random_piecewise", "random_piecewise_seeded", "explicit"])
    def test_convert_reads_only_the_matrix_of_any_family(self, tmp_path, coefficient, seed):
        # the matrix is read from the constant family only; another family name is no alias of it
        cfg = {"task": "convert", "coefficient": {**coefficient, "matrix": [[2, 0.5], [0.5, 1]]}}
        if seed is not None:
            cfg["seed"] = seed
        constant = {**cfg, "coefficient": {**cfg["coefficient"], "family": "constant"}}
        lines = sweep([cfg, constant], tmp_path / "sweep").read_text().splitlines()
        assert len(lines) == 3
        assert ",error," in lines[1] and "config field 'coefficient.family': unknown family" in lines[1]
        assert ",ok," in lines[2]

    def test_scalar_mu_recorded_and_convert_sweep_continues(self, tmp_path):
        bad = {"task": "convert", "coefficient": {"family": "beltrami", "mu": 0.1, "nu": [0, 0]}}
        good = {"task": "convert", "coefficient": {"family": "beltrami", "mu": [0.1, 0], "nu": [0, 0]}}
        path = sweep([bad, good], tmp_path / "sweep")
        lines = path.read_text().splitlines()
        assert ",error," in lines[1] and "coefficient.mu" in lines[1]
        assert ",ok," in lines[2]

    def test_square_budget_recorded_and_sweep_continues(self, tmp_path):
        cfg = {"task": "diagnose", "domain": "unit_square", "resolution": 4,
               "coefficient": {"family": "constant", "matrix": [[1, 0], [0, 1]]},
               "diagnostics": {"max_level": 11}}
        good = {**cfg, "resolution": 16, "diagnostics": {"max_level": 2}}
        path = sweep([cfg, good], tmp_path / "sweep")
        lines = path.read_text().splitlines()
        assert ",error," in lines[1] and "dyadic squares" in lines[1] and "budget" in lines[1]
        assert ",ok," in lines[2]

    def test_no_twice_inside_square_recorded_and_sweep_continues(self, tmp_path):
        cfg = {"task": "diagnose", "domain": "unit_square", "resolution": 4,
               "coefficient": {"family": "constant", "matrix": [[1, 0], [0, 1]]},
               "diagnostics": {"max_level": 1}}
        good = {**cfg, "resolution": 16, "diagnostics": {"max_level": 2}}
        path = sweep([cfg, good], tmp_path / "sweep")
        lines = path.read_text().splitlines()
        assert ",error," in lines[1] and "no admissible twice-inside square" in lines[1]
        assert ",ok," in lines[2]

    def test_unhashable_task_is_an_error_row(self, tmp_path):
        path = sweep([{"task": ["solve"]}], tmp_path / "sweep")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert ",error," in lines[1] and "config field 'task': must be a string" in lines[1]

    def test_heterogeneous_tasks_rejected(self, tmp_path):
        a = {"task": "convert", "coefficient": {"family": "beltrami", "mu": [0, 0], "nu": [0, 0]}}
        b = {"task": "solve", "coefficient": {"family": "constant", "matrix": [[1, 0], [0, 1]]}}
        with pytest.raises(ConfigError, match="sweep"):
            sweep([a, b], tmp_path / "sweep")

    def test_rerun_bit_identical(self, tmp_path):
        configs = [
            {"task": "primary-pair", "domain": "unit_square", "resolution": 16,
             "coefficient": {"family": "random_piecewise", "k_max": 5, "cells": 4,
                             "symmetric": s < 1},
             "seed": s, "label": f"seed{s}"}
            for s in range(2)
        ]
        p1 = sweep(configs, tmp_path / "a")
        p2 = sweep(configs, tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()


    def test_diagnose_rerun_bit_identical(self, tmp_path):
        configs = [
            {"task": "diagnose", "domain": domain, "resolution": res, "seed": seed,
             "coefficient": {"family": "random_piecewise", "k_max": 5, "cells": 4,
                             "symmetric": False},
             "diagnostics": {"max_level": 3}, "label": domain}
            for domain, res, seed in (("unit_square", 32, 2), ("periodic_cell", 16, 4))
        ]
        a, b = (sweep(configs, tmp_path / name).parent for name in ("a", "b"))
        assert (a / "aggregate.csv").read_bytes() == (b / "aggregate.csv").read_bytes()
        assert all(",ok," in line for line in (a / "aggregate.csv").read_text().splitlines()[1:])
        for i in range(2):
            run_a, run_b = a / f"run_{i:03d}", b / f"run_{i:03d}"
            assert (run_a / "square_stats.csv").read_bytes() == (run_b / "square_stats.csv").read_bytes()
            rec_a, rec_b = (json.loads((r / "run_record.json").read_text()) for r in (run_a, run_b))
            assert rec_a["config"].pop("output_dir") != rec_b["config"].pop("output_dir")
            assert json.dumps(rec_a) == json.dumps(rec_b)


class TestMainEntry:
    def test_run_and_exit_code(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json",
            {"task": "primary-pair", "domain": "unit_square", "resolution": 8,
             "coefficient": {"family": "constant", "matrix": [[1, 0], [0, 1]]},
             "output_dir": str(tmp_path / "out")},
        )
        assert main(["primary-pair", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "PASS jacobian_positive" in out

    def test_overrides(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json",
            {"task": "primary-pair", "domain": "unit_square", "resolution": 8,
             "coefficient": {"family": "constant", "matrix": [[1, 0], [0, 1]]}},
        )
        out_dir = tmp_path / "elsewhere"
        assert main(["primary-pair", "--config", str(cfg), "--out", str(out_dir)]) == 0
        record = json.loads((out_dir / "run_record.json").read_text())
        assert record["config"]["resolution"] == 8
        # the resolution and the seed come from the config alone; the options that set them again are gone
        for option in ("--resolution", "--seed"):
            with pytest.raises(SystemExit) as exit_info:
                main(["primary-pair", "--config", str(cfg), "--out", str(out_dir), option, "4"])
            assert exit_info.value.code == 2

    @pytest.mark.parametrize("document", [[], [{"task": "solve"}], "solve"], ids=["empty_list", "list", "string"])
    def test_config_that_is_not_an_object_exits_one(self, tmp_path, caplog, document):
        cfg = write_config(tmp_path, "c.json", document)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "config field '<root>': must be a JSON object" in caplog.text

    def test_convert_with_tau_oracle(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json",
            {"task": "convert", "coefficient": {"family": "constant", "matrix": [[2, 1], [0.2, 1.5]]}},
        )
        out_dir = tmp_path / "out"
        assert main(["convert", "--config", str(cfg), "--out", str(out_dir)]) == 0
        record = json.loads((out_dir / "run_record.json").read_text())
        assert record["metrics"]["tau_bound_oracle"]["agrees_with_closed_form"] is True

    def test_invalid_config_exit_one(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"task": "solve",
                                                "coefficient": {"family": "random_piecewise"}})
        assert main(["solve", "--config", str(cfg)]) == 1

    def test_value_error_reported_with_exit_one(self, tmp_path, caplog):
        # this draw's recovered stream function folds a boundary triangle, so
        # change_coordinates raises ValueError inside the diagnose task
        cfg = write_config(
            tmp_path, "c.json",
            {"task": "diagnose", "domain": "unit_square", "resolution": 32, "seed": 106,
             "coefficient": {"family": "random_piecewise", "k_max": 5, "cells": 4,
                             "symmetric": False},
             "diagnostics": {"max_level": 5}, "output_dir": str(tmp_path / "out")},
        )
        assert main(["diagnose", "--config", str(cfg)]) == 1
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert any("not locally injective" in r.getMessage() for r in errors)

    def test_sweep_verb(self, tmp_path):
        cfg = write_config(
            tmp_path, "s.json",
            {"sweep": [
                {"task": "convert",
                 "coefficient": {"family": "beltrami", "mu": [0, 0], "nu": [0, 0]}},
            ]},
        )
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")]) == 0
        assert (tmp_path / "sw" / "aggregate.csv").exists()

    def test_sweep_document_keys(self, tmp_path, monkeypatch, caplog):
        monkeypatch.chdir(tmp_path)
        good = {"task": "convert", "coefficient": {"family": "beltrami", "mu": [0, 0], "nu": [0, 0]}}
        cfg = write_config(tmp_path, "s.json", {"sweep": [good], "output_dir": "named"})
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert (tmp_path / "named" / "aggregate.csv").exists()
        # a misspelt key used to be dropped, and the sweep written to sweep_out/
        cfg = write_config(tmp_path, "typo.json", {"sweep": [good], "output": "x"})
        assert main(["sweep", "--config", str(cfg)]) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert any("config field 'output': unknown key" in m for m in errors)
        assert not (tmp_path / "sweep_out").exists() and not (tmp_path / "x").exists()

    @pytest.mark.parametrize("verb", ["solve", "sweep"])
    def test_non_string_output_dir_exits_one(self, tmp_path, monkeypatch, caplog, verb):
        monkeypatch.chdir(tmp_path)
        good = {"task": "solve", "resolution": 8,
                "coefficient": {"family": "constant", "matrix": [[2, 1], [0.2, 1.5]]}}
        doc = {"sweep": [good], "output_dir": 5} if verb == "sweep" else {**good, "output_dir": 5}
        cfg = write_config(tmp_path, "c.json", doc)
        assert main([verb, "--config", str(cfg)]) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert any("config field 'output_dir': must be a string, got 5" in m for m in errors)

    def test_sweep_verb_exits_one_unless_every_row_ok(self, tmp_path, capsys):
        good = {"task": "solve", "resolution": 8,
                "coefficient": {"family": "constant", "matrix": [[2, 1], [0.2, 1.5]]}}
        non_elliptic = {**good, "coefficient": {"family": "constant", "matrix": [[1, 0], [0, -1]]}}
        cfg = write_config(tmp_path, "s.json", {"sweep": [good, non_elliptic]})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")]) == 1
        assert "1 of 2 rows not ok" in capsys.readouterr().out
        rows = (tmp_path / "sw" / "aggregate.csv").read_text().splitlines()
        assert ",ok," in rows[1] and ",error," in rows[2]
        cfg = write_config(tmp_path, "s.json", {"sweep": [good, good]})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw2")]) == 0
        assert "0 of 2 rows not ok" in capsys.readouterr().out

    @pytest.mark.parametrize("entry", [5, {"task": "convert"}, "run.json"])
    def test_sweep_entry_that_is_not_a_list(self, tmp_path, caplog, entry):
        cfg = write_config(tmp_path, "s.json", {"sweep": entry, "output_dir": str(tmp_path / "sw")})
        assert main(["sweep", "--config", str(cfg)]) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert any("config field 'sweep': sweep config must be a list" in m for m in errors)
        assert not (tmp_path / "sw").exists()

    def test_sweep_verb_without_list(self, tmp_path, caplog):
        cfg = write_config(tmp_path, "s.json", {"output_dir": str(tmp_path / "sw")})
        assert main(["sweep", "--config", str(cfg)]) == 1
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert any("config field 'sweep'" in r.getMessage() for r in errors)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


RANDOM_128 = {"resolution": 128, "seed": 1001,
              "coefficient": {"family": "random_piecewise", "k_max": 5, "cells": 4}}


@pytest.mark.skipif(_usable_cpus() < 2, reason="BLAS runs one thread on a single CPU, so there is no second count")
@pytest.mark.parametrize("config", [
    {"task": "cell", "domain": "periodic_cell", "diagnostics": {"affine_part": [[2, 0.5], [0.3, 1]]}},
    {"task": "diagnose", "domain": "unit_square", "diagnostics": {"max_level": 5}},
    {"task": "diagnose", "domain": "periodic_cell", "diagnostics": {"max_level": 5}},
    {"task": "homogenize", "domain": "periodic_cell"},
], ids=["cell", "diagnose-unit_square", "diagnose-periodic_cell", "homogenize"])
def test_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, config):
    # OpenBLAS splits a long dot product across its threads, which moves its last bits
    cfg = write_config(tmp_path, "config.json", {**RANDOM_128, **config})
    src = str(Path(cli.__file__).parents[1])
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "beltramilab.cli", config["task"], "--config", str(cfg), "--out", str(out)],
                       env=env, check=True, capture_output=True)
        outs.append(out)
    one, two = outs
    csvs = sorted(path.name for path in one.glob("*.csv"))
    assert csvs and csvs == sorted(path.name for path in two.glob("*.csv"))
    for name in csvs:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name
    metrics = [json.loads((out / "run_record.json").read_text())["metrics"] for out in outs]
    assert json.dumps(metrics[0]) == json.dumps(metrics[1])
    if config["task"] == "homogenize":
        assert "image_area_e1" in metrics[0]


@pytest.mark.parametrize("domain, spec, builder, args", [
    ("unit_square", {"family": "constant", "matrix": [[2, 1], [0, 3]]}, "constant_field", ([[2.0, 1.0], [0.0, 3.0]],)),
    ("periodic_cell", {"family": "laminate", "a": 1, "b": 5, "direction": "x2", "fraction": 0.25},
     "laminate_field", (1.0, 5.0, "x2", 0.25)),
    ("periodic_cell", {"family": "laminate", "a": 2, "b": 3}, "laminate_field", (2.0, 3.0, "x1", 0.5)),
    ("periodic_cell", {"family": "checkerboard", "a": 1, "b": 4}, "checkerboard_field", (1.0, 4.0)),
    ("unit_square", {"family": "hall", "a": 2, "b": 0}, "hall_field", (2.0, 0.0)),
    ("periodic_cell", {"family": "hall_laminate", "c": 1, "direction": "x2"}, "hall_laminate_field", (1.0, "x2")),
    ("unit_square", {"family": "random_piecewise", "k_max": 4, "cells": 2, "symmetric": True},
     "random_piecewise_field", (4.0, 2, 11, True)),
    ("periodic_cell", {"family": "explicit", "table": [[[2, 0], [0, 1]], [[1, 0], [0, 2]]] * 2, "cells": 2},
     "explicit_field", ([[[2.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 2.0]]] * 2, 2)),
], ids=["constant", "laminate", "laminate-defaults", "checkerboard", "hall", "hall_laminate", "random_piecewise",
         "explicit"])
def test_build_coefficient_calls_the_family_builder(domain, spec, builder, args):
    # the completed section is the builder's keywords, integer values included; equal as numbers, since
    # hall's -b is +0.0 for an integer 0 and -0.0 for 0.0
    cfg = ExperimentConfig.from_dict({"task": "solve", "domain": domain, "resolution": 8, "seed": 11,
                                      "coefficient": spec})
    mesh = build_mesh(domain, 8)
    built = cli.build_coefficient(mesh, cfg.coefficient)
    direct = getattr(coefficients, builder)(mesh, *args)
    assert np.array_equal(built.table, direct.table)
    assert np.array_equal(built.index, direct.index)
