import logging
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from beltramilab import elliptic_solver
from beltramilab.coefficients import (
    constant_field,
    laminate_field,
    random_piecewise_field,
)
from beltramilab.elliptic_solver import (
    LU_ORDERING,
    LU_PANEL_SIZE,
    MAX_REFINEMENT_STEPS,
    NESTED_DISSECTION,
    RESIDUAL_GATE,
    _checked_stats,
    _element_matrices,
    _free_block,
    _free_dofs,
    _load_vector,
    _solve_fixed,
    _solve_lattice,
    _solve_system,
    interior_residual,
    mean_flux,
    rotated_flux,
    solve_dirichlet,
    solve_periodic_cell,
    stream_function,
    validate_coefficient,
)
from beltramilab.errors import NonEllipticError, SolverError
from beltramilab.grid import (
    ElementMatrixField,
    ScalarFieldP1,
    TriMesh,
    build_periodic_cell,
    build_regular_ngon,
    build_unit_square,
    element_gradient,
    interior_dissection_order,
    lattice_resolution,
)
from beltramilab.homogenization import cell_map, effective_conductivity
from beltramilab.sigma_harmonic import primary_pair


def resistor_profile(x, a, b):
    """1D two-point oracle for equal strips of conductivity a then b."""
    sa = 2.0 * b / (a + b)
    sb = 2.0 * a / (a + b)
    return np.where(x < 0.5, sa * x, sa * 0.5 + sb * (x - 0.5))


class TestDirichlet:
    def test_identity_coordinate_data(self):
        m = build_unit_square(8)
        u = solve_dirichlet(constant_field(m, np.eye(2)), lambda p: p[:, 0])
        assert np.abs(u.values - m.vertices[:, 0]).max() < 1e-13

    def test_constant_sigma_affine_exactness_suite(self):
        # constant-coefficient operators annihilate affine functions
        rng = np.random.default_rng(0)
        m = build_unit_square(6)
        done = 0
        while done < 20:
            mat = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
            sig = constant_field(m, mat)
            try:
                c = rng.normal(size=3)
                u = solve_dirichlet(sig, lambda p: c[0] + c[1] * p[:, 0] + c[2] * p[:, 1])
            except NonEllipticError:
                continue
            done += 1
            exact = c[0] + c[1] * m.vertices[:, 0] + c[2] * m.vertices[:, 1]
            assert np.abs(u.values - exact).max() < 1e-10

    def test_two_strip_resistor_oracle(self):
        # Boundary data equal to the 1D resistor profile makes the profile the
        # exact solution; slopes are then in the 5:1 flux-continuity ratio.
        m = build_unit_square(2)
        sig = laminate_field(m, 1.0, 5.0)
        u = solve_dirichlet(sig, lambda p: resistor_profile(p[:, 0], 1.0, 5.0))
        g = element_gradient(u)
        left = m.barycenters[:, 0] < 0.5
        assert np.abs(g[left, 0] - 5.0 / 3.0).max() < 1e-12
        assert np.abs(g[~left, 0] - 1.0 / 3.0).max() < 1e-12
        assert np.abs(g[:, 1]).max() < 1e-12

    def test_interior_flux_conservation(self):
        m = build_unit_square(16)
        sig = random_piecewise_field(m, 5.0, 4, seed=8)
        g = lambda p: p[:, 0]
        u = solve_dirichlet(sig, g)
        res = interior_residual(sig, u)
        # the reduced right-hand side is minus the residual of the boundary lift
        lift = np.zeros(m.n_vertices)
        lift[m.boundary_loop] = g(m.vertices[m.boundary_loop])
        rhs_norm = np.linalg.norm(interior_residual(sig, ScalarFieldP1(m, lift)))
        assert np.abs(res).max() <= 1e-10 * rhs_norm

    def test_stacked_interior_residual_matches_columns(self):
        m = build_unit_square(16)
        sig = random_piecewise_field(m, 5.0, 4, seed=8)
        u = solve_dirichlet(sig, lambda p: p[:, 0] * p[:, 1])
        lift = np.where(m.boundary_mask, u.values, 0.0)
        stacked = interior_residual(sig, np.column_stack([u.values, lift, -u.values]))
        assert stacked.shape == (m.n_vertices - len(m.boundary_loop), 3)
        for col, values in zip(stacked.T, (u.values, lift, -u.values)):
            assert np.array_equal(col, interior_residual(sig, ScalarFieldP1(m, values)))

    @pytest.mark.parametrize("mesh", [build_unit_square(16), build_regular_ngon(6, 1.0, 6)], ids=["square", "hexagon"])
    def test_interior_residual_is_the_operator_rows(self, mesh):
        # rows in ascending interior vertex order, whatever order the solves factor in
        sig = ElementMatrixField(mesh, np.random.default_rng(1).uniform(0.5, 1.5, (mesh.n_triangles, 1, 1)) * np.eye(2))
        values = np.random.default_rng(2).normal(size=(mesh.n_vertices, 2))
        want = (reference_operator(mesh, sig.matrices) @ values)[~mesh.boundary_mask]
        got = interior_residual(sig, values)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_interior_residual_rejects_a_periodic_cell(self):
        with pytest.raises(ValueError, match="needs a mesh with boundary"):
            interior_residual(constant_field(build_periodic_cell(4), np.eye(2)), np.zeros(25))

    def test_non_elliptic_rejected_before_assembly(self):
        m = build_unit_square(4)
        mats = np.broadcast_to(np.eye(2), (m.n_triangles, 2, 2)).copy()
        mats[3] = [[1.0, 3.0], [3.0, 1.0]]

        with pytest.raises(NonEllipticError):
            solve_dirichlet(ElementMatrixField(m, mats), lambda p: p[:, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficient_rejected_by_element(self, bad):
        # NaN compares False with 0, so the eigenvalue checks alone let it through
        m = build_periodic_cell(4)
        mats = random_piecewise_field(m, 5.0, 2, seed=0).matrices.copy()
        mats[5, 1, 0] = bad
        sig = ElementMatrixField(m, mats)
        with pytest.raises(NonEllipticError, match="element 5: non-finite coefficient"):
            solve_periodic_cell(sig, np.array([1.0, 0.0]))

    def test_table_validation_names_the_first_triangle_of_a_bad_entry(self):
        m = build_unit_square(4)
        table = np.array([np.eye(2), [[1.0, 3.0], [3.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]])
        index = np.zeros(m.n_triangles, dtype=int)
        validate_coefficient(ElementMatrixField(m, table, index))  # bad entries that no triangle uses
        index[[9, 7]] = 1
        with pytest.raises(NonEllipticError, match="element 7: symmetric part not positive definite"):
            validate_coefficient(ElementMatrixField(m, table, index))
        index[12] = 2
        with pytest.raises(NonEllipticError, match="element 12: non-finite coefficient"):
            validate_coefficient(ElementMatrixField(m, table, index))

    def test_boundary_data_as_array(self):
        m = build_unit_square(4)
        vals = m.vertices[m.boundary_loop, 1]
        u = solve_dirichlet(constant_field(m, np.eye(2)), vals)
        assert np.abs(u.values - m.vertices[:, 1]).max() < 1e-13

    def test_periodic_mesh_rejected(self):
        m = build_periodic_cell(4)
        with pytest.raises(ValueError):
            solve_dirichlet(constant_field(m, np.eye(2)), lambda p: p[:, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_boundary_data_rejected(self, bad):
        m = build_unit_square(4)
        vals = m.vertices[m.boundary_loop, 0].copy()
        vals[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            solve_dirichlet(constant_field(m, np.eye(2)), vals)


class TestPeriodicCell:
    def test_bounded_mesh_rejected(self):
        m = build_unit_square(4)
        with pytest.raises(ValueError, match="cell solve needs a periodic mesh"):
            solve_periodic_cell(constant_field(m, np.eye(2)), np.array([1.0, 0.0]))

    def test_constant_sigma_affine_solution(self):
        m = build_periodic_cell(8)
        sig = constant_field(m, [[2.0, 1.0], [0.2, 1.5]])
        u = solve_periodic_cell(sig, np.array([1.0, 0.0]))
        assert np.abs(u.values - m.vertices[:, 0]).max() < 1e-12

    def test_laminate_harmonic_mean(self):
        m = build_periodic_cell(8)
        sig = laminate_field(m, 1.0, 5.0)
        u = solve_periodic_cell(sig, np.array([1.0, 0.0]))
        g = element_gradient(u)
        left = m.barycenters[:, 0] < 0.5
        assert np.abs(g[left, 0] - 5.0 / 3.0).max() < 1e-11
        assert np.abs(g[~left, 0] - 1.0 / 3.0).max() < 1e-11
        flux = mean_flux(sig, u)
        assert abs(flux[0] - 5.0 / 3.0) < 1e-11
        assert abs(flux[1]) < 1e-11

    def test_linearity_in_the_applied_gradient(self):
        m = build_periodic_cell(8)
        sig = random_piecewise_field(m, 4.0, 4, seed=5)
        u1 = solve_periodic_cell(sig, np.array([1.0, 0.0]))
        u2 = solve_periodic_cell(sig, np.array([0.0, 1.0]))
        mix = solve_periodic_cell(sig, np.array([2.0, -3.0]))
        combo = 2.0 * u1.values - 3.0 * u2.values
        assert np.abs(mix.values - combo).max() < 1e-9

    def test_corrector_zero_mean(self):
        m = build_periodic_cell(8)
        sig = laminate_field(m, 1.0, 5.0)
        u = solve_periodic_cell(sig, np.array([1.0, 0.0]))
        w = u.values - m.vertices[:, 0]
        tri_means = w[m.triangles].mean(axis=1)
        assert abs(np.dot(m.areas, tri_means)) < 1e-12


class TestStreamFunction:
    def test_rotation_of_coordinates(self):
        m = build_unit_square(8)
        sig = constant_field(m, np.eye(2))
        u = solve_dirichlet(sig, lambda p: p[:, 0])
        ut, resid = stream_function(sig, u)
        assert np.abs(ut.values - m.vertices[:, 1]).max() < 1e-12
        assert resid < 1e-12
        u2 = solve_dirichlet(sig, lambda p: p[:, 1])
        ut2, _ = stream_function(sig, u2)
        assert np.abs(ut2.values - (-m.vertices[:, 0] + m.vertices[0, 0])).max() < 1e-12

    def test_anisotropic_rotation(self):
        m = build_unit_square(8)
        sig = constant_field(m, np.diag([2.0, 1.0]))
        u = solve_dirichlet(sig, lambda p: p[:, 0])
        ut, _ = stream_function(sig, u)
        assert np.abs(ut.values - 2.0 * m.vertices[:, 1]).max() < 1e-12

    def test_anchor_vertex(self):
        m = build_unit_square(8)
        sig = constant_field(m, np.eye(2))
        u = solve_dirichlet(sig, lambda p: p[:, 0])
        ut, _ = stream_function(sig, u)
        assert ut.values[0] == 0.0

    def test_curl_identity_circulations(self):
        # zero discrete circulation of the rotated flux around interior
        # vertices is algebraically the interior weak equation; the loop
        # around vertex i is the chain of opposite edges of its triangles
        m = build_unit_square(16)
        sig = random_piecewise_field(m, 5.0, 4, seed=11)
        u = solve_dirichlet(sig, lambda p: p[:, 0])
        field = rotated_flux(sig, u)
        circ = np.zeros(m.n_vertices)
        for local in range(3):
            i = m.triangles[:, local]
            j = m.triangles[:, (local + 1) % 3]
            k = m.triangles[:, (local + 2) % 3]
            np.add.at(circ, i, np.einsum("ta,ta->t", field, m.vertices[k] - m.vertices[j]))
        assert np.abs(circ[~m.boundary_mask]).max() < 1e-10

    def test_residual_decreases_under_refinement(self):
        resids = []
        for n in (8, 16, 32):
            m = build_unit_square(n)
            sig = laminate_field(m, 1.0, 5.0)
            u = solve_dirichlet(sig, lambda p: p[:, 0])
            _, r = stream_function(sig, u)
            resids.append(r)
        assert resids[0] > resids[1] > resids[2]

    def test_periodic_stream_with_linear_part(self):
        # on the torus the rotated mean flux is split off as a linear part
        m = build_periodic_cell(8)
        sig = laminate_field(m, 1.0, 5.0)
        u = solve_periodic_cell(sig, np.array([1.0, 0.0]))
        ut, resid = stream_function(sig, u)
        # exact stream of the laminate solution: gradient (0, 5/3)
        assert resid < 1e-10
        g = element_gradient(ut)
        assert np.abs(g[:, 0]).max() < 1e-10
        assert np.abs(g[:, 1] - 5.0 / 3.0).max() < 1e-10


class TestLatticeStreamSolve:
    """The DCT-I / FFT stream solve on exact lattices against the pinned LU."""

    @staticmethod
    def _fields(periodic, res, seed, symmetric):
        m = build_periodic_cell(res) if periodic else build_unit_square(res)
        sig = random_piecewise_field(m, 5.0, 4, seed=seed, symmetric=symmetric)
        fields = solve_periodic_cell(sig, np.eye(2)) if periodic else solve_dirichlet(sig, lambda q: q)
        return sig, fields

    @pytest.mark.parametrize("periodic", [False, True], ids=["square", "torus"])
    @pytest.mark.parametrize("res", [8, 16, 64])
    @pytest.mark.parametrize("seed, symmetric", [(1008, False), (31, True)],
                             ids=["nonsymmetric", "symmetric"])
    def test_matches_pinned_lu(self, monkeypatch, periodic, res, seed, symmetric):
        sig, fields = self._fields(periodic, res, seed, symmetric)
        assert lattice_resolution(sig.mesh) == res
        fast = stream_function(sig, fields)
        monkeypatch.setattr(elliptic_solver, "lattice_resolution", lambda mesh: None)
        for (ut, resid), (lu, lu_resid) in zip(fast, stream_function(sig, fields)):
            assert ut.values[0] == lu.values[0] == 0.0
            assert np.abs(ut.values - lu.values).max() < 1e-9
            assert abs(resid - lu_resid) < 1e-9

    def test_permuted_lattice_falls_back_to_lu(self, monkeypatch):
        sig, (u, _) = self._fields(False, 16, 1008, False)
        m = sig.mesh
        # a vertex permutation that keeps the anchor vertex 0 in place
        perm = np.concatenate([[0], np.arange(1, m.n_vertices)[::-1]])
        inv = np.argsort(perm)
        pm = TriMesh(m.vertices[perm], inv[m.triangles], inv[m.boundary_loop])
        assert lattice_resolution(pm) is None
        calls = []
        splu = spla.splu
        monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(1) or splu(*a, **k))
        ut, resid = stream_function(sig, u)
        assert calls == []
        put, presid = stream_function(ElementMatrixField(pm, sig.matrices),
                                      ScalarFieldP1(pm, u.values[perm]))
        assert calls == [1]
        assert np.abs(put.values - ut.values[perm]).max() < 1e-9
        assert abs(presid - resid) < 1e-9

    @pytest.mark.parametrize("periodic", [False, True], ids=["square", "torus"])
    def test_log_line_names_the_transform(self, caplog, periodic):
        sig, fields = self._fields(periodic, 16, 1008, False)
        with caplog.at_level(logging.INFO, logger="beltramilab.elliptic_solver"):
            stream_function(sig, fields)
        method = "fft2_torus" if periodic else "dct1_neumann"
        lines = [r.getMessage() for r in caplog.records if f"method={method}" in r.getMessage()]
        assert len(lines) == 1
        match = re.fullmatch(
            r"linear solve: n=(\d+) nnz=(\d+) nrhs=2 method=\w+ fill=None ordering=None panel=None "
            r"precision=None refinement_steps=None residual=(\S+)", lines[0])
        assert match is not None
        assert int(match[1]) == sig.mesh.n_free
        assert float(match[3]) < 1e-12

    @pytest.mark.parametrize("periodic", [False, True], ids=["square", "torus"])
    def test_stats_match_the_assembled_laplacian(self, periodic):
        m = build_periodic_cell(8) if periodic else build_unit_square(8)
        laplacian = reference_operator(m, np.broadcast_to(np.eye(2), (m.n_triangles, 2, 2)))
        rhs = np.random.default_rng(0).normal(size=(m.n_free, 3))
        rhs -= rhs.mean(axis=0)
        x, stats = _solve_lattice(np.ascontiguousarray(rhs.T), 8, periodic)
        assert stats["nnz"] == np.count_nonzero(laplacian.toarray())
        assert stats["fill"] is None and stats["ordering"] is None
        assert np.abs(laplacian @ x.T - rhs).max() < 1e-12

    @pytest.mark.parametrize("lattice", [True, False], ids=["transform", "pinned_lu"])
    def test_nan_coefficient_fails_the_residual_gate(self, monkeypatch, lattice):
        m = build_unit_square(8)
        sig = random_piecewise_field(m, 5.0, 4, seed=3)
        u = solve_dirichlet(sig, lambda p: p[:, 0])
        mats = sig.matrices.copy()
        mats[5, 0, 1] = np.nan
        sig = ElementMatrixField(m, mats)
        if not lattice:
            monkeypatch.setattr(elliptic_solver, "lattice_resolution", lambda mesh: None)
        with pytest.raises(SolverError, match="relative residual nan"):
            stream_function(sig, u)

    def test_package_does_not_import_scipy_fft(self):
        src = str(Path(elliptic_solver.__file__).parents[1])
        code = "import sys, beltramilab.cli; print('scipy.fft' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.strip() == "False"


class TestStackedRightHandSides:
    """A stack of right-hand sides gives the bits of one-at-a-time solves."""

    def test_dirichlet_stack_matches_single_solves(self):
        m = build_unit_square(16)
        sig = random_piecewise_field(m, 5.0, 4, seed=8)
        p = m.vertices[m.boundary_loop]
        data = np.column_stack([p[:, 0], p[:, 1], np.sin(3.0 * p[:, 0]) + p[:, 1] ** 2])
        stacked = solve_dirichlet(sig, data)
        assert len(stacked) == 3
        for k, u in enumerate(stacked):
            assert np.array_equal(u.values, solve_dirichlet(sig, data[:, k]).values)
        # a callable returning stacked data gives the same solves
        u1, u2 = solve_dirichlet(sig, lambda q: q)
        assert np.array_equal(u1.values, stacked[0].values)
        assert np.array_equal(u2.values, stacked[1].values)

    def test_periodic_cell_stack_matches_single_solves(self):
        m = build_periodic_cell(16)
        sig = random_piecewise_field(m, 5.0, 4, seed=5)
        xis = np.array([[2.0, 0.5], [0.3, 1.0], [1.0, 0.0], [0.0, 1.0]])
        stacked = solve_periodic_cell(sig, xis)
        assert len(stacked) == 4
        for xi, u in zip(xis, stacked):
            assert np.array_equal(u.values, solve_periodic_cell(sig, xi).values)

    @pytest.mark.parametrize("periodic", [False, True])
    def test_stream_stack_matches_single_solves(self, periodic):
        if periodic:
            m = build_periodic_cell(16)
            sig = random_piecewise_field(m, 5.0, 4, seed=5)
            fields = solve_periodic_cell(sig, np.eye(2))
        else:
            m = build_unit_square(16)
            sig = random_piecewise_field(m, 5.0, 4, seed=8)
            fields = solve_dirichlet(sig, lambda q: q)
        stacked = stream_function(sig, fields)
        assert len(stacked) == 2
        for u, (ut, resid) in zip(fields, stacked):
            single, single_resid = stream_function(sig, u)
            assert np.array_equal(ut.values, single.values)
            assert resid == single_resid

    def test_stacked_data_with_wrong_row_count_rejected(self):
        m = build_unit_square(4)
        sig = constant_field(m, np.eye(2))
        n = len(m.boundary_loop)
        with pytest.raises(ValueError, match="boundary data"):
            solve_dirichlet(sig, np.zeros((n + 1, 2)))
        with pytest.raises(ValueError, match="boundary data"):
            solve_dirichlet(sig, lambda q: np.zeros((n - 1, 2)))


class TestOneFactorizationPerOperator:
    @pytest.fixture
    def factorizations(self, monkeypatch):
        calls = []
        splu = spla.splu

        def counting(matrix, *args, **kwargs):
            calls.append(kwargs.get("permc_spec"))
            return splu(matrix, *args, **kwargs)

        monkeypatch.setattr(spla, "splu", counting)
        return calls

    def test_primary_pair(self, factorizations):
        m = build_unit_square(8)
        primary_pair(random_piecewise_field(m, 5.0, 4, seed=2))
        # the coefficient operator for u1 and u2, pre-ordered by nested dissection; both streams by DCT-I, no LU
        assert factorizations == ["NATURAL"]

    def test_primary_pair_on_polygon_factors_the_laplacian(self, factorizations):
        m = build_regular_ngon(6, 1.0, 6)
        primary_pair(constant_field(m, [[2.0, 0.5], [-0.3, 1.0]]))
        # the coefficient operator for u1 and u2, the mesh Laplacian for both streams
        assert factorizations == ["MMD_AT_PLUS_A"] * 2

    def test_cell_map(self, factorizations):
        m = build_periodic_cell(8)
        cell_map(random_piecewise_field(m, 5.0, 4, seed=2), np.array([[2.0, 0.5], [0.3, 1.0]]))
        assert factorizations == ["MMD_AT_PLUS_A"]

    def test_effective_conductivity(self, factorizations):
        m = build_periodic_cell(8)
        effective_conductivity(random_piecewise_field(m, 5.0, 4, seed=2))
        assert factorizations == ["MMD_AT_PLUS_A"]


def cell_load(sig: ElementMatrixField, xis: np.ndarray) -> np.ndarray:
    """(k, n_free) right-hand sides of the cell problems, one row per row of ``xis``."""
    m = sig.mesh
    return _load_vector(m, [-np.einsum("tia,ta,t->ti", m.hat_gradients,
                                       np.einsum("tab,b->ta", sig.matrices, xi), m.areas)
                            for xi in xis], len(xis))


class TestPinDof:
    """dof 0 of a cell or Neumann problem is anchored at 0 by eliminating its row and column."""

    def test_every_factored_matrix_is_structurally_symmetric(self, monkeypatch):
        patterns = []
        splu = spla.splu

        def recording(matrix, *args, **kwargs):
            pattern = matrix.copy()
            pattern.data[:] = 1.0
            patterns.append(pattern)
            return splu(matrix, *args, **kwargs)

        monkeypatch.setattr(spla, "splu", recording)
        square = build_unit_square(12)
        solve_dirichlet(random_piecewise_field(square, 5.0, 4, seed=1008), lambda q: q)
        torus = build_periodic_cell(12)
        solve_periodic_cell(random_piecewise_field(torus, 5.0, 4, seed=1008), np.eye(2))
        # the hexagon factors its coefficient operator and the stream fallback's Laplacian
        primary_pair(constant_field(build_regular_ngon(6, 1.0, 6), [[2.0, 0.5], [-0.3, 1.0]]))
        assert len(patterns) == 4
        for pattern in patterns:
            assert (pattern != pattern.T).nnz == 0

    @pytest.mark.parametrize("case", ["torus_cell", "hexagon_neumann"])
    def test_unsliced_singular_system_holds_with_row_0(self, case):
        if case == "torus_cell":
            m = build_periodic_cell(16)
            sig = random_piecewise_field(m, 5.0, 4, seed=1008)
            mats, load = sig.matrices, cell_load(sig, np.array([[1.0, 0.0], [0.3, 1.0]]))
        else:
            m = build_regular_ngon(6, 1.0, 8)
            mats = np.broadcast_to(np.eye(2), (m.n_triangles, 2, 2)).copy()
            load = np.random.default_rng(5).normal(size=(m.n_free, 2))
            load -= load.mean(axis=0)  # consistent: orthogonal to the constants
            load = np.ascontiguousarray(load.T)
        w = _solve_fixed(m, mats, np.arange(m.n_triangles), load, [0], np.zeros((1, 2)))
        assert np.all(w[:, 0] == 0.0)
        full = reference_operator(m, mats)
        for wj, bj in zip(w, load):  # every row, the eliminated row 0 included
            assert np.linalg.norm(full @ wj - bj) <= 1e-10 * np.linalg.norm(bj)

    def test_solve_stats_report_fill_and_ordering(self, caplog):
        m = build_periodic_cell(8)
        sig = random_piecewise_field(m, 5.0, 4, seed=3)
        reduced = reference_operator(m, sig.matrices)[1:][:, 1:]
        rhs = np.ones((1, m.n_free - 1))
        with caplog.at_level(logging.INFO, logger="beltramilab.elliptic_solver"):
            _, stats = _solve_system(reduced, rhs)
        assert stats["ordering"] == "MMD_AT_PLUS_A" and stats["panel_size"] == LU_PANEL_SIZE == 4
        assert stats["precision"] == "float32" and 1 <= stats["refinement_steps"] <= MAX_REFINEMENT_STEPS
        assert stats["fill"] == spla.splu(reduced.astype(np.float32).tocsc(), permc_spec="MMD_AT_PLUS_A").nnz
        assert stats["fill"] >= reduced.nnz
        assert re.search(rf"fill={stats['fill']} ordering=MMD_AT_PLUS_A panel=4 precision=float32 "
                         rf"refinement_steps={stats['refinement_steps']} residual=\S+$", caplog.text, re.M)

    def test_cell_map_linearity_under_ordering(self):
        m = build_periodic_cell(32)
        sig = random_piecewise_field(m, 5.0, 4, seed=4, symmetric=False)
        A = np.array([[2.0, 0.5], [0.3, 1.0]])
        cm = cell_map(sig, A)
        e1, e2 = solve_periodic_cell(sig, np.eye(2))
        for row, u in zip(A, (cm.U.u1, cm.U.u2)):
            assert np.abs(u.values - (row[0] * e1.values + row[1] * e2.values)).max() < 1e-12
        assert cm.linearity_error < 1e-12


def reference_system(mesh: TriMesh, mats: np.ndarray, free: np.ndarray, fixed, values: np.ndarray,
                     load: np.ndarray | None = None) -> tuple[sp.csc_matrix, np.ndarray]:
    """``_free_block`` by one ``np.bincount`` per array over the element entries in triangle order.

    Entry (t, a, b) of the element blocks sits at row ``dofs[t, a]`` and
    column ``dofs[t, b]``; the entries are taken in the order (t, a, b).
    The block sums each free entry into its place.  Each right-hand side
    starts at zero minus the summed couplings (entry times fixed value) of
    its free rows, and the load is added last.
    """
    nf, n = len(free), mesh.n_free
    entries = _element_matrices(mesh.hat_gradients, mats, mesh.areas).ravel()
    dofs = mesh.vertex_dofs()
    row_dof, col_dof = np.repeat(dofs, 3, axis=1).ravel(), np.tile(dofs, (1, 3)).ravel()
    place = np.full(n, -1)
    place[free] = np.arange(nf)
    rows, cols = place[row_dof], place[col_dof]
    inside = (rows >= 0) & (cols >= 0)
    keys, slot = np.unique(cols[inside] * nf + rows[inside], return_inverse=True)
    block = sp.csc_matrix((np.bincount(slot, weights=entries[inside]), keys % nf,
                           np.searchsorted(keys, np.arange(nf + 1) * nf)), shape=(nf, nf))
    value_row = np.full(n, -1)
    value_row[fixed] = np.arange(len(fixed))
    coupled = (rows >= 0) & (value_row[col_dof] >= 0)
    g = np.asarray(values)[value_row[col_dof[coupled]]]
    rhs = np.array([0.0 - np.bincount(rows[coupled], weights=entries[coupled] * g[:, j], minlength=nf)
                    for j in range(g.shape[1])])
    if load is not None:
        rhs += load[:, free]
    return block, rhs


def reference_operator(mesh: TriMesh, mats: np.ndarray) -> sp.csc_matrix:
    """The whole stiffness matrix on the dofs, summed in triangle order (``reference_system``)."""
    return reference_system(mesh, mats, np.arange(mesh.n_free), [], np.zeros((0, 0)))[0]


def float64_lu_solve(matrix: sp.spmatrix, rhs: np.ndarray, permc_spec: str = LU_ORDERING) -> np.ndarray:
    """The float64 SuperLU solve of each row of ``rhs``: the path the float32 factors fall back to."""
    lu = spla.splu(matrix.tocsc(), permc_spec=permc_spec, panel_size=LU_PANEL_SIZE)
    return np.array([lu.solve(b) for b in np.ascontiguousarray(rhs)])


def permuted_lattice(n: int) -> TriMesh:
    """The unit-square lattice with its vertices renumbered: not the lattice ``lattice_resolution`` reads."""
    m = build_unit_square(n)
    perm = np.concatenate([[0], np.arange(1, m.n_vertices)[::-1]])
    inv = np.argsort(perm)
    return TriMesh(m.vertices[perm], inv[m.triangles], inv[m.boundary_loop])


def collapsed_cell() -> TriMesh:
    """The res-2 lattice with the dof of lattice point (i, j) set to i % 2: every triangle has two vertices on one dof."""
    m = build_unit_square(2)
    return TriMesh(m.vertices, m.triangles, m.boundary_loop, free_index=np.arange(9) % 3 % 2)


class TestLeanAssemblyAndFactorization:
    """The free block, built straight from the element blocks, and the released operator copies change no bit.

    ``reference_system`` pins the build's summation order bit for bit.  The
    solver paths are compared with ``_solve_system`` on its matrices, so they
    pin those bit for bit whatever the factorization; ``LU_PANEL_SIZE`` is
    set to SuperLU's default 20 on both sides.
    """

    @staticmethod
    def system(mesh: TriMesh, seed: int = 7):
        """Coefficient, fixed dofs, their values and a load, all of wide magnitudes (order-dependent rounding)."""
        rng = np.random.default_rng(seed)
        mats = np.eye(2) + 0.3 * rng.normal(size=(mesh.n_triangles, 2, 2))
        mats *= 10.0 ** rng.integers(-8, 8, size=(mesh.n_triangles, 1, 1))
        fixed = np.array([0]) if mesh.periodic else mesh.boundary_loop
        values = rng.normal(size=(len(fixed), 3)) * 10.0 ** rng.integers(-6, 6, size=(len(fixed), 1))
        load = rng.normal(size=(3, mesh.n_free))
        return mats, fixed, values, load

    @pytest.mark.parametrize("mesh", [
        build_unit_square(16), build_periodic_cell(16), build_regular_ngon(6, 1.0, 6),
        permuted_lattice(12)], ids=["square", "torus", "hexagon", "permuted"])
    def test_block_matches_the_triangle_order_reference(self, mesh):
        mats, fixed, values, load = self.system(mesh)
        order = _free_dofs(mesh, fixed)[0]
        for free in (order, np.random.default_rng(3).permutation(order)):
            for b in (None, load):
                got, rhs = _free_block(mesh, mats, np.arange(mesh.n_triangles), free, fixed, values, b)
                want, want_rhs = reference_system(mesh, mats, free, fixed, values, b)
                assert got.format == "csc" and got.indices.dtype == got.indptr.dtype == np.int32
                assert np.array_equal(got.indices, want.indices) and np.array_equal(got.indptr, want.indptr)
                assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))
                assert rhs.shape == (3, len(free)) and rhs.flags.c_contiguous
                assert np.array_equal(rhs.view(np.uint64), want_rhs.view(np.uint64))

    def test_a_collapsed_periodic_mesh_is_rejected(self):
        # two vertices of one triangle on one dof would put their coupling on the diagonal
        with pytest.raises(ValueError, match=r"triangle 0 has two vertices on one dof"):
            collapsed_cell()

    def test_summation_order_shows_in_the_bits(self):
        # the reference's order is pinned by data whose sums depend on it: summed in reverse
        # triangle order, some entries of the same block differ
        m = build_unit_square(16)
        mats, fixed, values, _ = self.system(m)
        every = np.arange(m.n_triangles)
        block = _free_block(m, mats, every, np.flatnonzero(~m.boundary_mask), fixed, values)[0]
        mesh = TriMesh(m.vertices, m.triangles[::-1], m.boundary_loop)
        reverse = _free_block(mesh, mats, every[::-1], np.flatnonzero(~m.boundary_mask), fixed, values)[0]
        assert np.array_equal(block.indices, reverse.indices)
        assert np.abs(block.data - reverse.data).max() > 0.0
        assert np.allclose(block.data, reverse.data, rtol=1e-12, atol=0.0)

    def test_steps_and_element_runs_change_no_bit(self, monkeypatch):
        m = build_periodic_cell(16)
        mats, fixed, values, load = self.system(m)
        grads, areas = m.hat_gradients, m.areas
        whole = _element_matrices(grads, mats, areas)
        for run in (1, 7, 100):
            parts = [_element_matrices(grads[s:s + run], mats[s:s + run], areas[s:s + run])
                     for s in range(0, m.n_triangles, run)]
            assert np.array_equal(np.concatenate(parts).view(np.uint64), whole.view(np.uint64))
        free = _free_dofs(m, fixed)[0]
        every = np.arange(m.n_triangles)
        block, rhs = _free_block(m, mats, every, free, fixed, values, load)
        monkeypatch.setattr(elliptic_solver, "_BLOCK_STEP", 5)
        stepped, stepped_rhs = _free_block(m, mats, every, free, fixed, values, load)
        assert np.array_equal(block.data.view(np.uint64), stepped.data.view(np.uint64))
        assert np.array_equal(rhs.view(np.uint64), stepped_rhs.view(np.uint64))

    def test_dirichlet_at_panel_20_matches_the_reference_path(self, monkeypatch):
        monkeypatch.setattr(elliptic_solver, "LU_PANEL_SIZE", 20)
        m = build_unit_square(32)
        sig = random_piecewise_field(m, 5.0, 4, seed=1008)
        g = m.vertices[m.boundary_loop]
        free = interior_dissection_order(32)
        x, _ = _solve_system(*reference_system(m, sig.matrices, free, m.boundary_loop, g), NESTED_DISSECTION)
        for k, u in enumerate(solve_dirichlet(sig, g)):
            assert np.array_equal(u.values[free], x[k])
            assert np.array_equal(u.values[m.boundary_loop], g[:, k])

    def test_cell_at_panel_20_matches_the_reference_path(self, monkeypatch):
        monkeypatch.setattr(elliptic_solver, "LU_PANEL_SIZE", 20)
        m = build_periodic_cell(32)
        sig = random_piecewise_field(m, 5.0, 4, seed=1008)
        xis = np.array([[1.0, 0.0], [0.3, 1.0]])
        w = np.zeros((len(xis), m.n_free))
        w[:, 1:], _ = _solve_system(*reference_system(m, sig.matrices, np.arange(1, m.n_free), [0],
                                                      np.zeros((1, len(xis))), cell_load(sig, xis)))
        for xi, wj, u in zip(xis, w, solve_periodic_cell(sig, xis)):
            mean_w = float(np.einsum("t,t->", m.areas, wj[m.vertex_dofs()].mean(axis=1)) / m.areas.sum())
            assert np.array_equal(u.values, m.vertices @ xi + (wj - mean_w)[m.free_index])

    def test_splu_receives_the_panel_size(self, monkeypatch):
        calls = []
        splu = spla.splu
        monkeypatch.setattr(spla, "splu", lambda a, **k: calls.append((a.dtype, k)) or splu(a, **k))
        solve_periodic_cell(random_piecewise_field(build_periodic_cell(8), 5.0, 4, seed=2), np.eye(2))
        assert calls == [(np.float32, {"permc_spec": LU_ORDERING, "panel_size": LU_PANEL_SIZE})]

    @pytest.mark.parametrize("case", ["square_dirichlet", "torus_cell"])
    def test_build_transient_per_triangle(self, case):
        # The traced peak of the res-128 build, beyond the block and right-hand side it
        # returns, per triangle: about 61 bytes.  A whole-operator assembly sliced to the
        # free block took 257 here (312 at res 256 counting the mesh geometry).
        m = build_unit_square(128) if case == "square_dirichlet" else build_periodic_cell(128)
        sig = random_piecewise_field(m, 5.0, 4, seed=1001)
        if m.periodic:
            fixed, values, load = [0], np.zeros((1, 2)), cell_load(sig, np.eye(2))
        else:
            fixed, values, load = m.boundary_loop, m.vertices[m.boundary_loop], None
        free = _free_dofs(m, fixed)[0]
        m.hat_gradients  # the mesh's geometry cache, filled before the build
        tracemalloc.start()
        try:
            block, rhs = _free_block(m, sig.table, sig.index, free, fixed, values, load)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = block.data.nbytes + block.indices.nbytes + block.indptr.nbytes + rhs.nbytes
        assert (peak - kept) / m.n_triangles <= 80, (peak - kept) / m.n_triangles


def dirichlet_system(sig: ElementMatrixField) -> tuple[sp.csc_matrix, np.ndarray, np.ndarray]:
    """Free block, (2, n) coordinate-data right-hand sides and free dofs of ``solve_dirichlet(sig, lambda q: q)``.

    The free dofs are in nested-dissection order, the order ``solve_dirichlet``
    gives the unit-square lattice's block; block and right-hand sides are
    ``reference_system``'s.
    """
    m = sig.mesh
    free = interior_dissection_order(lattice_resolution(m))
    matrix, rhs = reference_system(m, sig.matrices, free, m.boundary_loop, m.vertices[m.boundary_loop])
    return matrix, rhs, free


class TestMixedPrecisionLU:
    """Float32 factors refined to float64, and the float64 fallback."""

    @pytest.mark.parametrize("periodic", [False, True], ids=["square", "torus"])
    @pytest.mark.parametrize("seed", [1000, 1001, 1002, 1003])
    def test_refined_residual_at_most_the_float64_lus(self, periodic, seed):
        m = build_periodic_cell(64) if periodic else build_unit_square(64)
        sig = random_piecewise_field(m, 5.0, 4, seed=seed)
        if periodic:
            matrix, rhs = reference_operator(m, sig.matrices)[1:][:, 1:], cell_load(sig, np.eye(2))[:, 1:]
        else:
            matrix, rhs, _ = dirichlet_system(sig)
        x, stats = _solve_system(matrix, rhs)
        assert stats["precision"] == "float32" and stats["refinement_steps"] <= MAX_REFINEMENT_STEPS
        for got, want, b in zip(x, float64_lu_solve(matrix, rhs), rhs):
            assert np.linalg.norm(matrix @ got - b) <= np.linalg.norm(matrix @ want - b)

    @pytest.mark.parametrize("periodic", [False, True], ids=["square", "torus"])
    def test_gate_reads_the_residual_of_each_returned_row(self, monkeypatch, periodic):
        # the refinement's kept residual norm is the one the gate checks, bit for bit
        m = build_periodic_cell(32) if periodic else build_unit_square(32)
        sig = random_piecewise_field(m, 5.0, 4, seed=1004)
        if periodic:
            matrix, rhs = reference_operator(m, sig.matrices)[1:][:, 1:], cell_load(sig, np.eye(2))[:, 1:]
        else:
            matrix, rhs, _ = dirichlet_system(sig)
        gated = []
        checked = elliptic_solver._checked_stats
        monkeypatch.setattr(elliptic_solver, "_checked_stats",
                            lambda res, norms, **k: gated.append((res, norms)) or checked(res, norms, **k))
        x, stats = _solve_system(matrix, rhs)
        (residuals, rhs_norms), = gated
        assert stats["precision"] == "float32"
        assert [float(r) for r in residuals] == [float(np.linalg.norm(b - matrix @ got)) for got, b in zip(x, rhs)]
        assert [float(r) for r in rhs_norms] == [float(np.linalg.norm(b)) for b in rhs]
        assert stats["residual"] == max(float(r) for r in residuals)

    def test_stacked_solve_matches_single_solves(self):
        m = build_unit_square(32)
        matrix, rhs, _ = dirichlet_system(random_piecewise_field(m, 5.0, 4, seed=1008))
        rhs = np.vstack([rhs, np.random.default_rng(3).normal(size=rhs.shape[1])])
        x, stats = _solve_system(matrix, rhs)
        assert stats["precision"] == "float32" and stats["nrhs"] == 3
        for got, b in zip(x, rhs):
            single, single_stats = _solve_system(matrix, b[None])
            assert single_stats["precision"] == "float32"
            assert np.array_equal(got, single[0])

    def test_singular_float32_factor_falls_back_to_float64(self, caplog):
        # 1 + 1e-10 rounds to 1 in float32, so the cast matrix is singular
        matrix = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-10]]))
        rhs = np.array([[1.0, 2.0], [0.0, 1.0]])  # one right-hand side per row
        with caplog.at_level(logging.INFO, logger="beltramilab.elliptic_solver"):
            x, stats = _solve_system(matrix, rhs)
        assert "float32 LU rejected (sparse LU factorization failed" in caplog.text
        assert stats["precision"] == "float64" and stats["refinement_steps"] == 0
        assert np.array_equal(x, float64_lu_solve(matrix, rhs))

    def test_overflowing_cast_falls_back_to_float64(self, monkeypatch, caplog):
        # a valid coefficient whose stiffness entries exceed the float32 range
        sig = constant_field(build_unit_square(8), 1e39 * np.array([[2.0, 1.0], [0.2, 1.5]]))
        dtypes = []
        splu = spla.splu
        monkeypatch.setattr(spla, "splu", lambda a, **k: dtypes.append(a.dtype) or splu(a, **k))
        with warnings.catch_warnings(), caplog.at_level(logging.INFO, logger="beltramilab.elliptic_solver"):
            warnings.simplefilter("error")
            u1, u2 = solve_dirichlet(sig, lambda q: q)
        assert dtypes == [np.float64]
        assert "float32 LU rejected (matrix entries overflow float32)" in caplog.text
        assert "ordering=nested_dissection panel=4 precision=float64 refinement_steps=0 " in caplog.text
        matrix, rhs, free = dirichlet_system(sig)
        want = float64_lu_solve(matrix, rhs, "NATURAL")
        assert np.array_equal(u1.values[free], want[0]) and np.array_equal(u2.values[free], want[1])


class TestResidualGate:
    """``_checked_stats`` on given per-row residual and right-hand-side norms."""

    STATS = dict(n=4, nnz=10, method="direct_lu", fill=12, ordering="MMD_AT_PLUS_A", panel_size=4,
                 precision="float64", refinement_steps=0)

    @pytest.mark.parametrize("residuals, rhs_norms, match", [
        ([0.0, np.nan], [1.0, 1.0], "relative residual nan"),
        ([0.0, 2e-8], [1.0, 1.0], "relative residual 2.000e-08 above the gate 1e-08"),
        ([2e-8], [0.0], "relative residual 2.000e-08 above the gate"),   # a zero right-hand side gates the residual itself
    ], ids=["nan", "above_gate", "zero_rhs"])
    def test_rejects_a_row_above_the_gate(self, residuals, rhs_norms, match):
        with pytest.raises(SolverError, match=match):
            _checked_stats(residuals, rhs_norms, **self.STATS)

    def test_reports_the_worst_row(self):
        # the largest residual and the largest relative residual come from different rows
        stats = _checked_stats([3e-9, 5e-13, 0.0], [1.0, 1e-4, 0.0], **self.STATS)
        assert stats["nrhs"] == 3 and stats["residual"] == 3e-9 and stats["relative_residual"] == 5e-13 / 1e-4
        assert RESIDUAL_GATE == 1e-8


class TestNestedDissection:
    """The unit-square lattice's Dirichlet block is factored in nested-dissection order; every other block by MMD."""

    @pytest.mark.parametrize("seed", [1008, 2])
    def test_agrees_with_the_natural_order_minimum_degree_solve(self, seed):
        m = build_unit_square(32)
        sig = random_piecewise_field(m, 5.0, 4, seed=seed)
        g = m.vertices[m.boundary_loop]
        full = reference_operator(m, sig.matrices)
        free = np.flatnonzero(~m.boundary_mask)
        want = float64_lu_solve(full[free][:, free], -(full[free][:, m.boundary_loop] @ g).T)
        for k, u in enumerate(solve_dirichlet(sig, g)):
            assert np.array_equal(u.values[m.boundary_loop], g[:, k])
            assert np.linalg.norm(u.values[free] - want[k]) <= 1e-12 * np.linalg.norm(want[k])

    def test_stats_and_log_line_name_the_ordering(self, monkeypatch, caplog):
        orderings = []
        solve_system = elliptic_solver._solve_system

        def recording(*args):
            x, stats = solve_system(*args)
            orderings.append(stats["ordering"])
            return x, stats

        monkeypatch.setattr(elliptic_solver, "_solve_system", recording)
        hexagon = build_regular_ngon(6, 1.0, 6)
        with caplog.at_level(logging.INFO, logger="beltramilab.elliptic_solver"):
            solve_dirichlet(random_piecewise_field(build_unit_square(16), 5.0, 4, seed=2), lambda q: q)
            solve_dirichlet(constant_field(permuted_lattice(16), np.eye(2)), lambda q: q)
            solve_dirichlet(constant_field(hexagon, [[2.0, 0.5], [-0.3, 1.0]]), lambda q: q)
            stream_function(constant_field(hexagon, np.eye(2)), ScalarFieldP1(hexagon, hexagon.vertices[:, 0]))
            solve_periodic_cell(random_piecewise_field(build_periodic_cell(16), 5.0, 4, seed=2), np.eye(2))
        assert orderings == [NESTED_DISSECTION] + [LU_ORDERING] * 4
        assert re.findall(r"ordering=(\S+)", caplog.text) == ["nested_dissection"] + ["MMD_AT_PLUS_A"] * 4


class TestLoadVector:
    """One ``np.bincount`` per row gives the sums of ``np.add.at``, bit for bit."""

    @pytest.mark.parametrize("mesh", [build_unit_square(16), build_periodic_cell(16)], ids=["square", "torus"])
    def test_bincount_matches_add_at(self, mesh):
        rng = np.random.default_rng(11)
        loads = [rng.normal(size=(mesh.n_triangles, 3)) for _ in range(3)]
        loads[1][::5] = -0.0  # signed zeros, and dofs that receive several of them
        loads[2] *= 10.0 ** rng.integers(-12, 12, size=(mesh.n_triangles, 3))  # order-dependent rounding
        want = np.zeros((mesh.n_free, 3))
        np.add.at(want, mesh.vertex_dofs().ravel(), np.stack(loads, axis=-1).reshape(-1, 3))
        got = _load_vector(mesh, iter(loads), 3)
        assert got.shape == (3, mesh.n_free) and got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), want.T.view(np.uint64))

    def test_row_count_must_match(self):
        m = build_unit_square(4)
        with pytest.raises(ValueError):
            _load_vector(m, [np.ones((m.n_triangles, 3))], 2)


class TestLiveSetAtFactorization:
    """At ``splu`` only the mesh, the coefficient, the operator, its float32 values and one right-hand-side block are alive.

    ``tracemalloc`` is read at the entry of ``spla.splu``.  It starts before
    the mesh is built.  The budget is the mesh's own arrays (not its areas
    and hat gradients, which the solve releases), the coefficient's table
    and index (no per-triangle matrix array: at res 128 an (nt, 2, 2) stack
    would overrun the budget by 1 MB), the solve's data, the float64 free
    block (float64 data, int32 indices and indptr), its float32 ``data``,
    one (k, n) float64 block and a slack of half a column for the small
    arrays (the free-dof mask, the boundary values) and the Python objects.
    """

    @pytest.mark.parametrize("case", ["torus_cell", "square_dirichlet"])
    def test_splu_entry(self, monkeypatch, case):
        entries = []
        splu = spla.splu

        def probe(a, **kwargs):
            entries.append((tracemalloc.get_traced_memory()[0], a.nnz, a.shape[0]))
            return splu(a, **kwargs)

        monkeypatch.setattr(spla, "splu", probe)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            if case == "torus_cell":
                m = build_periodic_cell(128)
                sig = random_piecewise_field(m, 5.0, 4, seed=1008)
                data = np.array([[2.0, 0.5], [0.3, 1.0], [1.0, 0.0], [0.0, 1.0]])
                solve_periodic_cell(sig, data)
            else:
                m = build_unit_square(128)
                sig = random_piecewise_field(m, 5.0, 4, seed=1008)
                data = m.vertices[m.boundary_loop]
                solve_dirichlet(sig, data)
        finally:
            tracemalloc.stop()
        (live, nnz, n), = entries
        k = len(data) if case == "torus_cell" else data.shape[1]
        column = 8 * n
        inputs = sum(a.nbytes for a in (m.vertices, m.triangles, m.boundary_loop, m.free_index,
                                        sig.table, sig.index, data))
        budget = inputs + (8 + 4 + 4) * nnz + 4 * (n + 1) + k * column + column // 2
        assert live - base <= budget, (live - base, budget)


class TestHeapReturn:
    """Freed heap pages go back to the OS right before each ``splu`` call."""

    def record(self, monkeypatch):
        events = []
        splu = spla.splu
        monkeypatch.setattr(elliptic_solver, "_MALLOC_TRIM", lambda pad: events.append(("trim", pad)))
        monkeypatch.setattr(spla, "splu", lambda a, **k: events.append(("splu", a.dtype.name)) or splu(a, **k))
        return events

    def test_once_per_factorization(self, monkeypatch):
        events = self.record(monkeypatch)
        solve_dirichlet(random_piecewise_field(build_unit_square(16), 5.0, 4, seed=2), lambda q: q)
        assert events == [("trim", 0), ("splu", "float32")]

    def test_float64_fallbacks(self, monkeypatch):
        events = self.record(monkeypatch)
        # the float32 cast overflows, so only the float64 factorization is made
        solve_dirichlet(constant_field(build_unit_square(8), 1e39 * np.array([[2.0, 1.0], [0.2, 1.5]])),
                        lambda q: q)
        assert events == [("trim", 0), ("splu", "float64")]
        # a singular float32 factorization, then the float64 one
        events.clear()
        _solve_system(sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-10]])), np.eye(2))
        assert events == [("trim", 0), ("splu", "float32"), ("trim", 0), ("splu", "float64")]

    def test_no_op_without_the_symbol(self, monkeypatch):
        class NoTrim:  # a C library without malloc_trim
            pass

        monkeypatch.setattr(elliptic_solver.ctypes, "CDLL", lambda name: NoTrim())
        assert elliptic_solver._find_malloc_trim() is None

        def unloadable(name):
            raise OSError("no C library")

        monkeypatch.setattr(elliptic_solver.ctypes, "CDLL", unloadable)
        assert elliptic_solver._find_malloc_trim() is None
        monkeypatch.setattr(elliptic_solver, "_MALLOC_TRIM", None)
        sig = random_piecewise_field(build_unit_square(16), 5.0, 4, seed=2)
        u1, u2 = solve_dirichlet(sig, lambda q: q)
        monkeypatch.undo()
        w1, w2 = solve_dirichlet(sig, lambda q: q)
        assert u1.values.tobytes() == w1.values.tobytes() and u2.values.tobytes() == w2.values.tobytes()

    @pytest.mark.parametrize("case", ["square", "torus", "hexagon"])
    def test_geometry_after_a_solve_is_the_one_before(self, case):
        mesh = {"square": build_unit_square, "torus": build_periodic_cell,
                "hexagon": lambda n: build_regular_ngon(6, 1.0, n)}[case](12)
        areas, grads = mesh.areas.copy(), mesh.hat_gradients.copy()
        sig = constant_field(mesh, [[2.0, 0.5], [-0.3, 1.0]])
        if mesh.periodic:
            solve_periodic_cell(sig, np.eye(2))
        else:
            solve_dirichlet(sig, lambda q: q)
            assert mesh._geom is None  # released at the factorization, not yet read again
        assert np.array_equal(mesh.areas.view(np.uint64), areas.view(np.uint64))
        assert np.array_equal(mesh.hat_gradients.view(np.uint64), grads.view(np.uint64))


class TestLUResidualProperty:
    """Property: every LU solve meets the residual gate on the unreduced system."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k_max=st.floats(1.0, 10.0),
        symmetric=st.booleans(),
        res=st.sampled_from([8, 16]),
    )
    def test_random_piecewise(self, seed, k_max, symmetric, res):
        tol = 1e-10
        square = build_unit_square(res)
        sig = random_piecewise_field(square, k_max, 4, seed=seed, symmetric=symmetric)
        p = square.vertices[square.boundary_loop]
        g = np.column_stack([p[:, 0], p[:, 1], np.sin(3.0 * p[:, 0]) + p[:, 1] ** 2])
        # the reduced right-hand side is minus the residual of the boundary lift
        lift = np.zeros((square.n_vertices, 3))
        lift[square.boundary_loop] = g
        u = np.column_stack([v.values for v in solve_dirichlet(sig, g)])
        for r, b in zip(interior_residual(sig, u).T, interior_residual(sig, lift).T):
            assert np.linalg.norm(r) <= tol * np.linalg.norm(b)
        cell = build_periodic_cell(res)
        sig = random_piecewise_field(cell, k_max, 4, seed=seed, symmetric=symmetric)
        xis = np.eye(2)
        full = reference_operator(cell, sig.matrices)
        for xi, u, b in zip(xis, solve_periodic_cell(sig, xis), cell_load(sig, xis)):
            w = np.zeros(cell.n_free)
            w[cell.free_index] = u.values - cell.vertices @ xi
            # every row, the eliminated row 0 included
            assert np.linalg.norm(full @ w - b) <= tol * np.linalg.norm(b)
