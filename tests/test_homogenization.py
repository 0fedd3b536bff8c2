import logging

import numpy as np
import pytest

from beltramilab import elliptic_solver, homogenization
from beltramilab.coefficients import (
    checkerboard_field,
    constant_field,
    hall_laminate_field,
    laminate_field,
    random_piecewise_field,
)
from beltramilab.elliptic_solver import solve_periodic_cell
from beltramilab.grid import (
    ElementMatrixField,
    ScalarFieldP1,
    TriMesh,
    build_periodic_cell,
    build_regular_ngon,
    build_unit_square,
)
from beltramilab.homogenization import (
    cell_complex_map,
    cell_map,
    effective_conductivity,
    image_area,
    mean_matrices,
)
from beltramilab.sigma_harmonic import PlanarMap, injectivity_check, primary_pair


class TestEffectiveConductivity:
    def test_constant_passthrough_including_antisymmetric_part(self):
        m = build_periodic_cell(8)
        mat = np.array([[2.0, 1.3], [0.1, 1.5]])
        eff = effective_conductivity(constant_field(m, mat))
        assert np.abs(eff.matrix - mat).max() < 1e-10

    def test_laminate_oracle(self):
        m = build_periodic_cell(32)
        eff = effective_conductivity(laminate_field(m, 1.0, 5.0))
        oracle = np.diag([5.0 / 3.0, 3.0])
        assert np.abs(eff.matrix - oracle).max() < 0.01 * 3.0

    def test_laminate_other_direction(self):
        m = build_periodic_cell(16)
        eff = effective_conductivity(laminate_field(m, 1.0, 5.0, direction="x2"))
        oracle = np.diag([3.0, 5.0 / 3.0])
        assert np.abs(eff.matrix - oracle).max() < 1e-9

    def test_checkerboard_duality(self):
        m = build_periodic_cell(64)
        eff = effective_conductivity(checkerboard_field(m, 1.0, 4.0))
        assert np.abs(eff.matrix - 2.0 * np.eye(2)).max() / 2.0 < 0.05
        # interchange spot check: det(sigma_eff(a,b) sigma_eff(b,a)) = (ab)^2
        eff_ba = effective_conductivity(checkerboard_field(m, 4.0, 1.0))
        det = np.linalg.det(eff.matrix @ eff_ba.matrix)
        assert abs(det - 16.0) / 16.0 < 0.05

    def test_antisymmetric_laminate_closed_form(self):
        # strips of [[1, +/-c], [-/+c, 1]] homogenize to diag(1, 1 + c^2):
        # the effective tensor exceeds the arithmetic mean of the symmetric
        # parts, so the upper sandwich bound genuinely fails here
        c = 0.5
        m = build_periodic_cell(16)
        eff = effective_conductivity(hall_laminate_field(m, c))
        oracle = np.diag([1.0, 1.0 + c * c])
        assert np.abs(eff.matrix - oracle).max() < 1e-9

    @pytest.mark.parametrize("build", [
        lambda m: hall_laminate_field(m, 0.5),
        lambda m: laminate_field(m, 1.0, 5.0),
    ], ids=["hall_laminate", "laminate"])
    def test_strip_interface_off_mesh_lines_rejected(self, build):
        # at resolution 5 the interface at 0.5 cuts through a column of cells
        with pytest.raises(ValueError, match="mesh lines"):
            build(build_periodic_cell(5))

    def test_octagon_not_read_as_square_lattice(self):
        # 8 * 4^2 triangles = 2 * 8^2 and 81 = 9^2 vertices, but the octagon spans [-1, 1]^2
        m = build_regular_ngon(8, 1.0, 4)
        assert m.n_triangles == 2 * 8 * 8
        with pytest.raises(ValueError, match="unit-square mesh"):
            laminate_field(m, 1.0, 5.0)
        with pytest.raises(ValueError, match="unit-square mesh"):
            random_piecewise_field(m, 5.0, 4, seed=1)

    def test_lattice_without_domain_name_accepted(self):
        # a unit-square lattice rebuilt from exported vertices and triangles
        m = build_unit_square(8)
        bare = TriMesh(vertices=m.vertices, triangles=m.triangles, boundary_loop=np.zeros(0))
        assert np.array_equal(
            random_piecewise_field(bare, 5.0, 4, seed=3).matrices,
            random_piecewise_field(m, 5.0, 4, seed=3).matrices,
        )

    def test_energy_probe_matches_flux_tensor(self):
        # discrete identity: the corrector is orthogonal to the test space,
        # so the energy probes equal the flux quadratic form for any sigma
        m = build_periodic_cell(16)
        sig = random_piecewise_field(m, 5.0, 4, seed=12)
        eff = effective_conductivity(sig)
        assert eff.quadratic_form_gap() < 1e-10

    def test_voigt_reuss_sandwich(self):
        m = build_periodic_cell(16)
        for seed in range(5):
            sig = random_piecewise_field(m, 4.0, 4, seed=seed, symmetric=True)
            eff = effective_conductivity(sig)
            harm, arith = mean_matrices(sig)
            sym = 0.5 * (eff.matrix + eff.matrix.T)
            assert np.linalg.eigvalsh(sym - 0.5 * (harm + harm.T)).min() > -1e-9
            assert np.linalg.eigvalsh(0.5 * (arith + arith.T) - sym).min() > -1e-9

    def test_harmonic_lower_bound_nonsymmetric(self):
        m = build_periodic_cell(16)
        for seed in range(5):
            sig = random_piecewise_field(m, 4.0, 4, seed=seed, symmetric=False)
            eff = effective_conductivity(sig)
            harm, _ = mean_matrices(sig)
            sym = 0.5 * (eff.matrix + eff.matrix.T)
            assert np.linalg.eigvalsh(sym - 0.5 * (harm + harm.T)).min() > -1e-9


class TestCellMap:
    def test_identity_coefficient(self):
        m = build_periodic_cell(8)
        cm = cell_map(constant_field(m, np.eye(2)), np.eye(2))
        assert np.abs(cm.U.u1.values - m.vertices[:, 0]).max() < 1e-12
        assert np.abs(cm.U.u2.values - m.vertices[:, 1]).max() < 1e-12

    def test_linearity_scaling(self):
        m = build_periodic_cell(8)
        sig = random_piecewise_field(m, 4.0, 4, seed=2)
        cm1 = cell_map(sig, np.eye(2))
        cm2 = cell_map(sig, 2.0 * np.eye(2))
        assert cm2.linearity_error < 1e-9
        assert np.abs(cm2.U.u1.values - 2.0 * cm1.U.u1.values).max() < 1e-9

    def test_random_cell_map_homeomorphism(self):
        # blocks sized so the resolution resolves them (8 mesh cells each)
        m = build_periodic_cell(32)
        sig = random_piecewise_field(m, 5.0, 4, seed=3)
        cm = cell_map(sig, np.eye(2))
        assert cm.U.det_DU.min() > 0.0
        assert injectivity_check(cm.U) == (True, True)

    @pytest.mark.parametrize("A, refined", [(np.eye(2), 2), ([[2.0, 0.5], [0.3, 1.0]], 4)])
    def test_each_distinct_row_is_solved_once(self, monkeypatch, A, refined):
        m = build_periodic_cell(16)
        sig = random_piecewise_field(m, 5.0, 4, seed=1001)
        rows = []
        refine = elliptic_solver._refine
        monkeypatch.setattr(elliptic_solver, "_refine", lambda lu, a, b: rows.append(b) or refine(lu, a, b))
        cm = cell_map(sig, A)
        assert len(rows) == refined
        # the same fields as one solve per row of [A; I]
        u1, u2, e1, e2 = solve_periodic_cell(sig, np.vstack([A, np.eye(2)]))
        assert cm.U.u1.values.tobytes() == u1.values.tobytes()
        assert cm.U.u2.values.tobytes() == u2.values.tobytes()
        lin = np.asarray(A) @ np.stack([e1.values, e2.values])
        assert cm.linearity_error == max(float(np.max(np.abs(u1.values - lin[0]))),
                                         float(np.max(np.abs(u2.values - lin[1]))))

    @pytest.mark.parametrize("A", [[1.0, 0.0], np.eye(3), np.ones((1, 2, 2))], ids=["vector", "3x3", "stacked"])
    def test_affine_part_of_another_shape_rejected_before_solving(self, monkeypatch, A):
        # a (2,) A was once factored and solved, then failed to unpack
        solves = []
        monkeypatch.setattr(homogenization, "solve_periodic_cell", lambda *a: solves.append(a))
        sig = constant_field(build_periodic_cell(4), np.eye(2))
        with pytest.raises(ValueError, match="affine part must be a 2 x 2 matrix"):
            cell_map(sig, A)
        assert solves == []

    def test_singular_affine_part_still_solves(self):
        m = build_periodic_cell(8)
        sig = random_piecewise_field(m, 3.0, 4, seed=4)
        cm = cell_map(sig, np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert cm.linearity_error < 1e-9


class TestCellComplexMap:
    @pytest.mark.parametrize("mesh", [build_unit_square(32), build_regular_ngon(6, 1.0, 12)],
                             ids=["square", "hexagon"])
    def test_equals_the_primary_pair_on_a_domain_with_boundary(self, mesh):
        # the conjugate of u1 alone has the bits of the primary pair's stacked solve
        # a non-symmetric elliptic matrix per triangle: sym part diag(a, b), antisymmetric part c
        a, b, c = np.random.default_rng(3).uniform([1.0, 1.0, -1.0], [5.0, 5.0, 1.0], (mesh.n_triangles, 3)).T
        sigma = ElementMatrixField(mesh, np.stack([np.column_stack([a, c]), np.column_stack([-c, b])], axis=1),
                                   np.arange(mesh.n_triangles))
        Phi, _, U = primary_pair(sigma)
        f, _ = cell_complex_map(sigma, U.u1)
        assert f.u1 is U.u1
        assert np.array_equal(f.u2.values, Phi.u2.values)


class TestImageArea:
    def test_identity_cell(self):
        m = build_periodic_cell(8)
        cm = cell_map(constant_field(m, np.eye(2)), np.eye(2))
        assert image_area(cm.U) == pytest.approx(1.0, abs=1e-12)

    def test_affine_map(self, caplog):
        m = build_unit_square(8)
        A = np.array([[2.0, 1.0], [0.0, 1.5]])
        aff = PlanarMap(
            ScalarFieldP1(m, m.vertices @ A[0]),
            ScalarFieldP1(m, m.vertices @ A[1]),
        )
        with caplog.at_level(logging.WARNING, logger="beltramilab.homogenization"):
            assert image_area(aff) == pytest.approx(np.linalg.det(A), rel=1e-12)
        assert not caplog.records

    def test_laminate_area_equals_quadratic_form(self):
        m = build_periodic_cell(64)
        sig = laminate_field(m, 1.0, 5.0)
        eff = effective_conductivity(sig)
        f1, _ = cell_complex_map(sig, eff.solutions["e1"])
        area = image_area(f1)
        qf = eff.matrix[0, 0]
        assert abs(area - qf) / qf < 0.02

    def test_non_injective_warns_with_corrected_estimate(self, caplog):
        m = build_unit_square(8)
        fold = PlanarMap(
            ScalarFieldP1(m, m.vertices[:, 0].copy()),
            ScalarFieldP1(m, np.abs(m.vertices[:, 1] - 0.5)),
        )
        with caplog.at_level(logging.WARNING, logger="beltramilab.homogenization"):
            unsigned = image_area(fold)
        (record,) = caplog.records
        assert record.args == (unsigned, pytest.approx(0.0, abs=1e-12))  # signed cancellation
        assert unsigned == pytest.approx(1.0)          # both folds counted

    def test_locally_positive_map_that_wraps_is_not_injective(self, caplog):
        # angle 3*pi*x, radius 2 - y: det DU = 3*pi*r > 0 on every triangle,
        # but the image winds 1.5 turns and its boundary crosses itself
        m = build_unit_square(16)
        x, y = m.vertices.T
        r, theta = 2 - y, 3 * np.pi * x
        f = PlanarMap(ScalarFieldP1(m, r * np.cos(theta)), ScalarFieldP1(m, r * np.sin(theta)))
        assert f.det_DU.min() > 0.0
        with caplog.at_level(logging.WARNING, logger="beltramilab.homogenization"):
            unsigned = image_area(f)
        (record,) = caplog.records
        assert record.args == (unsigned, unsigned)
        assert unsigned == pytest.approx(13.3337, abs=1e-4)
