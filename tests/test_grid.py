import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from beltramilab import grid
from beltramilab.coefficients import random_piecewise_field
from beltramilab.elliptic_solver import LU_ORDERING, LU_PANEL_SIZE, _free_block, solve_periodic_cell
from beltramilab.errors import MeshBudgetError
from beltramilab.grid import (
    CSV_BLOCK_ROWS,
    INSIDE_BLOCK_PAIRS,
    ElementMatrixField,
    ScalarFieldP1,
    TriMesh,
    _decimal_table,
    _double_square_inside_polygon,
    _write_indexed_csv,
    _points_in_polygon,
    _segments_hit_boxes,
    build_mesh,
    build_periodic_cell,
    build_regular_ngon,
    build_unit_square,
    dyadic_squares,
    element_gradient,
    export_element_values_csv,
    export_triangles_csv,
    export_vertex_values_csv,
    export_vertices_csv,
    interior_dissection_order,
    lattice_resolution,
    row_blocks,
    write_csv,
)
from beltramilab.homogenization import cell_complex_map, cell_map
from beltramilab.sigma_harmonic import change_coordinates, primary_pair
from beltramilab.weights_diagnostics import square_stats


def reference_lattice(n):
    """Reference loop over the squares: triangles (v00, v10, v11), (v00, v11, v01); the loop."""
    def vid(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            tris.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            tris.append((vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)))
    loop = [vid(i, 0) for i in range(n)] + [vid(n, j) for j in range(n)]
    loop += [vid(i, n) for i in range(n, 0, -1)] + [vid(0, j) for j in range(n, 0, -1)]
    return np.array(tris), np.array(loop)


def regular_ngon_area(n_sides: int, radius: float) -> float:
    """Closed-form area of the regular polygon, the mesh oracle."""
    return 0.5 * n_sides * radius * radius * math.sin(2 * math.pi / n_sides)


def reference_regular_ngon(n_sides, radius, resolution):
    """The former ring-by-ring loop of ``grid.build_regular_ngon``: (vertices, triangles, boundary loop)."""
    corners = np.array(
        [
            [radius * math.cos(2 * math.pi * s / n_sides), radius * math.sin(2 * math.pi * s / n_sides)]
            for s in range(n_sides)
        ]
    )
    vertices = [np.array([0.0, 0.0])]
    ring_start = [None, 1]
    for k in range(1, resolution + 1):
        frac = k / resolution
        for s in range(n_sides):
            c0, c1 = corners[s], corners[(s + 1) % n_sides]
            for j in range(k):
                t = j / k
                vertices.append(frac * ((1.0 - t) * c0 + t * c1))
        ring_start.append(ring_start[-1] + n_sides * k)

    def ring_vertex(k, s, j):
        if k == 0:
            return 0
        s_eff, j_eff = (s + j // k) % n_sides, j % k
        return ring_start[k] + s_eff * k + j_eff

    tris = []
    for k in range(resolution):
        for s in range(n_sides):
            inner = [ring_vertex(k, s, m) for m in range(k + 1)]
            outer = [ring_vertex(k + 1, s, m) for m in range(k + 2)]
            for m in range(k + 1):
                tris.append((outer[m], outer[m + 1], inner[m]))
            for m in range(k):
                tris.append((outer[m + 1], inner[m + 1], inner[m]))
    loop = np.arange(ring_start[resolution], ring_start[resolution] + n_sides * resolution)
    return np.asarray(vertices), np.asarray(tris, dtype=np.int64), loop.astype(np.int64)


def bare_mesh(mesh: TriMesh) -> TriMesh:
    """The mesh rebuilt from its arrays alone, without a builder."""
    return TriMesh(mesh.vertices, mesh.triangles, mesh.boundary_loop, free_index=mesh.free_index)


class TestMeshBuilders:
    def test_unit_square_counts(self):
        m = build_unit_square(2)
        assert m.n_triangles == 8
        assert m.n_vertices == 9

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_unit_square_triangle_count(self, n):
        assert build_unit_square(n).n_triangles == 2 * n * n

    def test_unit_square_area(self):
        m = build_unit_square(7)
        assert abs(m.areas.sum() - 1.0) < 1e-12

    def test_boundary_loop_simple_closed(self):
        m = build_unit_square(4)
        loop = m.boundary_loop
        assert len(loop) == 16
        assert len(set(loop.tolist())) == len(loop)

    @pytest.mark.parametrize("n", [2, 4, 9])
    def test_periodic_identification(self, n):
        m = build_periodic_cell(n)
        assert m.n_triangles == 2 * n * n
        assert m.n_free == n * n
        # identified copies: right column maps onto the left, top onto bottom
        assert m.free_index[n] == m.free_index[0]
        assert set(m.free_index.tolist()) == set(range(n * n))

    @pytest.mark.parametrize("sides,res", [(3, 4), (5, 3), (6, 7)])
    def test_ngon_area_closed_form(self, sides, res):
        m = build_regular_ngon(sides, 1.3, res)
        assert abs(m.areas.sum() - regular_ngon_area(sides, 1.3)) < 1e-12

    @pytest.mark.parametrize("sides,radius,res", [(3, 1.0, 2), (4, 1.0, 2), (5, 0.7, 3), (6, 1.0, 8),
                                                   (7, 2.5, 5), (8, 1.0, 4), (11, 1e-3, 6), (6, 1.3, 17)])
    def test_ngon_matches_the_ring_loop_bit_for_bit(self, sides, radius, res):
        m = build_regular_ngon(sides, radius, res)
        for got, want in zip((m.vertices, m.triangles, m.boundary_loop), reference_regular_ngon(sides, radius, res)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_ngon_counts(self):
        sides, res = 6, 5
        m = build_regular_ngon(sides, 1.0, res)
        assert m.n_triangles == sides * res * res
        assert m.n_vertices == 1 + sides * res * (res + 1) // 2
        assert len(m.boundary_loop) == sides * res

    def test_dispatch(self):
        assert build_mesh("unit_square", 3).n_triangles == 18
        assert build_mesh("periodic_cell", 3).periodic
        assert build_mesh(("regular_ngon", 4, 1.0), 2).n_triangles == 16
        with pytest.raises(ValueError):
            build_mesh("hexagoat", 3)

    @pytest.mark.parametrize("build", [build_unit_square, build_periodic_cell])
    @pytest.mark.parametrize("n", [2, 3, 64])
    def test_lattice_matches_square_loop(self, build, n):
        m = build(n)
        tris, loop = reference_lattice(n)
        assert m.triangles.dtype == np.int64 and m.boundary_loop.dtype == np.int64
        assert np.array_equal(m.triangles, tris)
        assert np.array_equal(m.boundary_loop, loop)

    @pytest.mark.parametrize("n", [2, 3, 16])
    def test_lattice_resolution_reads_the_arrays(self, n):
        square, torus = build_unit_square(n), build_periodic_cell(n)
        assert lattice_resolution(square) == lattice_resolution(torus) == n
        # the lattice read back from its exported vertices and triangles is still the lattice
        assert lattice_resolution(TriMesh(square.vertices, square.triangles, np.zeros(0))) == n
        # vertices numbered right to left: the same geometry, another dof order
        perm = np.arange(square.n_vertices).reshape(n + 1, n + 1)[:, ::-1].ravel()
        inv = np.argsort(perm)
        renumbered = TriMesh(square.vertices[perm], inv[square.triangles],
                           inv[square.boundary_loop])
        assert lattice_resolution(renumbered) is None
        # the torus with a different quotient map
        assert lattice_resolution(replace(torus, free_index=n * n - 1 - torus.free_index)) is None
        assert lattice_resolution(build_regular_ngon(8, 1.0, n)) is None

    def test_lattice_resolution_is_tested_once_per_mesh(self, monkeypatch):
        square = build_unit_square(16)
        builds = []
        square_lattice = grid._square_lattice
        monkeypatch.setattr(grid, "_square_lattice", lambda n: builds.append(n) or square_lattice(n))
        # the coefficient, the Dirichlet block's ordering before and after the LU, and the stream transform
        primary_pair(random_piecewise_field(square, 5.0, 4, seed=1001))
        assert builds == [16]
        # a replaced mesh is a new mesh: it is tested again, and its own arrays decide
        moved = replace(square, vertices=square.vertices + 0.5)
        assert lattice_resolution(moved) is None and builds == [16, 16]
        assert lattice_resolution(replace(moved, vertices=square.vertices)) == 16 and builds == [16, 16, 16]

    @pytest.mark.parametrize("build, periodic", [(build_unit_square, True), (build_periodic_cell, False)])
    def test_periodic_is_not_an_input(self, build, periodic):
        # a square flagged periodic had no fixed dofs (its identity conductivity came out ~4e-15):
        # the flag is read from free_index, so it cannot be written
        mesh = build(8)
        with pytest.raises(TypeError, match="periodic"):
            TriMesh(mesh.vertices, mesh.triangles, mesh.boundary_loop, periodic=periodic,
                    free_index=mesh.free_index)
        with pytest.raises(TypeError, match="periodic"):
            replace(mesh, periodic=periodic)
        with pytest.raises(AttributeError):
            mesh.periodic = periodic

    @pytest.mark.parametrize("build, periodic", [
        (lambda: build_unit_square(8), False),
        (lambda: build_periodic_cell(8), True),
        (lambda: build_regular_ngon(6, 1.0, 4), False),
        (lambda: bare_mesh(build_periodic_cell(8)), True),
    ], ids=["square", "torus", "hexagon", "bare-torus"])
    def test_periodic_is_read_from_free_index(self, build, periodic):
        mesh = build()
        assert mesh.periodic == (mesh.n_free < mesh.n_vertices) == periodic

    def test_free_index_from_arrays_alone(self):
        # n_free is read from free_index: a torus built without the builder solves bit for bit like it
        cell = build_periodic_cell(8)
        bare = bare_mesh(cell)
        assert bare.n_free == 64
        sigma = random_piecewise_field(cell, 5.0, 4, seed=3)
        xis = np.array([[1.0, 0.0], [0.3, 1.0]])
        for got, want in zip(solve_periodic_cell(ElementMatrixField(bare, sigma.table, sigma.index), xis),
                             solve_periodic_cell(sigma, xis)):
            assert got.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("free_index", [
        lambda f: np.where(f > 0, f + 1, 0), lambda f: f[:-1], lambda f: f - 1,
    ], ids=["skips_a_dof", "one_short", "negative"])
    def test_free_index_must_number_every_vertex_onto_every_dof(self, free_index):
        cell = build_periodic_cell(4)
        with pytest.raises(ValueError, match="free_index"):
            TriMesh(cell.vertices, cell.triangles, cell.boundary_loop, free_index=free_index(cell.free_index))

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            build_unit_square(1)
        with pytest.raises(MeshBudgetError):
            build_unit_square(1500)

    @pytest.mark.parametrize("sides, radius, message", [
        (2, 1.0, "at least 3 sides"), (6, 0.0, "radius must be positive"), (6, -1.0, "radius must be positive"),
        (6, np.nan, "radius must be positive and finite"), (6, np.inf, "radius must be positive and finite"),
    ])
    def test_regular_ngon_validation(self, sides, radius, message):
        with pytest.raises(ValueError, match=message):
            build_regular_ngon(sides, radius, 4)

    @pytest.mark.parametrize("vertices, message", [
        ([[0, 0], [1, 0], [np.nan, 1]], r"vertex 2 has a non-finite coordinate \[nan, 1.0\]"),
        # a vertex that no triangle uses is checked too
        ([[0, 0], [1, 0], [0, 1], [np.inf, 0]], r"vertex 3 has a non-finite coordinate \[inf, 0.0\]"),
    ], ids=["nan_in_a_triangle", "inf_unused"])
    def test_non_finite_vertices_rejected(self, vertices, message):
        with pytest.raises(ValueError, match=message):
            TriMesh(vertices, [[0, 1, 2]], [0, 1, 2])

    def test_nan_area_rejected(self):
        # finite coordinates whose cross product overflows: inf - inf is a NaN area
        big = 1e200
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="triangle 0 has non-positive signed area nan"):
            TriMesh([[0, 0], [big, big], [big, big]], [[0, 1, 2]], [0, 1, 2])


def recursive_dissection(n: int) -> list[int]:
    """Box-by-box reference of ``interior_dissection_order``: left (lower) box, right (upper) box, separator."""
    out = []

    def visit(i0, j0, width, height):
        if width <= 0 or height <= 0:
            return
        if width >= height:
            cut = width // 2
            visit(i0, j0, cut, height)
            visit(i0 + cut + 1, j0, width - cut - 1, height)
            out.extend((j0 + t) * (n + 1) + i0 + cut for t in range(height))
        else:
            cut = height // 2
            visit(i0, j0, width, cut)
            visit(i0, j0 + cut + 1, width, height - cut - 1)
            out.extend((j0 + cut) * (n + 1) + i0 + t for t in range(width))

    visit(1, 1, n - 1, n - 1)
    return out


class TestInteriorDissectionOrder:
    @pytest.mark.parametrize("n", [*range(2, 41), 256])
    def test_permutes_the_interior_vertices(self, n):
        order = interior_dissection_order(n)
        m = build_unit_square(n)
        assert order.dtype == np.int64
        assert np.array_equal(np.sort(order), np.flatnonzero(~m.boundary_mask))

    @pytest.mark.parametrize("n", range(2, 41))
    def test_matches_the_recursive_reference(self, n):
        assert interior_dissection_order(n).tolist() == recursive_dissection(n)

    def test_separator_decouples_the_halves_of_the_top_split(self):
        n = 16
        m = build_unit_square(n)
        sig = random_piecewise_field(m, 5.0, 4, seed=1008, symmetric=False)
        order = interior_dissection_order(n)
        block = _free_block(m, sig.table, sig.index, order, m.boundary_loop, np.zeros((4 * n, 0)))[0]
        # the 15 x 15 interior is cut at the column i = 8: 105 points each side, then the 15 of the line
        i = order % (n + 1)
        left, right, line = slice(0, 105), slice(105, 210), slice(210, None)
        assert (i[left] < 8).all() and (i[right] > 8).all() and (i[line] == 8).all()
        assert block[left, right].nnz == 0 and block[right, left].nnz == 0
        assert block[line, left].nnz > 0 and block[line, right].nnz > 0

    @pytest.mark.parametrize("n", [64, 128])
    def test_fill_below_minimum_degree(self, n):
        # measured: 186,642 against 210,658 at res 64 (seed 1001)
        m = build_unit_square(n)
        sig = random_piecewise_field(m, 5.0, 4, seed=1001)
        free, order = np.flatnonzero(~m.boundary_mask), interior_dissection_order(n)
        no_data = np.zeros((4 * n, 0))
        mmd = spla.splu(_free_block(m, sig.table, sig.index, free, m.boundary_loop, no_data)[0],
                        permc_spec=LU_ORDERING, panel_size=LU_PANEL_SIZE).nnz
        nd = spla.splu(_free_block(m, sig.table, sig.index, order, m.boundary_loop, no_data)[0],
                       permc_spec="NATURAL", panel_size=LU_PANEL_SIZE).nnz
        assert nd < mmd


class TestBarycenters:
    @pytest.mark.parametrize("mesh", [build_unit_square(8), build_periodic_cell(8), build_regular_ngon(5, 1.0, 3)],
                             ids=["square", "torus", "pentagon"])
    def test_on_demand_matches_the_cached_formula(self, mesh):
        # the expression the geometry cache used to store, bit for bit
        tri = mesh.triangles
        p0, p1, p2 = mesh.vertices[tri[:, 0]], mesh.vertices[tri[:, 1]], mesh.vertices[tri[:, 2]]
        want = (p0 + p1 + p2) / 3.0
        assert np.array_equal(mesh.barycenters.view(np.uint64), want.view(np.uint64))
        # the mesh holds no copy: its cache is the areas and the hat gradients only
        assert set(mesh._geometry()) == {"areas", "grads"}
        assert mesh.barycenters is not mesh.barycenters


class TestGeometryCache:
    def test_replace_computes_its_own_geometry(self):
        m = build_unit_square(2)  # its areas are cached by the positivity check
        assert replace(m, vertices=3 * m.vertices).areas.sum() == 9.0
        # the positivity check reads the new mesh's areas: mirrored, every triangle is clockwise
        with pytest.raises(ValueError, match="non-positive signed area"):
            replace(m, vertices=m.vertices * [-1.0, 1.0])
        with pytest.raises(ValueError, match="init=False"):
            replace(m, _geom=None)

    @pytest.mark.parametrize("build", [build_unit_square, build_periodic_cell, lambda n: build_regular_ngon(7, 1.3, n)],
                             ids=["square", "torus", "heptagon"])
    def test_released_geometry_rebuilds_bit_for_bit(self, build):
        m = build(12)
        areas, grads = m.areas.copy(), m.hat_gradients.copy()
        m.release_geometry()
        assert m._geom is None
        assert np.array_equal(m.areas.view(np.uint64), areas.view(np.uint64))
        assert np.array_equal(m.hat_gradients.view(np.uint64), grads.view(np.uint64))


class TestFields:
    def test_affine_gradient_exact(self):
        m = build_unit_square(6)
        f = ScalarFieldP1(m, 3.0 * m.vertices[:, 0] - 2.0 * m.vertices[:, 1])
        g = element_gradient(f)
        assert np.abs(g - np.array([3.0, -2.0])).max() < 1e-13

    def test_coordinate_and_constant_gradients(self):
        m = build_regular_ngon(5, 1.0, 4)
        fx = ScalarFieldP1(m, m.vertices[:, 0].copy())
        assert np.abs(element_gradient(fx) - np.array([1.0, 0.0])).max() < 1e-13
        fc = ScalarFieldP1(m, np.full(m.n_vertices, 4.2))
        assert np.abs(element_gradient(fc)).max() < 1e-13

    def test_integrate_is_the_area_weighted_sum(self):
        m = build_regular_ngon(6, 1.0, 8)
        assert grid.integrate(m, np.ones(m.n_triangles)) == pytest.approx(regular_ngon_area(6, 1.0), rel=1e-14)
        v = np.exp(np.sin(7.0 * m.barycenters))
        total = grid.integrate(m, v)  # the trailing axis is kept
        assert total.shape == (2,) and np.allclose(total, (m.areas[:, None] * v).sum(axis=0), rtol=1e-14, atol=0)
        inner = m.barycenters[:, 0] > 0.0
        by_mask = grid.integrate(m, v[:, 0], inner)
        assert by_mask == grid.integrate(m, v[:, 0], np.flatnonzero(inner))
        assert by_mask == np.einsum("t,t->", m.areas[inner], v[inner, 0])

    def test_field_shape_validation(self):
        m = build_unit_square(2)
        with pytest.raises(ValueError):
            ScalarFieldP1(m, np.zeros(5))
        with pytest.raises(ValueError, match="index must give each"):
            ElementMatrixField(m, np.zeros((3, 2, 2)), np.arange(m.n_triangles))
        with pytest.raises(TypeError, match="index"):  # no per-triangle stack without an index
            ElementMatrixField(m, np.zeros((m.n_triangles, 2, 2)))

    def test_element_field_table_and_index(self):
        m = build_unit_square(2)
        table = np.array([np.eye(2), 2.0 * np.eye(2)])
        index = np.arange(m.n_triangles) % 2
        field = ElementMatrixField(m, table, index)
        assert field.index.dtype == np.uint8 and np.array_equal(field.index, index)
        assert np.array_equal(field.matrices, table[index])
        with pytest.raises(ValueError, match="read-only"):
            field.matrices[0, 0, 0] = 5.0  # a gathered copy: writing to it would change nothing
        # one entry per triangle, indexed in the smallest unsigned dtype that numbers them
        big = build_unit_square(256)
        stack = np.broadcast_to(np.eye(2), (big.n_triangles, 2, 2))
        assert ElementMatrixField(big, stack, np.arange(big.n_triangles)).index.dtype == np.uint32
        for bad in (index + 1, index[:-1], -index, index.astype(float)):
            with pytest.raises(ValueError, match="index must give each"):
                ElementMatrixField(m, table, bad)
        with pytest.raises(ValueError, match="table"):
            ElementMatrixField(m, np.zeros((0, 2, 2)), np.zeros(m.n_triangles, dtype=int))


class TestDyadicSquares:
    def test_counts(self):
        m = build_unit_square(8)
        assert len(dyadic_squares(m, 0)) == 1
        assert len(dyadic_squares(m, 2)) == 21

    def test_negative_max_level_rejected(self):
        with pytest.raises(ValueError, match="max_level must be >= 0"):
            dyadic_squares(build_unit_square(8), -1)

    def test_membership_partitions_every_level(self):
        m = build_unit_square(12)
        ds = dyadic_squares(m, 3)
        for level in range(4):
            members = np.concatenate(
                [ds.elements(s) for s in np.flatnonzero(ds.level == level)]
            )
            assert len(members) == m.n_triangles
            assert len(np.unique(members)) == m.n_triangles
            area = sum(ds.area[ds.level == level])
            assert abs(area - 1.0) < 1e-12

    def test_csr_layout(self):
        # one ascending member row per square, each level a permutation of the triangles
        m = build_regular_ngon(6, 1.0, 8)
        ds = dyadic_squares(m, 3)
        assert ds.offsets[0] == 0 and ds.offsets[-1] == len(ds.members) == 4 * m.n_triangles
        assert np.all(np.diff(ds.offsets) >= 0)
        bary = m.barycenters  # computed on each read
        for s in range(len(ds)):
            e = ds.elements(s)
            assert np.all(np.diff(e) > 0)
            assert ds.area[s] == m.areas[e].sum()
            inside = np.all((bary[e] >= ds.corner[s] - 1e-12)
                            & (bary[e] <= ds.corner[s] + ds.side[s] + 1e-12), axis=1)
            assert inside.all()
        assert ds.side[0] == 2.0 and np.all(ds.side == 2.0 / 2.0 ** ds.level)

    def test_too_few_flag(self):
        m = build_unit_square(8)
        ds = dyadic_squares(m, 4)
        # level 4 squares on a res-8 mesh hold 2*(8/16)^2 < 8 triangles
        assert all(ds.too_few[ds.level == 4])
        assert not any(ds.too_few[ds.level <= 2])
        assert np.array_equal(ds.admissible(), np.flatnonzero(ds.level <= 2))

    def test_twice_inside_flags(self):
        m = build_unit_square(16)
        ds = dyadic_squares(m, 2)
        assert not any(ds.twice_inside[ds.level <= 1])
        inner = np.flatnonzero((ds.level == 2) & ds.twice_inside)
        assert len(inner) == 4
        assert np.array_equal(ds.admissible(require_twice_inside=True), inner)

    def test_periodic_cell_all_twice_inside(self):
        m = build_periodic_cell(16)
        ds = dyadic_squares(m, 2)
        assert all(ds.twice_inside)

    def test_reference_square_is_the_bounding_square(self):
        # a [0, 2]^2 lattice: level-1 squares of side 1 hold a quarter of the area each
        m = build_unit_square(8)
        scaled = replace(m, vertices=2 * m.vertices)
        ds = dyadic_squares(scaled, 1)
        assert ds.side[0] == 2.0 and np.array_equal(ds.corner[0], [0.0, 0.0])
        assert np.array_equal(ds.area[ds.level == 1], [1.0, 1.0, 1.0, 1.0])

    @pytest.mark.parametrize("n, max_level", [(8, 3), (64, 5)])
    def test_lattice_box_test_matches_polygon_test(self, n, max_level):
        # the exact box test on the recognised lattice gives the polygon test's flags
        ds = dyadic_squares(build_unit_square(n), max_level)
        assert np.array_equal(ds.twice_inside, reference_twice_inside(ds))

    def test_bounding_square_mode_for_custom_mesh(self):
        # squares over the bounding square of a polygon mesh still partition;
        # the diamond (4-gon) admits double squares from level 3 on
        m = build_regular_ngon(4, 1.0, 8)
        ds = dyadic_squares(m, 3)
        members = np.concatenate([ds.elements(s) for s in np.flatnonzero(ds.level == 2)])
        assert len(np.unique(members)) == m.n_triangles
        assert sum((ds.level == 3) & ds.twice_inside) == 8
        assert not any(ds.twice_inside[ds.level <= 2])

    def test_square_budget(self):
        # (4**12 - 1) / 3 squares at max_level 11: refused before anything is allocated
        m = build_unit_square(4)
        with pytest.raises(MeshBudgetError, match="dyadic squares"):
            dyadic_squares(m, 11)
        assert len(dyadic_squares(m, 1)) == 5


def reference_points_in_polygon(points, poly):
    """The former even-odd test: one array pass over the points per polygon edge."""
    x, y = points[:, 0], points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        crosses = (y0 > y) != (y1 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
        inside ^= crosses & (x < np.where(crosses, xint, np.inf))
    return inside


def reference_segment_hits_box(p0, p1, lo, hi):
    """The former Liang-Barsky test of every segment against one box [lo, hi]."""
    d = p1 - p0
    t0 = np.zeros(len(p0))
    t1 = np.ones(len(p0))
    hits = np.ones(len(p0), dtype=bool)
    for axis in range(2):
        dd = d[:, axis]
        near = np.where(dd != 0, (lo[axis] - p0[:, axis]) / np.where(dd == 0, 1, dd), -np.inf)
        far = np.where(dd != 0, (hi[axis] - p0[:, axis]) / np.where(dd == 0, 1, dd), np.inf)
        swap = near > far
        near2 = np.where(swap, far, near)
        far2 = np.where(swap, near, far)
        parallel_out = (dd == 0) & ((p0[:, axis] < lo[axis]) | (p0[:, axis] > hi[axis]))
        t0 = np.maximum(t0, near2)
        t1 = np.minimum(t1, far2)
        hits &= ~parallel_out
    return hits & (t0 <= t1)


def reference_segments_hit_boxes(lo, hi, poly):
    """The former dense clip test: every box against every edge, as one (boxes x edges) array."""
    d = np.roll(poly, -1, axis=0) - poly
    t0, t1, hits = 0.0, 1.0, True
    for axis in range(2):
        dd, p0 = d[:, axis], poly[:, axis]
        box_lo, box_hi = lo[:, axis, None], hi[:, axis, None]
        denom = np.where(dd == 0, 1, dd)
        near = np.where(dd != 0, (box_lo - p0) / denom, -np.inf)
        far = np.where(dd != 0, (box_hi - p0) / denom, np.inf)
        swap = near > far
        t0 = np.maximum(t0, np.where(swap, far, near))
        t1 = np.minimum(t1, np.where(swap, near, far))
        hits = hits & ~((dd == 0) & ((p0 < box_lo) | (p0 > box_hi)))
    return (hits & (t0 <= t1)).any(axis=1)


def reference_double_square_inside(corners_lo, h, poly):
    """The former square-by-square double-square test: the reference."""
    n = len(corners_lo)
    lo2 = corners_lo - 0.5 * h
    hi2 = corners_lo + 1.5 * h
    flags = np.ones(n, dtype=bool)
    for off in np.array([[0.0, 0.0], [2.0 * h, 0.0], [0.0, 2.0 * h], [2.0 * h, 2.0 * h]]):
        flags &= reference_points_in_polygon(lo2 + off[None, :], poly)
    seg0 = poly
    seg1 = np.roll(poly, -1, axis=0)
    for k in range(n):
        if flags[k] and reference_segment_hits_box(seg0, seg1, lo2[k], hi2[k]).any():
            flags[k] = False
    return flags


def reference_twice_inside(ds):
    """``twice_inside`` of a custom-domain square set, level by level through the reference."""
    poly = ds.mesh.vertices[ds.mesh.boundary_loop]
    flags = [
        reference_double_square_inside(ds.corner[ds.level == level], ds.side[ds.level == level][0], poly)
        for level in np.unique(ds.level)
    ]
    return np.concatenate(flags)


def level_corners(n, origin=(0.0, 0.0), side=1.0):
    """The lower-left corners of the n x n squares of side ``side / n``, as ``dyadic_squares`` builds them."""
    cells = np.arange(n * n)
    return np.asarray(origin) + side / n * np.column_stack([cells % n, cells // n])


def image_meshes(resolution=64, seed=1001):
    """The image meshes that ``diagnose`` tests reverse Hoelder on: a primary pair and a cell map."""
    square = build_unit_square(resolution)
    Phi, _, U = primary_pair(random_piecewise_field(square, 5.0, 4, seed=seed))
    cell = build_periodic_cell(resolution)
    sigma = random_piecewise_field(cell, 5.0, 4, seed=seed)
    cm = cell_map(sigma, np.eye(2))
    f, _ = cell_complex_map(sigma, cm.U.u1)
    return [change_coordinates(U, Phi)[0], change_coordinates(cm.U, f)[0]]


def star_polygon():
    """A ten-pointed star of radii 1 and 0.45 about the origin: a concave polygon."""
    angles = np.arange(20) * np.pi / 10
    radii = np.where(np.arange(20) % 2 == 0, 1.0, 0.45)
    return np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])


class TestDoubleSquareInside:
    """The blocked double-square test against the former square-by-square loop, flag for flag."""

    @pytest.mark.parametrize("sides", range(3, 9))
    @pytest.mark.parametrize("resolution,max_level", [(3, 4), (8, 5)])
    def test_regular_ngons(self, sides, resolution, max_level):
        ds = dyadic_squares(build_regular_ngon(sides, 1.0, resolution), max_level)
        assert np.array_equal(ds.twice_inside, reference_twice_inside(ds))

    @pytest.mark.parametrize("sides", [3, 5, 8])
    def test_regular_ngons_level_six(self, sides):
        ds = dyadic_squares(build_regular_ngon(sides, 0.7, 16), 6)
        assert ds.twice_inside.sum() > 0
        assert np.array_equal(ds.twice_inside, reference_twice_inside(ds))

    def test_image_meshes(self):
        for img in image_meshes():
            ds = dyadic_squares(img, 5)
            assert ds.twice_inside.sum() > 100
            assert np.array_equal(ds.twice_inside, reference_twice_inside(ds))

    def test_concave_polygon(self):
        # even-odd parity, not "any crossing", decides the corners
        poly = star_polygon()
        for n in (4, 8, 16, 32):
            corners = level_corners(n, origin=(-1.0, -1.0), side=2.0)
            flags = _double_square_inside_polygon(corners, 2.0 / n, poly)
            assert np.array_equal(flags, reference_double_square_inside(corners, 2.0 / n, poly))
        assert flags.sum() > 0

    def test_segment_tip_within_rounding_of_the_box(self):
        # A spike from the left ends one ulp short of the double square's side
        # x = 0.5.  Liang-Barsky's near = 4.5 / (4.5 - 2**-54) rounds to 1.0,
        # so the closed-box test counts it as meeting the double square.
        tip = np.nextafter(0.5, 0.0)
        poly = np.array([[-4.0, -4.0], [4.0, -4.0], [4.0, 4.0], [-4.0, 4.0],
                         [-4.0, 1.5], [tip, 1.0], [-4.0, 0.5]])
        corners = np.array([[1.0, 0.5], [1.0, -2.0]])
        flags = _double_square_inside_polygon(corners, 1.0, poly)
        assert np.array_equal(flags, reference_double_square_inside(corners, 1.0, poly))
        assert flags.tolist() == [False, True]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(-2, 18), st.integers(-2, 18)), min_size=3, max_size=12),
           st.sampled_from([2, 4, 8]))
    def test_polygons_on_corner_coordinates(self, vertices, n):
        # vertices on the 1/16 grid, which holds every double-square corner and
        # side line at n = 2, 4 and 8: vertices and edges land on the boxes
        poly = np.array(vertices, dtype=float) / 16.0
        corners = level_corners(n)
        flags = _double_square_inside_polygon(corners, 1.0 / n, poly)
        assert np.array_equal(flags, reference_double_square_inside(corners, 1.0 / n, poly))

    def test_several_blocks_with_a_partial_last_block(self):
        # points and boxes strewn over the star, as many as 3 1/3 row blocks of
        # the former (rows x edges) test, and the last third holds both answers
        poly = star_polygon()
        rows_per_block = INSIDE_BLOCK_PAIRS // len(poly)
        n = 3 * rows_per_block + rows_per_block // 3
        rng = np.random.default_rng(5)
        lo = rng.uniform(-1.2, 1.2, (n, 2))
        hi = lo + rng.uniform(0.0, 0.3, (n, 2))
        inside = _points_in_polygon(lo, poly)
        assert np.array_equal(inside, reference_points_in_polygon(lo, poly))
        hits = _segments_hit_boxes(lo, hi, poly)
        nxt = np.roll(poly, -1, axis=0)
        assert np.array_equal(hits, [reference_segment_hits_box(poly, nxt, a, b).any() for a, b in zip(lo, hi)])
        for flags in (inside, hits):
            last = flags[3 * rows_per_block:]
            assert last.any() and not last.all()


@st.composite
def grid_polygons(draw):
    """Star-shaped polygons on a grid: convex or not, with repeated vertices and axis-parallel edges.

    Vertices sit at integer points within radius 16, ordered by angle about
    the origin, then are scaled by ``scale`` (a power of two) and moved by
    ``shift``; a repeated vertex gives a zero-length edge.  Returns the
    polygon, ``scale`` and ``shift``.
    """
    n = draw(st.integers(3, 14))
    angles = np.sort(draw(st.lists(st.integers(0, 63), min_size=n, max_size=n, unique=True)))
    if draw(st.booleans()):  # on one circle: convex, up to the rounding to the grid
        radii = np.full(n, 12)
    else:
        radii = np.array(draw(st.lists(st.integers(1, 16), min_size=n, max_size=n)))
    poly = np.round(radii[:, None] * np.column_stack([np.cos(angles * np.pi / 32), np.sin(angles * np.pi / 32)]))
    repeat = draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        poly = np.insert(poly, repeat, poly[repeat], axis=0)
    scale = 2.0 ** draw(st.sampled_from([-20, -3, 0, 20]))
    shift = draw(st.sampled_from([0.0, 1.0, -(2.0 ** 30)]))
    return poly * scale + shift, scale, shift


class TestPrunedInsideTests:
    """The pruned point and clip tests against the dense per-edge references, flag for flag."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(grid_polygons(), st.data())
    def test_points_on_and_off_the_polygon(self, polygon, data):
        poly, scale, shift = polygon
        # grid points (vertices, points on edges and on vertex lines) and points between them
        coords = st.integers(-34, 34).map(lambda k: k / 2 * scale + shift)
        points = np.array(data.draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=60)))
        points = np.concatenate([points, poly, 0.5 * (poly + np.roll(poly, -1, axis=0))])
        assert np.array_equal(_points_in_polygon(points, poly), reference_points_in_polygon(points, poly))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(grid_polygons(), st.data())
    def test_boxes_on_vertices_and_edges(self, polygon, data):
        poly, scale, shift = polygon
        # box sides on vertex coordinates (so through vertices and along axis-parallel edges) or on the grid
        coords = st.one_of(st.sampled_from(sorted(set(poly.ravel().tolist()))),
                           st.integers(-34, 34).map(lambda k: k / 2 * scale + shift))
        corners = data.draw(st.lists(st.tuples(coords, coords, coords, coords), min_size=1, max_size=40))
        a, b = np.array(corners).reshape(-1, 2, 2).transpose(1, 0, 2)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        assert np.array_equal(_segments_hit_boxes(lo, hi, poly), reference_segments_hit_boxes(lo, hi, poly))

    @pytest.mark.parametrize("near", [np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 0.5 - 1e-12, 0.5 - 1e-6])
    def test_long_edges_ending_within_rounding_of_a_box(self, near):
        # long edges of extent 2**40 whose tips end an ulp to a micron from boxes of side 1
        big = 2.0 ** 40
        poly = np.array([[-big, -big], [big, -big], [big, big], [-big, big], [-big, 1.5], [near, 1.0], [-big, 0.5]])
        lo = np.array([[0.5, 0.5], [0.5, 0.0], [near, 2.0], [1.0, -3.0]])
        hi = lo + 1.0
        got = _segments_hit_boxes(lo, hi, poly)
        assert np.array_equal(got, reference_segments_hit_boxes(lo, hi, poly))

    @pytest.mark.parametrize("block_pairs", [1, 7, 64])
    def test_any_block_size_gives_the_same_flags(self, monkeypatch, block_pairs):
        # blocks that split one edge's candidate boxes over several blocks
        poly = star_polygon()
        rng = np.random.default_rng(8)
        lo = rng.uniform(-1.2, 1.2, (300, 2))
        hi = lo + rng.uniform(0.0, 0.5, (300, 2))
        hits = reference_segments_hit_boxes(lo, hi, poly)
        assert hits.any() and not hits.all()
        monkeypatch.setattr(grid, "INSIDE_BLOCK_PAIRS", block_pairs)
        assert np.array_equal(_segments_hit_boxes(lo, hi, poly), hits)

    @pytest.mark.parametrize("domain", ["square", "torus"])
    @pytest.mark.parametrize("seed", range(1001, 1006))
    def test_image_meshes_match_the_dense_test(self, seed, domain):
        img = image_meshes(64, seed)[domain == "torus"]
        ds = dyadic_squares(img, 5)
        assert 0 < ds.twice_inside.sum() < len(ds)
        assert np.array_equal(ds.twice_inside, reference_twice_inside(ds))


def reference_row_blocks(members, offsets, rows=None):
    """``row_blocks`` as one scan of the rows per distinct length."""
    lengths = np.diff(offsets)
    rows = np.arange(len(lengths)) if rows is None else np.asarray(rows)
    for n in np.unique(lengths[rows]):
        sel = rows[lengths[rows] == n]
        yield sel, members[offsets[sel, None] + np.arange(n)]


class TestRowBlocks:
    """The one-sort grouping against the per-length scan, block for block."""

    @staticmethod
    def assert_same_blocks(got, want):
        got, want = list(got), list(want)
        assert len(got) == len(want)
        for (sel, idx), (ref_sel, ref_idx) in zip(got, want):
            assert sel.dtype == ref_sel.dtype and np.array_equal(sel, ref_sel)
            assert idx.shape == ref_idx.shape and np.array_equal(idx, ref_idx)
            assert idx.flags.c_contiguous

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, 6), max_size=40), st.data())
    def test_csr_tables_and_row_subsets(self, lengths, data):
        offsets = np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])
        members = np.arange(offsets[-1], dtype=np.int64)[::-1] * 3
        self.assert_same_blocks(row_blocks(members, offsets), reference_row_blocks(members, offsets))
        # a subset of the rows, in any order
        perm = data.draw(st.permutations(range(len(lengths))))
        rows = np.array(perm[:data.draw(st.integers(0, len(perm)))], dtype=np.int64)
        self.assert_same_blocks(row_blocks(members, offsets, rows),
                                reference_row_blocks(members, offsets, rows))

    def test_dyadic_square_table(self):
        # an image mesh: squares of many distinct member counts
        ds = dyadic_squares(image_meshes(32)[0], 5)
        rows = np.flatnonzero(np.diff(ds.offsets) > 0)[::-1]
        for sub in (None, rows):
            self.assert_same_blocks(row_blocks(ds.members, ds.offsets, sub),
                                    reference_row_blocks(ds.members, ds.offsets, sub))


class TestCsvExport:
    def test_column_order_and_determinism(self, tmp_path):
        m = build_unit_square(2)
        p1 = tmp_path / "v1.csv"
        p2 = tmp_path / "v2.csv"
        export_vertices_csv(m, p1)
        export_vertices_csv(m, p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "index,x,y"
        assert lines[1].startswith("0,0.0,0.0")

    def test_value_tables(self, tmp_path):
        m = build_unit_square(2)
        export_triangles_csv(m, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text().splitlines()[0] == "index,v0,v1,v2"
        export_vertex_values_csv(m, m.vertices[:, 0], tmp_path / "f.csv", name="u")
        head = (tmp_path / "f.csv").read_text().splitlines()[0]
        assert head == "index,x,y,u"
        export_element_values_csv(m, m.areas, tmp_path / "a.csv", name="area")
        head = (tmp_path / "a.csv").read_text().splitlines()[0]
        assert head == "index,x,y,area"


# Values whose text form is easy to get wrong: signed zero, the smallest
# subnormal, the switch to exponent notation, nan, inf and numpy scalars.
SPECIAL_VALUES = [-0.0, 5e-324, 1e16, float("nan"), float("-inf"), np.float64(0.1),
                  np.int64(7), 1.0 / 3.0, -2.5e-7, 123456789.125]


def reference_csv(header, rows) -> bytes:
    """The former per-value writer: repr(float(x)) for floats, str otherwise, CRLF line ends."""
    def fmt(x):
        return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)

    lines = [header, *([fmt(v) for v in row] for row in rows)]
    return "".join(",".join(line) + "\r\n" for line in lines).encode()


class TestCsvBytes:
    @pytest.fixture
    def mesh(self):
        # irrational coordinates and barycenters
        return build_regular_ngon(5, 1.0, 2)

    def test_mesh_exports(self, mesh, tmp_path):
        export_vertices_csv(mesh, tmp_path / "v.csv")
        export_triangles_csv(mesh, tmp_path / "t.csv")
        assert (tmp_path / "v.csv").read_bytes() == reference_csv(
            ["index", "x", "y"], [(i, *v) for i, v in enumerate(mesh.vertices)]
        )
        assert (tmp_path / "t.csv").read_bytes() == reference_csv(
            ["index", "v0", "v1", "v2"], [(i, *t) for i, t in enumerate(mesh.triangles)]
        )

    def test_vertex_values(self, mesh, tmp_path):
        one = np.resize(np.array(SPECIAL_VALUES, dtype=object), mesh.n_vertices).tolist()
        two = np.column_stack([one, one[::-1]]).astype(float)
        export_vertex_values_csv(mesh, one, tmp_path / "one.csv", name="u")
        export_vertex_values_csv(mesh, two, tmp_path / "two.csv", name="f")
        flat = np.asarray(one, dtype=float)
        assert (tmp_path / "one.csv").read_bytes() == reference_csv(
            ["index", "x", "y", "u"], [(i, *mesh.vertices[i], flat[i]) for i in range(len(flat))]
        )
        assert (tmp_path / "two.csv").read_bytes() == reference_csv(
            ["index", "x", "y", "f0", "f1"],
            [(i, *mesh.vertices[i], *two[i]) for i in range(len(two))],
        )

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2)])
    def test_element_values(self, mesh, tmp_path, shape):
        n = mesh.n_triangles
        values = np.resize(np.array(SPECIAL_VALUES, dtype=float), (n, *shape))
        export_element_values_csv(mesh, values, tmp_path / "e.csv", name="det")
        flat = values.reshape(n, -1)
        names = ["det"] if not shape else [f"det{k}" for k in range(flat.shape[1])]
        bary = mesh.barycenters  # computed on each read
        assert (tmp_path / "e.csv").read_bytes() == reference_csv(
            ["index", "x", "y", *names], [(i, *bary[i], *flat[i]) for i in range(n)]
        )

    def test_several_blocks(self, tmp_path):
        # 4225 vertices: two full blocks and a partial one; 8192 triangles: exactly four
        m = build_unit_square(64)
        assert m.n_vertices > 2 * CSV_BLOCK_ROWS and m.n_triangles % CSV_BLOCK_ROWS == 0
        w = np.sin(np.arange(m.n_triangles) * 0.37)
        export_vertices_csv(m, tmp_path / "v.csv")
        export_triangles_csv(m, tmp_path / "t.csv")
        export_element_values_csv(m, w, tmp_path / "w.csv", name="w")
        assert (tmp_path / "v.csv").read_bytes() == reference_csv(
            ["index", "x", "y"], [(i, *v) for i, v in enumerate(m.vertices)]
        )
        assert (tmp_path / "t.csv").read_bytes() == reference_csv(
            ["index", "v0", "v1", "v2"], [(i, *t) for i, t in enumerate(m.triangles)]
        )
        bary = m.barycenters  # computed on each read
        assert (tmp_path / "w.csv").read_bytes() == reference_csv(
            ["index", "x", "y", "w"], [(i, *bary[i], w[i]) for i in range(m.n_triangles)]
        )

    def test_signed_zeros_and_nan_payloads(self, mesh, tmp_path):
        # equal as floats but distinct bit patterns: 0.0 / -0.0, and NaNs of two payloads and signs
        nans = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(np.float64)
        column = np.resize(np.array([0.0, -0.0, nans[0], 1.5, nans[1], -0.0]), mesh.n_vertices)
        export_vertex_values_csv(mesh, column, tmp_path / "z.csv", name="u")
        text = (tmp_path / "z.csv").read_bytes()
        assert text == reference_csv(
            ["index", "x", "y", "u"], [(i, *mesh.vertices[i], column[i]) for i in range(len(column))]
        )
        assert b",-0.0\r\n" in text and b",0.0\r\n" in text and b",nan\r\n" in text

    def test_zero_rows_header_only(self, tmp_path):
        empty = TriMesh(np.zeros((0, 2)), np.zeros((0, 3), dtype=np.int64), np.zeros(0, dtype=np.int64))
        export_vertices_csv(empty, tmp_path / "v.csv")
        export_vertex_values_csv(empty, np.zeros((0, 2)), tmp_path / "f.csv", name="f")
        export_element_values_csv(empty, np.zeros(0), tmp_path / "e.csv")
        assert (tmp_path / "v.csv").read_bytes() == reference_csv(["index", "x", "y"], [])
        assert (tmp_path / "f.csv").read_bytes() == reference_csv(["index", "x", "y", "f0", "f1"], [])
        assert (tmp_path / "e.csv").read_bytes() == reference_csv(["index", "x", "y", "value"], [])

    def test_wrong_row_count_rejected(self, mesh, tmp_path):
        with pytest.raises(ValueError, match="rows"):
            export_element_values_csv(mesh, np.ones(2 * mesh.n_triangles), tmp_path / "e.csv")
        assert not (tmp_path / "e.csv").exists()

    def test_decimal_table_triangles_match_write_csv(self, tmp_path):
        m = build_unit_square(16)
        export_triangles_csv(m, tmp_path / "t.csv")
        write_csv(tmp_path / "w.csv", ["index", "v0", "v1", "v2"],
                  [(i, *t) for i, t in enumerate(m.triangles.tolist())])
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "w.csv").read_bytes()

    def test_decimal_table_mixed_columns_match_write_csv(self, tmp_path):
        # over three blocks: index-like ints (tabled), ints with a negative entry and
        # ints beyond the table's range (both ``str``), and floats (``repr``)
        n = 2 * CSV_BLOCK_ROWS + 5
        rng = np.random.default_rng(4)
        ints = np.column_stack([rng.integers(0, 2 * n, n), rng.integers(-3, n, n), rng.integers(0, 10**12, n)])
        ints[7, 1] = -1
        floats = np.resize(np.array(SPECIAL_VALUES, dtype=float), n)
        header = ["index", "a", "b", "c", "f"]
        _write_indexed_csv(tmp_path / "t.csv", header, ints, floats)
        write_csv(tmp_path / "w.csv", header, [(i, *row, f) for i, (row, f) in
                                                enumerate(zip(ints.tolist(), floats.tolist()))])
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "w.csv").read_bytes()

    def test_float_columns_with_and_without_a_key_table(self, tmp_path):
        # a column whose first block is all distinct and whose rest repeats (one repr per
        # value), the reverse (one key table for the file), and one that repeats throughout
        n = 3 * CSV_BLOCK_ROWS + 17
        special = np.array([-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e16, -1e16, 0.1])
        distinct = np.random.default_rng(6).standard_normal(n)
        repeats = np.resize(special, n)
        block = slice(0, CSV_BLOCK_ROWS)
        first_distinct, first_repeats = repeats.copy(), distinct.copy()
        first_distinct[block], first_repeats[block] = distinct[block], repeats[block]
        columns = np.column_stack([first_distinct, first_repeats, repeats])
        header = ["index", "a", "b", "c"]
        _write_indexed_csv(tmp_path / "t.csv", header, columns)
        write_csv(tmp_path / "w.csv", header, [(i, *row) for i, row in enumerate(columns.tolist())])
        text = (tmp_path / "t.csv").read_bytes()
        assert text == (tmp_path / "w.csv").read_bytes()
        for word in (b"-0.0", b"nan", b"-inf", b"5e-324", b"1e+16", b"-1e+16"):
            assert word in text

    @pytest.mark.parametrize("size", [0, 1, 9, 10, 11, 99, 100, 101, 99999, 100000, 100001])
    def test_decimal_table_is_the_astype_table(self, size):
        table, want = _decimal_table(size), np.arange(size).astype(f"U{len(str(size))}")
        assert table.dtype == want.dtype and table.shape == want.shape
        assert np.array_equal(table, want)

    def test_write_csv(self, tmp_path):
        rows = [[i, "lbl", True, *SPECIAL_VALUES[i:], *SPECIAL_VALUES[:i]] for i in range(3)]
        header = ["index", "label", "flag", *(f"c{k}" for k in range(len(SPECIAL_VALUES)))]
        write_csv(tmp_path / "w.csv", header, rows)
        assert (tmp_path / "w.csv").read_bytes() == reference_csv(header, rows)

    def test_square_stats_table(self, tmp_path):
        m = build_unit_square(8)
        w = np.exp(np.sin(7.0 * np.arange(m.n_triangles)))
        table = square_stats(w, dyadic_squares(m, 3))
        # one more square, empty, with values whose text form is easy to get wrong
        ds = table.squares
        ds = replace(
            ds, level=np.append(ds.level, np.int64(3)), corner=np.vstack([ds.corner, [0.125, -0.0]]),
            side=np.append(ds.side, 5e-324), area=np.append(ds.area, 0.0),
            too_few=np.append(ds.too_few, True), twice_inside=np.append(ds.twice_inside, False),
            offsets=np.append(ds.offsets, ds.offsets[-1]),
        )
        table = replace(
            table, squares=ds, mean_w=np.append(table.mean_w, 1e16),
            mean_w2=np.append(table.mean_w2, float("nan")),
            power_means={1.5: np.append(table.power_means[1.5], np.float64(0.1)),
                         2.0: np.append(table.power_means[2.0], float("inf"))},
            log_oscillation=np.append(table.log_oscillation, np.float64(2.0)),
        )
        table.export_csv(tmp_path / "s.csv")
        header = ["square", "level", "corner_x", "corner_y", "side", "n_elements", "mean_w",
                  "mean_w2", "log_oscillation", "too_few", "twice_inside",
                  "mean_w_pow_1.5", "mean_w_pow_2.0"]
        rows = [
            (i, ds.level[i], *ds.corner[i], ds.side[i], len(ds.elements(i)), table.mean_w[i],
             table.mean_w2[i], table.log_oscillation[i], int(ds.too_few[i]),
             int(ds.twice_inside[i]), table.power_means[1.5][i], table.power_means[2.0][i])
            for i in range(len(ds))
        ]
        assert (tmp_path / "s.csv").read_bytes() == reference_csv(header, rows)
