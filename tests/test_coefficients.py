import numpy as np
import pytest

from beltramilab import coefficients
from beltramilab.coeff_algebra import sigma_from_beltrami
from beltramilab.coefficients import (
    checkerboard_field,
    constant_field,
    explicit_field,
    hall_laminate_field,
    laminate_field,
    random_pair,
    random_piecewise_field,
    rng_from_seed,
)
from beltramilab.grid import (
    ElementMatrixField,
    TriMesh,
    build_periodic_cell,
    build_unit_square,
    export_triangles_csv,
    export_vertices_csv,
    lattice_resolution,
)

# ---------------------------------------------------------------------------
# Reference: each lattice family working out its blocks from the barycenters
# on its own, as it did before the families shared one block-table sampler.
# ---------------------------------------------------------------------------


def ref_resolution(mesh):
    n = lattice_resolution(mesh)
    if n is None:
        raise ValueError("not the unit-square lattice")
    return n


def ref_check_strip_interface(mesh, fraction):
    n = ref_resolution(mesh)
    if abs(fraction * n - round(fraction * n)) > 1e-9:
        raise ValueError(f"strip interface at {fraction} does not sit on mesh lines at resolution {n}")


def ref_laminate(mesh, a, b, direction="x1", fraction=0.5):
    ref_check_strip_interface(mesh, fraction)
    axis = {"x1": 0, "x2": 1}[direction]
    coord = mesh.barycenters[:, axis]
    vals = np.where(coord % 1.0 < fraction, a, b)
    mats = np.zeros((mesh.n_triangles, 2, 2))
    mats[:, 0, 0] = vals
    mats[:, 1, 1] = vals
    return ElementMatrixField(mesh, mats)


def ref_checkerboard(mesh, a, b):
    n = ref_resolution(mesh)
    if n % 2 != 0:
        raise ValueError(f"checkerboard needs an even resolution, got {n}")
    bary = mesh.barycenters
    ix = np.floor(2.0 * (bary[:, 0] % 1.0)).astype(int)
    iy = np.floor(2.0 * (bary[:, 1] % 1.0)).astype(int)
    vals = np.where((ix + iy) % 2 == 0, a, b)
    mats = np.zeros((mesh.n_triangles, 2, 2))
    mats[:, 0, 0] = vals
    mats[:, 1, 1] = vals
    return ElementMatrixField(mesh, mats)


def ref_hall_laminate(mesh, c, direction="x1"):
    ref_check_strip_interface(mesh, 0.5)
    axis = {"x1": 0, "x2": 1}[direction]
    coord = mesh.barycenters[:, axis]
    sign = np.where(coord % 1.0 < 0.5, 1.0, -1.0)
    mats = np.zeros((mesh.n_triangles, 2, 2))
    mats[:, 0, 0] = 1.0
    mats[:, 1, 1] = 1.0
    mats[:, 0, 1] = c * sign
    mats[:, 1, 0] = -c * sign
    return ElementMatrixField(mesh, mats)


def ref_random_piecewise(mesh, k_max, cells, seed, symmetric=False):
    if k_max < 1.0:
        raise ValueError("k_max must be >= 1")
    n = ref_resolution(mesh)
    if n % cells != 0:
        raise ValueError(f"resolution {n} is not a multiple of the block count {cells}")
    rng = rng_from_seed(seed)
    block_mats = np.empty((cells, cells, 2, 2))
    for j in range(cells):
        for i in range(cells):
            block_mats[j, i] = sigma_from_beltrami(random_pair(rng, k_max, symmetric))
    bary = mesh.barycenters
    bi = np.clip((bary[:, 0] % 1.0 * cells).astype(int), 0, cells - 1)
    bj = np.clip((bary[:, 1] % 1.0 * cells).astype(int), 0, cells - 1)
    return ElementMatrixField(mesh, block_mats[bj, bi])


def ref_explicit(mesh, table, cells):
    table = np.asarray(table, dtype=float).reshape(cells, cells, 2, 2)
    n = ref_resolution(mesh)
    if n % cells != 0:
        raise ValueError(f"resolution {n} is not a multiple of the block count {cells}")
    bary = mesh.barycenters
    bi = np.clip((bary[:, 0] % 1.0 * cells).astype(int), 0, cells - 1)
    bj = np.clip((bary[:, 1] % 1.0 * cells).astype(int), 0, cells - 1)
    return ElementMatrixField(mesh, table[bj, bi])


EXPLICIT_TABLE = [[[1.0 + k, 0.1 * k], [-0.2 * k, 2.0 + 0.5 * k]] for k in range(16)]

# (new family, reference, arguments after the mesh)
CASES = (
    [(laminate_field, ref_laminate, (1.0, 5.0, d, f))
     for d in ("x1", "x2") for f in (1 / 3, 0.5 + 1e-12, 0.25, 0.5)]
    + [(checkerboard_field, ref_checkerboard, (1.0, 4.0))]
    # c = 0.0 and -0.0 give signed zeros off the diagonal
    + [(hall_laminate_field, ref_hall_laminate, (c, d))
       for c in (0.5, 0.0, -0.0, -0.3) for d in ("x1", "x2")]
    + [(random_piecewise_field, ref_random_piecewise, (5.0, cells, seed, sym))
       for cells in (4, 3) for seed in (0, 106, 1008) for sym in (False, True)]
    + [(explicit_field, ref_explicit, (EXPLICIT_TABLE[:cells * cells], cells)) for cells in (1, 2, 4)]
)
RESOLUTIONS = (2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 24, 32, 48, 64, 96, 128, 256)


def assert_same_as_reference(mesh):
    for family, reference, args in CASES:
        try:
            expected = reference(mesh, *args).matrices
        except ValueError:
            with pytest.raises(ValueError):
                family(mesh, *args)
            continue
        got = family(mesh, *args).matrices
        assert got.tobytes() == expected.tobytes(), (family.__name__, args)


class TestBlockTablesMatchReference:
    @pytest.mark.parametrize("n", RESOLUTIONS)
    @pytest.mark.parametrize("build", [build_unit_square, build_periodic_cell],
                             ids=["unit_square", "periodic_cell"])
    def test_byte_identical(self, build, n):
        assert_same_as_reference(build(n))

    @pytest.mark.parametrize("build, n", [(build_unit_square, 12), (build_periodic_cell, 16)],
                             ids=["unit_square", "periodic_cell"])
    def test_mesh_read_back_from_csv(self, tmp_path, build, n):
        # as the benchmark's output checks rebuild it: not periodic, no boundary loop
        mesh = build(n)
        export_vertices_csv(mesh, tmp_path / "vertices.csv")
        export_triangles_csv(mesh, tmp_path / "triangles.csv")
        verts = np.loadtxt(tmp_path / "vertices.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1:3]
        tris = np.loadtxt(tmp_path / "triangles.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1:4]
        bare = TriMesh(vertices=verts, triangles=tris.astype(np.int64),
                       boundary_loop=np.zeros(0, dtype=np.int64))
        assert lattice_resolution(bare) == n
        assert_same_as_reference(bare)


    @pytest.mark.parametrize("build", [build_unit_square, build_periodic_cell],
                             ids=["unit_square", "periodic_cell"])
    def test_laminate_reads_the_lattice_once(self, monkeypatch, build):
        calls = []

        def counted(mesh):
            calls.append(mesh)
            return lattice_resolution(mesh)

        monkeypatch.setattr(coefficients, "lattice_resolution", counted)
        mesh = build(8)
        for direction in ("x1", "x2"):
            calls.clear()
            laminate_field(mesh, 1.0, 5.0, direction, fraction=0.25)
            assert len(calls) == 1


class TestFieldIsItsBlockTable:
    """Each family keeps one table entry per block of its block table and a uint8 index.

    The gathered ``matrices`` are the per-triangle reference's, bit for bit.
    """

    @pytest.mark.parametrize("build", [build_unit_square, build_periodic_cell], ids=["unit_square", "periodic_cell"])
    def test_one_entry_per_block(self, build):
        mesh = build(16)
        # laminates keep one strip per lattice row or column
        blocks = {laminate_field: 16, checkerboard_field: 4, hall_laminate_field: 2}
        for family, reference, args in CASES:
            try:
                expected = reference(mesh, *args).matrices
            except ValueError:
                continue  # blocks off the res-16 mesh lines
            field = family(mesh, *args)
            b = blocks[family] if family in blocks else args[1] ** 2  # cells x cells
            assert field.table.shape == (b, 2, 2) and field.index.dtype == np.uint8, (family.__name__, args)
            assert np.array_equal(np.unique(field.index), np.arange(b))
            assert field.matrices.tobytes() == expected.tobytes()

    def test_random_piecewise_has_sixteen_entries(self):
        field = random_piecewise_field(build_periodic_cell(256), 5.0, 4, seed=1)
        assert field.table.shape == (16, 2, 2) and field.index.dtype == np.uint8
        assert field.table.nbytes + field.index.nbytes == 16 * 32 + 2 * 256 * 256

    def test_constant_field_is_one_entry(self):
        mesh = build_unit_square(8)
        matrix = np.array([[2.0, 0.5], [-0.3, 1.0]])
        field = constant_field(mesh, matrix)
        matrix[0, 0] = 9.0  # the field keeps its own copy
        assert field.table.shape == (1, 2, 2) and field.index.dtype == np.uint8
        assert not field.index.any()
        want = np.broadcast_to([[2.0, 0.5], [-0.3, 1.0]], (mesh.n_triangles, 2, 2))
        assert field.matrices.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="2x2"):
            constant_field(mesh, np.eye(3))


class TestLatticeRejections:
    @pytest.mark.parametrize("fraction", [0.0, 1.0, 2.0, -0.5, float("nan")])
    def test_laminate_fraction_outside_unit_interval(self, fraction):
        # fraction 2.0 used to build a one-phase field
        with pytest.raises(ValueError, match="fraction"):
            laminate_field(build_periodic_cell(8), 1.0, 5.0, fraction=fraction)

    @pytest.mark.parametrize("build", [
        lambda m: laminate_field(m, 1.0, 5.0, direction="x3"),
        lambda m: hall_laminate_field(m, 0.5, direction="y"),
    ], ids=["laminate", "hall_laminate"])
    def test_unknown_strip_direction(self, build):
        with pytest.raises(ValueError, match="direction"):
            build(build_periodic_cell(8))

    @pytest.mark.parametrize("build", [
        lambda m: random_piecewise_field(m, 5.0, 0, seed=1),
        lambda m: explicit_field(m, [], 0),
    ], ids=["random_piecewise", "explicit"])
    def test_empty_block_table(self, build):
        with pytest.raises(ValueError, match="empty"):
            build(build_unit_square(8))

    def test_blocks_must_sit_on_mesh_lines(self):
        with pytest.raises(ValueError, match="mesh lines"):
            checkerboard_field(build_periodic_cell(5), 1.0, 4.0)
        with pytest.raises(ValueError, match="mesh lines"):
            random_piecewise_field(build_unit_square(6), 5.0, 4, seed=1)

    def test_more_blocks_than_squares_rejected_before_drawing(self):
        with pytest.raises(ValueError, match="blocks exceed"):
            random_piecewise_field(build_unit_square(8), 5.0, 10**6, seed=1)

    def test_renumbered_lattice_rejected(self):
        # the lattice geometry in another vertex order is not the lattice the families sample on
        m = build_unit_square(8)
        perm = np.arange(m.n_vertices)[::-1]
        inv = np.argsort(perm)
        renumbered = TriMesh(m.vertices[perm], inv[m.triangles], inv[m.boundary_loop])
        with pytest.raises(ValueError, match="unit-square mesh"):
            random_piecewise_field(renumbered, 5.0, 4, seed=1)
        with pytest.raises(ValueError, match="unit-square mesh"):
            laminate_field(renumbered, 1.0, 5.0)
