"""Weak-form assembly and solution of div(sigma grad u) = 0 on P1 triangulations.

The coefficient matrix may be non-symmetric, so the assembled system is
genuinely non-symmetric (test gradient . sigma . trial gradient ordering),
and it is solved exactly by sparse LU (SuperLU), the one linear solver.
Each solver takes a stack of right-hand sides for one operator and
assembles, validates and factors it once per call.  Dirichlet data and the
additive constant of a cell or Neumann problem are imposed the same way:
the fixed dofs (the boundary loop, or dof 0) are eliminated and the free
block is factored.  The whole operator is never built: one function
(``_free_block``) makes the free block, a CSC matrix with int32 indices in
the order it is factored, and the fixed dofs' coupling to the right-hand
side straight from the element blocks, a few thousand triangles at a time.
Each entry sums its element contributions in triangle index order, then
local row, then local column (``np.bincount``'s order over the element
entries), so results are bit-reproducible.  SuperLU orders the columns by
minimum degree (``LU_ORDERING``), except on the Dirichlet block of an exact
unit-square lattice: its free dofs are taken in geometric nested-dissection
order (``grid.interior_dissection_order``), which SuperLU keeps
(``NESTED_DISSECTION``, named so in the stats and the ``linear solve:``
line).  The torus, the polygons and every dof-0 block keep minimum degree.
SuperLU factors with a panel of ``LU_PANEL_SIZE`` = 4 columns, not its
default 20: the panel workspace grows with n times the panel size, and the
narrow panel lowers the peak memory of a factorization with no slower
factor time.  The factors are float32, half the bytes of float64 ones, and
every column is refined to float64 accuracy by iterative refinement against
the float64 matrix (the scheme of LAPACK's DSGESV); the float64
factorization is the one fallback, taken when the float32 cast overflows,
the float32 factorization fails or a refined column misses the residual
gate.  From ``splu`` to the last refinement step the solve keeps only
three arrays alive: the float64 free block (one CSC matrix), the float32
copy of its values, which shares its ``indices`` and ``indptr``, and one
C-contiguous (k, n) float64 block of right-hand sides, one per row.  The
coefficient is read as its table of distinct matrices and its per-triangle
index (``grid.ElementMatrixField``): the build gathers the matrices of one
run of triangles at a time, so no per-triangle matrix array is alive at
``splu``, only the table and the index.
The mesh keeps only its own arrays there: it holds no barycenters (they are
computed on demand), and its cached areas and hat gradients are released
before the factorization (``TriMesh.release_geometry``) and rebuilt, bit
for bit, on their next read.  Right before each ``splu`` call the freed
heap pages go back to the OS (glibc's ``malloc_trim(0)``, a no-op where
the C library has none), so the factors do not sit on top of the
assembly's freed temporaries.  The stream function's
identity-coefficient Laplacian needs no factorization on the exact
unit-square and torus lattices: there it is the 5-point stencil, solved by
DCT-I on the square and by the 2-D FFT on the torus (``numpy.fft``).  Every
other mesh keeps the sparse LU with dof 0 eliminated.
"""

from __future__ import annotations

import ctypes
import logging
from typing import Callable, Iterable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coeff_algebra import _checked_constants
from .errors import NonEllipticError, SolverError
from .grid import (
    ROT90,
    ElementMatrixField,
    ScalarFieldP1,
    TriMesh,
    element_gradient,
    integrate,
    interior_dissection_order,
    lattice_resolution,
)

log = logging.getLogger(__name__)

# SuperLU column ordering of every free block but one: minimum degree on the
# pattern of A^T + A.  P1 stiffness matrices are structurally symmetric for
# every sigma, symmetric or not, and so is every free block a solver factors
# (a principal submatrix), so this ordering keeps far less fill than the
# default COLAMD, which orders the columns of A^T A.  The exception is the
# Dirichlet block of an exact unit-square lattice (``_free_dofs``).
LU_ORDERING = "MMD_AT_PLUS_A"

# The ordering of the unit-square lattice's Dirichlet block, as the solve
# stats name it: ``grid.interior_dissection_order``, folded into the free-dof
# index, so SuperLU keeps the block's own order (permc_spec "NATURAL").  It
# keeps less fill than MMD on that block, and SuperLU has no nested
# dissection of its own.
NESTED_DISSECTION = "nested_dissection"

# SuperLU panel width (columns factored together).  Its workspace grows with
# n * panel_size, so 4 instead of the default 20 lowers SuperLU's own peak
# with no slower factor time; panel 2 saves a little more memory but factors
# the torus block more slowly.  The float32 and float64 factors use the same
# panel.
LU_PANEL_SIZE = 4

# Most refinement steps per column beyond the first float32 solve.  Each step
# that halves the float64 residual is followed by another.  The P1 systems
# measured took 3 to 5 steps, the last being the one that no longer halves,
# at res 64 and 256, on random blocks and on laminates and checkerboards of
# contrast 1e9; their refined residuals were below the float64 LU's own.
MAX_REFINEMENT_STEPS = 10

# Triangles per step of the free block's build (``_free_block``): each step
# makes and scatters their element blocks (0.3 MB), so the build makes no
# float array the size of the mesh but the block it returns.
_BLOCK_STEP = 4096


# The relative residual every solved column must meet, on every path: the
# float32 LU after refinement, the float64 LU and the lattice transforms.
# A column that misses it fails the float32 attempt (the float64 LU is
# tried next) or the solve (``SolverError``).
RESIDUAL_GATE = 1e-8


def validate_coefficient(sigma: ElementMatrixField) -> None:
    """Reject a coefficient field with any non-finite or non-elliptic element.

    The check runs on the field's table, one matrix per distinct entry; only
    a table with a bad entry is checked again triangle by triangle, so the
    error names the first triangle that uses one (and an entry no triangle
    uses rejects nothing).  A matrix that passes has tr > 0 and det > 0, so
    1 + tr(sigma) + det(sigma), which the dilatation transform divides by,
    is positive too.
    """
    try:
        _checked_constants(sigma.table)
    except NonEllipticError:
        _checked_constants(sigma.matrices)


def _element_matrices(grads: np.ndarray, mats: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """(t, 3, 3) element stiffness blocks A_e * grad_i . sigma_e grad_j of a run of t triangles.

    Entry (i, j) is A_e * ((((g_i0 s_00) g_j0 + (g_i0 s_01) g_j1) + (g_i1 s_10) g_j0) + (g_i1 s_11) g_j1),
    evaluated elementwise in that order, so a run of triangles gets the bits
    of the whole mesh's blocks.
    """
    gi, gj, s = grads[:, :, None, :], grads[:, None, :, :], mats[:, None, None]
    blocks = (gi[..., 0] * s[..., 0, 0]) * gj[..., 0]
    blocks += (gi[..., 0] * s[..., 0, 1]) * gj[..., 1]
    blocks += (gi[..., 1] * s[..., 1, 0]) * gj[..., 0]
    blocks += (gi[..., 1] * s[..., 1, 1]) * gj[..., 1]
    blocks *= areas[:, None, None]
    return blocks


def _block_pattern(pos: np.ndarray, nf: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSC pattern of the free block, and the place of every element entry in its data.

    ``pos`` (nt, 3) holds the free position of each triangle vertex's dof,
    negative for a fixed dof; a triangle's three dofs are distinct (``TriMesh``
    rejects any other).  Column c of the block holds c and every free
    dof that shares a triangle edge with it, rows ascending; ``indices`` and
    ``indptr`` are int32.  ``scatter`` (nt, 3, 3) int32 gives the data index
    of entry (t, a, b), at row ``pos[t, a]`` and column ``pos[t, b]``, or -1
    where either dof is fixed.  The edges are found by one sort of the
    3 nt local edge keys; nothing of size 9 nt is built.
    """
    nt = len(pos)
    nxt = np.roll(pos, -1, axis=1)  # local edge a joins local vertices a and a + 1 (mod 3)
    lo, hi = np.minimum(pos, nxt), np.maximum(pos, nxt)
    keys = lo.astype(np.int64) * nf + hi
    keys[lo < 0] = -1  # a fixed end: no entry in the block
    del nxt, lo, hi
    order = np.argsort(keys, axis=None)
    keys = keys.ravel()[order]
    new = np.empty(len(keys), dtype=bool)  # the first local edge of each free edge, in key order
    new[:1] = keys[:1] >= 0
    np.greater(keys[1:], keys[:-1], out=new[1:])
    edges = keys[new]
    edge = np.empty(3 * nt, dtype=np.int32)  # each local edge's free edge, -1 for none
    edge[order] = np.cumsum(new, dtype=np.int32) - 1
    edge = edge.reshape(nt, 3)
    del keys, order, new
    # column-major keys (column * nf + row): edge (lo, hi) gives the entries (hi, lo) and (lo, hi)
    lo, hi = np.divmod(edges, nf)
    upper = hi * nf + lo
    del lo, hi
    diagonal = np.arange(nf, dtype=np.int64) * (nf + 1)
    column_keys = np.concatenate([edges, upper, diagonal])
    column_keys.sort()

    def places(keys: np.ndarray) -> np.ndarray:
        """int32 data index of each key, then a -1 for index -1 to read."""
        out = np.empty(len(keys) + 1, dtype=np.int32)
        out[:-1], out[-1] = np.searchsorted(column_keys, keys), -1
        return out

    lower = places(edges)
    del edges
    upper, diagonal = places(upper), places(diagonal)
    indptr = np.searchsorted(column_keys, np.arange(nf + 1, dtype=np.int64) * nf).astype(np.int32)
    indices = np.empty(len(column_keys), dtype=np.int32)
    np.remainder(column_keys, nf, out=indices, casting="unsafe")
    del column_keys
    scatter = np.empty((nt, 3, 3), dtype=np.int32)
    for a in range(3):
        b = (a + 1) % 3
        e, above = edge[:, a], pos[:, a] < pos[:, b]  # above: row a's dof before column b's
        scatter[:, a, b] = np.where(above, upper[e], lower[e])
        scatter[:, b, a] = np.where(above, lower[e], upper[e])
        scatter[:, a, a] = diagonal[np.maximum(pos[:, a], -1)]  # a fixed dof reads the last -1
    return scatter, indices, indptr


def _free_block(mesh: TriMesh, table: np.ndarray, index: np.ndarray, free: np.ndarray,
                fixed: np.ndarray | list[int], values: np.ndarray,
                load: np.ndarray | None = None) -> tuple[sp.csc_matrix, np.ndarray]:
    """The free block ``A[free][:, free]`` as one CSC matrix, and the free rows of the right-hand side.

    ``A`` is the stiffness matrix on the dofs (quotient map applied on the
    torus), with triangle t's coefficient ``table[index[t]]``
    (``ElementMatrixField``).  It is never built: the block comes straight
    from the element blocks (``_element_matrices``), in the order of
    ``free``, with int32 indices.  Each entry is the sum of its element
    contributions in triangle index order, then local row, then local
    column, as ``np.bincount`` over the element entries in that order would
    give it.
    The (k, len(free)) right-hand side is
    ``load[:, free] - (A[free, fixed] @ values).T`` for ``values`` (m, k)
    of the dofs ``fixed``, where each coupling row is summed over its
    element entries (the entry times its fixed value) in the same order,
    starting from zero, before ``load`` (None for none) is added.  The
    element blocks, and the coefficient matrices they read, are gathered
    ``_BLOCK_STEP`` triangles at a time, so the build's transient is its
    index arrays: about 60 bytes per triangle beyond the block and the
    right-hand side.
    """
    nf = len(free)
    where = np.empty(mesh.n_free, dtype=np.int32)  # free position, or -1 - (row of ``values``)
    where[free] = np.arange(nf, dtype=np.int32)
    where[fixed] = -1 - np.arange(len(fixed), dtype=np.int32)
    pos = where[mesh.vertex_dofs()]
    del where
    scatter, indices, indptr = _block_pattern(pos, nf)
    grads, areas = mesh.hat_gradients, mesh.areas
    # the couplings of free rows to fixed columns sit on the triangles with a fixed vertex
    touch = np.flatnonzero((pos < 0).any(axis=1))
    near = pos[touch]
    del pos
    coupled = (near[:, :, None] >= 0) & (near[:, None, :] < 0)
    rows = np.broadcast_to(near[:, :, None], coupled.shape)[coupled]
    cols = -1 - np.broadcast_to(near[:, None, :], coupled.shape)[coupled]
    couplings = _element_matrices(grads[touch], np.take(table, index[touch], axis=0), areas[touch])[coupled]
    rhs = np.zeros((values.shape[1], nf))
    for row, g in zip(rhs, values.T):
        np.subtract.at(row, rows, couplings * g[cols])
    del touch, near, coupled, rows, cols, couplings
    if load is not None:
        rhs += load[:, free]
    # entries with a fixed dof land in a last, spare slot, which the block leaves out
    data = np.zeros(len(indices) + 1)
    for start in range(0, len(scatter), _BLOCK_STEP):
        t = slice(start, start + _BLOCK_STEP)
        mats = np.take(table, index[t], axis=0)
        np.add.at(data, scatter[t].ravel(), _element_matrices(grads[t], mats, areas[t]).ravel())
    return sp.csc_matrix((data[:-1], indices, indptr), shape=(nf, nf)), rhs


def _solve_system(matrix: sp.csc_matrix, rhs: np.ndarray, ordering: str = LU_ORDERING) -> tuple[np.ndarray, dict]:
    """Solve for a (k, n) block of right-hand sides, one per row, with one LU factorization.

    Returns the (k, n) solutions and the stats.  SuperLU factors the matrix
    in float32 and each row is refined to float64 (``_lu_solve``).  If the
    float32 cast overflows, the float32 factorization fails or a row misses
    the residual gate, the matrix is factored in float64 instead, the one
    other path, with the same ``ordering``: ``LU_ORDERING``, or
    ``NESTED_DISSECTION`` for a matrix already in that order, which SuperLU
    keeps.  Every row must meet the relative residual ``RESIDUAL_GATE``;
    the stats report the worst row, the factor fill (nonzeros of L and U),
    the column ordering, the panel size, the precision of the factors and
    the most refinement steps a row took.  A CSC matrix and a C-contiguous
    float64 block are used as they are: neither is copied.
    """
    matrix = matrix.tocsc()
    # canonical before its index arrays are shared with the float32 values (a no-op on assembled matrices)
    matrix.sum_duplicates()
    rhs = np.ascontiguousarray(rhs, dtype=float)
    try:
        x, stats = _lu_solve(matrix, rhs, np.float32, ordering)
    except SolverError as exc:
        x, reason = None, str(exc)
    if x is None:  # outside the handler, which would keep the float32 attempt's frames alive
        log.info("float32 LU rejected (%s); factoring in float64", reason)
        x, stats = _lu_solve(matrix, rhs, np.float64, ordering)
    return x, stats


def _lu_solve(matrix: sp.csc_matrix, rhs: np.ndarray, dtype: type, ordering: str) -> tuple[np.ndarray, dict]:
    """Factor ``matrix`` in ``dtype`` (float32 or float64) with ``ordering`` and solve each row of ``rhs``, through the residual gate.

    Float64 factors solve each row once.  Float32 factors take half the
    memory; each row is then refined in float64 (``_refine``), as in
    LAPACK's DSGESV.  The float32 matrix is only a float32 copy of the
    values: it shares the float64 matrix's ``indices`` and ``indptr``, and
    it is released once it is factored.  Raises ``SolverError`` if the cast
    overflows, SuperLU fails or a row misses the gate.
    """
    factored = matrix
    if dtype is np.float32:
        with np.errstate(over="ignore"):
            data = matrix.data.astype(np.float32)
        if not np.isfinite(data).all():
            raise SolverError("matrix entries overflow float32")
        factored = sp.csc_matrix((data, matrix.indices, matrix.indptr), shape=matrix.shape)
        del data
    try:
        permc_spec = "NATURAL" if ordering == NESTED_DISSECTION else ordering
        _return_freed_heap()
        lu = spla.splu(factored, permc_spec=permc_spec, panel_size=LU_PANEL_SIZE)
        del factored
        x, residuals, steps = np.empty_like(rhs), [], 0
        for x_row, b in zip(x, rhs):
            if dtype is np.float32:
                x_row[:], step, residual = _refine(lu, matrix, b)
                steps = max(steps, step)
            else:
                x_row[:] = lu.solve(b)
                residual = np.linalg.norm(matrix @ x_row - b)
            residuals.append(residual)
    except RuntimeError as exc:
        raise SolverError(f"sparse LU factorization failed: {exc}") from exc
    # SuperLU.nnz counts the factors in place; reading .L or .U would copy them.
    fill = int(lu.nnz)
    del lu
    stats = _checked_stats(residuals, [np.linalg.norm(b) for b in rhs], n=matrix.shape[0],
                           nnz=matrix.nnz, method="direct_lu", fill=fill, ordering=ordering,
                           panel_size=LU_PANEL_SIZE, precision=np.dtype(dtype).name,
                           refinement_steps=steps)
    return x, stats


def _find_malloc_trim() -> Callable[[int], int] | None:
    """glibc's ``malloc_trim``, or None where the C library has no such symbol."""
    try:
        return getattr(ctypes.CDLL(None), "malloc_trim", None)
    except (OSError, TypeError):  # no C library to open by the null name (Windows)
        return None


_MALLOC_TRIM = _find_malloc_trim()


def _return_freed_heap() -> None:
    """Hand the heap pages freed so far back to the OS, so the factors do not sit on top of them.

    glibc keeps freed memory resident; ``malloc_trim(0)`` returns it (about
    0.06 ms a call).  A no-op where the C library has no ``malloc_trim``.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def _refine(lu: spla.SuperLU, matrix: sp.csc_matrix, b: np.ndarray) -> tuple[np.ndarray, int, float]:
    """Float64 solution of ``matrix @ x = b`` from float32 factors, its refinement steps and its residual norm.

    Starting from x = 0, each step adds ``lu.solve`` of the float32-cast
    float64 residual.  A step is kept if it lowers the residual norm, and
    the refinement stops once a step fails to halve it, or after
    ``MAX_REFINEMENT_STEPS`` steps beyond the first solve.  The count
    returned is the number of steps taken beyond the first solve, and the
    norm is that of ``b - matrix @ x`` for the x returned, as the step
    computed it (``norm(b)`` for x = 0).
    """
    x, x_norm = np.zeros_like(b), np.linalg.norm(b)
    r, r_norm = b, x_norm
    for step in range(MAX_REFINEMENT_STEPS + 1):
        x_new = x + lu.solve(r.astype(np.float32))
        r_new = b - matrix @ x_new
        new_norm = np.linalg.norm(r_new)
        if new_norm < r_norm:
            x, x_norm = x_new, new_norm
        if not new_norm < 0.5 * r_norm:
            break
        r, r_norm = r_new, new_norm
    return x, step, x_norm


def _checked_stats(residuals: list[float], rhs_norms: list[float], **stats) -> dict:
    """Residual gate and solve stats shared by the sparse and the lattice transform solves.

    ``residuals`` and ``rhs_norms`` hold, per solved row, the norms of its
    residual and of its right-hand side.  Every row must meet the relative
    residual ``RESIDUAL_GATE`` (a NaN residual fails too); the stats report
    the worst row and are logged as one parseable ``linear solve:`` line.
    """
    residual = rel = 0.0
    for col_residual, rhs_norm in zip(residuals, rhs_norms, strict=True):
        col_residual, rhs_norm = float(col_residual), float(rhs_norm)
        col_rel = col_residual / rhs_norm if rhs_norm > 0 else col_residual
        if not col_rel <= RESIDUAL_GATE:
            raise SolverError(f"relative residual {col_rel:.3e} above the gate {RESIDUAL_GATE:g}")
        residual, rel = max(residual, col_residual), max(rel, col_rel)
    stats = {**stats, "nrhs": len(residuals), "residual": residual, "relative_residual": rel}
    log.info(
        "linear solve: n=%d nnz=%d nrhs=%d method=%s fill=%s ordering=%s panel=%s precision=%s "
        "refinement_steps=%s residual=%.3e",
        stats["n"], stats["nnz"], stats["nrhs"], stats["method"], stats["fill"],
        stats["ordering"], stats["panel_size"], stats["precision"], stats["refinement_steps"], residual,
    )
    return stats


def solve_dirichlet(sigma: ElementMatrixField, values: np.ndarray) -> list[ScalarFieldP1]:
    """Discrete weak solutions with Dirichlet data at the boundary vertices, one per column of ``values``.

    ``values`` is an (m, k) array: column j holds the data of solution j at
    the m vertices of the boundary loop, in its order.  The k solutions share
    one operator, assembled and factored once, and come back as a list.
    Data of any other shape (k = 0 included), or non-finite data, raises
    ``ValueError`` before anything is assembled.
    """
    mesh = sigma.mesh
    if mesh.periodic:
        raise ValueError("Dirichlet solve needs a mesh with boundary; got a periodic cell")
    values = np.asarray(values, dtype=float)
    m = len(mesh.boundary_loop)
    if values.ndim != 2 or values.shape[0] != m or values.shape[1] == 0:
        raise ValueError(f"boundary data must be an ({m}, k) array with k >= 1, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("boundary data contains non-finite values")
    validate_coefficient(sigma)
    u = _solve_fixed(mesh, sigma.table, sigma.index, None, mesh.boundary_loop, values)
    return [ScalarFieldP1(mesh, v) for v in u]


def interior_residual(sigma: ElementMatrixField, values: np.ndarray) -> np.ndarray:
    """Assembled weak residual at every interior vertex (flux conservation check), one column per field.

    ``values`` is an (n_vertices, k) array of nodal values, and the result
    the (n_interior, k) residuals, rows in ascending interior vertex order,
    from one assembly; each column is bit-equal to that column's residual
    alone.  Values of any other shape (k = 0 included) raise ``ValueError``.
    """
    mesh = sigma.mesh
    if mesh.periodic:
        raise ValueError("interior residual needs a mesh with boundary; got a periodic cell")
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != mesh.n_vertices or values.shape[1] == 0:
        raise ValueError(f"nodal values must be an ({mesh.n_vertices}, k) array with k >= 1, "
                         f"got shape {values.shape}")
    interior, boundary = np.flatnonzero(~mesh.boundary_mask), np.flatnonzero(mesh.boundary_mask)
    block, coupling = _free_block(mesh, sigma.table, sigma.index, interior, boundary, values[boundary])
    # A[interior] @ u = A[interior][:, interior] @ u[interior] + A[interior][:, boundary] @ u[boundary]
    return block @ values[interior] - coupling.T


def _load_vector(mesh: TriMesh, element_loads: Iterable[np.ndarray], k: int) -> np.ndarray:
    """(k, n_free) C-contiguous load vectors, one row per (nt, 3) array of per-vertex element loads.

    Each row is one ``np.bincount`` over the element dofs in triangle order,
    the order in which ``np.add.at`` accumulates, so the sums are the same
    bit for bit.  ``element_loads`` may be a generator: only one element
    load is alive at a time.
    """
    dofs = mesh.vertex_dofs().ravel()
    rhs = np.empty((k, mesh.n_free))
    for row, load in zip(rhs, element_loads, strict=True):
        row[:] = np.bincount(dofs, weights=load.ravel(), minlength=mesh.n_free)
    return rhs


def _free_dofs(mesh: TriMesh, fixed: np.ndarray | list[int]) -> tuple[np.ndarray, str]:
    """The dofs not in ``fixed``, in the order their block is factored, and that ordering's name.

    The Dirichlet block of an exact unit-square lattice (``lattice_resolution``
    passes, no periodic identification, the boundary fixed) comes in
    ``interior_dissection_order``, named ``NESTED_DISSECTION``; every other
    block keeps its dofs ascending and is ordered by SuperLU's
    ``LU_ORDERING``.
    """
    n = None if mesh.periodic else lattice_resolution(mesh)
    if n is not None and np.array_equal(np.sort(fixed), np.flatnonzero(mesh.boundary_mask)):
        return interior_dissection_order(n), NESTED_DISSECTION
    free = np.ones(mesh.n_free, dtype=bool)
    free[fixed] = False
    return np.flatnonzero(free), LU_ORDERING


def _solve_fixed(mesh: TriMesh, table: np.ndarray, index: np.ndarray, load: np.ndarray | None,
                 fixed: np.ndarray | list[int], values: np.ndarray) -> np.ndarray:
    """Solve with the dofs ``fixed`` held at ``values`` (m, k); returns (k, n_free), a row per column.

    With ``free`` the free dofs in their factoring order (``_free_dofs``), the
    free rows get ``load[:, free] - (A[free, fixed] @ values).T`` (``load``
    is None or (k, n_free)) and the free block ``A[free][:, free]`` is
    factored.  This imposes Dirichlet data (boundary loop at g) and the
    constant of a cell or Neumann problem (dof 0 at 0) alike: that singular
    system is consistent, with the constants in both kernels, so deleting
    dof 0's row and column leaves a nonsingular matrix whose solution solves
    every original equation, row 0 included.  ``_free_block`` builds both
    from the element blocks, triangle t's coefficient being
    ``table[index[t]]``.  Through the factorization the solve keeps alive
    the free block, as one CSC matrix, one (k, n_free - m) right-hand-side
    block and the coefficient's table and index (b matrices and nt small
    integers; no per-triangle matrix array is made but a ``_BLOCK_STEP``
    run at a time), provided the caller keeps no reference to ``load``
    (pass it inline); the free-dof index is built again to scatter the
    solution.
    """
    free, ordering = _free_dofs(mesh, fixed)
    matrix, rhs = _free_block(mesh, table, index, free, fixed, values, load)
    del load, free
    # nothing reads the areas and hat gradients until the solve returns
    mesh.release_geometry()
    x, _ = _solve_system(matrix, rhs, ordering)
    del matrix, rhs
    free, _ = _free_dofs(mesh, fixed)
    u = np.empty((len(x), mesh.n_free))
    u[:, fixed] = values.T
    u[:, free] = x
    return u


def _dct1(x: np.ndarray, axis: int) -> np.ndarray:
    """Unnormalised DCT-I along ``axis``: the real FFT of the even extension."""
    x = np.moveaxis(x, axis, -1)
    even = np.concatenate([x, x[..., -2:0:-1]], axis=-1)
    return np.moveaxis(np.fft.rfft(even, axis=-1).real, -1, axis)


def _lattice_laplacian(x: np.ndarray, periodic: bool) -> np.ndarray:
    """Identity-coefficient P1 Laplacian of the lattice applied to nodal values x[j, i].

    On the torus it is the circulant 5-point stencil.  On the square it is
    W (x) K + K (x) W, with K the Neumann second difference and W the
    half-weight-end diagonal: -1 couplings inside, -1/2 along boundary edges.
    """
    if periodic:
        return (4.0 * x - np.roll(x, 1, axis=0) - np.roll(x, -1, axis=0)
                - np.roll(x, 1, axis=1) - np.roll(x, -1, axis=1))
    w = _end_weights(len(x) - 1)
    kx, ky = np.zeros_like(x), np.zeros_like(x)
    dx, dy = np.diff(x, axis=1), np.diff(x, axis=0)
    kx[:, 1:] += dx
    kx[:, :-1] -= dx
    ky[1:] += dy
    ky[:-1] -= dy
    return w[:, None] * kx + ky * w[None, :]


def _end_weights(n: int) -> np.ndarray:
    """(n+1,) trapezoid weights: 1/2 at both ends, 1 inside."""
    w = np.ones(n + 1)
    w[[0, -1]] = 0.5
    return w


def _solve_lattice(rhs: np.ndarray, n: int, periodic: bool) -> tuple[np.ndarray, dict]:
    """Solve the singular lattice Laplacian system for a (k, n_free) block of rows by a fast transform.

    The square's Neumann matrix is diagonalised by DCT-I, the torus's
    circulant by the 2-D FFT, with eigenvalues lam_j + lam_i,
    lam = 2 - 2 cos(k pi / n) on the square and 2 - 2 cos(2 k pi / n) on the
    torus.  The constant mode (the kernel) is dropped, so the solution is
    fixed only up to the constant the caller anchors.  Each row is
    transformed on its own, so stacked and single solves are bit-equal.
    The residual gate of ``_solve_system``, ``RESIDUAL_GATE``, applies on
    the full singular system.  Returns the (k, n_free) solutions and the
    stats.
    """
    if periodic:
        lam = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)
        denom = lam[:, None] + lam[None, : n // 2 + 1]
        # at n = 2 the two neighbours along an axis are one vertex
        shape, method, nnz = (n, n), "fft2_torus", n * n * (1 + 2 * min(n - 1, 2))
    else:
        lam = 2.0 - 2.0 * np.cos(np.pi * np.arange(n + 1) / n)
        denom = (lam[:, None] + lam[None, :]) * (n * n)
        w = 2.0 * _end_weights(n)
        weights = np.outer(w, w)
        shape, method, nnz = (n + 1, n + 1), "dct1_neumann", (n + 1) ** 2 + 4 * n * (n + 1)
    denom[0, 0] = np.inf  # drop the constant mode
    xs = np.empty_like(rhs)
    for x_row, b in zip(xs, rhs):
        b = b.reshape(shape)
        if periodic:
            x = np.fft.irfft2(np.fft.rfft2(b) / denom, s=shape)
        else:
            hat = _dct1(_dct1(b / weights, 0), 1)
            x = _dct1(_dct1(hat / denom, 0), 1)
        x_row[:] = x.ravel()
    residuals = [np.linalg.norm(_lattice_laplacian(x.reshape(shape), periodic).ravel() - b)
                 for x, b in zip(xs, rhs)]
    stats = _checked_stats(residuals, [np.linalg.norm(b) for b in rhs], n=rhs.shape[1], nnz=nnz, method=method,
                           fill=None, ordering=None, panel_size=None, precision=None,
                           refinement_steps=None)
    return xs, stats


def solve_periodic_cell(sigma: ElementMatrixField, xis: np.ndarray) -> list[ScalarFieldP1]:
    """Cell solutions u = xi . x + w with w periodic and of zero mean over the cell, one per row of ``xis``.

    ``xis`` is a (k, 2) array of applied gradients; the k solutions share one
    operator, assembled and factored once, and come back as a list.  Each u
    lives on the unwrapped fundamental domain (identified vertices share the
    periodic part but keep their own affine part).  For constant
    coefficients the corrector w vanishes and u = xi . x exactly.  An array
    of any other shape (k = 0 included), or non-finite gradients, raise
    ``ValueError`` before anything is assembled.
    """
    mesh = sigma.mesh
    if not mesh.periodic:
        raise ValueError("cell solve needs a periodic mesh")
    xis = np.asarray(xis, dtype=float)
    if xis.ndim != 2 or xis.shape[1] != 2 or len(xis) == 0:
        raise ValueError(f"applied gradients must be a (k, 2) array with k >= 1, got shape {xis.shape}")
    if not np.all(np.isfinite(xis)):
        raise ValueError("applied gradients contain non-finite values")
    validate_coefficient(sigma)

    # rhs_i = - sum_e A_e grad(phi_i) . sigma_e xi; each load gathers its own matrices, so none outlives the build
    loads = (-np.einsum("tia,ta,t->ti", mesh.hat_gradients,
                        np.einsum("tab,b->ta", sigma.matrices, x), mesh.areas)
             for x in xis)
    w = _solve_fixed(mesh, sigma.table, sigma.index, _load_vector(mesh, loads, len(xis)), [0],
                     np.zeros((1, len(xis))))

    fields = []
    for x, w_free in zip(xis, w):
        # Shift the periodic part to zero mean over the cell.
        w_at_tri = w_free[mesh.vertex_dofs()]
        mean_w = float(integrate(mesh, w_at_tri.mean(axis=1)) / mesh.areas.sum())
        w_free = w_free - mean_w
        fields.append(ScalarFieldP1(mesh, mesh.vertices @ x + w_free[mesh.free_index]))
    return fields


def rotated_flux(sigma: ElementMatrixField, u: ScalarFieldP1) -> np.ndarray:
    """Per-element rotated flux: the exact gradient target of the stream function."""
    grad = element_gradient(u)
    flux = np.einsum("tab,tb->ta", sigma.matrices, grad)
    return flux @ ROT90.T


def mean_flux(sigma: ElementMatrixField, u: ScalarFieldP1) -> np.ndarray:
    """Cell average of sigma grad u."""
    grad = element_gradient(u)
    flux = np.einsum("tab,tb->ta", sigma.matrices, grad)
    return integrate(sigma.mesh, flux) / sigma.mesh.areas.sum()


def stream_function(sigma: ElementMatrixField, us: list[ScalarFieldP1]) -> list[tuple[ScalarFieldP1, float]]:
    """Least-squares potentials of the rotated fluxes of the fields ``us``, each anchored to zero at vertex 0.

    For each u, solves the discrete Neumann problem
    ``sum_e A_e grad(phi) . grad(utilde) = sum_e A_e grad(phi) . rot(sigma grad u)``
    over all P1 test functions; the global solve avoids the path-ordering
    error of line integration and is unique up to the anchored constant.
    On the torus the rotated mean flux is the gradient of a non-periodic
    linear part that is split off, solved around, and added back on the
    unwrapped cell.  ``us`` is a list of fields, and the result the list of
    their (field, residual) pairs, the residual being the L2 norm of the
    gradient mismatch (decreases under refinement; zero when the target is
    exact).  All come from one solve of the mesh Laplacian: a DCT-I (square)
    or FFT (torus) transform when ``lattice_resolution`` recognises the
    mesh, gated at ``RESIDUAL_GATE`` like the LU, else one factorization
    with dof 0 eliminated.  An empty list raises ``ValueError``.
    """
    if len(us) == 0:
        raise ValueError("stream function needs at least one field")
    mesh = sigma.mesh
    targets = [rotated_flux(sigma, f) for f in us]
    linears = [ROT90 @ mean_flux(sigma, f) if mesh.periodic else None for f in us]

    loads = (np.einsum("tia,ta,t->ti", mesh.hat_gradients,
                       target if linear is None else target - linear[None, :], mesh.areas)
             for target, linear in zip(targets, linears))
    n = lattice_resolution(mesh)
    if n is None:
        # the identity coefficient is a one-entry table; the load goes inline, so the solve releases it before the LU
        w = _solve_fixed(mesh, np.eye(2)[None], np.zeros(mesh.n_triangles, dtype=np.uint8),
                         _load_vector(mesh, loads, len(us)), [0], np.zeros((1, len(us))))
    else:
        w, _ = _solve_lattice(_load_vector(mesh, loads, len(us)), n, mesh.periodic)

    results = []
    for w_j, target, linear in zip(w, targets, linears):
        values = w_j[mesh.free_index]
        if linear is not None:
            values = values + mesh.vertices @ linear
        values = values - values[0]  # anchor at the lowest vertex index
        field = ScalarFieldP1(mesh, values)

        mismatch = element_gradient(field) - target
        residual = float(np.sqrt(integrate(mesh, np.einsum("ta,ta->t", mismatch, mismatch))))
        results.append((field, residual))
    return results
