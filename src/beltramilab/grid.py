"""Structured triangulations, nodal/element fields, and dyadic square families.

Meshes are immutable after construction.  Coefficients are piecewise
constant per triangle (sampled at barycenters); scalar unknowns are
continuous piecewise-linear (P1) nodal fields.  On the periodic unit cell
opposite boundary vertices are identified through a quotient map rather
than constraint equations, which keeps linear systems square.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MeshBudgetError

TRIANGLE_BUDGET = 2_000_000

# Rotation by +pi/2, used for flux rotation throughout the package.
ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


@dataclass
class TriMesh:
    """Triangulation of a convex polygon or of the periodic unit square.

    ``free_index`` maps every vertex to its degree-of-freedom index; on a
    periodic mesh identified copies share one index, otherwise it is the
    identity.  It must use every dof 0..n_free-1, so ``n_free`` is read from
    it, and so is ``periodic``: whether it identifies any vertices.  No
    identification may put two vertices of one triangle on one dof.
    ``boundary_loop`` is the counterclockwise geometric boundary of the
    (fundamental) domain; on the torus it is kept for unwrapped geometry but
    carries no topological boundary meaning.
    """

    vertices: np.ndarray      # (nv, 2)
    triangles: np.ndarray     # (nt, 3), counterclockwise
    boundary_loop: np.ndarray  # ordered vertex indices
    free_index: np.ndarray | None = None
    # Caches of the arrays above, never passed in: ``dataclasses.replace``
    # builds a new mesh, which computes its own.
    _geom: dict | None = field(default=None, init=False, repr=False, compare=False)
    _lattice: tuple[int | None] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        finite = np.isfinite(self.vertices).all(axis=-1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(f"vertex {bad} has a non-finite coordinate {self.vertices[bad].tolist()}")
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        self.boundary_loop = np.asarray(self.boundary_loop, dtype=np.int64)
        if self.free_index is None:
            self.free_index = np.arange(len(self.vertices), dtype=np.int64)
        free = self.free_index = np.asarray(self.free_index, dtype=np.int64)
        if free.shape != (len(self.vertices),) or free.min(initial=0) < 0 or not np.bincount(free).all():
            raise ValueError(f"free_index must give each of the {len(self.vertices)} vertices a dof "
                             f"in 0..n_free-1 and use every dof")
        if self.periodic:  # without identification, distinct vertices are distinct dofs
            dofs = self.vertex_dofs()
            collapsed = (dofs[:, 0] == dofs[:, 1]) | (dofs[:, 1] == dofs[:, 2]) | (dofs[:, 2] == dofs[:, 0])
            if collapsed.any():
                bad = int(np.argmax(collapsed))
                raise ValueError(f"triangle {bad} has two vertices on one dof ({dofs[bad].tolist()})")
        areas = self.areas
        if not np.all(areas > 0.0):  # a NaN area fails too, and argmin finds the first NaN
            bad = int(np.argmin(areas))
            raise ValueError(f"triangle {bad} has non-positive signed area {areas[bad]:.3e}")

    # -- geometry cache ----------------------------------------------------

    def _geometry(self) -> dict:
        if self._geom is None:
            tri = self.triangles
            p0 = self.vertices[tri[:, 0]]
            p1 = self.vertices[tri[:, 1]]
            p2 = self.vertices[tri[:, 2]]
            e1 = p1 - p0
            e2 = p2 - p0
            areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
            # Hat-function gradients: grad lambda_i = perp(edge opposite i) / (2A).
            grads = np.empty((len(tri), 3, 2))
            pts = (p0, p1, p2)
            for i in range(3):
                pj = pts[(i + 1) % 3]
                pk = pts[(i + 2) % 3]
                grads[:, i, 0] = pj[:, 1] - pk[:, 1]
                grads[:, i, 1] = pk[:, 0] - pj[:, 0]
            grads /= (2.0 * areas)[:, None, None]
            self._geom = {"areas": areas, "grads": grads}
        return self._geom

    def release_geometry(self) -> None:
        """Drop the cached areas and hat gradients; the next read of either rebuilds both, bit for bit."""
        self._geom = None

    @property
    def areas(self) -> np.ndarray:
        return self._geometry()["areas"]

    @property
    def hat_gradients(self) -> np.ndarray:
        """(nt, 3, 2) gradients of the three nodal hat functions per triangle."""
        return self._geometry()["grads"]

    @property
    def barycenters(self) -> np.ndarray:
        """(nt, 2) triangle barycenters, computed on each read: no solver reads them, so the mesh keeps none."""
        tri, p = self.triangles, self.vertices
        return (p[tri[:, 0]] + p[tri[:, 1]] + p[tri[:, 2]]) / 3.0

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_free(self) -> int:
        return int(self.free_index.max(initial=-1)) + 1

    @property
    def periodic(self) -> bool:
        return self.n_free < self.n_vertices

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_vertices, dtype=bool)
        if not self.periodic:
            mask[self.boundary_loop] = True
        return mask

    def vertex_dofs(self) -> np.ndarray:
        """(nt, 3) dof index of each triangle vertex (quotient map applied)."""
        return self.free_index[self.triangles]


@dataclass
class ScalarFieldP1:
    """Continuous piecewise-linear scalar field given by nodal values."""

    mesh: TriMesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_vertices,):
            raise ValueError(
                f"expected {self.mesh.n_vertices} nodal values, got {self.values.shape}"
            )


@dataclass
class ElementMatrixField:
    """Per-triangle constant 2x2 matrix field (a measurable coefficient), as a table of its distinct matrices.

    ``table`` (b, 2, 2) holds the matrices and ``index`` (nt,) the entry of
    each triangle, kept in the smallest unsigned dtype that holds b - 1: a
    piecewise-constant coefficient of b blocks costs b matrices and nt small
    integers, not nt matrices.  A table of any other shape, or an index that
    is not nt integers in 0..b-1, raises ``ValueError``.  ``matrices``
    gathers the (nt, 2, 2) stack on each read, read-only; the solvers gather
    a few thousand triangles at a time instead, so keep no gathered stack
    alive across a solve.
    """

    mesh: TriMesh
    table: np.ndarray
    index: np.ndarray

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=float)
        nt = self.mesh.n_triangles
        if self.table.ndim != 3 or self.table.shape[1:] != (2, 2) or not len(self.table):
            raise ValueError(f"expected a (b, 2, 2) table with b >= 1, got shape {self.table.shape}")
        index = np.asarray(self.index)
        b = len(self.table)
        if (index.shape != (nt,) or index.dtype.kind not in "iu"
                or index.min(initial=0) < 0 or index.max(initial=0) >= b):
            raise ValueError(f"index must give each of the {nt} triangles an entry in 0..{b - 1}")
        self.index = index.astype(np.min_scalar_type(b - 1), copy=False)

    @property
    def matrices(self) -> np.ndarray:
        """(nt, 2, 2) matrix of each triangle, gathered from the table on each read; read-only."""
        mats = np.take(self.table, self.index, axis=0)  # about a tenth of the time of table[index]
        mats.flags.writeable = False
        return mats


def element_gradient(f: ScalarFieldP1) -> np.ndarray:
    """Exact per-triangle gradient of the piecewise-linear interpolant, (nt, 2)."""
    vals = f.values[f.mesh.triangles]  # (nt, 3)
    return np.einsum("ti,tid->td", vals, f.mesh.hat_gradients)


def integrate(mesh: TriMesh, values: np.ndarray, elements=None) -> np.ndarray | float:
    """Sum of ``area_t * values[t]`` over the triangles t, or over ``elements`` (indices or a mask).

    ``values`` is per triangle along its first axis; trailing axes are kept.
    ``np.einsum`` sums in numpy's own fixed order and calls no BLAS, so the
    result does not depend on the BLAS thread count, as a long ``np.dot`` does.
    """
    areas, values = mesh.areas, np.asarray(values)
    if elements is not None:
        areas, values = areas[elements], values[elements]
    return np.einsum("t,t...->...", areas, values)


# ---------------------------------------------------------------------------
# Mesh builders
# ---------------------------------------------------------------------------


def _square_lattice(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    n = resolution
    xs = np.arange(n + 1) / n
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    # Square (i, j), row by row, splits along its "/" diagonal into two triangles.
    j, i = divmod(np.arange(n * n, dtype=np.int64), n)
    v00 = j * (n + 1) + i
    v10, v01 = v00 + 1, v00 + n + 1
    v11 = v01 + 1
    tris = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    return vertices, tris


def _square_boundary_loop(resolution: int) -> np.ndarray:
    n = resolution
    k = np.arange(n, dtype=np.int64)
    # bottom, right, top and left sides, counterclockwise from the origin
    loop = [k, k * (n + 1) + n, n * (n + 1) + n - k, (n - k) * (n + 1)]
    return np.concatenate(loop)


def _torus_free_index(resolution: int) -> np.ndarray:
    """Dof of lattice vertex (i, j) on the torus: (j % n) * n + (i % n)."""
    n = resolution
    j, i = divmod(np.arange((n + 1) ** 2, dtype=np.int64), n + 1)
    return (j % n) * n + (i % n)


def lattice_resolution(mesh: TriMesh) -> int | None:
    """Resolution n if ``mesh`` is exactly ``build_unit_square(n)`` or ``build_periodic_cell(n)``.

    The one lattice test of the package, decided from the arrays: the
    vertices and triangles must equal ``_square_lattice(n)``, so vertex i
    sits at lattice point (i % (n+1), i // (n+1)), and the dof map must be
    the identity on the square and ``_torus_free_index(n)`` on the torus.
    Any other mesh, a permuted lattice included, gives None.  The answer is
    kept on the mesh, so each mesh is tested once.
    """
    if mesh._lattice is None:
        mesh._lattice = (_lattice_test(mesh),)
    return mesh._lattice[0]


def _lattice_test(mesh: TriMesh) -> int | None:
    n = round((mesh.n_triangles / 2) ** 0.5)
    if n < 1 or 2 * n * n != mesh.n_triangles or mesh.n_vertices != (n + 1) ** 2:
        return None
    vertices, tris = _square_lattice(n)
    if not (np.array_equal(mesh.vertices, vertices) and np.array_equal(mesh.triangles, tris)):
        return None
    free = _torus_free_index(n) if mesh.periodic else np.arange(mesh.n_vertices)
    return n if np.array_equal(mesh.free_index, free) else None


def interior_dissection_order(n: int) -> np.ndarray:
    """Interior vertices of the res-n square lattice in geometric nested-dissection order.

    A box of interior lattice points is bisected at its middle grid line
    across its longer side (a vertical line when it is at least as wide as
    tall), and its points are ordered as the left (lower) box, the right
    (upper) box, then the separating line, bottom to top (left to right).
    One line separates the halves: the "/" lattice couples (i, j) only to
    (i +- 1, j), (i, j +- 1) and (i +- 1, j +- 1).  George (1973), "Nested
    dissection of a regular finite element mesh", SIAM J. Numer. Anal. 10.
    Each level of boxes is one vectorized pass: a box's points fill a known
    slice of the order, with its separator at the slice's end.
    """
    order = np.empty((n - 1) ** 2, dtype=np.int64)
    # per box: lower-left interior point (i0, j0), width, height and first slot in ``order``
    i0, j0 = np.ones(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    width, height = np.full(1, n - 1, dtype=np.int64), np.full(1, n - 1, dtype=np.int64)
    start = np.zeros(1, dtype=np.int64)
    while True:
        keep = (width > 0) & (height > 0)
        i0, j0, width, height, start = i0[keep], j0[keep], width[keep], height[keep], start[keep]
        if not len(start):
            return order
        vertical = width >= height
        across = np.where(vertical, height, width)  # the separator's length
        cut = np.where(vertical, width, height) // 2  # its offset from the box's left (lower) side
        # point t of each separator goes to the last ``across`` slots of its box
        box = np.repeat(np.arange(len(start)), across)
        t = np.arange(len(box)) - np.repeat(np.cumsum(across) - across, across)
        v = vertical[box]
        i = i0[box] + np.where(v, cut[box], t)
        j = j0[box] + np.where(v, t, cut[box])
        order[start[box] + (width * height - across)[box] + t] = j * (n + 1) + i
        # the two halves: the first keeps the box's origin, the second starts past the separator
        first_w, first_h = np.where(vertical, cut, width), np.where(vertical, height, cut)
        i0 = np.concatenate([i0, i0 + vertical * (cut + 1)])
        j0 = np.concatenate([j0, j0 + ~vertical * (cut + 1)])
        width = np.concatenate([first_w, np.where(vertical, width - cut - 1, width)])
        height = np.concatenate([first_h, np.where(vertical, height, height - cut - 1)])
        start = np.concatenate([start, start + first_w * first_h])


def build_unit_square(resolution: int) -> TriMesh:
    """Structured triangulation of [0,1]^2 with 2*resolution^2 triangles."""
    _check_resolution(resolution, 2 * resolution * resolution)
    vertices, tris = _square_lattice(resolution)
    return TriMesh(
        vertices=vertices,
        triangles=tris,
        boundary_loop=_square_boundary_loop(resolution),
    )


def build_periodic_cell(resolution: int) -> TriMesh:
    """Unit cell with opposite-edge vertices identified; resolution^2 free vertices."""
    _check_resolution(resolution, 2 * resolution * resolution)
    vertices, tris = _square_lattice(resolution)
    return TriMesh(
        vertices=vertices,
        triangles=tris,
        boundary_loop=_square_boundary_loop(resolution),
        free_index=_torus_free_index(resolution),
    )


def build_regular_ngon(n_sides: int, radius: float, resolution: int) -> TriMesh:
    """Fan-and-ring triangulation of a regular polygon.

    Ring k (k = 1..resolution) carries ``n_sides * k`` vertices placed on
    the polygon boundary scaled by k/resolution, so the outermost ring is
    the polygon itself subdivided ``resolution`` times per side.
    """
    if n_sides < 3:
        raise ValueError(f"polygon needs at least 3 sides, got {n_sides}")
    if not 0 < radius < math.inf:  # NaN fails too
        raise ValueError(f"radius must be positive and finite, got {radius}")
    _check_resolution(resolution, n_sides * resolution * resolution)
    corners = np.array(
        [
            [radius * math.cos(2 * math.pi * s / n_sides), radius * math.sin(2 * math.pi * s / n_sides)]
            for s in range(n_sides)
        ]
    )
    rings = np.arange(resolution + 1, dtype=np.int64)
    # first vertex of each ring; ring 0 is the center, vertex 0
    ring_start = np.where(rings == 0, 0, 1 + n_sides * (rings * (rings - 1) // 2))

    def ring_vertex(k: np.ndarray, s: np.ndarray, i: np.ndarray) -> np.ndarray:
        """Vertex i of side s of ring k (i = k is vertex 0 of side s + 1); ring 0 is the center."""
        return np.where(k == 0, 0, ring_start[k] + (s * k + i) % np.maximum(n_sides * k, 1))

    # vertex j of side s of ring k sits at (k / resolution) * ((1 - t) c_s + t c_{s+1}), t = j / k
    k = np.repeat(rings[1:], n_sides * rings[1:])
    s, j = divmod(np.arange(1, len(k) + 1) - ring_start[k], k)
    t = (j / k)[:, None]
    ring_points = (k / resolution)[:, None] * ((1.0 - t) * corners[s] + t * corners[(s + 1) % n_sides])
    vertices = np.concatenate([np.zeros((1, 2)), ring_points])

    # between rings k and k + 1, side s holds k + 1 triangles (outer m, outer m+1, inner m) and then
    # k triangles (outer m+1, inner m+1, inner m), m counted along the side on each ring
    k = np.repeat(rings[:-1], n_sides * (2 * rings[:-1] + 1))
    s, q = divmod(np.arange(len(k)) - n_sides * k * k, 2 * k + 1)
    down = q > k
    m = q - down * (k + 1)
    tris = np.column_stack([ring_vertex(k + 1, s, m + down), ring_vertex(k + 1 - down, s, m + 1), ring_vertex(k, s, m)])
    loop = np.arange(ring_start[resolution], ring_start[resolution] + n_sides * resolution)
    return TriMesh(vertices=vertices, triangles=tris, boundary_loop=loop)


def build_mesh(domain, resolution: int) -> TriMesh:
    """Dispatch on a domain spec: 'unit_square', 'periodic_cell', or ('regular_ngon', n, radius)."""
    if domain == "unit_square":
        return build_unit_square(resolution)
    if domain == "periodic_cell":
        return build_periodic_cell(resolution)
    if isinstance(domain, (tuple, list)) and domain and domain[0] == "regular_ngon":
        _, n_sides, radius = domain
        return build_regular_ngon(int(n_sides), float(radius), resolution)
    raise ValueError(f"unknown domain spec {domain!r}")


def _check_resolution(resolution: int, n_triangles: int):
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    if n_triangles > TRIANGLE_BUDGET:
        raise MeshBudgetError(
            f"{n_triangles} triangles exceed the budget of {TRIANGLE_BUDGET}"
        )


# ---------------------------------------------------------------------------
# Dyadic squares
# ---------------------------------------------------------------------------

MIN_ELEMENTS_PER_SQUARE = 8


@dataclass
class DyadicSquareSet:
    """The dyadic squares of levels 0..max_level over a mesh, as per-square arrays.

    Square s (numbered level by level, then ``iy * 2**level + ix``; square 0
    is the reference square) has ``level[s]``, lower-left ``corner[s]``
    (an (S, 2) array), ``side[s]``, ``area[s]`` (the sum of its member
    triangle areas), ``too_few[s]`` (fewer than ``MIN_ELEMENTS_PER_SQUARE``
    members) and ``twice_inside[s]`` (its concentric double stays inside the
    domain).  Members are one CSR table: ``members[offsets[s]:offsets[s + 1]]``
    are the ascending triangles whose barycenter lies in square s, ``offsets``
    runs non-decreasing from 0 to ``len(members)`` over S + 1 entries, and
    each level's squares partition the triangles.
    """

    mesh: TriMesh
    level: np.ndarray
    corner: np.ndarray
    side: np.ndarray
    area: np.ndarray
    too_few: np.ndarray
    twice_inside: np.ndarray
    members: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.level)

    def elements(self, s: int) -> np.ndarray:
        """The ascending triangle indices of square s."""
        return self.members[self.offsets[s] : self.offsets[s + 1]]

    def admissible(self, require_twice_inside: bool = False) -> np.ndarray:
        """Indices of the squares that are not ``too_few`` (and, if asked, ``twice_inside``)."""
        return np.flatnonzero(~self.too_few & (self.twice_inside | (not require_twice_inside)))


def row_blocks(members: np.ndarray, offsets: np.ndarray, rows=None):
    """Yield the CSR index rows of one length together, one block per length.

    Each block is ``(sel, idx)``: ``sel`` holds the indices of the rows of
    length n among ``rows`` (in their order; default all rows), and ``idx``
    their members as a C-ordered (len(sel), n) array.  Blocks come in
    ascending n.  One stable sort of the lengths groups the rows, so the
    cost does not grow with the number of distinct lengths.
    """
    lengths = np.diff(offsets)
    rows = np.arange(len(lengths)) if rows is None else np.asarray(rows)
    by_length = rows[np.argsort(lengths[rows], kind="stable")]
    sorted_lengths = lengths[by_length]
    # block starts, and the end: lengths are >= 0, so -1 marks both edges
    bounds = np.flatnonzero(np.diff(sorted_lengths, prepend=-1, append=-1))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sel = by_length[lo:hi]
        yield sel, members[offsets[sel, None] + np.arange(sorted_lengths[lo])]


def block_dots(a: np.ndarray, idx: np.ndarray, b=None, shift=None) -> np.ndarray:
    """``row_dots`` of the rows of one (R, n) index block, ``shift`` given per row of the block.

    Products are summed by ``np.einsum``, as in ``integrate``, so a row's value
    depends neither on the other rows of the block nor on the BLAS thread count.
    """
    if b is None:
        return a[idx].sum(axis=1)
    # C order, so each row is summed as it would be alone; b[..., idx] is strided and sums in another order
    bb = np.take(b, idx, axis=-1)
    if shift is not None:
        bb = np.abs(bb - shift[:, None])
    return np.einsum("rn,...rn->...r", a[idx], bb)


def row_dots(members: np.ndarray, offsets: np.ndarray, a: np.ndarray, b=None, shift=None):
    """Per-row reductions over the CSR index rows ``idx = members[offsets[i]:offsets[i + 1]]``.

    Row i is ``a[idx].sum()`` when ``b`` is None, else ``np.einsum("t,t->", a[idx], b[idx])``,
    or the same with ``np.abs(b[idx] - shift[i])`` given a per-row ``shift``;
    a 2-D ``b`` stacks k fields and gives (k, rows), and empty rows give 0.
    Rows of one length are reduced as one ``row_blocks`` block: its row sums and
    einsum products (numpy's own fixed order, no BLAS) are bit-equal to
    reducing the rows one by one.
    """
    out = np.zeros(np.shape(b)[:-1] + (len(offsets) - 1,))
    for rows, idx in row_blocks(members, offsets):
        out[..., rows] = block_dots(a, idx, b, None if shift is None else shift[rows])
    return out


# (box, polygon edge) pairs per block of ``_segments_hit_boxes``: bounds its
# temporaries (peak RSS).
INSIDE_BLOCK_PAIRS = 1 << 15


def _points_in_polygon(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Even-odd point-in-polygon test, one pass over the edges per distinct y.

    A point is inside iff an odd number of edges cross its horizontal line
    (``(y0 > y) != (y1 > y)``) at an ``xint`` to its right (``x < xint``).
    Points of one y share their crossings: per distinct y the crossing
    ``xint`` are sorted once and each point counts those above its x by
    ``searchsorted``.  The count's parity is the XOR of the per-edge tests,
    so the answer is exact, point for point.  A NaN ``xint`` (non-finite
    vertices) is below no x, as in the per-edge test.
    """
    x0, y0 = poly.T
    x1, y1 = np.roll(poly, -1, axis=0).T
    ys, row = np.unique(points[:, 1], return_inverse=True)
    by_row = np.argsort(row, kind="stable")
    bounds = np.searchsorted(row[by_row], np.arange(len(ys) + 1))
    inside = np.empty(len(points), dtype=bool)
    for r, y in enumerate(ys):
        crosses = (y0 > y) != (y1 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = (x0 + (y - y0) * (x1 - x0) / (y1 - y0))[crosses]
        xint = np.sort(xint[~np.isnan(xint)])
        pts = by_row[bounds[r]:bounds[r + 1]]
        inside[pts] = (len(xint) - np.searchsorted(xint, points[pts, 0], side="right")) % 2 == 1
    return inside


def _segments_hit_boxes(lo: np.ndarray, hi: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Liang-Barsky clip test: does any polygon edge meet box [lo[k], hi[k]]?

    The boxes are closed; an edge that only touches one counts as a hit.
    Only the (box, edge) pairs whose bounding boxes come within ``margin`` of
    each other, 1e-9 of the largest vertex coordinate, go through the clip;
    they are found from the boxes sorted by their lower x and go in blocks of
    ``INSIDE_BLOCK_PAIRS``.  The answer is exact: a pair apart by a gap g
    along one axis has its parallel test exact, or a clip parameter of
    1 + g / |d| or more, for an edge extent |d| of at most twice the largest
    coordinate, so up to rounding (a few ulps) it stays above 1 and misses.
    """
    nxt = np.roll(poly, -1, axis=0)
    d = nxt - poly
    edge_lo, edge_hi = np.minimum(poly, nxt), np.maximum(poly, nxt)
    margin = 1e-9 * float(np.abs(poly).max(initial=0.0))
    # per edge, the boxes whose lower x lies in [edge x min - widest box - margin, edge x max + margin]
    order = np.argsort(lo[:, 0], kind="stable")
    sorted_lo = lo[order, 0]
    widest = float((hi[:, 0] - lo[:, 0]).max(initial=0.0))
    first = np.searchsorted(sorted_lo, edge_lo[:, 0] - widest - margin, side="left")
    count = np.searchsorted(sorted_lo, edge_hi[:, 0] + margin, side="right") - first
    ends, total = np.cumsum(count), int(count.sum())
    out = np.zeros(len(lo), dtype=bool)
    for start in range(0, total, INSIDE_BLOCK_PAIRS):
        pair = np.arange(start, min(start + INSIDE_BLOCK_PAIRS, total))
        edge = np.searchsorted(ends, pair, side="right")
        box = order[first[edge] + pair - (ends[edge] - count[edge])]
        near_enough = np.all((lo[box] <= edge_hi[edge] + margin) & (hi[box] >= edge_lo[edge] - margin), axis=1)
        edge, box = edge[near_enough], box[near_enough]
        t0, t1, hits = 0.0, 1.0, True
        for axis in range(2):
            dd, p0 = d[edge, axis], poly[edge, axis]
            box_lo, box_hi = lo[box, axis], hi[box, axis]
            denom = np.where(dd == 0, 1, dd)
            near = np.where(dd != 0, (box_lo - p0) / denom, -np.inf)
            far = np.where(dd != 0, (box_hi - p0) / denom, np.inf)
            swap = near > far
            t0 = np.maximum(t0, np.where(swap, far, near))
            t1 = np.minimum(t1, np.where(swap, near, far))
            hits = hits & ~((dd == 0) & ((p0 < box_lo) | (p0 > box_hi)))
        out[box[hits & (t0 <= t1)]] = True
    return out


def dyadic_squares(mesh: TriMesh, max_level: int) -> DyadicSquareSet:
    """All dyadic squares of levels 0..max_level over the bounding square of the vertices.

    On the unit-square and periodic-cell lattices the bounding square is
    [0,1]^2 and tiles the domain exactly; on other meshes squares simply
    collect the triangles whose barycenter falls inside.  Squares with fewer
    than ``MIN_ELEMENTS_PER_SQUARE`` members are flagged (sub-resolution
    noise) and squares whose concentric double stays inside the domain are
    flagged ``twice_inside`` for the diagnostics that need an interior
    margin: every square on a periodic mesh, an exact box test where
    ``lattice_resolution`` recognises the square lattice, and a polygon test
    against the boundary loop on any other mesh.  More than
    ``TRIANGLE_BUDGET`` squares (``max_level`` 11 and up) raise
    ``MeshBudgetError`` before anything is allocated.
    """
    if max_level < 0:
        raise ValueError("max_level must be >= 0")
    n_squares = (4 ** (max_level + 1) - 1) // 3
    if n_squares > TRIANGLE_BUDGET:
        raise MeshBudgetError(f"{n_squares} dyadic squares exceed the budget of {TRIANGLE_BUDGET}")
    origin = mesh.vertices.min(axis=0)
    side = float(max(mesh.vertices.max(axis=0) - origin))
    bary = mesh.barycenters
    square_lattice = not mesh.periodic and lattice_resolution(mesh) is not None

    corners, twice, members, offsets = [], [], [], [np.zeros(1, np.int64)]
    for level in range(max_level + 1):
        n = 1 << level
        h = side / n
        ix = np.clip(((bary[:, 0] - origin[0]) / h).astype(np.int64), 0, n - 1)
        iy = np.clip(((bary[:, 1] - origin[1]) / h).astype(np.int64), 0, n - 1)
        key = iy * n + ix
        # A stable sort keeps each square's members in ascending order.
        order = np.argsort(key, kind="stable")
        boundaries = np.searchsorted(key[order], np.arange(n * n + 1))
        cells = np.arange(n * n)
        corner = origin + h * np.column_stack([cells % n, cells // n])
        if mesh.periodic:
            inside = np.ones(n * n, dtype=bool)
        elif square_lattice:
            lo2, hi2 = corner - 0.5 * h, corner + 1.5 * h
            inside = np.all((lo2 >= origin - 1e-12) & (hi2 <= origin + side + 1e-12), axis=1)
        else:
            inside = _double_square_inside_polygon(corner, h, mesh.vertices[mesh.boundary_loop])
        corners.append(corner)
        twice.append(inside)
        members.append(order)
        offsets.append(boundaries[1:] + level * mesh.n_triangles)
    members = np.concatenate(members)
    offsets = np.concatenate(offsets)
    levels = np.repeat(np.arange(max_level + 1), 4 ** np.arange(max_level + 1))
    return DyadicSquareSet(
        mesh=mesh, level=levels, corner=np.concatenate(corners), side=side / 2.0 ** levels,
        area=row_dots(members, offsets, mesh.areas), twice_inside=np.concatenate(twice),
        too_few=np.diff(offsets) < MIN_ELEMENTS_PER_SQUARE, members=members, offsets=offsets,
    )


def _double_square_inside_polygon(corners_lo: np.ndarray, h: float, poly: np.ndarray) -> np.ndarray:
    """For each square (corner, side h): is the concentric double inside the polygon?

    The double square [corner - h/2, corner + 3h/2] is inside iff its four
    corners are inside (even-odd rule) and no boundary segment meets it.
    The double square is closed: a segment that only touches its side or a
    corner counts as crossing it.  Each distinct corner point is tested
    once (points that compare equal give the same answer), and only the
    squares whose four corners are inside go through the segment test.
    """
    lo2 = corners_lo - 0.5 * h
    hi2 = corners_lo + 1.5 * h
    offsets = np.array([[0.0, 0.0], [2.0 * h, 0.0], [0.0, 2.0 * h], [2.0 * h, 2.0 * h]])
    points = (lo2[:, None, :] + offsets).reshape(-1, 2)
    # viewed as one complex number per row, equal points are equal values
    _, first, which = np.unique(points.view(np.complex128)[:, 0], return_index=True, return_inverse=True)
    flags = _points_in_polygon(points[first], poly)[which].reshape(-1, 4).all(axis=1)
    candidates = np.flatnonzero(flags)
    flags[candidates] = ~_segments_hit_boxes(lo2[candidates], hi2[candidates], poly)
    return flags


# ---------------------------------------------------------------------------
# CSV export (column order: index, x, y, value(s))
# ---------------------------------------------------------------------------


def write_csv(path, header: list[str], rows) -> None:
    """Write a header and rows of Python scalars; ``csv`` writes floats as their shortest repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


CSV_BLOCK_ROWS = 2048


def _decimal_table(size: int) -> np.ndarray:
    """``str(i)`` for each i in 0..size-1, as one fixed-width numpy string array.

    Equal to ``np.arange(size).astype(f"U{len(str(size))}")``, built from
    digit codes: the numbers of d digits fill a (count, d) block of uint32
    character codes, one column per digit, and the code table is viewed as
    strings, so nothing is formatted per entry.
    """
    width = len(str(size))
    codes = np.zeros((size, width), dtype=np.uint32)
    for digits in range(1, width + 1):
        lo, hi = (0 if digits == 1 else 10 ** (digits - 1)), min(size, 10 ** digits)
        numbers = np.arange(lo, hi)
        for j in range(digits):
            codes[lo:hi, j] = numbers // 10 ** (digits - 1 - j) % 10 + ord("0")
    return codes.view(f"U{width}").reshape(size)


def _write_indexed_csv(path, header: list[str], *arrays) -> None:
    """Row i is i followed by row i of each (n,) or (n, k) array, as ``write_csv`` writes them.

    Integer text comes from one decimal table per file (``_decimal_table``),
    ``str(i)`` for each i below max(n, largest tabled entry + 1): the index
    column and every integer column whose entries lie in 0..2n-1 (the vertex
    indices of a triangle list) read it.  A float64 column whose first block
    holds at most a quarter distinct bit patterns (the coordinate columns)
    reads one table of the ``repr`` of each distinct bit pattern in the file,
    which keeps ``-0.0`` apart from ``0.0`` (``repr`` reads every NaN payload
    as ``nan``); every other column gets one ``str`` per value, a float's
    shortest repr.  The tables are fixed-width numpy string arrays, not a
    Python string per entry: 10^5 strings alive at once would leave the
    interpreter's small-object arenas pinned by the few objects that outlive
    the write (peak RSS of later solves).  Lines are joined ``CSV_BLOCK_ROWS``
    rows at a time: joining the whole file at once leaves its ~10^6
    short-lived strings behind as heap.
    """
    n = len(arrays[0])
    columns = []
    for a in arrays:
        a = np.asarray(a)
        if a.shape[0] != n:
            raise ValueError(f"expected {n} rows, got an array of shape {a.shape}")
        columns += list(a.reshape(n, math.prod(a.shape[1:])).T)
    # a bounded range keeps the table the size of the file it writes
    tabled = [c.dtype.kind in "iu" and c.min(initial=0) >= 0 and c.max(initial=0) < 2 * n for c in columns]
    size = max([n, *(int(c.max(initial=-1)) + 1 for c, t in zip(columns, tabled) if t)])
    decimals = _decimal_table(size)
    # per column: its text table (None: one ``str`` per value), the sorted bit patterns
    # that the table lists (None: the column indexes the table) and the column
    lookups = []
    for c, t in zip(columns, tabled):
        if t:
            lookups.append((decimals, None, c))
        elif c.dtype == np.float64 and 4 * len(np.unique(c[:CSV_BLOCK_ROWS].view(np.uint64))) <= min(n, CSV_BLOCK_ROWS):
            keys = np.unique(c.view(np.uint64))
            lookups.append((np.array(list(map(repr, keys.view(np.float64).tolist())), dtype=str), keys, c))
        else:
            lookups.append((None, None, c))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, n, CSV_BLOCK_ROWS):
            stop = min(lo + CSV_BLOCK_ROWS, n)
            texts = [decimals[lo:stop].tolist()]
            for table, keys, c in lookups:
                block = c[lo:stop]
                if table is None:
                    texts.append(list(map(str, block.tolist())))
                else:
                    texts.append(table[block if keys is None else np.searchsorted(keys, block.view(np.uint64))].tolist())
            fh.write("\r\n".join(map(",".join, zip(*texts))) + "\r\n")


def export_vertices_csv(mesh: TriMesh, path) -> None:
    _write_indexed_csv(path, ["index", "x", "y"], mesh.vertices)


def export_triangles_csv(mesh: TriMesh, path) -> None:
    _write_indexed_csv(path, ["index", "v0", "v1", "v2"], mesh.triangles)


def export_vertex_values_csv(mesh: TriMesh, values: np.ndarray, path, name: str = "value") -> None:
    values = np.asarray(values, dtype=float)
    cols = math.prod(values.shape[1:])
    names = [name] if values.ndim == 1 else [f"{name}{k}" for k in range(cols)]
    _write_indexed_csv(path, ["index", "x", "y", *names], mesh.vertices, values)


def export_element_values_csv(mesh: TriMesh, values: np.ndarray, path, name: str = "value") -> None:
    values = np.asarray(values, dtype=float)
    cols = math.prod(values.shape[1:])
    names = [name] if values.ndim == 1 else [f"{name}{k}" for k in range(cols)]
    _write_indexed_csv(path, ["index", "x", "y", *names], mesh.barycenters, values)
