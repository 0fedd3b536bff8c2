"""Mappings built from pairs of solutions, their Jacobians, and coordinate changes.

A solution u of div(sigma grad u) = 0 has a conjugate stream function with
gradient equal to the rotated flux.  Two gradient conventions for that
conjugate coexist on purpose:

* ``exact``   -- the per-element rotated flux rot(sigma grad u).  Pointwise
  algebraic identities (the mixed-Wirtinger/Jacobian identity, the
  dilatation-pair residual, the triangular structure of the transported
  coefficient) hold to machine precision in this convention.
* ``recovered`` -- the single-valued P1 field produced by the global
  least-squares solve.  Needed whenever a genuine map is required (image
  triangulations, areas, injectivity).

Each operation documents which convention it uses.

Every map here is one type, ``PlanarMap(u1, u2)``: the solution pair
U = (u1, u2) and the complex map f = u + i*utilde alike, with its Jacobian
field ``det_DU`` computed on first read.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coeff_algebra import _det, _gauge
from .elliptic_solver import rotated_flux, solve_dirichlet, stream_function
from .grid import ElementMatrixField, ScalarFieldP1, TriMesh, element_gradient, integrate

log = logging.getLogger(__name__)


@dataclass
class PlanarMap:
    """P1 planar map U = (u1, u2) on a shared mesh, also read as f = u1 + i*u2.

    ``det_DU`` is the per-element Jacobian determinant of the P1 gradients
    (recovered convention), computed on first read.
    """

    u1: ScalarFieldP1
    u2: ScalarFieldP1

    def __post_init__(self):
        if self.u1.mesh is not self.u2.mesh:
            raise ValueError("both components must live on the same mesh")

    @property
    def mesh(self) -> TriMesh:
        return self.u1.mesh

    def vertex_values(self) -> np.ndarray:
        return self.u1.values + 1j * self.u2.values

    @cached_property
    def det_DU(self) -> np.ndarray:
        return _det_from_gradients(element_gradient(self.u1), element_gradient(self.u2))


@dataclass
class WirtingerField:
    """Per-element derivatives f_z = (f_x - i f_y)/2 and f_zbar = (f_x + i f_y)/2."""

    f_z: np.ndarray
    f_zbar: np.ndarray


def _det_from_gradients(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    return g1[:, 0] * g2[:, 1] - g1[:, 1] * g2[:, 0]


def wirtinger_from_gradients(grad_re: np.ndarray, grad_im: np.ndarray) -> WirtingerField:
    f_z = 0.5 * ((grad_re[:, 0] + grad_im[:, 1]) + 1j * (grad_im[:, 0] - grad_re[:, 1]))
    f_zbar = 0.5 * ((grad_re[:, 0] - grad_im[:, 1]) + 1j * (grad_im[:, 0] + grad_re[:, 1]))
    return WirtingerField(f_z=f_z, f_zbar=f_zbar)


def wirtinger_exact(sigma: ElementMatrixField, u: ScalarFieldP1) -> WirtingerField:
    """Wirtinger derivatives of u + i*utilde with the exact rotated-flux gradient."""
    return wirtinger_from_gradients(element_gradient(u), rotated_flux(sigma, u))


def beltrami_residual(w: WirtingerField, pair: tuple[np.ndarray | complex, np.ndarray | complex]) -> np.ndarray:
    """Per-element |f_zbar - mu f_z - nu conj(f_z)|.

    ``pair`` is (mu, nu): per-element arrays or scalars used on every
    element.  For w built from a solution and its exact rotated flux, the
    residual vanishes identically when the pair is the per-element
    dilatation transform of the coefficient.
    """
    mu, nu = pair
    return np.abs(w.f_zbar - mu * w.f_z - nu * np.conj(w.f_z))


# ---------------------------------------------------------------------------
# Primary pairs and general two-component Dirichlet maps
# ---------------------------------------------------------------------------


def _polygon_signed_area(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


# Relative slack of the left-turn test: a cross product of consecutive edges
# down to -CONVEX_TURN_TOL times the squared longest edge coordinate still
# reads as collinear.
CONVEX_TURN_TOL = 1e-12


def _polygon_is_convex(pts: np.ndarray) -> bool:
    """Convex, positively oriented and once around; collinear consecutive edges allowed.

    Left turns alone admit loops that wind more than once (a pentagram, a
    pentagon traversed twice), so the turning angles must also sum to 2*pi.
    A repeated point is skipped, so the turn across it is still checked.
    """
    e = np.roll(pts, -1, axis=0) - pts
    e = e[np.any(e != 0, axis=1)]
    nxt = np.roll(e, -1, axis=0)
    cross = e[:, 0] * nxt[:, 1] - e[:, 1] * nxt[:, 0]
    scale = np.max(np.abs(e), initial=0.0) ** 2 + 1e-300
    turns = np.arctan2(cross, np.einsum("ta,ta->t", e, nxt)).sum() / (2 * np.pi)
    return bool(np.all(cross >= -CONVEX_TURN_TOL * scale)) and _polygon_signed_area(pts) > 0 and round(turns) == 1


def check_convex_domain(mesh: TriMesh) -> None:
    if not _polygon_is_convex(mesh.vertices[mesh.boundary_loop]):
        raise ValueError("mesh boundary is not a convex polygon")


def primary_pair(sigma: ElementMatrixField) -> tuple[PlanarMap, PlanarMap, PlanarMap]:
    """Coordinate-data solution pair on a convex domain.

    Solves the two Dirichlet problems with data x1 and x2, reconstructs
    the recovered stream functions, and returns the maps Phi = u1 + i*ut1,
    Psi = u2 + i*ut2 and U = (u1, u2).
    """
    mesh = sigma.mesh
    check_convex_domain(mesh)
    u1, u2 = solve_dirichlet(sigma, lambda p: p)
    (ut1, res1), (ut2, res2) = stream_function(sigma, [u1, u2])
    log.info("primary pair stream residuals: %.3e %.3e", res1, res2)
    return PlanarMap(u1, ut1), PlanarMap(u2, ut2), PlanarMap(u1, u2)


def sigma_harmonic_map(sigma: ElementMatrixField, phi1, phi2) -> PlanarMap:
    """Dirichlet solves for the two components of vector boundary data (phi1, phi2).

    When the sampled boundary data is not a sense-preserving convex
    embedding the homeomorphism guarantee is void; a warning is emitted
    and the computation proceeds (useful as a negative control).  Use
    :func:`injectivity_check` on the result.
    """
    mesh = sigma.mesh
    loop_pts = mesh.vertices[mesh.boundary_loop]
    v1 = np.asarray(phi1(loop_pts) if callable(phi1) else phi1, dtype=float)
    v2 = np.asarray(phi2(loop_pts) if callable(phi2) else phi2, dtype=float)
    if not _polygon_is_convex(np.column_stack([v1, v2])):
        log.warning(
            "boundary data is not a sense-preserving convex embedding; "
            "injectivity is not guaranteed"
        )
    return PlanarMap(*solve_dirichlet(sigma, np.column_stack([v1, v2])))


# ---------------------------------------------------------------------------
# Identities and checks
# ---------------------------------------------------------------------------


def equival_residual(
    Phi: PlanarMap, Psi: PlanarMap, sigma: ElementMatrixField, U: PlanarMap
) -> np.ndarray:
    """Per-element residual of the mixed-derivative Jacobian identity.

    With stream gradients taken as the exact rotated fluxes (not the
    recovered fields),

        Im(Phi_z conj(Psi_z)) = det(I + sigma) det DU / 4
                              = (1 + tr sigma + det sigma) det DU / 4,

    exactly, element by element; the factor 1/4 carries the two Wirtinger
    1/2 factors.  The returned residual is the absolute gap.
    """
    w1 = wirtinger_exact(sigma, Phi.u1)
    w2 = wirtinger_exact(sigma, Psi.u1)
    lhs = np.imag(w1.f_z * np.conj(w2.f_z))
    rhs = 0.25 * _gauge(sigma.matrices, _det(sigma.matrices)) * U.det_DU
    return np.abs(lhs - rhs)


def unimodality_check(g: np.ndarray) -> tuple[bool, bool]:
    """Detect one-max-arc/one-min-arc structure of a cyclic boundary sample.

    Returns (is_unimodal, is_strict): unimodal means the cyclic difference
    signs form exactly one positive and one negative block (plateaus
    allowed); strict additionally forbids plateaus.  Constant data is
    degenerate, not unimodal.
    """
    g = np.asarray(g, dtype=float)
    if len(g) < 3:
        raise ValueError("need at least 3 boundary samples")
    signs = np.sign(np.roll(g, -1) - g)
    seq = signs[signs != 0]
    if int(np.sum(seq != np.roll(seq, 1))) != 2:
        return False, False
    return True, bool(np.all(signs != 0))


def _segments_cross(p0, p1, q0, q1, tol_scale) -> np.ndarray:
    """Vectorized segment intersection (proper crossings and collinear overlap)."""

    def cross(a, b, c):
        return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (
            b[..., 1] - a[..., 1]
        ) * (c[..., 0] - a[..., 0])

    d1 = cross(q0, q1, p0)
    d2 = cross(q0, q1, p1)
    d3 = cross(p0, p1, q0)
    d4 = cross(p0, p1, q1)
    eps = tol_scale
    z1, z2, z3, z4 = (np.abs(d) <= eps for d in (d1, d2, d3, d4))
    proper = (
        (((d1 > eps) & (d2 < -eps)) | ((d1 < -eps) & (d2 > eps)))
        & (((d3 > eps) & (d4 < -eps)) | ((d3 < -eps) & (d4 > eps)))
    )

    def on_segment(a, b, c):
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        return np.all((c >= lo - 1e-300) & (c <= hi + 1e-300), axis=-1)

    touch = (
        (z1 & on_segment(q0, q1, p0))
        | (z2 & on_segment(q0, q1, p1))
        | (z3 & on_segment(p0, p1, q0))
        | (z4 & on_segment(p0, p1, q1))
    )
    return proper | touch


def _run_ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each run length c in ``counts``, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _box_pairs_sharing_a_cell(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j of boxes [lo, hi] that share a cell of a uniform grid.

    Each box is registered in every cell it covers.  The grid over the boxes'
    bounding box starts with cells as wide as the mean box (at most n per
    axis) and halves the cells per axis until the n boxes cover at most 2n
    cells in all.  On a loop of short edges a cell is then about one edge
    long and holds O(1) boxes, so the pairs grow linearly; at worst (long
    boxes, few cells) they stay below 2n^2.  A box's cell range comes from
    a monotone rounding of its ends, so two boxes that overlap share the
    cell of the larger of their lower ends.  A pair is returned from that
    cell only: every overlapping pair is returned, once.
    """
    n = len(lo)
    base = lo.min(axis=0)
    extent = hi.max(axis=0) - base
    # positions in [0, 1] of the box ends; no cell index can overflow
    frac_lo, frac_hi = ((v - base) / np.where(extent > 0, extent, 1.0) for v in (lo, hi))
    width = (frac_hi - frac_lo).max(axis=1).mean()
    g = n if width * n <= 1 else int(1 / width)
    while True:
        c_lo = np.minimum((frac_lo * g).astype(np.int64), g - 1)
        c_hi = np.minimum((frac_hi * g).astype(np.int64), g - 1)
        span = c_hi - c_lo + 1
        covered = span[:, 0] * span[:, 1]
        if covered.sum() <= 2 * n:
            break
        g //= 2
    edge = np.repeat(np.arange(n), covered)
    col, row = np.divmod(_run_ranks(covered), span[edge, 1])
    cell = (c_lo[edge, 0] + col) * g + c_lo[edge, 1] + row
    # a stable sort keeps each cell's boxes ascending
    order = np.argsort(cell, kind="stable")
    edge, cell = edge[order], cell[order]
    # sorted position p pairs with every later position of its cell
    counts = np.searchsorted(cell, cell, side="right") - np.arange(len(cell)) - 1
    first = np.repeat(np.arange(len(cell)), counts)
    later = _run_ranks(counts) + first + 1
    i, j = edge[first], edge[later]
    home = np.maximum(c_lo[i, 0], c_lo[j, 0]) * g + np.maximum(c_lo[i, 1], c_lo[j, 1])
    own = cell[first] == home
    return i[own], j[own]


def polygon_is_simple(pts: np.ndarray) -> bool:
    """No two non-adjacent edges of the closed polygon intersect or touch.

    Only edge pairs whose bounding boxes overlap are tested; they are found
    through a uniform grid (``_box_pairs_sharing_a_cell``).  The boxes carry
    the same 1e-300 slack as ``_segments_cross``, so no pair it would report
    is dropped.
    """
    n = len(pts)
    a0 = pts
    a1 = np.roll(pts, -1, axis=0)
    scale = float(np.max(np.abs(pts)) + 1.0)
    tol = 1e-13 * scale * scale
    lo = np.minimum(a0, a1) - 1e-300
    hi = np.maximum(a0, a1) + 1e-300
    idx_i, idx_j = _box_pairs_sharing_a_cell(lo, hi)
    keep = np.all((lo[idx_i] <= hi[idx_j]) & (lo[idx_j] <= hi[idx_i]), axis=1)
    gap = idx_j - idx_i
    keep &= (gap != 1) & (gap != n - 1)
    idx_i, idx_j = idx_i[keep], idx_j[keep]
    hits = _segments_cross(
        a0[idx_i], a1[idx_i], a0[idx_j], a1[idx_j], tol
    )
    return not bool(hits.any())


def injectivity_check(U: PlanarMap) -> tuple[bool, bool]:
    """Local and global injectivity flags for a P1 map.

    Local: det DU > 0 on every triangle (strict, no tolerance).  Global:
    additionally the image of the boundary loop is a simple polygon.  A P1
    map of a triangulated disk with positive det on every triangle and a
    simple image of the boundary loop is one-to-one onto the region that
    polygon bounds (Floater 2003, *Math. Comp.* 72), so the two tests
    decide it without a pairwise triangle-overlap test.
    """
    locally = bool(np.all(U.det_DU > 0.0))
    loop = U.mesh.boundary_loop
    return locally, locally and polygon_is_simple(np.column_stack([U.u1.values[loop], U.u2.values[loop]]))


# ---------------------------------------------------------------------------
# Coordinate change by f and the transported coefficient
# ---------------------------------------------------------------------------


@dataclass
class TauPushforward:
    """Transported coefficient tau = (Df sigma Df^T)/det Df on the image triangulation.

    For f = u + i*utilde with the exact rotated-flux gradient, tau is
    exactly [[1, b], [0, c]] with b the antisymmetric gap and c the
    determinant of sigma (transported); with the recovered P1 gradient the
    structural residuals |tau11 - 1| and |tau21| decay under refinement.
    """

    tau: np.ndarray
    b: np.ndarray
    c: np.ndarray
    resid_diag: np.ndarray     # |tau11 - 1|
    resid_lower: np.ndarray    # |tau21|
    l1_resid_diag: float
    l1_resid_lower: float


def image_mesh_of(f: PlanarMap) -> TriMesh:
    """Mesh with vertices mapped through f, same connectivity (f must be injective)."""
    mesh = f.mesh
    verts = np.column_stack([f.u1.values, f.u2.values])
    return TriMesh(
        vertices=verts,
        triangles=mesh.triangles.copy(),
        boundary_loop=mesh.boundary_loop.copy(),
    )


def change_coordinates(U: PlanarMap, f: PlanarMap) -> tuple[TriMesh, PlanarMap]:
    """Express the map U in the coordinates produced by f (recovered convention).

    The transported map keeps the nodal values of (u1, u2) but lives on the
    image triangulation, so its per-element gradients are DU Df^{-1} by the
    P1 chain rule and its Jacobian field is det DU / det Df.
    """
    locally, globally = injectivity_check(f)
    if not locally:
        raise ValueError("coordinate map is not locally injective; cannot change coordinates")
    if not globally:
        log.warning("coordinate map failed the global injectivity check; proceeding")
    img = image_mesh_of(f)
    v1 = ScalarFieldP1(img, U.u1.values.copy())
    v2 = ScalarFieldP1(img, U.u2.values.copy())
    return img, PlanarMap(v1, v2)


def pushforward_tau(sigma: ElementMatrixField, f: PlanarMap) -> TauPushforward:
    """Transported coefficient with Df from the P1 gradients of both components of f.

    This is the recovered convention: the gradients of the map that
    actually produced the image triangulation.  Near-degenerate image
    elements (det Df below 1e-12 of the median) are left out of the
    reported L1 norms.
    """
    det_df = f.det_DU
    # rows: gradients of the components
    df = np.stack([element_gradient(f.u1), element_gradient(f.u2)], axis=1)
    if not np.all(det_df > 0):  # as in injectivity_check, a NaN det fails too
        raise ValueError("coordinate map is not locally injective (det Df <= 0 somewhere)")
    keep = det_df >= 1e-12 * float(np.median(det_df))
    tau = np.einsum("tia,tab,tjb->tij", df, sigma.matrices, df) / det_df[:, None, None]

    img = image_mesh_of(f)
    b = tau[:, 0, 1]
    c = _det(tau)
    resid_diag = np.abs(tau[:, 0, 0] - 1.0)
    resid_lower = np.abs(tau[:, 1, 0])
    total = float(img.areas[keep].sum())
    l1_diag = float(integrate(img, resid_diag, keep) / total)
    l1_lower = float(integrate(img, resid_lower, keep) / total)
    return TauPushforward(
        tau=tau,
        b=b,
        c=c,
        resid_diag=resid_diag,
        resid_lower=resid_lower,
        l1_resid_diag=l1_diag,
        l1_resid_lower=l1_lower,
    )

