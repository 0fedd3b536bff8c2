"""Coefficient field families sampled at triangle barycenters.

Discontinuity lines of the built-in families sit on mesh lines (the
builders validate this), so per-element constants represent each family
exactly and quadrature at interfaces is unambiguous.  All randomness goes
through a counter-based generator keyed by an explicit seed, so the same
seed reproduces the same coefficients on any platform.
"""

from __future__ import annotations

import numpy as np

from .coeff_algebra import sigma_from_beltrami, BeltramiPair
from .grid import ElementMatrixField, TriMesh


def rng_from_seed(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox) for platform-independent streams."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


def constant_field(mesh: TriMesh, matrix) -> ElementMatrixField:
    matrix = np.asarray(matrix, dtype=float)
    return ElementMatrixField(mesh, np.broadcast_to(matrix, (mesh.n_triangles, 2, 2)).copy())


def hall_field(mesh: TriMesh, a: float, b: float) -> ElementMatrixField:
    """Constant rotation-like matrix [[a, b], [-b, a]]."""
    return constant_field(mesh, [[a, b], [-b, a]])


def _infer_resolution(mesh: TriMesh) -> int:
    """Resolution n of a structured unit-square or periodic-cell lattice.

    The mesh must have 2 n^2 triangles and (n+1)^2 vertices, all on the grid
    (Z/n)^2 inside [0, 1]^2.  The triangle count alone would read a regular
    octagon (8 r^2 = 2 (2r)^2 triangles) as a square lattice.  The test is on
    the geometry, not on ``mesh.domain``, so a lattice read back from CSV
    (domain ``"custom"``) is accepted too.
    """
    n = round((mesh.n_triangles / 2) ** 0.5)
    grid = mesh.vertices * n
    if (
        2 * n * n != mesh.n_triangles
        or len(grid) != (n + 1) ** 2
        or grid.min() < -1e-9
        or grid.max() > n + 1e-9
        or np.abs(grid - np.round(grid)).max() > 1e-9
    ):
        raise ValueError(
            f"coefficient family needs a structured unit-square mesh, got domain {mesh.domain!r}"
        )
    return n


def _check_strip_interface(mesh: TriMesh, fraction: float) -> None:
    """Reject a strip interface at ``fraction`` that falls between mesh lines."""
    n = _infer_resolution(mesh)
    if abs(fraction * n - round(fraction * n)) > 1e-9:
        raise ValueError(
            f"strip interface at {fraction} does not sit on mesh lines at resolution {n}"
        )


def laminate_field(
    mesh: TriMesh, a: float, b: float, direction: str = "x1", fraction: float = 0.5
) -> ElementMatrixField:
    """Isotropic two-phase strips: value a where the coordinate is below ``fraction``."""
    _check_strip_interface(mesh, fraction)
    axis = {"x1": 0, "x2": 1}[direction]
    coord = mesh.barycenters[:, axis]
    vals = np.where(coord % 1.0 < fraction, a, b)
    mats = np.zeros((mesh.n_triangles, 2, 2))
    mats[:, 0, 0] = vals
    mats[:, 1, 1] = vals
    return ElementMatrixField(mesh, mats)


def checkerboard_field(mesh: TriMesh, a: float, b: float) -> ElementMatrixField:
    """Four-quadrant periodic checkerboard: a on the even quadrants, b on the odd."""
    n = _infer_resolution(mesh)
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


def hall_laminate_field(mesh: TriMesh, c: float, direction: str = "x1") -> ElementMatrixField:
    """Strips of [[1, +/-c], [-/+c, 1]]: unit symmetric part, alternating gap sign."""
    _check_strip_interface(mesh, 0.5)
    axis = {"x1": 0, "x2": 1}[direction]
    coord = mesh.barycenters[:, axis]
    sign = np.where(coord % 1.0 < 0.5, 1.0, -1.0)
    mats = np.zeros((mesh.n_triangles, 2, 2))
    mats[:, 0, 0] = 1.0
    mats[:, 1, 1] = 1.0
    mats[:, 0, 1] = c * sign
    mats[:, 1, 0] = -c * sign
    return ElementMatrixField(mesh, mats)


def random_pair(rng: np.random.Generator, k_max: float, symmetric: bool) -> BeltramiPair:
    """One dilatation pair with |mu| + |nu| <= (k_max-1)/(k_max+1).

    Symmetric matrices correspond exactly to real nu, so the symmetric
    family draws nu on the real axis with a random sign.
    """
    s_max = (k_max - 1.0) / (k_max + 1.0)
    s = s_max * rng.random()
    split = rng.random()
    mu_mod, nu_mod = s * split, s * (1.0 - split)
    mu = mu_mod * np.exp(2j * np.pi * rng.random())
    if symmetric:
        nu = nu_mod * (1.0 if rng.random() < 0.5 else -1.0)
    else:
        nu = nu_mod * np.exp(2j * np.pi * rng.random())
    return BeltramiPair(complex(mu), complex(nu))


def random_piecewise_field(
    mesh: TriMesh, k_max: float, cells: int, seed: int, symmetric: bool = False
) -> ElementMatrixField:
    """cells x cells blocks, each a random matrix with distortion at most k_max.

    Blocks are generated through the dilatation transform, which guarantees
    the ellipticity constants land in [1/k_max, k_max].
    """
    if k_max < 1.0:
        raise ValueError("k_max must be >= 1")
    n = _infer_resolution(mesh)
    if n % cells != 0:
        raise ValueError(f"resolution {n} is not a multiple of the block count {cells}")
    rng = rng_from_seed(seed)
    block_mats = np.empty((cells, cells, 2, 2))
    for j in range(cells):
        for i in range(cells):
            block_mats[j, i] = sigma_from_beltrami(random_pair(rng, k_max, symmetric)).entries
    bary = mesh.barycenters
    bi = np.clip((bary[:, 0] % 1.0 * cells).astype(int), 0, cells - 1)
    bj = np.clip((bary[:, 1] % 1.0 * cells).astype(int), 0, cells - 1)
    return ElementMatrixField(mesh, block_mats[bj, bi])


def explicit_field(mesh: TriMesh, table, cells: int) -> ElementMatrixField:
    """Per-block matrices from an explicit (cells*cells, 2, 2) table, row-major from the bottom."""
    table = np.asarray(table, dtype=float).reshape(cells, cells, 2, 2)
    n = _infer_resolution(mesh)
    if n % cells != 0:
        raise ValueError(f"resolution {n} is not a multiple of the block count {cells}")
    bary = mesh.barycenters
    bi = np.clip((bary[:, 0] % 1.0 * cells).astype(int), 0, cells - 1)
    bj = np.clip((bary[:, 1] % 1.0 * cells).astype(int), 0, cells - 1)
    return ElementMatrixField(mesh, table[bj, bi])
