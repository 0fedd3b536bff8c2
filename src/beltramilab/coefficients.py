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
from .grid import ElementMatrixField, TriMesh, lattice_resolution


def rng_from_seed(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox) for platform-independent streams."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


def constant_field(mesh: TriMesh, matrix) -> ElementMatrixField:
    """One matrix on every triangle: a one-entry table."""
    matrix = np.array(matrix, dtype=float)  # a copy: the field does not share the caller's array
    if matrix.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {matrix.shape}")
    return ElementMatrixField(mesh, matrix[None], np.zeros(mesh.n_triangles, dtype=np.uint8))


def hall_field(mesh: TriMesh, a: float, b: float) -> ElementMatrixField:
    """Constant rotation-like matrix [[a, b], [-b, a]]."""
    return constant_field(mesh, [[a, b], [-b, a]])


def _lattice_n(mesh: TriMesh) -> int:
    """Resolution n of the lattice a block table is sampled on; any other mesh is an error."""
    n = lattice_resolution(mesh)
    if n is None:
        raise ValueError("coefficient family needs a structured unit-square mesh: the n x n lattice "
                         "as build_unit_square or build_periodic_cell numbers it")
    return n


def _lattice_field(mesh: TriMesh, table: np.ndarray, n: int | None = None) -> ElementMatrixField:
    """Sample a (rows, cols, 2, 2) block table, row-major from the bottom, at the barycenters.

    Every block edge must sit on a mesh line, so ``rows`` and ``cols`` must
    both divide the resolution n; then each triangle lies in exactly one block.
    The field keeps the rows * cols blocks as its table and each triangle's
    block number (row * cols + column) as its index.
    """
    rows, cols = table.shape[:2]
    if rows == 0 or cols == 0:
        raise ValueError(f"block table is empty ({rows} x {cols} blocks)")
    n = _lattice_n(mesh) if n is None else n
    if n % rows or n % cols:
        raise ValueError(f"{rows} x {cols} blocks do not sit on mesh lines at resolution {n}")
    bary = mesh.barycenters
    bi = np.floor(bary[:, 0] % 1.0 * cols).astype(int)
    bj = np.floor(bary[:, 1] % 1.0 * rows).astype(int)
    return ElementMatrixField(mesh, table.reshape(rows * cols, 2, 2), bj * cols + bi)


def _strip_table(strips: np.ndarray, direction: str) -> np.ndarray:
    """Block table of (k, 2, 2) strips stacked along x1 (k columns) or x2 (k rows)."""
    if direction == "x1":
        return strips[None]
    if direction == "x2":
        return strips[:, None]
    raise ValueError(f"unknown strip direction {direction!r}, expected 'x1' or 'x2'")


def _isotropic(vals) -> np.ndarray:
    """(..., 2, 2) stack of the scalar matrices vals * I."""
    mats = np.zeros(np.shape(vals) + (2, 2))
    mats[..., 0, 0] = mats[..., 1, 1] = vals
    return mats


def laminate_field(
    mesh: TriMesh, a: float, b: float, direction: str = "x1", fraction: float = 0.5
) -> ElementMatrixField:
    """Isotropic two-phase strips: value a where the coordinate is below ``fraction``."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"laminate fraction must lie in (0, 1), got {fraction}")
    n = _lattice_n(mesh)
    if abs(fraction * n - round(fraction * n)) > 1e-9:
        raise ValueError(f"strip interface at {fraction} does not sit on mesh lines at resolution {n}")
    phases = _isotropic(np.where((np.arange(n) + 0.5) / n < fraction, a, b))
    return _lattice_field(mesh, _strip_table(phases, direction), n)


def checkerboard_field(mesh: TriMesh, a: float, b: float) -> ElementMatrixField:
    """Four-quadrant periodic checkerboard: a on the even quadrants, b on the odd."""
    return _lattice_field(mesh, _isotropic([[a, b], [b, a]]))


def hall_laminate_field(mesh: TriMesh, c: float, direction: str = "x1") -> ElementMatrixField:
    """Strips of [[1, +/-c], [-/+c, 1]]: unit symmetric part, alternating gap sign."""
    strips = np.array([[[1.0, c * s], [-c * s, 1.0]] for s in (1.0, -1.0)])
    return _lattice_field(mesh, _strip_table(strips, direction))


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
    if 2 * cells * cells > mesh.n_triangles:
        # more blocks than lattice squares: refuse before drawing them all
        raise ValueError(f"{cells} x {cells} blocks exceed the {mesh.n_triangles} triangles")
    rng = rng_from_seed(seed)
    # drawn row-major from the bottom, one dilatation pair per block
    blocks = [sigma_from_beltrami(random_pair(rng, k_max, symmetric)) for _ in range(cells * cells)]
    return _lattice_field(mesh, np.array(blocks).reshape(cells, cells, 2, 2))


def explicit_field(mesh: TriMesh, table, cells: int) -> ElementMatrixField:
    """Per-block matrices from an explicit (cells*cells, 2, 2) table, row-major from the bottom."""
    return _lattice_field(mesh, np.asarray(table, dtype=float).reshape(cells, cells, 2, 2))
