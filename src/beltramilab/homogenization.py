"""Periodic cell problems, effective conductivity, and image areas.

The primary definition of the effective tensor is the average flux per
unit applied mean gradient (column construction); the variational
characterization of the quadratic form is reported alongside.  At the
discrete level the two agree identically for every coefficient, symmetric
or not, because the corrector is orthogonal to the discrete test space --
but the minimization reading is only meaningful for symmetric input, so
no equality is asserted for non-symmetric coefficients at the API level.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .elliptic_solver import mean_flux, solve_periodic_cell, stream_function
from .grid import ElementMatrixField, ScalarFieldP1, element_gradient, integrate
from .sigma_harmonic import PlanarMap, injectivity_check

log = logging.getLogger(__name__)


@dataclass
class EffectiveTensor:
    """Homogenized tensor with the probe data used to produce it."""

    matrix: np.ndarray                       # columns: cell averages of sigma grad u^{e_j}
    solutions: dict[str, ScalarFieldP1]      # cell solutions for e1, e2
    quadratic_forms: dict[str, float]        # energy probes for e1, e2, e1+e2

    def quadratic_form_gap(self) -> float:
        """Largest gap between the energy probes and the flux-average quadratic form."""
        gaps = []
        probes = {"e1": np.array([1.0, 0.0]), "e2": np.array([0.0, 1.0]),
                  "e1+e2": np.array([1.0, 1.0])}
        for name, xi in probes.items():
            form = float(xi @ self.matrix @ xi)
            gaps.append(abs(self.quadratic_forms[name] - form))
        return max(gaps)


@dataclass
class CellMap:
    """Periodic solution pair U with U - A x periodic; A need not be symmetric."""

    A: np.ndarray
    U: PlanarMap
    linearity_error: float  # max nodal gap between U^A and A U^I


def _energy(sigma: ElementMatrixField, u: ScalarFieldP1) -> float:
    grad = element_gradient(u)
    flux = np.einsum("tab,tb->ta", sigma.matrices, grad)
    return float(integrate(sigma.mesh, np.einsum("ta,ta->t", grad, flux)))


def effective_conductivity(sigma: ElementMatrixField) -> EffectiveTensor:
    """Cell solves for the coordinate directions; columns are average fluxes.

    Also records the energy quadratic form for the probes e1, e2 and
    e1 + e2 (the last by discrete superposition, which is exact).
    """
    mesh = sigma.mesh
    u1, u2 = solve_periodic_cell(sigma, np.eye(2))
    col1 = mean_flux(sigma, u1)
    col2 = mean_flux(sigma, u2)
    u12 = ScalarFieldP1(mesh, u1.values + u2.values)
    tensor = np.column_stack([col1, col2])
    qf = {
        "e1": _energy(sigma, u1),
        "e2": _energy(sigma, u2),
        "e1+e2": _energy(sigma, u12),
    }
    result = EffectiveTensor(matrix=tensor, solutions={"e1": u1, "e2": u2}, quadratic_forms=qf)
    log.info(
        "effective tensor [[%.6g, %.6g], [%.6g, %.6g]] (probe gap %.3e)",
        tensor[0, 0], tensor[0, 1], tensor[1, 0], tensor[1, 1], result.quadratic_form_gap(),
    )
    return result


def cell_map(sigma: ElementMatrixField, A: np.ndarray) -> CellMap:
    """Componentwise periodic cell solves for the affine part A x.

    Verifies the linearity relation U^A = A U^I (exact up to the solver's
    residual gate because the discrete problems are linear).  A singular A is
    solved as given; only the homeomorphism interpretation is void then.
    """
    A = np.asarray(A, dtype=float)
    mesh = sigma.mesh
    # A[0], A[1], e1 and e2 are separate right-hand sides of one
    # factorization, so the linearity check compares independent solves; a
    # row of A equal to e1 or e2 is solved once, as each row is refined on
    # its own and a second solve would repeat it bit for bit.
    distinct, inverse = np.unique(np.vstack([A, np.eye(2)]), axis=0, return_inverse=True)
    solved = solve_periodic_cell(sigma, distinct)
    u1, u2, e1, e2 = (solved[i] for i in inverse.ravel())
    lin1 = A[0, 0] * e1.values + A[0, 1] * e2.values
    lin2 = A[1, 0] * e1.values + A[1, 1] * e2.values
    err = max(
        float(np.max(np.abs(u1.values - lin1))), float(np.max(np.abs(u2.values - lin2)))
    )
    if np.linalg.det(A) == 0.0:
        log.warning("affine part is singular; homeomorphism checks are skipped")
    return CellMap(A=A, U=PlanarMap(u1, u2), linearity_error=err)


def cell_complex_map(sigma: ElementMatrixField, u: ScalarFieldP1) -> tuple[PlanarMap, float]:
    """u + i * (recovered stream of u), and the stream's gradient mismatch, for a solved field u.

    On the periodic cell the map lives on the unwrapped cell; on a domain
    with boundary it is the primary pair's Phi = u1 + i*ut1 when u is its u1,
    bit for bit, without reconstructing the conjugate of u2.
    """
    ut, resid = stream_function(sigma, u)
    return PlanarMap(u, ut), resid


def image_area(U: PlanarMap) -> float:
    """Area of the image of the map: the sum of |det DU| times element area.

    If the map fails the global ``injectivity_check``, the unsigned integral
    overcounts folds; a warning gives it with the signed (overlap-corrected)
    estimate.
    """
    unsigned = float(integrate(U.mesh, np.abs(U.det_DU)))
    if not injectivity_check(U)[1]:
        log.warning(
            "map not injective: unsigned image area %.6g, overlap-corrected estimate %.6g",
            unsigned, abs(float(integrate(U.mesh, U.det_DU))),
        )
    return unsigned


def mean_matrices(sigma: ElementMatrixField) -> tuple[np.ndarray, np.ndarray]:
    """(harmonic, arithmetic) means of the symmetric part over the cell.

    Classical sandwich oracle: for symmetric coefficients the symmetric
    part of the effective tensor lies between them in quadratic form.  For
    non-symmetric coefficients only the harmonic lower bound survives --
    the energy identity bounds sym(sigma_eff) from below by the
    homogenized symmetric part, hence by its harmonic mean, while an
    oscillating antisymmetric part can push the effective tensor above the
    arithmetic mean (strips of [[1, c], [-c, 1]] with alternating sign of
    c homogenize to diag(1, 1 + c^2)).
    """
    mats = sigma.matrices
    sym = 0.5 * (mats + np.transpose(mats, (0, 2, 1)))
    total = sigma.mesh.areas.sum()
    arith = integrate(sigma.mesh, sym) / total
    harm = np.linalg.inv(integrate(sigma.mesh, np.linalg.inv(sym)) / total)
    return harm, arith
