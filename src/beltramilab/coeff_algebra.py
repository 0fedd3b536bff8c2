"""Algebra between complex dilatation pairs and 2x2 conductivity matrices.

A planar elliptic operator appears in two equivalent forms:

* first order, through a pair of complex dilatations ``(mu, nu)`` with
  ``|mu| + |nu| < 1`` (equivalently ``|mu| + |nu| <= (K-1)/(K+1)`` for some
  distortion ``K >= 1``), and
* second order, through a real 2x2 matrix ``sigma``, not necessarily
  symmetric, whose symmetric part and whose inverse's symmetric part are
  both positive definite.

This module converts between the two forms, computes the best ellipticity
constants on either side, and evaluates the sharp constants connecting
them.  A matrix is a plain float array, and ``ellipticity_constants`` is
the one ellipticity check, for one matrix or a stack.  Everything here is
pure double-precision value arithmetic: the identities have condition
numbers near 1 on the admissible range, so no extended precision is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePairError, NonEllipticError

# Relative tolerance below which the denominator |1+nu|^2 - |mu|^2 is
# treated as collapsed; inputs that close to the bound are not elliptic
# in double precision anyway.
DEGENERATE_DENOMINATOR_RTOL = 1e-14


@dataclass(frozen=True)
class BeltramiPair:
    """Complex dilatation pair of a first-order planar elliptic system."""

    mu: complex
    nu: complex

    @property
    def norm_sum(self) -> float:
        return abs(self.mu) + abs(self.nu)


@dataclass(frozen=True)
class EllipticityReport:
    """Distortion and integrability exponents attached to constants (alpha, beta).

    ``k_beltrami`` is the distortion of the associated first-order system
    and ``p_sup`` the critical gradient-integrability exponent ``2K/(K-1)``
    (``inf`` at K=1).
    """

    alpha: float
    beta: float
    k_beltrami: float
    p_sup: float


def sym_min_eig(mats: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the symmetric part of a 2x2 matrix or a (..., 2, 2) stack."""
    s11, s22 = mats[..., 0, 0], mats[..., 1, 1]
    return 0.5 * (s11 + s22) - np.hypot(0.5 * (s11 - s22), 0.5 * (mats[..., 0, 1] + mats[..., 1, 0]))


def _det(mats: np.ndarray) -> np.ndarray:
    """det(sigma) of a 2x2 matrix or (..., 2, 2) stack, in one order for all."""
    return mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0]


def _gauge(mats: np.ndarray, det: np.ndarray) -> np.ndarray:
    """1 + tr(sigma) + det(sigma) of a 2x2 matrix or (..., 2, 2) stack, given its ``_det``."""
    return 1.0 + mats[..., 0, 0] + mats[..., 1, 1] + det


def ellipticity_constants(mats) -> tuple:
    """Best constants (alpha, beta): alpha = min eig of sym(sigma), 1/beta = min eig of sym(inv(sigma)).

    The largest alpha and the smallest beta for which both quadratic-form
    lower bounds hold, from the 2x2 quadratic formula in closed form.  A
    (2, 2) matrix gives two floats and an (n, 2, 2) stack two (n,) arrays,
    each element computed the same way.  Raises ``NonEllipticError`` for a
    non-finite or non-elliptic matrix, naming a stack's first bad element.
    """
    mats = np.asarray(mats, dtype=float)
    alpha, beta, _ = _checked_constants(mats)
    if mats.ndim == 2:
        return float(alpha[0]), float(beta[0])
    return alpha, beta


def _checked_constants(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``ellipticity_constants`` of a float matrix or stack as (n,) arrays, with the ``_det`` it used."""
    if mats.shape[-2:] != (2, 2) or mats.ndim not in (2, 3):
        raise ValueError(f"expected a 2x2 matrix or an (n, 2, 2) stack, got shape {mats.shape}")
    stack = mats.reshape(-1, 2, 2)
    where = "element {}: " if mats.ndim == 3 else ""
    if not np.isfinite(stack).all():
        bad = int(np.argmin(np.isfinite(stack).all(axis=(1, 2))))
        raise NonEllipticError(f"{where.format(bad)}non-finite coefficient entries {stack[bad].tolist()}")
    alpha = sym_min_eig(stack)
    if (alpha <= 0).any():
        bad = int(np.argmin(alpha))
        raise NonEllipticError(f"{where.format(bad)}symmetric part not positive definite (min eig {alpha[bad]:.3e})")
    det = _det(stack)
    # [[s22, s21], [s12, s11]] / det is inv(sigma) with its off-diagonal signs
    # flipped, a similarity by diag(1, -1): the same symmetric-part eigenvalues,
    # bit for bit, since sym_min_eig reads the off-diagonal only through hypot.
    alpha_inv = sym_min_eig(stack[:, ::-1, ::-1] / det[:, None, None])
    if (alpha_inv <= 0).any():
        bad = int(np.argmin(alpha_inv))
        raise NonEllipticError(f"{where.format(bad)}symmetric part of the inverse not positive definite")
    return alpha, 1.0 / alpha_inv, det


def sigma_from_beltrami(pair: BeltramiPair) -> np.ndarray:
    """Matrix form of a dilatation pair.

    With ``den = |1+nu|^2 - |mu|^2``::

        sigma = [ (|1-mu|^2 - |nu|^2) / den     2 Im(nu - mu) / den      ]
                [ -2 Im(nu + mu) / den          (|1+mu|^2 - |nu|^2) / den ]

    Raises ``DegeneratePairError`` when the denominator collapses and
    ``NonEllipticError`` when ``|mu| + |nu| >= 1``.
    """
    mu, nu = complex(pair.mu), complex(pair.nu)
    s = abs(mu) + abs(nu)
    if s >= 1.0:
        raise NonEllipticError(f"|mu| + |nu| = {s:.6g} >= 1")
    den = abs(1.0 + nu) ** 2 - abs(mu) ** 2
    scale = (1.0 + abs(nu)) ** 2 + abs(mu) ** 2
    if den <= DEGENERATE_DENOMINATOR_RTOL * scale:
        raise DegeneratePairError(f"denominator |1+nu|^2 - |mu|^2 = {den:.3e} collapsed")
    return np.array(
        [
            [(abs(1.0 - mu) ** 2 - abs(nu) ** 2) / den, 2.0 * (nu - mu).imag / den],
            [-2.0 * (nu + mu).imag / den, (abs(1.0 + mu) ** 2 - abs(nu) ** 2) / den],
        ]
    )


def beltrami_from_sigma(sigma) -> BeltramiPair:
    """Dilatation pair of a matrix.

    With ``den = 1 + tr(sigma) + det(sigma)`` (positive for every
    admissible matrix)::

        mu = (s22 - s11 - i (s12 + s21)) / den
        nu = (1 - det(sigma) + i (s12 - s21)) / den
    """
    mat = np.asarray(sigma, dtype=float)
    _, _, det = _checked_constants(mat)  # rejects non-finite and non-elliptic input
    mu, nu = _dilatation_pairs(mat[None, :, :], det)
    return BeltramiPair(complex(mu[0]), complex(nu[0]))


def beltrami_from_sigma_batch(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized dilatation pairs for an (n, 2, 2) stack; no ellipticity check."""
    return _dilatation_pairs(mats, _det(mats))


def _dilatation_pairs(mats: np.ndarray, det: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dilatation pairs of an (n, 2, 2) stack, given its ``_det``."""
    s11, s12 = mats[:, 0, 0], mats[:, 0, 1]
    s21, s22 = mats[:, 1, 0], mats[:, 1, 1]
    den = _gauge(mats, det)
    mu = (s22 - s11 - 1j * (s12 + s21)) / den
    nu = (1.0 - det + 1j * (s12 - s21)) / den
    return mu, nu


def K_of_beltrami(pair: BeltramiPair) -> float:
    """Smallest K >= 1 with |mu| + |nu| <= (K-1)/(K+1), i.e. (1+s)/(1-s)."""
    s = pair.norm_sum
    if s >= 1.0:
        raise NonEllipticError(f"|mu| + |nu| = {s:.6g} >= 1")
    return (1.0 + s) / (1.0 - s)


def K_from_lambda(lam: float, symmetric_only: bool = False) -> float:
    """Sharp distortion of the dilatation pair of a matrix with alpha = 1/beta = lam.

    General matrices give ``K = (1 + sqrt(1 - lam^2)) / lam``; restricting
    to symmetric matrices improves this to ``K = 1/lam``.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"lambda must lie in (0, 1], got {lam}")
    if symmetric_only:
        return 1.0 / lam
    return (1.0 + math.sqrt(max(0.0, 1.0 - lam * lam))) / lam


def astala_exponent(alpha: float, beta: float) -> EllipticityReport:
    """Distortion and critical integrability exponent for constants (alpha, beta).

    ``K = sqrt(beta/alpha) + sqrt((beta-alpha)/alpha)`` and gradients of
    solutions are p-integrable for every ``p < p_sup = 2K/(K-1)``.  The
    report is invariant under joint scaling of (alpha, beta).
    """
    if not (0.0 < alpha <= beta):
        raise ValueError(f"need 0 < alpha <= beta, got ({alpha}, {beta})")
    ratio = beta / alpha
    k = math.sqrt(ratio) + math.sqrt(ratio - 1.0)
    p_sup = math.inf if k == 1.0 else 2.0 * k / (k - 1.0)
    return EllipticityReport(alpha=alpha, beta=beta, k_beltrami=k, p_sup=p_sup)


# ---------------------------------------------------------------------------
# Sharp lower ellipticity bound of the straightened coefficient.
#
# After the coordinate change by f = u + i*utilde, the transported matrix
# has the triangular shape [[1, b], [0, c]] with c the transported
# determinant and b the transported antisymmetric gap.  Its best constants
# over all admissible (c, b) reduce to a three-variable minimization of
#
#     F(D, H) = (D + 1 - sqrt((D-1)^2 + H)) / 2
#
# over 0 <= D <= 1 and H, T >= 0, subject to the two constraints that the
# original matrix with determinant D, trace T and squared antisymmetric
# gap H stays admissible for distortion K:
#
#     (T - sqrt(T^2 + H - 4D)) / 2    >= 1/K        (lower constant)
#     (T - sqrt(T^2 + H - 4D)) / (2D) >= 1/K        (upper constant)
#
# The closed form for the minimum is 1 - sqrt(1 - 1/K^2).  Printed
# variants of this bound disagree with each other (a sign-flipped value
# 1 + sqrt(1 - 1/K^2), and the objective value 1 - sqrt(1 - 1/K^2)/2 at
# the reference point T = 2/K, D = 1, H = 1 - 1/K^2), so the oracle
# settles the true constrained minimum numerically and reports all three
# candidates side by side rather than silently reconciling them.
#
# The objective does not depend on T, and wherever T - sqrt(T^2 + H - 4D)
# is real it falls as T grows, so the smallest real trace
# t0 = sqrt(max(4D - H, 0)) is the most feasible one for each (D, H).  At
# t0 the lower constant is sqrt(4D - H) where 4D - H >= 0, and not real
# elsewhere, so the search reads it without forming the discriminant.
# ---------------------------------------------------------------------------

# Points per axis of the oracle's (D, H) lattice over [0, 1] x [0, 4].
TAU_ORACLE_GRID = 200

# The oracle's refinement stops once the objective moves, and the D scan
# radius falls, below this.
TAU_ORACLE_REFINE_TOL = 1e-8


@dataclass(frozen=True)
class TauBoundOracleReport:
    """Result of the numerical minimization, with the disagreeing closed forms."""

    k: float
    value: float
    minimizer: tuple[float, float, float]  # (D, H, T)
    closed_form: float
    candidates: dict[str, float]
    agrees_with_closed_form: bool
    note: str


def _tau_objective(d: np.ndarray, h: np.ndarray) -> np.ndarray:
    return 0.5 * (d + 1.0 - np.sqrt((d - 1.0) ** 2 + h))


def _tau_feasible(d: np.ndarray, h: np.ndarray, k: float) -> np.ndarray:
    """Do (D, H) meet both constraints at the smallest real trace sqrt(max(4D - H, 0))?"""
    gap = 4.0 * d - h
    low = np.sqrt(np.maximum(gap, 0.0))  # the lower constant T - sqrt(T^2 + H - 4D) at that trace
    return (gap >= 0.0) & (low >= 2.0 / k - 1e-15) & (low >= 2.0 * d / k - 1e-15)


def tau_bound_oracle(k: float) -> TauBoundOracleReport:
    """Dense grid search plus coordinate refinement for the sharp bound at distortion k.

    Searches (D, H) on a ``TAU_ORACLE_GRID``^2 lattice over [0,1] x [0,4],
    each at the trace that maximizes feasibility, then refines (D, H) by
    shrinking coordinate scans until the objective moves by less than
    ``TAU_ORACLE_REFINE_TOL``.
    """
    if not k >= 1.0:
        raise ValueError(f"distortion must be >= 1, got {k}")
    dd = np.linspace(0.0, 1.0, TAU_ORACLE_GRID)
    hh = np.linspace(0.0, 4.0, TAU_ORACLE_GRID)
    dmesh, hmesh = np.meshgrid(dd, hh, indexing="ij")
    # The lattice corner (D, H) = (1, 0) is feasible for every k, so the minimum is finite.
    vals = np.where(_tau_feasible(dmesh, hmesh, k), _tau_objective(dmesh, hmesh), math.inf)
    idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
    best_val = float(vals[idx])
    d_best, h_best = float(dmesh[idx]), float(hmesh[idx])

    # Coordinate refinement on (D, H), each at its feasibility-maximizing trace.
    d_radius, h_radius = 1.5 / TAU_ORACLE_GRID, 6.0 / TAU_ORACLE_GRID
    for _ in range(200):
        moved = best_val
        ds = np.clip(np.linspace(d_best - d_radius, d_best + d_radius, 41), 0.0, 1.0)
        hs = np.clip(np.linspace(h_best - h_radius, h_best + h_radius, 41), 0.0, 4.0)
        dgrid, hgrid = np.meshgrid(ds, hs, indexing="ij")
        vals = np.where(_tau_feasible(dgrid, hgrid, k), _tau_objective(dgrid, hgrid), math.inf)
        idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
        if vals[idx] < best_val:
            best_val = float(vals[idx])
            d_best, h_best = float(dgrid[idx]), float(hgrid[idx])
        d_radius *= 0.5
        h_radius *= 0.5
        if abs(moved - best_val) < TAU_ORACLE_REFINE_TOL and d_radius < TAU_ORACLE_REFINE_TOL:
            break
    t_best = math.sqrt(max(4.0 * d_best - h_best, 0.0))

    closed = 1.0 - math.sqrt(max(0.0, 1.0 - 1.0 / (k * k)))
    flipped = 1.0 + math.sqrt(max(0.0, 1.0 - 1.0 / (k * k)))
    at_reference = float(_tau_objective(np.array(1.0), np.array(1.0 - 1.0 / (k * k))))
    agrees = abs(best_val - closed) <= 1e-6
    note = (
        "numerical minimum {:.9f} vs closed form {:.9f}; "
        "sign-flipped candidate {:.9f} and reference-point value {:.9f} disagree "
        "with the minimum and are reported, not reconciled".format(
            best_val, closed, flipped, at_reference
        )
    )
    return TauBoundOracleReport(
        k=float(k),
        value=best_val,
        minimizer=(d_best, h_best, t_best),
        closed_form=closed,
        candidates={
            "closed_form": closed,
            "sign_flipped": flipped,
            "at_reference_point": at_reference,
        },
        agrees_with_closed_form=agrees,
        note=note,
    )


def tau_ellipticity_bound(k: float) -> float:
    """Lower ellipticity constant of the straightened coefficient at distortion k.

    The closed form ``1 - sqrt(1 - 1/K^2)``; :func:`tau_bound_oracle` runs the
    constrained minimization and reports the disagreeing printed candidates.
    """
    if k < 1.0:
        raise ValueError(f"distortion must be >= 1, got {k}")
    return 1.0 - math.sqrt(max(0.0, 1.0 - 1.0 / (k * k)))
