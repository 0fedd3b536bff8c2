"""Empirical BMO, reverse-Hoelder, and scale-uniform weight diagnostics.

All square statistics use the discrete measure (sums of member triangle
areas), so every integral is exact for per-element fields.  Squares
flagged as sub-resolution are excluded from suprema: they contribute
quadrature noise, not information about the weight.  Envelope constants
are fitted as maximal-ratio hulls in log-log coordinates -- the targets
are uniform inequalities, so the envelope, not the mean trend, is the
object; the constants are empirical fits and labeled as such.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .grid import MIN_ELEMENTS_PER_SQUARE, DyadicSquareSet, block_dots, integrate, row_blocks, row_dots, write_csv
from .homogenization import CellMap

log = logging.getLogger(__name__)

# The diagnose protocol, fixed: square statistics hold the power means of w^(1 + theta) for each
# theta of THETA_GRID; the random envelope sampler draws REPEATS subsets per square at each of
# RANDOM_FRACTIONS, and the extreme one takes the lightest and heaviest members at EXTREME_FRACTIONS.
THETA_GRID = (0.5, 1.0)
RANDOM_FRACTIONS = (1 / 16, 1 / 8, 1 / 4, 1 / 2, 3 / 4)
EXTREME_FRACTIONS = (1 / 8, 1 / 4, 1 / 2)
REPEATS = 3


def _check_positive(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if np.any(w <= 0):
        bad = int(np.argmin(w))
        raise ValueError(f"weight must be positive; element {bad} has value {w[bad]:.3e}")
    return w


def _square_means(squares: DyadicSquareSet, fields, shift=None) -> np.ndarray:
    """Area means of per-element fields over each square (see ``row_dots``); nan if it is empty."""
    sums = row_dots(squares.members, squares.offsets, squares.mesh.areas, fields, shift)
    with np.errstate(invalid="ignore"):
        return sums / squares.area


@dataclass
class SquareStatsTable:
    """Per-square moments of a weight, one column per statistic, in the order of ``squares``."""

    squares: DyadicSquareSet
    mean_w: np.ndarray
    mean_w2: np.ndarray
    power_means: dict[float, np.ndarray]   # exponent 1+theta -> per-square mean of w^(1+theta)
    log_oscillation: np.ndarray

    def export_csv(self, path) -> None:
        sq = self.squares
        columns = {
            "level": sq.level, "corner_x": sq.corner[:, 0], "corner_y": sq.corner[:, 1],
            "side": sq.side, "n_elements": np.diff(sq.offsets), "mean_w": self.mean_w,
            "mean_w2": self.mean_w2, "log_oscillation": self.log_oscillation,
            "too_few": sq.too_few.astype(int), "twice_inside": sq.twice_inside.astype(int),
            **{f"mean_w_pow_{p}": mean for p, mean in self.power_means.items()},
        }
        rows = zip(range(len(sq)), *(c.tolist() for c in columns.values()))
        write_csv(path, ["square", *columns], rows)


def square_stats(w: np.ndarray, squares: DyadicSquareSet) -> SquareStatsTable:
    """Per-square area-weighted moments of a positive per-element weight.

    The power means are those of w^(1 + theta) for each theta of ``THETA_GRID``.
    """
    w = _check_positive(w)
    exponents = [1.0 + t for t in THETA_GRID]
    logw = np.log(w)
    fields = np.vstack([w, w * w, logw, *[w ** p for p in exponents]])
    mean_w, mean_w2, mean_log, *powers = _square_means(squares, fields)
    return SquareStatsTable(
        squares=squares, mean_w=mean_w, mean_w2=mean_w2, power_means=dict(zip(exponents, powers)),
        log_oscillation=_square_means(squares, logw, shift=mean_log),
    )


def bmo_norm(w: np.ndarray, squares: DyadicSquareSet) -> float:
    """Largest mean oscillation of log w over the admissible squares."""
    osc = square_stats(w, squares).log_oscillation
    return float(np.max(osc[squares.admissible()], initial=0.0))


def reverse_holder_constant(w: np.ndarray, squares: DyadicSquareSet) -> float:
    """Sup over the admissible twice-inside squares of sqrt(mean of w^2) / (mean of w).

    The exponent-2 reverse-Hoelder constant: always >= 1 by the power-mean
    inequality, with equality only for square-constant weights.  The
    supremum runs over the admissible squares whose concentric double stays
    inside the domain, matching the interior-margin hypothesis of the
    adjoint-equation bound.  With no such square the supremum is undefined
    and ``ValueError`` is raised.
    """
    w = _check_positive(w)
    rows = squares.admissible(require_twice_inside=True)
    if len(rows) == 0:
        raise ValueError(
            f"reverse-Hoelder constant undefined: no admissible twice-inside square among the "
            f"{len(squares)} dyadic squares (admissible: at least {MIN_ELEMENTS_PER_SQUARE} elements)"
        )
    mean_w, mean_w2 = _square_means(squares, np.vstack([w, w * w]))[:, rows]
    return float(np.max(np.sqrt(mean_w2) / mean_w))


# ---------------------------------------------------------------------------
# Scale-uniform comparability probes
# ---------------------------------------------------------------------------


@dataclass
class AinftyFit:
    """Empirical envelope constants for subset-mass vs subset-area comparability.

    Upper: mass fraction <= C (area fraction)^delta for every sample.
    Lower: mass fraction >= M (area fraction)^eta  for every sample.
    Constants are empirical fits (maximal-ratio hulls), not certified.
    """

    c_upper: float
    delta: float
    m_lower: float
    eta: float
    area_fractions: np.ndarray = field(repr=False)
    mass_fractions: np.ndarray = field(repr=False)

    @property
    def n_samples(self) -> int:
        return len(self.area_fractions)


def random_subset_sampler(seed: int):
    """Sampler of uniformly random sub-collections of squares at the area fractions ``RANDOM_FRACTIONS``.

    ``sample(members, offsets, rows)`` draws, for each square s in ``rows``
    (non-empty rows of the CSR member table) with n members and for each
    fraction f, ``REPEATS`` uniform k-subsets of its members with
    k = max(1, round(f * n)), then adds the full row.  It yields pieces
    ``(owner, subsets)``: row i of the (R, k) array ``subsets`` (ascending)
    belongs to square ``owner[i]``.  Squares of one length are drawn as one
    block (see ``grid.row_blocks``): per fraction one piece, from one
    ``rng.random((G, REPEATS, n))`` draw of keys, of which the k smallest per
    row pick the subset, square by square, repeat by repeat; each block ends
    with the piece of its full rows.  The sampler owns one Philox stream from
    ``seed``, so a fresh sampler yields the same pieces on every run.
    """
    from .coefficients import rng_from_seed

    rng = rng_from_seed(seed)

    def sample(members: np.ndarray, offsets: np.ndarray, rows: np.ndarray):
        for sel, idx in row_blocks(members, offsets, rows):
            g, n = idx.shape
            for frac in RANDOM_FRACTIONS:
                k = max(1, round(frac * n))
                keys = rng.random((g, REPEATS, n))
                pos = np.sort(np.argpartition(keys, k - 1, axis=-1)[..., :k], axis=-1)
                picked = np.take_along_axis(idx[:, None, :], pos, axis=-1)
                yield np.repeat(sel, REPEATS), picked.reshape(g * REPEATS, k)
            yield sel, idx

    return sample


def extreme_subset_sampler(w: np.ndarray):
    """Sampler of the exact extreme subsets (smallest/largest weight first) of squares.

    Same protocol as ``random_subset_sampler``: for each square in ``rows``
    and each fraction f of ``EXTREME_FRACTIONS``, the k = max(1, round(f * n))
    members of smallest weight, then the k of largest weight (ties broken by
    a stable ``argsort`` of w per block), then the full row.
    """
    w = np.asarray(w, dtype=float)

    def sample(members: np.ndarray, offsets: np.ndarray, rows: np.ndarray):
        for sel, idx in row_blocks(members, offsets, rows):
            n = idx.shape[1]
            order = np.take_along_axis(idx, np.argsort(w[idx], axis=-1, kind="stable"), axis=-1)
            for frac in EXTREME_FRACTIONS:
                k = max(1, round(frac * n))
                yield sel, np.sort(order[:, :k], axis=-1)
                yield sel, np.sort(order[:, n - k:], axis=-1)
            yield sel, idx

    return sample


def _envelope_fit(t: np.ndarray, r: np.ndarray, upper: bool) -> tuple[float, float]:
    """Fit r <=/>= const * t^slope as a hull in log-log coordinates.

    The slope comes from a regression through the per-fraction envelope
    points (max or min mass fraction at each distinct area fraction); the
    constant then shifts the line until it dominates (or is dominated by)
    every sample.
    """
    lt = np.log(t)
    lr = np.log(r)
    pts_x, group = np.unique(np.round(lt, 12), return_inverse=True)
    pts_y = np.full(len(pts_x), -np.inf if upper else np.inf)
    (np.maximum if upper else np.minimum).at(pts_y, group, lr)
    interior = pts_x < -1e-12  # the t = 1 point pins the constant, not the slope
    if interior.sum() >= 2:
        slope = float(np.polyfit(pts_x[interior], pts_y[interior], 1)[0])
    elif interior.sum() == 1:
        slope = float(pts_y[interior][0] / pts_x[interior][0])
    else:
        raise ValueError("degenerate sampler: need samples at area fractions below 1")
    slope = max(slope, 1e-12)
    if upper:
        const = float(np.exp(np.max(lr - slope * lt)))
    else:
        const = float(np.exp(np.min(lr - slope * lt)))
    return const, slope


def ainfty_probe(w: np.ndarray, squares: DyadicSquareSet, subset_sampler) -> AinftyFit:
    """Fit both comparability envelopes from sampled subsets of admissible squares.

    ``subset_sampler(members, offsets, rows)`` takes the CSR member table of
    ``squares`` and the admissible square indices, and yields pieces
    ``(owner, subsets)`` of element subsets E, each row inside its square
    P = ``owner[i]`` (see ``random_subset_sampler``).  Each piece is reduced
    by ``grid.block_dots`` as it comes to the samples (|E|/|P|,
    mass(E)/mass(P)) with the discrete measures, in piece order.  By
    construction the fitted envelopes bracket every sample; this is checked
    post-fit and a miss raises ``RuntimeError``.
    """
    w = _check_positive(w)
    areas = squares.mesh.areas
    mass = row_dots(squares.members, squares.offsets, areas, w)
    t_parts, r_parts = [np.zeros(0)], [np.zeros(0)]
    for owner, subsets in subset_sampler(squares.members, squares.offsets, squares.admissible()):
        t_parts.append(block_dots(areas, subsets) / squares.area[owner])
        r_parts.append(block_dots(areas, subsets, w) / mass[owner])
    t, r = np.concatenate(t_parts), np.concatenate(r_parts)
    keep = ~((t <= 0) | (r <= 0))  # empty subsets have t = 0
    if not keep.any():
        raise ValueError("degenerate sampler: produced no non-empty subsets")
    t_arr, r_arr = t[keep], r[keep]
    c_upper, delta = _envelope_fit(t_arr, r_arr, upper=True)
    m_lower, eta = _envelope_fit(t_arr, r_arr, upper=False)
    if not np.all(r_arr <= c_upper * t_arr ** delta * (1.0 + 1e-9)):
        raise RuntimeError(
            f"upper envelope C t^delta (C={c_upper:.6g}, delta={delta:.6g}) misses a sample"
        )
    if not np.all(r_arr >= m_lower * t_arr ** eta * (1.0 - 1e-9)):
        raise RuntimeError(
            f"lower envelope m t^eta (m={m_lower:.6g}, eta={eta:.6g}) misses a sample"
        )
    return AinftyFit(
        c_upper=c_upper, delta=delta, m_lower=m_lower, eta=eta,
        area_fractions=t_arr, mass_fractions=r_arr,
    )


@dataclass
class QuantitativeCheck:
    lhs: float          # normalized Jacobian mass of E
    rhs_shape: float    # (|E|/|P|)^exponent times the normalized mass of P
    constant: float     # lhs / rhs_shape, the empirical constant for this (E, P)
    passes: bool        # respects the fitted lower envelope


def quantitative_jacobian_check(
    cell: CellMap, E: np.ndarray, P: np.ndarray, fit: AinftyFit
) -> QuantitativeCheck:
    """Test one (E, P) pair against the fitted lower comparability envelope.

    ``P`` is a square's element array (``DyadicSquareSet.elements``) and
    ``E`` a sub-collection of it.  lhs integrates det DU / det A over E;
    rhs_shape is the area-fraction power times the same integral over P,
    with the exponent taken from the lower-envelope fit.
    """
    det_a = float(np.linalg.det(cell.A))
    if det_a == 0.0:
        raise ValueError("affine part is singular")
    mesh = cell.U.mesh
    E = np.asarray(E, dtype=np.int64)
    P = np.asarray(P, dtype=np.int64)
    if not np.isin(E, P).all():
        raise ValueError("E must be a sub-collection of the square's elements")
    w = cell.U.det_DU / det_a
    lhs = float(integrate(mesh, w, E))
    mass_p = float(integrate(mesh, w, P))
    t = float(mesh.areas[E].sum() / mesh.areas[P].sum())
    rhs_shape = (t ** fit.eta) * mass_p
    constant = lhs / rhs_shape if rhs_shape != 0 else np.inf
    passes = lhs >= fit.m_lower * rhs_shape * (1.0 - 1e-9)
    if not passes:
        log.warning(
            "quantitative check violated the fitted envelope: lhs=%.6g < %.6g",
            lhs, fit.m_lower * rhs_shape,
        )
    return QuantitativeCheck(lhs=lhs, rhs_shape=rhs_shape, constant=constant, passes=passes)


@dataclass
class IntegrabilityRow:
    resolution: int
    p: float
    norm: float
    above_critical: bool  # p >= the critical exponent of the ellipticity report


# Distance from the domain's bounding box, as a share of its longer side,
# inside which elements are left out of the interior L^p norms.
INTERIOR_MARGIN = 1 / 8


def higher_integrability_probe(
    resolution: int, mesh, grad: np.ndarray, p_critical: float
) -> list[IntegrabilityRow]:
    """Interior L^p means of |grad u|, one row each at p = 2 and p = ``p_critical`` / 2.

    An infinite ``p_critical`` gives p = 4 in place of its half.  ``grad``
    is the per-element gradient on ``mesh``, and ``resolution`` labels the
    rows.  Only elements with barycenter at distance >= ``INTERIOR_MARGIN``
    times the longer side of the domain's bounding box from that box enter
    the norms.  Rows annotate each p against ``p_critical``.
    """
    bary = mesh.barycenters
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    margin = INTERIOR_MARGIN * float(np.max(hi - lo))
    mask = np.all((bary >= lo + margin) & (bary <= hi - margin), axis=1)
    mag = np.linalg.norm(grad, axis=1)
    total = mesh.areas[mask].sum()
    rows = []
    for p in (2.0, 0.5 * p_critical if np.isfinite(p_critical) else 4.0):
        norm = float((integrate(mesh, mag ** p, mask) / total) ** (1.0 / p))
        rows.append(IntegrabilityRow(resolution, float(p), norm, bool(p >= p_critical)))
    return rows
