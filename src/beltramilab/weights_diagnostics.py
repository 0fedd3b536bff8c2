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

from .grid import DyadicSquare, DyadicSquareSet, write_csv
from .homogenization import CellMap

log = logging.getLogger(__name__)


def _check_positive(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if np.any(w <= 0):
        bad = int(np.argmin(w))
        raise ValueError(f"weight must be positive; element {bad} has value {w[bad]:.3e}")
    return w


def _square_mean(square: DyadicSquare, areas: np.ndarray, values: np.ndarray) -> float:
    e = square.elements
    return float(np.dot(areas[e], values[e]) / square.area)


@dataclass
class SquareStats:
    level: int
    corner: tuple[float, float]
    side: float
    n_elements: int
    mean_w: float
    mean_w2: float
    power_means: dict[float, float]      # exponent 1+theta -> mean of w^(1+theta)
    log_oscillation: float
    too_few: bool
    twice_inside: bool


@dataclass
class SquareStatsTable:
    squares: DyadicSquareSet
    rows: list[SquareStats]
    theta_grid: tuple[float, ...] = ()

    def export_csv(self, path) -> None:
        thetas = list(self.theta_grid)
        header = [
            "square", "level", "corner_x", "corner_y", "side", "n_elements",
            "mean_w", "mean_w2", "log_oscillation", "too_few", "twice_inside",
        ] + [f"mean_w_pow_{1.0 + t}" for t in thetas]
        rows = (
            (
                i, s.level, s.corner[0], s.corner[1], s.side, s.n_elements,
                s.mean_w, s.mean_w2, s.log_oscillation, int(s.too_few), int(s.twice_inside),
                *[s.power_means[1.0 + t] for t in thetas],
            )
            for i, s in enumerate(self.rows)
        )
        write_csv(path, header, rows)


def square_stats(
    w: np.ndarray, squares: DyadicSquareSet, theta_grid: tuple[float, ...] = ()
) -> SquareStatsTable:
    """Per-square area-weighted moments of a positive per-element weight."""
    w = _check_positive(w)
    areas = squares.mesh.areas
    logw = np.log(w)
    rows = []
    for sq in squares.squares:
        if len(sq.elements) == 0:
            rows.append(
                SquareStats(sq.level, tuple(sq.corner.tolist()), sq.side, 0, np.nan, np.nan,
                            {1.0 + t: np.nan for t in theta_grid}, np.nan, True, sq.twice_inside)
            )
            continue
        mean_w = _square_mean(sq, areas, w)
        mean_w2 = _square_mean(sq, areas, w * w)
        powers = {1.0 + t: _square_mean(sq, areas, w ** (1.0 + t)) for t in theta_grid}
        mean_log = _square_mean(sq, areas, logw)
        osc = _square_mean(sq, areas, np.abs(logw - mean_log))
        rows.append(
            SquareStats(sq.level, tuple(sq.corner.tolist()), sq.side, len(sq.elements),
                        mean_w, mean_w2, powers, osc, sq.too_few, sq.twice_inside)
        )
    return SquareStatsTable(squares=squares, rows=rows, theta_grid=tuple(theta_grid))


def bmo_norm(w: np.ndarray, squares: DyadicSquareSet) -> float:
    """Largest mean oscillation of log w over the admissible squares."""
    w = _check_positive(w)
    areas = squares.mesh.areas
    logw = np.log(w)
    best = 0.0
    for sq in squares.admissible():
        mean_log = _square_mean(sq, areas, logw)
        osc = _square_mean(sq, areas, np.abs(logw - mean_log))
        best = max(best, osc)
    return best


def reverse_holder_constant(
    w: np.ndarray, squares: DyadicSquareSet, exponent: float
) -> float:
    """Sup over admissible squares of (mean of w^p)^(1/p) / (mean of w).

    Always >= 1 by the power-mean inequality, with equality only for
    square-constant weights.  For exponent 2 the supremum runs over the
    squares whose concentric double stays inside the domain, matching the
    interior-margin hypothesis of the adjoint-equation bound.
    """
    if exponent <= 1.0:
        raise ValueError("exponent must exceed 1")
    w = _check_positive(w)
    areas = squares.mesh.areas
    restrict = exponent == 2.0
    best = 0.0
    for sq in squares.admissible(require_twice_inside=restrict):
        mean_w = _square_mean(sq, areas, w)
        mean_p = _square_mean(sq, areas, w ** exponent)
        best = max(best, mean_p ** (1.0 / exponent) / mean_w)
    return best


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


def random_subset_sampler(seed: int, fractions=(1 / 16, 1 / 8, 1 / 4, 1 / 2, 3 / 4), repeats: int = 3):
    """Sampler producing random element sub-collections at the given area fractions."""
    from .coefficients import rng_from_seed

    rng = rng_from_seed(seed)

    def sample(square: DyadicSquare):
        out = []
        n = len(square.elements)
        for frac in fractions:
            k = max(1, round(frac * n))
            if k > n:
                continue
            for _ in range(repeats):
                out.append(np.sort(rng.choice(square.elements, size=k, replace=False)))
        out.append(square.elements)
        return out

    return sample


def extreme_subset_sampler(w: np.ndarray, fractions=(1 / 8, 1 / 4, 1 / 2)):
    """Sampler enumerating the exact extreme subsets (largest/smallest weight first)."""
    w = np.asarray(w, dtype=float)

    def sample(square: DyadicSquare):
        order = square.elements[np.argsort(w[square.elements], kind="stable")]
        n = len(order)
        out = []
        for frac in fractions:
            k = max(1, round(frac * n))
            out.append(np.sort(order[:k]))
            out.append(np.sort(order[n - k:]))
        out.append(square.elements)
        return out

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
    keys = np.round(lt, 12)
    uniq = np.unique(keys)
    pts_x, pts_y = [], []
    for k in uniq:
        mask = keys == k
        pts_x.append(k)
        pts_y.append(lr[mask].max() if upper else lr[mask].min())
    pts_x = np.asarray(pts_x)
    pts_y = np.asarray(pts_y)
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

    ``subset_sampler(square)`` returns element-index arrays E inside the
    square; for each the probe records (|E|/|P|, mass(E)/mass(P)) with the
    discrete measures.  By construction the fitted envelopes bracket every
    sample; this is checked post-fit and a miss raises ``RuntimeError``.
    """
    w = _check_positive(w)
    areas = squares.mesh.areas
    t_all, r_all = [], []
    for sq in squares.admissible():
        mass_p = float(np.dot(areas[sq.elements], w[sq.elements]))
        for subset in subset_sampler(sq):
            subset = np.asarray(subset, dtype=np.int64)
            if len(subset) == 0:
                continue
            t = float(areas[subset].sum() / sq.area)
            r = float(np.dot(areas[subset], w[subset]) / mass_p)
            if t <= 0 or r <= 0:
                continue
            t_all.append(t)
            r_all.append(r)
    if not t_all:
        raise ValueError("degenerate sampler: produced no non-empty subsets")
    t_arr = np.asarray(t_all)
    r_arr = np.asarray(r_all)
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
    cell: CellMap, E: np.ndarray, P: DyadicSquare, fit: AinftyFit
) -> QuantitativeCheck:
    """Test one (E, P) pair against the fitted lower comparability envelope.

    lhs integrates det DU / det A over E; rhs_shape is the area-fraction
    power times the same integral over P, with the exponent taken from the
    lower-envelope fit.  E must consist of elements of P.
    """
    det_a = float(np.linalg.det(cell.A))
    if det_a == 0.0:
        raise ValueError("affine part is singular")
    mesh = cell.U.mesh
    areas = mesh.areas
    E = np.asarray(E, dtype=np.int64)
    if not np.isin(E, P.elements).all():
        raise ValueError("E must be a sub-collection of the square's elements")
    w = cell.U.det_DU / det_a
    lhs = float(np.dot(areas[E], w[E]))
    mass_p = float(np.dot(areas[P.elements], w[P.elements]))
    t = float(areas[E].sum() / P.area)
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


def higher_integrability_probe(
    gradient_fields: list[tuple[int, "np.ndarray", "np.ndarray"]],
    p_list,
    p_critical: float,
    margin: float = 1 / 8,
) -> list[IntegrabilityRow]:
    """Interior L^p means of |grad u| per resolution.

    ``gradient_fields`` holds (resolution, mesh, per-element gradient)
    triples; only elements with barycenter at distance >= margin from the
    domain edge enter the norms.  Rows annotate each p against
    ``p_critical``.
    """
    rows = []
    for resolution, mesh, grad in gradient_fields:
        bary = mesh.barycenters
        lo = mesh.vertices.min(axis=0) + margin
        hi = mesh.vertices.max(axis=0) - margin
        mask = np.all((bary >= lo) & (bary <= hi), axis=1)
        areas = mesh.areas[mask]
        mag = np.linalg.norm(grad[mask], axis=1)
        total = areas.sum()
        for p in p_list:
            norm = float((np.dot(areas, mag ** p) / total) ** (1.0 / p))
            rows.append(IntegrabilityRow(resolution, float(p), norm, bool(p >= p_critical)))
    return rows
