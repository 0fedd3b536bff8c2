import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltramilab import weights_diagnostics
from beltramilab.coefficients import checkerboard_field, random_piecewise_field, rng_from_seed
from beltramilab.grid import build_periodic_cell, build_regular_ngon, build_unit_square, dyadic_squares, row_dots
from beltramilab.homogenization import cell_map
from beltramilab.sigma_harmonic import change_coordinates, primary_pair
from beltramilab.weights_diagnostics import (
    ainfty_probe,
    bmo_norm,
    extreme_subset_sampler,
    higher_integrability_probe,
    quantitative_jacobian_check,
    random_subset_sampler,
    reverse_holder_constant,
    square_stats,
)


@pytest.fixture(scope="module")
def square_mesh():
    return build_unit_square(32)


@pytest.fixture(scope="module")
def squares(square_mesh):
    return dyadic_squares(square_mesh, 3)


class TestBmoNorm:
    def test_constant_weight(self, square_mesh, squares):
        assert bmo_norm(np.ones(square_mesh.n_triangles), squares) == 0.0

    def test_two_value_closed_form(self, square_mesh, squares):
        # log w in {0, 1} split at the top-level dyadic line: the only square
        # with nonzero oscillation is the whole domain, where it equals 1/2
        w = np.where(square_mesh.barycenters[:, 0] < 0.5, 1.0, math.e)
        assert abs(bmo_norm(w, squares) - 0.5) < 1e-12

    def test_scale_invariance(self, square_mesh, squares):
        rng = rng_from_seed(0)
        w = np.exp(rng.normal(size=square_mesh.n_triangles))
        assert abs(bmo_norm(17.3 * w, squares) - bmo_norm(w, squares)) < 1e-12

    def test_nonpositive_weight_rejected(self, square_mesh, squares):
        w = np.ones(square_mesh.n_triangles)
        w[5] = 0.0
        with pytest.raises(ValueError, match="element 5"):
            bmo_norm(w, squares)

    def test_checkerboard_pair_stable_under_refinement(self):
        values = []
        for n in (32, 64):
            m = build_unit_square(n)
            _, _, U = primary_pair(checkerboard_field(m, 1.0, 4.0))
            values.append(bmo_norm(U.det_DU, dyadic_squares(m, 4)))
        assert values[1] < 2.0 * values[0]
        assert values[0] < 2.0 * values[1]


class TestReverseHolder:
    def test_constant_weight(self, square_mesh, squares):
        assert reverse_holder_constant(np.ones(square_mesh.n_triangles), squares) == 1.0

    def test_two_value_closed_form(self, square_mesh, squares):
        # values 1 and 3 split at x = 3/8: every double-inside square is
        # either one-sided or exactly half-half, so the supremum is
        # sqrt((1+9)/2)/2 = sqrt(5)/2
        w = np.where(square_mesh.barycenters[:, 0] < 0.375, 1.0, 3.0)
        rh = reverse_holder_constant(w, squares)
        assert abs(rh - math.sqrt(5.0) / 2.0) < 1e-12

    def test_jensen_direction(self, square_mesh, squares):
        rng = rng_from_seed(1)
        w = np.exp(rng.normal(size=square_mesh.n_triangles))
        assert reverse_holder_constant(w, squares) >= 1.0

    def test_only_twice_inside_squares_enter(self, square_mesh, squares):
        # a weight that varies only off the twice-inside squares leaves the constant at 1
        rows = squares.admissible(require_twice_inside=True)
        inside = np.zeros(square_mesh.n_triangles, dtype=bool)
        for s in rows:
            inside[squares.elements(s)] = True
        assert 0 < inside.sum() < square_mesh.n_triangles
        w = np.where(inside, 1.0, np.exp(rng_from_seed(5).normal(size=square_mesh.n_triangles)))
        assert reverse_holder_constant(w, squares) == 1.0
        everywhere = [math.sqrt(np.mean(w[squares.elements(s)] ** 2)) / np.mean(w[squares.elements(s)])
                      for s in squares.admissible()]
        assert max(everywhere) > 1.0

    def test_scale_invariance(self, square_mesh, squares):
        w = np.exp(rng_from_seed(6).normal(size=square_mesh.n_triangles))
        assert reverse_holder_constant(17.3 * w, squares) == pytest.approx(reverse_holder_constant(w, squares),
                                                                           rel=1e-12)

    def test_no_twice_inside_square_rejected(self):
        # resolution 4 at max_level 1: the level-1 squares hold 8 elements but
        # their doubles leave the domain, and the reference square has no double
        m = build_unit_square(4)
        ds = dyadic_squares(m, 1)
        assert len(ds.admissible()) > 0 and len(ds.admissible(require_twice_inside=True)) == 0
        with pytest.raises(ValueError, match="no admissible twice-inside square"):
            reverse_holder_constant(np.ones(m.n_triangles), ds)


class TestAinftyProbe:
    def test_trivial_weight(self, square_mesh, squares):
        fit = ainfty_probe(
            np.ones(square_mesh.n_triangles), squares, random_subset_sampler(seed=3)
        )
        assert fit.c_upper == pytest.approx(1.0, abs=1e-12)
        assert fit.delta == pytest.approx(1.0, abs=1e-12)
        assert fit.m_lower == pytest.approx(1.0, abs=1e-12)
        assert fit.eta == pytest.approx(1.0, abs=1e-12)

    def test_two_value_extremes_closed_form(self, square_mesh):
        # extreme subsets of the half-half split square: mass ratios are
        # exactly (w_max / mean) * t and (w_min / mean) * t for t <= 1/2
        w = np.where(square_mesh.barycenters[:, 0] < 0.5, 1.0, 3.0)
        top = dyadic_squares(square_mesh, 0)
        fit = ainfty_probe(w, top, extreme_subset_sampler(w))
        assert fit.delta == pytest.approx(1.0, abs=1e-12)
        assert fit.eta == pytest.approx(1.0, abs=1e-12)
        assert fit.c_upper == pytest.approx(1.5, abs=1e-12)
        assert fit.m_lower == pytest.approx(0.5, abs=1e-12)

    def test_envelopes_bracket_all_samples(self, square_mesh, squares):
        rng = rng_from_seed(2)
        w = np.exp(rng.normal(size=square_mesh.n_triangles))
        fit = ainfty_probe(w, squares, random_subset_sampler(seed=4))
        t, r = fit.area_fractions, fit.mass_fractions
        assert np.all(r <= fit.c_upper * t ** fit.delta * (1 + 1e-9))
        assert np.all(r >= fit.m_lower * t ** fit.eta * (1 - 1e-9))

    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_envelope_miss_raises(self, square_mesh, squares, monkeypatch, side):
        fit = weights_diagnostics._envelope_fit

        def shifted(t, r, upper):
            # move one fitted envelope inside the samples
            const, slope = fit(t, r, upper)
            if upper == (side == "upper"):
                const *= 0.5 if upper else 2.0
            return const, slope

        monkeypatch.setattr(weights_diagnostics, "_envelope_fit", shifted)
        w = np.exp(rng_from_seed(2).normal(size=square_mesh.n_triangles))
        with pytest.raises(RuntimeError, match=f"{side} envelope"):
            ainfty_probe(w, squares, random_subset_sampler(seed=4))

    def test_degenerate_sampler_rejected(self, square_mesh, squares):
        def no_pieces(members, offsets, rows):
            yield from ()

        with pytest.raises(ValueError, match="no non-empty subsets"):
            ainfty_probe(np.ones(square_mesh.n_triangles), squares, no_pieces)

    def test_periodic_jacobian_fit_stable(self):
        fits = []
        for n in (32, 64):
            m = build_periodic_cell(n)
            sig = random_piecewise_field(m, 5.0, 4, seed=5)
            cm = cell_map(sig, np.eye(2))
            fits.append(
                ainfty_probe(cm.U.det_DU, dyadic_squares(m, 3), random_subset_sampler(seed=6))
            )
        for attr in ("c_upper", "delta", "m_lower", "eta"):
            a, b = getattr(fits[0], attr), getattr(fits[1], attr)
            assert a < 2.0 * b and b < 2.0 * a


# The diagnose protocol's fixed sampler settings, written out for the references below.
FRACTIONS = (1 / 16, 1 / 8, 1 / 4, 1 / 2, 3 / 4)
EXTREME_FRACTIONS = (1 / 8, 1 / 4, 1 / 2)
REPEATS = 3


def _csr(lengths):
    """A CSR member table with rows of the given lengths over distinct, ascending elements."""
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    return 3 * np.arange(offsets[-1], dtype=np.int64) + 1, offsets


# ---------------------------------------------------------------------------
# Reference: the subsets as one packed CSR table, drawn square by square.
# ---------------------------------------------------------------------------


def packed_table(pieces):
    """CSR table ``(members, offsets, owner)`` of ``(owner (R,), subsets (R, k))`` pieces, in order."""
    pieces = list(pieces)
    owner = np.concatenate([np.zeros(0, np.int64), *(o for o, _ in pieces)])
    lengths = np.concatenate([np.zeros(0, np.int64), *(np.full(len(o), e.shape[1]) for o, e in pieces)])
    members = np.concatenate([np.zeros(0, np.int64), *(e.ravel() for _, e in pieces)])
    return members, np.concatenate([[0], np.cumsum(lengths)]), owner


def _length_blocks(offsets, rows):
    """The squares of ``rows`` grouped by length, ascending, each group in the order of ``rows``."""
    lengths = np.diff(offsets)
    return [(n, [s for s in rows if lengths[s] == n]) for n in sorted(set(lengths[rows].tolist()))]


def reference_random_table(seed, members, offsets, rows):
    """``random_subset_sampler`` as one table: the same key draws, each subset picked by a full argsort."""
    rng = rng_from_seed(seed)
    pieces = []
    for n, block in _length_blocks(offsets, rows):
        for frac in FRACTIONS:
            k = max(1, round(frac * n))
            keys = rng.random((len(block), REPEATS, n))
            for s, square_keys in zip(block, keys):
                for row_keys in square_keys:
                    pieces.append(([s], members[offsets[s] + np.sort(np.argsort(row_keys)[:k])][None]))
        pieces += [([s], members[offsets[s] : offsets[s + 1]][None]) for s in block]
    return packed_table((np.array(o, np.int64), e) for o, e in pieces)


def reference_extreme_table(w, members, offsets, rows):
    """``extreme_subset_sampler`` as one table, square by square."""
    pieces = []
    for n, block in _length_blocks(offsets, rows):
        for frac in EXTREME_FRACTIONS:
            k = max(1, round(frac * n))
            for part in (slice(0, k), slice(n - k, n)):
                for s in block:
                    e = members[offsets[s] : offsets[s + 1]]
                    pieces.append(([s], np.sort(e[np.argsort(w[e], kind="stable")][part])[None]))
        pieces += [([s], members[offsets[s] : offsets[s + 1]][None]) for s in block]
    return packed_table((np.array(o, np.int64), e) for o, e in pieces)


class TestSubsetSamplers:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        lengths=st.lists(st.integers(0, 40), min_size=1, max_size=12),
        pick=st.lists(st.booleans(), min_size=12, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_rows_are_k_subsets_of_their_square(self, lengths, pick, seed):
        members, offsets = _csr(lengths)
        rows = np.array([i for i, n in enumerate(lengths) if n > 0 and pick[i]], dtype=np.int64)
        counts = {}
        for owner, subsets in random_subset_sampler(seed)(members, offsets, rows):
            assert subsets.ndim == 2 and len(subsets) == len(owner)
            for s, row in zip(owner, subsets):
                square = members[offsets[s] : offsets[s + 1]]
                assert np.all(np.diff(row) > 0)          # distinct and ascending
                assert np.isin(row, square).all()
                counts[s, len(row)] = counts.get((s, len(row)), 0) + 1
        expected = {}
        for s in rows:
            n = lengths[s]
            for frac in FRACTIONS:
                k = max(1, round(frac * n))
                expected[s, k] = expected.get((s, k), 0) + REPEATS
            expected[s, n] = expected.get((s, n), 0) + 1   # the full row
        assert counts == expected

    def test_seed_fixes_the_pieces(self, squares):
        draws = [list(random_subset_sampler(seed)(squares.members, squares.offsets, squares.admissible()))
                 for seed in (21, 21, 22)]
        assert len(draws[0]) == len(draws[1]) == len(draws[2])
        for (o21, e21), (o21b, e21b), (o22, e22) in zip(*draws):
            assert np.array_equal(o21, o21b) and np.array_equal(e21, e21b)
            assert np.array_equal(o21, o22) and e21.shape == e22.shape
        assert not all(np.array_equal(a[1], b[1]) for a, b in zip(draws[0], draws[2]))

    @pytest.mark.parametrize("build", [build_unit_square, build_periodic_cell],
                             ids=["unit_square", "periodic_cell"])
    def test_pieces_pack_into_the_reference_table(self, build):
        mesh = build(32)
        ds = dyadic_squares(mesh, 4)
        rows = ds.admissible()
        w = np.exp(rng_from_seed(15).normal(size=mesh.n_triangles))
        for seed in (0, 13):
            got = packed_table(random_subset_sampler(seed)(ds.members, ds.offsets, rows))
            want = reference_random_table(seed, ds.members, ds.offsets, rows)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        got = packed_table(extreme_subset_sampler(w)(ds.members, ds.offsets, rows))
        want = reference_extreme_table(w, ds.members, ds.offsets, rows)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_inclusion_frequencies_binomial(self):
        # 400 copies each of a 10- and a 7-element square: every element of a
        # k-subset draw is included with probability k / n
        members = np.concatenate([np.tile(np.arange(10), 400), np.tile(np.arange(10, 17), 400)])
        offsets = np.concatenate([np.arange(0, 4001, 10), 4000 + np.arange(7, 2801, 7)])
        rows = np.arange(800)
        picked = {}   # (square length n, subset size k) -> the subsets drawn
        for owner, subsets in random_subset_sampler(31)(members, offsets, rows):
            n = 10 if owner[0] < 400 else 7
            assert np.all((owner < 400) == (n == 10))
            picked.setdefault((n, subsets.shape[1]), []).append(subsets)
        for n, base in ((10, 0), (7, 10)):
            ks = [max(1, round(frac * n)) for frac in FRACTIONS]
            for k in set(ks):
                drawn = np.concatenate(picked[n, k])
                trials = 400 * REPEATS * ks.count(k)
                assert len(drawn) == trials
                p = k / n
                hits = np.bincount(drawn.ravel() - base, minlength=n)
                assert len(hits) == n
                assert np.all(np.abs(hits - trials * p) <= 6 * math.sqrt(trials * p * (1 - p)))

    def test_extreme_rows(self, square_mesh, squares):
        w = np.exp(rng_from_seed(14).normal(size=square_mesh.n_triangles))
        rows = squares.admissible()
        got = {s: [] for s in rows}
        for owner, subsets in extreme_subset_sampler(w)(squares.members, squares.offsets, rows):
            for s, row in zip(owner, subsets):
                got[s].append(row)
        for s in rows:
            e = squares.elements(s)
            order = e[np.argsort(w[e], kind="stable")]
            want = []
            for frac in EXTREME_FRACTIONS:
                k = max(1, round(frac * len(e)))
                want += [np.sort(order[:k]), np.sort(order[len(e) - k:])]
            assert len(got[s]) == len(want) + 1 and np.array_equal(got[s][-1], e)
            assert all(np.array_equal(a, b) for a, b in zip(got[s], want))


    @pytest.mark.parametrize("name", ["RANDOM_FRACTIONS", "EXTREME_FRACTIONS"])
    def test_protocol_fractions_inside_unit_interval(self, name):
        # every fraction draws a proper, non-empty subset of a large square
        fractions = getattr(weights_diagnostics, name)
        assert fractions == tuple(sorted(set(fractions)))
        assert all(0.0 < f < 1.0 for f in fractions)


class TestProbeAgainstPackedTable:
    @pytest.mark.parametrize("sampler", ["random", "extreme"])
    @pytest.mark.parametrize("build", [build_unit_square, build_periodic_cell],
                             ids=["unit_square", "periodic_cell"])
    def test_fit_bit_equal(self, build, sampler):
        # the reference reduces the whole packed table with row_dots, which regroups its rows by length
        mesh = build(32)
        ds = dyadic_squares(mesh, 4)
        w = np.exp(rng_from_seed(16).normal(size=mesh.n_triangles))
        rows, areas = ds.admissible(), mesh.areas
        if sampler == "random":
            fit = ainfty_probe(w, ds, random_subset_sampler(17))
            members, offsets, owner = reference_random_table(17, ds.members, ds.offsets, rows)
        else:
            fit = ainfty_probe(w, ds, extreme_subset_sampler(w))
            members, offsets, owner = reference_extreme_table(w, ds.members, ds.offsets, rows)
        t = row_dots(members, offsets, areas) / ds.area[owner]
        r = row_dots(members, offsets, areas, w) / row_dots(ds.members, ds.offsets, areas, w)[owner]
        assert fit.area_fractions.tobytes() == t.tobytes()
        assert fit.mass_fractions.tobytes() == r.tobytes()
        c_upper, delta = weights_diagnostics._envelope_fit(t, r, upper=True)
        m_lower, eta = weights_diagnostics._envelope_fit(t, r, upper=False)
        assert (fit.c_upper, fit.delta, fit.m_lower, fit.eta) == (c_upper, delta, m_lower, eta)


@pytest.fixture(scope="module")
def cell_setup():
    m = build_periodic_cell(32)
    sig = random_piecewise_field(m, 5.0, 4, seed=7)
    cm = cell_map(sig, np.eye(2))
    squares = dyadic_squares(m, 3)
    fit = ainfty_probe(cm.U.det_DU, squares, random_subset_sampler(seed=8))
    return cm, squares, fit


class TestQuantitativeCheck:

    def test_full_square_is_exact(self, cell_setup):
        cm, squares, fit = cell_setup
        P = squares.elements(squares.admissible()[3])
        check = quantitative_jacobian_check(cm, P, P, fit)
        assert check.lhs == pytest.approx(check.rhs_shape, rel=1e-12)
        assert check.constant == pytest.approx(1.0, rel=1e-12)
        assert check.passes

    def test_identity_jacobian_unit_constant(self):
        m = build_periodic_cell(16)
        from beltramilab.coefficients import constant_field

        cm = cell_map(constant_field(m, np.eye(2)), np.eye(2))
        squares = dyadic_squares(m, 2)
        fit = ainfty_probe(cm.U.det_DU, squares, random_subset_sampler(seed=9))
        P = squares.elements(squares.admissible()[1])
        sub = P[: len(P) // 2]
        check = quantitative_jacobian_check(cm, sub, P, fit)
        # det = 1: masses are areas, so lhs/rhs = t^(1-eta) with eta = 1
        assert check.constant == pytest.approx(1.0, rel=1e-9)
        assert check.passes

    def test_random_subsets_pass_envelope(self, cell_setup):
        cm, squares, fit = cell_setup
        rng = rng_from_seed(10)
        for s in squares.admissible()[:6]:
            P = squares.elements(s)
            for frac in (1 / 16, 1 / 4, 1 / 2):
                k = max(1, round(frac * len(P)))
                sub = np.sort(rng.choice(P, size=k, replace=False))
                assert quantitative_jacobian_check(cm, sub, P, fit).passes

    def test_singular_affine_part_rejected(self, cell_setup):
        cm, squares, fit = cell_setup
        P = squares.elements(squares.admissible()[3])
        with pytest.raises(ValueError, match="affine part is singular"):
            quantitative_jacobian_check(replace(cm, A=np.array([[1.0, 0.0], [0.0, 0.0]])), P, P, fit)

    def test_foreign_elements_rejected(self, cell_setup):
        cm, squares, fit = cell_setup
        P = squares.elements(squares.admissible()[2])
        other = squares.elements(squares.admissible()[3])
        with pytest.raises(ValueError):
            quantitative_jacobian_check(cm, other[:4], P, fit)


class TestHigherIntegrability:
    def test_constant_gradient_all_norms_equal(self):
        from beltramilab.coefficients import constant_field
        from beltramilab.elliptic_solver import solve_dirichlet
        from beltramilab.grid import element_gradient

        rows = []
        for n in (8, 16):
            m = build_unit_square(n)
            u, = solve_dirichlet(constant_field(m, np.eye(2)), m.vertices[m.boundary_loop, :1])
            rows += higher_integrability_probe(n, m, element_gradient(u), math.inf)
        assert [row.p for row in rows] == [2.0, 4.0] * 2  # 4 in place of half an infinite critical exponent
        for row in rows:
            assert row.norm == pytest.approx(1.0, abs=1e-12)
            assert not row.above_critical

    def test_margin_scales_with_the_domain(self):
        # a hexagon of radius 0.1 is narrower than two absolute margins of 1/8, yet keeps its interior
        m = build_regular_ngon(6, 0.1, 16)
        rows = higher_integrability_probe(16, m, np.tile([3.0, 4.0], (m.n_triangles, 1)), math.inf)
        assert [row.norm for row in rows] == pytest.approx([5.0, 5.0], rel=1e-12)

    def test_laminate_norms_stable_below_critical(self):
        from beltramilab.coeff_algebra import astala_exponent
        from beltramilab.coefficients import laminate_field
        from beltramilab.elliptic_solver import solve_dirichlet
        from beltramilab.grid import element_gradient

        report = astala_exponent(1.0, 5.0)
        norms = {}
        for n in (32, 64, 128):
            m = build_unit_square(n)
            u, = solve_dirichlet(laminate_field(m, 1.0, 5.0), m.vertices[m.boundary_loop, :1])
            rows = higher_integrability_probe(n, m, element_gradient(u), report.p_sup)
            assert [row.p for row in rows] == [2.0, 0.5 * report.p_sup]
            norms[n] = np.array([row.norm for row in rows])
            assert not any(row.above_critical for row in rows)
        base = norms[32]
        assert np.all(np.abs(norms[64] - base) / base < 0.10)
        assert np.all(np.abs(norms[128] - base) / base < 0.10)


class TestSquareStats:
    def test_table_and_export(self, square_mesh, squares, tmp_path):
        rng = rng_from_seed(11)
        w = np.exp(rng.normal(size=square_mesh.n_triangles))
        table = square_stats(w, squares)
        assert len(table.mean_w) == len(squares)
        assert table.mean_w2[0] == table.power_means[2.0][0]
        path = tmp_path / "stats.csv"
        table.export_csv(path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("square,level,corner_x,corner_y,side,n_elements,mean_w")
        assert "mean_w_pow_1.5" in header


# ---------------------------------------------------------------------------
# The array reductions against a square-by-square np.einsum loop
# ---------------------------------------------------------------------------


def _image_mesh():
    m = build_unit_square(16)
    Phi, _, U = primary_pair(random_piecewise_field(m, 5.0, 4, seed=1))
    img, _ = change_coordinates(U, Phi)
    return img


REFERENCE_MESHES = {
    "unit_square": lambda: build_unit_square(32),
    "periodic_cell": lambda: build_periodic_cell(32),
    "hexagon": lambda: build_regular_ngon(6, 1.0, 8),
    "image": _image_mesh,
}


def _loop_moments(w, ds, exponents):
    """mean_w, mean_w2, power means and log-oscillation per square, one np.einsum at a time."""
    areas = ds.mesh.areas
    logw = np.log(w)
    rows = []
    for s in range(len(ds)):
        e = ds.elements(s)
        area = float(areas[e].sum())
        if len(e) == 0:
            rows.append([np.nan] * (3 + len(exponents)))
            continue

        def mean(values):
            return float(np.einsum("t,t->", areas[e], values[e]) / area)

        mean_log = mean(logw)
        rows.append([mean(w), mean(w * w), *[mean(w ** p) for p in exponents],
                     mean(np.abs(logw - mean_log))])
    return np.array(rows).T


@pytest.fixture(scope="module", params=sorted(REFERENCE_MESHES))
def reference_case(request):
    m = REFERENCE_MESHES[request.param]()
    w = np.exp(rng_from_seed(12).normal(size=m.n_triangles))
    return w, dyadic_squares(m, 4)


class TestAgainstSquareLoop:
    def test_moments(self, reference_case):
        w, ds = reference_case
        table = square_stats(w, ds)
        mean_w, mean_w2, p15, p20, osc = _loop_moments(w, ds, (1.5, 2.0))
        areas = ds.mesh.areas
        assert np.array_equal(ds.area, [areas[ds.elements(s)].sum() for s in range(len(ds))])
        assert np.array_equal(table.mean_w, mean_w, equal_nan=True)
        assert np.array_equal(table.mean_w2, mean_w2, equal_nan=True)
        assert list(table.power_means) == [1.5, 2.0]
        for p, ref in ((1.5, p15), (2.0, p20)):
            assert np.array_equal(table.power_means[p], ref, equal_nan=True)
        assert np.array_equal(table.log_oscillation, osc, equal_nan=True)

    def test_bmo_and_reverse_holder(self, reference_case):
        w, ds = reference_case
        mean_w, mean_w2, osc = _loop_moments(w, ds, ())
        best = 0.0
        for s in ds.admissible():
            best = max(best, osc[s])
        assert bmo_norm(w, ds) == best
        best = 0.0
        for s in ds.admissible(require_twice_inside=True):
            best = max(best, math.sqrt(mean_w2[s]) / float(mean_w[s]))
        assert reverse_holder_constant(w, ds) == best

    def test_ainfty_samples(self, reference_case):
        w, ds = reference_case
        areas = ds.mesh.areas
        t_ref, r_ref = [], []
        for owner, subsets in random_subset_sampler(seed=13)(ds.members, ds.offsets, ds.admissible()):
            for s, subset in zip(owner, subsets):
                e = ds.elements(s)
                t_ref.append(float(areas[subset].sum() / float(areas[e].sum())))
                r_ref.append(float(np.einsum("t,t->", areas[subset], w[subset])
                                   / float(np.einsum("t,t->", areas[e], w[e]))))
        fit = ainfty_probe(w, ds, random_subset_sampler(seed=13))
        assert np.array_equal(fit.area_fractions, t_ref)
        assert np.array_equal(fit.mass_fractions, r_ref)

    def test_cases_cover_empty_squares(self):
        assert (np.diff(dyadic_squares(REFERENCE_MESHES["hexagon"](), 4).offsets) == 0).any()
