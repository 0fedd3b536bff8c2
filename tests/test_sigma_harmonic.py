import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beltramilab.coeff_algebra import beltrami_from_sigma_batch
from beltramilab.coefficients import constant_field, hall_field, laminate_field, random_piecewise_field
from beltramilab.elliptic_solver import rotated_flux, solve_dirichlet
from beltramilab.grid import (
    ScalarFieldP1,
    _square_boundary_loop,
    build_periodic_cell,
    build_regular_ngon,
    build_unit_square,
    element_gradient,
)
from beltramilab.homogenization import cell_map
from beltramilab.sigma_harmonic import (
    PlanarMap,
    _box_pairs_sharing_a_cell,
    _polygon_is_convex,
    _segments_cross,
    beltrami_residual,
    change_coordinates,
    equival_residual,
    injectivity_check,
    polygon_is_simple,
    primary_pair,
    pushforward_tau,
    sigma_harmonic_map,
    unimodality_check,
    wirtinger_exact,
    wirtinger_from_gradients,
)


# the warning sigma_harmonic_map logs for boundary data that void the homeomorphism guarantee
NOT_CONVEX = "not a sense-preserving convex embedding"


def coordinate_map(mesh):
    return PlanarMap(
        ScalarFieldP1(mesh, mesh.vertices[:, 0].copy()),
        ScalarFieldP1(mesh, mesh.vertices[:, 1].copy()),
    )


def circle_trace(mesh):
    pts = mesh.vertices[mesh.boundary_loop]
    seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)[:-1]]) / seg.sum()
    theta = 2 * np.pi * s
    return np.cos(theta), np.sin(theta), theta


def fold_map(mesh):
    return PlanarMap(ScalarFieldP1(mesh, mesh.vertices[:, 0].copy()),
                     ScalarFieldP1(mesh, np.abs(mesh.vertices[:, 1] - 0.5)))


def wrapping_map(mesh):
    """Angle 3*pi*x, radius 2 - y: det DU > 0 on every triangle, but the boundary image winds 1.5 turns."""
    x, y = mesh.vertices.T
    r, theta = 2 - y, 3 * np.pi * x
    return PlanarMap(ScalarFieldP1(mesh, r * np.cos(theta)), ScalarFieldP1(mesh, r * np.sin(theta)))


def disk_map(mesh):
    c, s, _ = circle_trace(mesh)
    return sigma_harmonic_map(constant_field(mesh, np.eye(2)), c, s)


def nonconvex_target_map(mesh):
    _, _, theta = circle_trace(mesh)
    tx, ty = np.cos(theta) + 0.8 * np.cos(2 * theta), np.sin(theta) - 0.8 * np.sin(2 * theta)
    return sigma_harmonic_map(constant_field(mesh, np.eye(2)), tx, ty)


# every map whose injectivity the suite checks
INJECTIVITY_CASES = {
    "identity": lambda: coordinate_map(build_unit_square(8)),
    "fold": lambda: fold_map(build_unit_square(8)),
    "disk": lambda: disk_map(build_unit_square(12)),
    "primary-pair": lambda: primary_pair(random_piecewise_field(build_unit_square(32), 5.0, 4, seed=6))[2],
    "nonconvex-target": lambda: nonconvex_target_map(build_unit_square(12)),
    "wrapping": lambda: wrapping_map(build_unit_square(16)),
    "cell-map": lambda: cell_map(random_piecewise_field(build_periodic_cell(32), 5.0, 4, seed=3), np.eye(2)).U,
}


class TestPrimaryPair:
    def test_identity_coefficient(self):
        m = build_unit_square(8)
        Phi, Psi, U = primary_pair(constant_field(m, np.eye(2)))
        z = m.vertices[:, 0] + 1j * m.vertices[:, 1]
        assert np.abs(Phi.vertex_values() - z).max() < 1e-12
        assert np.abs(Psi.vertex_values() - (-1j * z)).max() < 1e-12
        assert np.abs(U.det_DU - 1.0).max() < 1e-12

    def test_hall_type_constant(self):
        a, b = 1.0, 0.5
        m = build_unit_square(8)
        Phi, Psi, U = primary_pair(hall_field(m, a, b))
        assert np.abs(U.u1.values - m.vertices[:, 0]).max() < 1e-12
        assert np.abs(U.u2.values - m.vertices[:, 1]).max() < 1e-12
        expected_stream = b * m.vertices[:, 0] + a * m.vertices[:, 1]
        assert np.abs(Phi.u2.values - expected_stream).max() < 1e-11

    def test_random_piecewise_jacobian_positive(self):
        m = build_unit_square(32)
        for seed in (0, 1):
            sig = random_piecewise_field(m, 5.0, 4, seed=seed, symmetric=seed == 0)
            _, _, U = primary_pair(sig)
            assert U.det_DU.min() > 0.0

    def test_nonconvex_domain_rejected(self):
        m = build_unit_square(4)
        verts = m.vertices.copy()
        # push one bottom-edge vertex outward: convexity breaks at its neighbors
        loop = m.boundary_loop
        verts[loop[2]] -= np.array([0.0, 0.3])
        from beltramilab.grid import TriMesh

        dented = TriMesh(verts, m.triangles.copy(), loop.copy())
        with pytest.raises(ValueError):
            primary_pair(constant_field(dented, np.eye(2)))


class TestWirtinger:
    def test_z_and_zbar(self):
        m = build_unit_square(4)
        x, y = m.vertices[:, 0], m.vertices[:, 1]
        z = PlanarMap(ScalarFieldP1(m, x.copy()), ScalarFieldP1(m, y.copy()))
        w = wirtinger_from_gradients(element_gradient(z.u1), element_gradient(z.u2))
        assert np.abs(w.f_z - 1.0).max() < 1e-14
        assert np.abs(w.f_zbar).max() < 1e-14
        zbar = PlanarMap(ScalarFieldP1(m, x.copy()), ScalarFieldP1(m, -y))
        w = wirtinger_from_gradients(element_gradient(zbar.u1), element_gradient(zbar.u2))
        assert np.abs(w.f_z).max() < 1e-14
        assert np.abs(w.f_zbar - 1.0).max() < 1e-14

    def test_hall_stream_map(self):
        a, b = 0.7, 0.4
        m = build_unit_square(4)
        x, y = m.vertices[:, 0], m.vertices[:, 1]
        F = PlanarMap(ScalarFieldP1(m, x.copy()), ScalarFieldP1(m, b * x + a * y))
        w = wirtinger_from_gradients(element_gradient(F.u1), element_gradient(F.u2))
        assert np.abs(w.f_z - (1 + a + 1j * b) / 2).max() < 1e-14
        assert np.abs(w.f_zbar - (1 - a + 1j * b) / 2).max() < 1e-14


class TestBeltramiResidual:
    def test_identity_conformal(self):
        m = build_unit_square(4)
        x, y = m.vertices[:, 0], m.vertices[:, 1]
        F = PlanarMap(ScalarFieldP1(m, x.copy()), ScalarFieldP1(m, y.copy()))
        w = wirtinger_from_gradients(element_gradient(F.u1), element_gradient(F.u2))
        res = beltrami_residual(w, (0.0, 0.0))
        assert res.max() < 1e-14

    def test_exact_convention_vanishes_for_transformed_pair(self):
        m = build_unit_square(16)
        sig = random_piecewise_field(m, 5.0, 4, seed=3)
        u = solve_dirichlet(sig, lambda p: p[:, 0])
        w = wirtinger_exact(sig, u)
        mu_e, nu_e = beltrami_from_sigma_batch(sig.matrices)
        assert beltrami_residual(w, (mu_e, nu_e)).max() < 1e-12

    def test_wrong_pair_positive(self):
        m = build_unit_square(8)
        sig = constant_field(m, np.diag([3.0, 1.0]))
        u = solve_dirichlet(sig, lambda p: p[:, 0])
        w = wirtinger_exact(sig, u)
        res = beltrami_residual(w, (0.0, 0.0))
        assert res.max() > 1e-2

    def test_nu_folds_into_mu(self):
        # where f_z != 0 the conjugate term folds into one dilatation,
        # mu~ = mu + (conj(f_z)/f_z) nu, with |mu~| <= |mu| + |nu|
        m = build_unit_square(8)
        sig = random_piecewise_field(m, 5.0, 4, seed=3)
        w = wirtinger_exact(sig, solve_dirichlet(sig, lambda p: p[:, 0]))
        rng = np.random.default_rng(4)
        mu = 0.3 * (rng.random(m.n_triangles) + 1j * rng.random(m.n_triangles))
        nu = 0.3 * (rng.random(m.n_triangles) - 1j * rng.random(m.n_triangles))
        assert np.abs(w.f_z).min() > 0.0
        mu_t = mu + np.conj(w.f_z) / w.f_z * nu
        res = beltrami_residual(w, (mu, nu))
        assert res.max() > 1e-2
        assert np.abs(beltrami_residual(w, (mu_t, 0.0)) - res).max() < 1e-12
        assert np.all(np.abs(mu_t) <= np.abs(mu) + np.abs(nu) + 1e-15)


class TestPlanarMap:
    def test_components_on_two_meshes_rejected(self):
        a, b = build_unit_square(4), build_unit_square(4)
        with pytest.raises(ValueError, match="same mesh"):
            PlanarMap(ScalarFieldP1(a, a.vertices[:, 0]), ScalarFieldP1(b, b.vertices[:, 1]))


class TestJacobianAndEquival:
    def test_identity_and_affine(self):
        m = build_unit_square(6)
        ident = coordinate_map(m)
        assert np.abs(ident.det_DU - 1.0).max() < 1e-13
        A = np.array([[2.0, 1.0], [0.5, 1.5]])
        aff = PlanarMap(
            ScalarFieldP1(m, m.vertices @ A[0]),
            ScalarFieldP1(m, m.vertices @ A[1]),
        )
        assert np.abs(aff.det_DU - np.linalg.det(A)).max() < 1e-12

    def test_equival_identity_constant_sigma(self):
        m = build_unit_square(8)
        mat = np.array([[2.0, 1.0], [0.2, 1.5]])
        sig = constant_field(m, mat)
        Phi, Psi, U = primary_pair(sig)
        assert equival_residual(Phi, Psi, sig, U).max() < 1e-12

    def test_equival_identity_random_piecewise(self):
        m = build_unit_square(16)
        for seed in (0, 7):
            sig = random_piecewise_field(m, 5.0, 4, seed=seed)
            Phi, Psi, U = primary_pair(sig)
            assert equival_residual(Phi, Psi, sig, U).max() < 1e-12

    def test_sense_preservation(self):
        m = build_unit_square(16)
        sig = random_piecewise_field(m, 5.0, 4, seed=4)
        u = solve_dirichlet(sig, lambda p: p[:, 0])
        # |f_z|^2 - |f_zbar|^2, the Jacobian of f = u + i*utilde (exact convention)
        w = wirtinger_exact(sig, u)
        assert (np.abs(w.f_z) ** 2 - np.abs(w.f_zbar) ** 2).min() > 0.0


class TestUnimodality:
    def test_coordinate_on_square_boundary(self):
        m = build_unit_square(8)
        g = m.vertices[m.boundary_loop, 0]
        assert unimodality_check(g) == (True, False)

    def test_strict_cosine(self):
        theta = np.linspace(0, 2 * np.pi, 41)[:-1]
        assert unimodality_check(np.cos(theta)) == (True, True)

    def test_two_humps_rejected(self):
        theta = np.linspace(0, 2 * np.pi, 41)[:-1]
        assert unimodality_check(np.cos(2 * theta)) == (False, False)

    def test_constant_degenerate(self):
        assert unimodality_check(np.ones(8)) == (False, False)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            unimodality_check(np.array([1.0, 2.0]))


class TestInjectivity:
    def test_identity(self):
        m = build_unit_square(8)
        U = coordinate_map(m)
        assert injectivity_check(U) == (True, True)

    def test_folding_map(self):
        assert injectivity_check(fold_map(build_unit_square(8))) == (False, False)

    def test_disk_homeomorphism_map(self, caplog):
        with caplog.at_level(logging.WARNING, logger="beltramilab.sigma_harmonic"):
            U = disk_map(build_unit_square(12))
        assert NOT_CONVEX not in caplog.text
        assert U.det_DU.min() > 0.0
        assert injectivity_check(U) == (True, True)

    def test_random_piecewise_convex_data_suite(self):
        m = build_unit_square(32)
        sig = random_piecewise_field(m, 5.0, 4, seed=6)
        _, _, U = primary_pair(sig)
        assert injectivity_check(U) == (True, True)

    def test_nonconvex_target_negative_control(self, caplog):
        # expected-negative: the guarantee needs a convex target, so the
        # check is only recorded, not asserted true
        with caplog.at_level(logging.WARNING, logger="beltramilab.sigma_harmonic"):
            U = nonconvex_target_map(build_unit_square(12))
        assert NOT_CONVEX in caplog.text
        locally, globally = injectivity_check(U)
        assert isinstance(locally, bool) and isinstance(globally, bool)
        assert not globally

    @pytest.mark.parametrize("mesh", [build_unit_square(16), build_periodic_cell(16), build_regular_ngon(6, 1.0, 8)],
                             ids=["square", "torus", "hexagon"])
    def test_signed_image_area_is_the_boundary_loop_area(self, mesh):
        # Green's theorem for every P1 map, injective or not: the sum of det DU
        # times area is the shoelace area of the boundary image, so comparing
        # the two decides nothing about injectivity
        rng = np.random.default_rng(2024)
        loop = mesh.boundary_loop
        for _ in range(50):
            U = PlanarMap(*(ScalarFieldP1(mesh, rng.standard_normal(mesh.n_vertices)) for _ in range(2)))
            x, y = U.u1.values[loop], U.u2.values[loop]
            shoelace = 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
            unsigned = np.dot(np.abs(U.det_DU), mesh.areas)
            assert abs(np.dot(U.det_DU, mesh.areas) - shoelace) <= 1e-12 * unsigned

    @pytest.mark.parametrize("case", list(INJECTIVITY_CASES))
    def test_global_flag_is_local_and_a_simple_loop(self, case):
        U = INJECTIVITY_CASES[case]()
        locally = bool(np.all(U.det_DU > 0.0))
        image = np.column_stack([U.u1.values, U.u2.values])[U.mesh.boundary_loop]
        assert injectivity_check(U) == (locally, locally and polygon_is_simple(image))


def pentagram(samples):
    """``samples`` points (a multiple of 5) along the five edges of a counter-clockwise pentagram."""
    star = np.exp(1j * (np.pi / 2 + 4 * np.pi * np.arange(5) / 5))
    t = 5 * np.arange(samples) / samples
    k = t.astype(int)
    z = (k + 1 - t) * star[k] + (t - k) * star[(k + 1) % 5]
    return np.column_stack([z.real, z.imag])


class TestConvexLoop:
    def test_loops_that_wind_twice_are_rejected(self):
        # both turn left at every corner and have positive signed area
        twice = np.exp(2j * np.pi * np.arange(10) / 5)
        assert not _polygon_is_convex(pentagram(5))
        assert not _polygon_is_convex(np.column_stack([twice.real, twice.imag]))

    def test_repeated_reflex_corner_is_rejected(self):
        # the zero-length edge at the repeated point hid the right turn there
        dented = np.array([[0, 0], [1, 0], [1, 1], [0.5, 0.5], [0.5, 0.5], [0, 1]], dtype=float)
        assert not _polygon_is_convex(dented)
        # a loop of one point repeated has no edge left, and reads as not convex
        assert not _polygon_is_convex(np.zeros((4, 2)))

    @pytest.mark.parametrize("mesh", [build_unit_square(256), build_regular_ngon(6, 1.0, 8)],
                             ids=["square-256", "hexagon"])
    def test_mesh_boundary_loops_pass(self, mesh):
        # the square's loop has collinear points along each side
        assert _polygon_is_convex(mesh.vertices[mesh.boundary_loop])

    def test_sigma_harmonic_map_warns_on_pentagram(self, caplog):
        m = build_unit_square(5)
        star = pentagram(len(m.boundary_loop))
        with caplog.at_level(logging.WARNING, logger="beltramilab.sigma_harmonic"):
            sigma_harmonic_map(constant_field(m, np.eye(2)), star[:, 0], star[:, 1])
        assert NOT_CONVEX in caplog.text


def pairwise_polygon_is_simple(pts):
    """Every non-adjacent edge pair, O(m^2) of them, through ``_segments_cross``: the reference."""
    n = len(pts)
    a0 = pts
    a1 = np.roll(pts, -1, axis=0)
    scale = float(np.max(np.abs(pts)) + 1.0)
    tol = 1e-13 * scale * scale
    idx_i, idx_j = np.triu_indices(n, k=1)
    keep = ~((idx_j == idx_i + 1) | ((idx_i == 0) & (idx_j == n - 1)))
    idx_i, idx_j = idx_i[keep], idx_j[keep]
    return not bool(_segments_cross(a0[idx_i], a1[idx_i], a0[idx_j], a1[idx_j], tol).any())


def polygons(coordinate):
    return st.lists(st.tuples(coordinate, coordinate), min_size=3, max_size=12).map(
        lambda p: np.array(p, dtype=float)
    )


class TestPolygonIsSimple:
    # A 4 x 4 integer lattice makes collinear overlaps, repeated vertices and touching edges common.
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(polygons(st.integers(0, 3)))
    def test_lattice_polygons_match_pairwise(self, pts):
        assert polygon_is_simple(pts) == pairwise_polygon_is_simple(pts)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(polygons(st.floats(-2.0, 2.0)))
    def test_float_polygons_match_pairwise(self, pts):
        assert polygon_is_simple(pts) == pairwise_polygon_is_simple(pts)

    @pytest.mark.parametrize(
        "pts,simple",
        [
            ([(0, 0), (1, 0), (1, 1), (0, 1)], True),
            ([(0, 0), (1, 1), (1, 0), (0, 1)], False),  # figure eight
            ([(0, 0), (4, 0), (4, 4), (2, 0), (0, 4)], False),  # vertex (2, 0) touches edge 0
            # within the 1e-300 slack of every box: every pair of edges touches
            ([(0, 0), (1e-305, 0), (1e-305, 1e-305), (0, 1e-305)], False),
        ],
    )
    def test_fixed_polygons(self, pts, simple):
        pts = np.array(pts, dtype=float)
        assert pairwise_polygon_is_simple(pts) == simple
        assert polygon_is_simple(pts) == simple

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
                              st.floats(0.0, 1.5), st.floats(0.0, 1.5)), min_size=1, max_size=40))
    @example([(0.0, 0.0, 5e-324, 0.0)] * 30)  # a subnormal extent: cells / extent would overflow
    def test_grid_pairs_hold_every_overlapping_pair_once(self, boxes):
        b = np.array(boxes)
        lo, hi = b[:, :2], b[:, :2] + b[:, 2:]
        i, j = _box_pairs_sharing_a_cell(lo, hi)
        pairs = set(zip(i.tolist(), j.tolist()))
        assert len(pairs) == len(i) and all(p < q for p, q in pairs)
        overlap = np.all((lo[:, None] <= hi[None]) & (lo[None] <= hi[:, None]), axis=2)
        assert set(zip(*np.nonzero(np.triu(overlap, k=1)))) <= pairs

    @pytest.mark.parametrize("res", [256, 1024])
    def test_square_loop_pairs_grow_linearly(self, res):
        # Every unit-square primary pair maps its boundary loop onto the unit
        # square, whose m / 4 edges per side share one x-range: an x-min sweep
        # formed about m^2 / 16 candidate pairs there.
        v = _square_boundary_loop(res)
        loop = np.column_stack([v % (res + 1), v // (res + 1)]) / res
        nxt = np.roll(loop, -1, axis=0)
        i, _ = _box_pairs_sharing_a_cell(np.minimum(loop, nxt) - 1e-300, np.maximum(loop, nxt) + 1e-300)
        assert len(i) <= 2 * len(loop)
        assert polygon_is_simple(loop)

    def test_primary_pair_image_loop(self):
        m = build_unit_square(64)
        _, _, U = primary_pair(random_piecewise_field(m, 5.0, 4, seed=6))
        img = np.column_stack([U.u1.values, U.u2.values])[m.boundary_loop]
        assert polygon_is_simple(img) and pairwise_polygon_is_simple(img)
        img[[10, 140]] = img[[140, 10]]  # two far-apart vertices swapped: the loop crosses itself
        assert not polygon_is_simple(img) and not pairwise_polygon_is_simple(img)


class TestPushforwardTau:
    def test_non_injective_map_rejected(self):
        m = build_unit_square(8)
        with pytest.raises(ValueError, match="not locally injective"):
            pushforward_tau(constant_field(m, np.eye(2)), fold_map(m))

    def test_identity(self):
        m = build_unit_square(8)
        sig = constant_field(m, np.eye(2))
        Phi, _, _ = primary_pair(sig)
        pf = pushforward_tau(sig, Phi)
        assert np.abs(pf.tau - np.eye(2)).max() < 1e-11
        assert np.abs(pf.b).max() < 1e-11
        assert np.abs(pf.c - 1.0).max() < 1e-11

    def test_constant_nonsymmetric_structure(self):
        m = build_unit_square(16)
        mat = np.array([[2.0, 1.0], [0.2, 1.5]])
        sig = constant_field(m, mat)
        Phi, _, _ = primary_pair(sig)
        pf = pushforward_tau(sig, Phi)
        assert pf.resid_diag.max() < 1e-10
        assert pf.resid_lower.max() < 1e-10
        assert np.abs(pf.c - np.linalg.det(mat)).max() < 1e-10
        assert np.abs(pf.b - (mat[0, 1] - mat[1, 0])).max() < 1e-10

    def test_exact_convention_is_exact_per_element(self):
        m = build_unit_square(16)
        sig = random_piecewise_field(m, 4.0, 4, seed=9)
        Phi, _, _ = primary_pair(sig)
        # Df with the exact rotated-flux gradient in place of the recovered one of Phi.u2
        grad_re, grad_im = element_gradient(Phi.u1), rotated_flux(sig, Phi.u1)
        df = np.stack([grad_re, grad_im], axis=1)
        det_df = grad_re[:, 0] * grad_im[:, 1] - grad_re[:, 1] * grad_im[:, 0]
        mats = sig.matrices
        tau = np.einsum("tia,tab,tjb->tij", df, mats, df) / det_df[:, None, None]
        det_sigma = np.linalg.det(mats)
        gap = mats[:, 0, 1] - mats[:, 1, 0]
        assert np.abs(tau[:, 0, 0] - 1.0).max() < 1e-12
        assert np.abs(tau[:, 1, 0]).max() < 1e-12
        assert np.abs(tau[:, 0, 0] * tau[:, 1, 1] - tau[:, 0, 1] * tau[:, 1, 0] - det_sigma).max() < 1e-11
        assert np.abs(tau[:, 0, 1] - gap).max() < 1e-11

    def test_laminate_residuals_decrease(self):
        l1 = []
        for n in (16, 32, 64):
            m = build_unit_square(n)
            sig = laminate_field(m, 1.0, 5.0)
            Phi, _, _ = primary_pair(sig)
            pf = pushforward_tau(sig, Phi)
            l1.append((pf.l1_resid_diag, pf.l1_resid_lower))
        assert l1[0][0] > l1[1][0] > l1[2][0]
        assert l1[0][1] > l1[1][1] > l1[2][1]

    def test_change_of_coordinates_straightens_first_component(self):
        m = build_unit_square(16)
        sig = random_piecewise_field(m, 4.0, 4, seed=2)
        Phi, Psi, U = primary_pair(sig)
        img, V = change_coordinates(U, Phi)
        # first component of V is the first image coordinate, by construction
        assert np.abs(V.u1.values - img.vertices[:, 0]).max() < 1e-14
        assert V.det_DU.min() > 0.0
        # P1 chain rule: det DV = det DU / det DPhi elementwise
        g1 = element_gradient(Phi.u1)
        g2 = element_gradient(Phi.u2)
        det_phi = g1[:, 0] * g2[:, 1] - g1[:, 1] * g2[:, 0]
        assert np.abs(V.det_DU - U.det_DU / det_phi).max() < 1e-9
