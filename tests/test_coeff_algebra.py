import math

import numpy as np
import pytest

from beltramilab.coeff_algebra import (
    BeltramiPair,
    K_from_lambda,
    K_of_beltrami,
    _tau_feasible,
    astala_exponent,
    beltrami_from_sigma,
    ellipticity_constants,
    sigma_from_beltrami,
    tau_bound_oracle,
    tau_ellipticity_bound,
)
from beltramilab.errors import DegeneratePairError, NonEllipticError

SQRT3 = math.sqrt(3.0)


def random_elliptic_pairs(rng, n, s_max=0.95):
    s = s_max * rng.random(n)
    split = rng.random(n)
    mu = s * split * np.exp(2j * np.pi * rng.random(n))
    nu = s * (1 - split) * np.exp(2j * np.pi * rng.random(n))
    return mu, nu


class TestSigmaFromBeltrami:
    def test_identity(self):
        s = sigma_from_beltrami(BeltramiPair(0, 0))
        assert np.allclose(s, np.eye(2), atol=1e-15)

    def test_extremal_rotation_matrix(self):
        # nu = i*sqrt(3)/3 lands on the rotation-like matrix with a = 1/2, b = sqrt(3)/2
        s = sigma_from_beltrami(BeltramiPair(0, 1j * SQRT3 / 3))
        expected = np.array([[0.5, SQRT3 / 2], [-SQRT3 / 2, 0.5]])
        assert np.abs(s - expected).max() < 1e-14

    def test_isotropic_scaling(self):
        # sigma = s*I corresponds to nu = (1-s)/(1+s), mu = 0
        s = sigma_from_beltrami(BeltramiPair(0, -1 / 3))
        assert np.abs(s - 2 * np.eye(2)).max() < 1e-14

    def test_degenerate_denominator(self):
        with pytest.raises((DegeneratePairError, NonEllipticError)):
            sigma_from_beltrami(BeltramiPair(0, -1 + 1e-16))

    def test_non_elliptic_rejected(self):
        with pytest.raises(NonEllipticError):
            sigma_from_beltrami(BeltramiPair(0.7, 0.4))


class TestBeltramiFromSigma:
    def test_identity(self):
        p = beltrami_from_sigma(np.eye(2))
        assert p.mu == 0 and p.nu == 0

    def test_twice_identity(self):
        p = beltrami_from_sigma(np.diag([2.0, 2.0]))
        assert abs(p.mu) < 1e-15
        assert abs(p.nu - (-1 / 3)) < 1e-15

    def test_extremal_matrix_and_sharp_distortion(self):
        mat = np.array([[0.5, SQRT3 / 2], [-SQRT3 / 2, 0.5]])
        p = beltrami_from_sigma(mat)
        assert abs(p.mu) < 1e-14
        assert abs(p.nu - 1j * SQRT3 / 3) < 1e-14
        k = 2 + SQRT3
        assert abs(p.norm_sum - (k - 1) / (k + 1)) < 1e-14

    def test_non_elliptic_rejected(self):
        with pytest.raises(NonEllipticError):
            beltrami_from_sigma(np.array([[1.0, 3.0], [3.0, 1.0]]))


class TestEllipticityConstants:
    def test_identity(self):
        assert ellipticity_constants(np.eye(2)) == (1.0, 1.0)

    def test_diagonal(self):
        alpha, beta = ellipticity_constants(np.diag([2.0, 3.0]))
        assert abs(alpha - 2.0) < 1e-15
        assert abs(beta - 3.0) < 1e-15

    def test_rotation_like(self):
        mat = np.array([[0.5, SQRT3 / 2], [-SQRT3 / 2, 0.5]])
        alpha, beta = ellipticity_constants(mat)
        assert abs(alpha - 0.5) < 1e-14
        assert abs(beta - 2.0) < 1e-13

    def test_closed_form_matches_direct_eigenvalues(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            mat = rng.normal(size=(2, 2)) + 2.5 * np.eye(2)
            try:
                alpha, beta = ellipticity_constants(mat)
            except NonEllipticError:
                continue
            sym = 0.5 * (mat + mat.T)
            inv = np.linalg.inv(mat)
            sym_inv = 0.5 * (inv + inv.T)
            assert abs(alpha - np.linalg.eigvalsh(sym)[0]) < 1e-12
            assert abs(1.0 / beta - np.linalg.eigvalsh(sym_inv)[0]) < 1e-12


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        mat = np.array([[2.0, 1.0], [0.2, 1.5]])
        mat[1, 0] = bad
        with pytest.raises(NonEllipticError, match="non-finite coefficient"):
            ellipticity_constants(mat)
        with pytest.raises(NonEllipticError, match="non-finite coefficient"):
            beltrami_from_sigma(mat)

    def test_stack_matches_each_matrix_bit_for_bit(self):
        rng = np.random.default_rng(7)
        mu, nu = random_elliptic_pairs(rng, 500)
        mats = np.array([sigma_from_beltrami(BeltramiPair(complex(m), complex(n))) for m, n in zip(mu, nu)])
        mats *= 10.0 ** rng.uniform(-3, 3, size=(len(mats), 1, 1))
        alpha, beta = ellipticity_constants(mats)
        assert alpha.shape == beta.shape == (len(mats),)
        for mat, a, b in zip(mats, alpha, beta):
            one = ellipticity_constants(mat)
            assert type(one[0]) is float and type(one[1]) is float
            assert (one[0], one[1]) == (a, b)

    @pytest.mark.parametrize("bad,message", [
        ([[1.0, np.nan], [0.0, 1.0]], r"element 3: non-finite coefficient entries \[\[1.0, nan\], \[0.0, 1.0\]\]"),
        ([[1.0, 3.0], [3.0, 1.0]], r"element 3: symmetric part not positive definite \(min eig -2.000e\+00\)"),
        ([[1.0, 0.0], [0.0, -1.0]], r"element 3: symmetric part not positive definite"),
        # positive definite in exact arithmetic, but the determinant overflows
        ([[1e-200, 1e200], [-1e200, 1e-200]], r"element 3: symmetric part of the inverse not positive definite$"),
        # the determinant is inf - inf = nan, which no "<= 0" test catches
        ([[1e200, 5e199], [5e199, 1e200]], r"element 3: symmetric part of the inverse not positive definite$"),
    ])
    def test_stack_names_its_first_bad_element(self, bad, message):
        mats = np.broadcast_to(np.eye(2), (8, 2, 2)).copy()
        mats[3] = mats[6] = bad
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonEllipticError, match=message):
            ellipticity_constants(mats)
        # one matrix: the same words without the element
        with (np.errstate(over="ignore", invalid="ignore"),
              pytest.raises(NonEllipticError, match=message.replace("element 3: ", "^"))):
            ellipticity_constants(mats[3])

    def test_stack_names_the_first_bad_element_not_the_worst(self):
        mats = np.broadcast_to(np.eye(2), (8, 2, 2)).copy()
        mats[2] = [[1.0, 3.0], [3.0, 1.0]]  # min eig -2
        mats[5] = [[1.0, 5.0], [5.0, 1.0]]  # min eig -4
        with pytest.raises(NonEllipticError, match=r"^element 2: .*min eig -2.000e\+00"):
            ellipticity_constants(mats)

    @pytest.mark.parametrize("shape", [(2,), (3, 3), (2, 2, 2, 2), (4, 2, 3)])
    def test_other_shapes_rejected(self, shape):
        with pytest.raises(ValueError, match="expected a 2x2 matrix"):
            ellipticity_constants(np.ones(shape))


class TestDistortionFormulas:
    def test_k_of_identity_pair(self):
        assert K_of_beltrami(BeltramiPair(0, 0)) == 1.0

    def test_small_ellipticity_boundary(self):
        assert abs(K_of_beltrami(BeltramiPair(0.25, 0.25)) - 3.0) < 1e-14

    def test_extremal_pair(self):
        assert abs(K_of_beltrami(BeltramiPair(0, 1j * SQRT3 / 3)) - (2 + SQRT3)) < 1e-12

    def test_k_from_lambda(self):
        assert K_from_lambda(1.0) == 1.0
        assert K_from_lambda(1.0, symmetric_only=True) == 1.0
        assert abs(K_from_lambda(0.5) - (2 + SQRT3)) < 1e-12
        assert K_from_lambda(0.5, symmetric_only=True) == 2.0

    def test_k_from_lambda_domain(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                K_from_lambda(bad)

    def test_astala_exponent(self):
        rep = astala_exponent(1.0, 1.0)
        assert rep.k_beltrami == 1.0 and rep.p_sup == math.inf
        rep = astala_exponent(0.5, 2.0)
        assert abs(rep.k_beltrami - (2 + SQRT3)) < 1e-12
        assert abs(rep.p_sup - (1 + SQRT3)) < 1e-12
        rep2 = astala_exponent(1.0, 4.0)
        assert abs(rep2.k_beltrami - rep.k_beltrami) < 1e-12
        assert abs(rep2.p_sup - rep.p_sup) < 1e-12

    def test_astala_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            alpha = 0.1 + rng.random()
            beta = alpha * (1 + 3 * rng.random())
            c = 10.0 ** rng.uniform(-3, 3)
            r1 = astala_exponent(alpha, beta)
            r2 = astala_exponent(c * alpha, c * beta)
            assert abs(r1.k_beltrami - r2.k_beltrami) < 1e-10 * r1.k_beltrami
            assert abs(r1.p_sup - r2.p_sup) < 1e-10 * r1.p_sup

    def test_astala_domain(self):
        with pytest.raises(ValueError):
            astala_exponent(2.0, 1.0)
        with pytest.raises(ValueError):
            astala_exponent(0.0, 1.0)


class TestRoundTrip:
    def test_pair_round_trip(self):
        rng = np.random.default_rng(3)
        mu, nu = random_elliptic_pairs(rng, 2000)
        for m, n in zip(mu, nu):
            p = BeltramiPair(complex(m), complex(n))
            back = beltrami_from_sigma(sigma_from_beltrami(p))
            assert abs(back.mu - p.mu) < 1e-12
            assert abs(back.nu - p.nu) < 1e-12

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(4)
        count = 0
        while count < 500:
            mat = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
            try:
                ellipticity_constants(mat)
            except NonEllipticError:
                continue
            count += 1
            back = sigma_from_beltrami(beltrami_from_sigma(mat))
            assert np.abs(back - mat).max() < 1e-12 * max(1.0, np.abs(mat).max())


class TestSharpConstantsProperties:
    def test_forward_bound_and_symmetric_extremals(self):
        # Pairs exactly on the distortion-K circle give constants within [1/K, K];
        # real nu of either sign attains one of the two equalities (and the
        # extremal matrices are symmetric there).
        rng = np.random.default_rng(5)
        for _ in range(300):
            k = 1.0 + 4.0 * rng.random()
            s = (k - 1) / (k + 1)
            split = rng.random()
            mu = s * split * np.exp(2j * np.pi * rng.random())
            nu = s * (1 - split) * np.exp(2j * np.pi * rng.random())
            sig = sigma_from_beltrami(BeltramiPair(complex(mu), complex(nu)))
            alpha, beta = ellipticity_constants(sig)
            assert alpha >= 1.0 / k - 1e-10
            assert beta <= k + 1e-10
        # equality cases per the extremal analysis
        k = 2.5
        s = (k - 1) / (k + 1)
        sig_pos = sigma_from_beltrami(BeltramiPair(0, s))
        alpha, _ = ellipticity_constants(sig_pos)
        assert abs(alpha - 1.0 / k) < 1e-12
        assert np.abs(sig_pos - sig_pos.T).max() < 1e-14
        sig_neg = sigma_from_beltrami(BeltramiPair(0, -s))
        _, beta = ellipticity_constants(sig_neg)
        assert abs(beta - k) < 1e-12
        assert np.abs(sig_neg - sig_neg.T).max() < 1e-14

    def test_scaling_makes_constants_reciprocal(self):
        # best constants scale linearly, so the factor 1/sqrt(alpha*beta)
        # normalizes them to alpha~ = 1/beta~ = sqrt(alpha/beta)
        rng = np.random.default_rng(2)
        for _ in range(100):
            mat = rng.normal(size=(2, 2)) + 2.5 * np.eye(2)
            try:
                alpha, beta = ellipticity_constants(mat)
            except NonEllipticError:
                continue
            at, bt = ellipticity_constants(mat / math.sqrt(alpha * beta))
            lam = math.sqrt(alpha / beta)
            assert abs(at - lam) < 1e-12
            assert abs(bt - 1.0 / lam) < 1e-12

    def test_backward_bound_with_extremal_near_equality(self):
        # Matrices normalized to alpha = 1/beta = lam produce pairs with
        # distortion at most (1 + sqrt(1 - lam^2))/lam; the rotation-like
        # extremal matrices attain it.
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 200:
            mat = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
            try:
                alpha, beta = ellipticity_constants(mat)
            except NonEllipticError:
                continue
            tilde = mat / math.sqrt(alpha * beta)
            checked += 1
            lam, _ = ellipticity_constants(tilde)
            k = K_of_beltrami(beltrami_from_sigma(tilde))
            assert k <= K_from_lambda(lam) + 1e-10
        for lam in (0.3, 0.5, 0.8):
            b = math.sqrt(1 - lam * lam)
            extremal = np.array([[lam, b], [-b, lam]])
            k = K_of_beltrami(beltrami_from_sigma(extremal))
            assert abs(k - K_from_lambda(lam)) < 1e-10


class TestTauBound:
    def test_closed_form_values(self):
        assert tau_ellipticity_bound(1.0) == 1.0
        assert abs(tau_ellipticity_bound(2.0) - (1 - SQRT3 / 2)) < 1e-15

    def test_oracle_settles_the_minimum(self):
        # The three printed candidate expressions disagree; the constrained
        # minimum itself equals the closed form 1 - sqrt(1 - 1/K^2), attained
        # at trace 2/K, determinant 1, squared gap 4(1 - 1/K^2).
        rep = tau_bound_oracle(2.0)
        assert abs(rep.value - rep.closed_form) < 1e-6
        d, h, t = rep.minimizer
        assert abs(d - 1.0) < 1e-6
        assert abs(h - 3.0) < 1e-5
        assert abs(t - 1.0) < 1e-5
        assert rep.candidates["sign_flipped"] == pytest.approx(1 + SQRT3 / 2)
        assert rep.candidates["at_reference_point"] == pytest.approx(1 - SQRT3 / 4)
        assert rep.agrees_with_closed_form

    def test_smallest_real_trace_is_the_most_feasible(self):
        # T - sqrt(T^2 + H - 4D) falls as T grows wherever it is real, so a (D, H, T)
        # feasible under the general-trace constraints stays feasible at the smallest real
        # trace t0 = sqrt(max(4D - H, 0)), the one trace the oracle reads.  D and t0 are
        # dyadic, so H = 4D - t0^2 and the square root are exact.
        rng = np.random.default_rng(12)
        n = 200_000
        d = rng.integers(0, 257, n) / 256
        t0 = rng.integers(0, 129, n) / 64
        h = 4 * d - t0 * t0
        # where that is negative, draw H in [4D, 4] instead: no real discriminant below T = 0
        above = h < 0
        h[above] = 4 * d[above] + (4 - 4 * d[above]) * rng.random(above.sum())
        t0[above] = 0.0
        assert np.array_equal(np.sqrt(np.maximum(4 * d - h, 0.0)), t0)
        t = np.where(rng.random(n) < 0.5, t0 + rng.exponential(0.05, n), 10 * rng.random(n))
        k = 1 + rng.exponential(3.0, n)
        disc = t * t + h - 4 * d
        low = t - np.sqrt(np.maximum(disc, 0.0))
        feasible = (disc >= 0) & (low >= 2 / k - 1e-15) & (low >= 2 * d / k - 1e-15)
        assert feasible.sum() > 1000
        assert not (feasible & ~_tau_feasible(d, h, k)).any()

    def test_rounded_smallest_trace_reads_feasible(self):
        # For non-dyadic (D, H), t0 = sqrt(4D - H) often squares to a value rounded below
        # 4D - H, and the general-trace discriminant t0^2 + H - 4D at t0 then comes out a
        # few ulp below 0, where it is 0 exactly.  The lower constant at t0 is t0 itself,
        # so every such draw with room above both constraints reads feasible.
        rng = np.random.default_rng(29)
        n = 100_000
        d = rng.random(n)
        h = 4 * d * rng.random(n)
        t0 = np.sqrt(4 * d - h)
        below = t0 * t0 < 4 * d - h
        d, h, t0 = d[below], h[below], t0[below]
        assert (t0 * t0 + h - 4 * d < 0).sum() > 1000
        # 1/K at most 0.9 of both t0 / 2 and t0 / (2D)
        k = np.maximum(1.0, 1 / (0.9 * np.minimum(t0 / 2, t0 / (2 * d))))
        assert _tau_feasible(d, h, k).all()

    def test_oracle_monotone_nonincreasing(self):
        values = [tau_bound_oracle(k).value for k in (1.0, 1.5, 2.0, 4.0)]
        assert abs(values[0] - 1.0) < 1e-6
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            tau_ellipticity_bound(0.5)
