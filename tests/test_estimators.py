import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from flrlab import (
    DesignSpec,
    SpecValidationError,
    ThetaClass,
    cutoff_estimator,
    data_driven_gamma,
    data_driven_split,
    default_rho,
    empirical_covariance,
    flr_pinsker_fit,
    pinsker_gamma_oracle,
    pinsker_oracle_weights,
    pinsker_weights,
    power_lambda_profile,
    sample_basis_design,
    sample_design,
    sample_theta,
    select_cutoff,
    sharp_risk_constant,
    simulate_flr_responses,
    simulate_sequence,
)
from flrlab.covariance import empirical_eigenvalues
from flrlab.estimators import cutoff_split, pinsker_sequence_estimator, validate_rho
from flrlab.function_space import basis_function

from oracles import (brute_force_linear_minimax, eigenfunctions, ellipsoid_sum, grid_norm,
                     ols_slope, pinsker_level_brentq, sharp_risk_exact, true_operator,
                     white_noise_cutoff)

TOY = ThetaClass(beta=1.0, c_theta=1.0)   # single-coefficient closed forms


class TestThetaClass:
    def test_validation(self):
        with pytest.raises(SpecValidationError):
            ThetaClass(beta=0.4, c_theta=1.0)
        with pytest.raises(SpecValidationError):
            ThetaClass(beta=2.0, c_theta=0.0)

    def test_alpha_compatibility(self):
        tc = ThetaClass(beta=2.0, c_theta=1.0)
        tc.check_against_alpha(2.0)
        with pytest.raises(SpecValidationError):
            tc.check_against_alpha(4.0)
        with pytest.raises(SpecValidationError):
            tc.check_against_alpha(2.0, plug_in=True)
        ThetaClass(beta=4.0, c_theta=1.0).check_against_alpha(2.0, plug_in=True)


class TestSelectCutoff:
    def test_smallest_sample(self):
        assert select_cutoff(1, 2.0, 2.0) == 1

    def test_reference_arithmetic(self):
        # ceil(1000^(1/7)) computed independently
        assert select_cutoff(1000, 2.0, 2.0) == math.ceil(1000 ** (1 / 7)) == 3

    def test_monotone_in_m(self):
        ks = [select_cutoff(m, 2.0, 2.0) for m in range(1, 5000, 37)]
        assert all(b >= a for a, b in zip(ks, ks[1:]))

    def test_split_fits_half_the_pairs(self):
        # the cutoff fit on n pairs uses the first n // 2, at their cutoff
        for n in (2, 3, 512, 2049):
            assert cutoff_split(n, 2.0, 2.0) == (n // 2, select_cutoff(n // 2, 2.0, 2.0))
        assert cutoff_split(2048, 2.0, 2.0) == (1024, 3)
        with pytest.raises(ValueError):
            cutoff_split(1, 2.0, 2.0)


class TestCutoffSplitProperties:
    # The design draw of the cutoff's sums, of either kind, needs its lead
    # k <= m rows (designs.stream_moments), which the split keeps on the
    # whole range.
    @given(log_n=st.floats(math.log10(2.0), 12.0), alpha=st.floats(2.0, 50.0),
           excess=st.floats(0.0, 50.0, exclude_min=True))
    def test_cutoff_lies_in_one_to_m(self, log_n, alpha, excess):
        n = max(2, round(10.0**log_n))
        m, k = cutoff_split(n, alpha, (alpha + 1.0) / 2.0 + excess)
        assert 1 <= k <= m == n // 2


class TestCutoffEstimator:
    def test_sequence_route_noiseless(self):
        lam = np.arange(1, 9, dtype=float) ** -2.0
        theta = np.concatenate([[1.0], np.zeros(7)])
        obs = simulate_sequence(theta, lam, 50, 0.0, 0)
        est = cutoff_estimator(obs, None, 3)
        assert np.allclose(est, theta[:3])

    def test_true_operator_recovers_exactly(self):
        # sigma = 0 and the true operator in place of the empirical one
        spec = DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=256, j_truncation=16)
        lam = spec.lambda_profile()(np.arange(1, 17, dtype=float))
        theta_coeffs = np.concatenate([[1.0], np.zeros(15)])
        # the noiseless cross moment with Gamma = diag(lambda) in place of Gamma-hat
        est = cutoff_estimator(lam * theta_coeffs, lam[:8], 3)
        assert np.max(np.abs(est - theta_coeffs[:3])) <= 1e-10

    def test_orthogonal_target_gives_zero(self):
        spec = DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=256, j_truncation=16)
        lam = spec.lambda_profile()(np.arange(1, 17, dtype=float))
        theta_coeffs = np.zeros(16)
        theta_coeffs[10] = 1.0     # beyond the cutoff
        est = cutoff_estimator(lam * theta_coeffs, lam[:8], 4)
        assert np.max(np.abs(est)) <= 1e-10

    @pytest.mark.parametrize("kind,n", [
        ("basis-expansion", 100),       # full rank, J = 128: the whitening transform
        ("integrated-gaussian", 64),    # the dual n x n route, J = 128
        ("basis-expansion", 300),       # rank 128 < n: z_j = <y, C u_j> / sqrt(n lam-hat_j)
    ], ids=lambda p: str(p))
    def test_cross_moment_route_is_the_white_noise_route(self, kind, n):
        # theta-hat_k = (X^T y / n)_k / lambda_k equals the rotation of the
        # white-noise coefficients of the same responses through the overlap
        # (the reference route ``white_noise_cutoff``)
        from flrlab import WnCoefficients, build_gram_transform, flr_to_whitenoise

        spec = DesignSpec(kind=kind, alpha=2.0, grid_size=256)
        s = sample_design(spec, n, 11)
        tc = ThetaClass(beta=2.0, c_theta=1.0)
        theta = sample_theta(tc, "boundary", spec.lambda_profile(), 0.5, n, 0)
        y = simulate_flr_responses(s, theta, 0.5, 3)
        emp = empirical_covariance(s)
        if emp.rank == n:
            z = flr_to_whitenoise(y, build_gram_transform(s, emp)).z
        else:
            r = emp.rank
            z = (y @ emp.design_products(s, r)) / np.sqrt(n * emp.eigenvalues[:r])
        k = 4
        old = white_noise_cutoff(WnCoefficients(z), true_operator(spec, k), emp, k, n)
        lam = spec.lambda_profile()(np.arange(1, k + 1, dtype=float))
        new = cutoff_estimator(s.cross_moment(y), lam, k)
        assert np.linalg.norm(new - old) <= 1e-10 * np.linalg.norm(old)
        assert np.array_equal(new, s.cross_moment(y)[:k] / lam)

    def test_cutoff_beyond_spectrum(self):
        lam = np.arange(1, 4, dtype=float) ** -2.0
        obs = simulate_sequence(np.zeros(3), lam, 10, 1.0, 0)
        with pytest.raises(ValueError):
            cutoff_estimator(obs, None, 5)
        with pytest.raises(ValueError, match="true spectrum"):
            cutoff_estimator(np.ones(8), lam, 5)

    def test_short_cross_moment_is_rejected(self):
        # a cross moment of 3 coefficients cannot fill a cutoff of 5: no
        # coordinate is zero-padded
        lam = np.arange(1, 9, dtype=float) ** -2.0
        with pytest.raises(ValueError, match="cutoff 5 exceeds the 3 observed coefficients"):
            cutoff_estimator(np.ones(3), lam, 5)
        assert np.array_equal(cutoff_estimator(np.ones(5), lam, 5), 1.0 / lam[:5])

    def test_non_positive_eigenvalues_are_rejected(self):
        for bad in (0.0, -0.25):
            lam = np.array([1.0, 0.5, bad, 0.1])
            with pytest.raises(ValueError, match="positive up to the cutoff"):
                cutoff_estimator(np.ones(4), lam, 3)
            # eigenvalues beyond the cutoff are not read
            assert cutoff_estimator(np.ones(4), lam, 2).shape == (2,)
        with pytest.raises(ValueError, match="need the true eigenvalues"):
            cutoff_estimator(np.ones(4), None, 2)


class TestPinskerWeights:
    def test_zero_gamma(self):
        w = pinsker_weights(0.0, TOY, 5)
        assert np.all(w == 1.0)

    def test_total_shrinkage(self):
        assert np.all(pinsker_weights(1.0, TOY, 5) == 0.0)

    def test_first_weight_formula(self):
        w = pinsker_weights(0.1, TOY, 3)
        assert w[0] == pytest.approx(1.0 - 0.1 * math.sqrt(2.0), abs=1e-12)

    def test_sandwich_and_support(self):
        tc = ThetaClass(beta=2.0, c_theta=1.0)
        gamma = 0.07
        w = pinsker_weights(gamma, tc, 32)
        assert np.all((0.0 <= w) & (w <= 1.0))
        assert np.all(np.diff(w) <= 0)
        support_bound = gamma ** (-1.0 / tc.beta) + 1
        ks = np.arange(1, 33)
        assert np.all(w[ks > support_bound] == 0.0)

    def test_default_count_is_active_support(self):
        tc = ThetaClass(beta=2.0, c_theta=1.0)
        for gamma in (0.003, 0.07, 0.3, 0.7):
            w = pinsker_weights(gamma, tc)
            full = pinsker_weights(gamma, tc, 200)
            support = max(int(np.count_nonzero(full)), 1)
            assert w.size == support
            assert np.array_equal(w, full[:support])


class TestOracleWeights:
    @pytest.mark.parametrize("n", [2, 20])
    def test_first_weight_at_vanishing_signal(self, n):
        # s = c_theta n / sigma^2 = 2e-16 and 2e-15, below the rounding of
        # S2 = b_1^2 / lambda_1 = 2: 1 - gamma b_1 read 0.0 at n = 2 and
        # 1.11e-15 at n = 20, against s/(2 + s)
        tc, sigma = ThetaClass(beta=2.0, c_theta=1e-8), 1e4
        s = tc.c_theta * n / sigma**2
        w = pinsker_oracle_weights(power_lambda_profile(2.0), tc, sigma, n)
        exact = s / (2.0 + s)
        assert w.size == 1 and abs(w[0] - exact) <= 1e-12 * exact

    def test_are_the_levels_weights_where_nothing_cancels(self):
        # the configs the studies run: 1 - gamma b_k at the oracle gamma, on
        # its active support, to rounding
        for alpha, beta, c, sigma, n in ((2.0, 2.0, 1.0, 0.3, 512), (2.0, 4.0, 1.0, 8.0, 10**4),
                                         (3.7, 3.0, 50.0, 0.1, 10**5), (2.0, 1.6, 1.0, 1.0, 300)):
            lam, tc = power_lambda_profile(alpha), ThetaClass(beta=beta, c_theta=c)
            w = pinsker_oracle_weights(lam, tc, sigma, n)
            ref = pinsker_weights(pinsker_gamma_oracle(lam, tc, sigma, n), tc)
            assert w.size == ref.size and np.all(w > 0.0)
            assert np.max(np.abs(w - ref)) <= 1e-15


class TestGammaOracle:
    def test_single_coefficient_closed_form(self):
        gamma = pinsker_gamma_oracle([1.0], TOY, 1.0, 1)
        assert abs(gamma - math.sqrt(2.0) / 3.0) <= 1e-10

    def test_monotone_in_n(self):
        lam = power_lambda_profile(2.0)
        tc = ThetaClass(beta=2.0, c_theta=1.0)
        gammas = [pinsker_gamma_oracle(lam, tc, 1.0, n) for n in (100, 1000, 10_000)]
        assert gammas[0] > gammas[1] > gammas[2]

    def test_rate_exponent(self):
        lam = power_lambda_profile(2.0)
        tc = ThetaClass(beta=2.0, c_theta=1.0)
        ns = np.logspace(2, 6, 9)
        gammas = [pinsker_gamma_oracle(lam, tc, 1.0, int(n)) for n in ns]
        slope = ols_slope(np.log(ns), np.log(gammas))
        assert abs(slope - (-2.0 / 7.0)) <= 0.1

    def test_residual_below_tolerance(self):
        lam = power_lambda_profile(2.0)
        tc = ThetaClass(beta=2.0, c_theta=1.0)
        n = 5000
        gamma = pinsker_gamma_oracle(lam, tc, 1.0, n)
        ks = np.arange(1, 200, dtype=float)
        b = tc.beta_k(ks)
        phi1 = np.sum(np.clip(1 - gamma * b, 0, None) * b * ks**2)
        assert abs(phi1 - n * gamma) <= 1e-10

    def test_matches_brentq_on_random_finite_profiles(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            lam = np.sort(np.exp(rng.uniform(-12.0, 0.0, int(rng.integers(1, 80)))))[::-1]
            beta, c = rng.uniform(0.6, 8.0), 10.0 ** rng.uniform(-3.0, 1.7)
            sigma, n = 10.0 ** rng.uniform(-3.0, 2.0), int(10.0 ** rng.uniform(0.0, 9.0))
            gamma = pinsker_gamma_oracle(lam, ThetaClass(beta=beta, c_theta=c), sigma, n)
            ref = pinsker_level_brentq(lam, beta, c, sigma, n)
            assert abs(gamma - ref) <= 1e-12 * ref

    def test_roadmap_config_solves(self):
        # alpha = 2, beta = 2, c_theta = 50, sigma = 0.1, n = 1e5: valid, yet an
        # absolute residual check once rejected it
        lam = power_lambda_profile(2.0)
        gamma = pinsker_gamma_oracle(lam, ThetaClass(beta=2.0, c_theta=50.0), 0.1, 100_000)
        ref = pinsker_level_brentq(lam(np.arange(1, 2001)), 2.0, 50.0, 0.1, 100_000)
        assert abs(gamma - ref) <= 1e-12 * ref


def _relative_residual(gamma, lam_fn, tc, sigma, n):
    """|Phi_1 - Phi_2| at gamma over sum b/lambda, both on {k : b_k < 1/gamma}."""
    ks = np.arange(1, int((1.0 / gamma) ** (1.0 / tc.beta)) + 3, dtype=float)
    b = tc.beta_k(ks)
    active = b < 1.0 / gamma
    b, lam = b[active], lam_fn(ks[active])
    resid = np.sum(b * (1.0 - gamma * b) / lam) - tc.c_theta * n / sigma**2 * gamma
    return abs(resid) / np.sum(b / lam)


# The paper's admissible range: alpha in [2, 6], beta > (alpha + 1)/2,
# sigma in [1e-3, 100], n in [1, 1e9], c_theta in [1e-3, 50]; scales log-uniform.
ADMISSIBLE = dict(
    alpha=st.floats(2.0, 6.0),
    excess=st.floats(0.0, 6.0, exclude_min=True),
    log_sigma=st.floats(-3.0, 2.0),
    log_n=st.floats(0.0, 9.0),
    log_c=st.floats(-3.0, math.log10(50.0)),
)


def _admissible(alpha, excess, log_sigma, log_c):
    tc = ThetaClass(beta=(alpha + 1.0) / 2.0 + excess, c_theta=10.0**log_c)
    return power_lambda_profile(alpha), tc, 10.0**log_sigma


class TestGammaOracleProperties:
    @given(**ADMISSIBLE)
    def test_in_bracket_with_tiny_relative_residual(self, alpha, excess, log_sigma, log_n, log_c):
        lam, tc, sigma = _admissible(alpha, excess, log_sigma, log_c)
        n = max(1, round(10.0**log_n))
        gamma = pinsker_gamma_oracle(lam, tc, sigma, n)
        assert 0.0 < gamma < 1.0 / tc.beta_k(1)
        assert _relative_residual(gamma, lam, tc, sigma, n) <= 1e-12

    @given(log_n2=st.floats(0.0, 9.0), **ADMISSIBLE)
    def test_non_increasing_in_n(self, alpha, excess, log_sigma, log_n, log_n2, log_c):
        lam, tc, sigma = _admissible(alpha, excess, log_sigma, log_c)
        n1, n2 = sorted(max(1, round(10.0**e)) for e in (log_n, log_n2))
        assert pinsker_gamma_oracle(lam, tc, sigma, n2) <= pinsker_gamma_oracle(lam, tc, sigma, n1)

    @given(**ADMISSIBLE)
    def test_oracle_weights_and_sharp_constant(self, alpha, excess, log_sigma, log_n, log_c):
        lam, tc, sigma = _admissible(alpha, excess, log_sigma, log_c)
        n = max(1, round(10.0**log_n))
        w = pinsker_oracle_weights(lam, tc, sigma, n)
        assert w.size >= 1 and np.all(np.isfinite(w))
        assert np.all((w >= 0.0) & (w <= 1.0)) and np.all(np.diff(w) <= 0.0)
        a_n = sharp_risk_constant(lam, tc, sigma, n)
        assert math.isfinite(a_n) and a_n > 0.0
        if w.size == 1:
            # one active coordinate, lambda_1 = 1, b_1^2 = 2: w_1 = s/(2 + s)
            s = tc.c_theta * n / sigma**2
            assert w[0] == pytest.approx(s / (2.0 + s), rel=1e-15)

    @given(**ADMISSIBLE)
    def test_data_driven_level_above_the_plug_in_bound(self, alpha, excess, log_sigma, log_n,
                                                       log_c):
        # beta > alpha + 3/2, the plug-in fit's condition, on the spectrum
        # k^-alpha of J = 128 training coordinates
        tc = ThetaClass(beta=alpha + 1.5 + excess, c_theta=10.0**log_c)
        n = max(8, round(10.0**log_n))
        spectrum = np.arange(1, 129, dtype=float) ** -alpha
        sel = data_driven_gamma(spectrum, n, tc, 10.0**log_sigma, default_rho(alpha), alpha=alpha)
        assert math.isfinite(sel.gamma_tilde) and sel.gamma_tilde > 0.0


class TestSelectCutoffProperties:
    @given(log_m=st.floats(0.0, 12.0), log_m2=st.floats(0.0, 12.0), alpha=ADMISSIBLE["alpha"],
           excess=ADMISSIBLE["excess"])
    def test_admissible_scan(self, log_m, log_m2, alpha, excess):
        # over the admissible range and m up to 1e12: an int in [1, m], the
        # most lead columns a design draw of m fitted rows takes
        # (designs.stream_moments), and non-decreasing in m
        beta = (alpha + 1.0) / 2.0 + excess
        m1, m2 = sorted(max(1, round(10.0**e)) for e in (log_m, log_m2))
        k1, k2 = (select_cutoff(m, alpha, beta) for m in (m1, m2))
        assert type(k1) is int and 1 <= k1 <= m1
        assert 1 <= k2 <= m2 and k1 <= k2


class TestSharpRiskConstant:
    def test_single_coefficient_value(self):
        assert abs(sharp_risk_constant([1.0], TOY, 1.0, 1) - 1.0 / 3.0) <= 1e-10

    @pytest.mark.parametrize("n", [2, 20])
    def test_one_term_at_vanishing_signal(self, n):
        # s = c_theta n / sigma^2 = 2e-16 and 2e-15, below the rounding of
        # S2 = b_1^2 / lambda_1 = 2: 1 - gamma b_1 cancelled to 0.0 at n = 2
        # and read 11 % high at n = 20
        tc, sigma = ThetaClass(beta=2.0, c_theta=1e-8), 1e4
        s = tc.c_theta * n / sigma**2
        exact = tc.c_theta / (tc.beta_k(1) ** 2 + s * 1.0)
        a_n = sharp_risk_constant(power_lambda_profile(2.0), tc, sigma, n)
        assert abs(a_n - exact) <= 1e-12 * exact

    def test_matches_the_active_sum_where_nothing_cancels(self):
        # the configs the studies run (s >= 1): the margin form gives the
        # values of (sigma^2/n) sum (1 - gamma b_k) / lambda_k at the oracle gamma
        for alpha, beta, c, sigma, n in ((2.0, 2.0, 1.0, 0.3, 512), (2.0, 2.0, 1.0, 1.0, 10**4),
                                         (2.0, 4.0, 1.0, 8.0, 10**4), (3.7, 3.0, 50.0, 0.1, 10**5),
                                         (8.0, 5.0, 1e-3, 1e-3, 10**9), (2.0, 1.6, 1.0, 1.0, 300)):
            lam, tc = power_lambda_profile(alpha), ThetaClass(beta=beta, c_theta=c)
            gamma = pinsker_gamma_oracle(lam, tc, sigma, n)
            ks = np.arange(1, int((1.0 / gamma) ** (1.0 / beta)) + 3, dtype=float)
            margins = np.clip(1.0 - gamma * tc.beta_k(ks), 0.0, None)
            today = sigma**2 / n * float(np.sum(margins / lam(ks)))
            assert abs(sharp_risk_constant(lam, tc, sigma, n) - today) <= 1e-12 * today

    def test_matches_exact_arithmetic_across_scales(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            alpha = rng.uniform(2.0, 6.0)
            beta, c = (alpha + 1.0) / 2.0 + rng.uniform(0.0, 6.0), 10.0 ** rng.uniform(-8.0, 8.0)
            sigma, n = 10.0 ** rng.uniform(-6.0, 4.0), int(10.0 ** rng.uniform(0.0, 12.0))
            lam = np.arange(1, 129, dtype=float) ** -alpha
            a_n = sharp_risk_constant(lam, ThetaClass(beta=beta, c_theta=c), sigma, n)
            exact = sharp_risk_exact(lam, beta, c, sigma, n)
            assert abs(a_n - exact) <= 1e-13 * exact

    def test_matches_brute_force_minimax(self):
        lam = np.arange(1, 9, dtype=float) ** -2.0
        for n in (20, 50, 200):
            a_n = sharp_risk_constant(lam, TOY, 1.0, n)
            brute = brute_force_linear_minimax(lam, 1.0, 1.0, 1.0, n)
            assert abs(a_n - brute) / a_n <= 0.01


class TestSampleTheta:
    LAM = power_lambda_profile(2.0)

    def test_boundary_saturates_ellipsoid(self):
        tc = ThetaClass(beta=2.0, c_theta=1.0)
        theta = sample_theta(tc, "boundary", self.LAM, 1.0, 100, 0)
        assert ellipsoid_sum(theta, tc.beta) == pytest.approx(1.0, rel=1e-8)

    def test_vertex_saturates_ellipsoid(self):
        tc = ThetaClass(beta=2.0, c_theta=2.0)
        theta = sample_theta(tc, "vertex", self.LAM, 1.0, 100, 0, vertex_index=5)
        assert ellipsoid_sum(theta, tc.beta) == pytest.approx(2.0, rel=1e-8)
        assert np.count_nonzero(theta) == 1

    def test_random_stays_inside(self):
        tc = ThetaClass(beta=2.0, c_theta=1.0)
        for seed in range(50):
            theta = sample_theta(tc, "random", self.LAM, 1.0, 100, seed)
            assert ellipsoid_sum(theta, tc.beta) <= 1.0 + 1e-10

    def test_least_favorable_single_coefficient(self):
        theta = sample_theta(TOY, "least-favorable", [1.0], 1.0, 1, 0, count=1)
        assert theta[0] ** 2 == pytest.approx(0.5, abs=1e-10)
        assert ellipsoid_sum(theta, TOY.beta) == pytest.approx(1.0, abs=1e-10)

    def test_boundary_homogeneity(self):
        small = sample_theta(ThetaClass(beta=2.0, c_theta=1.0), "boundary", self.LAM, 1.0, 10, 0)
        big = sample_theta(ThetaClass(beta=2.0, c_theta=4.0), "boundary", self.LAM, 1.0, 10, 0)
        assert np.allclose(big, 2.0 * small)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            sample_theta(TOY, "typo", self.LAM, 1.0, 1, 0)


class TestSequenceEstimator:
    def test_oracle_weights_shrink(self):
        lam = np.arange(1, 17, dtype=float) ** -2.0
        theta = sample_theta(ThetaClass(beta=2.0, c_theta=1.0), "boundary",
                             power_lambda_profile(2.0), 1.0, 100, 0, count=16)
        obs = simulate_sequence(theta, lam, 100, 1.0, 3)
        w = pinsker_weights(0.2, ThetaClass(beta=2.0, c_theta=1.0), 16)
        est = pinsker_sequence_estimator(obs, w)
        assert est.shape == (16,)
        assert np.all(est[w == 0.0] == 0.0)


class TestPlugInEstimator:
    SPEC = DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=256)

    def test_zero_weights_give_zero(self):
        s = sample_basis_design(self.SPEC, 20, 1)
        y = np.ones(20)
        fit = flr_pinsker_fit(empirical_covariance(s), s.cross_moment(y), np.zeros(5),
                              default_rho(2.0), alpha=2.0)
        assert np.all(fit.estimate.values == 0.0)

    def test_rho_validation(self):
        s = sample_basis_design(self.SPEC, 20, 1)
        cov, xty = empirical_covariance(s), s.cross_moment(np.ones(20))
        with pytest.raises(ValueError):
            flr_pinsker_fit(cov, xty, np.ones(3), 0.6, alpha=2.0)
        with pytest.raises(ValueError):
            flr_pinsker_fit(cov, xty, np.ones(3), 0.2, alpha=2.0)

    def test_plug_in_consistency(self):
        # noiseless fit of the first eigenfunction: leading coefficient near 1
        rho = default_rho(2.0)
        theta = np.array([1.0])      # the constant, the first Fourier function
        vals = []
        for rep in range(30):
            s = sample_basis_design(self.SPEC, 400, 500 + rep)
            y = simulate_flr_responses(s, theta, 0.0, rep)
            cov = empirical_covariance(s)
            fit = flr_pinsker_fit(cov, s.cross_moment(y), np.array([1.0]), rho, alpha=2.0)
            vals.append(cov.eigen_coefficients(fit.theta_hat, count=1)[0])
        assert abs(np.mean(vals) - 1.0) <= 0.05

    def test_support_cap_flagged_at_desk_scale(self):
        # the raw high-frequency cap would zero every weight here; it is
        # reported, not applied
        s = sample_basis_design(self.SPEC, 200, 2)
        y = np.ones(200)
        fit = flr_pinsker_fit(empirical_covariance(s), s.cross_moment(y),
                              np.array([0.9, 0.5, 0.2]), default_rho(2.0), alpha=2.0)
        assert fit.cap_binding
        assert np.array_equal(fit.weights, [0.9, 0.5, 0.2])

    def test_cross_moment_route_is_the_response_route(self, route_sample):
        # X^T y / n = Gamma-hat theta + sigma C^T eps / n: the fit from the
        # noise moment equals the fit from the responses, its Parseval score
        # equals the grid norm, and its rendering is the eigenfunction sum
        s, sigma, rho = route_sample, 0.5, default_rho(2.0)
        tc = ThetaClass(beta=2.0, c_theta=1.0)
        theta = sample_theta(tc, "boundary", power_lambda_profile(2.0), sigma, s.n, 0)
        eps = np.random.default_rng(5).standard_normal(s.n)
        w = pinsker_weights(0.01, tc)
        cov = empirical_covariance(s)
        from_responses = flr_pinsker_fit(cov, s.cross_moment(s.inner_products(theta) + sigma * eps),
                                         w, rho, alpha=2.0)
        fit = flr_pinsker_fit(cov, cov.apply(theta) + sigma * s.cross_moment(eps), w, rho,
                              alpha=2.0)
        for new, old in ((fit.theta_hat, from_responses.theta_hat),
                         (fit.coefficients, from_responses.coefficients)):
            assert np.linalg.norm(new - old) <= 1e-10 * np.linalg.norm(old)
        on_grid = grid_norm(fit.estimate.values
                            - basis_function(theta, s.basis, s.grid_size).values) ** 2
        assert abs(fit.squared_error(theta) - on_grid) <= 1e-10 * on_grid
        k = fit.coefficients.size
        rendered = fit.coefficients @ eigenfunctions(cov)[:k]
        assert np.max(np.abs(fit.estimate.values - rendered)) <= 1e-10

    def test_negative_weights_rejected(self):
        s = sample_basis_design(self.SPEC, 20, 1)
        with pytest.raises(ValueError, match="non-negative"):
            flr_pinsker_fit(empirical_covariance(s), s.cross_moment(np.ones(20)),
                            np.array([0.5, -0.1]), default_rho(2.0), alpha=2.0)


class TestDataDrivenGamma:
    SPEC = DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=256)

    def _dataset(self, n, seed=0, beta=4.0, c=1.0):
        # the selector reads only the spectrum of the training designs
        s = sample_basis_design(self.SPEC, n, seed)
        return ThetaClass(beta=beta, c_theta=c), empirical_eigenvalues(
            s.subset(slice(data_driven_split(n), n)))

    def test_huge_noise_clamps_to_larger_rail(self):
        tc, lam = self._dataset(200)
        sel = data_driven_gamma(lam, 200, tc, 1000.0, default_rho(2.0), alpha=2.0)
        rails = (200.0 ** sel.bound_low_exponent, 200.0 ** sel.bound_high_exponent)
        assert sel.gamma_tilde > max(rails)
        assert sel.gamma_hat == pytest.approx(max(rails))

    def test_tiny_noise_clamps_to_smaller_rail(self):
        tc, lam = self._dataset(200)
        sel = data_driven_gamma(lam, 200, tc, 1e-4, default_rho(2.0), alpha=2.0)
        rails = (200.0 ** sel.bound_low_exponent, 200.0 ** sel.bound_high_exponent)
        assert sel.gamma_tilde < min(rails)
        assert sel.gamma_hat == pytest.approx(min(rails))

    def test_needs_enough_data(self):
        tc, lam = self._dataset(200)
        with pytest.raises(ValueError):
            data_driven_gamma(lam, 4, tc, 1.0, default_rho(2.0), alpha=2.0)
        with pytest.raises(ValueError):
            data_driven_split(4)

    def test_training_half_is_held_out(self):
        tc, lam = self._dataset(200)
        sel = data_driven_gamma(lam, 200, tc, 8.0, default_rho(2.0), alpha=2.0)
        assert 1 <= sel.split_m < 200
        n = 200
        assert sel.split_m == math.ceil(n * (1.0 - 1.0 / math.log(n)))


class TestOracleOptimality:
    def test_gamma_minimizes_worst_case_risk(self):
        # exact sequence-model risk, worst case over boundary and least favorable
        lam_fn = power_lambda_profile(2.0)
        tc = ThetaClass(beta=2.0, c_theta=1.0)
        n, sigma, count = 2000, 1.0, 64
        ks = np.arange(1, count + 1, dtype=float)
        lam = lam_fn(ks)
        gamma_n = pinsker_gamma_oracle(lam_fn, tc, sigma, n)
        thetas = [
            sample_theta(tc, "boundary", lam_fn, sigma, n, 0, count=count),
            sample_theta(tc, "least-favorable", lam_fn, sigma, n, 0, count=count),
        ]

        def worst_risk(gamma):
            w = pinsker_weights(gamma, tc, count)
            noise = sigma**2 / n * np.sum(w**2 / lam)
            return max(float(np.sum((1 - w) ** 2 * th**2)) + noise for th in thetas)

        assert worst_risk(gamma_n) <= worst_risk(0.5 * gamma_n)
        assert worst_risk(gamma_n) <= worst_risk(2.0 * gamma_n)


class TestRhoHelpers:
    def test_default_inside_interval(self):
        for alpha in (2.0, 3.0, 5.0):
            rho = default_rho(alpha)
            validate_rho(rho, alpha)

    def test_midpoint_value(self):
        assert default_rho(2.0) == pytest.approx((2.0 / 7.0 + 0.5) / 2.0)
