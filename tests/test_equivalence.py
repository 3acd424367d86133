import math

import numpy as np
import pytest

from flrlab import (
    CovOperator,
    DegenerateDesignError,
    DesignSample,
    DesignSpec,
    build_gram_transform,
    conditional_loglik,
    empirical_covariance,
    flr_to_whitenoise,
    reduced_loglik,
    sample_basis_design,
    sample_gaussian_design,
    simulate_empirical_wn,
    simulate_flr_responses,
    sqrt_apply,
    whitenoise_to_flr,
)
from flrlab.function_space import FOURIER, basis_function

from oracles import eigenfunctions, trapezoid_weights


def random_theta(seed, count=12, scale=0.4):
    """The first ``count`` Fourier coefficients of a random theta."""
    return scale * np.random.default_rng(seed).standard_normal(count)


class TestGramTransform:
    def test_single_design_gives_plus_one(self):
        spec = DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=256)
        s = sample_basis_design(spec, 1, 2)
        t = build_gram_transform(s, empirical_covariance(s))
        assert t.a.shape == (1, 1)
        assert t.a[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_orthogonality(self, sample25, cov25):
        t = build_gram_transform(sample25, cov25)
        assert np.max(np.abs(t.a.T @ t.a - np.eye(25))) <= 1e-8
        assert np.max(np.abs(t.a @ t.a.T - np.eye(25))) <= 1e-8

    def test_gram_diagonalization(self, sample25, cov25):
        t = build_gram_transform(sample25, cov25)
        qtq = t.q.T @ t.q
        off = qtq - np.diag(np.diag(qtq))
        assert np.max(np.abs(off)) <= 1e-8 * 25 * cov25.eigenvalues[0]
        assert np.max(np.abs(np.diag(qtq) - 25 * cov25.eigenvalues[:25])) \
            <= 1e-8 * 25 * cov25.eigenvalues[0]

    def test_determinant_is_plus_one(self, sample25, cov25):
        t = build_gram_transform(sample25, cov25)
        assert abs(np.linalg.det(t.a) - 1.0) <= 1e-6

    def test_rank_deficient_design_aborts(self):
        spec = DesignSpec(kind="basis-expansion", alpha=2.0, j_truncation=8, grid_size=256)
        s = sample_basis_design(spec, 12, 3)
        cov = empirical_covariance(s)
        with pytest.raises(DegenerateDesignError, match="J = 8 Fourier terms"):
            build_gram_transform(s, cov)

    def test_rank_deficient_grid_design_reports_its_rank(self):
        # a Brownian sample with a repeated design: J = 6 >= n = 3, rank 2
        spec = DesignSpec(kind="integrated-gaussian", grid_size=256)
        rows = sample_gaussian_design(spec, 3, 3).coeffs
        s = DesignSample(coeffs=np.vstack([rows[:2], rows[:1]]), spec=spec)
        with pytest.raises(DegenerateDesignError, match=r"numerically rank deficient: rank 2 < n 3"):
            build_gram_transform(s, empirical_covariance(s))

    def test_orthogonality_failures_name_the_matrix_and_defect(self, sample25, cov25):
        def operator(eigenvalues, vectors):
            return CovOperator(eigenvalues=eigenvalues, coeff_vectors=vectors, basis=cov25.basis,
                               grid_size=cov25.grid_size, n_samples=25)

        # eigenvalues twice too large: Q^T Q stays diagonal, at half of n lambda
        bad_scale = operator(2.0 * cov25.eigenvalues, cov25.coeff_vectors)
        with pytest.raises(DegenerateDesignError,
                           match=r"diag\(Q\^T Q\) is not n lambda: largest gap over n lambda_1 "
                                 r"is 5\.000e-01 > ORTHOGONALITY_TOL = 1e-08"):
            build_gram_transform(sample25, bad_scale)
        # orthonormal vectors that are not eigenvectors: Q^T Q is not diagonal
        mixed = np.linalg.qr(cov25.coeff_vectors + 0.1)[0]
        with pytest.raises(DegenerateDesignError,
                           match=r"Q\^T Q is not numerically diagonal: .* is \d\.\d{3}e-\d+ > "
                                 r"ORTHOGONALITY_TOL = 1e-08"):
            build_gram_transform(sample25, operator(cov25.eigenvalues, mixed))
        # the operator's own eigenpairs, but no whitening matrix to take A from
        with pytest.raises(ValueError, match="no whitening matrix"):
            build_gram_transform(sample25, operator(cov25.eigenvalues, cov25.coeff_vectors))

    @pytest.mark.parametrize("alpha", [4.0, 5.0])
    def test_steep_spectra_whiten_exactly(self, alpha):
        # lambda_1 / lambda_n is 2e11 at alpha = 5, n = 100; A is the
        # eigenvector matrix itself, so that ratio never enters it
        s = sample_basis_design(DesignSpec(kind="basis-expansion", alpha=alpha), 100, 7)
        t = build_gram_transform(s, empirical_covariance(s))
        defect = np.max(np.abs(t.a.T @ t.a - np.eye(100)))
        assert t.orthogonality_defect == defect <= 1e-13
        y = simulate_flr_responses(s, random_theta(3), 1.0, 4)
        back = whitenoise_to_flr(flr_to_whitenoise(y, t), t)
        assert np.max(np.abs(back - y)) <= 1e-12 * np.max(np.abs(y))

    def test_requires_matching_operator(self, sample25, small_spec):
        other = empirical_covariance(sample_basis_design(small_spec, 25, 1))
        with pytest.raises(ValueError):
            build_gram_transform(sample25, other)


class TestTransformRoundtrip:
    def test_zero_maps_to_zero(self, sample25, cov25):
        t = build_gram_transform(sample25, cov25)
        assert np.all(flr_to_whitenoise(np.zeros(25), t).z == 0.0)

    def test_roundtrip(self, sample25, cov25):
        t = build_gram_transform(sample25, cov25)
        rng = np.random.default_rng(5)
        y = rng.standard_normal(25)
        back = whitenoise_to_flr(flr_to_whitenoise(y, t), t)
        assert np.max(np.abs(back - y)) <= 1e-10

    def test_unit_coefficient_maps_to_column(self, sample25, cov25):
        t = build_gram_transform(sample25, cov25)
        e3 = np.zeros(25)
        e3[3] = 1.0
        y = whitenoise_to_flr(e3, t)
        assert np.max(np.abs(y - t.a[:, 3])) == 0.0
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-10)

    def test_isometry(self, sample25, cov25):
        t = build_gram_transform(sample25, cov25)
        rng = np.random.default_rng(6)
        for _ in range(1000):
            z = rng.standard_normal(25)
            y = whitenoise_to_flr(z, t)
            assert abs(np.linalg.norm(y) / np.linalg.norm(z) - 1.0) <= 1e-10


class TestDirectSimulation:
    def test_noiseless_matches_transform_route(self, sample25, cov25):
        theta = random_theta(11)
        t = build_gram_transform(sample25, cov25)
        y = simulate_flr_responses(sample25, theta, 0.0, 1)
        z_transform = flr_to_whitenoise(y, t).z
        z_direct = simulate_empirical_wn(theta, sample25, cov25, 0.0, 2).z
        assert np.max(np.abs(z_transform - z_direct)) <= 1e-6

    def test_pure_noise_variance(self, small_spec):
        s = sample_basis_design(small_spec, 10, 14)
        cov = empirical_covariance(s)
        theta = np.zeros(12)
        draws = np.stack([
            simulate_empirical_wn(theta, s, cov, 2.0, 100 + i).z for i in range(10_000)
        ])
        v = draws.var(axis=0, ddof=1).mean()
        se = 4.0 * math.sqrt(2.0 / (draws.shape[0] - 1)) / math.sqrt(10)
        assert abs(v - 4.0) <= 3 * se

    def test_drift_vanishes_off_range(self, small_spec):
        # coefficients beyond the operator rank carry no signal
        s = sample_basis_design(small_spec, 10, 15)
        cov = empirical_covariance(s)
        theta = random_theta(16)
        rng = np.random.default_rng(0)
        g = rng.standard_normal(small_spec.grid_size)
        w = trapezoid_weights(small_spec.grid_size)
        phi = eigenfunctions(cov)
        g = g - (phi * w) @ g @ phi
        g /= np.linalg.norm(g)
        drift = basis_function(sqrt_apply(s, theta), FOURIER, small_spec.grid_size)
        assert abs(np.dot(w * g, drift.values)) <= 1e-10


class TestCoefficientRoute:
    """Responses for basis-expansion designs come from the coefficients."""

    @staticmethod
    def _pair(seed, n=300):
        """A sample and its designs rendered on the grid, the quadrature reference."""
        s = sample_basis_design(DesignSpec(kind="basis-expansion", alpha=2.0), n, seed)
        return s, s.coeffs @ s.basis_matrix

    def test_matches_grid_route_without_building_it(self, monkeypatch):
        s, grid_values = self._pair(41)
        theta = random_theta(42, count=40, scale=0.6)
        noise = 0.5 * np.random.default_rng(9).standard_normal(s.n)
        rendered = basis_function(theta, FOURIER, s.grid_size)
        y_grid = grid_values @ (trapezoid_weights(s.grid_size) * rendered.values) + noise
        monkeypatch.setattr(DesignSample, "values",
                            property(lambda self: pytest.fail("grid materialized")))
        y = simulate_flr_responses(s, theta, 0.5, 9)
        assert np.linalg.norm(y - y_grid) <= 1e-12 * np.linalg.norm(y_grid)
        ll_grid = (-0.5 * s.n * math.log(2.0 * math.pi) - s.n * math.log(0.5)
                   - float(noise @ noise) / (2.0 * 0.25))
        assert conditional_loglik(y, s, theta, 0.5) == pytest.approx(ll_grid, rel=1e-12)

    def test_fourier_coefficients_are_exact(self, monkeypatch):
        s, grid_values = self._pair(43)
        w = trapezoid_weights(s.grid_size)
        for count in (5, 64, 200):       # shorter and longer than the expansion (J = 128)
            coeffs = np.random.default_rng(count).standard_normal(count)
            padded = np.zeros(s.coeffs.shape[1])
            padded[: min(count, padded.size)] = coeffs[: padded.size]
            rendered = basis_function(coeffs, FOURIER, s.grid_size)
            y_grid = (grid_values @ (w * rendered.values)
                      + 0.3 * np.random.default_rng(5).standard_normal(s.n))
            with monkeypatch.context() as m:
                m.setattr(DesignSample, "values",
                          property(lambda self: pytest.fail("grid materialized")))
                y = simulate_flr_responses(s, coeffs, 0.3, 5)
                assert np.array_equal(
                    y, s.coeffs @ padded + 0.3 * np.random.default_rng(5).standard_normal(s.n))
            # modes beyond the expansion are orthogonal to every design
            assert np.linalg.norm(y - y_grid) <= 1e-12 * np.linalg.norm(y_grid)

    def test_gram_transform_without_grid(self, monkeypatch):
        # full rank (n = 40 < J = 80): Q = C U, also inside the determinant fix
        s = sample_basis_design(DesignSpec(kind="basis-expansion", alpha=2.0), 40, 44)
        grid_values = s.coeffs @ s.basis_matrix
        monkeypatch.setattr(DesignSample, "values",
                            property(lambda self: pytest.fail("grid materialized")))
        cov = empirical_covariance(s)
        t = build_gram_transform(s, cov)
        w = trapezoid_weights(s.grid_size)
        grid_a = ((grid_values * w) @ eigenfunctions(cov).T) / t.dvec
        assert np.linalg.norm(t.a - grid_a) <= 1e-12 * np.linalg.norm(grid_a)
        assert np.linalg.det(t.a) == pytest.approx(1.0, abs=1e-10)


class TestConditionalLikelihood:
    def test_zero_residual_value(self, small_spec):
        s = sample_basis_design(small_spec, 1, 21)
        theta = random_theta(22)
        y = simulate_flr_responses(s, theta, 0.0, 1)
        sigma = 0.7
        assert conditional_loglik(y, s, theta, sigma) \
            == pytest.approx(-0.5 * math.log(2 * math.pi) - math.log(sigma), abs=1e-10)

    def test_sigma_doubling_with_zero_residual(self, sample25):
        theta = random_theta(23)
        y = simulate_flr_responses(sample25, theta, 0.0, 1)
        l1 = conditional_loglik(y, sample25, theta, 1.0)
        l2 = conditional_loglik(y, sample25, theta, 2.0)
        assert l1 - l2 == pytest.approx(25 * math.log(2.0), abs=1e-9)

    def test_sigma_must_be_positive(self, sample25):
        theta = random_theta(24)
        with pytest.raises(ValueError):
            conditional_loglik(np.zeros(25), sample25, theta, 0.0)

    def test_reduction_identity(self):
        # direct Gaussian density equals the rotated one on random instances
        rng = np.random.default_rng(31)
        for trial in range(100):
            n = int(rng.integers(3, 30))
            spec = DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=512)
            s = sample_basis_design(spec, n, 2000 + trial)
            cov = empirical_covariance(s)
            t = build_gram_transform(s, cov)
            theta = random_theta(3000 + trial)
            y = rng.standard_normal(n)
            sigma = float(rng.uniform(0.5, 2.0))
            direct = conditional_loglik(y, s, theta, sigma)
            reduced = reduced_loglik(y, t, cov, theta, sigma)
            assert abs(direct - reduced) <= 1e-8

