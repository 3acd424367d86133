import math

import numpy as np
import pytest

from flrlab import (
    DesignSpec,
    ResolutionError,
    SpecValidationError,
    fourier_basis,
    norm,
    project,
    sample_basis_design,
    sample_gaussian_design,
    true_covariance,
    verify_condition_x,
)
from flrlab.designs import _uniform_coefficients
from flrlab.function_space import grid_nodes, sine_matrix, trapezoid_weights

from oracles import eigh_quadrature_kernel


class TestSpecValidation:
    def test_alpha_floor(self):
        with pytest.raises(SpecValidationError):
            DesignSpec(kind="basis-expansion", alpha=1.5)

    def test_unknown_kind(self):
        with pytest.raises(SpecValidationError):
            DesignSpec(kind="mystery")


class TestBasisDesign:
    def test_single_mode_norm(self):
        spec = DesignSpec(kind="basis-expansion", alpha=2.0, j_truncation=1, grid_size=128)
        s = sample_basis_design(spec, 1, 3)
        g = s.coeffs[0, 0]
        assert norm(s.function(0), 2) == pytest.approx(abs(g), rel=1e-10)

    def test_grid_too_coarse_for_the_expansion_is_rejected_at_the_draw(self):
        spec = DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=100)
        assert sample_basis_design(spec, 25, 1).coeffs.shape == (25, 50)
        with pytest.raises(ResolutionError):
            sample_basis_design(spec, 26, 1)

    def test_reproducible(self, small_spec):
        a = sample_basis_design(small_spec, 10, 99).values
        b = sample_basis_design(small_spec, 10, 99).values
        assert np.array_equal(a, b)

    def test_coefficient_variances_match_spectrum(self):
        # Monte Carlo moment check against the law of the expansion coefficients.
        spec = DesignSpec(kind="basis-expansion", alpha=2.0, j_truncation=32, grid_size=256)
        s = sample_basis_design(spec, 500, 11)
        basis = fourier_basis(8, 256)
        coords = np.stack([project(s.function(i), basis) for i in range(s.n)])
        emp_var = coords.var(axis=0)
        for j in range(8):
            target = (j + 1.0) ** -2.0
            assert abs(emp_var[j] - target) <= 0.15 * target

    def test_lazy_values_match_coefficients(self, small_spec):
        s = sample_basis_design(small_spec, 5, 1)
        rebuilt = s.coeffs @ s.basis_matrix
        assert np.array_equal(s.values, rebuilt)


    def test_uniform_sampler_matches_rng_uniform_bits(self):
        r = math.sqrt(3.0)
        for shape in [(7,), (50, 128), (3, 4, 5)]:
            rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
            a = _uniform_coefficients(rng_a, shape)
            b = rng_b.uniform(-r, r, shape)
            assert a.dtype == np.float64 and a.flags.writeable and a.shape == shape
            assert a.tobytes() == b.tobytes()
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_slice_subset_is_a_view(self, small_spec):
        s = sample_basis_design(small_spec, 40, 3)
        view, copy = s.subset(slice(10, 30)), s.subset(np.arange(10, 30))
        assert view.n == copy.n == 20
        assert np.shares_memory(view.coeffs, s.coeffs)
        assert not np.shares_memory(copy.coeffs, s.coeffs)
        assert np.array_equal(view.coeffs, copy.coeffs)
        assert np.array_equal(view.values, copy.values)

    def test_slice_subset_of_grid_designs_is_a_view(self):
        # Brownian samples slice their sine coefficients the same way
        spec = DesignSpec(kind="integrated-gaussian", grid_size=128)
        s = sample_gaussian_design(spec, 30, 4)
        view, copy = s.subset(slice(0, 12)), s.subset(np.arange(12))
        assert view.n == 12 and np.shares_memory(view.coeffs, s.coeffs)
        assert np.array_equal(view.values, copy.values)
        assert np.array_equal(view.values, s.values[:12])


class TestGaussianDesign:
    def test_starts_at_zero(self):
        # the sample holds J = min(2n, D - 1) sine coefficients with variances
        # lambda_k; rendered, every path starts at exactly 0
        spec = DesignSpec(kind="integrated-gaussian", grid_size=128)
        s = sample_gaussian_design(spec, 10, 5)
        assert s.basis == "sine" and s.coeffs.shape == (10, 20) and s._values is None
        assert np.array_equal(s.values, s.coeffs @ sine_matrix(20, 128))
        assert np.all(s.values[:, 0] == 0.0)
        assert sample_gaussian_design(spec, 100, 5).coeffs.shape == (100, 127)

    def test_coefficient_variances_are_the_brownian_spectrum(self):
        spec = DesignSpec(kind="integrated-gaussian", grid_size=256)
        s = sample_gaussian_design(spec, 4000, 6)
        lam = true_covariance(spec, 8).eigenvalues
        emp_var = s.coeffs[:, :8].var(axis=0)
        se = lam * math.sqrt(2.0 / (s.n - 1))
        assert np.all(np.abs(emp_var - lam) <= 4 * se)

    def test_terminal_variance_is_one(self):
        # Brownian motion has Var[X(1)] = t at t = 1.
        spec = DesignSpec(kind="integrated-gaussian", grid_size=256)
        s = sample_gaussian_design(spec, 10_000, 21)
        v = s.values[:, -1].var(ddof=1)
        se = math.sqrt(2.0 / (s.n - 1))
        assert abs(v - 1.0) <= 3 * se

    def test_covariance_kernel_is_min(self):
        spec = DesignSpec(kind="integrated-gaussian", grid_size=256)
        s = sample_gaussian_design(spec, 10_000, 22)
        t = grid_nodes(256)
        idx = np.linspace(20, 250, 5, dtype=int)
        x = s.values[:, idx]
        emp = (x.T @ x) / s.n
        for a in range(5):
            for b in range(5):
                target = min(t[idx[a]], t[idx[b]])
                # var of the product estimate, normal approximation
                se = math.sqrt((t[idx[a]] * t[idx[b]] + target**2) / s.n)
                assert abs(emp[a, b] - target) <= 3 * se


class TestTrueCovariance:
    def test_basis_eigenvalues_exact(self):
        spec = DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=256)
        op = true_covariance(spec, 6)
        assert np.allclose(op.eigenvalues, [1, 1 / 4, 1 / 9, 1 / 16, 1 / 25, 1 / 36])

    def test_brownian_top_eigenvalue(self):
        # Independent oracle: eigen-solve the discretized min(s,t) kernel.
        spec = DesignSpec(kind="integrated-gaussian", grid_size=512)
        op = true_covariance(spec, 4)
        assert op.eigenvalues[0] == pytest.approx(4.0 / math.pi**2, abs=1e-12)
        t = grid_nodes(512)
        kernel = np.minimum.outer(t, t)
        vals, _ = eigh_quadrature_kernel(kernel, trapezoid_weights(512), 4)
        assert abs(vals[0] - 4.0 / math.pi**2) <= 1e-3
        assert np.max(np.abs(vals - op.eigenvalues)) <= 1e-3

    def test_eigenvalues_strictly_decreasing(self):
        for spec in (DesignSpec(kind="basis-expansion", alpha=2.5, grid_size=256),
                     DesignSpec(kind="integrated-gaussian", grid_size=256)):
            lam = true_covariance(spec, 8).eigenvalues
            assert np.all(np.diff(lam) < 0)


class TestConditionX:
    def test_needs_hundred(self, small_spec):
        s = sample_basis_design(small_spec, 50, 1)
        with pytest.raises(ValueError):
            verify_condition_x(small_spec, s)

    def test_full_rank_when_expansion_covers(self):
        spec = DesignSpec(kind="basis-expansion", alpha=2.0, j_truncation=128, grid_size=256)
        s = sample_basis_design(spec, 100, 12)
        rep = verify_condition_x(spec, s)
        assert rep.gram_rank == 100 and rep.full_rank and not rep.truncation_limited

    def test_truncation_capped_rank_is_flagged(self):
        spec = DesignSpec(kind="basis-expansion", alpha=2.0, j_truncation=32, grid_size=256)
        s = sample_basis_design(spec, 120, 13)
        rep = verify_condition_x(spec, s)
        assert rep.gram_rank == 32 and not rep.full_rank and rep.truncation_limited

    @pytest.mark.parametrize("j_truncation, n, seed", [(128, 100, 12), (32, 120, 13),
                                                       (None, 300, 14), (256, 200, 15)])
    def test_coefficient_route_matches_grid_route(self, j_truncation, n, seed):
        grid_size = 512 if j_truncation == 256 else 256
        spec = DesignSpec(kind="basis-expansion", alpha=2.0, j_truncation=j_truncation,
                          grid_size=grid_size)
        s = sample_basis_design(spec, n, seed)
        rep = verify_condition_x(spec, s)
        assert s._values is None          # the coefficient route never builds the grid
        # reference: the same diagnostics by quadrature on the rendered grid
        x, w = s.values, trapezoid_weights(grid_size)
        norms = np.sqrt(np.einsum("ij,j,ij->i", x, w, x))
        mean = x.mean(axis=0)
        eig = np.linalg.eigvalsh((x * w) @ x.T)
        rank = int(np.sum(eig > 1e-10 * eig.max()))
        assert (rep.gram_rank, rep.full_rank, rep.truncation_limited) \
            == (rank, rank == n, spec.resolved_truncation(n) < n)
        assert rep.mean_norm == pytest.approx(math.sqrt(np.dot(w * mean, mean)), rel=1e-12)
        assert rep.mean_norm_scale == pytest.approx(norms.mean() / math.sqrt(n), rel=1e-12)
        assert np.allclose(rep.tail_x, np.linspace(0.0, norms.max() * 1.05 + 1e-12, 20),
                           rtol=1e-12, atol=0.0)

    def test_centering_is_clt_scale(self, small_spec):
        # mean-function norm below 5 E||X|| / sqrt(n) in at least 99% of seeds
        hits = 0
        trials = 200
        for seed in range(trials):
            s = sample_basis_design(small_spec, 100, seed)
            w = trapezoid_weights(small_spec.grid_size)
            norms = np.sqrt(np.einsum("ij,j,ij->i", s.values, w, s.values))
            mean = s.values.mean(axis=0)
            mnorm = math.sqrt(max(np.dot(w * mean, mean), 0.0))
            if mnorm < 5.0 * norms.mean() / math.sqrt(s.n):
                hits += 1
        assert hits >= 0.99 * trials
