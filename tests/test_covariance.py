import math

import numpy as np
import pytest

from flrlab import (
    DesignSpec,
    DimensionError,
    sample_basis_design,
    sample_design,
    sample_gaussian_design,
    sqrt_apply,
)
from flrlab.covariance import (
    CovOperator,
    EmpiricalGram,
    empirical_covariance,
    empirical_eigenvalues,
)
from flrlab import function_space
from flrlab.designs import DesignSample
from flrlab.estimators import cutoff_estimator
from flrlab.function_space import FOURIER, basis_function, fourier_matrix, same_coordinates

from oracles import (eigenfunctions, grid_inner, grid_norm, grid_project, kernel,
                     operator_matrix, operator_sqrt_apply, trapezoid_weights, true_operator)


def quadrature_apply(sample, f: np.ndarray) -> np.ndarray:
    """Oracle: (1/n) sum_j X_j <X_j, f> straight from the sample values, f
    the grid values of a function."""
    w = trapezoid_weights(sample.grid_size)
    coeffs = sample.values @ (w * f)
    return coeffs @ sample.values / sample.n


class TestEmpiricalCovariance:
    def test_rank_one(self):
        spec = DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=256)
        s = sample_basis_design(spec, 1, 4)
        op = empirical_covariance(s)
        x = s.values[0]
        assert op.rank == 1
        assert op.eigenvalues[0] == pytest.approx(grid_norm(x) ** 2, rel=1e-10)
        phi = eigenfunctions(op)[0]
        align = grid_inner(phi, x)[0, 0] / grid_norm(x)
        assert abs(abs(align) - 1.0) <= 1e-10

    def test_eigen_residuals(self, sample25, cov25):
        lam1 = cov25.eigenvalues[0]
        for k in range(cov25.rank):
            phi = eigenfunctions(cov25)[k]
            applied = quadrature_apply(sample25, phi)
            resid = applied - cov25.eigenvalues[k] * phi
            assert grid_norm(resid) <= 1e-8 * lam1

    def test_spectrum_tracks_truth(self):
        spec = DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=256)
        s = sample_basis_design(spec, 2000, 8)
        op = empirical_covariance(s)
        for j in range(5):
            target = (j + 1.0) ** -2.0
            assert abs(op.eigenvalues[j] - target) <= 0.2 * target

    def test_empty_sample_rejected(self, small_spec):
        with pytest.raises(ValueError):
            sample_basis_design(small_spec, 0, 1)

    def test_routes_agree(self, small_spec):
        # n = 30 < J = 60 takes the n x n route; the J x J eigenproblem of
        # C^T C / n on the same coefficients is the reference. Full rank, so
        # the det = +1 flip decides the last sign; over these seeds it is
        # taken on some samples and not on others.
        gaussian_spec = DesignSpec(kind="integrated-gaussian", grid_size=256)
        flipped = set()
        for seed in range(17, 27):
            s = (sample_basis_design(small_spec, 30, seed) if seed % 2
                 else sample_gaussian_design(gaussian_spec, 30, seed))
            op = empirical_covariance(s)
            vals, vecs = np.linalg.eigh(s.coeffs.T @ s.coeffs / s.n)
            vals, vecs = vals[::-1][: s.n], vecs[:, ::-1][:, : s.n]
            assert op.rank == s.n and op.coeff_vectors.shape == (60, 30)
            assert np.max(np.abs(op.eigenvalues - vals)) <= 1e-8 * vals[0]
            assert np.max(np.abs(np.abs(op.coeff_vectors) - np.abs(vecs))) <= 1e-8
            last = op.coeff_vectors[:, -1]
            lead = last[np.argmax(np.abs(last[:64]))]
            flipped.add(bool(lead < 0.0))
        assert flipped == {False, True}

    def test_one_representation_per_operator(self):
        # coefficients in a named basis, nothing else: no grid eigenfunctions
        # or stored kernel are taken
        lam = np.array([1.0, 0.5])
        ok = dict(eigenvalues=lam, coeff_vectors=np.eye(2), basis=FOURIER, grid_size=256)
        assert CovOperator(**ok).coeff_vectors.shape == (2, 2)
        for extra in ({"eigenfunctions": fourier_matrix(2, 256)}, {"kernel": np.eye(256)}):
            with pytest.raises(TypeError):
                CovOperator(**ok, **extra)
        for bad in ({"basis": "wavelet"}, {"coeff_vectors": np.eye(3)}):
            with pytest.raises(ValueError):
                CovOperator(**{**ok, **bad})

    @pytest.mark.parametrize("n, eigh_shape", [(50, (50, 50)), (300, (127, 127))])
    def test_size_chosen_route_solves_the_smaller_eigenproblem(self, n, eigh_shape, monkeypatch):
        # Brownian designs on 128 nodes carry J = min(2n, 127) coefficients:
        # n x n below J, J x J from there on
        s = sample_gaussian_design(DesignSpec(kind="integrated-gaussian", grid_size=128), n, n)
        shapes = []
        eigh = np.linalg.eigh

        def recording_eigh(a):
            shapes.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        op = empirical_covariance(s)
        assert shapes == [eigh_shape]
        assert op.rank == min(eigh_shape[0], n)

    def test_spectrum_alone_is_the_operators_spectrum(self, route_sample):
        # eigvalsh of the same Gram matrix, cut by the same retention rule
        op = empirical_covariance(route_sample)
        lam = empirical_eigenvalues(route_sample)
        assert lam.shape == (op.rank,)
        assert np.max(np.abs(lam - op.eigenvalues[: op.rank])) <= 1e-13 * op.eigenvalues[0]

    def test_kernel_reconstruction(self, small_spec):
        # retained eigenpairs rebuild the kernel to numerical-rank accuracy
        s = sample_basis_design(small_spec, 20, 3)
        op = empirical_covariance(s)
        direct = (s.values.T @ s.values) / s.n
        rebuilt = kernel(op)
        rel = np.linalg.norm(rebuilt - direct) / np.linalg.norm(direct)
        assert rel <= 1e-6

    def test_positivity(self, small_spec):
        s = sample_basis_design(small_spec, 15, 9)
        op = empirical_covariance(s)
        rng = np.random.default_rng(0)
        w = trapezoid_weights(small_spec.grid_size)
        fs = rng.standard_normal((1000, small_spec.grid_size))
        weighted = fs * w
        quad = np.einsum("id,de,ie->i", weighted, kernel(op), weighted)
        assert np.min(quad) >= -1e-10


class TestEmpiricalGram:
    def test_gram_builds_the_samples_operator(self):
        # the primal branch reads only C^T C / n, so the precomputed matrix
        # gives the sample's eigenproblem, rank and sign convention
        sample = sample_design(DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=256),
                               500, 3)
        c = sample.coeffs
        gram = EmpiricalGram(c.T @ c / 500, 500, sample.basis, sample.grid_size)
        a, b = empirical_covariance(gram), empirical_covariance(sample)
        assert (a.n_samples, a.basis, a.grid_size) == (500, b.basis, b.grid_size)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.coeff_vectors, b.coeff_vectors)
        assert np.array_equal(empirical_eigenvalues(gram), empirical_eigenvalues(sample))

    def test_at_most_j_designs_need_the_sample(self):
        with pytest.raises(ValueError, match="at most J"):
            EmpiricalGram(np.eye(128), 128, FOURIER, 256)
        with pytest.raises(ValueError, match="square"):
            EmpiricalGram(np.zeros((3, 4)), 10, FOURIER, 256)


class TestCoefficientView:
    """Operators of basis-expansion samples answer from their coefficients."""

    def test_eigen_coefficients_of_fourier_vector(self, default_spec, monkeypatch):
        for n in (30, 300):                      # expansion J = 60 and J = 128
            s = sample_basis_design(default_spec, n, 19)
            op = empirical_covariance(s)
            r = op.rank
            for count in (5, 64, 200):
                theta = np.random.default_rng(count).standard_normal(count)
                rendered = basis_function(theta, FOURIER, s.grid_size)
                grid = op.eigen_coefficients(
                    grid_project(rendered.values, FOURIER, op.coeff_vectors.shape[0]), count=r)
                with monkeypatch.context() as m:
                    m.setattr(DesignSample, "values",
                              property(lambda self: pytest.fail("grid materialized")))
                    exact = op.eigen_coefficients(theta, count=r)
                padded = np.zeros(op.coeff_vectors.shape[0])
                padded[: min(count, padded.size)] = theta[: padded.size]
                assert np.array_equal(exact, op.coeff_vectors[:, :r].T @ padded)
                assert np.max(np.abs(exact - grid)) <= 1e-12 * np.linalg.norm(grid)

    def test_design_products_match_grid(self, small_spec):
        s = sample_basis_design(small_spec, 200, 29)
        op = empirical_covariance(s)
        grid = grid_inner(s.values, eigenfunctions(op)[:40])
        q = op.design_products(s, 40)
        assert np.array_equal(q, s.coeffs @ op.coeff_vectors[:, :40])
        assert np.max(np.abs(q - grid)) <= 1e-12 * np.max(np.abs(grid))

    def test_views_of_different_bases_do_not_mix(self, small_spec):
        # Fourier and sine coefficients of one length would multiply silently
        gaussian_spec = DesignSpec(kind="integrated-gaussian", grid_size=256)
        fourier_op = empirical_covariance(sample_basis_design(small_spec, 20, 3))
        gaussian = sample_gaussian_design(gaussian_spec, 20, 3)
        sine_op = empirical_covariance(gaussian)
        assert fourier_op.coeff_vectors.shape == sine_op.coeff_vectors.shape == (40, 20)
        for call in (lambda: fourier_op.design_products(gaussian, 5),
                     lambda: same_coordinates(sine_op, true_operator(small_spec, 4))):
            with pytest.raises(DimensionError, match="sine coefficients cannot meet fourier|"
                                                     "fourier coefficients cannot meet sine"):
                call()
        assert sine_op.design_products(gaussian, 5).shape == (20, 5)
        same_coordinates(sine_op, true_operator(gaussian_spec, 4))

    def test_coefficient_route_survives_a_cold_fourier_cache(self, small_spec, monkeypatch):
        # The fits answer from the coefficients, not from which cached
        # Fourier matrix object they were built with, and render nothing.
        s = sample_basis_design(small_spec, 100, 31)           # J = 128
        emp = empirical_covariance(s)
        fourier_matrix.cache_clear()
        lam = small_spec.lambda_profile()(np.arange(1, 5, dtype=float))
        y = np.random.default_rng(0).standard_normal(s.n)

        def no_grid(*args):
            raise AssertionError("grid rendered")

        # every rendering reads these two through ``basis_matrix``
        for name in ("fourier_matrix", "sine_matrix"):
            monkeypatch.setattr(function_space, name, no_grid)
        assert cutoff_estimator(s.cross_moment(y), lam, 4).shape == (4,)
        assert sqrt_apply(s, s.cross_moment(y)).shape == (128,)
        assert emp.design_products(s, s.n).shape == (s.n, s.n)

    def test_shorter_expansion_meets_the_truth_in_coefficients(self, small_spec):
        # J = 2m = 40 against the true operator's J = 128: the nested Fourier
        # rows make the coefficient route agree with the grid route.
        s = sample_basis_design(small_spec, 20, 37)
        emp = empirical_covariance(s)
        truth = true_operator(small_spec, 6)
        assert emp.coeff_vectors.shape[0] == 40 and truth.coeff_vectors.shape[0] == 128
        r = emp.rank
        grid = grid_inner(eigenfunctions(emp)[:r], eigenfunctions(truth))
        # each true eigenvector, cut to the empirical operator's 40 rows
        overlap = np.column_stack([emp.eigen_coefficients(truth.coeff_vectors[:, k], count=r)
                                   for k in range(6)])
        assert np.max(np.abs(overlap - grid)) <= 1e-12
        grid_q = grid_inner(s.values, eigenfunctions(truth))
        q = truth.design_products(s, 6)
        assert np.array_equal(q, s.coeffs @ truth.coeff_vectors[:40])
        assert np.max(np.abs(q - grid_q)) <= 1e-12 * np.max(np.abs(grid_q))


class TestSqrtApply:
    def test_eigenfunction_scaling(self, sample25, cov25):
        # a rendered eigenfunction, projected back onto the basis, comes back
        # scaled, as coefficients
        j = cov25.coeff_vectors.shape[0]
        for k in (0, 3, 10):
            out = sqrt_apply(sample25, grid_project(eigenfunctions(cov25)[k], FOURIER, j))
            expect = math.sqrt(cov25.eigenvalues[k]) * cov25.coeff_vectors[:, k]
            assert np.max(np.abs(out - expect)) <= 1e-8

    def test_annihilates_orthogonal_complement(self, sample25, cov25):
        rng = np.random.default_rng(2)
        f = rng.standard_normal(cov25.grid_size)
        w = trapezoid_weights(cov25.grid_size)
        phi = eigenfunctions(cov25)
        f = f - (phi * w) @ f @ phi          # project out the range
        out = sqrt_apply(sample25, grid_project(f, FOURIER, cov25.coeff_vectors.shape[0]))
        assert np.linalg.norm(out) <= 1e-8 * np.linalg.norm(f)

    def test_coefficient_vector_matches_grid(self, small_spec):
        # a Fourier vector gets the same coefficients as its rendering,
        # whatever the lengths of the vector and the view
        s = sample_basis_design(small_spec, 40, 8)
        op = empirical_covariance(s)
        rng = np.random.default_rng(4)
        for size in (10, op.coeff_vectors.shape[0], 100):
            f = rng.standard_normal(size)
            coeffs = sqrt_apply(s, f)
            rendered = basis_function(f, FOURIER, small_spec.grid_size)
            grid = sqrt_apply(s, grid_project(rendered.values, FOURIER, op.coeff_vectors.shape[0]))
            assert coeffs.shape == grid.shape == (op.coeff_vectors.shape[0],)
            assert np.max(np.abs(coeffs - grid)) <= 1e-12 * np.max(np.abs(grid))

    def test_square_root_squares_to_operator(self, small_spec):
        s = sample_basis_design(small_spec, 12, 6)
        op = empirical_covariance(s)
        rng = np.random.default_rng(3)
        for _ in range(100):
            f = grid_project(rng.standard_normal(small_spec.grid_size), FOURIER,
                             op.coeff_vectors.shape[0])
            twice = sqrt_apply(s, sqrt_apply(s, f))
            direct = op.apply(f)
            denom = max(np.linalg.norm(direct), 1e-12)
            assert np.linalg.norm(twice - direct) / denom <= 1e-6

    @pytest.mark.parametrize("kind, n", [
        ("integrated-gaussian", 40),   # n < J = 80: the dual n x n branch
        ("basis-expansion", 200),      # n >= J = 128: the J x J branch
    ])
    def test_sample_applies_its_operator_without_building_it(self, kind, n, monkeypatch):
        s = sample_design(DesignSpec(kind=kind, alpha=2.0, grid_size=256), n, 5)
        op = empirical_covariance(s)
        built, init = [], CovOperator.__init__

        def counting(self, **kwargs):
            built.append(kwargs)
            init(self, **kwargs)

        monkeypatch.setattr(CovOperator, "__init__", counting)
        rng = np.random.default_rng(6)
        for f in (rng.standard_normal(s.coeffs.shape[1]), rng.standard_normal(7),
                  grid_project(rng.standard_normal(256), s.basis, s.coeffs.shape[1])):
            direct, via_op = sqrt_apply(s, f), operator_sqrt_apply(op, f)
            assert direct.shape == via_op.shape
            assert np.linalg.norm(direct - via_op) <= 1e-12 * np.linalg.norm(via_op)
        assert built == []


class TestHsDistance:
    def test_one_over_n_scaling(self):
        # E || emp - true ||_HS^2 halves four-fold when n quadruples
        spec = DesignSpec(kind="basis-expansion", alpha=2.0, j_truncation=64, grid_size=256)
        truth = np.diag(spec.lambda_profile()(np.arange(1, 65, dtype=float)))
        sums = {}
        for n in (50, 200):
            acc = 0.0
            for rep in range(200):
                s = sample_basis_design(spec, n, 1000 * n + rep)
                acc += np.sum((operator_matrix(empirical_covariance(s)) - truth) ** 2)
            sums[n] = acc / 200
        ratio = sums[50] / sums[200]
        assert 3.0 <= ratio <= 5.5

    def test_grid_mismatch(self, sample25):
        # operators and samples meet only in one basis on one grid
        spec = DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=256)
        other = empirical_covariance(sample_basis_design(spec, 5, 1))
        with pytest.raises(DimensionError, match="grid sizes differ"):
            other.design_products(sample25, 5)
