import math

import numpy as np
import pytest

from flrlab import (
    DesignSpec,
    DimensionError,
    GridFunction,
    eigen_gap_check,
    hs_distance,
    inner_product,
    norm,
    sample_basis_design,
    sample_design,
    sample_gaussian_design,
    sqrt_apply,
    true_covariance,
)
from flrlab import covariance
from flrlab.covariance import (
    CovOperator,
    EmpiricalGram,
    empirical_covariance,
    empirical_eigenvalues,
)
from flrlab.designs import DesignSample
from flrlab.equivalence import WnCoefficients
from flrlab.estimators import _eigen_overlap, cutoff_estimator
from flrlab.function_space import (
    FOURIER,
    fourier_function,
    fourier_matrix,
    pairwise_inner,
    trapezoid_weights,
)


def quadrature_apply(sample, f: GridFunction) -> np.ndarray:
    """Oracle: (1/n) sum_j X_j <X_j, f> straight from the sample values."""
    w = trapezoid_weights(sample.grid_size)
    coeffs = sample.values @ (w * f.values)
    return coeffs @ sample.values / sample.n


class TestEmpiricalCovariance:
    def test_rank_one(self):
        spec = DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=256)
        s = sample_basis_design(spec, 1, 4)
        op = empirical_covariance(s)
        x = s.function(0)
        assert op.rank == 1
        assert op.eigenvalues[0] == pytest.approx(norm(x, 2) ** 2, rel=1e-10)
        phi = op.eigenfunctions.function(0)
        align = inner_product(phi, x) / norm(x, 2)
        assert abs(abs(align) - 1.0) <= 1e-10

    def test_eigen_residuals(self, sample25, cov25):
        lam1 = cov25.eigenvalues[0]
        for k in range(cov25.rank):
            phi = cov25.eigenfunctions.function(k)
            applied = quadrature_apply(sample25, phi)
            resid = applied - cov25.eigenvalues[k] * phi.values
            assert norm(GridFunction(resid), 2) <= 1e-8 * lam1

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

    def test_coefficient_view_renders_on_first_read(self, small_spec):
        s = sample_basis_design(small_spec, 20, 5)
        for op in (empirical_covariance(s), true_covariance(small_spec, 6)):
            u = op.coeff_vectors
            phi = op.eigenfunctions
            assert op.eigenfunctions is phi
            assert np.array_equal(phi.functions, u.T @ fourier_matrix(u.shape[0], s.grid_size))

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
        rebuilt = op.kernel
        rel = np.linalg.norm(rebuilt - direct) / np.linalg.norm(direct)
        assert rel <= 1e-6

    def test_positivity(self, small_spec):
        s = sample_basis_design(small_spec, 15, 9)
        op = empirical_covariance(s)
        rng = np.random.default_rng(0)
        w = trapezoid_weights(small_spec.grid_size)
        fs = rng.standard_normal((1000, small_spec.grid_size))
        weighted = fs * w
        quad = np.einsum("id,de,ie->i", weighted, op.kernel, weighted)
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
        assert (a.n_samples, a.basis, a.grid_size, a.kind) == (500, b.basis, b.grid_size,
                                                                "empirical")
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
                grid = op.eigen_coefficients(fourier_function(theta, s.grid_size), count=r)
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
        grid = pairwise_inner(s.values, op.eigenfunctions.functions[:40])
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
                     lambda: hs_distance(fourier_op, sine_op),
                     lambda: _eigen_overlap(sine_op, true_covariance(small_spec, 4), 20, 4)):
            with pytest.raises(DimensionError, match="sine coefficients cannot meet fourier|"
                                                     "fourier coefficients cannot meet sine"):
                call()
        assert sine_op.design_products(gaussian, 5).shape == (20, 5)
        assert _eigen_overlap(sine_op, true_covariance(gaussian_spec, 4), 20, 4).shape == (20, 4)

    def test_coefficient_route_survives_a_cold_fourier_cache(self, small_spec, monkeypatch):
        # The operators answer from what they hold, not from which cached
        # Fourier matrix object they were built with, and render nothing.
        s = sample_basis_design(small_spec, 100, 31)           # J = 128
        emp = empirical_covariance(s)
        fourier_matrix.cache_clear()
        truth = true_covariance(small_spec, 4)
        z = WnCoefficients(np.random.default_rng(0).standard_normal(s.n))

        def no_grid(*args):
            raise AssertionError("grid rendered")

        monkeypatch.setattr(covariance, "basis_matrix", no_grid)
        assert cutoff_estimator(z, truth, 4, s.n, emp_cov=emp).shape == (4,)
        assert truth.design_products(s, 4).shape == (s.n, 4)
        assert emp.design_products(s, s.n).shape == (s.n, s.n)

    def test_shorter_expansion_meets_the_truth_in_coefficients(self, small_spec):
        # J = 2m = 40 against the true operator's J = 128: the nested Fourier
        # rows make the coefficient route agree with the grid route.
        s = sample_basis_design(small_spec, 20, 37)
        emp = empirical_covariance(s)
        truth = true_covariance(small_spec, 6)
        assert emp.coeff_vectors.shape[0] == 40 and truth.coeff_vectors.shape[0] == 128
        r = emp.rank
        grid = pairwise_inner(emp.eigenfunctions.functions[:r], truth.eigenfunctions.functions)
        assert np.max(np.abs(_eigen_overlap(emp, truth, r, 6) - grid)) <= 1e-12
        grid_q = pairwise_inner(s.values, truth.eigenfunctions.functions)
        q = truth.design_products(s, 6)
        assert np.array_equal(q, s.coeffs @ truth.coeff_vectors[:40])
        assert np.max(np.abs(q - grid_q)) <= 1e-12 * np.max(np.abs(grid_q))


class TestSqrtApply:
    def test_eigenfunction_scaling(self, cov25):
        # a rendered eigenfunction is projected once and comes back scaled,
        # as coefficients
        for k in (0, 3, 10):
            out = sqrt_apply(cov25, cov25.eigenfunctions.function(k))
            expect = math.sqrt(cov25.eigenvalues[k]) * cov25.coeff_vectors[:, k]
            assert np.max(np.abs(out - expect)) <= 1e-8

    def test_annihilates_orthogonal_complement(self, cov25):
        rng = np.random.default_rng(2)
        f = rng.standard_normal(cov25.grid_size)
        w = trapezoid_weights(cov25.grid_size)
        phi = cov25.eigenfunctions.functions
        f = f - (phi * w) @ f @ phi          # project out the range
        out = sqrt_apply(cov25, GridFunction(f))
        assert np.linalg.norm(out) <= 1e-8 * np.linalg.norm(f)

    def test_coefficient_vector_matches_grid(self, small_spec):
        # a Fourier vector gets the same coefficients as its rendering,
        # whatever the lengths of the vector and the view
        s = sample_basis_design(small_spec, 40, 8)
        op = empirical_covariance(s)
        rng = np.random.default_rng(4)
        for size in (10, op.coeff_vectors.shape[0], 100):
            f = rng.standard_normal(size)
            coeffs = sqrt_apply(op, f)
            grid = sqrt_apply(op, fourier_function(f, small_spec.grid_size))
            assert coeffs.shape == grid.shape == (op.coeff_vectors.shape[0],)
            assert np.max(np.abs(coeffs - grid)) <= 1e-12 * np.max(np.abs(grid))

    def test_square_root_squares_to_operator(self, small_spec):
        s = sample_basis_design(small_spec, 12, 6)
        op = empirical_covariance(s)
        rng = np.random.default_rng(3)
        for _ in range(100):
            f = GridFunction(rng.standard_normal(small_spec.grid_size))
            twice = sqrt_apply(op, sqrt_apply(op, f))
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
            built.append(kwargs["kind"])
            init(self, **kwargs)

        monkeypatch.setattr(CovOperator, "__init__", counting)
        rng = np.random.default_rng(6)
        for f in (rng.standard_normal(s.coeffs.shape[1]), rng.standard_normal(7),
                  GridFunction(rng.standard_normal(256))):
            direct, via_op = sqrt_apply(s, f), sqrt_apply(op, f)
            assert direct.shape == via_op.shape
            assert np.linalg.norm(direct - via_op) <= 1e-12 * np.linalg.norm(via_op)
        assert built == []


class TestHsDistance:
    def test_zero_on_equal(self, cov25):
        assert hs_distance(cov25, cov25) == 0.0

    def test_orthogonal_rank_ones(self):
        u, v = (CovOperator(eigenvalues=np.array([1.0]), coeff_vectors=np.eye(2)[:, k:k + 1],
                            basis=FOURIER, grid_size=256) for k in (0, 1))
        assert hs_distance(u, v) == pytest.approx(math.sqrt(2.0), abs=1e-6)

    def test_one_over_n_scaling(self):
        # E || emp - true ||_HS^2 halves four-fold when n quadruples
        spec = DesignSpec(kind="basis-expansion", alpha=2.0, j_truncation=64, grid_size=256)
        truth = true_covariance(spec, 64)
        sums = {}
        for n in (50, 200):
            acc = 0.0
            for rep in range(200):
                s = sample_basis_design(spec, n, 1000 * n + rep)
                acc += hs_distance(empirical_covariance(s), truth) ** 2
            sums[n] = acc / 200
        ratio = sums[50] / sums[200]
        assert 3.0 <= ratio <= 5.5

    def test_grid_mismatch(self, cov25):
        spec = DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=256)
        other = empirical_covariance(sample_basis_design(spec, 5, 1))
        with pytest.raises(Exception):
            hs_distance(cov25, other)


class TestEigenGaps:
    def test_quadratic_decay_scaled_gaps(self):
        lam = np.arange(1, 30, dtype=float) ** -2.0
        op = CovOperator(eigenvalues=lam, coeff_vectors=np.eye(29), basis=FOURIER, grid_size=256)
        rep = eigen_gap_check(op, 2.0)
        # direct evaluation: j^3 (j^-2 - (j+1)^-2) = j(2j+1)/(j+1)^2, which
        # starts at 3/4 and increases toward 2
        js = np.arange(1, 29, dtype=float)
        expect = js * (2 * js + 1) / (js + 1) ** 2
        assert np.allclose(rep.scaled_gaps, expect, rtol=1e-12)
        assert rep.min_scaled_gap == pytest.approx(0.75, abs=1e-12)
        assert np.all(rep.scaled_gaps < 2.0)
        assert not rep.flagged

    def test_flat_spectrum_flagged(self):
        op = CovOperator(eigenvalues=np.ones(4), coeff_vectors=np.eye(4), basis=FOURIER,
                         grid_size=256)
        assert eigen_gap_check(op, 2.0).flagged

    def test_power_decay_all_positive(self):
        for alpha in (2.0, 3.0):
            lam = np.arange(1, 20, dtype=float) ** -alpha
            op = CovOperator(eigenvalues=lam, coeff_vectors=np.eye(19), basis=FOURIER,
                             grid_size=256)
            assert np.all(eigen_gap_check(op, alpha).scaled_gaps > 0)
