import math

import numpy as np
import pytest

from flrlab import (
    DegenerateDesignError,
    DesignSpec,
    ResolutionError,
    SpecValidationError,
    build_gram_transform,
    empirical_covariance,
    fourier_basis,
    sample_basis_design,
    sample_design,
    sample_gaussian_design,
    verify_condition_x,
)
from flrlab.covariance import RANK_TOL
from flrlab.function_space import grid_nodes, sine_matrix

from oracles import (design_draw, eigh_quadrature_kernel, grid_inner, grid_norm, held_moments,
                     held_products, trapezoid_weights)


class TestSpecValidation:
    def test_alpha_floor(self):
        with pytest.raises(SpecValidationError):
            DesignSpec(kind="basis-expansion", alpha=1.5)

    def test_unknown_kind(self):
        with pytest.raises(SpecValidationError):
            DesignSpec(kind="mystery")

    @pytest.mark.parametrize("kind", ["basis-expansion", "integrated-gaussian"])
    def test_grid_of_fewer_than_two_nodes(self, kind):
        # a Brownian design on one node would have J = D - 1 = 0 sine terms
        for size in (1, 0, -3):
            with pytest.raises(SpecValidationError, match="grid_size") as err:
                DesignSpec(kind=kind, grid_size=size)
            assert err.value.field == "grid_size"
        assert DesignSpec(kind=kind, grid_size=2).grid_size == 2


class TestBasisDesign:
    def test_single_mode_norm(self):
        spec = DesignSpec(kind="basis-expansion", alpha=2.0, j_truncation=1, grid_size=128)
        s = sample_basis_design(spec, 1, 3)
        g = s.coeffs[0, 0]
        assert grid_norm(s.values[0]) == pytest.approx(abs(g), rel=1e-10)

    def test_grid_too_coarse_for_the_expansion_is_rejected_at_render(self):
        # the draw never reads the grid; rendering J = 52 Fourier functions
        # on 100 nodes does, and raises
        spec = DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=100)
        assert sample_basis_design(spec, 25, 1).values.shape == (25, 100)
        sample = sample_basis_design(spec, 26, 1)
        assert sample.coeffs.shape == (26, 52)
        with pytest.raises(ResolutionError):
            sample.values

    def test_streamed_sums_ignore_the_grid(self):
        # J = 600 Fourier functions need 1200 nodes to render, but the
        # streamed sums never render them
        from flrlab.designs import stream_moments

        spec = DesignSpec(kind="basis-expansion", j_truncation=600, grid_size=1024)
        sums = stream_moments(spec, 2000, np.random.default_rng(0), lead=5)
        assert sums.gram.shape == (5, 600) and np.all(np.isfinite(sums.gram))

    def test_reproducible(self, small_spec):
        a = sample_basis_design(small_spec, 10, 99).values
        b = sample_basis_design(small_spec, 10, 99).values
        assert np.array_equal(a, b)

    def test_coefficient_variances_match_spectrum(self):
        # Monte Carlo moment check against the law of the expansion coefficients.
        spec = DesignSpec(kind="basis-expansion", alpha=2.0, j_truncation=32, grid_size=256)
        s = sample_basis_design(spec, 500, 11)
        coords = grid_inner(s.values, fourier_basis(8, 256).functions)
        emp_var = coords.var(axis=0)
        for j in range(8):
            target = (j + 1.0) ** -2.0
            assert abs(emp_var[j] - target) <= 0.15 * target

    def test_lazy_values_match_coefficients(self, small_spec):
        s = sample_basis_design(small_spec, 5, 1)
        rebuilt = s.coeffs @ s.basis_matrix
        assert np.array_equal(s.values, rebuilt)


    def test_uniform_sampler_matches_rng_uniform_bits(self, small_spec):
        # rng.random() - 1/2 times sqrt(12) k^(-alpha/2), one block and three
        for n in (7, 50, 1500, 3000):
            rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
            a = sample_basis_design(small_spec, n, rng_a).coeffs
            b = design_draw(small_spec, n, rng_b)
            assert a.dtype == np.float64 and a.flags.writeable and a.shape == b.shape
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
        lam = spec.lambda_profile()(np.arange(1, 9, dtype=float))
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

    @pytest.mark.parametrize("rows", [slice(0, 600), slice(600, 1100), slice(37, 1061),
                                      slice(1100, 1100)])
    def test_row_slices_keep_the_full_draws_bits(self, rows):
        # the rows outside the slice are drawn in blocks of 514 and dropped
        from flrlab.designs import sample_design

        spec = DesignSpec(kind="integrated-gaussian", grid_size=256)
        full_rng, part_rng = np.random.default_rng(17), np.random.default_rng(17)
        full = sample_design(spec, 1100, full_rng)
        part = sample_design(spec, 1100, part_rng, rows)
        assert part.coeffs.shape == full.coeffs[rows].shape
        assert part.coeffs.tobytes() == full.coeffs[rows].tobytes()
        np.testing.assert_equal(part_rng.bit_generator.state, full_rng.bit_generator.state)
        with pytest.raises(ValueError, match="contiguous"):
            sample_design(spec, 1100, np.random.default_rng(17), slice(0, 10, 2))

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


class TestDesignRows:
    """``sample_design`` against the plain-numpy draw of ``oracles.design_draw``:
    the same bits, whole or sliced, and the stream left where the whole draw
    leaves it."""

    # J = 128 at n = 3000 (blocks of 1024 rows); J = 255 at n = 1100 on the
    # Brownian grid (blocks of 2**17 // 255 = 514 rows)
    SIZES = {"basis-expansion": 3000, "integrated-gaussian": 1100}

    @pytest.mark.parametrize("kind", ["basis-expansion", "integrated-gaussian"])
    def test_row_range_equals_the_subset_of_the_full_draw(self, kind):
        spec = DesignSpec(kind=kind, alpha=2.0, grid_size=256)
        rng_a, rng_b = np.random.default_rng(2), np.random.default_rng(2)
        part = sample_design(spec, 3000, rng_a, slice(2600, 3000))
        full = sample_design(spec, 3000, rng_b)
        assert part.coeffs.tobytes() == full.subset(slice(2600, 3000)).coeffs.tobytes()
        assert rng_a.standard_normal() == rng_b.standard_normal()

    @staticmethod
    def stream(state):
        """A PCG64 stream after none, one or two 32-bit draws: the second
        spends the buffered half but leaves its value in the state. Double
        and normal draws leave both as they are."""
        rng = np.random.default_rng(8)
        for _ in range({"plain": 0, "buffered": 1, "spent": 2}[state]):
            rng.integers(0, 2**32, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == (state == "buffered")
        return rng

    @pytest.mark.parametrize("kind", ["basis-expansion", "integrated-gaussian"])
    @pytest.mark.parametrize("where", ["whole", "from inside a block", "to inside a block",
                                       "inside one block", "last rows", "empty", "past the end"])
    @pytest.mark.parametrize("state", ["plain", "buffered", "spent"])
    def test_rows_equal_the_reference_draw(self, kind, where, state):
        spec = DesignSpec(kind=kind, alpha=2.0, grid_size=256)
        n = self.SIZES[kind]
        rows = {"whole": slice(None), "from inside a block": slice(700, None),
                "to inside a block": slice(0, 900), "inside one block": slice(1030, 1040),
                "last rows": slice(-3, None), "empty": slice(600, 600),
                "past the end": slice(n + 5, None)}[where]

        got_rng, ref_rng = self.stream(state), self.stream(state)
        got = sample_design(spec, n, got_rng, rows).coeffs
        ref = design_draw(spec, n, ref_rng)[rows]
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        np.testing.assert_equal(got_rng.bit_generator.state, ref_rng.bit_generator.state)
        assert got_rng.integers(0, 2**32, dtype=np.uint32) \
            == ref_rng.integers(0, 2**32, dtype=np.uint32)

    @pytest.mark.parametrize("kind, n, rows", [
        ("basis-expansion", 10_000, slice(None)),
        ("basis-expansion", 10_000, slice(10_000 - 1085, None)),
        ("integrated-gaussian", 512, slice(None)),
    ], ids=["uniform-whole", "uniform-rows", "normal-whole"])
    def test_held_draws_allocate_their_result_alone(self, kind, n, rows):
        # the blocks are drawn in place into the result: a block buffer beside
        # it would add 1 MB. numpy's broadcasting multiply, which scales each
        # block, holds a ufunc buffer of its own (8192 doubles, 64 KiB).
        import tracemalloc

        spec = DesignSpec(kind=kind, alpha=2.0)
        rng = np.random.default_rng(4)
        tracemalloc.start()
        try:
            coeffs = sample_design(spec, n, rng, rows).coeffs
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= coeffs.nbytes + 128 * 2**10

    def test_step_slices_are_rejected(self):
        # as on Brownian designs (TestGaussianDesign)
        spec = DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=256)
        with pytest.raises(ValueError, match="contiguous"):
            sample_design(spec, 100, np.random.default_rng(0), slice(0, 10, 2))

    def test_entry_points_check_the_kind(self):
        basis = DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=256)
        brownian = DesignSpec(kind="integrated-gaussian", grid_size=256)
        with pytest.raises(SpecValidationError):
            sample_basis_design(brownian, 10, 0)
        with pytest.raises(SpecValidationError):
            sample_gaussian_design(basis, 10, 0)


def true_eigenvalues(spec, count):
    return spec.lambda_profile()(np.arange(1, count + 1, dtype=float))


class TestTrueCovariance:
    """The known design law's covariance, diag(lambda) in the design's
    eigenbasis, held as ``DesignSpec.lambda_profile``."""

    def test_basis_eigenvalues_exact(self):
        spec = DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=256)
        assert np.allclose(true_eigenvalues(spec, 6), [1, 1 / 4, 1 / 9, 1 / 16, 1 / 25, 1 / 36])

    def test_brownian_top_eigenvalue(self):
        # Independent oracle: eigen-solve the discretized min(s,t) kernel.
        spec = DesignSpec(kind="integrated-gaussian", grid_size=512)
        lam = true_eigenvalues(spec, 4)
        assert lam[0] == pytest.approx(4.0 / math.pi**2, abs=1e-12)
        t = grid_nodes(512)
        kernel = np.minimum.outer(t, t)
        vals, _ = eigh_quadrature_kernel(kernel, trapezoid_weights(512), 4)
        assert abs(vals[0] - 4.0 / math.pi**2) <= 1e-3
        assert np.max(np.abs(vals - lam)) <= 1e-3

    def test_eigenvalues_strictly_decreasing(self):
        for spec in (DesignSpec(kind="basis-expansion", alpha=2.5, grid_size=256),
                     DesignSpec(kind="integrated-gaussian", grid_size=256)):
            assert np.all(np.diff(true_eigenvalues(spec, 8)) < 0)

    def test_lambda_profile_is_the_true_spectrum(self):
        # One rule for every model: k^-alpha on basis-expansion designs and in
        # the sequence model, bit for bit, and the Brownian spectrum on
        # integrated-Gaussian designs, which the Pinsker constants then read.
        from flrlab import ModelConfig, ThetaClass, power_lambda_profile, sharp_risk_constant

        tc = ThetaClass(beta=2.0, c_theta=1.0)
        ks = np.arange(1, 65, dtype=float)
        basis = DesignSpec(kind="basis-expansion", alpha=3.0, grid_size=256)
        gaussian = DesignSpec(kind="integrated-gaussian", grid_size=1024)
        seq = ModelConfig(kind="sequence", alpha=3.0, theta_class=tc, theta_mode="boundary",
                          sigma=1.0, n_grid=(100,))
        flr = ModelConfig(kind="flr", alpha=3.0, theta_class=tc, theta_mode="boundary",
                          sigma=1.0, n_grid=(100,), design=basis)
        for profile in (basis.lambda_profile(), seq.lambda_profile(), flr.lambda_profile()):
            assert np.array_equal(profile(ks), power_lambda_profile(3.0)(ks))
        assert np.array_equal(gaussian.lambda_profile()(ks), 1.0 / (math.pi**2 * (ks - 0.5) ** 2))

        for n, ratio in ((256, 2.23), (1024, 2.33)):
            sharp = sharp_risk_constant(gaussian.lambda_profile(), tc, 1.0, n)
            truth = gaussian.lambda_profile()(ks)    # the first 64 as an array
            assert sharp == pytest.approx(sharp_risk_constant(truth, tc, 1.0, n), rel=1e-12)
            k2 = sharp_risk_constant(power_lambda_profile(2.0), tc, 1.0, n)
            assert sharp / k2 == pytest.approx(ratio, abs=0.005)


class TestConditionX:
    def test_needs_hundred(self, small_spec):
        s = sample_basis_design(small_spec, 50, 1)
        with pytest.raises(ValueError):
            verify_condition_x(s)

    def test_full_rank_when_expansion_covers(self):
        spec = DesignSpec(kind="basis-expansion", alpha=2.0, j_truncation=128, grid_size=256)
        s = sample_basis_design(spec, 100, 12)
        rep = verify_condition_x(s)
        assert rep.gram_rank == 100 and rep.full_rank and not rep.truncation_limited

    def test_truncation_capped_rank_is_flagged(self):
        spec = DesignSpec(kind="basis-expansion", alpha=2.0, j_truncation=32, grid_size=256)
        s = sample_basis_design(spec, 120, 13)
        rep = verify_condition_x(s)
        assert rep.gram_rank == 32 and not rep.full_rank and rep.truncation_limited

    def test_brownian_truncation_is_flagged(self):
        # J = min(2n, D - 1) = 255 sine terms for n = 300 designs on 256 nodes
        spec = DesignSpec(kind="integrated-gaussian", grid_size=256)
        rep = verify_condition_x(sample_design(spec, 300, 16))
        assert rep.gram_rank == 255 and not rep.full_rank and rep.truncation_limited
        assert rep.notes.startswith("expansion truncated at J=255 < n=300")

    @pytest.mark.parametrize("n", [100, 128])
    @pytest.mark.parametrize("alpha", [2.0, 3.0, 5.0])
    def test_rank_is_the_operators(self, alpha, n):
        # one rank rule: the report, the operator and the transform agree on
        # full rank; at J = 128, alpha = 5 with n = 128 falls short of it
        s = sample_basis_design(DesignSpec(kind="basis-expansion", alpha=alpha), n, 11)
        rep = verify_condition_x(s)
        cov = empirical_covariance(s)
        assert rep.gram_rank == cov.rank
        try:
            build_gram_transform(s, cov)
            whitened = True
        except DegenerateDesignError:
            whitened = False
        assert rep.full_rank == whitened

    @pytest.mark.parametrize("j_truncation, n, seed", [(128, 100, 12), (32, 120, 13),
                                                       (None, 300, 14), (256, 200, 15)])
    def test_coefficient_route_matches_grid_route(self, j_truncation, n, seed):
        grid_size = 512 if j_truncation == 256 else 256
        spec = DesignSpec(kind="basis-expansion", alpha=2.0, j_truncation=j_truncation,
                          grid_size=grid_size)
        s = sample_basis_design(spec, n, seed)
        rep = verify_condition_x(s)
        assert s._values is None          # the coefficient route never builds the grid
        # reference: the same diagnostics by quadrature on the rendered grid
        x, w = s.values, trapezoid_weights(grid_size)
        norms = np.sqrt(np.einsum("ij,j,ij->i", x, w, x))
        mean = x.mean(axis=0)
        eig = np.linalg.eigvalsh((x * w) @ x.T)
        rank = int(np.sum(eig > RANK_TOL * eig.max()))
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


class TestStreamMoments:
    """Block-by-block Gram sums against the held sample, the noise moment
    drawn from the Cholesky factor of their lead block, and the law draw of
    Brownian sums against its construction and the held law."""

    SPEC = DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=256)

    @staticmethod
    def held(spec, n, seed, **kw):
        """The n x J sample, its direct products, then the noise moment from
        the lead normals drawn after it."""
        rng = np.random.default_rng(seed)
        return held_moments(spec, n, rng, **kw), rng

    @staticmethod
    def assert_close(a, b, rel=1e-13):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))

    @pytest.mark.parametrize("rows", ["fewer than J", "J + 1", "one block", "one block + 1",
                                      "3 blocks + 17"])
    @pytest.mark.parametrize("lead, split", [(None, None), (3, None), (None, "inside a block")])
    def test_sums_equal_the_held_samples(self, rows, lead, split):
        from flrlab.designs import _block_rows, stream_moments

        BLOCK_ROWS = _block_rows(128)       # 1024 rows of J = 128
        # J = min(2n, 128): fewer designs than coordinates at n = 50
        n = {"fewer than J": 50, "J + 1": 129, "one block": BLOCK_ROWS,
             "one block + 1": BLOCK_ROWS + 1, "3 blocks + 17": 3 * BLOCK_ROWS + 17}[rows]
        # a data-driven style split that is not a block boundary
        m = None if split is None else n - max(n // 7, 1) - 5
        assert m is None or m % BLOCK_ROWS
        fitted = n if m is None else m
        rng = np.random.default_rng(11)
        if (lead or self.SPEC.resolved_truncation(n)) > fitted:
            # the default lead J exceeds the fitted rows: the held lead Gram
            # block has rank m only, so it has no Cholesky factor for the
            # noise moment, and the stream rejects the case without moving
            ref = held_products(self.SPEC, n, np.random.default_rng(11), lead=lead, split=m)
            lead_block = ref.gram[:, :ref.gram.shape[0]]
            assert np.linalg.matrix_rank(lead_block) == fitted < lead_block.shape[0]
            state = rng.bit_generator.state
            with pytest.raises(ValueError, match=f"must not exceed the {fitted} designs"):
                stream_moments(self.SPEC, n, rng, lead=lead, split=m)
            np.testing.assert_equal(rng.bit_generator.state, state)
            return
        got = stream_moments(self.SPEC, n, rng, lead=lead, split=m)
        ref, ref_rng = self.held(self.SPEC, n, 11, lead=lead, split=m)
        assert (got.n, got.m) == (ref.n, ref.m) == (n, fitted)
        self.assert_close(got.gram, ref.gram)
        self.assert_close(got.noise, ref.noise)
        if m is None:
            assert got.train is None and ref.train is None
        else:
            self.assert_close(got.train, ref.train)
        # the stream ends where the sample and the lead normals leave it
        assert rng.random() == ref_rng.random()
        assert rng.standard_normal() == ref_rng.standard_normal()

    def test_sums_are_the_products_they_name(self):
        from flrlab.designs import sample_design, stream_moments

        # the raw draw R - 1/2, its products, then entry (i, l) times s_i s_l;
        # the noise sum is the Cholesky factor of the raw lead block times the
        # 4 normals after the draw, then entry i times s_i
        rng = np.random.default_rng(2)
        r = rng.random((300, 128)) - 0.5
        z = rng.standard_normal(4)
        s = math.sqrt(12.0) * np.arange(1, 129, dtype=float) ** (-self.SPEC.alpha / 2.0)
        got = stream_moments(self.SPEC, 300, np.random.default_rng(2), lead=4, split=250)
        np.testing.assert_allclose(got.gram, (r[:250, :4].T @ r[:250]) * s * s[:4, None],
                                   rtol=1e-13)
        factor = np.linalg.cholesky(r[:250, :4].T @ r[:250, :4])
        np.testing.assert_allclose(got.noise, (factor @ z) * s[:4], rtol=1e-13)
        np.testing.assert_allclose(got.train, (r[250:].T @ r[250:]) * s * s[:, None], rtol=1e-13)

        # and the held sample's products, each entry within 1e-13 of the sum of
        # its products' magnitudes: the sample scales each entry before the
        # product, so an entry whose products cancel rounds apart at that scale
        def assert_products(sums, a, b):
            assert np.all(np.abs(sums - a.T @ b) <= 1e-13 * (np.abs(a).T @ np.abs(b)))

        c = sample_design(self.SPEC, 300, np.random.default_rng(2)).coeffs
        assert_products(got.gram, c[:250, :4], c[:250])
        assert_products(got.noise, np.linalg.cholesky(c[:250, :4].T @ c[:250, :4]).T, z)
        assert_products(got.train, c[250:], c[250:])

    @pytest.mark.parametrize("rows, held", [(range(0, 2100), False), (range(0, 700), True),
                                            (range(700, 2100), False), (range(1030, 1040), True)])
    def test_uniform_blocks_are_centred_rng_random_bits(self, rows, held):
        # the raw blocks, before any scale: rng.random() - 1/2, bit for bit,
        # and the stream ends n J outputs on
        from flrlab.designs import _row_blocks

        n, j = 2100, 128
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        ref = ref_rng.random((n, j)) - 0.5
        out = np.empty((len(rows), j)) if held else None
        for start, block in _row_blocks(self.SPEC, n, j, rng, rows, out):
            assert block.tobytes() == ref[start:start + block.shape[0]].tobytes()
        np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)

    def test_pcg64_copies_per_draw(self, monkeypatch):
        # a PCG64 copy costs about 13 us, 9 of them seeding PCG64(0): a
        # streamed draw and a whole held draw, both from row 0, make none;
        # rows off either end of a held draw take one each
        import flrlab.designs as designs
        from flrlab import streams

        copies = []

        def counted(rng, outputs=0):
            copies.append(outputs)
            return streams.pcg64_ahead(rng, outputs)

        monkeypatch.setattr(designs, "pcg64_ahead", counted)
        designs.stream_moments(self.SPEC, 2100, np.random.default_rng(0), split=1900)
        assert copies == []
        for rows, expected in ((slice(None), []), (slice(0, 700), [1400 * 128]),
                               (slice(700, None), [700 * 128]),
                               (slice(700, 1400), [700 * 128, 700 * 128])):
            copies.clear()
            sample_design(self.SPEC, 2100, np.random.default_rng(0), rows)
            assert copies == expected, rows

    def test_stream_state_matches_the_held_path_bit_for_bit(self):
        from flrlab.designs import sample_design, stream_moments

        def buffered():
            # a buffered 32-bit half survives, as double and normal draws leave it
            rng = np.random.default_rng(9)
            rng.integers(0, 2**32, dtype=np.uint32)
            assert rng.bit_generator.state["has_uint32"]
            return rng

        for make in (lambda: np.random.default_rng(9), buffered):
            a, b = make(), make()
            stream_moments(self.SPEC, 2100, a, split=1900)
            sample_design(self.SPEC, 2100, b)
            b.standard_normal(128)          # the lead normals
            np.testing.assert_equal(a.bit_generator.state, b.bit_generator.state)
            assert a.random(3).tobytes() == b.random(3).tobytes()
            assert a.standard_normal(5).tobytes() == b.standard_normal(5).tobytes()
            assert a.integers(0, 2**32, dtype=np.uint32) == b.integers(0, 2**32, dtype=np.uint32)

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.PCG64DXSM,
                                               np.random.Philox, np.random.SFC64])
    def test_other_generators_raise(self, bit_generator):
        from flrlab.designs import stream_moments

        rng = np.random.Generator(bit_generator(4))
        state = rng.bit_generator.state
        with pytest.raises(TypeError, match="PCG64"):
            stream_moments(self.SPEC, 500, rng)
        for rows in (slice(None), slice(100, 200)):
            with pytest.raises(TypeError, match="PCG64"):
                sample_design(self.SPEC, 500, rng, rows)
        np.testing.assert_equal(rng.bit_generator.state, state)

    def test_rejects_bad_parts(self):
        from flrlab.designs import stream_moments

        brownian = DesignSpec(kind="integrated-gaussian", grid_size=256)    # J = 255 at n = 300
        for spec, j in ((self.SPEC, 128), (brownian, 255)):
            for kw in ({"split": 0}, {"split": 301}, {"lead": 0}, {"lead": j + 1},
                       {"width": 0}, {"lead": 5, "width": 4}):
                with pytest.raises(ValueError):
                    stream_moments(spec, 300, np.random.default_rng(0), **kw)

    # Brownian designs: the sums are drawn from their joint law, the
    # Bartlett construction of G_k^T G_k, G_k^T G[:, k:] and G_k^T eps.
    BROWNIAN = DesignSpec(kind="integrated-gaussian", grid_size=256)

    @pytest.mark.parametrize("n, lead", [(1, 1), (7, 7), (1100, 1), (1100, 7), (10**9, 5)])
    def test_normal_law_is_the_bartlett_construction(self, n, lead):
        # the construction's algebra, given its draws, to rounding; the
        # stream gives the draws in the stated order and then stands after
        # them
        from flrlab.designs import stream_moments

        from oracles import law_moments

        rng, ref_rng = np.random.default_rng(13), np.random.default_rng(13)
        got = stream_moments(self.BROWNIAN, n, rng, lead=lead)
        ref = law_moments(self.BROWNIAN, n, ref_rng, lead)
        j = self.BROWNIAN.resolved_truncation(n)
        assert (got.n, got.m, got.train) == (n, n, None)
        assert got.gram.shape == (lead, j) and got.noise.shape == (lead,)
        self.assert_close(got.gram, ref.gram)
        self.assert_close(got.noise, ref.noise)
        np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)

    def test_normal_law_diagonal_is_chi_square(self):
        # m Gamma-hat_ii / lambda_i is a sum of m squared standard normals
        from scipy.stats import kstest

        from flrlab.designs import stream_moments

        spec = DesignSpec(kind="integrated-gaussian", grid_size=64)
        n, lead, draws = 30, 5, 2000
        lam = spec.lambda_profile()(np.arange(1, lead + 1))
        rng = np.random.default_rng(5)
        diag = np.array([np.diag(stream_moments(spec, n, rng, lead=lead).gram[:, :lead])
                         for _ in range(draws)]) / lam
        for i in range(lead):
            assert kstest(diag[:, i], "chi2", args=(n,)).pvalue > 1e-3, i

    def test_normal_law_moments_match_the_held_draw(self):
        self.law_moments_match_the_held_draw("integrated-gaussian")

    def test_uniform_law_moments_match_the_held_draw(self):
        self.law_moments_match_the_held_draw("basis-expansion")

    @staticmethod
    def law_moments_match_the_held_draw(kind):
        # means and covariances of Gram entries inside and beyond the lead
        # block and of the noise, against the direct products of held draws
        # and their n noise values: the noise moment of either kind, and the
        # Brownian Gram sums, are drawn from their law
        from flrlab.designs import stream_moments

        spec = DesignSpec(kind=kind, grid_size=64)   # J = 80 (basis) or 63 at n = 40
        n, lead, draws = 40, 3, 2000

        def entries(sums):
            g = sums.gram
            return [g[0, 0], g[0, 1], g[1, 1], g[1, 4], sums.noise[0], sums.noise[1]]

        law_rng, held_rng = np.random.default_rng(21), np.random.default_rng(22)
        law = np.array([entries(stream_moments(spec, n, law_rng, lead=lead))
                        for _ in range(draws)])
        held = np.array([entries(held_products(spec, n, held_rng, lead=lead))
                         for _ in range(draws)])

        def mean_and_se(x):
            return x.mean(axis=0), x.std(axis=0, ddof=1) / math.sqrt(draws)

        def within_3_se(a, b):
            (ma, sa), (mb, sb) = mean_and_se(a), mean_and_se(b)
            assert np.all(np.abs(ma - mb) <= 3.0 * np.hypot(sa, sb)), (ma, mb)

        within_3_se(law, held)
        rows, cols = np.triu_indices(law.shape[1])

        def products(x):
            c = x - x.mean(axis=0)
            return c[:, rows] * c[:, cols]

        within_3_se(products(law), products(held))

    @pytest.mark.parametrize("kind", ["basis-expansion", "integrated-gaussian"])
    @pytest.mark.parametrize("n, lead, width, split", [(300, 3, 7, None), (300, 5, 5, None),
                                                       (2500, 4, 9, 2300), (40, 2, 200, None)])
    def test_narrow_sums_equal_the_held_narrow_draw(self, kind, n, lead, width, split):
        # only the first L = min(width, J) columns are drawn (J = 80 at
        # n = 40): uniform designs give the direct products of the held
        # n x L draw and the noise moment from its lead normals, and the
        # stream ends n L outputs on, then past those normals; Brownian designs, which take no split, give
        # the law construction with Z lead x (L - lead)
        from flrlab.designs import stream_moments
        from flrlab.streams import pcg64_ahead

        from oracles import law_moments

        spec = self.SPEC if kind == "basis-expansion" else self.BROWNIAN
        cols = min(width, spec.resolved_truncation(n))
        rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
        if kind == "basis-expansion":
            got = stream_moments(spec, n, rng, lead=lead, width=width, split=split)
            ref = held_moments(spec, n, ref_rng, lead=lead, width=width, split=split)
            ahead = pcg64_ahead(np.random.default_rng(17), n * cols)
            ahead.standard_normal(lead)
            np.testing.assert_equal(rng.bit_generator.state, ahead.bit_generator.state)
            if split is not None:
                assert got.train.shape == (cols, cols)
                self.assert_close(got.train, ref.train)
        else:
            got = stream_moments(spec, n, rng, lead=lead, width=width)
            ref = law_moments(spec, n, ref_rng, lead, width)
        assert got.gram.shape == ref.gram.shape == (lead, cols)
        self.assert_close(got.gram, ref.gram)
        self.assert_close(got.noise, ref.noise)
        np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)

    def test_normal_law_rejects_a_lead_beyond_n_and_a_split(self):
        from flrlab.designs import stream_moments

        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="must not exceed the 5 designs"):
            stream_moments(self.BROWNIAN, 5, rng, lead=6)
        with pytest.raises(ValueError, match="must not exceed the 5 designs"):
            stream_moments(self.BROWNIAN, 5, rng)           # lead J = 10 by default
        with pytest.raises(ValueError, match="take no split"):
            stream_moments(self.BROWNIAN, 300, rng, lead=3, split=200)
        np.testing.assert_equal(rng.bit_generator.state, state)
        assert stream_moments(self.BROWNIAN, 5, rng, lead=5).gram.shape == (5, 10)

    def test_uniform_law_rejects_a_lead_beyond_the_fitted_rows(self):
        # the lead Gram block of more columns than fitted rows is singular,
        # so the noise moment has no factor; the stream does not move
        from flrlab.designs import stream_moments

        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="must not exceed the 50 designs"):
            stream_moments(self.SPEC, 50, rng)               # lead J = 100 by default
        with pytest.raises(ValueError, match="must not exceed the 4 designs"):
            stream_moments(self.SPEC, 300, rng, lead=5, split=4)
        np.testing.assert_equal(rng.bit_generator.state, state)
        assert stream_moments(self.SPEC, 300, rng, lead=4, split=4).noise.shape == (4,)

    def test_a_singular_lead_gram_is_rejected(self):
        # a PCG64 state whose first output is 2^63, so R = 1/2 and the one
        # design's centred coefficient R - 1/2 is 0: its 1 x 1 lead Gram
        # block is 0, which has no Cholesky factor. PCG64 steps its 128-bit
        # state s to a s + c and outputs the xor of the new state's halves,
        # rotated by its top 6 bits: the new state 2^63 outputs 2^63.
        from flrlab.designs import stream_moments

        multiplier, inc = 0x2360ED051FC65DA44385DF649FCCF645, 1

        def centre_first():
            bits = np.random.PCG64(0)
            bits.state = {**bits.state, "state": {
                "state": (2**63 - inc) * pow(multiplier, -1, 2**128) % 2**128, "inc": inc}}
            return np.random.Generator(bits)

        assert centre_first().random() == 0.5
        with pytest.raises(ValueError, match="numerically not positive definite"):
            stream_moments(self.SPEC, 1, centre_first(), width=1)

    def test_normal_law_holds_the_lead_columns_only(self):
        # the sample would be 5000 x 1023 doubles, 41 MB, and at n = 1e9 far
        # more; the draw holds O(lead J) numbers whatever n is: its lead x J
        # rows, the lead x (J - lead) normals and their product
        import tracemalloc

        from flrlab.designs import stream_moments

        j, lead = 1023, 3
        for n in (5000, 10**9):
            rng = np.random.default_rng(3)
            tracemalloc.start()
            try:
                sums = stream_moments(DesignSpec(kind="integrated-gaussian"), n, rng, lead=lead)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert sums.gram.shape == (lead, j)
            assert peak < 4 * 8 * lead * j

    def test_memory_stays_at_a_few_blocks(self):
        # the n x J sample would be 200 000 x 128 doubles, 205 MB
        import tracemalloc

        from flrlab.designs import stream_moments

        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            sums = stream_moments(DesignSpec(kind="basis-expansion", alpha=2.0), 200_000, rng,
                                  split=180_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sums.gram.shape == sums.train.shape == (128, 128)
        assert peak < 4 * 2**20
