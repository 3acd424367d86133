import math

import numpy as np
import pytest

from flrlab import (
    DesignSpec,
    ResolutionError,
    SpecValidationError,
    fourier_basis,
    sample_basis_design,
    sample_design,
    sample_gaussian_design,
    true_covariance,
    verify_condition_x,
)
from flrlab.function_space import grid_nodes, sine_matrix, trapezoid_weights

from oracles import design_draw, eigh_quadrature_kernel, grid_inner, grid_norm, held_moments


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
        assert grid_norm(s.values[0]) == pytest.approx(abs(g), rel=1e-10)

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
        # rng.uniform(-sqrt3, sqrt3) draws times k^(-alpha/2), one block and three
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
        for spec in (basis, gaussian):
            lam = true_covariance(spec, 8).eigenvalues
            assert np.array_equal(spec.lambda_profile()(ks[:8]), lam)

        for n, ratio in ((256, 2.23), (1024, 2.33)):
            sharp = sharp_risk_constant(gaussian.lambda_profile(), tc, 1.0, n)
            truth = true_covariance(gaussian, 64).eigenvalues
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


class TestStreamMoments:
    """Block-by-block sums against the held sample and its normals."""

    SPEC = DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=256)

    @staticmethod
    def held(spec, n, seed, **kw):
        """The n x J sample, then n normals, and their direct products."""
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
        from flrlab.designs import BLOCK_ROWS, stream_moments

        # J = min(2n, 128): fewer designs than coordinates at n = 50
        n = {"fewer than J": 50, "J + 1": 129, "one block": BLOCK_ROWS,
             "one block + 1": BLOCK_ROWS + 1, "3 blocks + 17": 3 * BLOCK_ROWS + 17}[rows]
        # a data-driven style split that is not a block boundary
        m = None if split is None else n - max(n // 7, 1) - 5
        assert m is None or m % BLOCK_ROWS
        rng = np.random.default_rng(11)
        got = stream_moments(self.SPEC, n, rng, lead=lead, split=m)
        ref, ref_rng = self.held(self.SPEC, n, 11, lead=lead, split=m)
        assert (got.n, got.m) == (ref.n, ref.m) == (n, n if m is None else m)
        self.assert_close(got.gram, ref.gram)
        self.assert_close(got.noise, ref.noise)
        if m is None:
            assert got.train is None and ref.train is None
        else:
            self.assert_close(got.train, ref.train)
        # the stream ends where the sample and the normals leave it
        assert rng.random() == ref_rng.random()
        assert rng.standard_normal() == ref_rng.standard_normal()

    def test_sums_are_the_products_they_name(self):
        from flrlab.designs import sample_design, stream_moments

        rng = np.random.default_rng(2)
        sample = sample_design(self.SPEC, 300, rng)
        eps = rng.standard_normal(300)
        c = sample.coeffs
        got = stream_moments(self.SPEC, 300, np.random.default_rng(2), lead=4, split=250)
        np.testing.assert_allclose(got.gram, c[:250, :4].T @ c[:250], rtol=1e-13)
        np.testing.assert_allclose(got.noise, c[:250, :4].T @ eps[:250], rtol=1e-13)
        np.testing.assert_allclose(got.train, c[250:].T @ c[250:], rtol=1e-13)

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
            b.standard_normal(2100)
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
            for kw in ({"split": 0}, {"split": 301}, {"lead": 0}, {"lead": j + 1}):
                with pytest.raises(ValueError):
                    stream_moments(spec, 300, np.random.default_rng(0), **kw)

    # Brownian designs at D = 256: J = 255 and blocks of 2**17 // 255 = 514
    # rows, so n = 1100 is two blocks and 72 rows.
    BROWNIAN = DesignSpec(kind="integrated-gaussian", grid_size=256)

    @pytest.mark.parametrize("lead", [1, 7])
    @pytest.mark.parametrize("split", [None, 700])
    def test_normal_law_sums_equal_the_held_samples(self, lead, split):
        from flrlab.designs import _block_rows, stream_moments

        n = 1100
        assert n % _block_rows(255) and (split or n) > _block_rows(255)
        rng = np.random.default_rng(13)
        got = stream_moments(self.BROWNIAN, n, rng, lead=lead, split=split)
        ref, ref_rng = self.held(self.BROWNIAN, n, 13, lead=lead, split=split)
        assert (got.n, got.m) == (ref.n, ref.m)
        assert got.gram.shape == (lead, 255)
        self.assert_close(got.gram, ref.gram)
        self.assert_close(got.noise, ref.noise)
        if split is None:
            assert got.train is None and ref.train is None
        else:
            self.assert_close(got.train, ref.train)
        # the stream ends where the sample and the normals leave it
        np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)

    def test_normal_law_holds_the_lead_columns_only(self):
        # the sample would be 5000 x 1023 doubles, 41 MB; the pilot holds
        # 5000 x 3 lead columns, one 1 MB block and the normals
        import tracemalloc

        from flrlab.designs import stream_moments

        rng = np.random.default_rng(3)
        tracemalloc.start()
        try:
            sums = stream_moments(DesignSpec(kind="integrated-gaussian"), 5000, rng, lead=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sums.gram.shape == (3, 1023)
        assert peak < 4 * 2**20

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
