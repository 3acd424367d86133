import math
import warnings

import numpy as np
import pytest

from flrlab import (
    DesignSpec,
    EstimatorConfig,
    ModelConfig,
    SpecValidationError,
    ThetaClass,
    classifier_tv_proxy,
    delta56_study,
    mise_monte_carlo,
    pinsker_decomposition_draws,
    rate_regression,
    sample_theta,
    power_lambda_profile,
    tv_bound,
    two_sample_equivalence_test,
)
from flrlab.estimators import default_rho

SPEC = DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=256)
TC = ThetaClass(beta=2.0, c_theta=1.0)


def seq_model(mode="boundary", sigma=1.0, n_grid=(100,)):
    return ModelConfig(kind="sequence", alpha=2.0, theta_class=TC, theta_mode=mode,
                       sigma=sigma, n_grid=n_grid)


def flr_model(mode="boundary", sigma=1.0, n_grid=(100,), spec=SPEC):
    return ModelConfig(kind="flr", alpha=2.0, theta_class=TC, theta_mode=mode,
                       sigma=sigma, n_grid=n_grid, design=spec)


class TestMiseMonteCarlo:
    def test_reps_floor(self):
        with pytest.raises(ValueError, match="reps >= 2"):
            mise_monte_carlo(seq_model(), EstimatorConfig(kind="pinsker-oracle"), 1, 1)

    def test_cutoff_on_gaussian_designs_accepted(self):
        # theta and the cutoff fit share the sine coordinates of Brownian designs
        gaussian = flr_model(spec=DesignSpec(kind="integrated-gaussian", grid_size=256))
        report = mise_monte_carlo(gaussian, EstimatorConfig(kind="cutoff"), 2, 1)
        assert np.all(np.isfinite(report.mise)) and report.mise[0] > 0.0

    def test_cutoff_beyond_the_expansion_rejected_up_front(self, monkeypatch):
        # k = 3 at every n here, more than J = 2 coordinates: rejected before
        # any replication runs, on the field the config sets
        import flrlab.risk

        def expansion(j):
            return DesignSpec(kind="basis-expansion", alpha=2.0, j_truncation=j, grid_size=256)

        with monkeypatch.context() as patch:
            patch.setattr(flrlab.risk, "foreach", lambda *args: pytest.fail("a replication ran"))
            with pytest.raises(SpecValidationError, match="k = 3 .* J = 2") as err:
                mise_monte_carlo(flr_model(n_grid=(512, 1024, 2048), spec=expansion(2)),
                                 EstimatorConfig(kind="cutoff"), 2, 1)
        assert err.value.field == "j_truncation"
        report = mise_monte_carlo(flr_model(n_grid=(512, 1024, 2048), spec=expansion(3)),
                                  EstimatorConfig(kind="cutoff"), 2, 1)
        assert np.all(np.isfinite(report.mise))

    def test_flr_model_takes_its_designs_alpha(self):
        # the spectrum reads the design's alpha, the cutoff, support cap and
        # rho check the model's: they must agree
        spec = DesignSpec(kind="basis-expansion", alpha=3.0, grid_size=256)
        with pytest.raises(SpecValidationError, match="alpha") as err:
            flr_model(spec=spec)
        assert err.value.field == "alpha"
        assert ModelConfig(kind="flr", alpha=3.0, theta_class=TC, theta_mode="boundary",
                           sigma=1.0, n_grid=(100,), design=spec).alpha == 3.0

    def test_stderr_shrinks_with_reps(self):
        est = EstimatorConfig(kind="pinsker-oracle")
        small = mise_monte_carlo(seq_model(mode="random"), est, 400, 3)
        large = mise_monte_carlo(seq_model(mode="random"), est, 800, 3)
        ratio = small.stderr[0] / large.stderr[0]
        assert abs(ratio - math.sqrt(2.0)) <= 0.2 * math.sqrt(2.0)

    def test_threads_do_not_change_results(self):
        rho = default_rho(2.0)
        for model, est, reps in (
            (seq_model(), EstimatorConfig(kind="pinsker-oracle"), 20),
            (flr_model(n_grid=(64,)), EstimatorConfig(kind="cutoff"), 6),
            (flr_model(n_grid=(64,)), EstimatorConfig(kind="pinsker-data-driven", rho=rho), 6),
            # designs summed block by block: cutoff m = 2048 (two blocks),
            # data-driven n = 3000 (its split inside the third)
            (flr_model(n_grid=(4096,)), EstimatorConfig(kind="cutoff"), 3),
            (flr_model(n_grid=(3000,)), EstimatorConfig(kind="pinsker-data-driven", rho=rho), 3),
        ):
            a = mise_monte_carlo(model, est, reps, 5, threads=1)
            b = mise_monte_carlo(model, est, reps, 5, threads=4)
            assert np.array_equal(a.mise, b.mise) and np.array_equal(a.stderr, b.stderr)
        small = flr_model(n_grid=(32, 64))
        a = delta56_study(small.n_grid, small, 4, 5, threads=1)
        b = delta56_study(small.n_grid, small, 4, 5, threads=2)
        assert np.array_equal(a.mean_sq, b.mean_sq) and np.array_equal(a.stderr, b.stderr)

    @pytest.mark.parametrize("kind", ["cutoff", "pinsker-oracle"])
    def test_grid_bits_do_not_depend_on_the_worker_count(self, kind):
        # every (n, rep) of the grid in one pooled loop, largest n first: the
        # same bits as the serial loop at every n, at two and three workers
        model = flr_model(n_grid=(64, 128, 256, 512))
        reports = [mise_monte_carlo(model, EstimatorConfig(kind=kind), 5, 3, threads=t)
                   for t in (1, 2, 3)]
        for other in reports[1:]:
            assert np.array_equal(other.mise, reports[0].mise)
            assert np.array_equal(other.stderr, reports[0].stderr)
            assert other.worst_labels == reports[0].worst_labels
            if kind != "cutoff":
                assert np.array_equal(other.sharp_ratio, reports[0].sharp_ratio)
        small = flr_model(n_grid=(32, 64, 128))
        serial, pooled = (delta56_study(small.n_grid, small, 5, 3, threads=t) for t in (1, 2))
        assert np.array_equal(serial.mean_sq, pooled.mean_sq)
        assert np.array_equal(serial.stderr, pooled.stderr)

    def test_threads_do_not_change_results_on_gaussian_designs(self):
        # n x n dual eigenproblems (J = min(2n, 1023) > n): serial loops hold
        # BLAS at one thread like pool workers, so they round alike; with a
        # multi-threaded BLAS in the serial run the last digits differed
        model = flr_model(n_grid=(256, 512),
                          spec=DesignSpec(kind="integrated-gaussian", grid_size=1024))
        est = EstimatorConfig(kind="pinsker-oracle")
        a = mise_monte_carlo(model, est, 2, 7, threads=1)
        b = mise_monte_carlo(model, est, 2, 7, threads=2)
        assert np.array_equal(a.mise, b.mise) and np.array_equal(a.stderr, b.stderr)
        a = delta56_study(model.n_grid, model, 2, 7, threads=1)
        b = delta56_study(model.n_grid, model, 2, 7, threads=2)
        assert np.array_equal(a.mean_sq, b.mean_sq) and np.array_equal(a.stderr, b.stderr)

    @pytest.mark.parametrize("kind, n, spec", [
        pytest.param("cutoff", 4096, SPEC, id="cutoff-4096"),
        pytest.param("pinsker-oracle", 1500, SPEC, id="pinsker-oracle-1500"),
        pytest.param("pinsker-data-driven", 3000, SPEC, id="pinsker-data-driven-3000"),
        # m = 1 design with k = J = 1: the cutoff reads every coordinate
        pytest.param("cutoff", 2, DesignSpec(kind="basis-expansion", alpha=2.0, j_truncation=1,
                                             grid_size=256), id="cutoff-2-k-equals-j"),
    ])
    def test_streamed_replications_agree_with_held_samples(self, kind, n, spec, monkeypatch):
        # block sums change only the rounding (the order of the additions,
        # and the scales applied to the sums); the held reference keeps each
        # Pinsker sample, and takes each cutoff fit's
        # sums as the direct products of its held draw
        import flrlab.risk

        from oracles import held_moments

        def no_sample(*args):
            raise AssertionError("a streamed replication drew a held sample")

        model = flr_model(mode="worst-case", n_grid=(n,), spec=spec)
        est = EstimatorConfig(kind=kind, rho=default_rho(2.0))
        with monkeypatch.context() as patch:
            patch.setattr(flrlab.risk, "sample_design", no_sample)
            streamed = mise_monte_carlo(model, est, 3, 4)
        monkeypatch.setattr(flrlab.risk, "_streamed", lambda *args: False)
        monkeypatch.setattr(flrlab.risk, "stream_moments", held_moments)
        held = mise_monte_carlo(model, est, 3, 4)
        assert streamed.worst_labels == held.worst_labels
        np.testing.assert_allclose(streamed.mise, held.mise, rtol=1e-13)
        np.testing.assert_allclose(streamed.stderr, held.stderr, rtol=1e-12)

    def test_brownian_cutoff_mise_matches_the_held_draw(self, monkeypatch):
        # Brownian cutoff sums are drawn from their law, not from the m
        # designs: m = 600, J = 255, k = 3; the MISE agrees with that of held
        # draws within 3 standard errors
        import flrlab.risk

        from oracles import held_moments

        model = flr_model(n_grid=(1200,), spec=DesignSpec(kind="integrated-gaussian",
                                                          grid_size=256))
        est, reps = EstimatorConfig(kind="cutoff"), 200
        law = mise_monte_carlo(model, est, reps, 4)
        monkeypatch.setattr(flrlab.risk, "stream_moments", held_moments)
        held = mise_monte_carlo(model, est, reps, 4)
        assert abs(law.mise[0] - held.mise[0]) <= 3.0 * math.hypot(law.stderr[0], held.stderr[0])

    @pytest.mark.parametrize("spec", [
        SPEC, DesignSpec(kind="integrated-gaussian", grid_size=256)], ids=["basis", "brownian"])
    def test_narrow_cutoff_mise_matches_the_full_width_draw(self, spec, monkeypatch):
        # least-favorable theta at n = 1200 (m = 600, k = 3, K_n = 4 or 3):
        # each replication draws 4 or 3 of J = 128 (Brownian: 255) columns;
        # the reference reads every column of the held n x J draw, and the
        # MISE agrees within 3 standard errors
        import flrlab.risk

        from oracles import held_moments

        model = flr_model(mode="least-favorable", n_grid=(1200,), spec=spec)
        est, reps = EstimatorConfig(kind="cutoff"), 200
        widths, streamed = set(), flrlab.risk.stream_moments

        def recording(*args, width=None, **kw):
            widths.add(width)
            return streamed(*args, width=width, **kw)

        def full_width(spec, n, rng, *, lead=None, width=None, split=None):
            return held_moments(spec, n, rng, lead=lead, split=split)

        with monkeypatch.context() as patch:
            patch.setattr(flrlab.risk, "stream_moments", recording)
            narrow = mise_monte_carlo(model, est, reps, 4)
        assert len(widths) == 1 and widths.pop() <= 4
        monkeypatch.setattr(flrlab.risk, "stream_moments", full_width)
        full = mise_monte_carlo(model, est, reps, 5)
        assert abs(narrow.mise[0] - full.mise[0]) <= 3.0 * math.hypot(narrow.stderr[0],
                                                                     full.stderr[0])

    @pytest.mark.parametrize("mode, sigma, at_512", [("worst-case", 1.0, 64),
                                                     ("least-favorable", 3.0, 3),
                                                     ("least-favorable", 0.3, 5)])
    def test_cutoff_draws_the_columns_its_panel_reads(self, mode, sigma, at_512, monkeypatch):
        # width = max(k, the panel's last nonzero coordinate): 64 for the
        # worst-case panel (boundary and random members fill the coefficient
        # budget), max(k, K_n) for the least-favorable theta, K_n its support;
        # at n = 512 (m = 256, k = 3) sigma = 3 gives K_n = 2, so k sets the
        # width, and sigma = 0.3 gives K_n = 5
        import flrlab.risk
        from flrlab.estimators import cutoff_split

        widths, streamed = {}, flrlab.risk.stream_moments

        def recording(spec, n, rng, *, width=None, **kw):
            widths.setdefault(n, set()).add(width)
            return streamed(spec, n, rng, width=width, **kw)

        monkeypatch.setattr(flrlab.risk, "stream_moments", recording)
        n_grid = (128, 512, 4096)
        mise_monte_carlo(flr_model(mode=mode, sigma=sigma, n_grid=n_grid),
                         EstimatorConfig(kind="cutoff"), 2, 1)
        expected = {}
        for n in n_grid:
            m, k = cutoff_split(n, 2.0, TC.beta)
            support = np.count_nonzero(sample_theta(TC, mode, SPEC.lambda_profile(), sigma, n,
                                                    0)) if mode != "worst-case" else 64
            expected[m] = {max(k, support)}
        assert widths == expected and widths[256] == {at_512}

    @pytest.mark.parametrize("kind, mode", [("cutoff", "worst-case"),
                                            ("cutoff", "least-favorable"),
                                            ("pinsker-oracle", "worst-case"),
                                            ("pinsker-data-driven", "worst-case")])
    def test_study_depends_on_sigma_and_c_theta_through_their_ratio(self, kind, mode):
        # (sigma, c_theta) and (2 sigma, 4 c_theta) share sigma^2 / c_theta:
        # every test function doubles, so does the noise, and each error is
        # four times as large; the Pinsker levels and a_n's shape stay put.
        # The cutoff's width reads only theta's support, so it stays too.
        def study(sigma, c_theta):
            model = ModelConfig(kind="flr", alpha=2.0,
                                theta_class=ThetaClass(beta=2.0, c_theta=c_theta),
                                theta_mode=mode, sigma=sigma, n_grid=(64, 300), design=SPEC)
            return mise_monte_carlo(model, EstimatorConfig(kind=kind, rho=default_rho(2.0)),
                                    3, 6)

        base, scaled = study(0.7, 1.5), study(1.4, 6.0)
        assert scaled.worst_labels == base.worst_labels
        np.testing.assert_allclose(scaled.mise / 4.0, base.mise, rtol=1e-12)
        if kind != "cutoff":
            np.testing.assert_allclose(scaled.sharp_ratio, base.sharp_ratio, rtol=1e-12)

    def test_brownian_cutoff_rate_at_criterion_6(self):
        # criterion 6's study on Brownian designs, 30 replications: the law
        # draw takes it from about 10 s to a tenth of a second, on the rate
        model = ModelConfig(kind="flr", alpha=2.0, theta_class=TC, theta_mode="least-favorable",
                            sigma=0.3, n_grid=tuple(2**k for k in range(9, 15)),
                            design=DesignSpec(kind="integrated-gaussian"))
        report = mise_monte_carlo(model, EstimatorConfig(kind="cutoff"), 30, 7)
        assert abs(report.slope + 4.0 / 7.0) <= 0.15

    def test_panel_shares_each_replications_covariance(self, monkeypatch):
        # data-driven Pinsker: one fitting operator and one training spectrum
        # per replication, however many test functions the panel holds
        import flrlab.risk
        from flrlab.covariance import empirical_covariance, empirical_eigenvalues

        operators, spectra = [], []

        def counting_operator(sample):
            operators.append(sample.n)
            return empirical_covariance(sample)

        def counting_spectrum(sample):
            spectra.append(sample.n)
            return empirical_eigenvalues(sample)

        monkeypatch.setattr(flrlab.risk, "empirical_covariance", counting_operator)
        monkeypatch.setattr(flrlab.risk, "empirical_eigenvalues", counting_spectrum)
        est = EstimatorConfig(kind="pinsker-data-driven", rho=default_rho(2.0))
        report = mise_monte_carlo(flr_model(mode="worst-case", n_grid=(200,)), est, 3, 2)
        assert len(report.worst_labels) == 1
        assert len(operators) == 3 and len(spectra) == 3

    def test_pinsker_replication_reads_its_designs_once(self, monkeypatch):
        # each test function's cross moment is Gamma-hat theta plus the shared
        # noise moment: one cross_moment pass per replication of a held
        # sample, none when the designs are summed block by block, and no
        # per-theta response vector or design product
        from flrlab.covariance import CovOperator
        from flrlab.designs import DesignSample

        calls = []

        def counting(name, method):
            def wrapper(self, *args):
                calls.append(name)
                return method(self, *args)
            return wrapper

        for cls, name in ((DesignSample, "inner_products"), (DesignSample, "cross_moment"),
                          (CovOperator, "design_products")):
            monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
        # n = 200 > J = 128: the oracle fit's 200 rows are streamed; the
        # data-driven split leaves 37 training rows, fewer than J, so that
        # replication holds its sample
        for kind, held in (("pinsker-oracle", 0), ("pinsker-data-driven", 3)):
            calls.clear()
            est = EstimatorConfig(kind=kind, rho=default_rho(2.0))
            mise_monte_carlo(flr_model(mode="worst-case", n_grid=(200,)), est, 3, 2)
            assert calls == ["cross_moment"] * held

    def test_oracle_level_solved_once_per_n(self, monkeypatch):
        # one solve per n, shared by the harness and the least-favorable test
        # function, however many replications run
        import flrlab.estimators
        import flrlab.risk
        from flrlab.estimators import pinsker_gamma_oracle

        calls = []

        def counting(*args):
            calls.append(args[3])
            return pinsker_gamma_oracle(*args)

        monkeypatch.setattr(flrlab.estimators, "pinsker_gamma_oracle", counting)
        monkeypatch.setattr(flrlab.risk, "pinsker_gamma_oracle", counting)
        pinsker, cutoff = EstimatorConfig(kind="pinsker-oracle"), EstimatorConfig(kind="cutoff")
        for model, est in ((seq_model(mode="least-favorable", n_grid=(100, 400)), pinsker),
                           (seq_model(mode="worst-case", n_grid=(100, 400)), pinsker),
                           (flr_model(mode="worst-case", n_grid=(64,)), pinsker),
                           (flr_model(mode="least-favorable", n_grid=(64,)), cutoff)):
            calls.clear()
            mise_monte_carlo(model, est, 20, 4)
            assert calls == list(model.n_grid)

    def test_oracle_weights_built_once_per_n(self, monkeypatch):
        # the oracle level's weights come from its piece, once per n, and no
        # oracle fit forms 1 - gamma b_k from the level alone
        import flrlab.risk
        from flrlab.estimators import pinsker_oracle_weights

        calls = []

        def counting(*args):
            calls.append(args[3])
            return pinsker_oracle_weights(*args)

        monkeypatch.setattr(flrlab.risk, "pinsker_oracle_weights", counting)
        monkeypatch.setattr(flrlab.risk, "pinsker_weights",
                            lambda *args: pytest.fail("weights formed from the level alone"))
        pinsker = EstimatorConfig(kind="pinsker-oracle")
        for model in (seq_model(mode="worst-case", n_grid=(100, 400)),
                      flr_model(mode="worst-case", n_grid=(64, 200))):
            calls.clear()
            mise_monte_carlo(model, pinsker, 5, 4)
            assert sorted(calls) == sorted(model.n_grid)

    def test_basis_designs_render_no_grid_eigenfunctions(self, monkeypatch):
        # Operators of basis-expansion designs live in Fourier coefficients:
        # neither the cutoff study (full-rank m <= J and rank-capped m > J),
        # the data-driven level nor a Pinsker study renders a basis on the
        # grid, which every rendering does through these two.
        from flrlab import data_driven_gamma, data_driven_split, function_space, sample_design
        from flrlab.covariance import empirical_eigenvalues

        built = []
        for name in ("fourier_matrix", "sine_matrix"):
            monkeypatch.setattr(function_space, name, lambda *args: built.append(args))
        mise_monte_carlo(flr_model(mode="worst-case", n_grid=(64, 512)),
                         EstimatorConfig(kind="cutoff"), 3, 2)
        mise_monte_carlo(flr_model(mode="worst-case", n_grid=(64,)),
                         EstimatorConfig(kind="pinsker-data-driven", rho=default_rho(2.0)), 3, 2)
        train = sample_design(SPEC, 400, 3, slice(data_driven_split(400), 400))
        sel = data_driven_gamma(empirical_eigenvalues(train), 400, TC, 1.0, default_rho(2.0),
                                alpha=2.0)
        assert sel.gamma_hat > 0
        assert built == []

    def test_seed_determinism(self):
        est = EstimatorConfig(kind="cutoff")
        a = mise_monte_carlo(flr_model(n_grid=(64,)), est, 5, 9)
        b = mise_monte_carlo(flr_model(n_grid=(64,)), est, 5, 9)
        assert np.array_equal(a.mise, b.mise) and np.array_equal(a.stderr, b.stderr)

    def test_flr_cutoff_matches_module_ops(self):
        # the shared-replication fast path reproduces the composed operations:
        # the first k coordinates of X^T y / m = G_k theta + sigma C_k^T eps / m
        from flrlab import cutoff_estimator, sample_design, select_cutoff, true_covariance
        from flrlab.risk import _replication
        from flrlab.streams import derive_rng

        model = flr_model(n_grid=(64,))
        est = EstimatorConfig(kind="cutoff")
        theta = sample_theta(TC, "boundary", power_lambda_profile(2.0), 1.0, 64, 0)
        ctx_val = _replication(model, est, 64, 11, None, [("boundary", theta)])(0)(theta)

        rng = derive_rng(11, "flr-n64", 0)
        m = 32
        sample = sample_design(SPEC, m, rng)
        noise = rng.standard_normal(m)
        k = select_cutoff(m, 2.0, 2.0)
        xty = sample.cross_moment(sample.inner_products(theta)) + 1.0 * sample.cross_moment(noise)
        est_coeffs = cutoff_estimator(xty[:k], true_covariance(SPEC, k), k)
        expected = float(np.sum((est_coeffs - theta[:k]) ** 2) + np.sum(theta[k:] ** 2))
        assert ctx_val == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("kind", ["basis-expansion", "integrated-gaussian"])
    def test_cutoff_replication_solves_no_eigenproblem(self, monkeypatch, kind):
        import flrlab.risk

        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(flrlab.risk, "empirical_covariance",
                            counted("empirical_covariance", flrlab.risk.empirical_covariance))
        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        model = flr_model(mode="worst-case", n_grid=(64, 256),
                          spec=DesignSpec(kind=kind, grid_size=256))
        report = mise_monte_carlo(model, EstimatorConfig(kind="cutoff"), 3, 5)
        assert np.all(np.isfinite(report.mise))
        assert calls == []

    def test_cutoff_law_matches_white_noise_route(self):
        # The white-noise route drew z = sqrt(m lam-hat) <theta, phi-hat> +
        # sigma eps in the empirical eigenbasis; the cross moment draws the
        # same law, N(Gamma-hat theta, sigma^2 Gamma-hat / m) given the designs.
        from flrlab import (
            WnCoefficients,
            empirical_covariance,
            sample_design,
            select_cutoff,
            true_covariance,
        )
        from flrlab.streams import derive_rng

        from oracles import white_noise_cutoff

        # J = 64 < m keeps the reference's J x J eigenproblems cheap
        spec = DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=256, j_truncation=64)
        n_grid, reps, seed = (512, 4096), 200, 3
        model = flr_model(n_grid=n_grid, spec=spec)
        report = mise_monte_carlo(model, EstimatorConfig(kind="cutoff"), reps, seed)
        theta = sample_theta(TC, "boundary", power_lambda_profile(2.0), 1.0, max(n_grid), 0)
        for i, n in enumerate(n_grid):
            m = n // 2
            k = select_cutoff(m, 2.0, TC.beta)
            truth = true_covariance(spec, k)
            errs = np.empty(reps)
            for rep in range(reps):
                rng = derive_rng(seed, f"flr-n{n}", rep)
                sample = sample_design(spec, m, rng)
                emp = empirical_covariance(sample)
                noise = rng.standard_normal(m)
                r = emp.rank
                z = np.sqrt(m * emp.eigenvalues[:r]) * emp.eigen_coefficients(theta, count=r)
                z += noise[:r]
                est_k = white_noise_cutoff(WnCoefficients(z), truth, emp, k, m)
                errs[rep] = np.sum((est_k - theta[:k]) ** 2) + np.sum(theta[k:] ** 2)
            ref_se = errs.std(ddof=1) / math.sqrt(reps)
            assert abs(report.mise[i] - errs.mean()) <= 3.0 * math.hypot(report.stderr[i], ref_se)


class TestGammaConsistencyStudy:
    def test_draws_only_the_training_rows_with_the_full_draws_bits(self, monkeypatch):
        import flrlab.risk
        from flrlab import (data_driven_gamma, data_driven_split, gamma_consistency_study,
                            pinsker_gamma_oracle, sample_design)
        from flrlab.covariance import empirical_eigenvalues
        from flrlab.streams import derive_rng

        drawn = []

        def counting(*args):
            sample = sample_design(*args)
            drawn.append(sample.n)
            return sample

        monkeypatch.setattr(flrlab.risk, "sample_design", counting)
        # at sigma = 3 the selected level lies inside its guard rails, so it
        # reads the training spectrum
        rho, sigma, grid = default_rho(2.0), 3.0, (200, 400)
        study = gamma_consistency_study(SPEC, TC, sigma, rho, grid, 3, 11)
        # largest n first (risk._replicate_grid)
        assert drawn == [n - data_driven_split(n) for n in reversed(grid) for _ in range(3)]
        for i, n in enumerate(grid):
            gamma_n = pinsker_gamma_oracle(SPEC.lambda_profile(), TC, sigma, n)
            assert study.oracle_gammas[i] == gamma_n
            for rep in range(3):
                full = sample_design(SPEC, n, derive_rng(11, f"gamma-n{n}", rep))
                train = empirical_eigenvalues(full.subset(slice(data_driven_split(n), n)))
                sel = data_driven_gamma(train, n, TC, sigma, rho, alpha=2.0)
                assert sel.gamma_hat == sel.gamma_tilde
                assert study.rel_errors[i][rep] == abs(sel.gamma_hat - gamma_n) / gamma_n


class TestDeltaStudy:
    def test_decreasing_trend(self):
        report = delta56_study((256, 1024), flr_model(sigma=0.5), 30, 7)
        assert report.mean_sq[1] < report.mean_sq[0]
        assert report.tv_bounds[1] < report.tv_bounds[0]

    def test_reps_floor(self):
        with pytest.raises(ValueError, match="reps >= 2"):
            delta56_study((64,), flr_model(), 1, 1)

    def test_gaussian_designs_decay(self):
        # E||Delta||^2 falls with n on Brownian designs. At n = (64, 1024) and
        # 20 replications, with the pilot's sums drawn from their law, it fell
        # at least 4.3-fold at each of seeds 0-19; at (256, 1024) it fell less
        # than 1.5-fold at 6 of them. A pilot rendered
        # as a Fourier series decays at these sizes too, so the scoring basis
        # is guarded by test_gaussian_designs_work_in_sine_coefficients.
        model = flr_model(spec=DesignSpec(kind="integrated-gaussian"), n_grid=(256, 512, 1024))
        report = delta56_study((64, 1024), model, 20, 7)
        assert report.mean_sq[1] * 1.5 <= report.mean_sq[0]

    def test_brownian_replication_holds_one_design_sample(self):
        # The cli-gaussian model at n = 1024: the pilot's m = 512 designs are
        # summed block by block, so a replication holds the second sample
        # (512 x 1023, 4.2 MB) and the Gram matrix, eigenvectors and
        # products of its 512 x 512 dual eigenproblem; one sample and four
        # 512 x 512 matrices are 12.6 MB. Holding the pilot's sample as well
        # peaked at 15.5 MB; without it the peak is 9.2 MB.
        import tracemalloc

        model = ModelConfig(kind="flr", alpha=2.0, theta_class=TC, theta_mode="boundary",
                            sigma=1.0, n_grid=(256, 512, 1024),
                            design=DesignSpec(kind="integrated-gaussian"))
        n2, j = 512, 1023
        tracemalloc.start()
        try:
            report = delta56_study((1024,), model, 2, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(report.mean_sq))
        assert peak < 8 * (n2 * j + 4 * n2 * n2)

    def test_basis_designs_work_in_coefficients(self, monkeypatch):
        # Basis-expansion designs compute the perturbation in Fourier
        # coefficients: no eigenfunction grid is built, and the result meets
        # a grid reference (theta and the pilot rendered and projected back,
        # the square roots rendered, the norm by quadrature).
        self._check_against_grid_reference(flr_model(sigma=0.5), (64, 256, 1024), monkeypatch)

    def test_gaussian_designs_work_in_sine_coefficients(self, monkeypatch):
        # The same on Brownian designs, rendered through the sine basis: a
        # pilot scored in any other basis misses this reference.
        spec = DesignSpec(kind="integrated-gaussian", grid_size=256)
        self._check_against_grid_reference(flr_model(sigma=0.5, spec=spec), (64, 256), monkeypatch)

    @staticmethod
    def _check_against_grid_reference(model, n_grid, monkeypatch, reps=4, seed=7):
        from flrlab import (
            cutoff_estimator,
            empirical_covariance,
            sample_design,
            select_cutoff,
            simulate_flr_responses,
            sqrt_apply,
            true_covariance,
        )
        from flrlab.estimators import DEFAULT_COEFF_BUDGET
        from flrlab import function_space
        from flrlab.function_space import basis_function, basis_matrix
        from flrlab.streams import derive_rng

        from oracles import grid_inner, grid_norm, grid_project, law_moments

        built = []
        with monkeypatch.context() as m:
            for name in ("fourier_matrix", "sine_matrix"):
                m.setattr(function_space, name, lambda *args: built.append(args))
            report = delta56_study(n_grid, model, reps, seed)
        assert built == []

        spec, sigma = model.design, model.sigma

        def render(coeffs):
            return basis_function(coeffs, spec.basis, spec.grid_size)

        theta_grid = render(sample_theta(TC, "boundary", spec.lambda_profile(), sigma,
                                         max(n_grid), 0))
        true_cov = true_covariance(spec, DEFAULT_COEFF_BUDGET)
        for i, n in enumerate(n_grid):
            m = n // 2
            k = select_cutoff(m, 2.0, TC.beta)
            vals = []
            for rep in range(reps):
                # the pilot fits X^T y1 / m of y1 = C1 theta + sigma eps, eps the
                # m normals drawn after the m designs s1; then s2 is drawn.
                # Brownian designs draw the pilot's sums from their law, so
                # the reference projects theta on the sine basis and applies
                # the law draw of the oracle.
                rng = derive_rng(seed, "delta", rep)
                if spec.kind == "integrated-gaussian":
                    sums = law_moments(spec, m, rng, k)
                    j = spec.resolved_truncation(m)
                    theta_j = grid_inner(basis_matrix(spec.basis, j, spec.grid_size),
                                         theta_grid.values)[:, 0]
                    xty = (sums.gram @ theta_j + sigma * sums.noise) / m
                else:
                    s1 = sample_design(spec, m, rng)
                    theta_j = grid_project(theta_grid.values, spec.basis, s1.coeffs.shape[1])
                    xty = s1.cross_moment(simulate_flr_responses(s1, theta_j, sigma, rng))
                theta1 = cutoff_estimator(xty, true_cov, k)
                g = theta_grid.values - render(theta1).values
                cov2 = empirical_covariance(sample_design(spec, n - m, rng))
                a, b = (render(sqrt_apply(op, grid_project(g, spec.basis,
                                                           op.coeff_vectors.shape[0])))
                        for op in (true_cov, cov2))
                vals.append((n - m) * grid_norm(a.values - b.values) ** 2)
            assert report.mean_sq[i] == pytest.approx(np.mean(vals), rel=1e-12)

    @pytest.mark.parametrize("kind", ["basis-expansion", "integrated-gaussian"])
    def test_pilot_solves_no_eigenproblem(self, monkeypatch, kind):
        # The pilot reads k rows of Gamma-hat-1 and one noise moment, so each
        # replication and n solves one eigenproblem, for the second sample's
        # Gamma-hat-2, whose square root is applied without building an
        # empirical operator.
        import flrlab.risk

        operators, eighs = [], []
        empirical, eigh = flrlab.risk.empirical_covariance, np.linalg.eigh

        def counting_operator(sample):
            operators.append(sample.n)
            return empirical(sample)

        def counting_eigh(a, *args, **kwargs):
            eighs.append(a.shape)
            return eigh(a, *args, **kwargs)

        model = flr_model(spec=DesignSpec(kind=kind, alpha=2.0, grid_size=256))
        monkeypatch.setattr(flrlab.risk, "empirical_covariance", counting_operator)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        delta56_study((32, 64), model, 2, 3)
        assert operators == [] and len(eighs) == 4


class TestTvBound:
    def test_zero(self):
        assert tv_bound(0.0, 1.0) == 0.0

    def test_saturates_at_two(self):
        assert tv_bound(1e9, 1.0) <= 2.0
        assert tv_bound(1e9, 1.0) >= 2.0 - 1e-6

    def test_closed_form_point(self):
        sigma = 1.3
        value = tv_bound(2.0 * sigma**2 * math.log(2.0), sigma)
        assert value == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_monotone(self):
        xs = np.linspace(0.0, 5.0, 50)
        vals = [tv_bound(x, 1.0) for x in xs]
        assert np.all(np.diff(vals) >= 0)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            tv_bound(1.0, 0.0)


class TestRateRegression:
    def test_exact_inverse_law(self):
        ns = np.array([100, 200, 400, 800])
        slope, se = rate_regression(ns, 3.0 / ns)
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert se <= 1e-12

    def test_flat_series(self):
        slope, _ = rate_regression([10, 100, 1000], [2.0, 2.0, 2.0])
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_noisy_synthetic_rate(self):
        rng = np.random.default_rng(8)
        ns = np.array([2**k for k in range(8, 15)])
        mise = ns ** (-4.0 / 7.0) * (1.0 + 0.05 * rng.standard_normal(ns.size))
        slope, _ = rate_regression(ns, mise)
        assert abs(slope - (-4.0 / 7.0)) <= 0.05

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            rate_regression([10, 20], [1.0, 0.5])

    def test_needs_three_distinct_points(self):
        # a repeated n leaves log n no spread to regress on
        for ns in ([256, 256, 256], [100, 100, 200, 200]):
            with pytest.raises(ValueError, match="3 distinct grid points"):
                rate_regression(ns, np.linspace(1.0, 0.5, len(ns)))
        slope, _ = rate_regression([100, 100, 200, 400], [1.0, 1.0, 0.5, 0.25])
        assert slope == pytest.approx(-1.0, abs=1e-12)


class TestTwoSampleBattery:
    def test_identical_samples_have_zero_statistics(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((500, 4))
        report = two_sample_equivalence_test(a, a.copy())
        assert np.all(report.statistics == 0.0)
        assert report.rejection_rate == 0.0

    def test_same_law_calibration(self):
        rng = np.random.default_rng(2)
        k = 20
        a = rng.standard_normal((1500, k))
        b = rng.standard_normal((1500, k))
        report = two_sample_equivalence_test(a, b, level=0.05)
        assert report.rejection_rate <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / k)

    def test_shift_is_detected(self):
        rng = np.random.default_rng(3)
        rejections = 0
        for trial in range(20):
            a = rng.standard_normal((2000, 3))
            b = rng.standard_normal((2000, 3))
            b[:, 1] += 1.0
            report = two_sample_equivalence_test(a, b, level=0.05)
            rejections += int(report.rejected[1])
        assert rejections == 20

    @pytest.mark.parametrize("case", ["equal-draws", "ties", "vectors"])
    def test_bits_are_those_of_ks_2samp_per_coordinate(self, case):
        from scipy import stats

        rng = np.random.default_rng(17)
        a, b = {
            "equal-draws": lambda: (rng.standard_normal((400, 12)),
                                    rng.standard_normal((400, 12))),
            # rounded data: many ties within and across the two samples
            "ties": lambda: (np.round(rng.standard_normal((250, 7)), 1),
                             np.round(rng.standard_normal((250, 7)) + 0.2, 1)),
            "vectors": lambda: (rng.standard_normal(500), rng.standard_normal(500)),
        }[case]()
        report = two_sample_equivalence_test(a, b)
        cols_a, cols_b = np.atleast_2d(a.T), np.atleast_2d(b.T)
        with warnings.catch_warnings():
            # a fallback to scipy's asymptotic law would warn
            warnings.simplefilter("error", RuntimeWarning)
            ref = [stats.ks_2samp(x, y, method="exact") for x, y in zip(cols_a, cols_b)]
        assert np.array_equal(report.statistics, [r.statistic for r in ref])
        assert np.array_equal(report.p_values, [r.pvalue for r in ref])

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 1000, 2000])
    def test_p_values_are_the_exact_rational_law(self, n):
        from oracles import ks_equal_sizes_sf

        # column c holds 0..n-1 against 0..n-1 shifted by h_c - 1/2 (or not at
        # all for h_c = 0), whose largest count difference is h_c
        hs = sorted({h for h in (0, 1, 2, 3, n // 10, n // 4, n // 2, n) if h <= n})
        a = np.repeat(np.arange(n, dtype=float)[:, None], len(hs), axis=1)
        b = a + np.array([h - 0.5 if h else 0.0 for h in hs])
        report = two_sample_equivalence_test(a, b)
        assert np.array_equal(report.statistics, np.array(hs) / n)
        for h, p in zip(hs, report.p_values):
            assert p == pytest.approx(float(ks_equal_sizes_sf(n, h)), rel=1e-12, abs=0.0), h

    def test_p_values_never_exceed_one(self):
        # at n = 7, h = 1 the recurrence rounds to 1 + 2 ulps; the law is 1
        a = np.arange(7.0)
        report = two_sample_equivalence_test(a, a + 0.5)
        assert report.statistics[0] == 1 / 7 and report.p_values[0] == 1.0

    def test_unequal_draw_counts_raise(self):
        with pytest.raises(ValueError, match="equal draw counts, got 301 and 173"):
            two_sample_equivalence_test(np.zeros((301, 9)), np.zeros((173, 9)))
        with pytest.raises(ValueError, match="got 500 and 37"):
            two_sample_equivalence_test(np.zeros(500), np.zeros(37))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            two_sample_equivalence_test(np.zeros((5, 2)), np.zeros((5, 3)))

    def test_vectors_are_draws_of_one_coordinate(self):
        # a length-500 vector is 500 draws of one coordinate, not one draw of 500
        rng = np.random.default_rng(9)
        a, b = rng.standard_normal(500), rng.standard_normal(500)
        shifted = two_sample_equivalence_test(a, b + 3.0)
        assert shifted.statistics.shape == (1,) and bool(shifted.rejected[0])
        same = two_sample_equivalence_test(a, b)
        assert same.p_values.shape == (1,) and 0.0 < same.p_values[0] <= 1.0
        assert two_sample_equivalence_test(a, b[:, None]).p_values[0] == same.p_values[0]
        with pytest.raises(ValueError, match="3 dimensions"):
            two_sample_equivalence_test(np.zeros((5, 2, 2)), np.zeros((5, 2, 2)))

    def test_empty_inputs_are_named(self):
        # an empty vector is no draws of one coordinate
        with pytest.raises(ValueError, match="matrix a has no draws"):
            two_sample_equivalence_test(np.array([]), np.array([]))
        with pytest.raises(ValueError, match="no coordinates"):
            two_sample_equivalence_test(np.zeros((5, 0)), np.zeros((4, 0)))
        with pytest.raises(ValueError, match="matrix a has no draws"):
            two_sample_equivalence_test(np.zeros((0, 3)), np.zeros((4, 3)))
        with pytest.raises(ValueError, match="matrix b has no draws"):
            two_sample_equivalence_test(np.zeros((5, 3)), np.zeros((0, 3)))

    def test_one_draw_against_one_has_p_value_one(self):
        # two distinct single draws differ by one count: D = 1, which the
        # null law reaches with probability 1
        report = two_sample_equivalence_test(np.ones((1, 2)), np.zeros((1, 2)))
        assert np.all(report.statistics == 1.0) and np.all(report.p_values == 1.0)
        assert report.rejection_rate == 0.0

    def test_direct_route_draws_are_simulate_empirical_wn(self, monkeypatch):
        # the response mean and the drift are computed once per call, and the
        # draws of both routes keep the bits of the library simulators
        from flrlab import (
            build_gram_transform,
            empirical_covariance,
            flr_to_whitenoise,
            sample_design,
            simulate_empirical_wn,
            simulate_flr_responses,
        )
        from flrlab.designs import DesignSample
        from flrlab.risk import two_route_draws
        from flrlab.streams import derive_rng

        calls = []
        inner_products = DesignSample.inner_products

        def counting(self, theta):
            calls.append(self.n)
            return inner_products(self, theta)

        with monkeypatch.context() as m:
            m.setattr(DesignSample, "inner_products", counting)
            a, b = two_route_draws(SPEC, TC, 1.0, n=16, draws=3, seed=4)
        assert calls == [16]
        sample = sample_design(SPEC, 16, derive_rng(4, "two-route-design"))
        cov = empirical_covariance(sample)
        transform = build_gram_transform(sample, cov)
        theta = sample_theta(TC, "boundary", power_lambda_profile(2.0), 1.0, 16, 0)
        for i in range(3):
            y = simulate_flr_responses(sample, theta, 1.0, derive_rng(4, "route-flr", i))
            assert np.array_equal(a[i], flr_to_whitenoise(y, transform).z)
            draw = simulate_empirical_wn(theta, sample, cov, 1.0,
                                         derive_rng(4, "route-direct", i))
            assert np.array_equal(b[i], draw.z)


class TestClassifierTvProxy:
    def test_bounded_by_tv_surrogate(self):
        # Gaussian pair shifted by a known drift: the plug-in classifier's
        # advantage stays below the closed-form bound
        rng = np.random.default_rng(4)
        sigma = 1.0
        for msd in (0.05, 0.5, 2.0):
            d = 8
            shift = np.zeros(d)
            shift[0] = math.sqrt(msd)
            a = sigma * rng.standard_normal((4000, d))
            b = shift + sigma * rng.standard_normal((4000, d))
            est, se = classifier_tv_proxy(a, b, seed=5)
            assert est <= tv_bound(msd, sigma) + 3 * se

    def test_vectors_are_draws_of_one_coordinate(self):
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal(4000), rng.standard_normal(4000) + 3.0
        assert classifier_tv_proxy(a, b, seed=1) == classifier_tv_proxy(a[:, None], b[:, None],
                                                                         seed=1)
        est, se = classifier_tv_proxy(a, b, seed=1)
        assert est >= 0.8 - 3 * se            # sup_A |P(A) - Q(A)| = 2 Phi(1.5) - 1 = 0.87
        with pytest.raises(ValueError, match="3 dimensions"):
            classifier_tv_proxy(np.zeros((5, 2, 2)), np.zeros((5, 2, 2)))

    def test_identical_distributions_give_near_zero(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((4000, 5))
        b = rng.standard_normal((4000, 5))
        est, se = classifier_tv_proxy(a, b, seed=7)
        assert est <= 3 * se + 0.05


class TestPinskerDecomposition:
    @pytest.mark.parametrize("n", [10, 500])
    def test_bias_is_the_noiseless_fits_error(self, n):
        # at n = 10 (J = 20, rank 10) part of theta lies outside the empirical
        # range; the bias counts it, as the noiseless fit's error does
        from flrlab.covariance import empirical_covariance
        from flrlab.designs import sample_design
        from flrlab.estimators import (flr_pinsker_fit, pinsker_conditional_risk,
                                       pinsker_gamma_oracle, pinsker_weights)

        lam, sigma, rho = SPEC.lambda_profile(), 1.0, default_rho(2.0)
        gamma = pinsker_gamma_oracle(lam, TC, sigma, n)
        theta = sample_theta(TC, "least-favorable", lam, sigma, n, 0, gamma=gamma)
        weights = pinsker_weights(gamma, TC)
        cov = empirical_covariance(sample_design(SPEC, n, 3))
        bias, _ = pinsker_conditional_risk(cov, theta, weights, rho, sigma)
        exact = flr_pinsker_fit(cov, cov.apply(theta), weights, rho,
                                alpha=2.0).squared_error(theta)
        assert abs(bias - exact) <= 1e-12 * exact
        f = cov.eigen_coefficients(theta, count=cov.rank)
        if n == 10:
            assert cov.rank == 10 < cov.coeff_vectors.shape[0] == 20
            assert theta @ theta - f @ f > 0.01 * exact


    def test_realized_error_matches_conditional_decomposition(self):
        # bias + variance given the designs has the same mean as the realized
        # squared error; the cross term vanishes conditionally
        lhs, rhs = pinsker_decomposition_draws(SPEC, TC, 1.0, default_rho(2.0),
                                               n=200, reps=200, seed=3)
        diff = lhs - rhs
        assert abs(diff.mean()) <= 3.0 * diff.std(ddof=1) / math.sqrt(diff.size)
