"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py``
to see them inline).
"""

import math

import numpy as np

from flrlab import (
    DesignSpec,
    EstimatorConfig,
    ModelConfig,
    ThetaClass,
    build_gram_transform,
    conditional_loglik,
    delta56_study,
    empirical_covariance,
    flr_to_whitenoise,
    fourier_basis,
    gamma_consistency_study,
    mise_monte_carlo,
    pinsker_decomposition_draws,
    pinsker_gamma_oracle,
    reduced_loglik,
    sample_basis_design,
    sample_gaussian_design,
    sharp_risk_constant,
    synthesize,
    two_route_draws,
    two_sample_equivalence_test,
    whitenoise_to_flr,
)
from flrlab.cli import main
from flrlab.estimators import default_rho

from oracles import brute_force_linear_minimax


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


class TestCriterion1ExactAlgebra:
    def test_transform_invariants_on_random_designs(self):
        rng = np.random.default_rng(101)
        worst = {"ortho": 0.0, "det": 0.0, "qtq": 0.0, "roundtrip": 0.0}
        cases = [(5, 17), (25, 17), (100, 16)]
        count = 0
        for n, repeats in cases:
            for rep in range(repeats):
                if rep % 5 == 4:
                    spec = DesignSpec(kind="integrated-gaussian", grid_size=512)
                    sample = sample_gaussian_design(spec, n, 1000 + 10 * n + rep)
                else:
                    spec = DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=512,
                                      j_truncation=2 * n)
                    sample = sample_basis_design(spec, n, 1000 + 10 * n + rep)
                cov = empirical_covariance(sample)
                t = build_gram_transform(sample, cov)
                worst["ortho"] = max(worst["ortho"],
                                     float(np.max(np.abs(t.a.T @ t.a - np.eye(n)))))
                worst["det"] = max(worst["det"], abs(np.linalg.det(t.a) - 1.0))
                qtq = t.q.T @ t.q
                off = np.max(np.abs(qtq - np.diag(np.diag(qtq))))
                worst["qtq"] = max(worst["qtq"], off / (n * cov.eigenvalues[0]))
                y = rng.standard_normal(n)
                back = whitenoise_to_flr(flr_to_whitenoise(y, t), t)
                worst["roundtrip"] = max(worst["roundtrip"], float(np.max(np.abs(back - y))))
                count += 1
        passed = (count == 50 and worst["ortho"] <= 1e-8 and worst["det"] <= 1e-6
                  and worst["qtq"] <= 1e-8 and worst["roundtrip"] <= 1e-10)
        report("criterion-1 exact equivalence algebra", passed,
               f"50 designs; max orthogonality defect {worst['ortho']:.2e}, "
               f"max |det-1| {worst['det']:.2e}, max scaled QtQ off-diagonal {worst['qtq']:.2e}, "
               f"max roundtrip error {worst['roundtrip']:.2e}")


class TestCriterion2TwoRouteDistribution:
    def test_ks_battery(self):
        spec = DesignSpec(kind="basis-expansion", alpha=2.0)
        tc = ThetaClass(beta=2.0, c_theta=1.0)
        a, b = two_route_draws(spec, tc, 1.0, n=25, draws=2000, seed=42)
        ks = two_sample_equivalence_test(a, b, level=0.05)
        threshold = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 25)
        passed = ks.rejection_rate <= threshold
        report("criterion-2 two-route distributional equivalence", passed,
               f"rejection rate {ks.rejection_rate:.3f} <= {threshold:.3f} "
               f"({int(ks.rejected.sum())} of 25 coordinates)")


class TestCriterion3LikelihoodReduction:
    def test_reduction_identity(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for trial in range(100):
            n = int(rng.integers(3, 30))
            spec = DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=512)
            sample = sample_basis_design(spec, n, 4000 + trial)
            cov = empirical_covariance(sample)
            transform = build_gram_transform(sample, cov)
            basis = fourier_basis(12, 512)
            theta = synthesize(basis, 0.4 * rng.standard_normal(12))
            y = rng.standard_normal(n)
            sigma = float(rng.uniform(0.5, 2.0))
            gap = abs(conditional_loglik(y, sample, theta, sigma)
                      - reduced_loglik(y, transform, cov, theta, sigma))
            worst = max(worst, gap)
        passed = worst <= 1e-8
        report("criterion-3 likelihood reduction identity", passed,
               f"max |direct - reduced| = {worst:.2e} over 100 instances")


class TestCriterion4PinskerOracle:
    def test_toy_and_brute_force(self):
        toy = ThetaClass(beta=1.0, c_theta=1.0)
        gamma = pinsker_gamma_oracle([1.0], toy, 1.0, 1)
        a1 = sharp_risk_constant([1.0], toy, 1.0, 1)
        gamma_err = abs(gamma - math.sqrt(2.0) / 3.0)
        a_err = abs(a1 - 1.0 / 3.0)

        lam = np.arange(1, 9, dtype=float) ** -2.0
        rel = 0.0
        for n in (20, 50, 200):
            a_n = sharp_risk_constant(lam, toy, 1.0, n)
            brute = brute_force_linear_minimax(lam, 1.0, 1.0, 1.0, n)
            rel = max(rel, abs(a_n - brute) / a_n)
        passed = gamma_err <= 1e-10 and a_err <= 1e-10 and rel <= 0.01
        report("criterion-4 pinsker oracle consistency", passed,
               f"toy gamma error {gamma_err:.2e}, toy constant error {a_err:.2e}, "
               f"brute-force mismatch {rel:.2e} on 8 coordinates")


class TestCriterion5SharpConstantAttainment:
    def test_sequence_ratio(self):
        model = ModelConfig(kind="sequence", alpha=2.0,
                            theta_class=ThetaClass(beta=2.0, c_theta=1.0),
                            theta_mode="least-favorable", sigma=1.0,
                            n_grid=(10_000, 100_000))
        rep = mise_monte_carlo(model, EstimatorConfig(kind="pinsker-oracle"), 200, 42)
        ratios = rep.sharp_ratio
        passed = bool(np.all((0.8 <= ratios) & (ratios <= 1.2)))
        report("criterion-5 sharp constant attainment", passed,
               "MISE/a_n = " + ", ".join(f"{r:.3f}" for r in ratios)
               + " at n = 1e4, 1e5 (target [0.8, 1.2])")


class TestCriterion6CutoffRate:
    def test_rate_exponent(self):
        # sigma = 0.3 keeps the least-favorable profile's bias and variance in
        # balance across the grid, so the fitted slope sits on the minimax rate
        model = ModelConfig(kind="flr", alpha=2.0,
                            theta_class=ThetaClass(beta=2.0, c_theta=1.0),
                            theta_mode="least-favorable", sigma=0.3,
                            n_grid=tuple(2**k for k in range(9, 15)),
                            design=DesignSpec(kind="basis-expansion", alpha=2.0))
        rep = mise_monte_carlo(model, EstimatorConfig(kind="cutoff"), 100, 42)
        target = -4.0 / 7.0
        passed = abs(rep.slope - target) <= 0.15
        report("criterion-6 cutoff estimator rate", passed,
               f"log-log slope {rep.slope:.4f} vs {target:.4f} +- 0.15 "
               f"(se {rep.slope_se:.4f})")


class TestCriterion7DataDrivenGamma:
    SPEC = DesignSpec(kind="basis-expansion", alpha=2.0)
    TC = ThetaClass(beta=4.0, c_theta=1.0)   # plug-in mode needs beta > alpha + 3/2
    SIGMA = 8.0

    def test_selector_consistency_and_risk(self):
        rho = default_rho(2.0)
        study = gamma_consistency_study(self.SPEC, self.TC, self.SIGMA, rho,
                                        (1_000, 10_000), reps=100, seed=42)
        med = study.median_rel_error
        model = ModelConfig(kind="flr", alpha=2.0, theta_class=self.TC,
                            theta_mode="least-favorable", sigma=self.SIGMA,
                            n_grid=(10_000,), design=self.SPEC)
        est = EstimatorConfig(kind="pinsker-data-driven", rho=rho)
        risk = mise_monte_carlo(model, est, 100, 42)
        ratio = float(risk.sharp_ratio[0])
        passed = med[1] < med[0] and med[1] < 0.2 and ratio <= 1.35
        report("criterion-7 data-driven gamma", passed,
               f"median rel errors {med[0]:.4f} -> {med[1]:.4f} (decreasing, < 0.2), "
               f"MISE/a_n = {ratio:.3f} <= 1.35 at n = 1e4")


class TestCriterion8PerturbationDecay:
    def test_delta_and_tv_decrease(self):
        model = ModelConfig(kind="flr", alpha=2.0,
                            theta_class=ThetaClass(beta=2.0, c_theta=1.0),
                            theta_mode="boundary", sigma=0.5,
                            n_grid=(2**8, 2**10, 2**12),
                            design=DesignSpec(kind="basis-expansion", alpha=2.0))
        rep = delta56_study((2**8, 2**10, 2**12), model, 50, 7)
        dec_msd = bool(np.all(np.diff(rep.mean_sq) < 0))
        dec_tv = bool(np.all(np.diff(rep.tv_bounds) < 0))
        passed = dec_msd and dec_tv
        report("criterion-8 perturbation decay", passed,
               "E||Delta||^2 = " + ", ".join(f"{v:.5f}" for v in rep.mean_sq)
               + "; tv = " + ", ".join(f"{v:.4f}" for v in rep.tv_bounds))


class TestCriterion9DecompositionExactness:
    def test_bias_variance_identity(self):
        spec = DesignSpec(kind="basis-expansion", alpha=2.0)
        tc = ThetaClass(beta=2.0, c_theta=1.0)
        lhs, rhs = pinsker_decomposition_draws(spec, tc, 1.0, default_rho(2.0),
                                               n=500, reps=500, seed=3)
        diff = lhs - rhs
        gap = abs(diff.mean())
        bound = 3.0 * diff.std(ddof=1) / math.sqrt(diff.size)
        passed = gap <= bound
        report("criterion-9 risk decomposition exactness", passed,
               f"|mean(realized - decomposed)| = {gap:.3e} <= 3 se = {bound:.3e} "
               f"(mean MISE {lhs.mean():.4e})")


class TestCriterion10SeedDeterminism:
    CONFIG = """
[design]
kind = basis-expansion
alpha = 2.0

[theta]
beta = 2.0
c_theta = 1.0
mode = boundary

[model]
kind = flr
sigma = 1.0
n_grid = 25

[estimator]
kind = pinsker-oracle

[run]
reps = 5
seed = 7
"""
    RISK_CONFIG = CONFIG.replace("kind = flr", "kind = sequence") \
                        .replace("n_grid = 25", "n_grid = 100,200,400") \
                        .replace("mode = boundary", "mode = least-favorable")

    def test_all_subcommands_byte_stable(self, tmp_path):
        cfg_flr = tmp_path / "flr.ini"
        cfg_flr.write_text(self.CONFIG, encoding="utf-8")
        cfg_seq = tmp_path / "seq.ini"
        cfg_seq.write_text(self.RISK_CONFIG, encoding="utf-8")
        jobs = [("simulate", cfg_flr), ("transform", cfg_flr), ("estimate", cfg_flr),
                ("risk", cfg_seq), ("equivalence", cfg_flr)]
        stable = True
        details = []
        for name, cfg in jobs:
            out1, out2 = tmp_path / f"{name}1", tmp_path / f"{name}2"
            rc1 = main([name, "--config", str(cfg), "--out", str(out1)])
            rc2 = main([name, "--config", str(cfg), "--out", str(out2)])
            same = rc1 == rc2 == 0 and all(
                (out1 / p.name).read_bytes() == p.read_bytes()
                for p in sorted(out2.iterdir())
            )
            stable = stable and same
            details.append(f"{name}:{'ok' if same else 'DIFFERS'}")
        report("criterion-10 seed determinism", stable, ", ".join(details))
