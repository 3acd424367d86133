"""Monte Carlo harnesses: MISE studies, rate regressions, equivalence diagnostics.

Worst-case risk over the ellipsoid is approximated by maximizing the Monte
Carlo risk over a small panel of test functions: the boundary profile, the
least-favorable Pinsker profile, a single-coordinate vertex just beyond the
estimator's cutoff (the bias-carrying direction that integer-valued cutoffs
otherwise hide), and a handful of random draws.

The harnesses only draw data and score fits: every estimate comes from
``estimators``, every operator from ``covariance``. Within one replication,
whatever does not depend on the test function (the design sample, its
empirical covariance, the noise, the shrinkage level and weights) is computed
once and shared by the whole panel.

Replications are independent given their named streams, so ``threads > 1``
runs them on the pool of ``parallel.foreach``, which holds every OpenBLAS at
one thread per worker while it runs; results do not depend on the worker
count. On 2 vCPU (OpenBLAS 0.3.31), the benchmark's criterion-6 cutoff study
(30 replications over n = 2^9..2^14, ``threads = 2``) went from a median wall
time of 2.23 s with each worker driving a two-thread BLAS to 0.71 s (CPU
4.33 s to 1.31 s); serial it takes 1.16 s. Worker processes were measured and
rejected: a fresh import of the package alone costs 1.0-1.3 s per worker
(see ``parallel``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .config import EstimatorConfig, ModelConfig
from .covariance import empirical_covariance, sqrt_apply
from .designs import DesignSpec, sample_design, true_covariance
from .equivalence import (
    WnCoefficients,
    empirical_wn_drift,
    simulate_empirical_wn,
    simulate_flr_responses,
)
from .errors import SpecValidationError
from .estimators import (
    ThetaClass,
    cutoff_estimator,
    data_driven_gamma,
    default_rho,
    flr_pinsker_fit,
    pinsker_gamma_oracle,
    pinsker_sequence_estimator,
    pinsker_weights,
    power_lambda_profile,
    sample_theta,
    select_cutoff,
    sharp_risk_constant,
)
from .function_space import fourier_function, norm, pad_coefficients
from .parallel import foreach
from .streams import derive_rng
from .whitenoise import SeqObservation, default_frequency_budget


@dataclass(frozen=True)
class RiskReport:
    """Per-n Monte Carlo risks with the fitted log-log decay."""

    n_grid: tuple
    mise: np.ndarray
    stderr: np.ndarray
    reps: int
    master_seed: int
    slope: float
    slope_se: float
    sharp_ratio: np.ndarray | None = None      # MISE / a_n where applicable
    worst_labels: tuple | None = None
    model_kind: str = ""
    estimator_kind: str = ""


def rate_regression(n_grid, mise_values):
    """Least-squares slope of log MISE on log n, with its standard error."""
    n = np.asarray(n_grid, dtype=float)
    y = np.asarray(mise_values, dtype=float)
    if n.size != y.size or n.size < 3:
        raise ValueError("need at least 3 grid points")
    if np.any(y <= 0.0):
        raise ValueError("MISE values must be positive for a log-log fit")
    x = np.log(n)
    ly = np.log(y)
    xc = x - x.mean()
    sxx = float(np.dot(xc, xc))
    slope = float(np.dot(xc, ly) / sxx)
    resid = ly - (ly.mean() + slope * xc)
    dof = max(n.size - 2, 1)
    se = float(math.sqrt(float(resid @ resid) / dof / sxx))
    return slope, se


def tv_bound(mean_sq_delta: float, sigma: float) -> float:
    """2 (1 - exp(-d/(2 sigma^2)))^(1/2): total-variation surrogate for a
    Gaussian shift with expected squared drift perturbation d."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    if mean_sq_delta < 0:
        raise ValueError("mean squared perturbation must be >= 0")
    return 2.0 * math.sqrt(max(1.0 - math.exp(-mean_sq_delta / (2.0 * sigma**2)), 0.0))


# ----------------------------------------------------------------------------
# MISE studies
# ----------------------------------------------------------------------------


def _theta_panel(model: ModelConfig, estimator: EstimatorConfig, n: int, master_seed: int,
                 oracle_gamma: float | None):
    """Test functions evaluated at sample size n, as (label, coefficients) pairs."""
    lam = power_lambda_profile(model.alpha)
    count = model.coeff_budget
    tc = model.theta_class
    if model.theta_mode != "worst-case":
        theta = sample_theta(
            tc, model.theta_mode, lam, model.sigma, n,
            derive_rng(master_seed, "theta-random", n),
            count=count, gamma=oracle_gamma,
        )
        return [(model.theta_mode, theta)]
    panel = [
        ("boundary", sample_theta(tc, "boundary", lam, model.sigma, n, 0, count=count)),
        ("least-favorable", sample_theta(tc, "least-favorable", lam, model.sigma, n, 0,
                                         count=count, gamma=oracle_gamma)),
    ]
    vertex = _default_vertex(model, estimator, n, oracle_gamma)
    panel.append((f"vertex-{vertex}", sample_theta(tc, "vertex", lam, model.sigma, n, 0,
                                                   count=count, vertex_index=vertex)))
    for i in range(8):
        rng = derive_rng(master_seed, "theta-random", n * 1000 + i)
        panel.append((f"random-{i}", sample_theta(tc, "random", lam, model.sigma, n, rng, count=count)))
    return panel


def _cutoff_split(model: ModelConfig, estimator: EstimatorConfig, n: int) -> tuple[int, int]:
    """(m, k) for the cutoff estimator at sample size n: it fits on m = n // 2
    draws, at the frequency cutoff k of that m."""
    m = n // 2
    return m, select_cutoff(m, model.alpha, model.theta_class.beta,
                            constant=estimator.cutoff_constant)


def _default_vertex(model: ModelConfig, estimator: EstimatorConfig, n: int,
                    oracle_gamma: float | None) -> int:
    """First coordinate the estimator cannot see: just past its cutoff or support."""
    if estimator.kind == "cutoff":
        _, k = _cutoff_split(model, estimator, n)
        return min(k + 1, model.coeff_budget)
    return min(pinsker_weights(oracle_gamma, model.theta_class).size + 1, model.coeff_budget)


def mise_monte_carlo(
    model: ModelConfig,
    estimator: EstimatorConfig,
    reps: int,
    seed: int,
    *,
    threads: int = 1,
) -> RiskReport:
    """Monte Carlo mean of the squared estimation error across the n grid.

    Deterministic given the seed (independent of thread count); within each
    replication every test function sees the same designs and noise (common
    random numbers), so worst-case maximization is stable and the
    per-replication work is shared. The oracle Pinsker level is solved once
    per n, for every estimator but the cutoff one.
    """
    if reps < 2:
        raise ValueError("need reps >= 2 for a standard error")
    mise, stderr, ratios, labels = [], [], [], []
    lam_profile = power_lambda_profile(model.alpha)
    for n in model.n_grid:
        oracle_gamma = None if estimator.kind == "cutoff" else pinsker_gamma_oracle(
            lam_profile, model.theta_class, model.sigma, n)
        panel = _theta_panel(model, estimator, n, seed, oracle_gamma)
        errs = np.empty((len(panel), reps))

        def run_rep(rep: int) -> None:
            ctx = _make_rep_context(model, estimator, n, seed, rep, oracle_gamma)
            for t_idx, (_, theta) in enumerate(panel):
                errs[t_idx, rep] = ctx(theta)

        foreach(run_rep, reps, threads)
        means = errs.mean(axis=1)
        best = int(np.argmax(means))
        mise.append(float(means[best]))
        stderr.append(float(errs[best].std(ddof=1) / math.sqrt(reps)))
        labels.append(panel[best][0])
        if estimator.kind.startswith("pinsker"):
            a_n = sharp_risk_constant(lam_profile, model.theta_class, model.sigma, n,
                                      gamma=oracle_gamma)
            ratios.append(mise[-1] / a_n if a_n > 0 else math.inf)
    mise = np.array(mise)
    stderr = np.array(stderr)
    if len(model.n_grid) >= 3:
        slope, slope_se = rate_regression(model.n_grid, mise)
    else:
        slope, slope_se = math.nan, math.nan
    return RiskReport(
        n_grid=tuple(model.n_grid),
        mise=mise,
        stderr=stderr,
        reps=reps,
        master_seed=seed,
        slope=slope,
        slope_se=slope_se,
        sharp_ratio=np.array(ratios) if ratios else None,
        worst_labels=tuple(labels),
        model_kind=model.kind,
        estimator_kind=estimator.kind,
    )


def _tail_sq(theta: np.ndarray, k: int) -> float:
    return float(np.sum(theta[k:] ** 2))


def _make_rep_context(model, estimator, n, master_seed, rep, oracle_gamma):
    """One replication's data, closed over so every test function reuses it."""
    if estimator.kind == "zero":
        return lambda theta: float(np.sum(theta**2))
    if estimator.kind == "oracle":
        return lambda theta: 0.0
    gamma = oracle_gamma if estimator.gamma is None else estimator.gamma
    if model.kind == "sequence":
        return _sequence_rep_context(model, estimator, n, master_seed, rep, gamma)
    return _flr_rep_context(model, estimator, n, master_seed, rep, gamma)


def _sequence_rep_context(model, estimator, n, master_seed, rep, gamma):
    alpha, tc, sigma = model.alpha, model.theta_class, model.sigma
    budget = max(model.coeff_budget, default_frequency_budget(n, alpha, tc.beta))
    ks = np.arange(1, budget + 1, dtype=float)
    lam = ks ** (-alpha)
    sqrt_lam = np.sqrt(lam)
    rng = derive_rng(master_seed, f"seq-n{n}", rep)
    xi = rng.standard_normal(budget)

    def observe(th, eps):
        return SeqObservation(sqrt_lam * th + eps * xi, lam, eps)

    if estimator.kind == "cutoff":
        m, k = _cutoff_split(model, estimator, n)
        eps = sigma / math.sqrt(m)

        def run(theta):
            th = pad_coefficients(theta, budget)
            est = cutoff_estimator(observe(th, eps), None, k)
            return float(np.sum((est - th[:k]) ** 2)) + _tail_sq(th, k)

        return run

    if estimator.kind in ("pinsker-oracle", "pinsker-fixed"):
        w = pinsker_weights(gamma, tc, budget)
        eps = sigma / math.sqrt(n)

        def run(theta):
            th = pad_coefficients(theta, budget)
            est = pinsker_sequence_estimator(observe(th, eps), w)
            return float(np.sum((est - th) ** 2))

        return run

    raise ValueError(f"estimator {estimator.kind!r} is not defined in the sequence model")


def _flr_rep_context(model, estimator, n, master_seed, rep, gamma):
    spec = model.design
    alpha, tc, sigma = model.alpha, model.theta_class, model.sigma
    rng = derive_rng(master_seed, f"flr-n{n}", rep)

    if estimator.kind == "cutoff":
        m, k = _cutoff_split(model, estimator, n)
        sample = sample_design(spec, m, rng)
        emp = empirical_covariance(sample)
        noise = rng.standard_normal(m)
        true_cov = true_covariance(spec, k)
        r = emp.rank
        drift_scale = math.sqrt(m) * np.sqrt(emp.eigenvalues[:r])

        def run(theta):
            z = drift_scale * emp.eigen_coefficients(theta, count=r) + sigma * noise[:r]
            est = cutoff_estimator(WnCoefficients(z), true_cov, k, m, emp_cov=emp)
            return float(np.sum((est - theta[:k]) ** 2)) + _tail_sq(theta, k)

        return run

    if estimator.kind in ("pinsker-oracle", "pinsker-fixed", "pinsker-data-driven"):
        rho = estimator.rho if estimator.rho is not None else default_rho(alpha)
        sample = sample_design(spec, n, rng)
        noise = rng.standard_normal(n)
        if estimator.kind == "pinsker-data-driven":
            sel = data_driven_gamma(sample, tc, sigma, rho, alpha=alpha)
            gamma, m = sel.gamma_hat, sel.split_m
        else:
            m = n
        fit_sample = sample.subset(slice(m))
        cov = empirical_covariance(fit_sample)
        w = pinsker_weights(gamma, tc)

        def run(theta):
            y = sample.inner_products(theta) + sigma * noise
            fit = flr_pinsker_fit(fit_sample, y[:m], w, rho, alpha=alpha, cov=cov)
            return norm(fit.estimate - fourier_function(theta, spec.grid_size), 2) ** 2

        return run

    raise ValueError(f"estimator {estimator.kind!r} is not defined in the flr model")


# ----------------------------------------------------------------------------
# Gamma-selector consistency
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaConsistencyReport:
    n_grid: tuple
    median_rel_error: np.ndarray
    rel_errors: list
    oracle_gammas: np.ndarray


def gamma_consistency_study(
    spec: DesignSpec,
    theta_class: ThetaClass,
    sigma: float,
    rho: float,
    n_grid,
    reps: int,
    seed: int,
) -> GammaConsistencyReport:
    """Relative error of the data-driven gamma against the oracle, per n. The
    selector reads only designs, so no responses are drawn."""
    lam = power_lambda_profile(spec.alpha)
    medians, all_errors, oracles = [], [], []
    for n in n_grid:
        gamma_n = pinsker_gamma_oracle(lam, theta_class, sigma, n)
        errs = np.empty(reps)
        for rep in range(reps):
            rng = derive_rng(seed, f"gamma-n{n}", rep)
            sample = sample_design(spec, n, rng)
            sel = data_driven_gamma(sample, theta_class, sigma, rho, alpha=spec.alpha)
            errs[rep] = abs(sel.gamma_hat - gamma_n) / gamma_n
        medians.append(float(np.median(errs)))
        all_errors.append(errs)
        oracles.append(gamma_n)
    return GammaConsistencyReport(
        n_grid=tuple(n_grid),
        median_rel_error=np.array(medians),
        rel_errors=all_errors,
        oracle_gammas=np.array(oracles),
    )


# ----------------------------------------------------------------------------
# Split-recombination perturbation study
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class Delta56Report:
    n_grid: tuple
    mean_sq: np.ndarray
    stderr: np.ndarray
    tv_bounds: np.ndarray
    reps: int


def delta56_study(
    n_grid,
    model: ModelConfig,
    reps: int,
    seed: int,
    *,
    force_true_cov2: bool = False,
    force_true_theta1: bool = False,
    threads: int = 1,
) -> Delta56Report:
    """Monte Carlo size of the operator-square-root perturbation
    sqrt(n - m) (Gamma^(1/2) - Gamma2-hat^(1/2))(theta - theta1-hat), m = n//2.

    Square roots act on the span of the retained true eigenfunctions plus the
    empirical range. The companion column reports the induced total-variation
    surrogate.
    """
    if model.kind != "flr":
        raise SpecValidationError("the perturbation study needs an flr model")
    spec = model.design
    alpha, tc, sigma = model.alpha, model.theta_class, model.sigma
    theta = sample_theta(tc, model.theta_mode if model.theta_mode != "worst-case" else "boundary",
                         power_lambda_profile(alpha), sigma, max(n_grid), 0,
                         count=model.coeff_budget)
    theta_grid = fourier_function(theta, spec.grid_size)
    true_cov = true_covariance(spec, model.coeff_budget)

    means, ses, tvs = [], [], []
    for n in n_grid:
        m = n // 2
        k = select_cutoff(m, alpha, tc.beta)
        vals = np.empty(reps)

        def run_rep(rep: int, n=n, m=m, k=k, vals=vals) -> None:
            # One stream per replication across the whole n grid: the shared
            # leading draws couple the per-n estimates, tightening trend tests.
            rng = derive_rng(seed, "delta", rep)
            if force_true_theta1:
                theta1 = theta
            else:
                s1 = sample_design(spec, m, rng)
                emp1 = empirical_covariance(s1)
                z1 = simulate_empirical_wn(theta_grid, s1, emp1, sigma, rng)
                theta1 = cutoff_estimator(z1, true_cov, k, m, emp_cov=emp1)
            g = theta_grid - fourier_function(theta1, spec.grid_size)
            if force_true_cov2:
                cov2 = true_cov
            else:
                s2 = sample_design(spec, n - m, rng)
                cov2 = empirical_covariance(s2)
            delta = sqrt_apply(true_cov, g) - sqrt_apply(cov2, g)
            vals[rep] = (n - m) * norm(delta, 2) ** 2

        foreach(run_rep, reps, threads)
        means.append(float(vals.mean()))
        ses.append(float(vals.std(ddof=1) / math.sqrt(reps)))
        tvs.append(tv_bound(means[-1], sigma))
    return Delta56Report(
        n_grid=tuple(n_grid),
        mean_sq=np.array(means),
        stderr=np.array(ses),
        tv_bounds=np.array(tvs),
        reps=reps,
    )


# ----------------------------------------------------------------------------
# Distributional equivalence tests
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class KsReport:
    """Per-coordinate two-sample Kolmogorov-Smirnov battery."""

    statistics: np.ndarray
    p_values: np.ndarray
    rejected: np.ndarray
    level: float
    bonferroni_level: float

    @property
    def rejection_rate(self) -> float:
        return float(np.mean(self.rejected))


def two_sample_equivalence_test(a: np.ndarray, b: np.ndarray, level: float = 0.05) -> KsReport:
    """KS-test each coordinate of two draw matrices (draws x coordinates)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ValueError("coordinate counts differ")
    if a.shape[0] < 1 or b.shape[0] < 1:
        raise ValueError("empty samples")
    k = a.shape[1]
    adj = level / k
    stats_, pvals = np.empty(k), np.empty(k)
    for j in range(k):
        res = stats.ks_2samp(a[:, j], b[:, j], method="asymp")
        stats_[j], pvals[j] = res.statistic, res.pvalue
    return KsReport(
        statistics=stats_,
        p_values=pvals,
        rejected=pvals < adj,
        level=level,
        bonferroni_level=adj,
    )


def two_route_draws(spec: DesignSpec, theta_class: ThetaClass, sigma: float,
                    n: int, draws: int, seed: int):
    """Coefficient draws from the transform route and the direct route, sharing
    one fixed design sample, for distributional comparison."""
    from .equivalence import build_gram_transform, flr_to_whitenoise

    sample = sample_design(spec, n, derive_rng(seed, "two-route-design"))
    cov = empirical_covariance(sample)
    transform = build_gram_transform(sample, cov)
    theta = sample_theta(theta_class, "boundary", power_lambda_profile(spec.alpha), sigma, n, 0)
    theta_grid = fourier_function(theta, spec.grid_size)

    a = np.empty((draws, n))
    for i in range(draws):
        y = simulate_flr_responses(sample, theta_grid, sigma, derive_rng(seed, "route-flr", i))
        a[i] = flr_to_whitenoise(y, transform, sigma).z
    drift = empirical_wn_drift(theta_grid, sample, cov)
    b = np.empty((draws, n))
    for i in range(draws):
        b[i] = WnCoefficients.draw(drift, sigma, derive_rng(seed, "route-direct", i)).z
    return a, b


def classifier_tv_proxy(a: np.ndarray, b: np.ndarray, seed: int = 0):
    """Held-out nearest-mean classifier accuracy mapped to a total-variation
    estimate 2 acc - 1, with its Monte Carlo standard error."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    rng = derive_rng(seed, "tv-proxy")
    half_a, half_b = a.shape[0] // 2, b.shape[0] // 2
    perm_a, perm_b = rng.permutation(a.shape[0]), rng.permutation(b.shape[0])
    mu_a = a[perm_a[:half_a]].mean(axis=0)
    mu_b = b[perm_b[:half_b]].mean(axis=0)
    w = mu_a - mu_b
    mid = 0.5 * (mu_a + mu_b)
    score_a = (a[perm_a[half_a:]] - mid) @ w
    score_b = (b[perm_b[half_b:]] - mid) @ w
    correct = np.concatenate([score_a > 0, score_b <= 0])
    acc = float(np.mean(correct))
    se = math.sqrt(max(acc * (1 - acc), 1e-12) / correct.size)
    return max(2.0 * acc - 1.0, 0.0), 2.0 * se


# ----------------------------------------------------------------------------
# Bias/variance decomposition of the plug-in shrinkage estimator
# ----------------------------------------------------------------------------


def pinsker_decomposition_draws(
    spec: DesignSpec,
    theta_class: ThetaClass,
    sigma: float,
    rho: float,
    n: int,
    reps: int,
    seed: int,
    *,
    gamma: float | None = None,
    theta_mode: str = "boundary",
):
    """Paired draws of the realized squared error and its conditional
    bias + variance decomposition; the two agree in expectation because the
    cross term vanishes given the designs."""
    alpha = spec.alpha
    lam = power_lambda_profile(alpha)
    if gamma is None:
        gamma = pinsker_gamma_oracle(lam, theta_class, sigma, n)
    weights = pinsker_weights(gamma, theta_class)
    theta = sample_theta(theta_class, theta_mode, lam, sigma, n, 0)
    theta_grid = fourier_function(theta, spec.grid_size)

    lhs, rhs = np.empty(reps), np.empty(reps)
    for rep in range(reps):
        rng = derive_rng(seed, "sh2", rep)
        sample = sample_design(spec, n, rng)
        y = simulate_flr_responses(sample, theta, sigma, rng)
        cov = empirical_covariance(sample)
        fit = flr_pinsker_fit(sample, y, weights, rho, alpha=alpha, cov=cov)
        diff = fit.estimate - theta_grid
        lhs[rep] = norm(diff, 2) ** 2

        r = cov.rank
        lam_hat = cov.eigenvalues[:r]
        lam_floor = np.maximum(lam_hat, float(n) ** (-rho))
        w_full = np.zeros(r)
        w_full[: fit.weights.size] = fit.weights
        f = cov.eigen_coefficients(theta_grid, count=r)
        bias = float(np.sum((w_full * lam_hat / lam_floor - 1.0) ** 2 * f**2))
        variance = float(sigma**2 / n * np.sum(w_full**2 * lam_hat / lam_floor**2))
        rhs[rep] = bias + variance
    return lhs, rhs
