"""Monte Carlo harnesses: MISE studies, rate regressions, equivalence diagnostics.

Worst-case risk over the ellipsoid is approximated by maximizing the Monte
Carlo risk over a small panel of test functions: the boundary profile, the
least-favorable Pinsker profile, a single-coordinate vertex just beyond the
estimator's cutoff (the bias-carrying direction that integer-valued cutoffs
otherwise hide), and a handful of random draws.

The harnesses only draw data and score fits: every estimate comes from
``estimators``, every operator from ``covariance``. The study rules live
once each: ``estimators.cutoff_split`` gives the cutoff's (m, k) = (n // 2,
its frequency cutoff) to the replications, the vertex test function and the
perturbation study's pilot, and ``fitted_rows`` and ``pinsker_level`` here
give a Pinsker fit its fitted rows, level and weights, for the replications
and ``flrlab estimate``.
Every test function is a coefficient vector in its design's eigenbasis
(Fourier for basis-expansion designs, sine for Brownian ones), the
coordinates every fit works in, and every error is scored there by Parseval:
nothing is rendered on the grid. Within one replication, whatever does not
depend on the test function (the designs' statistics, the empirical
covariance, the noise, the shrinkage level and weights) is computed once and
shared by the whole panel; the sequence model instead redraws the same noise
from the replication's stream through ``simulate_sequence``.

By the finite-sample equivalence, a replication reads its m fitted designs C
and their noise eps only through Gamma-hat = C^T C / m and the noise moment
C^T eps / m: each test function's cross moment is then
X^T y / m = Gamma-hat theta + sigma C^T eps / m, the empirical white-noise
model's data, at J x r work per Pinsker fit and k x L per cutoff fit, with
no pass over the designs. A replication that never holds the n x J sample
takes these sums from ``designs.stream_moments``: basis-expansion designs are
drawn block by block, each raw block folded into the sums and the sums
scaled once, so they equal the held sample's up to rounding; Brownian
designs have the sums drawn from their exact joint law (a Bartlett-factored
Wishart matrix), from O(k J) random numbers instead of m J. A cutoff fit
reads only the first k rows of Gamma-hat, applied to theta, and the noise
moment, so its m designs are always summed this way, of either kind, and
only over the design columns it reads: width L = max(k, the last nonzero
coordinate of any test function in n's panel, ``_cutoff_width``), 64 for
the worst-case panel and max(k, K_n) for the least-favorable theta of
support K_n. A basis-expansion replication then draws m L uniforms and
holds O(L^2 + block) numbers, and a Brownian one draws O(k L) normals,
whatever m is. A Pinsker fit reads the whole Gram matrix (an
``EmpiricalGram`` for ``empirical_covariance``) and the training rows', and
one rule (``_streamed``) sums it only on basis-expansion designs whose
fitted rows (and the data-driven level's training rows) number more than J.
Brownian Pinsker fits and smaller parts keep the sample, whose rows the dual
route reads: their law draw takes no split, and the dual route needs rows.

A cutoff replication solves no eigenproblem: under the known design law its
estimate is (X^T y / m)_k / lambda_k. The perturbation study's pilot is the
same fit (``_cutoff_fit``) of its m summed designs, so each replication
there holds one design sample and solves one eigenproblem, for its second
sample's Gamma2-hat, whose square root ``covariance.sqrt_apply`` applies
from that eigenproblem without building an operator. A replication's stream
therefore gives, on basis-expansion designs, the m pilot designs, their m
normals, then the second sample; on Brownian designs, the pilot's law draw
(k chi-squares, the k (k - 1) / 2 normals below its Bartlett factor's
diagonal, k (J - k) normals, then k), then the second sample. The pilot
passes no width and draws all J columns: its boundary theta is dense over
the 64 coefficients of the budget, so a narrower draw would save at most
half of it. The gamma-consistency study draws only the training rows its
selector reads.

A study first builds what the replications at each n share (the oracle
level, the test-function panel, the cutoff's split and true operator, the
result arrays), then runs every (n, rep) replication of its grid in one
``parallel.foreach`` (``_replicate_grid``), largest n first: serial or, with
``threads > 1``, on the persistent pool that the calling thread joins;
either way every OpenBLAS is held at one thread while they run.
Replications are independent given their named streams and each writes its
own slot, so results depend neither on the worker count nor on the order.
On 2 vCPU (OpenBLAS 0.3.31), the benchmark's criterion-6 cutoff study (30
replications over n = 2^9..2^14, ``threads = 2``) went from a median wall
time of 2.23 s with each worker driving a two-thread BLAS to 0.71 s (CPU
4.33 s to 1.31 s). Fitting the cutoff from k rows of Gamma-hat, without the
J x J Gram matrix and its eigh, then took it from 0.59 s to 0.29 s (CPU
1.10 s to 0.51 s). Summing the designs block by block kept those times and
took the benchmark process's peak RSS from a median of 56.3 MB (56.1-78.9 MB
over 10 runs) to 41.8 MB (41.3-43.3 MB). One loop over the whole grid on the
persistent pool, with the cutoff's true operator built once per n rather
than in every replication, then took the median wall time from 0.364 s to
0.307 s (CPU 0.619 s to 0.553 s, 10 alternating pairs on a busier host than
the figures before). Drawing only the design columns the fit reads, 5 to 8
of J = 128 at the least-favorable theta, then took it from 0.205 s to
0.079 s (CPU 0.363 s to 0.100 s, 10 alternating pairs, better in all 10).
Folding the raw centred uniforms R - 1/2 and scaling the sums once
(``designs``), where each block was scaled and shifted in three passes,
and drawing rows from row 0 from the replication's stream itself, took the
criterion-7 MISE study (300 data-driven replications at n = 1e4, seed 7,
in-process, 4 alternating rounds) from 4.21-4.49 s to 3.97-4.07 s. In
the benchmark (10 alternating 25 s pairs) dd-pinsker-flr's median wall
time went from 4.70 s to 4.41 s (better in 9 of 10 pairs) and
cutoff-flr's from 0.074 s to 0.061 s (10 of 10).
Worker processes were measured and rejected (see ``parallel``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import EstimatorConfig, ModelConfig
from .covariance import EmpiricalGram, empirical_covariance, empirical_eigenvalues, sqrt_apply
from .designs import KIND_BASIS, DesignSpec, sample_design, stream_moments, true_covariance
from .equivalence import (
    WnCoefficients,
    empirical_wn_drift,
    gaussian_draw,
    simulate_flr_responses,
)
from .errors import SpecValidationError
from .estimators import (
    DEFAULT_COEFF_BUDGET,
    ThetaClass,
    cutoff_estimator,
    cutoff_split,
    data_driven_gamma,
    data_driven_split,
    default_rho,
    flr_pinsker_fit,
    pinsker_conditional_risk,
    pinsker_gamma_oracle,
    pinsker_oracle_weights,
    pinsker_sequence_estimator,
    pinsker_weights,
    sample_theta,
    sharp_risk_constant,
)
from .function_space import pad_coefficients
from .parallel import foreach
from .streams import derive_rng
from .whitenoise import default_frequency_budget, simulate_sequence


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
    if n.size != y.size:
        raise ValueError(f"{n.size} grid points but {y.size} MISE values")
    if len(set(n.tolist())) < 3:
        raise ValueError("need at least 3 distinct grid points")
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
    Gaussian shift with expected squared drift perturbation d.

    The bound is on the [0, 2] scale of the L1 distance ||P - Q||_1, twice
    the sup_A |P(A) - Q(A)| that ``classifier_tv_proxy`` reports on [0, 1].
    """
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    if mean_sq_delta < 0:
        raise ValueError("mean squared perturbation must be >= 0")
    return 2.0 * math.sqrt(max(1.0 - math.exp(-mean_sq_delta / (2.0 * sigma**2)), 0.0))


# ----------------------------------------------------------------------------
# MISE studies
# ----------------------------------------------------------------------------


def _theta_panel(model: ModelConfig, estimator: EstimatorConfig, n: int, master_seed: int,
                 oracle: tuple | None):
    """Test functions evaluated at sample size n, as (label, coefficients)
    pairs; ``oracle`` is n's ``oracle_level``, None for the cutoff."""
    oracle_gamma = None if oracle is None else oracle[0]
    lam = model.lambda_profile()
    tc = model.theta_class
    if model.theta_mode != "worst-case":
        theta = sample_theta(tc, model.theta_mode, lam, model.sigma, n,
                             derive_rng(master_seed, "theta-random", n), gamma=oracle_gamma)
        return [(model.theta_mode, theta)]
    panel = [
        ("boundary", sample_theta(tc, "boundary", lam, model.sigma, n, 0)),
        ("least-favorable", sample_theta(tc, "least-favorable", lam, model.sigma, n, 0,
                                         gamma=oracle_gamma)),
    ]
    vertex = _default_vertex(model, estimator, n, oracle)
    panel.append((f"vertex-{vertex}", sample_theta(tc, "vertex", lam, model.sigma, n, 0,
                                                   vertex_index=vertex)))
    for i in range(8):
        rng = derive_rng(master_seed, "theta-random", n * 1000 + i)
        panel.append((f"random-{i}", sample_theta(tc, "random", lam, model.sigma, n, rng)))
    return panel


def _default_vertex(model: ModelConfig, estimator: EstimatorConfig, n: int,
                    oracle: tuple | None) -> int:
    """First coordinate the estimator cannot see: just past its cutoff or the
    oracle level's support."""
    if estimator.kind == "cutoff":
        _, k = cutoff_split(n, model.alpha, model.theta_class.beta)
        return min(k + 1, DEFAULT_COEFF_BUDGET)
    return min(oracle[1].size + 1, DEFAULT_COEFF_BUDGET)


def fitted_rows(estimator: EstimatorConfig, n: int) -> int:
    """m, the pairs a Pinsker fit on n pairs uses: the data-driven kind fits
    the first ``data_driven_split(n)`` and selects its level on the rest,
    the oracle kind fits all n."""
    return data_driven_split(n) if estimator.kind == "pinsker-data-driven" else n


def oracle_level(model: ModelConfig, n: int) -> tuple:
    """(gamma_n, weights) of the oracle Pinsker level at n, the weights from
    the level's piece (``pinsker_oracle_weights``). A study builds it once
    per n, for every replication there."""
    lam, tc, sigma = model.lambda_profile(), model.theta_class, model.sigma
    return pinsker_gamma_oracle(lam, tc, sigma, n), pinsker_oracle_weights(lam, tc, sigma, n)


def pinsker_level(estimator: EstimatorConfig, model: ModelConfig, n: int, train, rho: float,
                  oracle: tuple):
    """(gamma, weights, selection) of a Pinsker fit on n pairs.

    The data-driven kind selects its level from ``train``, the training
    designs ``fitted_rows(estimator, n)``..n as a sample or an
    ``EmpiricalGram``; the oracle kind takes ``oracle``, n's
    ``oracle_level``, reads no ``train`` and has no selection.
    """
    if estimator.kind != "pinsker-data-driven":
        gamma, weights = oracle
        return gamma, weights, None
    if train is None:
        raise ValueError("the data-driven level needs its training designs")
    selection = data_driven_gamma(empirical_eigenvalues(train), n, model.theta_class,
                                  model.sigma, rho, alpha=model.alpha)
    gamma = selection.gamma_hat
    return gamma, pinsker_weights(gamma, model.theta_class), selection


def _replicate_grid(n_grid, reps: int, threads: int, setup):
    """Run every replication of a study over its n grid in one ``foreach``.

    ``setup(n)`` builds what every replication at n shares and returns it
    with n's replication ``run(rep)``, which writes its own slot. The
    (n, rep) tasks run largest n first, so the longest ones start early;
    each draws from its own named stream, so neither the order nor the
    worker count changes a bit. Returns the per-n states in grid order.
    """
    built = [setup(n) for n in n_grid]
    order = sorted(range(len(built)), key=lambda i: n_grid[i], reverse=True)

    def task(t: int) -> None:
        i, rep = divmod(t, reps)
        built[order[i]][1](rep)

    foreach(task, len(built) * reps, threads)
    return [state for state, _ in built]


def mise_monte_carlo(
    model: ModelConfig,
    estimator: EstimatorConfig,
    reps: int,
    seed: int,
    *,
    threads: int = 1,
) -> RiskReport:
    """Monte Carlo mean of the squared estimation error across the n grid.

    Deterministic given the seed, and independent of the thread count.
    Within each replication every test function sees the same designs and
    noise (common random numbers), so worst-case maximization is stable and
    the per-replication work is shared. The oracle Pinsker level is solved
    once per n, with its weights, for the Pinsker kinds (``oracle_level``).
    """
    if reps < 2:
        raise ValueError("need reps >= 2 for a standard error")
    estimator.check_against(model)
    lam_profile = model.lambda_profile()

    def setup(n):
        oracle = None if estimator.kind == "cutoff" else oracle_level(model, n)
        panel = _theta_panel(model, estimator, n, seed, oracle)
        errs = np.empty((len(panel), reps))
        replicate = _replication(model, estimator, n, seed, oracle, panel)

        def run(rep: int) -> None:
            score = replicate(rep)
            for t_idx, (_, theta) in enumerate(panel):
                errs[t_idx, rep] = score(theta)

        return (n, panel, errs), run

    mise, stderr, ratios, labels = [], [], [], []
    for n, panel, errs in _replicate_grid(model.n_grid, reps, threads, setup):
        means = errs.mean(axis=1)
        best = int(np.argmax(means))
        mise.append(float(means[best]))
        stderr.append(float(errs[best].std(ddof=1) / math.sqrt(reps)))
        labels.append(panel[best][0])
        if estimator.kind.startswith("pinsker"):
            a_n = sharp_risk_constant(lam_profile, model.theta_class, model.sigma, n)
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


def _replication(model, estimator, n, master_seed, oracle, panel):
    """n's replication: rep -> that replication's scorer of the test
    functions of ``panel``, closed over its data so every test function
    reuses it. What every replication at n shares (the split, the true
    operator, the oracle level's weights in ``oracle``, the design columns
    a cutoff fit reads) is built here or before, once."""
    if model.kind == "sequence":
        return _sequence_replication(model, estimator, n, master_seed, oracle)
    return _flr_replication(model, estimator, n, master_seed, oracle, panel)


def _sequence_replication(model, estimator, n, master_seed, oracle):
    alpha, tc, sigma = model.alpha, model.theta_class, model.sigma
    budget = max(DEFAULT_COEFF_BUDGET, default_frequency_budget(n, alpha, tc.beta))
    lam = np.arange(1, budget + 1, dtype=float) ** (-alpha)
    if estimator.kind == "cutoff":
        m, k = cutoff_split(n, alpha, tc.beta)
    else:
        _, w = oracle

    def replicate(rep):
        def observe(th, size):
            # The replication's stream is derived afresh for every test
            # function, so the whole panel sees the same noise.
            return simulate_sequence(th, lam, size, sigma,
                                     derive_rng(master_seed, f"seq-n{n}", rep))

        def run(theta):
            th = pad_coefficients(theta, budget)
            if estimator.kind == "cutoff":
                est = cutoff_estimator(observe(th, m), None, k)
                return float(np.sum((est - th[:k]) ** 2)) + _tail_sq(th, k)
            est = pinsker_sequence_estimator(observe(th, n), w)
            return float(np.sum((est - th) ** 2))

        return run

    return replicate


def _streamed(spec: DesignSpec, n: int, m: int) -> bool:
    """Whether a Pinsker replication's n designs, m of them fitted, are drawn
    block by block (``stream_moments``) rather than held: basis-expansion
    designs whose fitted rows and training rows each number more than J, so
    that every Gram matrix an eigenproblem reads is J x J. Brownian designs
    and smaller parts keep the sample, which the dual route reads."""
    j = spec.resolved_truncation(n)
    parts = (m, n - m) if m < n else (n,)
    return spec.kind == KIND_BASIS and min(parts) > j


def _cutoff_width(panel, k: int) -> int:
    """The design columns a cutoff fit with cutoff k reads when it scores
    ``panel``: max(k, the last nonzero coordinate of any test function).
    The fit reads k rows of Gamma-hat applied to theta, so no column beyond
    both enters an estimate, and a replication draws only these
    (``stream_moments`` caps them at J)."""
    support = max((int(np.flatnonzero(theta)[-1]) + 1 for _, theta in panel if np.any(theta)),
                  default=0)
    return max(k, support)


def _cutoff_fit(moments, sigma, true_cov, k):
    """The cutoff fit on m designs and their m noise values, as a function of
    theta. It reads the first k coordinates of X^T y / m = Gamma-hat theta
    + sigma C^T eps / m: the k rows C[:, :k]^T C / m of Gamma-hat and the
    noise moment sigma C[:, :k]^T eps / m, from the sums of ``moments``
    (``DesignMoments`` with lead k). theta is cut or zero-padded to the
    sums' width, so they must span its support (``_cutoff_width``)."""
    m = moments.m
    gram_rows = moments.gram / m
    noise_moment = sigma * moments.noise / m

    def fit(theta):
        xty = gram_rows @ pad_coefficients(theta, gram_rows.shape[1]) + noise_moment
        return cutoff_estimator(xty, true_cov, k)

    return fit


def _pinsker_statistics(spec: DesignSpec, n: int, m: int, rng):
    """(fit, train, C[:m]^T eps[:m] / m) of a replication's n designs and the
    n normals after them: ``fit`` and ``train`` are the rows :m and m:n
    (``train`` None when m = n) as ``empirical_covariance`` reads them, an
    ``EmpiricalGram`` when the designs were drawn block by block and the
    held sample's rows otherwise."""
    if _streamed(spec, n, m):
        sums = stream_moments(spec, n, rng, split=m)

        def gram(total, rows):
            return EmpiricalGram(total / rows, rows, spec.basis, spec.grid_size)

        train = None if sums.train is None else gram(sums.train, n - m)
        return gram(sums.gram, m), train, sums.noise / m
    sample = sample_design(spec, n, rng)
    noise = rng.standard_normal(n)
    fit = sample.subset(slice(m))
    train = sample.subset(slice(m, n)) if m < n else None
    return fit, train, fit.cross_moment(noise[:m])


def _flr_replication(model, estimator, n, master_seed, oracle, panel):
    spec = model.design
    alpha, sigma = model.alpha, model.sigma

    def stream(rep):
        return derive_rng(master_seed, f"flr-n{n}", rep)

    if estimator.kind == "cutoff":
        m, k = cutoff_split(n, alpha, model.theta_class.beta)
        true_cov = true_covariance(spec, k)
        width = _cutoff_width(panel, k)

        def replicate(rep):
            sums = stream_moments(spec, m, stream(rep), lead=k, width=width)
            fit = _cutoff_fit(sums, sigma, true_cov, k)

            def run(theta):
                return float(np.sum((fit(theta) - theta[:k]) ** 2)) + _tail_sq(theta, k)

            return run

        return replicate

    rho = estimator.rho if estimator.rho is not None else default_rho(alpha)
    m = fitted_rows(estimator, n)

    def replicate(rep):
        fit_rows, train, noise_moment = _pinsker_statistics(spec, n, m, stream(rep))
        _, w, _ = pinsker_level(estimator, model, n, train, rho, oracle)
        cov = empirical_covariance(fit_rows)
        # X^T y / m = Gamma-hat theta + sigma C^T eps / m on the fitted rows:
        # the noise moment is shared by the panel.
        noise_moment = sigma * noise_moment

        def run(theta):
            fit = flr_pinsker_fit(cov, cov.apply(theta) + noise_moment, w, rho, alpha=alpha)
            return fit.squared_error(theta)

        return run

    return replicate


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
    selector reads only the training designs m..n of each replication's n,
    so only those rows are drawn (with the bits of the full draw's rows,
    see ``sample_design``) and no responses are."""
    lam = spec.lambda_profile()

    def setup(n):
        gamma_n = pinsker_gamma_oracle(lam, theta_class, sigma, n)
        train = slice(data_driven_split(n), n)
        errs = np.empty(reps)

        def run(rep: int) -> None:
            sample = sample_design(spec, n, derive_rng(seed, f"gamma-n{n}", rep), train)
            sel = data_driven_gamma(empirical_eigenvalues(sample), n, theta_class, sigma, rho,
                                    alpha=spec.alpha)
            errs[rep] = abs(sel.gamma_hat - gamma_n) / gamma_n

        return (gamma_n, errs), run

    # serial, with foreach's one BLAS thread
    states = _replicate_grid(n_grid, reps, 1, setup)
    return GammaConsistencyReport(
        n_grid=tuple(n_grid),
        median_rel_error=np.array([float(np.median(errs)) for _, errs in states]),
        rel_errors=[errs for _, errs in states],
        oracle_gammas=np.array([gamma_n for gamma_n, _ in states]),
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
    threads: int = 1,
) -> Delta56Report:
    """Monte Carlo size of the operator-square-root perturbation
    sqrt(n - m) (Gamma^(1/2) - Gamma2-hat^(1/2))(theta - theta1-hat), m = n//2.

    Square roots act on the span of the retained true eigenfunctions plus the
    empirical range. The companion column reports the induced total-variation
    surrogate. theta, the pilot theta1-hat and every operator share the
    design's eigenbasis, so the whole perturbation is computed in those
    coefficients and its norm by Parseval.

    Each replication takes the pilot's sums over m designs s1 and m normals
    eps from its stream (``stream_moments``), then the n - m designs s2. The
    pilot is the cutoff fit of ``_cutoff_fit``: it reads
    (Gamma1-hat[:k, :], sigma C1[:, :k]^T eps / m), the first k coordinates
    of X^T y1 / m with y1 = C1 theta + sigma eps, summed block by block on
    basis-expansion designs and drawn from their joint law on Brownian ones,
    so s1 is never held, and solves no eigenproblem. Gamma2-hat is read only
    through its square root, which ``sqrt_apply`` applies from s2's Gram
    eigenpairs without building an operator (no J x r eigenvectors, sign
    convention or determinant). On the cli-gaussian model
    (integrated-Gaussian designs, n = 256, 512, 1024, 20 replications, seed
    7, serial; 2 vCPU, OpenBLAS 0.3.31, one BLAS thread) the study takes
    1.6-1.9 s (median 1.65 s, CPU the same) this way, against 1.7-2.1 s
    (median 2.10 s) with the pilot's m x J normals summed block by block
    (5 alternating runs). Earlier, on the same box, with an operator built
    per replication and a multi-threaded BLAS it took 2.4-2.5 s (CPU
    4.6-4.8 s), and with the pilot on the white-noise route (a second
    empirical operator per replication) 3.3-3.4 s (medians of 5).
    """
    if reps < 2:
        raise ValueError("need reps >= 2 for a standard error")
    if model.kind != "flr":
        raise SpecValidationError("the perturbation study needs an flr model")
    spec = model.design
    tc, sigma = model.theta_class, model.sigma
    theta = sample_theta(tc, model.drawn_theta_mode, model.lambda_profile(), sigma,
                         max(n_grid), 0)
    true_cov = true_covariance(spec, DEFAULT_COEFF_BUDGET)

    def setup(n):
        m, k = cutoff_split(n, model.alpha, tc.beta)
        vals = np.empty(reps)

        def run(rep: int) -> None:
            # One stream per replication across the whole n grid: the shared
            # leading draws couple the per-n estimates, tightening trend tests.
            rng = derive_rng(seed, "delta", rep)
            theta1 = _cutoff_fit(stream_moments(spec, m, rng, lead=k), sigma, true_cov, k)(theta)
            s2 = sample_design(spec, n - m, rng)
            width = max(theta.size, theta1.size)
            g = pad_coefficients(theta, width) - pad_coefficients(theta1, width)
            a, b = sqrt_apply(true_cov, g), sqrt_apply(s2, g)
            width = max(a.size, b.size)
            sq = float(np.sum((pad_coefficients(a, width) - pad_coefficients(b, width)) ** 2))
            vals[rep] = (n - m) * sq

        return vals, run

    means, ses, tvs = [], [], []
    for vals in _replicate_grid(n_grid, reps, threads, setup):
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


def _draw_matrix(x) -> np.ndarray:
    """Draws x coordinates; a 1-d input holds draws of one coordinate."""
    x = np.asarray(x, dtype=float)
    if x.ndim > 2:
        raise ValueError(f"draws must be a vector or a draws x coordinates matrix, "
                         f"got {x.ndim} dimensions")
    return x.reshape(-1, 1) if x.ndim < 2 else x


def _prob_outside_square(n: int, h: int) -> float:
    """P(D_{n,n} >= h / n) for two samples of n draws under the null, 0 <= h <= n.

    Gnedenko and Korolyuk's sum 2 sum_{j >= 1} (-1)^(j+1) C(2n, n - j h) / C(2n, n),
    in the Horner-like form 2 A_0 (1 - A_1 (1 - A_2 (...))) with
    A_k = prod_{i < h} (n - k h - i) / (n + k h + i + 1), which has no
    cancellation. The operations are those of scipy's
    ``stats._stats_py._compute_prob_outside_square``, so are the bits. Where
    they round above 1 (by a few ulps, at h small against sqrt(n)), the
    result is 1; ``ks_2samp(method="exact")`` instead warns there and falls
    back to its asymptotic law.
    """
    if h == 0:
        return 1.0
    p = 0.0
    for k in range(n // h, -1, -1):
        a = 1.0
        for i in range(h):
            a = (n - k * h - i) * a / (n + k * h + i + 1)
        p = a * (1.0 - p)
    return min(2 * p, 1.0)


def two_sample_equivalence_test(a: np.ndarray, b: np.ndarray, level: float = 0.05) -> KsReport:
    """KS-test each coordinate of two draw matrices with equally many draws
    (draws x coordinates, or vectors of draws of one coordinate).

    With n draws on each side, a coordinate's statistic is h / n, where
    h = max_t |#{x <= t} - #{y <= t}| over the pooled draws t, taken from the
    integer ``searchsorted(..., side="right")`` counts of both sorted
    columns. Its p-value is the exact null law P(D_{n,n} >= h / n)
    (``_prob_outside_square``), computed once per distinct h. Statistics
    and p-values are those of ``scipy.stats.ks_2samp(x, y, method="exact")``
    on each coordinate, bit for bit wherever scipy keeps its exact law.
    Unequal draw counts raise ``ValueError``.

    Columns are taken one at a time, so no pooled draws x coordinates
    temporaries are stacked. A p-value costs about n multiplications, once
    per distinct h: 1000 x 256 against 1000 x 256 draws hold about 50
    distinct h, and the battery takes 0.035-0.042 s on 2 vCPU.
    """
    a, b = _draw_matrix(a), _draw_matrix(b)
    if a.shape[1] != b.shape[1]:
        raise ValueError("coordinate counts differ")
    if a.shape[1] < 1:
        raise ValueError("the draw matrices have no coordinates")
    for name, draws in (("a", a), ("b", b)):
        if draws.shape[0] < 1:
            raise ValueError(f"draw matrix {name} has no draws")
    (n, k), n2 = a.shape, b.shape[0]
    if n != n2:
        raise ValueError(f"the exact KS law needs equal draw counts, got {n} and {n2}")

    h = np.empty(k, dtype=np.int64)
    for j in range(k):
        x, y = np.sort(a[:, j]), np.sort(b[:, j])
        pooled = np.concatenate([x, y])
        diffs = np.searchsorted(x, pooled, side="right") - np.searchsorted(y, pooled, side="right")
        h[j] = np.abs(diffs).max()
    p_of = {v: _prob_outside_square(n, v) for v in set(h.tolist())}
    pvals = np.array([p_of[v] for v in h.tolist()])
    adj = level / k
    return KsReport(
        statistics=h / n,
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
    theta = sample_theta(theta_class, "boundary", spec.lambda_profile(), sigma, n, 0)

    mean = sample.inner_products(theta)
    a = np.empty((draws, n))
    for i in range(draws):
        y = gaussian_draw(mean, sigma, derive_rng(seed, "route-flr", i))
        a[i] = flr_to_whitenoise(y, transform, sigma).z
    drift = empirical_wn_drift(theta, sample, cov)
    b = np.empty((draws, n))
    for i in range(draws):
        b[i] = WnCoefficients.draw(drift, sigma, derive_rng(seed, "route-direct", i)).z
    return a, b


def classifier_tv_proxy(a: np.ndarray, b: np.ndarray, seed: int = 0):
    """Held-out nearest-mean classifier accuracy mapped to a total-variation
    estimate 2 acc - 1, with its Monte Carlo standard error.

    The estimate is on the [0, 1] scale of sup_A |P(A) - Q(A)|, half the
    L1 distance that ``tv_bound`` bounds on [0, 2]. The inputs are read as
    in ``two_sample_equivalence_test``.
    """
    a, b = _draw_matrix(a), _draw_matrix(b)
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
):
    """Paired draws of the realized squared error and its conditional
    bias + variance decomposition (``pinsker_conditional_risk``) of the
    oracle-level fit at the boundary theta; the two agree in expectation
    because the cross term vanishes given the designs."""
    alpha = spec.alpha
    lam = spec.lambda_profile()
    weights = pinsker_oracle_weights(lam, theta_class, sigma, n)
    theta = sample_theta(theta_class, "boundary", lam, sigma, n, 0)

    lhs, rhs = np.empty(reps), np.empty(reps)

    def run_rep(rep: int) -> None:
        rng = derive_rng(seed, "sh2", rep)
        sample = sample_design(spec, n, rng)
        y = simulate_flr_responses(sample, theta, sigma, rng)
        cov = empirical_covariance(sample)
        fit = flr_pinsker_fit(cov, sample.cross_moment(y), weights, rho, alpha=alpha)
        lhs[rep] = fit.squared_error(theta)
        bias, variance = pinsker_conditional_risk(cov, theta, weights, rho, sigma)
        rhs[rep] = bias + variance

    foreach(run_rep, reps, 1)       # serial, with foreach's one BLAS thread
    return lhs, rhs
