"""Spectral-cutoff and Pinsker estimators for the inverse regression problem.

The target class is the ellipsoid sum_k (1 + k^(2 beta)) theta_k^2 <= C. The
Pinsker machinery consists of the oracle shrinkage level gamma_n (unique zero
of a piecewise-linear balance equation, solved in closed form on the linear
piece that holds it), the weights w_k = (1 - gamma b_k)_+ with
b_k = (1 + k^(2 beta))^(1/2), the sharp risk constant a_n, a regression
plug-in estimator that never touches the true operator, and a data-driven
selector of gamma based on a training split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .covariance import CovOperator
from .errors import SpecValidationError
from .function_space import GridFunction, basis_function, pad_coefficients
from .streams import as_generator
from .whitenoise import SeqObservation

DEFAULT_COEFF_BUDGET = 64   # declared truncation length for coefficient sequences
DATA_DRIVEN_MIN_N = 8       # smallest n whose data-driven split leaves both halves nonempty


@dataclass(frozen=True)
class ThetaClass:
    """Ellipsoid of target functions: sum (1 + k^(2 beta)) theta_k^2 <= c_theta."""

    beta: float
    c_theta: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0.5):
            raise SpecValidationError(
                f"smoothness exponent must be finite and exceed 1/2, got {self.beta}", "beta")
        if not (math.isfinite(self.c_theta) and self.c_theta > 0):
            raise SpecValidationError(
                f"ellipsoid radius must be finite and positive, got {self.c_theta}", "c_theta")

    def beta_k(self, k) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        return np.sqrt(1.0 + k ** (2.0 * self.beta))

    def check_against_alpha(self, alpha: float, *, plug_in: bool = False) -> None:
        """Approximability vs ill-posedness: beta > (alpha+1)/2 always, and
        beta > alpha + 3/2 when the plug-in (unknown-design) route is used."""
        if self.beta <= (alpha + 1.0) / 2.0:
            raise SpecValidationError(
                f"need beta > (alpha+1)/2 = {(alpha + 1) / 2}, got beta={self.beta}", "beta"
            )
        if plug_in and self.beta <= alpha + 1.5:
            raise SpecValidationError(
                f"plug-in mode needs beta > alpha + 3/2 = {alpha + 1.5}, got beta={self.beta}",
                "beta",
            )


def default_rho(alpha: float) -> float:
    """Midpoint of the admissible truncation-exponent interval."""
    lo = alpha / (2.0 * alpha + 3.0)
    return 0.5 * (lo + 0.5)


def validate_rho(rho: float, alpha: float) -> None:
    """rho in (alpha/(2 alpha + 3), 1/2), the admissible truncation exponents."""
    if not 0.0 < rho < 0.5:
        raise SpecValidationError(f"rho must lie in (0, 1/2), got {rho}", "rho")
    if rho <= alpha / (2.0 * alpha + 3.0):
        raise SpecValidationError(
            f"rho must exceed alpha/(2 alpha + 3) = {alpha / (2 * alpha + 3):.4f}, got {rho}",
            "rho",
        )


def select_cutoff(m: int, alpha: float, beta: float) -> int:
    """Frequency cutoff ceil(m^(1/(2 beta + alpha + 1))), at least 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return max(1, math.ceil(m ** (1.0 / (2.0 * beta + alpha + 1.0))))


def cutoff_split(n: int, alpha: float, beta: float) -> tuple[int, int]:
    """(m, k) of the cutoff fit on n pairs: it fits on m = n // 2 of them,
    at the frequency cutoff k of that m."""
    m = n // 2
    return m, select_cutoff(m, alpha, beta)


def cutoff_estimator(obs, cov: CovOperator | None, cutoff: int) -> np.ndarray:
    """Projection estimator on the first ``cutoff`` coordinates of the true eigenbasis.

    Two kinds of observation are read:

    * a SeqObservation: theta-hat_k = y_k / sqrt(lambda_k), and ``cov`` is
      not used;
    * the cross moment X^T y / m of m regression pairs, an array of
      coefficients in the design's eigenbasis (``DesignSample.cross_moment``),
      with ``cov`` the true operator (lambda_k, phi_k): theta-hat_k =
      <X^T y / m, phi_k> / lambda_k, which is ``xty[:cutoff] /
      cov.eigenvalues[:cutoff]`` for ``designs.true_covariance``.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")

    if isinstance(obs, SeqObservation):
        if cutoff > obs.count:
            raise ValueError(f"cutoff {cutoff} exceeds the {obs.count} observed frequencies")
        lam = obs.lambdas[:cutoff]
        return obs.y[:cutoff] / np.sqrt(lam)

    if not isinstance(obs, np.ndarray):
        raise TypeError(f"unsupported observation type {type(obs).__name__}")
    if cov is None:
        raise ValueError("cross-moment observations need the true operator")
    if cutoff > cov.eigenvalues.size:
        raise ValueError("cutoff exceeds the available true spectrum")
    lam = cov.eigenvalues[:cutoff]
    if np.any(lam <= 0.0):
        raise ValueError("true eigenvalues must be positive up to the cutoff")
    return cov.eigen_coefficients(obs, count=cutoff) / lam


def pinsker_weights(gamma: float, theta_class: ThetaClass, count: int | None = None) -> np.ndarray:
    """w_k = (1 - gamma b_k)_+ for k = 1..count.

    The default count is the active support: the number of k with
    b_k < 1/gamma, at least one. 1 - gamma b_k cancels once gamma b_1 nears
    1, so the oracle level's weights come from its piece instead
    (``pinsker_oracle_weights``); the data-driven level's guard rails keep
    1 - gamma b_1 >= 0.19 at every n >= 8 (beta > 3/2).
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if count is None:
        count = max(_active_count(gamma, theta_class.beta, None), 1)
    k = np.arange(1, count + 1, dtype=float)
    return np.clip(1.0 - gamma * theta_class.beta_k(k), 0.0, None)


LambdaLike = Callable[[np.ndarray], np.ndarray] | Sequence[float] | np.ndarray


def _as_lambda_fn(lambdas: LambdaLike):
    """Normalize eigenvalue input: callable k -> lambda_k, or a finite vector.

    A vector means the problem is truncated at its length; a callable means
    the full sequence is available on demand.
    """
    if callable(lambdas):
        return lambdas, None
    arr = np.asarray(lambdas, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("lambdas must be a 1-d sequence or a callable")
    if np.any(arr <= 0.0):
        raise ValueError("eigenvalues must be positive")

    def fn(ks: np.ndarray) -> np.ndarray:
        return arr[np.minimum(ks.astype(int), arr.size) - 1]

    return fn, arr.size


def power_lambda_profile(alpha: float) -> Callable[[np.ndarray], np.ndarray]:
    """The polynomially decaying spectrum k^(-alpha) as a callable profile."""
    return lambda ks: np.asarray(ks, dtype=float) ** (-alpha)


def _active_count(x: float, beta: float, k_cap: int | None) -> int:
    """Largest k with (1 + k^(2 beta))^(1/2) < 1/x; 0 when none."""
    if x <= 0.0:
        raise ValueError("x must be positive")
    inv2 = 1.0 / (x * x) - 1.0
    if inv2 <= 1.0:
        return 0
    k = int(math.floor(inv2 ** (1.0 / (2.0 * beta))))
    while (1.0 + (k + 1) ** (2.0 * beta)) < 1.0 / (x * x):
        k += 1
    while k >= 1 and (1.0 + k ** (2.0 * beta)) >= 1.0 / (x * x):
        k -= 1
    if k_cap is not None:
        k = min(k, k_cap)
    return k


def _oracle_piece(lambdas: LambdaLike, theta_class: ThetaClass, sigma: float, n: int):
    """(b, lam, K, s, k_cap) of the linear piece that holds the oracle level.

    Phi_1(x) = sum lambda_k^-1 b_k (1 - x b_k)_+ is linear between breakpoints
    1/b_k; Phi_2(x) = s x with s = c_theta n / sigma^2. With S1(K), S2(K) the
    sums of b_k/lambda_k and b_k^2/lambda_k over k <= K, Phi_1 - Phi_2 at
    1/b_{K+1} is S1(K) - (S2(K) + s)/b_{K+1}; the root lies on the piece of the
    first K where that is >= 0 (else the cap ``k_cap`` of a finite profile)
    and equals S1(K)/(S2(K) + s). A callable profile is searched in doubling
    blocks; ``b`` and ``lam`` hold the last block searched, K or more terms.
    """
    if sigma <= 0 or n < 1:
        raise ValueError("need sigma > 0 and n >= 1")
    lam_fn, k_cap = _as_lambda_fn(lambdas)
    slope2 = theta_class.c_theta * n / sigma**2

    size = k_cap or 64
    while True:
        ks = np.arange(1, size + 1, dtype=float)
        b = theta_class.beta_k(ks)
        lam = lam_fn(ks)
        at_break = np.cumsum(b / lam)[:-1] - (np.cumsum(b * b / lam)[:-1] + slope2) / b[1:]
        hits = np.flatnonzero(at_break >= 0.0)
        if hits.size or k_cap is not None:
            kk = int(hits[0]) + 1 if hits.size else size
            return b, lam, kk, slope2, k_cap
        if size >= 1 << 20:
            raise ArithmeticError(f"Phi_1 - Phi_2 stays negative on the first {size} breakpoints")
        size *= 2


def pinsker_gamma_oracle(
    lambdas: LambdaLike,
    theta_class: ThetaClass,
    sigma: float,
    n: int,
) -> float:
    """Unique zero of Phi_1(x) - Phi_2(x), in closed form on its linear piece
    S1(K)/(S2(K) + s) (see ``_oracle_piece``)."""
    b, lam, kk, slope2, k_cap = _oracle_piece(lambdas, theta_class, sigma, n)
    bk, lk = b[:kk], lam[:kk]
    gamma = float(np.sum(bk / lk)) / (float(np.sum(bk * bk / lk)) + slope2)

    # Residual on gamma's own active set (kk or kk + 1 terms, all in b), relative
    # to sum b/lambda there; the first term vanishes at its breakpoint, so it stays.
    kg = max(_active_count(gamma, theta_class.beta, k_cap), 1)
    bg, lg = b[:kg], lam[:kg]
    resid = float(np.sum(bg * (1.0 - gamma * bg) / lg)) - slope2 * gamma
    rel = abs(resid) / float(np.sum(bg / lg))
    if not rel <= 1e-12:
        raise ArithmeticError(
            f"Pinsker level left a relative residual {rel:.3e} at n={n}, sigma={sigma}, "
            f"c_theta={theta_class.c_theta}, beta={theta_class.beta}, active count {kk}"
        )
    return gamma


def _oracle_margins(lambdas: LambdaLike, theta_class: ThetaClass, sigma: float, n: int):
    """(w, lam): the weights 1 - gamma_n b_k at the oracle level and lambda_k,
    for k <= K on the level's piece (``_oracle_piece``).

    There gamma_n = S1/(S2 + s), so each margin is
    1 - gamma_n b_k = (s + sum_{j<=K} b_j (b_j - b_k)/lambda_j) / (S2 + s).
    The sum is taken as D - (b_k - b_1) S1 with D = sum_j b_j (b_j - b_1)/lambda_j,
    a sum of terms >= 0, so the first margin is (s + D)/(S2 + s) without
    cancellation: 1 - gamma_n b_k itself loses every digit once s falls below
    the rounding of S2 (w_1 read 0.0 at s = 2e-16, against s/(S2 + s)).
    """
    b, lam, kk, s, _ = _oracle_piece(lambdas, theta_class, sigma, n)
    bk, lk = b[:kk], lam[:kk]
    weight = bk / lk
    head = s + float(np.sum(weight * (bk - bk[0])))
    margins = np.clip(head - (bk - bk[0]) * float(np.sum(weight)), 0.0, None)
    total = float(np.sum(weight * bk)) + s
    return margins / total, lk


def pinsker_oracle_weights(
    lambdas: LambdaLike,
    theta_class: ThetaClass,
    sigma: float,
    n: int,
) -> np.ndarray:
    """w_k = (1 - gamma_n b_k)_+ at the oracle level gamma_n, over its active
    support k <= K, from the level's piece without cancellation (see
    ``_oracle_margins``). Every oracle-level fit reads these;
    ``pinsker_weights`` serves a level known only as a number, the
    data-driven one."""
    return _oracle_margins(lambdas, theta_class, sigma, n)[0]


def sharp_risk_constant(
    lambdas: LambdaLike,
    theta_class: ThetaClass,
    sigma: float,
    n: int,
) -> float:
    """a_n = (sigma^2/n) sum lambda_k^-1 (1 - gamma b_k)_+ at the oracle gamma,
    from the weights of ``pinsker_oracle_weights``."""
    w, lk = _oracle_margins(lambdas, theta_class, sigma, n)
    return float(sigma**2 / n * np.sum(w / lk))


def pinsker_sequence_estimator(obs: SeqObservation, weights: np.ndarray) -> np.ndarray:
    """Shrunk coefficients w_k y_k / sqrt(lambda_k) in the sequence model."""
    w = np.asarray(weights, dtype=float)
    k = min(w.size, obs.count)
    out = np.zeros(obs.count)
    out[:k] = w[:k] * obs.y[:k] / np.sqrt(obs.lambdas[:k])
    return out


@dataclass(frozen=True)
class PinskerFit:
    """Plug-in shrinkage fit: the estimate as coefficients in its design's
    basis, plus its empirical-basis pieces. ``estimate`` renders it on the
    grid on first read."""

    theta_hat: np.ndarray           # the estimate's J coefficients in the design basis
    coefficients: np.ndarray        # shrunk coefficients in the empirical eigenbasis
    weights: np.ndarray
    floored: np.ndarray             # where the eigenvalue floor n^-rho was active
    support_cap: int
    cap_binding: bool
    basis: str
    grid_size: int

    @cached_property
    def estimate(self) -> GridFunction:
        return basis_function(self.theta_hat, self.basis, self.grid_size)

    def squared_error(self, theta) -> float:
        """||theta-hat - theta||^2 by Parseval, theta a coefficient vector in
        the design basis; coordinates beyond either length count as zero."""
        theta = np.asarray(theta, dtype=float)
        width = max(theta.size, self.theta_hat.size)
        diff = pad_coefficients(self.theta_hat, width) - pad_coefficients(theta, width)
        return float(diff @ diff)


def flr_pinsker_fit(
    cov: CovOperator,
    xty: np.ndarray,
    weights: np.ndarray,
    rho: float,
    *,
    alpha: float,
) -> PinskerFit:
    """Weighted spectral estimator in the empirical white-noise model.

    By the equivalence the estimator sees regression data only through the
    empirical covariance Gamma-hat = ``cov`` of n = ``cov.n_samples`` designs
    and the cross moment ``xty`` = X^T y / n = (1/n) sum_l y_l c_l, given as
    J coefficients in ``cov``'s basis (``DesignSample.cross_moment``). With
    (lam-hat_j, phi-hat_j) the eigenpairs of Gamma-hat and
    lam_j,rho = max(lam-hat_j, n^-rho),

        theta-hat = sum_j w_j <X^T y / n, phi-hat_j> phi-hat_j / lam_j,rho.

    For responses y = C theta + sigma eps on designs with coefficients C,
    X^T y / n = Gamma-hat theta + sigma C^T eps / n in exact arithmetic, so a
    caller holding theta and the noise moment C^T eps / n needs no pass over
    the designs. Weights must be non-negative. The support cap
    k <= n^(rho/alpha)/log n is reported, not applied: ``support_cap`` is the
    raw cap raised to the weight support, and ``cap_binding`` flags when the
    raw cap falls below that support, since at moderate n it would zero out
    every weight.
    """
    validate_rho(rho, alpha)
    n = cov.n_samples
    if n is None:
        raise ValueError("the fit needs an empirical operator, which knows its sample size")
    u = cov.coeff_vectors
    xty = np.asarray(xty, dtype=float)
    if xty.shape != (u.shape[0],):
        raise ValueError(f"expected {u.shape[0]} cross-moment coefficients, got {xty.shape}")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("weights must be non-negative")

    support = int(np.max(np.nonzero(w > 0.0)[0]) + 1) if np.any(w > 0.0) else 0
    raw_cap = int(math.floor(n ** (rho / alpha) / math.log(n))) if n > 1 else 0

    k = min(w.size, cov.rank)
    lam = cov.eigenvalues[:k]
    lam_floor = np.maximum(lam, float(n) ** (-rho))
    coeffs = w[:k] * (u[:, :k].T @ xty) / lam_floor
    return PinskerFit(
        theta_hat=u[:, :k] @ coeffs,
        coefficients=coeffs,
        weights=w[:k],
        floored=lam < float(n) ** (-rho),
        support_cap=max(raw_cap, support),
        cap_binding=raw_cap < support,
        basis=cov.basis,
        grid_size=cov.grid_size,
    )


def pinsker_conditional_risk(cov: CovOperator, theta, weights, rho: float,
                             sigma: float) -> tuple[float, float]:
    """(bias, variance) of ``flr_pinsker_fit(cov, X^T y / n, weights, rho)``
    given the n designs of the empirical operator ``cov``, for responses
    y = C theta + sigma eps: the fit's expected squared error is their sum.

    With f_j = <theta, phi-hat_j> over the r retained eigenpairs,
    lam_j,rho = max(lam-hat_j, n^-rho) and w_j the weights (zero past their
    length),

        bias = sum_j (w_j lam-hat_j / lam_j,rho - 1)^2 f_j^2 + ||theta||^2 - ||f||^2,
        variance = sigma^2 / n sum_j w_j^2 lam-hat_j / lam_j,rho^2.

    ||theta||^2 - ||f||^2 is the part of theta outside the empirical range,
    which the fit never sees: the coordinates past J, and, when r < J, the
    J - r directions the designs miss. At r = J only the former is summed.
    """
    n = cov.n_samples
    j, r = cov.coeff_vectors.shape[0], cov.rank
    theta = np.asarray(theta, dtype=float)
    lam_hat = cov.eigenvalues[:r]
    lam_floor = np.maximum(lam_hat, float(n) ** (-rho))
    w = np.asarray(weights, dtype=float)[:r]
    w_full = np.zeros(r)
    w_full[: w.size] = w
    f = cov.eigen_coefficients(theta, count=r)
    outside = float(np.sum(theta[j:] ** 2))
    if r < j:
        inside = pad_coefficients(theta, j)
        outside += float(inside @ inside - f @ f)
    bias = float(np.sum((w_full * lam_hat / lam_floor - 1.0) ** 2 * f**2)) + outside
    variance = float(sigma**2 / n * np.sum(w_full**2 * lam_hat / lam_floor**2))
    return bias, variance


def flr_pinsker_estimator(cov: CovOperator, xty, weights, rho: float, *,
                          alpha: float) -> GridFunction:
    """Convenience wrapper returning only the fitted grid function."""
    return flr_pinsker_fit(cov, xty, weights, rho, alpha=alpha).estimate


@dataclass(frozen=True)
class GammaSelection:
    """Data-driven shrinkage level with its truncation bracket."""

    gamma_hat: float
    gamma_tilde: float
    bound_low_exponent: float      # gamma in med{n^-beta/(3 beta+1), ., n^-beta/(2 beta+1)}
    bound_high_exponent: float
    split_m: int
    eigen_floor: float


def data_driven_split(n: int) -> int:
    """m = ceil(n (1 - 1/log n)): the data-driven fit keeps the first m of n
    pairs, and its level is selected on the training rows m..n."""
    if n < DATA_DRIVEN_MIN_N:
        raise ValueError(f"need n >= {DATA_DRIVEN_MIN_N} so both split halves are nonempty")
    m = math.ceil(n * (1.0 - 1.0 / math.log(n)))
    return min(max(m, 1), n - 1)


def data_driven_gamma(
    train_spectrum: np.ndarray,
    n: int,
    theta_class: ThetaClass,
    sigma: float,
    rho: float,
    *,
    alpha: float,
) -> GammaSelection:
    """Split-sample selector of the shrinkage level for a fit on n pairs.

    The estimation half keeps the first m = ``data_driven_split(n)`` pairs;
    ``train_spectrum`` holds the empirical eigenvalues of the training
    designs m..n (``covariance.empirical_eigenvalues`` of them), floored at
    n^-rho, whose balance equation ``pinsker_gamma_oracle`` solves for
    gamma-tilde in the same closed form as the oracle level. The final
    selector is the median of gamma-tilde and the two deterministic guard
    rails. It reads only the training spectrum, never the responses, so one
    selection serves every response vector drawn on the same designs.
    """
    validate_rho(rho, alpha)
    m = data_driven_split(n)
    lam_hat = np.asarray(train_spectrum, dtype=float)
    floor = float(n) ** (-rho)

    def floored(ks: np.ndarray) -> np.ndarray:
        ks = ks.astype(int)
        out = np.full(ks.shape, floor)
        inside = ks <= lam_hat.size
        out[inside] = np.maximum(lam_hat[ks[inside] - 1], floor)
        return out

    gamma_tilde = pinsker_gamma_oracle(floored, theta_class, sigma, n)
    b = theta_class.beta
    rail_a = float(n) ** (-b / (3.0 * b + 1.0))
    rail_b = float(n) ** (-b / (2.0 * b + 1.0))
    gamma_hat = float(np.median([rail_a, gamma_tilde, rail_b]))
    return GammaSelection(
        gamma_hat=gamma_hat,
        gamma_tilde=gamma_tilde,
        bound_low_exponent=-b / (3.0 * b + 1.0),
        bound_high_exponent=-b / (2.0 * b + 1.0),
        split_m=m,
        eigen_floor=floor,
    )


def sample_theta(
    theta_class: ThetaClass,
    mode: str,
    lambdas: LambdaLike,
    sigma: float,
    n: int,
    seed=0,
    *,
    count: int = DEFAULT_COEFF_BUDGET,
    vertex_index: int | None = None,
    gamma: float | None = None,
) -> np.ndarray:
    """Test functions from the ellipsoid, as coefficient vectors of length ``count``.

    boundary: theta_k proportional to k^(-beta-1/2) / log(k+1), scaled onto the
    boundary. random: a random direction drawn inside the ellipsoid. vertex: all
    mass on one coordinate, on the boundary. least-favorable: the Pinsker prior
    variance profile at the oracle gamma, which saturates the constraint; pass
    ``gamma`` when the caller already holds that level, otherwise it is solved.
    """
    ks = np.arange(1, count + 1, dtype=float)
    b2 = 1.0 + ks ** (2.0 * theta_class.beta)
    if mode == "boundary":
        raw = ks ** (-theta_class.beta - 0.5) / np.log(ks + 1.0)
        scale = math.sqrt(theta_class.c_theta / float(np.sum(b2 * raw * raw)))
        return scale * raw
    if mode == "random":
        rng = as_generator(seed)
        direction = rng.standard_normal(count) / np.sqrt(b2)
        radius = math.sqrt(rng.uniform(0.0, 1.0))
        scale = radius * math.sqrt(theta_class.c_theta / float(np.sum(b2 * direction**2)))
        return scale * direction
    if mode == "vertex":
        k = 1 if vertex_index is None else int(vertex_index)
        if not 1 <= k <= count:
            raise ValueError(f"vertex index must lie in 1..{count}")
        theta = np.zeros(count)
        theta[k - 1] = math.sqrt(theta_class.c_theta / b2[k - 1])
        return theta
    if mode == "least-favorable":
        if gamma is None:
            gamma = pinsker_gamma_oracle(lambdas, theta_class, sigma, n)
        lam_fn, k_cap = _as_lambda_fn(lambdas)
        lam = lam_fn(ks) if k_cap is None else np.concatenate(
            [lam_fn(ks[: min(count, k_cap)]), np.full(max(count - k_cap, 0), np.inf)]
        )
        profile = (sigma**2 / (n * lam)) * np.clip(1.0 / (gamma * np.sqrt(b2)) - 1.0, 0.0, None)
        return np.sqrt(profile)
    raise ValueError(f"unknown theta mode {mode!r}")
