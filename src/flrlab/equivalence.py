"""Exact finite-sample link between regression responses and white-noise coefficients.

Conditionally on full-rank designs, the responses Y and the coefficient vector
Z = A^T Y carry the same information: Z_k is Gaussian with mean
sqrt(n lambda_k) <phi_k, theta> (phi_k, lambda_k the empirical covariance
eigenpairs) and variance sigma^2, independently across k. Both directions of
the transform and an independent direct simulator of the Z law are provided,
so the distributional identity can be checked by two-sample tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import CovOperator
from .errors import DegenerateDesignError, DimensionError
from .function_space import FOURIER
from .streams import as_generator

ORTHOGONALITY_TOL = 1e-8   # max |Q^T Q - diag(n lambda)| / (n lambda_1) and max |A^T A - I|


@dataclass(frozen=True)
class GramTransform:
    """Change of coordinates built from a full-rank design sample.

    q has entries <X_j, phi_k>, dvec holds sqrt(n lambda_k), and a, equal to
    q / dvec, is orthogonal with determinant +1 under the package sign
    convention; ``orthogonality_defect`` is its max |A^T A - I|.
    """

    q: np.ndarray
    dvec: np.ndarray
    a: np.ndarray
    orthogonality_defect: float

    @property
    def n(self) -> int:
        return self.q.shape[0]


@dataclass(frozen=True)
class WnCoefficients:
    """White-noise coefficient observations z_1..z_n with noise scale sigma."""

    z: np.ndarray
    sigma: float | None = None

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        if not np.all(np.isfinite(z)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "z", z)
        if self.sigma is not None and self.sigma < 0:
            raise ValueError("noise scale must be >= 0")

    @property
    def n(self) -> int:
        return self.z.size

    @classmethod
    def draw(cls, drift: np.ndarray, sigma: float, seed) -> WnCoefficients:
        """One draw of drift + independent N(0, sigma^2) noise per coordinate."""
        return cls(z=gaussian_draw(drift, sigma, seed), sigma=sigma)


def gaussian_draw(mean: np.ndarray, sigma: float, seed) -> np.ndarray:
    """mean + sigma * independent standard normal noise, one draw per coordinate:
    the one noise rule of responses and white-noise coefficients."""
    return mean + sigma * as_generator(seed).standard_normal(mean.size)


def build_gram_transform(sample, cov: CovOperator) -> GramTransform:
    """Assemble (Q, D, A) from a sample and its empirical covariance operator.

    Requires the operator to be the sample's own empirical covariance at full
    numerical rank n; a rank-deficient design aborts rather than pseudo-invert.
    An expansion of J < n terms is rank deficient by construction, and the
    error says so. A is the operator's ``whitening`` matrix, the eigenvectors
    of the n x n eigenproblem ``empirical_covariance`` solved, so no
    eigenvalue divides it. Q = C U comes from the coefficients, and no grid is
    built. Q^T Q = diag(n lambda) ties the operator to this sample: an
    operator of other designs leaves it off-diagonal, and one with mis-scaled
    eigenvalues misses its diagonal.
    """
    if cov.kind != "empirical" or cov.n_samples != sample.n:
        raise ValueError("cov must be the empirical covariance of this sample")
    n = sample.n
    j = sample.coeffs.shape[1]
    if j < n:
        terms, fix = (("Fourier", "set [design] j_truncation >= n or use n <= J")
                      if sample.basis == FOURIER else ("sine", "use n < [design] grid_size"))
        raise DegenerateDesignError(
            f"{sample.spec.kind} designs with J = {j} {terms} terms have rank at most "
            f"J < n = {n}; {fix}"
        )
    if cov.rank < n:
        raise DegenerateDesignError(
            f"design sample is numerically rank deficient: rank {cov.rank} < n {n}"
        )
    q = cov.design_products(sample, n)
    dvec = np.sqrt(n * cov.eigenvalues[:n])

    qtq = q.T @ q
    scale = n * cov.eigenvalues[0]
    off = float(np.max(np.abs(qtq - np.diag(np.diag(qtq))))) / scale
    if off > ORTHOGONALITY_TOL:
        raise DegenerateDesignError(
            f"Q^T Q is not numerically diagonal: largest off-diagonal entry over "
            f"n lambda_1 is {off:.3e} > ORTHOGONALITY_TOL = {ORTHOGONALITY_TOL:g}")
    misfit = float(np.max(np.abs(np.diag(qtq) - dvec**2))) / scale
    if misfit > ORTHOGONALITY_TOL:
        raise DegenerateDesignError(
            f"diag(Q^T Q) is not n lambda: largest gap over n lambda_1 is "
            f"{misfit:.3e} > ORTHOGONALITY_TOL = {ORTHOGONALITY_TOL:g}")
    a = cov.whitening
    if a is None:
        raise ValueError("cov carries no whitening matrix: build it with empirical_covariance")
    defect = float(np.max(np.abs(a.T @ a - np.eye(n))))
    if defect > ORTHOGONALITY_TOL:
        raise DegenerateDesignError(
            f"whitening matrix A is not numerically orthogonal: max |A^T A - I| is "
            f"{defect:.3e} > ORTHOGONALITY_TOL = {ORTHOGONALITY_TOL:g}")
    return GramTransform(q=q, dvec=dvec, a=a, orthogonality_defect=defect)


def flr_to_whitenoise(y: np.ndarray, transform: GramTransform,
                      sigma: float | None = None) -> WnCoefficients:
    """z = A^T y: regression responses to white-noise coefficients."""
    y = np.asarray(y, dtype=float)
    if y.shape != (transform.n,):
        raise DimensionError(f"expected {transform.n} responses, got {y.shape}")
    return WnCoefficients(z=transform.a.T @ y, sigma=sigma)


def whitenoise_to_flr(z, transform: GramTransform) -> np.ndarray:
    """y = A z: inverse of flr_to_whitenoise (exact, A orthogonal)."""
    zv = z.z if isinstance(z, WnCoefficients) else np.asarray(z, dtype=float)
    if zv.shape != (transform.n,):
        raise DimensionError(f"expected {transform.n} coefficients, got {zv.shape}")
    return transform.a @ zv


def simulate_flr_responses(sample, theta, sigma: float, seed) -> np.ndarray:
    """Y_j = <X_j, theta> + sigma eps_j with fresh standard normal errors;
    theta is a vector of coefficients in the sample's basis."""
    return gaussian_draw(sample.inner_products(theta), sigma, seed)


def empirical_wn_drift(theta: np.ndarray, sample, cov: CovOperator) -> np.ndarray:
    """Mean of the coefficient law, sqrt(n lambda_k) <phi_k, theta>; zero for
    coordinates beyond the operator rank. theta is a vector of coefficients
    in the operator's basis (see ``CovOperator.coefficients``). It depends on
    the design sample and theta only, so repeated draws at a fixed pair
    compute it once."""
    if cov.kind != "empirical" or cov.n_samples != sample.n:
        raise ValueError("cov must be the empirical covariance of this sample")
    n = sample.n
    r = cov.rank
    drift = np.zeros(n)
    coeffs = cov.eigen_coefficients(theta, count=r)
    drift[:r] = np.sqrt(n * cov.eigenvalues[:r]) * coeffs
    return drift


def simulate_empirical_wn(
    theta: np.ndarray,
    sample,
    cov: CovOperator,
    sigma: float,
    seed,
) -> WnCoefficients:
    """Direct draw of the coefficient law: the drift ``empirical_wn_drift``
    plus independent N(0, sigma^2) noise, so coordinates beyond the operator
    rank carry pure noise."""
    return WnCoefficients.draw(empirical_wn_drift(theta, sample, cov), sigma, seed)


def conditional_loglik(y: np.ndarray, sample, theta, sigma: float) -> float:
    """Gaussian log-density of the responses given the designs; theta as in
    simulate_flr_responses."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    y = np.asarray(y, dtype=float)
    if y.shape != (sample.n,):
        raise DimensionError(f"expected {sample.n} responses, got {y.shape}")
    resid = y - sample.inner_products(theta)
    n = sample.n
    return float(-0.5 * n * math.log(2.0 * math.pi) - n * math.log(sigma)
                 - float(resid @ resid) / (2.0 * sigma**2))


def reduced_loglik(
    y: np.ndarray,
    transform: GramTransform,
    cov: CovOperator,
    theta: np.ndarray,
    sigma: float,
) -> float:
    """Same density after the orthogonal reduction: mean D f with
    f_k = <phi_k, theta>. Equals conditional_loglik up to rounding."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    n = transform.n
    f = cov.eigen_coefficients(theta, count=n)
    resid = transform.a.T @ np.asarray(y, dtype=float) - transform.dvec * f
    return float(-0.5 * n * math.log(2.0 * math.pi) - n * math.log(sigma)
                 - float(resid @ resid) / (2.0 * sigma**2))

