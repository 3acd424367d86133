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
from .function_space import GridFunction, trapezoid_weights
from .streams import as_generator

ORTHOGONALITY_TOL = 1e-8   # largest off-diagonal of Q^T Q / (n lambda_1) and of A^T A - I


@dataclass(frozen=True)
class GramTransform:
    """Change of coordinates built from a full-rank design sample.

    q has entries <X_j, phi_k>, dvec holds sqrt(n lambda_k), and a = q / dvec
    is orthogonal with determinant +1 under the package sign convention.
    """

    q: np.ndarray
    dvec: np.ndarray
    a: np.ndarray

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
        return cls(z=drift + sigma * as_generator(seed).standard_normal(drift.size), sigma=sigma)


def build_gram_transform(sample, cov: CovOperator) -> GramTransform:
    """Assemble (Q, D, A) from a sample and its empirical covariance operator.

    Requires the operator to be the sample's own empirical covariance at full
    numerical rank n; a rank-deficient design aborts rather than pseudo-invert.
    Q comes from the coefficients (C U) when the sample has them, so
    basis-expansion designs never build the n x D grid here.
    """
    if cov.kind != "empirical" or cov.n_samples != sample.n:
        raise ValueError("cov must be the empirical covariance of this sample")
    n = sample.n
    if cov.rank < n:
        raise DegenerateDesignError(
            f"design sample is numerically rank deficient: rank {cov.rank} < n {n}"
        )
    q = cov.design_products(sample, n)
    dvec = np.sqrt(n * cov.eigenvalues[:n])
    a = q / dvec[None, :]

    top = n * cov.eigenvalues[0]
    qtq = q.T @ q
    off = qtq - np.diag(np.diag(qtq))
    if np.max(np.abs(off)) > ORTHOGONALITY_TOL * top:
        raise DegenerateDesignError("Q^T Q is not numerically diagonal")
    ata = a.T @ a
    if np.max(np.abs(ata - np.eye(n))) > ORTHOGONALITY_TOL:
        raise DegenerateDesignError("whitening matrix is not numerically orthogonal")
    return GramTransform(q=q, dvec=dvec, a=a)


def flr_to_whitenoise(y: np.ndarray, transform: GramTransform, sigma: float | None = None) -> WnCoefficients:
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
    theta is a GridFunction or a vector of Fourier coefficients."""
    rng = as_generator(seed)
    return sample.inner_products(theta) + sigma * rng.standard_normal(sample.n)


def empirical_wn_drift(theta: GridFunction, sample, cov: CovOperator) -> np.ndarray:
    """Mean of the coefficient law, sqrt(n lambda_k) <phi_k, theta>; zero for
    coordinates beyond the operator rank. It depends on the design sample and
    theta only, so repeated draws at a fixed pair compute it once."""
    if cov.kind != "empirical" or cov.n_samples != sample.n:
        raise ValueError("cov must be the empirical covariance of this sample")
    n = sample.n
    r = cov.rank
    drift = np.zeros(n)
    coeffs = cov.eigen_coefficients(theta, count=r)
    drift[:r] = np.sqrt(n * cov.eigenvalues[:r]) * coeffs
    return drift


def simulate_empirical_wn(
    theta: GridFunction,
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
    theta: GridFunction,
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


def render_coefficient_path(wn: WnCoefficients, cov: CovOperator, *, seed=None) -> GridFunction:
    """Visualization-only path t -> sum_k z_k int_0^t phi_k.

    With a seed, a residual Brownian component orthogonal to the retained
    eigenfunctions is added so the path has the right roughness; estimators
    never consume this rendering.
    """
    r = min(wn.n, cov.rank)
    d = cov.grid_size
    w = trapezoid_weights(d)
    phi = cov.eigenfunctions.functions[:r]
    primitives = np.cumsum(phi * w, axis=1) - 0.5 * phi * w  # midpoint-corrected running integral
    primitives[:, 0] = 0.0
    path = wn.z[:r] @ primitives
    if seed is not None and wn.sigma:
        rng = as_generator(seed)
        dt = 1.0 / (d - 1)
        bm = np.concatenate([[0.0], np.cumsum(rng.standard_normal(d - 1)) * math.sqrt(dt)])
        bm_coeff = (phi * w) @ np.gradient(bm, dt)
        residual = bm - bm_coeff @ primitives
        path = path + wn.sigma * residual
    return GridFunction(path)
