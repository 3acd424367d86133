"""Sequence form of the limiting white-noise inverse problem.

Observations are y_k = sqrt(lambda_k) theta_k + eps xi_k with eps = sigma/sqrt(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .streams import as_generator


@dataclass(frozen=True)
class SeqObservation:
    """Coefficient observations with the operator eigenvalues that produced them."""

    y: np.ndarray
    lambdas: np.ndarray
    noise_level: float

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        lam = np.asarray(self.lambdas, dtype=float)
        if y.shape != lam.shape or y.ndim != 1:
            raise DimensionError("y and lambdas must be 1-d arrays of equal length")
        if lam.size and (np.any(lam <= 0.0) or np.any(np.diff(lam) > 1e-12 * lam[0])):
            raise ValueError("lambdas must be positive and non-increasing")
        if self.noise_level < 0:
            raise ValueError("noise level must be >= 0")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "lambdas", lam)

    @property
    def count(self) -> int:
        return self.y.size


def default_frequency_budget(n: int, alpha: float, beta: float) -> int:
    """Retained frequencies: far beyond any estimator cutoff at sample size n."""
    return max(int(math.ceil(4.0 * n ** (1.0 / (2.0 * beta + alpha + 1.0)))), 64)


def simulate_sequence(theta_coeffs, lambdas, n: int, sigma: float, seed) -> SeqObservation:
    """One draw of the sequence model at sample size n."""
    theta = np.asarray(theta_coeffs, dtype=float)
    lam = np.asarray(lambdas, dtype=float)
    if theta.shape != lam.shape:
        raise DimensionError("theta coefficients and lambdas must have equal length")
    if lam.size < 1:
        raise ValueError("need at least one frequency")
    if np.any(lam <= 0.0):
        raise ValueError("lambdas must be positive")
    eps = sigma / math.sqrt(n)
    y = np.sqrt(lam) * theta + eps * as_generator(seed).standard_normal(lam.size)
    return SeqObservation(y=y, lambdas=lam, noise_level=eps)
