"""Random design generators with known ground-truth covariance operators.

Two families are provided:

* basis-expansion designs X = sum_j j^(-alpha/2) G_j phi_j over a Fourier
  basis, with i.i.d. G_j uniform on [-sqrt3, sqrt3] (centered, unit variance,
  compact support), so the covariance eigenpairs are exactly (j^-alpha, phi_j);
* integrated Gaussian designs X(t) = W(t), Brownian motion discretized by
  cumulative sums of independent increments, whose covariance kernel is
  min(s, t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError, SpecValidationError
from .function_space import (
    DEFAULT_GRID_SIZE,
    Basis,
    GridFunction,
    fourier_function,
    fourier_matrix,
    grid_nodes,
    pad_coefficients,
    pairwise_inner,
    trapezoid_weights,
)
from .streams import as_generator

DEFAULT_MAX_EXPANSION = 128

KIND_BASIS = "basis-expansion"
KIND_GAUSSIAN = "integrated-gaussian"


def _uniform_coefficients(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Fresh writeable draws uniform on [-sqrt3, sqrt3]: mean 0, variance 1."""
    r = math.sqrt(3.0)
    # Same bits as rng.uniform(-r, r, shape), without its temporaries.
    u = rng.random(shape)
    u *= 2.0 * r
    u += -r
    return u


@dataclass(frozen=True)
class DesignSpec:
    """Configuration of a design distribution satisfying the tail and decay conditions."""

    kind: str = KIND_BASIS
    alpha: float = 2.0
    j_truncation: int | None = None          # basis-expansion; None = min(2n, 128)
    grid_size: int = DEFAULT_GRID_SIZE

    def __post_init__(self):
        if self.kind not in (KIND_BASIS, KIND_GAUSSIAN):
            raise SpecValidationError(f"unknown design kind {self.kind!r}", "kind")
        if self.alpha < 2.0:
            raise SpecValidationError(f"eigenvalue decay exponent must be >= 2, got {self.alpha}",
                                      "alpha")
        if self.kind == KIND_BASIS:
            if self.j_truncation is not None and self.j_truncation < 1:
                raise SpecValidationError("j_truncation must be >= 1", "j_truncation")
        elif abs(self.alpha - 2.0) > 1e-12:
            raise SpecValidationError("integrated-gaussian designs have decay exponent 2",
                                      "alpha")

    def resolved_truncation(self, n: int) -> int:
        """Expansion length: beyond rank n the extra modes are invisible to the
        empirical covariance, so min(2n, 128) is used unless set explicitly."""
        if self.j_truncation is not None:
            return self.j_truncation
        return min(2 * n, DEFAULT_MAX_EXPANSION)


class DesignSample:
    """n i.i.d. design functions on one shared grid.

    Basis-expansion samples live in their generating coefficients C (n x J)
    in the Fourier basis, which every computation uses; ``values`` (n x D,
    built on first access) is for rendering and for grid-only designs.
    """

    def __init__(
        self,
        *,
        n: int,
        grid_size: int,
        spec: DesignSpec,
        seed: int | None,
        values: np.ndarray | None = None,
        coeffs: np.ndarray | None = None,
    ):
        if values is None and coeffs is None:
            raise ValueError("need grid values or a coefficient representation")
        self.n = int(n)
        self.grid_size = int(grid_size)
        self.spec = spec
        self.seed = seed
        self._values = values
        self._coeffs = coeffs

    @property
    def values(self) -> np.ndarray:
        """(n, D) matrix, one row per design function."""
        if self._values is None:
            self._values = self._coeffs @ self.basis_matrix
        return self._values

    @property
    def coeffs(self) -> np.ndarray | None:
        return self._coeffs

    @property
    def basis_matrix(self) -> np.ndarray | None:
        """(J, D) Fourier matrix the coefficients refer to, if any."""
        if self._coeffs is None:
            return None
        return fourier_matrix(self._coeffs.shape[1], self.grid_size)

    def function(self, i: int) -> GridFunction:
        return GridFunction(self.values[i])

    def inner_products(self, theta) -> np.ndarray:
        """<X_j, theta> for every design; theta is a GridFunction or a vector
        of Fourier coefficients. Samples with coefficients never build the
        grid: a GridFunction is projected once on the expansion basis, equal to
        the grid result up to rounding since trapezoid quadrature is linear."""
        c = self._coeffs
        if not isinstance(theta, GridFunction):
            theta = np.asarray(theta, dtype=float)
            if c is not None:
                return c @ pad_coefficients(theta, c.shape[1])
            theta = fourier_function(theta, self.grid_size)
        w = trapezoid_weights(self.grid_size)
        if c is None:
            return self.values @ (w * theta.values)
        return c @ (self.basis_matrix @ (w * theta.values))

    def subset(self, rows) -> "DesignSample":
        """Designs at ``rows``: an index array, or a slice (views, no copy)."""
        coeffs = None if self._coeffs is None else self._coeffs[rows]
        values = None if self._values is None else self._values[rows]
        return DesignSample(
            n=(coeffs if coeffs is not None else values).shape[0],
            grid_size=self.grid_size,
            spec=self.spec,
            seed=None,
            values=values,
            coeffs=coeffs,
        )


def sample_basis_design(spec: DesignSpec, n: int, seed) -> DesignSample:
    """Draw n basis-expansion designs; deterministic given the seed."""
    if spec.kind != KIND_BASIS:
        raise SpecValidationError("spec is not a basis-expansion design")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = as_generator(seed)
    j = spec.resolved_truncation(n)
    if spec.grid_size < 2 * j:
        raise ResolutionError(
            f"grid of {spec.grid_size} nodes cannot resolve {j} Fourier functions")
    coeffs = _uniform_coefficients(rng, (n, j))
    coeffs *= np.arange(1, j + 1, dtype=float) ** (-spec.alpha / 2.0)
    return DesignSample(
        n=n,
        grid_size=spec.grid_size,
        spec=spec,
        seed=seed if isinstance(seed, (int, np.integer)) else None,
        coeffs=coeffs,
    )


def sample_gaussian_design(spec: DesignSpec, n: int, seed) -> DesignSample:
    """Draw n Brownian designs as cumulative sums of N(0, 1/(D-1)) increments."""
    if spec.kind != KIND_GAUSSIAN:
        raise SpecValidationError("spec is not an integrated-gaussian design")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = as_generator(seed)
    d = spec.grid_size
    dt = 1.0 / (d - 1)
    dw = rng.standard_normal((n, d - 1)) * math.sqrt(dt)
    values = np.zeros((n, d))
    np.cumsum(dw, axis=1, out=values[:, 1:])
    return DesignSample(
        n=n,
        grid_size=d,
        spec=spec,
        seed=seed if isinstance(seed, (int, np.integer)) else None,
        values=values,
    )


def sample_design(spec: DesignSpec, n: int, seed) -> DesignSample:
    if spec.kind == KIND_BASIS:
        return sample_basis_design(spec, n, seed)
    return sample_gaussian_design(spec, n, seed)


def true_covariance(spec: DesignSpec, count: int):
    """Ground-truth covariance operator with its leading ``count`` eigenpairs."""
    from .covariance import CovOperator  # local import to avoid a cycle

    if count < 1:
        raise ValueError("count must be >= 1")
    d = spec.grid_size
    if spec.kind == KIND_BASIS:
        j = spec.j_truncation if spec.j_truncation is not None else DEFAULT_MAX_EXPANSION
        if count > j:
            raise SpecValidationError(
                f"requested {count} eigenpairs but the expansion has {j} terms"
            )
        lam = np.arange(1, count + 1, dtype=float) ** (-spec.alpha)
        return CovOperator(
            eigenvalues=lam,
            coeff_vectors=np.eye(j)[:, :count],
            grid_size=d,
            kind="analytic-basis",
        )
    # Brownian motion: kernel min(s,t), analytic eigenpairs.
    t = grid_nodes(d)
    ks = np.arange(1, count + 1, dtype=float)
    lam = 1.0 / (math.pi**2 * (ks - 0.5) ** 2)
    funcs = math.sqrt(2.0) * np.sin(np.outer((ks - 0.5) * math.pi, t))
    return CovOperator(
        eigenvalues=lam,
        eigenfunctions=Basis(funcs, kind="eigen"),
        kernel=np.minimum.outer(t, t),
        kind="analytic-brownian",
    )


@dataclass(frozen=True)
class ConditionXReport:
    """Diagnostics for the tail, centering and full-rank requirements."""

    n: int
    tail_x: np.ndarray
    tail_frequency: np.ndarray
    mean_norm: float
    mean_norm_scale: float     # estimated E||X|| / sqrt(n)
    gram_rank: int
    full_rank: bool
    truncation_limited: bool
    notes: str


def verify_condition_x(spec: DesignSpec, sample: DesignSample) -> ConditionXReport:
    """Report empirical tail frequencies, centering, and the Gram-matrix rank.

    Purely diagnostic: a finite truncation J < n necessarily caps the rank at
    J, which is flagged rather than raised. With coefficients C (n x J)
    nothing touches the grid: the basis is orthonormal under the quadrature,
    so the Gram matrix is C C^T with eigenvalues the squared singular values.
    """
    if sample.n < 100:
        raise ValueError("diagnostics need n >= 100")
    c = sample.coeffs
    if c is not None:
        sq_norms = np.einsum("ij,ij->i", c, c)
        mean_sq = float(np.sum(c.mean(axis=0) ** 2))
        eig = np.linalg.svd(c, compute_uv=False) ** 2
    else:
        x = sample.values
        w = trapezoid_weights(sample.grid_size)
        sq_norms = np.einsum("ij,j,ij->i", x, w, x)
        mean_vals = x.mean(axis=0)
        mean_sq = float(np.dot(w * mean_vals, mean_vals))
        eig = np.linalg.eigvalsh(pairwise_inner(x, x))
    norms = np.sqrt(np.maximum(sq_norms, 0.0))
    xs = np.linspace(0.0, float(np.max(norms)) * 1.05 + 1e-12, 20)
    freq = np.array([np.mean(norms >= x) for x in xs])

    mean_norm = float(np.sqrt(max(mean_sq, 0.0)))
    scale = float(np.mean(norms)) / math.sqrt(sample.n)
    rank = int(np.sum(eig > 1e-10 * max(eig.max(), 0.0)))

    truncated = False
    notes = []
    if spec.kind == KIND_BASIS:
        j = c.shape[1] if c is not None else spec.resolved_truncation(sample.n)
        if j < sample.n:
            truncated = True
            notes.append(
                f"expansion truncated at J={j} < n={sample.n}: rank is capped at J by construction"
            )
    full = rank == sample.n
    if not full and not truncated:
        notes.append("sample Gram matrix is numerically rank deficient")
    return ConditionXReport(
        n=sample.n,
        tail_x=xs,
        tail_frequency=freq,
        mean_norm=mean_norm,
        mean_norm_scale=scale,
        gram_rank=rank,
        full_rank=full,
        truncation_limited=truncated,
        notes="; ".join(notes),
    )
