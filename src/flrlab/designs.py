"""Random design generators with known ground-truth covariance operators.

Every design is drawn from its Karhunen-Loeve expansion
X = sum_{k <= J} lambda_k^(1/2) G_k b_k over its covariance eigenbasis b_k,
and a sample holds the n x J coefficients lambda_k^(1/2) G_k. The design kind
names the basis (``DesignSpec.basis``), and only there:

* basis-expansion designs use the Fourier basis, lambda_k = k^-alpha and
  i.i.d. G_k uniform on [-sqrt3, sqrt3] (centered, unit variance, compact
  support), with J = min(2n, 128) unless ``j_truncation`` is set;
* integrated-Gaussian (Brownian) designs use the sine basis
  psi_k = sqrt2 sin((k - 1/2) pi t), lambda_k = 1/(pi^2 (k - 1/2)^2) and
  G_k ~ N(0, 1), whose covariance kernel is min(s, t) as J grows, with
  J = min(2n, D - 1): the most sine functions the trapezoid rule keeps
  orthonormal on D nodes. The omitted variance is sum_{k > J} lambda_k,
  about 1/(pi^2 J) of the total 1/2.

Grid values exist only to render a sample (``DesignSample.values``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError, SpecValidationError
from .estimators import power_lambda_profile
from .function_space import (
    DEFAULT_GRID_SIZE,
    FOURIER,
    SINE,
    GridFunction,
    basis_matrix,
    pad_coefficients,
    trapezoid_weights,
)
from .streams import as_generator, uniform_rows

DEFAULT_MAX_EXPANSION = 128

KIND_BASIS = "basis-expansion"
KIND_GAUSSIAN = "integrated-gaussian"


def _uniform_coefficients(rng: np.random.Generator, shape: tuple,
                          rows: slice = slice(None)) -> np.ndarray:
    """Fresh writeable draws uniform on [-sqrt3, sqrt3] (mean 0, variance 1),
    of the rows ``rows`` of ``shape``."""
    r = math.sqrt(3.0)
    # Same bits as rng.uniform(-r, r, shape)[rows], without its temporaries.
    u = uniform_rows(rng, shape, rows)
    u *= 2.0 * r
    u += -r
    return u


@dataclass(frozen=True)
class DesignSpec:
    """Configuration of a design distribution satisfying the tail and decay conditions."""

    kind: str = KIND_BASIS
    alpha: float = 2.0
    j_truncation: int | None = None          # basis-expansion only; None = min(2n, 128)
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
        else:
            if abs(self.alpha - 2.0) > 1e-12:
                raise SpecValidationError("integrated-gaussian designs have decay exponent 2",
                                          "alpha")
            if self.j_truncation is not None:
                raise SpecValidationError(
                    "integrated-gaussian designs take J = min(2n, grid_size - 1) sine terms; "
                    "j_truncation applies to basis-expansion designs only", "j_truncation")

    @property
    def basis(self) -> str:
        """The covariance eigenbasis every coefficient of this design refers to."""
        return FOURIER if self.kind == KIND_BASIS else SINE

    def lambda_profile(self):
        """k -> lambda_k, the design's covariance spectrum as a callable
        profile: k^-alpha for basis-expansion designs and
        1/(pi^2 (k - 1/2)^2) for Brownian ones. Every true eigenvalue, Pinsker
        level, sharp constant and least-favorable theta of the design reads it."""
        if self.kind == KIND_GAUSSIAN:
            return _brownian_profile
        return power_lambda_profile(self.alpha)

    def resolved_truncation(self, n: int) -> int:
        """Expansion length: beyond rank n the extra modes are invisible to the
        empirical covariance, so basis-expansion designs use min(2n, 128)
        unless set explicitly, and Brownian designs min(2n, D - 1)."""
        if self.kind == KIND_GAUSSIAN:
            return min(2 * n, self.grid_size - 1)
        if self.j_truncation is not None:
            return self.j_truncation
        return min(2 * n, DEFAULT_MAX_EXPANSION)


class DesignSample:
    """n i.i.d. design functions, held as their coefficients C (n x J) in the
    design's eigenbasis ``spec.basis``, which every computation uses.
    ``values`` (n x D, built on first access) renders them on the grid.
    """

    def __init__(self, *, coeffs: np.ndarray, spec: DesignSpec, seed: int | None = None):
        self.n, self.grid_size = coeffs.shape[0], spec.grid_size
        self.spec = spec
        self.seed = seed
        self._coeffs = coeffs
        self._values = None

    @property
    def values(self) -> np.ndarray:
        """(n, D) matrix, one row per design function."""
        if self._values is None:
            self._values = self._coeffs @ self.basis_matrix
        return self._values

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def basis(self) -> str:
        return self.spec.basis

    @property
    def basis_matrix(self) -> np.ndarray:
        """(J, D) matrix of the basis the coefficients refer to."""
        return basis_matrix(self.basis, self._coeffs.shape[1], self.grid_size)

    def function(self, i: int) -> GridFunction:
        return GridFunction(self.values[i])

    def inner_products(self, theta) -> np.ndarray:
        """<X_j, theta> for every design; theta is a vector of coefficients in
        the sample's basis, or a GridFunction, which is projected once on that
        basis (equal to the grid result up to rounding, since trapezoid
        quadrature is linear). The grid is never built."""
        c = self._coeffs
        if isinstance(theta, GridFunction):
            return c @ (self.basis_matrix @ (trapezoid_weights(self.grid_size) * theta.values))
        return c @ pad_coefficients(np.asarray(theta, dtype=float), c.shape[1])

    def cross_moment(self, y) -> np.ndarray:
        """X^T y / n = (1/n) sum_l y_l c_l: the J coefficients, in the sample's
        basis, of the responses' cross moment with the designs."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n,):
            raise ValueError(f"expected {self.n} responses, got {y.shape}")
        return self._coeffs.T @ y / self.n

    def subset(self, rows) -> "DesignSample":
        """Designs at ``rows``: an index array, or a slice (views, no copy)."""
        return DesignSample(coeffs=self._coeffs[rows], spec=self.spec)


def sample_basis_design(spec: DesignSpec, n: int, seed, rows: slice = slice(None)) -> DesignSample:
    """Draw n basis-expansion designs; deterministic given the seed.

    ``rows`` (a slice with step 1) keeps only those designs: the result
    equals ``sample_basis_design(spec, n, seed).subset(rows)`` bit for bit,
    and a Generator seed is left where the full draw leaves it, but on a
    PCG64 stream only the kept rows are drawn (``streams.uniform_rows``).
    """
    if spec.kind != KIND_BASIS:
        raise SpecValidationError("spec is not a basis-expansion design")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = as_generator(seed)
    j = spec.resolved_truncation(n)
    if spec.grid_size < 2 * j:
        raise ResolutionError(
            f"grid of {spec.grid_size} nodes cannot resolve {j} Fourier functions")
    coeffs = _uniform_coefficients(rng, (n, j), rows)
    coeffs *= np.arange(1, j + 1, dtype=float) ** (-spec.alpha / 2.0)
    whole = coeffs.shape[0] == n
    return DesignSample(coeffs=coeffs, spec=spec, seed=_int_seed(seed) if whole else None)


def _brownian_profile(ks) -> np.ndarray:
    """lambda_k = 1/(pi^2 (k - 1/2)^2): the spectrum of min(s, t)."""
    return 1.0 / (math.pi**2 * (np.asarray(ks, dtype=float) - 0.5) ** 2)


def sample_gaussian_design(spec: DesignSpec, n: int, seed) -> DesignSample:
    """Draw n Brownian designs from their Karhunen-Loeve coefficients
    lambda_k^(1/2) G_k, G_k ~ N(0, 1), k <= J = min(2n, D - 1)."""
    if spec.kind != KIND_GAUSSIAN:
        raise SpecValidationError("spec is not an integrated-gaussian design")
    if n < 1:
        raise ValueError("n must be >= 1")
    j = spec.resolved_truncation(n)
    coeffs = as_generator(seed).standard_normal((n, j))
    coeffs *= np.sqrt(_brownian_profile(np.arange(1, j + 1, dtype=float)))
    return DesignSample(coeffs=coeffs, spec=spec, seed=_int_seed(seed))


def _int_seed(seed) -> int | None:
    return seed if isinstance(seed, (int, np.integer)) else None


def sample_design(spec: DesignSpec, n: int, seed, rows: slice = slice(None)) -> DesignSample:
    """Designs ``rows`` of n drawn from the spec, as in ``sample_basis_design``;
    Brownian designs draw all n and keep those rows, because a normal draw
    consumes a variable number of stream outputs."""
    if spec.kind == KIND_BASIS:
        return sample_basis_design(spec, n, seed, rows)
    sample = sample_gaussian_design(spec, n, seed)
    return sample if rows.indices(n) == (0, n, 1) else sample.subset(rows)


def true_covariance(spec: DesignSpec, count: int):
    """Ground-truth covariance operator with its leading ``count`` eigenpairs."""
    from .covariance import CovOperator  # local import to avoid a cycle

    if count < 1:
        raise ValueError("count must be >= 1")
    if spec.kind == KIND_BASIS:
        j = spec.j_truncation if spec.j_truncation is not None else DEFAULT_MAX_EXPANSION
        if count > j:
            raise SpecValidationError(
                f"requested {count} eigenpairs but the expansion has {j} terms"
            )
        vectors, kind = np.eye(j)[:, :count], "analytic-basis"
    else:
        vectors, kind = np.eye(count), "analytic-brownian"
    lam = spec.lambda_profile()(np.arange(1, count + 1, dtype=float))
    # The identity on the first ``count`` coordinates of the design's eigenbasis.
    return CovOperator(eigenvalues=lam, coeff_vectors=vectors, basis=spec.basis,
                       grid_size=spec.grid_size, kind=kind)


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
    J, which is flagged rather than raised. Nothing touches the grid: the
    basis is orthonormal under the quadrature, so the Gram matrix of the
    coefficients C (n x J) is C C^T, with the squared singular values as
    eigenvalues.
    """
    if sample.n < 100:
        raise ValueError("diagnostics need n >= 100")
    c = sample.coeffs
    sq_norms = np.einsum("ij,ij->i", c, c)
    mean_sq = float(np.sum(c.mean(axis=0) ** 2))
    eig = np.linalg.svd(c, compute_uv=False) ** 2
    norms = np.sqrt(np.maximum(sq_norms, 0.0))
    xs = np.linspace(0.0, float(np.max(norms)) * 1.05 + 1e-12, 20)
    freq = np.array([np.mean(norms >= x) for x in xs])

    mean_norm = float(np.sqrt(max(mean_sq, 0.0)))
    scale = float(np.mean(norms)) / math.sqrt(sample.n)
    rank = int(np.sum(eig > 1e-10 * max(eig.max(), 0.0)))

    truncated = False
    notes = []
    if spec.kind == KIND_BASIS:
        j = c.shape[1]
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
