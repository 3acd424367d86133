"""Covariance operators on L2([0,1]): construction, spectra, square roots.

The empirical operator of n designs has kernel (1/n) sum_j X_j(s) X_j(t) and
rank at most n. Its eigenpairs are computed through one of three exact
routes, chosen from the sample:

* ``coeff``, whenever the sample carries its generating coefficients in the
  Fourier basis: the operator is a small J x J matrix there;
* ``dual``, for grid-only samples with n <= D: the n x n matrix
  M_ij = <X_i, X_j>/n has the same nonzero spectrum, and eigenfunctions are
  recovered as normalized combinations of the X_j;
* ``grid``, for grid-only samples with n > D: direct quadrature-weighted
  eigendecomposition of the D x D kernel.

The dual/grid split follows the size of the ``eigh`` each route runs; the two
cost the same near n = D. Whole-route medians on a 2-vCPU machine (numpy 2.4,
OpenBLAS 0.3.31): at D = 1024, n = 768 takes 0.11 s dual and 0.20 s grid,
n = 1024 takes 0.22 s and 0.21 s, and n = 1200 takes 0.27 s and 0.20 s; at
D = 256, n = 1000 takes 0.12 s dual and 0.008 s grid. A thin SVD of the
weighted n x D sample, which would serve both sizes, was 3-4x slower than the
dual route at n = 256-512.

Each operator holds its eigenfunctions in exactly one representation: the
``coeff`` route and the analytic basis-expansion truth keep the J x r
Fourier coefficients U and render grid values on first read; the ``dual``
and ``grid`` routes and the Brownian truth hold grid values.

Eigenfunction signs follow a fixed convention (largest-magnitude Fourier
coefficient positive), and for full-rank empirical operators the last
eigenfunction is flipped if needed so the change-of-basis matrix used by the
whitening transform has determinant +1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .function_space import (
    Basis,
    GridFunction,
    fourier_function,
    fourier_matrix,
    pad_coefficients,
    pairwise_inner,
    trapezoid_weights,
)

RANK_TOL = 1e-12          # eigenvalues below RANK_TOL * lambda_1 count as zero
SIGN_REFERENCE_COUNT = 64  # Fourier coefficients consulted by the sign convention


class CovOperator:
    """A positive self-adjoint operator given by sorted eigenpairs and a kernel.

    The eigenfunctions come in one of two representations. Grid operators
    pass ``eigenfunctions``. Operators of basis-expansion designs (and their
    analytic truth) pass ``coeff_vectors``, the (J, r) eigenvectors in the
    Fourier basis, with the ``grid_size`` they refer to; then
    phi_k = coeff_vectors[:, k] @ fourier_matrix(J, D), rendered on the first
    read of ``eigenfunctions``. Inner products with design samples, with other
    such operators and with Fourier-coefficient vectors use the coefficients
    instead of the grid. Fourier rows are nested, so two coefficient views of
    different lengths J meet exactly on their first min(J) rows.
    """

    def __init__(
        self,
        *,
        eigenvalues: np.ndarray,
        eigenfunctions: Basis | None = None,
        coeff_vectors: np.ndarray | None = None,
        grid_size: int | None = None,
        kernel: np.ndarray | None = None,
        kind: str = "custom",
        n_samples: int | None = None,
    ):
        if (eigenfunctions is None) == (coeff_vectors is None):
            raise ValueError("need exactly one of eigenfunctions and coeff_vectors")
        if (grid_size is None) == (eigenfunctions is None):
            raise ValueError("grid_size goes with coeff_vectors, and only with them")
        if eigenfunctions is not None:
            count, grid_size = eigenfunctions.count, eigenfunctions.grid_size
        else:
            count = coeff_vectors.shape[1]
        lam = np.asarray(eigenvalues, dtype=float)
        if lam.ndim != 1 or lam.size != count:
            raise ValueError("need one eigenvalue per eigenfunction")
        if lam.size > 1 and np.any(np.diff(lam) > 1e-12 * max(lam[0], 1.0)):
            raise ValueError("eigenvalues must be non-increasing")
        top = lam[0] if lam.size else 0.0
        if np.any(lam < -1e-10 * max(top, 1.0)):
            raise ValueError("operator is not positive semidefinite")
        lam = np.maximum(lam, 0.0)
        self.eigenvalues = lam
        self.kind = kind
        self.n_samples = n_samples
        self._functions = eigenfunctions
        self._vectors = coeff_vectors
        self._grid_size = int(grid_size)
        self._kernel = kernel

    @property
    def eigenfunctions(self) -> Basis:
        """Eigenfunctions on the grid; a coefficient view renders them once.

        Rendering is deterministic, so threads that race on a shared operator's
        first read each get the same values."""
        if self._functions is None:
            u = self._vectors
            self._functions = Basis(u.T @ fourier_matrix(u.shape[0], self._grid_size),
                                    kind="eigen")
        return self._functions

    @property
    def coeff_vectors(self) -> np.ndarray | None:
        """(J, r) eigenvectors in the Fourier basis, if any."""
        return self._vectors

    @property
    def grid_size(self) -> int:
        return self._grid_size

    @property
    def rank(self) -> int:
        """Number of retained (numerically nonzero) eigenvalues."""
        if self.eigenvalues.size == 0:
            return 0
        return int(np.sum(self.eigenvalues > RANK_TOL * self.eigenvalues[0]))

    @property
    def kernel(self) -> np.ndarray:
        if self._kernel is None:
            phi = self.eigenfunctions.functions
            self._kernel = phi.T @ (self.eigenvalues[:, None] * phi)
        return self._kernel

    def eigen_coefficients(self, f, count: int | None = None) -> np.ndarray:
        """(<f, phi_1>, ..., <f, phi_K>) against the eigenfunctions; f is a
        GridFunction or a vector of Fourier coefficients. With a coefficient
        view the latter is exact, coeff_vectors^T pad(f), and builds no grid."""
        k = self.eigenvalues.size if count is None else int(count)
        if k > self.eigenvalues.size:
            raise ValueError("not enough retained eigenpairs")
        if not isinstance(f, GridFunction):
            f = np.asarray(f, dtype=float)
            if self._vectors is not None:
                return self._vectors[:, :k].T @ pad_coefficients(f, self._vectors.shape[0])
            f = fourier_function(f, self.grid_size)
        w = trapezoid_weights(self.grid_size)
        return (self.eigenfunctions.functions[:k] * w) @ f.values

    def design_products(self, sample, count: int) -> np.ndarray:
        """Q with Q[j, k] = <X_j, phi_k> for the first ``count`` eigenfunctions:
        C U over the common Fourier length when both the sample and this
        operator have coefficients on the same grid, the n x D grid otherwise."""
        c, u = sample.coeffs, self._vectors
        if c is not None and u is not None and sample.grid_size == self.grid_size:
            j = min(c.shape[1], u.shape[0])
            return c[:, :j] @ u[:j, :count]
        return pairwise_inner(sample.values, self.eigenfunctions.functions[:count])

    def apply(self, f: GridFunction) -> GridFunction:
        """Operator applied to f; uses the kernel when one is stored exactly."""
        if f.grid_size != self.grid_size:
            raise DimensionError("function and operator live on different grids")
        if self._kernel is not None:
            w = trapezoid_weights(self.grid_size)
            return GridFunction(self._kernel @ (w * f.values))
        c = self.eigen_coefficients(f)
        return GridFunction((self.eigenvalues * c) @ self.eigenfunctions.functions)

    def coeff_matrix(self) -> np.ndarray | None:
        """Operator matrix in the Fourier basis, if there is a coefficient view."""
        if self._vectors is None:
            return None
        u = self._vectors
        return u @ (self.eigenvalues[:, None] * u.T)


def _sorted_desc(values: np.ndarray, vectors: np.ndarray):
    order = np.argsort(values)[::-1]
    return values[order], vectors[:, order]


def _convention_signs(ref_coeffs: np.ndarray) -> np.ndarray:
    """Per-row signs that make each row's largest-magnitude reference
    coefficient (first such index on ties) positive."""
    idx = np.argmax(np.abs(ref_coeffs), axis=1)
    lead = ref_coeffs[np.arange(ref_coeffs.shape[0]), idx]
    return np.where(lead < 0.0, -1.0, 1.0)


def _det_sign_orthogonal(a: np.ndarray) -> float:
    sign, _ = np.linalg.slogdet(a)
    return float(sign)


def _eigh_grid_kernel(kernel: np.ndarray, weights: np.ndarray, count: int):
    """Leading eigenpairs of a symmetric kernel under the quadrature metric."""
    sw = np.sqrt(weights)
    sym = sw[:, None] * kernel * sw[None, :]
    sym = 0.5 * (sym + sym.T)
    vals, vecs = np.linalg.eigh(sym)
    vals, vecs = _sorted_desc(vals, vecs)
    count = min(count, vals.size)
    funcs = (vecs[:, :count] / sw[:, None]).T
    return np.maximum(vals[:count], 0.0), funcs


def empirical_covariance(sample) -> CovOperator:
    """Empirical covariance operator of a design sample.

    Keeps only the numerically nonzero eigenpairs (at most min(n, rank of the
    sample span)); the operator's range equals the span of the designs. The
    route follows the sample: coefficients if it has them, else the smaller
    of the n x n dual and the D x D grid eigenproblems.
    """
    if sample.n < 1:
        raise ValueError("empty sample")
    if sample.coeffs is not None:
        return _empirical_from_coeffs(sample)
    if sample.n <= sample.grid_size:
        return _empirical_dual(sample)
    return _empirical_grid(sample)


def _retain(lam: np.ndarray) -> int:
    if lam.size == 0 or lam[0] <= 0.0:
        return 0
    return int(np.sum(lam > RANK_TOL * lam[0]))


def _empirical_from_coeffs(sample) -> CovOperator:
    c = sample.coeffs           # (n, J), columns are Fourier coordinates
    n, j = c.shape
    m = (c.T @ c) / n
    vals, vecs = np.linalg.eigh(m)
    vals, vecs = _sorted_desc(vals, vecs)
    r = _retain(np.maximum(vals, 0.0))
    lam = np.maximum(vals[:r], 0.0)
    u = vecs[:, :r]             # (J, r) eigenvectors in coefficient space

    u = u * _convention_signs(u[: min(SIGN_REFERENCE_COUNT, j), :].T)[None, :]
    if r == n:
        # A = C U D^{-1} is the whitening matrix of this sample; fix det = +1.
        if _det_sign_orthogonal((c @ u) / np.sqrt(n * lam)[None, :]) < 0:
            u[:, -1] *= -1.0
    return CovOperator(
        eigenvalues=lam,
        coeff_vectors=u,
        grid_size=sample.grid_size,
        kind="empirical",
        n_samples=n,
    )


def _empirical_dual(sample) -> CovOperator:
    x = sample.values
    n, d = x.shape
    gram = pairwise_inner(x, x)
    m = gram / n
    vals, vecs = np.linalg.eigh(m)
    vals, vecs = _sorted_desc(vals, vecs)
    r = _retain(np.maximum(vals, 0.0))
    lam = np.maximum(vals[:r], 0.0)
    v = vecs[:, :r]
    funcs = (v.T @ x) / np.sqrt(n * lam)[:, None]

    ref_basis = fourier_matrix(min(SIGN_REFERENCE_COUNT, d // 2), d)
    signs = _convention_signs(pairwise_inner(funcs, ref_basis))
    funcs *= signs[:, None]
    v = v * signs[None, :]

    if r == n and _det_sign_orthogonal(v) < 0:
        # v is exactly the orthogonal factor of the whitening transform.
        funcs[-1] *= -1.0
        v[:, -1] *= -1.0

    return CovOperator(
        eigenvalues=lam,
        eigenfunctions=Basis(funcs, kind="eigen"),
        kind="empirical",
        n_samples=n,
    )


def _empirical_grid(sample) -> CovOperator:
    x = sample.values
    n, d = x.shape
    kernel = (x.T @ x) / n
    w = trapezoid_weights(d)
    lam, funcs = _eigh_grid_kernel(kernel, w, min(n, d))
    r = _retain(lam)
    lam, funcs = lam[:r], funcs[:r]

    ref_basis = fourier_matrix(min(SIGN_REFERENCE_COUNT, d // 2), d)
    funcs *= _convention_signs(pairwise_inner(funcs, ref_basis))[:, None]

    return CovOperator(
        eigenvalues=lam,
        eigenfunctions=Basis(funcs, kind="eigen"),
        kernel=kernel,
        kind="empirical",
        n_samples=n,
    )


def sqrt_apply(op: CovOperator, f):
    """Square root of the operator applied to f over the retained rank.

    f is a GridFunction, and the result is one too; or f is a vector of
    Fourier coefficients on an operator with a coefficient view, and the
    result is the J Fourier coefficients U diag(sqrt(lambda)) U^T pad(f),
    computed without a grid.
    """
    on_grid = isinstance(f, GridFunction)
    if on_grid and f.grid_size != op.grid_size:
        raise DimensionError("function and operator live on different grids")
    if not on_grid and op.coeff_vectors is None:
        raise ValueError("a coefficient vector needs an operator with a coefficient view")
    scaled = np.sqrt(op.eigenvalues) * op.eigen_coefficients(f)
    if on_grid:
        return GridFunction(scaled @ op.eigenfunctions.functions)
    return op.coeff_vectors @ scaled


def hs_distance(a: CovOperator, b: CovOperator) -> float:
    """Hilbert-Schmidt distance of two operators on the same grid."""
    if a.grid_size != b.grid_size:
        raise DimensionError("operators live on different grids")
    ca, cb = a.coeff_matrix(), b.coeff_matrix()
    if ca is not None and cb is not None:
        ja, jb = ca.shape[0], cb.shape[0]
        j = max(ja, jb)
        pa = np.zeros((j, j)); pa[:ja, :ja] = ca
        pb = np.zeros((j, j)); pb[:jb, :jb] = cb
        return float(np.linalg.norm(pa - pb))
    w = trapezoid_weights(a.grid_size)
    diff = a.kernel - b.kernel
    return float(np.sqrt(np.einsum("i,ij,j->", w, diff * diff, w)))


@dataclass(frozen=True)
class GapReport:
    """Scaled spacings (lambda_j - lambda_{j+1}) * j^(alpha+1) over the spectrum."""

    scaled_gaps: np.ndarray
    min_scaled_gap: float
    argmin: int               # 1-based index of the worst spacing
    threshold: float | None
    flagged: bool


def eigen_gap_check(op: CovOperator, alpha: float, *, threshold: float | None = None) -> GapReport:
    """Diagnose the polynomial eigenvalue-spacing condition; never raises."""
    lam = op.eigenvalues[: op.rank]
    if lam.size < 2:
        gaps = np.array([])
        return GapReport(gaps, float("nan"), 0, threshold, flagged=lam.size < 2)
    ks = np.arange(1, lam.size, dtype=float)
    gaps = (lam[:-1] - lam[1:]) * ks ** (alpha + 1.0)
    worst = int(np.argmin(gaps))
    min_gap = float(gaps[worst])
    flagged = min_gap <= 0.0 or (threshold is not None and min_gap < threshold)
    return GapReport(gaps, min_gap, worst + 1, threshold, flagged)
