"""Empirical covariance operators on L2([0,1]): construction, spectra, square roots.

The known design law needs no operator here: its covariance is
diag(lambda_k) in the design's own eigenbasis, so its callers hold it as
the eigenvalues of ``DesignSpec.lambda_profile`` (``estimators.
cutoff_estimator``, ``risk.delta56_study``).

An operator is held as its eigenvalues and its (J, r) eigenvectors U in the
coordinates of its design's orthonormal eigenbasis (``function_space``: the
Fourier basis for basis-expansion designs, the sine basis for Brownian
ones). Every input f is a coefficient vector in that basis; an operator
holds no grid values, and the writers render eigenfunctions and the kernel
from U (``serialize.write_eigenfunctions``, ``write_kernel``). Products
between two coefficient views need the same basis and grid.

The empirical operator of n designs with coefficients C (n x J) is the
J x J matrix C^T C / n, of rank at most min(n, J). One rule picks the
smaller of two exact eigenproblems from the input size:

* n > J: ``eigh`` of C^T C / n gives U directly;
* n <= J: ``eigh`` of the n x n matrix C C^T / n = V diag(lambda) V^T has
  the same nonzero spectrum, and U = C^T V diag(n lambda)^(-1/2).

Only the dual branch can reach full rank n, and there V is the whitening
matrix A = C U diag(n lambda)^(-1/2) of the sample, which the operator keeps
(``CovOperator.whitening``) for ``equivalence.build_gram_transform``.

The primal branch reads C only through C^T C / n, so a caller that summed
that Gram matrix block by block (``designs.stream_moments``) passes it as an
``EmpiricalGram`` of n > J designs in place of the sample, to
``empirical_covariance`` and ``empirical_eigenvalues`` alike: the same
eigenproblem, retained rank and sign convention. With at most J designs the
dual branch reads C, so those take the sample.

Per sample of n Brownian designs on 1024 nodes (J = min(2n, 1023)), the
draw, the covariance and ``design_products`` take, as medians of 5 on
2 vCPU with OpenBLAS 0.3.31: 0.004 s at n = 128, 0.016 s at 256, 0.075 s at
512 and 0.260 s at 1024, against 0.015, 0.029, 0.091 and 0.384 s for the
grid-value draw and n x n grid Gram this replaced. The J x J route alone
would solve a 1023-sized eigenproblem for a 512-row sample, hence the
n x n branch.

Eigenvector signs follow a fixed convention (largest-magnitude coefficient
among the first 64 positive), and for full-rank empirical operators the last
eigenvector is flipped if needed so the whitening matrix V has determinant
+1. Gamma-hat^(1/2) f comes from ``sqrt_apply``, which takes the sample
itself and uses the same eigenproblem and retained rank but builds no
operator, so none of U, the sign convention or the determinant is
computed.

``eigh`` returns its eigenpairs ascending; they are read descending through
reversed views (``_sorted_desc``), so no eigenproblem copies its r x r
eigenvectors to reorder them (2 MB at r = 512).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .function_space import FOURIER, SINE, pad_coefficients, same_coordinates

RANK_TOL = 1e-12          # eigenvalues below RANK_TOL * lambda_1 count as zero
SIGN_REFERENCE_COUNT = 64  # coefficients consulted by the sign convention


class CovOperator:
    """A positive self-adjoint operator given by sorted eigenpairs.

    ``coeff_vectors`` holds the (J, r) eigenvectors in the named ``basis``
    (``function_space.FOURIER`` or ``SINE``) of ``grid_size`` nodes, so
    phi_k = coeff_vectors[:, k] @ basis_matrix(basis, J, D). Both bases are
    nested, so two views of different lengths J meet exactly on their first
    min(J) rows. ``n_samples`` is the number of designs whose empirical
    covariance the operator is (``empirical_covariance``), None otherwise.
    """

    def __init__(
        self,
        *,
        eigenvalues: np.ndarray,
        coeff_vectors: np.ndarray,
        basis: str,
        grid_size: int,
        n_samples: int | None = None,
    ):
        lam = np.asarray(eigenvalues, dtype=float)
        if coeff_vectors.ndim != 2 or lam.ndim != 1 or lam.size != coeff_vectors.shape[1]:
            raise ValueError("need one eigenvalue per eigenvector")
        if basis not in (FOURIER, SINE):
            raise ValueError(f"unknown basis {basis!r}")
        if lam.size > 1 and np.any(np.diff(lam) > 1e-12 * max(lam[0], 1.0)):
            raise ValueError("eigenvalues must be non-increasing")
        top = lam[0] if lam.size else 0.0
        if np.any(lam < -1e-10 * max(top, 1.0)):
            raise ValueError("operator is not positive semidefinite")
        self.eigenvalues = np.maximum(lam, 0.0)
        self.n_samples = n_samples
        self.basis = basis
        self.grid_size = int(grid_size)
        self._vectors = coeff_vectors
        self._whitening = None

    @property
    def coeff_vectors(self) -> np.ndarray:
        """(J, r) eigenvectors in the operator's basis."""
        return self._vectors

    @property
    def whitening(self) -> np.ndarray | None:
        """The n x n whitening matrix A = C U diag(n lambda)^(-1/2) of a
        full-rank empirical operator, formed as the dual eigenvectors V under
        the sign and determinant conventions; None for every other operator."""
        return self._whitening

    @property
    def rank(self) -> int:
        """Number of retained (numerically nonzero) eigenvalues."""
        if self.eigenvalues.size == 0:
            return 0
        return int(np.sum(self.eigenvalues > RANK_TOL * self.eigenvalues[0]))

    def coefficients(self, f) -> np.ndarray:
        """The coefficient vector f in the operator's J coordinates,
        truncated or zero-padded."""
        return pad_coefficients(np.asarray(f, dtype=float), self._vectors.shape[0])

    def eigen_coefficients(self, f, count: int | None = None) -> np.ndarray:
        """(<f, phi_1>, ..., <f, phi_K>) = coeff_vectors^T pad(f), f as in
        ``coefficients``."""
        k = self.eigenvalues.size if count is None else int(count)
        if k > self.eigenvalues.size:
            raise ValueError("not enough retained eigenpairs")
        return self._vectors[:, :k].T @ self.coefficients(f)

    def design_products(self, sample, count: int) -> np.ndarray:
        """Q with Q[j, k] = <X_j, phi_k> for the first ``count`` eigenfunctions:
        C U over the common coefficient length."""
        same_coordinates(sample, self)
        c, u = sample.coeffs, self._vectors
        j = min(c.shape[1], u.shape[0])
        return c[:, :j] @ u[:j, :count]

    def apply(self, f) -> np.ndarray:
        """The operator applied to f (as in ``coefficients``), as J coefficients:
        U (lambda * U^T f), without forming the J x J matrix."""
        u = self._vectors
        return u @ (self.eigenvalues * (u.T @ self.coefficients(f)))


def _sorted_desc(values: np.ndarray, vectors: np.ndarray):
    """``eigh``'s ascending eigenpairs in descending order, as reversed views
    (no copy of the vectors)."""
    return values[::-1], vectors[:, ::-1]


def _convention_signs(ref_coeffs: np.ndarray) -> np.ndarray:
    """Per-row signs that make each row's largest-magnitude reference
    coefficient (first such index on ties) positive."""
    idx = np.argmax(np.abs(ref_coeffs), axis=1)
    lead = ref_coeffs[np.arange(ref_coeffs.shape[0]), idx]
    return np.where(lead < 0.0, -1.0, 1.0)


def _retain(lam: np.ndarray) -> int:
    if lam.size == 0 or lam[0] <= 0.0:
        return 0
    return int(np.sum(lam > RANK_TOL * lam[0]))


@dataclass(frozen=True)
class EmpiricalGram:
    """Gamma-hat = C^T C / n of n > J designs as its J x J ``matrix`` in
    ``basis`` on ``grid_size`` nodes: the empirical operator's input when the
    designs themselves are not held."""

    matrix: np.ndarray
    n: int
    basis: str
    grid_size: int

    def __post_init__(self):
        j = self.matrix.shape[0]
        if self.matrix.shape != (j, j):
            raise ValueError(f"a Gram matrix is square, got {self.matrix.shape}")
        if self.n <= j:
            raise ValueError(f"{self.n} designs with J = {j}: at most J designs need "
                             "the sample itself (dual branch)")


def _gram(sample) -> tuple[np.ndarray, bool]:
    """The smaller of C C^T / n (dual, n <= J) and C^T C / n, with the branch
    taken; an ``EmpiricalGram`` is already the latter."""
    if isinstance(sample, EmpiricalGram):
        return sample.matrix, False
    if sample.n < 1:
        raise ValueError("empty sample")
    c = sample.coeffs           # (n, J), columns are coordinates in the sample's basis
    n, j = c.shape
    dual = n <= j
    return ((c @ c.T) / n if dual else (c.T @ c) / n), dual


def empirical_eigenvalues(sample) -> np.ndarray:
    """The retained eigenvalues of ``empirical_covariance(sample)``, descending,
    from ``eigvalsh`` of the same Gram matrix: the spectrum without the
    eigenvectors, for callers that read only the spectrum. ``sample`` is a
    design sample or an ``EmpiricalGram``."""
    vals = np.linalg.eigvalsh(_gram(sample)[0])[::-1]
    return np.maximum(vals[:_retain(np.maximum(vals, 0.0))], 0.0)


def _gram_eigen(sample) -> tuple[np.ndarray, np.ndarray, bool]:
    """(lambda, V, dual): the retained eigenpairs of ``_gram(sample)``,
    eigenvalues descending, with the branch taken; V is a view of eigh's
    vectors (``_sorted_desc``)."""
    gram, dual = _gram(sample)
    vals, vecs = _sorted_desc(*np.linalg.eigh(gram))
    r = _retain(np.maximum(vals, 0.0))
    return np.maximum(vals[:r], 0.0), vecs[:, :r], dual


def empirical_covariance(sample) -> CovOperator:
    """Empirical covariance operator of a design sample.

    Keeps only the numerically nonzero eigenpairs (at most min(n, J)); the
    operator's range equals the span of the designs. The eigenproblem is the
    smaller of the J x J and n x n ones (see the module docstring). At full
    rank n the operator also keeps that eigenproblem's eigenvectors as its
    ``whitening`` matrix. ``sample`` is a design sample or an
    ``EmpiricalGram`` of n > J designs.
    """
    lam, vecs, dual = _gram_eigen(sample)
    n, r = sample.n, lam.size
    u = (sample.coeffs.T @ vecs) / np.sqrt(n * lam)[None, :] if dual else vecs   # (J, r)

    signs = _convention_signs(u[: min(SIGN_REFERENCE_COUNT, u.shape[0]), :].T)[None, :]
    # On the J x J branch U is a reversed view of eigh's vectors; it is
    # written out column-major, the layout an index gather gave it, so every
    # later product with U rounds as before.
    u = np.multiply(u, signs, order="C" if dual else "F")
    whitening = None
    if r == n:
        # rank n needs n <= J, the dual branch, where A = C U D^{-1} is V
        # itself; fix det = +1.
        whitening = vecs * signs
        if np.linalg.slogdet(whitening)[0] < 0:
            u[:, -1] *= -1.0
            whitening[:, -1] *= -1.0
    op = CovOperator(
        eigenvalues=lam,
        coeff_vectors=u,
        basis=sample.basis,
        grid_size=sample.grid_size,
        n_samples=n,
    )
    op._whitening = whitening
    return op


def sqrt_apply(sample, f) -> np.ndarray:
    """Gamma-hat^(1/2) f for the empirical operator Gamma-hat = C^T C / n of
    a design sample, over its retained rank: J coefficients in the sample's
    basis, f a coefficient vector there, truncated or zero-padded to J.

    It reads the eigenpairs (lambda, V) of the same Gram matrix and retained
    rank as ``empirical_covariance``, without building the operator (no U,
    no sign or determinant convention): C^T V diag(1 / (n sqrt(lambda)))
    V^T C f on the dual branch and V diag(sqrt(lambda)) V^T f on the J x J
    one.
    """
    lam, v, dual = _gram_eigen(sample)
    # The sums do not depend on the order of the eigenpairs: eigh's own
    # ascending order is a view with positive strides, which BLAS reads
    # directly, where the descending view would take numpy's slower loops.
    lam, v = lam[::-1], v[:, ::-1]
    c = sample.coeffs
    g = pad_coefficients(np.asarray(f, dtype=float), c.shape[1])
    if dual:
        return c.T @ (v @ ((v.T @ (c @ g)) / (sample.n * np.sqrt(lam))))
    return v @ (np.sqrt(lam) * (v.T @ g))

