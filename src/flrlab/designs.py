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

Every row of a draw comes from one source, ``_row_blocks``: consecutive
blocks of the coefficients, about 1 MB each (``_block_rows``), with the
bits of the whole n x J draw, after which the stream stands where that draw
leaves it. A uniform double takes exactly one 64-bit output
of a PCG64 stream, so uniform rows are drawn from a copy of the stream
advanced past the rows before them (``streams.pcg64_ahead``), and the stream
then skips all n J outputs (``streams.catch_up``); a uniform draw therefore
needs a PCG64 stream, and anything else raises ``TypeError`` before the
stream moves. A normal draw takes a variable number of outputs, so normal
rows outside the ones asked for are drawn and dropped. The source has two
readers:

* ``sample_design`` has the rows it keeps drawn in place, as blocks that
  are views of its sample, so a held draw allocates the sample alone (and,
  for normal rows it drops, the buffer);
* ``stream_moments`` folds every block, drawn into one reused buffer and
  while it is still in cache, into
  the sums a study replication reads of its designs C and the n normals eps
  drawn after them (``DesignMoments``: rows of C^T C and C^T eps), so a
  replication holds O(J^2 + block) numbers rather than n x J. Only the
  normals depend on the law: uniform designs take them block by block from
  a copy of the stream advanced past the n J uniform outputs, and Brownian
  ones draw them after the designs from the stream itself, keeping the
  fitted rows' ``lead`` columns (m x lead) until they come.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import CovOperator
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
from .streams import as_generator, catch_up, pcg64_ahead

DEFAULT_MAX_EXPANSION = 128
# Rows per block of ``_row_blocks``: a 1 MB buffer at J = 128. On 2 vCPU
# (OpenBLAS 0.3.31, one BLAS thread) the sums of a data-driven replication at
# n = 1e4 took a median of 15.0 ms with 1024-row blocks, 15.5 ms with 512,
# 16.4 ms with 2048 and 16.8 ms with 256, against 15.7 ms for the held
# n x J draw and its Gram products. Wider designs take fewer rows, so that a
# block stays near BLOCK_DOUBLES numbers (1 MB).
BLOCK_ROWS = 1024
BLOCK_DOUBLES = 2**17

KIND_BASIS = "basis-expansion"
KIND_GAUSSIAN = "integrated-gaussian"


def _centered(u: np.ndarray) -> np.ndarray:
    """Uniforms on [0, 1) turned, in place, into draws uniform on
    [-sqrt3, sqrt3] (mean 0, variance 1)."""
    r = math.sqrt(3.0)
    # Same bits as rng.uniform(-r, r, shape), without its temporaries.
    u *= 2.0 * r
    u += -r
    return u


def _block_rows(j: int) -> int:
    """Rows per block of designs with J = j coordinates: ``BLOCK_ROWS``, or
    fewer when that would exceed ``BLOCK_DOUBLES`` numbers."""
    return max(min(BLOCK_ROWS, BLOCK_DOUBLES // j), 1)


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
        if not (math.isfinite(self.alpha) and self.alpha >= 2.0):
            raise SpecValidationError(
                f"eigenvalue decay exponent must be finite and >= 2, got {self.alpha}", "alpha")
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

    def __init__(self, *, coeffs: np.ndarray, spec: DesignSpec):
        self.n, self.grid_size = coeffs.shape[0], spec.grid_size
        self.spec = spec
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


def _brownian_profile(ks) -> np.ndarray:
    """lambda_k = 1/(pi^2 (k - 1/2)^2): the spectrum of min(s, t)."""
    return 1.0 / (math.pi**2 * (np.asarray(ks, dtype=float) - 0.5) ** 2)


def _truncation(spec: DesignSpec, n: int) -> int:
    """J for n designs of the spec, checked against its grid: D nodes resolve
    at most D/2 Fourier functions (Brownian designs take J <= D - 1 sine
    functions by construction)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    j = spec.resolved_truncation(n)
    if spec.kind == KIND_BASIS and spec.grid_size < 2 * j:
        raise ResolutionError(
            f"grid of {spec.grid_size} nodes cannot resolve {j} Fourier functions")
    return j


def _scales(spec: DesignSpec, j: int) -> np.ndarray:
    """lambda_k^(1/2), k <= j: the coefficient scales of the spec's designs.
    Basis-expansion designs take k^(-alpha/2), which rounds differently from
    sqrt(k^-alpha)."""
    ks = np.arange(1, j + 1, dtype=float)
    if spec.kind == KIND_BASIS:
        return ks ** (-spec.alpha / 2.0)
    return np.sqrt(_brownian_profile(ks))


def _row_blocks(spec: DesignSpec, n: int, rng: np.random.Generator, rows: range,
                out: np.ndarray | None = None):
    """The rows ``rows`` (a step-1 range inside range(n)) of n designs drawn
    from ``rng``, as (start, block) pairs: ``block`` holds the coefficients
    lambda_k^(1/2) G_k of rows start..start + len(block) with the bits of the
    whole n x J draw. Without ``out`` each block is a view of one reused
    buffer of about 1 MB that the next block overwrites; with ``out``
    (len(rows) x J, C-contiguous) it is a view of that block's rows of
    ``out``, drawn in place. Once the blocks run out, ``rng`` stands where
    the whole draw leaves it.

    Uniform rows come from a copy of the PCG64 stream advanced past the rows
    before ``rows``; any other stream raises ``TypeError`` and does not
    move. Normal rows outside ``rows`` are drawn into the reused buffer and
    dropped.
    """
    j = _truncation(spec, n)
    uniform = spec.kind == KIND_BASIS
    if uniform:
        source, spans = pcg64_ahead(rng, rows.start * j), [(rows, True)]
    else:
        source = rng
        spans = [(range(rows.start), False), (rows, True), (range(rows.stop, n), False)]
    scales = _scales(spec, j)
    size = _block_rows(j)
    # the reused buffer takes the dropped rows, and the kept ones without ``out``
    buffered = max((len(span) for span, kept in spans if not kept or out is None), default=0)
    buffer = np.empty((min(size, buffered), j))
    for span, kept in spans:
        for lo in range(span.start, span.stop, size):
            hi = min(lo + size, span.stop)
            if kept and out is not None:
                block = out[lo - rows.start:hi - rows.start]
            else:
                block = buffer[:hi - lo]
            if uniform:
                _centered(source.random(out=block))
            else:
                source.standard_normal(out=block)
            if kept:
                block *= scales
                yield lo, block
    if uniform:
        catch_up(rng, pcg64_ahead(rng, n * j))


def _sample(spec: DesignSpec, n: int, seed, rows: slice) -> DesignSample:
    """Designs ``rows`` of n drawn from ``seed``: ``_row_blocks`` draws them
    in place into the sample's coefficients."""
    span = range(n)[rows]
    if span.step != 1:
        raise ValueError("rows must be a contiguous slice")
    rng = as_generator(seed)
    coeffs = np.empty((len(span), _truncation(spec, n)))
    for _ in _row_blocks(spec, n, rng, span, out=coeffs):
        pass
    return DesignSample(coeffs=coeffs, spec=spec)


def sample_basis_design(spec: DesignSpec, n: int, seed, rows: slice = slice(None)) -> DesignSample:
    """``sample_design`` of a basis-expansion spec; any other kind is an error."""
    if spec.kind != KIND_BASIS:
        raise SpecValidationError("spec is not a basis-expansion design")
    return _sample(spec, n, seed, rows)


def sample_gaussian_design(spec: DesignSpec, n: int, seed,
                           rows: slice = slice(None)) -> DesignSample:
    """``sample_design`` of an integrated-Gaussian spec; any other kind is an error."""
    if spec.kind != KIND_GAUSSIAN:
        raise SpecValidationError("spec is not an integrated-gaussian design")
    return _sample(spec, n, seed, rows)


def sample_design(spec: DesignSpec, n: int, seed, rows: slice = slice(None)) -> DesignSample:
    """Designs ``rows`` (a slice with step 1) of n drawn from the spec, from
    an int seed or a Generator: equal bit for bit to the whole draw's
    ``subset(rows)``, with the stream left where the whole draw leaves it,
    but holding only the kept rows. Basis-expansion designs need a PCG64
    stream (``_row_blocks``); anything else raises ``TypeError`` and leaves
    the stream where it was."""
    if spec.kind == KIND_BASIS:
        return sample_basis_design(spec, n, seed, rows)
    return sample_gaussian_design(spec, n, seed, rows)


@dataclass(frozen=True)
class DesignMoments:
    """Sums over n designs with coefficients C (n x J) and the n normals eps
    drawn after them, the first m rows fitted and rows m..n kept for
    training:

    * ``gram`` = C[:m, :lead]^T C[:m], the first ``lead`` rows of m Gamma-hat
      over the fitted rows (all J rows without a lead);
    * ``noise`` = C[:m, :lead]^T eps[:m];
    * ``train`` = C[m:]^T C[m:], or None when m = n.
    """

    n: int
    m: int
    gram: np.ndarray
    noise: np.ndarray
    train: np.ndarray | None


def _moment_sums(n: int, j: int, lead: int | None, split: int | None):
    """Zeroed ``DesignMoments`` of n designs with J = j coordinates, after
    checking the split and the lead."""
    m = n if split is None else int(split)
    lead = j if lead is None else int(lead)
    if not 1 <= m <= n:
        raise ValueError(f"the split must lie in 1..{n}, got {m}")
    if not 1 <= lead <= j:
        raise ValueError(f"the lead must lie in 1..{j}, got {lead}")
    train = np.zeros((j, j)) if m < n else None
    return DesignMoments(n, m, np.zeros((lead, j)), np.zeros(lead), train)


def stream_moments(spec: DesignSpec, n: int, rng: np.random.Generator, *,
                   lead: int | None = None, split: int | None = None) -> DesignMoments:
    """The ``DesignMoments`` of n designs drawn from ``rng`` and the n normals
    after them: the products of ``sample_design(spec, n, rng)`` and
    ``rng.standard_normal(n)``, up to the order of the additions, without
    the n x J sample. ``lead`` (default J) rows of the Gram sum are formed,
    over the first ``split`` (default all n) designs. ``rng`` ends where
    that draw and those normals leave it.

    Each block of ``_row_blocks`` is folded into the sums as it comes. The
    normals of basis-expansion designs come from a copy of the stream
    advanced past the n J uniform outputs, block by block, so ``rng`` must
    be a PCG64 Generator, and anything else raises ``TypeError`` (there is
    no fallback). Brownian designs take their normals from ``rng`` after
    the designs, so the first ``lead`` columns of the fitted rows are kept
    (m x lead numbers) until they are drawn.
    """
    j = _truncation(spec, n)
    sums = _moment_sums(n, j, lead, split)
    m, lead = sums.m, sums.gram.shape[0]
    uniform = spec.kind == KIND_BASIS
    if uniform:
        normals = pcg64_ahead(rng, n * j)
        eps = np.empty(min(_block_rows(j), n))
    else:
        lead_cols = np.empty((m, lead))
    for start, c in _row_blocks(spec, n, rng, range(n)):
        cut = min(max(m - start, 0), c.shape[0])
        fit, train = c[:cut], c[cut:]
        if cut:
            sums.gram[...] += fit[:, :lead].T @ fit
        if train.shape[0]:
            sums.train[...] += train.T @ train
        if uniform:
            # every row's normal is drawn, so the copy keeps pace with the rows
            block_eps = normals.standard_normal(out=eps[:c.shape[0]])
            if cut:
                sums.noise[...] += fit[:, :lead].T @ block_eps[:cut]
        else:
            lead_cols[start:start + cut] = fit[:, :lead]
    if uniform:
        catch_up(rng, normals)
    else:
        sums.noise[...] = lead_cols.T @ rng.standard_normal(n)[:m]
    return sums


def true_covariance(spec: DesignSpec, count: int):
    """Ground-truth covariance operator with its leading ``count`` eigenpairs."""
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


def verify_condition_x(sample: DesignSample) -> ConditionXReport:
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

    j = c.shape[1]
    truncated = j < sample.n
    notes = []
    if truncated:
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
