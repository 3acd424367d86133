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

Every input is a coefficient vector in that basis (theta in
``DesignSample.inner_products``), and grid values exist only to render a
sample (``DesignSample.values``).

Every row of a draw comes from one source, ``_row_blocks``: consecutive
blocks of the n x width draw of the first ``width`` coefficients (all J by
default), about 1 MB each at any width (``_block_rows``), after which the
stream stands where that whole draw leaves it. Columns are independent, so
the n x width draw has the law of the first width columns of the n x J one;
a caller that reads fewer columns draws only those. The blocks hold the raw
draw, before the coefficient scales s_k (``_scales``):

* a uniform entry is R - 1/2, R = ``rng.random()``. R is a multiple of
  2^-53 in [0, 1), so R - 1/2 is exact in binary64 and exactly centred;
  G_k = sqrt(12) (R - 1/2), and s_k = sqrt(12) k^(-alpha/2);
* a normal entry is ``rng.standard_normal()`` = G_k, and s_k = lambda_k^(1/2).

Where uniform rows come from: a uniform double takes exactly one 64-bit
output of a PCG64 stream, so rows from row 0 on are drawn from the stream
itself, and rows that start later from a copy of it advanced past the rows
before them (``streams.pcg64_ahead``). A draw that stops short of row n,
or that ran on a copy, then moves the stream to a copy n width outputs on
(``streams.catch_up``). So a draw of all n rows makes no copy, and one
with either end inside makes one or two. A uniform draw needs a PCG64
stream, and anything else raises ``TypeError`` before the stream moves. A
normal draw takes a variable number of outputs, so normal rows outside the
ones asked for are drawn and dropped.

Each consumer applies the scales once, to what it keeps. ``sample_design``
has the rows it keeps drawn in place, all J columns wide, as blocks that
are views of its sample, and scales each block while it is still in cache,
so a held draw allocates the sample alone (and, for normal rows it drops,
the buffer). ``stream_moments`` returns the sums a study replication reads
of its designs C and the n normals eps after them (``DesignMoments``: rows
of C^T C and C^T eps over the first ``width`` columns), without the n x J
sample, in one of two ways:

* basis-expansion designs fold every raw block of ``_row_blocks``, drawn
  into one reused buffer and while it is still in cache, into the sums of
  the raw draw, and take the normals block by block from a copy of the
  stream advanced past the n width uniform outputs. Only then are the sums
  scaled, entry (i, l) of a Gram sum by s_i s_l and entry i of the noise
  sum by s_i (``_scaled``), so each design number is touched once by the
  fold, a replication holds O(width^2 + block) numbers, and the sums equal
  the held n x width draw's up to rounding: the order of the additions,
  and the scales applied to the sums instead of to each entry;
* integrated-Gaussian designs draw the sums of their standard normals from
  their joint law (``_wishart_moments``) and scale them the same way. With
  G the n x width standard normals, the lead columns G_k of G give
  G_k^T G_k = L L^T, a Wishart matrix with the Bartlett factor L, and,
  given G_k, G_k^T G[:, k:] = L Z and G_k^T eps = L z with Z and z
  standard normals. So O(lead width) random numbers stand in for n J,
  whatever n is, and the stream moves by those alone.

A cutoff fit reads its designs only through the columns up to its cutoff
and the last nonzero coordinate of its test functions, so its replications
pass that ``width``. Drawing only those columns changes the bits of the
draw, not its law: skipping the unread columns of each row with the bits
kept would take a PCG64 jump per row, which costs more than drawing them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import CovOperator, empirical_eigenvalues
from .errors import SpecValidationError
from .estimators import power_lambda_profile
from .function_space import (
    DEFAULT_GRID_SIZE,
    FOURIER,
    SINE,
    basis_matrix,
    pad_coefficients,
)
from .streams import as_generator, catch_up, pcg64_ahead

DEFAULT_MAX_EXPANSION = 128
# Numbers per block of ``_row_blocks``: 1 MB, 1024 rows at J = 128. On 2 vCPU
# (OpenBLAS 0.3.31, one BLAS thread) the sums of a data-driven replication at
# n = 1e4 (``stream_moments(split=m)``, raw blocks scaled on the sums) took
# medians of 9.5-9.7 ms with 1024-row blocks, 9.6 ms with 2048, 10.3-10.5 ms
# with 512 and 11.5-12.1 ms with 256, against 10.7-11.1 ms for the held
# n x J draw and its Gram products (three rounds of 150 calls). A block of
# any width holds about as many numbers, so narrower draws take more rows
# per block.
BLOCK_DOUBLES = 2**17

KIND_BASIS = "basis-expansion"
KIND_GAUSSIAN = "integrated-gaussian"


def _block_rows(width: int) -> int:
    """Rows per block of a draw ``width`` columns wide: about
    ``BLOCK_DOUBLES`` numbers (1 MB), and at least one row."""
    return max(BLOCK_DOUBLES // width, 1)


@dataclass(frozen=True)
class DesignSpec:
    """Configuration of a design distribution satisfying the tail and decay conditions.

    The grid of ``grid_size`` nodes only renders the designs, with one
    coupling: a Brownian design's J is min(2n, grid_size - 1), because the
    trapezoid rule keeps only the first grid_size - 1 sine functions
    orthonormal on that grid (``function_space.sine_matrix``). A
    basis-expansion draw does not read the grid at all: rendering its J
    Fourier functions needs grid_size >= 2J, and ``DesignSample.values``
    raises ``ResolutionError`` on a coarser grid.
    """

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
        """<X_j, theta> for every design, theta a vector of coefficients in the
        sample's basis (truncated or zero-padded to J)."""
        c = self._coeffs
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
    """J for n designs of the spec. The draw never reads the grid, so J is
    not checked against it; rendering is (``function_space``)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return spec.resolved_truncation(n)


def _scales(spec: DesignSpec, j: int) -> np.ndarray:
    """s_k, k <= j: what turns the raw draw of ``_row_blocks`` into the
    coefficients lambda_k^(1/2) G_k. Basis-expansion designs take
    sqrt(12) k^(-alpha/2) (the raw R - 1/2 has variance 1/12; k^(-alpha/2)
    rounds differently from sqrt(k^-alpha)), Brownian ones lambda_k^(1/2)."""
    ks = np.arange(1, j + 1, dtype=float)
    if spec.kind == KIND_BASIS:
        return math.sqrt(12.0) * ks ** (-spec.alpha / 2.0)
    return np.sqrt(_brownian_profile(ks))


def _row_blocks(spec: DesignSpec, n: int, width: int, rng: np.random.Generator, rows: range,
                out: np.ndarray | None = None):
    """The rows ``rows`` (a step-1 range inside range(n)) of the raw n x width
    draw of n designs' first ``width`` coefficients (``width`` <= J) from
    ``rng``, as (start, block) pairs: ``block`` holds rows
    start..start + len(block) of that draw, R - 1/2 for uniform designs and
    standard normals for Brownian ones, not yet scaled (``_scales``), with
    the bits of the whole n x width draw. Without ``out`` each block is a
    view of one reused buffer of about 1 MB that the next block overwrites;
    with ``out`` (len(rows) x width, C-contiguous) it is a view of that
    block's rows of ``out``, drawn in place. Once the blocks run out,
    ``rng`` stands where the whole n x width draw leaves it, n width
    outputs on for uniform designs.

    Uniform rows come from ``rng`` itself when they start at row 0, and
    otherwise from a copy of the PCG64 stream advanced past the rows before
    them; rows that end before row n are followed by a copy advanced to row
    n. Any stream but a PCG64 raises ``TypeError`` and does not move.
    Normal rows outside ``rows`` are drawn into the reused buffer and
    dropped.
    """
    uniform = spec.kind == KIND_BASIS
    if uniform:
        bg = rng.bit_generator
        if type(bg) is not np.random.PCG64:
            raise TypeError(f"need a PCG64 stream, got {type(bg).__name__}")
        source = pcg64_ahead(rng, rows.start * width) if rows.start else rng
        spans = [(rows, True)]
    else:
        source = rng
        spans = [(range(rows.start), False), (rows, True), (range(rows.stop, n), False)]
    size = _block_rows(width)
    # the reused buffer takes the dropped rows, and the kept ones without ``out``
    buffered = max((len(span) for span, kept in spans if not kept or out is None), default=0)
    buffer = np.empty((min(size, buffered), width))
    for span, kept in spans:
        for lo in range(span.start, span.stop, size):
            hi = min(lo + size, span.stop)
            if kept and out is not None:
                block = out[lo - rows.start:hi - rows.start]
            else:
                block = buffer[:hi - lo]
            if uniform:
                source.random(out=block)
                block -= 0.5
            else:
                source.standard_normal(out=block)
            if kept:
                yield lo, block
    if uniform:
        if rows.stop < n:
            source = pcg64_ahead(source, (n - rows.stop) * width)
        if source is not rng:
            catch_up(rng, source)


def _sample(spec: DesignSpec, n: int, seed, rows: slice) -> DesignSample:
    """Designs ``rows`` of n drawn from ``seed``: ``_row_blocks`` draws them
    in place into the sample's coefficients, and each block is scaled as it
    comes."""
    span = range(n)[rows]
    if span.step != 1:
        raise ValueError("rows must be a contiguous slice")
    rng = as_generator(seed)
    j = _truncation(spec, n)
    scales = _scales(spec, j)
    coeffs = np.empty((len(span), j))
    for _, block in _row_blocks(spec, n, j, rng, span, out=coeffs):
        block *= scales
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
    drawn after them, over the first ``width`` columns of C, the first m
    rows fitted and rows m..n kept for training:

    * ``gram`` = C[:m, :lead]^T C[:m, :width], the first ``lead`` rows of
      m Gamma-hat over the fitted rows, ``width`` columns wide (all J rows
      and columns by default);
    * ``noise`` = C[:m, :lead]^T eps[:m];
    * ``train`` = C[m:, :width]^T C[m:, :width], or None when m = n.

    Integrated-Gaussian designs hold a draw of their joint law, with m = n
    and no ``train``.
    """

    n: int
    m: int
    gram: np.ndarray
    noise: np.ndarray
    train: np.ndarray | None


def _parts(spec: DesignSpec, n: int, j: int, lead: int | None, width: int | None,
           split: int | None) -> tuple[int, int, int]:
    """(m, lead, width) of n designs with J = j coordinates, checked: m
    defaults to n, width to j and is capped at j, and lead defaults to width
    and must not exceed it. Integrated-Gaussian designs take no split, since
    their sums are drawn from the law of the fitted rows alone, and need
    lead <= n, the most columns whose Gram matrix has a Bartlett factor."""
    m = n if split is None else int(split)
    width = j if width is None else min(int(width), j)
    lead = width if lead is None else int(lead)
    if not 1 <= m <= n:
        raise ValueError(f"the split must lie in 1..{n}, got {m}")
    if width < 1:
        raise ValueError(f"the width must be >= 1, got {width}")
    if not 1 <= lead <= width:
        raise ValueError(f"the lead must lie in 1..{width}, got {lead}")
    if spec.kind == KIND_GAUSSIAN:
        if split is not None:
            raise ValueError("integrated-gaussian designs take no split: their moments are "
                             "drawn from the law of the fitted designs, with no training rows")
        if lead > n:
            raise ValueError(f"the lead must not exceed the {n} designs, got {lead}: the Gram "
                             f"matrix of {lead} columns over {n} rows has no Bartlett factor")
    return m, lead, width


def _wishart_moments(spec: DesignSpec, n: int, width: int, lead: int,
                     rng: np.random.Generator) -> DesignMoments:
    """The ``DesignMoments`` of n integrated-Gaussian designs over their
    first ``width`` columns, drawn from their joint law. With G the n x width
    standard normals of the designs, G_k their first k = ``lead`` columns
    and Lambda the spectrum:

    * L, the Bartlett factor of G_k^T G_k: L_ii^2 ~ chi^2 with n - i + 1
      degrees of freedom (i = 1..k), standard normals below the diagonal;
    * Z, k x (width - k) standard normals, and z, k standard normals;

    then gram = Lambda_k^(1/2) [L L^T, L Z] Lambda^(1/2) and
    noise = Lambda_k^(1/2) L z. ``rng`` gives, in this order, the k
    chi-squares, the k (k - 1) / 2 normals below the diagonal row by row,
    Z row by row, then z.
    """
    factor = np.diag(np.sqrt(rng.chisquare(n - np.arange(lead, dtype=float))))
    factor[np.tril_indices(lead, -1)] = rng.standard_normal(lead * (lead - 1) // 2)
    rows = np.empty((lead, width))
    rows[:, :lead] = factor @ factor.T
    rows[:, lead:] = factor @ rng.standard_normal((lead, width - lead))
    noise = factor @ rng.standard_normal(lead)
    return _scaled(DesignMoments(n, n, rows, noise, None), _scales(spec, width))


def _scaled(sums: DesignMoments, scales: np.ndarray) -> DesignMoments:
    """``sums`` of the raw draw (``_row_blocks``, ``_wishart_moments``) turned,
    in place, into those of the coefficients: entry (i, l) of the Gram sums
    times s_i s_l and entry i of the noise sum times s_i, with s = ``scales``
    over the sums' ``width`` columns."""
    lead = sums.noise.size
    sums.gram[...] *= scales
    sums.gram[...] *= scales[:lead, None]
    sums.noise[...] *= scales[:lead]
    if sums.train is not None:
        sums.train[...] *= scales
        sums.train[...] *= scales[:, None]
    return sums


def stream_moments(spec: DesignSpec, n: int, rng: np.random.Generator, *,
                   lead: int | None = None, width: int | None = None,
                   split: int | None = None) -> DesignMoments:
    """The ``DesignMoments`` of n designs drawn from ``rng`` and the n normals
    after them, without the n x J sample. Only the first ``width`` columns
    of the designs are drawn: the ones the caller reads (default J, and
    capped at J). ``lead`` (default ``width``) rows of the Gram sum are
    formed, over the first ``split`` (default all n) designs.

    Basis-expansion designs give the products of the n x width uniform draw
    (``sample_design(spec, n, rng)`` when width = J) and
    ``rng.standard_normal(n)``, up to rounding, and ``rng`` ends where that
    draw and those normals leave it: each raw block of ``_row_blocks`` is
    folded into the sums as it comes, the sums are scaled once at the end
    (``_scaled``), and the normals come from the one copy of the stream,
    advanced past the n width uniform outputs, block by block. So ``rng``
    must be a PCG64 Generator, and anything else raises ``TypeError``
    (there is no fallback).

    Integrated-Gaussian designs draw the sums from their exact joint law
    (``_wishart_moments``), from O(lead width) random numbers. They take no
    ``split`` and need ``lead`` <= n (``ValueError`` otherwise).
    """
    j = _truncation(spec, n)
    m, lead, width = _parts(spec, n, j, lead, width, split)
    if spec.kind == KIND_GAUSSIAN:
        return _wishart_moments(spec, n, width, lead, rng)
    sums = DesignMoments(n, m, np.zeros((lead, width)), np.zeros(lead),
                         np.zeros((width, width)) if m < n else None)
    # the one copy of the stream: the normals after the n width uniform outputs
    normals = pcg64_ahead(rng, n * width)
    eps = np.empty(min(_block_rows(width), n))
    for start, c in _row_blocks(spec, n, width, rng, range(n)):
        cut = min(max(m - start, 0), c.shape[0])
        fit, train = c[:cut], c[cut:]
        # every row's normal is drawn, so the copy keeps pace with the rows
        block_eps = normals.standard_normal(out=eps[:c.shape[0]])
        if cut:
            sums.gram[...] += fit[:, :lead].T @ fit
            sums.noise[...] += fit[:, :lead].T @ block_eps[:cut]
        if train.shape[0]:
            sums.train[...] += train.T @ train
    catch_up(rng, normals)
    return _scaled(sums, _scales(spec, width))


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
    designs is that of their coefficients C (n x J). The rank is the
    empirical operator's (``covariance.empirical_eigenvalues``, the same
    eigenproblem and ``RANK_TOL`` cut), so ``full_rank`` holds exactly when
    ``equivalence.build_gram_transform`` finds rank n.
    """
    if sample.n < 100:
        raise ValueError("diagnostics need n >= 100")
    c = sample.coeffs
    sq_norms = np.einsum("ij,ij->i", c, c)
    mean_sq = float(np.sum(c.mean(axis=0) ** 2))
    norms = np.sqrt(np.maximum(sq_norms, 0.0))
    xs = np.linspace(0.0, float(np.max(norms)) * 1.05 + 1e-12, 20)
    freq = np.array([np.mean(norms >= x) for x in xs])

    mean_norm = float(np.sqrt(max(mean_sq, 0.0)))
    scale = float(np.mean(norms)) / math.sqrt(sample.n)
    rank = empirical_eigenvalues(sample).size

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
