"""Grid functions and the orthonormal bases of L2([0,1]) that designs use.

Functions are sampled on a uniform grid of D nodes including both endpoints.
Coefficients in a basis are the working representation and the only input
the library takes; the grid serves rendering alone (``basis_function``,
``basis_matrix`` and the writers in ``serialize``). Under the composite
trapezoid rule on this grid, the Fourier functions below the Nyquist
frequency and the first D - 1 sine functions sqrt2 sin((k - 1/2) pi t) are
orthonormal to machine precision (to 1.3e-13 at D = 1024), which is why a
Brownian design takes at most D - 1 sine terms. These two orthonormal bases,
named FOURIER and SINE, are the coordinates every design, operator and theta
is written in; ``basis_matrix`` renders either on the grid. Fourier rows are
cached; sine rows, of which a Brownian design on 1024 nodes uses up to 1023
(8 MB), are computed for each render, only as many as it asks for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, ResolutionError

DEFAULT_GRID_SIZE = 1024


@lru_cache(maxsize=32)
def grid_nodes(grid_size: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, grid_size)
    t.flags.writeable = False
    return t


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GridFunction:
    """A real function on [0,1] sampled at D equispaced nodes."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ResolutionError("a grid function needs a 1-d array of at least 2 values")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid function values must be finite")
        object.__setattr__(self, "values", _freeze(v))

    @property
    def grid_size(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class Basis:
    """A finite family of grid functions, one per row of ``functions``."""

    functions: np.ndarray  # shape (J, D)
    kind: str = "custom"   # fourier | eigen | custom

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.functions, dtype=float))
        if m.shape[0] < 1 or m.shape[1] < 2:
            raise ResolutionError("basis needs at least one function on >= 2 nodes")
        object.__setattr__(self, "functions", _freeze(m))
        if self.kind not in ("fourier", "eigen", "custom"):
            raise ValueError(f"unknown basis kind {self.kind!r}")

    @property
    def count(self) -> int:
        return self.functions.shape[0]

    @property
    def grid_size(self) -> int:
        return self.functions.shape[1]


def fourier_basis(count: int, grid_size: int = DEFAULT_GRID_SIZE) -> Basis:
    """First ``count`` functions of {1, sqrt2 cos(2 pi t), sqrt2 sin(2 pi t), ...}.

    Requires grid_size >= 2 * count so every retained frequency stays safely
    below the Nyquist limit of the grid.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if grid_size < 2 * count:
        raise ResolutionError(
            f"grid of {grid_size} nodes cannot resolve {count} Fourier functions"
        )
    t = grid_nodes(grid_size)
    rows = np.empty((count, grid_size))
    rows[0] = 1.0
    root2 = math.sqrt(2.0)
    for j in range(1, count):
        m = (j + 1) // 2
        if j % 2 == 1:
            rows[j] = root2 * np.cos(2.0 * math.pi * m * t)
        else:
            rows[j] = root2 * np.sin(2.0 * math.pi * m * t)
    return Basis(rows, kind="fourier")


@lru_cache(maxsize=8)
def fourier_matrix(count: int, grid_size: int) -> np.ndarray:
    """Read-only (count, D) matrix of ``fourier_basis(count, grid_size)``, cached.

    Row k does not depend on ``count``, so the matrices for different counts
    are nested: the first rows of a longer one equal a shorter one bit for bit.
    """
    return fourier_basis(count, grid_size).functions


def _sine_rows(count: int, grid_size: int) -> np.ndarray:
    """The rows sqrt2 sin((k - 1/2) pi t), k = 1..count, read-only. Each
    entry is computed on its own, so the rows of a shorter matrix equal
    those of a longer one bit for bit."""
    t = grid_nodes(grid_size)
    ks = np.arange(1, count + 1, dtype=float) - 0.5
    rows = math.sqrt(2.0) * np.sin(np.outer(ks * math.pi, t))
    rows.flags.writeable = False
    return rows


def sine_matrix(count: int, grid_size: int) -> np.ndarray:
    """Read-only (count, D) matrix of psi_k = sqrt2 sin((k - 1/2) pi t), the
    eigenfunctions of the Brownian covariance min(s, t); nested like
    ``fourier_matrix``, but computed on each call and not cached: the full
    table is 8 MB at D = 1024, and a study renders it rarely.

    The trapezoid rule keeps them orthonormal up to count = D - 1 and no
    further, so larger counts are rejected.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > grid_size - 1:
        raise ResolutionError(f"grid of {grid_size} nodes cannot resolve {count} sine functions")
    return _sine_rows(count, grid_size)


FOURIER = "fourier"   # 1, sqrt2 cos(2 pi t), sqrt2 sin(2 pi t), ...
SINE = "sine"         # sqrt2 sin((k - 1/2) pi t), k = 1, 2, ...


def basis_matrix(basis: str, count: int, grid_size: int) -> np.ndarray:
    """(count, D) matrix of the named orthonormal basis, FOURIER or SINE."""
    if basis == FOURIER:
        return fourier_matrix(count, grid_size)
    if basis == SINE:
        return sine_matrix(count, grid_size)
    raise ValueError(f"unknown basis {basis!r}")


def basis_function(coefficients, basis: str, grid_size: int = DEFAULT_GRID_SIZE) -> GridFunction:
    """sum_k c_k b_k over the named basis, rendered on the grid."""
    c = np.asarray(coefficients, dtype=float)
    return GridFunction(c @ basis_matrix(basis, c.size, grid_size))


def same_coordinates(a, b) -> None:
    """Raise unless a and b (samples or operators) hold coefficients in one
    basis for one grid: products across bases would mix silently."""
    if a.basis != b.basis:
        raise DimensionError(f"{a.basis} coefficients cannot meet {b.basis} coefficients")
    if a.grid_size != b.grid_size:
        raise DimensionError(f"grid sizes differ: {a.grid_size} vs {b.grid_size}")


def pad_coefficients(coefficients: np.ndarray, width: int) -> np.ndarray:
    """The first ``width`` coefficients, zero-padded to that length."""
    out = np.zeros(width)
    out[: min(coefficients.size, width)] = coefficients[:width]
    return out
