"""Deterministic CSV/JSON serialization for every shared artifact.

All floats are written with repr-faithful precision and no timestamps, so a
rerun with the same config and seed produces byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .covariance import CovOperator
from .designs import KIND_BASIS, DesignSample, DesignSpec
from .equivalence import WnCoefficients
from .function_space import Basis, GridFunction, grid_nodes
from .whitenoise import SeqObservation

FLOAT_FMT = "%.17g"


def _fmt(x) -> str:
    return FLOAT_FMT % float(x)


def _write_rows(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_grid_function(path: Path, f: GridFunction) -> None:
    _write_rows(path, ["t", "value"],
                ([_fmt(t), _fmt(v)] for t, v in zip(f.t, f.values)))


def read_grid_function(path: Path) -> GridFunction:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return GridFunction(data[:, 1])


def write_basis(path: Path, basis: Basis, sidecar: Path | None = None) -> None:
    t = grid_nodes(basis.grid_size)
    header = ["t"] + [f"f{k + 1}" for k in range(basis.count)]
    _write_rows(path, header,
                ([_fmt(t[i])] + [_fmt(v) for v in basis.functions[:, i]]
                 for i in range(basis.grid_size)))
    if sidecar is not None:
        write_json(sidecar, {"kind": basis.kind, "count": basis.count,
                             "grid_size": basis.grid_size})


def write_design_sample(path: Path, sample: DesignSample, sidecar: Path | None = None) -> None:
    t = grid_nodes(sample.grid_size)
    header = ["t"] + [f"x{j + 1}" for j in range(sample.n)]
    vals = sample.values
    _write_rows(path, header,
                ([_fmt(t[i])] + [_fmt(v) for v in vals[:, i]]
                 for i in range(sample.grid_size)))
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
    _write_rows(path, ["index", "y"],
                ([str(i + 1), _fmt(v)] for i, v in enumerate(np.asarray(y, dtype=float))))


def read_responses(path: Path) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 1]


def write_wn_coefficients(path: Path, wn: WnCoefficients) -> None:
    _write_rows(path, ["k", "z"],
                ([str(k + 1), _fmt(v)] for k, v in enumerate(wn.z)))


def read_wn_coefficients(path: Path, sigma: float | None = None) -> WnCoefficients:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return WnCoefficients(z=data[:, 1], sigma=sigma)


def write_seq_observation(path: Path, obs: SeqObservation, sidecar: Path | None = None,
                          meta: dict | None = None) -> None:
    _write_rows(path, ["k", "lambda", "y"],
                ([str(k + 1), _fmt(l), _fmt(v)]
                 for k, (l, v) in enumerate(zip(obs.lambdas, obs.y))))
    if sidecar is not None:
        payload = {"count": obs.count, "noise_level": obs.noise_level}
        payload.update(meta or {})
        write_json(sidecar, payload)


def write_eigenpairs(path: Path, op: CovOperator) -> None:
    _write_rows(path, ["k", "lambda"],
                ([str(k + 1), _fmt(l)] for k, l in enumerate(op.eigenvalues)))


def write_eigenfunctions(path: Path, op: CovOperator) -> None:
    write_basis(path, op.eigenfunctions)


def write_kernel(path: Path, op: CovOperator) -> None:
    np.savetxt(path, op.kernel, delimiter=",", fmt=FLOAT_FMT)


def write_matrix(path: Path, matrix: np.ndarray) -> None:
    """Plain numeric matrix dump (e.g. the whitening transform's Q or A)."""
    np.savetxt(path, np.asarray(matrix, dtype=float), delimiter=",", fmt=FLOAT_FMT)


def write_table(path: Path, header: list[str], columns) -> None:
    """Write named columns of equal length."""
    rows = zip(*[[_fmt(v) if isinstance(v, (float, np.floating)) else str(v) for v in col]
                 for col in columns])
    _write_rows(path, header, rows)


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data
