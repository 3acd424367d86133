import csv
import io
import json
from types import SimpleNamespace

import numpy as np
import pytest

from flrlab import (
    Basis,
    DesignSample,
    DesignSpec,
    GridFunction,
    build_gram_transform,
    empirical_covariance,
    fourier_basis,
    sample_basis_design,
    simulate_sequence,
)
from flrlab.covariance import CovOperator
from flrlab.equivalence import WnCoefficients
from flrlab.function_space import FOURIER, grid_nodes
from flrlab.serialize import (
    design_sample_payload,
    design_spec_payload,
    read_table,
    write_basis,
    write_design_sample,
    write_eigenfunctions,
    write_eigenpairs,
    write_grid_function,
    write_kernel,
    write_matrix,
    write_responses,
    write_seq_observation,
    write_table,
    write_wn_coefficients,
)
from flrlab.whitenoise import SeqObservation

from oracles import eigenfunctions, kernel

SPEC = DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=128)


def test_design_sample_layout(tmp_path):
    s = sample_basis_design(SPEC, 3, 5)
    csv = tmp_path / "d.csv"
    write_design_sample(csv, s)
    header = csv.read_text().splitlines()[0]
    assert header == "t,x1,x2,x3"
    meta = design_sample_payload(s)
    # a sample does not keep its seed; the key stays in the file, as null
    assert meta["n"] == 3 and "seed" in meta and meta["seed"] is None
    assert meta["design"]["kind"] == "basis-expansion"


def test_design_spec_payload_is_pinned():
    # designs.json keeps the coefficient-law and diffusion keys of earlier releases;
    # Brownian designs draw gaussian Karhunen-Loeve coefficients
    assert design_spec_payload(SPEC) == {
        "kind": "basis-expansion", "alpha": 2.0, "j_truncation": None,
        "coefficient_law": "uniform", "grid_size": 128, "sigma_x": None,
    }
    gaussian = DesignSpec(kind="integrated-gaussian", grid_size=256)
    assert design_spec_payload(gaussian) == {
        "kind": "integrated-gaussian", "alpha": 2.0, "j_truncation": None,
        "coefficient_law": "gaussian", "grid_size": 256, "sigma_x": None,
    }


def test_basis_roundtrippable_columns(tmp_path):
    b = fourier_basis(3, 64)
    csv, sidecar = tmp_path / "b.csv", tmp_path / "b.json"
    write_basis(csv, b, sidecar)
    data = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert np.allclose(data[:, 1:].T, b.functions)
    assert json.loads(sidecar.read_text())["kind"] == "fourier"


def test_wn_coefficients_roundtrip(tmp_path):
    wn = WnCoefficients(z=np.array([0.25, -1.5, 3.0]), sigma=0.5)
    path = tmp_path / "z.csv"
    write_wn_coefficients(path, wn)
    header, data = read_table(path)
    assert header == ["k", "z"]
    assert np.array_equal(data[:, 1], wn.z)


def test_seq_observation_columns(tmp_path):
    lam = np.array([1.0, 0.25, 0.111])
    obs = simulate_sequence(np.zeros(3), lam, 10, 1.0, 2)
    csv, sidecar = tmp_path / "seq.csv", tmp_path / "seq.json"
    write_seq_observation(csv, obs, sidecar, meta={"n": 10, "sigma": 1.0, "seed": 2})
    header, data = read_table(csv)
    assert header == ["k", "lambda", "y"]
    assert np.array_equal(data[:, 1], lam)
    meta = json.loads(sidecar.read_text())
    assert meta["seed"] == 2 and meta["noise_level"] == obs.noise_level


def test_eigenpairs_and_transform_matrix(tmp_path):
    s = sample_basis_design(SPEC, 4, 9)
    cov = empirical_covariance(s)
    write_eigenpairs(tmp_path / "eig.csv", cov)
    header, data = read_table(tmp_path / "eig.csv")
    assert header == ["k", "lambda"]
    assert np.array_equal(data[:, 1], cov.eigenvalues)
    t = build_gram_transform(s, cov)
    write_matrix(tmp_path / "a.csv", t.a)
    back = np.loadtxt(tmp_path / "a.csv", delimiter=",")
    assert np.array_equal(back, t.a)


def test_table_roundtrip_preserves_floats(tmp_path):
    cols = [[1, 2, 3], [0.1, 1 / 3, 2e-16]]
    write_table(tmp_path / "t.csv", ["n", "v"], cols)
    header, data = read_table(tmp_path / "t.csv")
    assert header == ["n", "v"]
    assert np.array_equal(data[:, 1], np.array(cols[1]))


# Signed zero, the smallest subnormal, extreme exponents and values whose
# shortest round-trip spelling needs all 17 significant digits.
AWKWARD = np.array([-0.0, 5e-324, 1e-300, 1e300, 0.1, 1 / 3, -2 ** 0.5,
                    1.0000000000000002, 123456789.12345678, -1.7976931348623157e308])
# Positive and decreasing, as eigenvalues are.
AWKWARD_LAMBDAS = np.array([1e300, 123456789.12345678, 1.0000000000000002, 1.0, 1 / 3, 0.1,
                            2e-16, 1e-300, 1e-310, 5e-324])


def reference_csv(header, rows) -> bytes:
    """``csv.writer`` with one ``%.17g`` call per float and ``str`` for
    anything else: the bytes every CSV artifact has had."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([("%.17g" % float(v) if isinstance(v, (float, np.floating)) else str(v))
                      for v in row] for row in rows)
    return buf.getvalue().encode("utf-8")


def reference_savetxt(tmp_path, matrix) -> bytes:
    path = tmp_path / "reference.csv"
    np.savetxt(path, matrix, delimiter=",", fmt="%.17g")
    return path.read_bytes()


class RenderedSample(DesignSample):
    """A design sample whose grid values are given, so any floats can be written."""

    def __init__(self, values, spec):
        super().__init__(coeffs=np.zeros((values.shape[0], 1)), spec=spec)
        self._given = values

    @property
    def values(self):
        return self._given


def small_operator() -> CovOperator:
    """Three eigenpairs in the first four Fourier coordinates on 9 nodes."""
    u = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 3)))[0]
    return CovOperator(eigenvalues=np.array([2.0, 0.5, 1e-300]), coeff_vectors=u,
                       basis=FOURIER, grid_size=9)


class TestWritersKeepTheirBytes:
    """Every CSV writer produces exactly the reference bytes on awkward values."""

    def test_grid_function(self, tmp_path):
        f = GridFunction(AWKWARD)
        write_grid_function(tmp_path / "f.csv", f)
        assert (tmp_path / "f.csv").read_bytes() == reference_csv(
            ["t", "value"], zip(grid_nodes(f.grid_size), f.values))

    def test_basis_and_design_sample(self, tmp_path):
        functions = np.stack([AWKWARD, -AWKWARD[::-1], AWKWARD[::-1] * 0.5])
        t = grid_nodes(AWKWARD.size)
        expected = reference_csv(["t", "f1", "f2", "f3"],
                                 ([t[i]] + list(functions[:, i]) for i in range(t.size)))
        write_basis(tmp_path / "b.csv", Basis(functions))
        assert (tmp_path / "b.csv").read_bytes() == expected

        spec = DesignSpec(kind="basis-expansion", grid_size=128)
        values = np.resize(np.concatenate([AWKWARD, -AWKWARD]), (3, 128))
        write_design_sample(tmp_path / "d.csv", RenderedSample(values, spec))
        t = grid_nodes(128)
        assert (tmp_path / "d.csv").read_bytes() == reference_csv(
            ["t", "x1", "x2", "x3"], ([t[i]] + list(values[:, i]) for i in range(128)))

    def test_indexed_columns(self, tmp_path):
        write_responses(tmp_path / "y.csv", AWKWARD)
        assert (tmp_path / "y.csv").read_bytes() == reference_csv(
            ["index", "y"], ([i + 1, v] for i, v in enumerate(AWKWARD)))
        write_wn_coefficients(tmp_path / "z.csv", WnCoefficients(z=AWKWARD))
        assert (tmp_path / "z.csv").read_bytes() == reference_csv(
            ["k", "z"], ([k + 1, v] for k, v in enumerate(AWKWARD)))
        write_seq_observation(tmp_path / "s.csv", SeqObservation(AWKWARD, AWKWARD_LAMBDAS, 1.0))
        assert (tmp_path / "s.csv").read_bytes() == reference_csv(
            ["k", "lambda", "y"],
            ([k + 1, l, v] for k, (l, v) in enumerate(zip(AWKWARD_LAMBDAS, AWKWARD))))
        write_eigenpairs(tmp_path / "e.csv", SimpleNamespace(eigenvalues=AWKWARD_LAMBDAS))
        assert (tmp_path / "e.csv").read_bytes() == reference_csv(
            ["k", "lambda"], ([k + 1, l] for k, l in enumerate(AWKWARD_LAMBDAS)))

    def test_matrix_and_kernel_match_savetxt(self, tmp_path):
        matrix = np.stack([AWKWARD, AWKWARD[::-1]])
        write_matrix(tmp_path / "m.csv", matrix)
        assert (tmp_path / "m.csv").read_bytes() == reference_savetxt(tmp_path, matrix)
        write_matrix(tmp_path / "v.csv", AWKWARD)
        assert (tmp_path / "v.csv").read_bytes() == reference_savetxt(tmp_path, AWKWARD)
        # an operator's kernel is rendered from its coefficients and written
        # like any matrix
        op = small_operator()
        write_kernel(tmp_path / "k.csv", op)
        assert (tmp_path / "k.csv").read_bytes() == reference_savetxt(tmp_path, kernel(op))

    def test_eigenfunctions_render_from_coefficients(self, tmp_path):
        op = small_operator()
        write_eigenfunctions(tmp_path / "phi.csv", op)
        write_basis(tmp_path / "b.csv", Basis(eigenfunctions(op)))
        assert (tmp_path / "phi.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_table_columns_keep_their_spelling(self, tmp_path):
        columns = [list(range(1, 11)), list(AWKWARD), [i % 3 == 0 for i in range(10)],
                   list(np.arange(10, 20)), [float(v) for v in AWKWARD[::-1]],
                   list(np.array([True, False] * 5))]
        header = ["n", "value", "flag", "count", "other", "np_flag"]
        write_table(tmp_path / "t.csv", header, columns)
        assert (tmp_path / "t.csv").read_bytes() == reference_csv(header, zip(*columns))

    def test_table_rejects_a_column_of_floats_and_ints(self, tmp_path):
        with pytest.raises(ValueError, match="column 2 mixes floats"):
            write_table(tmp_path / "t.csv", ["n", "v"], [[1, 2], [0.5, 1]])
