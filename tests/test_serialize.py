import json

import numpy as np

from flrlab import (
    DesignSpec,
    build_gram_transform,
    empirical_covariance,
    fourier_basis,
    sample_basis_design,
    simulate_sequence,
)
from flrlab.equivalence import WnCoefficients
from flrlab.serialize import (
    design_spec_payload,
    read_table,
    read_wn_coefficients,
    write_basis,
    write_design_sample,
    write_eigenpairs,
    write_matrix,
    write_seq_observation,
    write_table,
    write_wn_coefficients,
)

SPEC = DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=128)


def test_design_sample_layout(tmp_path):
    s = sample_basis_design(SPEC, 3, 5)
    csv, sidecar = tmp_path / "d.csv", tmp_path / "d.json"
    write_design_sample(csv, s, sidecar)
    header = csv.read_text().splitlines()[0]
    assert header == "t,x1,x2,x3"
    meta = json.loads(sidecar.read_text())
    assert meta["n"] == 3 and meta["seed"] == 5
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
    back = read_wn_coefficients(path, sigma=0.5)
    assert np.array_equal(back.z, wn.z) and back.sigma == 0.5


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
