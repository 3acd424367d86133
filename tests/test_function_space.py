import math

import numpy as np
import pytest

from flrlab import Basis, GridFunction, ResolutionError, fourier_basis
from flrlab.function_space import (FOURIER, SINE, basis_function, basis_matrix, grid_nodes,
                                   sine_matrix)
from flrlab.serialize import write_grid_function

from oracles import grid_inner, grid_project, synthesize, trapezoid_weights


def inner(f, g) -> float:
    """Trapezoid quadrature of f g on the grid values."""
    return float(trapezoid_weights(f.size) @ (f * g))


def project(values, count: int) -> np.ndarray:
    """The first ``count`` Fourier coefficients of grid values."""
    return grid_project(values, FOURIER, count)


class TestGridFunction:
    def test_requires_two_nodes(self):
        with pytest.raises(ResolutionError):
            GridFunction(np.array([1.0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            GridFunction(np.array([0.0, np.nan, 1.0]))

    def test_values_are_immutable(self):
        f = GridFunction(np.ones(16))
        with pytest.raises(ValueError):
            f.values[0] = 2.0


class TestInnerProduct:
    def test_constants(self):
        one = np.ones(512)
        assert inner(one, one) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_fourier_pair(self):
        t = grid_nodes(512)
        f = math.sqrt(2) * np.sin(2 * np.pi * t)
        g = math.sqrt(2) * np.cos(2 * np.pi * t)
        assert abs(inner(f, g)) <= 1e-8

    def test_linear_ramp(self):
        t = grid_nodes(1024)
        assert inner(t, t) == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_symmetry_and_bilinearity(self):
        rng = np.random.default_rng(0)
        f, g, h = rng.standard_normal((3, 256))
        assert inner(f, g) == pytest.approx(inner(g, f), rel=1e-14)
        lhs = inner(f + 2.0 * g, h)
        assert lhs == pytest.approx(inner(f, h) + 2.0 * inner(g, h), rel=1e-12)
        # the projection of a grid function is linear too
        assert np.allclose(project(f + 2.0 * g, 8), project(f, 8) + 2.0 * project(g, 8),
                           rtol=0.0, atol=1e-12)


class TestNorm:
    def test_normalized_sine(self):
        f = math.sqrt(2) * np.sin(2 * np.pi * grid_nodes(512))
        assert math.sqrt(inner(f, f)) == pytest.approx(1.0, abs=1e-8)


class TestFourierBasis:
    def test_first_function_is_constant(self):
        b = fourier_basis(1, 64)
        assert np.allclose(b.functions[0], 1.0)

    def test_gram_is_identity(self):
        b = fourier_basis(3, 512).functions
        assert np.max(np.abs(grid_inner(b, b) - np.eye(3))) <= 1e-8

    def test_large_basis_still_orthonormal(self):
        b = fourier_basis(64, 1024).functions
        assert np.max(np.abs(grid_inner(b, b) - np.eye(64))) <= 1e-8

    def test_nyquist_guard(self):
        with pytest.raises(ResolutionError):
            fourier_basis(5, 8)


class TestSineBasis:
    @pytest.mark.parametrize("grid_size", [256, 512, 1024])
    def test_orthonormal_up_to_one_below_the_grid(self, grid_size):
        # trapezoid quadrature keeps D - 1 sine functions orthonormal, not D
        rows = sine_matrix(grid_size - 1, grid_size)
        w = trapezoid_weights(grid_size)
        assert np.max(np.abs((rows * w) @ rows.T - np.eye(grid_size - 1))) <= 1e-12
        with pytest.raises(ResolutionError):
            sine_matrix(grid_size, grid_size)

    @pytest.mark.parametrize("grid_size", [65, 1001])
    def test_rows_are_the_full_tables_bit_for_bit(self, grid_size):
        # rows are rendered on demand; at row lengths that are not multiples
        # of 8 a vectorized sin sees each entry in another lane than in the
        # full table, and must still give the same bits
        t = np.linspace(0.0, 1.0, grid_size)
        ks = np.arange(1, grid_size, dtype=float) - 0.5
        table = math.sqrt(2.0) * np.sin(np.outer(ks * math.pi, t))
        for count in (1, 2, 7, 9, grid_size // 2, grid_size - 2, grid_size - 1):
            rows = sine_matrix(count, grid_size)
            assert not rows.flags.writeable
            assert rows.tobytes() == table[:count].tobytes()

    def test_nested_and_named(self):
        assert np.array_equal(sine_matrix(5, 64), sine_matrix(40, 64)[:5])
        assert np.array_equal(basis_matrix(SINE, 3, 64), sine_matrix(3, 64))
        assert np.array_equal(basis_matrix(FOURIER, 3, 64), fourier_basis(3, 64).functions)
        t = np.linspace(0.0, 1.0, 64)
        assert np.allclose(basis_function([0.0, 2.0], SINE, 64).values,
                           2.0 * math.sqrt(2.0) * np.sin(1.5 * math.pi * t), atol=1e-14)
        with pytest.raises(ValueError, match="unknown basis"):
            basis_matrix("wavelet", 3, 64)


class TestProject:
    def test_recovers_basis_function(self):
        b = fourier_basis(5, 512)
        c = project(b.functions[1], 5)
        expect = np.zeros(5)
        expect[1] = 1.0
        assert np.max(np.abs(c - expect)) <= 1e-8

    def test_zero_function(self):
        assert np.max(np.abs(project(np.zeros(512), 4))) == 0.0

    def test_linearity(self):
        b = fourier_basis(3, 512).functions
        f = 3.0 * b[0] + (-2.0) * b[2]
        assert np.max(np.abs(project(f, 3) - np.array([3.0, 0.0, -2.0]))) <= 1e-7

    def test_count_bound(self):
        b = fourier_basis(3, 512)
        with pytest.raises(ValueError, match="longer than the basis"):
            synthesize(b, np.ones(4))

    def test_synthesize_inverts_project(self):
        b = fourier_basis(8, 512)
        rng = np.random.default_rng(3)
        c = rng.standard_normal(8)
        f = synthesize(b, c)
        assert np.max(np.abs(project(f.values, 8) - c)) <= 1e-10


class TestInvariants:
    def test_cauchy_schwarz_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            f, g = rng.standard_normal((2, 64))
            assert abs(inner(f, g)) <= math.sqrt(inner(f, f) * inner(g, g)) + 1e-12

    def test_parseval_on_span(self):
        b = fourier_basis(16, 512)
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = rng.standard_normal(16)
            f = synthesize(b, c).values
            assert np.sum(project(f, 16) ** 2) == pytest.approx(inner(f, f), abs=1e-6)

    def test_quadrature_converged_at_default_resolution(self):
        # Fourier pairs integrate exactly; a smooth aperiodic pair moves
        # far less than 1e-6 when the grid doubles.
        def pair(f, g, grid_size):
            t = grid_nodes(grid_size)
            return inner(f(t), g(t))

        def sin1(t):
            return np.sin(2 * np.pi * t)

        def cos2(t):
            return np.cos(4 * np.pi * t)

        assert abs(pair(sin1, cos2, 1024) - pair(sin1, cos2, 2048)) < 1e-6
        assert abs(pair(np.square, np.exp, 2048) - pair(np.square, np.exp, 4096)) < 1e-6


class TestSerialization:
    def test_grid_function_roundtrip(self, tmp_path):
        f = GridFunction(np.sin(grid_nodes(128)))
        path = tmp_path / "f.csv"
        write_grid_function(path, f)
        back = np.loadtxt(path, delimiter=",", skiprows=1)[:, 1]
        assert np.array_equal(f.values, back)

    def test_basis_kind_validation(self):
        with pytest.raises(ValueError):
            Basis(np.ones((2, 16)), kind="nonsense")
