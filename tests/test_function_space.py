import math

import numpy as np
import pytest

from flrlab import (
    Basis,
    DimensionError,
    GridFunction,
    ResolutionError,
    constant_function,
    fourier_basis,
    from_callable,
    inner_product,
    norm,
    project,
    synthesize,
)
from flrlab.function_space import (FOURIER, SINE, basis_function, basis_matrix, sine_matrix,
                                   trapezoid_weights)
from flrlab.serialize import read_grid_function, write_grid_function


class TestGridFunction:
    def test_requires_two_nodes(self):
        with pytest.raises(ResolutionError):
            GridFunction(np.array([1.0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            GridFunction(np.array([0.0, np.nan, 1.0]))

    def test_values_are_immutable(self):
        f = constant_function(1.0, 16)
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_arithmetic_needs_same_grid(self):
        with pytest.raises(DimensionError):
            constant_function(1.0, 16) + constant_function(1.0, 32)


class TestInnerProduct:
    def test_constants(self):
        one = constant_function(1.0, 512)
        assert inner_product(one, one) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_fourier_pair(self):
        f = from_callable(lambda t: math.sqrt(2) * np.sin(2 * np.pi * t), 512)
        g = from_callable(lambda t: math.sqrt(2) * np.cos(2 * np.pi * t), 512)
        assert abs(inner_product(f, g)) <= 1e-8

    def test_linear_ramp(self):
        f = from_callable(lambda t: t, 1024)
        assert inner_product(f, f) == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_grid_mismatch(self):
        with pytest.raises(DimensionError):
            inner_product(constant_function(1.0, 16), constant_function(1.0, 32))

    def test_symmetry_and_bilinearity(self):
        rng = np.random.default_rng(0)
        f = GridFunction(rng.standard_normal(128))
        g = GridFunction(rng.standard_normal(128))
        h = GridFunction(rng.standard_normal(128))
        assert inner_product(f, g) == pytest.approx(inner_product(g, f), rel=1e-14)
        lhs = inner_product(f + 2.0 * g, h)
        assert lhs == pytest.approx(inner_product(f, h) + 2.0 * inner_product(g, h), rel=1e-12)


class TestNorm:
    def test_constant_all_orders(self):
        f = constant_function(-3.0, 64)
        for p in (1, 2, math.inf):
            assert norm(f, p) == pytest.approx(3.0, rel=1e-12)

    def test_normalized_sine(self):
        f = from_callable(lambda t: math.sqrt(2) * np.sin(2 * np.pi * t), 512)
        assert norm(f, 2) == pytest.approx(1.0, abs=1e-8)

    def test_sup_norm_of_ramp(self):
        f = from_callable(lambda t: t, 256)
        assert norm(f, math.inf) == 1.0

    def test_l2_matches_inner_product(self):
        rng = np.random.default_rng(1)
        f = GridFunction(rng.standard_normal(200))
        assert norm(f, 2) ** 2 == pytest.approx(inner_product(f, f), abs=1e-10)

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            norm(constant_function(1.0, 16), 3)


class TestFourierBasis:
    def test_first_function_is_constant(self):
        b = fourier_basis(1, 64)
        assert np.allclose(b.functions[0], 1.0)

    def test_gram_is_identity(self):
        b = fourier_basis(3, 512)
        assert b.max_gram_defect() <= 1e-8

    def test_large_basis_still_orthonormal(self):
        b = fourier_basis(64, 1024)
        assert b.max_gram_defect() <= 1e-8

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
        c = project(b.function(1), b)
        expect = np.zeros(5)
        expect[1] = 1.0
        assert np.max(np.abs(c - expect)) <= 1e-8

    def test_zero_function(self):
        b = fourier_basis(4, 512)
        assert np.max(np.abs(project(constant_function(0.0, 512), b))) == 0.0

    def test_linearity(self):
        b = fourier_basis(3, 512)
        f = 3.0 * b.function(0) + (-2.0) * b.function(2)
        assert np.max(np.abs(project(f, b, 3) - np.array([3.0, 0.0, -2.0]))) <= 1e-7

    def test_count_bound(self):
        b = fourier_basis(3, 512)
        with pytest.raises(ValueError):
            project(b.function(0), b, 4)

    def test_synthesize_inverts_project(self):
        b = fourier_basis(8, 512)
        rng = np.random.default_rng(3)
        c = rng.standard_normal(8)
        f = synthesize(b, c)
        assert np.max(np.abs(project(f, b) - c)) <= 1e-10


class TestInvariants:
    def test_cauchy_schwarz_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            f = GridFunction(rng.standard_normal(64))
            g = GridFunction(rng.standard_normal(64))
            assert abs(inner_product(f, g)) <= norm(f, 2) * norm(g, 2) + 1e-12

    def test_parseval_on_span(self):
        b = fourier_basis(16, 512)
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = rng.standard_normal(16)
            f = synthesize(b, c)
            assert np.sum(project(f, b) ** 2) == pytest.approx(norm(f, 2) ** 2, abs=1e-6)

    def test_quadrature_converged_at_default_resolution(self):
        # Fourier pairs integrate exactly; a smooth aperiodic pair moves
        # far less than 1e-6 when the grid doubles.
        f1 = from_callable(lambda t: np.sin(2 * np.pi * t), 1024)
        g1 = from_callable(lambda t: np.cos(4 * np.pi * t), 1024)
        f2 = from_callable(lambda t: np.sin(2 * np.pi * t), 2048)
        g2 = from_callable(lambda t: np.cos(4 * np.pi * t), 2048)
        assert abs(inner_product(f1, g1) - inner_product(f2, g2)) < 1e-6
        p1 = inner_product(from_callable(lambda t: t**2, 2048),
                           from_callable(np.exp, 2048))
        p2 = inner_product(from_callable(lambda t: t**2, 4096),
                           from_callable(np.exp, 4096))
        assert abs(p1 - p2) < 1e-6


class TestSerialization:
    def test_grid_function_roundtrip(self, tmp_path):
        f = from_callable(lambda t: np.sin(t), 128)
        path = tmp_path / "f.csv"
        write_grid_function(path, f)
        g = read_grid_function(path)
        assert np.array_equal(f.values, g.values)

    def test_basis_kind_validation(self):
        with pytest.raises(ValueError):
            Basis(np.ones((2, 16)), kind="nonsense")
