"""Row ranges of a uniform draw: the same bits, and the stream left in the
same state, as one ``rng.random`` call."""

import numpy as np
import pytest

from flrlab import DesignSpec, sample_basis_design, sample_design
from flrlab.streams import uniform_rows


def assert_same_draw(make_rng, shape, rows=slice(None)):
    """uniform_rows against rng.random: bits, the state and the next normal."""
    rng_a, rng_b = make_rng(), make_rng()
    a = uniform_rows(rng_a, shape, rows)
    b = rng_b.random(shape)[rows]
    assert a.shape == b.shape and a.tobytes() == b.tobytes()
    np.testing.assert_equal(rng_a.bit_generator.state, rng_b.bit_generator.state)
    assert rng_a.standard_normal() == rng_b.standard_normal()
    return a


class TestUniformRows:
    @pytest.mark.parametrize("rows", [slice(None), slice(1086, None), slice(3, 17),
                                      slice(0, 1), slice(9999, None), slice(500, 500),
                                      slice(-100, None)])
    def test_row_range_has_the_bits_of_the_full_draw(self, rows):
        a = assert_same_draw(lambda: np.random.default_rng(5), (10_000, 128), rows)
        # a PCG64 stream draws only the requested rows
        assert a.base is None

    def test_spent_32_bit_value_is_kept(self):
        # a 32-bit draw, then another: the buffered half is spent but its
        # value stays in the state, as a double draw leaves it
        def make():
            rng = np.random.default_rng(3)
            rng.integers(0, 2**32, dtype=np.uint32)
            rng.integers(0, 2**32, dtype=np.uint32)
            assert not rng.bit_generator.state["has_uint32"]
            return rng

        assert make().bit_generator.state["uinteger"] != 0
        assert_same_draw(make, (301, 7), slice(100, None))

    def test_one_dimensional_and_higher_shapes(self):
        assert_same_draw(lambda: np.random.default_rng(1), (1001,), slice(10, 20))
        assert_same_draw(lambda: np.random.default_rng(1), (31, 4, 5), slice(5, None))

    def test_other_generators_draw_the_whole_block(self):
        def buffered():
            rng = np.random.default_rng(4)
            rng.integers(0, 2**32, dtype=np.uint32)
            assert rng.bit_generator.state["has_uint32"]
            return rng

        for make in (lambda: np.random.Generator(np.random.MT19937(4)),
                     lambda: np.random.Generator(np.random.PCG64DXSM(4)), buffered):
            assert_same_draw(make, (301, 7))
            assert assert_same_draw(make, (301, 7), slice(100, 200)).base is not None

    def test_step_slices_are_rejected(self):
        with pytest.raises(ValueError):
            uniform_rows(np.random.default_rng(0), (10, 2), slice(0, 10, 2))


class TestDesignRows:
    SPEC = DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=256)

    @pytest.mark.parametrize("kind", ["basis-expansion", "integrated-gaussian"])
    def test_row_range_equals_the_subset_of_the_full_draw(self, kind):
        spec = DesignSpec(kind=kind, alpha=2.0, grid_size=256)
        rng_a, rng_b = np.random.default_rng(2), np.random.default_rng(2)
        part = sample_design(spec, 3000, rng_a, slice(2600, 3000))
        full = sample_design(spec, 3000, rng_b)
        assert part.coeffs.tobytes() == full.subset(slice(2600, 3000)).coeffs.tobytes()
        assert rng_a.standard_normal() == rng_b.standard_normal()

    def test_whole_draw_keeps_its_seed(self):
        assert sample_basis_design(self.SPEC, 20, 4).seed == 4
        assert sample_basis_design(self.SPEC, 20, 4, slice(0, 20)).seed == 4
        assert sample_basis_design(self.SPEC, 20, 4, slice(5, 20)).seed is None
