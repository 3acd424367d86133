"""The in-package Kolmogorov-Smirnov survival function has the bits of scipy's."""

import numpy as np
import pytest
from scipy import stats

from flrlab import kolmogorov
from flrlab.kolmogorov import kstwo_sf


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


# (n, statistics, routine each point reaches); None marks a closed form. The
# dispatch reads t = n x and n x^2; the limits are Simard and L'Ecuyer's.
BRANCHES = {
    # x <= 1/(2n) and x >= 1: outside the open support, 1 and 0
    "outside-support": (10, [-0.5, 0.0, 0.03, 0.05, 1.0, 1.7], None),
    # Ruben-Gambino, 1/2 < t <= 1, as a product (n <= 140) and through Stirling
    "low-end-small-n": (50, [0.0101, 0.015, 0.02], None),
    "low-end-large-n": (1000, [0.000501, 0.0008, 0.001], None),
    # Ruben-Gambino, t >= n - 1
    "high-end": (20, [0.95, 0.96, 0.99], None),
    # x >= 1/2: twice the one-sided tail, exactly
    "half-or-more": (20, [0.5, 0.6, 0.9], "smirnov"),
    # n <= 140: n x^2 <= 0.754693, <= 4, then Miller's approximation
    "dmtw-small-n": (100, [0.011, 0.05, 0.0868], "dmtw"),
    "pomeranz": (100, [0.087, 0.15, 0.2], "pomeranz"),
    "smirnov-small-n": (100, [0.2001, 0.3, 0.45], "smirnov"),
    # n > 140: n x^2 >= 370 is 0, >= 2.2 is twice smirnov, then by n x^1.5
    "zero-large-n": (10000, [0.1924, 0.3, 0.45], None),
    "smirnov-large-n": (10000, [0.0149, 0.05, 0.19], "smirnov"),
    "dmtw-large-n": (10000, [0.00011, 0.001, 0.0026], "dmtw"),
    "pelz-good": (10000, [0.0028, 0.008, 0.0148], "pelz-good"),
    # past n = 100000, Pelz-Good throughout, down to its z < 0.0417 cut-off
    "pelz-good-huge-n": (200000, [1e-5, 5e-5, 0.003], "pelz-good"),
}


@pytest.mark.parametrize("case", sorted(BRANCHES))
def test_bits_are_those_of_kstwo_sf(case, monkeypatch):
    n, xs, routine = BRANCHES[case]
    calls = {"dmtw": 0, "pomeranz": 0, "pelz-good": 0, "smirnov": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name, attr in (("dmtw", "_dmtw_cdf"), ("pomeranz", "_pomeranz_cdf"),
                       ("pelz-good", "_pelz_good_cdf"), ("smirnov", "smirnov")):
        monkeypatch.setattr(kolmogorov, attr, counted(name, getattr(kolmogorov, attr)))
    xs = np.array(xs)
    got = kstwo_sf(xs, float(n))
    assert np.array_equal(bits(got), bits(stats.kstwo.sf(xs, float(n))))
    assert calls == {name: len(xs) if name == routine else 0 for name in calls}


def test_bits_over_a_grid_of_sizes():
    rng = np.random.default_rng(11)
    for n in list(range(1, 150, 7)) + [141, 200, 1000, 100001]:
        xs = np.concatenate([rng.uniform(0.0, 1.0, 8),
                             rng.uniform(0.0, min(1.0, 3.0 / np.sqrt(n)), 8)])
        assert np.array_equal(bits(kstwo_sf(xs, n)), bits(stats.kstwo.sf(xs, n))), n


def test_shapes_and_nan_follow_scipy():
    d = np.array([[0.2, np.nan], [0.4, 0.01], [0.05, 2.0]])
    for n in (3, 40.0, np.float64(400)):
        assert np.array_equal(bits(kstwo_sf(d, n)), bits(stats.kstwo.sf(d, n)))
    scalar = kstwo_sf(0.3, 10)
    assert isinstance(scalar, float) and scalar == stats.kstwo.sf(0.3, 10)
    assert kstwo_sf(np.empty(0), 10).shape == (0,)


@pytest.mark.parametrize("n", [0, -3, 10.5, np.nan, np.inf])
def test_sample_size_must_be_a_positive_integer(n):
    with pytest.raises(ValueError, match="integer >= 1"):
        kstwo_sf([0.1, 0.2], n)
