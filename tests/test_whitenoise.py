import math

import numpy as np
import pytest

from flrlab import default_frequency_budget, simulate_sequence


LAM = np.arange(1, 33, dtype=float) ** -2.0
THETA = 0.5 * np.arange(1, 33, dtype=float) ** -2.5


class TestSimulateSequence:
    def test_noiseless_is_drift(self):
        obs = simulate_sequence(THETA, LAM, 100, 0.0, 1)
        assert np.array_equal(obs.y, np.sqrt(LAM) * THETA)

    def test_unit_mode(self):
        theta = np.zeros(8)
        theta[0] = 1.0
        lam = np.arange(1, 9, dtype=float) ** -2.0
        obs = simulate_sequence(theta, lam, 7, 0.0, 1)
        assert np.array_equal(obs.y, np.concatenate([[1.0], np.zeros(7)]))

    def test_standardized_noise_variance(self):
        draws = np.stack([
            simulate_sequence(np.zeros(16), LAM[:16], 50, 1.5, seed).y for seed in range(10_000)
        ])
        z = draws * math.sqrt(50) / 1.5
        v = z.var(axis=0, ddof=1).mean()
        se = math.sqrt(2.0 / (draws.shape[0] - 1)) / math.sqrt(16)
        assert abs(v - 1.0) <= 3 * se

    def test_rejects_bad_lambdas(self):
        with pytest.raises(ValueError):
            simulate_sequence(THETA[:3], np.array([1.0, -0.1, 0.01]), 10, 1.0, 0)

    def test_deterministic(self):
        a = simulate_sequence(THETA, LAM, 100, 1.0, 9).y
        b = simulate_sequence(THETA, LAM, 100, 1.0, 9).y
        assert np.array_equal(a, b)


class TestFrequencyBudget:
    def test_floor_is_64(self):
        assert default_frequency_budget(100, 2.0, 2.0) == 64

    def test_grows_with_n(self):
        assert default_frequency_budget(10**9, 2.0, 2.0) > 64
