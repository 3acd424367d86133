"""Named, reproducible random streams.

All randomness in the package flows from one master seed through
(label, index) derived streams, so replications can run in any order or in
parallel and still produce bit-identical results.
"""

from __future__ import annotations

import zlib

import numpy as np


def derive_seed_sequence(master_seed: int, label: str, index: int = 0) -> np.random.SeedSequence:
    """Seed sequence for the stream named ``label`` at replication ``index``."""
    tag = zlib.crc32(label.encode("utf-8"))
    return np.random.SeedSequence([int(master_seed), int(tag), int(index)])


def derive_rng(master_seed: int, label: str, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(derive_seed_sequence(master_seed, label, index))


def as_generator(seed) -> np.random.Generator:
    """Accept an int seed or a ready Generator; anything else is an error."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise TypeError(f"seed must be an int or numpy Generator, got {type(seed).__name__}")

