"""Named, reproducible random streams.

All randomness in the package flows from one master seed through
(label, index) derived streams, so replications can run in any order or in
parallel and still produce bit-identical results.

A uniform draw can also skip rows of its block without changing the bits
of the rest (``uniform_rows``): a uniform double consumes exactly one 64-bit
output of a PCG64 stream, so row a of an n x cols block is what the stream
advanced by a * cols outputs draws first. The same device reads what follows
a block before the block is drawn: ``pcg64_ahead`` copies a stream that many
outputs ahead, and ``catch_up`` moves the stream to where such a copy
stopped (``designs.stream_moments`` draws its normals this way).
"""

from __future__ import annotations

import math
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


def _skippable(rng: np.random.Generator) -> bool:
    """A plain PCG64 with no buffered 32-bit half: its doubles map one to one
    onto its 64-bit outputs, and ``advance`` skips them exactly."""
    bg = rng.bit_generator
    return type(bg) is np.random.PCG64 and not bg.state["has_uint32"]


def pcg64_ahead(rng: np.random.Generator, outputs: int = 0) -> np.random.Generator:
    """A new Generator on a copy of ``rng``'s PCG64 stream, ``outputs`` 64-bit
    outputs ahead: what ``rng`` draws after that many doubles. ``rng`` does
    not move. Any other bit generator raises ``TypeError``: only a PCG64 is
    copied and advanced this way."""
    bg = rng.bit_generator
    if type(bg) is not np.random.PCG64:
        raise TypeError(f"need a PCG64 stream, got {type(bg).__name__}")
    copy = np.random.PCG64(0)
    copy.state = bg.state
    return np.random.Generator(copy.advance(outputs) if outputs else copy)


def catch_up(rng: np.random.Generator, ahead: np.random.Generator) -> None:
    """Move ``rng`` to where ``ahead``, a ``pcg64_ahead`` copy of it, stands.
    ``rng`` keeps its buffered 32-bit half, which double and normal draws
    never read and ``advance`` clears."""
    state = rng.bit_generator.state
    rng.bit_generator.state = {**ahead.bit_generator.state,
                               "has_uint32": state["has_uint32"], "uinteger": state["uinteger"]}


def uniform_rows(rng: np.random.Generator, shape: tuple, rows: slice = slice(None)) -> np.ndarray:
    """``rng.random(shape)[rows]`` with the same bits, leaving ``rng`` in the
    state that call leaves it in; ``rows`` is a slice with step 1 of the
    first axis.

    On a skippable stream (``_skippable``) only the requested rows are drawn,
    from a copy of the stream advanced past the outputs of the rows before
    them, and the caller's stream then skips the whole block's outputs. Any
    other generator draws the whole block and returns a view of its rows.
    """
    shape = tuple(shape)
    n = shape[0]
    start, stop, step = rows.indices(n)
    if step != 1:
        raise ValueError("rows must be a contiguous slice")
    if (start, stop) == (0, n):
        return rng.random(shape)
    if not _skippable(rng):
        return rng.random(shape)[start:stop]
    cols = math.prod(shape[1:])
    out = pcg64_ahead(rng, start * cols).random((max(stop - start, 0),) + shape[1:])
    catch_up(rng, pcg64_ahead(rng, n * cols))
    return out
