"""Deterministic derivation of child seeds and generators.

Every randomized routine in this package derives its streams from an
integer path (base seed plus structural indices such as grid index and
trial index). Streams therefore depend only on the path, never on
execution order.
"""

from __future__ import annotations

import numpy as np

MAX_SEED = 2**64 - 1


def check_seed(seed: int) -> int:
    """Validate a 64-bit unsigned seed and return it as a Python int."""
    seed = int(seed)
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def derive_rng(*path: int) -> np.random.Generator:
    """Generator for the stream identified by an integer path."""
    return np.random.default_rng(list(path))


def derive_seed(*path: int) -> int:
    """Collapse an integer path into a single 64-bit child seed."""
    ss = np.random.SeedSequence(list(path))
    return int(ss.generate_state(1, np.uint64)[0])
