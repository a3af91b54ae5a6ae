"""Deterministic derivation of child RNG streams from a single base seed.

All randomness in the package flows from one 64-bit base seed. Replications,
fixed-point iterations and worker shards each get an independent stream
derived from (base_seed, key...) through numpy's SeedSequence, so results do
not depend on scheduling or worker count.
"""

from __future__ import annotations

import random

import numpy as np
from numpy.random import SeedSequence  # loaded with jsqlab, not lazily inside the first run

from .errors import check_int

MAX_SEED = 2**64 - 1


def check_seed(seed: int) -> int:
    return check_int("seed", seed, 0, MAX_SEED)


def derive_seed(base_seed: int, *key: int) -> int:
    """Stable 64-bit child seed for (base_seed, key); each key is an integer >= 0."""
    ss = SeedSequence(entropy=check_seed(base_seed), spawn_key=tuple(check_int("seed key", k, 0) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def derive_stream(base_seed: int, *key: int) -> random.Random:
    """Independent Mersenne Twister stream for (base_seed, key)."""
    return random.Random(derive_seed(base_seed, *key))
