"""Named deterministic random streams.

System generation, measurement noise, and gradient masks each draw from
their own stream so that, e.g., changing the noise level never perturbs the
mask sequence.  Streams are derived from integer seeds via SeedSequence,
which is stable across platforms and numpy versions.
"""

from __future__ import annotations

import numpy as np

SYSTEM_STREAM = 0
NOISE_STREAM = 1
MASK_STREAM = 2


def stream(seed: int, stream_id: int) -> np.random.Generator:
    """Generator for the named stream ``stream_id`` of the integer ``seed``."""
    return np.random.default_rng(np.random.SeedSequence((int(seed),), spawn_key=(stream_id,)))


def combine(*seeds: int) -> int:
    """Fold several integer seeds into one, deterministically."""
    ss = np.random.SeedSequence(tuple(int(s) for s in seeds))
    return int(ss.generate_state(1, np.uint64)[0])
