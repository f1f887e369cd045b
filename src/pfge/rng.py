"""Seeded random-number streams.

All randomness in the package flows through Philox, a counter-based generator
with an explicit 128-bit key. Each purpose (weight init, epoch shuffling,
curve-t sampling, synthetic data noise) gets its own stream derived from
``(seed, stream id)``, so runs are reproducible bit-for-bit and a stream can
be replayed in isolation without consuming draws from any other.
"""

import numpy as np

from .errors import InvalidArgumentError

# Stream identifiers. Values are part of the determinism contract: changing
# them changes every derived random sequence.
STREAM_INIT = 1
STREAM_SHUFFLE = 2
STREAM_CURVE = 3
STREAM_DATA = 4


def stream_rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    """Return a fresh generator for (seed, stream, index).

    ``index`` separates sub-streams of one purpose, e.g. independent dataset
    draws under a single experiment seed. The Philox key packs
    ``seed << 32 | stream << 16 | index``, so ``stream`` and ``index`` must
    lie in [0, 2**16) and ``seed`` in [0, 2**96) for keys never to alias.
    """
    seed, stream, index = int(seed), int(stream), int(index)
    if not (0 <= seed < 2**96 and 0 <= stream < 2**16 and 0 <= index < 2**16):
        raise InvalidArgumentError(
            f"need 0 <= seed < 2**96 and 0 <= stream, index < 2**16, got "
            f"seed={seed}, stream={stream}, index={index}"
        )
    key = (seed << 32) | (stream << 16) | index
    return np.random.Generator(np.random.Philox(key=key))
