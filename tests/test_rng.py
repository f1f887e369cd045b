import numpy as np
import pytest

from pfge.errors import InvalidArgumentError
from pfge.rng import stream_rng

# First three 32-bit draws per (seed, stream, index); these keys are part of
# the determinism contract and must never change.
PINNED = {
    (0, 1, 0): [3585683173, 2892281340, 110233118],
    (7, 3, 0): [2575645701, 3780783516, 1410414266],
    (7, 3, 5): [1209955880, 4142501991, 4218874502],
    (123456, 2, 65535): [391125253, 1639409578, 60236376],
    (2**40, 4, 1): [1522041813, 3748515097, 1388221041],
}


def draws(seed, stream, index=0):
    return stream_rng(seed, stream, index).integers(0, 2**32, size=3).tolist()


@pytest.mark.parametrize("key", sorted(PINNED))
def test_in_range_keys_are_pinned(key):
    assert draws(*key) == PINNED[key]


def test_largest_in_range_seed_accepted():
    stream_rng(2**96 - 1, 65535, 65535)


@pytest.mark.parametrize(
    "seed,stream,index",
    [(7, 3, 65536), (7, 1, 131072), (7, 65536, 0), (2**96, 0, 0)],
)
def test_out_of_range_fields_rejected(seed, stream, index):
    # (7, 3, 65536) and (7, 1, 131072) used to share the key of (7, 3, 0).
    with pytest.raises(InvalidArgumentError):
        stream_rng(seed, stream, index)


@pytest.mark.parametrize("seed,stream,index", [(-1, 1, 0), (1, -1, 0), (1, 1, -1)])
def test_negative_inputs_rejected(seed, stream, index):
    with pytest.raises(InvalidArgumentError):
        stream_rng(seed, stream, index)


def test_streams_differ():
    assert draws(7, 3, 0) != draws(7, 3, 1)
    assert draws(7, 3, 0) != draws(7, 2, 0)
    assert draws(7, 3, 0) != draws(8, 3, 0)
