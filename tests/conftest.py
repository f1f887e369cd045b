import ctypes
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings

from pfge import nn

# Every run draws the same examples, so a property test that fails fails the
# same way each time; example timings on a loaded machine are not a
# correctness signal, so there is no deadline. A test's own @settings still
# overrides either.
settings.register_profile("pfge", derandomize=True, deadline=None)
settings.load_profile("pfge")


@contextmanager
def blas_threads(threads: int):
    """Run the block with OpenBLAS on ``threads`` threads, then restore the
    count in effect before. One thread is where a loop splits wide layers
    (see ``nn._splits_exactly``), so with one the block must split where
    OpenBLAS's kernel is one checked for it; a test skips only where numpy's
    BLAS is not OpenBLAS or its kernel was not checked."""
    get, set_threads = nn._openblas("get_num_threads"), nn._openblas("set_num_threads", None)
    if get is None:
        assert "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"][
            "name"], "numpy's OpenBLAS was not found"
        pytest.skip("numpy's BLAS is not OpenBLAS")
    before = get()
    set_threads(threads)
    try:
        if threads == 1:
            core = nn._openblas("get_corename", ctypes.c_char_p)().decode()
            if core not in nn._EXACT_SPLIT_CORES:
                pytest.skip(f"OpenBLAS's {core} kernel was not checked for exact column halves")
            assert nn._splits_exactly()
        yield
    finally:
        set_threads(before)
