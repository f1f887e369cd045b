import ctypes
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings

from pfge import harness, nn

# Every run draws the same examples, so a property test that fails fails the
# same way each time; example timings on a loaded machine are not a
# correctness signal, so there is no deadline. A test's own @settings still
# overrides either.
settings.register_profile("pfge", derandomize=True, deadline=None)
settings.load_profile("pfge")


@contextmanager
def blas_threads(threads: int):
    """Run the block with OpenBLAS on ``threads`` threads, then restore the
    count in effect before. One thread is where a forward over enough rows
    runs in row tiles (see ``nn._splits_exactly``), so with one the block
    must tile where OpenBLAS's kernel is one checked for it; a test skips
    only where numpy's BLAS is not OpenBLAS or its kernel was not
    checked."""
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
            if core not in nn._EXACT_TILE_CORES:
                pytest.skip(f"OpenBLAS's {core} kernel was not checked for exact row tiles")
            assert nn._splits_exactly()
        yield
    finally:
        set_threads(before)


class SerialThread:
    """``nn._BackgroundThread``'s contract with no thread: ``submit`` runs the
    call at once, under the error state in effect, and keeps its reply for
    ``result``, which hands the replies out in submission order. Once a call
    raises, the calls submitted after it do not run and reply with its
    error. An exception leaving the block drops the replies; without one,
    the first error among the replies not taken is raised on exit."""

    def __init__(self, name: str):
        self.name, self._replies, self._error = name, [], None

    def __enter__(self):
        return self

    def submit(self, call, *args) -> None:
        value = None
        if self._error is None:
            try:
                value = call(*args)
            except Exception as exc:
                self._error = exc
        self._replies.append((self._error, value))

    def result(self):
        error, value = self._replies.pop(0)
        if error is not None:
            raise error
        return value

    def __exit__(self, exc_type, exc, tb) -> None:
        replies, self._replies = self._replies, []
        for error, _ in replies if exc is None else ():
            if error is not None:
                raise error


@pytest.fixture
def serial_threads(monkeypatch):
    """A context manager under which every ``_BackgroundThread`` the package
    opens, in ``nn`` and in ``harness``, is a ``SerialThread``."""
    @contextmanager
    def swapped():
        with monkeypatch.context() as patch:
            patch.setattr(nn, "_BackgroundThread", SerialThread)
            patch.setattr(harness, "_BackgroundThread", SerialThread)
            yield
    return swapped
