"""Every threaded path writes what a serial one writes: the four verbs on
the golden "relu" and "wide" variants and on ``tiling_doc``'s model, at one
BLAS thread, where the forwards over a whole split of "wide" and "tiling"
run in row tiles, half of them on a helper in ``pretrain``, ``run``,
``evaluate`` and at every point of the curve's grid, leave byte-identical
files with real threads and with
``conftest.SerialThread`` in their place, whether ``run`` trains or takes
its trajectory from the record of an earlier run. Only the checkpoint
sidecars' ``created_at`` and ``report.json``'s ``timing`` may differ."""

import re
import shutil
import threading
from unittest import mock

import pytest

from conftest import blas_threads
from pfge import harness, nn
from pfge.config import config_from_dict
from test_helper_threads import curve_doc

# The two values a rerun may change, blanked before comparing.
TIMESTAMPS = re.compile(rb'"created_at": "[^"]*"|"timing": \{[^}]*\}')


def pipeline(cfg, warm: bool = False) -> tuple:
    """Every file ``pretrain``, ``run``, ``evaluate`` and ``connectivity_run``
    write under ``cfg.output_dir``, by relative path and with its
    timestamps blanked, and the names of the threads that ran a layer.
    If ``warm``, a first ``pretrain`` and ``run``, whose threads are not
    recorded, leave a trajectory record for the second ``run`` to read."""
    names, dense = set(), nn._dense

    def recording(*args):
        names.add(threading.current_thread().name)
        return dense(*args)

    if warm:
        harness.run(cfg, harness.pretrain(cfg))
    with mock.patch.object(nn, "_dense", recording):
        harness.run(cfg, harness.pretrain(cfg))
        harness.evaluate(cfg)
        harness.connectivity_run(cfg)
    files = {path.relative_to(cfg.output_dir).as_posix(): TIMESTAMPS.sub(b"", path.read_bytes())
             for path in sorted(cfg.output_dir.rglob("*")) if path.is_file()}
    shutil.rmtree(cfg.output_dir)
    return files, names


def variant_config(tmp_path, variant: str):
    return config_from_dict(curve_doc(tmp_path, variant))


def assert_twins(threaded: dict, serial: dict) -> None:
    assert sorted(serial) == sorted(threaded)
    assert len(threaded) >= 15
    for name in threaded:
        assert serial[name] == threaded[name], name


@pytest.mark.parametrize("variant, threads", [
    ("relu", {"MainThread"}),
    ("wide", {"MainThread", "pfge-layer-half"}),
    ("tiling", {"MainThread", "pfge-layer-half"})])
def test_threads_write_what_the_serial_twin_writes(tmp_path, serial_threads, variant, threads):
    cfg = variant_config(tmp_path, variant)
    with blas_threads(1):
        threaded, names = pipeline(cfg)
        assert names == threads
        with serial_threads():
            serial, names = pipeline(cfg)
        assert names == {"MainThread"}
    assert_twins(threaded, serial)


@pytest.mark.parametrize("variant, threads", [
    ("relu", {"MainThread"}),
    ("wide", {"MainThread", "pfge-layer-half"}),
    ("tiling", {"MainThread", "pfge-layer-half"})])
def test_a_recorded_run_writes_what_the_serial_twin_writes(tmp_path, serial_threads, variant,
                                                            threads):
    # fge's ``run`` reads the record and scores on the main thread, with a
    # helper where the test split's forwards tile.
    cfg = variant_config(tmp_path, variant)
    with blas_threads(1):
        threaded, names = pipeline(cfg, warm=True)
        assert names == threads
        with serial_threads():
            serial, names = pipeline(cfg, warm=True)
        assert names == {"MainThread"}
    assert_twins(threaded, serial)
