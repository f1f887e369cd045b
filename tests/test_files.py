"""The one module that writes and reads the package's files.

The byte pins were computed before every writer was routed through
``pfge.files``, so a writer that changes a cell, a line ending or a JSON
layout shows up here. The failed-write tests check that a write which
raises part way leaves the previous file byte-identical.
"""

import ast
import builtins
import csv
import errno
import hashlib
import io
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from pfge import files
from pfge.checkpoint import Checkpoint, header_path, save_checkpoint
from pfge.cli import main
from pfge.data import Dataset, save_csv
from pfge.errors import DataFormatError, NumericError
from pfge.metrics import PredictionBatch, reliability
from pfge.nn import LayerSpec, ModelWeights
from test_golden import CURVE_VARIANTS, golden_doc

PACKAGE = Path(files.__file__).parent


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def leftover_temps(directory) -> list:
    return sorted(p.name for p in Path(directory).rglob("*.tmp"))


class TestPinnedBytes:
    def test_golden_relu_run_and_evaluation(self, tmp_path, capsys):
        doc = golden_doc(tmp_path / "runs", "relu", "fge")
        doc.update(json.loads(json.dumps(CURVE_VARIANTS["relu"])))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        for verb in ("pretrain", "run", "evaluate"):
            capsys.readouterr()
            assert main([verb, str(cfg)]) == 0
        run_dir = tmp_path / "runs" / "fge-seed11"
        evaluation = (run_dir / "evaluation.json").read_text()
        assert capsys.readouterr().out == evaluation
        assert json.loads(evaluation)["metrics"] == {
            "accuracy": 0.6166666666666667,
            "ece": 0.11954416242840746,
            "nll": 0.6585393411358619,
            "nll_pct": 65.85393411358619,
        }
        assert sha256(run_dir / "ensemble_series.csv") == (
            "fc58806b1f8d5986a048e9295ea6956dcf1babc9a6fa69c2a21e7ec2059f1666")
        assert sha256(run_dir / "evaluation_reliability.csv") == (
            "272f9a7021dc70deadf0b791ad0bd0c43a89265b48f501f1378580bb5f21f067")
        assert leftover_temps(tmp_path) == []

    def test_save_csv_text(self, tmp_path):
        ds = Dataset(np.array([[0.1, -2.5e-7], [3.0, 1e300]]), np.array([1, 0]), classes=2)
        save_csv(ds, tmp_path / "two.csv")
        assert (tmp_path / "two.csv").read_bytes() == (
            b"f0,f1,label\r\n0.1,-2.5e-07,1\r\n3.0,1e+300,0\r\n")

    def test_checkpoint_sidecar_text(self, tmp_path):
        weights = ModelWeights(LayerSpec((2, 2), "tanh"), np.arange(6, dtype=np.float64) / 4)
        ckpt = Checkpoint(weights, {"mean": [0.5, -1.0], "std": [2.0, 0.25]},
                          {"role": "member", "index": 3, "note": "x"})
        save_checkpoint(tmp_path / "c.ckpt", ckpt)
        digest = "efaf2930147d30f661f859984798168e3bf67019d29c5e9ae66c02cf36b1422c"
        assert sha256(tmp_path / "c.ckpt") == digest
        assert (tmp_path / "c.ckpt.json").read_text() == (
            '{\n  "activation": "tanh",\n'
            f'  "digest": "sha256:{digest}",\n'
            '  "format_version": 1,\n'
            '  "layer_sizes": [\n    2,\n    2\n  ],\n'
            '  "meta": {\n    "index": 3,\n    "note": "x",\n    "role": "member"\n  },\n'
            '  "n_params": 6,\n'
            '  "standardization": {\n'
            '    "mean": [\n      0.5,\n      -1.0\n    ],\n'
            '    "std": [\n      2.0,\n      0.25\n    ]\n  }\n}\n')


@pytest.fixture
def fail_third_row(monkeypatch):
    """Call it to make every later ``csv.writer`` raise on its third
    ``writerow``, after the header and one row have gone to the file."""
    real = csv.writer

    def failing(fh, *args, **kwargs):
        inner = real(fh, *args, **kwargs)
        calls = itertools.count(1)

        class Writer:
            def writerow(self, row):
                if next(calls) == 3:
                    raise RuntimeError("write failed")
                return inner.writerow(row)

        return Writer()

    return lambda: monkeypatch.setattr(csv, "writer", failing)


class _FullDisk:
    """A binary file that takes half of each write, then fails like a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(bytes(memoryview(data))[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


class TestFailedWriteKeepsOldFile:
    def test_save_csv(self, tmp_path, fail_third_row):
        path = tmp_path / "data.csv"
        save_csv(Dataset(np.arange(10.0).reshape(5, 2), np.arange(5), classes=5), path)
        before = path.read_bytes()
        fail_third_row()
        with pytest.raises(RuntimeError, match="write failed"):
            save_csv(Dataset(-np.arange(8.0).reshape(4, 2), np.arange(4), classes=4), path)
        assert path.read_bytes() == before
        assert leftover_temps(tmp_path) == []

    def test_reliability_csv(self, tmp_path, fail_third_row):
        path = tmp_path / "reliability.csv"
        probs = np.array([[0.9, 0.1], [0.35, 0.65], [0.2, 0.8], [0.55, 0.45]])
        reliability(PredictionBatch(probs, [0, 1, 0, 0]), 5).write_csv(path)
        before = path.read_bytes()
        fail_third_row()
        with pytest.raises(RuntimeError, match="write failed"):
            reliability(PredictionBatch(probs[::-1], [1, 1, 0, 1]), 4).write_csv(path)
        assert path.read_bytes() == before
        assert leftover_temps(tmp_path) == []

    def test_checkpoint_payload(self, tmp_path, monkeypatch):
        path = tmp_path / "member-0.ckpt"
        spec = LayerSpec((2, 3, 2))
        values = np.linspace(-1.0, 1.0, spec.param_count)
        save_checkpoint(path, Checkpoint(ModelWeights(spec, values), meta={"index": 0}))
        before = path.read_bytes(), header_path(path).read_bytes()
        real_open = builtins.open

        def open_payload_on_full_disk(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            writing = any(flag in mode for flag in "wax+")
            return _FullDisk(fh) if writing and ".json" not in str(file) else fh

        # ``Path.write_bytes`` opens through ``io.open``, the same function.
        monkeypatch.setattr(builtins, "open", open_payload_on_full_disk)
        monkeypatch.setattr(io, "open", open_payload_on_full_disk)
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(path, Checkpoint(ModelWeights(spec, -values), meta={"index": 1}))
        monkeypatch.undo()
        assert (path.read_bytes(), header_path(path).read_bytes()) == before
        assert leftover_temps(tmp_path) == []


class TestReplacing:
    def test_complete_block_replaces_the_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with files.replacing(path) as fh:
            fh.write(b"new")
            assert path.read_bytes() == b"old"
        assert path.read_bytes() == b"new"
        assert leftover_temps(tmp_path) == []

    def test_interrupted_block_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.bin"
        with pytest.raises(KeyboardInterrupt):
            with files.replacing(path) as fh:
                fh.write(b"partial")
                raise KeyboardInterrupt
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("file_in_the_way", [False, True])
    def test_failed_open_names_the_target(self, tmp_path, file_in_the_way):
        # A missing directory, or a file where the directory should be.
        parent = tmp_path / "missing"
        if file_in_the_way:
            parent.write_text("not a directory")
        target = parent / "x.csv"
        ds = Dataset(np.zeros((2, 2)), [0, 1], classes=2)
        with pytest.raises(OSError) as info:
            save_csv(ds, target)
        assert info.value.filename == str(target)
        assert str(info.value).endswith(f"'{target}'")
        assert ".tmp" not in str(info.value)

    def test_write_csv_cells(self, tmp_path):
        path = tmp_path / "cells.csv"
        files.write_csv(path, ["a", "b", "c"], [[np.int64(3), np.float32(0.5), 7],
                                                [np.int32(-1), 1e-300, np.float64(2.0)]])
        assert path.read_bytes() == b"a,b,c\r\n3,0.5,7\r\n-1,1e-300,2.0\r\n"


class TestReadJson:
    @pytest.mark.parametrize("text", ["NaN", '{"a": [1, Infinity]}', '{"a": -Infinity}',
                                      '{"a": 1e400}', '{"a": -2.5e309}',
                                      '{"a": -1' + "0" * 400 + "}"],
                             ids=["nan", "infinity", "minus-infinity", "1e400", "-2.5e309",
                                  "int-beyond-float"])
    def test_non_finite_numbers_are_rejected(self, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=r"doc\.json: invalid JSON thing: non-finite"):
            files.read_json(path, DataFormatError, "thing")

    def test_finite_numbers_read_back_exactly(self, tmp_path):
        doc = {"x": [0.1, -2.5e-7, 1.7976931348623157e308, 5e-324, 12, -0.0, 10**308]}
        path = tmp_path / "doc.json"
        files.write_json(path, doc)
        assert path.read_text() == files.json_text(doc)
        assert files.read_json(path, DataFormatError, "thing") == doc

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_numbers_are_not_written(self, tmp_path, value):
        # Whatever the package writes, read_json reads back.
        path = tmp_path / "doc.json"
        files.write_json(path, {"x": 1.0})
        with pytest.raises(NumericError, match=r"doc\.json: cannot write JSON"):
            files.write_json(path, {"x": value})
        assert files.read_json(path, DataFormatError, "thing") == {"x": 1.0}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]

    def test_non_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(b'{"\xff": 1}')
        with pytest.raises(DataFormatError, match=r"doc\.json: thing is not UTF-8"):
            files.read_json(path, DataFormatError, "thing")


# Calls that write a file, by the name they are made through.
_WRITE_METHODS = {"write_text", "write_bytes"}


def _mode_writes(mode) -> bool:
    """Whether an ``open`` mode can write; one that is not a literal string can."""
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return re.fullmatch(r"[rbt]*[wax+][rwxabt+]*", mode.value) is not None


def file_writes(source: str) -> list:
    """Line numbers of the calls in ``source`` that write a file: ``open`` in
    a write mode, ``.write_text``, ``.write_bytes`` and ``os.replace``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
        if isinstance(func, ast.Name):
            # ``open(file, mode)``: a mode in any form counts.
            writes = func.id == "open" and any(map(_mode_writes, modes + node.args[1:2]))
        elif isinstance(func, ast.Attribute):
            # ``io.open(file, mode)`` or ``Path(file).open(mode)``: a literal
            # mode in either place counts.
            literals = [a for a in node.args[:2]
                        if isinstance(a, ast.Constant) and isinstance(a.value, str)]
            writes = (func.attr in _WRITE_METHODS
                      or (func.attr == "replace" and isinstance(func.value, ast.Name)
                          and func.value.id == "os")
                      or (func.attr == "open" and any(map(_mode_writes, modes + literals))))
        else:
            writes = False
        if writes:
            found.append(node.lineno)
    return found


class TestOneWriter:
    def test_only_the_files_module_writes(self):
        writes = {path.name: file_writes(path.read_text())
                  for path in sorted(PACKAGE.glob("*.py")) if path.name != "files.py"}
        assert {name: lines for name, lines in writes.items() if lines} == {}

    def test_files_module_is_seen_writing(self):
        assert file_writes((PACKAGE / "files.py").read_text())

    @pytest.mark.parametrize("source", [
        'open(p, "w")', 'open(p, mode="ab")', 'open(p, "r+")', "open(p, m)",
        'p.write_text("x")', "p.write_bytes(b)", "os.replace(a, b)",
        'Path(p).open("w")', 'io.open(p, "xb")',
    ])
    def test_guard_sees_each_kind_of_write(self, source):
        assert file_writes(source) == [1]

    @pytest.mark.parametrize("source", [
        "open(p)", 'open(p, "rb")', 'Path(p).open("r")', "p.read_text()",
        's.replace("a", "b")',
    ])
    def test_guard_ignores_reads(self, source):
        assert file_writes(source) == []
