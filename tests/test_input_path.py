"""The input path: the CSV fast path against the validating parser, the
parsed-split cache against both, what a CSV load holds in memory, and who
owns the arrays of a dataset."""

import hashlib
import io
import shutil
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pfge import data, harness
from pfge.config import config_from_dict
from pfge.errors import DataFormatError
from pfge.data import (
    Dataset,
    _load_csv_checked,
    _load_plain_csv,
    apply_standardization,
    feature_stats,
    gen_blobs,
    load_csv,
    load_idx,
    save_csv,
)

PLAIN_FEATURES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["+.5", "1.", "-0", "1E3", "2e-3", "007", "-.25e+2"]),
)
PLAIN_LABELS = st.one_of(st.integers(0, 4).map(str), st.sampled_from(["+1", "007", "-0"]))
# Cells that are not plain but that the validating parser still accepts.
QUIRKY_FEATURES = st.sampled_from(['"1.5"', "1_0", " 1", "1 ", "\t2", " -3e2 "])
QUIRKY_LABELS = st.sampled_from(['"1"', " 1", "1 ", "1_0", '"0"'])
BAD_FEATURES = st.sampled_from([
    "'1.5'", "#1", "1e999", "-1e999", "nan", "inf", "", ".", "1e", "+", "-", "1.2.3",
    "1e5.5", "0x10", "--1", "é", "1,5",
])
OVERSIZED_LABEL = "99999999999999999999999"
BAD_LABELS = st.sampled_from(["1.0", "-1", "-7", "", "1e0", "x", "nan", OVERSIZED_LABEL])
ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_texts(draw, modes=("plain", "quirky", "broken")) -> bytes:
    """CSV files that are plain numeric ASCII, quirky but valid, or broken in
    one of the ways the two parsers could disagree on."""
    mode = draw(st.sampled_from(modes))
    odd = 0.0 if mode == "plain" else draw(st.sampled_from([0.05, 0.3]))
    broken = mode == "broken"
    odd_features = st.one_of(QUIRKY_FEATURES, BAD_FEATURES) if broken else QUIRKY_FEATURES
    odd_labels = st.one_of(QUIRKY_LABELS, BAD_LABELS) if broken else QUIRKY_LABELS

    def chance():
        return draw(st.floats(0, 1)) < odd

    n_features = draw(st.integers(1, 4))
    header = [f"f{i}" for i in range(n_features)] + ["label"]
    if mode != "plain" and draw(st.integers(0, 9)) == 0:
        quoted = ['"f0"'] + header[1:]
        header = draw(st.sampled_from([quoted, header[:-1], header[::-1], header + ["x"]])
                      if broken else st.just(quoted))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0 if broken else 1, 6))):
        row = [draw(odd_features if chance() else PLAIN_FEATURES) for _ in range(n_features)]
        row.append(draw(odd_labels if chance() else PLAIN_LABELS))
        if broken and chance():
            row = draw(st.sampled_from([row[:-1], row + ["0"], [], [""]]))
        lines.append(",".join(row))
    if broken and chance():
        lines.insert(draw(st.integers(1, len(lines))), "")
    mixed = draw(st.booleans())
    ending = draw(ENDINGS)
    text = "".join(line + (draw(ENDINGS) if mixed else ending) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if broken and chance():
        text += draw(st.sampled_from(["\n", "\r\n\r\n", " \n"]))
    raw = text.encode("utf-8")
    if broken and chance():
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\x00", b"\x0b"])) + raw[at:]
    return raw


def load_checked(path):
    """The validating parser alone, on the bytes of ``path``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return _load_csv_checked(raw, path)


def load_plain(raw: bytes):
    """The fast path alone, on ``raw`` as the bytes of a file."""
    return _load_plain_csv(io.BytesIO(raw), "x.csv")


def outcome(parse, path):
    try:
        ds = parse(path)
    except Exception as exc:
        return type(exc), str(exc)
    return ds.inputs.shape, ds.inputs.tobytes(), ds.labels.tobytes(), ds.classes, ds.name


# Chunk sizes that cut a file of a few dozen bytes into many pieces: a
# ``\r\n`` split across two chunks, a ``\r`` that ends the file, a header
# longer than a chunk and a last line without a line end all occur.
TINY_CHUNKS = st.integers(1, 7)


class TestCsvFastPath:
    @settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=csv_texts())
    @example(raw=f"f0,label\n1.5,0\n2.5,{OVERSIZED_LABEL}\n".encode())
    def test_agrees_with_validating_parser(self, tmp_path, raw):
        self.check_agreement(tmp_path, raw)

    @settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=csv_texts(), chunk=TINY_CHUNKS)
    @example(raw=f"f0,label\n1.5,0\n2.5,{OVERSIZED_LABEL}\n".encode(), chunk=3)
    @example(raw=b"f0,label\r\n1.5,0\r\n2.5,1\r\n", chunk=9)
    @example(raw=b"f0,label\r1.5,0\r2.5,1\r", chunk=4)
    def test_agrees_with_validating_parser_in_tiny_chunks(self, tmp_path, monkeypatch, raw,
                                                          chunk):
        monkeypatch.setattr(data, "_CHUNK_BYTES", chunk)
        self.check_agreement(tmp_path, raw)

    @staticmethod
    def check_agreement(tmp_path, raw):
        path = tmp_path / "data.csv"
        path.write_bytes(raw)
        got = outcome(load_csv, path)
        assert got == outcome(load_checked, path)
        # Through the parsed-split cache, cold and then warm, nothing changes.
        cache = tmp_path / "split-cache"
        shutil.rmtree(cache, ignore_errors=True)
        for _ in range(2):
            assert outcome(lambda p: load_csv(p, cache), path) == got
        if OVERSIZED_LABEL.encode() in raw:
            # Only a label cell can hold it; it fails as a typed, located error.
            assert got[0] is DataFormatError

    @pytest.mark.parametrize("parse", [load_csv, load_checked])
    @pytest.mark.parametrize("label", [OVERSIZED_LABEL, str(2**63)])
    def test_oversized_label_is_a_data_format_error(self, tmp_path, parse, label):
        path = tmp_path / "data.csv"
        path.write_text(f"f0,label\n1.5,0\n2.5,{label}\n")
        with pytest.raises(DataFormatError, match=r"data\.csv:3: label"):
            parse(path)

    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        inputs=st.integers(1, 5).flatmap(lambda d: st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=d, max_size=d),
            min_size=1, max_size=8)),
        data=st.data(),
    )
    def test_save_csv_output_takes_fast_path(self, tmp_path, inputs, data):
        labels = data.draw(st.lists(st.integers(0, 9), min_size=len(inputs),
                                    max_size=len(inputs)))
        original = Dataset(np.array(inputs), np.array(labels), classes=10)
        path = tmp_path / "saved.csv"
        save_csv(original, path)
        with open(path, "rb") as fh:
            fast, digest = _load_plain_csv(fh, path)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert fast.inputs.tobytes() == original.inputs.tobytes()
        assert fast.labels.tobytes() == original.labels.tobytes()
        assert fast.classes == max(labels) + 1

    @pytest.mark.parametrize("body", [
        b"1,-1\n", b"1.5,2.0\n", b"1,\n", b"1e999,0\n", b"nan,0\n", b"1_0,0\n",
        b" 1,0\n", b'"1",0\n', b"1,0\n\n", b"1,0,0\n", b"1\n",
    ])
    def test_declines_what_validating_parser_must_judge(self, body):
        assert load_plain(b"f0,label\n" + body) is None

    def test_accepts_every_line_ending(self):
        for ending in (b"\n", b"\r\n", b"\r"):
            raw = ending.join([b"f0,f1,label", b"1.5,-2,0", b"+.25,3e1,1"]) + ending
            ds, digest = load_plain(raw)
            assert np.array_equal(ds.inputs, [[1.5, -2.0], [0.25, 30.0]])
            assert ds.labels.tolist() == [0, 1]
            assert digest == hashlib.sha256(raw).hexdigest()

    @settings(max_examples=200)
    @given(raw=csv_texts(modes=("plain",)), chunk=st.one_of(TINY_CHUNKS, st.just(1 << 20)))
    @example(raw=b"f0,label\r1.5,0\r2.5,1\r", chunk=2)
    @example(raw=b"f0,label\r\n1.5,0\r\n", chunk=9)
    def test_plain_files_take_the_fast_path_in_any_chunks(self, raw, chunk):
        # The oracle above cannot see a plain file declined to the validating
        # parser, which gives the same dataset; this property can.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_CHUNK_BYTES", chunk)
            ds, digest = load_plain(raw)
        want = _load_csv_checked(raw, "x.csv")
        assert ds.inputs.tobytes() == want.inputs.tobytes()
        assert ds.labels.tobytes() == want.labels.tobytes()
        assert (ds.inputs.shape, ds.classes, ds.name) == (want.inputs.shape, want.classes, "x.csv")
        assert digest == hashlib.sha256(raw).hexdigest()


class TestCsvMemory:
    def test_a_load_holds_a_chunk_of_the_file_not_the_file(self, tmp_path, monkeypatch):
        # About 5 MB: 8,000 rows of 32 features, written at repr precision.
        centers = np.random.default_rng(0).normal(0.0, 3.0, size=(8, 32))
        path = tmp_path / "big.csv"
        save_csv(gen_blobs(centers, 1000, 1.0, seed=1), path)
        size = path.stat().st_size
        assert 4e6 < size < 6e6
        cache = tmp_path / "cache"

        def traced_peak():
            tracemalloc.start()
            try:
                ds = load_csv(path, cache)
                return tracemalloc.get_traced_memory()[1], ds
            finally:
                tracemalloc.stop()

        # A miss parses the file as it reads it: one chunk, the parsed table
        # and the dataset's own arrays, well under twice the file.
        miss, cold = traced_peak()
        assert len(list(cache.iterdir())) == 1
        assert miss < 2 * size, (miss, size)
        # A hit hashes the file chunk by chunk and reads the arrays: less
        # than the file.
        monkeypatch.setattr(data, "_parse_csv", lambda p: pytest.fail(f"{p} was parsed"))
        hit, warm = traced_peak()
        assert hit < size, (hit, size)
        assert warm.inputs.tobytes() == cold.inputs.tobytes()
        assert warm.labels.tobytes() == cold.labels.tobytes()


class TestOwnership:
    def test_public_constructor_copies(self):
        inputs = np.asfortranarray(np.arange(6.0).reshape(3, 2))
        labels = np.array([0, 1, 1])
        ds = Dataset(inputs, labels, classes=2)
        inputs[0, 0] = 99.0
        labels[0] = 1
        assert ds.inputs[0, 0] == 0.0
        assert ds.labels[0] == 0
        assert ds.inputs.flags.c_contiguous

    def test_standardization_leaves_source_intact(self):
        ds = gen_blobs([[3.0, -2.0], [0.0, 1.0]], n_per_class=20, sd=2.0, seed=6)
        before = ds.inputs.tobytes()
        mean, std = feature_stats(ds)
        out = apply_standardization(ds, mean, std)
        assert ds.inputs.tobytes() == before
        assert out.inputs.tobytes() == ((ds.inputs - mean) / std).tobytes()
        assert not out.inputs.flags.writeable

    def test_load_idx_matches_reference(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=5 * 3 * 4, dtype=np.uint8).tobytes()
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(struct.pack(">IIII", 0x803, 5, 3, 4) + pixels)
        labels.write_bytes(struct.pack(">II", 0x801, 5) + bytes([0, 1, 2, 1, 0]))
        ds = load_idx(images, labels)
        want = np.frombuffer(pixels, dtype=np.uint8).astype(np.float64) / 255.0
        assert ds.inputs.tobytes() == want.tobytes()
        assert ds.inputs.shape == (5, 12)
        assert not ds.inputs.flags.writeable

    @pytest.mark.parametrize("kind", ["two_spirals", "blobs", "idx", "csv", "csv-parsed"])
    def test_load_split_standardizes_bit_for_bit(self, tmp_path, kind):
        # ``load_split`` standardizes in the array the loader returned. For
        # "csv" the standardized load hits the split cache; for "csv-parsed"
        # the cache is emptied first, so it parses and writes the entry.
        dataset = {"kind": "two_spirals", "n_per_class": 24, "noise_sd": 0.1,
                   "test_n_per_class": 40}
        if kind == "blobs":
            dataset = {"kind": "blobs", "centers": [[0.0, 1.0], [2.0, -1.0]], "sd": 0.7,
                       "n_per_class": 24, "test_n_per_class": 40}
        elif kind == "idx":
            rng = np.random.default_rng(3)
            for split, n in (("train", 48), ("test", 80)):
                pixels = rng.integers(0, 256, size=2 * n, dtype=np.uint8).tobytes()
                (tmp_path / f"{split}-images.idx").write_bytes(
                    struct.pack(">IIII", 0x803, n, 1, 2) + pixels)
                (tmp_path / f"{split}-labels.idx").write_bytes(
                    struct.pack(">II", 0x801, n) + bytes([i % 2 for i in range(n)]))
                dataset[f"{split}_images"] = str(tmp_path / f"{split}-images.idx")
                dataset[f"{split}_labels"] = str(tmp_path / f"{split}-labels.idx")
            dataset["kind"] = "idx"
        elif kind.startswith("csv"):
            for split, seed in (("train", 1), ("test", 2)):
                save_csv(gen_blobs([[0.0, 1.0], [2.0, -1.0]], 15, 1.0, seed),
                         tmp_path / f"{split}.csv")
            dataset = {"kind": "csv", "train_path": str(tmp_path / "train.csv"),
                       "test_path": str(tmp_path / "test.csv")}
        cfg = config_from_dict({
            "seed": 5, "output_dir": str(tmp_path / "runs"), "dataset": dataset,
            "model": {"sizes": [2, 8, 2]}, "batch_size": 12,
            "algorithm": "swa", "schedule": {"alpha1": 0.1, "alpha2": 0.005, "cycle_epochs": 1},
            "budget": {"total_epochs": 2},
        })
        cache = cfg.output_dir / harness.SPLIT_CACHE_DIR
        mean, std = feature_stats(harness.load_split(cfg, "train"))
        stats = {"mean": mean.tolist(), "std": std.tolist()}
        for split in ("train", "test"):
            raw = harness.load_split(cfg, split)
            if kind == "csv-parsed":
                shutil.rmtree(cache)
            out = harness.load_split(cfg, split, stats)
            assert out.inputs.tobytes() == ((raw.inputs - mean) / std).tobytes()
            assert out.inputs.tobytes() == apply_standardization(raw, mean, std).inputs.tobytes()
            assert out.labels.tobytes() == raw.labels.tobytes()
            assert not out.inputs.flags.writeable
            assert not out.labels.flags.writeable
            if kind.startswith("csv"):
                # The cache keeps the raw split, whatever was done to the
                # array it was read into or written from.
                digest = hashlib.sha256(Path(dataset[f"{split}_path"]).read_bytes()).hexdigest()
                (entry,) = [p for p in cache.iterdir() if str(np.load(p)["digest"]) == digest]
                assert np.load(entry)["inputs"].tobytes() == raw.inputs.tobytes()
