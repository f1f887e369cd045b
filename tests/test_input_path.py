"""The input path: the CSV fast path against the validating parser, and who
owns the arrays of a dataset."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pfge import harness
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
def csv_texts(draw) -> bytes:
    """CSV files that are plain numeric ASCII, quirky but valid, or broken in
    one of the ways the two parsers could disagree on."""
    mode = draw(st.sampled_from(["plain", "quirky", "broken"]))
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


def outcome(parse, path):
    try:
        ds = parse(path)
    except Exception as exc:
        return type(exc), str(exc)
    return ds.inputs.shape, ds.inputs.tobytes(), ds.labels.tobytes(), ds.classes, ds.name


class TestCsvFastPath:
    @settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=csv_texts())
    @example(raw=f"f0,label\n1.5,0\n2.5,{OVERSIZED_LABEL}\n".encode())
    def test_agrees_with_validating_parser(self, tmp_path, raw):
        path = tmp_path / "data.csv"
        path.write_bytes(raw)
        got = outcome(load_csv, path)
        assert got == outcome(_load_csv_checked, path)
        if OVERSIZED_LABEL.encode() in raw:
            # Only a label cell can hold it; it fails as a typed, located error.
            assert got[0] is DataFormatError

    @pytest.mark.parametrize("parse", [load_csv, _load_csv_checked])
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
        fast = _load_plain_csv(path.read_bytes(), path)
        assert fast is not None
        assert fast.inputs.tobytes() == original.inputs.tobytes()
        assert fast.labels.tobytes() == original.labels.tobytes()
        assert fast.classes == max(labels) + 1

    @pytest.mark.parametrize("body", [
        b"1,-1\n", b"1.5,2.0\n", b"1,\n", b"1e999,0\n", b"nan,0\n", b"1_0,0\n",
        b" 1,0\n", b'"1",0\n', b"1,0\n\n", b"1,0,0\n", b"1\n",
    ])
    def test_declines_what_validating_parser_must_judge(self, body):
        assert _load_plain_csv(b"f0,label\n" + body, "x.csv") is None

    def test_accepts_every_line_ending(self):
        for ending in (b"\n", b"\r\n", b"\r"):
            raw = ending.join([b"f0,f1,label", b"1.5,-2,0", b"+.25,3e1,1"]) + ending
            ds = _load_plain_csv(raw, "x.csv")
            assert ds is not None
            assert np.array_equal(ds.inputs, [[1.5, -2.0], [0.25, 30.0]])
            assert ds.labels.tolist() == [0, 1]


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

    @pytest.mark.parametrize("kind", ["two_spirals", "csv"])
    def test_load_split_standardizes_bit_for_bit(self, tmp_path, kind):
        dataset = {"kind": "two_spirals", "n_per_class": 24, "noise_sd": 0.1,
                   "test_n_per_class": 40}
        if kind == "csv":
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
        mean, std = feature_stats(harness.load_split(cfg, "train"))
        stats = {"mean": mean.tolist(), "std": std.tolist()}
        for split in ("train", "test"):
            raw = harness.load_split(cfg, split)
            out = harness.load_split(cfg, split, stats)
            assert out.inputs.tobytes() == ((raw.inputs - mean) / std).tobytes()
            assert out.labels.tobytes() == raw.labels.tobytes()
            assert not out.inputs.flags.writeable
            assert not out.labels.flags.writeable
