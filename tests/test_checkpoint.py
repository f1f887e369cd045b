import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfge.checkpoint import Checkpoint, header_path, load_checkpoint, save_checkpoint
from pfge.errors import DataFormatError
from pfge.nn import LayerSpec, init_model


def make_sample():
    w = init_model(LayerSpec((2, 5, 3), activation="tanh"), seed=42)
    return Checkpoint(
        weights=w,
        standardization={"mean": [0.1, -0.2], "std": [1.5, 0.9]},
        meta={"role": "w0", "seed": 42, "created_at": "2026-01-01T00:00:00+00:00"},
    )


@pytest.fixture
def sample_checkpoint():
    return make_sample()


class TestRoundTrip:
    def test_bit_exact(self, tmp_path, sample_checkpoint):
        path = tmp_path / "w0.ckpt"
        save_checkpoint(path, sample_checkpoint)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.weights.values, sample_checkpoint.weights.values)
        assert loaded.spec == sample_checkpoint.spec
        assert loaded.standardization == sample_checkpoint.standardization
        assert loaded.meta == sample_checkpoint.meta

    def test_payload_is_little_endian_float64(self, tmp_path, sample_checkpoint):
        path = tmp_path / "w0.ckpt"
        save_checkpoint(path, sample_checkpoint)
        raw = np.frombuffer(path.read_bytes(), dtype="<f8")
        assert np.array_equal(raw, sample_checkpoint.weights.values)

    def test_same_weights_same_payload(self, tmp_path, sample_checkpoint):
        save_checkpoint(tmp_path / "a.ckpt", sample_checkpoint)
        save_checkpoint(tmp_path / "b.ckpt", sample_checkpoint)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


class TestValidation:
    def test_corrupted_payload_rejected(self, tmp_path, sample_checkpoint):
        path = tmp_path / "w0.ckpt"
        save_checkpoint(path, sample_checkpoint)
        blob = bytearray(path.read_bytes())
        blob[3] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="digest"):
            load_checkpoint(path)

    def test_missing_sidecar(self, tmp_path, sample_checkpoint):
        path = tmp_path / "w0.ckpt"
        save_checkpoint(path, sample_checkpoint)
        header_path(path).unlink()
        with pytest.raises(DataFormatError, match="header"):
            load_checkpoint(path)

    def test_missing_payload(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_invalid_header_json(self, tmp_path, sample_checkpoint):
        path = tmp_path / "w0.ckpt"
        save_checkpoint(path, sample_checkpoint)
        header_path(path).write_text("{not json")
        with pytest.raises(DataFormatError, match="JSON"):
            load_checkpoint(path)

    def test_length_mismatch_rejected(self, tmp_path, sample_checkpoint):
        path = tmp_path / "w0.ckpt"
        save_checkpoint(path, sample_checkpoint)
        header = json.loads(header_path(path).read_text())
        header["layer_sizes"] = [2, 6, 3]
        header_path(path).write_text(json.dumps(header))
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path, sample_checkpoint):
        path = tmp_path / "w0.ckpt"
        save_checkpoint(path, sample_checkpoint)
        header = json.loads(header_path(path).read_text())
        header["format_version"] = 99
        header_path(path).write_text(json.dumps(header))
        with pytest.raises(DataFormatError, match="version"):
            load_checkpoint(path)


class TestOneByteChanges:
    """Any one-byte change to a saved checkpoint is caught or changes nothing
    the weights depend on. The header's ``meta`` and ``standardization`` are
    not covered by the digest, so a change there loads."""

    @staticmethod
    def change_one_byte(path, data, xor_only):
        blob = bytearray(path.read_bytes())
        pos = data.draw(st.integers(0, len(blob) - 1), label="position")
        if xor_only:
            blob[pos] ^= data.draw(st.integers(1, 255), label="xor")
        else:
            blob[pos] = data.draw(st.integers(0, 255), label="byte")
        path.write_bytes(bytes(blob))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_payload_change_rejected(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "w0.ckpt"
            save_checkpoint(path, make_sample())
            self.change_one_byte(path, data, xor_only=True)
            with pytest.raises(DataFormatError):
                load_checkpoint(path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_header_change_rejected_or_weights_identical(self, data):
        expected = make_sample().weights
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "w0.ckpt"
            save_checkpoint(path, make_sample())
            self.change_one_byte(header_path(path), data, xor_only=False)
            try:
                loaded = load_checkpoint(path)
            except DataFormatError:
                return
        assert loaded.spec == expected.spec
        assert loaded.weights.values.tobytes() == expected.values.tobytes()
